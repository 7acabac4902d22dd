//! Cross-crate property tests: invariants that must hold for *any*
//! parameters, not just the scenarios the unit tests pick.

use check::prelude::*;
use dbpriv::anonymity::is_k_anonymous;
use dbpriv::mathkit::Fp61;
use dbpriv::microdata::rng::seeded;
use dbpriv::microdata::synth::{patients, PatientConfig};
use dbpriv::pir::store::Database;

props! {
    #![cases(24)]

    #[test]
    fn microaggregation_always_k_anonymizes(n in 30usize..120, k in 2usize..8, seed in 0u64..50) {
        let data = patients(&PatientConfig { n, seed, ..Default::default() });
        let qi = data.schema().quasi_identifier_indices();
        let masked = dbpriv::sdc::microaggregation::mdav_microaggregate(&data, &qi, k)
            .unwrap()
            .data;
        prop_assert!(is_k_anonymous(&masked, k));
        // Means survive exactly.
        for &c in &qi {
            let m0 = dbpriv::microdata::stats::mean(&data.numeric_column(c)).unwrap();
            let m1 = dbpriv::microdata::stats::mean(&masked.numeric_column(c)).unwrap();
            prop_assert!((m0 - m1).abs() < 1e-6);
        }
    }

    #[test]
    fn mondrian_always_k_anonymizes(n in 30usize..120, k in 2usize..8, seed in 0u64..50) {
        let data = patients(&PatientConfig { n, seed, ..Default::default() });
        let masked = dbpriv::anonymity::mondrian_anonymize(&data, k).data;
        prop_assert!(is_k_anonymous(&masked, k));
    }

    #[test]
    fn pir_retrieves_any_index_of_any_database(
        n in 1usize..60,
        servers in 2usize..5,
        seed in 0u64..100,
    ) {
        let mut rng = seeded(seed);
        let db = Database::new(
            (0..n).map(|i| vec![(i * 37 % 256) as u8, (i * 101 % 256) as u8]).collect(),
        );
        let idx = (seed as usize * 7) % n;
        let (rec, views, cost) = dbpriv::pir::linear::retrieve(&mut rng, &db, servers, idx);
        prop_assert_eq!(rec.as_slice(), db.record(idx));
        prop_assert_eq!(views.len(), servers);
        prop_assert_eq!(cost.servers as usize, servers);
    }

    #[test]
    fn square_pir_agrees_with_linear_pir(n in 4usize..80, seed in 0u64..100) {
        let mut rng = seeded(seed);
        let db = Database::new((0..n).map(|i| vec![(i % 256) as u8; 3]).collect());
        let idx = (seed as usize * 13) % n;
        let (a, _, _) = dbpriv::pir::linear::retrieve(&mut rng, &db, 2, idx);
        let (b, _, _) = dbpriv::pir::square::retrieve(&mut rng, &db, idx);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn secure_sum_equals_plain_sum(values in vec(0u64..1_000_000, 3..10),
                                   seed in 0u64..100) {
        let mut rng = seeded(seed);
        let inputs: Vec<Fp61> = values.iter().map(|&v| Fp61::new(v)).collect();
        let (ring, _) = dbpriv::smc::secure_sum::ring_secure_sum(&mut rng, &inputs);
        let (share, _) = dbpriv::smc::secure_sum::sharing_secure_sum(&mut rng, &inputs);
        let expected: u64 = values.iter().sum();
        prop_assert_eq!(ring, Fp61::new(expected));
        prop_assert_eq!(share, Fp61::new(expected));
    }

    #[test]
    fn query_display_reparses_to_the_same_ast(
        threshold in -500i32..500,
        pick_attr in 0usize..2,
        agg in 0usize..5,
    ) {
        let attr = ["height", "weight"][pick_attr];
        let agg_src = match agg {
            0 => "COUNT(*)".to_owned(),
            1 => format!("SUM({attr})"),
            2 => format!("AVG({attr})"),
            3 => format!("MIN({attr})"),
            _ => format!("MAX({attr})"),
        };
        let src = format!("SELECT {agg_src} FROM t WHERE {attr} < {threshold} AND aids = Y");
        let q1 = dbpriv::querydb::parser::parse(&src).unwrap();
        let q2 = dbpriv::querydb::parser::parse(&q1.to_string()).unwrap();
        prop_assert_eq!(q1, q2);
    }

    #[test]
    fn pir_encode_decode_round_trips_any_patient_population(
        n in 1usize..40,
        seed in 0u64..50,
    ) {
        let data = patients(&PatientConfig { n, seed, ..Default::default() });
        let recs = dbpriv::microdata::pircodec::encode_records(&data).unwrap();
        for (i, rec) in recs.iter().enumerate() {
            let row = dbpriv::microdata::pircodec::decode_record(data.schema(), rec).unwrap();
            prop_assert_eq!(row.as_slice(), data.row(i));
        }
    }

    #[test]
    fn noise_then_reconstruction_never_underperforms_for_strong_noise(
        seed in 0u64..20,
    ) {
        // For sigma comparable to the data spread, Bayes reconstruction
        // must beat the naive noisy histogram in total variation.
        use dbpriv::ppdm::agrawal::{distort_column, empirical_distribution,
                                     reconstruct_distribution};
        let mut rng = seeded(seed);
        let xs: Vec<f64> = (0..800)
            .map(|i| if i % 2 == 0 { -2.0 } else { 2.0 })
            .map(|c| c + 0.4 * dbpriv::microdata::rng::standard_normal(&mut rng))
            .collect();
        let sigma = 1.5;
        let ws = distort_column(&xs, sigma, &mut rng);
        let truth = empirical_distribution(&xs, -6.0, 6.0, 16);
        let noisy = empirical_distribution(&ws, -6.0, 6.0, 16);
        let recon = reconstruct_distribution(&ws, sigma, -6.0, 6.0, 16, 120);
        let tv_noisy = dbpriv::microdata::stats::total_variation(&noisy, &truth);
        let tv_recon = recon.tv_distance(&truth);
        prop_assert!(tv_recon < tv_noisy, "recon {tv_recon} vs noisy {tv_noisy}");
    }
}
