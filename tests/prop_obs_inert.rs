//! Observability is inert: running any kernel with `TDF_OBS` forced to 2
//! (counters + spans) must produce bit-identical results to running it
//! with observability off, at thread counts 1 and 4 alike. Instrumentation
//! that changes an answer — by consuming randomness, reordering a fold, or
//! branching on the level anywhere but at the recording site — fails here.

use check::prelude::*;
use dbpriv::microdata::rng::seeded;
use dbpriv::microdata::synth::{census, patients, PatientConfig};
use dbpriv::pir::store::Database;
use dbpriv::querydb::control::ControlPolicy;
use dbpriv::querydb::dp::DpPolicy;
use dbpriv::querydb::statdb::StatDb;
use std::sync::Mutex;

/// The observability level is process-global state: every test in this
/// binary flips it, so they serialise on one lock.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per (obs level, thread count) combination and returns
/// the four results in a fixed order: (0,1), (2,1), (0,4), (2,4). The
/// registry is cleared afterwards so no counters leak across cases.
fn matrix<T>(f: impl Fn() -> T) -> [T; 4] {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = |level: u8, threads: usize| {
        obs::set_level(level);
        let out = par::with_threads(threads, &f);
        obs::set_level(0);
        out
    };
    let out = [run(0, 1), run(2, 1), run(0, 4), run(2, 4)];
    obs::reset();
    out
}

props! {
    #![cases(12)]

    #[test]
    fn mdav_is_unchanged_by_observability(n in 30usize..120, k in 2usize..6, seed in 0u64..30) {
        let d = patients(&PatientConfig { n, seed, ..Default::default() });
        let qi = d.schema().quasi_identifier_indices();
        let [off1, on1, off4, on4] =
            matrix(|| dbpriv::sdc::microaggregation::mdav_microaggregate(&d, &qi, k).unwrap());
        // Dataset equality compares float cells by bit pattern.
        prop_assert_eq!(&on1.data, &off1.data);
        prop_assert_eq!(&on1.group_of, &off1.group_of);
        prop_assert_eq!(on1.sse.to_bits(), off1.sse.to_bits());
        prop_assert_eq!(&on4.data, &off4.data);
        prop_assert_eq!(&on4.group_of, &off4.group_of);
        prop_assert_eq!(on4.sse.to_bits(), off4.sse.to_bits());
    }

    #[test]
    fn mondrian_is_unchanged_by_observability(n in 30usize..120, k in 2usize..6, seed in 0u64..30) {
        let d = patients(&PatientConfig { n, seed, ..Default::default() });
        let [off1, on1, off4, on4] = matrix(|| dbpriv::anonymity::mondrian_anonymize(&d, k));
        prop_assert_eq!(&on1.data, &off1.data);
        prop_assert_eq!(&on1.partition_of, &off1.partition_of);
        prop_assert_eq!(&on4.data, &off4.data);
        prop_assert_eq!(&on4.partition_of, &off4.partition_of);
    }

    #[test]
    fn pram_is_unchanged_by_observability(n in 10usize..80, seed in 0u64..30, flip_pct in 0u32..100) {
        let d = census(n, seed);
        let flip = f64::from(flip_pct) / 100.0;
        let [off1, on1, off4, on4] =
            matrix(|| dbpriv::sdc::pram::pram(&d, 4, flip, &mut seeded(seed)).unwrap());
        prop_assert_eq!(&on1, &off1);
        prop_assert_eq!(&on4, &off4);
    }

    #[test]
    fn pir_retrieval_is_unchanged_by_observability(n in 8usize..300, seed in 0u64..30) {
        let db = Database::new((0..n).map(|i| vec![i as u8, (i * 3) as u8]).collect());
        let index = n / 2;
        let [off1, on1, off4, on4] = matrix(|| {
            let mut rng = seeded(seed);
            let lin = dbpriv::pir::linear::retrieve(&mut rng, &db, 3, index);
            let sq = dbpriv::pir::square::retrieve(&mut rng, &db, index);
            let cu = dbpriv::pir::cube::retrieve(&mut rng, &db, 3, index);
            (lin, sq, cu)
        });
        prop_assert_eq!(&on1, &off1);
        prop_assert_eq!(&on4, &off4);
    }

    #[test]
    fn querydb_answers_are_unchanged_by_observability(n in 20usize..100, seed in 0u64..30) {
        let d = patients(&PatientConfig { n, seed, ..Default::default() });
        let queries = [
            "SELECT COUNT(*) FROM t WHERE height < 170",
            "SELECT AVG(weight) FROM t WHERE height >= 150",
            "SELECT SUM(weight) FROM t",
            "SELECT COUNT(*) FROM t WHERE weight > 80",
        ];
        let [off1, on1, off4, on4] = matrix(|| {
            // Exact answers under query-set-size restriction...
            let mut db = StatDb::new(d.clone(), ControlPolicy::SizeRestriction { min_size: 3 });
            let exact: Vec<_> = queries.iter().map(|q| db.query_str(q).unwrap()).collect();
            // ...and Laplace answers under a seeded DP policy (each query
            // draws noise, so instrumentation consuming the RNG would show).
            let mut dp_policy = DpPolicy::new(0.5, 10.0, seed).with_range("weight", 30.0, 200.0);
            let dp: Vec<_> = queries
                .iter()
                .map(|src| {
                    let q = dbpriv::querydb::parser::parse(src).unwrap();
                    let e = dbpriv::querydb::engine::evaluate(&d, &q).unwrap();
                    dp_policy.apply_eval(&q, &e)
                })
                .collect();
            (exact, dp)
        });
        prop_assert_eq!(&on1, &off1);
        prop_assert_eq!(&on4, &off4);
    }
}
