//! Columnar-storage properties: the typed, dictionary-encoded column store
//! behind `Dataset` must be a perfect stand-in for a row-major table —
//! identical content through serialization round-trips, the compat row
//! materializer, and every seeded kernel at every thread count.

use check::prelude::*;
use dbpriv::microdata::rng::seeded;
use dbpriv::microdata::ser::{dataset_from_tsv, dataset_to_tsv};
use dbpriv::microdata::synth::{census, patients, PatientConfig};
use dbpriv::microdata::{Dataset, Value};

props! {
    #![cases(24)]

    #[test]
    fn tsv_round_trip_preserves_columnar_content(n in 1usize..80, seed in 0u64..50) {
        // Mixed Integer / Nominal / Ordinal / Continuous columns: the
        // round trip exercises dictionary re-interning from scratch.
        let d = census(n, seed);
        let back = dataset_from_tsv(&dataset_to_tsv(&d)).unwrap();
        prop_assert_eq!(&back, &d);
        for i in 0..d.num_rows() {
            prop_assert_eq!(back.row(i), d.row(i));
        }
    }

    #[test]
    fn row_materializer_round_trips_through_with_rows(n in 1usize..60, seed in 0u64..50) {
        // Columnar → rows → columnar: rebuilding from materialized rows
        // reproduces the dataset exactly (dictionary order may differ;
        // equality is representation-independent by design).
        let d = census(n, seed);
        let rows: Vec<Vec<Value>> = (0..d.num_rows()).map(|i| d.row(i)).collect();
        let rebuilt = Dataset::with_rows(d.schema().clone(), rows).unwrap();
        prop_assert_eq!(&rebuilt, &d);
        for i in 0..d.num_rows() {
            for c in 0..d.num_columns() {
                prop_assert_eq!(rebuilt.value(i, c), d.value(i, c));
            }
        }
    }

    #[test]
    fn mdav_is_bit_identical_across_thread_counts(n in 40usize..160, k in 2usize..6, seed in 0u64..30) {
        let d = patients(&PatientConfig { n, seed, ..Default::default() });
        let qi = d.schema().quasi_identifier_indices();
        let run = || dbpriv::sdc::microaggregation::mdav_microaggregate(&d, &qi, k).unwrap();
        let (a, b) = (par::with_threads(1, run), par::with_threads(4, run));
        // Dataset equality compares float cells by bit pattern, so this is
        // bit-identity, not approximate agreement.
        prop_assert_eq!(&a.data, &b.data);
        prop_assert_eq!(a.group_of, b.group_of);
        prop_assert_eq!(a.sse.to_bits(), b.sse.to_bits());
    }

    #[test]
    fn mondrian_is_bit_identical_across_thread_counts(n in 40usize..160, k in 2usize..6, seed in 0u64..30) {
        let d = patients(&PatientConfig { n, seed, ..Default::default() });
        let run = || dbpriv::anonymity::mondrian_anonymize(&d, k);
        let (a, b) = (par::with_threads(1, run), par::with_threads(4, run));
        prop_assert_eq!(&a.data, &b.data);
        prop_assert_eq!(a.partition_of, b.partition_of);
    }

    #[test]
    fn pram_is_deterministic_and_domain_preserving(n in 10usize..80, seed in 0u64..30, flip_pct in 0u32..100) {
        // PRAM consumes the RNG per non-missing row in row order; under a
        // fixed seed the coded (dictionary) implementation must replay the
        // exact same draws every run, and never invent a category.
        let d = census(n, seed);
        let flip = f64::from(flip_pct) / 100.0;
        let col = 4; // "disease", Nominal
        let a = dbpriv::sdc::pram::pram(&d, col, flip, &mut seeded(seed)).unwrap();
        let b = dbpriv::sdc::pram::pram(&d, col, flip, &mut seeded(seed)).unwrap();
        prop_assert_eq!(&a, &b);
        let domain: Vec<Value> = (0..d.num_rows()).map(|i| d.value(i, col)).collect();
        for i in 0..a.num_rows() {
            prop_assert!(domain.contains(&a.value(i, col)));
        }
        // Missingness pattern and every other column survive untouched.
        for i in 0..a.num_rows() {
            prop_assert_eq!(a.value(i, col).is_missing(), d.value(i, col).is_missing());
            for c in 0..d.num_columns() {
                if c != col {
                    prop_assert_eq!(a.value(i, c), d.value(i, c));
                }
            }
        }
    }

    #[test]
    fn take_then_row_equals_row_of_source(n in 2usize..60, seed in 0u64..30) {
        // The columnar gather used by filter/partition/suppression must
        // agree cell-for-cell with row-by-row copying.
        let d = census(n, seed);
        let idx: Vec<usize> = (0..d.num_rows()).rev().step_by(2).collect();
        let gathered = d.take(&idx);
        prop_assert_eq!(gathered.num_rows(), idx.len());
        for (r, &i) in idx.iter().enumerate() {
            prop_assert_eq!(gathered.row(r), d.row(i));
        }
    }
}
