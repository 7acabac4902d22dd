//! Property test: `ControlPolicy::overlap` admits and refuses exactly as a
//! `BTreeSet` history does, on random ascending query sets over a
//! population that grows between queries, with `max_overlap` set just
//! below, at and just above the true pairwise overlaps.

use check::prelude::*;
use std::collections::BTreeSet;
use tdf_microdata::{patients, Bitmap};
use tdf_querydb::parser::parse;
use tdf_querydb::{Answer, ControlPolicy, Evaluation, QuerySet};

const MIN_SIZE: usize = 2;

/// One step: rows appended before the query, inclusion density in
/// eighths, a seed for which rows are included, and whether the
/// aggregate comes out defined.
type Step = (usize, u64, u64, u8);

/// The ascending query sets of `steps`, each over the population grown
/// so far.
fn query_sets(steps: &[Step]) -> Vec<Vec<usize>> {
    let mut n = 0;
    steps
        .iter()
        .map(|&(growth, density, seed, _)| {
            n += growth;
            (0..n)
                .filter(|&i| {
                    let mut state = seed ^ i as u64;
                    rngkit::splitmix64(&mut state) % 8 < density
                })
                .collect()
        })
        .collect()
}

/// The query set of the ascending rows `set`, over a table that ends at
/// its last row.
fn query_set(set: &[usize]) -> QuerySet {
    let mut bits = Bitmap::zeros(set.last().map_or(0, |&i| i + 1));
    for &i in set {
        bits.set(i, true);
    }
    QuerySet::from(bits)
}

/// The old representation's verdict: refuse below the size floor or on
/// an overlap above `max_overlap` with an answered set.
fn reference(sets: &[Vec<usize>], defined: &[bool], max_overlap: usize) -> Vec<bool> {
    let mut history: Vec<BTreeSet<usize>> = Vec::new();
    sets.iter()
        .zip(defined)
        .map(|(set, &defined)| {
            let current: BTreeSet<usize> = set.iter().copied().collect();
            let admitted = set.len() >= MIN_SIZE
                && defined
                && !history
                    .iter()
                    .any(|prev| prev.intersection(&current).count() > max_overlap);
            if admitted {
                history.push(current);
            }
            admitted
        })
        .collect()
}

/// Thresholds t−1, t and t+1 around the pairwise overlap `pick` selects.
fn thresholds(sets: &[Vec<usize>], pick: u64) -> Vec<usize> {
    let mut overlaps = Vec::new();
    for (j, b) in sets.iter().enumerate() {
        let b: BTreeSet<usize> = b.iter().copied().collect();
        for a in &sets[..j] {
            overlaps.push(a.iter().filter(|i| b.contains(i)).count());
        }
    }
    let t = overlaps
        .get((pick as usize) % overlaps.len().max(1))
        .copied()
        .unwrap_or(0);
    [t.checked_sub(1), Some(t), Some(t + 1)]
        .into_iter()
        .flatten()
        .collect()
}

props! {
    #![cases(96)]

    #[test]
    fn packed_overlap_history_matches_the_btreeset_reference(
        steps in vec((0usize..150, 1u64..8, any::<u64>(), 0u8..8), 1..14),
        pick in any::<u64>(),
    ) {
        let sets = query_sets(&steps);
        let defined: Vec<bool> = steps.iter().map(|s| s.3 != 0).collect();
        let data = patients::dataset1();
        let query = parse("SELECT COUNT(*) FROM t").unwrap();
        for max_overlap in thresholds(&sets, pick) {
            let mut policy = ControlPolicy::overlap(MIN_SIZE, max_overlap);
            let got: Vec<bool> = sets
                .iter()
                .zip(&defined)
                .map(|(set, &defined)| {
                    let eval = Evaluation {
                        query_set: query_set(set),
                        value: defined.then_some(set.len() as f64),
                    };
                    !policy.apply(&data, &query, &eval).is_refused()
                })
                .collect();
            prop_assert_eq!(got, reference(&sets, &defined, max_overlap));
        }
    }
}

#[test]
fn refusal_messages_are_unchanged() {
    let data = patients::dataset1();
    let query = parse("SELECT COUNT(*) FROM t").unwrap();
    let eval = |set: Vec<usize>| Evaluation {
        value: Some(set.len() as f64),
        query_set: query_set(&set),
    };
    let mut policy = ControlPolicy::overlap(2, 1);
    assert_eq!(
        policy.apply(&data, &query, &eval(vec![3])),
        Answer::Refused("query set below minimum size")
    );
    assert_eq!(
        policy.apply(&data, &query, &eval(vec![0, 5, 70])),
        Answer::Exact(3.0)
    );
    // Two shared rows (5 and 70) against a set answered while the
    // population was smaller.
    assert_eq!(
        policy.apply(&data, &query, &eval(vec![5, 70, 200])),
        Answer::Refused("query set overlaps an answered query too much")
    );
    assert_eq!(
        policy.apply(&data, &query, &eval(vec![0, 300])),
        Answer::Exact(2.0)
    );
}
