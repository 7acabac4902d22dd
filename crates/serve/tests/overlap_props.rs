//! Property test: a `UserSession` over a `SegmentedDataset` that receives
//! APPENDs between queries admits and refuses exactly as a `BTreeSet`
//! history of the answered query sets does, with `max_overlap` set just
//! below, at and just above the true pairwise overlaps.

use check::prelude::*;
use std::collections::BTreeSet;
use tdf_microdata::synth::{patients, PatientConfig};
use tdf_microdata::SegmentedDataset;
use tdf_querydb::engine::evaluate_segmented;
use tdf_querydb::parser::parse;
use tdf_serve::{RefusalReason, Response, SessionConfig, UserSession};

const MIN_QUERY_SET: usize = 2;

/// One step: patient rows appended before the query, whether the tail is
/// sealed after the append, and the query's height window and weight
/// floor.
type Step = (usize, u8, u32, u32, u32);

fn sql(&(_, _, lo, width, weight): &Step) -> String {
    format!(
        "SELECT COUNT(*) FROM t WHERE height >= {} AND height < {} AND weight >= {}",
        150 + lo,
        150 + lo + width,
        50 + weight
    )
}

/// Replays `steps` over a population that starts with 1,000 rows (16
/// bitmap words, so overlap counts span more than one 8-word chunk),
/// calling `visit` with the grown data and each step's query.
fn replay(seed: u64, steps: &[Step], mut visit: impl FnMut(&SegmentedDataset, &str)) {
    let initial = patients(&PatientConfig {
        n: 1000,
        seed,
        ..Default::default()
    });
    let mut data = SegmentedDataset::from_dataset(&initial, 256);
    for (k, step) in steps.iter().enumerate() {
        let appended = patients(&PatientConfig {
            n: step.0,
            seed: seed ^ (k as u64 + 1),
            ..Default::default()
        });
        for row in appended.rows() {
            data.push_row(row).unwrap();
        }
        if step.1 == 1 {
            data.seal();
        }
        visit(&data, &sql(step));
    }
}

/// What the session should answer: refused by policy below the size
/// floor, refused as a tracker on an overlap above `max_overlap` with an
/// answered set, answered otherwise.
fn reference(sets: &[Vec<usize>], max_overlap: usize) -> Vec<Option<RefusalReason>> {
    let mut history: Vec<BTreeSet<usize>> = Vec::new();
    sets.iter()
        .map(|set| {
            let current: BTreeSet<usize> = set.iter().copied().collect();
            if set.len() < MIN_QUERY_SET {
                Some(RefusalReason::Policy)
            } else if history
                .iter()
                .any(|prev| prev.intersection(&current).count() > max_overlap)
            {
                Some(RefusalReason::Tracker)
            } else {
                history.push(current);
                None
            }
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
    #![cases(48)]

    #[test]
    fn session_overlap_checks_match_the_btreeset_reference(
        seed in any::<u64>(),
        steps in vec((0usize..160, 0u8..2, 0u32..40, 0u32..40, 0u32..50), 1..10),
        pick in any::<u64>(),
    ) {
        let mut sets = Vec::new();
        replay(seed, &steps, |data, sql| {
            let query = parse(sql).unwrap();
            sets.push(evaluate_segmented(data, &query).unwrap().query_set.iter().collect());
        });
        for max_overlap in thresholds(&sets, pick) {
            let cfg = SessionConfig {
                epsilon_per_query: 1.0,
                budget: 1000.0,
                seed,
                min_query_set: MIN_QUERY_SET,
                max_overlap,
                max_rows: 0,
            };
            let mut session = UserSession::new(&cfg, 7);
            let mut got = Vec::new();
            replay(seed, &steps, |data, sql| {
                got.push(match session.answer_segmented(data, sql) {
                    Response::Refused { reason, .. } => Some(reason),
                    Response::Perturbed(_) => None,
                    other => panic!("{other:?}"),
                });
            });
            prop_assert_eq!(got, reference(&sets, max_overlap));
        }
    }
}
