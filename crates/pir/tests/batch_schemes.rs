//! Batch retrieval vs the single-query paths.
//!
//! A batch of one must be *bit-identical* to the existing two-server
//! linear path — records, masks and cost — and must agree record-wise
//! with every other scheme (square, cube, trivial), at `TDF_THREADS`
//! 1 and 4. A fault-injected `pir.batch_drop` must degrade the batch
//! to per-query retries and never change a record.

use rngkit::rngs::StdRng;
use rngkit::{Rng, SeedableRng};
use std::sync::Mutex;
use tdf_pir::batch::{answer_batch, retrieve_batch, BatchQuery};
use tdf_pir::cost::CostReport;
use tdf_pir::store::{Database, ServerView};

/// The fault plan is process-global: serialise tests that install one.
static PLAN: Mutex<()> = Mutex::new(());

fn with_fault_plan<T>(text: &str, f: impl FnOnce() -> T) -> T {
    let _guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    faultkit::set_plan(Some(faultkit::FaultPlan::parse(text).unwrap()));
    let out = f();
    faultkit::set_plan(None);
    out
}

fn db(n: usize) -> Database {
    Database::from_fn(n, 32, |i, rec| {
        for (j, b) in rec.iter_mut().enumerate() {
            *b = (i.wrapping_mul(0x9E37) >> (j % 13)) as u8;
        }
    })
}

#[test]
fn batch_of_one_is_bit_identical_to_the_linear_path_at_1_and_4_threads() {
    let db = db(4096);
    for threads in [1usize, 4] {
        par::with_threads(threads, || {
            for index in [0usize, 63, 64, 2048, 4095] {
                let (record, views, cost) = {
                    let mut rng = StdRng::seed_from_u64(0xB417);
                    tdf_pir::linear::retrieve(&mut rng, &db, 2, index)
                };
                let out = {
                    let mut rng = StdRng::seed_from_u64(0xB417);
                    retrieve_batch(&mut rng, &db, &[index])
                };
                assert_eq!(out.records, vec![record], "threads={threads} index={index}");
                assert_eq!(out.cost, cost, "threads={threads} index={index}");
                // Same RNG stream ⇒ the batch sent the very same masks.
                let q = {
                    let mut rng = StdRng::seed_from_u64(0xB417);
                    BatchQuery::build(&mut rng, db.len(), &[index])
                };
                for (j, view) in views.iter().enumerate() {
                    assert_eq!(
                        *view,
                        ServerView::Mask(q.queries()[0].share(j).clone()),
                        "threads={threads} index={index} server={j}"
                    );
                }
            }
        });
    }
}

/// Every lane of a batch answers exactly what its server computes alone:
/// `answer_batch` over q queries equals q sequential
/// `linear::retrieve` calls on the same RNG stream — records, masks
/// per replica, and the summed `CostReport`. Record sizes 8 and 32 take
/// the whole-word kernel, 1, 9 and 70 the body-plus-tail kernel; a
/// lane paired with another query's replica would XOR to a wrong record.
#[test]
fn fused_lanes_equal_per_query_linear_retrievals_for_every_kernel() {
    let n = 333;
    for record_size in [1usize, 8, 9, 32, 70] {
        let db = Database::from_fn(n, record_size, |i, rec| {
            for (j, b) in rec.iter_mut().enumerate() {
                *b = (i.wrapping_mul(0x9E37).wrapping_add(j * 0x51) >> (j % 7)) as u8;
            }
        });
        for q in [1usize, 2, 3, 9] {
            let indices: Vec<usize> = (0..q).map(|t| (t * 131 + 5 * q) % n).collect();
            let seed = 0xF05E ^ (record_size * 16 + q) as u64;
            let what = format!("record_size={record_size} q={q}");
            let mut batch_rng = StdRng::seed_from_u64(seed);
            let batch = BatchQuery::build(&mut batch_rng, n, &indices);
            let out = answer_batch(&db, &batch);
            assert!(!out.degraded, "{what}");
            let mut linear_rng = StdRng::seed_from_u64(seed);
            let mut cost = CostReport::default();
            for (l, &index) in indices.iter().enumerate() {
                let (record, views, c) = tdf_pir::linear::retrieve(&mut linear_rng, &db, 2, index);
                assert_eq!(out.records[l], record, "{what} lane {l}");
                assert_eq!(record, db.record(index), "{what} lane {l}");
                for (j, view) in views.iter().enumerate() {
                    assert_eq!(
                        *view,
                        ServerView::Mask(batch.queries()[l].share(j).clone()),
                        "{what} lane {l} replica {j}"
                    );
                }
                cost += c;
            }
            assert_eq!(out.records.len(), q, "{what}");
            assert_eq!(out.cost, cost, "{what}");
            assert_eq!(batch_rng.next_u64(), linear_rng.next_u64(), "{what}");
        }
    }
}

#[test]
fn batch_of_one_agrees_with_every_scheme_at_1_and_4_threads() {
    let db = db(1000);
    for threads in [1usize, 4] {
        par::with_threads(threads, || {
            for index in [0usize, 1, 499, 999] {
                let mut rng = StdRng::seed_from_u64(7 + index as u64);
                let batched = retrieve_batch(&mut rng, &db, &[index]);
                let want = db.record(index).to_vec();
                assert_eq!(
                    batched.records[0], want,
                    "batch threads={threads} i={index}"
                );

                let (lin, _, _) = tdf_pir::linear::retrieve(&mut rng, &db, 3, index);
                assert_eq!(lin, want, "linear threads={threads} i={index}");
                let (sq, _, _) = tdf_pir::square::retrieve(&mut rng, &db, index);
                assert_eq!(sq, want, "square threads={threads} i={index}");
                for d in [2u32, 3] {
                    let (cu, _, _) = tdf_pir::cube::retrieve(&mut rng, &db, d, index);
                    assert_eq!(cu, want, "cube d={d} threads={threads} i={index}");
                }
                let (tr, _, _) = tdf_pir::trivial::retrieve(&db, index);
                assert_eq!(tr, want, "trivial threads={threads} i={index}");
            }
        });
    }
}

#[test]
fn batch_of_many_matches_sequential_single_queries() {
    let db = db(3000);
    let indices: Vec<usize> = (0..24).map(|t| (t * 997) % 3000).collect();
    // Sequential single-query retrievals, drawing from one RNG stream...
    let sequential: Vec<Vec<u8>> = {
        let mut rng = StdRng::seed_from_u64(0x5E0);
        indices
            .iter()
            .map(|&i| tdf_pir::linear::retrieve(&mut rng, &db, 2, i).0)
            .collect()
    };
    // ...must equal one fused batch over the same stream.
    let mut rng = StdRng::seed_from_u64(0x5E0);
    let batched = retrieve_batch(&mut rng, &db, &indices);
    assert_eq!(batched.records, sequential);
}

#[test]
fn dropped_batch_degrades_to_per_query_retries_never_a_wrong_record() {
    let db = db(2048);
    let indices: Vec<usize> = (0..9).map(|t| t * 227).collect();
    let clean = {
        let mut rng = StdRng::seed_from_u64(0xD209);
        retrieve_batch(&mut rng, &db, &indices)
    };
    assert!(!clean.degraded);

    let before = obs::level();
    obs::set_level(1);
    let faulted = with_fault_plan("pir.batch_drop=1", || {
        let mut rng = StdRng::seed_from_u64(0xD209);
        retrieve_batch(&mut rng, &db, &indices)
    });
    let drops = obs::snapshot().counter("pir.batch.drops");
    obs::set_level(before);

    assert!(faulted.degraded, "the drop plan must trip the batch");
    assert!(drops >= 1, "the drop must be counted");
    // Same seed ⇒ same masks ⇒ the per-query fallback answers the very
    // same queries: identical records and identical cost.
    assert_eq!(faulted.records, clean.records);
    assert_eq!(faulted.cost, clean.cost);
    for (l, &i) in indices.iter().enumerate() {
        assert_eq!(faulted.records[l], db.record(i).to_vec(), "lane {l}");
    }

    // Budget exhausted: the next batch fuses normally again.
    let after = {
        let mut rng = StdRng::seed_from_u64(0xD209);
        retrieve_batch(&mut rng, &db, &indices)
    };
    assert!(!after.degraded);
    assert_eq!(after.records, clean.records);
}
