//! Segmented out-of-core dataset properties: sealed segments + mutable
//! tail must be a perfect stand-in for the monolithic in-memory table —
//! bit-identical through seal/spill/reload round-trips, the streaming
//! query evaluator, and incremental epoch anonymization at every thread
//! count. The divergence incremental MDAV *is* allowed (per-segment group
//! formation) is pinned to its documented bound: masked cells stay inside
//! the original column's value range, and k-anonymity survives
//! concatenation.

use check::prelude::*;
use dbpriv::microdata::synth::{patients, PatientConfig};
use dbpriv::microdata::{Dataset, SegmentedDataset};
use dbpriv::querydb::ast::{Aggregate, CmpOp, Predicate, Query};
use dbpriv::querydb::engine::{evaluate, evaluate_segmented, Evaluation};
use dbpriv::querydb::parser::parse;
use dbpriv::sdc::{mdav_microaggregate, record_linkage_rate, EpochMasker, EpochPublisher};

fn sample(n: usize, seed: u64) -> Dataset {
    patients(&PatientConfig {
        n,
        seed,
        ..Default::default()
    })
}

/// Per-column [min, max] over the non-missing numeric cells.
fn column_range(d: &Dataset, col: usize) -> (f64, f64) {
    let cells = d.f64_cells(col).expect("numeric column");
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..d.num_rows() {
        if let Some(v) = cells.get(i) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (lo, hi)
}

/// Row-at-a-time reference evaluator, built on public API only and kept
/// apart from the code under test. A cell compares through
/// `Value::total_cmp` (what `ColumnView::cmp_value` computes), a missing
/// cell matches nothing, SUM and AVG left-fold from `+0.0` in row order,
/// and MIN/MAX select under `f64::total_cmp`.
fn reference(d: &Dataset, q: &Query) -> Evaluation {
    fn matches(d: &Dataset, p: &Predicate, i: usize) -> bool {
        let cell = |attribute: &str| d.value(i, d.schema().index_of(attribute).unwrap());
        match p {
            Predicate::True => true,
            Predicate::Cmp {
                attribute,
                op,
                literal,
            } => {
                let v = cell(attribute);
                let ord = v.total_cmp(literal);
                !v.is_missing()
                    && match op {
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Ge => ord.is_ge(),
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Ne => ord.is_ne(),
                    }
            }
            Predicate::And(a, b) => matches(d, a, i) && matches(d, b, i),
            Predicate::Or(a, b) => matches(d, a, i) || matches(d, b, i),
            Predicate::Not(inner) => !matches(d, inner, i),
            Predicate::In { attribute, values } => {
                let v = cell(attribute);
                !v.is_missing() && values.iter().any(|x| v.total_cmp(x).is_eq())
            }
        }
    }
    let query_set: Vec<usize> = (0..d.num_rows())
        .filter(|&i| matches(d, &q.predicate, i))
        .collect();
    let cells: Vec<f64> = match q.aggregate.attribute() {
        Some(name) => {
            let col = d.schema().index_of(name).unwrap();
            query_set
                .iter()
                .filter_map(|&i| d.value(i, col).as_f64())
                .collect()
        }
        None => Vec::new(),
    };
    let sum = cells.iter().fold(0.0, |acc, v| acc + v);
    let value = match &q.aggregate {
        Aggregate::Count => Some(query_set.len() as f64),
        Aggregate::Sum(_) => Some(sum),
        Aggregate::Avg(_) => (!cells.is_empty()).then(|| sum / cells.len() as f64),
        Aggregate::Min(_) => cells.iter().copied().min_by(f64::total_cmp),
        Aggregate::Max(_) => cells.iter().copied().max_by(f64::total_cmp),
    };
    Evaluation { query_set, value }
}

/// Query set and the aggregate's bit pattern, so `+0.0` and `-0.0` differ.
fn bits(e: &Evaluation) -> (&[usize], Option<u64>) {
    (&e.query_set, e.value.map(f64::to_bits))
}

props! {
    #![cases(24)]

    #[test]
    fn materialize_round_trips_through_segments_and_spills(
        n in 1usize..200, seg_rows in 1usize..64, seed in 0u64..40
    ) {
        let d = sample(n, seed);
        let seg = SegmentedDataset::from_dataset(&d, seg_rows);
        prop_assert_eq!(seg.num_rows(), n);
        // Dataset equality compares float cells by bit pattern, so these
        // are bit-identity checks, not approximate agreement.
        prop_assert_eq!(&seg.materialize().unwrap(), &d);
        // Force every sealed segment through the binary spill format and
        // back; content must survive the disk round trip exactly.
        seg.spill_all();
        prop_assert_eq!(&seg.materialize().unwrap(), &d);
    }

    #[test]
    fn pinned_segments_reload_their_exact_row_range(
        n in 30usize..150, seg_rows in 5usize..40, seed in 0u64..40
    ) {
        let d = sample(n, seed);
        let seg = SegmentedDataset::from_dataset(&d, seg_rows);
        seg.spill_all();
        for idx in 0..seg.num_segments() {
            let meta = seg.segment_meta(idx);
            let part = seg.pin(idx).unwrap();
            let rows: Vec<usize> = (meta.start_row..meta.start_row + meta.rows).collect();
            prop_assert_eq!(&*part, &d.take(&rows));
        }
    }

    #[test]
    fn segmented_queries_match_monolithic_bit_for_bit(
        n in 1usize..150, seg_rows in 1usize..50, seed in 0u64..40
    ) {
        let d = sample(n, seed);
        let seg = SegmentedDataset::from_dataset(&d, seg_rows);
        seg.spill_all();
        for sql in [
            "SELECT COUNT(*) FROM t WHERE height < 170",
            "SELECT SUM(weight) FROM t WHERE height >= 160 AND height <= 185",
            "SELECT AVG(blood_pressure) FROM t WHERE weight > 70",
            "SELECT MIN(height) FROM t WHERE weight < 90",
            "SELECT MAX(weight) FROM t",
            "SELECT SUM(weight) FROM t WHERE height > 999",
            "SELECT COUNT(*) FROM t WHERE height < 160 OR weight > 95",
            "SELECT MAX(blood_pressure) FROM t WHERE NOT aids = Y",
            "SELECT AVG(weight) FROM t WHERE height IN (160, 165.5, 170, 180)",
        ] {
            let q = parse(sql).unwrap();
            let want = reference(&d, &q);
            let mono = evaluate(&d, &q).unwrap();
            let segd = evaluate_segmented(&seg, &q).unwrap();
            let (want, mono, segd) = (bits(&want), bits(&mono), bits(&segd));
            prop_assert!(mono == want, "monolithic {sql}: {mono:?} != {want:?}");
            prop_assert!(segd == want, "segmented {sql}: {segd:?} != {want:?}");
        }
    }

    #[test]
    fn single_segment_incremental_mdav_equals_batch_mdav(
        n in 30usize..120, k in 2usize..5, seed in 0u64..40
    ) {
        let d = sample(n, seed);
        let qi = d.schema().quasi_identifier_indices();
        // One sealed segment covering the whole table: the incremental
        // publisher degenerates to exactly one batch MDAV run.
        let seg = SegmentedDataset::from_dataset(&d, n);
        let release = EpochPublisher::new(EpochMasker::Mdav { cols: qi.clone(), k })
            .publish(&seg)
            .unwrap();
        let batch = mdav_microaggregate(&d, &qi, k).unwrap();
        prop_assert_eq!(&release.data, &batch.data);
    }

    #[test]
    fn incremental_mdav_diverges_only_within_the_documented_bound(
        n in 60usize..160, seg_rows in 20usize..40, k in 2usize..5, seed in 0u64..40
    ) {
        let d = sample(n, seed);
        let qi = d.schema().quasi_identifier_indices();
        let seg = SegmentedDataset::from_dataset(&d, seg_rows);
        let mut publisher = EpochPublisher::new(EpochMasker::Mdav { cols: qi.clone(), k });
        let release = publisher.publish(&seg).unwrap();
        let batch = mdav_microaggregate(&d, &qi, k).unwrap().data;
        let published = release.data.num_rows();
        prop_assert_eq!(published, seg.sealed_rows());

        // Documented divergence bound: per-segment group formation may
        // pick different groups than the batch run, but every masked cell
        // is a centroid of original values, so both releases stay inside
        // the original column's [min, max] — the divergence between them
        // is bounded by the column spread, never an escape from the data.
        for &c in &qi {
            let (lo, hi) = column_range(&d, c);
            for data in [&release.data, &batch] {
                let cells = data.f64_cells(c).unwrap();
                for i in 0..published.min(data.num_rows()) {
                    if let Some(v) = cells.get(i) {
                        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "cell {v} outside [{lo}, {hi}]");
                    }
                }
            }
        }

        // And the k-anonymity guarantee survives concatenation: groups of
        // >= k within every segment stay >= k in the release, so the
        // intruder's linkage rate keeps the 1/k bound.
        for members in release.data.group_indices_by(&qi).values() {
            prop_assert!(members.len() >= k, "group of {} < k", members.len());
        }
        let rate = record_linkage_rate(&d.take(&(0..published).collect::<Vec<_>>()), &release.data, &qi).unwrap();
        prop_assert!(rate <= 1.0 / k as f64 + 1e-9, "linkage rate {rate}");
    }

    #[test]
    fn incremental_publication_is_bit_identical_across_thread_counts(
        n in 60usize..140, k in 2usize..5, seed in 0u64..30
    ) {
        let d = sample(n, seed);
        let qi = d.schema().quasi_identifier_indices();
        for masker in [
            EpochMasker::Mdav { cols: qi.clone(), k },
            EpochMasker::Mondrian { k },
        ] {
            let run = || {
                let seg = SegmentedDataset::from_dataset(&d, 25);
                seg.spill_all();
                EpochPublisher::new(masker.clone()).publish(&seg).unwrap().data
            };
            let a = par::with_threads(1, run);
            let b = par::with_threads(4, run);
            prop_assert_eq!(&a, &b);
        }
    }
}

/// The acceptance scenario: a dataset at least twice the segment-cache
/// budget streams through MDAV, Mondrian and querydb end-to-end, with
/// real spills and reloads observed via obs counters, and every result
/// bit-identical to the fully in-memory run. Republication after one
/// appended-and-sealed batch re-clusters only the dirty delta.
#[test]
fn out_of_core_end_to_end_matches_in_memory_with_spills_observed() {
    let level_before = obs::level();
    obs::set_level(1);
    obs::reset();

    let d = sample(2000, 0xD15C);
    let qi = d.schema().quasi_identifier_indices();
    let seg = SegmentedDataset::from_dataset(&d, 100); // 20 sealed segments
                                                       // Budget of half the table: at most half the segments fit in memory,
                                                       // so streaming the kernels must spill and reload for real.
    seg.set_cache_budget(d.heap_bytes() / 2);
    // The unconstrained twin never spills — the in-memory reference.
    let resident = SegmentedDataset::from_dataset(&d, 100);

    // MDAV and Mondrian via incremental publication.
    for masker in [
        EpochMasker::Mdav {
            cols: qi.clone(),
            k: 3,
        },
        EpochMasker::Mondrian { k: 3 },
    ] {
        let ooc = EpochPublisher::new(masker.clone()).publish(&seg).unwrap();
        let mem = EpochPublisher::new(masker).publish(&resident).unwrap();
        assert_eq!(ooc.data, mem.data, "out-of-core release drifted");
        assert_eq!(ooc.reclustered, 20);
    }

    // querydb streaming evaluation, in memory and out of core, against
    // the row-at-a-time reference.
    for sql in [
        "SELECT COUNT(*) FROM t WHERE height < 172",
        "SELECT AVG(blood_pressure) FROM t WHERE weight >= 60",
        "SELECT SUM(weight) FROM t",
        "SELECT SUM(weight) FROM t WHERE height > 999",
    ] {
        let q = parse(sql).unwrap();
        let want = reference(&d, &q);
        let mono = evaluate(&d, &q).unwrap();
        let ooc = evaluate_segmented(&seg, &q).unwrap();
        assert_eq!(bits(&mono), bits(&want), "monolithic: {sql}");
        assert_eq!(bits(&ooc), bits(&want), "out of core: {sql}");
    }

    // Incremental republication: one appended-and-sealed batch dirties
    // exactly one segment; obs shows the other 20 served from cache.
    let mut seg = seg;
    let extra = sample(100, 0xA11);
    for i in 0..extra.num_rows() {
        seg.push_row(extra.row(i)).unwrap();
    }
    seg.seal().unwrap();
    let mut publisher = EpochPublisher::new(EpochMasker::Mdav {
        cols: qi.clone(),
        k: 3,
    });
    let r1 = publisher.publish(&seg).unwrap();
    let r2 = publisher.publish(&seg).unwrap();
    assert_eq!((r1.reclustered, r1.reused), (21, 0));
    assert_eq!((r2.reclustered, r2.reused), (0, 21));
    assert_eq!(r1.data, r2.data);

    let snap = obs::snapshot();
    obs::set_level(level_before);
    assert!(
        snap.counter("segment.spill") >= 1,
        "budgeted run must spill: {} spills",
        snap.counter("segment.spill")
    );
    assert!(
        snap.counter("segment.reload") >= 1,
        "budgeted run must reload: {} reloads",
        snap.counter("segment.reload")
    );
    assert!(snap.counter("segment.seal") >= 21);
    assert!(snap.counter("epoch.segments_reused") >= 21);
}
