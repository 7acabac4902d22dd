//! The thread-scaling regression gate.
//!
//! The persistent executor exists so that adding threads never makes the
//! parallel kernels *slower* (the fork/join pool's failure mode: worse
//! than sequential at t4 on the MDAV/Mondrian benches). This binary
//! enforces that property as a pass/fail check, cheap enough for CI: the
//! MDAV (n=5000, k=5) and Mondrian (n=4000, k=5) kernels are timed at 1
//! and 4 `tdf-par` threads, and the t4 median must stay within
//! `GATE_RATIO` of the t1 median. It also asserts the determinism
//! contract directly — the t1 and t4 outputs must be identical.
//!
//! A second leg gates the **PIR batch/hint economics** at n = 10⁶:
//! answering a queue of 64 queries through the offline/online hint path
//! must cost at most `PIR_BATCH_RATIO` of one full-scan single-query
//! retrieval per query, and the fused 64-lane sweep must produce
//! bit-identical records to 64 sequential single-query retrievals. This
//! leg is single-threaded arithmetic-vs-arithmetic, so it runs even on
//! small hosts, *before* the core-count skip below.
//!
//! On hosts with fewer than 4 measured cores the thread-scaling timing
//! comparison is meaningless (the core clamp runs "t4" sequentially), so
//! that part skips with a notice — exit 0, nothing asserted about time.
//! Exit codes: 0 pass/skip, 1 regression.
//!
//! Knobs: `TDF_GATE_SAMPLES` (default 9) timing samples per point;
//! `TDF_CORES` overrides core detection as everywhere else.

use std::time::Instant;
use tdf_anonymity::mondrian_anonymize;
use tdf_microdata::synth::{patients, PatientConfig};
use tdf_pir::store::Database;
use tdf_sdc::microaggregation::mdav_microaggregate;

/// Allowed t4/t1 median ratio: parity with 10% measurement headroom.
const GATE_RATIO: f64 = 1.10;

/// Median wall time of `samples` invocations, in nanoseconds.
fn median_ns<T>(samples: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Times one kernel at t1 and t4 and checks the t4/t1 median ratio
/// against `limit` (parity gates pass ≤ 1.10; speedup gates demand < 1).
/// `fingerprint` must be a pure function of the kernel output; it is
/// compared across thread counts to assert bit-identical results.
fn gate<T, K: FnMut() -> T>(
    name: &str,
    samples: usize,
    limit: f64,
    mut kernel: K,
    fingerprint: impl Fn(&T) -> Vec<u64>,
) -> bool {
    let out_t1 = par::with_threads(1, &mut kernel);
    let out_t4 = par::with_threads(4, &mut kernel);
    assert_eq!(
        fingerprint(&out_t1),
        fingerprint(&out_t4),
        "{name}: t1 and t4 outputs differ — determinism contract broken"
    );
    let t1 = par::with_threads(1, || median_ns(samples, &mut kernel));
    let t4 = par::with_threads(4, || median_ns(samples, &mut kernel));
    let ratio = t4 as f64 / t1 as f64;
    let ok = ratio <= limit;
    println!(
        "{} {name}: t1 median {:.2} ms, t4 median {:.2} ms, ratio {ratio:.3} (limit {limit})",
        if ok { "pass" } else { "FAIL" },
        t1 as f64 / 1e6,
        t4 as f64 / 1e6,
    );
    ok
}

/// Required t4/t1 ratio for segment-parallel epoch publication: masking
/// 12 independent segments across 4 threads must be a real speedup
/// (≥ 1.6×), not mere parity — the coarse `par_map_heavy` fan-out has no
/// sequential-threshold excuse at this granularity.
const PUBLISH_PAR_RATIO: f64 = 0.60;

/// The segment-image checksum of a release's data: one u64 that changes
/// if any masked cell, row order or schema bit changes.
fn release_fingerprint(release: &tdf_sdc::EpochRelease) -> Vec<u64> {
    vec![
        tdf_disguise::fingerprint(&release.data),
        release.reclustered as u64,
        release.data.num_rows() as u64,
    ]
}

/// Allowed amortized-online/full-scan per-query ratio at q=64, n=10⁶.
/// The hint path touches O(√n) words online, so the true ratio is far
/// below this; 0.25 is the regression wall, not the expectation.
const PIR_BATCH_RATIO: f64 = 0.25;

/// Gates the PIR batching economics: fused 64-lane sweeps must be
/// bit-identical to sequential retrievals, and the hint path's amortized
/// per-query online cost must undercut the full-scan single query by at
/// least 4×.
fn pir_batch_gate(samples: usize) -> bool {
    use rngkit::SeedableRng;
    const N: usize = 1_000_000;
    const Q: usize = 64;
    let db = Database::from_fn(N, 32, |i, rec| {
        for (j, b) in rec.iter_mut().enumerate() {
            *b = (i.wrapping_mul(31).wrapping_add(j * 7)) as u8;
        }
    });
    let mut rng = rngkit::rngs::StdRng::seed_from_u64(0x6A7E);
    let targets: Vec<usize> = (0..Q).map(|t| (t * (N / Q) + 11) % N).collect();

    // Correctness first: one fused sweep vs the same indices answered
    // sequentially — the records must be bit-identical.
    let fused = tdf_pir::batch::retrieve_batch(&mut rng, &db, &targets);
    let sequential: Vec<Vec<u8>> = targets
        .iter()
        .map(|&i| tdf_pir::linear::retrieve(&mut rng, &db, 2, i).0)
        .collect();
    assert_eq!(
        fused.records, sequential,
        "pir_batch: fused 64-lane sweep and sequential single-query \
         retrievals disagree — batching broke correctness"
    );

    // Economics: amortized per-query online cost of answering a fresh
    // 64-query queue from a prepared hint pool, vs one full-scan query.
    // A deep pool (16·√n hints ⇒ refresh probability ≈ e⁻¹⁶ per query)
    // and a per-round epoch check keep offline refresh passes out of the
    // online timing; each round consumes distinct indices so hints are
    // never exhausted by repetition.
    let single = median_ns(samples, || {
        tdf_pir::linear::retrieve(&mut rng, &db, 2, targets[0]).0
    });
    let hint_count = 16 * (N as f64).sqrt().ceil() as usize;
    let mut pool = tdf_pir::hints::ClientHints::prepare(&db, 0x6A7E, hint_count);
    let mut online_rounds: Vec<u64> = Vec::with_capacity(samples);
    let mut round = 0usize;
    while online_rounds.len() < samples {
        let queue: Vec<usize> = (0..Q).map(|t| (t * (N / Q) + 101 * round) % N).collect();
        round += 1;
        let epoch = pool.epoch();
        let start = Instant::now();
        let records: Vec<Vec<u8>> = queue
            .iter()
            .map(|&i| pool.retrieve(&db, i).record)
            .collect();
        let elapsed = start.elapsed().as_nanos() as u64;
        for (i, record) in queue.iter().zip(&records) {
            assert_eq!(record, db.record(*i), "hint answer for index {i}");
        }
        if pool.epoch() == epoch {
            online_rounds.push(elapsed);
        }
    }
    online_rounds.sort_unstable();
    let online = online_rounds[online_rounds.len() / 2] / Q as u64;
    let fused_amortized = median_ns(samples, || {
        tdf_pir::batch::retrieve_batch(&mut rng, &db, &targets)
    }) / Q as u64;

    let ratio = online as f64 / single as f64;
    let ok = ratio <= PIR_BATCH_RATIO;
    println!(
        "{} pir_batch_n1e6_q64: single full-scan {:.2} ms/query, hint online \
         {:.3} ms/query amortized, ratio {ratio:.4} (limit {PIR_BATCH_RATIO}); \
         fused sweep {:.2} ms/query amortized (memory-bound, informational)",
        if ok { "pass" } else { "FAIL" },
        single as f64 / 1e6,
        online as f64 / 1e6,
        fused_amortized as f64 / 1e6,
    );
    ok
}

fn main() {
    let samples = std::env::var("TDF_GATE_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9)
        .max(1);

    // The PIR economics leg is single-threaded and core-count
    // independent: run it before the thread-scaling skip.
    if !pir_batch_gate(samples) {
        eprintln!(
            "scaling_gate: hint-path amortized online cost regressed past \
             {PIR_BATCH_RATIO}x the single-query full scan"
        );
        std::process::exit(1);
    }

    let cores = par::measured_cores();
    if cores < 4 {
        println!(
            "scaling_gate: skipped — {cores} measured core(s) < 4; the core clamp \
             runs t4 sequentially here, so a timing comparison would be vacuous \
             (set TDF_CORES to force)"
        );
        return;
    }
    let samples = std::env::var("TDF_GATE_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9)
        .max(1);

    let d = patients(&PatientConfig {
        n: 5000,
        ..Default::default()
    });
    let qi = d.schema().quasi_identifier_indices();
    let mdav_ok = gate(
        "mdav_n5000_k5",
        samples,
        GATE_RATIO,
        || mdav_microaggregate(&d, &qi, 5).expect("mdav"),
        |r| {
            let mut fp: Vec<u64> = r.group_of.iter().map(|&g| g as u64).collect();
            fp.push(r.num_groups as u64);
            fp.push(r.sse.to_bits());
            fp
        },
    );

    let dm = patients(&PatientConfig {
        n: 4000,
        ..Default::default()
    });
    let mondrian_ok = gate(
        "mondrian_n4000_k5",
        samples,
        GATE_RATIO,
        || mondrian_anonymize(&dm, 5),
        |r| {
            let mut fp: Vec<u64> = r.partition_of.iter().map(|&p| p as u64).collect();
            fp.push(r.num_partitions as u64);
            fp
        },
    );

    // Segment-parallel publication: 12 dirty 400-row segments fan out
    // over `par_map_heavy` — one coarse task each. A fresh publisher per
    // invocation keeps every epoch fully dirty (cache reuse would time
    // the concat, not the masking).
    let dp = patients(&PatientConfig {
        n: 4800,
        ..Default::default()
    });
    let qip = dp.schema().quasi_identifier_indices();
    let segp = tdf_microdata::SegmentedDataset::from_dataset(&dp, 400);
    let publish_ok = gate(
        "publish_par_12x400_k5",
        samples,
        PUBLISH_PAR_RATIO,
        || {
            tdf_sdc::EpochPublisher::new(tdf_sdc::EpochMasker::Mdav {
                cols: qip.clone(),
                k: 5,
            })
            .publish(&segp)
            .expect("publish")
        },
        release_fingerprint,
    );

    if !(mdav_ok && mondrian_ok && publish_ok) {
        eprintln!(
            "scaling_gate: t4 regressed past its limit ({GATE_RATIO}x parity legs, \
             {PUBLISH_PAR_RATIO}x publish_par)"
        );
        std::process::exit(1);
    }
    println!("scaling_gate: ok ({cores} cores, {samples} samples per point)");
}
