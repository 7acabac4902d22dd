//! PIR-at-scale bench: amortized per-query online cost of the fused
//! batch sweep and the offline/online hint path against the classic
//! single-query linear scan, at up to 10 million records.
//!
//! Three series per database size `n` (record size 32 B):
//!
//! * `single_q1_n*` — one 2-server linear retrieval; the full-scan
//!   baseline every other entry is measured against.
//! * `batch_q{q}_n*` — one fused sweep of `2q` lanes (both replicas of
//!   every query), reported as **amortized per-query** latency (sweep
//!   wall time ÷ q). The fused sweep reads each database word once for
//!   all lanes, so the amortization is of *memory traffic*; the XOR
//!   compute per query is information-theoretically irreducible (~n/2
//!   records per server).
//! * `hint_offline_n*` / `hint_online_n*` — the two halves of the
//!   offline/online split: one preprocessing pass building 4·⌈√n⌉
//!   hints, and one O(√n)-word online retrieval against that pool. The
//!   online entry is the sublinear headline: it touches
//!   `(⌈√n⌉ − 1) · 4` record-words instead of `2 · n` mask-words.
//!
//! Every sample is one real invocation fed through
//! [`Harness::record_latencies`] — no warmup-calibrated inner loops, so
//! the 320 MB sweeps at n = 10⁷ are timed exactly as they run. Counters
//! embed `n`, `q` and the cost-model `words_scanned` so the artefact is
//! self-describing. Correctness is asserted in-bench: fused batch
//! results must be bit-identical to sequential single-query
//! retrievals, and every hint answer must equal the stored record.
//!
//! Environment knobs:
//!
//! | variable                | default | meaning                        |
//! |-------------------------|---------|--------------------------------|
//! | `TDF_PIR_SCALE_QUICK`   | unset   | set ⇒ n ∈ {10⁵}, q ∈ {1, 8}    |
//! | `TDF_PIR_SCALE_SAMPLES` | 7       | timed invocations per entry    |
//!
//! Emits `BENCH_pir_scale.json`.

use rngkit::rngs::StdRng;
use rngkit::SeedableRng;
use std::time::Instant;
use tdf_bench::harness::Harness;
use tdf_pir::cost::{batch_scan_words, hint_offline_words, hint_online_words, linear_scan_words};
use tdf_pir::hints::ClientHints;
use tdf_pir::store::Database;

const RECORD_SIZE: usize = 32;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `100_000` → `"1e5"` — compact ids that sort with the sweep.
fn label(n: usize) -> String {
    let exp = (n as f64).log10().round() as u32;
    if 10usize.pow(exp) == n {
        format!("1e{exp}")
    } else {
        format!("{n}")
    }
}

/// Seed-deterministic synthetic store: splitmix-mixed bytes per record.
fn build_db(n: usize, seed: u64) -> Database {
    Database::from_fn(n, RECORD_SIZE, |i, rec| {
        let mut state = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for chunk in rec.chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
        }
    })
}

/// Indices spread across the store, deterministic in (n, q, round).
fn indices(n: usize, q: usize, round: usize) -> Vec<usize> {
    (0..q)
        .map(|t| (t * (n / q.max(1)).max(1) + round * 17 + 3) % n)
        .collect()
}

fn main() {
    let quick = std::env::var_os("TDF_PIR_SCALE_QUICK").is_some();
    let samples = env_u64("TDF_PIR_SCALE_SAMPLES", 7).max(1) as usize;
    let (ns, qs): (Vec<usize>, Vec<usize>) = if quick {
        (vec![100_000], vec![1, 8])
    } else {
        (vec![100_000, 1_000_000, 10_000_000], vec![1, 8, 64])
    };

    let mut h = Harness::new("pir_scale");
    for &n in &ns {
        let tag = label(n);
        let db = build_db(n, 0x51CA1E ^ n as u64);
        let mut rng = StdRng::seed_from_u64(0xBA7C4ED ^ n as u64);

        // Baseline: one classic 2-server linear retrieval, full scan.
        let mut lat = Vec::with_capacity(samples);
        for round in 0..samples {
            let index = indices(n, 1, round)[0];
            let start = Instant::now();
            let (record, _, _) = tdf_pir::linear::retrieve(&mut rng, &db, 2, index);
            lat.push(start.elapsed().as_nanos() as u64);
            assert_eq!(record, db.record(index).to_vec());
        }
        h.record_latencies(
            &format!("single_q1_n{tag}"),
            &lat,
            vec![
                ("n".into(), n as u64),
                ("q".into(), 1),
                ("words_scanned".into(), linear_scan_words(2, n)),
            ],
        );

        // Fused batches: amortized per-query sweep time, with an
        // in-bench bit-identity check against sequential retrievals.
        for &q in &qs {
            let mut lat = Vec::with_capacity(samples);
            for round in 0..samples {
                let targets = indices(n, q, round);
                let start = Instant::now();
                let outcome = tdf_pir::batch::retrieve_batch(&mut rng, &db, &targets);
                lat.push((start.elapsed().as_nanos() / q as u128) as u64);
                assert!(!outcome.degraded, "no fault plan is installed");
                if round == 0 {
                    let sequential: Vec<Vec<u8>> = targets
                        .iter()
                        .map(|&i| tdf_pir::linear::retrieve(&mut rng, &db, 2, i).0)
                        .collect();
                    assert_eq!(
                        outcome.records, sequential,
                        "fused batch must be bit-identical to sequential retrievals"
                    );
                } else {
                    for (t, record) in targets.iter().zip(&outcome.records) {
                        assert_eq!(record, db.record(*t), "index {t}");
                    }
                }
            }
            h.record_latencies(
                &format!("batch_q{q}_n{tag}"),
                &lat,
                vec![
                    ("n".into(), n as u64),
                    ("q".into(), q as u64),
                    ("words_scanned".into(), batch_scan_words(q, n)),
                ],
            );
        }

        // Offline/online hint split: 4·⌈√n⌉ hints so the pool answers a
        // bench run's worth of queries without refreshing mid-timing.
        let hint_count = 4 * (n as f64).sqrt().ceil() as usize;
        let offline_samples = samples.min(3);
        let mut pool = None;
        let mut lat = Vec::with_capacity(offline_samples);
        for round in 0..offline_samples {
            let start = Instant::now();
            let built = ClientHints::prepare(&db, 0x0FF11E ^ round as u64, hint_count);
            lat.push(start.elapsed().as_nanos() as u64);
            pool = Some(built);
        }
        let mut pool = pool.expect("offline pass ran");
        h.record_latencies(
            &format!("hint_offline_n{tag}"),
            &lat,
            vec![
                ("n".into(), n as u64),
                ("hints".into(), hint_count as u64),
                (
                    "words_scanned".into(),
                    hint_offline_words(hint_count, pool.set_size(), RECORD_SIZE),
                ),
            ],
        );

        // Online: O(√n) words per answered query. Samples that trigger a
        // pool refresh are re-drawn so the series is pure online cost.
        let mut lat = Vec::with_capacity(samples);
        let mut round = 0usize;
        while lat.len() < samples {
            let index = indices(n, 1, 7 + round)[0];
            round += 1;
            let epoch = pool.epoch();
            let start = Instant::now();
            let answer = pool.retrieve(&db, index);
            let elapsed = start.elapsed().as_nanos() as u64;
            assert_eq!(answer.record, db.record(index).to_vec());
            if pool.epoch() == epoch {
                lat.push(elapsed);
            }
        }
        h.record_latencies(
            &format!("hint_online_n{tag}"),
            &lat,
            vec![
                ("n".into(), n as u64),
                ("q".into(), 1),
                (
                    "words_scanned".into(),
                    hint_online_words(pool.set_size(), RECORD_SIZE),
                ),
            ],
        );
    }
    h.finish().expect("write BENCH_pir_scale.json");
}
