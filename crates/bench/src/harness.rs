//! In-tree micro-benchmark harness (the `criterion` replacement).
//!
//! Each benchmark id is measured as `samples` timed samples of
//! `iters_per_sample` closure invocations; the per-iteration wall time of
//! every sample feeds the summary statistics (min / mean / median / p95 /
//! p99 / max). The iteration count is auto-calibrated during warmup so a
//! sample lasts long enough for the clock to resolve even
//! nanosecond-scale bodies. Suites that measure real per-event latencies
//! (the PIR-at-scale suite) feed them in directly via
//! [`Harness::record_latencies`] instead of the timed-sample loop.
//!
//! On [`Harness::finish`] a suite prints an aligned table to stdout and
//! writes `BENCH_<suite>.json` — to `TDF_RESULTS_DIR` when set, else to
//! the *workspace root*. `cargo bench` runs bench binaries with the
//! package directory (`crates/bench/`) as their cwd, so a cwd-relative
//! default would scatter the artefacts under `crates/bench/` where
//! nothing looks for them. The JSON is the baseline artefact future
//! perf PRs diff against.
//!
//! Environment knobs (all optional):
//!
//! | variable              | default | meaning                          |
//! |-----------------------|---------|----------------------------------|
//! | `TDF_BENCH_SAMPLES`   | 30      | timed samples per benchmark      |
//! | `TDF_BENCH_SAMPLE_MS` | 20      | target duration of one sample    |
//! | `TDF_BENCH_WARMUP_MS` | 100     | warmup (and calibration) time    |
//!
//! CI smoke runs set small values so `cargo test --benches`-style
//! executions finish in seconds; local perf work uses the defaults.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory where `BENCH_<suite>.json` artefacts land: an explicit
/// non-empty `TDF_RESULTS_DIR` wins; otherwise the workspace root,
/// resolved from this crate's manifest directory so the answer does not
/// depend on the process cwd (`cargo bench` sets it to `crates/bench/`).
fn results_dir() -> PathBuf {
    results_dir_from(std::env::var_os("TDF_RESULTS_DIR"))
}

fn results_dir_from(explicit: Option<std::ffi::OsString>) -> PathBuf {
    match explicit {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the workspace root")
            .to_path_buf(),
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Summary statistics for one benchmark id (per-iteration nanoseconds).
#[derive(Debug, Clone)]
pub struct Summary {
    /// Benchmark identifier, e.g. `pir/linear_2server_n4096`.
    pub id: String,
    /// `tdf-par` thread count in effect while the body ran.
    pub threads: usize,
    /// Closure invocations per timed sample (calibrated).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
    /// Mean over samples, ns per iteration.
    pub mean_ns: f64,
    /// Median over samples, ns per iteration.
    pub median_ns: f64,
    /// 95th percentile over samples, ns per iteration.
    pub p95_ns: f64,
    /// 99th percentile over samples, ns per iteration. For classic
    /// timed-sample benches with few samples this coincides with
    /// `max_ns`; it earns its keep on [`Harness::record_latencies`]
    /// entries, where every sample is one real request.
    pub p99_ns: f64,
    /// Slowest sample, ns per iteration.
    pub max_ns: f64,
    /// Observability counters for one invocation of the body, captured by
    /// [`Harness::bench_with_obs`]; empty for plain [`Harness::bench`]
    /// runs. Sorted by name so the JSON artefact is deterministic.
    pub counters: Vec<(String, u64)>,
}

/// Percentile over a sorted slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A benchmark suite: measure with [`bench`](Harness::bench), then
/// [`finish`](Harness::finish) to report and persist.
pub struct Harness {
    suite: String,
    samples: usize,
    sample_ns: u64,
    warmup_ns: u64,
    results: Vec<Summary>,
}

impl Harness {
    /// Creates a suite named `suite` (drives the `BENCH_<suite>.json`
    /// file name), reading the `TDF_BENCH_*` environment knobs.
    pub fn new(suite: &str) -> Self {
        Self {
            suite: suite.to_owned(),
            samples: env_u64("TDF_BENCH_SAMPLES", 30).max(1) as usize,
            sample_ns: env_u64("TDF_BENCH_SAMPLE_MS", 20) * 1_000_000,
            warmup_ns: env_u64("TDF_BENCH_WARMUP_MS", 100) * 1_000_000,
            results: Vec::new(),
        }
    }

    /// Measures `f`, recording per-iteration times under `id`. The
    /// closure's return value is passed through [`black_box`] so the
    /// optimiser cannot delete the measured work.
    pub fn bench<T, F: FnMut() -> T>(&mut self, id: &str, mut f: F) {
        // Warmup and calibration: run until the warmup budget is spent,
        // counting how many iterations fit.
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        loop {
            black_box(f());
            warmup_iters += 1;
            if warmup_start.elapsed().as_nanos() as u64 >= self.warmup_ns {
                break;
            }
        }
        let per_iter_ns = (warmup_start.elapsed().as_nanos() as u64 / warmup_iters.max(1)).max(1);
        let iters_per_sample = (self.sample_ns / per_iter_ns).clamp(1, 1_000_000_000);

        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            times.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        times.sort_by(f64::total_cmp);
        let summary = Summary {
            id: id.to_owned(),
            threads: par::threads(),
            iters_per_sample,
            samples: times.len(),
            min_ns: times[0],
            mean_ns: times.iter().sum::<f64>() / times.len() as f64,
            median_ns: percentile(&times, 0.5),
            p95_ns: percentile(&times, 0.95),
            p99_ns: percentile(&times, 0.99),
            max_ns: *times.last().expect("samples >= 1"),
            counters: Vec::new(),
        };
        eprintln!(
            "{:<44} median {:>12}  p95 {:>12}",
            format!("{}/{}", self.suite, id),
            fmt_ns(summary.median_ns),
            fmt_ns(summary.p95_ns),
        );
        self.results.push(summary);
    }

    /// Measures `f` with the `tdf-par` thread count pinned to `threads`
    /// for the duration (warmup included). The recorded [`Summary`] keeps
    /// the pinned count, so one suite can hold a thread-scaling series.
    pub fn bench_at_threads<T, F: FnMut() -> T>(&mut self, id: &str, threads: usize, f: F) {
        par::with_threads(threads, || self.bench(id, f));
    }

    /// Records a summary from externally measured per-event latencies
    /// (e.g. one real PIR sweep per sample), bypassing the timed-sample
    /// loop: every latency is one sample and `iters_per_sample` is 1.
    /// `counters` lands in the JSON artefact verbatim (sorted by name);
    /// use it for run-level aggregates such as cost-model counts. Empty
    /// latency slices are rejected.
    pub fn record_latencies(
        &mut self,
        id: &str,
        latencies_ns: &[u64],
        counters: Vec<(String, u64)>,
    ) {
        assert!(!latencies_ns.is_empty(), "no latencies recorded for {id}");
        let mut times: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64).collect();
        times.sort_by(f64::total_cmp);
        let mut counters = counters;
        counters.sort();
        let summary = Summary {
            id: id.to_owned(),
            threads: par::threads(),
            iters_per_sample: 1,
            samples: times.len(),
            min_ns: times[0],
            mean_ns: times.iter().sum::<f64>() / times.len() as f64,
            median_ns: percentile(&times, 0.5),
            p95_ns: percentile(&times, 0.95),
            p99_ns: percentile(&times, 0.99),
            max_ns: *times.last().expect("non-empty"),
            counters,
        };
        eprintln!(
            "{:<44} median {:>12}  p95 {:>12}  p99 {:>12}",
            format!("{}/{}", self.suite, id),
            fmt_ns(summary.median_ns),
            fmt_ns(summary.p95_ns),
            fmt_ns(summary.p99_ns),
        );
        self.results.push(summary);
    }

    /// Measures `f` like [`bench`](Harness::bench), then captures the
    /// observability counters of exactly one extra invocation and attaches
    /// them to the recorded [`Summary`] (embedded in the JSON artefact as
    /// a `"counters"` object). The capture invocation runs outside the
    /// timing loop, at whatever `TDF_OBS` level is in effect — with
    /// observability disabled the counter set is simply empty.
    pub fn bench_with_obs<T, F: FnMut() -> T>(&mut self, id: &str, mut f: F) {
        self.bench(id, &mut f);
        obs::reset();
        black_box(f());
        let snap = obs::snapshot();
        obs::reset();
        let entry = self.results.last_mut().expect("bench just pushed");
        entry.counters = snap.counters.into_iter().collect();
    }

    /// Prints the suite table and writes `BENCH_<suite>.json`; returns
    /// the path written.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        let mut out = String::new();
        out.push_str(&format!(
            "\n== {} ==\n{:<40} {:>12} {:>12} {:>12} {:>8}\n",
            self.suite, "benchmark", "median", "p95", "min", "iters"
        ));
        for s in &self.results {
            out.push_str(&format!(
                "{:<40} {:>12} {:>12} {:>12} {:>8}\n",
                s.id,
                fmt_ns(s.median_ns),
                fmt_ns(s.p95_ns),
                fmt_ns(s.min_ns),
                s.iters_per_sample
            ));
        }
        println!("{out}");

        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.to_json())?;
        println!("wrote {}", path.display());
        Ok(path)
    }

    /// The suite's JSON document (stable key order, one result per entry).
    pub fn to_json(&self) -> String {
        let mut json = format!("{{\"suite\":\"{}\",\"results\":[", self.suite);
        for (i, s) in self.results.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"id\":\"{}\",\"threads\":{},\"iters_per_sample\":{},\"samples\":{},\
                 \"min_ns\":{:.1},\"mean_ns\":{:.1},\"median_ns\":{:.1},\
                 \"p95_ns\":{:.1},\"p99_ns\":{:.1},\"max_ns\":{:.1}}}",
                s.id,
                s.threads,
                s.iters_per_sample,
                s.samples,
                s.min_ns,
                s.mean_ns,
                s.median_ns,
                s.p95_ns,
                s.p99_ns,
                s.max_ns
            ));
            if !s.counters.is_empty() {
                json.pop(); // reopen the result object
                json.push_str(",\"counters\":{");
                for (i, (name, value)) in s.counters.iter().enumerate() {
                    if i > 0 {
                        json.push(',');
                    }
                    json.push_str(&format!("\"{name}\":{value}"));
                }
                json.push_str("}}");
            }
        }
        json.push_str("]}");
        json
    }

    /// Results recorded so far (for tests).
    pub fn results(&self) -> &[Summary] {
        &self.results
    }
}

/// Human formatting: ns with unit scaling.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> Harness {
        Harness {
            suite: "probe".into(),
            samples: 5,
            sample_ns: 50_000,
            warmup_ns: 50_000,
            results: Vec::new(),
        }
    }

    #[test]
    fn bench_records_ordered_statistics() {
        let mut h = tiny_harness();
        h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let s = &h.results()[0];
        assert_eq!(s.samples, 5);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.max_ns);
        assert!(s.min_ns > 0.0);
    }

    #[test]
    fn json_contains_median_and_p95() {
        let mut h = tiny_harness();
        h.bench("noop", || 1u64);
        let json = h.to_json();
        assert!(json.contains("\"suite\":\"probe\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\"p95_ns\""));
        assert!(json.contains("\"id\":\"noop\""));
        assert!(json.contains("\"threads\":"));
    }

    #[test]
    fn bench_at_threads_records_pinned_count() {
        let mut h = tiny_harness();
        h.bench_at_threads("pinned", 3, par::threads);
        let s = &h.results()[0];
        assert_eq!(s.threads, 3);
    }

    #[test]
    fn bench_with_obs_embeds_counters() {
        let mut h = tiny_harness();
        obs::set_level(1);
        h.bench_with_obs("counted", || obs::count("bench.test.events", 3));
        obs::set_level(0);
        let s = &h.results()[0];
        assert_eq!(
            s.counters,
            vec![("bench.test.events".to_owned(), 3)],
            "one capture invocation, exactly once"
        );
        let json = h.to_json();
        assert!(
            json.contains("\"counters\":{\"bench.test.events\":3}"),
            "{json}"
        );
    }

    #[test]
    fn plain_bench_has_no_counters_key() {
        let mut h = tiny_harness();
        h.bench("noop", || 1u64);
        assert!(h.results()[0].counters.is_empty());
        assert!(!h.to_json().contains("\"counters\""));
    }

    #[test]
    fn record_latencies_summarises_raw_events() {
        let mut h = tiny_harness();
        // 1..=1000 ns, shuffled order: the API must sort before ranking.
        let mut lat: Vec<u64> = (1..=1000).rev().collect();
        lat.rotate_left(317);
        h.record_latencies(
            "load",
            &lat,
            vec![("throughput_rps".into(), 42), ("answered".into(), 990)],
        );
        let s = &h.results()[0];
        assert_eq!(s.samples, 1000);
        assert_eq!(s.iters_per_sample, 1);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 500.0);
        assert_eq!(s.p95_ns, 950.0);
        assert_eq!(s.p99_ns, 990.0);
        assert_eq!(s.max_ns, 1000.0);
        // Counters are sorted by name for a deterministic artefact.
        assert_eq!(s.counters[0].0, "answered");
        let json = h.to_json();
        assert!(json.contains("\"p99_ns\":990.0"), "{json}");
        assert!(json.contains("\"counters\":{\"answered\":990,\"throughput_rps\":42}"));
    }

    #[test]
    fn json_reports_p99_for_timed_benches_too() {
        let mut h = tiny_harness();
        h.bench("noop", || 1u64);
        let s = &h.results()[0];
        assert!(s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
        assert!(h.to_json().contains("\"p99_ns\""));
    }

    #[test]
    fn results_dir_honours_an_explicit_override() {
        assert_eq!(
            results_dir_from(Some("custom/results".into())),
            PathBuf::from("custom/results")
        );
    }

    #[test]
    fn results_dir_defaults_to_the_workspace_root_not_the_cwd() {
        // Regression: bench binaries run with crates/bench/ as cwd, so a
        // "." default used to bury BENCH_*.json inside the package
        // directory. The default must be the workspace root regardless
        // of cwd, and an empty TDF_RESULTS_DIR counts as unset.
        let dir = results_dir_from(None);
        assert!(dir.join("Cargo.toml").is_file(), "{}", dir.display());
        assert!(
            dir.join("crates/bench/Cargo.toml").is_file(),
            "not the workspace root: {}",
            dir.display()
        );
        assert!(
            !dir.ends_with("crates/bench"),
            "artefacts must not land in the package directory"
        );
        assert_eq!(results_dir_from(Some("".into())), dir);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.95), 10.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&[42.0], 0.5), 42.0);
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(950.0), "950 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00 s");
    }
}
