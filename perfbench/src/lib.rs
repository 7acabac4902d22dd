//! End-to-end benchmark of the served privacy paths.
//!
//! One run starts an in-process `tdf-serve` [`Server`](tdf_serve::Server),
//! drives it over loopback with the public `Client`, checks every answer
//! against an in-process replay, and reports either the end-to-end
//! metrics (a timed run) or the per-layer metrics (a traced run). See
//! `README.md` beside this crate for the workloads and metrics.

pub mod ops;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod wire;

use ops::{ops, setup_ops, Op, Params};
use replay::{replay, Counts, Mode};
use stats::{best, percentile};
use std::io;
use std::path::Path;
use std::time::Instant;
use tdf_serve::protocol::encode_response;
use tdf_serve::Response;
use trace::Tracer;
use wire::{drive, set_up, Outcome};

/// End-to-end metrics of a timed run: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("append_p50_ms", "ms"),
    ("disguise_p50_ms", "ms"),
];

/// Per-layer metrics of a traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("serve.server_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("session.answer_ms", "ms"),
    ("session.admit_ms", "ms"),
    ("session.history_sets_per_query", "count"),
    ("session.refused_ratio", "ratio"),
    ("querydb.parse_us", "us"),
    ("querydb.evaluate_ms", "ms"),
    ("querydb.rows_scanned_per_query", "count"),
    ("querydb.rows_matched_per_query", "count"),
    ("dp.apply_us", "us"),
    ("segment.pin_ms_per_query", "ms"),
    ("segment.reloads_per_query", "count"),
    ("segment.reload_mb_per_query", "MiB"),
    ("segment.cache_hit_ratio", "ratio"),
    ("segment.push_row_us", "us"),
    ("segment.seal_ms", "ms"),
    ("segment.compact_ms", "ms"),
    ("segment.compact_rows", "count"),
    ("pir.window_wait_ms", "ms"),
    ("pir.sweep_ms", "ms"),
    ("pir.lanes_per_sweep", "count"),
    ("pir.words_scanned_per_fetch", "count"),
    ("disguise.txn_ms", "ms"),
    ("disguise.wal_append_ms", "ms"),
    ("disguise.apply_ms", "ms"),
    ("disguise.wal_bytes_per_txn", "B"),
    ("trace.rtt_ms", "ms"),
    ("trace.self_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.self.protocol_ms", "ms"),
    ("trace.self.session_ms", "ms"),
    ("trace.self.querydb_ms", "ms"),
    ("trace.self.dp_ms", "ms"),
    ("trace.self.segment_ms", "ms"),
    ("trace.self.batch_ms", "ms"),
    ("trace.self.pir_ms", "ms"),
    ("trace.self.disguise_ms", "ms"),
];

/// Span layers, in the order of the `trace.self.*` metrics.
const LAYERS: [&str; 8] = [
    "protocol", "session", "querydb", "dp", "segment", "batch", "pir", "disguise",
];

/// A run's outcome.
pub struct Report {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that got a transport or protocol error or a wrong answer.
    pub failed: u64,
    /// Metric name → value, in the order of the metric table.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Sample counts and other context, one `key=value` each.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<Tracer>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, v)| *v)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// True when `got` is one of the admissible responses, bit for bit.
fn answer_ok(got: &Outcome, admissible: &[Response]) -> bool {
    got.response.as_ref().is_some_and(|r| {
        let bytes = encode_response(r);
        admissible.iter().any(|e| encode_response(e) == bytes)
    })
}

/// Counts the outcomes that miss their expected answers; the first few
/// go to standard error. `first` is the sequence index of `outcomes[0]`.
fn failures(outcomes: &[Outcome], expected: &[Vec<Response>], seq: &[Op], first: usize) -> u64 {
    let mut failed = 0;
    for (j, (o, e)) in outcomes.iter().zip(&expected[first..]).enumerate() {
        if !answer_ok(o, e) {
            if failed < 5 {
                eprintln!(
                    "request {} {:?}: got {:?}, expected one of {:?}",
                    first + j,
                    seq[first + j],
                    o.response,
                    e
                );
            }
            failed += 1;
        }
    }
    failed
}

/// The whole sequence: set-up ops, warm-up prefix, timed ops; and the
/// index of the first timed op.
fn sequence(p: &Params) -> (Vec<Op>, usize) {
    let mut seq = setup_ops(p);
    let timed_from = seq.len() + p.warmup;
    seq.extend(ops(p));
    (seq, timed_from)
}

/// Runs `p` once: timed (`traced == false`) or traced. `dir` holds the
/// replay's journals. A workload with a cache share serves under that
/// segment-cache budget: the server reads `TDF_SEGCACHE` when it starts,
/// so the variable is set for the run and put back afterwards. Runs in
/// one process must not overlap.
pub fn run(p: &Params, traced: bool, dir: &Path) -> io::Result<Report> {
    let budget = replay::cache_budget(p)?;
    let _env = budget.map(|bytes| EnvVar::set("TDF_SEGCACHE", &bytes.to_string()));
    let mut report = if traced {
        run_traced(p, dir)
    } else {
        run_timed(p, dir)
    }?;
    if let Some(bytes) = budget {
        report.notes.push(format!("TDF_SEGCACHE={bytes}"));
    }
    Ok(report)
}

/// An environment variable set until drop, then put back as it was.
struct EnvVar {
    name: &'static str,
    before: Option<std::ffi::OsString>,
}

impl EnvVar {
    fn set(name: &'static str, value: &str) -> EnvVar {
        let before = std::env::var_os(name);
        std::env::set_var(name, value);
        EnvVar { name, before }
    }
}

impl Drop for EnvVar {
    fn drop(&mut self) {
        match &self.before {
            Some(v) => std::env::set_var(self.name, v),
            None => std::env::remove_var(self.name),
        }
    }
}

fn sorted_latencies<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> Vec<u64> {
    let mut v: Vec<u64> = outcomes
        .filter(|o| o.response.is_some())
        .map(|o| o.latency_ns)
        .collect();
    v.sort_unstable();
    v
}

fn p_ms(sorted: &[u64], q: f64) -> f64 {
    percentile(sorted, q).map_or(0.0, stats::ms)
}

/// One repetition of a timed run: a fresh server through set-up and the
/// timed sequence.
struct Repetition {
    setup_s: f64,
    /// Outcomes of the set-up ops and the warm-up prefix.
    prefix: Vec<Outcome>,
    timed: Vec<Outcome>,
    timed_s: f64,
}

/// The best of lower-is-better per-repetition figures.
fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    best(&values.collect::<Vec<_>>(), false)
}

/// Per-repetition values, comma-separated, for the `<metric>_each` notes.
fn listed(values: impl Iterator<Item = f64>) -> String {
    values
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// A timed run repeats set-up + timed sequence on `p.repeats` fresh
/// servers. Every figure but `peak_rss_mb` is the best repetition's, so
/// a slowdown of the host that hits some repetitions, or a server thread
/// placed on a slow vCPU, does not move the result.
fn run_timed(p: &Params, dir: &Path) -> io::Result<Report> {
    let (seq, timed_from) = sequence(p);
    let warmup = &seq[timed_from - p.warmup..timed_from];
    let timed = &seq[timed_from..];
    let mut reps = Vec::new();
    let mut rss = 0.0;
    for k in 0..p.repeats.max(1) {
        let mut live = set_up(p, warmup)?;
        let started = Instant::now();
        let timed_out = drive(&mut live.clients, timed);
        let timed_s = started.elapsed().as_secs_f64();
        if k == 0 {
            // Later repetitions run on memory the allocator kept from
            // earlier ones, so only the first shows the workload's peak.
            rss = peak_rss_mib();
        }
        let prefix = std::mem::take(&mut live.outcomes);
        reps.push(Repetition {
            setup_s: live.setup_s,
            prefix,
            timed: timed_out,
            timed_s,
        });
        live.shut_down();
    }

    let check_started = Instant::now();
    let rep = replay(p, &seq, timed_from, Mode::Check, dir)?;
    let check_s = check_started.elapsed().as_secs_f64();
    let mut failed = 0;
    for r in &reps {
        failed += failures(&r.prefix, &rep.expected, &seq, 0);
        failed += failures(&r.timed, &rep.expected, &seq, timed_from);
    }
    let attempted = (reps.len() * seq.len()) as u64;

    // Per repetition, the median round trip of the timed sequence's
    // APPENDs, or DISGUISE/RESTOREs; a workload whose timed sequence
    // sends none reports those of its set-up.
    let write_p50 = |r: &Repetition, disguise: bool| {
        let wanted = |op: &Op| match op {
            Op::Append { .. } => !disguise,
            Op::Disguise { .. } | Op::Restore { .. } => disguise,
            _ => false,
        };
        let (outcomes, ops) = if timed.iter().any(wanted) {
            (&r.timed, timed)
        } else {
            (&r.prefix, &seq[..timed_from])
        };
        let latencies = sorted_latencies(
            outcomes
                .iter()
                .zip(ops)
                .filter(|(_, op)| wanted(op))
                .map(|(o, _)| o),
        );
        (p_ms(&latencies, 0.50), latencies.len())
    };
    let appends: Vec<(f64, usize)> = reps.iter().map(|r| write_p50(r, false)).collect();
    let disguises: Vec<(f64, usize)> = reps.iter().map(|r| write_p50(r, true)).collect();

    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let rps: Vec<f64> = reps
        .iter()
        .map(|r| timed.len() as f64 / r.timed_s)
        .collect();
    let sorted: Vec<Vec<u64>> = reps
        .iter()
        .map(|r| sorted_latencies(r.timed.iter()))
        .collect();
    let p50: Vec<f64> = sorted.iter().map(|l| p_ms(l, 0.50)).collect();
    let p90: Vec<f64> = sorted.iter().map(|l| p_ms(l, 0.90)).collect();
    let metrics = vec![
        ("setup_s", "s", fastest(setup_s.iter().copied())),
        ("throughput_rps", "1/s", best(&rps, true)),
        ("latency_p50_ms", "ms", fastest(p50.iter().copied())),
        ("latency_p90_ms", "ms", fastest(p90.iter().copied())),
        ("peak_rss_mb", "MiB", rss),
        ("append_p50_ms", "ms", fastest(appends.iter().map(|a| a.0))),
        (
            "disguise_p50_ms",
            "ms",
            fastest(disguises.iter().map(|d| d.0)),
        ),
    ];
    let notes = vec![
        format!("repetitions={}", reps.len()),
        format!("latency_samples_per_repetition={}", timed.len()),
        format!("append_samples_per_repetition={}", appends[0].1),
        format!("disguise_samples_per_repetition={}", disguises[0].1),
        format!("append_p50_ms_each={}", listed(appends.iter().map(|a| a.0))),
        format!(
            "disguise_p50_ms_each={}",
            listed(disguises.iter().map(|d| d.0))
        ),
        format!("setup_s_each={}", listed(setup_s.iter().copied())),
        format!("throughput_rps_each={}", listed(rps.iter().copied())),
        format!("latency_p50_ms_each={}", listed(p50.iter().copied())),
        format!("latency_p90_ms_each={}", listed(p90.iter().copied())),
        format!("check_s={check_s:.3}"),
    ];
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
        spans: None,
    })
}

fn run_traced(p: &Params, dir: &Path) -> io::Result<Report> {
    let (seq, timed_from) = sequence(p);
    let warmup = &seq[timed_from - p.warmup..timed_from];
    let timed = &seq[timed_from..];

    // Over the wire, reading the server's own histograms and counters.
    obs::set_level(obs::level().max(1));
    let mut live = set_up(p, warmup)?;
    obs::reset();
    let timed_out = drive(&mut live.clients, timed);
    let snap = obs::snapshot();
    let prefix = std::mem::take(&mut live.outcomes);
    live.shut_down();
    obs::reset();

    let counter = |name: &str| snap.counter(name) as f64;
    let pir_lanes = ratio(counter("serve.pir.answers"), counter("serve.pir.batches"));
    let rep = replay(
        p,
        &seq,
        timed_from,
        Mode::Trace {
            pir_lanes: pir_lanes.round().max(1.0) as usize,
        },
        dir,
    )?;
    let failed = failures(&timed_out, &rep.expected, &seq, timed_from)
        + failures(&prefix, &rep.expected, &seq, 0);
    let attempted = (timed_from + timed.len()) as u64;
    let tracer = rep.tracer.expect("traced replay records spans");

    let (server_ns, server_n) = snap
        .histogram("serve.request_ns")
        .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64));
    let rtt_ns = stats::mean(
        timed_out
            .iter()
            .filter(|o| o.response.is_some())
            .map(|o| o.latency_ns as f64),
    );
    let wire_queries = timed
        .iter()
        .filter(|op| matches!(op, Op::Query { .. }))
        .count() as f64;
    let fetches = timed
        .iter()
        .filter(|op| matches!(op, Op::Pir { .. }))
        .count() as f64;
    let metrics = layer_metrics(&LayerInputs {
        tracer: &tracer,
        counts: &rep.counts,
        requests: timed.len() as f64,
        rtt_ns,
        server_ns: ratio(server_ns, server_n),
        wire_queries,
        fetches,
        hits: counter("segment.cache_hit"),
        reloads: counter("segment.reload"),
        pir_lanes,
        words_scanned: counter("pir.words_scanned"),
    });
    let notes = vec![
        format!("timed_requests={}", timed.len()),
        format!("server_request_samples={server_n}"),
        format!("spans={}", tracer.spans().len()),
        format!("server_compactions={}", snap.counter("serve.compactions")),
        format!(
            "server_compact_merged_segments={}",
            snap.counter("segment.compact_merged")
        ),
    ];
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
        spans: Some(tracer),
    })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

struct LayerInputs<'a> {
    tracer: &'a Tracer,
    counts: &'a Counts,
    /// Timed requests.
    requests: f64,
    /// Mean round trip of the timed requests over the wire.
    rtt_ns: f64,
    /// Mean server time per request (`serve.request_ns`).
    server_ns: f64,
    wire_queries: f64,
    fetches: f64,
    hits: f64,
    reloads: f64,
    pir_lanes: f64,
    words_scanned: f64,
}

fn layer_metrics(x: &LayerInputs) -> Vec<(&'static str, &'static str, f64)> {
    let by_name = x.tracer.by_name();
    let total = |name: &str| by_name.get(name).map_or(0.0, |s| s.total_ns as f64);
    let per_call = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |s| ratio(s.total_ns as f64, s.count as f64))
    };
    let c = x.counts;
    let queries = c.queries as f64;
    let txns = c.txns as f64;
    let layers = x.tracer.self_ns_by_layer();
    let self_ns: f64 = layers.values().map(|&v| v as f64).sum();
    let wire_ns = x.rtt_ns - x.server_ns;
    let reloads_per_query = ratio(x.reloads, x.wire_queries);
    let mean_segment_bytes = ratio(c.segment_bytes as f64, c.segments as f64);
    let mut values: Vec<f64> = vec![
        x.server_ns / 1e6,
        wire_ns / 1e6,
        per_call("protocol.decode") / 1e3,
        per_call("protocol.encode") / 1e3,
        per_call("session.answer") / 1e6,
        ratio(
            total("session.answer") - total("querydb.parse") - total("querydb.evaluate"),
            queries,
        ) / 1e6,
        ratio(c.history_sets as f64, queries),
        ratio(c.refused as f64, queries),
        per_call("querydb.parse") / 1e3,
        per_call("querydb.evaluate") / 1e6,
        ratio(c.rows_scanned as f64, queries),
        ratio(c.rows_matched as f64, queries),
        per_call("dp.apply") / 1e3,
        ratio(total("segment.pin"), queries) / 1e6,
        reloads_per_query,
        reloads_per_query * mean_segment_bytes / (1024.0 * 1024.0),
        ratio(x.hits, x.hits + x.reloads),
        ratio(total("segment.append"), c.appended_rows as f64) / 1e3,
        per_call("segment.seal") / 1e6,
        per_call("segment.compact") / 1e6,
        c.compact_rows as f64,
        ratio(total("batch.fetch") - total("pir.sweep"), x.fetches) / 1e6,
        per_call("pir.sweep") / 1e6,
        x.pir_lanes,
        ratio(x.words_scanned, x.fetches),
        per_call("disguise.txn") / 1e6,
        per_call("disguise.wal_append") / 1e6,
        ratio(total("disguise.txn") - total("disguise.wal_append"), txns) / 1e6,
        ratio(c.wal_bytes as f64, txns),
        x.rtt_ns / 1e6,
        ratio(self_ns, x.requests) / 1e6,
        (x.rtt_ns - wire_ns - ratio(self_ns, x.requests)) / 1e6,
    ];
    for layer in LAYERS {
        let ns = layers.get(layer).copied().unwrap_or(0) as f64;
        values.push(ratio(ns, x.requests) / 1e6);
    }
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
