//! The benchmark's own tests: sequence determinism, percentile ranks,
//! span accounting, the metric tables against `BENCHMARK.json`, and a
//! tiny configuration of every workload end to end, timed and traced.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tdf_perfbench::ops::{ops, setup_ops, zipf_quota, Op, Params, Workload, OWNER_PASSES};
use tdf_perfbench::stats::{best, percentile};
use tdf_perfbench::trace::Tracer;
use tdf_perfbench::{run, END_TO_END, PER_LAYER};

#[test]
fn op_sequence_is_a_pure_function_of_workload_and_seed() {
    for w in Workload::ALL {
        let p = Params::new(w, 7, 8);
        assert_eq!(ops(&p), ops(&Params::new(w, 7, 8)), "{}", w.name());
        assert_eq!(ops(&p).len(), p.warmup + p.requests);
        assert_ne!(
            ops(&p),
            ops(&Params::new(w, 8, 8)),
            "{}: seed must matter",
            w.name()
        );
    }
    assert_eq!(
        ops(&Params::new(Workload::QueryResident, 3, 8)),
        ops(&Params::new(Workload::QuerySpill, 3, 8)),
        "query_spill replays the query_resident sequence"
    );
}

#[test]
fn analysts_send_their_zipf_quota_whatever_the_seed() {
    let quota = zipf_quota(1000, 1.1, 900);
    assert_eq!(quota.iter().sum::<usize>(), 900);
    assert!(
        quota.windows(2).all(|w| w[0] >= w[1]),
        "non-increasing in rank"
    );
    let per_user = |seed: u64| {
        let p = Params::new(Workload::QueryResident, seed, 8);
        let mut counts = std::collections::HashMap::<u64, usize>::new();
        for op in ops(&p) {
            let Op::Query { user, .. } = op else {
                panic!("analysts only")
            };
            *counts.entry(user).or_default() += 1;
        }
        let mut counts: Vec<usize> = counts.into_values().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    };
    let p = Params::new(Workload::QueryResident, 1, 8);
    let mut expected = zipf_quota(p.users, p.zipf_s, p.warmup + p.requests);
    expected.retain(|&n| n > 0);
    assert_eq!(per_user(1), expected);
    assert_eq!(per_user(2), expected);
}

#[test]
fn ingest_sequence_keeps_its_shape() {
    let p = Params::new(Workload::IngestMixed, 5, 8);
    let seq = ops(&p);
    let count = |f: fn(&Op) -> bool| seq.iter().filter(|op| f(op)).count();
    let appends = count(|op| matches!(op, Op::Append { .. }));
    let seals = count(|op| matches!(op, Op::Seal));
    let disguises = count(|op| matches!(op, Op::Disguise { .. }));
    let restores = count(|op| matches!(op, Op::Restore { .. }));
    assert_eq!(seals, appends / p.appends_per_seal);
    assert!(disguises.abs_diff(seq.len() / p.disguise_every) <= 1);
    assert!(restores + 1 >= disguises && restores <= disguises);
    let grown = appends * p.append_rows as usize;
    assert!(grown <= 2 * p.population(), "the table at most triples");
    assert!(appends.abs_diff(seq.len() * 2 / 5) < seq.len() / 10);
}

#[test]
fn setup_ops_ingest_the_population_then_pass_every_owner() {
    let p = Params::new(Workload::QueryResident, 1, 8);
    let s = setup_ops(&p);
    assert_eq!(s.len(), 2 * p.ingest_rounds + 2 * 16 * OWNER_PASSES);
    assert_eq!(s[0], Op::Append { count: 2048 });
    assert_eq!(s[1], Op::Seal);
    let appended: u32 = s
        .iter()
        .map(|op| match op {
            Op::Append { count } => *count,
            _ => 0,
        })
        .sum();
    assert_eq!(appended as usize + p.initial_rows, p.population());
    assert_eq!(s[s.len() - 1], Op::Restore { owner: 16 });
}

#[test]
fn percentile_ranks_are_nearest_rank() {
    let hundred: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&hundred, 0.50), Some(50));
    assert_eq!(percentile(&hundred, 0.90), Some(90));
    assert_eq!(percentile(&hundred, 0.901), Some(91));
    assert_eq!(percentile(&hundred, 1.0), Some(100));
    assert_eq!(percentile(&hundred, 0.001), Some(1));
    let ten: Vec<u64> = (1..=10).map(|v| v * 10).collect();
    assert_eq!(percentile(&ten, 0.5), Some(50));
    assert_eq!(percentile(&ten, 0.9), Some(90));
    assert_eq!(percentile(&ten, 0.95), Some(100));
    assert_eq!(percentile(&[7], 0.5), Some(7));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn best_is_the_lowest_or_the_highest() {
    let eight = [100.0, 5.0, 3.0, 0.5, 4.0, 6.0, 2.0, 7.0];
    assert_eq!(best(&eight, false), 0.5);
    assert_eq!(best(&eight, true), 100.0);
    assert_eq!(best(&[9.0], true), 9.0);
}

#[test]
fn self_time_subtracts_children_and_layers_sum_to_the_total() {
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let at = |ms: u64| origin + Duration::from_millis(ms);
    let answer = t.record("session.answer", 0, None, at(0), at(10));
    t.record("querydb.parse", 0, Some(answer), at(10), at(11));
    let eval = t.record("querydb.evaluate", 0, Some(answer), at(11), at(17));
    t.record("segment.pin", 0, Some(eval), at(17), at(19));
    t.record("protocol.encode", 0, None, at(19), at(20));
    let by = t.by_name();
    assert_eq!(by["session.answer"].self_ns, 3_000_000);
    assert_eq!(by["querydb.evaluate"].self_ns, 4_000_000);
    let layers = t.self_ns_by_layer();
    assert_eq!(layers["querydb"], 5_000_000);
    assert_eq!(layers["segment"], 2_000_000);
    // Top-level spans cover 11 ms; the layer self times split exactly that.
    assert_eq!(layers.values().sum::<i64>(), 11_000_000);

    // A shadow child measured after its parent still subtracts.
    let f = t.record("batch.fetch", 1, None, at(20), at(25));
    t.record("pir.sweep", 1, Some(f), at(30), at(33));
    assert_eq!(t.self_ns_by_layer()["batch"], 2_000_000);
    assert_eq!(t.spans().len(), 7);
}

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
}

/// The `{"name": ..., "unit": ...}` pairs of one section of BENCHMARK.json.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |f: &str| {
                let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                entry[at..at + entry[at..].find('"').expect("string ends")].to_owned()
            };
            let unit = if key == "workloads" {
                String::new()
            } else {
                field("unit")
            };
            (field("name"), unit)
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let json = benchmark_json();
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section(&json, "end_to_end"), own(&END_TO_END));
    assert_eq!(section(&json, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = section(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdf-perfbench-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Tiny runs one at a time: a run sets `TDF_SEGCACHE` and the obs level
/// for the whole process.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny_end_to_end(w: Workload) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let p = Params::tiny(w, 11);
    for traced in [false, true] {
        let dir = scratch(&format!("{}-{traced}", w.name()));
        let report = run(&p, traced, &dir).expect("tiny run completes");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            report.failed,
            0,
            "{} traced={traced}: every answer checks",
            w.name()
        );
        let per_repeat = setup_ops(&p).len() + p.warmup + p.requests;
        let repeats = if traced { 1 } else { p.repeats };
        assert_eq!(report.attempted as usize, repeats * per_repeat);
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, table.iter().map(|m| m.0).collect::<Vec<_>>());
        assert!(report.to_json().starts_with("{\"correct\":true,"));
        if !traced {
            for (name, _) in END_TO_END {
                let v = report.metric(name).expect("metric present");
                assert!(v > 0.0, "{} {name} = {v}", w.name());
            }
        } else if w == Workload::QuerySpill {
            // The served side ran under the cache budget: segments reloaded.
            let reloads = report
                .metric("segment.reloads_per_query")
                .expect("metric present");
            assert!(reloads > 0.0, "query_spill reloads per query = {reloads}");
        }
    }
}

#[test]
fn tiny_query_resident_runs_end_to_end() {
    tiny_end_to_end(Workload::QueryResident);
}

#[test]
fn tiny_query_spill_runs_end_to_end() {
    tiny_end_to_end(Workload::QuerySpill);
}

#[test]
fn tiny_pir_fetch_runs_end_to_end() {
    tiny_end_to_end(Workload::PirFetch);
}

#[test]
fn tiny_ingest_mixed_runs_end_to_end() {
    tiny_end_to_end(Workload::IngestMixed);
}
