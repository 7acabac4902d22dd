#!/usr/bin/env bash
# The offline CI gate. Everything here must pass with NO network and an
# empty cargo registry: the workspace is hermetic (in-tree path
# dependencies only), and this script is the enforcement point.
#
# Usage: ci/check.sh [--quick]
#   --quick   skip the release build, the bench smoke run, the golden
#             diffs and the serve/scaling gates
#
# Environment:
#   CARGO       cargo binary (default: cargo)
set -euo pipefail

cd "$(dirname "$0")/.."
CARGO="${CARGO:-cargo}"

usage() {
  cat <<'EOF'
Usage: ci/check.sh [--quick]
  --quick   skip the release build, the bench smoke run, the golden
            diffs and the serve/scaling gates
EOF
}

QUICK=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1 ;;
    -h | --help)
      usage
      exit 0
      ;;
    *)
      echo "ci/check.sh: unknown option '$1'" >&2
      usage >&2
      exit 2
      ;;
  esac
  shift
done

# Failure artefacts (golden-diff outputs, regenerated snapshots) land
# here; the workflow uploads the directory when a run fails. Absolute,
# because `cargo bench` runs bench binaries with the *package* directory
# as cwd, so a relative TDF_RESULTS_DIR would land the artefacts under
# crates/bench/target instead.
ARTIFACTS="$PWD/target/ci-artifacts"
rm -rf "$ARTIFACTS"
mkdir -p "$ARTIFACTS"

step() { printf '\n==> %s\n' "$*"; }

step "hermetic manifests (no registry dependencies)"
# Fast shell-level mirror of tests/hermetic_guard.rs: inside any
# *dependencies* table, every entry must be a path or workspace dep.
bad=$(awk '
  /^\[/ { dep = ($0 ~ /dependencies\]$/); next }
  dep && /=/ && !/^[[:space:]]*#/ && !/path[[:space:]]*=/ && !/workspace[[:space:]]*=[[:space:]]*true/ {
    print FILENAME ":" FNR ": " $0
  }
' Cargo.toml crates/*/Cargo.toml)
if [[ -n "$bad" ]]; then
  echo "registry (non-path) dependencies are banned:" >&2
  echo "$bad" >&2
  exit 1
fi
echo "ok"

step "row-materializer budget (columnar storage must stay hot)"
# `Dataset::row` / `Dataset::rows` are the compatibility shim over the
# columnar store — fine for CSV/TSV ser, generators and report glue,
# banned from growing back into kernels. The budget is the audited
# call-site count at the time of the columnar refactor; if you need a
# new site, prefer a ColumnView / typed-cells accessor, or consciously
# raise the budget here with a justification.
# 27 -> 30: three segment-compaction unit-test fixtures feed the mutable
# tail row-by-row (`push_row(d.row(i))`) — the only API that exercises
# the tail path; no kernel code materializes rows.
# 30 -> 24: the ast.rs predicate tests now run through the one evaluator
# (engine.rs), so their six `d.row(i)` sites are gone.
ROW_BUDGET=24
row_sites=$(grep -rn '\.rows()\|\.row(' crates/*/src --include='*.rs' \
  | grep -v 'crates/microdata/src/dataset.rs' | grep -cv '^[[:space:]]*//' || true)
if [[ "$row_sites" -gt "$ROW_BUDGET" ]]; then
  echo "row-materializer call sites grew: $row_sites > budget $ROW_BUDGET" >&2
  grep -rn '\.rows()\|\.row(' crates/*/src --include='*.rs' \
    | grep -v 'crates/microdata/src/dataset.rs' | grep -v '^[[:space:]]*//' >&2
  exit 1
fi
echo "ok ($row_sites sites, budget $ROW_BUDGET)"

step "cargo fmt --check"
"$CARGO" fmt --all --check

step "cargo clippy (offline, -D warnings)"
"$CARGO" clippy --workspace --all-targets --offline -- -D warnings

step "cargo doc --workspace (offline, -D warnings)"
# Intra-doc links to removed entry points (tdf-par's, the PIR sweeps, the
# second and third query evaluators') must not dangle, and a citation
# bracket must be escaped (`\[12\]`) so rustdoc does not read it as a
# broken link.
RUSTDOCFLAGS="-D warnings" "$CARGO" doc --workspace --no-deps --offline

if [[ "$QUICK" -eq 0 ]]; then
  step "cargo build --release --offline"
  "$CARGO" build --release --offline
fi

step "cargo test --offline (TDF_THREADS=1)"
TDF_THREADS=1 "$CARGO" test --workspace -q --offline

step "cargo test --offline (TDF_THREADS=4, TDF_CORES=4, TDF_OBS=2)"
# Full observability on, and the measured-core clamp overridden to 4 so
# the persistent executor genuinely engages even on single-core runners
# (results are bit-identical either way — that is the contract under
# test). tests/prop_obs_inert.rs proves TDF_OBS=2 changes no answer.
TDF_THREADS=4 TDF_CORES=4 TDF_OBS=2 "$CARGO" test --workspace -q --offline

step "fault matrix (TDF_FAULTS env path; see tests/fault_matrix.rs)"
# The two runs above are the no-fault column. Here the plan arrives via
# the environment — the path set_plan-based tests bypass. A zero-rate
# plan over every site must leave the whole suite green (inertness,
# end-to-end through the env parser), and live pir / par plans must
# degrade the matrix pipeline to masked faults, refusals and typed
# errors — never wrong answers.
ZERO_RATE="pir.server_drop=4@0,pir.corrupt_word=4@0,par.worker_panic=2@0,querydb.deadline=5@0,smc.corrupt_word=3@0,segment.spill=4@0,segment.reload=4@0,segment.compact=4@0,segment.evict=4@0,disguise.wal_append=4@0,disguise.apply=4@0,disguise.restore=4@0,pir.batch_drop=4@0,serve.partial_response=4@0"
PIR_FAULTS="pir.server_drop=0@0.3,pir.corrupt_word=0@0.2"
PAR_FAULTS="par.worker_panic=0@0.05"
SEG_FAULTS="segment.spill=0@0.4,segment.reload=0@0.25,segment.compact=0@0.3,segment.evict=0@0.3"
# Budgets of 2 per disguise site: each WAL append and cell-image apply
# retries up to 3 times, so a 2-fault budget is always absorbed — the
# matrix leg proves crashes degrade to recovery replays, never to a
# half-disguised ledger (tests/fault_matrix.rs holds under any plan;
# unbounded-crash convergence is crash_matrix.rs territory).
DISGUISE_FAULTS="disguise.wal_append=2@0.5,disguise.apply=2@0.4,disguise.restore=2@0.4"
TDF_FAULTS="$ZERO_RATE" TDF_THREADS=4 TDF_CORES=4 "$CARGO" test --workspace -q --offline
for threads in 1 4; do
  TDF_FAULTS="$PIR_FAULTS" TDF_THREADS="$threads" TDF_CORES="$threads" \
    "$CARGO" test -q --offline --test fault_matrix
  TDF_FAULTS="$PAR_FAULTS" TDF_THREADS="$threads" TDF_CORES="$threads" \
    "$CARGO" test -q --offline --test fault_matrix
  # Live spill/reload/compact/evict faults: crashed spills must fail
  # closed (sealed data stays resident and exact), corrupted reloads
  # must heal or surface as typed errors, crashed compactions must
  # leave the old segments queryable and crashed eviction rounds must
  # fail open — never wrong rows, never a dropped segment.
  TDF_FAULTS="$SEG_FAULTS" TDF_THREADS="$threads" TDF_CORES="$threads" \
    "$CARGO" test -q --offline --test fault_matrix
  # Live disguise faults: torn WAL appends and mid-transaction apply
  # crashes must leave every disguise/restore all-or-nothing, with
  # recovery replaying the committed prefix — never wrong cells.
  TDF_FAULTS="$DISGUISE_FAULTS" TDF_THREADS="$threads" TDF_CORES="$threads" \
    "$CARGO" test -q --offline --test fault_matrix
done
echo "ok"

step "out-of-core smoke (TDF_SEGCACHE=65536 forces real spills)"
# A global 64 KiB segment-cache budget is far below every multi-segment
# test table, so sealed segments genuinely stream through the binary
# spill format and back. No answer may change: the segmented properties,
# the streaming query engine and the serve wire transcripts must be
# bit-identical to their unconstrained runs.
TDF_SEGCACHE=65536 "$CARGO" test -q --offline --test prop_segments
TDF_SEGCACHE=65536 "$CARGO" test -q --offline -p tdf-serve
echo "ok"

step "pir-scale smoke (fused batch + hint path, words-scanned budget)"
# Quick shape of the PIR-at-scale bench: n=10^5, q in {1,8}, real fused
# sweeps and hint retrievals with in-bench bit-identity asserts. The
# greps pin the q=8 scan budget to the cost model — 2 servers x 8 lanes
# x ceil(1e5/64) mask words = 25008 — and the q=1 batch to the
# single-query path's 3126, so a kernel that silently starts scanning
# more than the model predicts fails CI even though the timing itself
# is not gated here. The artefact rides along in $ARTIFACTS (the
# workflow uploads it).
TDF_PIR_SCALE_QUICK=1 TDF_PIR_SCALE_SAMPLES=2 TDF_RESULTS_DIR="$ARTIFACTS" \
  "$CARGO" bench --offline -p tdf-bench --bench pir_scale >/dev/null
pir_json="$ARTIFACTS/BENCH_pir_scale.json"
[[ -s "$pir_json" ]] || { echo "missing $pir_json" >&2; exit 1; }
for id in single_q1_n1e5 batch_q1_n1e5 batch_q8_n1e5 hint_online_n1e5; do
  grep -q "\"id\":\"$id\"" "$pir_json" \
    || { echo "$pir_json lacks entry $id" >&2; exit 1; }
done
grep -q '"words_scanned":25008' "$pir_json" \
  || { echo "$pir_json: q=8 n=1e5 words-scanned budget drifted from 25008" >&2
       exit 1; }
# One fused 2-lane pass answers both replicas of a q=1 batch:
# 2 x 1563 = 3126 words, the same as single_q1_n1e5.
grep -q '"id":"batch_q1_n1e5"[^}]*"words_scanned":3126[,}]' "$pir_json" \
  || { echo "$pir_json: batch_q1_n1e5 words-scanned drifted from 3126" >&2
       exit 1; }
echo "ok"

if [[ "$QUICK" -eq 0 ]]; then
  step "bench smoke run (tiny sample counts; validates BENCH_*.json)"
  # Artefacts land in $ARTIFACTS via TDF_RESULTS_DIR (and would default
  # to the workspace root, never crates/bench/ — bench binaries run with
  # the package directory as cwd; crates/bench/src/harness.rs).
  TDF_BENCH_SAMPLES=3 TDF_BENCH_SAMPLE_MS=2 TDF_BENCH_WARMUP_MS=5 \
    TDF_SERVE_CLIENTS=2 TDF_SERVE_USERS=100 TDF_SERVE_REQS=25 TDF_SERVE_ROWS=300 \
    TDF_PIR_SCALE_QUICK=1 TDF_PIR_SCALE_SAMPLES=2 \
    TDF_DISGUISE_ROWS=200 TDF_DISGUISE_USERS=4 \
    TDF_RESULTS_DIR="$ARTIFACTS" \
    "$CARGO" bench --offline -p tdf-bench >/dev/null
  for suite in substrates ablations experiments par columnar obs faults serve \
               pir_scale segments disguise; do
    json="$ARTIFACTS/BENCH_${suite}.json"
    [[ -s "$json" ]] || { echo "missing $json" >&2; exit 1; }
    for field in median_ns p95_ns p99_ns; do
      grep -q "\"$field\"" "$json" || { echo "$json lacks $field" >&2; exit 1; }
    done
  done
  # The obs suite runs each workload at TDF_OBS=1/2 through bench_with_obs,
  # which embeds the counter snapshot alongside the timings; the serve
  # suite embeds the load generator's run-level aggregates (including the
  # keep-alive ratio) the same way.
  grep -q '"counters"' "$ARTIFACTS/BENCH_obs.json" \
    || { echo "BENCH_obs.json lacks embedded counters" >&2; exit 1; }
  grep -q '"throughput_rps"' "$ARTIFACTS/BENCH_serve.json" \
    || { echo "BENCH_serve.json lacks throughput counters" >&2; exit 1; }
  grep -q '"reqs_per_conn_x100"' "$ARTIFACTS/BENCH_serve.json" \
    || { echo "BENCH_serve.json lacks keep-alive counters" >&2; exit 1; }
  # The segments suite embeds the delta-epoch, compaction and parallel-
  # publication series; keep the artefact so perf PRs can diff
  # republication economics against the run before theirs (the workflow
  # uploads it).
  for id in epoch_full_resident_s20 epoch_delta_s1 epoch_delta_s0 \
            compact_100x40_floor200 publish_par_s20_t1 publish_par_s20_t4; do
    grep -q "\"id\":\"$id\"" "$ARTIFACTS/BENCH_segments.json" \
      || { echo "BENCH_segments.json lacks entry $id" >&2; exit 1; }
  done
  # The disguise suite measures the WAL-durable round trip and the
  # crash-recovery replay, with the per-transaction disguise.* counters
  # embedded.
  for id in txn/roundtrip_n200_u4 recover/replay_4txns_n200; do
    grep -q "\"id\":\"$id\"" "$ARTIFACTS/BENCH_disguise.json" \
      || { echo "BENCH_disguise.json lacks entry $id" >&2; exit 1; }
  done
  grep -q '"disguise.wal_entries"' "$ARTIFACTS/BENCH_disguise.json" \
    || { echo "BENCH_disguise.json lacks disguise.* counters" >&2; exit 1; }
  echo "ok"

  step "perfbench tests (end-to-end benchmark answers vs in-process replay)"
  # The benchmark is its own cargo package (perfbench/Cargo.toml). Its
  # tiny runs check every served answer against an in-process replay —
  # QUERY bit for bit against UserSession — so an admission-path change
  # that moves one decision or noise draw fails here.
  "$CARGO" test --release --offline -q --manifest-path perfbench/Cargo.toml

  step "serve smoke (scripted session vs golden transcript)"
  # One scripted client session over a real socket: answered queries, a
  # budget refusal, a tracker refusal, a clean BYE and a draining
  # shutdown. The transcript is deterministic in TDF_SEED; any drift
  # means the wire protocol, the admission path or the noise streams
  # changed — regenerate ci/golden/serve_smoke.txt consciously:
  #   TDF_SEED=2007 cargo run --release --offline -q -p tdf-serve \
  #     --bin serve_smoke > ci/golden/serve_smoke.txt
  TDF_SEED=2007 "$CARGO" run --release --offline -q -p tdf-serve --bin serve_smoke \
    > "$ARTIFACTS/serve_smoke.txt"
  diff "$ARTIFACTS/serve_smoke.txt" ci/golden/serve_smoke.txt \
    > "$ARTIFACTS/serve_smoke.diff" \
    || { echo "serve transcript drifted from ci/golden/serve_smoke.txt:" >&2
         cat "$ARTIFACTS/serve_smoke.diff" >&2; exit 1; }
  echo "ok"

  step "disguise smoke (unsubscribe/resubscribe session vs golden transcript)"
  # One scripted session over a real socket: a WAL-durable DISGUISE, the
  # three typed wrong-state refusals, a query riding the same connection
  # and the RESTORE handing the rows back. Deterministic in TDF_SEED;
  # regenerate consciously:
  #   TDF_SEED=2007 cargo run --release --offline -q -p tdf-serve \
  #     --bin disguise_smoke > ci/golden/disguise_smoke.txt
  TDF_SEED=2007 "$CARGO" run --release --offline -q -p tdf-serve --bin disguise_smoke \
    > "$ARTIFACTS/disguise_smoke.txt"
  diff "$ARTIFACTS/disguise_smoke.txt" ci/golden/disguise_smoke.txt \
    > "$ARTIFACTS/disguise_smoke.diff" \
    || { echo "disguise transcript drifted from ci/golden/disguise_smoke.txt:" >&2
         cat "$ARTIFACTS/disguise_smoke.diff" >&2; exit 1; }
  echo "ok"

  step "scaling gate (pir batch economics + t4 median within 1.10x of t1)"
  # The pir_batch leg (hint-path amortized online cost at q=64, n=1e6
  # must stay <= 0.25x a full-scan single query, and fused sweeps must
  # be bit-identical to sequential retrievals) runs on every host. The
  # thread-scaling legs — MDAV/Mondrian parity at 1.10x and the
  # publish_par speedup leg (12 dirty segments, t4 <= 0.6x t1) — skip
  # with a notice on hosts with fewer than 4 measured cores (the core
  # clamp makes the comparison vacuous there); on real multi-core
  # runners a regression past the ratio fails the build.
  "$CARGO" run --release --offline -q -p tdf-bench --bin scaling_gate

  step "deterministic obs snapshot matches the golden file"
  # Counter totals for a fixed F1 sweep are part of the contract: any
  # accounting change must consciously regenerate ci/golden/obs_f1.jsonl
  # (see crates/bench/src/bin/obs_snapshot.rs for the command).
  "$CARGO" run --release --offline -q -p tdf-bench --bin obs_snapshot \
    > "$ARTIFACTS/obs_f1.jsonl"
  diff "$ARTIFACTS/obs_f1.jsonl" ci/golden/obs_f1.jsonl \
    > "$ARTIFACTS/obs_f1.diff" \
    || { echo "obs snapshot drifted from ci/golden/obs_f1.jsonl:" >&2
         cat "$ARTIFACTS/obs_f1.diff" >&2; exit 1; }
  echo "ok"

  step "deterministic fault snapshot matches the golden file"
  # Injection decisions are pure functions of (plan seed, site, draw
  # index), so the fault report for a pinned plan is bit-stable. A drift
  # means injection points moved, fired differently or stopped being
  # counted; regenerate ci/golden/faults_f1.jsonl consciously (see
  # crates/bench/src/bin/fault_snapshot.rs for the command).
  "$CARGO" run --release --offline -q -p tdf-bench --bin fault_snapshot \
    > "$ARTIFACTS/faults_f1.jsonl"
  diff "$ARTIFACTS/faults_f1.jsonl" ci/golden/faults_f1.jsonl \
    > "$ARTIFACTS/faults_f1.diff" \
    || { echo "fault snapshot drifted from ci/golden/faults_f1.jsonl:" >&2
         cat "$ARTIFACTS/faults_f1.diff" >&2; exit 1; }
  echo "ok"
fi

step "all checks passed"
