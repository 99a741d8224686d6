#!/usr/bin/env bash
# Offline CI entry point: build, tests, determinism, bench smoke.
#
# Everything resolves from the vendored registry stubs under `vendor/`
# (see .cargo/config.toml) — no network access is required or attempted.
#
# Usage: scripts/ci.sh [--quick]
#   --quick  skip the slow integration suites (figures_smoke,
#            headline_shape); unit + determinism + goldens still run.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

echo "== cache schema <-> goldens consistency =="
# The run cache replays results across commits, keyed by
# `runcache::SCHEMA_VERSION`. Engine-semantics changes surface as golden
# diffs in any of the golden files — and any commit range that changes a
# golden without bumping the schema would happily replay stale cached
# results (and vice versa: a schema bump with unchanged goldens
# invalidates a perfectly good cache). Enforce the iff. Only changed or
# removed golden lines (`-`) count, so a newly added golden needs no
# bump. Base rev: $CI_BASE_REV, else the parent commit; a
# rootless/shallow checkout skips with a note.
BASE="${CI_BASE_REV:-HEAD~1}"
GOLDEN_FILES="tests/golden_fingerprint.rs tests/controller_golden.rs tests/run_kind_golden.rs"
if git rev-parse -q --verify "$BASE" >/dev/null 2>&1; then
  # shellcheck disable=SC2086 # the file list splits on purpose
  GOLD_DIFF=$(git diff "$BASE" HEAD -- $GOLDEN_FILES | grep -v '^---' \
    | grep -cE '^-.*(GOLDEN_|cycles=|l1m=)' || true)
  SCHEMA_DIFF=$(git diff "$BASE" HEAD -- crates/experiments/src/runcache.rs | grep -c '^[+-]pub const SCHEMA_VERSION' || true)
  if [ "$GOLD_DIFF" -gt 0 ] && [ "$SCHEMA_DIFF" -eq 0 ]; then
    echo "FAIL: golden fingerprints changed since $BASE but runcache SCHEMA_VERSION did not — stale cache entries would replay" >&2
    exit 1
  fi
  if [ "$GOLD_DIFF" -eq 0 ] && [ "$SCHEMA_DIFF" -gt 0 ]; then
    echo "FAIL: runcache SCHEMA_VERSION changed since $BASE but golden fingerprints did not — needless cache invalidation (or missing golden update)" >&2
    exit 1
  fi
  echo "goldens/schema in sync vs $BASE (golden diff lines: $GOLD_DIFF, schema diff lines: $SCHEMA_DIFF)"
else
  echo "note: base rev $BASE unavailable, skipping"
fi

echo "== build (release) =="
cargo build --release --workspace

echo "== unit tests =="
cargo test --release --workspace --lib -q

echo "== determinism + goldens =="
# Every golden file runs here, including the two the schema check above
# reads beside golden_fingerprint (controller_golden also pins the
# controllers' decision telemetry) and the rendered arena and trend
# pages. The telemetry crate's own integration tests (histogram
# properties, truncated-trace validation) run with its unit tests.
cargo test --release --test determinism --test golden_fingerprint --test invariants \
  --test controller_golden --test run_kind_golden --test arena_golden --test trend_golden -q
cargo test --release -p waypart-telemetry --tests -q

echo "== batched engine: scalar-oracle equivalence + sampled fidelity bounds =="
# batch_equivalence: the batched hot path (bulk fill + SIMD probe +
# lockstep pair batching) against the scalar engine under randomized
# masks/placements/workloads. sampled_fidelity: the default 1:3
# functional-warming schedule stays within 2% MPKI / 10% IPC of exact
# on the headline pair at test scale and (release builds compile in the
# bench-scale test) within 5% mean MPKI at bench scale; exact and
# sampled configs, and two skip lengths, serialize distinct cache keys;
# reruns are deterministic and match the pinned sampled fingerprints.
cargo test --release --test batch_equivalence --test sampled_fidelity -q

echo "== perfbench: self-test + digest smoke (short grids, both reference seeds) =="
# perfbench (BENCHMARK.json) checks every op's run-cache digest against
# the committed references in perfbench/refs/, so a perf change that
# moves any simulated byte fails here. A 2 s grid is a prefix of the
# reference grid; the smallest colocate grid (one pair) still takes
# about 20 s, the others a few seconds.
cargo test --offline --manifest-path perfbench/Cargo.toml -q
for w in characterize colocate sampled; do
  for seed in 49164 1; do
    PB_OUT=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$w" --seed "$seed" --seconds 2 --trace 0) \
      || { echo "FAIL: perfbench $w seed $seed exited nonzero" >&2; exit 1; }
    echo "$PB_OUT" | tail -1 | grep -q '"correct": true' \
      || { echo "FAIL: perfbench $w seed $seed reported \"correct\": false" >&2; exit 1; }
  done
done
echo "perfbench digests match the references on all workloads at both seeds"

if [ "$QUICK" -eq 0 ]; then
  echo "== figure smoke + headline shape =="
  cargo test --release --test figures_smoke --test headline_shape -q
fi

echo "== telemetry: inertness + trace validation + level summaries =="
# Attaching live sinks must not change a single simulation byte: the
# inertness tests run each simulation bare and with sinks (DESIGN.md §5c).
cargo test --release --test telemetry_inert -q
# Emitted traces must satisfy their own schemas (offline, jq-free). Every
# cold run closes with one `sim.tallies` summary and five per-level
# `sim.latency` summaries; fig12 is the cheap artifact that still contains
# a dynamically-partitioned pair, so the trace carries real
# `sim.occupancy` windows for the dashboard.
TRACE_DIR=$(mktemp -d /tmp/waypart-ci-trace.XXXXXX)
trap 'rm -rf "$TRACE_DIR"' EXIT
cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --no-cache --out "$TRACE_DIR/results" \
  --trace "$TRACE_DIR/trace.jsonl" --metrics "$TRACE_DIR/metrics.json" fig12 >/dev/null
cargo run --release -p waypart-telemetry --bin validate_trace -- "$TRACE_DIR/trace.jsonl"
# A trace holds events only: no `series`/`hist` aggregate records.
if grep -q '"record":' "$TRACE_DIR/trace.jsonl"; then
  echo "FAIL: cold fig12 trace carries record lines beside its events" >&2; exit 1
fi
RUNS=$(grep -c '"name":"runner.run","kind":"end"' "$TRACE_DIR/trace.jsonl" || true)
TALLIES=$(grep -c '"name":"sim.tallies"' "$TRACE_DIR/trace.jsonl" || true)
[ "$RUNS" -gt 0 ] && [ "$TALLIES" -eq "$RUNS" ] \
  || { echo "FAIL: cold fig12 trace has $TALLIES sim.tallies for $RUNS runs" >&2; exit 1; }
for level in l1 l2 llc dram bypass; do
  N=$(grep '"name":"sim.latency"' "$TRACE_DIR/trace.jsonl" | grep -c "\"level\":\"$level\"" || true)
  [ "$N" -eq "$RUNS" ] \
    || { echo "FAIL: cold fig12 trace has $N sim.latency $level summaries for $RUNS runs" >&2; exit 1; }
done
echo "fig12 trace: $RUNS runs, each with sim.tallies and five sim.latency levels"
# Runs made through a sibling lab (ext_coloring's modulo-indexed machine)
# count in the `run cache:` line: one simulated run per sim.tallies.
cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --no-cache --out "$TRACE_DIR/coloring" \
  --trace "$TRACE_DIR/coloring.jsonl" ext_coloring > "$TRACE_DIR/coloring.txt"
SIMULATED=$(sed -n 's/^run cache: .* \([0-9]*\) simulated, .*/\1/p' "$TRACE_DIR/coloring.txt")
TALLIES=$(grep -c '"name":"sim.tallies"' "$TRACE_DIR/coloring.jsonl" || true)
[ "${SIMULATED:-0}" -gt 0 ] && [ "$SIMULATED" -eq "$TALLIES" ] \
  || { echo "FAIL: cold ext_coloring counted ${SIMULATED:-no} simulated runs for $TALLIES sim.tallies" >&2; exit 1; }
echo "ext_coloring: $SIMULATED simulated runs counted, one per sim.tallies"
# Every controller's windows are timed, not only the dynamic one's: the
# QoS grid's controllers reallocate hundreds of times.
cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --no-cache --out "$TRACE_DIR/qos" --metrics "$TRACE_DIR/qos_metrics.json" ext_qos >/dev/null
CTL_S=$(grep -o '"phase_seconds":{[^}]*}' "$TRACE_DIR/qos_metrics.json" \
  | grep -o '"controller":[0-9.e+-]*' | cut -d: -f2)
awk -v s="${CTL_S:-0}" 'BEGIN { exit !(s > 0) }' \
  || { echo "FAIL: ext_qos attributed ${CTL_S:-no} controller seconds, want > 0" >&2; exit 1; }
echo "ext_qos controller time ${CTL_S} s"

echo "== report: build dashboard + well-formedness check =="
# A pass over the persistent run cache adds the headline summary (the
# paper-delta table's data). `results/cache/` is git-ignored, so this pass
# is warm only where an earlier run on this checkout filled the cache and
# cold on a fresh one. JSONL traces concatenate, so the report sees both
# the cold fig12 events and this pass's events.
cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --out "$TRACE_DIR/results_warm" \
  --trace "$TRACE_DIR/warm.jsonl" fig9 fig10 fig11 fig13 headline >/dev/null
cat "$TRACE_DIR/trace.jsonl" "$TRACE_DIR/warm.jsonl" > "$TRACE_DIR/combined.jsonl"
cargo run --release -p waypart-telemetry --bin validate_trace -- "$TRACE_DIR/combined.jsonl"
cargo run --release -p waypart-experiments --bin report -- \
  --trace "$TRACE_DIR/combined.jsonl" --metrics "$TRACE_DIR/metrics.json" \
  --out "$TRACE_DIR/report.html"
cargo run --release -p waypart-experiments --bin report -- --check "$TRACE_DIR/report.html"
grep -q "per-access latency in cycles" "$TRACE_DIR/report.html" \
  || { echo "FAIL: report lacks the access latency table" >&2; exit 1; }
if grep -q "no sim.latency summaries" "$TRACE_DIR/report.html"; then
  echo "FAIL: report shows the latency placeholder for a cold trace" >&2; exit 1
fi
# The counter-window panel plots each track's perfmon.window events,
# IPC as well as MPKI.
grep -q "<td>perfmon.window.ipc</td>" "$TRACE_DIR/report.html" \
  || { echo "FAIL: report has no perfmon.window.ipc counter-window row" >&2; exit 1; }
# Cache-warm traces must degrade to an explicit banner, not empty
# panels. fig13 alone replays entirely from the cache, because the
# command above just filled it with every run fig13 needs — its trace has
# dyn.run summaries but zero fresh simulations.
cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --out "$TRACE_DIR/results_warm13" \
  --trace "$TRACE_DIR/warm13.jsonl" fig13 >/dev/null
cargo run --release -p waypart-experiments --bin report -- \
  --trace "$TRACE_DIR/warm13.jsonl" --out "$TRACE_DIR/report_warm.html" >/dev/null
grep -q "replayed from cache" "$TRACE_DIR/report_warm.html" \
  || { echo "FAIL: warm report lacks the cache banner" >&2; exit 1; }

echo "== run memo: cold fig6 byte-identical with duplicate runs served =="
# `Lab` serves a cache miss whose run identity it already simulated under
# another key (DESIGN.md §5j). fig6 requests the two single-threaded
# cluster representatives (429.mcf, 459.GemsFDTD) at 8 thread counts x 12
# ways, and 7 of the 8 thread counts repeat the 1-thread run: exactly 168
# misses must be memo-served, and the artifact must not move. Pinned to
# one CPU because two sweep workers racing on one identity both simulate
# (the memo has no single-flight), which makes the count timing-dependent.
FIRST_CPU=$(taskset -pc $$ | sed 's/.*: //; s/[,-].*//')
taskset -c "$FIRST_CPU" cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --no-cache --out "$TRACE_DIR/memo" fig6 > "$TRACE_DIR/memo.txt"
diff "$TRACE_DIR/memo/fig6.txt" results/test/fig6.txt \
  || { echo "FAIL: cold fig6 with the run memo differs from the committed golden" >&2; exit 1; }
grep -q ", 168 memo-served)" "$TRACE_DIR/memo.txt" \
  || { echo "FAIL: cold fig6 did not memo-serve 168 runs: $(grep 'run cache:' "$TRACE_DIR/memo.txt")" >&2; exit 1; }
echo "fig6 byte-identical to golden; 168 duplicate runs memo-served"

echo "== run cache: cold fig12 byte-identical, cache dir holds only entries =="
# A cold fig12 over a fresh persistent cache must match the committed
# golden and leave nothing in the cache directory but `<hash>.json`
# entries (no temp files, no subdirectories).
WAYPART_CACHE_DIR="$TRACE_DIR/cache12" \
  cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --out "$TRACE_DIR/cold12" fig12 >/dev/null
diff "$TRACE_DIR/cold12/fig12.txt" results/test/fig12.txt \
  || { echo "FAIL: cold fig12 differs from the committed golden" >&2; exit 1; }
[ -n "$(ls -A "$TRACE_DIR/cache12")" ] \
  || { echo "FAIL: cold fig12 wrote no cache entries" >&2; exit 1; }
STRAY=$(ls -A "$TRACE_DIR/cache12" | grep -vE '^[0-9a-f]{16}\.json$' || true)
[ -z "$STRAY" ] \
  || { echo "FAIL: the cache directory holds non-entry files: $STRAY" >&2; exit 1; }
echo "fig12 byte-identical to golden; cache dir holds only entries"

echo "== CLI input checks (valueless flags, bad arguments, unwritable outputs) =="
# A flag given without its value is a usage error (exit 2), never a panic.
for flag in --scale --fidelity --out --trace --metrics; do
  CODE=0
  cargo run --release -p waypart-experiments --bin reproduce -- "$flag" >/dev/null 2>&1 || CODE=$?
  [ "$CODE" -eq 2 ] \
    || { echo "FAIL: reproduce $flag without a value exited $CODE, want 2" >&2; exit 1; }
done
# So is a bad value, an unknown artifact or a misspelled flag: each must
# exit 2, never panic, run nothing, or silently drop the argument.
# `sampled-cold`, the three-part `sampled:D:S`, `--jobs`, `--shard` and
# `--merge` are removed forms.
for args in "--scale bogus" "--fidelity bogus" "--fidelity sampled:x:3" "--fidelity sampled:0:3" \
    "--fidelity sampled-cold" "--fidelity sampled:1:3" "--fidelity sampled:x" \
    "--out /dev/null/x fig12" "fig99" "--sacle test fig5" \
    "--jobs 2 fig12" "--shard 1/2 fig12" "--merge fig12"; do
  CODE=0
  # shellcheck disable=SC2086 # each case splits into its arguments on purpose
  cargo run --release -p waypart-experiments --bin reproduce -- $args >/dev/null 2>&1 || CODE=$?
  [ "$CODE" -eq 2 ] \
    || { echo "FAIL: reproduce $args exited $CODE, want 2" >&2; exit 1; }
done
# An output file that cannot be created fails the same way, before
# anything simulates: no artifact may land in the writable --out.
for args in "--trace /nonexistent-dir/t.jsonl" "--metrics /nonexistent-dir/m.json"; do
  CODE=0
  # shellcheck disable=SC2086 # each case splits into its arguments on purpose
  cargo run --release -p waypart-experiments --bin reproduce -- \
    --out "$TRACE_DIR/badout" $args fig12 >/dev/null 2>&1 || CODE=$?
  [ "$CODE" -eq 2 ] \
    || { echo "FAIL: reproduce $args exited $CODE, want 2" >&2; exit 1; }
  [ ! -e "$TRACE_DIR/badout/fig12.txt" ] \
    || { echo "FAIL: reproduce $args wrote fig12.txt before rejecting the path" >&2; exit 1; }
done
# An artifact that cannot be written once the run has started names its
# path and exits 1, never a panic (exit 101).
mkdir -p "$TRACE_DIR/blocked/fig12.txt"
CODE=0
cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --no-cache --out "$TRACE_DIR/blocked" fig12 >/dev/null 2>"$TRACE_DIR/blocked.err" || CODE=$?
[ "$CODE" -eq 1 ] \
  || { echo "FAIL: reproduce with an unwritable fig12.txt exited $CODE, want 1" >&2; exit 1; }
grep -q "cannot write .*fig12.txt" "$TRACE_DIR/blocked.err" \
  || { echo "FAIL: reproduce did not name the unwritable fig12.txt" >&2; exit 1; }
if grep -q "panicked" "$TRACE_DIR/blocked.err"; then
  echo "FAIL: reproduce panicked on an unwritable artifact" >&2; exit 1
fi
for flag in --trace --metrics --history --arena --verdicts --out --check; do
  CODE=0
  cargo run --release -p waypart-experiments --bin report -- "$flag" >/dev/null 2>&1 || CODE=$?
  [ "$CODE" -eq 2 ] \
    || { echo "FAIL: report $flag without a value exited $CODE, want 2" >&2; exit 1; }
done
# `report` and `sentry` reject an unknown argument, a missing mode, a bad
# number and an unreadable input the same way: exit 2, never a panic.
for args in "report --bogus" "report" "report --trace $TRACE_DIR/trace.jsonl --metrics /nonexistent-dir/m.json" \
    "report --trace /nonexistent-dir/t.jsonl" "sentry --history" "sentry --noise abc" "sentry --noise inf" \
    "sentry --z -1" "sentry --bogus" "sentry" "sentry --history /nonexistent-dir/h.jsonl"; do
  set -- $args
  BIN=$1
  shift
  PKG=waypart-experiments
  [ "$BIN" = sentry ] && PKG=waypart-bench
  CODE=0
  cargo run --release -p "$PKG" --bin "$BIN" -- "$@" >/dev/null 2>"$TRACE_DIR/cli.err" || CODE=$?
  [ "$CODE" -eq 2 ] \
    || { echo "FAIL: $args exited $CODE, want 2" >&2; exit 1; }
  if grep -q "panicked" "$TRACE_DIR/cli.err"; then
    echo "FAIL: $args panicked" >&2; exit 1
  fi
done
# `probe` takes a subcommand, app names and a trace path, never flags: any
# `-` argument or unknown subcommand exits 2 before anything runs, so a
# stale flag cannot run a whole grid.
for args in "fig11 --bogus" "fig11 --shard 1/2" "figZZ"; do
  CODE=0
  # shellcheck disable=SC2086 # each case splits into its arguments on purpose
  cargo run --release -p waypart-experiments --bin probe -- $args >/dev/null 2>&1 || CODE=$?
  [ "$CODE" -eq 2 ] \
    || { echo "FAIL: probe $args exited $CODE, want 2" >&2; exit 1; }
done
echo "valueless flags, bad arguments and unwritable outputs rejected; unwritable artifact reported"

echo "== sampled reproduce smoke (default 1:3 schedule; error bars printed and bounded) =="
# End-to-end: `--fidelity sampled` (the default 1:3 functional-warming
# schedule) must produce the fig12 artifact plus the sampled-vs-exact
# error-bar artifact, and the reported mean-MPKI drift must stay within
# the documented test-scale envelope (±15%; the tight 2% bound is
# asserted on the headline pair by sampled_fidelity — the fig12 solo
# series is noisier because schedule alignment shifts which windows are
# measured, DESIGN.md §5e).
cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --no-cache --fidelity sampled --out "$TRACE_DIR/sampled" fig12 >/dev/null
BARS="$TRACE_DIR/sampled/fig12_error_bars.txt"
[ -s "$BARS" ] || { echo "FAIL: sampled run produced no fig12_error_bars.txt" >&2; exit 1; }
MEAN_ERR=$(sed -n 's/.*mean MPKI.*(\([+-][0-9.]*\)%).*/\1/p' "$BARS")
[ -n "$MEAN_ERR" ] || { echo "FAIL: could not parse mean-MPKI error from $BARS" >&2; exit 1; }
awk -v e="$MEAN_ERR" 'BEGIN { if (e < 0) e = -e; exit !(e <= 15.0) }' \
  || { echo "FAIL: sampled mean-MPKI error ${MEAN_ERR}% exceeds the 15% test-scale envelope" >&2; exit 1; }
echo "sampled fig12 mean-MPKI error ${MEAN_ERR}% (within 15%)"

echo "== controller arena (race, explain telemetry, warm replay, dashboard) =="
# Every registered controller races over the headline pairs through a
# fresh cache (DESIGN.md §5h). The decision stream must carry ctl.explain
# records that validate against the telemetry schema and narrate via
# `probe explain`; a warm rerun must replay arena.json byte-identically;
# and the dashboard must pass the self-containment check. Decision-less
# and telemetry-less traces must be loud nonzero errors, not empty output.
WAYPART_CACHE_DIR="$TRACE_DIR/arenacache" \
  cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --arena --out "$TRACE_DIR/arena" \
  --trace "$TRACE_DIR/arena.jsonl" --metrics "$TRACE_DIR/arena_metrics.json" >/dev/null
grep -q '"name":"ctl.explain"' "$TRACE_DIR/arena.jsonl" \
  || { echo "FAIL: arena trace carries no ctl.explain decisions" >&2; exit 1; }
cargo run --release -p waypart-telemetry --bin validate_trace -- "$TRACE_DIR/arena.jsonl"
cargo run --release -p waypart-experiments --bin probe -- explain "$TRACE_DIR/arena.jsonl" \
  | tail -1 | tee "$TRACE_DIR/explain_tail.txt"
grep -q "decisions over" "$TRACE_DIR/explain_tail.txt" \
  || { echo "FAIL: probe explain printed no decision summary" >&2; exit 1; }
grep -v ctl.explain "$TRACE_DIR/arena.jsonl" > "$TRACE_DIR/no_decisions.jsonl"
if cargo run --release -p waypart-experiments --bin probe -- \
    explain "$TRACE_DIR/no_decisions.jsonl" >/dev/null 2>&1; then
  echo "FAIL: probe explain exited zero on a decision-less trace" >&2; exit 1
fi
if cargo run --release -p waypart-experiments --bin probe -- \
    explain README.md >/dev/null 2>&1; then
  echo "FAIL: probe explain exited zero on a telemetry-less file" >&2; exit 1
fi
WAYPART_CACHE_DIR="$TRACE_DIR/arenacache" \
  cargo run --release -p waypart-experiments --bin reproduce -- \
  --scale test --arena --out "$TRACE_DIR/arena_warm" >/dev/null
diff "$TRACE_DIR/arena/arena.json" "$TRACE_DIR/arena_warm/arena.json" \
  || { echo "FAIL: warm arena.json differs from the cold run" >&2; exit 1; }
cargo run --release -p waypart-experiments --bin report -- \
  --arena "$TRACE_DIR/arena/arena.json" --out "$TRACE_DIR/arena.html" >/dev/null
cargo run --release -p waypart-experiments --bin report -- --check "$TRACE_DIR/arena.html"
echo "arena OK (explain narrated, warm replay byte-identical, dashboard checked)"

echo "== perf sentry smoke (noise-aware regression gate) =="
# Synthetic history around 100 s median / 300 s cold / 150 ns per
# access: +25% on any default metric must flag, ±8% must pass.
SENTRY_HIST="$TRACE_DIR/hist.jsonl"
for v in "98.0 149.0 295.0" "100.0 151.0 302.0" "101.0 150.0 300.0" "99.5 152.0 298.0" "100.5 148.0 304.0"; do
  set -- $v
  printf '{"current_median_s":%s,"engine_ns_per_access":%s,"current_cold_s":%s}\n' "$1" "$2" "$3" >> "$SENTRY_HIST"
done
printf '{"current_median_s":125.0,"engine_ns_per_access":150.0,"current_cold_s":300.0}\n' > "$TRACE_DIR/regressed.json"
printf '{"current_median_s":100.0,"engine_ns_per_access":150.0,"current_cold_s":380.0}\n' > "$TRACE_DIR/cold_regressed.json"
printf '{"current_median_s":108.0,"engine_ns_per_access":141.0,"current_cold_s":310.0}\n' > "$TRACE_DIR/jitter.json"
if cargo run --release -p waypart-bench --bin sentry -- \
    --history "$SENTRY_HIST" --current "$TRACE_DIR/regressed.json" >/dev/null; then
  echo "FAIL: sentry missed a +25% warm-median regression" >&2; exit 1
fi
if cargo run --release -p waypart-bench --bin sentry -- \
    --history "$SENTRY_HIST" --current "$TRACE_DIR/cold_regressed.json" >/dev/null; then
  echo "FAIL: sentry missed a +27% cold-time regression" >&2; exit 1
fi
cargo run --release -p waypart-bench --bin sentry -- \
  --history "$SENTRY_HIST" --current "$TRACE_DIR/jitter.json" >/dev/null \
  || { echo "FAIL: sentry flagged ±8% jitter" >&2; exit 1; }
# The real history, if present, gates this checkout's latest bench session.
if [ -s BENCH_history.jsonl ]; then
  cargo run --release -p waypart-bench --bin sentry -- --history BENCH_history.jsonl
fi

echo "== trend page (sentry verdicts, deduped history) =="
# sentry --json round-trip: verdict records validate and annotate the
# trend page rendered from the committed benchmark history. Repeated
# --history files concatenate deduped by session id, so passing the
# committed history twice must not inflate the session count.
cargo run --release -p waypart-bench --bin sentry -- \
  --history "$SENTRY_HIST" --current "$TRACE_DIR/jitter.json" \
  --json "$TRACE_DIR/verdicts.jsonl" >/dev/null
cargo run --release -p waypart-telemetry --bin validate_trace -- "$TRACE_DIR/verdicts.jsonl"
cargo run --release -p waypart-experiments --bin report -- \
  --history BENCH_history.jsonl --history BENCH_history.jsonl \
  --verdicts "$TRACE_DIR/verdicts.jsonl" \
  --out "$TRACE_DIR/trend.html" | tee "$TRACE_DIR/trend_out.txt"
cargo run --release -p waypart-experiments --bin report -- --check "$TRACE_DIR/trend.html"
WANT=$(wc -l < BENCH_history.jsonl)
grep -q "$WANT sessions" "$TRACE_DIR/trend_out.txt" \
  || { echo "FAIL: trend page did not dedupe repeated history files (want $WANT sessions)" >&2; exit 1; }
echo "trend page OK (verdicts validated, repeated history deduped)"

echo "== bench smoke (engine throughput, 2 iterations) =="
cargo build --release --example profile_engine
target/release/examples/profile_engine sololoop 2

echo "CI OK"
