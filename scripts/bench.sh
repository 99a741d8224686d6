#!/usr/bin/env bash
# Interleaved A/B benchmark of `reproduce --scale test` + engine ns/access.
#
# Wall-clock noise on shared machines is ±10%, so this never compares
# single runs: it alternates baseline/current (A B A B ...) and reports
# medians. Each cold run gets a fresh (empty) run-cache directory; a
# final warm run reuses the current binary's populated cache to show the
# persistent-cache effect separately. A sampled-fidelity cold run times
# the functional-warming fast path end to end and records
# `sampled_cold_s`. A controller-arena pair
# (cold fill + warm cache replay, byte-identical arena.json required)
# records `arena_cold_s` / `arena_warm_s`.
#
# Usage:
#   scripts/bench.sh [--runs N] [--baseline-bin PATH] [--baseline-rev REV]
#                    [--out FILE] [--micro]
#
#   --runs N           interleaved run pairs (default 5)
#   --baseline-bin     pre-built `reproduce` binary to compare against
#   --baseline-rev     git rev to build the baseline from (worktree build)
#   --out              output JSON (default BENCH_sim.json)
#   --micro            run only the engine kernel microbenches (probe+fill,
#                      PLRU victim, bulk-vs-single stream generation) and
#                      exit — no end-to-end timing, no history append
#
# With no baseline, only the current binary is timed (baseline fields
# null). Offline-safe: builds only from the local checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=5
BASELINE_BIN=""
BASELINE_REV=""
OUT="BENCH_sim.json"
MICRO=0
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) RUNS=$2; shift 2 ;;
    --baseline-bin) BASELINE_BIN=$2; shift 2 ;;
    --baseline-rev) BASELINE_REV=$2; shift 2 ;;
    --out) OUT=$2; shift 2 ;;
    --micro) MICRO=1; shift ;;
    *) echo "unknown arg: $1" >&2; exit 2 ;;
  esac
done

if [ "$MICRO" = 1 ]; then
  echo "== engine kernel microbenches =="
  exec cargo bench -p waypart-bench --bench engine
fi

echo "== building current binaries =="
cargo build --release -p waypart-experiments --bin reproduce
cargo build --release --example profile_engine
CURRENT_BIN=target/release/reproduce

if [ -z "$BASELINE_BIN" ] && [ -n "$BASELINE_REV" ]; then
  echo "== building baseline from $BASELINE_REV =="
  WT=$(mktemp -d /tmp/waypart-baseline.XXXXXX)
  trap 'git worktree remove --force "$WT" 2>/dev/null || true; rm -rf "$WT"' EXIT
  git worktree add --detach "$WT" "$BASELINE_REV" >/dev/null
  (cd "$WT" && CARGO_TARGET_DIR="$WT/target" cargo build --release -p waypart-experiments --bin reproduce)
  BASELINE_BIN="$WT/target/release/reproduce"
fi

SCRATCH=$(mktemp -d /tmp/waypart-bench.XXXXXX)
time_run() { # $1 binary, $2 cache dir ('' = cache off if supported), $3 out dir
  local t0 t1
  t0=$(date +%s.%N)
  if [ -n "$2" ]; then
    WAYPART_CACHE_DIR=$2 "$1" --scale test --out "$3" >/dev/null 2>&1
  elif "$1" --help 2>/dev/null | grep -q -- --no-cache; then
    "$1" --scale test --no-cache --out "$3" >/dev/null 2>&1
  else
    "$1" --scale test --out "$3" >/dev/null 2>&1 # pre-cache binaries
  fi
  t1=$(date +%s.%N)
  echo "$t0 $t1" | awk '{printf "%.2f", $2-$1}'
}

# Interleaved A B A B ...: the baseline runs uncached (it predates the
# cache); the current binary's runs share one cache directory, which is
# exactly how repeated `reproduce` invocations behave in normal use —
# run 1 is cold, runs 2+ replay finished measurements from disk.
BASE_TIMES=()
CURR_TIMES=()
for i in $(seq 1 "$RUNS"); do
  if [ -n "$BASELINE_BIN" ]; then
    s=$(time_run "$BASELINE_BIN" "" "$SCRATCH/base_$i")
    BASE_TIMES+=("$s"); echo "run $i baseline: ${s}s"
  fi
  s=$(time_run "$CURRENT_BIN" "$SCRATCH/cache" "$SCRATCH/curr_$i")
  CURR_TIMES+=("$s"); echo "run $i current: ${s}s"
done
COLD=${CURR_TIMES[0]}

# Artifacts must be byte-identical across every run and vs. the baseline.
for d in "$SCRATCH"/base_* "$SCRATCH"/curr_*; do
  [ -d "$d" ] || continue
  diff -r "$SCRATCH/curr_1" "$d" >/dev/null \
    || { echo "FAIL: artifacts differ between $SCRATCH/curr_1 and $d" >&2; exit 1; }
done
echo "artifacts byte-identical across all runs"

# Per-figure wall-clock via the telemetry metrics exporter (warm cache,
# so this times figure assembly + cache replay, not raw simulation).
echo "== per-figure timing (warm cache) =="
WAYPART_CACHE_DIR=$SCRATCH/cache "$CURRENT_BIN" --scale test \
  --out "$SCRATCH/figtime" --metrics "$SCRATCH/metrics.json" >/dev/null 2>&1 || true
if [ -s "$SCRATCH/metrics.json" ]; then
  FIG_SECONDS=$(jq '.figure_seconds' "$SCRATCH/metrics.json")
else
  FIG_SECONDS=null   # older binary without --metrics
fi

# Sampled-fidelity cold run: the functional-warming fast path end to
# end against a fresh cache. Kept out of the interleaved loop — it
# writes different artifacts (results/<scale>-sampled layout) and is
# gated by its own sentry metric (`sampled_cold_s`), not compared
# against the exact runs.
if "$CURRENT_BIN" --help 2>/dev/null | grep -q -- --fidelity; then
  echo "== sampled cold run (--fidelity sampled) =="
  t0=$(date +%s.%N)
  WAYPART_CACHE_DIR=$SCRATCH/sampledcache "$CURRENT_BIN" --scale test --fidelity sampled \
    --out "$SCRATCH/sampled" >/dev/null 2>&1
  t1=$(date +%s.%N)
  SAMPLED_COLD=$(echo "$t0 $t1" | awk '{printf "%.2f", $2-$1}')
  echo "sampled cold: ${SAMPLED_COLD}s (exact cold ${COLD}s," \
       "$(awk -v c="$COLD" -v s="$SAMPLED_COLD" 'BEGIN {printf "%.2f", c/s}')x)"
else
  SAMPLED_COLD=null  # pre-fidelity binary
fi

# Controller-arena run: cold (fresh cache — times the qos/mba pair grids
# the default set never simulates) and warm (hot cache — times arena.json
# assembly from cache replay alone). Kept out of the interleaved loop for
# the same reason as the sampled run: different artifacts, own sentry
# metrics (`arena_cold_s`/`arena_warm_s`).
if "$CURRENT_BIN" --help 2>/dev/null | grep -q -- --arena; then
  echo "== arena cold + warm runs (--arena) =="
  t0=$(date +%s.%N)
  WAYPART_CACHE_DIR=$SCRATCH/arenacache "$CURRENT_BIN" --scale test --arena \
    --out "$SCRATCH/arena" >/dev/null 2>&1
  t1=$(date +%s.%N)
  ARENA_COLD=$(echo "$t0 $t1" | awk '{printf "%.2f", $2-$1}')
  t0=$(date +%s.%N)
  WAYPART_CACHE_DIR=$SCRATCH/arenacache "$CURRENT_BIN" --scale test --arena \
    --out "$SCRATCH/arena_warm" >/dev/null 2>&1
  t1=$(date +%s.%N)
  ARENA_WARM=$(echo "$t0 $t1" | awk '{printf "%.2f", $2-$1}')
  diff "$SCRATCH/arena/arena.json" "$SCRATCH/arena_warm/arena.json" >/dev/null \
    || { echo "FAIL: warm arena.json differs from cold run" >&2; exit 1; }
  echo "arena cold: ${ARENA_COLD}s, warm replay: ${ARENA_WARM}s (arena.json byte-identical)"
else
  ARENA_COLD=null ARENA_WARM=null  # pre-arena binary
fi

ENGINE_LINE=$(target/release/examples/profile_engine sololoop 8)
echo "$ENGINE_LINE"
NS_PER_ACCESS=$(echo "$ENGINE_LINE" | tr ' ' '\n' | sed -n 's/^ns_per_access=//p')

median() { printf '%s\n' "$@" | sort -n | awk '{a[NR]=$1} END {print (NR%2) ? a[(NR+1)/2] : (a[NR/2]+a[NR/2+1])/2}'; }
CURR_MED=$(median "${CURR_TIMES[@]}")
if [ ${#BASE_TIMES[@]} -gt 0 ]; then
  BASE_MED=$(median "${BASE_TIMES[@]}")
  SPEEDUP=$(awk -v b="$BASE_MED" -v c="$CURR_MED" 'BEGIN {printf "%.3f", b/c}')
  COLD_SPEEDUP=$(awk -v b="$BASE_MED" -v c="$COLD" 'BEGIN {printf "%.3f", b/c}')
else
  BASE_MED=null SPEEDUP=null COLD_SPEEDUP=null
fi

jq -n \
  --argjson runs "$RUNS" \
  --argjson baseline_median_s "$BASE_MED" \
  --argjson current_median_s "$CURR_MED" \
  --argjson current_cold_s "$COLD" \
  --argjson speedup "$SPEEDUP" \
  --argjson cold_speedup "$COLD_SPEEDUP" \
  --argjson ns_per_access "$NS_PER_ACCESS" \
  --argjson figure_seconds "$FIG_SECONDS" \
  --argjson host_cores "$(nproc 2>/dev/null || echo 0)" \
  --argjson sampled_cold_s "$SAMPLED_COLD" \
  --argjson arena_cold_s "$ARENA_COLD" \
  --argjson arena_warm_s "$ARENA_WARM" \
  '{bench: "reproduce --scale test", protocol: "interleaved A/B, shared cache dir for current (run 1 cold, runs 2+ warm)",
    runs: $runs, baseline_median_s: $baseline_median_s, current_median_s: $current_median_s,
    current_cold_s: $current_cold_s, speedup: $speedup, cold_speedup: $cold_speedup,
    engine_ns_per_access: $ns_per_access, figure_seconds_warm: $figure_seconds,
    host_cores: $host_cores, sampled_cold_s: $sampled_cold_s,
    arena_cold_s: $arena_cold_s, arena_warm_s: $arena_warm_s}' > "$OUT"
echo "wrote $OUT:"
cat "$OUT"

# Append this session to the benchmark history (one JSON object per line)
# so the perf sentry can judge future runs against a real distribution:
#   cargo run -p waypart-bench --bin sentry -- --history BENCH_history.jsonl
# Host metadata is stamped into each entry so the trend page
# (report --history) can segment sessions by machine instead of mixing
# different hardware into one distribution.
HISTORY="BENCH_history.jsonl"
CPU_MODEL=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)
jq -c --arg at "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
      --arg rev "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
      --arg host "$(hostname 2>/dev/null || echo unknown)" \
      --arg cpu "${CPU_MODEL:-unknown}" \
      --argjson cores "$(nproc 2>/dev/null || echo 0)" \
      --arg kernel "$(uname -r 2>/dev/null || echo unknown)" \
      '. + {at: $at, rev: $rev,
            host: {name: $host, cpu: $cpu, cores: $cores, kernel: $kernel}}' \
      "$OUT" >> "$HISTORY"
echo "appended to $HISTORY ($(wc -l < "$HISTORY") sessions)"
rm -rf "$SCRATCH"
