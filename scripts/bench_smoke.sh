#!/usr/bin/env bash
# Smoke-runs every bench binary in quick mode on a 2-worker pool and checks
# that each one exits cleanly AND drops its machine-readable JSON into
# results/, then validates the drops with scripts/check_results.py. Wired
# as a ctest entry so tier-1 catches runner regressions (pool wedges,
# collection-order bugs, missing JSON) and column/counter drift.
#
# Usage: bench_smoke.sh [bench-binary-dir] [results-out-dir]
#   bench-binary-dir defaults to ./build/bench relative to the repo root.
#   When results-out-dir is given, the results/*.json drops are copied
#   there before the scratch dir is removed (CI uploads them as artifacts).
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
bench_dir="${1:-$repo_root/build/bench}"
results_out="${2:-}"

if [ ! -d "$bench_dir" ]; then
  echo "bench_smoke: no such bench dir: $bench_dir" >&2
  exit 1
fi
# Absolutize before the cd into the scratch dir below.
bench_dir="$(cd "$bench_dir" && pwd)"

if [ -n "$results_out" ]; then
  mkdir -p "$results_out"
  results_out="$(cd "$results_out" && pwd)"
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

export VDB_QUICK=1
export VDB_JOBS=2

benches="tables12 table3 figure4 figure5 table4 table5 figure6 figure7 \
ablation extension_twofault corruption fleet cc"

failed=0
for name in $benches; do
  bin="$bench_dir/bench_$name"
  if [ ! -x "$bin" ]; then
    echo "bench_smoke: FAIL bench_$name (binary missing: $bin)"
    failed=1
    continue
  fi
  echo "bench_smoke: running bench_$name ..."
  if ! "$bin" > "bench_$name.out" 2>&1; then
    echo "bench_smoke: FAIL bench_$name (non-zero exit)"
    tail -20 "bench_$name.out"
    failed=1
    continue
  fi
  if [ ! -s "results/bench_$name.json" ]; then
    echo "bench_smoke: FAIL bench_$name (missing results/bench_$name.json)"
    failed=1
    continue
  fi
  echo "bench_smoke: OK   bench_$name"
done

# Restart-mode smoke: the table3 matrix again under the on-demand (M3)
# restart scheme, driving the early-open engine path (lazy page recovery,
# trickle sweeper, commit_lsn-clamped checkpoints) through every
# configuration. Runs in its own scratch subdir so the plain pass's JSON
# stays the canonical bench_table3 artifact; the m3 drop is copied out
# under its own name for check_results.py.
echo "bench_smoke: running bench_table3 (VDB_RESTART_MODE=m3) ..."
mkdir -p m3_smoke
if ! (cd m3_smoke && VDB_RESTART_MODE=m3 "$bench_dir/bench_table3" \
    > ../bench_table3_m3.out 2>&1); then
  echo "bench_smoke: FAIL bench_table3 m3 (non-zero exit)"
  tail -20 bench_table3_m3.out
  failed=1
elif [ ! -s m3_smoke/results/bench_table3.json ]; then
  echo "bench_smoke: FAIL bench_table3 m3 (missing JSON drop)"
  failed=1
else
  mkdir -p results
  cp m3_smoke/results/bench_table3.json results/bench_table3_m3.json
  echo "bench_smoke: OK   bench_table3 m3"
fi

# bench_micro is google-benchmark: emit its JSON via the native flag.
micro="$bench_dir/bench_micro"
if [ ! -x "$micro" ]; then
  echo "bench_smoke: FAIL bench_micro (binary missing: $micro)"
  failed=1
else
  echo "bench_smoke: running bench_micro ..."
  mkdir -p results
  if ! "$micro" --benchmark_min_time=0.05 \
      --benchmark_out=results/bench_micro.json \
      --benchmark_out_format=json > bench_micro.out 2>&1; then
    echo "bench_smoke: FAIL bench_micro (non-zero exit)"
    tail -20 bench_micro.out
    failed=1
  elif [ ! -s results/bench_micro.json ]; then
    echo "bench_smoke: FAIL bench_micro (missing results/bench_micro.json)"
    failed=1
  else
    echo "bench_smoke: OK   bench_micro"
  fi
fi

# Validate this run's drops: schema, phase tiling, and every counter-backed
# column against its counter in the row's statistics snapshot.
echo "bench_smoke: running check_results.py ..."
if python3 "$repo_root/scripts/check_results.py" results; then
  echo "bench_smoke: OK   check_results.py"
else
  echo "bench_smoke: FAIL check_results.py"
  failed=1
fi

if [ -n "$results_out" ] && [ -d results ]; then
  cp results/bench_*.json "$results_out"/ 2>/dev/null || true
  echo "bench_smoke: results copied to $results_out"
fi

if [ "$failed" -ne 0 ]; then
  echo "bench_smoke: FAILED"
  exit 1
fi
echo "bench_smoke: all bench binaries passed"
