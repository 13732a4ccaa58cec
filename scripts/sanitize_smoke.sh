#!/usr/bin/env bash
# Builds the tree under a sanitizer (-DVDB_SANITIZE=...) in a throwaway
# build dir and runs the unit-test suite under it. The redo pipeline's
# arena reuse, the replay plan's pooled staging and the experiment
# runner's worker pool are exactly the code most worth running under
# ASan/TSan, and so are the 2PL table's entry slab
# and flat index (parked waiters hold entry references while it grows),
# the buffer cache's frame pool and SimFs::read_all's borrowed views
# (parsed while replay writes other files). Run it after touching src/wal,
# src/engine/replay_plan.*, src/txn, src/storage or src/sim.
#
# Usage: sanitize_smoke.sh [address|thread] [extra ctest args...]
#   Default sanitizer: address. Build dir: ./build-san-<sanitizer>.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
san="${1:-address}"
shift || true

case "$san" in
  address|thread) ;;
  *)
    echo "sanitize_smoke: sanitizer must be 'address' or 'thread', got: $san" >&2
    exit 1
    ;;
esac

build_dir="$repo_root/build-san-$san"

cmake -B "$build_dir" -S "$repo_root" -DVDB_SANITIZE="$san" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)"

# bench_smoke re-runs every bench binary — far too slow under a sanitizer;
# the unit and integration tests already exercise the same code paths.
cd "$build_dir"
ctest --output-on-failure -E bench_smoke "$@"
