#!/usr/bin/env bash
# Paired A/B runs of the repository benchmark: a parent commit against the
# working tree, one pair per seed.
#
#   scripts/ab_pairs.sh [-s SECONDS] [-d DIR] <parent-ref> <workload> <seed>...
#
# Exports <parent-ref> and the working tree (tracked files and untracked
# ones that are not ignored, as they are on disk) with `git archive` into
# DIR/parent and DIR/change (DIR defaults to a fresh mktemp -d), builds each
# side's vdbbench driver the way vdbbench/run.py does, then runs
#
#   python3 vdbbench/run.py --workload W --seed S --seconds SECONDS --trace 0
#
# once on each side per seed (SECONDS defaults to 30). Back-to-back runs on
# a shared host are order-dependent, so the side that goes first alternates:
# the parent leads on the 1st, 3rd, ... seed, the change on the others.
# Every run's output is kept in DIR/runs/. The summary prints, per metric of
# BENCHMARK.json's end_to_end list (plus the raw recovery_s that run.py
# reports as info), each pair's change/parent ratio, each side's median
# with its interquartile range, and in how many pairs the change was better
# in the metric's own direction. A run that is not `correct` or that failed
# experiments is reported and left out of the summary.
set -euo pipefail

seconds=30
dir=""
while getopts "s:d:" opt; do
  case "$opt" in
    s) seconds="$OPTARG" ;;
    d) dir="$OPTARG" ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [[ $# -lt 3 ]]; then
  echo "usage: $0 [-s seconds] [-d dir] <parent-ref> <workload> <seed>..." >&2
  exit 2
fi
parent_ref="$1"
workload="$2"
shift 2
seeds=("$@")

repo="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
parent_commit="$(git -C "$repo" rev-parse --verify "$parent_ref^{commit}")"
[[ -n "$dir" ]] || dir="$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")"
mkdir -p "$dir/runs"
echo "ab_pairs: parent $parent_commit, change = working tree, in $dir"

# The working tree as a tree object, through a throwaway index so that the
# repository's own index is left alone.
index="$dir/change.index"
rm -f "$index"
GIT_INDEX_FILE="$index" git -C "$repo" add -A
change_tree="$(GIT_INDEX_FILE="$index" git -C "$repo" write-tree)"
rm -f "$index"

export_side() {  # <side> <tree-ish>
  if [[ ! -d "$dir/$1" ]]; then
    mkdir -p "$dir/$1"
    git -C "$repo" archive "$2" | tar -x -C "$dir/$1"
  fi
  local build="$dir/$1/.bench_build"
  mkdir -p "$build/tmp"
  echo "ab_pairs: building $1"
  (TMPDIR="$build/tmp" cmake -S "$dir/$1/vdbbench" -B "$build" \
       -DCMAKE_BUILD_TYPE=Release &&
   TMPDIR="$build/tmp" cmake --build "$build" --target vdbbench -j 4) \
      >> "$build/build.log" 2>&1 ||
      { echo "ab_pairs: build of $1 failed; see $build/build.log" >&2; exit 1; }
}
export_side parent "$parent_commit"
export_side change "$change_tree"

run_side() {  # <side> <seed>
  local out="$dir/runs/$workload-$2-$1.txt"
  if ! (cd "$dir/$1" && python3 vdbbench/run.py --workload "$workload" \
          --seed "$2" --seconds "$seconds" --trace 0) > "$out" 2>&1; then
    echo "ab_pairs: $1 seed $2 failed; see $out" >&2
  fi
}

pair=0
for seed in "${seeds[@]}"; do
  if (( pair % 2 == 0 )); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    run_side "$side" "$seed"
  done
  echo "ab_pairs: seed $seed done (${order[0]} first)"
  pair=$((pair + 1))
done

python3 - "$repo/BENCHMARK.json" "$dir/runs" "$workload" "${seeds[@]}" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

spec_path, runs, workload, *seeds = sys.argv[1:]
spec = json.loads(Path(spec_path).read_text())
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
better["recovery_s"] = "lower"


def load(side, seed):
    path = Path(runs) / f"{workload}-{seed}-{side}.txt"
    if not path.exists():
        return None
    lines = path.read_text().splitlines()
    result = None
    recovery = None
    for line in lines:
        if line.startswith("info recovery_s "):
            recovery = float(line.split()[2])
        if line.startswith("{"):
            result = json.loads(line)
    if result is None or not result["correct"] or result["failed"]:
        print(f"seed {seed} {side}: not correct or failed runs; left out")
        return None
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if recovery is not None:
        values["recovery_s"] = recovery
    return values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


pairs = []
for seed in seeds:
    p, c = load("parent", seed), load("change", seed)
    if p is not None and c is not None:
        pairs.append((seed, p, c))
print(f"\n{workload}: {len(pairs)} complete pairs of {len(seeds)}")
if not pairs:
    sys.exit(1)
for name in better:
    if not all(name in p and name in c for _, p, c in pairs):
        continue
    if not any(p[name] for _, p, _ in pairs):
        print(f"{name}: 0 on every parent run (not exercised)")
        continue
    ratios = [c[name] / p[name] if p[name] else float("nan")
              for _, p, c in pairs]
    wins = sum(1 for _, p, c in pairs
               if (c[name] < p[name]) == (better[name] == "lower")
               and c[name] != p[name])
    pq = quartiles([p[name] for _, p, _ in pairs])
    cq = quartiles([c[name] for _, _, c in pairs])
    print(f"{name} ({better[name]} is better)")
    print("  ratios change/parent: " +
          " ".join(f"{seed}:{r:.3f}" for (seed, _, _), r in zip(pairs, ratios)))
    print(f"  parent median {pq[1]:.6g} [IQR {pq[0]:.6g} .. {pq[2]:.6g}]")
    print(f"  change median {cq[1]:.6g} [IQR {cq[0]:.6g} .. {cq[2]:.6g}]")
    print(f"  median ratio {statistics.median(ratios):.3f}; "
          f"change better in {wins} of {len(pairs)} pairs")
EOF
