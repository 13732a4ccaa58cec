#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 vdbbench/steadiness.py --seeds 10 [--first-seed 1]
                                   [--workloads oltp,faultload] [--seconds 25]

Runs run.py once per (workload, seed), alternating the workload order from
one seed to the next so slow drifts of the host do not land on one
workload. For each metric/workload pair it prints the median, the first
and third quartiles (statistics.quantiles, n=4), and the interquartile
range as a share of the median next to the metric's bound. A pair is
flagged when its spread exceeds its bound; the exit code is 1 when any pair
is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        fails = [l for l in proc.stdout.splitlines() if l.startswith("FAIL")]
        raise RuntimeError(f"{workload} seed {seed} incorrect: {fails[:3]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    samples = {}  # (workload, metric) -> values
    for k in range(args.seeds):
        seed = args.first_seed + k
        for w in workloads if k % 2 == 0 else workloads[::-1]:
            metrics = run_once(w, seed, args.seconds)
            for name, value in metrics.items():
                samples.setdefault((w, name), []).append(value)
            print(f"seed {seed} {w}: " + ", ".join(
                f"{n}={v:.4g}" for n, v in metrics.items()),
                file=sys.stderr, flush=True)

    flagged = 0
    print(f"{'workload':16s} {'metric':14s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for w in workloads:
        for name, bound in bounds.items():
            med, q1, q3, rel = spread(samples[(w, name)])
            bad = rel > bound
            flagged += bad
            print(f"{w:16s} {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.4f} {bound:6.2f}" + ("  FLAG" if bad else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
