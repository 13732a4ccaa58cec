#!/usr/bin/env python3
"""Validate the machine-readable bench output in a results/ directory.

Checks, per results/bench_*.json file:
  - the file parses as JSON;
  - bench_micro.json (google-benchmark native schema) has a non-empty
    "benchmarks" array;
  - every other file is a BenchRun drop: a "runs" array where every
    successful run carries a "metrics" statistics snapshot with the
    expected top-level sections;
  - every counter-backed column (COUNTER_COLUMNS, the same table as
    kCounterColumns in src/benchmark/experiment.hpp) is present and equals
    its counter in that row's "metrics" snapshot;
  - recovered fault runs decompose: the non-detection entries of
    "recovery_phase_us" sum to "recovery_seconds" (the phase spans tile
    the recovery trace, so the match is exact up to the JSON float
    rounding of the headline);
  - bench_fleet.json (sharded-fleet faultload schema) has per-run
    shard_count >= 2, integer promotions / in_doubt_resolved counters, a
    per-shard lost-transaction vector of matching length, and — the hard
    invariant — zero cross-shard atomicity violations;
  - bench_cc.json (concurrency-control study) additionally has a valid
    cc_protocol, workers >= 1, non-negative abort / retry counters, and
    — since workers=1 never engages the coordinator — tpmC > 0 with zero
    aborts on every single-worker row.

Exit status 0 = all files pass; 1 = any check failed or no files found.

Usage: check_results.py [results-dir]   (default: ./results)
"""

import json
import pathlib
import sys

METRIC_SECTIONS = ("counters", "gauges", "wait_events", "histograms",
                   "recovery")
RESTART_MODES = ("m1_traditional", "m2_early_open", "m3_on_demand",
                 "m4_mixed")
# Bench JSON key -> statistics-area counter it reports (kCounterColumns).
COUNTER_COLUMNS = {
    "full_checkpoints": "checkpoints full",
    "incremental_checkpoints": "checkpoints incremental",
    "log_switches": "log switches",
    "io_retries": "io retries",
    "io_retry_exhausted": "io retries exhausted",
    "aborts": "cc txns aborted",
    "wait_die_aborts": "cc wait_die aborts",
    "occ_validate_fails": "cc occ validate fails",
    "cc_lock_waits": "cc lock waits",
}
# recovery_seconds is printed with 6 significant digits, so a 600 s
# headline carries up to 5e-4 s of rounding; one simulated tick is 1e-6 s.
HEADLINE_TOLERANCE_SECONDS = 1e-3


def check_micro(path: pathlib.Path, doc: dict) -> list[str]:
    errors = []
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        errors.append(f"{path}: no benchmarks recorded")
    return errors


def check_fleet(path: pathlib.Path, doc: dict) -> list[str]:
    errors = []
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return [f"{path}: no runs array"]
    for run in runs:
        label = run.get("label", "<unlabelled>")
        if not run.get("ok", False):
            errors.append(f"{path}: run '{label}' not ok: "
                          f"{run.get('error', 'unknown error')}")
            continue
        shard_count = run.get("shard_count")
        if not isinstance(shard_count, int) or shard_count < 2:
            errors.append(f"{path}: run '{label}' shard_count "
                          f"{shard_count!r} is not an integer >= 2")
        for field in ("failed_attempts", "promotions", "in_doubt_resolved",
                      "atomicity_violations", "lost_committed"):
            value = run.get(field)
            if not isinstance(value, int) or value < 0:
                errors.append(f"{path}: run '{label}' {field} {value!r} is "
                              f"not a non-negative integer")
        # The benchmark's hard zero: a gtxn must never commit on one shard
        # and abort on another, whatever the faultload did.
        if run.get("atomicity_violations") != 0:
            errors.append(f"{path}: run '{label}' reports "
                          f"{run.get('atomicity_violations')!r} cross-shard "
                          "atomicity violations (must be 0)")
        lost = run.get("lost_per_shard")
        if not isinstance(lost, list) or (isinstance(shard_count, int)
                                          and len(lost) != shard_count):
            errors.append(f"{path}: run '{label}' lost_per_shard "
                          f"{lost!r} does not cover every shard")
        if run.get("fault_injected") and not run.get("recovered"):
            errors.append(f"{path}: run '{label}' injected a fault but the "
                          "fleet never recovered")
    return errors


def check_bench_run(path: pathlib.Path, doc: dict) -> list[str]:
    errors = []
    runs = doc.get("runs")
    if not isinstance(runs, list):
        return [f"{path}: no runs array"]
    if not runs:
        # Some benches (e.g. tables12 in quick mode) drive the workload
        # directly rather than through the experiment runner; an empty
        # runs array is fine as long as the header agrees.
        if doc.get("experiments") != 0:
            return [f"{path}: runs empty but header declares "
                    f"{doc.get('experiments')!r} experiments"]
        return []
    for run in runs:
        label = run.get("label", "<unlabelled>")
        if not run.get("ok", False):
            # Harness failures abort the bench before JSON is written, but
            # be defensive: a recorded failure is a check failure too.
            errors.append(f"{path}: run '{label}' not ok: "
                          f"{run.get('error', 'unknown error')}")
            continue
        metrics = run.get("metrics")
        if not isinstance(metrics, dict):
            errors.append(f"{path}: run '{label}' missing metrics snapshot")
            continue
        for section in METRIC_SECTIONS:
            if section not in metrics:
                errors.append(f"{path}: run '{label}' metrics missing "
                              f"'{section}'")
        counters = metrics.get("counters") or {}
        for column, counter in COUNTER_COLUMNS.items():
            if run.get(column) != counters.get(counter, 0):
                errors.append(f"{path}: run '{label}' {column} "
                              f"{run.get(column)!r} differs from counter "
                              f"'{counter}' {counters.get(counter, 0)!r}")
        # Restart-mode study fields ride on every row: the configured mode
        # and the open / first-commit split of the recovery time.
        if run.get("restart_mode") not in RESTART_MODES:
            errors.append(f"{path}: run '{label}' restart_mode "
                          f"{run.get('restart_mode')!r} not one of "
                          f"{RESTART_MODES}")
        for field in ("open_time_us", "first_commit_us"):
            value = run.get(field)
            if not isinstance(value, int) or value < 0:
                errors.append(f"{path}: run '{label}' {field} "
                              f"{value!r} is not a non-negative integer")
        if (isinstance(run.get("open_time_us"), int)
                and isinstance(run.get("first_commit_us"), int)
                and run["open_time_us"] > run["first_commit_us"]):
            errors.append(f"{path}: run '{label}' opens after its first "
                          f"commit ({run['open_time_us']} > "
                          f"{run['first_commit_us']} us)")
        if not run.get("fault_injected") or not run.get("recovered"):
            continue
        phases = run.get("recovery_phase_us")
        headline = float(run.get("recovery_seconds", 0.0))
        if not isinstance(phases, dict) or not phases:
            # A fault absorbed without a recovery procedure (e.g. transient
            # I/O glitches retried away) has nothing to decompose.
            if headline <= HEADLINE_TOLERANCE_SECONDS:
                continue
            errors.append(f"{path}: recovered run '{label}' has no "
                          "recovery_phase_us decomposition")
            continue
        phase_sum = sum(v for k, v in phases.items() if k != "detection")
        if abs(phase_sum / 1e6 - headline) > HEADLINE_TOLERANCE_SECONDS:
            errors.append(
                f"{path}: run '{label}' phase spans sum to "
                f"{phase_sum / 1e6:.6f}s but recovery_seconds is "
                f"{headline:.6f}s")
    return errors


def check_cc(path: pathlib.Path, doc: dict) -> list[str]:
    """bench_cc.json: the generic BenchRun checks plus the concurrency
    fields the coordinator study reports on every row."""
    errors = check_bench_run(path, doc)
    for run in doc.get("runs") or []:
        label = run.get("label", "<unlabelled>")
        if not run.get("ok", False):
            continue  # already reported by check_bench_run
        if run.get("cc_protocol") not in ("2pl", "occ"):
            errors.append(f"{path}: run '{label}' cc_protocol "
                          f"{run.get('cc_protocol')!r} not one of "
                          "('2pl', 'occ')")
        workers = run.get("workers")
        if not isinstance(workers, int) or workers < 1:
            errors.append(f"{path}: run '{label}' workers {workers!r} is "
                          "not an integer >= 1")
        for field in ("aborts", "retries", "wait_die_aborts",
                      "occ_validate_fails", "cc_lock_waits"):
            value = run.get(field)
            if not isinstance(value, int) or value < 0:
                errors.append(f"{path}: run '{label}' {field} {value!r} is "
                              f"not a non-negative integer")
        # workers=1 never engages the coordinator: the run is the serial
        # driver bit for bit, so it must make progress and never abort.
        if workers == 1:
            if not (isinstance(run.get("tpmc"), (int, float))
                    and run["tpmc"] > 0):
                errors.append(f"{path}: run '{label}' at workers=1 reports "
                              f"tpmc {run.get('tpmc')!r} (must be > 0)")
            if run.get("aborts") != 0:
                errors.append(f"{path}: run '{label}' at workers=1 reports "
                              f"{run.get('aborts')!r} aborts (must be 0)")
    return errors


def main() -> int:
    results_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    files = sorted(results_dir.glob("bench_*.json"))
    if not files:
        print(f"check_results: no bench_*.json files in {results_dir}",
              file=sys.stderr)
        return 1

    errors = []
    for path in files:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"{path}: unreadable or invalid JSON: {exc}")
            continue
        if path.name == "bench_micro.json":
            errors.extend(check_micro(path, doc))
        elif path.name == "bench_fleet.json":
            errors.extend(check_fleet(path, doc))
        elif path.name == "bench_cc.json":
            errors.extend(check_cc(path, doc))
        else:
            errors.extend(check_bench_run(path, doc))
        print(f"check_results: checked {path}")

    for message in errors:
        print(f"check_results: FAIL {message}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_results: {len(files)} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
