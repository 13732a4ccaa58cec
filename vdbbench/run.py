#!/usr/bin/env python3
"""Runs the repository benchmark for one workload and prints its metrics.

    python3 vdbbench/run.py --workload oltp --seed 7 --seconds 10 --trace 0

Builds the engine libraries and the benchmark driver from source (Release,
into .bench_build/), runs the driver, gates every experiment on its
simulated outputs, and prints a human-readable summary followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
per-layer ones. Exits non-zero, without a result line, when the build or
the driver fails.

The inputs come from one of RECORDED_SEEDS recorded seeds: --seed N runs
input seed N mod RECORDED_SEEDS, whose simulated outputs are recorded in
vdbbench/expected/. --record writes the input seed's outputs there (after
checking them against the library's own harness) instead of measuring.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "vdbbench"
EXPECTED = HERE / "expected"

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# Simulated outputs recorded per seed (the paper's measures plus the
# physical I/O behind them). The statistics-snapshot digest is compared
# only within one run: it changes whenever a counter is added.
RECORDED_FIELDS_EXCLUDE = {"snapshot_fnv"}

# expected/<workload>.json holds input seeds 0 .. RECORDED_SEEDS - 1; any
# --seed maps onto one of them, so every run is gated on recorded values.
RECORDED_SEEDS = 31

# The span names that tile an experiment. Anything else in a trace is a
# naming error.
KNOWN_SPANS = {
    "experiment", "setup", "engine.create", "tpcc.load", "recovery.backup",
    "tpcc.run", "tpcc.check", "obs.snapshot", "engine.startup",
    "recovery.media", "recovery.rollforward", "engine.tablespace_online",
    "recovery.pit", "fleet.setup", "fleet.run", "fleet.failover",
    "fleet.check", "storage.verify",
    "tpcc.check.warehouse_ytd", "tpcc.check.order_id_monotony",
    "tpcc.check.new_order_contiguity", "tpcc.check.order_line_counts",
    "tpcc.check.delivery_flags", "tpcc.check.customer_balance",
    "tpcc.check.warehouse_history",
}

CHECK_CONDITIONS = [
    "warehouse_ytd", "order_id_monotony", "new_order_contiguity",
    "order_line_counts", "delivery_flags", "customer_balance",
    "warehouse_history",
]

# The host-speed probe's time on the reference host (a 4-vCPU VM, Xeon
# class, in its calmer periods). End-to-end times are reported at this
# speed: each experiment's wall time is multiplied by REFERENCE_PROBE_S over
# the probe time measured around it, which takes out the slow and fast
# spells of a shared host that no run length averages away.
REFERENCE_PROBE_S = 0.12

# Largest disagreement allowed between the root span and the experiment's
# own stopwatch, which read the clock a few calls apart.
TILE_TOLERANCE_NS = 1_000_000


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# --- build ------------------------------------------------------------------


def build():
    """Configures and builds the driver (quick when up to date); raises on
    failure."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(BUILD / "build.log", "a") as out:
            steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"],
                     ["cmake", "--build", str(BUILD), "--target", "vdbbench",
                      "-j", jobs]]
            # Compiler scratch files stay inside the checkout too.
            tmp = BUILD / "tmp"
            tmp.mkdir(exist_ok=True)
            env = dict(os.environ, TMPDIR=str(tmp))
            for cmd in steps:
                subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                               check=True, timeout=BUILD_TIMEOUT_S, env=env)


def input_seed(seed):
    return seed % RECORDED_SEEDS


def run_driver(args, spans_path, extra=()):
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(input_seed(args.seed)), "--seconds", str(args.seconds),
           "--trace", "1" if args.trace else "0", *extra]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- gate -------------------------------------------------------------------


def expected_for(workload, seed):
    path = EXPECTED / f"{workload}.json"
    if not path.exists():
        return None
    with open(path) as f:
        return json.load(f).get(str(seed))


def mismatches(sim, want, label):
    out = []
    for key, value in want.items():
        if key not in sim:
            out.append(f"{label}: {key} missing")
        elif sim[key] != value:
            out.append(f"{label}: {key} = {sim[key]}, expected {value}")
    return out


def own_records(report):
    """The experiments this benchmark assembled itself (not the library's)."""
    return [e for e in report["experiments"] if e["role"] != "reference"]


def gate(report, expected, require_recorded=True):
    """Checks every experiment; returns one list of failures per experiment.

    - any harness error fails its experiment;
    - integrity and atomicity violations must be zero, commits positive;
    - every experiment reproduces the reference (the library's harness
      where there is one, else the first experiment) and the seed's
      recorded outputs; with `require_recorded`, an experiment of a seed
      without recorded outputs fails.
    """
    experiments = report["experiments"]
    failures = [[] for _ in experiments]
    reference = next((e for e in experiments if e["role"] == "reference"),
                     None)
    if reference is None:
        reference = own_records(report)[0]
    for i, e in enumerate(experiments):
        f = failures[i]
        label = f"{e['role']}#{i}"
        if e["error"]:
            f.append(f"{label}: {e['error']}")
            continue
        sim = e["sim"]
        for key in ("integrity_violations", "atomicity_violations"):
            if sim.get(key, 0) != 0:
                f.append(f"{label}: {key} = {sim[key]}")
        if sim.get("commits", 0) <= 0:
            f.append(f"{label}: no commits")
        if e is reference:
            continue
        if not reference["error"]:
            f += mismatches(sim, reference["sim"], label + " vs reference")
        if expected is not None:
            f += mismatches(sim, expected, label + " vs recorded")
        elif require_recorded:
            f.append(f"{label}: no recorded outputs for this seed")
    return failures


# --- spans ------------------------------------------------------------------


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def analyse_spans(spans, walls):
    """Per experiment: inclusive and self time by span name, and tiling.

    `walls` maps experiment id -> the experiment's stopwatch nanoseconds.
    Returns (totals, selfs, remainders, problems): totals[id][name] and
    selfs[id][name] in seconds, remainders[id] = wall minus the self time
    of every non-root span (the untraced remainder), and a list of tiling
    problems (empty when the spans tile every experiment's wall time).
    """
    problems = []
    children = {}
    for i, s in enumerate(spans):
        if s["name"] not in KNOWN_SPANS:
            problems.append(f"unknown span {s['name']}")
        if s["end"] < s["start"]:
            problems.append(f"span {i} ({s['name']}) ends before it starts")
        p = s["parent"]
        if p >= 0:
            children.setdefault(p, []).append(i)
            parent = spans[p]
            if parent["experiment"] != s["experiment"]:
                problems.append(f"span {i} crosses experiments")
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                problems.append(f"span {i} ({s['name']}) outside its parent")
    self_ns = []
    for i, s in enumerate(spans):
        kids = sorted(children.get(i, []), key=lambda k: spans[k]["start"])
        for a, b in zip(kids, kids[1:]):
            if spans[b]["start"] < spans[a]["end"]:
                problems.append(f"spans {a} and {b} overlap")
        inner = sum(spans[k]["end"] - spans[k]["start"] for k in kids)
        self_ns.append(s["end"] - s["start"] - inner)
    totals, selfs, remainders = {}, {}, {}
    for i, s in enumerate(spans):
        x = s["experiment"]
        dur = (s["end"] - s["start"]) * 1e-9
        totals.setdefault(x, {})
        selfs.setdefault(x, {})
        totals[x][s["name"]] = totals[x].get(s["name"], 0.0) + dur
        selfs[x][s["name"]] = selfs[x].get(s["name"], 0.0) + self_ns[i] * 1e-9
    for x, wall_ns in walls.items():
        roots = [i for i, s in enumerate(spans)
                 if s["experiment"] == x and s["parent"] < 0
                 and s["name"] == "experiment"]
        if len(roots) != 1:
            problems.append(f"experiment {x}: {len(roots)} root spans")
            continue
        root = spans[roots[0]]
        if abs((root["end"] - root["start"]) - wall_ns) > TILE_TOLERANCE_NS:
            problems.append(f"experiment {x}: root span "
                            f"{root['end'] - root['start']} ns vs wall "
                            f"{wall_ns} ns")
        inside = [i for i, s in enumerate(spans)
                  if s["experiment"] == x and i != roots[0]
                  and in_subtree(spans, i, roots[0])]
        layer_self = sum(self_ns[i] for i in inside)
        remainder = wall_ns - layer_self
        if remainder < -TILE_TOLERANCE_NS:
            problems.append(f"experiment {x}: spans exceed the wall time")
        remainders[x] = remainder * 1e-9
    return totals, selfs, remainders, problems


def in_subtree(spans, i, root):
    while i >= 0:
        if i == root:
            return True
        i = spans[i]["parent"]
    return False


# --- metrics ----------------------------------------------------------------


def ratio(num, den):
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def scaled(e, seconds):
    """Wall seconds at the reference host speed (see REFERENCE_PROBE_S)."""
    return seconds * REFERENCE_PROBE_S / e["wall"]["probe_s"]


def end_to_end(report, scale=True):
    """The end-to-end metrics: medians over the run's timed experiments.

    With `scale`, each experiment's times are first scaled by the host-speed
    probe taken around it; without, they are the raw wall times.
    """
    timed = [e for e in report["experiments"]
             if e["role"] == "timed" and not e["traced"] and not e["error"]]

    def t(e, key):
        return scaled(e, e["wall"][key]) if scale else e["wall"][key]

    return {
        "setup_s": median([t(e, "setup_s") for e in timed]),
        "txn_per_s": median([ratio(e["base"]["commits"], t(e, "run_s"))
                             for e in timed]),
        "experiment_s": median([t(e, "experiment_s") for e in timed]),
        "peak_rss_mb": median([e["base"]["peak_rss_kib"] for e in timed])
        / 1024.0,
    }


def layer_values(e, t, remainder):
    """Per-layer metrics of one traced experiment; `t` maps span -> s."""
    b, w = e["base"], e["wall"]
    commits = b["commits"]
    fleet = "fleet.setup" in t
    procedures = (t.get("recovery.media", 0) + t.get("recovery.rollforward", 0)
                  + t.get("recovery.pit", 0))
    m = {
        "engine.create_s": t.get("engine.create", 0.0),
        "tpcc.load_s": t.get("tpcc.load", 0.0),
        "tpcc.load_us_per_row": ratio(t.get("tpcc.load", 0.0) * 1e6,
                                      b["rows_loaded"]),
        "recovery.backup_s": t.get("recovery.backup", 0.0),
        "tpcc.run_s": t.get("tpcc.run", 0.0),
        "tpcc.us_per_txn": ratio(t.get("tpcc.run", 0.0) * 1e6, commits),
        "storage.cache_hit_ratio": ratio(
            b["cache_hits"], b["cache_hits"] + b["physical_reads"]),
        "storage.reads_per_txn": ratio(b["physical_reads"], commits),
        "storage.writes_per_txn": ratio(b["physical_writes"], commits),
        "storage.verify_us_per_page": ratio(w["verify_s"] * 1e6,
                                            b["verify_pages"]),
        "wal.redo_bytes_per_txn": ratio(b["redo_bytes"], commits),
        "wal.redo_writes_per_txn": ratio(b["redo_writes"], commits),
        "wal.log_switches": b["log_switches"],
        "wal.archived_logs": b["archived_logs"],
        "engine.checkpoints": b["checkpoints_full"]
        + b["checkpoints_incremental"],
        "engine.startup_s": t.get("engine.startup", 0.0),
        "engine.startup_us_per_record": ratio(
            t.get("engine.startup", 0.0) * 1e6, b["records_replayed"]),
        "engine.replay_records_per_drain": ratio(b["replay_applied"],
                                                 b["replay_drains"]),
        "recovery.media_s": t.get("recovery.media", 0.0),
        "recovery.rollforward_s": t.get("recovery.rollforward", 0.0),
        "recovery.pit_s": t.get("recovery.pit", 0.0),
        "recovery.us_per_applied_record": ratio(procedures * 1e6,
                                                b["records_applied"]),
        "recovery.archives_read": b["archives_read"],
        "recovery_s": w["recovery_s"],
        "tpcc.check_s": t.get("tpcc.check", 0.0) + t.get("fleet.check", 0.0),
        "obs.snapshot_s": t.get("obs.snapshot", 0.0),
        "fleet.setup_s": t.get("fleet.setup", 0.0),
        "fleet.run_s": t.get("fleet.run", 0.0),
        "fleet.us_per_txn": ratio(t.get("fleet.run", 0.0) * 1e6, commits)
        if fleet else 0.0,
        "fleet.cross_shard_share": ratio(b["cross_shard_committed"], commits),
        "fleet.failover_s": t.get("fleet.failover", 0.0),
        "fleet.check_s": t.get("fleet.check", 0.0),
        "sim.net_bytes": b["net_bytes"],
        "sim.disk_bytes_per_txn": ratio(b["disk_bytes"], commits),
        "process.minor_faults_per_txn": ratio(b["minor_faults"], commits),
        "process.cpu_per_wall": ratio(w["cpu_s"], w["experiment_s"]),
        "host.probe_s": w["probe_s"],
        "trace.untraced_s": remainder,
    }
    for c in CHECK_CONDITIONS:
        m[f"tpcc.check.{c}_s"] = t.get(f"tpcc.check.{c}", 0.0)
    return m


def per_layer(report, spans):
    experiments = report["experiments"]
    walls = {i: round(e["wall"]["experiment_s"] * 1e9)
             for i, e in enumerate(experiments)
             if e["traced"] and not e["error"]}
    totals, selfs, remainders, problems = analyse_spans(spans, walls)
    rows = [layer_values(experiments[i], totals.get(i, {}),
                         remainders.get(i, 0.0)) for i in walls]
    metrics = {name: median([r[name] for r in rows])
               for name in (rows[0] if rows else {})}
    untraced = [e["wall"]["experiment_s"] for e in experiments
                if e["role"] == "timed" and not e["traced"]
                and not e["error"]]
    traced = [experiments[i]["wall"]["experiment_s"] for i in walls]
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    self_table = {}
    for i in walls:
        for name, v in selfs.get(i, {}).items():
            self_table.setdefault(name, []).append(
                (totals[i][name], v))
    return metrics, self_table, problems


# --- provenance -------------------------------------------------------------


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def provenance(report, seed):
    env = dict(report["env"])
    env["input_seed"] = env["seed"]
    env["seed"] = seed
    env["git_sha"] = git_sha()
    env["python"] = platform.python_version()
    env["machine"] = platform.machine()
    return env


# --- main -------------------------------------------------------------------


def record(args):
    args.seconds, args.trace = 0, 0
    report = run_driver(args, None, ["--min-experiments", "1"])
    failures = gate(report, None, require_recorded=False)
    if any(failures):
        log("not recording, gate failed:", *sum(failures, []))
        return 1
    own = own_records(report)[0]
    values = {k: v for k, v in own["sim"].items()
              if k not in RECORDED_FIELDS_EXCLUDE}
    path = EXPECTED / f"{args.workload}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[str(input_seed(args.seed))] = values
    EXPECTED.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(data.items(),
                                           key=lambda kv: int(kv[0]))),
                               indent=1) + "\n")
    log(f"recorded {args.workload} input seed {input_seed(args.seed)}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    spec = load_spec()
    t0 = time.monotonic()
    try:
        build()
    except (OSError, subprocess.SubprocessError) as exc:
        log(f"build failed ({exc}); see {BUILD / 'build.log'}")
        return 1
    build_s = time.monotonic() - t0
    if args.record:
        return record(args)

    spans_path = BUILD / f"spans-{args.workload}-{args.seed}.jsonl"
    try:
        report = run_driver(args, spans_path)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as exc:
        log(f"benchmark driver failed: {exc}")
        return 1

    expected = expected_for(args.workload, input_seed(args.seed))
    failures = gate(report, expected)
    problems = []
    if args.trace:
        metrics, self_table, problems = per_layer(report,
                                                  load_spans(spans_path))
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(report)
        self_table = {}
        wanted = spec["end_to_end"]

    env = provenance(report, args.seed)
    if not args.trace:
        # The published times are scaled by the host probe; the raw wall
        # medians and the probe itself tell an engine change from a probe
        # shift.
        timed = [e for e in report["experiments"]
                 if e["role"] == "timed" and not e["error"]]
        env["probe_median_s"] = median([e["wall"]["probe_s"] for e in timed])
        env["reference_probe_s"] = REFERENCE_PROBE_S
        env["raw_medians"] = end_to_end(report, scale=False)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"build check {build_s:.1f} s  measured "
          f"{report['measured_s']:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"gate: recorded outputs of input seed {env['input_seed']}"
          if expected else "gate: no recorded outputs for this seed")
    for f in sum(failures, []):
        print("FAIL " + f)
    for p in problems:
        print("TILE " + p)
    for name in sorted(self_table):
        pairs = self_table[name]
        print(f"span {name:34s} total {median([a for a, _ in pairs]):.6f} s"
              f"  self {median([b for _, b in pairs]):.6f} s")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.trace:
        for name in sorted(metrics):
            print(f"layer {name:34s} {metrics[name]:.6g} "
                  f"{units.get(name, '')}")
    else:
        raw = env["raw_medians"]
        print(f"timed experiments {len(timed)}  host probe median "
              f"{env['probe_median_s']:.4f} s "
              f"(reference {REFERENCE_PROBE_S} s)")
        for name in metrics:
            print(f"metric {name:14s} {metrics[name]:.6g}  raw {raw[name]:.6g}")
        print(f"info recovery_s {median([e['wall']['recovery_s'] for e in timed]):.6g} s"
              " (raw; per-layer metric)")

    out = {}
    for m in wanted:
        value = metrics.get(m["name"], 0.0)
        if not isinstance(value, (int, float)) or math.isnan(value):
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = sum(1 for f in failures if f)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(report["experiments"]),
        "failed": failed,
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
