"""The benchmark's own tests: gate, span tiling, metric names, workloads.

    python3 -m unittest discover -s vdbbench/tests

Pure Python; nothing here builds or runs the engine.
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SIM = {"commits": 9265, "tpmc": 1333.6666666666667, "failed_attempts": 0,
       "lost": 0, "recovery_us": 0, "open_us": 0, "redo_bytes": 95335657,
       "physical_reads": 4176, "physical_writes": 5995,
       "integrity_checks": 7, "integrity_violations": 0,
       "atomicity_violations": 0}
BASE = {"commits": 9265, "rows_loaded": 100, "records_applied": 0,
        "archives_read": 0, "disk_bytes": 1000, "net_bytes": 0,
        "cross_shard_committed": 0, "minor_faults": 10, "cache_hits": 990,
        "physical_reads": 10, "physical_writes": 5, "redo_bytes": 500,
        "redo_writes": 20, "log_switches": 1, "archived_logs": 0,
        "checkpoints_full": 1, "checkpoints_incremental": 0,
        "records_replayed": 0, "replay_applied": 0, "replay_drains": 0,
        "verify_pages": 10, "peak_rss_kib": 150000}


def experiment(role, traced=False, experiment_s=1.0):
    return {"role": role, "traced": traced, "error": "",
            "sim": dict(SIM),
            "wall": {"experiment_s": experiment_s, "setup_s": 0.2,
                     "run_s": 0.7, "recovery_s": 0.0,
                     "cpu_s": 1.0, "verify_s": 0.001,
                     "probe_s": run.REFERENCE_PROBE_S},
            "base": dict(BASE)}


def report(workload="oltp", timed=3):
    experiments = [experiment("reference"), experiment("warmup")]
    experiments += [experiment("timed", experiment_s=1.0 + 0.1 * i)
                    for i in range(timed)]
    return {"env": {"workload": workload, "seed": 7},
            "measured_s": 10.0,
            "experiments": experiments}


class GateTest(unittest.TestCase):
    def test_clean_report_passes(self):
        failures = run.gate(report(), dict(SIM))
        self.assertEqual([f for f in failures if f], [])

    def test_gate_trips_when_a_run_differs_from_the_reference(self):
        for key in SIM:
            r = report()
            value = r["experiments"][3]["sim"][key]
            r["experiments"][3]["sim"][key] = value + 1
            failures = run.gate(r, dict(SIM))
            self.assertTrue(failures[3], key)
            self.assertFalse(failures[2], key)

    def test_gate_trips_when_a_recorded_output_is_perturbed(self):
        for key in ("commits", "tpmc", "lost", "recovery_us", "redo_bytes",
                    "physical_reads", "physical_writes"):
            expected = dict(SIM)
            expected[key] += 1
            failures = run.gate(report(), expected)
            own = failures[1:]
            self.assertTrue(all(own), key)

    def test_violations_and_harness_errors_fail(self):
        r = report()
        r["experiments"][2]["sim"]["integrity_violations"] = 1
        r["experiments"][3]["error"] = "Internal: boom"
        failures = run.gate(r, dict(SIM))
        self.assertTrue(failures[2])
        self.assertTrue(failures[3])

    def test_a_seed_without_recorded_outputs_fails(self):
        failures = run.gate(report(), None)
        self.assertFalse(failures[0])  # the library's reference
        self.assertTrue(all(failures[1:]))
        # Recording a new seed checks against the reference only.
        self.assertFalse(any(run.gate(report(), None,
                                      require_recorded=False)))

    def test_the_first_experiment_is_the_reference_without_a_library_one(self):
        r = report("faultload")
        del r["experiments"][0]
        for e in r["experiments"]:
            e["sim"]["fault2_lost"] = 0
        r["experiments"][2]["sim"]["fault2_lost"] = 3
        failures = run.gate(r, dict(SIM, fault2_lost=0))
        self.assertEqual([bool(f) for f in failures],
                         [False, False, True, False])


def span(name, start, end, parent, experiment_id=0):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "experiment": experiment_id}


class SpanTest(unittest.TestCase):
    def tiled(self):
        return [
            span("experiment", 0, 1000, -1),
            span("setup", 10, 300, 0),
            span("engine.create", 20, 100, 1),
            span("tpcc.load", 100, 290, 1),
            span("tpcc.run", 300, 900, 0),
            span("obs.snapshot", 950, 990, 0),
            span("storage.verify", 1000, 1100, -1),  # probe, outside
        ]

    def test_spans_tile_the_wall_time(self):
        totals, selfs, remainders, problems = run.analyse_spans(
            self.tiled(), {0: 1000})
        self.assertEqual(problems, [])
        # Self times of every non-root span plus the remainder is the wall.
        layer_self = sum(v for k, v in selfs[0].items() if k != "experiment"
                         and k != "storage.verify")
        self.assertAlmostEqual(layer_self + remainders[0], 1000e-9)
        self.assertAlmostEqual(selfs[0]["setup"], 20e-9)
        self.assertAlmostEqual(totals[0]["setup"], 290e-9)
        self.assertAlmostEqual(remainders[0], 110e-9)

    def test_overlapping_siblings_do_not_tile(self):
        spans = self.tiled()
        spans[4]["start"] = 250
        self.assertTrue(run.analyse_spans(spans, {0: 1000})[3])

    def test_child_outside_parent_does_not_tile(self):
        spans = self.tiled()
        spans[3]["end"] = 310
        self.assertTrue(run.analyse_spans(spans, {0: 1000})[3])

    def test_root_must_match_the_stopwatch(self):
        self.assertTrue(run.analyse_spans(self.tiled(), {0: 5_000_000})[3])

    def test_unknown_span_names_are_reported(self):
        spans = self.tiled()
        spans[5]["name"] = "mystery"
        self.assertTrue(run.analyse_spans(spans, {0: 1000})[3])


class MetricTest(unittest.TestCase):
    def all_metrics(self):
        return SPEC["end_to_end"] + SPEC["per_layer"]

    def test_names_use_only_allowed_characters_and_are_unique(self):
        names = [m["name"] for m in self.all_metrics()]
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for span_name in run.KNOWN_SPANS:
            self.assertRegex(span_name, NAME)

    def test_units_and_directions(self):
        for m in self.all_metrics():
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_setup_s_is_an_end_to_end_metric_with_the_largest_bound(self):
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))

    def test_every_workload_reports_setup_s(self):
        for w in SPEC["workloads"]:
            metrics = run.end_to_end(report(w["name"]))
            self.assertIn("setup_s", metrics)
            self.assertGreater(metrics["setup_s"], 0)
            for m in SPEC["end_to_end"]:
                self.assertIn(m["name"], metrics)

    def test_every_per_layer_metric_is_computed(self):
        r = report()
        for e in r["experiments"][2:]:
            e["traced"] = True
        r["experiments"].append(experiment("timed", experiment_s=1.05))
        spans = []
        for i, e in enumerate(r["experiments"]):
            if e["traced"]:
                ns = round(e["wall"]["experiment_s"] * 1e9)
                spans.append(span("experiment", 0, ns, -1, i))
        metrics, _, problems = run.per_layer(r, spans)
        self.assertEqual(problems, [])
        for m in SPEC["per_layer"]:
            self.assertIn(m["name"], metrics)

    def test_every_seed_maps_onto_recorded_outputs(self):
        seeds = {str(s) for s in range(run.RECORDED_SEEDS)}
        for w in SPEC["workloads"]:
            path = run.EXPECTED / f"{w['name']}.json"
            self.assertTrue(path.exists(), path)
            recorded = json.loads(path.read_text())
            self.assertEqual(set(recorded), seeds)
            for seed in (0, 7, run.RECORDED_SEEDS, 20020623, 2**40 + 3):
                self.assertIn(str(run.input_seed(seed)), recorded)
            for values in recorded.values():
                self.assertEqual(values["integrity_violations"], 0)
                self.assertNotIn("snapshot_fnv", values)


if __name__ == "__main__":
    unittest.main()
