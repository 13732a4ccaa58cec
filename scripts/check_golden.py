#!/usr/bin/env python3
"""Holds a bench_smoke run's simulated outputs to the committed record.

Usage: check_golden.py [--update] TABLES_DIR FLEET_JSON

TABLES_DIR holds each bench's printed tables, cut at its "--- wall clock ---"
footer (bench_<name>.txt, as scripts/bench_smoke.sh writes them); FLEET_JSON
is the run's results/bench_fleet.json. The record is tests/golden/:
tables/bench_<name>.txt and bench_fleet.json.

Every recorded table must come back byte for byte, with one exception:
bench_cc's rows with 2 or 4 workers, whose wait-die outcomes follow thread
interleaving. Those rows are masked on both sides, matched by their Protocol
and Workers cells, and bench_cc's cells are compared with their padding
stripped (a masked row's width can move a column). bench_fleet.json must
match the record in every value except its wall-clock times
(`wall_seconds`). A difference exits 1 and prints a unified diff.

--update rewrites the record from the run instead: a change that means to
move a simulated output commits the moved record with it, so the diff shows
every moved number.
"""
import difflib
import json
import pathlib
import re
import sys

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

# bench_cc rows that vary run to run: (Protocol, Workers) cells.
UNSTABLE_CC_ROWS = {(p, w) for p in ("2pl", "occ") for w in ("2", "4")}
WALL_KEYS = {"wall_seconds"}


def normalize_cc(text):
    out = []
    for line in text.splitlines(keepends=True):
        if not line.startswith("|"):
            out.append(line)
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if re.fullmatch(r"-+", cells[0]):
            cells = ["-" for _ in cells]
        elif (cells[0], cells[1]) in UNSTABLE_CC_ROWS:
            cells = cells[:2] + ["(masked)"]
        out.append("| " + " | ".join(cells) + " |\n")
    return "".join(out)


def comparable_table(name, text):
    return normalize_cc(text) if name == "bench_cc.txt" else text


def strip_wall(value):
    if isinstance(value, dict):
        return {k: strip_wall(v) for k, v in value.items() if k not in WALL_KEYS}
    if isinstance(value, list):
        return [strip_wall(v) for v in value]
    return value


def fleet_text(path):
    return json.dumps(strip_wall(json.loads(path.read_text())), indent=1) + "\n"


def diff(label, want, got):
    return "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        fromfile="golden/" + label, tofile="run/" + label))


def update(tables, fleet):
    (GOLDEN / "tables").mkdir(parents=True, exist_ok=True)
    for path in sorted(tables.glob("bench_*.txt")):
        (GOLDEN / "tables" / path.name).write_text(path.read_text())
    (GOLDEN / "bench_fleet.json").write_text(fleet_text(fleet))
    print(f"check_golden: record rewritten under {GOLDEN}")
    return 0


def check(tables, fleet):
    failures = []
    recorded = sorted((GOLDEN / "tables").glob("bench_*.txt"))
    if not recorded:
        failures.append(f"no recorded tables under {GOLDEN / 'tables'}\n")
    for want_path in recorded:
        got_path = tables / want_path.name
        if not got_path.exists():
            failures.append(f"missing table from the run: {got_path}\n")
            continue
        want = comparable_table(want_path.name, want_path.read_text())
        got = comparable_table(want_path.name, got_path.read_text())
        if want != got:
            failures.append(diff("tables/" + want_path.name, want, got))
    for extra in sorted(tables.glob("bench_*.txt")):
        if not (GOLDEN / "tables" / extra.name).exists():
            failures.append(f"table with no record: {extra.name}\n")
    want = (GOLDEN / "bench_fleet.json").read_text()
    got = fleet_text(fleet)
    if want != got:
        failures.append(diff("bench_fleet.json", want, got))
    for failure in failures:
        sys.stdout.write(failure)
    if failures:
        print("check_golden: simulated outputs differ from tests/golden "
              "(rerun with --update only if the change means to move them)")
        return 1
    print(f"check_golden: {len(recorded)} tables and bench_fleet.json "
          "match the record")
    return 0


def main(argv):
    args = argv[1:]
    do_update = bool(args) and args[0] == "--update"
    if do_update:
        args = args[1:]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tables, fleet = pathlib.Path(args[0]), pathlib.Path(args[1])
    return update(tables, fleet) if do_update else check(tables, fleet)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
