#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny size (run.py --smoke),
untraced and traced, and checks that each metric BENCHMARK.json names
is printed in the table and in the JSON result with its unit and that
every operation passed its output check. Then runs each workload with
deliberately wrong expected outputs (--corrupt-expected) and checks
that every operation is reported failed, that nothing was timed, and
that the command exits nonzero with a one-line diagnostic. Exits
nonzero on the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", trace, "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(
            f"{workload}: no output; stderr: {p.stderr[-500:]}")
    return p.returncode, lines, json.loads(lines[-1]), p.stderr


def check_metrics(workload, trace, specs):
    rc, lines, res, err = run(workload, trace)
    where = f"{workload} --trace {trace}"
    assert rc == 0, f"{where}: exit {rc}: {err[-500:]}"
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
    assert res["correct"] is True and res["failed"] == 0, f"{where}: {res}"
    assert res["attempted"] >= 1, where
    got = res["metrics"]
    assert set(got) == {m["name"] for m in specs}, (
        f"{where}: metric names differ: "
        f"{sorted(set(got) ^ {m['name'] for m in specs})}")
    table = {l.split()[0]: l.split() for l in lines[:-1] if l.startswith("  ")}
    for m in specs:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], f"{where}: {m['name']} unit {v['unit']}"
        assert isinstance(v["value"], (int, float)), f"{where}: {m['name']}"
        row = table.get(m["name"])
        assert row is not None and row[2] == m["unit"], (
            f"{where}: {m['name']} not printed with unit {m['unit']}")
    assert "failed_share" in table, f"{where}: failed_share not printed"


def check_corrupt(workload):
    rc, lines, res, err = run(workload, "0", "--corrupt-expected")
    where = f"{workload} --corrupt-expected"
    assert rc != 0, f"{where}: exited 0"
    assert res["correct"] is False, where
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"], (
        f"{where}: {res['failed']} of {res['attempted']} failed")
    assert res["metrics"] == {}, f"{where}: failed operations were timed"
    diag = [l for l in err.splitlines() if "failed their output check" in l]
    assert len(diag) == 1, (
        f"{where}: expected one diagnostic line: {err[-500:]}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (x["name"] for x in bench["workloads"]):
        check_metrics(w, "0", bench["end_to_end"])
        check_metrics(w, "1", bench["per_layer"])
        check_corrupt(w)
        print(f"smoke: {w} ok", flush=True)
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"smoke: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
