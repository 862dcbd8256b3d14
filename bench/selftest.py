"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at a tiny size in both trace modes and checks that each
run emits exactly the metrics listed in BENCHMARK.json, with their units, and
that no request failed.  Then it corrupts real outputs one value at a time
and checks that every output check rejects them, and that a request the
program refuses is counted as failed.  Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run_bench
import workloads


def metric_problems(spec: dict) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_bench.run(name, 1, 0.0, trace, tiny=True)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{name} trace={trace}: emitted {emitted}, listed {expected}")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{name} trace={trace}: non-finite {bad}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result['problems'][:3]}")
            print(f"{name} trace={int(trace)}: {len(emitted)} metrics, {result['attempted']} requests")
    return problems


def _shift(column: str, row: int, delta: float):
    def corrupt(series):
        series.columns[column][row] += delta

    return corrupt


def _drop_row(series):
    for values in series.columns.values():
        values.pop()


def _swap_mass(series):
    # Keeps the row sum at 1 but pushes one pattern below 0.
    series.columns["N111"][0] -= 1.5
    series.columns["N000"][0] += 1.5


def _drop_column(series):
    del series.columns["N000"]


def _set(key: str, value):
    def corrupt(metadata):
        metadata["provenance"][key] = value

    return corrupt


def check_problems(cli, work_dir: Path) -> list[str]:
    rng = random.Random(7)
    ideal = workloads.WORKLOADS["ideal-scans"].cycle(rng, True)
    cases = [
        (next(r for r in ideal if r.config["grid"]["kind"] == "triad"), [
            _shift("P111", 0, 1e-9), _shift("P300", 1, -1e-9), _shift("P120", 2, 1e-9),
            _shift("P021", 0, 1e-9), _shift("P011", 1, 1e-9), _drop_row,
        ]),
        (next(r for r in ideal if r.config["grid"]["kind"] == "delay"), [
            _shift("P111", 2, -1e-9), _shift("P003", 0, 1e-9), _shift("P110", 1, 1e-9),
        ]),
        (workloads.WORKLOADS["experiment-triad"].cycle(rng, True)[0], [
            _shift("N000", 0, 1e-9), _swap_mass, _drop_column, _drop_row,
        ]),
        (workloads.WORKLOADS["experiment-cascade-poldep"].cycle(rng, True)[0], [
            _shift("N210", 0, -1e-9), _drop_column,
        ]),
        (workloads.WORKLOADS["validate"].cycle(rng, True)[0], [
            _set("max_deviation", 1e-6), _set("max_deviation", math.nan), _set("instances", 0),
        ]),
    ]
    problems = []
    for request, corruptions in cases:
        outcome = run_bench.execute(cli, request, work_dir)
        if outcome.problems:
            problems.append(f"clean output of {request.config} failed: {outcome.problems}")
            continue
        output = workloads.read_output(request, work_dir / "out")
        for corrupt in corruptions:
            broken = copy.deepcopy(output)
            corrupt(broken)
            if not workloads.check(request, broken):
                problems.append(f"{request.mode} check accepted corruption {corrupt.__name__}")
        print(f"{request.mode} {request.config['grid']['kind'] if 'grid' in request.config else ''}: "
              f"{len(corruptions)} corruptions rejected")
    refused = workloads.Request({"mode": "experiment", "source": {"squeezing": 2.0}}, 1)
    if not run_bench.execute(cli, refused, work_dir).problems:
        problems.append("a refused config was not counted as failed")
    return problems


def main() -> int:
    spec = run_bench.load_spec()
    problems = metric_problems(spec)
    run_bench.OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run_bench.OUT))
    try:
        problems += check_problems(run_bench.import_cli(), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
