"""Benchmark of the triphoton command line entry ``triphoton.cli.run``.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere in a checkout; the package is imported from its ``src``
directory.  The loop is closed with one caller and no threads: the next
request is sent when the previous one has returned.  Requests are JSON
configs generated from ``--seed`` (see ``workloads.py``) and written to a
temporary directory under ``.bench_out/``; every output is checked.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a fixed
number of cycles once untraced and once with spans recorded around every
layer function, reports the per-layer metrics and writes the spans to
``.bench_out/spans-<workload>-<seed>.jsonl``.  The metric names and units
are those listed in ``BENCHMARK.json``.  The last line of standard output
is one JSON object; the lines before it print every metric with its unit
and the machine the run was made on.  The exit code is 1 when any request
failed, 2 when the program or the benchmark definition is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import REQUEST, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 7
SETUP_CODE = "import sys, triphoton.cli as cli; cli.load_config(sys.argv[1])"
# run_s_p90 is printed only when it rests on enough requests.
P90_MIN_REQUESTS = 100


@dataclass
class Outcome:
    request: workloads.Request
    seconds: float
    problems: list[str]


def execute(cli, request: workloads.Request, work_dir: Path, tracer: Tracer | None = None, request_id: int = 0) -> Outcome:
    """One request through ``cli.run``, timed, then its output checked."""
    config_path = work_dir / "config.json"
    out_dir = work_dir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    config_path.write_text(json.dumps(request.config), encoding="utf-8")
    captured = io.StringIO()
    span = tracer.request(request_id) if tracer else contextlib.nullcontext()
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured), span:
            code = cli.run(str(config_path), str(out_dir))
    except Exception as exc:  # a raising request is counted as failed; the loop goes on
        code = None
        problems.append(f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if code is not None and code != 0:
        problems.append(f"exit code {code}: {captured.getvalue().strip()[-300:]}")
    if not problems:
        try:
            problems = workloads.check(request, workloads.read_output(request, out_dir))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
    return Outcome(request, seconds, problems)


def measure_setup(config: dict, work_dir: Path, repeats: int) -> list[float]:
    """Wall time of fresh interpreters importing triphoton.cli and loading a config."""
    config_path = work_dir / "setup.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE, str(config_path)]
    times = []
    # The first interpreter writes the bytecode caches and is not timed.
    for i in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120, capture_output=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def units_per_s(outcomes: list[Outcome]) -> float:
    return sum(o.request.units for o in outcomes) / sum(o.seconds for o in outcomes)


def run_untraced(cli, workload, rng, seconds, work_dir, tiny) -> tuple[list[Outcome], list[Outcome]]:
    """Warm-up, then whole cycles while the next one still fits in ``seconds``."""
    warm = [execute(cli, r, work_dir) for r in workload.warmup(rng, tiny)]
    measured: list[Outcome] = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        measured += [execute(cli, r, work_dir) for r in workload.cycle(rng, tiny)]
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return warm, measured


def end_to_end(cli, workload, rng, seconds, work_dir, tiny) -> tuple[dict, dict, list[Outcome]]:
    setup = measure_setup(workload.cycle(random.Random(0), tiny)[0].config, work_dir, 1 if tiny else SETUP_REPEATS)
    warm, measured = run_untraced(cli, workload, rng, seconds, work_dir, tiny)
    times = [o.seconds for o in measured]
    metrics = {
        "points_per_s": units_per_s(measured),
        "run_s_p50": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"requests": len(measured), "setup_runs": len(setup), "measured_s": sum(times)}
    if len(times) >= P90_MIN_REQUESTS:
        info["run_s_p90"] = statistics.quantiles(times, n=10)[8]
    return metrics, info, warm + measured


def layer_metrics(tracer: Tracer, untraced: list[Outcome], traced: list[Outcome]) -> dict:
    totals = tracer.totals()

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    request_s = get(REQUEST, "s")
    metrics = {}
    for name, fields in (
        ("oracle.evolve_and_measure", ("calls", "s")),
        ("oracle.expand_from_vectors", ("s",)),
        ("interference.event_probability", ("calls", "self_s")),
        ("interference.event_distribution", ("calls",)),
        ("mixedstate.mixed_event_distribution", ("calls", "s")),
        ("mixedstate.build_densities", ("s",)),
        ("source.enumerate_terms", ("s",)),
        ("source.heralded_ensemble", ("s",)),
        ("experiment.simulate_counts", ("self_s",)),
        ("experiment.click_distribution", ("calls", "s")),
        ("modes.gram_matrix", ("calls", "s")),
        ("modes.temporal_overlap", ("calls",)),
        ("cli.load_config", ("s",)),
        ("cli.write_series", ("s",)),
    ):
        for field in fields:
            metrics[f"{name}.{field}"] = get(name, field)
    metrics.update(tracer.counts)
    metrics["oracle.evolve_and_measure.share"] = get("oracle.evolve_and_measure", "s") / request_s
    metrics["trace.request_s"] = request_s
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.points_per_s"] = units_per_s(traced)
    metrics["trace.untraced_points_per_s"] = units_per_s(untraced)
    return metrics


def traced_run(cli, workload, rng, work_dir, tiny, spans_path: Path) -> tuple[dict, dict, list[Outcome]]:
    """The same fixed cycles untraced and then traced, after a warm-up."""
    warm = [execute(cli, r, work_dir) for r in workload.warmup(rng, tiny)]
    requests = [r for _ in range(workload.trace_cycles) for r in workload.cycle(rng, tiny)]
    untraced = [execute(cli, r, work_dir) for r in requests]
    tracer = Tracer()
    with tracer.installed():
        traced = [execute(cli, r, work_dir, tracer, i) for i, r in enumerate(requests)]
    tracer.write(spans_path)
    info = {"requests": len(requests), "spans_file": str(spans_path.relative_to(ROOT))}
    return layer_metrics(tracer, untraced, traced), info, warm + untraced + traced


def machine_info(workload: str, seed: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_cli():
    """triphoton.cli from this checkout's source tree, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import triphoton
    import triphoton.cli

    if Path(triphoton.__file__).resolve().parent != SRC / "triphoton":
        raise ImportError(f"triphoton imported from {triphoton.__file__}, not {SRC}")
    return triphoton.cli


def run(workload_name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    spec = load_spec()
    cli = import_cli()
    workload = workloads.WORKLOADS[workload_name]
    rng = random.Random(seed)
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if trace:
            spans_path = OUT / f"spans-{workload_name}-{seed}.jsonl"
            metrics, info, outcomes = traced_run(cli, workload, rng, work_dir, tiny, spans_path)
            listed = spec["per_layer"]
        else:
            metrics, info, outcomes = end_to_end(cli, workload, rng, seconds, work_dir, tiny)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in listed}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    failed = [o for o in outcomes if o.problems]
    info["failed_frac"] = len(failed) / len(outcomes)
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "info": info,
        "problems": [f"{json.dumps(o.request.config)[:200]}: {p}" for o in failed for p in o.problems],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "triphoton" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no triphoton source tree under {SRC} or no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# machine " + json.dumps(machine_info(args.workload, args.seed), sort_keys=True))
    for key, value in result.pop("info").items():
        print(f"# {key} {value}")
    for problem in result.pop("problems")[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
