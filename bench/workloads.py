"""Seeded workloads for the triphoton benchmark and the checks on their outputs.

A workload is a list of request *cycles*.  Every cycle of a workload has the
same composition (request kinds, point counts, cascades), and only the values
inside the configs change with the seed, so runs with different seeds do the
same amount of work and the median request falls inside the same group of
requests on every run.  The measured loop always completes whole cycles.

Each request is one JSON config handed to ``triphoton.cli.run``.  ``units``
is the work it completes: scan points for ``run`` configs, instances for
``validate`` configs.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

BEAMSPLITTERS_1_3 = ["beamsplitter_2way", "none", "beamsplitter_2way"]
TRITTER_1 = ["tritter_3way", "none", "none"]
# Threshold detectors behind each output for the cascades above.
LEAVES = {"none": 1, "beamsplitter_2way": 2, "tritter_3way": 3}

# The paper's closed forms hold to this precision on every ideal point, and
# click patterns of an experiment point sum to 1 within it.
TOL = 1e-12
VALIDATE_MAX_DEVIATION = 1e-9
OUTPUT = "bench"


@dataclass(frozen=True)
class Request:
    """One call of ``triphoton.cli.run``: the config and the work it does."""

    config: dict
    units: int

    @property
    def mode(self) -> str:
        return self.config["mode"]


@dataclass(frozen=True)
class Workload:
    """A named request generator; why each was chosen is in BENCHMARK.json.

    ``cycle(rng, tiny)`` returns the requests of one cycle; ``warmup`` the
    untimed requests that fill caches and lazy imports first.
    ``trace_cycles`` is the fixed number of cycles a traced run measures, so
    that its counts repeat exactly for a given seed.  ``tiny`` shrinks every
    request for the harness self-test.
    """

    name: str
    cycle: Callable[[random.Random, bool], list[Request]]
    warmup: Callable[[random.Random, bool], list[Request]]
    trace_cycles: int


def _sigma(rng: random.Random) -> float:
    return rng.uniform(0.5, 2.0)


def _ideal_cycle(rng: random.Random, tiny: bool) -> list[Request]:
    sizes = (3,) if tiny else (17, 41, 65)
    requests = []
    for recipe in ("all_H", "static_pi", "dynamic"):
        for points in sizes:
            sigma = _sigma(rng)
            if recipe == "dynamic":
                grid = {
                    "kind": "triad",
                    "start": rng.uniform(0.0, 0.5 * math.pi),
                    "stop": rng.uniform(1.5 * math.pi, TWO_PI),
                    "points": points,
                }
            else:
                grid = {
                    "kind": "delay",
                    "start": -rng.uniform(6.0, 12.0) * sigma,
                    "stop": rng.uniform(6.0, 12.0) * sigma,
                    "points": points,
                }
            config = {
                "mode": "ideal-scan",
                "preparation": {"recipe": recipe, "sigma": sigma},
                "grid": grid,
                "output": OUTPUT,
            }
            requests.append(Request(config, points))
    rng.shuffle(requests)
    return requests


def _experiment(recipe: str, kind: str, values: list[float], sigma: float, tiny: bool, **extra) -> Request:
    config = {
        "mode": "experiment",
        "preparation": {"recipe": recipe, "sigma": sigma},
        "grid": {"kind": kind, "values": values},
        "output": OUTPUT,
        **extra,
    }
    if tiny:
        # A small photon budget keeps the self-test quick; the measured
        # workloads use the default source.
        config["source"] = {"truncation_total_photons": 6, "truncation_noise_photons": 1}
    return Request(config, len(values))


def _triad_request(rng: random.Random, points: int, tiny: bool) -> Request:
    phases = [rng.uniform(0.0, TWO_PI) for _ in range(points)]
    return _experiment("dynamic", "triad", phases, _sigma(rng), tiny)


def _triad_cycle(rng: random.Random, tiny: bool) -> list[Request]:
    return [_triad_request(rng, 1 if tiny else 2, tiny)]


def _triad_warmup(rng: random.Random, tiny: bool) -> list[Request]:
    return [_triad_request(rng, 1, tiny)]


def _matrix_pairs(u: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in u]


def _poldep_tritter(rng: random.Random) -> dict:
    """Explicit tritter block whose V network differs by input phase shifts."""
    zeta = np.exp(2j * np.pi / 3.0)
    h = np.array([[1, 1, 1], [1, zeta**2, zeta], [1, zeta, zeta**2]], dtype=complex) / math.sqrt(3.0)
    phases = np.exp(1j * np.array([rng.uniform(0.2, TWO_PI - 0.2) for _ in range(3)]))
    return {"h": _matrix_pairs(h), "v": _matrix_pairs(h * phases[None, :])}


def _cascade_request(
    rng: random.Random, recipe: str, splitters: list[str], points: int, tiny: bool, zero_delay: bool = False
) -> Request:
    sigma = _sigma(rng)
    taus = [rng.uniform(-6.0, 6.0) * sigma for _ in range(points)]
    if zero_delay:
        # Acceptance criterion 8 reads N210 at zero delay.
        taus[0] = 0.0
    return _experiment(
        recipe,
        "delay",
        taus,
        sigma,
        tiny,
        cascade={"splitters": splitters},
        tritter=_poldep_tritter(rng),
    )


def _cascade_cycle(rng: random.Random, tiny: bool) -> list[Request]:
    # all_H points cost about a fifth of static_pi points, so all_H requests
    # carry four points and every request costs about the same.
    all_h = 1 if tiny else 4
    requests = [
        _cascade_request(rng, "all_H", BEAMSPLITTERS_1_3, all_h, tiny, zero_delay=True),
        _cascade_request(rng, "all_H", TRITTER_1, all_h, tiny),
        _cascade_request(rng, "static_pi", BEAMSPLITTERS_1_3, 1, tiny),
        _cascade_request(rng, "static_pi", TRITTER_1, 1, tiny),
    ]
    rng.shuffle(requests)
    return requests


def _cascade_warmup(rng: random.Random, tiny: bool) -> list[Request]:
    return [
        _cascade_request(rng, "all_H", BEAMSPLITTERS_1_3, 1, tiny),
        _cascade_request(rng, "all_H", TRITTER_1, 1, tiny),
    ]


def _validate_request(rng: random.Random, instances: int) -> Request:
    config = {
        "mode": "validate",
        "validation": {"instances": instances, "seed": rng.randrange(2**31)},
        "output": OUTPUT,
    }
    return Request(config, instances)


def _validate_cycle(rng: random.Random, tiny: bool) -> list[Request]:
    # Instances cycle through 2, 3 and 4 photons, so a multiple of three
    # keeps the photon-number mix fixed.
    return [_validate_request(rng, 3 if tiny else 12)]


def _validate_warmup(rng: random.Random, tiny: bool) -> list[Request]:
    return [_validate_request(rng, 3)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ideal-scans", _ideal_cycle, _ideal_cycle, 4),
        Workload("experiment-triad", _triad_cycle, _triad_warmup, 2),
        Workload("experiment-cascade-poldep", _cascade_cycle, _cascade_warmup, 1),
        Workload("validate", _validate_cycle, _validate_warmup, 4),
    )
}


# ---------------------------------------------------------------------------
# Reading outputs back


@dataclass
class Series:
    """A series file read back: column name -> values, x column first."""

    x_name: str
    columns: dict[str, list[float]]

    @property
    def x(self) -> list[float]:
        return self.columns[self.x_name]


def read_series(out_dir: Path) -> Series:
    with open(out_dir / f"{OUTPUT}_series.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = {name: [float(row[i]) for row in body] for i, name in enumerate(header)}
    return Series(header[0], columns)


def read_metadata(out_dir: Path) -> dict:
    with open(out_dir / f"{OUTPUT}_metadata.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_output(request: Request, out_dir: Path):
    """The output a request's check needs: a Series, or the validate metadata."""
    if request.mode == "validate":
        return read_metadata(out_dir)
    read_metadata(out_dir)  # every run writes its metadata; a missing file fails
    return read_series(out_dir)


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; an empty list passes.


def _grid_values(grid: dict) -> np.ndarray:
    if "values" in grid:
        return np.asarray(grid["values"], dtype=float)
    return np.linspace(grid["start"], grid["stop"], grid["points"])


def _grams(config: dict) -> list[np.ndarray]:
    """Gram matrix of every point of an ideal scan, built from its config."""
    from triphoton.experiment import (
        delay_scan_preparations,
        prepare,
        theta_for_phase,
        triad_scan_preparations,
    )
    from triphoton.modes import gram_matrix

    prep = config["preparation"]
    xs = _grid_values(config["grid"])
    if config["grid"]["kind"] == "delay":
        preps = delay_scan_preparations(prep["recipe"], xs, prep["sigma"])
    else:
        preps = triad_scan_preparations([theta_for_phase(x) for x in xs], prep["sigma"])
    return [gram_matrix(prepare(p)).entries for p in preps]


def check_ideal(request: Request, series: Series) -> list[str]:
    """Closed forms evaluated on each point's Gram matrix; 7/36 marginals on triad scans."""
    from triphoton.interference import tritter_bunched, tritter_p111

    grid = request.config["grid"]
    problems = []
    if len(series.x) != grid["points"]:
        return [f"expected {grid['points']} rows, got {len(series.x)}"]
    classes = {
        "P300": ("P300", "P030", "P003"),
        "P120_class": ("P120", "P012", "P201"),
        "P021_class": ("P021", "P210", "P102"),
    }
    for i, g in enumerate(_grams(request.config)):
        r12, r23, r31 = abs(g[0, 1]), abs(g[1, 2]), abs(g[2, 0])
        phi = float(np.angle(g[0, 1] * g[1, 2] * g[2, 0]))
        expected = {
            "P111": tritter_p111(r12, r23, r31, phi),
            "P110": (2.0 - r12 * r12) / 9.0,
            "P011": (2.0 - r23 * r23) / 9.0,
            "P101": (2.0 - r31 * r31) / 9.0,
        }
        for cls, value in tritter_bunched(r12, r23, r31, phi).items():
            expected.update((name, value) for name in classes[cls])
        if grid["kind"] == "triad":
            expected.update(P110=7.0 / 36.0, P011=7.0 / 36.0, P101=7.0 / 36.0)
        for name, value in expected.items():
            got = series.columns[name][i] if name in series.columns else math.nan
            if not abs(got - value) <= TOL:
                problems.append(f"point {i}: {name} = {got!r}, closed form {value!r}")
    return problems


def check_experiment(request: Request, series: Series) -> list[str]:
    """Click patterns per point lie in [0, 1] and sum to 1."""
    splitters = request.config.get("cascade", {}).get("splitters", ["none"] * 3)
    n_patterns = math.prod(LEAVES[s] + 1 for s in splitters)
    names = [name for name in series.columns if name.startswith("N")]
    if len(names) != n_patterns:
        return [f"expected {n_patterns} click patterns, got {len(names)}"]
    if len(series.x) != request.units:
        return [f"expected {request.units} rows, got {len(series.x)}"]
    problems = []
    for i in range(len(series.x)):
        values = [series.columns[name][i] for name in names]
        out_of_band = [v for v in values if not 0.0 <= v <= 1.0]
        if out_of_band:
            problems.append(f"point {i}: click probabilities outside [0, 1]: {out_of_band}")
        total = math.fsum(values)
        if not abs(total - 1.0) <= TOL:
            problems.append(f"point {i}: click patterns sum to {total!r}")
    return problems


def check_validate(request: Request, metadata: dict) -> list[str]:
    """The oracle and the engine agree on every instance."""
    report = metadata.get("provenance", {})
    problems = []
    if report.get("instances") != request.units or not report.get("events_checked"):
        problems.append(f"validate report incomplete: {report}")
    deviation = report.get("max_deviation", math.nan)
    if not deviation < VALIDATE_MAX_DEVIATION:
        problems.append(f"max deviation {deviation!r} not below {VALIDATE_MAX_DEVIATION}")
    return problems


CHECKS = {"ideal-scan": check_ideal, "experiment": check_experiment, "validate": check_validate}


def check(request: Request, output) -> list[str]:
    return CHECKS[request.mode](request, output)
