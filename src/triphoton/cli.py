"""Configuration-driven command line front end.

Subcommands: ``run <config.json>`` executes a scan/simulation described by a
JSON configuration, ``validate`` runs the oracle-equivalence suite and
``version`` prints the library version.  Data files are written
deterministically (17 significant digits, no timestamps); the metadata file
echoes the fully resolved configuration and is itself a valid configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .errors import ConfigError, NumericalInconsistency, TriphotonError
from .experiment import (
    GRID_RECIPES,
    IDEAL_EVENT_ORDER,
    RECIPES,
    DetectionCascade,
    ScanResult,
    default_delay_grid,
    default_phase_grid,
    delay_scan_preparations,
    scan_delays,
    scan_triad,
    simulate_counts,
    theta_for_phase,
    triad_scan_preparations,
)
from .interference import Network
from .modes import qubit_triad_phase
from .oracle import equivalence_report
from .source import SourceParams

VALIDATION_DEFAULTS = {"instances": 100, "seed": 20260810}

_NUMBER = {"type": "number"}
_MATRIX = {
    "type": "array",
    "minItems": 3,
    "maxItems": 3,
    "items": {
        "type": "array",
        "minItems": 3,
        "maxItems": 3,
        "items": {"type": "array", "minItems": 2, "maxItems": 2, "items": _NUMBER},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["mode"],
    "properties": {
        "mode": {"enum": ["ideal-scan", "experiment", "validate", "qubit-analysis"]},
        "format": {"enum": ["csv", "json"]},
        # A file name prefix; the operating system refuses a NUL in a path.
        "output": {"type": "string", "pattern": "^[^\\x00]*$"},
        "preparation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "recipe": {"enum": list(RECIPES)},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["delay", "triad"]},
                "start": _NUMBER,
                "stop": _NUMBER,
                "points": {"type": "integer", "minimum": 2},
                "values": {"type": "array", "minItems": 1, "items": _NUMBER},
            },
        },
        "source": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "squeezing": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "purity": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "p_noise_idler": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "p_noise_signal": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "truncation_total_photons": {"type": "integer", "minimum": 2},
                "truncation_noise_photons": {"type": "integer", "minimum": 0},
                "herald_efficiency": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "purity_model": {"enum": ["trace", "weight"]},
            },
        },
        "cascade": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "splitters": {
                    "type": "array",
                    "minItems": 3,
                    "maxItems": 3,
                    "items": {"enum": ["none", "beamsplitter_2way", "tritter_3way"]},
                },
                "detector_efficiency": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
        },
        "tritter": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"h": _MATRIX, "v": _MATRIX},
        },
        "validation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "instances": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "qubit": {
            "type": "object",
            "additionalProperties": False,
            "required": ["r12", "r23", "r31"],
            "properties": {
                "r12": _NUMBER,
                "r23": _NUMBER,
                "r31": _NUMBER,
                "measured_phi": _NUMBER,
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "provenance": {"type": "object"},
    },
}


# The draft's "integer" also admits integral floats such as 3.0, which range()
# and linspace() refuse; a count in a config must be a JSON integer.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def load_config(path: str | Path) -> dict:
    """Read and schema-validate a configuration file; non-finite numbers are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    errors = sorted(_Validator(CONFIG_SCHEMA).iter_errors(raw), key=lambda e: e.json_path)
    if errors:
        details = "; ".join(f"{e.json_path}: {e.message}" for e in errors)
        raise ConfigError(f"invalid config: {details}")
    return raw


def _defaults(cls) -> dict:
    """The dataclass's field defaults, with tuples as JSON lists."""
    return {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in dataclasses.fields(cls)
    }


def _resolved(config: dict) -> dict:
    """Configuration with all defaults filled in (round-trips through run())."""
    out = {
        "mode": config["mode"],
        "format": config.get("format", "csv"),
        "output": config.get("output", "run"),
    }
    prep = dict(config.get("preparation", {}))
    prep.setdefault("recipe", "all_H")
    prep.setdefault("sigma", 1.0)
    out["preparation"] = prep
    grid = dict(config.get("grid", {}))
    grid.setdefault("kind", "delay" if prep["recipe"] in GRID_RECIPES["delay"] else "triad")
    out["grid"] = grid
    src = {**_defaults(SourceParams), "purity_model": "trace"}
    out["source"] = {**src, **config.get("source", {})}
    out["cascade"] = {**_defaults(DetectionCascade), **config.get("cascade", {})}
    if "tritter" in config:
        out["tritter"] = config["tritter"]
    if "validation" in config or config["mode"] == "validate":
        out["validation"] = {**VALIDATION_DEFAULTS, **config.get("validation", {})}
    if "qubit" in config:
        q = dict(config["qubit"])
        q.setdefault("tolerance", 0.05)
        out["qubit"] = q
    return out


def _grid_values(grid: dict, sigma: float) -> np.ndarray:
    if "values" in grid:
        return np.asarray(grid["values"], dtype=float)
    kind = grid["kind"]
    if "start" in grid or "stop" in grid or "points" in grid:
        missing = [k for k in ("start", "stop", "points") if k not in grid]
        if missing:
            raise ConfigError(f"$.grid: incomplete range, missing {missing}")
        return np.linspace(grid["start"], grid["stop"], grid["points"])
    if kind == "delay":
        return default_delay_grid(sigma)
    return default_phase_grid()


def _parse_matrix(rows) -> Network:
    m = np.array([[complex(re, im) for re, im in row] for row in rows])
    return Network(m)


def _format_number(x: float) -> str:
    return f"{x:.17g}"


def write_series(result: ScanResult, path: Path, fmt: str, column_order=None) -> None:
    names = list(column_order) if column_order else sorted(result.series)
    if fmt == "csv":
        lines = [",".join([result.x_name] + names)]
        for i, x in enumerate(result.x_values):
            row = [_format_number(float(x))]
            row += [_format_number(float(result.series[name][i])) for name in names]
            lines.append(",".join(row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        payload = {
            "x": {"name": result.x_name, "values": [float(v) for v in result.x_values]},
            "series": {name: [float(v) for v in result.series[name]] for name in names},
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_metadata(path: Path, resolved: dict, extra: dict) -> None:
    payload = dict(resolved)
    payload["provenance"] = {
        "library_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **extra,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_ideal_scan(resolved: dict) -> tuple[ScanResult, list[str]]:
    prep = resolved["preparation"]
    grid = resolved["grid"]
    sigma = prep["sigma"]
    values = _grid_values(grid, sigma)
    if grid["kind"] == "delay":
        result = scan_delays(prep["recipe"], values, sigma)
    else:
        result = scan_triad(values, sigma)
    return result, list(IDEAL_EVENT_ORDER)


def _run_experiment(resolved: dict) -> tuple[ScanResult, list[str]]:
    prep = resolved["preparation"]
    grid = resolved["grid"]
    sigma = prep["sigma"]
    values = _grid_values(grid, sigma)
    src_cfg = dict(resolved["source"])
    purity_model = src_cfg.pop("purity_model")
    source = SourceParams(**src_cfg)
    cascade = DetectionCascade(
        tuple(resolved["cascade"]["splitters"]), resolved["cascade"]["detector_efficiency"]
    )
    net_h = net_v = None
    if "tritter" in resolved:
        if "h" in resolved["tritter"]:
            net_h = _parse_matrix(resolved["tritter"]["h"])
        if "v" in resolved["tritter"]:
            net_v = _parse_matrix(resolved["tritter"]["v"])
    if grid["kind"] == "delay":
        preps = delay_scan_preparations(prep["recipe"], values, sigma)
        x_name = "tau"
    else:
        preps = triad_scan_preparations([theta_for_phase(v) for v in values], sigma)
        x_name = "phi"
    result = simulate_counts(
        preps,
        source,
        cascade,
        net_h,
        net_v,
        x_values=values,
        x_name=x_name,
        purity_model=purity_model,
    )
    return result, sorted(result.series)


def _validate(instances: int, seed: int) -> tuple[dict, int]:
    """Run the oracle-equivalence report, print its summary line, return it and the exit code."""
    report = equivalence_report(instances, seed)
    print(
        f"validated {report['events_checked']} events over "
        f"{report['instances']} instances; max deviation {report['max_deviation']:.3e}"
    )
    return report, 0 if report["max_deviation"] < 1e-9 else 3


@np.errstate(over="raise", invalid="raise", divide="raise")
def run(config_path: str, out_dir: str | None = None, fmt: str | None = None) -> int:
    """Execute a configuration; returns the process exit code.

    numpy's overflow, invalid-value and divide-by-zero results raise during
    the run, so a non-finite intermediate ends it with exit 3 instead of
    reaching a data file.
    """
    try:
        config = load_config(config_path)
        resolved = _resolved(config)
        if fmt:
            resolved["format"] = fmt
        directory = Path(out_dir) if out_dir else Path(".")
        directory.mkdir(parents=True, exist_ok=True)
        prefix = resolved["output"]
        mode = resolved["mode"]
        extra: dict = {}

        if mode in ("ideal-scan", "experiment"):
            kind, recipe = resolved["grid"]["kind"], resolved["preparation"]["recipe"]
            if recipe not in GRID_RECIPES[kind]:
                scanned = " or ".join(GRID_RECIPES[kind])
                raise ConfigError(f"$.grid.kind: a {kind} grid scans {scanned}, not {recipe!r}")
            if mode == "ideal-scan":
                result, order = _run_ideal_scan(resolved)
            else:
                result, order = _run_experiment(resolved)
                extra["truncation_deficit"] = result.metadata.get("truncation_deficit")
                extra["herald_probability"] = result.metadata.get("herald_probability")
            ext = "csv" if resolved["format"] == "csv" else "json"
            series_path = directory / f"{prefix}_series.{ext}"
            write_series(result, series_path, resolved["format"], order)
            _write_metadata(directory / f"{prefix}_metadata.json", resolved, extra)
            print(f"wrote {series_path}")
            return 0

        if mode == "validate":
            val = resolved["validation"]
            report, code = _validate(val["instances"], val["seed"])
            _write_metadata(directory / f"{prefix}_metadata.json", resolved, report)
            return code

        # qubit-analysis
        if "qubit" not in resolved:
            raise ConfigError("qubit-analysis mode requires a 'qubit' block")
        q = resolved["qubit"]
        phases = qubit_triad_phase(q["r12"], q["r23"], q["r31"])
        report = {
            "r12": q["r12"],
            "r23": q["r23"],
            "r31": q["r31"],
            "feasible": bool(phases),
            "qubit_phases": list(phases),
        }
        if "measured_phi" in q:
            from .modes import circular_distance

            dist = min(
                (circular_distance(q["measured_phi"], p) for p in phases), default=math.inf
            )
            report["measured_phi"] = q["measured_phi"]
            report["compatible_with_qubit"] = bool(dist <= q["tolerance"])
            report["distance"] = None if math.isinf(dist) else dist
        out_path = directory / f"{prefix}_qubit.json"
        out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        _write_metadata(directory / f"{prefix}_metadata.json", resolved, extra)
        print(json.dumps(report, sort_keys=True))
        return 0
    except (ConfigError, jsonschema.ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (NumericalInconsistency, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical inconsistency: {exc}", file=sys.stderr)
        return 3
    except TriphotonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _validation_int(key: str):
    """argparse type for ``validation.<key>``, with the config schema's lower bound."""
    minimum = CONFIG_SCHEMA["properties"]["validation"]["properties"][key]["minimum"]

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="triphoton",
        description="Simulator for interference of partially distinguishable photons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON configuration")
    p_run.add_argument("config")
    p_run.add_argument("--format", choices=["csv", "json"], default=None)
    p_run.add_argument("--out-dir", default=None)

    p_val = sub.add_parser("validate", help="run the oracle-equivalence suite")
    for key in ("instances", "seed"):
        p_val.add_argument(f"--{key}", type=_validation_int(key), default=VALIDATION_DEFAULTS[key])

    sub.add_parser("version", help="print the library version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "validate":
        return _validate(args.instances, args.seed)[1]
    return run(args.config, args.out_dir, args.format)


if __name__ == "__main__":
    sys.exit(main())
