"""Configuration-driven command line front end.

Subcommands: ``run <config.json>`` executes a scan/simulation described by a
JSON configuration, ``validate`` runs the oracle-equivalence suite and
``version`` prints the library version.  Every mode of ``run`` ends in one
writer: the series, in the configuration's ``format``, for the two modes
that have one, then the metadata file.  Series are written deterministically
(17 significant digits, no timestamps).  The metadata file echoes the fully
resolved configuration, a default grid as its explicit range, so it is
itself a valid configuration that reproduces the run; its ``provenance``
block holds the mode's report.

``CONFIG_SCHEMA`` declares the configuration in JSON Schema 2020-12, and
``_errors`` checks a configuration against it without a schema library.  The
checker implements only the keywords the schema uses, in jsonschema's
wording: ``type`` (a bool is no number, and an integer must be a JSON
integer), ``enum``, ``const``, ``not``, ``pattern``, ``minimum``,
``exclusiveMinimum``, ``maximum``, ``exclusiveMaximum``, ``minItems``,
``maxItems``, ``items``, ``properties``, ``additionalProperties: false``,
``required``, ``dependentRequired``, ``dependentSchemas`` and ``if``/``then``.
The tests check it against jsonschema and fail on any other keyword.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import operator
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, NumericalInconsistency, TriphotonError
from .experiment import (
    GRID_RECIPES,
    RECIPES,
    SPLITTER_LEAVES,
    DetectionCascade,
    ScanResult,
    _ideal_scan,
    scan_points,
    simulate_counts,
)
from .interference import DEFAULT_MAX_PHOTONS, Network
from .modes import circular_distance, qubit_triad_phase
from .oracle import equivalence_report
from .source import SourceParams

VALIDATION_DEFAULTS = {"instances": 100, "seed": 20260810}

# The blocks each mode reads, with ``format`` for the modes that write a
# series; any other block in its configuration is an error.
MODE_BLOCKS = {
    "ideal-scan": ("format", "preparation", "grid"),
    "experiment": ("format", "preparation", "grid", "source", "cascade", "tritter"),
    "validate": ("validation",),
    "qubit-analysis": ("qubit",),
}

_NUMBER = {"type": "number"}
_MODULUS = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
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
        "mode": {"enum": list(MODE_BLOCKS)},
        "format": {"enum": ["csv", "json"]},
        # A file name prefix inside the output directory: no separator, so it
        # names no other directory, and no NUL, which no path may hold.
        "output": {"type": "string", "pattern": "^[^/\\x00]*$"},
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
                "kind": {"enum": list(GRID_RECIPES)},
                "start": _NUMBER,
                "stop": _NUMBER,
                "points": {"type": "integer", "minimum": 2, "maximum": 10000},
                "values": {"type": "array", "minItems": 1, "maxItems": 10000, "items": _NUMBER},
            },
            # Explicit values or a complete range, never both.  ({"not": {}}
            # rejects any value; unlike False, it reports the key's location.)
            "dependentRequired": {
                "start": ["stop", "points"],
                "stop": ["start", "points"],
                "points": ["start", "stop"],
            },
            "dependentSchemas": {
                "values": {"properties": {k: {"not": {}} for k in ("start", "stop", "points")}}
            },
        },
        "source": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "squeezing": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                # The mixedness model realises no purity below 1/2.
                "purity": {"type": "number", "minimum": 0.5, "maximum": 1},
                "p_noise_idler": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "p_noise_signal": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                # Beyond this budget a heralded term carries more pair idlers
                # than the engine's photon cap.
                "truncation_total_photons": {
                    "type": "integer",
                    "minimum": 2,
                    "maximum": 2 * DEFAULT_MAX_PHOTONS + 1,
                },
                "truncation_noise_photons": {"type": "integer", "minimum": 0},
                "herald_efficiency": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
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
                    "items": {"enum": list(SPLITTER_LEAVES)},
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
                "instances": {"type": "integer", "minimum": 1, "maximum": 100000},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "qubit": {
            "type": "object",
            "additionalProperties": False,
            "required": ["r12", "r23", "r31"],
            "properties": {
                "r12": _MODULUS,
                "r23": _MODULUS,
                "r31": _MODULUS,
                "measured_phi": _NUMBER,
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
            },
            "dependentRequired": {"tolerance": ["measured_phi"]},
        },
        "provenance": {"type": "object"},
    },
    "if": {"required": ["mode"], "properties": {"mode": {"const": "qubit-analysis"}}},
    "then": {"required": ["qubit"]},
}


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    # The draft's "integer" also admits integral floats such as 3.0, which
    # range() and linspace() refuse; a count in a config must be a JSON integer.
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
}

# Each numeric bound: the comparison that breaks it, and jsonschema's wording.
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}


def _valid(value, schema) -> bool:
    return next(_errors(value, schema), None) is None


def _errors(value, schema: dict, path: str = "$"):
    """Yield ``(JSON path, message)`` for each way ``value`` breaks ``schema``.

    Paths and messages are jsonschema's for the keywords the module
    docstring lists; ``schema`` uses no other keyword, its enum and const
    values are strings and its property names are plain identifiers.
    """
    if "type" in schema and not _TYPES[schema["type"]](value):
        yield path, f"{value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if "const" in schema and value != schema["const"]:
        yield path, f"{schema['const']!r} was expected"
    if "not" in schema and _valid(value, schema["not"]):
        yield path, f"{value!r} should not be valid under {schema['not']!r}"
    if "if" in schema and "then" in schema and _valid(value, schema["if"]):
        yield from _errors(value, schema["then"], path)
    if isinstance(value, str) and "pattern" in schema and not re.search(schema["pattern"], value):
        yield path, f"{value!r} does not match {schema['pattern']!r}"
    if _TYPES["number"](value):
        for keyword, (breaks, words) in _BOUNDS.items():
            if keyword in schema and breaks(value, schema[keyword]):
                yield path, f"{value!r} {words} {schema[keyword]!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            yield path, f"{value!r} {short}"
        if len(value) > schema.get("maxItems", math.inf):
            long = "is expected to be empty" if schema["maxItems"] == 0 else "is too long"
            yield path, f"{value!r} {long}"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _errors(item, schema["items"], f"{path}[{i}]")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                yield from _errors(value[key], sub, f"{path}.{key}")
        extras = sorted((key for key in value if key not in properties), key=str)
        if schema.get("additionalProperties", True) is False and extras:
            listed = ", ".join(repr(key) for key in extras)
            verb = "was" if len(extras) == 1 else "were"
            yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        for key, needed in schema.get("dependentRequired", {}).items():
            if key in value:
                for each in needed:
                    if each not in value:
                        yield path, f"{each!r} is a dependency of {key!r}"
        for key, sub in schema.get("dependentSchemas", {}).items():
            if key in value:
                yield from _errors(value, sub, path)


def _number(text: str) -> float | int:
    value = float(text)  # any number of digits, where int() takes at most 4300
    if not math.isfinite(value):
        raise ConfigError(f"number {text[:40]}{'...' * (len(text) > 40)} has no finite float")
    return int(text) if text.lstrip("-").isdigit() else value


def _flag_number(name: str, text: str) -> float | int:
    """A command line flag's number, read like a number in a config."""
    try:
        return _number(text)
    except ValueError:
        raise ConfigError(f"--{name}: {text[:40]!r} is not a number") from None
    except ConfigError as exc:
        raise ConfigError(f"--{name}: {exc}") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is an error, not its last value."""
    value = {}
    for key, item in pairs:
        if key in value:
            raise ConfigError(f"key {key!r} appears more than once in an object")
        value[key] = item
    return value


def load_config(path: str | Path) -> dict:
    """Read and schema-validate a configuration file; numbers with no finite float are rejected."""
    numbers = dict.fromkeys(("parse_float", "parse_int", "parse_constant"), _number)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys, **numbers)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _checked(raw)


def _checked(raw) -> dict:
    """``raw`` if it satisfies the schema and holds only blocks its mode reads."""
    # In the order of _errors, which lists array items by ascending index.
    details = [f"{path}: {message}" for path, message in _errors(raw, CONFIG_SCHEMA)]
    mode = raw.get("mode") if isinstance(raw, dict) else None
    # A list, not the dict: an unhashable mode is a schema error, not a TypeError.
    if mode in list(MODE_BLOCKS):
        blocks = {block for read in MODE_BLOCKS.values() for block in read}
        details += [
            f"$.{key}: {mode} mode does not read this block"
            for key in sorted(raw)
            if key in blocks and key not in MODE_BLOCKS[mode]
        ]
    if details:
        # At most ten details, each cut to 200 characters: 10000 bad values stay one short line.
        more = f"; ... and {len(details) - 10} more" if len(details) > 10 else ""
        raise ConfigError(f"invalid config: {'; '.join(map(_elided, details[:10]))}{more}")
    return raw


def _elided(detail: str) -> str:
    """``detail`` with all but 200 characters of a long value cut: its path and broken rule stay."""
    if len(detail) <= 200:
        return detail
    return f"{detail[:100]} ...{len(detail) - 200} characters... {detail[-100:]}"


def _defaults(cls) -> dict:
    """The dataclass's field defaults, with tuples as JSON lists."""
    return {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in dataclasses.fields(cls)
    }


def _resolved(config: dict) -> dict:
    """Configuration with all defaults filled in (round-trips through run())."""
    mode = config["mode"]
    out = {"mode": mode, "output": config.get("output", "run")}
    if mode in ("ideal-scan", "experiment"):
        out["format"] = config.get("format", "csv")
        prep = dict(config.get("preparation", {}))
        prep.setdefault("recipe", "all_H")
        prep.setdefault("sigma", 1.0)
        out["preparation"] = prep
        grid = dict(config.get("grid", {}))
        grid.setdefault("kind", "delay" if prep["recipe"] in GRID_RECIPES["delay"] else "triad")
        if "values" not in grid and "points" not in grid:
            # Echoed as the range it runs, so the metadata reproduces the run alone.
            reach = 12.0 * prep["sigma"]
            default = {"delay": (-reach, reach, 61), "triad": (0.0, 2.0 * math.pi, 33)}
            grid.update(zip(("start", "stop", "points"), default[grid["kind"]]))
        out["grid"] = grid
    if mode == "experiment":
        out["source"] = {**_defaults(SourceParams), **config.get("source", {})}
        out["cascade"] = {**_defaults(DetectionCascade), **config.get("cascade", {})}
        if "tritter" in config:
            out["tritter"] = config["tritter"]
    if mode == "validate":
        out["validation"] = {**VALIDATION_DEFAULTS, **config.get("validation", {})}
    if "qubit" in config:
        q = dict(config["qubit"])
        if "measured_phi" in q:
            q.setdefault("tolerance", 0.05)
        out["qubit"] = q
    return out


def _grid_values(grid: dict) -> np.ndarray:
    if "values" in grid:
        return np.asarray(grid["values"], dtype=float)
    # Python ints beyond int64 would make an object array.
    return np.linspace(float(grid["start"]), float(grid["stop"]), grid["points"])


def write_series(result: ScanResult, path: Path, fmt: str) -> None:
    """Write the x values and every series: CSV rows of 17 significant digits, or JSON lists.

    Every value goes through one ``(points, 1 + series)`` float table, made
    Python floats at once by ``tolist``; a CSV row is one format call.
    """
    names = list(result.series)
    table = np.column_stack([result.x_values] + [result.series[name] for name in names])
    if fmt == "csv":
        row = ",".join(["{:.17g}"] * table.shape[1])
        lines = [",".join([result.x_name] + names)]
        lines += [row.format(*values) for values in table.tolist()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        columns = table.T.tolist()
        payload = {
            "x": {"name": result.x_name, "values": columns[0]},
            "series": dict(zip(names, columns[1:])),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_metadata(path: Path, resolved: dict, report: dict) -> None:
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    provenance = {"library_version": __version__, "timestamp": now, **report}
    payload = {**resolved, "provenance": provenance}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_scan(resolved: dict) -> ScanResult:
    """The ideal or noisy model on the points of the configured grid."""
    prep, grid = resolved["preparation"], resolved["grid"]
    values = _grid_values(grid)
    try:
        points = scan_points(grid["kind"], prep["recipe"], values, prep["sigma"])
    except DomainError as exc:
        raise ConfigError(f"$.grid.kind: {exc}") from exc
    if resolved["mode"] == "ideal-scan":
        return _ideal_scan(points)
    source = SourceParams(**resolved["source"])
    cascade = DetectionCascade(
        tuple(resolved["cascade"]["splitters"]), resolved["cascade"]["detector_efficiency"]
    )
    networks = {}
    for key, rows in resolved.get("tritter", {}).items():
        try:
            networks[key] = Network(np.array([[complex(*z) for z in row] for row in rows]))
        except DomainError as exc:
            raise ConfigError(f"$.tritter.{key}: {exc}") from exc
    return simulate_counts(points, source, cascade, networks.get("h"), networks.get("v"))


def _validate(instances: int, seed: int) -> tuple[dict, int]:
    """Run the oracle-equivalence report, print its summary line, return it and the exit code."""
    report = equivalence_report(instances, seed)
    print(
        f"validated {report['events_checked']} events over "
        f"{report['instances']} instances; max deviation {report['max_deviation']:.3e}"
    )
    return report, 0 if report["max_deviation"] < 1e-9 else 3


def _qubit_analysis(q: dict) -> dict:
    """The triad phases of three qubit states with the block's overlap moduli; prints the report."""
    phases = qubit_triad_phase(q["r12"], q["r23"], q["r31"])
    report = {key: q[key] for key in ("r12", "r23", "r31")}
    report.update(feasible=bool(phases), qubit_phases=list(phases))
    if "measured_phi" in q:
        dist = min((circular_distance(q["measured_phi"], p) for p in phases), default=math.inf)
        report["measured_phi"] = q["measured_phi"]
        report["compatible_with_qubit"] = bool(dist <= q["tolerance"])
        report["distance"] = None if math.isinf(dist) else dist
    print(json.dumps(report, sort_keys=True))
    return report


@np.errstate(over="raise", invalid="raise", divide="raise")
def run(config_path: str, out_dir: str | None = None) -> int:
    """Execute a configuration; returns the process exit code.

    Every mode ends the same way: its series, when it has a ``format``, and
    the metadata file, whose ``provenance`` holds the mode's report.  numpy's
    overflow, invalid-value and divide-by-zero results raise during the run,
    so a non-finite intermediate ends it with exit 3 instead of reaching a
    data file.
    """
    try:
        resolved = _resolved(load_config(config_path))
        mode, prefix = resolved["mode"], resolved["output"]
        if "format" in resolved:
            result = _run_scan(resolved)
            report, code = result.metadata, 0
        elif mode == "validate":
            report, code = _validate(**resolved["validation"])
        else:
            report, code = _qubit_analysis(resolved["qubit"]), 0
        # Made only once a run has something to write: a rejected run leaves
        # no directory behind.
        directory = Path(out_dir) if out_dir else Path(".")
        directory.mkdir(parents=True, exist_ok=True)
        if "format" in resolved:
            series_path = directory / f"{prefix}_series.{resolved['format']}"
            write_series(result, series_path, resolved["format"])
            print(f"wrote {series_path}")
        _write_metadata(directory / f"{prefix}_metadata.json", resolved, report)
        return code
    except ConfigError as exc:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="triphoton",
        description="Simulator for interference of partially distinguishable photons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON configuration")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=None)

    p_val = sub.add_parser("validate", help="run the oracle-equivalence suite")
    for key, default in VALIDATION_DEFAULTS.items():
        p_val.add_argument(f"--{key}", default=str(default))

    sub.add_parser("version", help="print the library version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "validate":
        # The flags obey the number rule and the schema of a config's
        # validation block.
        try:
            validation = {key: _flag_number(key, getattr(args, key)) for key in VALIDATION_DEFAULTS}
            _checked({"mode": "validate", "validation": validation})
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return _validate(validation["instances"], validation["seed"])[1]
    return run(args.config, args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
