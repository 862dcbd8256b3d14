"""Mutated configurations end with exit code 0, 2 or 3, never an exception.

Each example starts from a small valid configuration and applies one to three
mutations read off ``CONFIG_SCHEMA``: drop a key or list item, add a key the
schema does not know (the keys earlier versions accepted among them), or swap
in a value of the wrong type or out of the schema's range.  Experiment mode is
left out: a mutated photon budget can run for minutes.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton.cli import CONFIG_SCHEMA, run

BASES = {
    "ideal-scan triad": {
        "mode": "ideal-scan",
        "preparation": {"recipe": "dynamic", "sigma": 1.0},
        "grid": {"kind": "triad", "start": 0.0, "stop": 2 * math.pi, "points": 5},
        "output": "m",
        "format": "csv",
    },
    "ideal-scan delay": {
        "mode": "ideal-scan",
        "preparation": {"recipe": "static_pi", "sigma": 0.7},
        "grid": {"kind": "delay", "values": [-3.0, 0.0, 1.5]},
        "output": "m",
        "format": "json",
    },
    "qubit-analysis": {
        "mode": "qubit-analysis",
        "qubit": {"r12": 0.5, "r23": 0.5, "r31": 0.5, "measured_phi": 3.0, "tolerance": 0.05},
        "output": "m",
    },
    "validate": {
        "mode": "validate",
        "validation": {"instances": 3, "seed": 7},
        "output": "m",
    },
}

# Without these the run falls back to a default grid (33 or 61 points) or to
# 100 validation instances, beyond the sizes this property keeps to.
NEVER_DROPPED = {("grid",), ("validation",), ("validation", "instances")}

UNKNOWN_KEYS = ("seed", "central_frequency", "polarizations", "theta", "delays", "sourc")

WRONG_VALUES = (
    None, True, "text", "a/b", "a\x00b", [], {}, [0.5, 1.5], -1, 0, 2.5, 1e308, -1e308, 1e-308
)


def _paths(node, path=()):
    """Every location in a JSON value: the root, dict keys and list items."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _schema_at(path):
    schema = CONFIG_SCHEMA
    for key in path:
        if isinstance(key, str) and key in schema.get("properties", {}):
            schema = schema["properties"][key]
        elif isinstance(key, int) and "items" in schema:
            schema = schema["items"]
        else:
            return {}
    return schema


def _bad_values(schema):
    """Wrong-type values, plus values just outside the schema's bounds and enum."""
    values = list(WRONG_VALUES)
    if "enum" in schema:
        values += ["custom", "frobnicate"]
    for bound in ("minimum", "exclusiveMinimum"):
        if bound in schema:
            values.append(schema[bound] - 1)
    for bound in ("maximum", "exclusiveMaximum"):
        if bound in schema:
            values.append(schema[bound] + 1)
    if "minItems" in schema:
        values.append([0.0] * (schema["minItems"] - 1))
    if "maxItems" in schema:
        values.append([0.0] * (schema["maxItems"] + 1))
    return values


@st.composite
def mutated_configs(draw, base):
    config = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(config))
        droppable = [p for p in paths if p and p not in NEVER_DROPPED]
        tables = [p for p in paths if isinstance(_get(config, p), dict)]
        kinds = [k for k, ok in (("drop", droppable), ("add", tables), ("swap", paths)) if ok]
        kind = draw(st.sampled_from(kinds))
        if kind == "drop":
            path = draw(st.sampled_from(droppable))
            del _get(config, path[:-1])[path[-1]]
        elif kind == "add":
            table = _get(config, draw(st.sampled_from(tables)))
            value = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
            table[draw(st.sampled_from(UNKNOWN_KEYS))] = value
        else:
            path = draw(st.sampled_from(paths))
            value = copy.deepcopy(draw(st.sampled_from(_bad_values(_schema_at(path)))))
            if path:
                _get(config, path[:-1])[path[-1]] = value
            else:
                config = value
    return config


def _exit_code(config) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return run(str(path), out_dir=str(Path(tmp) / "out"))


def _misuse_property(base):
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(mutated_configs(base))
    def check(config):
        assert _exit_code(config) in (0, 2, 3)

    return check


def test_bases_run():
    for base in BASES.values():
        assert _exit_code(base) == 0


@pytest.mark.parametrize(
    "config, code",
    [
        # An integral float is not a count.
        ({"mode": "validate", "validation": {"instances": 2.0}}, 2),
        # The output prefix names a directory that does not exist.
        (dict(BASES["qubit-analysis"], output="missing/m"), 2),
        # No path holds a NUL.
        (dict(BASES["qubit-analysis"], output="a\x00b"), 2),
        # A width so small that 4 sigma^2 underflows to zero.
        (dict(BASES["ideal-scan triad"], preparation={"recipe": "dynamic", "sigma": 1e-308}), 3),
        # Moduli so small that the qubit geometry's denominator underflows.
        ({"mode": "qubit-analysis", "qubit": {"r12": 1e-308, "r23": 1e-308, "r31": 1e-308}}, 3),
        # A range whose width overflows.
        (
            dict(
                BASES["ideal-scan triad"],
                grid={"kind": "triad", "start": -1e308, "stop": 1e308, "points": 3},
            ),
            3,
        ),
    ],
)
def test_extreme_inputs(config, code):
    assert _exit_code(config) == code


test_mutated_ideal_triad_scan = _misuse_property(BASES["ideal-scan triad"])
test_mutated_ideal_delay_scan = _misuse_property(BASES["ideal-scan delay"])
test_mutated_qubit_analysis = _misuse_property(BASES["qubit-analysis"])
test_mutated_validate = _misuse_property(BASES["validate"])
