"""Mutated configurations end with exit code 0, 2 or 3, never an exception.

Each example starts from a small valid configuration and applies one to three
mutations read off ``CONFIG_SCHEMA``: drop a key or list item, add a key the
schema does not know (the keys earlier versions accepted among them), or swap
in a value of the wrong type or out of the schema's range.  The schema caps
the photon budget, so no mutated experiment runs longer than a default-budget
run of the default grid.
"""

import cmath
import copy
import json
import math
import re
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton.cli import CONFIG_SCHEMA, _errors, run


def _tritter(phases):
    """Balanced tritter with input phase shifts, as nested [re, im] pairs."""
    zeta = cmath.exp(2j * math.pi / 3)
    return [
        [
            [z.real, z.imag]
            for z in (zeta ** (j * k) * cmath.exp(1j * phases[k]) / math.sqrt(3) for k in range(3))
        ]
        for j in range(3)
    ]


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
    "experiment": {
        "mode": "experiment",
        "preparation": {"recipe": "static_pi", "sigma": 1.0},
        "grid": {"kind": "delay", "values": [0.0, 1.5]},
        "source": {"truncation_total_photons": 6, "truncation_noise_photons": 1},
        "cascade": {"splitters": ["beamsplitter_2way", "none", "tritter_3way"]},
        "tritter": {"h": _tritter([0.0, 0.0, 0.0]), "v": _tritter([0.4, 1.9, 3.1])},
        "output": "m",
        "format": "csv",
    },
}

# A width and a delay whose squares overflow.
HUGE_WIDTH = dict(
    BASES["ideal-scan delay"],
    preparation={"recipe": "all_H", "sigma": 1e200},
    grid={"kind": "delay", "values": [1e200]},
)

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


def _with_literal(base, path, literal: str) -> str:
    """``base`` as JSON text with the number at ``path`` written as ``literal``."""
    config = copy.deepcopy(base)
    _get(config, path[:-1])[path[-1]] = 12345.0
    return json.dumps(config).replace("12345.0", literal)


def _exit_code(config, tmp: Path) -> int:
    """Run ``config``, or the JSON text it is if a string, in ``tmp``."""
    path = tmp / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    return run(str(path), out_dir=str(tmp / "out"))


def _misuse_property(base):
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(mutated_configs(base))
    def check(config):
        with tempfile.TemporaryDirectory() as tmp:
            assert _exit_code(config, Path(tmp)) in (0, 2, 3)

    return check


def test_bases_run(tmp_path):
    for base in BASES.values():
        assert _exit_code(base, tmp_path) == 0


@pytest.mark.parametrize(
    "config, code",
    [
        # An integral float is not a count.
        ({"mode": "validate", "validation": {"instances": 2.0}}, 2),
        # The output prefix names a directory that does not exist.
        (dict(BASES["qubit-analysis"], output="missing/m"), 2),
        # No path holds a NUL.
        (dict(BASES["qubit-analysis"], output="a\x00b"), 2),
        # A subnormal width, which has lost digits: the run rejects it by name.
        (dict(BASES["ideal-scan triad"], preparation={"recipe": "dynamic", "sigma": 1e-308}), 2),
        # Moduli so small that their squares and product underflow to 0: no
        # qubit holds three nearly orthogonal states, and the run says so.
        ({"mode": "qubit-analysis", "qubit": {"r12": 1e-308, "r23": 1e-308, "r31": 1e-308}}, 0),
        # A range whose width overflows.
        (
            dict(
                BASES["ideal-scan triad"],
                grid={"kind": "triad", "start": -1e308, "stop": 1e308, "points": 3},
            ),
            3,
        ),
        # More grid points than the schema's cap of 10000.
        (
            dict(
                BASES["ideal-scan triad"],
                grid={"kind": "triad", "start": 0.0, "stop": 1.0, "points": 2**70},
            ),
            2,
        ),
        # Overlap moduli outside (0, 1].
        ({"mode": "qubit-analysis", "qubit": {"r12": 2.0, "r23": 0.5, "r31": 0.5}}, 2),
        ({"mode": "qubit-analysis", "qubit": {"r12": 0, "r23": 0.5, "r31": 0.5}}, 2),
        # More validation instances than the schema's cap of 100000.
        ({"mode": "validate", "validation": {"instances": 10**12, "seed": 1}}, 2),
        # The delay enters over the width, so nothing overflows: the run is
        # the one at width 1 (test_huge_width).
        (HUGE_WIDTH, 0),
        # An integer beyond int64 is still a float: the range is one of floats.
        pytest.param(
            dict(
                BASES["ideal-scan triad"],
                grid={"kind": "triad", "start": -(10**19), "stop": 1.0, "points": 3},
            ),
            0,
            id="start-beyond-int64",
        ),
        # Integers with no finite float, like 1e400: 401 digits, and more
        # than the 4300 that int() reads.
        pytest.param(
            _with_literal(BASES["ideal-scan triad"], ("preparation", "sigma"), "1" * 401),
            2,
            id="sigma-401-digits",
        ),
        pytest.param(
            _with_literal(BASES["ideal-scan triad"], ("preparation", "sigma"), "1" * 5001),
            2,
            id="sigma-5001-digits",
        ),
        pytest.param(
            _with_literal(BASES["validate"], ("validation", "seed"), "1" * 401),
            2,
            id="seed-401-digits",
        ),
    ],
)
def test_extreme_inputs(config, code, tmp_path, capsys):
    assert _exit_code(config, tmp_path) == code
    if code == 2 and isinstance(config, str):
        assert "has no finite float" in capsys.readouterr().err
    if code == 0 and config["mode"] == "qubit-analysis":
        metadata = json.loads((tmp_path / "out" / "run_metadata.json").read_text(encoding="utf-8"))
        assert metadata["provenance"]["feasible"] is False
    elif code == 0:
        assert (tmp_path / "out" / f"{config['output']}_series.{config['format']}").exists()


def test_huge_width(tmp_path):
    # Delays enter over the width: this is the run of the delay 1 at width 1.
    unit = dict(
        HUGE_WIDTH,
        preparation={"recipe": "all_H", "sigma": 1.0},
        grid={"kind": "delay", "values": [1.0]},
    )
    series = []
    for name, config in (("huge", HUGE_WIDTH), ("unit", unit)):
        (tmp_path / name).mkdir()
        assert _exit_code(config, tmp_path / name) == 0
        text = (tmp_path / name / "out" / "m_series.json").read_text(encoding="utf-8")
        series.append(json.loads(text)["series"])
    assert series[0] == series[1]


test_mutated_ideal_triad_scan = _misuse_property(BASES["ideal-scan triad"])
test_mutated_ideal_delay_scan = _misuse_property(BASES["ideal-scan delay"])
test_mutated_qubit_analysis = _misuse_property(BASES["qubit-analysis"])
test_mutated_validate = _misuse_property(BASES["validate"])
test_mutated_experiment = _misuse_property(BASES["experiment"])


# The reference checker: the draft's validator with a config's integer rule.
_Reference = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)


def _reference_errors(config):
    return sorted((e.json_path, e.message) for e in _Reference(CONFIG_SCHEMA).iter_errors(config))


def _agreement_property(base):
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(mutated_configs(base))
    def check(config):
        assert sorted(_errors(config, CONFIG_SCHEMA)) == _reference_errors(config)

    return check


test_checker_agrees_on_ideal_triad_scan = _agreement_property(BASES["ideal-scan triad"])
test_checker_agrees_on_ideal_delay_scan = _agreement_property(BASES["ideal-scan delay"])
test_checker_agrees_on_qubit_analysis = _agreement_property(BASES["qubit-analysis"])
test_checker_agrees_on_validate = _agreement_property(BASES["validate"])
test_checker_agrees_on_experiment = _agreement_property(BASES["experiment"])


@pytest.mark.parametrize(
    "config, expected",
    [
        # A bool is not a number, and an integral float is not a count.
        (
            {"mode": "experiment", "source": {"purity": True}},
            [("$.source.purity", "True is not of type 'number'")],
        ),
        (
            {"mode": "validate", "validation": {"instances": 2.0}},
            [("$.validation.instances", "2.0 is not of type 'integer'")],
        ),
        # A configuration that is not an object.
        ([], [("$", "[] is not of type 'object'")]),
        (None, [("$", "None is not of type 'object'")]),
        # Unknown keys are listed in sorted order, whatever order they came in.
        (
            {"mode": "ideal-scan", "grid": {"zeta": 1, "alpha": 2}},
            [("$.grid", "Additional properties are not allowed ('alpha', 'zeta' were unexpected)")],
        ),
        # Explicit values or a complete range, never both.
        (
            {"mode": "ideal-scan", "grid": {"values": [0.0], "start": 0.0}},
            [
                ("$.grid", "'points' is a dependency of 'start'"),
                ("$.grid", "'stop' is a dependency of 'start'"),
                ("$.grid.start", "0.0 should not be valid under {}"),
            ],
        ),
        # Qubit analysis reads the qubit block.
        ({"mode": "qubit-analysis"}, [("$", "'qubit' is a required property")]),
        # Lists below and above their length bounds.
        (
            {"mode": "ideal-scan", "grid": {"values": []}},
            [("$.grid.values", "[] should be non-empty")],
        ),
        (
            {"mode": "experiment", "cascade": {"splitters": ["none"] * 4}},
            [("$.cascade.splitters", "['none', 'none', 'none', 'none'] is too long")],
        ),
    ],
)
def test_checker_hand_cases(config, expected):
    assert sorted(_errors(config, CONFIG_SCHEMA)) == expected
    assert _reference_errors(config) == expected


# The keywords ``cli._errors`` implements: those whose value is a subschema,
# those whose value maps names to subschemas, and the rest.
SUBSCHEMA_KEYWORDS = {"items", "not", "if", "then"}
SCHEMA_MAP_KEYWORDS = {"properties", "dependentSchemas"}
VALUE_KEYWORDS = set(
    "type enum const pattern minimum exclusiveMinimum maximum exclusiveMaximum minItems"
    " maxItems additionalProperties required dependentRequired".split()
)


def _unchecked(schema, where="$schema"):
    """Where ``schema`` or a schema inside it uses a keyword, or a form, the checker lacks."""
    unknown = set(schema) - SUBSCHEMA_KEYWORDS - SCHEMA_MAP_KEYWORDS - VALUE_KEYWORDS
    if unknown:
        yield f"{where} uses {sorted(unknown)}"
    if schema.get("type", "object") not in ("object", "array", "string", "number", "integer"):
        yield f"{where} has type {schema['type']!r}"
    if schema.get("additionalProperties", False) is not False:
        yield f"{where} admits additional properties by a schema"
    if not all(isinstance(v, str) for v in schema.get("enum", []) + [schema.get("const", "")]):
        yield f"{where} compares with a value that is not a string"
    for name in schema.get("properties", {}):
        if not re.fullmatch("[a-zA-Z][a-zA-Z0-9_]*", name):
            yield f"{where} names {name!r}, which a JSON path quotes"
    for keyword in sorted(SUBSCHEMA_KEYWORDS & set(schema)):
        yield from _unchecked(schema[keyword], f"{where}.{keyword}")
    for keyword in sorted(SCHEMA_MAP_KEYWORDS & set(schema)):
        for name, sub in schema[keyword].items():
            yield from _unchecked(sub, f"{where}.{keyword}.{name}")


def test_schema_uses_only_what_the_checker_implements():
    # Anything else would be ignored without notice.
    assert list(_unchecked(CONFIG_SCHEMA)) == []


def test_unchecked_keyword_is_found():
    schema = {"properties": {"grid": {"items": {"uniqueItems": True}}}}
    assert list(_unchecked(schema)) == ["$schema.properties.grid.items uses ['uniqueItems']"]
