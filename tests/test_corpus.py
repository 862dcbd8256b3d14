"""The corpus configurations still give their recorded series, to 1e-12.

See ``same_numbers.py`` for the corpus and how to regenerate it.
"""

import json

import numpy as np
import pytest

from same_numbers import CORPUS, mismatches, parse, run_series

CASES = sorted(p.stem for p in CORPUS.glob("*.json"))


def test_every_config_has_a_series():
    assert CASES
    assert sorted(p.stem for p in CORPUS.glob("*.csv")) == CASES


@pytest.mark.parametrize("name", CASES)
def test_same_numbers(name, tmp_path):
    code, actual = run_series(CORPUS / f"{name}.json", tmp_path)
    assert code == 0
    assert mismatches((CORPUS / f"{name}.csv").read_text(), actual) == []


@pytest.mark.parametrize(
    "config, code",
    [
        pytest.param({"mode": "experiment", "source": {"purity": 0.4}}, 2, id="purity"),
        pytest.param(
            {"mode": "ideal-scan", "preparation": {"recipe": "all_H"}, "grid": {"kind": "triad"}},
            2,
            id="grid-recipe",
        ),
        pytest.param({"mode": "ideal-scan", "preparation": {"sigma": 1e-320}}, 3, id="sigma"),
    ],
)
def test_rejected_configs(config, code, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run_series(path, tmp_path / "out") == (code, None)
    assert not (tmp_path / "out").exists()


def rewrite(names, values):
    """A series CSV as ``cli.write_series`` formats it."""
    rows = [",".join(f"{v:.17g}" for v in row) for row in values]
    return "\n".join([",".join(names), *rows]) + "\n"


@pytest.mark.parametrize("name", CASES)
def test_comparison_resolution(name):
    text = (CORPUS / f"{name}.csv").read_text()
    names, values = parse(text)
    assert rewrite(names, values) == text
    # One ulp on every value passes; 1e-11 on one value of any series fails.
    assert mismatches(text, rewrite(names, np.nextafter(values, np.inf))) == []
    middle = len(values) // 2
    for j in range(1, len(names)):
        shifted = values.copy()
        shifted[middle, j] += 1e-11
        assert len(mismatches(text, rewrite(names, shifted))) == 1
