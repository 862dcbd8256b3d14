"""The width is the unit of delay.

Two delayed copies of one Gaussian overlap as exp(-dt**2 / 4) with dt the
delay difference over the width, so a run depends on its delays only through
their ratio to the width: the triad scan's delay condition holds every
overlap modulus at 1/2 whatever the width, and a delay scan at (sigma, tau)
is the scan at (1, tau / sigma).  Any positive normal float is a width.  A
power of two scales every delay exactly, so those widths give width 1's
bytes; other widths round the delay condition's delay once, which moves a
value by about an ulp.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton.cli import run
from triphoton.experiment import scan_delays
from triphoton.modes import GaussianTemporalMode, gram_stack, temporal_overlap

MODES = ("ideal-scan", "experiment")


def triad_series(mode, sigma, tmp_path) -> bytes:
    """The series file of the default 33-point triad grid at width ``sigma``."""
    config = tmp_path / f"{mode}-{sigma!r}.json"
    config.write_text(
        f'{{"mode": "{mode}", "preparation": {{"recipe": "dynamic", "sigma": {sigma!r}}}}}',
        encoding="utf-8",
    )
    out_dir = tmp_path / config.stem
    assert run(str(config), out_dir=str(out_dir)) == 0
    return (out_dir / "run_series.csv").read_bytes()


def values(series: bytes) -> np.ndarray:
    return np.array([line.split(b",") for line in series.splitlines()[1:]], dtype=float)


@pytest.fixture(scope="module")
def unit_width(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("unit")
    return {mode: triad_series(mode, 1.0, tmp_path) for mode in MODES}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
def test_power_of_two_width_gives_width_one_bytes(unit_width, mode, exponent, tmp_path):
    assert triad_series(mode, 2.0**exponent, tmp_path) == unit_width[mode]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("sigma", [1e-300, 1e-200, 1.3, 1e200, 1e300])
def test_any_normal_width_gives_width_one_numbers(unit_width, mode, sigma, tmp_path):
    actual, expected = values(triad_series(mode, sigma, tmp_path)), values(unit_width[mode])
    assert actual[:, 0].tolist() == expected[:, 0].tolist()
    assert np.abs(actual - expected).max() <= 1e-15


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    recipe=st.sampled_from(["all_H", "static_pi"]),
    mantissa=st.floats(1.0, 2.0, exclude_max=True),
    exponent=st.integers(-1000, 1000),
    ratio=st.floats(-12.0, 12.0),
)
def test_delay_scan_depends_on_delay_over_width(recipe, mantissa, exponent, ratio):
    sigma = mantissa * 2.0**exponent
    tau = ratio * sigma
    scaled = scan_delays(recipe, [tau], sigma).series
    unit = scan_delays(recipe, [tau / sigma], 1.0).series
    for name, series in unit.items():
        assert abs(scaled[name][0] - series[0]) <= 1e-15, name


def test_equal_huge_delays_overlap_exactly_one():
    # The difference is taken before the width divides it.
    a = GaussianTemporalMode(1e300, 1e-10)
    assert temporal_overlap(a, a) == 1.0
    stack = gram_stack([[1e300, 1e300]], 1e-10, [[(1.0, 0.0), (1.0, 0.0)]])
    assert stack[0, 0, 1] == 1.0
