"""A float gets from each per-point formula the bits an array element gets.

``scan_points`` calls the angle, delay and amplitude formulas once on the
whole grid, and ``gram_stack`` takes one ``np.exp`` of every exponent, while
the per-point references (``prepare``, the ``*_scan_preparations`` builders,
``overlap`` and ``temporal_overlap``) call the same formulas on floats.  The
bit-for-bit Gram tests rest on numpy's ufuncs giving both the same bits.  On
a platform where they do not, these tests fail first and name the formula;
the Gram comparisons would only show a last-bit difference.
"""

import numpy as np
import pytest

from triphoton.experiment import _polarizations, delay_condition, phase_for_theta, theta_for_phase
from triphoton.modes import GaussianTemporalMode, gram_stack, temporal_overlap

INPUTS = 100_001


def assert_same_bits(name, array, scalars):
    """``array`` and the per-element ``scalars`` agree to the last bit, signed zeros included."""
    scalars = np.asarray(scalars, dtype=array.dtype).reshape(array.shape)
    if array.tobytes() != scalars.tobytes():
        words = lambda a: a.view(np.uint64).reshape(len(a), -1)
        differ = np.count_nonzero((words(array) != words(scalars)).any(axis=1))
        pytest.fail(
            f"{name} gives a float other bits than an array element on {differ} of "
            f"{len(array)} inputs, so no grid can match its per-point references bit "
            "for bit: the float and the array take different formulas, or numpy's "
            "ufuncs round a scalar and an array differently on this platform"
        )


@pytest.fixture
def rng():
    return np.random.default_rng(20261022)


def test_theta_for_phase(rng):
    # Collective phases over several turns of either sign, as a grid may hold.
    phis = rng.uniform(-20.0, 20.0, INPUTS)
    scalars = [theta_for_phase(phi) for phi in phis.tolist()]
    assert_same_bits("theta_for_phase", theta_for_phase(phis), scalars)


def test_phase_for_theta(rng):
    thetas = rng.uniform(-10.0, 10.0, INPUTS)
    scalars = [phase_for_theta(theta) for theta in thetas.tolist()]
    assert_same_bits("phase_for_theta", phase_for_theta(thetas), scalars)


def test_delay_condition_and_amplitudes(rng):
    thetas = theta_for_phase(rng.uniform(0.0, 2.0 * np.pi, INPUTS))
    sigma = float(rng.uniform(0.1, 10.0))
    scalars = [delay_condition(theta, sigma) for theta in thetas.tolist()]
    assert_same_bits("delay_condition", delay_condition(thetas, sigma), scalars)
    amplitudes = _polarizations("dynamic", thetas)
    scalars = [_polarizations("dynamic", theta) for theta in thetas.tolist()]
    assert_same_bits("the dynamic recipe's amplitudes", amplitudes, scalars)


def test_gaussian_overlap(rng):
    # Horizontal photons: each stacked entry is the temporal factor times exactly 1.
    sigmas = rng.uniform(0.1, 10.0, INPUTS)
    delays = rng.uniform(-10.0, 10.0, (INPUTS, 2)) * sigmas[:, None]
    horizontal = np.broadcast_to([1.0, 0.0], (INPUTS, 2, 2))
    stacked = gram_stack(delays, sigmas, horizontal)[:, 0, 1]
    scalars = [
        temporal_overlap(GaussianTemporalMode(t1, s), GaussianTemporalMode(t2, s))
        for (t1, t2), s in zip(delays.tolist(), sigmas.tolist())
    ]
    assert_same_bits("the Gaussian overlap", np.ascontiguousarray(stacked), scalars)
