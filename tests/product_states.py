"""Random delay x polarisation product states, the points of preparations, and the fold of
polarisation rows onto outputs, for the tests."""

import numpy as np

from triphoton.experiment import ScanPoints, prepare
from triphoton.interference import occupation_index, output_occupations
from triphoton.modes import GaussianTemporalMode, InternalState, PolarizationState, overlap


def random_product_states(rng: np.random.Generator, n: int) -> list[InternalState]:
    """``n`` states with delays uniform in [-1.5, 1.5] (sigma 1) and random polarisations."""
    states = []
    for _ in range(n):
        t = float(rng.uniform(-1.5, 1.5))
        pol = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pol = pol / np.linalg.norm(pol)
        states.append(
            InternalState(
                GaussianTemporalMode(t, 1.0),
                PolarizationState(complex(pol[0]), complex(pol[1])),
            )
        )
    return states


def pairwise_gram(states: list[InternalState]) -> np.ndarray:
    """The Gram matrix of ``states`` from scalar :func:`overlap` calls, one per pair.

    The loop reference of the stacked builder: unit diagonal, ``overlap(j, k)``
    above it and its conjugate below.
    """
    n = len(states)
    m = np.eye(n, dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            m[j, k] = overlap(states[j], states[k])
            m[k, j] = np.conj(m[j, k])
    return m


def points_of(preparations) -> ScanPoints:
    """The arrays of ``preparations``' internal states, on an x axis ``index`` 0, 1, ...

    The per-point reference of :func:`triphoton.experiment.scan_points`, and a
    way to stack points of several recipes in one ``simulate_counts`` call.
    """
    states = [prepare(p) for p in preparations]
    delays = np.array([[s.temporal.delay for s in p] for p in states], dtype=float)
    sigmas = np.array([[s.temporal.sigma for s in p] for p in states], dtype=float)
    pol = [[(s.polarization.amplitude_h, s.polarization.amplitude_v) for s in p] for p in states]
    return ScanPoints(
        "index",
        np.arange(len(states), dtype=float),
        delays.reshape(-1, 3),
        sigmas.reshape(-1, 3),
        np.array(pol, dtype=complex).reshape(-1, 3, 2),
    )


def fold_rows(dist, n: int) -> np.ndarray:
    """Sum a distribution over (output, H) then (output, V) rows onto the three outputs.

    ``dist``'s last axis follows ``output_occupations(n, 6)`` and the result's
    ``output_occupations(n, 3)``; leading axes are kept.  The one fold the
    tests use: the model itself never folds, its click maps read the rows.
    """
    dist = np.asarray(dist)
    index = occupation_index(n, 3)
    folded = np.zeros(dist.shape[:-1] + (len(index),))
    for column, occ in enumerate(output_occupations(n, 6)):
        folded[..., index[tuple(h + v for h, v in zip(occ[:3], occ[3:]))]] += dist[..., column]
    return folded
