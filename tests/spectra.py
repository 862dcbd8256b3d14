"""Sampled spectra for the delay-invariance checks, by trapezoid quadrature.

The package models one temporal family, the delayed Gaussian.  These helpers
let the tests check the claim behind that choice on other spectra: the triad
phase of three delayed copies of one spectrum is independent of the delays
exactly when the spectral intensity is symmetric about its mean.
"""

import numpy as np

from triphoton.modes import TWO_PI, circular_distance


def trapezoid(y, x):
    """Trapezoid rule on the grid ``x``.

    Written out: ``np.trapz`` warns on numpy 2 and ``np.trapezoid`` does not
    exist before it.
    """
    return (np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum()


def normalised(w, intensity):
    """``intensity`` scaled to unit integral on the strictly increasing grid ``w``."""
    assert np.all(np.diff(w) > 0.0) and np.all(intensity >= 0.0)
    return intensity / trapezoid(intensity, w)


def spectral_overlap(w, intensity, dt):
    """Overlap of two copies delayed by ``dt``: the integral of exp(-1j dt w) |psi(w)|^2."""
    return complex(trapezoid(np.exp(-1j * dt * w) * intensity, w))


def phase_spread(w, intensity, triples):
    """Triad phases of three delayed copies per delay triple, and their largest spread."""
    phases = []
    for t1, t2, t3 in triples:
        cyc = (
            spectral_overlap(w, intensity, t1 - t2)
            * spectral_overlap(w, intensity, t2 - t3)
            * spectral_overlap(w, intensity, t3 - t1)
        )
        assert abs(cyc) > 1e-12, "cyclic product vanishes for a sampled delay triple"
        phases.append(float(np.angle(cyc) % TWO_PI))
    return phases, max(circular_distance(p, phases[0]) for p in phases)
