"""Single-photon internal states and their overlaps.

A photon's internal state factorises into a temporal mode (a delayed Gaussian
wavepacket) and a polarisation qubit, the two degrees of freedom that set
every distinguishability in the experiment.  Pairwise overlaps are exact
products of the two factors' overlaps; from them we build Gram matrices, one
point or a ``(P, n, n)`` stack of points validated at once (:func:`gram_stack`),
and the collective phase of a photon triple.  Every check compares as
``not err <= tol``, so a NaN fails it.

Scalar products are paired as ``sum_k a_k * conj(b_k)`` (first argument
unconjugated).  With this pairing the polarisation recipes used in the
experiment module reproduce the closed-form phase relations verbatim; the
opposite pairing would conjugate every reported phase.  All probabilities are
insensitive to the choice, which is cross-checked against the Fock oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DomainError, TriadPhaseUndefined, UnsupportedModePair

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GaussianTemporalMode:
    """Gaussian wavepacket delayed by ``delay``.

    ``sigma`` is the standard deviation of the temporal amplitude.  Two modes
    of this family overlap as ``exp(-dt**2 / (4 sigma**2))`` with
    ``dt = t1 - t2``; the self-overlap is exactly 1.  There is no carrier
    frequency: a common carrier only re-phases the Gram matrix, and no
    probability depends on that.
    """

    delay: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class PolarizationState:
    """Normalised polarisation qubit with amplitudes on H and V."""

    amplitude_h: complex
    amplitude_v: complex

    def __post_init__(self) -> None:
        norm = abs(self.amplitude_h) ** 2 + abs(self.amplitude_v) ** 2
        if not abs(norm - 1.0) <= 1e-12:
            raise DomainError(f"polarisation norm^2 deviates from 1 by {abs(norm - 1.0):.3e}")

    @staticmethod
    def horizontal() -> "PolarizationState":
        return PolarizationState(1.0, 0.0)


@dataclass(frozen=True)
class InternalState:
    """Product internal state: temporal mode x polarisation.

    Mixedness and noise photons enter through the Gram matrix (``mixedstate``,
    ``experiment``), never as a further factor of the state.
    """

    temporal: GaussianTemporalMode
    polarization: PolarizationState = field(default_factory=PolarizationState.horizontal)


def temporal_overlap(a: GaussianTemporalMode, b: GaussianTemporalMode) -> complex:
    """Overlap of two delayed copies of the same Gaussian wavepacket.

    Requires equal widths (only the identical-spectrum case has this closed
    form).  Returns ``exp(-dt**2 / (4 sigma**2))`` with ``dt = a.delay - b.delay``.
    """
    if a.sigma != b.sigma:
        raise UnsupportedModePair(f"Gaussian modes must share sigma (got {a.sigma}/{b.sigma})")
    dt = a.delay - b.delay
    return complex(math.exp(-(dt * dt) / (4.0 * a.sigma * a.sigma)))


def overlap(a: InternalState, b: InternalState) -> complex:
    """Full internal-state overlap: product of the temporal and polarisation factors."""
    value = temporal_overlap(a.temporal, b.temporal)
    value *= a.polarization.amplitude_h * np.conj(b.polarization.amplitude_h) + (
        a.polarization.amplitude_v * np.conj(b.polarization.amplitude_v)
    )
    return complex(value)


def _check_gram(m: np.ndarray) -> None:
    """Raise ``DomainError`` unless each matrix of the ``(..., n, n)`` stack ``m`` is a Gram matrix.

    That is Hermitian and positive semi-definite with unit diagonal; one bad
    matrix fails the stack, and an empty stack passes.
    """
    if not np.abs(m - np.swapaxes(m, -1, -2).conj()).max(initial=0.0) <= 1e-12:
        raise DomainError("Gram matrix must be Hermitian within 1e-12")
    if not np.abs(np.diagonal(m, axis1=-2, axis2=-1) - 1.0).max(initial=0.0) <= 1e-12:
        raise DomainError("Gram matrix diagonal must equal 1 within 1e-12")
    if not np.linalg.eigvalsh(m).min(initial=0.0) >= -1e-9:
        raise DomainError("Gram matrix must be positive semi-definite (eigenvalues >= -1e-9)")


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian positive semi-definite matrix of pairwise overlaps, unit diagonal."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DomainError("Gram matrix must be square and nonempty")
        _check_gram(m)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


def _overlap_stack(delays, sigmas, polarizations) -> np.ndarray:
    """Unchecked ``(P, n, n)`` overlaps of P points of n photons each.

    ``delays`` and ``sigmas`` are ``(P, n)``, ``polarizations`` holds the
    ``(H, V)`` amplitudes as ``(P, n, 2)``.  Each entry above the diagonal
    takes the operations of :func:`overlap` in the same order, so it equals
    that function's value to the last bit: the exponent in numpy, its
    exponential through ``math.exp`` (``np.exp`` rounds differently in the
    last bit for a few per cent of inputs) and the polarisation factor
    elementwise, each complex product spelled out in real arithmetic.
    """
    delays = np.asarray(delays, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    pol = np.asarray(polarizations, dtype=complex)
    if delays.ndim != 2 or delays.shape[1] < 1 or sigmas.shape != delays.shape:
        raise DomainError("need (P, n) delays and sigmas with n >= 1")
    if pol.shape != delays.shape + (2,):
        raise DomainError(f"need {delays.shape + (2,)} polarisation amplitudes, got {pol.shape}")
    p, n = delays.shape
    if not (sigmas > 0.0).all():
        raise DomainError(f"sigma must be positive, got {sigmas[~(sigmas > 0.0)][0]}")
    norm = np.abs(pol[..., 0]) ** 2 + np.abs(pol[..., 1]) ** 2
    if not np.abs(norm - 1.0).max(initial=0.0) <= 1e-12:
        raise DomainError(
            f"polarisation norm^2 deviates from 1 by {np.abs(norm - 1.0).max():.3e}"
        )
    unequal = sigmas != sigmas[:, :1]
    if unequal.any():
        point, photon = np.argwhere(unequal)[0]
        raise UnsupportedModePair(
            f"Gaussian modes must share sigma (got {sigmas[point, 0]}/{sigmas[point, photon]})"
        )
    # Each pair j < k once; np.triu_indices would take about a third of a one-point call.
    j, k = np.array(list(combinations(range(n), 2)), dtype=int).reshape(-1, 2).T
    # A delay difference or its square may overflow to inf, whose exponential
    # is exactly 0 (as in Python floats); 0/0, inf/inf and x/0 still raise,
    # since a width whose square underflows to 0 or overflows has no overlap.
    with np.errstate(over="ignore", invalid="raise", divide="raise"):
        dt = delays[:, j] - delays[:, k]
        exponent = -(dt * dt) / (4.0 * sigmas[:, j] * sigmas[:, j])
    temporal = np.array([math.exp(x) for x in exponent.ravel().tolist()]).reshape(dt.shape)
    # Rounded as a scalar complex product rounds: numpy's vectorised complex
    # multiply may fuse a multiply and an add, which moves the last bit.
    a, b = pol[:, j], pol[:, k].conj()
    real = a.real * b.real - a.imag * b.imag
    imag = a.real * b.imag + a.imag * b.real
    m = np.empty((p, n, n), dtype=complex)
    m.real[:, j, k] = temporal * (real[..., 0] + real[..., 1])
    m.imag[:, j, k] = temporal * (imag[..., 0] + imag[..., 1])
    m[:, k, j] = m[:, j, k].conj()
    m[:, np.arange(n), np.arange(n)] = 1.0
    return m


def gram_stack(delays, sigmas, polarizations) -> np.ndarray:
    """Gram matrices of P points of n photons each, as one read-only ``(P, n, n)`` stack.

    ``delays`` and ``sigmas`` are ``(P, n)`` and ``polarizations`` the
    ``(H, V)`` amplitudes ``(P, n, 2)`` of delayed-Gaussian x polarisation
    product states.  Every point equals ``gram_matrix`` of its states bit for
    bit, and the stack is validated as a whole, with one batched
    eigendecomposition: one bad point fails it with the error
    :class:`GramMatrix` would raise.
    """
    m = _overlap_stack(delays, sigmas, polarizations)
    _check_gram(m)
    m.flags.writeable = False
    return m


def gram_matrix(states: list[InternalState]) -> GramMatrix:
    """The one-point :func:`gram_stack` of the pairwise overlaps of ``states``; no run calls it."""
    if len(states) < 1:
        raise DomainError("need at least one state")
    m = _overlap_stack(
        [[s.temporal.delay for s in states]],
        [[s.temporal.sigma for s in states]],
        [[(s.polarization.amplitude_h, s.polarization.amplitude_v) for s in states]],
    )
    return GramMatrix(m[0])


def triad_phase(g: GramMatrix | np.ndarray) -> float:
    """Argument of the cyclic product S12*S23*S31, reduced to [0, 2*pi).

    Raises ``TriadPhaseUndefined`` when the cyclic product modulus is 1e-12
    or less (fully distinguishable photons carry no collective phase) or NaN.
    """
    m = g.entries if isinstance(g, GramMatrix) else np.asarray(g, dtype=complex)
    if m.shape != (3, 3):
        raise DomainError("triad phase requires a 3x3 Gram matrix")
    cyc = m[0, 1] * m[1, 2] * m[2, 0]
    if not abs(cyc) > 1e-12:
        raise TriadPhaseUndefined(f"cyclic product modulus {abs(cyc):.3e} not above 1e-12")
    return float(np.angle(cyc) % TWO_PI)


def qubit_triad_phase(r12: float, r23: float, r31: float) -> tuple[float, ...]:
    """Collective phases realisable by three states confined to a single qubit.

    Three states in one qubit have a rank-2 Gram matrix, so
    ``det G = 1 - r12^2 - r23^2 - r31^2 + 2 r12 r23 r31 cos(phi) = 0`` fixes
    ``cos(phi)``; the one or two admissible phases are returned, reduced to
    [0, 2*pi).  An empty tuple means no qubit realisation exists (the three
    states need a third internal dimension).  The tests multiply by the
    scaled ``2 r12 r23 r31`` rather than divide, so no input raises.
    """
    for name, r in (("r12", r12), ("r23", r23), ("r31", r31)):
        if not 0.0 < r <= 1.0:
            raise DomainError(f"{name} must lie in (0, 1], got {r}")
    # num = r12^2 + r23^2 + r31^2 - 1 and den = 2 r12 r23 r31, both divided by
    # b^2 for the middle modulus b, so no square underflows to 0; 1 - a is
    # exact for the largest modulus a >= 1/2.
    a, b, c = sorted((r12, r23, r31), reverse=True)
    t = c / b
    num = 1.0 + t * t - (1.0 - a) * (1.0 + a) / b / b
    den = 2.0 * a * t
    if abs(num) > den * (1.0 + 1e-12):
        return ()
    # Collapse |cos(phi)| = 1 exactly; otherwise the two roots differ by
    # O(sqrt(eps)) instead of merging.
    if num >= den * (1.0 - 1e-12):
        return (0.0,)
    if num <= -den * (1.0 - 1e-12):
        return (math.pi,)
    phi = math.acos(num / den)
    return (phi, TWO_PI - phi)


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)
