"""Single-photon internal states and their overlaps.

A photon's internal state factorises into a temporal mode (a delayed Gaussian
wavepacket or a delayed copy of a sampled spectrum), a polarisation qubit and
an optional vector over a shared auxiliary orthonormal basis.  Pairwise
overlaps are exact products of the per-factor overlaps; from them we build
Gram matrices and the collective phase of a photon triple.

Scalar products are paired as ``sum_k a_k * conj(b_k)`` (first argument
unconjugated).  With this pairing the polarisation recipes used in the
experiment module reproduce the closed-form phase relations verbatim; the
opposite pairing would conjugate every reported phase.  All probabilities are
insensitive to the choice, which is cross-checked against the Fock oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InvalidSpectrum,
    TriadPhaseUndefined,
    UnsupportedModePair,
)

TWO_PI = 2.0 * math.pi

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class GaussianTemporalMode:
    """Gaussian wavepacket delayed by ``delay``.

    ``sigma`` is the standard deviation of the temporal amplitude and
    ``central_frequency`` the carrier angular frequency.  Two modes of this
    family overlap as ``exp(-dt**2 / (4 sigma**2)) * exp(-1j * Omega * dt)``
    with ``dt = t1 - t2``; the self-overlap is exactly 1.
    """

    delay: float
    sigma: float = 1.0
    central_frequency: float = 0.0

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class SampledSpectrum:
    """Spectral intensity sampled on a monotone angular-frequency grid.

    The intensity is normalised at construction so that its trapezoidal
    integral equals 1; overlaps of delayed copies are then computed by
    deterministic quadrature on the given grid (no interpolation).
    """

    frequency_grid: np.ndarray
    intensity: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.frequency_grid, dtype=float)
        inten = np.asarray(self.intensity, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or inten.shape != grid.shape:
            raise InvalidSpectrum("grid and intensity must be 1-d arrays of equal length >= 2")
        if not np.all(np.diff(grid) > 0.0):
            raise InvalidSpectrum("frequency grid must be strictly increasing")
        if np.any(inten < 0.0):
            raise InvalidSpectrum("spectral intensity must be nonnegative")
        norm = _trapezoid(inten, grid)
        if norm <= 0.0:
            raise InvalidSpectrum("spectral intensity integrates to zero")
        grid = grid.copy()
        inten = inten / norm
        grid.flags.writeable = False
        inten.flags.writeable = False
        object.__setattr__(self, "frequency_grid", grid)
        object.__setattr__(self, "intensity", inten)

    def same_grid(self, other: "SampledSpectrum") -> bool:
        return np.array_equal(self.frequency_grid, other.frequency_grid) and np.array_equal(
            self.intensity, other.intensity
        )


@dataclass(frozen=True)
class DelayedSpectralMode:
    """A delayed copy of a common sampled spectrum."""

    spectrum: SampledSpectrum
    delay: float


@dataclass(frozen=True)
class PolarizationState:
    """Normalised polarisation qubit with amplitudes on H and V."""

    amplitude_h: complex
    amplitude_v: complex

    def __post_init__(self) -> None:
        norm = abs(self.amplitude_h) ** 2 + abs(self.amplitude_v) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"polarisation norm^2 deviates from 1 by {abs(norm - 1.0):.3e}")

    @staticmethod
    def horizontal() -> "PolarizationState":
        return PolarizationState(1.0, 0.0)


@dataclass(frozen=True)
class InternalState:
    """Product internal state: temporal mode x polarisation x auxiliary vector.

    ``aux`` is a (possibly empty) unit vector over a shared auxiliary
    orthonormal basis, used for bookkeeping of noise photons and mixedness.
    An empty ``aux`` denotes a trivial auxiliary factor.
    """

    temporal: GaussianTemporalMode | DelayedSpectralMode
    polarization: PolarizationState = field(default_factory=PolarizationState.horizontal)
    aux: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        if self.aux:
            norm = sum(abs(a) ** 2 for a in self.aux)
            if abs(norm - 1.0) > 1e-12:
                raise DomainError(f"aux norm^2 deviates from 1 by {abs(norm - 1.0):.3e}")


def gaussian_overlap(a: GaussianTemporalMode, b: GaussianTemporalMode) -> complex:
    """Overlap of two delayed copies of the same Gaussian wavepacket.

    Requires equal widths and carrier frequencies (only the identical-spectrum
    case has this closed form).  Returns
    ``exp(-dt**2/(4 sigma**2) - 1j*Omega*dt)`` with ``dt = a.delay - b.delay``.
    """
    if a.sigma != b.sigma or a.central_frequency != b.central_frequency:
        raise UnsupportedModePair(
            "Gaussian modes must share sigma and central frequency "
            f"(got sigma {a.sigma}/{b.sigma}, Omega {a.central_frequency}/{b.central_frequency})"
        )
    dt = a.delay - b.delay
    return complex(
        math.exp(-(dt * dt) / (4.0 * a.sigma * a.sigma))
    ) * complex(math.cos(a.central_frequency * dt), -math.sin(a.central_frequency * dt))


def spectral_overlap(spec: SampledSpectrum, dt: float) -> complex:
    """Fourier transform of the spectral intensity at delay ``dt``.

    Evaluates ``integral dw exp(-1j*dt*w) |psi(w)|^2`` by trapezoid quadrature
    on the spectrum's own grid.
    """
    if not math.isfinite(dt):
        raise DomainError("delay must be finite")
    phase = np.exp(-1j * dt * spec.frequency_grid)
    return complex(_trapezoid(phase * spec.intensity, spec.frequency_grid))


def temporal_overlap(a, b) -> complex:
    if isinstance(a, GaussianTemporalMode) and isinstance(b, GaussianTemporalMode):
        return gaussian_overlap(a, b)
    if isinstance(a, DelayedSpectralMode) and isinstance(b, DelayedSpectralMode):
        if not a.spectrum.same_grid(b.spectrum):
            raise UnsupportedModePair("spectral modes must share the same sampled spectrum")
        return spectral_overlap(a.spectrum, a.delay - b.delay)
    raise UnsupportedModePair(
        f"cannot overlap temporal modes of types {type(a).__name__} and {type(b).__name__}"
    )


def overlap(a: InternalState, b: InternalState) -> complex:
    """Full internal-state overlap: product of temporal, polarisation and aux factors."""
    if len(a.aux) != len(b.aux):
        raise UnsupportedModePair(
            f"auxiliary basis dimensions differ ({len(a.aux)} vs {len(b.aux)})"
        )
    value = temporal_overlap(a.temporal, b.temporal)
    value *= a.polarization.amplitude_h * np.conj(b.polarization.amplitude_h) + (
        a.polarization.amplitude_v * np.conj(b.polarization.amplitude_v)
    )
    if a.aux:
        value *= sum(x * np.conj(y) for x, y in zip(a.aux, b.aux))
    return complex(value)


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian positive semi-definite matrix of pairwise overlaps, unit diagonal."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DomainError("Gram matrix must be square and nonempty")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise DomainError("Gram matrix must be Hermitian within 1e-12")
        if np.abs(m.diagonal() - 1.0).max() > 1e-12:
            raise DomainError("Gram matrix diagonal must equal 1 within 1e-12")
        if np.linalg.eigvalsh(m).min() < -1e-9:
            raise DomainError("Gram matrix must be positive semi-definite (eigenvalues >= -1e-9)")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def gram_matrix(states: list[InternalState]) -> GramMatrix:
    """Gram matrix of pairwise overlaps of ``states``."""
    n = len(states)
    if n < 1:
        raise DomainError("need at least one state")
    m = np.empty((n, n), dtype=complex)
    for j in range(n):
        m[j, j] = 1.0
        for k in range(j + 1, n):
            v = overlap(states[j], states[k])
            m[j, k] = v
            m[k, j] = np.conj(v)
    return GramMatrix(m)


def triad_phase(g: GramMatrix | np.ndarray) -> float:
    """Argument of the cyclic product S12*S23*S31, reduced to [0, 2*pi).

    Raises ``TriadPhaseUndefined`` when the cyclic product modulus is 1e-12
    or less (fully distinguishable photons carry no collective phase).
    """
    m = g.entries if isinstance(g, GramMatrix) else np.asarray(g, dtype=complex)
    if m.shape != (3, 3):
        raise DomainError("triad phase requires a 3x3 Gram matrix")
    cyc = m[0, 1] * m[1, 2] * m[2, 0]
    if abs(cyc) <= 1e-12:
        raise TriadPhaseUndefined(f"cyclic product modulus {abs(cyc):.3e} below tolerance 1e-12")
    return float(np.angle(cyc) % TWO_PI)


def qubit_triad_phase(r12: float, r23: float, r31: float) -> tuple[float, ...]:
    """Collective phases realisable by three states confined to a single qubit.

    For moduli ``(r12, r23, r31)`` the qubit geometry fixes ``cos(gamma)`` of
    the relative Bloch angle; the one or two admissible phases are returned,
    reduced to [0, 2*pi).  An empty tuple means no qubit realisation exists
    (the three states need a third internal dimension).
    """
    for name, r in (("r12", r12), ("r23", r23), ("r31", r31)):
        if not 0.0 < r <= 1.0:
            raise DomainError(f"{name} must lie in (0, 1], got {r}")
    ca, cb = r12, r31
    sa = math.sqrt(max(0.0, 1.0 - ca * ca))
    sb = math.sqrt(max(0.0, 1.0 - cb * cb))
    if sa * sb < 1e-15:
        # One pair is fully indistinguishable: the third overlap is forced.
        forced = cb if sa < 1e-15 else ca
        if abs(r23 - forced) > 1e-12:
            return ()
        return (0.0,)
    cos_gamma = (r23 * r23 - ca * ca * cb * cb - sa * sa * sb * sb) / (2.0 * ca * cb * sa * sb)
    if abs(cos_gamma) > 1.0 + 1e-12:
        return ()
    # Collapse the boundary cases exactly; otherwise the two branches differ
    # by O(sqrt(eps)) instead of merging.
    if cos_gamma >= 1.0 - 1e-12:
        gammas: tuple[float, ...] = (0.0,)
    elif cos_gamma <= -1.0 + 1e-12:
        gammas = (math.pi,)
    else:
        gamma = math.acos(cos_gamma)
        gammas = (gamma, -gamma)
    phases = []
    for g in gammas:
        product = ca * cb + complex(math.cos(g), -math.sin(g)) * sa * sb
        phases.append(float(np.angle(product) % TWO_PI))
    if len(phases) == 2 and circular_distance(phases[0], phases[1]) < 1e-12:
        phases = phases[:1]
    return tuple(sorted(phases))


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class DelayInvarianceReport:
    """Triad phases over a set of delay triples and their spread."""

    phases: tuple[float, ...]
    max_phase_deviation: float


def delay_invariance_test(
    spec: SampledSpectrum, delays_samples: list[tuple[float, float, float]]
) -> DelayInvarianceReport:
    """Check whether the triad phase of three delayed copies depends on the delays.

    The phase of the cyclic product is delay-independent exactly when the
    spectral intensity is symmetric about its mean; for asymmetric spectra the
    deviation is generically large.
    """
    if len(delays_samples) < 2:
        raise DomainError("need at least two delay triples")
    phases = []
    for t1, t2, t3 in delays_samples:
        cyc = (
            spectral_overlap(spec, t1 - t2)
            * spectral_overlap(spec, t2 - t3)
            * spectral_overlap(spec, t3 - t1)
        )
        if abs(cyc) <= 1e-12:
            raise TriadPhaseUndefined("cyclic product vanishes for a sampled delay triple")
        phases.append(float(np.angle(cyc) % TWO_PI))
    deviation = max(circular_distance(p, phases[0]) for p in phases)
    return DelayInvarianceReport(phases=tuple(phases), max_phase_deviation=deviation)
