"""Three-photon event probabilities for mixed internal states.

The pure-state Gram matrix generalises to trace expressions: pairwise terms
carry Tr(rho_i rho_j) and the genuine three-photon term carries the cyclic
trace Tr(rho_1 rho_2 rho_3), paired with Hadamard-product permanents of the
scattering matrix.  Mixedness of heralded photons is modelled on a small
auxiliary space: a weight-p common mode shared by all photons plus a distinct
mode per photon, with p fixed by the requested purity.

Production code evaluates every probability with the permutation-sum engine
of :mod:`triphoton.interference`; these trace formulas are the independent
reference that the tests check the engine's mixed-state results against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalInconsistency
from .interference import (
    EventSpec,
    Network,
    output_occupations,
    permanent,
)
from .modes import GramMatrix, InternalState, temporal_overlap


@dataclass(frozen=True)
class InternalDensity:
    """Single-photon internal density matrix in a shared orthonormal basis."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DomainError("density matrix must be square")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise DomainError("density matrix must be Hermitian within 1e-10")
        if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
            raise DomainError("density matrix must have unit trace within 1e-10")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
            raise DomainError("density matrix must be positive semi-definite")
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "matrix", rho)

    @property
    def basis_dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def pure_components(self) -> list[tuple[float, np.ndarray]]:
        """Eigen-decomposition as a convex mixture of pure states."""
        vals, vecs = np.linalg.eigh(self.matrix)
        return [
            (float(vals[k]), vecs[:, k].copy())
            for k in range(len(vals))
            if vals[k] > 1e-12
        ]


@dataclass(frozen=True)
class TemporalBasis:
    """Triangular expansion of delayed temporal modes over an orthonormal basis.

    ``coefficients`` has one row per mode; row i gives the expansion of mode i
    over the first ``rank`` orthonormal basis vectors, so that
    ``coefficients @ coefficients.conj().T`` reproduces ``overlaps``.
    """

    overlaps: np.ndarray
    coefficients: np.ndarray

    @property
    def rank(self) -> int:
        return self.coefficients.shape[1]


def gram_schmidt_temporal(t_overlaps: np.ndarray) -> TemporalBasis:
    """Triangular orthonormalisation of up to three temporal modes.

    Implements the explicit construction: mode 1 is the first basis vector,
    mode 2 adds a component ``sqrt(1 - |<t1|t2>|^2)`` on the second, and mode 3
    enters with ``alpha = (<t2|t3> - <t2|t1><t1|t3>) / sqrt(1 - |<t1|t2>|^2)``
    on the second vector.  When a remaining norm squared is 1e-10 or less
    (coincident modes) the basis collapses to its numerical rank instead of
    being regularised.
    """
    g = np.asarray(t_overlaps, dtype=complex)
    n = g.shape[0]
    if g.shape != (n, n) or n < 1 or n > 3:
        raise DomainError("expected a 1x1 .. 3x3 temporal Gram matrix")
    if np.max(np.abs(g - g.conj().T)) > 1e-12 or np.max(np.abs(np.diag(g) - 1.0)) > 1e-12:
        raise DomainError("temporal overlaps must form a Hermitian unit-diagonal matrix")
    if np.min(np.linalg.eigvalsh(g)) < -1e-9:
        raise DomainError("temporal overlaps must be positive semi-definite")

    coeffs = np.zeros((n, n), dtype=complex)
    coeffs[0, 0] = 1.0
    rank = 1
    if n >= 2:
        c21 = g[1, 0]
        rem = 1.0 - abs(c21) ** 2
        coeffs[1, 0] = c21
        if rem > 1e-10:
            coeffs[1, rank] = math.sqrt(rem)
            rank += 1
    if n == 3:
        coeffs[2, 0] = g[2, 0]
        rem = 1.0 - abs(g[2, 0]) ** 2
        if coeffs[1, 1] != 0.0:
            alpha = (g[2, 1] - g[2, 0] * g[0, 1]) / coeffs[1, 1].real
            coeffs[2, 1] = alpha
            rem -= abs(alpha) ** 2
        if rem > 1e-10:
            coeffs[2, rank] = math.sqrt(rem)
            rank += 1
    return TemporalBasis(overlaps=g, coefficients=coeffs[:, :rank])


def _mixing_weight(purity: float, model: str) -> float:
    if not 0.0 < purity <= 1.0:
        raise DomainError(f"purity must lie in (0, 1], got {purity}")
    if model == "weight":
        return purity
    if model != "trace":
        raise DomainError(f"unknown purity model {model!r}")
    disc = 2.0 * purity - 1.0
    if disc < 0.0:
        raise DomainError(
            "purity below 1/2 is not realisable in the two-dimensional mixedness model"
        )
    return 0.5 * (1.0 + math.sqrt(disc))


def temporal_basis(states: list[InternalState]) -> TemporalBasis:
    """Triangular orthonormal basis of the states' temporal modes."""
    n = len(states)
    t_gram = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            v = temporal_overlap(states[i].temporal, states[j].temporal)
            t_gram[i, j] = v
            t_gram[j, i] = np.conj(v)
    return gram_schmidt_temporal(t_gram)


def temporal_rows(states: list[InternalState]) -> np.ndarray:
    """Unit-norm rows of :func:`temporal_basis`, one per state.

    Rank truncation at near-coincident delays leaves the basis rows up to
    1e-10 short of unit norm; every photon is a unit vector.
    """
    rows = temporal_basis(states).coefficients
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def build_densities(
    states: list[InternalState],
    purity: float,
    *,
    model: str = "trace",
) -> list[InternalDensity]:
    """Internal density matrices for partially pure photons on a shared basis.

    Each photon's pure part (temporal x polarisation) is dressed with a
    two-level mixedness factor ``p |c><c| + (1-p) |d_i><d_i|`` where |c> is
    common to all photons and the |d_i> are mutually orthogonal.  With the
    default ``model="trace"``, p solves p^2 + (1-p)^2 = purity (larger root)
    so that Tr(rho^2) equals the requested purity; ``model="weight"`` uses the
    purity directly as the common-mode weight.
    """
    n = len(states)
    if n < 1:
        raise DomainError("need at least one state")
    if any(s.aux for s in states):
        raise DomainError("density construction expects states without auxiliary components")
    p = _mixing_weight(purity, model)

    # Row pairing sum_k C[i,k]*conj(C[j,k]) reproduces the temporal overlaps,
    # matching the pairing convention of modes.overlap.
    temp_rows = temporal_rows(states)

    mix_dim = 1 + n
    out = []
    for i, state in enumerate(states):
        pol = np.array(
            [state.polarization.amplitude_h, state.polarization.amplitude_v], dtype=complex
        )
        pure_vec = np.kron(temp_rows[i], pol)
        pure_rho = np.outer(pure_vec, pure_vec.conj())
        mixed = np.zeros((mix_dim, mix_dim), dtype=complex)
        mixed[0, 0] = p
        mixed[1 + i, 1 + i] = 1.0 - p
        out.append(InternalDensity(np.kron(pure_rho, mixed)))
    return out


def build_density(
    pure_state: InternalState, purity: float, *, model: str = "trace"
) -> InternalDensity:
    """Single-photon case of :func:`build_densities`."""
    return build_densities([pure_state], purity, model=model)[0]


def _cycle_trace(perm: tuple[int, ...], rhos: list[np.ndarray]) -> complex:
    """Product over the cycles of ``perm`` of traces of rho products in cycle order."""
    n = len(perm)
    seen = [False] * n
    weight = 1.0 + 0.0j
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        if len(cycle) == 1:
            continue  # unit trace
        prod = rhos[cycle[0]]
        for idx in cycle[1:]:
            prod = prod @ rhos[idx]
        weight *= np.trace(prod)
    return weight


def mixed_event_probability(
    net: Network, spec: EventSpec, densities: list[InternalDensity]
) -> float:
    """Output-event probability for up to three photons in mixed internal states.

    Reduces to :func:`triphoton.interference.event_probability` when every
    density is rank one.
    """
    n = spec.n
    if n != len(densities):
        raise DomainError("one density matrix per photon required")
    if n > 3:
        raise DomainError("the trace formula is implemented for up to three photons")
    dim = densities[0].basis_dim
    if any(d.basis_dim != dim for d in densities):
        raise DomainError("density matrices must share one basis dimension")
    rhos = [d.matrix for d in densities]
    rows = [j for j, sj in enumerate(spec.output_occupation) for _ in range(sj)]
    m = net.matrix[np.ix_(rows, list(spec.input_modes))]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        weight = _cycle_trace(perm, rhos)
        hadamard = m[:, list(perm)] * np.conj(m)
        total += weight * permanent(hadamard)
    norm = 1.0
    for s in spec.output_occupation:
        norm *= math.factorial(s)
    total /= norm
    if abs(total.imag) >= 1e-8:
        raise NumericalInconsistency(f"imaginary residue {total.imag:.3e} in mixed probability")
    p = total.real
    if p < -1e-10 or p > 1.0 + 1e-10:
        raise NumericalInconsistency(f"mixed probability {p!r} outside [0, 1] tolerance band")
    return p


def p111_mixed(
    net: Network, rho1: InternalDensity, rho2: InternalDensity, rho3: InternalDensity
) -> float:
    """Coincidence probability for three mixed photons, one per input.

    Six-term trace expression: the identity permanent, three pairwise-trace
    terms, and the cyclic-trace term split into its real and imaginary parts.
    """
    if net.m != 3:
        raise DomainError("expected a three-mode network")
    dim = rho1.basis_dim
    if rho2.basis_dim != dim or rho3.basis_dim != dim:
        raise DomainError("density matrices must share one basis dimension")
    u = net.matrix

    def had_perm(order: tuple[int, int, int]) -> complex:
        return permanent(u[:, list(order)] * np.conj(u))

    r1, r2, r3 = rho1.matrix, rho2.matrix, rho3.matrix
    t12 = np.trace(r1 @ r2).real
    t13 = np.trace(r1 @ r3).real
    t23 = np.trace(r2 @ r3).real
    cyc = np.trace(r1 @ r2 @ r3)
    cyc_perm = had_perm((1, 2, 0))
    total = (
        had_perm((0, 1, 2)).real
        + t12 * had_perm((1, 0, 2)).real
        + t13 * had_perm((2, 1, 0)).real
        + t23 * had_perm((0, 2, 1)).real
        + 2.0 * cyc.real * cyc_perm.real
        - 2.0 * cyc.imag * cyc_perm.imag
    )
    if total < -1e-10 or total > 1.0 + 1e-10:
        raise NumericalInconsistency(f"P111 {total!r} outside [0, 1] tolerance band")
    return float(total)


def mixed_event_distribution(
    net: Network, input_modes: tuple[int, ...], densities: list[InternalDensity]
) -> dict[tuple[int, ...], float]:
    """Probabilities of all output occupations for mixed-state photons."""
    n = len(input_modes)
    return {
        occ: mixed_event_probability(net, EventSpec(tuple(input_modes), occ), densities)
        for occ in output_occupations(n, net.m)
    }


def density_from_vector(vector: np.ndarray) -> InternalDensity:
    """Rank-one density from a normalised amplitude vector."""
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return InternalDensity(np.outer(v, v.conj()))


def gram_from_densities(densities: list[InternalDensity]) -> GramMatrix | None:
    """Gram matrix reproduced by rank-one densities, or None if any is mixed.

    For rank-one densities rho_i = |v_i><v_i| the pure-state engine applies
    with overlaps S[i, j] = sum_k v_i[k] * conj(v_j[k]).
    """
    vectors = []
    for d in densities:
        comps = d.pure_components()
        if len(comps) != 1:
            return None
        vectors.append(comps[0][1])
    n = len(vectors)
    g = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            # amplitude-vector pairing matching overlap(): linear in the first slot
            v = np.sum(vectors[j] * np.conj(vectors[i]))
            g[j, i] = v
            g[i, j] = np.conj(v)
    return GramMatrix(g)
