"""Exact output-event probabilities for partially distinguishable photons.

One engine, :func:`columns_distribution`, evaluates the double permutation sum

    P(s) = (prod_j s_j!)^-1 * sum_{sigma, rho in S_n}
           prod_k M[k, sigma(k)] * conj(M[k, rho(k)]) * S[sigma(k), rho(k)]

for every output occupation s at once, where M repeats row j of the photon
columns (one column per photon) exactly s_j times and S is the Gram matrix
of internal states.  Photons sharing an input mode and
internal state divide the sum by the input-occupation factorials as well.
:func:`event_distribution` and :func:`event_probability` are its front ends
for one photon per input of a network.  Closed forms for the balanced
beamsplitter and tritter are provided and must agree with the engine to near
machine precision.  :func:`permanent`, a direct enumeration for the 3x3
matrices of the mixed-state trace formulas, is not on the engine's path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalInconsistency, SizeLimit
from .modes import GramMatrix

DEFAULT_MAX_PHOTONS = 6


@dataclass(frozen=True)
class Network:
    """An m-mode linear-optical network described by a unitary matrix.

    ``matrix[k, j]`` is the amplitude for a photon entering input mode j to
    leave through output mode k.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DomainError("network matrix must be square")
        if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-10:
            raise DomainError("network matrix must be unitary within 1e-10")
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "matrix", u)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EventSpec:
    """One photon per listed input mode and a requested output occupation."""

    input_modes: tuple[int, ...]
    output_occupation: tuple[int, ...]

    def __post_init__(self) -> None:
        inputs = tuple(int(i) for i in self.input_modes)
        occ = tuple(int(s) for s in self.output_occupation)
        if len(inputs) < 1:
            raise DomainError("need at least one input photon")
        if len(set(inputs)) != len(inputs):
            raise DomainError("input modes must be distinct (one photon per input)")
        if any(s < 0 for s in occ):
            raise DomainError("output occupations must be nonnegative")
        if sum(occ) != len(inputs):
            raise DomainError("output occupation must sum to the photon number")
        if any(i < 0 or i >= len(occ) for i in inputs):
            raise DomainError("input mode index out of range")
        object.__setattr__(self, "input_modes", inputs)
        object.__setattr__(self, "output_occupation", occ)

    @property
    def n(self) -> int:
        return len(self.input_modes)


def balanced_tritter() -> Network:
    """The symmetric three-port splitter: the 3x3 Fourier unitary."""
    zeta = np.exp(2j * np.pi / 3.0)
    u = np.array(
        [[1, 1, 1], [1, zeta**2, zeta], [1, zeta, zeta**2]], dtype=complex
    ) / np.sqrt(3.0)
    return Network(u)


def balanced_beamsplitter() -> Network:
    """A 50:50 beamsplitter."""
    return Network(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square complex matrix by direct enumeration of permutations.

    Costs n! products; meant for the 3x3 matrices of the trace formulas.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("permanent requires a square matrix")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        p = 1.0 + 0.0j
        for i, j in enumerate(perm):
            p *= a[i, j]
        total += p
    return total


def output_occupations(n: int, m: int) -> list[tuple[int, ...]]:
    """All occupations of n photons over m output modes, lexicographic."""
    if m == 1:
        return [(n,)]
    out = []
    for first in range(n, -1, -1):
        for rest in output_occupations(n - first, m - 1):
            out.append((first,) + rest)
    return sorted(out)


def _gram_entries(g) -> np.ndarray:
    if isinstance(g, GramMatrix):
        return g.entries
    return GramMatrix(np.asarray(g, dtype=complex)).entries


def _occupation_factor(occupation: tuple[int, ...]) -> float:
    f = 1.0
    for s in occupation:
        f *= math.factorial(s)
    return f


def _finalize_probabilities(raw: np.ndarray) -> np.ndarray:
    """Real parts of ``raw``, checked for imaginary residues and out-of-band values."""
    worst = np.abs(raw.imag).argmax()
    if abs(raw.imag[worst]) >= 1e-8:
        raise NumericalInconsistency(f"imaginary residue {raw.imag[worst]:.3e} in a probability")
    p = raw.real
    if p.min() < -1e-10 or p.max() > 1.0 + 1e-10:
        bad = p[(p < -1e-10) | (p > 1.0 + 1e-10)][0]
        raise NumericalInconsistency(f"probability {float(bad)!r} outside [0, 1] tolerance band")
    return p


def event_probability(net: Network, spec: EventSpec, g) -> float:
    """Probability of the output occupation in ``spec`` for photons with Gram ``g``.

    One entry of :func:`event_distribution`.
    """
    if len(spec.output_occupation) != net.m:
        raise DomainError("output occupation length must equal the network dimension")
    return event_distribution(net, spec.input_modes, g)[spec.output_occupation]


def event_distribution(
    net: Network, input_modes: tuple[int, ...], g
) -> dict[tuple[int, ...], float]:
    """Probabilities of every output occupation, one photon per listed input mode.

    Dict front end of :func:`columns_distribution` on the inputs' columns of
    the network matrix.
    """
    modes = tuple(int(i) for i in input_modes)
    if len(modes) < 1:
        raise DomainError("need at least one input photon")
    if len(set(modes)) != len(modes):
        raise DomainError("input modes must be distinct (one photon per input)")
    if any(i < 0 or i >= net.m for i in modes):
        raise DomainError("input mode index out of range")
    probabilities = columns_distribution(net.matrix[:, modes], g, modes)
    return dict(zip(_occupations(len(modes), net.m), probabilities.tolist()))


@lru_cache(maxsize=None)
def _occupations(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Immutable :func:`output_occupations`, the one source of the occupation order."""
    return tuple(output_occupations(n, m))


def occupation_index(n: int, m: int) -> dict[tuple[int, ...], int]:
    """Position of every occupation of n photons over m outputs in :func:`output_occupations`."""
    return {occ: i for i, occ in enumerate(_occupations(n, m))}


@lru_cache(maxsize=None)
def _sum_tables(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Immutable tables of the n-photon sum over m outputs.

    Per photon k, the index photon k takes under every permutation of the n
    photons (n x n!) and its output row in every occupation (n x
    occupations); and the occupations' factorial products.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).T.copy()
    occupations = _occupations(n, m)
    rows = np.array(
        [[j for j, sj in enumerate(occ) for _ in range(sj)] for occ in occupations], dtype=np.intp
    ).T.copy()
    factors = np.array([_occupation_factor(occ) for occ in occupations])
    for table in (perms, rows, factors):
        table.flags.writeable = False
    return perms, rows, factors


def columns_distribution(
    columns: np.ndarray, g, input_modes: tuple[int, ...]
) -> np.ndarray:
    """Probabilities of every output occupation; ``columns[k, i]`` takes photon i to output k.

    Returned in :func:`output_occupations` order over ``columns.shape[0]``
    outputs.  ``input_modes[i]`` is photon i's input mode.  Photons sharing a
    mode must share one internal state, so the input norm is prod_j r_j! over
    the mode occupations r_j.  The S-product table is built once for all
    occupations.
    """
    cols = np.asarray(columns, dtype=complex)
    n = cols.shape[1]
    if n > DEFAULT_MAX_PHOTONS:
        raise SizeLimit(f"{n} photons exceeds the exact-evaluation cap of {DEFAULT_MAX_PHOTONS}")
    s = _gram_entries(g)
    if s.shape[0] != n or len(input_modes) != n:
        raise DomainError("Gram matrix and input modes must match the photon number")
    perms, rows, factors = _sum_tables(n, cols.shape[0])
    # sprod[a, b] = prod_k S[perm_a(k), perm_b(k)] and
    # amps[o, a] = prod_k columns[rows[o, k], perm_a(k)], one factor per photon k.
    sprod = s.take(perms[0], 0).take(perms[0], 1)
    amps = cols.take(rows[0], 0).take(perms[0], 1)
    for k in range(1, n):
        sprod *= s.take(perms[k], 0).take(perms[k], 1)
        amps *= cols.take(rows[k], 0).take(perms[k], 1)
    # One matrix product: einsum's unoptimised triple loop is 35x slower at 6 photons.
    raw = ((amps @ sprod) * amps.conj()).sum(axis=1)
    input_factor = _occupation_factor(tuple(input_modes.count(j) for j in set(input_modes)))
    return _finalize_probabilities(raw / (factors * input_factor))


def _check_moduli(r12: float, r23: float, r31: float) -> None:
    for name, r in (("r12", r12), ("r23", r23), ("r31", r31)):
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {r}")


def tritter_p111(r12: float, r23: float, r31: float, phi: float) -> float:
    """Coincidence probability of one photon per tritter output.

    Closed form (2 + 4*r12*r23*r31*cos(phi) - r12^2 - r23^2 - r31^2) / 9.
    """
    _check_moduli(r12, r23, r31)
    return (
        2.0
        + 4.0 * r12 * r23 * r31 * math.cos(phi)
        - r12 * r12
        - r23 * r23
        - r31 * r31
    ) / 9.0


def tritter_bunched(r12: float, r23: float, r31: float, phi: float) -> dict[str, float]:
    """Closed forms for the bunched tritter events.

    Returns the three event classes: fully bunched ``P300`` (also P030, P003),
    ``P120_class`` (= P120 = P012 = P201) and ``P021_class`` (= P021 = P210 =
    P102).
    """
    _check_moduli(r12, r23, r31)
    triple = r12 * r23 * r31
    p300 = (1.0 + r12 * r12 + r23 * r23 + r31 * r31 + 2.0 * triple * math.cos(phi)) / 27.0
    p120 = (1.0 - 2.0 * triple * math.cos(phi + math.pi / 3.0)) / 9.0
    p021 = (1.0 - 2.0 * triple * math.cos(phi - math.pi / 3.0)) / 9.0
    return {"P300": p300, "P120_class": p120, "P021_class": p021}


def two_photon_marginals_tritter(g) -> dict[str, float]:
    """Two-photon coincidences for each input pair of the balanced tritter.

    Each marginal is computed through the general engine with the photon pair
    injected into the corresponding inputs and detected at the matching output
    pair; all equal (2 - r_ij^2)/9.
    """
    s = _gram_entries(g)
    if s.shape != (3, 3):
        raise DomainError("expected the 3x3 Gram matrix of the photon triple")
    net = balanced_tritter()
    out = {}
    for name, (i, j) in (("P011", (1, 2)), ("P101", (0, 2)), ("P110", (0, 1))):
        sub = GramMatrix(s[np.ix_([i, j], [i, j])])
        occ = [0, 0, 0]
        occ[i] = 1
        occ[j] = 1
        out[name] = event_probability(net, EventSpec((i, j), tuple(occ)), sub)
    return out
