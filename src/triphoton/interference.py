"""Exact output-event probabilities for partially distinguishable photons.

One engine, :func:`_columns_distribution`, evaluates the double permutation sum

    P(s) = (prod_j s_j!)^-1 * sum_{sigma, rho in S_n}
           prod_k M[k, sigma(k)] * conj(M[k, rho(k)]) * S[sigma(k), rho(k)]

for every output occupation s at once, where M repeats row j of the photon
columns (one column per photon) exactly s_j times and S is the Gram matrix
of internal states; given a stack of Gram matrices, it does so for every
point of the stack at once.  Photons sharing an input mode and
internal state divide the sum by the input-occupation factorials as well.
The engine trusts the Gram entries it is given; its callers validate them.
:func:`event_distribution` and :func:`event_probability` are its front ends
for one photon per input of a network, and check their Gram matrix through
:class:`~triphoton.modes.GramMatrix`.  Closed forms for the balanced
beamsplitter and tritter are provided and must agree with the engine to near
machine precision.
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
# Bytes of the larger per-block table, the S-product table or the amplitude
# product: one 6-photon point's 720**2 complex S-products.
_BLOCK_BYTES = 2**23


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
        # The experiment's click patterns must sum to 1 within 1e-12, and they
        # miss it by about 2.4 times the unitarity error.
        if not np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= 1e-13:
            raise DomainError("network matrix must be unitary within 1e-13")
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
        occ = tuple(int(s) for s in self.output_occupation)
        inputs = _check_inputs(self.input_modes, len(occ))
        if any(s < 0 for s in occ):
            raise DomainError("output occupations must be nonnegative")
        if sum(occ) != len(inputs):
            raise DomainError("output occupation must sum to the photon number")
        object.__setattr__(self, "input_modes", inputs)
        object.__setattr__(self, "output_occupation", occ)

    @property
    def n(self) -> int:
        return len(self.input_modes)


def balanced_tritter() -> Network:
    """The symmetric three-port splitter: the 3x3 Fourier unitary."""
    zeta = np.exp(2j * np.pi / 3.0)
    u = np.array([[1, 1, 1], [1, zeta**2, zeta], [1, zeta, zeta**2]], dtype=complex)
    return Network(u / np.sqrt(3.0))


def balanced_beamsplitter() -> Network:
    """A 50:50 beamsplitter."""
    return Network(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))


def output_occupations(n: int, m: int) -> list[tuple[int, ...]]:
    """All occupations of n photons over m output modes, lexicographic."""
    return list(_occupations(n, m))


@lru_cache(maxsize=None)
def _occupations(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The one source of the occupation order: lexicographic, as the first count ascends."""
    if not (n >= 0 and m >= 1):
        raise DomainError(f"occupations need n >= 0 photons and m >= 1 modes, got n={n}, m={m}")
    if m == 1:
        return ((n,),)
    return tuple((k,) + rest for k in range(n + 1) for rest in _occupations(n - k, m - 1))


def _check_inputs(input_modes, m: int) -> tuple[int, ...]:
    """``input_modes`` as ints, one photon each: at least one, distinct, each below m."""
    modes = tuple(int(i) for i in input_modes)
    if len(modes) < 1:
        raise DomainError("need at least one input photon")
    if len(set(modes)) != len(modes):
        raise DomainError("input modes must be distinct (one photon per input)")
    if any(i < 0 or i >= m for i in modes):
        raise DomainError("input mode index out of range")
    return modes


def _finalize_probabilities(raw: np.ndarray) -> np.ndarray:
    """Real parts of ``raw``, checked for imaginary residues and out-of-band values.

    ``raw`` may have any shape: one bad entry anywhere fails the whole array,
    and an empty array passes.  Both checks compare as ``not err <= tol``, so
    a NaN fails them.
    """
    if raw.size == 0:
        return raw.real
    imag = raw.imag.ravel()
    worst = np.abs(imag).argmax()
    if not abs(imag[worst]) < 1e-8:
        raise NumericalInconsistency(f"imaginary residue {imag[worst]:.3e} in a probability")
    p = raw.real
    if not (p.min() >= -1e-10 and p.max() <= 1.0 + 1e-10):
        bad = p[~((p >= -1e-10) & (p <= 1.0 + 1e-10))][0]
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

    Dict front end of :func:`_columns_distribution` on the inputs' columns of
    the network matrix.  ``g`` is a :class:`GramMatrix` or an array that
    must pass its checks.
    """
    modes = _check_inputs(input_modes, net.m)
    s = (g if isinstance(g, GramMatrix) else GramMatrix(g)).entries
    probabilities = _columns_distribution(net.matrix[:, modes], s, modes)
    return dict(zip(_occupations(len(modes), net.m), probabilities.tolist()))


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
    factors = np.array([math.prod(map(math.factorial, occ)) for occ in occupations], dtype=float)
    for table in (perms, rows, factors):
        table.flags.writeable = False
    return perms, rows, factors


def _columns_distribution(
    columns: np.ndarray, s: np.ndarray, input_modes: tuple[int, ...]
) -> np.ndarray:
    """Probabilities of every output occupation; ``columns[k, i]`` takes photon i to output k.

    Returned in :func:`output_occupations` order over ``columns.shape[0]``
    outputs.  ``s`` holds the entries of a Gram matrix the caller has
    validated; it is not checked again.  ``s`` may carry a leading point
    axis: a ``(P, n, n)`` stack of Gram matrices, all for the same columns,
    gives a ``(P, occupations)`` array, row p that of ``s[p]`` alone, and
    one bad probability at any point fails the whole stack.
    ``input_modes[i]`` is photon i's input mode.  Photons sharing a mode
    must share one internal state, so the input norm is prod_j r_j! over
    the mode occupations r_j.  The amplitude table is built once; the points
    go in blocks whose S-product table (n!**2 values a point) and amplitude
    product (occupations x n! values a point) each stay within
    ``_BLOCK_BYTES``, so a long stack costs time, not memory, and the blocks
    move no bit.
    """
    cols = np.asarray(columns, dtype=complex)
    n = cols.shape[1]
    if n > DEFAULT_MAX_PHOTONS:
        raise SizeLimit(f"{n} photons exceeds the exact-evaluation cap of {DEFAULT_MAX_PHOTONS}")
    if s.ndim not in (2, 3) or s.shape[-2:] != (n, n) or len(input_modes) != n:
        raise DomainError("Gram matrix and input modes must match the photon number")
    perms, rows, factors = _sum_tables(n, cols.shape[0])
    # amps[o, a] = prod_k columns[rows[o, k], perm_a(k)], one factor per photon k.
    amps = cols.take(rows[0], 0).take(perms[0], 1)
    for k in range(1, n):
        amps *= cols.take(rows[k], 0).take(perms[k], 1)
    raw = np.empty(s.shape[:-2] + factors.shape, dtype=complex)
    points, grams = raw.reshape(-1, len(factors)), s.reshape(-1, n, n)
    step = max(1, _BLOCK_BYTES // (16 * perms.shape[1] * max(perms.shape[1], len(factors))))
    for start in range(0, len(grams), step):
        block = grams[start : start + step]
        # sprod[p, a, b] = prod_k S[p, perm_a(k), perm_b(k)].
        sprod = block.take(perms[0], -2).take(perms[0], -1)
        for k in range(1, n):
            sprod *= block.take(perms[k], -2).take(perms[k], -1)
        # One stacked matrix product: einsum's triple loop is 35x slower at 6 photons.
        points[start : start + step] = ((amps @ sprod) * amps.conj()).sum(axis=-1)
    input_factor = math.prod(math.factorial(input_modes.count(j)) for j in set(input_modes))
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

