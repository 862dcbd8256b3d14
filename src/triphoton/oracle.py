"""Brute-force second-quantised simulator used to validate every probability.

States live in a Fock space over (spatial mode, internal basis index) pairs.
A state is a product of one creation operator per photon.  The network
substitutes ``a_dag[j, x] -> sum_k U[k, j] a_dag[k, x]`` in each photon's
creation operator; the product is then expanded once into occupation
amplitudes, one photon at a time, and probabilities follow from the Born
rule.  The tables span only the slots some photon occupies.  A term is a
multiset of those slots, named by its index among all multisets of its size
in lexicographic order.  Creating a photon reads one cached table per
(photons created so far, occupied slots): the index each multiset reaches
when a slot is added, and ``sqrt(n + 1)``.  No permutation sum and no
occupation table is shared with the engine this checks.  Deliberately
simple; correctness gate only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement

import numpy as np

from .errors import DomainError, SizeLimit
from .interference import Network, event_distribution
from .modes import GramMatrix

ORACLE_MAX_PHOTONS = 6
# Bytes one creation table may take while it is built, per (multiset, slot)
# pair: the grown multiset, its code, the index it reaches and sqrt(n + 1).
# A step's gathered amplitudes, indices and factors fit in the same bytes.
STEP_BYTES_LIMIT = 1 << 28


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _codes(rows: np.ndarray, base: int) -> np.ndarray:
    """Each sorted row of ``rows`` read as a base-``base`` integer, which keeps their order."""
    return rows @ base ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)


def _counts(rows: np.ndarray, width: int) -> np.ndarray:
    """The ``(len(rows), width)`` occupations of the sorted slot lists ``rows``."""
    flat = rows + width * np.arange(len(rows))[:, None]
    return np.bincount(flat.ravel(), minlength=len(rows) * width).reshape(len(rows), width)


def _occupations(rows: np.ndarray, width: int) -> list[tuple[int, ...]]:
    """The occupation tuple over ``width`` slots of each sorted slot list in ``rows``."""
    return list(map(tuple, _counts(rows, width).tolist()))


@lru_cache(maxsize=32)
def _multisets(k: int, width: int) -> np.ndarray:
    """The k-slot multisets over ``width`` slots, one sorted row each, in lexicographic order."""
    size = math.comb(width + k - 1, k)
    rows = chain.from_iterable(combinations_with_replacement(range(width), k))
    return _read_only(np.fromiter(rows, dtype=np.int64, count=size * k).reshape(size, k))


@lru_cache(maxsize=32)
def _creation(k: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``(reached, factor)``, each ``(k-multisets, width)``: adding slot s to a k-multiset.

    ``reached`` is the index of the grown multiset among the (k + 1)-multisets
    and ``factor`` is ``sqrt(n_s + 1)``, the weight ``a_dag[s]`` gives it.
    """
    before = _multisets(k, width)
    grown = np.empty((len(before), width, k + 1), dtype=np.int64)
    grown[..., :k] = before[:, None, :]
    grown[..., k] = np.arange(width)
    grown.sort(axis=2)
    reached = np.searchsorted(_codes(_multisets(k + 1, width), width), _codes(grown, width))
    return _read_only(reached), _read_only(np.sqrt(_counts(before, width) + 1))


@lru_cache(maxsize=32)
def _spatial(n: int, slot_modes: tuple[int, ...], n_modes: int) -> np.ndarray:
    """For each n-multiset of slots, the index of its n-multiset of modes.

    Slot s lies in mode ``slot_modes[s]``, which never decreases with s.
    """
    modes = _codes(np.array(slot_modes)[_multisets(n, len(slot_modes))], n_modes)
    return _read_only(np.searchsorted(_codes(_multisets(n, n_modes), n_modes), modes))


def _summed(targets: np.ndarray, weights: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices below ``size`` that ``targets`` reach, ascending, and the weights summed on each.

    An index whose weights cancel is kept with its exact zero.
    """
    sums = np.bincount(targets, weights=weights.real, minlength=size)
    if np.iscomplexobj(weights):
        sums = sums + 1j * np.bincount(targets, weights=weights.imag, minlength=size)
    reached = np.zeros(size, dtype=bool)
    reached[targets] = True
    return np.flatnonzero(reached), sums[reached]


@dataclass(frozen=True, eq=False)
class FockState:
    """The state prod_p (sum_s photons[p, s] a_dag[s]) |0>, normalised.

    ``photons[p]`` holds photon p's amplitudes over the ``n_modes *
    internal_dim`` (mode, internal index) slots in mode-major order; the
    occupation keys of ``amplitudes`` are flat tuples over the same slots.
    A polarisation-dependent network is simulated as a plain network over
    (mode, polarisation) pairs.
    """

    n_modes: int
    internal_dim: int
    photons: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.photons, dtype=complex)
        if rows.ndim != 2 or rows.shape[1] != self.n_modes * self.internal_dim:
            raise DomainError("one row of n_modes * internal_dim amplitudes per photon required")
        n, width = rows.shape
        if width**n > np.iinfo(np.int64).max:
            raise SizeLimit(f"{n} photons over {width} slots overflow the int64 multiset codes")
        rows.flags.writeable = False
        object.__setattr__(self, "photons", rows)

    @cached_property
    def occupied(self) -> np.ndarray:
        """The slots some photon's row is nonzero on, ascending; every slot if there are none."""
        return np.flatnonzero(self.photons.any(axis=0) | ~self.photons.any())

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(index, amps)``: each term's index among n-multisets of occupied slots, and amplitude.

        The photons are created one at a time over the occupied slots only:
        ``a_dag[s] |n> = sqrt(n_s + 1) |n + e_s>`` takes every term, for each
        nonzero slot s of the photon's row, to the multiset that
        :func:`_creation` tabulates, and the amplitudes reaching one multiset
        are summed.  Every multiset reached stays a term, even where its
        amplitudes cancel.  The amplitudes are normalised.
        """
        rows, width = self.photons[:, self.occupied], len(self.occupied)
        index = np.zeros(1, dtype=np.int64)
        amps = np.ones(1, dtype=complex)
        for k, row in enumerate(rows):
            size = math.comb(width + k - 1, k) * width  # the table's (multiset, slot) pairs
            if size * (8 * k + 40) > STEP_BYTES_LIMIT:
                raise SizeLimit(f"an oracle step of {size} terms exceeds {STEP_BYTES_LIMIT} bytes")
            reached, factor = _creation(k, width)
            nonzero = np.flatnonzero(row)
            cells = np.ix_(index, nonzero)
            created = amps[:, None] * row[nonzero]
            created *= factor[cells]
            n_grown = math.comb(width + k, k + 1)
            index, amps = _summed(reached[cells].ravel(), created.ravel(), n_grown)
        return index, amps / np.linalg.norm(amps)

    @cached_property
    def amplitudes(self) -> dict[tuple[int, ...], complex]:
        """Occupation amplitudes, keyed by the occupation tuple over the slots."""
        index, amps = self.terms
        n, width = self.photons.shape
        slots = self.occupied[_multisets(n, len(self.occupied))[index]]
        return dict(zip(_occupations(slots, width), amps.tolist()))


def expand_from_vectors(vectors: np.ndarray, input_modes: list[int], n_modes: int) -> FockState:
    """The input state with photon p in mode ``input_modes[p]``, internal vector ``vectors[p]``.

    ``input_modes`` may repeat: photons sharing a mode acquire the proper
    bosonic sqrt(n!) weights and the state is normalised.  The internal basis
    is the photons' span: n photons in d > n dimensions are expanded in an
    orthonormal basis of n vectors spanning theirs, which keeps their inner
    products and so every measured probability, but not the internal indices
    of ``amplitudes``.
    """
    vectors = np.asarray(vectors, dtype=complex)
    n, d = vectors.shape
    if n != len(input_modes):
        raise DomainError("one input mode per photon required")
    if n > ORACLE_MAX_PHOTONS:
        raise SizeLimit(f"oracle capped at {ORACLE_MAX_PHOTONS} photons")
    if d > n:
        # V^dagger = Q R with orthonormal columns in Q, so V = R^dagger Q^dagger.
        vectors = np.linalg.qr(vectors.conj().T)[1].conj().T
        d = n
    rows = np.zeros((n, n_modes, d), dtype=complex)
    rows[np.arange(n), input_modes] = vectors  # e_j (x) v_p
    return FockState(n_modes, d, rows.reshape(n, n_modes * d))


def evolve_amplitudes(fock: FockState, net: Network) -> FockState:
    """The state after the network: (U (x) 1) applied to every photon's row."""
    u = net.matrix
    m, d = fock.n_modes, fock.internal_dim
    if u.shape[0] != m:
        raise DomainError("network dimension must match the Fock state's mode count")
    rows = fock.photons.reshape(-1, m, d)
    return FockState(m, d, np.einsum("kj,pjx->pkx", u, rows).reshape(len(rows), m * d))


def evolve_and_measure(fock: FockState, net: Network) -> dict[tuple[int, ...], float]:
    """Map from spatial output occupation to probability after the network."""
    evolved = evolve_amplitudes(fock, net)
    index, amps = evolved.terms
    n, m = len(evolved.photons), evolved.n_modes
    slot_modes = tuple((evolved.occupied // evolved.internal_dim).tolist())
    spatial = _spatial(n, slot_modes, m)[index]
    modes, probs = _summed(spatial, np.abs(amps) ** 2, math.comb(m + n - 1, n))
    return dict(zip(_occupations(_multisets(n, m)[modes], m), probs.tolist()))


def random_unitary(rng: np.random.Generator, m: int) -> Network:
    """Haar-ish random unitary from a QR decomposition with phase fixing."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return Network(q * phases[None, :])


def equivalence_report(instances: int, seed: int) -> dict:
    """Compare the permutation-sum engine against this oracle on random instances.

    Instances cycle through 2, 3 and 4 photons on random networks of at least
    3 modes.  The n photons' internal states are n random unit vectors ``V``
    in n dimensions: the oracle expands ``V`` itself and the engine gets the
    Gram matrix ``V V^dagger``, so neither side is derived from the other.
    Every output occupation of every instance is checked; the report carries
    the largest absolute deviation observed.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for i in range(instances):
        n = 2 + i % 3
        # One photon per input: 4 photons need a 4-mode network.
        m = max(3, n)
        net = random_unitary(rng, m)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        vectors = z / np.linalg.norm(z, axis=1, keepdims=True)
        inputs = [int(j) for j in rng.permutation(m)[:n]]
        reference = evolve_and_measure(expand_from_vectors(vectors, inputs, m), net)
        g = GramMatrix(vectors @ vectors.conj().T)
        for occ, p_sum in event_distribution(net, tuple(inputs), g).items():
            worst = max(worst, abs(p_sum - reference.get(occ, 0.0)))
            checked += 1
    return {"instances": instances, "events_checked": checked, "max_deviation": worst}
