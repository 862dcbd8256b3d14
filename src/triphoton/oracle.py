"""Brute-force second-quantised simulator used to validate every probability.

States live in a Fock space over (spatial mode, internal basis index) pairs.
A state is a product of one creation operator per photon.  The network
substitutes ``a_dag[j, x] -> sum_k U[k, j] a_dag[k, x]`` in each photon's
creation operator; the product is then expanded once into occupation
amplitudes, one photon at a time, and probabilities follow from the Born
rule.  The expansion runs on arrays: a term is the sorted list of its
photons' slots, and equal terms are merged through their base-``width``
integer codes.  No permutation sum and no occupation table is shared with
the engine this checks.  Deliberately simple; correctness gate only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SizeLimit
from .interference import Network, event_distribution
from .modes import GramMatrix

ORACLE_MAX_PHOTONS = 6
# Bytes one creation step may allocate for its (terms x nonzero slots) rows:
# their slot lists, integer codes and amplitudes.
STEP_BYTES_LIMIT = 1 << 28


def _merge(rows: np.ndarray, amps: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum the entries of ``amps`` whose sorted ``rows`` are equal.

    Each row is read as a base-``base`` integer; returns one row per distinct
    code, in ascending code order, with the summed amplitudes.
    """
    powers = base ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    _, first, inverse = np.unique(rows @ powers, return_index=True, return_inverse=True)
    merged = np.bincount(inverse, weights=amps.real, minlength=len(first)).astype(amps.dtype)
    if np.iscomplexobj(amps):
        merged += 1j * np.bincount(inverse, weights=amps.imag, minlength=len(first))
    return rows[first], merged


def _occupations(rows: np.ndarray, width: int) -> list[tuple[int, ...]]:
    """The occupation tuple over ``width`` slots of each sorted slot list in ``rows``."""
    flat = rows + width * np.arange(len(rows))[:, None]
    counts = np.bincount(flat.ravel(), minlength=len(rows) * width)
    return list(map(tuple, counts.reshape(len(rows), width).tolist()))


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
            raise SizeLimit(f"{n} photons over {width} slots overflow the int64 term codes")
        rows.flags.writeable = False
        object.__setattr__(self, "photons", rows)

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, amps)``: one sorted slot list per term and its normalised amplitude.

        The photons are created one at a time: ``a_dag |n> = sqrt(n + 1)
        |n + 1>`` extends every term by each nonzero slot of the photon's row,
        then equal terms are merged.
        """
        width = self.photons.shape[1]
        slots = np.zeros((1, 0), dtype=np.int64)
        amps = np.ones(1, dtype=complex)
        for row in self.photons:
            nonzero = np.flatnonzero(row)
            size = len(slots) * len(nonzero)
            if size * (8 * slots.shape[1] + 32) > STEP_BYTES_LIMIT:
                raise SizeLimit(f"an oracle step of {size} terms exceeds {STEP_BYTES_LIMIT} bytes")
            extended = np.empty((size, slots.shape[1] + 1), dtype=np.int64)
            extended[:, :-1] = np.repeat(slots, len(nonzero), axis=0)
            extended[:, -1] = np.tile(nonzero, len(slots))
            # n + 1: the new slot's occupation once the photon is created.
            count = np.count_nonzero(extended == extended[:, -1:], axis=1)
            created = np.repeat(amps, len(nonzero))
            created *= np.tile(row[nonzero], len(slots))
            created *= np.sqrt(count)
            extended.sort(axis=1)
            slots, amps = _merge(extended, created, width)
        return slots, amps / np.linalg.norm(amps)

    @cached_property
    def amplitudes(self) -> dict[tuple[int, ...], complex]:
        """Occupation amplitudes, keyed by the occupation tuple over the slots."""
        slots, amps = self.terms
        return dict(zip(_occupations(slots, self.photons.shape[1]), amps.tolist()))


def expand_from_vectors(vectors: np.ndarray, input_modes: list[int], n_modes: int) -> FockState:
    """The input state with photon p in mode ``input_modes[p]``, internal vector ``vectors[p]``.

    ``input_modes`` may repeat: photons sharing a mode acquire the proper
    bosonic sqrt(n!) weights and the state is normalised.
    """
    vectors = np.asarray(vectors, dtype=complex)
    n, d = vectors.shape
    if n != len(input_modes):
        raise DomainError("one input mode per photon required")
    if n > ORACLE_MAX_PHOTONS:
        raise SizeLimit(f"oracle capped at {ORACLE_MAX_PHOTONS} photons")
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
    slots, amps = evolved.terms
    modes, probs = _merge(slots // evolved.internal_dim, np.abs(amps) ** 2, evolved.n_modes)
    return dict(zip(_occupations(modes, evolved.n_modes), probs.tolist()))


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
