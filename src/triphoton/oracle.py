"""Brute-force second-quantised simulator used to validate every probability.

States live in a Fock space over (spatial mode, internal basis index) pairs.
A state is a product of one creation operator per photon.  The network
substitutes ``a_dag[j, x] -> sum_k U[k, j] a_dag[k, x]`` in each photon's
creation operator; the product is then expanded once into occupation
amplitudes, one photon at a time, and probabilities follow from the Born
rule.  No permutation sum and no occupation table is shared with the engine
this checks.  Deliberately simple; correctness gate only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DomainError, SizeLimit
from .interference import Network, event_distribution
from .modes import GramMatrix, InternalState, gram_matrix

ORACLE_MAX_PHOTONS = 6


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
        rows.flags.writeable = False
        object.__setattr__(self, "photons", rows)

    @cached_property
    def amplitudes(self) -> dict[tuple[int, ...], complex]:
        """Occupation amplitudes: the photons created one at a time, equal keys merged."""
        poly = {(0,) * self.photons.shape[1]: 1.0 + 0.0j}
        for row in self.photons:
            terms = [(s, c) for s, c in enumerate(row.tolist()) if c != 0]
            created: dict[tuple[int, ...], complex] = {}
            for occ, amp in poly.items():
                for s, c in terms:
                    # a_dag |n> = sqrt(n + 1) |n + 1> in slot s.
                    count = occ[s] + 1
                    key = occ[:s] + (count,) + occ[s + 1 :]
                    created[key] = created.get(key, 0.0) + amp * c * math.sqrt(count)
            poly = created
        norm = math.sqrt(math.fsum(abs(a) ** 2 for a in poly.values()))
        return {occ: a / norm for occ, a in poly.items()}


def vectors_from_gram(g: np.ndarray) -> np.ndarray:
    """Orthonormal-basis coefficient vectors reproducing the Gram matrix ``g``.

    Rank-deficient Gram matrices are truncated to their numerical rank.
    """
    vals, vecs = np.linalg.eigh(np.asarray(g, dtype=complex))
    keep = vals > max(1e-12, 1e-12 * vals.max())
    return vecs[:, keep] * np.sqrt(vals[keep])[None, :]


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


def expand_inputs(
    states: list[InternalState], input_modes: list[int], *, n_modes: int | None = None
) -> FockState:
    """Expand photons with the given internal states into a Fock state."""
    if n_modes is None:
        n_modes = max(input_modes) + 1
    return expand_from_vectors(vectors_from_gram(gram_matrix(states).entries), input_modes, n_modes)


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
    m, d, amps = evolved.n_modes, evolved.internal_dim, evolved.amplitudes
    slots = np.fromiter(chain.from_iterable(amps), dtype=int, count=len(amps) * m * d)
    spatial = slots.reshape(len(amps), m, d).sum(axis=2)
    probs: dict[tuple[int, ...], float] = {}
    for occ, amp in zip(map(tuple, spatial.tolist()), amps.values()):
        probs[occ] = probs.get(occ, 0.0) + abs(amp) ** 2
    return probs


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
