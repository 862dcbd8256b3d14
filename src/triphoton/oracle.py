"""Brute-force second-quantised simulator used to validate every probability.

States live in a Fock space over (spatial mode, internal basis index) pairs.
Photons are injected as creation-operator polynomials, the network substitutes
``a_dag[j, x] -> sum_k U[k, j] a_dag[k, x]`` and probabilities follow from the
Born rule.  Deliberately simple and unoptimised; correctness gate only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SizeLimit
from .interference import EventSpec, Network, event_probability, output_occupations
from .modes import GaussianTemporalMode, InternalState, PolarizationState, gram_matrix

ORACLE_MAX_PHOTONS = 6


@dataclass
class FockState:
    """Amplitudes over occupations of (mode, internal index) slots.

    Occupation keys are flat tuples of length ``n_modes * internal_dim`` in
    mode-major order.  A polarisation-dependent network is simulated as a
    plain network over (mode, polarisation) pairs.
    """

    n_modes: int
    internal_dim: int
    amplitudes: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))


def state_vectors(states: list[InternalState]) -> np.ndarray:
    """Orthonormal-basis coefficient vectors reproducing the states' Gram matrix.

    Rank-deficient Gram matrices are truncated to their numerical rank.
    """
    g = gram_matrix(states).entries
    return vectors_from_gram(g)


def vectors_from_gram(g: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(np.asarray(g, dtype=complex))
    keep = vals > max(1e-12, 1e-12 * vals.max())
    return vecs[:, keep] * np.sqrt(vals[keep])[None, :]


def expand_from_vectors(vectors: np.ndarray, input_modes: list[int], n_modes: int) -> FockState:
    """Create the (normalised) input Fock state for one photon per vector.

    ``input_modes`` may repeat: photons sharing a mode acquire the proper
    bosonic sqrt(n!) weights and the state is normalised at the end.
    """
    vectors = np.asarray(vectors, dtype=complex)
    n, d = vectors.shape
    if n != len(input_modes):
        raise DomainError("one input mode per photon required")
    if n > ORACLE_MAX_PHOTONS:
        raise SizeLimit(f"oracle capped at {ORACLE_MAX_PHOTONS} photons")
    state = FockState(n_modes=n_modes, internal_dim=d)
    size = n_modes * d
    amps: dict[tuple[int, ...], complex] = {tuple([0] * size): 1.0 + 0.0j}
    for photon in range(n):
        mode = input_modes[photon]
        new: dict[tuple[int, ...], complex] = {}
        for occ, amp in amps.items():
            for k in range(d):
                c = vectors[photon, k]
                if abs(c) < 1e-300:
                    continue
                slot = mode * d + k
                lifted = list(occ)
                lifted[slot] += 1
                key = tuple(lifted)
                new[key] = new.get(key, 0.0) + amp * c * math.sqrt(lifted[slot])
        amps = new
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    state.amplitudes = {k: v / norm for k, v in amps.items() if abs(v) > 0.0}
    return state


def expand_inputs(
    states: list[InternalState], input_modes: list[int], *, n_modes: int | None = None
) -> FockState:
    """Expand photons with the given internal states into a Fock state."""
    if n_modes is None:
        n_modes = max(input_modes) + 1
    return expand_from_vectors(state_vectors(states), input_modes, n_modes)


def _multinomial(total: int, parts: tuple[int, ...]) -> int:
    c = math.factorial(total)
    for p in parts:
        c //= math.factorial(p)
    return c


def evolve_amplitudes(fock: FockState, net: Network) -> FockState:
    """Apply the network to every creation operator and re-collect amplitudes."""
    u = net.matrix
    m, d = fock.n_modes, fock.internal_dim
    if u.shape[0] != m:
        raise DomainError("network dimension must match the Fock state's mode count")
    size = m * d
    poly: dict[tuple[int, ...], complex] = {}
    for occ, amp in fock.amplitudes.items():
        coeff = amp
        for count in occ:
            if count > 1:
                coeff /= math.sqrt(math.factorial(count))
        partial: dict[tuple[int, ...], complex] = {tuple([0] * size): coeff}
        for slot, count in enumerate(occ):
            if count == 0:
                continue
            j, x = divmod(slot, d)
            u_col = u[:, j]
            expanded: dict[tuple[int, ...], complex] = {}
            for mu in output_occupations(count, m):
                w = _multinomial(count, mu)
                c = complex(w)
                for k, mk in enumerate(mu):
                    if mk:
                        c *= u_col[k] ** mk
                if c == 0:
                    continue
                for key, val in partial.items():
                    lifted = list(key)
                    for k, mk in enumerate(mu):
                        if mk:
                            lifted[k * d + x] += mk
                    nk = tuple(lifted)
                    expanded[nk] = expanded.get(nk, 0.0) + val * c
            partial = expanded
        for key, val in partial.items():
            poly[key] = poly.get(key, 0.0) + val
    out = FockState(n_modes=m, internal_dim=d)
    amps = {}
    for key, val in poly.items():
        if abs(val) < 1e-300:
            continue
        c = val
        for count in key:
            if count > 1:
                c *= math.sqrt(math.factorial(count))
        amps[key] = c
    out.amplitudes = amps
    return out


def evolve_and_measure(fock: FockState, net: Network) -> dict[tuple[int, ...], float]:
    """Map from spatial output occupation to probability after the network."""
    evolved = evolve_amplitudes(fock, net)
    m, d = evolved.n_modes, evolved.internal_dim
    probs: dict[tuple[int, ...], float] = {}
    for occ, amp in evolved.amplitudes.items():
        spatial = tuple(sum(occ[j * d : (j + 1) * d]) for j in range(m))
        probs[spatial] = probs.get(spatial, 0.0) + abs(amp) ** 2
    return probs


def distribution_from_states(
    states: list[InternalState], input_modes: list[int], net: Network
) -> dict[tuple[int, ...], float]:
    """Convenience wrapper: expand, evolve and measure in one call."""
    fock = expand_inputs(states, input_modes, n_modes=net.m)
    return evolve_and_measure(fock, net)


def random_unitary(rng: np.random.Generator, m: int) -> Network:
    """Haar-ish random unitary from a QR decomposition with phase fixing."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return Network(q * phases[None, :])


def random_internal_states(
    rng: np.random.Generator, n: int, aux_dim: int = 3
) -> list[InternalState]:
    """Random product internal states: delays, polarisations and aux vectors."""
    omega = float(rng.uniform(0.0, 2.0))
    states = []
    for _ in range(n):
        t = float(rng.uniform(-1.5, 1.5))
        pol = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pol = pol / np.linalg.norm(pol)
        aux = rng.standard_normal(aux_dim) + 1j * rng.standard_normal(aux_dim)
        aux = aux / np.linalg.norm(aux)
        states.append(
            InternalState(
                temporal=GaussianTemporalMode(t, 1.0, omega),
                polarization=PolarizationState(complex(pol[0]), complex(pol[1])),
                aux=tuple(complex(a) for a in aux),
            )
        )
    return states


def equivalence_report(
    instances: int = 500, seed: int = 20260810, *, modes: int = 3, max_n: int = 4
) -> dict:
    """Compare the permutation-sum engine against this oracle on random instances.

    Every output occupation of every instance is checked; the report carries
    the largest absolute deviation observed.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for i in range(instances):
        n = 2 + (i % (max_n - 1))
        # One photon per input: n > modes needs a larger network.
        m = max(modes, n)
        net = random_unitary(rng, m)
        states = random_internal_states(rng, n)
        inputs = [int(j) for j in rng.permutation(m)[:n]]
        g = gram_matrix(states)
        reference = evolve_and_measure(
            expand_inputs(states, inputs, n_modes=m), net
        )
        for occ in output_occupations(n, m):
            p_sum = event_probability(net, EventSpec(tuple(inputs), occ), g)
            p_oracle = reference.get(occ, 0.0)
            worst = max(worst, abs(p_sum - p_oracle))
            checked += 1
    return {"instances": instances, "events_checked": checked, "max_deviation": worst}
