"""Photon-number-resolved model of the three heralded pair sources.

Each source is a two-mode squeezer of parameter ``lambda`` emitting n pairs
with weight proportional to lambda^(2n), contaminated by uncorrelated noise
photons on the signal (herald) and idler sides with geometric weights.  The
joint emission of the three sources is truncated at a total photon budget and
a noise-photon budget; heralding keeps the terms in which every signal arm
fires a (non-number-resolving) detector.  :func:`heralded_ensemble` and
:func:`truncation_deficit` sum the signal-noise counts per pair configuration
in closed form; :func:`enumerate_terms` lists every joint term and is their
reference.  The impurity of a heralded photon enters as a common-mode weight,
:func:`_mixing_weight`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import accumulate, product

from .errors import DomainError

N_SOURCES = 3


@dataclass(frozen=True)
class SourceParams:
    """Parameters of the (identical) three squeezer sources.

    ``squeezing`` is the squeezing parameter, ``purity`` the single-photon
    internal-state purity, ``p_noise_idler``/``p_noise_signal`` the per-photon
    uncorrelated noise probabilities.  Truncation keeps joint terms with at
    most ``truncation_total_photons`` photons overall (pairs count twice) and
    at most ``truncation_noise_photons`` noise photons.
    """

    squeezing: float = 0.16
    purity: float = 0.9
    p_noise_idler: float = 0.035
    p_noise_signal: float = 0.009
    truncation_total_photons: int = 8
    truncation_noise_photons: int = 3
    herald_efficiency: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.squeezing < 1.0:
            raise DomainError("squeezing must lie in [0, 1)")
        for name in ("p_noise_idler", "p_noise_signal"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise DomainError(f"{name} must lie in [0, 1)")
        for name in ("truncation_total_photons", "truncation_noise_photons"):
            budget = getattr(self, name)
            if isinstance(budget, bool) or not isinstance(budget, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {budget!r}")
        if self.truncation_total_photons < 2:
            raise DomainError("total-photon truncation must be at least 2")
        if self.truncation_noise_photons < 0:
            raise DomainError("noise-photon truncation must be nonnegative")
        if not 0.0 < self.herald_efficiency <= 1.0:
            raise DomainError("herald efficiency must lie in (0, 1]")
        _mixing_weight(self.purity)


def _mixing_weight(purity: float) -> float:
    """Common-mode weight p of a heralded photon of the given purity.

    Each photon is modelled as ``p |c><c| + (1-p) |d_i><d_i|`` in a mixedness
    space, with |c> shared by all photons and the |d_i> mutually orthogonal.
    p solves p^2 + (1-p)^2 = purity (larger root), so that Tr(rho^2) equals
    the purity.
    """
    if not 0.5 <= purity <= 1.0:
        raise DomainError(f"the mixedness model realises purities in [1/2, 1], not {purity}")
    return 0.5 * (1.0 + math.sqrt(2.0 * purity - 1.0))


def _pair_configurations(params: SourceParams):
    """Every retained pair configuration, lexicographic: ``(pairs, r, weight)``.

    ``r`` is the noise photons the truncation leaves it, min(noise budget,
    total budget - 2 |pairs|), and ``weight`` the emission weight of its
    noise-free term, base * lambda^(2 |pairs|).
    """
    lam2 = params.squeezing**2
    base = ((1.0 - lam2) * (1.0 - params.p_noise_signal) * (1.0 - params.p_noise_idler)) ** N_SOURCES
    n_budget = params.truncation_total_photons
    noise_budget = min(params.truncation_noise_photons, n_budget)
    for pairs in product(range(n_budget // 2 + 1), repeat=N_SOURCES):
        photons_from_pairs = 2 * sum(pairs)
        if photons_from_pairs <= n_budget:
            yield pairs, min(noise_budget, n_budget - photons_from_pairs), base * lam2 ** sum(pairs)


def heralded_ensemble(params: SourceParams) -> dict[tuple[int, int, int], list[float]]:
    """Heralded weights of every pair configuration given a click in all three herald arms.

    Herald detectors are threshold detectors: with c photons in a signal arm
    the click probability is 1 - m**c, m = 1 - eta, in every arm.  The
    signal-noise counts k are summed in closed form.  For pairs n, the
    polynomial C_n(z) = prod_i sum_k (1 - m**(n_i + k)) (p_s z)**k, truncated
    at degree r, holds the heralded signal-noise weight by |k|; an idler-noise
    vector l leaves |k| <= r - |l|, so every vector with |l| = L weighs
    ``c[L]`` = base * lambda^(2|n|) * p_i^L times the sum of the coefficients
    of C_n up to degree r - L.  Returns ``{pairs: c}``, L = 0..r, in lexicographic pair
    order; a configuration that never heralds is dropped.
    """
    p_s, p_i = params.p_noise_signal, params.p_noise_idler
    miss = 1.0 - params.herald_efficiency
    heralded = {}
    for pairs, r, weight in _pair_configurations(params):
        poly = [1.0] + [0.0] * r
        for n in pairs:
            factor = [(1.0 - miss ** (n + k)) * p_s**k for k in range(r + 1)]
            poly = [sum(poly[j] * factor[d - j] for j in range(d + 1)) for d in range(r + 1)]
        heralded_by_noise = list(accumulate(poly))
        c = [weight * p_i**l_total * heralded_by_noise[r - l_total] for l_total in range(r + 1)]
        if any(c):
            heralded[pairs] = c
    return heralded


def truncation_deficit(params: SourceParams) -> float:
    """Probability mass lost to the truncation, 1 - sum of retained emission weights.

    C(K+2, 2) signal-noise vectors carry K photons, and likewise for idler
    noise, so each pair configuration keeps
    sum_{K+L <= r} C(K+2, 2) p_s^K C(L+2, 2) p_i^L times its noise-free weight.
    """
    p_s, p_i = params.p_noise_signal, params.p_noise_idler
    retained = [
        weight * math.comb(k + 2, 2) * p_s**k * math.comb(l + 2, 2) * p_i**l
        for _, r, weight in _pair_configurations(params)
        for k in range(r + 1)
        for l in range(r + 1 - k)
    ]
    return 1.0 - math.fsum(retained)


@dataclass(frozen=True)
class EmissionTerm:
    """One joint emission outcome of the three sources.

    ``pairs[i]`` photon pairs, ``signal_noise[i]`` noise photons in the
    signal arm and ``idler_noise[i]`` noise photons in the idler arm of
    source i; ``weight`` is the exact joint probability.
    """

    pairs: tuple[int, int, int]
    signal_noise: tuple[int, int, int]
    idler_noise: tuple[int, int, int]
    weight: float


def enumerate_terms(params: SourceParams) -> list[EmissionTerm]:
    """All retained joint emission terms, lexicographic in (pairs, signal noise, idler noise).

    The explicit reference of :func:`heralded_ensemble` and
    :func:`truncation_deficit`, which sum these terms in closed form; no run
    calls it.
    """
    lam2 = params.squeezing**2
    p_s = params.p_noise_signal
    p_i = params.p_noise_idler
    base = ((1.0 - lam2) * (1.0 - p_s) * (1.0 - p_i)) ** N_SOURCES
    n_budget = params.truncation_total_photons
    # Noise photons count toward the total budget too.
    noise_budget = min(params.truncation_noise_photons, n_budget)

    max_pairs = n_budget // 2
    terms = []
    for pairs in product(range(max_pairs + 1), repeat=N_SOURCES):
        photons_from_pairs = 2 * sum(pairs)
        if photons_from_pairs > n_budget:
            continue
        for signal_noise in product(range(noise_budget + 1), repeat=N_SOURCES):
            k_total = sum(signal_noise)
            if k_total > noise_budget or photons_from_pairs + k_total > n_budget:
                continue
            for idler_noise in product(range(noise_budget + 1), repeat=N_SOURCES):
                l_total = sum(idler_noise)
                if k_total + l_total > noise_budget:
                    continue
                if photons_from_pairs + k_total + l_total > n_budget:
                    continue
                weight = base
                for n, k, l in zip(pairs, signal_noise, idler_noise):
                    weight *= lam2**n * p_s**k * p_i**l
                if weight == 0.0:
                    continue
                terms.append(EmissionTerm(pairs, signal_noise, idler_noise, weight))
    return terms
