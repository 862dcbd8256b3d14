"""Photon-number-resolved model of the three heralded pair sources.

Each source is a two-mode squeezer of parameter ``lambda`` emitting n pairs
with weight proportional to lambda^(2n), contaminated by uncorrelated noise
photons on the signal (herald) and idler sides with geometric weights.  The
joint emission of the three sources is enumerated exactly up to a total
photon budget and a noise-photon budget; heralding keeps the terms in which
every signal arm fires a (non-number-resolving) detector.  The impurity of a
heralded photon enters as a common-mode weight, :func:`_mixing_weight`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

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
        if self.truncation_total_photons < 2:
            raise DomainError("total-photon truncation must be at least 2")
        if self.truncation_noise_photons < 0:
            raise DomainError("noise-photon truncation must be nonnegative")
        if not 0.0 < self.herald_efficiency <= 1.0:
            raise DomainError("herald efficiency must lie in (0, 1]")


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

    @property
    def total_photons(self) -> int:
        return sum(2 * n + k + l for n, k, l in zip(self.pairs, self.signal_noise, self.idler_noise))


def enumerate_terms(params: SourceParams) -> list[EmissionTerm]:
    """All retained joint emission terms, lexicographic in (pairs, signal noise, idler noise)."""
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


def truncation_deficit(terms: list[EmissionTerm]) -> float:
    """Probability mass lost to the truncation, 1 - sum of retained weights."""
    return 1.0 - math.fsum(t.weight for t in terms)


@dataclass(frozen=True)
class HeraldedTerm:
    """Idler-side input configuration conditioned on all three heralds firing.

    ``pair_idlers[i]`` identical idler photons (the source's nominal internal
    state) enter input mode i together with ``noise_idlers[i]`` noise photons
    that are orthogonal to every other photon.  ``weight`` already contains
    the emission weight times the triple-herald click probability.
    """

    pair_idlers: tuple[int, int, int]
    noise_idlers: tuple[int, int, int]
    weight: float


def heralded_ensemble(terms: list[EmissionTerm], herald_efficiency: float) -> list[HeraldedTerm]:
    """Weighted idler-side configurations given a click in all three herald arms.

    Herald detectors are threshold detectors: with c photons in a signal arm
    the click probability is 1 - (1-eta)**c, with the same efficiency eta in
    every arm.  Terms that cannot herald (an empty signal arm) are dropped;
    configurations differing only in signal-noise counts are merged.
    """
    if not 0.0 < herald_efficiency <= 1.0:
        raise DomainError("herald efficiency must lie in (0, 1]")
    miss = 1.0 - float(herald_efficiency)

    merged: dict[tuple[tuple[int, int, int], tuple[int, int, int]], float] = {}
    for term in terms:
        click = 1.0
        for i in range(N_SOURCES):
            photons = term.pairs[i] + term.signal_noise[i]
            click *= 1.0 - miss**photons
            if click == 0.0:
                break
        if click == 0.0:
            continue
        key = (term.pairs, term.idler_noise)
        merged[key] = merged.get(key, 0.0) + term.weight * click
    return [
        HeraldedTerm(pair_idlers=pairs, noise_idlers=noise, weight=w)
        for (pairs, noise), w in sorted(merged.items())
    ]
