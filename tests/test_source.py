import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triphoton.source
from triphoton.errors import DomainError
from triphoton.experiment import scan_points, simulate_counts
from triphoton.source import (
    SourceParams,
    enumerate_terms,
    heralded_ensemble,
    truncation_deficit,
)

NOMINAL = SourceParams()  # squeezing 0.16, purity 0.9, P_I 0.035, P_S 0.009


def find(terms, pairs, signal_noise=(0, 0, 0), idler_noise=(0, 0, 0)):
    for t in terms:
        if (t.pairs, t.signal_noise, t.idler_noise) == (pairs, signal_noise, idler_noise):
            return t
    return None


def heralded_vectors(terms, herald_efficiency):
    """Heralded weight of every (pairs, idler noise) from explicit joint terms.

    Every joint term is thinned by its herald click probability and merged by
    (pairs, idler-noise vector); terms that never herald are dropped.  Keys
    are in lexicographic order.
    """
    miss = 1.0 - herald_efficiency
    merged = {}
    for term in terms:
        click = math.prod(1.0 - miss ** (n + k) for n, k in zip(term.pairs, term.signal_noise))
        if click == 0.0:
            continue
        key = (term.pairs, term.idler_noise)
        merged[key] = merged.get(key, 0.0) + term.weight * click
    return dict(sorted(merged.items()))


def reference_ensemble(params):
    """The heralded ensemble, herald norm and truncation deficit from the explicit terms.

    All C(L+2, 2) idler-noise vectors with L photons of a pair configuration
    must carry one weight, c[L], to 1e-14 relative.  L runs to the noise
    photons the truncation leaves, min(noise budget, total budget - 2 |pairs|),
    and an L no heralded vector reaches reads 0.  The herald norm sums every
    vector's weight; the deficit is 1 minus the sum of all term weights.
    """
    terms = enumerate_terms(params)
    vectors = heralded_vectors(terms, params.herald_efficiency)
    by_total = {}
    for (pairs, noise), w in vectors.items():
        by_total.setdefault((pairs, sum(noise)), []).append(w)
    noise_budget = min(params.truncation_noise_photons, params.truncation_total_photons)
    heralded = {}
    for (pairs, l_total), weights in by_total.items():
        assert len(weights) == math.comb(l_total + 2, 2)
        assert all(abs(w - weights[0]) <= 1e-14 * weights[0] for w in weights)
        r = min(noise_budget, params.truncation_total_photons - 2 * sum(pairs))
        heralded.setdefault(pairs, [0.0] * (r + 1))[l_total] = weights[0]
    return heralded, math.fsum(vectors.values()), 1.0 - math.fsum(t.weight for t in terms)


class TestEnumerateTerms:
    def test_vacuum_only_source(self):
        terms = enumerate_terms(
            SourceParams(squeezing=0.0, p_noise_idler=0.0, p_noise_signal=0.0)
        )
        assert len(terms) == 1
        assert terms[0].pairs == (0, 0, 0)
        assert terms[0].weight == pytest.approx(1.0)

    def test_triple_pair_weight(self):
        lam = 0.16
        terms = enumerate_terms(
            SourceParams(squeezing=lam, p_noise_idler=0.0, p_noise_signal=0.0)
        )
        t = find(terms, (1, 1, 1))
        assert t is not None
        assert t.weight == pytest.approx((1 - lam**2) ** 3 * lam**6, rel=1e-12)

    def test_extra_pair_relative_weight(self):
        lam = 0.16
        terms = enumerate_terms(
            SourceParams(squeezing=lam, p_noise_idler=0.0, p_noise_signal=0.0)
        )
        w1 = find(terms, (1, 1, 1)).weight
        w2 = find(terms, (2, 1, 1)).weight
        assert w2 / w1 == pytest.approx(lam**2, rel=1e-12)

    def test_truncation_bounds(self):
        terms = enumerate_terms(NOMINAL)
        for t in terms:
            total = 2 * sum(t.pairs) + sum(t.signal_noise) + sum(t.idler_noise)
            assert total <= NOMINAL.truncation_total_photons
            assert sum(t.signal_noise) + sum(t.idler_noise) <= NOMINAL.truncation_noise_photons

    def test_weights_positive_and_sum_below_one(self):
        terms = enumerate_terms(NOMINAL)
        assert all(t.weight > 0 for t in terms)
        total = math.fsum(t.weight for t in terms)
        assert total <= 1.0 + 1e-12

    def test_deficit_small_at_nominal_parameters(self):
        assert truncation_deficit(NOMINAL) < 1e-3

    def test_noise_budget_beyond_total_budget(self):
        # Noise photons count toward the total, so a noise budget above it
        # keeps exactly the terms of a noise budget equal to it.
        capped = enumerate_terms(SourceParams(truncation_noise_photons=8))
        assert enumerate_terms(SourceParams(truncation_noise_photons=60)) == capped

    def test_deterministic_ordering(self):
        # enumerate_terms does not sort: its loops build the terms in this order.
        for total, noise in ((3, 0), (8, 3), (13, 7)):
            params = SourceParams(truncation_total_photons=total, truncation_noise_photons=noise)
            keys = [(t.pairs, t.signal_noise, t.idler_noise) for t in enumerate_terms(params)]
            assert keys == sorted(keys)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            SourceParams(squeezing=1.0)
        with pytest.raises(DomainError):
            SourceParams(p_noise_idler=-0.1)
        with pytest.raises(DomainError):
            SourceParams(truncation_total_photons=1)
        # The mixedness model's purity range holds at construction.
        for purity in (2.0, 0.4, math.nan):
            with pytest.raises(DomainError, match="purities"):
                SourceParams(purity=purity)
        # Budgets are integers; numpy integers pass, floats and bools do not.
        for budget in (4.5, 8.0, True):
            with pytest.raises(DomainError, match="must be an integer"):
                SourceParams(truncation_total_photons=budget)
            with pytest.raises(DomainError, match="must be an integer"):
                SourceParams(truncation_noise_photons=budget)
        assert SourceParams(truncation_total_photons=np.int64(6)).truncation_total_photons == 6


class TestHeraldedEnsemble:
    def test_noise_free_small_budget_keeps_only_triple_pairs(self):
        params = SourceParams(
            squeezing=0.16,
            p_noise_idler=0.0,
            p_noise_signal=0.0,
            truncation_total_photons=6,
            truncation_noise_photons=0,
            herald_efficiency=1.0,
        )
        heralded = heralded_ensemble(params)
        assert list(heralded) == [(1, 1, 1)]
        assert heralded[(1, 1, 1)] == pytest.approx([(1 - 0.16**2) ** 3 * 0.16**6])

    def test_double_pair_configuration_present(self):
        heralded = heralded_ensemble(NOMINAL)
        assert (2, 1, 1) in heralded

    def test_noise_idler_replaces_pair_idler(self):
        heralded = heralded_ensemble(NOMINAL)
        # source 3 heralds through signal noise and delivers a noise idler
        assert heralded[(1, 1, 0)][1] > 0

    def test_click_probability_thinning(self):
        lam, eta = 0.2, 0.4
        params = SourceParams(
            squeezing=lam,
            p_noise_idler=0.0,
            p_noise_signal=0.0,
            truncation_total_photons=6,
            truncation_noise_photons=0,
            herald_efficiency=eta,
        )
        heralded = heralded_ensemble(params)
        expected = (1 - lam**2) ** 3 * lam**6 * eta**3
        assert heralded[(1, 1, 1)][0] == pytest.approx(expected, rel=1e-12)

    def test_unheralded_terms_dropped(self):
        params = SourceParams(squeezing=0.2, p_noise_idler=0.0, p_noise_signal=0.0)
        heralded = heralded_ensemble(params)
        assert all(min(pairs) >= 1 or any(c[1:]) for pairs, c in heralded.items())
        # with zero signal noise every contributing source must emit a pair
        assert all(min(pairs) >= 1 for pairs in heralded)

    def test_efficiency_validation(self):
        with pytest.raises(DomainError):
            SourceParams(herald_efficiency=0.0)


# 0, or a rate whose products stay clear of subnormal floats.
RATES = st.one_of(st.just(0.0), st.floats(1e-3, 0.5))


@st.composite
def source_params(draw):
    """Source parameters at total budgets 2-10, noise budgets above the total
    included, rates of 0 to 0.5 and herald efficiencies in (0, 1]."""
    return SourceParams(
        squeezing=draw(RATES),
        p_noise_idler=draw(RATES),
        p_noise_signal=draw(RATES),
        truncation_total_photons=draw(st.integers(2, 10)),
        truncation_noise_photons=draw(st.integers(0, 12)),
        herald_efficiency=draw(st.floats(0.0, 1.0, exclude_min=True)),
    )


class TestClosedForm:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(source_params())
    def test_matches_explicit_enumeration(self, params):
        reference, norm, deficit = reference_ensemble(params)
        heralded = heralded_ensemble(params)
        assert list(heralded) == list(reference)
        for pairs, c in heralded.items():
            assert len(c) == len(reference[pairs])
            assert all(abs(c_l - ref) <= 1e-14 * ref for c_l, ref in zip(c, reference[pairs]))
        assert abs(truncation_deficit(params) - deficit) <= 1e-15

        def fail(_):
            raise AssertionError("a run enumerated the joint emission terms")

        points = scan_points("delay", "all_H", [0.0], 1.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(triphoton.source, "enumerate_terms", fail)
            if not heralded:
                with pytest.raises(DomainError, match="no source term ever heralds"):
                    simulate_counts(points, params)
                return
            counts = simulate_counts(points, params)
        assert counts.metadata["truncation_deficit"] == truncation_deficit(params)
        by_vector = [c_l * math.comb(l + 2, 2) for c in heralded.values() for l, c_l in enumerate(c)]
        assert counts.metadata["herald_probability"] == math.fsum(by_vector)
        assert counts.metadata["herald_probability"] == pytest.approx(norm, rel=1e-14, abs=0.0)
