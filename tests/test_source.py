import math

import pytest

from triphoton.errors import DomainError
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
            assert t.total_photons <= NOMINAL.truncation_total_photons
            assert sum(t.signal_noise) + sum(t.idler_noise) <= NOMINAL.truncation_noise_photons

    def test_weights_positive_and_sum_below_one(self):
        terms = enumerate_terms(NOMINAL)
        assert all(t.weight > 0 for t in terms)
        total = math.fsum(t.weight for t in terms)
        assert total <= 1.0 + 1e-12

    def test_deficit_small_at_nominal_parameters(self):
        assert truncation_deficit(enumerate_terms(NOMINAL)) < 1e-3

    def test_deterministic_ordering(self):
        terms = enumerate_terms(NOMINAL)
        keys = [(t.pairs, t.signal_noise, t.idler_noise) for t in terms]
        assert keys == sorted(keys)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            SourceParams(squeezing=1.0)
        with pytest.raises(DomainError):
            SourceParams(p_noise_idler=-0.1)
        with pytest.raises(DomainError):
            SourceParams(truncation_total_photons=1)


class TestHeraldedEnsemble:
    def test_noise_free_small_budget_keeps_only_triple_pairs(self):
        params = SourceParams(
            squeezing=0.16,
            p_noise_idler=0.0,
            p_noise_signal=0.0,
            truncation_total_photons=6,
            truncation_noise_photons=0,
        )
        heralded = heralded_ensemble(enumerate_terms(params), 1.0)
        assert len(heralded) == 1
        assert heralded[0].pair_idlers == (1, 1, 1)
        assert heralded[0].noise_idlers == (0, 0, 0)
        assert heralded[0].weight == pytest.approx((1 - 0.16**2) ** 3 * 0.16**6)

    def test_double_pair_configuration_present(self):
        heralded = heralded_ensemble(enumerate_terms(NOMINAL), 0.5)
        assert any(h.pair_idlers == (2, 1, 1) for h in heralded)

    def test_noise_idler_replaces_pair_idler(self):
        heralded = heralded_ensemble(enumerate_terms(NOMINAL), 0.5)
        # source 3 heralds through signal noise and delivers a noise idler
        h = [x for x in heralded if x.pair_idlers == (1, 1, 0) and x.noise_idlers == (0, 0, 1)]
        assert h
        assert h[0].weight > 0

    def test_click_probability_thinning(self):
        lam, eta = 0.2, 0.4
        params = SourceParams(
            squeezing=lam,
            p_noise_idler=0.0,
            p_noise_signal=0.0,
            truncation_total_photons=6,
            truncation_noise_photons=0,
        )
        heralded = heralded_ensemble(enumerate_terms(params), eta)
        expected = (1 - lam**2) ** 3 * lam**6 * eta**3
        assert heralded[0].weight == pytest.approx(expected, rel=1e-12)

    def test_unheralded_terms_dropped(self):
        params = SourceParams(squeezing=0.2, p_noise_idler=0.0, p_noise_signal=0.0)
        heralded = heralded_ensemble(enumerate_terms(params), 0.5)
        assert all(min(h.pair_idlers) >= 1 or max(h.noise_idlers) > 0 for h in heralded)
        # with zero signal noise every contributing source must emit a pair
        assert all(min(h.pair_idlers) >= 1 for h in heralded)

    def test_efficiency_validation(self):
        terms = enumerate_terms(NOMINAL)
        with pytest.raises(DomainError):
            heralded_ensemble(terms, 0.0)
