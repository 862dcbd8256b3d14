import itertools
import math

import numpy as np
import pytest

from triphoton.errors import DomainError
from triphoton.experiment import Preparation, delay_scan_preparations, prepare
from triphoton.interference import EventSpec, balanced_tritter, event_probability, output_occupations
from triphoton.mixedstate import (
    InternalDensity,
    build_densities,
    build_density,
    density_from_vector,
    gram_from_densities,
    gram_schmidt_temporal,
    mixed_event_probability,
    p111_mixed,
)
from triphoton.modes import gram_matrix
from triphoton.oracle import random_unitary

NET = balanced_tritter()


def random_rank1_triple(rng, dim=5):
    u = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u, [density_from_vector(v) for v in u]


class TestGramSchmidt:
    def test_identity_gram(self):
        tb = gram_schmidt_temporal(np.eye(3, dtype=complex))
        assert np.allclose(tb.coefficients, np.eye(3))

    def test_all_ones_collapses(self):
        tb = gram_schmidt_temporal(np.ones((3, 3), dtype=complex))
        assert tb.rank == 1
        assert np.allclose(tb.coefficients, 1.0)

    def test_gaussian_delay_geometry(self):
        x = 0.8
        g = np.array([[1, x, x**4], [x, 1, x], [x**4, x, 1]], dtype=complex)
        tb = gram_schmidt_temporal(g)
        alpha = (x - x**5) / math.sqrt(1 - x * x)
        assert tb.coefficients[2, 1] == pytest.approx(alpha, abs=1e-12)
        assert tb.coefficients[2, 2] == pytest.approx(
            math.sqrt(1 - alpha**2 - x**8), abs=1e-12
        )

    def test_coefficients_reproduce_overlaps(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            g = b @ b.conj().T
            d = np.sqrt(np.real(np.diag(g)))
            g = g / np.outer(d, d)
            np.fill_diagonal(g, 1.0)
            tb = gram_schmidt_temporal(g)
            c = tb.coefficients
            assert np.max(np.abs(c @ c.conj().T - g)) < 1e-12
            assert np.allclose(np.linalg.norm(c, axis=1), 1.0, atol=1e-12)

    def test_non_psd_rejected(self):
        g = np.array([[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]], dtype=complex)
        with pytest.raises(DomainError):
            gram_schmidt_temporal(g)


class TestBuildDensity:
    def test_pure_limit(self):
        state = prepare(Preparation("static_pi"))[1]
        rho = build_density(state, 1.0)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        assert len(rho.pure_components()) == 1

    def test_purity_anchor(self):
        state = prepare(Preparation("all_H"))[0]
        rho = build_density(state, 0.9)
        assert rho.purity() == pytest.approx(0.9, abs=1e-12)

    def test_boundary_purity(self):
        state = prepare(Preparation("all_H"))[0]
        rho = build_density(state, 0.5)
        assert rho.purity() == pytest.approx(0.5, abs=1e-12)

    def test_domain_errors(self):
        state = prepare(Preparation("all_H"))[0]
        for bad in (0.0, -0.2, 1.1, 0.49):
            with pytest.raises(DomainError):
                build_density(state, bad)

    def test_pairwise_trace_scaling(self):
        states = prepare(Preparation("static_pi"))
        densities = build_densities(states, 0.9)
        p = 0.5 * (1.0 + math.sqrt(0.8))
        assert p == pytest.approx(0.94721, abs=1e-5)
        g = gram_matrix(states).entries
        for i, j in itertools.combinations(range(3), 2):
            tij = np.trace(densities[i].matrix @ densities[j].matrix)
            assert tij == pytest.approx(p * p * abs(g[i, j]) ** 2, abs=1e-12)

    def test_cyclic_trace_preserves_collective_phase(self):
        states = prepare(Preparation("dynamic", theta=0.35, delays=(0.4, 0.0, -0.2)))
        densities = build_densities(states, 0.8)
        g = gram_matrix(states).entries
        # density-matrix trace products realise the physical (bra-conjugated)
        # pairing, the conjugate of the overlap() table's cyclic product
        cyc_pure = np.conj(g[0, 1] * g[1, 2] * g[2, 0])
        cyc = np.trace(densities[0].matrix @ densities[1].matrix @ densities[2].matrix)
        kappa = cyc / cyc_pure
        assert kappa.imag == pytest.approx(0.0, abs=1e-12)
        assert kappa.real > 0.0
        p = 0.5 * (1.0 + math.sqrt(2 * 0.8 - 1))
        assert kappa.real == pytest.approx(p**3, abs=1e-12)

    @pytest.mark.parametrize("recipe", ["all_H", "static_pi"])
    def test_unit_trace_at_near_coincident_delays(self, recipe):
        # Rank truncation of the temporal basis leaves its rows short of unit
        # norm here; the densities must still have unit trace.
        sigma = 1.07
        for fraction in (0.0027, 1e-3, 1e-7):
            preps = delay_scan_preparations(recipe, [fraction * sigma], sigma)
            for rho in build_densities(prepare(preps[0]), 0.9):
                assert abs(np.trace(rho.matrix) - 1.0) < 1e-14


class TestP111Mixed:
    def test_identical_pure_photons(self):
        states = prepare(Preparation("all_H"))
        densities = build_densities(states, 1.0)
        assert p111_mixed(NET, *densities) == pytest.approx(1 / 3, abs=1e-12)

    def test_orthogonal_supports(self):
        vecs = np.eye(3, dtype=complex)
        densities = [density_from_vector(v) for v in vecs]
        assert p111_mixed(NET, *densities) == pytest.approx(2 / 9, abs=1e-12)

    def test_pure_reduction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, densities = random_rank1_triple(rng)
            g = gram_from_densities(densities)
            assert g is not None
            expected = event_probability(NET, EventSpec((0, 1, 2), (1, 1, 1)), g)
            assert p111_mixed(NET, *densities) == pytest.approx(expected, abs=1e-10)

    def test_matches_general_engine_on_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            net = random_unitary(rng, 3)
            states = prepare(
                Preparation(
                    "dynamic",
                    theta=float(rng.uniform(0, math.pi / 2)),
                    delays=tuple(rng.uniform(-1, 1, size=3)),
                )
            )
            densities = build_densities(states, float(rng.uniform(0.55, 1.0)))
            spec = EventSpec((0, 1, 2), (1, 1, 1))
            assert p111_mixed(net, *densities) == pytest.approx(
                mixed_event_probability(net, spec, densities), abs=1e-12
            )

    def test_basis_mismatch_rejected(self):
        d1 = density_from_vector(np.array([1.0, 0.0]))
        d2 = density_from_vector(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DomainError):
            p111_mixed(NET, d1, d1, d2)


class TestMixedEventDistribution:
    def test_probabilities_bounded_and_normalised(self):
        rng = np.random.default_rng(13)
        states = prepare(Preparation("static_pi", delays=(0.3, -0.1, 0.2)))
        densities = build_densities(states, 0.7)
        total = 0.0
        for occ in output_occupations(3, 3):
            p = mixed_event_probability(NET, EventSpec((0, 1, 2), occ), densities)
            assert -1e-12 <= p <= 1.0 + 1e-12
            total += p
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_relabeling_symmetry(self):
        states = prepare(Preparation("dynamic", theta=0.3, delays=(0.5, 0.0, -0.3)))
        densities = build_densities(states, 0.8)
        perm = (2, 0, 1)
        spec = EventSpec((0, 1, 2), (1, 1, 1))
        # photon k now sits in input perm[k] and carries that input's density
        relabeled = EventSpec(perm, (1, 1, 1))
        assert mixed_event_probability(NET, spec, densities) == pytest.approx(
            mixed_event_probability(NET, relabeled, [densities[i] for i in perm]),
            abs=1e-12,
        )

    def test_density_validation(self):
        bad = np.array([[0.6, 0.5], [0.5, 0.4]], dtype=complex)
        with pytest.raises(DomainError):
            InternalDensity(bad)
