import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton.errors import (
    DomainError,
    NumericalInconsistency,
    SizeLimit,
    TriadPhaseUndefined,
)
from triphoton.interference import (
    EventSpec,
    Network,
    balanced_beamsplitter,
    balanced_tritter,
    _columns_distribution,
    _finalize_probabilities,
    event_distribution,
    event_probability,
    _occupations,
    _sum_tables,
    occupation_index,
    output_occupations,
    tritter_bunched,
    tritter_p111,
)
from triphoton.mixedstate import InternalDensity, permanent
from triphoton.modes import (
    GaussianTemporalMode,
    GramMatrix,
    InternalState,
    PolarizationState,
    gram_matrix,
    triad_phase,
)


def random_gram(rng, n=3, rank=None):
    """Random PSD complex Gram matrix with unit diagonal."""
    b = rng.standard_normal((n, rank or n)) + 1j * rng.standard_normal((n, rank or n))
    g = b @ b.conj().T
    d = np.sqrt(np.real(np.diag(g)))
    g = g / np.outer(d, d)
    np.fill_diagonal(g, 1.0)
    return GramMatrix(g)


def complex_matrices(rows, cols):
    """Matrices with real and imaginary parts in [-1, 1]."""
    size = rows * cols
    return st.lists(st.floats(-1.0, 1.0), min_size=2 * size, max_size=2 * size).map(
        lambda xs: (np.array(xs[:size]) + 1j * np.array(xs[size:])).reshape(rows, cols)
    )


@st.composite
def network_instances(draw, min_photons=1):
    """A random unitary network, distinct inputs, a Gram matrix and gauge phases."""
    n = draw(st.integers(min_photons, 4))
    m = draw(st.integers(max(n, 2), 4))
    q, _ = np.linalg.qr(draw(complex_matrices(m, m)))  # Householder Q is always unitary
    inputs = tuple(draw(st.permutations(range(m)))[:n])
    vectors = draw(complex_matrices(n, n)) + 2.0 * np.eye(n)  # rows stay nonzero
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    g = vectors @ vectors.conj().T
    np.fill_diagonal(g, 1.0)
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n))
    return Network(q), inputs, GramMatrix(g), np.exp(1j * np.array(phases))


def gram_with_phases(moduli, phases):
    r12, r23, r31 = moduli
    p12, p23, p31 = phases
    g = np.eye(3, dtype=complex)
    g[0, 1] = r12 * np.exp(1j * p12)
    g[1, 2] = r23 * np.exp(1j * p23)
    g[2, 0] = r31 * np.exp(1j * p31)
    g[1, 0], g[2, 1], g[0, 2] = np.conj(g[0, 1]), np.conj(g[1, 2]), np.conj(g[2, 0])
    return GramMatrix(g)


TRITTER_SPEC = lambda occ: EventSpec((0, 1, 2), occ)


class TestNetworks:
    def test_tritter_is_unitary(self):
        u = balanced_tritter().matrix
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-14

    def test_tritter_is_balanced(self):
        assert np.allclose(np.abs(balanced_tritter().matrix) ** 2, 1.0 / 3.0)

    def test_tritter_matches_fourier_form(self):
        expected = np.array(
            [
                [1, 1, 1],
                [1, np.exp(4j * np.pi / 3), np.exp(2j * np.pi / 3)],
                [1, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)],
            ]
        ) / math.sqrt(3)
        assert np.allclose(balanced_tritter().matrix, expected, atol=1e-15)

    def test_nonunitary_rejected(self):
        with pytest.raises(DomainError):
            Network(np.array([[1.0, 0.0], [0.1, 1.0]]))


class TestPermanent:
    def test_small_anchors(self):
        assert permanent(np.array([[3.5 + 1j]])) == pytest.approx(3.5 + 1j)
        assert permanent(np.ones((2, 2))) == pytest.approx(2.0)
        assert permanent(np.ones((4, 4))) == pytest.approx(math.factorial(4))
        assert permanent(np.empty((0, 0))) == pytest.approx(1.0)

    def test_nonsquare_rejected(self):
        with pytest.raises(DomainError):
            permanent(np.ones((2, 3)))


class TestEventSpec:
    def test_repeated_inputs_rejected(self):
        with pytest.raises(DomainError):
            EventSpec((0, 0), (1, 1, 0))

    def test_bad_occupation_rejected(self):
        with pytest.raises(DomainError):
            EventSpec((0, 1), (1, 0, 0))
        with pytest.raises(DomainError):
            EventSpec((0, 3), (1, 1, 0))

    def test_size_limit(self):
        # The cap must come before any table: 12 photons would need 12! permutations.
        built = (_sum_tables.cache_info().currsize, _occupations.cache_info().currsize)
        for n in (7, 12):
            net = Network(np.eye(n, dtype=complex))
            with pytest.raises(SizeLimit):
                event_probability(net, EventSpec(tuple(range(n)), (1,) * n), np.eye(n))
            with pytest.raises(SizeLimit):
                event_distribution(net, tuple(range(n)), np.eye(n))
            assert (_sum_tables.cache_info().currsize, _occupations.cache_info().currsize) == built


class TestEventProbability:
    def test_identical_photons_coincidence(self):
        p = event_probability(balanced_tritter(), TRITTER_SPEC((1, 1, 1)), np.ones((3, 3)))
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_distinguishable_photons_coincidence(self):
        p = event_probability(balanced_tritter(), TRITTER_SPEC((1, 1, 1)), np.eye(3))
        assert p == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_suppression_for_identical_photons(self):
        p = event_probability(balanced_tritter(), TRITTER_SPEC((1, 2, 0)), np.ones((3, 3)))
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_hom_closed_form(self):
        bs = balanced_beamsplitter()
        for r in np.linspace(0.0, 1.0, 11):
            g = np.array([[1.0, r], [r, 1.0]], dtype=complex)
            p = event_probability(bs, EventSpec((0, 1), (1, 1)), g)
            assert p == pytest.approx((1 - r * r) / 2, abs=1e-12)

    def test_frozen_bunched_value(self):
        # Hand-derived by explicit Fock-space expansion: photons |0>,
        # (|0>+|1>)/sqrt2, (|0>+i|1>)/sqrt2 into the tritter, outcome (1,2,0)
        # has probability (1 - (sqrt(2)/2) cos(pi/12)) / 9.
        u = [
            np.array([1, 0], complex),
            np.array([1, 1], complex) / math.sqrt(2),
            np.array([1, 1j], complex) / math.sqrt(2),
        ]
        g = np.eye(3, dtype=complex)
        for i, j in itertools.permutations(range(3), 2):
            g[i, j] = np.sum(u[i] * np.conj(u[j]))
        expected = (1 - (math.sqrt(2) / 2) * math.cos(math.pi / 12)) / 9
        p = event_probability(balanced_tritter(), TRITTER_SPEC((1, 2, 0)), g)
        assert p == pytest.approx(expected, abs=1e-14)

    def test_columns_distribution_matches_oracle(self):
        # Repeated input modes carry one shared internal vector per mode, as
        # the idlers of one source do.
        from triphoton.oracle import evolve_and_measure, expand_from_vectors, random_unitary

        rng = np.random.default_rng(7)
        for modes in (
            (0, 1, 2),
            (0, 0, 1),
            (1, 1, 1),
            (0, 0, 2, 2),
            (2, 0, 2, 1),
            (0, 0, 1, 2, 2),
            (0, 0, 1, 1, 2, 2),
        ):
            net = random_unitary(rng, 3)
            per_mode = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            per_mode /= np.linalg.norm(per_mode, axis=1, keepdims=True)
            vectors = per_mode[list(modes)]
            dist = _columns_distribution(
                net.matrix[:, list(modes)], vectors @ vectors.conj().T, modes
            )
            reference = evolve_and_measure(expand_from_vectors(vectors, list(modes), 3), net)
            occupations = output_occupations(len(modes), 3)
            assert dist.shape == (len(occupations),)
            for occ, p in zip(occupations, dist):
                assert p == pytest.approx(reference.get(occ, 0.0), abs=1e-12)
        with pytest.raises(SizeLimit):
            _columns_distribution(np.ones((3, 7)), np.ones((7, 7)), (0,) * 7)

    def test_occupation_index_follows_output_occupations(self):
        for n, m in ((0, 3), (2, 3), (4, 3), (3, 6)):
            index = occupation_index(n, m)
            assert list(index) == output_occupations(n, m)
            assert list(index.values()) == list(range(len(index)))
            index.clear()
            assert len(occupation_index(n, m)) == len(output_occupations(n, m))

    @pytest.mark.parametrize("n, m", [(2, 0), (-1, 3), (0, 0), (1, -2)])
    def test_occupations_need_photons_and_modes(self, n, m):
        with pytest.raises(DomainError):
            output_occupations(n, m)
        with pytest.raises(DomainError):
            occupation_index(n, m)

    def test_normalisation_over_occupations(self):
        rng = np.random.default_rng(13)
        from triphoton.oracle import random_unitary

        for n in (2, 3, 4):
            net = random_unitary(rng, max(3, n))
            g = random_gram(rng, n)
            dist = event_distribution(net, tuple(range(n)), g)
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-10)

    def test_gauge_invariance_under_diagonal_conjugation(self):
        rng = np.random.default_rng(17)
        net = balanced_tritter()
        for _ in range(10):
            g = random_gram(rng)
            d = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
            g2 = GramMatrix(np.outer(d, np.conj(d)) * g.entries)
            for occ in output_occupations(3, 3):
                assert event_probability(net, TRITTER_SPEC(occ), g2) == pytest.approx(
                    event_probability(net, TRITTER_SPEC(occ), g), abs=1e-12
                )

    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(network_instances())
    def test_distribution_normalised_and_gauge_invariant(self, instance):
        net, inputs, g, d = instance
        dist = event_distribution(net, inputs, g)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        rephased = event_distribution(net, inputs, np.outer(d, np.conj(d)) * g.entries)
        for occ, p in dist.items():
            assert rephased[occ] == pytest.approx(p, abs=1e-12)

    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(network_instances(min_photons=2), st.data())
    def test_covariant_under_relabelling(self, instance, data):
        # Input mode j becomes mode[j], output k becomes out[k], and the photons
        # are listed in a new order with the Gram matrix permuted to match.
        net, inputs, g, _ = instance
        n, m = len(inputs), net.m
        photon = data.draw(st.permutations(range(n)))
        mode = data.draw(st.permutations(range(m)))
        out = data.draw(st.permutations(range(m)))
        u = np.empty_like(net.matrix)
        u[np.ix_(out, mode)] = net.matrix
        moved = event_distribution(
            Network(u),
            tuple(mode[inputs[k]] for k in photon),
            g.entries[np.ix_(photon, photon)],
        )
        for occ, p in event_distribution(net, inputs, g).items():
            target = [0] * m
            for k, s in enumerate(occ):
                target[out[k]] = s
            assert moved[tuple(target)] == pytest.approx(p, abs=1e-12)

    def test_invalid_gram_rejected(self):
        net = balanced_tritter()
        not_hermitian = np.array([[1.0, 0.2, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]])
        not_psd = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        for g in (not_hermitian, not_psd):
            with pytest.raises(DomainError):
                event_distribution(net, (0, 1, 2), g)
            with pytest.raises(DomainError):
                event_probability(net, TRITTER_SPEC((1, 1, 1)), g)

    def test_monotone_limits(self):
        rng = np.random.default_rng(19)
        from triphoton.oracle import random_unitary

        net = random_unitary(rng, 3)
        for occ in output_occupations(3, 3):
            rows = [j for j, s in enumerate(occ) for _ in range(s)]
            m = net.matrix[np.ix_(rows, [0, 1, 2])]
            norm = np.prod([math.factorial(s) for s in occ])
            p_ones = event_probability(net, TRITTER_SPEC(occ), np.ones((3, 3)))
            assert p_ones == pytest.approx(abs(permanent(m)) ** 2 / norm, abs=1e-12)
            p_diag = event_probability(net, TRITTER_SPEC(occ), np.eye(3))
            assert p_diag == pytest.approx(
                permanent(np.abs(m) ** 2).real / norm, abs=1e-12
            )

    def test_only_moduli_and_cyclic_phase_matter(self):
        rng = np.random.default_rng(29)
        net = balanced_tritter()
        moduli = (0.35, 0.45, 0.25)
        phases = (0.3, 1.1, -0.5)
        reference = {
            occ: event_probability(net, TRITTER_SPEC(occ), gram_with_phases(moduli, phases))
            for occ in output_occupations(3, 3)
        }
        for _ in range(10):
            shift = rng.uniform(-1.0, 1.0)
            moved = (phases[0] + shift, phases[1] - shift, phases[2])
            g = gram_with_phases(moduli, moved)
            for occ, expected in reference.items():
                assert event_probability(net, TRITTER_SPEC(occ), g) == pytest.approx(
                    expected, abs=1e-12
                )


class TestPointAxis:
    """A (P, n, n) stack of Gram matrices on the engine: one row per point."""

    def test_stack_matches_single_calls(self):
        from triphoton.oracle import random_unitary

        rng = np.random.default_rng(29)
        for n in (1, 2, 3, 4):
            net = random_unitary(rng, 4)
            modes = tuple(range(n))
            columns = net.matrix[:, modes]
            for points in (1, 7):
                grams = np.stack([random_gram(rng, n).entries for _ in range(points)])
                stacked = _columns_distribution(columns, grams, modes)
                assert stacked.shape == (points, len(output_occupations(n, 4)))
                for g, row in zip(grams, stacked):
                    single = _columns_distribution(columns, g, modes)
                    np.testing.assert_allclose(row, single, rtol=0, atol=1e-15)

    def test_empty_stack(self):
        dist = _columns_distribution(balanced_tritter().matrix, np.empty((0, 3, 3)), (0, 1, 2))
        assert dist.shape == (0, len(output_occupations(3, 3)))

    @pytest.mark.parametrize(
        "s01, s10", [(0.5, 0.5j), (2.0, 2.0)], ids=["imaginary-residue", "out-of-band"]
    )
    def test_one_bad_point_fails_the_stack(self, s01, s10):
        grams = np.stack([np.eye(2, dtype=complex)] * 4)
        grams[2, 0, 1], grams[2, 1, 0] = s01, s10
        columns = balanced_beamsplitter().matrix
        _columns_distribution(columns, np.delete(grams, 2, axis=0), (0, 1))
        with pytest.raises(NumericalInconsistency):
            _columns_distribution(columns, grams, (0, 1))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 1, 3, 3), (3,)])
    def test_gram_shape_must_match(self, shape):
        with pytest.raises(DomainError):
            _columns_distribution(balanced_tritter().matrix, np.ones(shape), (0, 1, 2))


class TestClosedForms:
    def test_p111_anchors(self):
        assert tritter_p111(1, 1, 1, 0.0) == pytest.approx(1 / 3)
        assert tritter_p111(0, 0, 0, 1.23) == pytest.approx(2 / 9)
        assert tritter_p111(0.5, 0.5, 0.5, math.pi) == pytest.approx(1 / 12)

    def test_bunched_anchors(self):
        b = tritter_bunched(1, 1, 1, 0.0)
        assert b["P300"] == pytest.approx(2 / 9)
        assert b["P120_class"] == pytest.approx(0.0, abs=1e-15)
        assert b["P021_class"] == pytest.approx(0.0, abs=1e-15)
        b0 = tritter_bunched(0, 0, 0, 0.7)
        assert b0["P300"] == pytest.approx(1 / 27)
        assert b0["P120_class"] == pytest.approx(1 / 9)
        assert b0["P021_class"] == pytest.approx(1 / 9)

    def test_total_probability(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            r12, r23, r31 = rng.uniform(0, 1, size=3)
            phi = rng.uniform(0, 2 * np.pi)
            b = tritter_bunched(r12, r23, r31, phi)
            total = (
                tritter_p111(r12, r23, r31, phi)
                + 3 * b["P300"]
                + 3 * b["P120_class"]
                + 3 * b["P021_class"]
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tritter_p111(1.2, 0.5, 0.5, 0.0)
        with pytest.raises(DomainError):
            tritter_bunched(-0.1, 0.5, 0.5, 0.0)

    def test_closed_forms_match_engine(self):
        rng = np.random.default_rng(41)
        net = balanced_tritter()
        for _ in range(100):
            g = random_gram(rng)
            e = g.entries
            r12, r23, r31 = abs(e[0, 1]), abs(e[1, 2]), abs(e[2, 0])
            phi = triad_phase(g)
            assert tritter_p111(r12, r23, r31, phi) == pytest.approx(
                event_probability(net, TRITTER_SPEC((1, 1, 1)), g), abs=1e-12
            )
            b = tritter_bunched(r12, r23, r31, phi)
            for occ in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
                assert b["P300"] == pytest.approx(
                    event_probability(net, TRITTER_SPEC(occ), g), abs=1e-12
                )
            for occ in ((1, 2, 0), (0, 1, 2), (2, 0, 1)):
                assert b["P120_class"] == pytest.approx(
                    event_probability(net, TRITTER_SPEC(occ), g), abs=1e-12
                )
            for occ in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
                assert b["P021_class"] == pytest.approx(
                    event_probability(net, TRITTER_SPEC(occ), g), abs=1e-12
                )


class TestTwoPhotonMarginals:
    """Each input pair of the balanced tritter, detected at its own output pair."""

    def test_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            e = random_gram(rng).entries
            for pair in itertools.combinations(range(3), 2):
                occ = tuple(int(k in pair) for k in range(3))
                sub = e[np.ix_(pair, pair)]
                p = event_probability(balanced_tritter(), EventSpec(pair, occ), sub)
                assert p == pytest.approx((2 - abs(e[pair]) ** 2) / 9, abs=1e-12)

    def test_anchors(self):
        half = gram_with_phases((0.5, 0.5, 0.5), (0.0, 0.0, 0.0)).entries
        for g, expected in ((np.ones((3, 3)), 1 / 9), (np.eye(3), 2 / 9), (half, 7 / 36)):
            for pair in itertools.combinations(range(3), 2):
                occ = tuple(int(k in pair) for k in range(3))
                sub = g[np.ix_(pair, pair)]
                p = event_probability(balanced_tritter(), EventSpec(pair, occ), sub)
                assert p == pytest.approx(expected)


def with_nan(matrix, index):
    """A complex copy of ``matrix`` with a NaN at ``index``."""
    out = np.array(matrix, dtype=complex)
    out[index] = np.nan
    return out


HALF_GRAM = gram_with_phases((0.5, 0.5, 0.5), (0.0, 0.0, 0.0)).entries


class TestNaN:
    """A NaN in a validated input or a computed probability is rejected, not passed on."""

    @pytest.mark.parametrize(
        "make, error",
        [
            pytest.param(lambda: Network(np.full((3, 3), np.nan)), DomainError, id="network"),
            pytest.param(
                lambda: Network(with_nan(balanced_tritter().matrix, (1, 2))),
                DomainError,
                id="network-entry",
            ),
            pytest.param(lambda: PolarizationState(np.nan, 0.0), DomainError, id="polarisation"),
            pytest.param(
                lambda: GramMatrix(with_nan(HALF_GRAM, (0, 1))),
                DomainError,
                id="gram-off-diagonal",
            ),
            pytest.param(
                lambda: GramMatrix(with_nan(HALF_GRAM, (2, 2))), DomainError, id="gram-diagonal"
            ),
            pytest.param(
                lambda: gram_matrix([InternalState(GaussianTemporalMode(t)) for t in (0, np.nan)]),
                DomainError,
                id="gram-of-nan-delay",
            ),
            pytest.param(
                lambda: InternalDensity(with_nan(np.eye(2) / 2, (0, 1))),
                DomainError,
                id="density",
            ),
            pytest.param(
                lambda: triad_phase(with_nan(HALF_GRAM, (1, 2))),
                TriadPhaseUndefined,
                id="triad-phase-array",
            ),
            pytest.param(
                lambda: event_distribution(
                    balanced_tritter(), (0, 1, 2), with_nan(HALF_GRAM, (0, 2))
                ),
                DomainError,
                id="event-distribution-gram",
            ),
            pytest.param(
                lambda: event_distribution(
                    balanced_tritter(), (0, 1), with_nan(np.eye(2), (1, 1))
                ),
                DomainError,
                id="event-distribution-gram-diagonal",
            ),
            pytest.param(
                lambda: _finalize_probabilities(np.array([0.5, np.nan])),
                NumericalInconsistency,
                id="probability-real",
            ),
            pytest.param(
                lambda: _finalize_probabilities(np.array([0.5, complex(0.5, np.nan)])),
                NumericalInconsistency,
                id="probability-imaginary",
            ),
        ],
    )
    def test_rejected(self, make, error):
        with pytest.raises(error):
            make()
