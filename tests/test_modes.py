import math

import numpy as np
import pytest

from product_states import pairwise_gram, random_product_states
from spectra import normalised, phase_spread, spectral_overlap
from triphoton.errors import DomainError, TriadPhaseUndefined, UnsupportedModePair
from triphoton.modes import (
    GaussianTemporalMode,
    GramMatrix,
    InternalState,
    PolarizationState,
    _check_gram,
    circular_distance,
    gram_matrix,
    gram_stack,
    overlap,
    qubit_triad_phase,
    temporal_overlap,
    triad_phase,
)


def gaussian_spectrum(sigma=1.0, center=0.0, half_width=9.0, points=4001):
    w = np.linspace(center - half_width, center + half_width, points)
    return w, normalised(w, np.exp(-(sigma**2) * (w - center) ** 2))


class TestGaussianOverlap:
    def test_identical_modes(self):
        a = GaussianTemporalMode(0.0, 1.0)
        assert temporal_overlap(a, a) == 1.0

    def test_pure_decay(self):
        a = GaussianTemporalMode(0.0, 1.0)
        b = GaussianTemporalMode(2.0, 1.0)
        assert temporal_overlap(a, b) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_mismatched_modes_rejected(self):
        a = GaussianTemporalMode(0.0, 1.0)
        with pytest.raises(UnsupportedModePair):
            temporal_overlap(a, GaussianTemporalMode(0.0, 2.0))

    def test_sigma_must_be_positive(self):
        with pytest.raises(DomainError):
            GaussianTemporalMode(0.0, 0.0)


class TestSpectralOverlap:
    """The tests' spectral quadrature, which the delay-invariance checks rest on."""

    def test_zero_delay_is_normalisation(self):
        assert spectral_overlap(*gaussian_spectrum(), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_gaussian_closed_form(self):
        a, b = GaussianTemporalMode(2.0, 1.0), GaussianTemporalMode(0.0, 1.0)
        assert spectral_overlap(*gaussian_spectrum(sigma=1.0), 2.0) == pytest.approx(
            temporal_overlap(a, b), abs=1e-6
        )

    def test_conjugate_pair(self):
        w = np.linspace(-8.0, 12.0, 5001)
        inten = 0.6 * np.exp(-((w + 1.0) / 0.5) ** 2) + 0.4 * np.exp(-((w - 2.0) / 0.9) ** 2)
        inten = normalised(w, inten)
        assert spectral_overlap(w, inten, -1.0) == pytest.approx(
            np.conj(spectral_overlap(w, inten, 1.0)), abs=1e-12
        )


class TestOverlap:
    def test_identical_states(self):
        s = InternalState(GaussianTemporalMode(0.3, 1.0))
        assert overlap(s, s) == pytest.approx(1.0, abs=1e-15)

    def test_static_pi_polarisations(self):
        t = GaussianTemporalMode(0.0, 1.0)
        s2 = InternalState(t, PolarizationState(0.5, 0.5 * math.sqrt(3)))
        s3 = InternalState(t, PolarizationState(0.5, -0.5 * math.sqrt(3)))
        assert overlap(s2, s3) == pytest.approx(-0.5, abs=1e-15)

    def test_dynamic_theta_zero(self):
        t = GaussianTemporalMode(0.0, 1.0)
        s1 = InternalState(t, PolarizationState(1.0, 0.0))
        s2 = InternalState(t, PolarizationState(0.5 * math.sqrt(3), 0.5))
        assert overlap(s1, s2) == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_hermiticity_and_cauchy_schwarz(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a, b = random_product_states(rng, 2)
            v, w = overlap(a, b), overlap(b, a)
            assert v == pytest.approx(np.conj(w), abs=1e-12)
            assert abs(v) <= 1.0 + 1e-12


class TestGramMatrix:
    def test_identical_states_all_ones(self):
        s = InternalState(GaussianTemporalMode(0.0, 1.0))
        g = gram_matrix([s, s, s])
        assert np.allclose(g.entries, 1.0)

    def test_static_pi_moduli(self):
        t = GaussianTemporalMode(0.0, 1.0)
        states = [
            InternalState(t, PolarizationState(1.0, 0.0)),
            InternalState(t, PolarizationState(0.5, 0.5 * math.sqrt(3))),
            InternalState(t, PolarizationState(0.5, -0.5 * math.sqrt(3))),
        ]
        g = gram_matrix(states).entries
        assert np.allclose(np.abs(g - np.diag(np.diag(g))), 0.5 * (1 - np.eye(3)))
        assert g[1, 2].real == pytest.approx(-0.5)

    def test_generated_matrices_are_psd(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            g = gram_matrix(random_product_states(rng, n))
            assert np.min(np.linalg.eigvalsh(g.entries)) >= -1e-9

    def test_validation_rejects_bad_matrices(self):
        with pytest.raises(DomainError):
            GramMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(DomainError):
            GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PSD


def stack_inputs(points):
    """The (P, n) delays and widths and (P, n, 2) amplitudes of lists of states."""
    delays = [[s.temporal.delay for s in states] for states in points]
    sigmas = [[s.temporal.sigma for s in states] for states in points]
    pols = [
        [(s.polarization.amplitude_h, s.polarization.amplitude_v) for s in states]
        for states in points
    ]
    return np.array(delays), np.array(sigmas), np.array(pols, dtype=complex)


class TestGramStack:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_point_is_its_scalar_overlaps(self, n):
        rng = np.random.default_rng(40 + n)
        points = [random_product_states(rng, n) for _ in range(7)]
        stack = gram_stack(*stack_inputs(points))
        assert stack.shape == (7, n, n)
        for g, states in zip(stack, points):
            # Bit for bit, signed zeros included.
            assert g.tobytes() == pairwise_gram(states).tobytes()
            assert g.tobytes() == gram_matrix(states).entries.tobytes()

    def test_read_only(self):
        stack = gram_stack(*stack_inputs([random_product_states(np.random.default_rng(1), 3)]))
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 1] = 0.0

    def test_empty_stack(self):
        stack = gram_stack(np.zeros((0, 3)), np.ones((0, 3)), np.zeros((0, 3, 2)))
        assert stack.shape == (0, 3, 3)

    def test_one_bad_point_fails_the_stack(self):
        delays, sigmas, pols = stack_inputs(
            [random_product_states(np.random.default_rng(s), 3) for s in range(5)]
        )
        unequal = sigmas.copy()
        unequal[3, 2] = 1.5
        with pytest.raises(UnsupportedModePair):
            gram_stack(delays, unequal, pols)
        negative = sigmas.copy()
        negative[2] = -1.0
        with pytest.raises(DomainError, match="sigma must be positive"):
            gram_stack(delays, negative, pols)
        unnormalised = pols.copy()
        unnormalised[4, 0] *= 1.001
        with pytest.raises(DomainError, match="polarisation norm"):
            gram_stack(delays, sigmas, unnormalised)
        with pytest.raises(DomainError):
            gram_stack(delays, sigmas[:, :2], pols)

    def test_one_bad_matrix_fails_the_check(self):
        good = gram_stack(*stack_inputs([random_product_states(np.random.default_rng(2), 3)] * 4))
        # Unit diagonal and Hermitian, but three vectors cannot be pairwise
        # this parallel with one antiparallel pair.
        not_psd = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        for bad, message in (
            (not_psd, "positive semi-definite"),
            (np.full((3, 3), np.nan), "Hermitian"),
            (np.eye(3) * 2.0, "diagonal"),
        ):
            stack = good.copy()
            stack[2] = bad
            with pytest.raises(DomainError, match=message):
                _check_gram(stack)
            with pytest.raises(DomainError, match=message):
                GramMatrix(bad)

    def test_overflowing_delay_gives_zero_overlap(self):
        h = np.array([[(1.0, 0.0)] * 2])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            stack = gram_stack([[1e200, 0.0]], [[1.0, 1.0]], h)
            assert stack[0, 0, 1] == 0.0
            stack = gram_stack([[1.7e308, -1.7e308]], [[1.0, 1.0]], h)
            assert stack[0, 0, 1] == 0.0

    @pytest.mark.parametrize("delays, sigma", [((1e200, 0.0), 1e200), ((0.0, 0.0), 1e-320)])
    def test_undefined_exponent_raises(self, delays, sigma):
        # inf/inf and 0/0: the width has no representable square.
        with pytest.raises(FloatingPointError):
            gram_stack([delays], [[sigma, sigma]], np.array([[(1.0, 0.0)] * 2]))


class TestTriadPhase:
    def test_real_overlap_configuration_gives_zero(self):
        states = [
            InternalState(GaussianTemporalMode(t, 1.0)) for t in (-0.4, 0.1, 0.9)
        ]
        assert triad_phase(gram_matrix(states)) == pytest.approx(0.0, abs=1e-12)

    def test_undefined_for_distinguishable_photons(self):
        with pytest.raises(TriadPhaseUndefined):
            triad_phase(np.eye(3, dtype=complex))

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            states = random_product_states(rng, 3)
            phi = triad_phase(gram_matrix(states))
            chi = rng.uniform(0, 2 * math.pi)
            rotated = list(states)
            pol = rotated[1].polarization
            rotated[1] = InternalState(
                rotated[1].temporal,
                PolarizationState(
                    pol.amplitude_h * np.exp(1j * chi), pol.amplitude_v * np.exp(1j * chi)
                ),
            )
            assert circular_distance(triad_phase(gram_matrix(rotated)), phi) < 1e-12

    def test_symmetric_spectrum_triads_are_real_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            delays = rng.uniform(-2, 2, size=3)
            states = [InternalState(GaussianTemporalMode(t, 1.0)) for t in delays]
            g = gram_matrix(states).entries
            cyc = g[0, 1] * g[1, 2] * g[2, 0]
            assert cyc.real >= 0.0
            assert circular_distance(triad_phase(g), 0.0) < 1e-9


class TestQubitTriadPhase:
    def test_half_half_half_forces_pi(self):
        assert qubit_triad_phase(0.5, 0.5, 0.5) == (math.pi,)

    def test_coplanar_real_vectors(self):
        c = math.cos(math.pi / 6)
        s = math.sin(math.pi / 6)
        assert qubit_triad_phase(c, c * c + s * s, c) == (0.0,)

    def test_infeasible_geometry(self):
        assert qubit_triad_phase(0.9, 0.05, 0.9) == ()

    def test_one_indistinguishable_pair_forces_the_third_modulus(self):
        # Photons 1 and 2 share a state, so r23 must equal r31, at phase 0.
        assert qubit_triad_phase(1.0, 0.5, 0.5) == (0.0,)
        assert qubit_triad_phase(1.0, 0.5, 0.6) == ()
        # Squares far below the rounding of 1 still decide the verdict.
        assert qubit_triad_phase(1.0, 1e-9, 2e-9) == ()
        assert qubit_triad_phase(1e-9, 1.0, 1e-9) == (0.0,)
        # Moduli whose squares underflow to 0 still decide it.
        assert qubit_triad_phase(1.0, 1e-200, 1e-190) == ()
        assert qubit_triad_phase(1.0, 1e-200, 1e-200) == (0.0,)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            qubit_triad_phase(0.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            qubit_triad_phase(0.5, 1.2, 0.5)

    def test_consistency_with_explicit_qubit_states(self):
        rng = np.random.default_rng(47)
        t = GaussianTemporalMode(0.0, 1.0)
        for _ in range(50):
            alpha, beta = rng.uniform(0.2, math.pi / 2 - 0.2, size=2)
            gamma = rng.uniform(0.0, 2 * math.pi)
            states = [
                InternalState(t, PolarizationState(1.0, 0.0)),
                InternalState(t, PolarizationState(math.cos(alpha), math.sin(alpha))),
                InternalState(
                    t,
                    PolarizationState(
                        math.cos(beta), math.sin(beta) * np.exp(1j * gamma)
                    ),
                ),
            ]
            g = gram_matrix(states)
            phi = triad_phase(g)
            candidates = qubit_triad_phase(
                abs(g.entries[0, 1]), abs(g.entries[1, 2]), abs(g.entries[2, 0])
            )
            assert candidates
            assert min(circular_distance(phi, c) for c in candidates) < 1e-9


def _triad_grams(r12, r23, r31, phis):
    """Unit-diagonal Hermitian matrices with these moduli, one per triad phase."""
    phis = np.asarray(phis, dtype=float)
    g = np.ones((len(phis), 3, 3), dtype=complex)
    g[:, 0, 1] = g[:, 1, 0] = r12
    g[:, 1, 2] = g[:, 2, 1] = r23
    g[:, 2, 0] = r31 * np.exp(1j * phis)
    g[:, 0, 2] = r31 * np.exp(-1j * phis)
    return g


def _qubit_moduli(rng):
    """Overlap moduli of three random qubit states, each at least 1e-3."""
    while True:
        v = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        g = v @ v.conj().T
        moduli = abs(g[0, 1]), abs(g[1, 2]), abs(g[2, 0])
        if min(moduli) >= 1e-3:
            return moduli


class TestQubitTriadPhaseIsSingularGram:
    """A qubit phase makes the Gram matrix singular; no other phase does."""

    GRID = np.linspace(0.0, 2 * math.pi, 721)

    @pytest.mark.parametrize("draw", ["qubit", "uniform"])
    def test_determinant_condition(self, draw):
        rng = np.random.default_rng(19)
        empty = 0
        for _ in range(300):
            if draw == "qubit":
                moduli = _qubit_moduli(rng)
            else:
                moduli = tuple(1.0 - rng.uniform(0.0, 1.0, size=3))  # in (0, 1]
            phases = qubit_triad_phase(*moduli)
            if draw == "qubit":
                assert phases
            if phases:
                lowest = np.linalg.eigvalsh(_triad_grams(*moduli, phases))[:, 0]
                assert np.abs(lowest).max() <= 1e-9
            else:
                empty += 1
                # Each phase leaves the matrix indefinite or of full rank.
                lowest = np.linalg.eigvalsh(_triad_grams(*moduli, self.GRID))[:, 0]
                assert np.abs(lowest).min() > 1e-9
        assert draw == "qubit" or empty > 0


class TestDelayInvariance:
    TRIPLES = [(0.0, 0.3, -0.4), (0.5, -0.2, 0.1), (1.0, 0.0, -1.0), (0.2, 0.9, 0.4)]

    def test_symmetric_spectrum_is_invariant(self):
        phases, spread = phase_spread(*gaussian_spectrum(), self.TRIPLES)
        assert spread < 1e-6
        assert circular_distance(phases[0], 0.0) < 1e-6

    def test_shifted_symmetric_spectrum_is_invariant(self):
        _, spread = phase_spread(*gaussian_spectrum(center=3.0), self.TRIPLES)
        assert spread < 1e-6

    def test_asymmetric_spectrum_is_not(self):
        w = np.linspace(-8.0, 12.0, 6001)
        inten = 0.7 * np.exp(-(((w + 1.0) / 0.4) ** 2)) + 0.3 * np.exp(
            -(((w - 2.0) / 0.9) ** 2)
        )
        _, spread = phase_spread(w, normalised(w, inten), self.TRIPLES)
        assert spread > 0.01
