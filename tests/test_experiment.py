import itertools
import math

import numpy as np
import pytest

from triphoton.errors import DomainError
from triphoton.experiment import (
    DetectionCascade,
    Preparation,
    cascade_beamsplitters_1_3,
    cascade_none,
    cascade_tritter_1,
    delay_condition,
    delay_scan_preparations,
    phase_for_theta,
    prepare,
    scan_delays,
    scan_triad,
    simulate_counts,
    theta_for_phase,
    triad_scan_preparations,
    two_photon_marginals_model,
    _cascade_matrix,
    _mode_click_probs,
    _noise_map,
    _PointModel,
)
from triphoton.interference import Network, balanced_tritter, output_occupations
from triphoton.mixedstate import build_densities, mixed_event_distribution
from triphoton.modes import gram_matrix, triad_phase
from triphoton.source import SourceParams, enumerate_terms, heralded_ensemble

IDEAL_SOURCE = SourceParams(
    squeezing=0.16,
    purity=1.0,
    p_noise_idler=0.0,
    p_noise_signal=0.0,
    truncation_total_photons=6,
    truncation_noise_photons=0,
    herald_efficiency=1.0,
)


def perturbed_tritter(eps=0.15):
    rot = np.eye(3, dtype=complex)
    rot[0, 0] = rot[1, 1] = math.cos(eps)
    rot[0, 1] = math.sin(eps)
    rot[1, 0] = -math.sin(eps)
    return Network(rot @ balanced_tritter().matrix)


class TestPrepare:
    def test_all_h_gram(self):
        g = gram_matrix(prepare(Preparation("all_H")))
        assert np.allclose(g.entries, 1.0)

    def test_static_pi_phase(self):
        g = gram_matrix(prepare(Preparation("static_pi")))
        assert triad_phase(g) == pytest.approx(math.pi, abs=1e-12)
        off_diagonal = np.abs(g.entries[~np.eye(3, dtype=bool)])
        assert np.allclose(off_diagonal, 0.5)

    def test_dynamic_with_delay_condition(self):
        theta = math.pi / 8
        delta = delay_condition(theta, 1.0)
        states = prepare(Preparation("dynamic", delays=(delta, 0.0, 0.0), theta=theta))
        g = gram_matrix(states).entries
        for i, j in itertools.combinations(range(3), 2):
            assert abs(g[i, j]) == pytest.approx(0.5, abs=1e-12)
        assert triad_phase(g) == pytest.approx(math.pi / 3, abs=1e-12)

    def test_recipe_validation(self):
        with pytest.raises(DomainError):
            Preparation("dynamic")
        with pytest.raises(DomainError):
            Preparation("nope")


class TestDelayCondition:
    def test_anchors(self):
        assert delay_condition(math.pi / 4, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert delay_condition(0.0, 1.0) == pytest.approx(math.sqrt(2 * math.log(3.0)), abs=1e-12)
        assert delay_condition(math.pi / 8, 1.0) == pytest.approx(
            math.sqrt(2 * math.log(2.0)), abs=1e-12
        )

    def test_phase_angle_round_trip(self):
        for phi in np.linspace(0.0, 2 * math.pi, 17):
            assert phase_for_theta(theta_for_phase(phi)) == pytest.approx(
                phi % (2 * math.pi), abs=1e-12
            )


class TestIdealScans:
    TAUS = np.linspace(-12.0, 12.0, 41)

    def test_all_h_polynomial(self):
        res = scan_delays("all_H", self.TAUS, 1.0)
        x = np.exp(-self.TAUS**2 / 16.0)
        expected = (2 + 4 * x**6 - 2 * x**2 - x**8) / 9
        assert np.max(np.abs(res.series["P111"] - expected)) < 1e-12

    def test_all_h_w_shape(self):
        res = scan_delays("all_H", self.TAUS, 1.0)
        p = res.series["P111"]
        mid = len(p) // 2
        assert p[mid] == pytest.approx(1 / 3, abs=1e-12)
        assert p[0] == pytest.approx(2 / 9, abs=1e-6)
        assert np.min(p) < 2 / 9 - 1e-3  # interior minimum strictly below the asymptote

    def test_static_pi_polynomial_and_monotonicity(self):
        res = scan_delays("static_pi", self.TAUS, 1.0)
        x = np.exp(-self.TAUS**2 / 16.0)
        expected = (2 - x**2 / 2 - x**6 / 2 - x**8 / 4) / 9
        p = res.series["P111"]
        assert np.max(np.abs(p - expected)) < 1e-12
        mid = len(p) // 2
        assert p[mid] == pytest.approx(1 / 12, abs=1e-12)
        right = p[mid:]
        assert np.all(np.diff(right) >= -1e-15)  # nondecreasing in |tau|

    def test_hom_visibilities(self):
        res = scan_delays("all_H", [0.0, 1e6], 1.0)
        dip, base = res.series["P110"]
        assert 1 - dip / base == pytest.approx(0.5, abs=1e-9)
        res = scan_delays("static_pi", [0.0, 1e6], 1.0)
        dip, base = res.series["P110"]
        assert 1 - dip / base == pytest.approx(0.125, abs=1e-9)

    def test_triad_scan_cosine(self):
        phis = np.linspace(0.0, 2 * math.pi, 33)
        res = scan_triad(phis, 1.0)
        expected = (1.25 + 0.5 * np.cos(phis)) / 9
        assert np.max(np.abs(res.series["P111"] - expected)) < 1e-12
        design = np.column_stack([np.ones_like(phis), np.cos(phis)])
        (a, b), *_ = np.linalg.lstsq(design, res.series["P111"], rcond=None)
        assert b > 0
        residual = res.series["P111"] - design @ [a, b]
        assert np.max(np.abs(residual)) < 1e-10

    def test_triad_scan_x_is_requested_phases(self):
        phis = np.linspace(0.0, 2 * math.pi, 33)
        res = scan_triad(phis, 1.0)
        assert res.x_values.tolist() == phis.tolist()

    def test_triad_scan_constant_marginals(self):
        phis = np.linspace(0.0, 2 * math.pi, 17)
        res = scan_triad(phis, 1.0)
        for key in ("P011", "P101", "P110"):
            assert np.ptp(res.series[key]) < 1e-12
            assert res.series[key][0] == pytest.approx(7 / 36, abs=1e-12)

    def test_delay_scan_recipe_restriction(self):
        with pytest.raises(DomainError):
            scan_delays("dynamic", [0.0], 1.0)


class TestCascade:
    def test_click_probs_match_enumeration(self):
        # brute force over photon fates: each photon picks a leaf and
        # survives with probability eta
        for n, leaves, eta in [(0, 2, 0.5), (1, 1, 0.7), (2, 2, 0.5), (3, 3, 0.4), (4, 2, 0.9)]:
            probs = _mode_click_probs(n, leaves, eta)
            brute = [0.0] * (leaves + 1)
            for fates in itertools.product(range(leaves + 1), repeat=n):
                w = 1.0
                clicked = set()
                for f in fates:
                    if f == leaves:
                        w *= 1.0 - eta
                    else:
                        w *= eta / leaves
                        clicked.add(f)
                brute[len(clicked)] += w
            assert np.allclose(probs, brute, atol=1e-12)

    def test_click_distribution_normalised(self):
        cascade = cascade_beamsplitters_1_3(0.6)
        for occ in [(3, 0, 0), (1, 1, 1), (2, 1, 0), (0, 0, 0), (2, 2, 1)]:
            dist = cascade.click_distribution(occ)
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_topologies(self):
        assert cascade_none().leaves == (1, 1, 1)
        assert cascade_beamsplitters_1_3().leaves == (2, 1, 2)
        assert cascade_tritter_1().leaves == (3, 1, 1)
        with pytest.raises(DomainError):
            DetectionCascade(("none", "nope", "none"))


class TestSimulateCounts:
    def test_ideal_reduction_matches_triad_scan(self):
        phis = np.linspace(0.0, 2 * math.pi, 9)
        thetas = [theta_for_phase(p) for p in phis]
        preps = triad_scan_preparations(thetas, 1.0)
        counts = simulate_counts(preps, IDEAL_SOURCE, cascade_none(1.0), x_values=phis)
        ideal = scan_triad(phis, 1.0)
        assert np.max(np.abs(counts.series["N111"] - ideal.series["P111"])) < 1e-9
        assert np.max(
            np.abs(counts.series["N110"] - ideal.series["P210"] - ideal.series["P120"])
        ) < 1e-9
        assert np.max(np.abs(counts.series["N100"] - ideal.series["P300"])) < 1e-9

    def test_ideal_reduction_matches_delay_scan(self):
        taus = [0.0, 1.5, 4.0]
        preps = delay_scan_preparations("all_H", taus, 1.0)
        counts = simulate_counts(preps, IDEAL_SOURCE, cascade_none(1.0), x_values=taus)
        ideal = scan_delays("all_H", taus, 1.0)
        assert np.max(np.abs(counts.series["N111"] - ideal.series["P111"])) < 1e-9

    def test_click_patterns_normalised_per_point(self):
        taus = [0.0, 3.0]
        preps = delay_scan_preparations("all_H", taus, 1.0)
        counts = simulate_counts(
            preps, SourceParams(), cascade_beamsplitters_1_3(0.5), x_values=taus
        )
        total = np.zeros(len(taus))
        for series in counts.series.values():
            total += series
        assert np.allclose(total, 1.0, atol=1e-10)

    def test_near_coincident_delays(self):
        # A delay this small truncates the temporal basis rank; the photons
        # must stay unit vectors so that every point still sums to 1.
        preps = delay_scan_preparations("all_H", [0.0027, 1e-7], 1.07)
        for net_v in (None, perturbed_tritter()):
            counts = simulate_counts(
                preps, SourceParams(), cascade_tritter_1(0.5), balanced_tritter(), net_v
            )
            total = sum(counts.series.values())
            assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_truncation_metadata(self):
        counts = simulate_counts(
            delay_scan_preparations("all_H", [0.0], 1.0),
            SourceParams(),
            cascade_none(0.5),
        )
        assert counts.metadata["truncation_deficit"] < 1e-3
        assert counts.metadata["truncation_warning"] is False

    def test_purity_degrades_suppression(self):
        taus = [0.0]
        preps = delay_scan_preparations("all_H", taus, 1.0)
        pure = simulate_counts(preps, IDEAL_SOURCE, cascade_beamsplitters_1_3(1.0))
        impure_source = SourceParams(
            squeezing=0.16,
            purity=0.8,
            p_noise_idler=0.0,
            p_noise_signal=0.0,
            truncation_total_photons=6,
            truncation_noise_photons=0,
            herald_efficiency=1.0,
        )
        impure = simulate_counts(preps, impure_source, cascade_beamsplitters_1_3(1.0))
        assert pure.series["N210"][0] == pytest.approx(0.0, abs=1e-12)
        assert impure.series["N210"][0] > 1e-4


# Two idler noise photons reach a heralded term only with a signal noise
# photon beside them: a budget of 7 photons, 3 of them noise.
SMALL_SOURCES = (
    SourceParams(truncation_total_photons=6, truncation_noise_photons=2),
    SourceParams(truncation_total_photons=7, truncation_noise_photons=3),
)


def convolve_noise(dist, noise_idlers, net_h, net_v):
    """Add unpolarised noise photons to an occupation distribution, one at a time."""
    for mode, count in enumerate(noise_idlers):
        q = 0.5 * (np.abs(net_h.matrix[:, mode]) ** 2 + np.abs(net_v.matrix[:, mode]) ** 2)
        for _ in range(count):
            lifted = {}
            for occ, p in dist.items():
                for k in range(3):
                    key = tuple(s + (j == k) for j, s in enumerate(occ))
                    lifted[key] = lifted.get(key, 0.0) + p * q[k]
            dist = lifted
    return dist


def per_term_counts(preps, source, cascade, net_h, net_v):
    """Click patterns by the per-term path: every heralded term's pair
    distribution, convolved photon by photon with its noise photons, then
    pushed occupation by occupation through the cascade."""
    heralded = heralded_ensemble(enumerate_terms(source), source.herald_efficiency)
    norm = math.fsum(t.weight for t in heralded)
    pol_dependent = not np.allclose(net_h.matrix, net_v.matrix, atol=1e-14)
    out = []
    for prep in preps:
        model = _PointModel(prepare(prep), source.purity, "trace", net_h, net_v, pol_dependent)
        acc = {}
        for term in heralded:
            n = sum(term.pair_idlers)
            dist = dict(zip(output_occupations(n, 3), model.pair_distribution(term.pair_idlers)))
            dist = convolve_noise(dist, term.noise_idlers, net_h, net_v)
            for occ, p in dist.items():
                for pattern, q in cascade.click_distribution(occ).items():
                    acc[pattern] = acc.get(pattern, 0.0) + term.weight * p * q
        out.append({pattern: value / norm for pattern, value in acc.items()})
    return out


class TestRunLevelMaps:
    @pytest.mark.parametrize("source", SMALL_SOURCES)
    @pytest.mark.parametrize("cascade", [cascade_beamsplitters_1_3(0.6), cascade_tritter_1(0.5)])
    @pytest.mark.parametrize("split", [False, True])
    def test_matches_per_term_path(self, cascade, split, source):
        net_h = balanced_tritter()
        net_v = perturbed_tritter() if split else net_h
        preps = triad_scan_preparations([theta_for_phase(0.7), theta_for_phase(3.5)], 1.0)
        preps += delay_scan_preparations("static_pi", [1.3], 1.0)
        counts = simulate_counts(preps, source, cascade, net_h, net_v)
        reference = per_term_counts(preps, source, cascade, net_h, net_v)
        for i, expected in enumerate(reference):
            for pattern in cascade.patterns():
                name = "N" + "".join(str(c) for c in pattern)
                assert counts.series[name][i] == pytest.approx(
                    expected.get(pattern, 0.0), abs=1e-12
                )

    def test_cascade_columns_normalised(self):
        for cascade in (cascade_none(0.7), cascade_beamsplitters_1_3(0.6), cascade_tritter_1(0.5)):
            for n in range(7):
                matrix = _cascade_matrix(cascade, n)
                assert matrix.shape == (len(cascade.patterns()), len(output_occupations(n, 3)))
                assert np.max(np.abs(matrix.sum(axis=0) - 1.0)) < 1e-12

    def test_noise_map_matches_convolution(self):
        # Heralded terms carry every placement of their noise photons with
        # the same weight, which averages the output probabilities over the
        # inputs; each map on its own must still follow its input modes.
        rng = np.random.default_rng(11)
        net_h, net_v = balanced_tritter(), perturbed_tritter()
        for noise in itertools.product(range(3), repeat=3):
            if sum(noise) > 2:
                continue
            for n in range(5):
                matrix = _noise_map(noise, n, net_h, net_v)
                assert np.max(np.abs(matrix.sum(axis=0) - 1.0)) < 1e-12
                occupations = output_occupations(n, 3)
                dist = rng.dirichlet(np.ones(len(occupations)))
                reference = convolve_noise(dict(zip(occupations, dist)), noise, net_h, net_v)
                lifted = dict(zip(output_occupations(n + sum(noise), 3), matrix @ dist))
                assert lifted.keys() == reference.keys()
                for occ, p in reference.items():
                    assert lifted[occ] == pytest.approx(p, abs=1e-12)


class TestPointModel:
    @pytest.mark.parametrize("model", ["trace", "weight"])
    @pytest.mark.parametrize("purity", [0.9, 1.0])
    def test_one_idler_terms_match_trace_formula(self, purity, model):
        preps = (
            triad_scan_preparations([theta_for_phase(2.0)], 1.0)[0],
            delay_scan_preparations("static_pi", [1.3], 1.0)[0],
            delay_scan_preparations("all_H", [0.0027 * 1.07], 1.07)[0],
        )
        for net in (balanced_tritter(), perturbed_tritter()):
            for prep in preps:
                states = prepare(prep)
                point = _PointModel(states, purity, model, net, net, False)
                densities = build_densities(states, purity, model=model)
                for pairs in ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
                    inputs = tuple(i for i in range(3) if pairs[i])
                    reference = mixed_event_distribution(
                        net, inputs, [densities[i] for i in inputs]
                    )
                    dist = point.pair_distribution(pairs)
                    assert list(reference) == output_occupations(len(inputs), 3)
                    assert len(dist) == len(reference)
                    for q, p in zip(dist, reference.values()):
                        assert q == pytest.approx(p, abs=1e-12)


class TestPolarizationDependence:
    def test_marginals_constant_for_uniform_tritter(self):
        values = []
        for phi in np.linspace(0, 2 * math.pi, 7):
            prep = triad_scan_preparations([theta_for_phase(phi)], 1.0)[0]
            values.append(two_photon_marginals_model(prep)["P110"])
        assert np.ptp(values) < 1e-12
        assert values[0] == pytest.approx(7 / 36, abs=1e-12)

    def test_marginals_vary_for_split_tritter(self):
        net_v = perturbed_tritter()
        values = []
        for phi in np.linspace(0, 2 * math.pi, 7):
            prep = triad_scan_preparations([theta_for_phase(phi)], 1.0)[0]
            values.append(
                two_photon_marginals_model(prep, balanced_tritter(), net_v)["P110"]
            )
        assert np.ptp(values) > 1e-3

    def test_counts_differ_under_polarisation_dependence(self):
        phis = [0.0, math.pi / 2, math.pi]
        preps = triad_scan_preparations([theta_for_phase(p) for p in phis], 1.0)
        base = simulate_counts(preps, IDEAL_SOURCE, cascade_none(1.0), x_values=phis)
        split = simulate_counts(
            preps,
            IDEAL_SOURCE,
            cascade_none(1.0),
            balanced_tritter(),
            perturbed_tritter(),
            x_values=phis,
        )
        assert split.metadata["polarization_dependent"] is True
        diff = max(
            np.max(np.abs(base.series[k] - split.series[k])) for k in base.series
        )
        assert diff > 1e-3
