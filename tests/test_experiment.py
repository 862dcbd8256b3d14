import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton import experiment
from triphoton.errors import DomainError, NumericalInconsistency
from triphoton.experiment import (
    DetectionCascade,
    Preparation,
    ScanResult,
    delay_condition,
    delay_scan_preparations,
    phase_for_theta,
    prepare,
    scan_delays,
    scan_points,
    scan_triad,
    simulate_counts,
    theta_for_phase,
    triad_scan_preparations,
    _click_maps,
    _idler_distribution,
    _point_stack,
)
from triphoton import cli, interference, modes
from triphoton.interference import (
    Network,
    balanced_tritter,
    event_distribution,
    occupation_index,
    output_occupations,
)
from triphoton.mixedstate import build_densities, mixed_event_distribution
from triphoton.modes import GramMatrix, circular_distance, gram_matrix, gram_stack, triad_phase
from triphoton.oracle import random_unitary
from triphoton.source import (
    SourceParams,
    _mixing_weight,
    enumerate_terms,
    heralded_ensemble,
)

from product_states import fold_rows, pairwise_gram, points_of
from test_source import heralded_vectors

# Detection cascades: no splitter, two-way splitters on the first and third
# outputs, a three-way splitter on the first output.
NO_SPLITTERS = ("none", "none", "none")
BEAMSPLITTERS_1_3 = ("beamsplitter_2way", "none", "beamsplitter_2way")
TRITTER_1 = ("tritter_3way", "none", "none")
PERFECT_DETECTORS = DetectionCascade(NO_SPLITTERS, 1.0)

# The grid of a triad run that states no range: 33 phases over [0, 2 pi].
PHASE_GRID = np.linspace(0.0, 2.0 * math.pi, 33)

IDEAL_SOURCE = SourceParams(
    squeezing=0.16,
    purity=1.0,
    p_noise_idler=0.0,
    p_noise_signal=0.0,
    truncation_total_photons=6,
    truncation_noise_photons=0,
    herald_efficiency=1.0,
)


def point_idlers(prep, p_common, net_h, net_v, pairs):
    """The pair idlers' distribution over the outputs at the one point of ``prep``."""
    columns, grams = _point_stack(points_of([prep]), net_h, net_v)
    (dist,) = _idler_distribution(columns, grams, p_common, pairs)
    return fold_rows(dist, sum(pairs)) if columns.ndim == 3 else dist


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
        # Only the dynamic recipe reads theta; elsewhere it would be ignored.
        for recipe in ("all_H", "static_pi"):
            with pytest.raises(DomainError):
                Preparation(recipe, theta=0.3)
        # One delay per photon: extra delays would be dropped, missing ones fail late.
        for delays in ((0.0, 0.0), (0.0, 0.0, 0.0, 1.0)):
            with pytest.raises(DomainError, match="three delays"):
                Preparation("all_H", delays=delays)


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

    @pytest.mark.parametrize("recipe", ["all_H", "static_pi", "dynamic"])
    def test_is_the_point_model_with_pure_photons(self, recipe):
        # The scan hands the engine every point's Gram at once; the engine's
        # front end on each point's own Gram matrix is its reference.
        rng = np.random.default_rng(61)
        sigma = rng.uniform(0.5, 2.0)
        if recipe == "dynamic":
            values = rng.uniform(0.0, 2 * math.pi, 9)
            res = scan_triad(values, sigma)
            preps = triad_scan_preparations([theta_for_phase(v) for v in values], sigma)
        else:
            values = rng.uniform(-8.0, 8.0, 9) * sigma
            res = scan_delays(recipe, values, sigma)
            preps = delay_scan_preparations(recipe, values, sigma)
        net = balanced_tritter()
        name = lambda occ: "P" + "".join(map(str, occ))
        pair_index = occupation_index(2, 3)
        for i, prep in enumerate(preps):
            g = gram_matrix(prepare(prep)).entries
            three = event_distribution(net, (0, 1, 2), g)
            expected = {name(occ): p for occ, p in three.items()}
            for pairs in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
                inputs = tuple(i for i in range(3) if pairs[i])
                sub = g[np.ix_(inputs, inputs)]
                expected[name(pairs)] = event_distribution(net, inputs, sub)[pairs]
            assert sorted(expected) == sorted(res.series)
            for key, p in expected.items():
                np.testing.assert_allclose(res.series[key][i], p, rtol=0, atol=1e-15)

    def test_empty_scan(self):
        for res in (scan_delays("all_H", [], 1.0), scan_triad([], 1.0)):
            assert res.x_values.shape == (0,)
            assert all(values.shape == (0,) for values in res.series.values())

    @pytest.mark.parametrize(
        "sigma",
        [0.5, 1.0, 1.3, 2.0]
        + [pytest.param(float(np.random.default_rng(26).uniform(0.1, 10.0)), id="random")],
    )
    @pytest.mark.parametrize(
        "kind, recipe", [("delay", "all_H"), ("delay", "static_pi"), ("triad", "dynamic")]
    )
    def test_stack_is_every_point_gram(self, kind, recipe, sigma):
        grid = np.linspace(-12 * sigma, 12 * sigma, 61) if kind == "delay" else PHASE_GRID
        for values in (grid, grid[:0]):
            if kind == "delay":
                preps = delay_scan_preparations(recipe, values, sigma)
            else:
                preps = triad_scan_preparations([theta_for_phase(v) for v in values], sigma)
            stack = gram_stack(*scan_points(kind, recipe, values, sigma)[2:])
            # Bit for bit, signed zeros included, against the one-point builder
            # and against scalar overlaps.
            for expected in (
                np.array([gram_matrix(prepare(p)).entries for p in preps]).reshape(-1, 3, 3),
                np.array([pairwise_gram(prepare(p)) for p in preps]).reshape(-1, 3, 3),
            ):
                assert stack.shape == expected.shape == (len(values), 3, 3)
                assert stack.tobytes() == expected.tobytes()

    def test_scan_builds_no_internal_state(self, monkeypatch, tmp_path):
        # Every run goes from its grid to the engine on arrays: neither the
        # command line nor a library scan builds a per-point object.
        from same_numbers import CORPUS

        def refuse(*args, **kwargs):
            raise AssertionError("a run built a per-point preparation, state or Gram matrix")

        for name in ("Preparation", "prepare", "InternalState"):
            monkeypatch.setattr(experiment, name, refuse)
        monkeypatch.setattr(modes, "gram_matrix", refuse)
        assert not hasattr(experiment, "gram_matrix")
        for config in sorted(CORPUS.glob("*.json")):
            assert cli.run(str(config), out_dir=str(tmp_path / config.stem)) == 0, config.stem
        assert len(scan_triad(PHASE_GRID, 1.0).x_values) == 33
        assert len(scan_delays("static_pi", [0.0, 1.0], 1.0).x_values) == 2
        for net_v in (None, perturbed_tritter()):
            for points in (
                scan_points("triad", "dynamic", [0.0, 2.0], 1.0),
                scan_points("delay", "static_pi", [1.3], 1.0),
            ):
                counts = simulate_counts(points, SourceParams(), DetectionCascade(), None, net_v)
                assert counts.x_values.tolist() == points.x_values.tolist()

    def test_values_are_read_once(self):
        # A generator is used up by the first pass over it.
        taus, phis = [0.0, 1.0, 2.5], [0.0, 2.0]
        assert scan_delays("all_H", iter(taus), 1.0).x_values.tolist() == taus
        res = scan_triad(iter(phis), 1.0)
        assert res.x_values.tolist() == phis
        assert res.series["P111"].tolist() == scan_triad(phis, 1.0).series["P111"].tolist()

    def test_one_bad_point_fails_the_scan(self):
        points = scan_points("delay", "all_H", [0.0, 1.0, 2.0], 1.0)
        points = points._replace(sigma=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(DomainError, match="sigma must be a positive normal float"):
            _point_stack(points, balanced_tritter(), balanced_tritter())
        with pytest.raises(DomainError, match="sigma must be a positive normal float"):
            _point_stack(points, balanced_tritter(), perturbed_tritter())


def assert_same_points(points, reference):
    """Every array of ``points`` equals the reference's bit for bit, signed zeros included.

    The run's one width stands for every point's.
    """
    for name in ("delays", "sigma", "polarizations"):
        actual, expected = getattr(points, name), getattr(reference, name)
        if name == "sigma":
            actual = np.broadcast_to(actual, expected.shape)
        assert actual.shape == expected.shape and actual.dtype == expected.dtype, name
        assert actual.tobytes() == expected.tobytes(), name


class TestScanPreparations:
    """A grid's points from :func:`scan_points` against its per-point preparations."""

    def test_delay_grid(self):
        points = scan_points("delay", "static_pi", [-1.0, 2.0, 0.0], 1.3)
        assert points.x_name == "tau"
        assert points.x_values.tolist() == [-1.0, 2.0, 0.0]
        reference = delay_scan_preparations("static_pi", [-1.0, 2.0, 0.0], 1.3)
        assert_same_points(points, points_of(reference))

    def test_triad_grid_realises_each_phase(self):
        phis = [0.0, 2.0, 5.5]
        points = scan_points("triad", "dynamic", phis, 0.7)
        assert points.x_name == "phi"
        assert points.x_values.tolist() == phis
        reference = triad_scan_preparations([theta_for_phase(p) for p in phis], 0.7)
        assert_same_points(points, points_of(reference))
        for phi, prep, g in zip(phis, reference, gram_stack(*points[2:])):
            assert phase_for_theta(prep.theta) == pytest.approx(phi, abs=1e-12)
            assert circular_distance(triad_phase(g), phi) < 1e-12

    @pytest.mark.parametrize(
        "kind, recipe", [("delay", "all_H"), ("delay", "static_pi"), ("triad", "dynamic")]
    )
    def test_random_grid_is_its_preparations(self, kind, recipe):
        rng = np.random.default_rng(262)
        sigma = float(rng.uniform(0.1, 10.0))
        values = rng.uniform(-20.0, 20.0, 50)
        points = scan_points(kind, recipe, iter(values.tolist()), sigma)
        if kind == "delay":
            reference = delay_scan_preparations(recipe, values, sigma)
        else:
            reference = triad_scan_preparations([theta_for_phase(v) for v in values], sigma)
        assert points.x_values.tolist() == values.tolist()
        assert_same_points(points, points_of(reference))

    @pytest.mark.parametrize("points", [0, 1, 33, 10000])
    def test_one_call_per_grid(self, monkeypatch, points):
        # The per-point formulas take the whole grid at once, whatever its length.
        calls = []
        for name in ("theta_for_phase", "delay_condition", "_polarizations"):
            original = getattr(experiment, name)
            counted = lambda *args, _name=name, _fn=original: calls.append(_name) or _fn(*args)
            monkeypatch.setattr(experiment, name, counted)
        grid = scan_points("triad", "dynamic", np.linspace(0.0, 2 * math.pi, points), 1.0)
        assert sorted(calls) == ["_polarizations", "delay_condition", "theta_for_phase"]
        assert grid.polarizations.shape == (points, 3, 2)

    @pytest.mark.parametrize(
        "kind, recipe",
        [("delay", "dynamic"), ("triad", "all_H"), ("triad", "static_pi"), ("phase", "all_H")],
    )
    def test_unscanned_pairing_rejected(self, kind, recipe):
        with pytest.raises(DomainError, match=f"a {kind} grid scans"):
            scan_points(kind, recipe, [0.0], 1.0)


class TestCascade:
    def test_click_probs_match_enumeration(self):
        # brute force over photon fates: each photon picks one leaf of its
        # output, each with probability eta / leaves, or is lost
        for splitters, (n, eta) in itertools.product(
            (NO_SPLITTERS, BEAMSPLITTERS_1_3, TRITTER_1),
            [(0, 0.5), (1, 0.7), (2, 0.5), (3, 0.4), (4, 0.9)],
        ):
            cas = DetectionCascade(splitters, eta)
            for occ in output_occupations(n, 3):
                outputs = [o for o, count in enumerate(occ) for _ in range(count)]
                brute = {}
                for fates in itertools.product(*(range(cas.leaves[o] + 1) for o in outputs)):
                    w = 1.0
                    clicked = set()
                    for o, f in zip(outputs, fates):
                        if f == cas.leaves[o]:
                            w *= 1.0 - eta
                        else:
                            w *= eta / cas.leaves[o]
                            clicked.add((o, f))
                    pattern = tuple(sum(o == k for k, _ in clicked) for o in range(3))
                    brute[pattern] = brute.get(pattern, 0.0) + w
                probs = cas.click_distribution(occ)
                for pattern in cas.patterns():
                    assert probs.get(pattern, 0.0) == pytest.approx(
                        brute.get(pattern, 0.0), abs=1e-12
                    )

    def test_click_distribution_normalised(self):
        cascade = DetectionCascade(BEAMSPLITTERS_1_3, 0.6)
        for occ in [(3, 0, 0), (1, 1, 1), (2, 1, 0), (0, 0, 0), (2, 2, 1)]:
            dist = cascade.click_distribution(occ)
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("occupation", [(2,), (-1, 0, 1), (1, 1), (1.0, 1, 1)])
    def test_occupation_must_be_three_nonnegative_integers(self, occupation):
        # (2,) would broadcast and (-1, 0, 1) give two patterns at probability 1.
        with pytest.raises(DomainError, match="three nonnegative integers"):
            DetectionCascade(BEAMSPLITTERS_1_3).click_distribution(occupation)

    def test_topologies(self):
        assert DetectionCascade().leaves == (1, 1, 1)
        assert DetectionCascade(BEAMSPLITTERS_1_3).leaves == (2, 1, 2)
        assert DetectionCascade(TRITTER_1).leaves == (3, 1, 1)
        with pytest.raises(DomainError):
            DetectionCascade(("none", "nope", "none"))


class TestSimulateCounts:
    def test_ideal_reduction_matches_triad_scan(self):
        phis = np.linspace(0.0, 2 * math.pi, 9)
        points = scan_points("triad", "dynamic", phis, 1.0)
        counts = simulate_counts(points, IDEAL_SOURCE, PERFECT_DETECTORS)
        ideal = scan_triad(phis, 1.0)
        assert np.max(np.abs(counts.series["N111"] - ideal.series["P111"])) < 1e-9
        assert np.max(
            np.abs(counts.series["N110"] - ideal.series["P210"] - ideal.series["P120"])
        ) < 1e-9
        assert np.max(np.abs(counts.series["N100"] - ideal.series["P300"])) < 1e-9

    def test_ideal_reduction_matches_delay_scan(self):
        taus = [0.0, 1.5, 4.0]
        points = scan_points("delay", "all_H", taus, 1.0)
        counts = simulate_counts(points, IDEAL_SOURCE, PERFECT_DETECTORS)
        ideal = scan_delays("all_H", taus, 1.0)
        assert np.max(np.abs(counts.series["N111"] - ideal.series["P111"])) < 1e-9
        # Near-coincident photons: both scans read the same exact Gram matrix.
        for recipe in ("all_H", "static_pi"):
            points = scan_points("delay", recipe, [1e-5], 1.0)
            counts = simulate_counts(points, IDEAL_SOURCE, PERFECT_DETECTORS)
            ideal = scan_delays(recipe, [1e-5], 1.0)
            assert counts.series["N111"][0] == pytest.approx(ideal.series["P111"][0], abs=1e-13)

    def test_click_patterns_normalised_per_point(self):
        taus = [0.0, 3.0]
        points = scan_points("delay", "all_H", taus, 1.0)
        counts = simulate_counts(points, SourceParams(), DetectionCascade(BEAMSPLITTERS_1_3, 0.5))
        total = np.zeros(len(taus))
        for series in counts.series.values():
            total += series
        assert np.allclose(total, 1.0, atol=1e-10)

    def test_near_coincident_delays(self):
        # A delay this small truncates the temporal basis rank; the photons
        # must stay unit vectors so that every point still sums to 1.
        points = scan_points("delay", "all_H", [0.0027, 1e-7], 1.07)
        for net_v in (None, perturbed_tritter()):
            counts = simulate_counts(
                points, SourceParams(), DetectionCascade(TRITTER_1, 0.5), balanced_tritter(), net_v
            )
            total = sum(counts.series.values())
            assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_x_values_of_another_length_rejected(self):
        points = scan_points("delay", "all_H", [0.0, 1.0, 2.0], 1.0)
        with pytest.raises(DomainError, match="one value per x value"):
            simulate_counts(points._replace(x_values=np.zeros(2)), IDEAL_SOURCE)
        with pytest.raises(DomainError, match="one value per x value"):
            ScanResult("tau", np.zeros(2), {"P111": np.zeros(2), "P011": np.zeros(3)})

    def test_networks_other_than_three_modes_rejected(self):
        points = scan_points("delay", "all_H", [0.0], 1.0)
        four = Network(np.eye(4))
        for nets in ((four, None), (None, four), (balanced_tritter(), four)):
            with pytest.raises(DomainError, match="three-mode networks"):
                simulate_counts(points, IDEAL_SOURCE, DetectionCascade(), *nets)

    @pytest.mark.parametrize(
        "cascade", [DetectionCascade(BEAMSPLITTERS_1_3), DetectionCascade(TRITTER_1)]
    )
    def test_clip_moves_no_value_by_more_than_1e_12(self, cascade, monkeypatch):
        # At budget 6/1 patterns of four clicks cannot occur.  The (1, 1, 1)
        # map, about half the herald norm, moves 1e-12 of its column sums from
        # its last pattern (five clicks) to its first, so that pattern reads
        # about -5e-13 at every point and the clip sets it to 0.
        def shifted(*args):
            maps = _click_maps(*args)
            m = maps[(1, 1, 1)]
            shift = 1e-12 * m.sum(axis=0)
            maps[(1, 1, 1)] = np.vstack([m[:1] + m[-1:] + shift, m[1:-1], -shift])
            return maps

        monkeypatch.setattr(experiment, "_click_maps", shifted)
        source = SourceParams(truncation_total_photons=6, truncation_noise_photons=1)
        preps = triad_scan_preparations([theta_for_phase(0.7), theta_for_phase(3.5)], 1.0)
        preps += delay_scan_preparations("static_pi", [0.0, 1.3], 1.0)
        preps += delay_scan_preparations("all_H", [0.0], 1.0)
        counts = simulate_counts(points_of(preps), source, cascade)
        heralded = heralded_ensemble(source)
        net = balanced_tritter()
        maps = shifted(heralded, cascade, net, net, 3)
        p_common = _mixing_weight(source.purity)
        columns, grams = _point_stack(points_of(preps), net, net)
        raw = sum(
            m @ _idler_distribution(columns, grams, p_common, pairs).T for pairs, m in maps.items()
        )
        raw = raw / herald_norm(heralded)
        clipped = np.array(list(counts.series.values()))
        assert raw.min() < -1e-13
        assert np.all((clipped >= 0.0) & (clipped <= 1.0))
        assert np.max(np.abs(clipped - raw)) <= 1e-12
        assert counts.metadata["click_most_negative"] == raw.min()
        assert counts.metadata["click_sum_max_deviation"] <= 1e-12

    def test_nan_click_pattern_rejected(self, monkeypatch):
        # A NaN passes no comparison, so the click check must not read it as in band.
        def poisoned(*args):
            maps = _click_maps(*args)
            maps[(1, 1, 1)] = np.where(maps[(1, 1, 1)] > 0.0, maps[(1, 1, 1)], np.nan)
            return maps

        monkeypatch.setattr(experiment, "_click_maps", poisoned)
        points = scan_points("delay", "all_H", [0.0], 1.0)
        with pytest.raises(NumericalInconsistency, match="click sums"):
            simulate_counts(points, SourceParams(), DetectionCascade(TRITTER_1))

    @pytest.mark.parametrize("budget", [(6, 1), (8, 3)])
    @pytest.mark.parametrize(
        "cascade",
        [DetectionCascade(), DetectionCascade(TRITTER_1), DetectionCascade(BEAMSPLITTERS_1_3)],
    )
    def test_triad_series_are_cosine_series(self, cascade, budget):
        # Along the triad scan the overlap moduli stay at 1/2, so a point
        # depends on its Gram matrix only through the cyclic product, and a
        # configuration of n pair idlers carries harmonics up to n // 3 of the
        # collective phase.  No oracle: every series must equal its Fourier
        # fit of degree P // 3, P = total budget // 2 the most pair idlers.
        total, noise = budget
        source = SourceParams(truncation_total_photons=total, truncation_noise_photons=noise)
        phis = PHASE_GRID
        counts = simulate_counts(scan_points("triad", "dynamic", phis, 1.0), source, cascade)
        harmonics = np.outer(phis, np.arange(1, (total // 2) // 3 + 1))
        basis = np.column_stack([np.ones_like(phis), np.cos(harmonics), np.sin(harmonics)])
        for name, series in counts.series.items():
            coefficients = np.linalg.lstsq(basis, series, rcond=None)[0]
            assert np.max(np.abs(basis @ coefficients - series)) <= 1e-12, name

    @pytest.mark.parametrize("split", [False, True], ids=["h=v", "h!=v"])
    @pytest.mark.parametrize("purity", [0.9, 1.0])
    @pytest.mark.parametrize(
        "cascade", [DetectionCascade(), DetectionCascade(BEAMSPLITTERS_1_3, 0.6)]
    )
    def test_run_is_its_one_point_runs(self, split, purity, cascade):
        # The points of a run share engine calls; each must read as if alone.
        net_v = perturbed_tritter() if split else None
        source = SourceParams(purity=purity)
        preps = triad_scan_preparations([theta_for_phase(p) for p in (0.0, 2.0, 4.5)], 1.0)
        preps += delay_scan_preparations("static_pi", [0.0, 1.3], 1.0)
        preps += delay_scan_preparations("all_H", [0.0027], 1.07)
        run = simulate_counts(points_of(preps), source, cascade, None, net_v)
        for i, prep in enumerate(preps):
            alone = simulate_counts(points_of([prep]), source, cascade, None, net_v)
            for name, series in run.series.items():
                np.testing.assert_allclose(series[i], alone.series[name][0], rtol=0, atol=1e-15)

    def test_one_point_per_engine_block_changes_nothing(self, monkeypatch):
        # Engine blocks bound memory; how the points fall into them moves no
        # bit.  At this budget 5 pair idlers take blocks of 36 points, so the
        # 40 points fall in two blocks, or in 40 with no byte to spare.
        source = SourceParams(purity=0.9, truncation_total_photons=10, truncation_noise_photons=2)
        phis = np.linspace(0.0, 2 * math.pi, 40)
        points = scan_points("triad", "dynamic", phis, 1.0)
        runs = []
        for block_bytes in (interference._BLOCK_BYTES, 0):
            monkeypatch.setattr(interference, "_BLOCK_BYTES", block_bytes)
            runs.append(
                [
                    simulate_counts(points, source, DetectionCascade(TRITTER_1)).series,
                    scan_triad(phis, 1.0).series,
                ]
            )
        for blocked, single in zip(*runs):
            assert list(blocked) == list(single)
            for name in blocked:
                assert np.array_equal(blocked[name], single[name]), name

    def test_truncation_metadata(self):
        counts = simulate_counts(
            scan_points("delay", "all_H", [0.0], 1.0),
            SourceParams(),
            DetectionCascade(),
        )
        assert counts.metadata["truncation_deficit"] < 1e-3

    def test_purity_degrades_suppression(self):
        taus = [0.0]
        points = scan_points("delay", "all_H", taus, 1.0)
        pure = simulate_counts(points, IDEAL_SOURCE, DetectionCascade(BEAMSPLITTERS_1_3, 1.0))
        impure_source = SourceParams(
            squeezing=0.16,
            purity=0.8,
            p_noise_idler=0.0,
            p_noise_signal=0.0,
            truncation_total_photons=6,
            truncation_noise_photons=0,
            herald_efficiency=1.0,
        )
        impure = simulate_counts(points, impure_source, DetectionCascade(BEAMSPLITTERS_1_3, 1.0))
        assert pure.series["N210"][0] == pytest.approx(0.0, abs=1e-12)
        assert impure.series["N210"][0] > 1e-4


# Two idler noise photons reach a heralded term only with a signal noise
# photon beside them: a budget of 7 photons, 3 of them noise.
SMALL_SOURCES = (
    SourceParams(truncation_total_photons=6, truncation_noise_photons=2),
    SourceParams(truncation_total_photons=7, truncation_noise_photons=3),
)
MIXED_CASCADES = (
    DetectionCascade(NO_SPLITTERS, 0.7),
    DetectionCascade(BEAMSPLITTERS_1_3, 0.6),
    DetectionCascade(TRITTER_1, 0.5),
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


def herald_norm(heralded):
    """Sum of the heralded weights: C(L+2, 2) idler-noise vectors carry L photons."""
    return math.fsum(c_l * math.comb(l + 2, 2) for c in heralded.values() for l, c_l in enumerate(c))


def per_term_counts(preps, source, cascade, net_h, net_v):
    """Click patterns by the per-term path: every heralded (pairs, idler noise)
    term of the explicit joint emission terms, its pair distribution convolved
    photon by photon with its noise photons, then pushed occupation by
    occupation through the cascade."""
    heralded = heralded_vectors(enumerate_terms(source), source.herald_efficiency)
    norm = math.fsum(heralded.values())
    p_common = _mixing_weight(source.purity)
    out = []
    for prep in preps:
        acc = {}
        for (pairs, noise), weight in heralded.items():
            idlers = point_idlers(prep, p_common, net_h, net_v, pairs)
            dist = dict(zip(output_occupations(sum(pairs), 3), idlers))
            dist = convolve_noise(dist, noise, net_h, net_v)
            for occ, p in dist.items():
                for pattern, q in cascade.click_distribution(occ).items():
                    acc[pattern] = acc.get(pattern, 0.0) + weight * p * q
        out.append({pattern: value / norm for pattern, value in acc.items()})
    return out


class TestRunLevelMaps:
    @pytest.mark.parametrize("source", SMALL_SOURCES)
    @pytest.mark.parametrize("cascade", MIXED_CASCADES[1:])
    @pytest.mark.parametrize("split", [False, True])
    def test_matches_per_term_path(self, cascade, split, source):
        net_h = balanced_tritter()
        net_v = perturbed_tritter() if split else net_h
        preps = triad_scan_preparations([theta_for_phase(0.7), theta_for_phase(3.5)], 1.0)
        preps += delay_scan_preparations("static_pi", [1.3], 1.0)
        counts = simulate_counts(points_of(preps), source, cascade, net_h, net_v)
        reference = per_term_counts(preps, source, cascade, net_h, net_v)
        for i, expected in enumerate(reference):
            for pattern in cascade.patterns():
                name = "N" + "".join(str(c) for c in pattern)
                assert counts.series[name][i] == pytest.approx(
                    expected.get(pattern, 0.0), abs=1e-12
                )

    def test_click_map_matches_convolution(self):
        # A unit coefficient at L photons of idler noise gives every placement
        # of those photons weight 1; each noise vector must still follow its
        # input modes through the network and then the cascade.
        rng = np.random.default_rng(11)
        net_h, net_v = balanced_tritter(), perturbed_tritter()
        pair_configurations = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1), (2, 1, 1)]
        for cascade, l_total, pairs in itertools.product(
            MIXED_CASCADES, range(3), pair_configurations
        ):
            c = [0.0] * l_total + [1.0]
            (matrix,) = _click_maps({pairs: c}, cascade, net_h, net_v, 3).values()
            occupations = output_occupations(sum(pairs), 3)
            dist = rng.dirichlet(np.ones(len(occupations)))
            reference = dict.fromkeys(cascade.patterns(), 0.0)
            for noise in itertools.product(range(l_total + 1), repeat=3):
                if sum(noise) != l_total:
                    continue
                lifted = convolve_noise(dict(zip(occupations, dist)), noise, net_h, net_v)
                for occ, p in lifted.items():
                    for pattern, q in cascade.click_distribution(occ).items():
                        reference[pattern] += p * q
            assert np.max(np.abs(matrix @ dist - list(reference.values()))) < 1e-12

    def test_click_map_columns_sum_to_heralded_weight(self):
        net_h, net_v = balanced_tritter(), perturbed_tritter()
        sources = SMALL_SOURCES + (SourceParams(),)
        for source, cascade in itertools.product(sources, MIXED_CASCADES):
            heralded = heralded_ensemble(source)
            for rows in (3, 6):
                maps = _click_maps(heralded, cascade, net_h, net_v, rows)
                assert list(maps) == list(heralded)
                for pairs, matrix in maps.items():
                    weight = herald_norm({pairs: heralded[pairs]})
                    occupations = output_occupations(sum(pairs), rows)
                    assert matrix.shape == (len(cascade.patterns()), len(occupations))
                    assert np.max(np.abs(matrix.sum(axis=0) - weight)) < 1e-12

    def test_row_map_matches_fold_then_map(self):
        # Detectors do not see polarisation: the map over (output, H) then
        # (output, V) rows must equal folding the rows onto the outputs first.
        rng = np.random.default_rng(29)
        heralded = heralded_ensemble(SourceParams())
        for cascade in MIXED_CASCADES:
            net_h, net_v = random_unitary(rng, 3), random_unitary(rng, 3)
            outputs = _click_maps(heralded, cascade, net_h, net_v, 3)
            for pairs, matrix in _click_maps(heralded, cascade, net_h, net_v, 6).items():
                dist = rng.dirichlet(np.ones(matrix.shape[1]))
                folded = outputs[pairs] @ fold_rows(dist, sum(pairs))
                assert np.max(np.abs(matrix @ dist - folded)) <= 1e-15


@st.composite
def branch_grams(draw):
    """A validated Gram matrix of up to 4 photons, an idler selection and slot labels.

    The photons' vectors lie within ``spread`` of one another, down to the
    nearly coincident photons of a near-zero delay.
    """
    n = draw(st.integers(1, 4))
    rank = draw(st.integers(1, n))
    spread = draw(st.sampled_from([1e-7, 1e-3, 1.0]))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n * rank, max_size=2 * n * rank))
    noise = (np.array(parts[: n * rank]) + 1j * np.array(parts[n * rank :])).reshape(n, rank)
    vectors = 2.0 + spread * noise
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    g = GramMatrix(vectors @ vectors.conj().T)
    idlers = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    slots = draw(st.lists(st.integers(0, 3), min_size=len(idlers), max_size=len(idlers)))
    return g, idlers, np.array(slots)


class TestPointModel:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(branch_grams())
    def test_branch_grams_pass_validation(self, instance):
        # What _idler_distribution hands the engine unchecked: the point Gram on the
        # idlers' modes, masked to the pairs of idlers that share a slot.
        g, idlers, slots = instance
        GramMatrix(g.entries[np.ix_(idlers, idlers)] * (slots[:, None] == slots[None, :]))

    # The ids name the Tr(rho^2) reading of the purity.
    @pytest.mark.parametrize("purity", [0.9, 1.0], ids=["0.9-trace", "1.0-trace"])
    def test_one_idler_terms_match_trace_formula(self, purity):
        preps = (
            triad_scan_preparations([theta_for_phase(2.0)], 1.0)[0],
            delay_scan_preparations("static_pi", [1.3], 1.0)[0],
            delay_scan_preparations("all_H", [0.0027 * 1.07], 1.07)[0],
        )
        for net in (balanced_tritter(), perturbed_tritter()):
            for prep in preps:
                densities = build_densities(prepare(prep), purity)
                for pairs in ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
                    inputs = tuple(i for i in range(3) if pairs[i])
                    reference = mixed_event_distribution(
                        net, inputs, [densities[i] for i in inputs]
                    )
                    dist = point_idlers(prep, _mixing_weight(purity), net, net, pairs)
                    assert list(reference) == output_occupations(len(inputs), 3)
                    assert len(dist) == len(reference)
                    for q, p in zip(dist, reference.values()):
                        assert q == pytest.approx(p, abs=1e-12)


class TestPolarizationDependence:
    def test_marginals_constant_for_uniform_tritter(self):
        net = balanced_tritter()
        values = []
        for phi in np.linspace(0, 2 * math.pi, 7):
            prep = triad_scan_preparations([theta_for_phase(phi)], 1.0)[0]
            dist = point_idlers(prep, 1.0, net, net, (1, 1, 0))
            values.append(dist[occupation_index(2, 3)[(1, 1, 0)]])
        assert np.ptp(values) < 1e-12
        assert values[0] == pytest.approx(7 / 36, abs=1e-12)

    def test_marginals_vary_for_split_tritter(self):
        net_h, net_v = balanced_tritter(), perturbed_tritter()
        values = []
        for phi in np.linspace(0, 2 * math.pi, 7):
            prep = triad_scan_preparations([theta_for_phase(phi)], 1.0)[0]
            dist = point_idlers(prep, 1.0, net_h, net_v, (1, 1, 0))
            values.append(dist[occupation_index(2, 3)[(1, 1, 0)]])
        assert np.ptp(values) > 1e-3

    def test_pair_distribution_covariant_under_output_relabelling(self):
        # Output k of both polarisation blocks becomes output out[k].
        rng = np.random.default_rng(53)
        net_h, net_v = balanced_tritter(), random_unitary(rng, 3)
        p_common = _mixing_weight(0.9)
        preps = triad_scan_preparations([theta_for_phase(2.0)], 1.0)
        preps += delay_scan_preparations("static_pi", [0.8], 1.0)
        for prep in preps:
            for out in itertools.permutations(range(3)):
                moved_h = Network(net_h.matrix[np.argsort(out)])
                moved_v = Network(net_v.matrix[np.argsort(out)])
                for pairs in itertools.product(range(3), repeat=3):
                    if not 1 <= sum(pairs) <= 4:
                        continue
                    occupations = output_occupations(sum(pairs), 3)
                    index = occupation_index(sum(pairs), 3)
                    dist = point_idlers(prep, p_common, net_h, net_v, pairs)
                    relabelled = point_idlers(prep, p_common, moved_h, moved_v, pairs)
                    for occ, p in zip(occupations, dist):
                        target = [0, 0, 0]
                        for k, s in enumerate(occ):
                            target[out[k]] = s
                        assert relabelled[index[tuple(target)]] == pytest.approx(p, abs=1e-12)

    def test_counts_differ_under_polarisation_dependence(self):
        points = scan_points("triad", "dynamic", [0.0, math.pi / 2, math.pi], 1.0)
        base = simulate_counts(points, IDEAL_SOURCE, PERFECT_DETECTORS)
        split = simulate_counts(
            points, IDEAL_SOURCE, PERFECT_DETECTORS, balanced_tritter(), perturbed_tritter()
        )
        diff = max(
            np.max(np.abs(base.series[k] - split.series[k])) for k in base.series
        )
        assert diff > 1e-3

    def test_no_points_give_empty_series(self):
        # Under H != V the columns are a (0, 6, 3) stack: nothing reaches the engine.
        points = scan_points("delay", "static_pi", [], 1.0)
        cascade = DetectionCascade(TRITTER_1)
        for net_v in (None, perturbed_tritter()):
            counts = simulate_counts(points, SourceParams(), cascade, None, net_v)
            assert len(counts.series) == len(cascade.patterns())
            assert all(values.shape == (0,) for values in counts.series.values())

    def test_split_points_reach_the_engine_one_per_call(self, monkeypatch):
        # Under H != V each point has its own columns and so its own engine
        # calls; under H = V the points share every call.
        engine = experiment._columns_distribution
        stacks = []

        def counted(columns, s, modes):
            stacks.append(len(s))
            return engine(columns, s, modes)

        monkeypatch.setattr(experiment, "_columns_distribution", counted)
        calls = {}
        for net_v, points in itertools.product((None, perturbed_tritter()), (1, 4)):
            stacks.clear()
            grid = scan_points("delay", "static_pi", np.linspace(-2.0, 2.0, points), 1.0)
            simulate_counts(grid, SourceParams(), DetectionCascade(), None, net_v)
            calls[net_v is None, points] = len(stacks)
            assert set(stacks) == ({points} if net_v is None else {1})
        assert calls[False, 4] == 4 * calls[False, 1] > 0
        assert calls[True, 4] == calls[True, 1] > 0
