"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import math

import numpy as np
import pytest

from triphoton.experiment import (
    cascade_beamsplitters_1_3,
    delay_scan_preparations,
    scan_delays,
    scan_triad,
    simulate_counts,
)
from triphoton.interference import (
    EventSpec,
    balanced_beamsplitter,
    balanced_tritter,
    event_probability,
    output_occupations,
    tritter_bunched,
    tritter_p111,
    two_photon_marginals_tritter,
)
from triphoton.mixedstate import density_from_vector, gram_from_densities, p111_mixed
from triphoton.modes import (
    GramMatrix,
    GaussianTemporalMode,
    InternalState,
    PolarizationState,
    SampledSpectrum,
    circular_distance,
    delay_invariance_test,
    gram_matrix,
    qubit_triad_phase,
    triad_phase,
)
from triphoton.oracle import equivalence_report
from triphoton.source import SourceParams, enumerate_terms, truncation_deficit

TRITTER = balanced_tritter()


def random_unit_gram(rng, n=3):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = b @ b.conj().T
    d = np.sqrt(np.real(np.diag(g)))
    g = g / np.outer(d, d)
    np.fill_diagonal(g, 1.0)
    return GramMatrix(g)


def test_criterion_1_oracle_equivalence():
    report = equivalence_report(instances=500, seed=20260810)
    assert report["max_deviation"] < 1e-9
    print(
        f"\n[criterion 1] PASS: oracle equivalence over {report['instances']} instances "
        f"({report['events_checked']} events), max deviation {report['max_deviation']:.3e}"
    )


def test_criterion_2_closed_form_agreement():
    rng = np.random.default_rng(424242)
    worst = 0.0
    worst_total = 0.0
    for _ in range(1000):
        g = random_unit_gram(rng)
        e = g.entries
        r12, r23, r31 = abs(e[0, 1]), abs(e[1, 2]), abs(e[2, 0])
        try:
            phi = triad_phase(g)
        except Exception:
            phi = 0.0
        events = {
            occ: event_probability(TRITTER, EventSpec((0, 1, 2), occ), g)
            for occ in output_occupations(3, 3)
        }
        worst_total = max(worst_total, abs(math.fsum(events.values()) - 1.0))
        worst = max(worst, abs(tritter_p111(r12, r23, r31, phi) - events[(1, 1, 1)]))
        b = tritter_bunched(r12, r23, r31, phi)
        for occ in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
            worst = max(worst, abs(b["P300"] - events[occ]))
        for occ in ((1, 2, 0), (0, 1, 2), (2, 0, 1)):
            worst = max(worst, abs(b["P120_class"] - events[occ]))
        for occ in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
            worst = max(worst, abs(b["P021_class"] - events[occ]))
        marg = two_photon_marginals_tritter(g)
        worst = max(worst, abs(marg["P110"] - (2 - r12**2) / 9))
        worst = max(worst, abs(marg["P011"] - (2 - r23**2) / 9))
        worst = max(worst, abs(marg["P101"] - (2 - r31**2) / 9))
    assert worst < 1e-10
    assert worst_total < 1e-12
    print(
        f"\n[criterion 2] PASS: closed forms vs permanent engine over 1000 Gram matrices, "
        f"max deviation {worst:.3e}; total-probability deviation {worst_total:.3e}"
    )


def test_criterion_3_suppression_law():
    ones = np.ones((3, 3), dtype=complex)
    p111 = event_probability(TRITTER, EventSpec((0, 1, 2), (1, 1, 1)), ones)
    assert p111 == pytest.approx(1 / 3, abs=1e-12)
    for occ in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
        assert event_probability(TRITTER, EventSpec((0, 1, 2), occ), ones) == pytest.approx(
            2 / 9, abs=1e-12
        )
    suppressed = 0.0
    for occ in ((1, 2, 0), (0, 1, 2), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)):
        suppressed = max(
            suppressed, event_probability(TRITTER, EventSpec((0, 1, 2), occ), ones)
        )
    assert suppressed < 1e-12
    print(
        f"\n[criterion 3] PASS: suppression law (P111=1/3, P300=2/9, "
        f"largest suppressed event {suppressed:.3e})"
    )


def test_criterion_4_hom_curve():
    bs = balanced_beamsplitter()
    worst = 0.0
    for r in np.linspace(0.0, 1.0, 1001):
        g = np.array([[1.0, r], [r, 1.0]], dtype=complex)
        p = event_probability(bs, EventSpec((0, 1), (1, 1)), g)
        worst = max(worst, abs(p - (1 - r * r) / 2))
    assert worst < 1e-12
    print(f"\n[criterion 4] PASS: HOM curve over 1001 points, max deviation {worst:.3e}")


def test_criterion_5_delay_scan_shapes():
    taus = np.linspace(-12.0, 12.0, 61)
    x = np.exp(-(taus**2) / 16.0)

    res_w = scan_delays("all_H", taus, 1.0)
    expected_w = (2 + 4 * x**6 - 2 * x**2 - x**8) / 9
    dev_w = np.max(np.abs(res_w.series["P111"] - expected_w))
    assert dev_w < 1e-12
    p = res_w.series["P111"]
    mid = len(taus) // 2
    assert p[mid] == pytest.approx(1 / 3, abs=1e-12)
    asymptote = scan_delays("all_H", [1e3], 1.0).series["P111"][0]
    assert asymptote == pytest.approx(2 / 9, abs=1e-12)
    assert np.min(p) < asymptote - 1e-4

    res_d = scan_delays("static_pi", taus, 1.0)
    expected_d = (2 - x**2 / 2 - x**6 / 2 - x**8 / 4) / 9
    dev_d = np.max(np.abs(res_d.series["P111"] - expected_d))
    assert dev_d < 1e-12
    q = res_d.series["P111"]
    assert q[mid] == pytest.approx(1 / 12, abs=1e-12)
    assert np.all(np.diff(q[mid:]) >= -1e-15)

    print(
        f"\n[criterion 5] PASS: delay-scan shapes (W-shape and monotone dip), "
        f"max deviations {dev_w:.3e} / {dev_d:.3e}"
    )


def test_criterion_6_triad_scan():
    phis = np.linspace(0.0, 2 * math.pi, 33)
    res = scan_triad(phis, 1.0)
    expected = (1.25 + 0.5 * np.cos(phis)) / 9
    dev = np.max(np.abs(res.series["P111"] - expected))
    assert dev < 1e-12
    assert res.series["P111"][0] == pytest.approx(7 / 36, abs=1e-12)
    i_pi = int(np.argmin(np.abs(phis - math.pi)))
    assert res.series["P111"][i_pi] == pytest.approx(1 / 12, abs=1e-12)
    marg_dev = max(np.ptp(res.series[k]) for k in ("P011", "P101", "P110"))
    assert marg_dev < 1e-12
    assert res.series["P110"][0] == pytest.approx(7 / 36, abs=1e-12)
    print(
        f"\n[criterion 6] PASS: triad scan cosine (max dev {dev:.3e}), "
        f"marginal spread {marg_dev:.3e}"
    )


def test_criterion_7_triad_phase_properties():
    rng = np.random.default_rng(777)

    # gauge invariance under diagonal phase conjugation
    worst_gauge = 0.0
    for _ in range(200):
        g = random_unit_gram(rng)
        phi = triad_phase(g)
        d = np.exp(1j * rng.uniform(0, 2 * math.pi, size=3))
        g2 = GramMatrix(np.outer(d, np.conj(d)) * g.entries)
        worst_gauge = max(worst_gauge, circular_distance(triad_phase(g2), phi))
    assert worst_gauge < 1e-12

    # delay invariance for symmetric spectra over random delay triples
    w = np.linspace(-6.0, 12.0, 6001)
    spec = SampledSpectrum(w, np.exp(-((w - 3.0) ** 2)))
    triples = [tuple(rng.uniform(-1.5, 1.5, size=3)) for _ in range(20)]
    report = delay_invariance_test(spec, triples)
    assert report.max_phase_deviation < 1e-6

    # qubit consistency
    t0 = GaussianTemporalMode(0.0, 1.0)
    worst_qubit = 0.0
    for _ in range(200):
        alpha, beta = rng.uniform(0.15, math.pi / 2 - 0.15, size=2)
        gamma = rng.uniform(0.0, 2 * math.pi)
        states = [
            InternalState(t0, PolarizationState(1.0, 0.0)),
            InternalState(t0, PolarizationState(math.cos(alpha), math.sin(alpha))),
            InternalState(
                t0, PolarizationState(math.cos(beta), math.sin(beta) * np.exp(1j * gamma))
            ),
        ]
        g = gram_matrix(states)
        phi = triad_phase(g)
        candidates = qubit_triad_phase(
            abs(g.entries[0, 1]), abs(g.entries[1, 2]), abs(g.entries[2, 0])
        )
        assert candidates, "explicit qubit triple must be feasible"
        worst_qubit = max(
            worst_qubit, min(circular_distance(phi, c) for c in candidates)
        )
    assert worst_qubit < 1e-9

    print(
        f"\n[criterion 7] PASS: gauge invariance {worst_gauge:.3e}, delay invariance "
        f"{report.max_phase_deviation:.3e}, qubit consistency {worst_qubit:.3e}"
    )


def test_criterion_8_noisy_model_visibility():
    source = SourceParams(
        squeezing=0.16, purity=0.9, p_noise_idler=0.035, p_noise_signal=0.009
    )
    deficit = truncation_deficit(enumerate_terms(source))
    assert deficit < 1e-3

    taus = [0.0, 24.0]
    preps = delay_scan_preparations("all_H", taus, 1.0)
    res = simulate_counts(
        preps, source, cascade_beamsplitters_1_3(0.5), x_values=taus, x_name="tau"
    )
    n210 = res.series["N210"]
    visibility = 1.0 - n210[0] / n210[1]
    assert 0.47 <= visibility <= 0.67
    print(
        f"\n[criterion 8] PASS: N210 suppression visibility {visibility:.3f} "
        f"(band 0.47..0.67), truncation deficit {deficit:.2e}"
    )


def test_criterion_9_mixed_state_reduction():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(200):
        u = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        densities = [density_from_vector(v) for v in u]
        g = gram_from_densities(densities)
        assert g is not None
        expected = event_probability(TRITTER, EventSpec((0, 1, 2), (1, 1, 1)), g)
        worst = max(worst, abs(p111_mixed(TRITTER, *densities) - expected))
    assert worst < 1e-10
    print(
        f"\n[criterion 9] PASS: mixed-state reduction over 200 instances, "
        f"max deviation {worst:.3e}"
    )
