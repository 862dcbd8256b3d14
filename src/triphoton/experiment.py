"""End-to-end reproduction of the measured quantities.

Provides the three polarisation/delay preparation recipes, ideal-model delay
and collective-phase scans, threshold-detector cascades with pseudo-number
resolution, and the full noisy simulation that folds in higher-order pair
emission, noise photons, impurity and detection efficiency.

``GRID_RECIPES`` pairs scan grids with recipes; the configuration schema
reads it, and :func:`scan_points`, the one path from a grid to the arrays
of its points, enforces it.  No run builds a :class:`Preparation` or an
``InternalState``: they are the per-point reference of those arrays.  A point
has no carrier frequency: a common carrier only re-phases the Gram matrix.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DomainError, NumericalInconsistency
from .interference import (
    Network,
    _columns_distribution,
    _occupations,
    balanced_tritter,
    occupation_index,
)
from .modes import GaussianTemporalMode, InternalState, PolarizationState, gram_stack
from .source import (
    SourceParams,
    _mixing_weight,
    heralded_ensemble,
    truncation_deficit,
)

# The recipes each grid kind scans; any other pairing is an error.
GRID_RECIPES = {"delay": ("all_H", "static_pi"), "triad": ("dynamic",)}
RECIPES = tuple(recipe for recipes in GRID_RECIPES.values() for recipe in recipes)

# Column order for ideal-scan outputs: coincidence, two-photon marginals,
# then the bunched three-photon events.
IDEAL_EVENT_ORDER = (
    "P111",
    "P011",
    "P101",
    "P110",
    "P300",
    "P030",
    "P003",
    "P210",
    "P201",
    "P120",
    "P021",
    "P102",
    "P012",
)

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Preparation:
    """A three-photon input setting: recipe, delays and mode parameters; no run builds one."""

    recipe: str
    delays: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sigma: float = 1.0
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.recipe not in RECIPES:
            raise DomainError(f"unknown recipe {self.recipe!r}")
        if len(self.delays) != 3:
            raise DomainError(f"a preparation needs three delays, got {len(self.delays)}")
        if self.recipe == "dynamic" and self.theta is None:
            raise DomainError("the dynamic recipe needs a rotation angle theta")
        if self.recipe != "dynamic" and self.theta is not None:
            raise DomainError(f"the {self.recipe} recipe reads no rotation angle theta")


def _polarizations(recipe: str, theta) -> np.ndarray:
    """(H, V) amplitudes of ``recipe``'s photons: ``(3, 2)`` per angle ``theta``, float or array."""
    if recipe == "all_H":
        return np.array([(1.0, 0.0)] * 3, dtype=complex)
    if recipe == "static_pi":
        return np.array([(1.0, 0.0), (0.5, 0.5 * SQRT3), (0.5, -0.5 * SQRT3)], dtype=complex)
    two_theta = 2.0 * np.asarray(theta, dtype=float)
    pol = np.empty(two_theta.shape + (3, 2), dtype=complex)
    pol[..., 0, 0] = np.cos(two_theta)
    pol[..., 0, 1] = 1j * np.sin(two_theta)
    pol[..., 1:, :] = [(0.5 * SQRT3, 0.5), (0.5 * SQRT3, -0.5)]
    return pol


def prepare(prep: Preparation) -> list[InternalState]:
    """The three input internal states for a preparation.

    all_H: every photon horizontal (collective phase 0).
    static_pi: photon 1 horizontal, photons 2 and 3 at (|H> +- sqrt(3)|V>)/2
    (collective phase pi).
    dynamic: photon 1 at cos(2 theta)|H> + i sin(2 theta)|V>, photons 2 and 3
    at (sqrt(3)|H> +- |V>)/2; the collective phase follows
    2*Arg(sqrt(3) cos 2theta + i sin 2theta).  No run calls it.
    """
    return [
        InternalState(GaussianTemporalMode(t, prep.sigma), PolarizationState(h, v))
        for t, (h, v) in zip(prep.delays, _polarizations(prep.recipe, prep.theta))
    ]


def delay_condition(theta, sigma):
    """Delay magnitude keeping all three overlap moduli at 1/2 in the dynamic recipe.

    |t1 - t2| = |t1 - t3| = sigma * sqrt(2 * ln(2 + cos(4 theta))) with t2 = t3 (floats or arrays).
    """
    return sigma * np.sqrt(2.0 * np.log(2.0 + np.cos(4.0 * theta)))


def phase_for_theta(theta):
    """Collective phase realised by the dynamic recipe at rotation angle theta (float or array)."""
    two_theta = 2.0 * theta
    return (2.0 * np.arctan2(np.sin(two_theta), SQRT3 * np.cos(two_theta))) % (2.0 * math.pi)


def theta_for_phase(phi):
    """Rotation angle of the dynamic recipe realising collective phase phi (float or array)."""
    half = 0.5 * phi
    return 0.5 * np.arctan2(SQRT3 * np.sin(half), np.cos(half))


def delay_scan_preparations(recipe: str, tau_values, sigma: float) -> list[Preparation]:
    """Symmetric delay scan: t1 = -tau/2, t2 = 0, t3 = +tau/2.  No run builds it."""
    return [
        Preparation(recipe, delays=(-0.5 * float(tau), 0.0, 0.5 * float(tau)), sigma=sigma)
        for tau in tau_values
    ]


def triad_scan_preparations(theta_values, sigma: float) -> list[Preparation]:
    """Dynamic-recipe scan with the delay condition at every angle.  No run builds it."""
    return [
        Preparation("dynamic", delays=(delay_condition(t, sigma), 0.0, 0.0), sigma=sigma, theta=t)
        for t in map(float, theta_values)
    ]


# A grid's x axis name and values, and its points as ``gram_stack`` takes them: ``(P, 3)``
# delays, the run's one width ``sigma`` (their unit) and ``(P, 3, 2)`` (H, V) amplitudes.
ScanPoints = namedtuple("ScanPoints", "x_name x_values delays sigma polarizations")


def scan_points(kind: str, recipe: str, values, sigma: float) -> ScanPoints:
    """The points of a ``delay`` or ``triad`` grid, read once from ``values``.

    A grid scans only its ``GRID_RECIPES``.  Delay grids hold symmetric delays
    ``tau``; triad grids hold collective phases ``phi``, each realised at the
    rotation angle :func:`theta_for_phase` gives; every photon has the width
    ``sigma``.  Angle, delay and amplitudes take one call each per grid, and
    give a float the bits of an array element, so each point equals its
    ``*_scan_preparations`` reference.
    """
    if recipe not in GRID_RECIPES.get(kind, ()):
        scanned = " or ".join(GRID_RECIPES.get(kind, ())) or "no recipe"
        raise DomainError(f"a {kind} grid scans {scanned}, not {recipe!r}")
    xs = np.fromiter(values, dtype=float)
    if kind == "delay":
        delays = np.stack([-0.5 * xs, np.zeros_like(xs), 0.5 * xs], axis=1)
        pol = np.broadcast_to(_polarizations(recipe, None), (len(xs), 3, 2))
        return ScanPoints("tau", xs, delays, float(sigma), pol)
    thetas = theta_for_phase(xs)
    delays = np.zeros((len(xs), 3))
    delays[:, 0] = delay_condition(thetas, sigma)
    return ScanPoints("phi", xs, delays, float(sigma), _polarizations(recipe, thetas))


@dataclass
class ScanResult:
    """A scan: x-axis values, one series per event in output column order, and run metadata."""

    x_name: str
    x_values: np.ndarray
    series: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(len(values) != len(self.x_values) for values in self.series.values()):
            raise DomainError(f"every series needs one value per x value ({len(self.x_values)})")


def _ideal_scan(points: ScanPoints) -> ScanResult:
    """Balanced-tritter events of pure photons, one per input, at every point.

    The point model of :func:`simulate_counts` with common-mode weight 1, on
    the same Gram stack (:func:`_point_stack`): the three-photon events are
    its (1, 1, 1) configuration, and each two-photon marginal is the
    configuration of its input pair, detected at those outputs.  That is one
    engine call for the three-photon events and one per pair, whatever the
    number of points.
    """
    net = balanced_tritter()
    column = {name: row for row, name in enumerate(IDEAL_EVENT_ORDER)}
    triples = [column["P" + "".join(map(str, occ))] for occ in _occupations(3, 3)]
    pair_index = occupation_index(2, 3)
    columns, grams = _point_stack(points, net, net)
    values = np.empty((len(IDEAL_EVENT_ORDER), len(grams)))
    values[triples] = _idler_distribution(columns, grams, 1.0, (1, 1, 1)).T
    for pairs in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        row = column["P" + "".join(map(str, pairs))]
        values[row] = _idler_distribution(columns, grams, 1.0, pairs)[:, pair_index[pairs]]
    return ScanResult(points.x_name, points.x_values, dict(zip(IDEAL_EVENT_ORDER, values)))


def scan_delays(recipe: str, tau_values, sigma: float) -> ScanResult:
    """Ideal-model event probabilities along a symmetric delay scan."""
    return _ideal_scan(scan_points("delay", recipe, tau_values, sigma))


def scan_triad(phi_values, sigma: float) -> ScanResult:
    """Ideal-model event probabilities while scanning the collective phase.

    The x axis carries the requested phases unchanged; the dynamic recipe
    realises each at the angle :func:`theta_for_phase` gives.  The delay
    condition keeps all three overlap moduli at 1/2, so the coincidence
    follows (5/4 + cos(phi)/2)/9 while the two-photon marginals stay at 7/36.
    """
    return _ideal_scan(scan_points("triad", "dynamic", phi_values, sigma))


SPLITTER_LEAVES = {"none": 1, "beamsplitter_2way": 2, "tritter_3way": 3}


@dataclass(frozen=True)
class DetectionCascade:
    """Per-output splitting into threshold detectors for pseudo-number resolution."""

    splitters: tuple[str, str, str] = ("none", "none", "none")
    detector_efficiency: float = 0.5

    def __post_init__(self) -> None:
        if len(self.splitters) != 3 or any(s not in SPLITTER_LEAVES for s in self.splitters):
            raise DomainError(f"splitters must be three of {sorted(SPLITTER_LEAVES)}")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise DomainError("detector efficiency must lie in (0, 1]")

    @property
    def leaves(self) -> tuple[int, int, int]:
        return tuple(SPLITTER_LEAVES[s] for s in self.splitters)

    def patterns(self) -> list[tuple[int, int, int]]:
        return [tuple(c) for c in product(*(range(l + 1) for l in self.leaves))]

    def click_distribution(self, occupation: tuple[int, ...]) -> dict[tuple[int, ...], float]:
        """Joint click-count probabilities given the output-mode occupation."""
        occ = tuple(occupation)
        if len(occ) != 3 or not all(isinstance(s, (int, np.integer)) and s >= 0 for s in occ):
            raise DomainError(f"an occupation is three nonnegative integers, got {occupation!r}")
        a, beta = _click_tables(self)
        probs = a @ np.prod(beta ** np.array(occ), axis=1)
        return {pattern: p for pattern, p in zip(self.patterns(), probs) if p > 0.0}


def _click_tables(cascade: DetectionCascade) -> tuple[np.ndarray, np.ndarray]:
    """Inclusion-exclusion tables ``a``, ``beta`` of the cascade's click statistics.

    c of an output's L uniform threshold leaves click for N photons with
    probability sum_t (-1)^(c-t) C(L, c) C(c, t) (t eta / L + 1 - eta)^N
    (Sperling, Vogel & Agarwal, PRA 85, 023820 (2012)).  So with N_o photons
    at output o, ``P(pattern) = sum_t a[pattern, t] prod_o beta[t, o]**N_o``;
    rows of both tables follow :meth:`DetectionCascade.patterns`.
    """
    eta = cascade.detector_efficiency
    a = np.ones((1, 1))
    for leaves in cascade.leaves:
        a_o = [
            [(-1.0) ** (c - t) * math.comb(leaves, c) * math.comb(c, t) for t in range(leaves + 1)]
            for c in range(leaves + 1)
        ]
        a = np.kron(a, a_o)
    beta = np.array(cascade.patterns()) * eta / np.array(cascade.leaves) + 1.0 - eta
    return a, beta


def _click_maps(
    heralded: dict[tuple[int, int, int], list[float]],
    cascade: DetectionCascade,
    net_h: Network,
    net_v: Network,
    rows: int,
) -> dict[tuple[int, int, int], np.ndarray]:
    """Weighted click-pattern map of every pair configuration, summed over its idler noise.

    Applied to the pair idlers' distribution over ``_occupations(n, rows)``,
    ``maps[pairs]`` gives that configuration's share of the click patterns.
    The rows are the 3 outputs, or (output, H) then (output, V): detectors
    do not see polarisation, so a V row takes its output's ``beta``.  An
    unpolarised noise photon from input i reaches output o with probability
    ``q[o, i] = (|U_H[o, i]|^2 + |U_V[o, i]|^2) / 2`` independently of the rest,
    so it multiplies ``prod_o beta[t, o]**N_o`` by ``g[t, i] = sum_o beta[t, o] q[o, i]``.
    Every idler-noise vector with L photons carries the weight ``c[L]`` of
    :func:`triphoton.source.heralded_ensemble`, and the sum of prod_i g[t, i]**l_i
    over those vectors is the complete homogeneous symmetric polynomial h_L
    of the three g[t, i], so a configuration's noise factor is sum_L c[L] h_L.
    Nothing here depends on the scan point.
    """
    a, beta = _click_tables(cascade)
    g = beta @ (0.5 * (np.abs(net_h.matrix) ** 2 + np.abs(net_v.matrix) ** 2))
    orders = max(len(c) for c in heralded.values())
    h = np.zeros((orders, len(g)))
    h[0] = 1.0
    for g_i in g.T:
        for l_total in range(1, orders):
            h[l_total] += g_i * h[l_total - 1]
    beta_rows = np.tile(beta, rows // 3)
    products = {
        n: np.prod(beta_rows[:, None] ** np.array(_occupations(n, rows)), axis=2)
        for n in set(map(sum, heralded))
    }
    return {
        pairs: a @ ((np.asarray(c) @ h[: len(c)])[:, None] * products[sum(pairs)])
        for pairs, c in heralded.items()
    }


def _idler_distribution(
    columns: np.ndarray, grams: np.ndarray, p_common: float, pairs: tuple[int, int, int]
) -> np.ndarray:
    """Distribution of the pair idlers over the columns' rows at every point of a Gram stack.

    Row p of the ``(P, occupations)`` result, over ``_occupations(sum(pairs), rows)``,
    is that of the sources' validated Gram matrix ``grams[p]``.  An idler of
    source j leaves by ``columns[..., j]``: a network column, or a point's
    column of a ``(P, 6, 3)`` stack, sent to the engine one point per call.
    ``p_common`` is the common-mode weight of :func:`triphoton.source._mixing_weight`.
    Mixedness enters as convex branches, one engine call each: every source
    puts all its idlers in the common slot (weight p) or its own slot
    (weight 1 - p), and idlers in different slots are orthogonal.
    """
    if not any(pairs):
        return np.ones((len(grams), 1))
    if columns.ndim == 3:
        dist = np.empty((len(grams), len(_occupations(sum(pairs), columns.shape[1]))))
        for i, (c, g) in enumerate(zip(columns, grams)):
            dist[i] = _idler_distribution(c, g[None], p_common, pairs)
        return dist
    participating = [i for i in range(3) if pairs[i] > 0]
    modes = tuple(i for i in participating for _ in range(pairs[i]))
    idlers, overlaps = columns.take(modes, 1), grams.take(modes, -2).take(modes, -1)
    p = p_common
    branches = [[(1.0, 0)] if p >= 1.0 else [(p, 0), (1.0 - p, 1 + i)] for i in participating]
    total = 0.0
    for combo in product(*branches):
        weight = math.prod(w for w, _ in combo)
        slots = np.array([s for (_, s), i in zip(combo, participating) for _ in range(pairs[i])])
        # Each validated Gram restricted to the idlers' modes is P G P^T for a
        # 0/1 selection P, and a 0/1 block mask keeps it PSD by the Schur
        # product theorem: the branch Grams are not re-checked.
        masked = overlaps * (slots[:, None] == slots[None, :]) if slots.any() else overlaps
        total = total + weight * _columns_distribution(idlers, masked, modes)
    return total


def _point_stack(
    points: ScanPoints, net_h: Network, net_v: Network
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(columns, grams)`` of :func:`_idler_distribution` at every point, in order.

    One :func:`~triphoton.modes.gram_stack` call gives every Gram matrix.  Unless
    any entry of ``net_h.matrix`` and ``net_v.matrix`` differs, the columns are
    the network's; otherwise a ``(P, 6, 3)`` stack of each point's H rows over
    its V rows, weighted by its polarisation amplitudes, with temporal Grams.
    """
    delays, sigma, pol = points.delays, points.sigma, points.polarizations
    if np.array_equal(net_h.matrix, net_v.matrix):
        return net_h.matrix, gram_stack(delays, sigma, pol)
    temporal = gram_stack(delays, sigma, np.broadcast_to([1.0, 0.0], pol.shape))
    columns = np.stack([net_h.matrix, net_v.matrix]) * pol.swapaxes(1, 2)[:, :, None]
    return columns.reshape(len(pol), 6, 3), temporal


def simulate_counts(
    points: ScanPoints,
    source: SourceParams,
    cascade: DetectionCascade = DetectionCascade(),
    network: Network | None = None,
    network_v: Network | None = None,
) -> ScanResult:
    """Heralded click-pattern probabilities of the full experiment model at every point.

    The model is a chain of linear maps on occupation distributions.  The
    source's heralded weights come in closed form from
    :func:`triphoton.source.heralded_ensemble`, one coefficient list per pair
    configuration with no joint emission term or idler-noise vector listed;
    the herald norm counts the C(L+2, 2) idler-noise vectors with L photons
    at weight c[L] each.  Once per run, :func:`_click_maps` builds one
    closed-form click-pattern matrix per pair configuration, its idler noise
    summed in.  :func:`_idler_distribution` gives each configuration's pair
    idlers at every point (:func:`_point_stack`), with source impurity as
    convex branches over mixedness slots, over the outputs or, under H != V,
    the (output, polarisation) rows the maps read.  Each (configuration,
    branch) is one engine call per run under H = V, one per point under
    H != V; the click patterns are one matrix product per configuration.
    The mixed-state trace formulas are the tests' reference for the engine.
    Series are probabilities per triple-heralded trial, along the points' x axis.

    Every point's click patterns must sum to 1 within 1e-12 and stay above
    -1e-12, else :class:`NumericalInconsistency` is raised; they are then
    clipped into [0, 1].  The metadata reports the worst |sum - 1| and the
    most negative value before the clip.
    """
    net_h = network if network is not None else balanced_tritter()
    net_v = network_v if network_v is not None else net_h
    if net_h.m != 3 or net_v.m != 3:
        raise DomainError("the experiment needs three-mode networks")

    heralded = heralded_ensemble(source)
    # C(L+2, 2) idler-noise vectors of the three sources carry L photons.
    herald_norm = math.fsum(
        c_l * math.comb(l_total + 2, 2) for c in heralded.values() for l_total, c_l in enumerate(c)
    )
    if herald_norm <= 0.0:
        raise DomainError(
            "no source term ever heralds: each of the three sources needs a pair or a "
            f"signal noise photon within the photon budgets of {source}"
        )

    names = ["N" + "".join(str(c) for c in pattern) for pattern in cascade.patterns()]
    columns, grams = _point_stack(points, net_h, net_v)
    maps = _click_maps(heralded, cascade, net_h, net_v, columns.shape[-2])
    p_common = _mixing_weight(source.purity)
    counts = np.zeros((len(names), len(grams)))
    for pairs, m in maps.items():
        counts += m @ _idler_distribution(columns, grams, p_common, pairs).T
    counts /= herald_norm
    worst_total = float(np.abs(counts.sum(axis=0) - 1.0).max(initial=0.0))
    lowest = float(counts.min(initial=0.0))
    if not (lowest >= -1e-12 and worst_total <= 1e-12):
        raise NumericalInconsistency(f"click sums off 1 by {worst_total:.3e}, min {lowest:.3e}")
    series = dict(zip(names, np.clip(counts, 0.0, 1.0)))
    metadata = {"truncation_deficit": truncation_deficit(source), "herald_probability": herald_norm}
    metadata.update(click_sum_max_deviation=worst_total, click_most_negative=lowest)
    return ScanResult(points.x_name, points.x_values, series, metadata)
