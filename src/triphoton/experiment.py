"""End-to-end reproduction of the measured quantities.

Provides the three polarisation/delay preparation recipes, ideal-model delay
and collective-phase scans, threshold-detector cascades with pseudo-number
resolution, and the full noisy simulation that folds in higher-order pair
emission, noise photons, impurity and detection efficiency.

``GRID_RECIPES``, the one owner of the pairing of scan grids and recipes, is
read by the configuration schema and the scan builders.  A preparation has no
carrier frequency: a common carrier only re-phases the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DomainError
from .interference import (
    Network,
    balanced_tritter,
    columns_distribution,
    event_distribution,
    occupation_index,
    output_occupations,
    two_photon_marginals_tritter,
)
from .mixedstate import _mixing_weight, temporal_rows
from .modes import (
    GaussianTemporalMode,
    InternalState,
    PolarizationState,
    gram_matrix,
)
from .source import (
    HeraldedTerm,
    SourceParams,
    enumerate_terms,
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
    """A three-photon input setting: recipe, delays and mode parameters."""

    recipe: str
    delays: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sigma: float = 1.0
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.recipe not in RECIPES:
            raise DomainError(f"unknown recipe {self.recipe!r}")
        if self.recipe == "dynamic" and self.theta is None:
            raise DomainError("the dynamic recipe needs a rotation angle theta")


def prepare(prep: Preparation) -> list[InternalState]:
    """The three input internal states for a preparation.

    all_H: every photon horizontal (collective phase 0).
    static_pi: photon 1 horizontal, photons 2 and 3 at (|H> +- sqrt(3)|V>)/2
    (collective phase pi).
    dynamic: photon 1 at cos(2 theta)|H> + i sin(2 theta)|V>, photons 2 and 3
    at (sqrt(3)|H> +- |V>)/2; the collective phase follows
    2*Arg(sqrt(3) cos 2theta + i sin 2theta).
    """
    if prep.recipe == "all_H":
        pols = [PolarizationState.horizontal()] * 3
    elif prep.recipe == "static_pi":
        pols = [
            PolarizationState.horizontal(),
            PolarizationState(0.5, 0.5 * SQRT3),
            PolarizationState(0.5, -0.5 * SQRT3),
        ]
    else:
        two_theta = 2.0 * float(prep.theta)
        pols = [
            PolarizationState(math.cos(two_theta), 1j * math.sin(two_theta)),
            PolarizationState(0.5 * SQRT3, 0.5),
            PolarizationState(0.5 * SQRT3, -0.5),
        ]
    return [
        InternalState(temporal=GaussianTemporalMode(t, prep.sigma), polarization=pol)
        for t, pol in zip(prep.delays, pols)
    ]


def delay_condition(theta: float, sigma: float) -> float:
    """Delay magnitude keeping all three overlap moduli at 1/2 in the dynamic recipe.

    |t1 - t2| = |t1 - t3| = sigma * sqrt(2 * ln(2 + cos(4 theta))) with t2 = t3.
    """
    return sigma * math.sqrt(2.0 * math.log(2.0 + math.cos(4.0 * theta)))


def phase_for_theta(theta: float) -> float:
    """Collective phase realised by the dynamic recipe at rotation angle theta."""
    two_theta = 2.0 * theta
    return (2.0 * math.atan2(math.sin(two_theta), SQRT3 * math.cos(two_theta))) % (2.0 * math.pi)


def theta_for_phase(phi: float) -> float:
    """Rotation angle of the dynamic recipe realising collective phase phi."""
    half = 0.5 * phi
    return 0.5 * math.atan2(SQRT3 * math.sin(half), math.cos(half))


def delay_scan_preparations(recipe: str, tau_values, sigma: float) -> list[Preparation]:
    """Symmetric delay scan: t1 = -tau/2, t2 = 0, t3 = +tau/2."""
    if recipe not in GRID_RECIPES["delay"]:
        scanned = " and ".join(GRID_RECIPES["delay"])
        raise DomainError(f"delay scans are defined for the {scanned} recipes, not {recipe!r}")
    return [
        Preparation(recipe, delays=(-0.5 * float(tau), 0.0, 0.5 * float(tau)), sigma=sigma)
        for tau in tau_values
    ]


def triad_scan_preparations(theta_values, sigma: float) -> list[Preparation]:
    """Dynamic-recipe scan with the delay condition applied at every angle."""
    return [
        Preparation(
            "dynamic",
            delays=(delay_condition(float(theta), sigma), 0.0, 0.0),
            sigma=sigma,
            theta=float(theta),
        )
        for theta in theta_values
    ]


def default_delay_grid(sigma: float) -> np.ndarray:
    """61 symmetric delays over [-12 sigma, 12 sigma]."""
    return np.linspace(-12.0 * sigma, 12.0 * sigma, 61)


def default_phase_grid() -> np.ndarray:
    """33 collective phases over [0, 2 pi]."""
    return np.linspace(0.0, 2.0 * math.pi, 33)


@dataclass
class ScanResult:
    """A scan: x-axis values, one series per event, and run metadata."""

    x_name: str
    x_values: np.ndarray
    series: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)


def _ideal_point(states: list[InternalState]) -> dict[str, float]:
    g = gram_matrix(states)
    net = balanced_tritter()
    values = {}
    dist = event_distribution(net, (0, 1, 2), g)
    for occ, p in dist.items():
        values["P" + "".join(str(s) for s in occ)] = p
    values.update(two_photon_marginals_tritter(g))
    return values


def _ideal_scan(preps: list[Preparation], x_name: str, x_values) -> ScanResult:
    xs = np.asarray(list(x_values), dtype=float)
    series = {name: np.empty(len(preps)) for name in IDEAL_EVENT_ORDER}
    for i, prep in enumerate(preps):
        values = _ideal_point(prepare(prep))
        for name in IDEAL_EVENT_ORDER:
            series[name][i] = values[name]
    return ScanResult(x_name=x_name, x_values=xs, series=series)


def scan_delays(recipe: str, tau_values, sigma: float) -> ScanResult:
    """Ideal-model event probabilities along a symmetric delay scan."""
    return _ideal_scan(delay_scan_preparations(recipe, tau_values, sigma), "tau", tau_values)


def scan_triad(phi_values, sigma: float) -> ScanResult:
    """Ideal-model event probabilities while scanning the collective phase.

    The x axis carries the requested phases unchanged; the dynamic recipe
    realises each at the angle :func:`theta_for_phase` gives.  The delay
    condition keeps all three overlap moduli at 1/2, so the coincidence
    follows (5/4 + cos(phi)/2)/9 while the two-photon marginals stay at 7/36.
    """
    thetas = [theta_for_phase(float(phi)) for phi in phi_values]
    return _ideal_scan(triad_scan_preparations(thetas, sigma), "phi", phi_values)


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
        per_mode = [
            _mode_click_probs(n, leaves, self.detector_efficiency)
            for n, leaves in zip(occupation, self.leaves)
        ]
        out = {}
        for pattern in product(*(range(len(p)) for p in per_mode)):
            prob = 1.0
            for c, probs in zip(pattern, per_mode):
                prob *= probs[c]
            if prob > 0.0:
                out[pattern] = prob
        return out


def cascade_none(efficiency: float = 0.5) -> DetectionCascade:
    return DetectionCascade(("none", "none", "none"), efficiency)


def cascade_beamsplitters_1_3(efficiency: float = 0.5) -> DetectionCascade:
    """Two-way splitters on the first and third outputs."""
    return DetectionCascade(("beamsplitter_2way", "none", "beamsplitter_2way"), efficiency)


def cascade_tritter_1(efficiency: float = 0.5) -> DetectionCascade:
    """Three-way splitter on the first output."""
    return DetectionCascade(("tritter_3way", "none", "none"), efficiency)


@lru_cache(maxsize=4096)
def _mode_click_probs(n: int, leaves: int, eta: float) -> tuple[float, ...]:
    """P(c detectors click | n photons into ``leaves`` uniform threshold detectors)."""
    probs = []
    for c in range(leaves + 1):
        total = 0.0
        for j in range(c + 1):
            base = (c - j) * eta / leaves + (1.0 - eta)
            total += (-1.0) ** j * math.comb(c, j) * base**n
        probs.append(math.comb(leaves, c) * total)
    return tuple(probs)


def _cascade_matrix(cascade: DetectionCascade, n: int) -> np.ndarray:
    """Click-pattern probabilities (patterns x occupations of n photons)."""
    rows = {pattern: r for r, pattern in enumerate(cascade.patterns())}
    occupations = occupation_index(n, 3)
    out = np.zeros((len(rows), len(occupations)))
    for occ, col in occupations.items():
        for pattern, q in cascade.click_distribution(occ).items():
            out[rows[pattern], col] = q
    return out


def _noise_map(
    noise_idlers: tuple[int, int, int], n: int, net_h: Network, net_v: Network
) -> np.ndarray:
    """Occupations of n photons -> occupations of n + sum(noise_idlers).

    Noise photons scatter independently of everything else and are
    unpolarised: one entering input j leaves output k with probability
    (|U_H[k, j]|^2 + |U_V[k, j]|^2) / 2.
    """
    source = occupation_index(n, 3)
    out = np.eye(len(source))
    for mode, count in enumerate(noise_idlers):
        q = 0.5 * (np.abs(net_h.matrix[:, mode]) ** 2 + np.abs(net_v.matrix[:, mode]) ** 2)
        for _ in range(count):
            n += 1
            target = occupation_index(n, 3)
            shift = np.zeros((len(target), len(source)))
            for occ, col in source.items():
                for k in range(3):
                    lifted = list(occ)
                    lifted[k] += 1
                    shift[target[tuple(lifted)], col] += q[k]
            out = shift @ out
            source = target
    return out


def _click_maps(
    heralded: list[HeraldedTerm], cascade: DetectionCascade, net_h: Network, net_v: Network
) -> dict[tuple[int, int, int], np.ndarray]:
    """Weighted click-pattern map of every pair configuration, summed over its noise terms.

    ``maps[pairs] = sum_terms weight * C[n + k] @ noise_map``: applied to the
    pair idlers' occupation distribution it gives that configuration's share
    of the click-pattern probabilities.  Nothing here depends on the scan point.
    """
    cascades: dict[int, np.ndarray] = {}
    maps: dict[tuple[int, int, int], np.ndarray] = {}
    for term in heralded:
        n = sum(term.pair_idlers)
        total = n + sum(term.noise_idlers)
        if total not in cascades:
            cascades[total] = _cascade_matrix(cascade, total)
        noise = _noise_map(term.noise_idlers, n, net_h, net_v)
        weighted = term.weight * (cascades[total] @ noise)
        maps[term.pair_idlers] = maps.get(term.pair_idlers, 0.0) + weighted
    return maps


@lru_cache(maxsize=None)
def _fold_matrix(n: int) -> np.ndarray:
    """0/1 map from occupations of n photons over (output, H) then (output, V) to outputs."""
    target = occupation_index(n, 3)
    occupations = output_occupations(n, 6)
    fold = np.zeros((len(target), len(occupations)))
    for col, occ in enumerate(occupations):
        fold[target[tuple(h + v for h, v in zip(occ[:3], occ[3:]))], col] = 1.0
    fold.flags.writeable = False
    return fold


class _PointModel:
    """Per-scan-point machinery shared by all source terms."""

    def __init__(
        self,
        states: list[InternalState],
        purity: float,
        purity_model: str,
        net_h: Network,
        net_v: Network,
        pol_dependent: bool,
    ):
        self.states = states
        self.net_h = net_h
        self.net_v = net_v
        self.pol_dependent = pol_dependent
        self.p_common = _mixing_weight(purity, purity_model)
        rows = temporal_rows(states)
        # Overlaps of the sources' pure internal states.  A polarisation-dependent
        # network carries polarisation in the mode instead (see _column).
        self.overlaps = rows @ rows.conj().T
        if not pol_dependent:
            pols = np.array(
                [[s.polarization.amplitude_h, s.polarization.amplitude_v] for s in states]
            )
            self.overlaps = self.overlaps * (pols @ pols.conj().T)

    def _column(self, source: int) -> np.ndarray:
        """Output amplitudes of one idler of ``source``.

        A polarisation-dependent network doubles the outputs to (output, H)
        then (output, V): polarisation moves from the internal state to the mode.
        """
        u_h, u_v = self.net_h.matrix[:, source], self.net_v.matrix[:, source]
        if not self.pol_dependent:
            return u_h
        pol = self.states[source].polarization
        return np.concatenate([pol.amplitude_h * u_h, pol.amplitude_v * u_v])

    def pair_distribution(self, pairs: tuple[int, int, int]) -> np.ndarray:
        """Output distribution of the pair idlers over output_occupations(sum(pairs), 3).

        Computed by the permutation-sum engine.  Mixedness enters as convex
        branches: in each, every source puts all its idlers in one slot, the
        common slot (weight p) or its own slot (weight 1 - p), and idlers in
        different slots are orthogonal.  Idlers sharing an input mode
        therefore share one internal state.
        """
        if not any(pairs):
            return np.ones(1)
        participating = [i for i in range(3) if pairs[i] > 0]
        modes = tuple(i for i in participating for _ in range(pairs[i]))
        columns = np.stack([self._column(i) for i in modes], axis=1)
        overlaps = self.overlaps[np.ix_(modes, modes)]
        p = self.p_common
        branches = [[(1.0, 0)] if p >= 1.0 else [(p, 0), (1.0 - p, 1 + i)] for i in participating]
        total = 0.0
        for combo in product(*branches):
            weight = math.prod(w for w, _ in combo)
            slots = np.repeat([slot for _, slot in combo], [pairs[i] for i in participating])
            gram = overlaps * (slots[:, None] == slots[None, :])
            total = total + weight * columns_distribution(columns, gram, modes)
        return _fold_matrix(len(modes)) @ total if self.pol_dependent else total


def two_photon_marginals_model(
    prep: Preparation,
    network: Network | None = None,
    network_v: Network | None = None,
    *,
    purity: float = 1.0,
    purity_model: str = "trace",
) -> dict[str, float]:
    """Two-photon coincidence marginals, supporting a polarisation-dependent network.

    For identical H/V networks this reproduces the tritter closed form
    (2 - r_ij^2)/9; with distinct blocks the marginals generally pick up a
    dependence on the preparation's collective phase.
    """
    net_h = network if network is not None else balanced_tritter()
    net_v = network_v if network_v is not None else net_h
    pol_dependent = not np.allclose(net_h.matrix, net_v.matrix, atol=1e-14)
    model = _PointModel(prepare(prep), purity, purity_model, net_h, net_v, pol_dependent)
    out = {}
    for name, pairs in (("P011", (0, 1, 1)), ("P101", (1, 0, 1)), ("P110", (1, 1, 0))):
        out[name] = float(model.pair_distribution(pairs)[occupation_index(2, 3)[pairs]])
    return out


def simulate_counts(
    preparations: Preparation | list[Preparation],
    source: SourceParams,
    cascade: DetectionCascade | None = None,
    network: Network | None = None,
    network_v: Network | None = None,
    *,
    x_values=None,
    x_name: str = "index",
    purity_model: str = "trace",
) -> ScanResult:
    """Heralded click-pattern probabilities of the full experiment model.

    The model is a chain of linear maps on occupation distributions over the
    three outputs.  The noise and detection part does not depend on the scan
    point and is built once per run: a cascade matrix (click patterns x
    occupations) for every photon total, a shift matrix per unpolarised
    noise photon, and from them one weighted click-pattern matrix per
    distinct pair-idler configuration, summed over its heralded terms.  At
    every point the permutation-sum engine gives each configuration's pair
    idlers as a dense distribution, with source impurity as convex branches
    over mixedness slots and a polarisation-dependent network by mode
    doubling; the click patterns are the sum of matrix-vector products.  The
    mixed-state trace formulas are the reference the tests check the engine
    against.  Series are probabilities per triple-heralded trial.
    """
    if isinstance(preparations, Preparation):
        preparations = [preparations]
    if cascade is None:
        cascade = cascade_none()
    net_h = network if network is not None else balanced_tritter()
    net_v = network_v if network_v is not None else net_h
    pol_dependent = not np.allclose(net_h.matrix, net_v.matrix, atol=1e-14)

    terms = enumerate_terms(source)
    deficit = truncation_deficit(terms)
    heralded = heralded_ensemble(terms, source.herald_efficiency)
    herald_norm = math.fsum(t.weight for t in heralded)
    if herald_norm <= 0.0:
        raise DomainError("no source term ever heralds; increase squeezing or noise")

    patterns = cascade.patterns()
    n_points = len(preparations)
    series = {
        "N" + "".join(str(c) for c in pattern): np.zeros(n_points) for pattern in patterns
    }

    maps = _click_maps(heralded, cascade, net_h, net_v)
    for i, prep in enumerate(preparations):
        model = _PointModel(
            prepare(prep), source.purity, purity_model, net_h, net_v, pol_dependent
        )
        counts = sum(m @ model.pair_distribution(pairs) for pairs, m in maps.items())
        for name, value in zip(series, counts / herald_norm):
            series[name][i] = value

    xs = (
        np.asarray(list(x_values), dtype=float)
        if x_values is not None
        else np.arange(n_points, dtype=float)
    )
    metadata = {
        "truncation_deficit": deficit,
        "truncation_warning": deficit > 1e-2,
        "herald_probability": herald_norm,
        "polarization_dependent": pol_dependent,
    }
    return ScanResult(x_name=x_name, x_values=xs, series=series, metadata=metadata)
