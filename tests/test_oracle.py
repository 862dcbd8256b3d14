import math
from itertools import product

import numpy as np
import pytest

from oracle_inputs import expand_inputs, vectors_from_gram
from product_states import fold_rows, points_of, random_product_states
from triphoton.errors import SizeLimit
from triphoton.experiment import (
    _idler_distribution,
    _point_stack,
    prepare,
    theta_for_phase,
    triad_scan_preparations,
)
from triphoton.interference import (
    Network,
    balanced_beamsplitter,
    balanced_tritter,
    output_occupations,
)
from triphoton.modes import (
    GaussianTemporalMode,
    InternalState,
    PolarizationState,
    gram_matrix,
)
from triphoton.oracle import (
    STEP_BYTES_LIMIT,
    FockState,
    equivalence_report,
    evolve_amplitudes,
    evolve_and_measure,
    expand_from_vectors,
    random_unitary,
)
from triphoton.source import _mixing_weight

T0 = GaussianTemporalMode(0.0, 1.0)
TRITTER = balanced_tritter()


def doubled_network(net_h, net_v, pols):
    """Plain 2m-mode network over (mode, H) then (mode, V) for photons entering at (j, H).

    A 2x2 unitary on ((j, H), (j, V)) sets the polarisation (a, b) of input j,
    then blockdiag(U_H, U_V) acts.
    """
    m = net_h.m
    prep = np.zeros((2 * m, 2 * m), dtype=complex)
    for j, (a, b) in enumerate(pols):
        prep[np.ix_([j, m + j], [j, m + j])] = [[a, -np.conj(b)], [b, np.conj(a)]]
    blocks = np.zeros((2 * m, 2 * m), dtype=complex)
    blocks[:m, :m] = net_h.matrix
    blocks[m:, m:] = net_v.matrix
    return Network(blocks @ prep)


def identical_states(n):
    return [InternalState(T0) for _ in range(n)]


class TestExpansion:
    def test_single_photon(self):
        fock = expand_inputs(identical_states(1), [0], n_modes=3)
        assert fock.internal_dim == 1
        assert len(fock.amplitudes) == 1
        ((occ, amp),) = fock.amplitudes.items()
        assert sum(occ) == 1
        assert amp == pytest.approx(1.0)

    def test_bosonic_normalisation_same_mode(self):
        fock = expand_inputs(identical_states(2), [1, 1], n_modes=3)
        ((occ, amp),) = fock.amplitudes.items()
        assert max(occ) == 2
        assert amp == pytest.approx(1.0)

    def test_rank_truncation(self):
        states = [
            InternalState(T0, PolarizationState(1.0, 0.0)),
            InternalState(T0, PolarizationState(0.5, 0.5 * math.sqrt(3))),
            InternalState(T0, PolarizationState(0.5, -0.5 * math.sqrt(3))),
        ]
        fock = expand_inputs(states, [0, 1, 2], n_modes=3)
        assert fock.internal_dim <= 2  # polarisation qubit, equal delays


def first_quantised_amplitudes(photons):
    """Occupation amplitudes of prod_p (sum_s photons[p, s] a_dag[s]) |0>, without the oracle.

    Sums prod_p photons[p, s_p] over every slot tuple (s_1, ..., s_n), groups
    the tuples by multiset and weights each multiset by sqrt(prod_s n_s!).
    """
    rows = np.asarray(photons, dtype=complex).tolist()
    width = len(rows[0])
    amps = {}
    for slots in product(range(width), repeat=len(rows)):
        occ = tuple(slots.count(s) for s in range(width))
        amps[occ] = amps.get(occ, 0.0) + math.prod(row[s] for row, s in zip(rows, slots))
    amps = {occ: a * math.sqrt(math.prod(map(math.factorial, occ))) for occ, a in amps.items()}
    norm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps.values()))
    return {occ: a / norm for occ, a in amps.items()}


def assert_matches_first_quantised(fock):
    reference = first_quantised_amplitudes(fock.photons)
    for occ in set(reference) | set(fock.amplitudes):
        assert abs(fock.amplitudes.get(occ, 0.0) - reference.get(occ, 0.0)) < 1e-12


def random_rows(rng, n, width):
    return rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))


class TestFirstQuantisedReference:
    """The table expansion against a sum over every slot tuple, for 1-6 photons."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_shared_input_mode(self, n):
        # Six slots at most: 3 modes x 2 internal dimensions.
        rng = np.random.default_rng(60 + n)
        inputs = [0, 0, 1, 0, 2, 0][:n]
        fock = expand_from_vectors(random_rows(rng, n, 2), inputs, 3)
        assert_matches_first_quantised(fock)
        assert_matches_first_quantised(evolve_amplitudes(fock, random_unitary(rng, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rows_with_zeros(self, n):
        rng = np.random.default_rng(70 + n)
        rows = random_rows(rng, n, 5)
        rows[rng.random(rows.shape) < 0.4] = 0.0
        rows[:, n % 5] = 1.0  # no row is all zero
        assert_matches_first_quantised(FockState(5, 1, rows))

    def test_hom_pair_cancels(self):
        fock = expand_from_vectors(np.ones((2, 1)), [0, 1], 2)
        evolved = evolve_amplitudes(fock, balanced_beamsplitter())
        assert_matches_first_quantised(evolved)
        assert abs(evolved.amplitudes.get((1, 1), 0.0)) ** 2 < 1e-30


class TestInternalBasis:
    """Only the photons' inner products reach a measured distribution."""

    @pytest.mark.parametrize("n, inputs", [(1, [2]), (3, [0, 0, 2]), (5, [1, 0, 1, 3, 1])])
    def test_padded_or_rotated_basis(self, n, inputs):
        rng = np.random.default_rng(80 + n)
        net = random_unitary(rng, 4)
        vectors = random_rows(rng, n, 2)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        base = evolve_and_measure(expand_from_vectors(vectors, inputs, 4), net)
        padded = np.hstack([vectors, np.zeros((n, n + 2))])
        rotation = random_unitary(rng, n + 4).matrix
        for other in (padded, padded @ rotation, vectors @ random_unitary(rng, 2).matrix):
            fock = expand_from_vectors(other, inputs, 4)
            # More dimensions than photons: the expansion keeps n, their span.
            assert fock.internal_dim == min(n, other.shape[1])
            dist = evolve_and_measure(fock, net)
            assert set(dist) == set(base)
            for occ, p in base.items():
                assert abs(dist[occ] - p) < 1e-13


class TestSizeLimits:
    def test_term_codes_overflow_int64(self):
        # 100 ** 10 slot tuples do not fit in int64 codes; refused at construction.
        with pytest.raises(SizeLimit):
            FockState(100, 1, np.ones((10, 100)))

    def test_step_over_byte_budget(self):
        # The second photon would make 8000 x 8000 rows, whose complex
        # amplitudes alone pass the budget; the first makes 8000.
        fock = FockState(8000, 1, np.ones((2, 8000)))
        assert 8000 * 8000 * 16 > STEP_BYTES_LIMIT
        with pytest.raises(SizeLimit):
            fock.amplitudes

    def test_sparse_state_tables_span_occupied_slots(self):
        # Photons on 5 of 2000 slots: the tables span those 5 (all 2000 would
        # pass the step budget), and every amplitude and key, in order, is that
        # of the same photons on 5 slots, placed back.
        rng = np.random.default_rng(61)
        occupied = np.array([3, 17, 400, 1024, 1999])
        compact = random_rows(rng, 3, 5)
        compact[0, 1] = 0.0
        wide = np.zeros((3, 2000), dtype=complex)
        wide[:, occupied] = compact
        expected = FockState(5, 1, compact).amplitudes
        placed = []
        for occ in expected:
            full = [0] * 2000
            for slot, count in zip(occupied, occ):
                full[slot] = count
            placed.append(tuple(full))
        amplitudes = FockState(2000, 1, wide).amplitudes
        assert list(amplitudes) == placed
        assert list(amplitudes.values()) == list(expected.values())


class TestEvolveAndMeasure:
    def test_identical_photons_tritter(self):
        dist = evolve_and_measure(expand_inputs(identical_states(3), [0, 1, 2]), TRITTER)
        assert dist[(1, 1, 1)] == pytest.approx(1 / 3, abs=1e-12)
        for occ in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
            assert dist[occ] == pytest.approx(2 / 9, abs=1e-12)
        for occ in ((2, 1, 0), (1, 2, 0), (0, 2, 1)):
            assert dist.get(occ, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_photons_tritter(self):
        dist = evolve_and_measure(expand_from_vectors(np.eye(3), [0, 1, 2], 3), TRITTER)
        assert dist[(1, 1, 1)] == pytest.approx(2 / 9, abs=1e-12)

    def test_hom_dip(self):
        bs = balanced_beamsplitter()
        for r in (0.0, 0.5, 1.0):
            pol = PolarizationState(r, math.sqrt(1 - r * r))
            states = [InternalState(T0, PolarizationState(1.0, 0.0)), InternalState(T0, pol)]
            dist = evolve_and_measure(expand_inputs(states, [0, 1]), bs)
            assert dist.get((1, 1), 0.0) == pytest.approx((1 - r * r) / 2, abs=1e-12)

    def test_double_pair_bunching(self):
        # Two identical photons in one tritter input: P(2,0,0) = 1/9 and
        # P(1,1,0) = 2/9 by direct expansion of (b0+b1+b2)^2 / 3.
        dist = evolve_and_measure(expand_inputs(identical_states(2), [0, 0], n_modes=3), TRITTER)
        for occ in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
            assert dist[occ] == pytest.approx(1 / 9, abs=1e-12)
        for occ in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
            assert dist[occ] == pytest.approx(2 / 9, abs=1e-12)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            m = max(3, n)
            net = random_unitary(rng, m)
            states = random_product_states(rng, n)
            modes = [int(i) for i in rng.integers(0, m, size=n)]
            dist = evolve_and_measure(expand_inputs(states, modes, n_modes=m), net)
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-10)

    def test_permutation_covariance(self):
        rng = np.random.default_rng(9)
        net = random_unitary(rng, 3)
        states = random_product_states(rng, 3)
        base = evolve_and_measure(expand_inputs(states, [0, 1, 2]), net)
        perm = [2, 0, 1]
        # relabelling photons together with their inputs leaves physics alone
        permuted = evolve_and_measure(expand_inputs([states[i] for i in perm], perm), net)
        for occ, p in base.items():
            assert permuted.get(occ, 0.0) == pytest.approx(p, abs=1e-12)

    def test_polarisation_blocks_match_plain_path(self):
        # With U_H == U_V the doubled network must reproduce the plain one.
        # Each photon's internal vector is (other factor) x (polarisation).
        rng = np.random.default_rng(15)
        net = random_unitary(rng, 3)
        z = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        other, pols = z / np.linalg.norm(z, axis=2, keepdims=True)
        vectors = np.array([np.kron(w, pol) for w, pol in zip(other, pols)])
        plain = evolve_and_measure(expand_from_vectors(vectors, [0, 1, 2], 3), net)
        fock = expand_from_vectors(other, [0, 1, 2], 6)
        blocked = evolve_and_measure(fock, doubled_network(net, net, pols))
        folded = fold_rows([blocked.get(occ, 0.0) for occ in output_occupations(3, 6)], 3)
        assert set(plain) <= set(output_occupations(3, 3))
        for occ, p in zip(output_occupations(3, 3), folded):
            assert p == pytest.approx(plain.get(occ, 0.0), abs=1e-12)


class TestSubstitution:
    """The network acting on each photon's creation operator, checked without the engine.

    Four photons on four modes: photons 0 and 1 share input mode 0, and
    photons 0 and 3 are identical, so the Gram matrix has rank 3.
    """

    @pytest.fixture
    def fock(self):
        rng = np.random.default_rng(41)
        s0, s1, s2 = random_product_states(rng, 3)
        fock = expand_inputs([s0, s1, s2, s0], [0, 0, 2, 3], n_modes=4)
        assert fock.internal_dim == 3
        return fock

    @staticmethod
    def assert_same_amplitudes(a, b):
        for occ in set(a.amplitudes) | set(b.amplitudes):
            assert abs(a.amplitudes.get(occ, 0.0) - b.amplitudes.get(occ, 0.0)) < 1e-12

    def test_composition(self, fock):
        rng = np.random.default_rng(43)
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        stepwise = evolve_amplitudes(evolve_amplitudes(fock, u), v)
        composed = evolve_amplitudes(fock, Network(v.matrix @ u.matrix))
        self.assert_same_amplitudes(stepwise, composed)

    def test_identity_network(self, fock):
        self.assert_same_amplitudes(evolve_amplitudes(fock, Network(np.eye(4))), fock)

    def test_evolved_norm(self, fock):
        # The norm of a product of creation operators is fixed by the Gram
        # matrix of their rows, so the network must leave that matrix alone.
        evolved = evolve_amplitudes(fock, random_unitary(np.random.default_rng(47), 4))
        gram = fock.photons @ fock.photons.conj().T
        assert np.max(np.abs(evolved.photons @ evolved.photons.conj().T - gram)) < 1e-12


class TestEquivalence:
    def test_small_sweep(self):
        report = equivalence_report(instances=30, seed=123)
        assert report["max_deviation"] < 1e-9


class TestVectorsReproduceGram:
    def test_pairing(self):
        rng = np.random.default_rng(21)
        states = random_product_states(rng, 4)
        g = gram_matrix(states).entries
        v = vectors_from_gram(g)
        assert np.max(np.abs(v @ v.conj().T - g)) < 1e-10


def oracle_pair_distribution(states, purity, pairs, net_h, net_v=None):
    """Idler distribution of the noisy model's source term ``pairs``, built in the oracle.

    Each source's idlers share one internal vector, the photon's x mixedness
    slot: the common slot 0 with weight p, or the source's own slot 1 + i
    with weight 1 - p.  With no ``net_v`` the photon's vector holds its
    polarisation and the network is ``net_h``.  Otherwise polarisation
    enters through the doubled network, and the distribution stays over its
    (mode, H) then (mode, V) outputs.
    """
    p = 0.5 * (1.0 + math.sqrt(2.0 * purity - 1.0))
    if net_v is None:
        net, rows = net_h, vectors_from_gram(gram_matrix(states).entries)
    else:
        pols = [(s.polarization.amplitude_h, s.polarization.amplitude_v) for s in states]
        net = doubled_network(net_h, net_v, pols)
        rows = vectors_from_gram(gram_matrix([InternalState(s.temporal) for s in states]).entries)
    sources = [i for i in range(3) if pairs[i]]
    modes = [i for i in sources for _ in range(pairs[i])]
    total = {}
    for combo in product(*([(p, 0), (1.0 - p, 1 + i)] for i in sources)):
        weight = math.prod(w for w, _ in combo)
        if weight == 0.0:
            continue
        slot = {i: k for i, (_, k) in zip(sources, combo)}
        vectors = np.array([np.kron(rows[i], np.eye(4)[slot[i]]) for i in modes])
        fock = expand_from_vectors(vectors, modes, net.m)
        for occ, q in evolve_and_measure(fock, net).items():
            total[occ] = total.get(occ, 0.0) + weight * q
    return total


class TestPairDistribution:
    """Every 2-4 idler source term of the noisy model against the oracle, row by row.

    Under H != V both sides give a distribution over the doubled network's
    (output, H) then (output, V) rows, and neither is folded.
    """

    @pytest.mark.parametrize("purity", [0.9, 1.0])
    @pytest.mark.parametrize("split", [False, True, 1e-6, 1e-9])
    def test_matches_oracle(self, purity, split):
        # split: False runs V = H, True a random V, and a number eps the H
        # network with its input phases turned by eps * (0, 1, -1).
        rng = np.random.default_rng(31)
        net_h = balanced_tritter()
        if split is True:
            net_v = random_unitary(rng, 3)
        elif split:
            net_v = Network(net_h.matrix * np.exp(1j * split * np.array([0, 1, -1])))
        else:
            net_v = net_h
        prep = triad_scan_preparations([theta_for_phase(2.0)], 1.0)[0]
        states = prepare(prep)
        columns, grams = _point_stack(points_of([prep]), net_h, net_v)
        rows = 3 if split is False else 6
        assert columns.shape[-2:] == (rows, 3)
        # An equal but distinct V network takes the plain path.
        twin_v = Network(net_h.matrix.copy())
        twin_columns, twin_grams = _point_stack(points_of([prep]), net_h, twin_v)
        for pairs in product(range(5), repeat=3):
            if not 2 <= sum(pairs) <= 4:
                continue
            (dist,) = _idler_distribution(columns, grams, _mixing_weight(purity), pairs)
            if split is False:
                twin = _idler_distribution(twin_columns, twin_grams, _mixing_weight(purity), pairs)
                assert np.array_equal(twin[0], dist)
            reference = oracle_pair_distribution(
                states, purity, pairs, net_h, None if split is False else net_v
            )
            occupations = output_occupations(sum(pairs), rows)
            assert set(reference) <= set(occupations)
            assert math.fsum(dist) == pytest.approx(1.0, abs=1e-12)
            for occ, q in zip(occupations, dist):
                assert q == pytest.approx(reference.get(occ, 0.0), abs=1e-12)
