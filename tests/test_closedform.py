import numpy as np
import pytest

from cacheopt.closedform import avg_rate_ccs_closed, avg_rate_closed, g_coefficients
from cacheopt.delivery import expected_rate
from cacheopt.model import Instance, binom

from conftest import (enumerate_distinct_sets, random_popularity, random_q_instance,
                      redundancy_probabilities)


class TestRedundancyProbabilities:
    def test_two_user_joint_law(self):
        # both users on file n: the single non-leader request is file n
        inst = Instance(2, 2, 1.0, [0.6, 0.4])
        p_iun = redundancy_probabilities(inst)
        assert p_iun[1, 1, 1] == pytest.approx(0.36)
        assert p_iun[1, 1, 2] == pytest.approx(0.16)

    def test_no_mass_without_redundancy(self):
        inst = Instance(3, 3, 1.0, [0.5, 0.3, 0.2])
        p_iun = redundancy_probabilities(inst)
        assert np.all(p_iun[:, 3, :] == 0.0)  # u = K leaves no non-leader

    def test_marginals(self, rng):
        inst = Instance(4, 4, 1.0, random_popularity(4, rng))
        p_iun = redundancy_probabilities(inst)
        # P(u distinct requests) from the joint law, for every rank that exists
        from cacheopt.bounds import distinct_set_probability
        pu = np.zeros(5)
        for D in enumerate_distinct_sets(inst):
            pu[len(D)] += distinct_set_probability(inst, D)
        for u in range(1, 5):
            for i in range(1, 4 - u + 1):
                assert p_iun[i, u, :].sum() == pytest.approx(pu[u], abs=1e-12)
                assert p_iun[i, u, :].sum() <= 1.0 + 1e-12

    def test_rank_ordering_example(self):
        # demand class {1,1,2,2}: non-leaders request files 1 and 2, ranked 1 then 2
        inst = Instance(2, 4, 1.0, [0.7, 0.3])
        p_iun = redundancy_probabilities(inst)
        class_prob = 6 * 0.7**2 * 0.3**2  # C(4,2) arrangements
        assert p_iun[1, 2, 1] >= class_prob - 1e-12
        assert p_iun[2, 2, 2] >= class_prob - 1e-12


class TestCoefficients:
    def test_single_file_database(self):
        # the only demand is everyone on file 1: coefficients collapse to C(K-1, l)
        for k in (2, 3, 4):
            inst = Instance(1, k, 0.5, [1.0])
            g = g_coefficients(inst).g
            expected = [binom(k - 1, l) for l in range(k + 1)]
            expected[k] = 0.0  # fully-cached level never transmits
            assert np.allclose(g[0, :k], expected[:k], atol=1e-12)

    def test_baseline_top_level_term(self, rng):
        # the level K-1 baseline coefficient of the most popular file
        p = random_popularity(5, rng)
        inst = Instance(5, 3, 1.0, p)
        g_ccs = g_coefficients(inst).g_ccs
        assert g_ccs[0, 2] == pytest.approx(1.0 - (1.0 - p[0]) ** 3, abs=1e-12)

    def test_independent_of_cache_size(self):
        p = [0.5, 0.3, 0.2]
        g1 = g_coefficients(Instance(3, 3, 0.5, p))
        g2 = g_coefficients(Instance(3, 3, 2.5, p))
        assert np.array_equal(g1.g, g2.g)  # a function of (N, K, popularity) only
        assert np.array_equal(g1.g_ccs, g2.g_ccs)

    def test_correction_never_exceeds_baseline(self, rng):
        inst = Instance(5, 4, 1.0, random_popularity(5, rng))
        coeffs = g_coefficients(inst)
        assert np.all(coeffs.g <= coeffs.g_ccs + 1e-12)


class TestClosedFormRates:
    def test_worked_example(self):
        inst = Instance(2, 2, 0.6, [0.6, 0.4])
        a = np.array([[0.2, 0.4, 0.0], [0.6, 0.2, 0.0]])
        assert avg_rate_closed(inst, a) == pytest.approx(0.92, abs=1e-12)

    def test_uncached_and_fully_cached(self, rng):
        p = random_popularity(3, rng)
        inst = Instance(3, 3, 3.0, p)
        uncached = np.tile([1.0, 0, 0, 0.0], (3, 1))
        assert avg_rate_closed(inst, uncached) == pytest.approx(
            expected_rate("mccs", inst, uncached), abs=1e-12)
        cached = np.tile([0.0, 0, 0, 1.0], (3, 1))
        assert avg_rate_closed(inst, cached) == pytest.approx(0.0, abs=1e-12)

    def test_equivalence_with_enumeration(self, rng):
        # the acceptance suite runs this at scale; keep a broad sample here
        for _ in range(120):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            inst, a = random_q_instance(n, k, rng)
            assert avg_rate_closed(inst, a) == pytest.approx(
                expected_rate("mccs", inst, a), abs=1e-9)
            assert avg_rate_ccs_closed(inst, a) == pytest.approx(
                expected_rate("ccs", inst, a), abs=1e-9)

    def test_baseline_dominates(self, rng):
        for _ in range(20):
            inst, a = random_q_instance(4, 3, rng)
            assert avg_rate_ccs_closed(inst, a) >= avg_rate_closed(inst, a) - 1e-12

    def test_single_file_ccs_form(self, rng):
        inst = Instance(1, 3, 0.4, [1.0])
        _, a = random_q_instance(1, 3, rng)
        expected = sum(binom(3, l + 1) * a[0, l] for l in range(3))
        assert avg_rate_ccs_closed(inst, a) == pytest.approx(expected, abs=1e-12)

    def test_rejects_unordered_placement(self):
        inst = Instance(2, 2, 1.0, [0.6, 0.4])
        bad = np.array([[0.6, 0.1, 0.05], [0.2, 0.3, 0.1]])
        with pytest.raises(ValueError, match="popularity-first"):
            avg_rate_closed(inst, bad)
        with pytest.raises(ValueError, match="popularity-first"):
            avg_rate_ccs_closed(inst, bad)

    @pytest.mark.parametrize("rate", [avg_rate_closed, avg_rate_ccs_closed,
                                      lambda inst, a: expected_rate("mccs", inst, a)])
    def test_placement_shape(self, rate):
        # one row of a 3 x 3 placement would broadcast over every file
        inst = Instance.from_zipf(3, 2, 1.0, 0.8)
        with pytest.raises(ValueError, match="placement must be 3 x 3, got 1 x 3"):
            rate(inst, [[0.2, 0.3, 0.2]])
        with pytest.raises(ValueError, match="placement must be 3 x 3, got 3 x 2"):
            rate(inst, np.tile([0.2, 0.3], (3, 1)))

    def test_uniform_popularity_symmetric_rows(self, rng):
        # with equal popularity and identical rows, both schemes agree with
        # direct enumeration and the correction only removes duplicate groups
        inst = Instance(3, 3, 1.0, np.full(3, 1 / 3))
        row = np.array([0.4, 0.1, 0.06, 0.12])
        row[0] = 1.0 - sum(binom(3, l) * row[l] for l in range(1, 4))
        a = np.tile(row, (3, 1))
        assert avg_rate_closed(inst, a) == pytest.approx(
            expected_rate("mccs", inst, a), abs=1e-12)
