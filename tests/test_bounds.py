import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacheopt import bounds as B
from cacheopt import lp
from cacheopt.bounds import (
    conditional_expected_bound_distinct,
    distinct_set_probability,
    lower_bound_p1,
    lower_bound_p2,
    lower_bound_p5,
    rlb_general,
    rlb_popfirst,
)
from cacheopt.delivery import _by_rank, _set_probabilities, expected_rate, file_sets
from cacheopt.lp import SizeGuardError, solve
from cacheopt.model import Instance, binom, validate_placement, zipf_popularity
from cacheopt.optimizer import optimize_mccs, solve_p3_lp, solve_p4_lp

from conftest import (
    assert_refused_early,
    enumerate_distinct_sets,
    enumerated_p2_objective,
    full_epigraph_problem,
    highs,
    random_popularity,
    random_q_instance,
)

K2_MATRIX = np.array([[0.2, 0.4, 0.0], [0.6, 0.2, 0.0]])


def rbar(inst, a):
    """Average of the per-set bound, evaluated directly."""
    return math.fsum(
        distinct_set_probability(inst, D) * rlb_general(D, a)
        for D in enumerate_distinct_sets(inst))


class TestPerSetBound:
    def test_worked_example(self):
        assert rlb_general((1, 2), K2_MATRIX) == pytest.approx(1.2, abs=1e-12)
        assert rlb_popfirst((1, 2), K2_MATRIX) == pytest.approx(1.2, abs=1e-12)

    def test_singleton(self, rng):
        inst, a = random_q_instance(4, 3, rng)
        expected = sum(binom(2, l) * a[1, l] for l in range(3))
        assert rlb_general((2,), a) == pytest.approx(expected, abs=1e-12)
        assert rlb_popfirst((2,), a) == pytest.approx(expected, abs=1e-12)

    def test_identical_rows_order_free(self):
        a = np.tile([0.3, 0.2, 0.1, 0.0], (4, 1))
        vals = [rlb_general(D, a) for D in itertools.combinations(range(1, 5), 2)]
        assert len({round(v, 12) for v in vals}) == 1

    def test_coefficient_expansion(self, rng):
        # K = 3, two files: positions contribute C(2,l) and C(1,l)
        inst, a = random_q_instance(4, 3, rng)
        expected = (a[0, 0] + 2 * a[0, 1] + a[0, 2]) + (a[1, 0] + a[1, 1])
        assert rlb_popfirst((1, 2), a) == pytest.approx(expected, abs=1e-12)

    def test_popfirst_matches_general_on_ordered_placements(self, rng):
        for _ in range(30):
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            inst, a = random_q_instance(n, k, rng)
            size = int(rng.integers(1, min(n, k) + 1))
            D = tuple(sorted(rng.permutation(n)[:size] + 1))
            assert rlb_popfirst(D, a) == pytest.approx(rlb_general(D, a), abs=1e-12)

    def test_set_larger_than_users(self):
        # a distinct set has at most K files; a third file on a K = 2 placement
        # was charged nothing (C(K - i, l) = 0 past position K), so (1, 2, 3)
        # returned (1, 2)'s 0.7
        a = np.tile([0.2, 0.3, 0.2], (3, 1))
        for bound in (rlb_general, rlb_popfirst):
            assert bound((1, 2), a) == pytest.approx(0.7, abs=1e-15)
            with pytest.raises(ValueError, match="distinct set has 3 files, the placement has 2 users"):
                bound((1, 2, 3), a)
        # checked before the size guard: too many files for K is invalid, not too big
        wide = np.zeros((12, 3))
        wide[:, 0] = 1.0
        with pytest.raises(ValueError, match="distinct set has 11 files, the placement has 2 users"):
            rlb_general(tuple(range(1, 12)), wide)

    def test_popfirst_rejects_unordered(self):
        bad = np.array([[0.6, 0.1, 0.05], [0.2, 0.3, 0.1]])
        with pytest.raises(ValueError):
            rlb_popfirst((1, 2), bad)

    def test_ten_files_by_rearrangement(self, rng):
        # one nonzero level l: the best ordering puts the i-th largest a[., l]
        # at position i, whose weight C(K - i, l) is nonincreasing in i
        k, level = 10, 3
        a = np.zeros((12, k + 1))
        a[:, level] = rng.random(12)
        D = tuple(range(2, 12))
        tracemalloc.start()
        try:
            value = rlb_general(D, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ranked = np.sort(a[1:11, level])[::-1]
        assert value == pytest.approx(
            sum(binom(k - i, level) * ranked[i - 1] for i in range(1, 11)), rel=1e-12)
        assert peak < 2_000_000

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(size=st.integers(1, 7), extra_users=st.integers(0, 2),
           extra_files=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_dp_equals_enumeration(self, size, extra_users, extra_files, seed):
        # entries on a 0.1 grid, so that orderings tie
        rng = np.random.default_rng(seed)
        k, n = size + extra_users, size + extra_files
        a = np.round(rng.random((n, k + 1)), 1)
        files = np.sort(rng.permutation(n)[:size])
        w = np.array([[binom(k - i, l) for l in range(k)] for i in range(1, size + 1)], dtype=float)
        scores = a[files, :k] @ w.T

        def rate(ordering):  # summed position by position
            total = 0.0
            for i, j in enumerate(ordering):
                total += scores[j, i]
            return total

        best = max(rate(o) for o in itertools.permutations(range(size)))
        assert rlb_general(tuple(files + 1), a) == best
        _, sets, orders = B._best_orderings(scores[..., None], np.array([-np.inf]))
        assert list(sets) == [0] and rate(orders[0]) == best

    def test_permutation_guard(self):
        a = np.zeros((12, 13))  # K = 12 users, so 11 files is a valid set
        a[:, 0] = 1.0
        with pytest.raises(SizeGuardError):
            rlb_general(tuple(range(1, 12)), a)


class TestTiePermutation:
    """P1, P4 and P5 are symmetric in files of equal popularity and equal size:
    relabelling such files changes neither the objective at a placement nor
    the optimum, and by convexity the optimum averaged over each tie class is
    optimal too (the reduction of ROADMAP item 12 rests on this)."""

    @staticmethod
    def p4_objective(inst, a):
        return expected_rate("mccs", inst, a)  # P4's padded messages, attained

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 6), k=st.integers(2, 4), sized=st.booleans(),
           cache_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_tied_files_permute(self, n, k, sized, cache_frac, seed):
        rng = np.random.default_rng(seed)
        p = np.sort(rng.integers(1, 4, size=n))[::-1] / 1.0  # runs of equal popularity
        sizes = rng.choice([0.5, 1.0, 1.5], size=n) if sized else np.ones(n)
        inst = Instance(n, k, cache_frac * sizes.sum(), p / p.sum(), sizes)
        keys = list(zip(p.tolist(), sizes.tolist()))
        ties = [np.flatnonzero([key == tie for key in keys]) for tie in dict.fromkeys(keys)]
        relabel = np.arange(n)  # sizes swapped among equally popular files
        for tie in (np.flatnonzero(p == q) for q in np.unique(p)):
            relabel[tie] = rng.permutation(tie)
        other = Instance(n, k, inst.cache_size, inst.popularity, sizes[relabel])
        general = lower_bound_p5 if sized else lower_bound_p1
        for solve, objective in ((general, rbar), (solve_p4_lp, self.p4_objective)):
            opt = solve(inst)
            a = opt.placement.matrix
            shuffled, averaged = a.copy(), a.copy()
            for tie in ties:
                shuffled[tie] = a[rng.permutation(tie)]
                averaged[tie] = a[tie].mean(axis=0)
            value = objective(inst, a)
            assert validate_placement(inst, shuffled) == validate_placement(inst, averaged) == []
            assert objective(inst, shuffled) == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert opt.value - 1e-12 <= objective(inst, averaged) <= value + 1e-12
            assert solve(other).value == pytest.approx(opt.value, rel=1e-12, abs=1e-12)


class TestDistinctSetProbability:
    def test_singleton_power(self):
        inst = Instance(3, 4, 1.0, [0.5, 0.3, 0.2])
        assert distinct_set_probability(inst, (2,)) == pytest.approx(0.3 ** 4, abs=1e-15)

    def test_pair_two_users(self):
        inst = Instance(2, 2, 1.0, [0.6, 0.4])
        assert distinct_set_probability(inst, (1, 2)) == pytest.approx(0.48, abs=1e-15)

    def test_partition_of_demand_space(self, rng):
        inst = Instance(4, 3, 1.0, random_popularity(4, rng))
        total = sum(distinct_set_probability(inst, D)
                    for D in enumerate_distinct_sets(inst))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_against_enumeration(self, rng):
        for n, k in [(4, 3), (3, 4), (6, 2), (2, 5), (5, 5)]:
            inst = Instance(n, k, 1.0, random_popularity(n, rng))
            raw = {}
            for d in itertools.product(range(1, n + 1), repeat=k):
                key = tuple(sorted(set(d)))
                raw[key] = raw.get(key, 0.0) + math.prod(inst.popularity[f - 1] for f in d)
            for D in enumerate_distinct_sets(inst):
                assert distinct_set_probability(inst, D) == pytest.approx(
                    raw[D], abs=1e-13)

    def test_relative_accuracy_on_small_sets(self):
        # an alternating inclusion-exclusion sum loses ~1e-9 relative on
        # D = (1, 6, 7, 8, 9, 10) here; a sum of positive terms keeps every digit
        inst = Instance.from_zipf(10, 6, 1.0, 2.0)
        p = [Fraction(float(v)) for v in inst.popularity]
        exact = {}
        for rep in itertools.combinations_with_replacement(range(1, 11), 6):
            counts = [rep.count(f) for f in sorted(set(rep))]
            ways = math.factorial(6) // math.prod(math.factorial(c) for c in counts)
            key = tuple(sorted(set(rep)))
            if len(key) >= 3:
                exact[key] = exact.get(key, 0) + ways * math.prod(p[f - 1] for f in rep)
        table = {tuple(row + 1): prob for files in file_sets(inst)
                 for row, prob in zip(files, _set_probabilities(inst, files))}
        assert len(exact) == sum(math.comb(10, size) for size in range(3, 7))
        sets = sorted(exact)
        want = [float(exact[D]) for D in sets]
        np.testing.assert_allclose([distinct_set_probability(inst, D) for D in sets], want,
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose([table[D] for D in sets], want, rtol=1e-13, atol=0)


class TestGeneralBound:
    def test_no_cache_is_expected_distinct_count(self, rng):
        p = random_popularity(3, rng)
        inst = Instance(3, 3, 0.0, p)
        res = lower_bound_p1(inst)
        expected = sum(len(D) * distinct_set_probability(inst, D)
                       for D in enumerate_distinct_sets(inst))
        assert res.value == pytest.approx(expected, abs=1e-9)
        assert np.allclose(res.placement.matrix[:, 0], 1.0, atol=1e-9)

    def test_full_cache_is_free(self):
        inst = Instance(3, 2, 3.0, [0.5, 0.3, 0.2])
        assert lower_bound_p1(inst).value == pytest.approx(0.0, abs=1e-9)

    def test_placement_reproduces_value(self, rng):
        for _ in range(5):
            inst = Instance(4, 3, float(rng.uniform(0, 4)), random_popularity(4, rng))
            res = lower_bound_p1(inst)
            assert validate_placement(inst, res.placement) == []
            assert rbar(inst, res.placement.matrix) == pytest.approx(res.value, abs=1e-8)

    def test_matches_highs_on_the_full_epigraph(self, rng):
        # HiGHS on every ordering row against the generated rows on the dual route
        for _ in range(5):
            inst = Instance(4, 3, float(rng.uniform(0, 4)), random_popularity(4, rng))
            ref = highs(full_epigraph_problem(inst))
            assert ref.status == 0
            assert lower_bound_p1(inst).value == pytest.approx(ref.fun, abs=1e-9)

    def test_monotone_in_cache(self, rng):
        p = random_popularity(4, rng)
        vals = [lower_bound_p1(Instance(4, 3, m, p)).value
                for m in np.linspace(0, 4, 7)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_size_guard(self):
        # round 1 holds one popularity-order row per distinct set: 6,195 rows
        # and 6,295 columns at (20,4), whose dual tableau takes 602 MiB; 4,943
        # rows and 5,033 columns at (15,5) take 384 MiB.  Each is refused
        # before it is built.
        assert_refused_early(lower_bound_p1, Instance.from_zipf(20, 4, 5.0, 0.56), 602)
        assert_refused_early(lower_bound_p1, Instance(15, 5, 1.0, np.full(15, 1 / 15)), 384)
        sized = Instance(20, 4, 5.0, zipf_popularity(20, 0.56), np.linspace(0.5, 2.0, 20))
        assert_refused_early(lower_bound_p5, sized, 602)

    def test_first_round_sized_before_the_table(self):
        # round 1 is sized from (N, K) before the file-set table and its P(D)
        # are built: at (40,5) the 873,748 keys pass the key guard, but the
        # 760,098 sets' first round needs an 8,820,401 MiB tableau
        assert_refused_early(lower_bound_p1, Instance.from_zipf(40, 5, 8.0, 0.8), 8820401)
        assert_refused_early(lower_bound_p1, Instance.from_zipf(60, 4, 12.0, 0.8), 4188746)
        sized = Instance(40, 5, 8.0, zipf_popularity(40, 0.8), np.linspace(0.5, 2.0, 40))
        assert_refused_early(lower_bound_p5, sized, 8820401)


class TestRowGeneration:
    """P1/P5 generate their ordering rows; the full epigraph LP is the oracle."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 7), k=st.integers(2, 4), cache_frac=st.floats(0.0, 1.0),
           sized=st.booleans(), zeros=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_full_epigraph(self, n, k, cache_frac, sized, zeros, seed):
        # the oracle keeps the sets nobody requests that P1/P5 leave out
        rng = np.random.default_rng(seed)
        p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        p[n - min(zeros, n - 1):] = 0.0  # files nobody requests
        sizes = rng.uniform(0.5, 2.0, n) if sized else np.ones(n)
        inst = Instance(n, k, cache_frac * sizes.sum(), p / p.sum(), sizes)
        res = (lower_bound_p5 if sized else lower_bound_p1)(inst)
        assert res.value == pytest.approx(
            solve(full_epigraph_problem(inst)).value, abs=1e-9)
        assert validate_placement(inst, res.placement) == []
        assert rbar(inst, res.placement.matrix) == pytest.approx(res.value, abs=1e-9)

    def test_reproposed_row_raises(self, monkeypatch):
        # an oracle that keeps proposing an active row must stop the loop, not spin
        def stale(scores, floor):
            sets = np.arange(len(floor))
            return floor, sets, np.tile(np.arange(scores.shape[0]), (len(sets), 1))

        monkeypatch.setattr(B, "_best_orderings", stale)
        with pytest.raises(RuntimeError, match="already active"):
            lower_bound_p1(Instance.from_zipf(4, 2, 1.0, 0.56))

    def test_solves_a_fraction_of_the_orderings(self, monkeypatch):
        inst = Instance.from_zipf(9, 4, 1.5, 0.8)
        n_orderings = sum(math.factorial(len(D)) for D in enumerate_distinct_sets(inst))
        heights = []
        direct = lp.solve

        def counted(problem):
            heights.append(problem.ub_lhs.shape[0] - 1)  # less the cache row
            return direct(problem)

        monkeypatch.setattr(lp, "solve", counted)
        lower_bound_p1(inst)
        assert n_orderings == 3609
        assert max(heights) < 0.25 * n_orderings


def zero_tailed(sized: bool) -> Instance:
    """Zipf 0.8 over 8 files with files 7 and 8 never requested, K = 5, M = N/3;
    sized 0.5..1.5 when ``sized``."""
    p = np.arange(1, 9) ** -0.8
    p[6:] = 0.0
    sizes = np.linspace(0.5, 1.5, 8) if sized else np.ones(8)
    return Instance(8, 5, 8 / 3, p / p.sum(), sizes)


class TestFilesNobodyRequests:
    """A set holding a file of popularity 0 has P(D) = 0, and a P4 key of such
    a set has weight 0: their epigraph variables cost nothing and bound
    nothing, so the programs leave them out."""

    @pytest.mark.parametrize("solver, sized, value", [
        (lower_bound_p5, True, 0.6459010573123369),
        (lower_bound_p1, False, 0.8734455560943051),
    ], ids=["p5", "p1"])
    def test_solves_without_degenerate_columns(self, monkeypatch, solver, sized, value):
        # with every set's t, P5 ran out of 500,000 pivots and P1 took 22,630;
        # the values are HiGHS's on the whole epigraph LP
        monkeypatch.setattr(lp, "MAX_ITERATIONS", 5000)
        assert solver(zero_tailed(sized)).value == pytest.approx(value, abs=1e-12)

    def test_every_epigraph_column_costs(self, monkeypatch):
        solves = []
        direct = lp.solve

        def checked(problem):
            assert np.all(problem.objective[8 * 6:] > 0)  # past the 8 x 6 placement
            solves.append(problem)
            return direct(problem)

        monkeypatch.setattr(lp, "solve", checked)
        for solver, sized in ((lower_bound_p1, False), (lower_bound_p5, True),
                              (solve_p4_lp, False), (solve_p4_lp, True)):
            solver(zero_tailed(sized))
        assert len(solves) >= 4

    def test_whole_set_sizes_empty_out(self):
        # only file 1 is ever requested: no pair of files is a distinct set
        inst = Instance(3, 2, 0.5, [1.0, 0.0, 0.0])
        p1 = lower_bound_p1(inst)
        assert p1.value == pytest.approx(solve(full_epigraph_problem(inst)).value,
                                         abs=1e-12)
        assert p1.value == pytest.approx(0.5, abs=1e-12)
        assert solve_p4_lp(inst).value == pytest.approx(0.5, abs=1e-12)
        sized = Instance(3, 2, 0.5, [1.0, 0.0, 0.0], [2.0, 1.0, 0.5])
        assert lower_bound_p5(sized).value == pytest.approx(solve_p4_lp(sized).value, abs=1e-12)


class TestOrderedBound:
    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 12), k=st.integers(1, 6),
           kind=st.sampled_from(["zipf", "dirichlet", "tied"]), theta=st.floats(0.0, 2.0),
           zeros=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_weights_match_set_walk(self, n, k, kind, theta, zeros, seed):
        # the forward pass against the walk over every requested-file set
        rng = np.random.default_rng(seed)
        if kind == "zipf":
            p = zipf_popularity(n, theta)
        elif kind == "dirichlet":
            p = np.sort(rng.dirichlet(np.full(n, 0.5)))[::-1]
        else:  # a few popularity levels, each shared by a run of files
            p = np.sort(rng.integers(1, 4, size=n))[::-1].astype(float)
        p[n - min(zeros, n - 1):] = 0.0  # files nobody requests
        inst = Instance(n, k, 0.0, p / p.sum())
        want, got = enumerated_p2_objective(inst), _by_rank(inst)
        assert np.array_equal(want == 0.0, got == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_size_guard(self):
        # a plain LP, past the file-set keys: its dual tableau has 5,000 rows
        # (one per placement entry) and 10,998 columns at (1000,4), refused
        # after its weights (about 40 ms, under 1 MiB), before the program
        assert_refused_early(lower_bound_p2, Instance.from_zipf(1000, 4, 100.0, 0.8), 420)

    def test_dominates_general_bound(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            inst = Instance(n, 3, float(rng.uniform(0, n)), random_popularity(n, rng))
            assert lower_bound_p2(inst).value >= lower_bound_p1(inst).value - 1e-9

    def test_placement_is_popularity_first(self, rng):
        inst = Instance(5, 3, 2.0, random_popularity(5, rng))
        res = lower_bound_p2(inst)
        from cacheopt.model import is_popularity_first
        assert is_popularity_first(res.placement.matrix)
        assert validate_placement(inst, res.placement) == []
        direct = math.fsum(
            distinct_set_probability(inst, D) * rlb_popfirst(D, res.placement.matrix)
            for D in enumerate_distinct_sets(inst))
        assert direct == pytest.approx(res.value, abs=1e-8)

    def test_equals_general_bound_for_power_law_popularity(self, rng):
        # the two bounds coincide for the power-law popularity regime
        from cacheopt.model import zipf_popularity
        for theta in (0.0, 0.56, 1.2, 2.0):
            for m in (0.5, 1.0, 2.5):
                inst = Instance(5, 2, m, zipf_popularity(5, theta))
                assert lower_bound_p2(inst).value == pytest.approx(
                    lower_bound_p1(inst).value, abs=1e-8)

    def test_two_user_agreement_profile_zipf_grid(self):
        # N=7, K=4 power-law instance: bounds agree except in the mid-cache
        # window where the ordering restriction binds
        from cacheopt.model import zipf_popularity
        p = zipf_popularity(7, 0.56)
        gapped = []
        for m in np.arange(0.0, 7.01, 0.5):
            inst = Instance(7, 4, float(m), p)
            gap = lower_bound_p2(inst).value - lower_bound_p1(inst).value
            if gap > 1e-6:
                gapped.append(float(m))
        assert gapped == [2.0, 2.5, 3.0]


class TestOrderingRestrictionGap:
    """Pinned counterexample: the ordering restriction is not always free.

    For two users the general bound can sit strictly below the ordered bound;
    an unrestricted placement (most popular file fully replicated at the
    level-K subset, mid files split at level 1) beats every popularity-first
    placement.  The unrestricted delivery LP attains the general bound, so
    both bounds are tight for their own placement classes.
    """

    P = np.array([0.50273708, 0.18145135, 0.16016029, 0.14772403, 0.00792726])

    def instance(self):
        p = self.P / self.P.sum()
        return Instance(5, 2, 2.5, p)

    def test_general_strictly_below_ordered(self):
        inst = self.instance()
        v1 = lower_bound_p1(inst).value
        v2 = lower_bound_p2(inst).value
        assert v2 - v1 > 5e-3

    def test_unrestricted_delivery_attains_general_bound(self):
        inst = self.instance()
        assert solve_p4_lp(inst).value == pytest.approx(
            lower_bound_p1(inst).value, abs=1e-9)

    def test_ordered_delivery_attains_ordered_bound(self):
        inst = self.instance()
        assert solve_p3_lp(inst).value == pytest.approx(
            lower_bound_p2(inst).value, abs=1e-9)

    def test_witness_placement(self):
        # the explicit non-popularity-first witness and its exact bound value
        inst = self.instance()
        a = np.array([[0.0, 0.0, 1.0],
                      [0.0, 0.5, 0.0],
                      [0.0, 0.5, 0.0],
                      [0.0, 0.5, 0.0],
                      [1.0, 0.0, 0.0]])
        assert validate_placement(inst, a) == []
        assert rbar(inst, a) == pytest.approx(lower_bound_p1(inst).value, abs=1e-9)
        assert expected_rate("mccs", inst, a) == pytest.approx(rbar(inst, a), abs=1e-12)


class TestSizedBound:
    def test_unit_sizes_reduce_to_general(self, rng):
        p = random_popularity(4, rng)
        inst = Instance(4, 2, 1.5, p)
        assert lower_bound_p5(inst).value == pytest.approx(
            lower_bound_p1(inst).value, abs=1e-9)

    def test_full_cache_is_free(self):
        sizes = [1.5, 1.25, 1.0, 0.75]
        inst = Instance(4, 2, sum(sizes), [0.4, 0.3, 0.2, 0.1], sizes)
        assert lower_bound_p5(inst).value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("bound", [lower_bound_p1, lower_bound_p2])
    def test_uniform_bounds_reject_sizes(self, bound):
        inst = Instance(4, 2, 4.0, [0.4, 0.3, 0.2, 0.1], [1.0, 2.0, 1.0, 0.5])
        with pytest.raises(ValueError, match="lower_bound_p5"):
            bound(inst)

    def test_two_user_delivery_attains_it(self, rng):
        sizes = np.array([1.5, 1.25, 1.0, 0.75])
        for _ in range(5):
            inst = Instance(4, 2, float(rng.uniform(0, sizes.sum())),
                            random_popularity(4, rng), sizes)
            assert solve_p4_lp(inst).value == pytest.approx(
                lower_bound_p5(inst).value, abs=1e-6)


class TestConditionalBound:
    def test_matches_manual_average(self, rng):
        inst, a = random_q_instance(4, 3, rng)
        fact = math.factorial(3)
        num = den = 0.0
        for D in itertools.combinations(range(1, 5), 3):
            w = fact * math.prod(inst.popularity[f - 1] for f in D)
            num += w * rlb_popfirst(D, a)
            den += w
        assert conditional_expected_bound_distinct(inst, a) == pytest.approx(
            num / den, abs=1e-12)

    def test_bound_not_above_delivery(self, rng):
        # at the optimized placement the conditional values coincide
        p = random_popularity(5, rng)
        inst = Instance(5, 3, 1.7, p)
        rep = optimize_mccs(inst, with_bounds=False, with_ccs=False)
        from cacheopt.delivery import conditional_expected_rate_distinct
        lhs = conditional_expected_rate_distinct(inst, rep.best.matrix)
        rhs = conditional_expected_bound_distinct(inst, rep.best.matrix)
        assert lhs == pytest.approx(rhs, abs=1e-9)
