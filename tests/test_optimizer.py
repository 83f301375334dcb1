import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cacheopt import closedform, lp, optimizer
from cacheopt.bounds import lower_bound_p1, lower_bound_p2, lower_bound_p5
from cacheopt.closedform import avg_rate_ccs_closed, avg_rate_closed, g_coefficients
from cacheopt.delivery import expected_rate
from cacheopt.model import (
    Instance,
    is_popularity_first,
    partition_coefficients,
    solve_placement,
    validate_placement,
    zipf_popularity,
)
from cacheopt.optimizer import (
    one_group_candidate,
    optimize_ccs,
    optimize_mccs,
    solve_p3_lp,
    solve_p4_lp,
    two_group_candidate,
)

from conftest import (
    assert_refused_early,
    best_candidate,
    cache_used,
    enumerate_candidates,
    random_popularity,
    random_q_instance,
)


def distinct_rows(matrix, tol=1e-6):
    snapped = np.round(np.asarray(matrix) / tol) * tol
    return {row.tobytes() for row in np.ascontiguousarray(snapped + 0.0)}


class TestOneGroup:
    def test_fractional_split(self):
        inst = Instance.from_zipf(7, 4, 1.0, 0.56)
        cand = one_group_candidate(inst, 7)
        assert np.allclose(np.round(cand.matrix[0], 4), [0.4286, 0.1429, 0, 0, 0])
        assert np.allclose(cand.matrix, cand.matrix[0])

    def test_higher_cache_split(self):
        inst = Instance.from_zipf(7, 4, 2.0, 0.56)
        cand = one_group_candidate(inst, 7)
        assert np.allclose(np.round(cand.matrix[0], 4), [0, 0.2143, 0.0238, 0, 0])

    def test_integral_split_with_server_group(self):
        inst = Instance.from_zipf(9, 4, 3.0, 1.2)
        cand = one_group_candidate(inst, 4)
        assert np.allclose(cand.matrix[:4, 3], 0.25)
        assert np.allclose(cand.matrix[4:, 0], 1.0)

    def test_invalid_when_prefix_too_small(self):
        inst = Instance.from_zipf(7, 4, 3.0, 0.56)
        assert one_group_candidate(inst, 2) is None  # v = 6 > K

    def test_rejects_bad_prefix_index(self):
        inst = Instance.from_zipf(7, 4, 1.0, 0.56)
        with pytest.raises(ValueError):
            one_group_candidate(inst, 0)


class TestTwoGroupSplitServer:
    def test_published_three_group_block(self):
        # files 1..5 fully at level 3, file 6 split with the server, rest uncached
        inst = Instance.from_zipf(9, 4, 4.0, 1.2)
        cand = two_group_candidate(inst, 5, 3, 3, n_top=6)
        assert cand is not None
        assert np.allclose(np.round(cand.matrix[5], 4), [0.6667, 0, 0, 0.0833, 0])
        assert np.allclose(cand.matrix[:5, 3], 0.25)
        assert np.allclose(cand.matrix[6:, 0], 1.0)

    def test_boundary_full_absorption(self):
        # KM/l_o equal to the group size: the second group fills the level fully
        inst = Instance(4, 2, 2.0, [0.4, 0.3, 0.2, 0.1])
        cand = two_group_candidate(inst, 2, 1, 1)
        assert cand is not None
        assert cand.matrix[3, 0] == pytest.approx(0.0)

    def test_boundary_collapse_to_case1(self):
        # KM/l_o equal to n_o: nothing left for the second group
        inst = Instance(4, 2, 1.0, [0.4, 0.3, 0.2, 0.1])
        cand = two_group_candidate(inst, 2, 1, 1)
        assert cand is not None
        assert cand.matrix[2, 0] == pytest.approx(1.0)
        assert cand.matrix[2, 1] == pytest.approx(0.0)

    def test_out_of_position_rejected(self):
        inst = Instance.from_zipf(9, 4, 4.0, 1.2)
        assert two_group_candidate(inst, 5, 1, 1, n_top=6) is None


class TestTwoGroupTwoLevels:
    def test_constraint_identities(self, rng):
        inst = Instance.from_zipf(7, 4, 2.0, 0.56)
        b = partition_coefficients(4)
        found = 0
        for n_o in range(1, 7):
            for l_o in range(1, 5):
                for l_1 in range(1, 5):
                    if l_1 == l_o:
                        continue
                    cand = two_group_candidate(inst, n_o, l_o, l_1)
                    if cand is None:
                        continue
                    found += 1
                    assert np.allclose(cand.matrix @ b, 1.0, atol=1e-12)
                    assert cache_used(cand.matrix, 4) == pytest.approx(2.0, abs=1e-12)
                    assert is_popularity_first(cand.matrix)
        assert found > 0

    def test_sweep_best_matches_lp(self):
        inst = Instance.from_zipf(7, 4, 2.0, 0.56)
        rates = []
        for n_o in range(1, 7):
            for l_o in range(1, 5):
                for l_1 in range(1, 5):
                    if l_1 == l_o:
                        continue
                    cand = two_group_candidate(inst, n_o, l_o, l_1)
                    if cand is not None:
                        rates.append(avg_rate_closed(inst, cand.matrix))
        # the full search may use other shapes; the 2-level family is never better
        assert min(rates) >= solve_p3_lp(inst).value - 1e-9


class TestThreeGroups:
    def test_published_block(self):
        inst = Instance.from_zipf(9, 4, 4.0, 1.2)
        cand = two_group_candidate(inst, 5, 3, 3, n_top=6)
        assert cand is not None
        assert np.allclose(cand.matrix[6:, 0], 1.0)
        assert np.allclose(cand.matrix[6:, 1:], 0.0)

    def test_requires_room_for_third_group(self):
        # n_top = N leaves no server tail: the same tuple is the two-group case 2i
        inst = Instance.from_zipf(9, 4, 4.0, 1.2)
        cand = two_group_candidate(inst, 5, 3, 3, n_top=9)
        assert cand is not None
        assert (cand.kind, cand.n_o, cand.n_1) == ("two_group_2i", 5, None)

    def test_enumeration_matches_tuple_budget(self):
        inst = Instance.from_zipf(9, 4, 4.0, 1.2)
        n, k = 9, 4
        budget = (n - 1) * (n - 2) * k * k // 2 + n * k * (k - 1) + (n - 1) * k + n
        assert len(enumerate_candidates(inst)) <= budget


class TestOptimize:
    def test_reference_small_cache(self):
        rep = optimize_mccs(Instance.from_zipf(7, 4, 1.0, 0.56), with_bounds=False,
                            with_ccs=False)
        assert np.allclose(np.round(rep.best.matrix, 4),
                           np.tile([0.4286, 0.1429, 0, 0, 0], (7, 1)))

    def test_reference_grouping_progression(self):
        # two groups at M=3, three at M=4, one at M=7
        cases = {
            3.0: ("two_group_server", 4, None),
            4.0: ("three_group", 5, 6),
            7.0: ("one_group", 9, None),
        }
        for m, (kind, n_o, n_1) in cases.items():
            rep = optimize_mccs(Instance.from_zipf(9, 4, m, 1.2), with_bounds=False,
                                with_ccs=False)
            assert (rep.best.kind, rep.best.n_o, rep.best.n_1) == (kind, n_o, n_1)

    def test_no_cache_baseline(self, rng):
        p = random_popularity(4, rng)
        inst = Instance(4, 3, 0.0, p)
        rep = optimize_mccs(inst, with_bounds=False, with_ccs=False)
        assert np.allclose(rep.best.matrix[:, 0], 1.0)
        uncached = np.tile([1.0, 0, 0, 0.0], (4, 1))
        assert rep.rate_mccs == pytest.approx(expected_rate("mccs", inst, uncached),
                                              abs=1e-9)

    def test_report_gap_fields(self):
        rep = optimize_mccs(Instance.from_zipf(5, 3, 1.5, 0.8))
        assert rep.gap == pytest.approx(rep.rate_mccs - rep.lb_p1, abs=1e-12)
        assert rep.gap >= -1e-8
        assert rep.lb_p1 <= rep.lb_p2 + 1e-9
        assert rep.lb_p2 <= rep.rate_mccs + 1e-8
        assert rep.rate_mccs <= rep.rate_ccs_opt + 1e-9

    def test_requires_uniform_sizes(self):
        inst = Instance(3, 2, 1.0, [0.5, 0.3, 0.2], file_sizes=[1.5, 1.0, 0.5])
        with pytest.raises(ValueError):
            optimize_mccs(inst)

    def test_candidates_satisfy_identities(self, rng):
        for _ in range(10):
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            inst = Instance(n, k, float(rng.uniform(0, n)), random_popularity(n, rng))
            b = partition_coefficients(k)
            cands = enumerate_candidates(inst)
            assert cands, "search must always produce candidates"
            for cand in cands:
                assert np.allclose(cand.matrix @ b, 1.0, atol=1e-12)
                assert cache_used(cand.matrix, k) == pytest.approx(
                    inst.cache_size, abs=1e-12)
                assert is_popularity_first(cand.matrix)
                assert len(distinct_rows(cand.matrix, 1e-12)) <= 3
                exact = {row.tobytes() for row in np.ascontiguousarray(cand.matrix)}
                assert cand.n_groups == len(exact)
                assert validate_placement(inst, cand.matrix) == []

    def test_deterministic(self):
        inst = Instance.from_zipf(6, 3, 2.0, 0.9)
        a = optimize_mccs(inst, with_bounds=False, with_ccs=False)
        b = optimize_mccs(inst, with_bounds=False, with_ccs=False)
        assert np.array_equal(a.best.matrix, b.best.matrix)
        assert a.best.sort_key() == b.best.sort_key()


class TestPlacementLp:
    def test_two_file_two_user_example(self):
        inst = Instance(2, 2, 1.0, [0.6, 0.4])
        rep = optimize_mccs(inst, with_bounds=False, with_ccs=False)
        assert solve_p3_lp(inst).value == pytest.approx(rep.rate_mccs, abs=1e-9)

    def test_matches_search_on_references(self):
        for n, k, m, th in [(7, 4, 1.0, 0.56), (7, 4, 2.0, 0.56), (9, 4, 3.0, 1.2),
                            (9, 4, 4.0, 1.2), (9, 4, 7.0, 1.2)]:
            inst = Instance.from_zipf(n, k, m, th)
            rep = optimize_mccs(inst, with_bounds=False, with_ccs=False)
            lp_opt = solve_p3_lp(inst)
            assert lp_opt.value == pytest.approx(rep.rate_mccs, abs=1e-6)
            assert len(distinct_rows(lp_opt.placement.matrix)) <= 3

    def test_matches_search_on_moderate_zipf_grid(self):
        # the candidate family is exact across this reference grid
        for m in np.arange(0.0, 7.01, 0.5):
            inst = Instance.from_zipf(7, 4, float(m), 0.56)
            rep = optimize_mccs(inst, with_bounds=False, with_ccs=False)
            assert solve_p3_lp(inst).value == pytest.approx(rep.rate_mccs, abs=1e-6)

    def test_randomized_search_never_below_lp(self, rng):
        # the search explores a restricted family: it never beats the LP
        # optimum, and the LP optimum always clusters into at most three groups
        for _ in range(15):
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            inst = Instance(n, k, float(rng.uniform(0, n)), random_popularity(n, rng))
            rep = optimize_mccs(inst, with_bounds=False, with_ccs=False)
            lp_opt = solve_p3_lp(inst)
            assert rep.rate_mccs >= lp_opt.value - 1e-9
            assert len(distinct_rows(lp_opt.placement.matrix)) <= 3

    def test_uniform_popularity_symmetric_solution(self):
        inst = Instance(4, 3, 1.5, np.full(4, 0.25))
        lp_opt = solve_p3_lp(inst)
        assert len(distinct_rows(lp_opt.placement.matrix)) == 1

    def test_baseline_scheme_variant(self, rng):
        # scoring the same candidates with the baseline coefficients matches
        # the baseline LP optimum
        for _ in range(5):
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            inst = Instance(n, k, float(rng.uniform(0, n)), random_popularity(n, rng))
            best = optimize_ccs(inst)
            lp_opt = solve_p3_lp(inst, scheme="ccs")
            assert lp_opt.value == pytest.approx(best.rate, abs=1e-6)

    def test_size_guard(self):
        # 1,001 equalities and 3,996 <= rows at (1000,4): a 5,000 x 10,998
        # dual tableau of 420 MiB, refused after the coefficients (about
        # 30 ms, under 1 MiB), before the program is built
        assert_refused_early(solve_p3_lp, Instance.from_zipf(1000, 4, 100.0, 0.8), 420)


class TestUnrestrictedLp:
    def test_unit_sizes_two_users_power_law(self):
        # with two users and power-law popularity the ordered search is exact
        for theta in (0.0, 0.56, 1.2):
            inst = Instance(4, 2, 1.5, zipf_popularity(4, theta))
            assert solve_p4_lp(inst).value == pytest.approx(
                solve_p3_lp(inst).value, abs=1e-6)

    def test_never_above_ordered_search(self, rng):
        for _ in range(5):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            inst = Instance(n, k, float(rng.uniform(0, n)), random_popularity(n, rng))
            assert solve_p4_lp(inst).value <= solve_p3_lp(inst).value + 1e-9

    def test_full_cache_free(self):
        sizes = [1.5, 1.25, 1.0, 0.75]
        inst = Instance(4, 2, sum(sizes), [0.4, 0.3, 0.2, 0.1], sizes)
        assert solve_p4_lp(inst).value == pytest.approx(0.0, abs=1e-9)

    def test_two_user_sizes_attain_bound(self, rng):
        sizes = np.array([1.5, 1.25, 1.0, 0.75])
        for _ in range(5):
            inst = Instance(4, 2, float(rng.uniform(0, sizes.sum())),
                            random_popularity(4, rng), sizes)
            assert solve_p4_lp(inst).value == pytest.approx(
                lower_bound_p5(inst).value, abs=1e-6)

    @pytest.mark.parametrize("n", [8, 12, 20])
    def test_two_user_sizes_attain_bound_beyond_seven_files(self, n):
        # the paper's two-user claim with nonuniform popularity and sizes
        rng = np.random.default_rng(n)
        sizes = rng.uniform(0.5, 2.0, n)
        inst = Instance(n, 2, float(rng.uniform(0, sizes.sum())),
                        zipf_popularity(n, float(rng.uniform(0.2, 1.2))), sizes)
        assert solve_p4_lp(inst).value == pytest.approx(lower_bound_p5(inst).value, abs=1e-9)

    def test_value_matches_enumeration_at_solution(self, rng):
        inst = Instance(4, 3, 1.2, random_popularity(4, rng), [1.5, 1.25, 1.0, 0.75])
        opt = solve_p4_lp(inst)
        assert opt.value == pytest.approx(
            expected_rate("mccs", inst, opt.placement), abs=1e-9)

    def test_size_guard(self):
        # sized from (N, K) before the message weights: at (60,4) the key guard
        # admits the 561,625 keys, whose weights alone take seconds to compute
        assert_refused_early(solve_p4_lp, Instance(25, 3, 1.0, np.full(25, 1 / 25)), 265)
        assert_refused_early(solve_p4_lp, Instance.from_zipf(16, 4, 4.0, 0.56), 392)
        sized = Instance(60, 4, 15.0, zipf_popularity(60, 0.8), np.linspace(0.5, 2.0, 60))
        assert_refused_early(solve_p4_lp, sized, 11698627)

    def test_one_epigraph_variable_per_file_set(self, monkeypatch):
        # at (7,4) the (level, file set) keys number 7 + 28 + 63 + 98 = 196;
        # keying by file multiset gives 329 variables with duplicate rows
        seen = []

        def record(problem, inst):
            seen.append(problem.n_vars - inst.n_files * (inst.n_users + 1))
            return solve_placement(problem, inst)

        monkeypatch.setattr(optimizer, "solve_placement", record)
        solve_p4_lp(Instance.from_zipf(7, 4, 1.5, 0.56))
        assert seen == [196]


class TestCandidateFamilyGap:
    """Pinned witness for the empty-first-group boundary of the family.

    With a dominant file, the best ordered placement splits the popular file
    between the server and a non-adjacent subset level while the other file
    stays at the server: case 2i over files 1..n_1 with n_o = 0.  The search
    attains the LP optimum only because that boundary is enumerated.  The same
    instance's baseline-scheme optimum is inside the family either way.
    """

    def instance(self):
        p = np.array([0.8963738, 0.1036262])
        return Instance(2, 3, 0.1878118992715856, p / p.sum())

    def test_search_attains_lp(self):
        inst = self.instance()
        rep = optimize_mccs(inst, with_bounds=False, with_ccs=False)
        lp_opt = solve_p3_lp(inst)
        assert lp_opt.value == pytest.approx(1.0910605, abs=1e-6)
        assert rep.rate_mccs == pytest.approx(lp_opt.value, abs=1e-6)

    def test_lp_optimum_inside_family(self):
        inst = self.instance()
        lp_opt = solve_p3_lp(inst)
        got = np.round(lp_opt.placement.matrix, 6)
        # the popular file: a server share, level 1 empty and the rest at one
        # level >= 2 (the optimal face is the edge between the level-2 and the
        # level-3 candidate, so either end is a correct answer)
        assert got[0, 0] > 0.7 and got[0, 1] == 0.0 and np.count_nonzero(got[0, 2:]) == 1
        keys = {np.ascontiguousarray(np.round(c.matrix, 9) + 0.0).tobytes()
                for c in enumerate_candidates(inst)}
        lp_key = np.ascontiguousarray(np.round(lp_opt.placement.matrix, 9) + 0.0).tobytes()
        assert lp_key in keys

    def test_lp_value_is_achievable(self):
        inst = self.instance()
        lp_opt = solve_p3_lp(inst)
        assert expected_rate("mccs", inst, lp_opt.placement) == pytest.approx(
            lp_opt.value, abs=1e-12)
        assert validate_placement(inst, lp_opt.placement) == []

    def test_baseline_scheme_family_is_exact_here(self):
        inst = self.instance()
        assert solve_p3_lp(inst, scheme="ccs").value == pytest.approx(
            optimize_ccs(inst).rate, abs=1e-9)


class TestSchemeComparison:
    def test_redundancy_removal_never_hurts(self, rng):
        for _ in range(8):
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            inst = Instance(n, k, float(rng.uniform(0, n)), random_popularity(n, rng))
            rep = optimize_mccs(inst, with_bounds=False, with_ccs=True)
            assert rep.rate_mccs <= rep.rate_ccs_opt + 1e-9

    def test_ccs_score_is_consistent(self, rng):
        inst = Instance(5, 3, 2.0, random_popularity(5, rng))
        best = optimize_ccs(inst)
        assert best.rate == pytest.approx(avg_rate_ccs_closed(inst, best.matrix),
                                          abs=1e-12)


class TestSearchCoefficients:
    def test_coefficients_computed_once_per_search(self, monkeypatch):
        original = closedform.g_coefficients
        calls = []

        def counted(inst):
            calls.append(inst)
            return original(inst)

        monkeypatch.setattr(closedform, "g_coefficients", counted)
        monkeypatch.setattr(optimizer, "g_coefficients", counted)
        optimize_mccs(Instance.from_zipf(12, 4, 3.0, 0.56), with_bounds=False,
                      with_ccs=True)
        assert len(calls) == 1

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 6), k=st.integers(2, 4),
           cache_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_search_equals_lp_and_enumeration(self, n, k, cache_frac, seed):
        p = np.sort(np.random.default_rng(seed).dirichlet(np.ones(n)))[::-1]
        inst = Instance(n, k, cache_frac * n, p / p.sum())
        report = optimize_mccs(inst, with_bounds=False, with_ccs=True)
        ccs = optimize_ccs(inst)
        assert report.rate_mccs == pytest.approx(solve_p3_lp(inst).value, abs=1e-9)
        assert ccs.rate == report.rate_ccs_opt
        assert ccs.rate == pytest.approx(solve_p3_lp(inst, scheme="ccs").value, abs=1e-9)
        assert report.rate_mccs == pytest.approx(
            expected_rate("mccs", inst, report.best.matrix), abs=1e-9)
        assert ccs.rate == pytest.approx(expected_rate("ccs", inst, ccs.matrix), abs=1e-9)


class TestStreamingSearch:
    @staticmethod
    def fields(cand):
        return cand.kind, cand.n_o, cand.n_1, cand.l_o, cand.l_1, cand.rate, cand.matrix.tobytes()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 9), k=st.integers(2, 5),
           popularity=st.sampled_from(("zipf", "dirichlet", "tied")),
           theta=st.sampled_from((0.0, 0.56, 0.8, 1.2, 2.0)), cache_frac=st.floats(0.0, 1.0),
           on_grid=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=4, k=2, popularity="zipf", theta=0.8, cache_frac=0.25, on_grid=False, seed=0)
    def test_matches_enumeration_oracle(self, n, k, popularity, theta, cache_frac, on_grid,
                                        seed):
        rng = np.random.default_rng(seed)
        if popularity == "zipf":
            p = zipf_popularity(n, theta)
        elif popularity == "dirichlet":
            p = random_popularity(n, rng)
        else:  # blocks of two equally popular files
            p = np.sort(np.repeat(rng.dirichlet(np.ones((n + 1) // 2)), 2)[:n])[::-1]
        m = round(cache_frac * n * k) / k if on_grid else cache_frac * n
        inst = Instance(n, k, m, p / p.sum())
        cands, coeffs = enumerate_candidates(inst), g_coefficients(inst)
        report, ccs = optimize_mccs(inst, with_bounds=False), optimize_ccs(inst)
        assert self.fields(report.best) == self.fields(best_candidate(cands, coeffs.g))
        assert self.fields(ccs) == self.fields(best_candidate(cands, coeffs.g_ccs))
        assert report.rate_ccs_opt == ccs.rate

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 9), k=st.integers(1, 5),
           popularity=st.sampled_from(("zipf", "dirichlet", "tied")),
           cache_frac=st.floats(0.0, 1.0), on_grid=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_streamed_candidate_is_feasible(self, n, k, popularity, cache_frac, on_grid,
                                                  seed):
        # the search scores each valid tuple as it is built, so each must be a
        # placement the instance admits, not only the winner
        rng = np.random.default_rng(seed)
        if popularity == "zipf":
            p = zipf_popularity(n, 0.8)
        elif popularity == "dirichlet":
            p = random_popularity(n, rng)
        else:
            p = np.sort(np.repeat(rng.dirichlet(np.ones((n + 1) // 2)), 2)[:n])[::-1]
        m = round(cache_frac * n * k) / k if on_grid else cache_frac * n
        inst = Instance(n, k, m, p / p.sum())
        scored = [cand for cand in optimizer._candidates(inst) if cand is not None]
        assert scored
        for cand in scored:
            assert validate_placement(inst, cand.matrix) == [], (cand.kind, cand.n_o, cand.n_1)

    def test_first_producer_keeps_label(self):
        # a later tuple rebuilds the winning placement with a smaller sort_key
        best = optimize_mccs(Instance.from_zipf(4, 2, 1.0, 0.8), with_bounds=False).best
        assert (best.kind, best.l_o, best.l_1) == ("two_group_server", 2, None)

    def test_memory_does_not_grow_with_the_family(self):
        inst = Instance.from_zipf(30, 4, 6.0, 0.8)
        tracemalloc.start()
        try:
            optimize_mccs(inst, with_bounds=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


class TestBoundRateChain:
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 7), k=st.integers(2, 4), cache_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bounds_below_rates(self, n, k, cache_frac, seed):
        rng = np.random.default_rng(seed)
        p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        inst = Instance(n, k, cache_frac * n, p / p.sum())
        report = optimize_mccs(inst)
        p3 = solve_p3_lp(inst).value
        assert report.lb_p1 <= report.lb_p2 + 1e-9
        assert report.lb_p2 <= p3 + 1e-9
        assert p3 == pytest.approx(report.rate_mccs, abs=1e-9)
        assert report.rate_mccs <= report.rate_ccs_opt + 1e-9
        assert solve_p4_lp(inst).value <= report.rate_mccs + 1e-9
        q_inst, a = random_q_instance(n, k, rng)
        assert avg_rate_closed(q_inst, a) == pytest.approx(
            expected_rate("mccs", q_inst, a), abs=1e-9)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_sized_chain(self, n, k, seed):
        # P5 <= P4 <= the exact rate of any placement filling the same cache
        rng = np.random.default_rng(seed)
        sizes = rng.uniform(0.5, 2.0, size=n)
        mass = rng.dirichlet(np.ones(k + 1), size=n) * sizes[:, None]
        a = mass / partition_coefficients(k)  # row n partitions to its size
        inst = Instance(n, k, cache_used(a, k), random_popularity(n, rng), sizes)
        p5, p4 = lower_bound_p5(inst).value, solve_p4_lp(inst).value
        assert p5 <= p4 + 1e-9
        assert p4 <= expected_rate("mccs", inst, a) + 1e-9


class TestPlacementLpsChecked:
    def test_infeasible_solver_answer_raises(self, monkeypatch):
        # a point that passed solve_via_dual's residual check and then went
        # wrong is still refused by the placement check
        original = lp.solve_via_dual

        def perturbed(problem):
            sol = original(problem)
            x = sol.x.copy()
            x[0] += 1e-6  # file 1's server share: its partition row now sums to 1 + 1e-6
            return dataclasses.replace(sol, x=x)

        monkeypatch.setattr(lp, "solve_via_dual", perturbed)
        inst = Instance.from_zipf(5, 3, 1.5, 0.56)
        with pytest.raises(RuntimeError, match="partition.*this is a bug"):
            lower_bound_p2(inst)
        with pytest.raises(RuntimeError, match="partition.*this is a bug"):
            solve_p3_lp(inst)


class TestValueFunctionsInCache:
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 5), k=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_nonincreasing_and_convex(self, n, k, seed):
        # each is an LP value as a function of the cache right-hand side
        p = random_popularity(n, np.random.default_rng(seed))
        insts = [Instance(n, k, n * j / 8, p) for j in range(9)]
        for solve in (lambda i: optimize_mccs(i, with_bounds=False, with_ccs=False).rate_mccs,
                      lambda i: lower_bound_p2(i).value, lambda i: lower_bound_p1(i).value):
            rates = np.array([solve(inst) for inst in insts])
            assert np.diff(rates).max() <= 1e-9
            assert np.diff(rates, 2).min() >= -1e-9
