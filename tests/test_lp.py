import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from cacheopt import lp
from cacheopt.bounds import lower_bound_p1, lower_bound_p2, lower_bound_p5
from cacheopt.lp import LpProblem, solve, solve_via_dual
from cacheopt.model import Instance, validate_placement, zipf_popularity
from cacheopt.optimizer import solve_p3_lp, solve_p4_lp

from conftest import dense_pivot, full_epigraph_problem


def random_problem(rng, n_max=8, m_max=6):
    """A random LP that is feasible by construction (a known interior point)."""
    n = int(rng.integers(1, n_max))
    m_eq = int(rng.integers(0, min(3, n)))
    m_ub = int(rng.integers(1, m_max))
    x0 = rng.random(n) + 0.1
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = a_eq @ x0 if m_eq else None
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.random(m_ub)
    c = rng.normal(size=n)
    # bound the feasible region so the problem cannot be unbounded
    a_ub = np.vstack([a_ub, np.ones((1, n))])
    b_ub = np.append(b_ub, x0.sum() + 5.0)
    return LpProblem(objective=c, eq_lhs=a_eq, eq_rhs=b_eq, ub_lhs=a_ub, ub_rhs=b_ub)


class TestBasics:
    def test_bounded_maximization(self):
        sol = solve(LpProblem(objective=np.array([-1.0]),
                              ub_lhs=np.array([[1.0]]), ub_rhs=np.array([1.0])))
        assert sol.optimal
        assert sol.value == pytest.approx(-1.0, abs=1e-12)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_equality_split(self):
        sol = solve(LpProblem(objective=np.array([1.0, 1.0]),
                              eq_lhs=np.array([[1.0, 1.0]]), eq_rhs=np.array([2.0])))
        assert sol.optimal and sol.value == pytest.approx(2.0, abs=1e-12)

    def test_infeasible(self):
        sol = solve(LpProblem(objective=np.array([1.0]),
                              eq_lhs=np.array([[1.0]]), eq_rhs=np.array([-1.0])))
        assert sol.status == "infeasible"
        assert sol.x is None

    def test_unbounded(self):
        sol = solve(LpProblem(objective=np.array([-1.0])))
        assert sol.status == "unbounded"

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            LpProblem(objective=np.array([1.0]), ub_lhs=np.array([[1.0, 2.0]]),
                      ub_rhs=np.array([1.0]))
        with pytest.raises(ValueError):
            LpProblem(objective=np.array([np.inf]))

    def test_duplicate_rows_deduped(self):
        row = np.array([[1.0, 1.0]])
        sol = solve(LpProblem(objective=np.array([-1.0, -1.0]),
                              ub_lhs=np.vstack([row, row, row]),
                              ub_rhs=np.array([1.0, 1.0, 1.0])))
        assert sol.optimal and sol.value == pytest.approx(-1.0)


class TestAgainstScipy:
    def test_random_problems(self, rng):
        for _ in range(40):
            prob = random_problem(rng)
            mine = solve(prob)
            ref = linprog(prob.objective, A_ub=prob.ub_lhs, b_ub=prob.ub_rhs,
                          A_eq=prob.eq_lhs, b_eq=prob.eq_rhs, bounds=(0, None),
                          method="highs")
            assert mine.optimal == (ref.status == 0)
            if mine.optimal:
                assert mine.value == pytest.approx(ref.fun, abs=1e-8)

    def test_dual_route_status_mapping(self):
        infeasible = LpProblem(objective=np.array([1.0]),
                               eq_lhs=np.array([[1.0]]), eq_rhs=np.array([-1.0]))
        assert solve_via_dual(infeasible).status == "infeasible"
        unbounded = LpProblem(objective=np.array([-1.0, 0.0]),
                              ub_lhs=np.array([[0.0, 1.0]]), ub_rhs=np.array([1.0]))
        assert solve_via_dual(unbounded).status == "unbounded"

    def test_dual_route_duplicate_variables(self):
        # identical columns make the dual rows duplicates; any mass split is
        # optimal and the recovered point must stay feasible
        prob = LpProblem(objective=np.array([1.0, 1.0, 2.0]),
                         eq_lhs=np.array([[1.0, 1.0, 1.0]]), eq_rhs=np.array([3.0]))
        sol = solve_via_dual(prob)
        assert sol.optimal
        assert sol.value == pytest.approx(3.0, abs=1e-9)
        assert sol.x.sum() == pytest.approx(3.0, abs=1e-9)
        assert np.min(sol.x) >= -1e-9

    def test_dual_route_matches_direct(self, rng):
        for _ in range(40):
            prob = random_problem(rng)
            direct = solve(prob)
            viadual = solve_via_dual(prob)
            assert direct.status == viadual.status
            if direct.optimal:
                assert viadual.value == pytest.approx(direct.value, abs=1e-8)
                x = viadual.x
                if prob.eq_lhs is not None:
                    assert np.max(np.abs(prob.eq_lhs @ x - prob.eq_rhs)) < 1e-8
                assert np.max(prob.ub_lhs @ x - prob.ub_rhs) < 1e-8
                assert np.min(x) > -1e-9


class TestDualRoute:
    def test_failed_recovery_raises_without_second_solve(self, monkeypatch):
        # perturbed dual prices give a primal point that fails the residual
        # check; the dual route reports it instead of re-solving the primal
        original = lp.solve
        calls = []

        def perturbed(problem):
            calls.append(problem)
            sol = original(problem)
            return replace(sol, duals_ub=sol.duals_ub + 0.25)

        monkeypatch.setattr(lp, "solve", perturbed)
        problem = LpProblem(objective=[-1.0, -1.0], ub_lhs=[[1.0, 2.0], [3.0, 1.0]],
                            ub_rhs=[4.0, 6.0])
        with pytest.raises(RuntimeError, match="residual"):
            solve_via_dual(problem)
        assert len(calls) == 1


class TestSolutionQuality:
    def test_residuals_and_duals(self, rng):
        # a duplicated equality row is dropped in phase 1 and must still be priced
        redundant = LpProblem(objective=[1.0, 2.0, 0.5],
                              eq_lhs=[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], eq_rhs=[1.0, 2.0],
                              ub_lhs=[[0.0, 1.0, 1.0]], ub_rhs=[3.0])
        for prob in [redundant] + [random_problem(rng) for _ in range(25)]:
            sol = solve(prob)
            assert sol.optimal
            x = sol.x
            if prob.eq_lhs is not None:
                assert np.max(np.abs(prob.eq_lhs @ x - prob.eq_rhs)) <= 1e-9
            assert np.max(prob.ub_lhs @ x - prob.ub_rhs) <= 1e-9
            assert np.min(x) >= -1e-12
            # strong duality from the row prices; every row block has its prices
            dual_val = float(sol.duals_ub @ prob.ub_rhs)
            if prob.eq_lhs is not None:
                dual_val += float(sol.duals_eq @ prob.eq_rhs)
            assert dual_val == pytest.approx(sol.value, abs=1e-8)

    def test_complementary_slackness(self, rng):
        for _ in range(15):
            prob = random_problem(rng)
            sol = solve(prob)
            if not sol.optimal or sol.duals_ub is None:
                continue
            slack = prob.ub_rhs - prob.ub_lhs @ sol.x
            # inactive rows carry no price; priced rows are tight
            assert np.max(np.abs(sol.duals_ub * slack)) < 1e-7
            # dual feasibility: reduced costs are nonnegative
            y_terms = prob.ub_lhs.T @ sol.duals_ub
            if sol.duals_eq is not None:
                y_terms = y_terms + prob.eq_lhs.T @ sol.duals_eq
            assert np.min(prob.objective - y_terms) > -1e-7

    def test_determinism(self, rng):
        prob = random_problem(rng)
        a = solve(prob)
        b = solve(prob)
        assert a.iterations == b.iterations
        assert a.value == b.value
        assert np.array_equal(a.x, b.x)


def dual_solve_peak(monkeypatch, problem: LpProblem) -> float:
    """The ``tracemalloc`` peak of the one ``lp.solve`` that ``solve_via_dual``
    makes for ``problem``, over the bytes of that solve's tableau."""
    peaks = []
    direct = lp.solve

    def traced(prob):
        tracemalloc.start()
        try:
            sol = direct(prob)
            peaks.append((prob, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return sol

    monkeypatch.setattr(lp, "solve", traced)
    assert solve_via_dual(problem).optimal
    assert len(peaks) == 1  # the dual route, no primal fallback
    dual, peak = peaks[0]
    # <= rows with nonnegative rhs: slacks only, no artificials
    assert dual.eq_lhs is None and np.all(dual.ub_rhs >= 0)
    rows, cols = dual.ub_lhs.shape
    return peak / (rows * (cols + rows + 1) * 8)


class TestMemory:
    def test_tableau_built_in_one_allocation(self, monkeypatch):
        # the P1 dual at (7,4): a 133 x 1,248 tableau, so the pivots' blocks
        # of temporaries are a visible share of it
        ratio = dual_solve_peak(monkeypatch, full_epigraph_problem(Instance.from_zipf(7, 4, 1.0, 0.56)))
        assert ratio <= 2.5, f"peak {ratio:.2f}x the tableau"

    def test_pivots_make_no_tableau_sized_temporary(self, monkeypatch):
        # the P1 dual at (9,4), a 300 x 3,929 tableau: a dense rank-1 update
        # per pivot peaks at about 2x the tableau, the blocked one near 1.07x
        ratio = dual_solve_peak(monkeypatch, full_epigraph_problem(Instance.from_zipf(9, 4, 2.25, 0.56)))
        assert ratio <= 1.25, f"peak {ratio:.2f}x the tableau"

    def test_guard_sizes_the_tableau_it_protects(self, monkeypatch):
        # every tableau that P4, each P5 round, P2 and P3 pivot is sized
        # first, and every _check_tableau call admits the next tableau at
        # exactly its bytes, and no less: the tableau of the dual's solve,
        # sized from the primal's dimensions (P4 and P5's first round are
        # sized from (N, K) before their tables, then again by
        # placement_program)
        events = []  # check dimensions (3-tuples) and tableau shapes, in order
        check, init = lp._check_tableau, lp._Tableau.__init__

        def record_check(*dims):
            events.append(dims)
            check(*dims)

        def record_tableau(tab, T, basis):
            events.append(T.shape)
            init(tab, T, basis)

        monkeypatch.setattr(lp, "_check_tableau", record_check)
        monkeypatch.setattr(lp._Tableau, "__init__", record_tableau)
        inst = Instance(6, 3, 2.0, zipf_popularity(6, 0.56), np.linspace(0.5, 2.0, 6))
        solve_p4_lp(inst)
        lower_bound_p5(inst)
        uniform = Instance(6, 3, 2.0, zipf_popularity(6, 0.56))
        lower_bound_p2(uniform)
        solve_p3_lp(uniform)
        pairs, pending, tableaus = [], [], 0
        for event in events:
            if len(event) == 3:
                pending.append(event)
                continue
            assert pending, f"a {event} tableau was built without a size check"
            pairs += [(dims, event) for dims in pending]
            pending, tableaus = [], tableaus + 1
        assert not pending and tableaus >= 5
        for dims, (rows, cols) in pairs:
            monkeypatch.setattr(lp, "MAX_TABLEAU_BYTES", rows * cols * 8)
            check(*dims)
            monkeypatch.setattr(lp, "MAX_TABLEAU_BYTES", rows * cols * 8 - 1)
            with pytest.raises(lp.SizeGuardError):
                check(*dims)


# Kuhn's example: Dantzig pricing cycles at its degenerate start, so the
# solve needs Bland's rule to leave the vertex
KUHN = LpProblem(objective=[-2.0, -3.0, 1.0, 12.0],
                 ub_lhs=[[-2.0, -9.0, 1.0, 9.0], [1 / 3, 1.0, -1 / 3, -2.0], [2.0, 3.0, -1.0, -12.0]],
                 ub_rhs=[0.0, 0.0, 2.0])


def zero_rhs_problem(seed: int, n: int, m: int) -> LpProblem:
    """m sparse integer rows through the origin, plus sum(x) <= 1: a
    degenerate start that Dantzig pricing leaves only after many pivots."""
    rng = np.random.default_rng(seed)
    lhs = rng.integers(-2, 3, size=(m, n)) * (rng.random((m, n)) < 0.5)
    return LpProblem(objective=rng.integers(-3, 3, size=n).astype(float),
                     ub_lhs=np.vstack([lhs, np.ones((1, n))]), ub_rhs=np.append(np.zeros(m), 1.0))


def lp_programs(solver, inst: Instance, name: str = "solve"):
    """``solver(inst)`` and the programs it hands to ``lp.<name>``, in call
    order (to ``lp.solve``, the explicit duals of its placement programs)."""
    programs, direct = [], getattr(lp, name)

    def record(problem):
        programs.append(problem)
        return direct(problem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, name, record)
        opt = solver(inst)
    return opt, programs


def assert_same_as_dense(problem: LpProblem) -> int:
    """``lp.solve`` with the blocked pivot equals it with the dense oracle:
    status, pivot count, x, value and both row-price blocks (signed zeros
    aside).  Returns the oracle's longest run of degenerate pivots."""
    blocked = solve(problem)
    run = longest = 0

    def counted(tab, row, col):
        nonlocal run, longest
        run = run + 1 if tab.T[row, -1] <= lp.PIVOT_TOL else 0
        longest = max(longest, run)
        dense_pivot(tab, row, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp._Tableau, "pivot", counted)
        dense = solve(problem)
    assert (blocked.status, blocked.iterations) == (dense.status, dense.iterations)
    for field in ("x", "value", "duals_eq", "duals_ub"):
        mine, ref = getattr(blocked, field), getattr(dense, field)
        assert (mine is None) == (ref is None), field
        assert mine is None or np.array_equal(mine, ref), field
    return longest


SIZED_6_4 = Instance(6, 4, 3.0, zipf_popularity(6, 0.8), np.linspace(0.5, 2.0, 6))
SIZED_7_4 = Instance(7, 4, 3.5, zipf_popularity(7, 0.8), np.linspace(0.5, 2.0, 7))


class TestBlockedPivot:
    """The blocked sparse pivot against the dense rank-1 update it replaced."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), m_eq=st.integers(0, 3),
           m_ub=st.integers(0, 8), density=st.sampled_from([0.3, 0.6, 1.0]),
           feasible=st.booleans(), bounded=st.booleans())
    @example(seed=3653403231, n=6, m_eq=2, m_ub=2, density=0.3, feasible=False, bounded=False)
    @example(seed=2404827117, n=8, m_eq=1, m_ub=7, density=0.3, feasible=True, bounded=False)
    @example(seed=323153949, n=1, m_eq=0, m_ub=7, density=0.6, feasible=True, bounded=True)
    @settings(max_examples=150, deadline=None)
    def test_random_programs(self, seed, n, m_eq, m_ub, density, feasible, bounded):
        # sparse integer rows scaled by a random factor: equalities, negative
        # right-hand sides, degenerate vertices; infeasible when the rhs is
        # random, unbounded without the bounding row (the examples are one of
        # each status)
        rng = np.random.default_rng(seed)
        m = m_eq + m_ub
        lhs = rng.integers(-3, 4, (m, n)) * (rng.random((m, n)) < density)
        rhs = rng.integers(-3, 4, m)
        if feasible:
            rhs = lhs @ rng.integers(0, 3, n) + np.r_[np.zeros(m_eq, int), rng.integers(0, 3, m_ub)]
        if bounded:
            lhs, rhs, m_ub = np.vstack([lhs, np.ones(n)]), np.r_[rhs, 3 * n], m_ub + 1
        scale = rng.uniform(0.5, 2.0, len(rhs))
        lhs, rhs = lhs * scale[:, None], rhs * scale
        assert_same_as_dense(LpProblem(
            objective=rng.integers(-3, 4, n).astype(float),
            eq_lhs=lhs[:m_eq] if m_eq else None, eq_rhs=rhs[:m_eq] if m_eq else None,
            ub_lhs=lhs[m_eq:] if m_ub else None, ub_rhs=rhs[m_eq:] if m_ub else None))

    @pytest.mark.parametrize("problem", [KUHN, zero_rhs_problem(3, 60, 240)], ids=["kuhn", "zero-rhs"])
    def test_degenerate_programs_reach_bland(self, problem):
        # the pivot after DEGENERATE_STALL degenerate ones is Bland's
        assert assert_same_as_dense(problem) > lp.DEGENERATE_STALL

    @pytest.mark.parametrize("solver, inst", [
        (lower_bound_p1, Instance.from_zipf(7, 4, 2.0, 0.56)),
        (lower_bound_p1, Instance.from_zipf(7, 4, 2.0, 0.0)),
        (solve_p4_lp, Instance.from_zipf(7, 4, 2.0, 0.56)),
        (lower_bound_p2, Instance.from_zipf(7, 4, 2.0, 0.56)),
        (solve_p3_lp, Instance.from_zipf(7, 4, 2.0, 0.56)),
        (solve_p4_lp, SIZED_6_4),
        (lower_bound_p5, SIZED_6_4),
        (lower_bound_p5, SIZED_7_4),
    ], ids=["p1", "p1-theta0", "p4", "p2", "p3", "p4-sized", "p5-sized", "p5-sized-7"])
    def test_placement_programs(self, solver, inst):
        # every round of P1/P5's row generation, and P2/P3's one program
        _, programs = lp_programs(solver, inst)
        assert programs
        for problem in programs:
            assert_same_as_dense(problem)


class TestPinnedPivots:
    """Pivot counts and values at the benchmark's sizes, recorded with the
    dense pivot: a change to the pivot rules or the tableau's arithmetic must
    update them on purpose."""

    @pytest.mark.parametrize("n, k, iterations, value", [
        (9, 4, 609, "1.9631412104345194"),
        (10, 4, 1845, "2.079875695219863"),
        (8, 5, 692, "1.9816370414545874"),
    ])
    def test_general_bound(self, n, k, iterations, value):
        opt = lower_bound_p1(Instance.from_zipf(n, k, 1.5, 0.8))
        assert (opt.iterations, repr(opt.value)) == (iterations, value)

    @pytest.mark.parametrize("solver, iterations, value", [
        (solve_p4_lp, 386, "1.207436440921438"),
        (lower_bound_p5, 617, "1.1670661362897765"),
    ])
    def test_sized_bounds(self, solver, iterations, value):
        opt = solver(SIZED_7_4)
        assert (opt.iterations, repr(opt.value)) == (iterations, value)


class TestSquarePrograms:
    """P2 and P3, whose programs have no epigraph, on the dual route."""

    def test_p2_where_the_primal_route_failed(self):
        # the primal simplex returned a[2,8] = -4.47e-8 here; HiGHS gives
        # 2.6544221206385354
        inst = Instance.from_zipf(50, 10, 10.0, 0.8)
        opt = lower_bound_p2(inst)
        assert validate_placement(inst, opt.placement) == []
        assert opt.value == pytest.approx(2.6544221206385354, abs=1e-9)

    @pytest.mark.parametrize("solver, m, theta, value", [
        (solve_p3_lp, 10.0, 0.8, 2.654422120638537),
        (lower_bound_p2, 20.0, 1.2, 1.1374400045479556),
    ], ids=["p3", "p2"])
    def test_large_k_within_pivot_budget(self, monkeypatch, solver, m, theta, value):
        # 570 and 712 pivots on the dual route; the primal route stalled past
        # 5,000 pivots (the values are HiGHS's)
        monkeypatch.setattr(lp, "MAX_ITERATIONS", 2_000)
        assert solver(Instance.from_zipf(50, 10, m, theta)).value == pytest.approx(value, abs=1e-9)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 10), k=st.integers(1, 8), cache_frac=st.floats(0.0, 1.0),
           kind=st.sampled_from(["zipf", "random", "tied", "zeros"]), theta=st.floats(0.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_match_highs(self, n, k, cache_frac, kind, theta, seed):
        # each program's value against scipy's HiGHS on the same program
        rng = np.random.default_rng(seed)
        if kind == "random":
            p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        elif kind == "tied":  # a few popularity levels, each shared by a run of files
            p = np.sort(rng.integers(1, 4, size=n))[::-1].astype(float)
        else:
            p = zipf_popularity(n, theta)
            if kind == "zeros":
                p[n - n // 3:] = 0.0  # files nobody requests
        inst = Instance(n, k, cache_frac * n, p / p.sum())
        for solver in (lower_bound_p2, solve_p3_lp, lambda i: solve_p3_lp(i, scheme="ccs")):
            opt, [problem] = lp_programs(solver, inst, "solve_via_dual")
            ref = linprog(problem.objective, A_ub=problem.ub_lhs, b_ub=problem.ub_rhs,
                          A_eq=problem.eq_lhs, b_eq=problem.eq_rhs, bounds=(0, None),
                          method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                                   "dual_feasibility_tolerance": 1e-10})
            assert ref.status == 0
            assert opt.value == pytest.approx(ref.fun, abs=1e-9)
