import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from cacheopt import lp
from cacheopt.bounds import lower_bound_p2, lower_bound_p5
from cacheopt.lp import LpProblem, solve, solve_via_dual
from cacheopt.model import Instance, zipf_popularity
from cacheopt.optimizer import solve_p3_lp, solve_p4_lp

from conftest import full_epigraph_problem


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


class TestMemory:
    def test_tableau_built_in_one_allocation(self, monkeypatch):
        # the P1 dual at (7,4): the tableau plus one pivot update is the floor
        problem = full_epigraph_problem(Instance.from_zipf(7, 4, 1.0, 0.56))
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
        tableau = rows * (cols + rows + 1) * 8
        assert peak <= 2.5 * tableau, f"peak {peak / tableau:.2f}x the tableau"

    def test_guard_sizes_the_tableau_it_protects(self, monkeypatch):
        # every _check_tableau call of P4, of each P5 round, of P2 and of P3
        # admits the tableau its solve then pivots at exactly its bytes, and
        # no less: the dual route's tableau is that of the dual's primal solve
        checked, shapes = [], []
        check, init = lp._check_tableau, lp._Tableau.__init__

        def record_check(*dims):
            checked.append(dims)
            check(*dims)

        def record_tableau(tab, T, basis):
            shapes.append(T.shape)
            init(tab, T, basis)

        monkeypatch.setattr(lp, "_check_tableau", record_check)
        monkeypatch.setattr(lp._Tableau, "__init__", record_tableau)
        inst = Instance(6, 3, 2.0, zipf_popularity(6, 0.56), np.linspace(0.5, 2.0, 6))
        solve_p4_lp(inst)
        lower_bound_p5(inst)
        uniform = Instance(6, 3, 2.0, zipf_popularity(6, 0.56))
        lower_bound_p2(uniform)
        solve_p3_lp(uniform)
        assert len(checked) == len(shapes) >= 5
        for dims, (rows, cols) in zip(checked, shapes):
            monkeypatch.setattr(lp, "MAX_TABLEAU_BYTES", rows * cols * 8)
            check(*dims)
            monkeypatch.setattr(lp, "MAX_TABLEAU_BYTES", rows * cols * 8 - 1)
            with pytest.raises(lp.SizeGuardError):
                check(*dims)
