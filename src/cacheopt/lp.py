"""Dense two-phase simplex solver.

Small, deterministic, dependency-free (numpy only).  The placement programs
have a few hundred columns; the general bound's epigraph has one row per
generated ordering (about 800 of the 13k orderings at N=12, K=4).  They are
solved through their explicit dual (``solve_via_dual``), whose final reduced
costs at its slack columns are the primal point, checked before it is
returned.  The programs are often heavily degenerate (many symmetric files
produce identical coefficients) and must solve bit-reproducibly, so a dense
tableau simplex with a fixed pivot rule is the right tool.  The standard-form
tableau is built in one allocation and pivoted in place: a pivot updates only
the rows its column touches, a block of rows at a time, and makes no
tableau-sized temporary.  ``_check_tableau`` sizes the dual's tableau from a
program's dimensions, so callers refuse a program past MAX_TABLEAU_BYTES
before building it.
Dantzig pricing is used until a degeneracy stall is detected, after which
Bland's rule guarantees termination.  Row prices are read off the final
reduced costs of the slack and artificial columns; no second linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
DEGENERATE_STALL = 50
MAX_ITERATIONS = 500_000
MAX_TABLEAU_BYTES = 256 * 2 ** 20


class SizeGuardError(RuntimeError):
    """A problem exceeds a desk-scale size guard."""


def _check_tableau(n_vars: int, n_eq: int, n_ub: int) -> None:
    """Raise SizeGuardError before ``solve_via_dual`` of a program with objective
    >= 0 would pivot more than MAX_TABLEAU_BYTES: the dual has a row per primal
    variable, a column per dual variable (two per equality), slack and the rhs."""
    rows, cols = n_vars, 2 * n_eq + n_ub + n_vars + 1
    if rows * cols * 8 > MAX_TABLEAU_BYTES:
        raise SizeGuardError(f"a {rows} x {cols} simplex tableau ({rows * cols * 8 / 2 ** 20:.0f} MiB) "
                             f"exceeds the {MAX_TABLEAU_BYTES >> 20} MiB tableau guard")


@dataclass(frozen=True)
class LpProblem:
    """min objective @ x  s.t.  eq_lhs x = eq_rhs, ub_lhs x <= ub_rhs, x >= 0.

    Empty constraint blocks are passed as None.
    """

    objective: np.ndarray
    eq_lhs: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ub_lhs: np.ndarray | None = None
    ub_rhs: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        object.__setattr__(self, "objective", c)
        n = c.shape[0]
        for lhs_name, rhs_name in (("eq_lhs", "eq_rhs"), ("ub_lhs", "ub_rhs")):
            lhs, rhs = getattr(self, lhs_name), getattr(self, rhs_name)
            if (lhs is None) != (rhs is None):
                raise ValueError(f"{lhs_name} and {rhs_name} must be given together")
            if lhs is None:
                continue
            lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
            rhs = np.asarray(rhs, dtype=float).ravel()
            if lhs.shape != (rhs.shape[0], n):
                raise ValueError(f"{lhs_name} has shape {lhs.shape}, expected ({rhs.shape[0]}, {n})")
            object.__setattr__(self, lhs_name, lhs)
            object.__setattr__(self, rhs_name, rhs)
        for arr in (self.objective, self.eq_lhs, self.eq_rhs, self.ub_lhs, self.ub_rhs):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("non-finite coefficient in problem")

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    """Solve status; when optimal, x, value and the row prices y.

    objective - A^T y >= 0 and ``duals_ub <= 0`` for the ``<=`` rows of the
    min problem.  Every row block present is priced, redundant rows included.
    """

    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None
    value: float | None
    iterations: int
    duals_eq: np.ndarray | None = None
    duals_ub: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Tableau:
    """Full-tableau simplex state: rows of T = constraints, last column = rhs.

    The reduced costs live in ``cost``, one entry per column of T; its last
    entry is minus the objective value.
    """

    def __init__(self, T: np.ndarray, basis: list[int]):
        self.T = T
        self.basis = basis
        self.iterations = 0
        self.cost = np.zeros(T.shape[1])

    def set_objective(self, costs: np.ndarray):
        """Install reduced-cost row for the given variable costs."""
        self.cost = np.append(costs.astype(float), 0.0)
        for r, j in enumerate(self.basis):
            cj = self.cost[j]
            if cj != 0.0:
                self.cost -= cj * self.T[r]

    def pivot(self, row: int, col: int):
        """Make column ``col`` the unit vector of ``row``.

        The pivot row is divided in place; only the other rows with a nonzero
        entry in ``col`` are updated, in blocks of about 256 KiB of
        temporaries, so no tableau-sized temporary is made.  Each updated
        entry gets T[i, j] - T[i, col] * T[row, j], the arithmetic of the
        dense rank-1 update, so pivots and values do not depend on the
        sparsity.  (A skipped row can keep a -0.0 that the dense update
        would have made +0.0.)
        """
        T = self.T
        T[row] /= T[row, col]
        rows = np.flatnonzero(T[:, col])
        rows = rows[rows != row]
        step = max(1, 2 ** 15 // T.shape[1])
        for start in range(0, rows.size, step):
            block = rows[start:start + step]
            T[block] -= np.multiply.outer(T[block, col], T[row])
        ccoef = self.cost[col]
        if ccoef != 0.0:
            self.cost -= ccoef * T[row]
        self.basis[row] = col
        self.iterations += 1

    def run(self, eligible: np.ndarray) -> str:
        """Iterate to optimality over the columns marked eligible to enter.

        Dantzig pricing with a largest-pivot ratio tie-break; after
        DEGENERATE_STALL consecutive degenerate pivots, Bland's rule takes
        over until the objective moves again (each degenerate plateau is left
        in finitely many Bland pivots, and the objective strictly decreases
        between plateaus, so the method terminates).
        """
        stall = 0
        while True:
            if self.iterations > MAX_ITERATIONS:
                raise RuntimeError("simplex iteration limit exceeded")
            bland = stall >= DEGENERATE_STALL
            red = self.cost[:-1]
            cand = np.where(eligible & (red < -PIVOT_TOL))[0]
            if cand.size == 0:
                return "optimal"
            col = int(cand[0]) if bland else int(cand[np.argmin(red[cand])])
            colvals = self.T[:, col]
            rows = np.where(colvals > PIVOT_TOL)[0]
            if rows.size == 0:
                return "unbounded"
            ratios = self.T[rows, -1] / colvals[rows]
            best = np.min(ratios)
            tied = rows[ratios <= best + 1e-12]
            if bland:
                # leave by smallest basis variable index among ties
                row = int(tied[np.argmin([self.basis[r] for r in tied])])
            else:
                row = int(tied[np.argmax(colvals[tied])])
            degenerate = self.T[row, -1] <= PIVOT_TOL
            self.pivot(row, col)
            stall = stall + 1 if degenerate else 0


def _blocks(problem: LpProblem):
    """(eq_lhs, eq_rhs, ub_lhs, ub_rhs), with absent blocks as empty arrays."""
    n = problem.n_vars
    return (problem.eq_lhs if problem.eq_lhs is not None else np.zeros((0, n)),
            problem.eq_rhs if problem.eq_rhs is not None else np.zeros(0),
            problem.ub_lhs if problem.ub_lhs is not None else np.zeros((0, n)),
            problem.ub_rhs if problem.ub_rhs is not None else np.zeros(0))


def solve(problem: LpProblem) -> LpSolution:
    """Solve an LpProblem with the two-phase simplex.

    Infeasible and unbounded problems are reported through ``status``; only
    malformed input or an internal failure raises.
    """
    n = problem.n_vars
    a_eq, b_eq, a_ub, b_ub = _blocks(problem)
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub
    b = np.concatenate([b_eq, b_ub])
    row_sign = np.where(b < 0, -1.0, 1.0)
    # rows without a +1 slack (equalities, flipped <= rows) start on an artificial
    art_rows = np.flatnonzero((np.arange(m) < m_eq) | (row_sign < 0))
    n_total = n + m_ub
    n_cols = n_total + art_rows.size

    # standard form [x | slacks | artificials | rhs] in one allocation; rows
    # flipped so every rhs is nonnegative
    T = np.zeros((m, n_cols + 1))
    T[:m_eq, :n] = a_eq
    T[m_eq:, :n] = a_ub
    T[row_sign < 0, :n] *= -1.0
    T[:, -1] = b * row_sign
    T[m_eq + np.arange(m_ub), n + np.arange(m_ub)] = row_sign[m_eq:]
    T[art_rows, n_total + np.arange(art_rows.size)] = 1.0
    basis = np.arange(n - m_eq, n_total)  # row i starts on its slack ...
    basis[art_rows] = n_total + np.arange(art_rows.size)  # ... or its artificial
    tab = _Tableau(T, basis.tolist())
    is_art = np.arange(n_cols) >= n_total

    # phase 1: drive out artificials
    if art_rows.size:
        tab.set_objective(is_art.astype(float))
        status = tab.run(eligible=~is_art)
        if status != "optimal" or -tab.cost[-1] > FEAS_TOL:
            return LpSolution("infeasible", None, None, tab.iterations)
        # pivot residual artificials out, dropping redundant rows
        drop_rows = []
        for r in range(len(tab.basis)):
            if is_art[tab.basis[r]]:
                row = tab.T[r, :-1]
                nz = np.where((~is_art) & (np.abs(row) > PIVOT_TOL))[0]
                if nz.size:
                    tab.pivot(r, int(nz[0]))
                else:
                    drop_rows.append(r)
        if drop_rows:
            keep = [r for r in range(len(tab.basis)) if r not in drop_rows]
            tab.T = tab.T[keep]
            tab.basis = [tab.basis[r] for r in keep]

    # phase 2
    costs = np.zeros(n_cols)
    costs[:n] = problem.objective
    tab.set_objective(costs)
    status = tab.run(eligible=~is_art)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, tab.iterations)

    x = np.zeros(n)
    for r, j in enumerate(tab.basis):
        if j < n:
            x[j] = tab.T[r, -1]
    value = float(problem.objective @ x)
    # a slack or artificial column is its (flipped) row's unit vector at cost
    # 0, so its reduced cost is minus that row's price; dropped rows get one too
    duals_eq = -row_sign[:m_eq] * tab.cost[n_total:n_total + m_eq] if m_eq else None
    duals_ub = -tab.cost[n:n_total] if m_ub else None
    return LpSolution("optimal", x, value, tab.iterations, duals_eq, duals_ub)


def solve_via_dual(problem: LpProblem) -> LpSolution:
    """Solve by pivoting on the explicit dual, with the primal point checked.

    The dual has one row per primal variable, so the epigraph bound programs,
    with far more rows than columns, pivot a much smaller tableau than their
    primal.  The primal optimum x is minus the dual's ``<=`` row prices: its
    final reduced costs at its slack columns.  A recovered point that
    fails the feasibility or objective check raises RuntimeError with its
    residual; there is no fallback to the slower direct solve.
    """
    a_eq, b_eq, a_ub, b_ub = _blocks(problem)
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]

    # max b_eq'mu + b_ub'lam  s.t. A_eq'mu + A_ub'lam <= c, lam <= 0
    # with mu = mu+ - mu-, lam = -lhat, written as a min problem:
    dual_c = np.concatenate([-b_eq, b_eq, b_ub])
    dual_lhs = np.hstack([a_eq.T, -a_eq.T, -a_ub.T])
    dual_rhs = problem.objective.copy()
    dual = LpProblem(objective=dual_c, ub_lhs=dual_lhs, ub_rhs=dual_rhs)
    sol = solve(dual)
    if sol.status == "infeasible":
        return LpSolution("unbounded", None, None, sol.iterations)
    if sol.status == "unbounded":
        return LpSolution("infeasible", None, None, sol.iterations)

    x = -sol.duals_ub
    # largest violation of x >= 0, the equalities and the <= rows; NaN fails
    resid = float(np.max(np.concatenate([-x, np.abs(a_eq @ x - b_eq), a_ub @ x - b_ub]),
                         initial=0.0))
    value = float(problem.objective @ x)
    if not resid <= FEAS_TOL or abs(value - (-sol.value)) > 1e-6 * (1.0 + abs(value)):
        raise RuntimeError(f"solve_via_dual: recovered point has residual {resid:.3e}, "
                           f"objective {value!r} against the dual's {-sol.value!r}")

    z = sol.x
    duals_eq = z[:m_eq] - z[m_eq:2 * m_eq] if m_eq else None
    duals_ub = -z[2 * m_eq:] if m_ub else None
    return LpSolution("optimal", x, value, sol.iterations, duals_eq, duals_ub)
