"""Dense simplex solver on the explicit dual.

Small, deterministic, dependency-free (numpy only).  The placement programs
have a few hundred columns; the general bound's epigraph has one row per
generated ordering (about 800 of the 13k orderings at N=12, K=4).  Each
minimizes an expected rate, so its objective is nonnegative, and ``solve``
pivots its explicit dual, which then starts feasible at its slack basis.  The
programs are often heavily degenerate (many symmetric files produce identical
coefficients) and must solve bit-reproducibly, so a dense tableau simplex
with a fixed pivot rule is the right tool.  The tableau is pivoted in place:
a pivot updates only the rows its column touches, a block of rows at a time,
and makes no tableau-sized temporary.  ``_check_tableau`` sizes it from a
program's dimensions, so callers refuse a program past MAX_TABLEAU_BYTES
before building it.  Dantzig pricing is used until a degeneracy stall is
detected, after which Bland's rule guarantees termination.
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
    """Raise SizeGuardError before ``solve`` of a program would pivot more
    than MAX_TABLEAU_BYTES: its dual's tableau has a row per primal variable,
    a column per dual variable (two per equality), a slack per row and the
    rhs.  ``solve`` refuses a negative objective, so the dual starts on its
    slacks and these are all of its columns."""
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
        if c.ndim != 1:
            raise ValueError(f"objective has shape {c.shape}, expected a 1-D vector")
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
    min problem.  Every row block present is priced.
    """

    status: str  # 'optimal' | 'infeasible'
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

    def run(self) -> str:
        """Iterate to optimality or an unbounded column.

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
            cand = np.where(red < -PIVOT_TOL)[0]
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


def solve(problem: LpProblem) -> LpSolution:
    """Solve a program with objective >= 0 by pivoting on its explicit dual,
    with the primal point checked.

    Any rows and right-hand sides are taken; a negative objective entry raises
    ValueError before anything is allocated (``-0.0`` is accepted).  With
    c >= 0 and x >= 0 the primal is bounded below, so it is 'optimal' or, when
    the dual is unbounded, 'infeasible'.

    The dual  max b_eq'mu + b_ub'lam  s.t.  A_eq'mu + A_ub'lam <= c, lam <= 0,
    with mu = mu+ - mu- and lam = -lhat, is written as a min problem straight
    into one tableau [A_eq' | -A_eq' | -A_ub' | I | c] with cost row
    [-b_eq | b_eq | b_ub | 0 | 0].  Its right-hand side c is >= 0, so it
    starts feasible at its slack basis and needs no phase 1.  It has one row
    per primal variable, so the epigraph bound programs, with far more rows
    than columns, pivot a much smaller tableau than their primal.  The primal
    optimum x is the dual's final reduced costs at its slack columns.  A point
    that fails the feasibility or objective check raises RuntimeError with its
    residual.  Row prices are read off the dual's basic values.
    """
    c, n = problem.objective, problem.n_vars
    if np.any(c < 0):
        raise ValueError("lp.solve needs a nonnegative objective")
    empty = np.zeros((0, n)), np.zeros(0)  # an absent block
    a_eq, b_eq = empty if problem.eq_lhs is None else (problem.eq_lhs, problem.eq_rhs)
    a_ub, b_ub = empty if problem.ub_lhs is None else (problem.ub_lhs, problem.ub_rhs)
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = 2 * m_eq + m_ub  # the dual's variables: mu+, mu-, lhat
    T = np.zeros((n, m + n + 1))
    T[:, :m_eq] = a_eq.T
    np.negative(a_eq.T, out=T[:, m_eq:2 * m_eq])
    np.negative(a_ub.T, out=T[:, 2 * m_eq:m])
    T[np.arange(n), m + np.arange(n)] = 1.0
    T[:, -1] = c
    tab = _Tableau(T, list(range(m, m + n)))
    np.negative(b_eq, out=tab.cost[:m_eq])
    tab.cost[m_eq:2 * m_eq] = b_eq
    tab.cost[2 * m_eq:m] = b_ub
    if tab.run() == "unbounded":
        return LpSolution("infeasible", None, None, tab.iterations)

    z = np.zeros(m)
    for r, j in enumerate(tab.basis):
        if j < m:
            z[j] = tab.T[r, -1]
    duals_eq = z[:m_eq] - z[m_eq:2 * m_eq]
    duals_ub = -z[2 * m_eq:]
    bound = float(duals_eq @ b_eq + duals_ub @ b_ub)
    x = tab.cost[m:m + n].copy()
    # largest violation of x >= 0, the equalities and the <= rows; NaN fails
    resid = float(np.max(np.concatenate([-x, np.abs(a_eq @ x - b_eq), a_ub @ x - b_ub]),
                         initial=0.0))
    value = float(c @ x)
    if not resid <= FEAS_TOL or abs(value - bound) > 1e-6 * (1.0 + abs(value)):
        raise RuntimeError(f"lp.solve: recovered point has residual {resid:.3e}, "
                           f"objective {value!r} against the dual's {bound!r}")
    return LpSolution("optimal", x, value, tab.iterations,
                      duals_eq if m_eq else None, duals_ub if m_ub else None)
