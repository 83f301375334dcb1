"""Output checks for benchmark ops, run after the timed loop.

Every op is checked against properties that hold for any correct answer:

* the bound/rate chain ``lb_p1 <= lb_p2 <= rate_mccs <= rate_ccs_opt`` (and
  ``lb_p5 <= p4`` for sized instances), on the terms each op produces;
* every returned placement passes ``validate_placement``;
* attainment: ``sum_D P(D) * rlb_general(D, a*)`` equals the P1/P5 value and
  ``expected_rate('mccs', a*)`` equals the P4 value, within 1e-9;
* the closed-form rate equals exact enumeration on popularity-first
  placements, within 1e-9;
* P1 and P5 equal an independently assembled LP solved by HiGHS
  (``scipy.optimize.linprog``), within 1e-7;
* the CLI prints the values the library returned, to its 6 decimals.

Each check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations_with_replacement, permutations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

EXACT_TOL = 1e-9
HIGHS_TOL = 1e-7
CHAIN_TOL = 1e-9
PRINT_TOL = 5.1e-7  # the CLI rounds to 6 decimals


def distinct_set_probabilities(inst) -> dict[tuple[int, ...], float]:
    """P(distinct requested set = D), summed over demand multisets (1-based files)."""
    n, k, p = inst.n_files, inst.n_users, inst.popularity
    out: dict[tuple[int, ...], float] = {}
    for combo in combinations_with_replacement(range(1, n + 1), k):
        mult = math.factorial(k)
        for c in Counter(combo).values():
            mult //= math.factorial(c)
        prob = mult * math.prod(p[f - 1] for f in combo)
        key = tuple(sorted(set(combo)))
        out[key] = out.get(key, 0.0) + prob
    return out


def highs_general_bound(inst) -> float:
    """The P1/P5 epigraph LP, assembled here from its definition and solved by HiGHS.

    Variables a[n, l] (n files, levels 0..K) then one t_D per distinct set D.
    minimize sum_D P(D) t_D  s.t.  sum_l C(K, l) a[n, l] = F_n,
    sum_{n, l} C(K-1, l-1) a[n, l] <= M, and for every ordering pi of D
    sum_i sum_{l<K} C(K-i, l) a[pi(i), l] <= t_D.
    """
    n, k = inst.n_files, inst.n_users
    probs = distinct_set_probabilities(inst)
    dsets = sorted(probs)
    n_a = n * (k + 1)
    n_vars = n_a + len(dsets)
    cost = np.zeros(n_vars)
    cost[n_a:] = [probs[d] for d in dsets]

    a_eq = np.zeros((n, n_vars))
    for f in range(n):
        a_eq[f, f * (k + 1):(f + 1) * (k + 1)] = [math.comb(k, l) for l in range(k + 1)]
    cache_row = np.zeros(n_vars)
    for f in range(n):
        cache_row[f * (k + 1) + 1:(f + 1) * (k + 1)] = [math.comb(k - 1, l - 1) for l in range(1, k + 1)]

    rows, cols, vals = [], [], []
    r = 0
    for j, d in enumerate(dsets):
        perms = np.array(list(permutations(d))) - 1  # (m!, m) zero-based files
        m = perms.shape[1]
        weights = np.array([[math.comb(k - i, l) for l in range(k)] for i in range(1, m + 1)])
        n_perm = perms.shape[0]
        for pos in range(m):
            for l in range(k):
                if weights[pos, l]:
                    rows.append(r + np.arange(n_perm))
                    cols.append(perms[:, pos] * (k + 1) + l)
                    vals.append(np.full(n_perm, float(weights[pos, l])))
        rows.append(r + np.arange(n_perm))
        cols.append(np.full(n_perm, n_a + j))
        vals.append(np.full(n_perm, -1.0))
        r += n_perm
    epi = sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(r, n_vars))
    a_ub = sparse.vstack([sparse.csr_matrix(cache_row), epi]).tocsr()
    b_ub = np.concatenate([[inst.cache_size], np.zeros(r)])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.asarray(inst.file_sizes, float),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS reported {res.message}")
    return float(res.fun)


class Checker:
    """Check functions bound to one cacheopt package."""

    def __init__(self, lib):
        self.lib = lib

    # -- building blocks ---------------------------------------------------

    def placement(self, label: str, inst, matrix) -> list[str]:
        bad = self.lib.model.validate_placement(inst, matrix)
        return [f"{label} placement infeasible: {v}" for v in bad]

    @staticmethod
    def chain(terms: list[tuple[str, float]]) -> list[str]:
        return [f"chain broken: {a}={x:.12g} > {b}={y:.12g}"
                for (a, x), (b, y) in zip(terms, terms[1:]) if x > y + CHAIN_TOL]

    @staticmethod
    def close(label: str, got: float, want: float, tol: float) -> list[str]:
        if abs(got - want) <= tol:
            return []
        return [f"{label}: {got:.12g} vs {want:.12g} (off by {abs(got - want):.3e} > {tol:g})"]

    def general_bound(self, label: str, inst, result) -> list[str]:
        """Placement, attainment and HiGHS checks of a P1 or P5 result."""
        a = result.placement.matrix
        errors = self.placement(label, inst, a)
        probs = distinct_set_probabilities(inst)
        attained = math.fsum(prob * self.lib.bounds.rlb_general(d, a) for d, prob in probs.items())
        errors += self.close(f"{label} attainment", attained, result.value, EXACT_TOL)
        errors += self.close(f"{label} vs HiGHS", result.value, highs_general_bound(inst), HIGHS_TOL)
        return errors

    def closed_form(self, inst, matrix, rate: float) -> list[str]:
        enum = self.lib.delivery.expected_rate("mccs", inst, matrix)
        return self.close("closed form vs enumeration", rate, enum, EXACT_TOL)

    # -- per op kind -------------------------------------------------------

    def check(self, op, output, taps) -> list[str]:
        """All checks of one op; ``output`` is its CLI text or returned rate."""
        if op.kind in ("optimize", "bound"):
            return self._general(op, output, taps)
        if op.kind in ("sweep-theta", "sweep-cache"):
            return self._sweep(output, taps)
        if op.kind == "sweep-sized":
            return self._sized(output, taps)
        if op.kind == "rate":
            return self._rate(op, output)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def _general(self, op, output, taps) -> list[str]:
        got = {name: (arg, res) for name, arg, res in taps}
        inst, p1 = got["bounds.lower_bound_p1"]
        doc = json.loads(output)
        errors = self.general_bound("P1", inst, p1)
        if op.kind == "optimize":
            report = got["optimizer.optimize_mccs"][1]
            p2 = got["bounds.lower_bound_p2"][1]
            for key, value in (("lb_p1", p1.value), ("lb_p2", p2.value),
                               ("rate_mccs", report.rate_mccs), ("rate_ccs_opt", report.rate_ccs_opt)):
                errors += self.close(f"printed {key}", doc[key], value, PRINT_TOL)
            if not np.allclose(doc["placement"], report.best.matrix, atol=PRINT_TOL, rtol=0):
                errors.append("printed placement differs from the search result")
        else:
            errors += self.close("printed P1", doc["value"], p1.value, PRINT_TOL)
            report = self.lib.optimizer.optimize_mccs(inst, with_bounds=False)
            p2 = self.lib.bounds.lower_bound_p2(inst)
        errors += self.placement("P2", inst, p2.placement.matrix)
        errors += self.placement("search", inst, report.best.matrix)
        errors += self.chain([("lb_p1", p1.value), ("lb_p2", p2.value),
                              ("rate_mccs", report.rate_mccs), ("rate_ccs_opt", report.rate_ccs_opt)])
        errors += self.closed_form(inst, report.best.matrix, report.rate_mccs)
        return errors

    @staticmethod
    def _points(output, taps) -> tuple[list[dict], list[dict[str, tuple]]]:
        """CSV rows and, in the same order, the tapped results per sweep point."""
        lines = output.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        points: dict[int, dict[str, tuple]] = {}
        for name, arg, res in taps:
            points.setdefault(id(arg), {})[name] = (arg, res)
        return rows, list(points.values())

    def _sweep(self, output, taps) -> list[str]:
        rows, points = self._points(output, taps)
        if len(rows) != len(points):
            return [f"{len(rows)} CSV rows for {len(points)} computed points"]
        errors = []
        for i, (row, point) in enumerate(zip(rows, points)):
            inst, report = point["optimizer.optimize_mccs"]
            p2 = point["bounds.lower_bound_p2"][1]
            for key, value in (("mccs_opt", report.rate_mccs), ("ccs_opt", report.rate_ccs_opt),
                               ("lb_p2", p2.value)):
                errors += self.close(f"point {i} printed {key}", row[key], value, PRINT_TOL)
            errors += self.placement(f"point {i} search", inst, report.best.matrix)
            errors += self.placement(f"point {i} P2", inst, p2.placement.matrix)
            errors += self.chain([("lb_p2", p2.value), ("rate_mccs", report.rate_mccs),
                                  ("rate_ccs_opt", report.rate_ccs_opt)])
        inst, report = points[0]["optimizer.optimize_mccs"]
        errors += self.closed_form(inst, report.best.matrix, report.rate_mccs)
        return errors

    def _sized(self, output, taps) -> list[str]:
        rows, points = self._points(output, taps)
        if len(rows) != len(points):
            return [f"{len(rows)} CSV rows for {len(points)} computed points"]
        errors = []
        for i, (row, point) in enumerate(zip(rows, points)):
            inst, p4 = point["optimizer.solve_p4_lp"]
            p5 = point["bounds.lower_bound_p5"][1]
            errors += self.close(f"point {i} printed p4", row["p4"], p4.value, PRINT_TOL)
            errors += self.close(f"point {i} printed lb_p5", row["lb_p5"], p5.value, PRINT_TOL)
            errors += self.placement(f"point {i} P4", inst, p4.placement.matrix)
            errors += self.chain([("lb_p5", p5.value), ("p4", p4.value)])
            rate = self.lib.delivery.expected_rate("mccs", inst, p4.placement.matrix)
            errors += self.close(f"point {i} P4 attainment", rate, p4.value, EXACT_TOL)
            errors += self.general_bound(f"point {i} P5", inst, p5)
        return errors

    def _rate(self, op, value) -> list[str]:
        inst, a = op.inst, op.placement
        closed = self.lib.closedform
        errors = self.placement("rate", inst, a)
        mccs = closed.avg_rate_closed(inst, a)
        if op.scheme == "mccs":
            errors += self.close("closed form vs enumeration", mccs, value, EXACT_TOL)
            errors += self.chain([("lb_p2", self.lib.bounds.lower_bound_p2(inst).value),
                                  ("rate_mccs", value)])
        else:
            errors += self.close("closed form vs enumeration (ccs)",
                                 closed.avg_rate_ccs_closed(inst, a), value, EXACT_TOL)
            errors += self.chain([("rate_mccs", mccs), ("rate_ccs", value)])
        return errors
