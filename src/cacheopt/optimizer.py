"""Cache placement search over closed-form file-grouping candidates.

Optimal popularity-first placements cluster the files into at most three
groups sharing a placement vector: a most-popular group cached across user
subsets, possibly a middle group split between one cache level and the
server, and a tail group left at the server.  The search instantiates every
candidate of that shape from closed-form constructions over the tuple grid
(n_o, n_1, l_o, l_1), scores each with the polynomial-time average-rate
expression, and keeps the minimizer.  Candidates whose formulas leave their
validity ranges (or produce a negative entry) are skipped, never clamped.

``solve_p3_lp`` solves the same minimization exactly as an LP and certifies
the search: the family includes the empty-first-group boundary (n_o = 0, a
prefix split between the server and one cache level), where the optimum can
sit under strongly skewed popularity, and the search matches the LP on the
reference instances and on randomized grids.  ``solve_p4_lp`` drops the
ordering restriction and handles nonuniform file sizes through an epigraph LP
with one variable per (message level, requested-file set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import lower_bound_p1, lower_bound_p2
from .closedform import g_coefficients, rate_from_coefficients
from .delivery import message_weights
from .lp import SizeGuardError
from .model import Instance, Placement, binom, placement_program, solve_placement

_TOL = 1e-12
P4_MAX_USERS = 4
P4_MAX_FILES = 7


@dataclass(frozen=True)
class GroupingCandidate:
    """One closed-form placement candidate from the grouping search."""

    kind: str  # 'one_group' | 'two_group_server' | 'two_group_2i' | 'two_group_2ii' | 'three_group'
    n_o: int
    n_1: int | None
    l_o: int | None
    l_1: int | None
    matrix: np.ndarray
    rate: float = math.nan

    @property
    def n_groups(self) -> int:
        return len({row.tobytes() for row in np.ascontiguousarray(self.matrix)})

    def sort_key(self) -> tuple:
        n1 = self.n_1 if self.n_1 is not None else 0
        lo = self.l_o if self.l_o is not None else 0
        l1 = self.l_1 if self.l_1 is not None else 0
        return (self.n_groups, self.n_o, n1, lo, l1)


@dataclass(frozen=True)
class OptimizeReport:
    """Search outcome plus the bound context for the gap."""

    best: GroupingCandidate
    rate_mccs: float
    rate_ccs_opt: float | None = None
    lb_p1: float | None = None
    lb_p2: float | None = None
    gap: float | None = None


@dataclass(frozen=True)
class LpOptimum:
    placement: Placement
    value: float
    iterations: int


def _uniform_prefix_vector(k: int, v: float) -> np.ndarray | None:
    """Placement vector caching fraction v/K of a file across level floor(v).

    Splits the file between levels floor(v) and floor(v)+1 so the partition
    sums to one and the per-user cache use is exactly v/K. None when v > K.
    """
    if v < -_TOL or v > k + _TOL:
        return None
    v = min(max(v, 0.0), float(k))
    l_o = int(math.floor(v + _TOL))
    frac = v - l_o
    if frac < _TOL or l_o >= k:
        l_o = min(l_o, k)
        frac = 0.0
    e = np.zeros(k + 1)
    e[l_o] = (1.0 + l_o - v) / binom(k, l_o)
    if frac > 0.0:
        e[l_o + 1] = frac / binom(k, l_o + 1)
    return e


def _server_row(k: int) -> np.ndarray:
    e = np.zeros(k + 1)
    e[0] = 1.0
    return e


def one_group_candidate(inst: Instance, n_o: int) -> GroupingCandidate | None:
    """Files 1..n_o share the uniform-split vector; the rest stay at the server.

    Covers both the single-group optimum (n_o = N) and the two-group case with
    an uncached second group.  Invalid (None) when the prefix cannot absorb the
    whole cache, i.e. v = MK/n_o > K.
    """
    k, n = inst.n_users, inst.n_files
    if not 1 <= n_o <= n:
        raise ValueError("n_o must be in 1..N")
    v = inst.cache_size * k / n_o
    prefix = _uniform_prefix_vector(k, v)
    if prefix is None:
        return None
    matrix = np.vstack([np.tile(prefix, (n_o, 1)),
                        np.tile(_server_row(k), (n - n_o, 1))]) + 0.0
    kind = "one_group" if n_o == n else "two_group_server"
    l_o = int(math.floor(v + _TOL))
    return GroupingCandidate(kind, n_o, None, l_o, None, matrix)


def two_group_case2i(inst: Instance, n_o: int, l_o: int,
                     n_top: int | None = None) -> GroupingCandidate | None:
    """First group fully cached at one level; second group split with the server.

    a_{n,l_o} = 1/C(K,l_o) for n <= n_o; file n_o+1..n_top put fraction t of
    the cache level and keep 1-t at the server, t = (KM/l_o - n_o)/(n_top - n_o).
    Valid while l_o lies between KM/n_top and KM/n_o (boundaries degenerate
    gracefully into neighbouring cases).  n_o may be 0: the first group is then
    empty, files 1..n_top are split with t = KM/(l_o n_top), and the KM/n_o
    bracket is void.
    """
    k, n = inst.n_users, inst.n_files
    top = n if n_top is None else n_top
    if not (0 <= n_o < top <= n) or not 1 <= l_o <= k:
        return None
    km = inst.cache_size * k
    if l_o < km / top - _TOL or (n_o > 0 and l_o > km / n_o + _TOL):
        return None
    t = (km / l_o - n_o) / (top - n_o)
    if not -_TOL <= t <= 1 + _TOL:
        return None
    t = min(max(t, 0.0), 1.0)
    e1 = np.zeros(k + 1)
    e1[l_o] = 1.0 / binom(k, l_o)
    e2 = np.zeros(k + 1)
    e2[0] = 1.0 - t
    e2[l_o] = t / binom(k, l_o)
    matrix = np.vstack([
        np.tile(e1, (n_o, 1)),
        np.tile(e2, (top - n_o, 1)),
        np.tile(_server_row(k), (n - top, 1)),
    ]) + 0.0  # clears negative zeros from boundary arithmetic
    kind = "two_group_2i" if top == n else "three_group"
    return GroupingCandidate(kind, n_o, None if top == n else top, l_o, None, matrix)


def two_group_case2ii(inst: Instance, n_o: int, l_o: int, l_1: int,
                      n_top: int | None = None) -> GroupingCandidate | None:
    """First group split over two cache levels; second group over (server, l_o).

    The three unknown entry values follow from the partition and exact-cache
    identities; position pairs must satisfy one of the two bracketing
    conditions (l_o above KM/n_top with l_1 below KM/n_o, or the reverse).
    """
    k, n = inst.n_users, inst.n_files
    top = n if n_top is None else n_top
    if not (1 <= n_o < top <= n) or l_o == l_1:
        return None
    if not (1 <= l_o <= k and 1 <= l_1 <= k):
        return None
    km = inst.cache_size * k
    cond_up = l_o >= km / top - _TOL and l_1 <= km / n_o + _TOL
    cond_dn = l_o <= km / top + _TOL and l_1 >= km / n_o - _TOL
    if not (cond_up or cond_dn):
        return None
    den = (l_o / l_1) * top - n_o
    if abs(den) < _TOL:
        return None
    t = (km / l_1 - n_o) / den
    s = ((l_o / l_1) * top - km / l_1) / den
    if t < -_TOL or s < -_TOL or t > 1 + _TOL:
        return None
    t = min(max(t, 0.0), 1.0)
    s = max(s, 0.0)
    e1 = np.zeros(k + 1)
    e1[l_o] = t / binom(k, l_o)
    e1[l_1] = s / binom(k, l_1)
    e2 = np.zeros(k + 1)
    e2[0] = 1.0 - t
    e2[l_o] = e1[l_o]
    matrix = np.vstack([
        np.tile(e1, (n_o, 1)),
        np.tile(e2, (top - n_o, 1)),
        np.tile(_server_row(k), (n - top, 1)),
    ]) + 0.0
    kind = "two_group_2ii" if top == n else "three_group"
    return GroupingCandidate(kind, n_o, None if top == n else top, l_o, l_1, matrix)


def three_group_candidates(inst: Instance, n_o: int, n_1: int, l_o: int,
                           l_1: int) -> GroupingCandidate | None:
    """Three groups: the first two follow the two-group cases over files 1..n_1,
    and files n_1+1..N stay at the server.

    n_o may be 0 when l_o == l_1 (case 2i with an empty first group; the KM/n_o
    bracket is then void); case 2ii needs a nonempty first group.
    """
    if not 0 <= n_o < n_1 <= inst.n_files - 1:
        return None
    if l_o == l_1:
        return two_group_case2i(inst, n_o, l_o, n_top=n_1)
    return two_group_case2ii(inst, n_o, l_o, l_1, n_top=n_1)


def enumerate_candidates(inst: Instance) -> list[GroupingCandidate]:
    """All valid closed-form candidates, deduplicated by realized placement.

    Boundary parameter values make different generators emit identical
    matrices; the first producer wins, and the enumeration runs from the
    simplest structure up so collapsed candidates keep their natural labels.
    """
    n, k = inst.n_files, inst.n_users
    out: list[GroupingCandidate] = []
    seen: set[bytes] = set()

    def add(cand: GroupingCandidate | None):
        if cand is None:
            return
        key = np.ascontiguousarray(np.round(cand.matrix, 12) + 0.0).tobytes()
        if key not in seen:
            seen.add(key)
            out.append(cand)

    for n_o in range(1, n + 1):
        add(one_group_candidate(inst, n_o))
    for n_o in range(n):
        for l_o in range(1, k + 1):
            add(two_group_case2i(inst, n_o, l_o))
            for l_1 in range(1, k + 1):
                if l_1 != l_o:
                    add(two_group_case2ii(inst, n_o, l_o, l_1))
    for n_1 in range(1, n):
        for n_o in range(n_1):
            for l_o in range(1, k + 1):
                for l_1 in range(1, k + 1):
                    add(three_group_candidates(inst, n_o, n_1, l_o, l_1))
    return out


def _canonical(cand: GroupingCandidate) -> GroupingCandidate:
    """Relabel a candidate by the grouping its matrix actually realizes.

    Boundary parameter values can collapse neighbouring groups; tie-breaking
    and reporting use the realized runs of identical rows, not the generator
    arguments.
    """
    m = np.ascontiguousarray(cand.matrix)
    breaks = [fi + 1 for fi in range(m.shape[0] - 1)
              if m[fi].tobytes() != m[fi + 1].tobytes()]
    if not breaks:
        return replace(cand, kind="one_group", n_o=m.shape[0], n_1=None)
    if len(breaks) == 1:
        server = m[-1, 0] == 1.0 and not m[-1, 1:].any()
        kind = "two_group_server" if server else cand.kind
        if kind == "three_group":
            kind = "two_group_2ii" if cand.l_1 is not None else "two_group_2i"
        return replace(cand, kind=kind, n_o=breaks[0], n_1=None)
    return replace(cand, kind="three_group", n_o=breaks[0], n_1=breaks[1])


def _canonical_candidates(inst: Instance) -> list[GroupingCandidate]:
    return [_canonical(cand) for cand in enumerate_candidates(inst)]


def _best(cands: list[GroupingCandidate], coef: np.ndarray) -> GroupingCandidate:
    """Lowest-rate candidate under ``coef``; near-ties go to the simplest grouping (sort_key)."""
    best: GroupingCandidate | None = None
    for cand in cands:
        rate = rate_from_coefficients(coef, cand.matrix)
        if best is None or rate < best.rate - 1e-12 or (
                rate < best.rate + 1e-12 and cand.sort_key() < best.sort_key()):
            best = replace(cand, rate=rate)
    if best is None:
        raise RuntimeError("candidate search produced no feasible placement; this is a bug")
    return best


def optimize_ccs(inst: Instance) -> GroupingCandidate:
    """Best placement for the all-subsets baseline scheme (same candidate family)."""
    if not inst.uniform_sizes:
        raise ValueError("the grouping search requires uniform file sizes")
    return _best(_canonical_candidates(inst), g_coefficients(inst).g_ccs)


def optimize_mccs(inst: Instance, *, with_bounds: bool = True,
                  with_ccs: bool = True) -> OptimizeReport:
    """Grouping search for the redundancy-removing scheme, with bound context."""
    if not inst.uniform_sizes:
        raise ValueError("the grouping search requires uniform file sizes; see solve_p4_lp")
    cands = _canonical_candidates(inst)
    coeffs = g_coefficients(inst)
    best = _best(cands, coeffs.g)
    rate_ccs = _best(cands, coeffs.g_ccs).rate if with_ccs else None
    lb1 = lb2 = gap = None
    if with_bounds:
        lb1 = lower_bound_p1(inst).value
        lb2 = lower_bound_p2(inst).value
        gap = best.rate - lb1
    return OptimizeReport(best, best.rate, rate_ccs, lb1, lb2, gap)


def solve_p3_lp(inst: Instance, *, scheme: str = "mccs") -> LpOptimum:
    """The grouping search's problem as an explicit LP (certification path)."""
    if not inst.uniform_sizes:
        raise ValueError("this LP is formulated for uniform file sizes")
    coeffs = g_coefficients(inst)
    if scheme == "mccs":
        g = coeffs.g
    elif scheme == "ccs":
        g = coeffs.g_ccs
    else:
        raise ValueError("scheme must be 'mccs' or 'ccs'")
    problem = placement_program(inst, g.ravel(), exact_cache=True, ordered=True)
    value, placement, iterations = solve_placement(problem, inst)
    return LpOptimum(placement, value, iterations)


def solve_p4_lp(inst: Instance) -> LpOptimum:
    """Exact average-rate minimization for nonuniform sizes, no order restriction.

    One epigraph variable per (message level, requested-file set) key of
    ``message_weights`` bounds the padded message size, with one row per file
    in the set; its objective weight is the key's expected message count.
    """
    n, k = inst.n_files, inst.n_users
    if k > P4_MAX_USERS or n > P4_MAX_FILES:
        raise SizeGuardError(
            f"unrestricted placement LP guarded to K <= {P4_MAX_USERS}, N <= {P4_MAX_FILES}")
    weights = message_weights(inst, "mccs")
    n_a = n * (k + 1)
    rows = [(j, (f - 1) * (k + 1) + l) for j, (l, files) in enumerate(weights) for f in files]
    owner, col = np.array(rows).T
    lhs = np.zeros((len(rows), n_a))
    lhs[np.arange(len(rows)), col] = 1.0
    c = np.concatenate([np.zeros(n_a), list(weights.values())])
    value, placement, iterations = solve_placement(placement_program(inst, c, (lhs, owner)), inst)
    return LpOptimum(placement, value, iterations)
