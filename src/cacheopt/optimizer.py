"""Cache placement search over closed-form file-grouping candidates.

Optimal popularity-first placements cluster the files into at most three
groups sharing a placement vector: a most-popular group cached across user
subsets, possibly a middle group split between one cache level and the
server, and a tail group left at the server.  Two closed forms build every
candidate of that shape: ``one_group_candidate`` (a prefix at its uniform
split) and ``two_group_candidate`` over (n_o, n_top, l_o, l_1), where
l_1 = l_o is case 2i and n_top < N adds the server tail.  Each candidate is
labelled (kind, n_o, n_1) by the runs of identical rows its matrix realizes,
scored with the polynomial-time average-rate expression, and the minimizer
kept.  Tuples outside their validity ranges are skipped, never clamped.  The
search streams its tuples and holds one best candidate per scheme, so its
memory is O(N K); its time still grows as N^2 K^2, with no guard.

``solve_p3_lp`` solves the same minimization exactly as an LP and certifies
the search: the family includes the empty-first-group boundary (n_o = 0, a
prefix split between the server and one cache level), where the optimum can
sit under strongly skewed popularity, and the search matches the LP on the
reference instances and on randomized grids.  ``solve_p4_lp`` drops the
ordering restriction and handles nonuniform file sizes through an epigraph LP
with one variable per (message level, requested-file set), counted from (N, K)
by ``delivery.set_counts`` and sized by ``model.check_placement_program``
before its weights are computed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .bounds import lower_bound_p1, lower_bound_p2
from .closedform import g_coefficients, rate_from_coefficients
from .delivery import message_weights, set_counts
from .model import (Instance, LpOptimum, binom, check_placement_program, placement_program,
                    solve_placement)

_TOL = 1e-12


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
        """Runs of identical rows; popularity-first order keeps equal rows adjacent."""
        return {"one_group": 1, "three_group": 3}.get(self.kind, 2)

    def sort_key(self) -> tuple:
        return (self.n_groups, self.n_o, *(v or 0 for v in (self.n_1, self.l_o, self.l_1)))


@dataclass(frozen=True)
class OptimizeReport:
    """Search outcome plus the bound context for the gap."""

    best: GroupingCandidate
    rate_mccs: float
    rate_ccs_opt: float | None = None
    lb_p1: float | None = None
    lb_p2: float | None = None
    gap: float | None = None


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


def _labelled(matrix: np.ndarray, l_o: int | None, l_1: int | None) -> GroupingCandidate:
    """Candidate labelled by the runs of identical rows its matrix realizes
    (n_o, n_1 are the run ends): boundary tuples can collapse neighbouring
    groups, so the constructor arguments do not name the grouping."""
    m = np.ascontiguousarray(matrix)
    breaks = [fi + 1 for fi in range(m.shape[0] - 1)
              if m[fi].tobytes() != m[fi + 1].tobytes()]
    if not breaks:
        return GroupingCandidate("one_group", m.shape[0], None, l_o, l_1, matrix)
    if len(breaks) == 1:
        if m[-1, 0] == 1.0 and not m[-1, 1:].any():
            kind = "two_group_server"
        else:
            kind = "two_group_2ii" if l_1 is not None else "two_group_2i"
        return GroupingCandidate(kind, breaks[0], None, l_o, l_1, matrix)
    return GroupingCandidate("three_group", breaks[0], breaks[1], l_o, l_1, matrix)


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
    return _labelled(matrix, int(math.floor(v + _TOL)), None)


def two_group_candidate(inst: Instance, n_o: int, l_o: int, l_1: int,
                        n_top: int | None = None) -> GroupingCandidate | None:
    """Files 1..n_o share e1, n_o+1..n_top split between the server and level
    l_o, and the rest stay at the server (n_top defaults to N).

    t and s follow from the partition and exact-cache identities: e1 holds
    t/C(K,l_o) at l_o and s/C(K,l_1) at l_1, the split rows 1-t at the server
    and t/C(K,l_o) at l_o.  Either l_o >= KM/n_top and l_1 <= KM/n_o, or the
    reverse.  l_1 == l_o is case 2i (first group fully at l_o), the only case
    that allows n_o = 0: an empty first group, with no KM/n_o bracket.
    """
    k, n = inst.n_users, inst.n_files
    top = n if n_top is None else n_top
    if not (0 <= n_o < top <= n and 1 <= l_o <= k and 1 <= l_1 <= k) or (
            n_o == 0 and l_1 != l_o):
        return None
    km = inst.cache_size * k
    cond_up = l_o >= km / top - _TOL and (n_o == 0 or l_1 <= km / n_o + _TOL)
    cond_dn = n_o > 0 and l_o <= km / top + _TOL and l_1 >= km / n_o - _TOL
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
    e1 = np.zeros(k + 1)
    if l_1 == l_o:
        e1[l_o] = 1.0 / binom(k, l_o)  # t/C + s/C is not bit-equal to 1/C
    else:
        e1[l_o] = t / binom(k, l_o)
        e1[l_1] = max(s, 0.0) / binom(k, l_1)
    e2 = np.zeros(k + 1)
    e2[0] = 1.0 - t
    e2[l_o] = t / binom(k, l_o)
    matrix = np.vstack([
        np.tile(e1, (n_o, 1)),
        np.tile(e2, (top - n_o, 1)),
        np.tile(_server_row(k), (n - top, 1)),
    ]) + 0.0  # clears negative zeros from boundary arithmetic
    return _labelled(matrix, l_o, None if l_1 == l_o else l_1)


def _candidates(inst: Instance) -> Iterator[GroupingCandidate | None]:
    """Every closed-form tuple's candidate, None where the tuple is invalid:
    one-group prefixes first, then the split-with-server family with
    n_top = N before the three-group tops 1..N-1."""
    n, k = inst.n_files, inst.n_users
    for n_o in range(1, n + 1):
        yield one_group_candidate(inst, n_o)
    for top in (n, *range(1, n)):
        for n_o in range(top):
            for l_o in range(1, k + 1):
                for l_1 in range(1, k + 1):
                    yield two_group_candidate(inst, n_o, l_o, l_1, n_top=top)


def _best(inst: Instance, coefs: tuple[np.ndarray, ...]) -> list[GroupingCandidate]:
    """Lowest-rate candidate under each coefficient matrix, in one pass over the
    family; near-ties go to the simplest grouping (sort_key).

    Boundary tuples can rebuild a placement already built.  One whose matrix,
    rounded to 12 decimals, equals the current best's never replaces it, so
    the first producer (and its l_o, l_1) keeps the label.
    """
    best: list[GroupingCandidate | None] = [None] * len(coefs)
    for cand in _candidates(inst):
        if cand is None:
            continue
        for i, coef in enumerate(coefs):
            rate, held = rate_from_coefficients(coef, cand.matrix), best[i]
            if held is None or (
                    (rate < held.rate - 1e-12
                     or rate < held.rate + 1e-12 and cand.sort_key() < held.sort_key())
                    and not np.array_equal(np.round(cand.matrix, 12), np.round(held.matrix, 12))):
                best[i] = replace(cand, rate=rate)
    if best[0] is None:
        raise RuntimeError("candidate search produced no feasible placement; this is a bug")
    return best


def optimize_ccs(inst: Instance) -> GroupingCandidate:
    """Best placement for the all-subsets baseline scheme (same candidate family)."""
    if not inst.uniform_sizes:
        raise ValueError("the grouping search requires uniform file sizes")
    return _best(inst, (g_coefficients(inst).g_ccs,))[0]


def optimize_mccs(inst: Instance, *, with_bounds: bool = True,
                  with_ccs: bool = True) -> OptimizeReport:
    """Grouping search for the redundancy-removing scheme, with bound context.

    The bounds come first, so their size guards refuse an instance before the
    search runs.
    """
    if not inst.uniform_sizes:
        raise ValueError("the grouping search requires uniform file sizes; see solve_p4_lp")
    lb1 = lower_bound_p1(inst).value if with_bounds else None
    lb2 = lower_bound_p2(inst).value if with_bounds else None
    coeffs = g_coefficients(inst)
    best, *ccs = _best(inst, (coeffs.g, coeffs.g_ccs) if with_ccs else (coeffs.g,))
    gap = best.rate - lb1 if with_bounds else None
    return OptimizeReport(best, best.rate, ccs[0].rate if ccs else None, lb1, lb2, gap)


def solve_p3_lp(inst: Instance, *, scheme: str = "mccs") -> LpOptimum:
    """The grouping search's problem as an explicit LP (certification path)."""
    if not inst.uniform_sizes:
        raise ValueError("this LP is formulated for uniform file sizes")
    if scheme not in ("mccs", "ccs"):
        raise ValueError("scheme must be 'mccs' or 'ccs'")
    check_placement_program(inst, exact_cache=True, ordered=True)
    coeffs = g_coefficients(inst)
    g = coeffs.g if scheme == "mccs" else coeffs.g_ccs
    return solve_placement(placement_program(inst, g.ravel(), exact_cache=True, ordered=True), inst)


def solve_p4_lp(inst: Instance) -> LpOptimum:
    """Exact average-rate minimization for nonuniform sizes, no order restriction.

    One epigraph variable per (message level, requested-file set) key of
    ``message_weights``, by level and then by set size, bounds the padded
    message size, with one row per file in the set; its objective weight is
    the key's expected message count.
    """
    n, k = inst.n_files, inst.n_users
    keys = [key for _, key in set_counts(inst)]  # per set size s
    check_placement_program(inst, sum(keys), sum(s * c for s, c in enumerate(keys, 1)))
    weights = message_weights(inst)
    cols, counts = zip(*[(files * (k + 1) + l, w[:, l]) for l in range(k)
                         for files, w in weights if files.shape[1] <= l + 1])
    n_a, width = n * (k + 1), np.concatenate([np.full(len(b), b.shape[1]) for b in cols])
    owner, col = np.repeat(np.arange(len(width)), width), np.concatenate([b.ravel() for b in cols])
    lhs = np.zeros((len(col), n_a))
    lhs[np.arange(len(col)), col] = 1.0
    c = np.concatenate([np.zeros(n_a), *counts])
    return solve_placement(placement_program(inst, c, (lhs, owner)), inst)
