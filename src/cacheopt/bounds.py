"""Information-theoretic lower bounds on the average delivery rate.

The per-demand bound depends only on the set D of distinct requested files:
every ordering pi of D yields the rate sum_{l<K} sum_i C(K-i,l) a_{pi(i),l},
and the bound takes the best ordering.  Averaging over D with the exact
distinct-set probabilities and minimizing over feasible placements gives three
linear programs:

* ``lower_bound_p1`` -- any uncoded placement of unit-size files; the max
  over orderings is linearized with one epigraph variable per distinct set and
  one constraint per ordering (all |D|! of them are enumerated).
* ``lower_bound_p2`` -- placements of unit-size files restricted to
  popularity-first order, where the best ordering is popularity order and no
  epigraph is needed.
* ``lower_bound_p5`` -- the P1 program with per-file sizes on the partition
  constraint; placement entries and the cache budget are in bits.

P1 and P2 reject nonuniform sizes rather than silently solving P5's program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Sequence, Union

import numpy as np

from .delivery import conditional_expected_distinct
from .lp import LpProblem, SizeGuardError
from .model import (
    DistinctSet,
    Instance,
    Placement,
    PlacementLike,
    as_matrix,
    binom,
    is_popularity_first,
    placement_program,
    solve_placement,
)

MAX_PERMUTATION_ROWS = 60_000
MAX_DISTINCT_SET = 10

DistinctLike = Union[DistinctSet, Sequence[int]]


def _distinct_files(D: DistinctLike) -> tuple[int, ...]:
    if isinstance(D, DistinctSet):
        return D.files
    return tuple(sorted({int(v) for v in D}))


def _position_weights(n_users: int, size: int) -> np.ndarray:
    """w[i-1, l] = C(K-i, l) for positions i = 1..size and l = 0..K-1."""
    return np.array([[binom(n_users - i, l) for l in range(n_users)]
                     for i in range(1, size + 1)], dtype=float)


def rlb_general(D: DistinctLike, a: PlacementLike) -> float:
    """Per-distinct-set bound: best ordering over all |D|! bijections."""
    files = _distinct_files(D)
    if len(files) > MAX_DISTINCT_SET:
        raise SizeGuardError(f"|D| = {len(files)} exceeds the {MAX_DISTINCT_SET}! enumeration guard")
    m = as_matrix(a)
    k = m.shape[1] - 1
    w = _position_weights(k, len(files))
    scores = m[[f - 1 for f in files], :k] @ w.T  # scores[j, i-1]: file j at position i
    best = -math.inf
    for perm in permutations(range(len(files))):
        val = sum(scores[f_idx, pos] for pos, f_idx in enumerate(perm))
        if val > best:
            best = val
    return float(best)


def rlb_popfirst(D: DistinctLike, a: PlacementLike) -> float:
    """Per-distinct-set bound with files taken in popularity order.

    Equals rlb_general for popularity-first placements, without the |D|! search.
    """
    m = as_matrix(a)
    if not is_popularity_first(m):
        raise ValueError("rlb_popfirst requires a popularity-first placement")
    files = _distinct_files(D)
    k = m.shape[1] - 1
    w = _position_weights(k, len(files))
    return float(sum(w[i] @ m[f - 1, :k] for i, f in enumerate(files)))


def distinct_set_probability(inst: Instance, D: DistinctLike) -> float:
    """P(Unique(d) = D) by inclusion-exclusion over subsets of D."""
    files = _distinct_files(D)
    p = inst.popularity
    k = inst.n_users
    total = 0.0
    for r in range(len(files) + 1):
        sign = (-1) ** (len(files) - r)
        for sub in combinations(files, r):
            mass = sum(p[f - 1] for f in sub)
            total += sign * mass ** k
    return float(total)


def enumerate_distinct_sets(inst: Instance) -> Iterator[tuple[int, ...]]:
    """All possible distinct sets, by size then lexicographically."""
    top = min(inst.n_files, inst.n_users)
    for size in range(1, top + 1):
        yield from combinations(range(1, inst.n_files + 1), size)


@dataclass(frozen=True)
class BoundResult:
    """Optimal bound value with the placement achieving it."""

    value: float
    placement: Placement
    which: str  # 'P1' | 'P2' | 'P5'
    iterations: int = 0


def _epigraph_problem(inst: Instance) -> LpProblem:
    """The P1/P5 epigraph LP: t_D >= the rate of every ordering of D."""
    n, k = inst.n_files, inst.n_users
    n_a = n * (k + 1)
    dsets = list(enumerate_distinct_sets(inst))
    n_rows = sum(math.factorial(len(d)) for d in dsets)
    if n_rows > MAX_PERMUTATION_ROWS:
        raise SizeGuardError(
            f"{n_rows} ordering constraints exceed the {MAX_PERMUTATION_ROWS}-row guard")
    c = np.zeros(n_a + len(dsets))
    lhs = np.zeros((n_rows, n_a))
    owner = np.zeros(n_rows, dtype=int)
    w = _position_weights(k, min(n, k))  # rows do not depend on |D|
    r = 0
    for j, d in enumerate(dsets):
        c[n_a + j] = distinct_set_probability(inst, d)
        for perm in permutations(d):
            for pos, f in enumerate(perm):
                lhs[r, (f - 1) * (k + 1):(f - 1) * (k + 1) + k] = w[pos]
            owner[r] = j
            r += 1
    return placement_program(inst, c, (lhs, owner))


def _require_uniform(inst: Instance, which: str):
    if not inst.uniform_sizes:
        raise ValueError(f"bound {which} assumes uniform file sizes; use lower_bound_p5")


def lower_bound_p1(inst: Instance) -> BoundResult:
    """General uncoded-placement lower bound on the average rate."""
    _require_uniform(inst, "P1")
    value, placement, iterations = solve_placement(_epigraph_problem(inst), inst)
    return BoundResult(value, placement, "P1", iterations)


def lower_bound_p5(inst: Instance) -> BoundResult:
    """The general bound with nonuniform file sizes (everything in bits)."""
    value, placement, iterations = solve_placement(_epigraph_problem(inst), inst)
    return BoundResult(value, placement, "P5", iterations)


def p2_objective(inst: Instance) -> np.ndarray:
    """Average-rate objective over a for popularity-first placements.

    weight[n, l] = sum over distinct sets containing n of
    prob(D) * C(K - rank_D(n), l), rank taken in popularity order.
    """
    n, k = inst.n_files, inst.n_users
    w = np.zeros((n, k + 1))
    pw = _position_weights(k, min(n, k))  # rows do not depend on |D|
    for d in enumerate_distinct_sets(inst):
        prob = distinct_set_probability(inst, d)
        for pos, f in enumerate(d):  # d sorted ascending = popularity order
            w[f - 1, :k] += prob * pw[pos]
    return w


def lower_bound_p2(inst: Instance) -> BoundResult:
    """Lower bound restricted to popularity-first placements (plain LP)."""
    _require_uniform(inst, "P2")
    problem = placement_program(inst, p2_objective(inst).ravel(), ordered=True)
    value, placement, iterations = solve_placement(problem, inst)
    return BoundResult(value, placement, "P2", iterations)


def conditional_expected_bound_distinct(inst: Instance, a: PlacementLike) -> float:
    """Expected rlb_popfirst over all-distinct demands, renormalized."""
    return conditional_expected_distinct(inst, a, rlb_popfirst)
