"""Information-theoretic lower bounds on the average delivery rate.

The per-demand bound depends only on the set D of distinct requested files,
passed as any sequence of 1-based files (a demand will do; ``delivery.distinct_set``
reduces it).  Every ordering pi of D yields the rate
sum_{l<K} sum_i C(K-i,l) a_{pi(i),l}, and the bound takes the best ordering,
found by a subset DP in |D| 2^(|D|-1) steps without listing the |D|!
orderings.  Averaging over D with the exact distinct-set probabilities and
minimizing over feasible placements gives three LPs, each returning the
``model.LpOptimum`` of ``solve_placement`` (the explicit dual).  Each tableau
is sized before its program is built (``model.check_placement_program``, the
one LP size guard, called by ``placement_program``; it bounds memory, not time):

* ``lower_bound_p1`` -- any uncoded placement of unit-size files; the max
  over orderings is linearized with one epigraph variable per distinct set of
  positive probability and one constraint per ordering, generated only while
  violated (a cutting-plane loop from each set's popularity order) and passed
  to ``placement_program`` as one block of file indices per set size.  The
  sets D and their probabilities come from ``delivery.file_sets``; its key
  guard and the first round's tableau are checked from (N, K) before the
  table is built.
* ``lower_bound_p2`` -- placements of unit-size files restricted to
  popularity-first order, where the best ordering is popularity order and no
  epigraph is needed; its weights come from ``delivery._by_rank``.
* ``lower_bound_p5`` -- the P1 program with per-file sizes on the partition
  constraint; placement entries and the cache budget are in bits.

P1 and P2 reject nonuniform sizes rather than silently solving P5's program.
Given K distinct requests, the bound averages with no file sets (``delivery._distinct_counts``).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .closedform import rate_from_coefficients
from .delivery import _by_rank, _distinct_counts, _set_probabilities, distinct_set, file_sets, set_counts
from .lp import PIVOT_TOL, SizeGuardError
from .model import (
    Instance,
    LpOptimum,
    PlacementLike,
    as_matrix,
    binom,
    check_placement_program,
    file_rows,
    is_popularity_first,
    placement_program,
    solve_placement,
)

MAX_DISTINCT_SET = 10


def _distinct_rows(D: Sequence[int], n_files: int) -> np.ndarray:
    """Zero-based rows of D's distinct files, ascending (``model.file_rows``)."""
    return file_rows(distinct_set(D), n_files)


def _check_users(rows: np.ndarray, m: np.ndarray) -> None:
    """Refuse a distinct set (its ``rows``) with more files than ``m`` has users."""
    if len(rows) > m.shape[1] - 1:
        raise ValueError(f"distinct set has {len(rows)} files, the placement has {m.shape[1] - 1} users")


@lru_cache(maxsize=None)
def _position_weights(n_users: int, size: int) -> np.ndarray:
    """w[i-1, l] = C(K-i, l) for positions i = 1..size and l = 0..K-1 (read-only)."""
    w = np.array([[binom(n_users - i, l) for l in range(n_users)]
                  for i in range(1, size + 1)], dtype=float)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _subset_layers(size: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per position i = 2..size: the subsets of range(size) with i members (bit masks),
    each without one member j, and j's flat score index j * size + i - 1."""
    bits = (np.arange(1 << size)[:, None] >> np.arange(size)) & 1
    layers = []
    for i in range(2, size + 1):
        subsets = np.flatnonzero(bits.sum(axis=1) == i)
        members = np.nonzero(bits[subsets])[1].reshape(-1, i)
        layers.append((subsets, subsets[:, None] ^ (1 << members), members * size + i - 1))
    return layers


def _best_orderings(scores: np.ndarray, floor: np.ndarray | None = None):
    """Best orderings of sets of one size, by a DP over subsets (Held-Karp).

    scores[j, i, ...] is the rate of file j at position i + 1; trailing axes
    index the sets.  best[S] = max_{j in S} best[S - j] + scores[j, |S| - 1]
    sums from 0.0 one position at a time, as enumeration does, and rounding is
    monotone, so the max is bit-identical.  Returns the best rates alone when
    ``floor`` is None, else (rates, sets, orders): sets beat ``floor`` by more
    than PIVOT_TOL and orders[r, i] is the file at position i + 1 of sets[r].
    """
    size = scores.shape[0]
    flat = scores.reshape((size * size,) + scores.shape[2:])
    best = np.zeros((1 << size,) + scores.shape[2:])
    best[1 << np.arange(size)] += scores[:, 0]
    for subsets, rest, cell in _subset_layers(size):
        best[subsets] = (best[rest] + flat[cell]).max(axis=1)
    if floor is None:
        return best[-1]
    sets = np.flatnonzero(best[-1] - floor > PIVOT_TOL)
    orders = np.zeros((sets.size, size), dtype=np.intp)
    subset, files = np.full(sets.size, (1 << size) - 1), np.arange(size)
    for i in range(size - 1, -1, -1):  # peel off the file the DP put last
        steps = best[subset[:, None] ^ (1 << files), sets[:, None]] + scores[:, i, sets].T
        steps[(subset[:, None] >> files) & 1 == 0] = -np.inf
        orders[:, i] = steps.argmax(axis=1)
        subset ^= 1 << orders[:, i]
    return best[-1], sets, orders


def rlb_general(D: Sequence[int], a: PlacementLike) -> float:
    """Per-distinct-set bound: the best of all |D|! orderings of D."""
    m = as_matrix(a)
    rows = _distinct_rows(D, len(m))
    _check_users(rows, m)
    if len(rows) > MAX_DISTINCT_SET:
        raise SizeGuardError(
            f"|D| = {len(rows)} exceeds the {MAX_DISTINCT_SET}-file guard of the best-ordering DP")
    scores = m[rows, :-1] @ _position_weights(m.shape[1] - 1, len(rows)).T
    return float(_best_orderings(scores))


def rlb_popfirst(D: Sequence[int], a: PlacementLike) -> float:
    """Per-distinct-set bound with files taken in popularity order.

    Equals rlb_general for popularity-first placements, without the |D|! search.
    """
    m = as_matrix(a)
    if not is_popularity_first(m):
        raise ValueError("rlb_popfirst requires a popularity-first placement")
    rows = _distinct_rows(D, len(m))
    _check_users(rows, m)
    k = m.shape[1] - 1
    w = _position_weights(k, len(rows))
    return float(sum(w[i] @ m[r, :k] for i, r in enumerate(rows)))


def distinct_set_probability(inst: Instance, D: Sequence[int]) -> float:
    """P(Unique(d) = D), summed over the request counts of D's files."""
    return float(_set_probabilities(inst, _distinct_rows(D, inst.n_files)[None])[0])


def _generated_bound(inst: Instance) -> LpOptimum:
    """Solve the P1/P5 epigraph LP by generating its ordering rows (Kelley).

    The full LP has a row rate(ordering) <= t_D per ordering of each distinct
    set D.  Start from each D's popularity-order row; each round adds each D's
    best ordering at the last placement while it beats D's rows by more than
    PIVOT_TOL.  The loop ends at a relaxation whose optimum meets every row,
    the full optimum.  A set of probability 0 (it holds a file nobody
    requests) has a t that costs nothing and bounds nothing, so it is left
    out.  Per set size, the active rows are one sorted table
    [set, file at position 1, ...], passed to ``placement_program`` as an
    epigraph block; iterations sums pivots.
    """
    n, k, top = inst.n_files, inst.n_users, min(inst.n_files, inst.n_users)
    n_sets = sum(sets for sets, _ in set_counts(inst))
    check_placement_program(inst, n_sets, n_sets)  # round 1: each set's popularity order
    probs = [(files, _set_probabilities(inst, files)) for files in file_sets(inst)]
    table = [(files[p > 0], p[p > 0]) for files, p in probs if p.any()]
    c = np.concatenate([np.zeros(n * (k + 1))] + [prob for _, prob in table])
    first = np.cumsum([0] + [len(files) for files, _ in table])  # first set of each size
    w = _position_weights(k, top)
    active = [np.hstack([np.arange(len(files))[:, None], files]) for files, _ in table]
    pivots = 0
    while True:
        epigraph = [(start + rows[:, 0], rows[:, 1:], w[:rows.shape[1] - 1])
                    for rows, start in zip(active, first)]
        opt = solve_placement(placement_program(inst, c, epigraph), inst)
        pivots += opt.iterations
        x = opt.placement.matrix
        new = []
        for (files, _), rows in zip(table, active):
            weights, beaten = w[:files.shape[1]], np.full(len(files), -np.inf)
            np.maximum.at(beaten, rows[:, 0], (x[rows[:, 1:], :k] * weights).sum(axis=(1, 2)))
            _, sets, orders = _best_orderings(np.moveaxis(x[files, :k] @ weights.T, 0, -1), beaten)
            new.append(np.hstack([sets[:, None], np.take_along_axis(files[sets], orders, axis=1)]))
        if not any(len(rows) for rows in new):
            return replace(opt, iterations=pivots)
        # lexsort, not np.unique(axis=0), which imports numpy.ma on first use
        active = [rows[np.lexsort(rows.T[::-1])] for rows in map(np.vstack, zip(active, new))]
        if any((rows[1:] == rows[:-1]).all(axis=1).any() for rows in active):
            raise RuntimeError("a violated set's best ordering is already active; this is a bug")


def _require_uniform(inst: Instance, which: str):
    if not inst.uniform_sizes:
        raise ValueError(f"bound {which} assumes uniform file sizes; use lower_bound_p5")


def lower_bound_p1(inst: Instance) -> LpOptimum:
    """General uncoded-placement lower bound on the average rate."""
    _require_uniform(inst, "P1")
    return _generated_bound(inst)


def lower_bound_p5(inst: Instance) -> LpOptimum:
    """The general bound with nonuniform file sizes (everything in bits)."""
    return _generated_bound(inst)


def lower_bound_p2(inst: Instance) -> LpOptimum:
    """Lower bound restricted to popularity-first placements (plain LP)."""
    _require_uniform(inst, "P2")
    return solve_placement(placement_program(inst, _by_rank(inst).ravel(), ordered=True), inst)


def conditional_expected_bound_distinct(inst: Instance, a: PlacementLike) -> float:
    """Expected rlb_popfirst given K distinct requests: ``_distinct_counts`` in popularity order."""
    return rate_from_coefficients(_distinct_counts(inst, np.arange(inst.n_files)), a)
