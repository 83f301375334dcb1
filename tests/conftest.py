"""Shared generators for randomized suites, and enumeration oracles.

Placements are drawn from inside the popularity-first feasible region by
stacking rows bottom-up: each file adds a nonnegative increment on top of the
next-less-popular file's row, spending part of that row's server share, so the
partition, ordering, and nonnegativity constraints hold by construction.

The oracles compute what the library computes by per-file passes the slow way:
by listing the demand multiset classes or the requested-file sets, or, at
uniform popularity, by the exact rate of Yu, Maddah-Ali and Avestimehr (IEEE
Trans. Inf. Theory, 2018).  The grouping search's oracle lists its candidate
family, deduplicated by placement, and picks from the list.  The simplex
pivot's oracle updates every row of the tableau with one dense outer product.
"""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cacheopt.bounds import _position_weights, distinct_set_probability
from cacheopt.closedform import rate_from_coefficients
from cacheopt.delivery import _set_probabilities, file_sets, leader_group, message_weights
from cacheopt.lp import LpProblem, SizeGuardError
from cacheopt.model import Instance, as_matrix, binom, cache_coefficients, placement_program
from cacheopt.optimizer import GroupingCandidate, one_group_candidate, two_group_candidate

pytest_plugins = ["pytester"]  # runs inner pytest sessions


def cache_used(a, n_users: int) -> float:
    """Total per-user cache occupied by a placement."""
    return float((as_matrix(a) @ cache_coefficients(n_users)).sum())


def enumerate_distinct_sets(inst: Instance):
    """All possible distinct sets, by size then lexicographically: ``file_sets``, 1-based."""
    for files in file_sets(inst):
        yield from map(tuple, (files + 1).tolist())


def random_popularity(n: int, rng: np.random.Generator) -> np.ndarray:
    p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    return p / p.sum()


def random_q_placement(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    rows = [None] * n
    mass = rng.dirichlet(np.ones(k + 1))
    rows[n - 1] = np.array([mass[l] / binom(k, l) for l in range(k + 1)])
    for fi in range(n - 2, -1, -1):
        below = rows[fi + 1]
        budget = below[0] * rng.random()
        weights = rng.dirichlet(np.ones(k))
        row = below.copy()
        for l in range(1, k + 1):
            row[l] += budget * weights[l - 1] / binom(k, l)
        row[0] = 1.0 - sum(binom(k, l) * row[l] for l in range(1, k + 1))
        rows[fi] = row
    return np.vstack(rows)


def random_q_instance(n: int, k: int, rng: np.random.Generator) -> tuple[Instance, np.ndarray]:
    """A random instance together with a placement that exactly fills its cache."""
    a = random_q_placement(n, k, rng)
    inst = Instance(n, k, cache_used(a, k), random_popularity(n, rng))
    return inst, a


def full_epigraph_problem(inst: Instance) -> LpProblem:
    """The whole P1/P5 epigraph LP: t_D >= the rate of every ordering of every D.

    Rows are grouped by D (by size, then lexicographically), with D's
    orderings in lexicographic order; P1/P5 generate a subset of these rows.
    """
    n, k = inst.n_files, inst.n_users
    dsets = list(enumerate_distinct_sets(inst))
    lhs, owner = [], []
    for j, D in enumerate(dsets):
        for ordering in itertools.permutations(D):
            row = np.zeros((n, k + 1))
            for i, f in enumerate(ordering):
                row[f - 1, :k] = [binom(k - 1 - i, l) for l in range(k)]
            lhs.append(row.ravel())
            owner.append(j)
    c = np.concatenate([np.zeros(n * (k + 1)),
                        [distinct_set_probability(inst, D) for D in dsets]])
    return placement_program(inst, c, (np.array(lhs), np.array(owner)))


def enumerated_p2_objective(inst: Instance) -> np.ndarray:
    """P2's weights by walking every requested-file set D:
    weight[n, l] = sum_{D containing n} P(D) C(K - rank_D(n), l), ranks in
    popularity order."""
    w = np.zeros((inst.n_files, inst.n_users + 1))
    for files in file_sets(inst):  # rows ascending = popularity order
        prob = _set_probabilities(inst, files)
        pw = _position_weights(inst.n_users, files.shape[1])
        np.add.at(w, (files, slice(inst.n_users)), prob[:, None, None] * pw)
    return w


def demand_class_table(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The demand multiset classes as one table ``(reps, first, prob)``.

    ``reps[c]`` is class c's sorted representative demand (1-based files,
    classes in lexicographic order), ``first[c, j]`` is True where user j + 1
    is its file's first requester, and ``prob[c]`` is the class probability: the
    running product of the requested popularities times K! / prod(count!).
    """
    n, k = inst.n_files, inst.n_users
    count = math.comb(n + k - 1, k)
    reps = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(1, n + 1), k)),
        dtype=np.intp, count=count * k).reshape(count, k)
    first = np.ones(reps.shape, dtype=bool)
    first[:, 1:] = reps[:, 1:] != reps[:, :-1]
    prob, mult, run = np.ones(count), np.ones(count, dtype=np.int64), np.zeros(count, np.int64)
    for j in range(k):
        prob *= inst.popularity[reps[:, j] - 1]
        run = np.where(first[:, j], 1, run + 1)
        # the multinomial of users 1..j+1: an integer <= N^(j+1) at every step, so exact
        mult = mult * (j + 1) // run
    return reps, first, prob * mult


def demand_classes(inst: Instance):
    """The rows of ``demand_class_table`` as (representative, probability)."""
    reps, _, prob = demand_class_table(inst)
    yield from zip(map(tuple, reps.tolist()), prob.tolist())


def enumerated_message_weights(inst: Instance, scheme: str) -> dict:
    """``message_weights`` by walking every user subset of every demand class."""
    weights: dict = {}
    for rep, prob in demand_classes(inst):
        leaders = {u - 1 for u in leader_group(rep)}
        for size in range(1, inst.n_users + 1):
            for subset in itertools.combinations(range(inst.n_users), size):
                if scheme == "ccs" or leaders.intersection(subset):
                    key = (size - 1, tuple(sorted({rep[u] for u in subset})))
                    weights[key] = weights.get(key, 0.0) + prob
    return dict(sorted(weights.items()))


def message_weight_dict(inst: Instance) -> dict:
    """``message_weights`` folded into {(level, 1-based file tuple): weight},
    keys sorted: every (l, files) with |files| <= l + 1, zero weights included."""
    weights = {}
    for files, w in message_weights(inst):
        for row, ws in zip((files + 1).tolist(), w.tolist()):
            weights.update(((l, tuple(row)), ws[l]) for l in range(len(row) - 1, inst.n_users))
    return dict(sorted(weights.items()))


def redundancy_probabilities(inst: Instance) -> np.ndarray:
    """P[i, u, n]: the probability that the demand has u distinct requests and
    that file n is requested by the i-th non-leader user, non-leaders ranked
    by their request's popularity (ascending file index)."""
    n, k = inst.n_files, inst.n_users
    reps, first, prob = demand_class_table(inst)
    redundant = ~first
    rank = np.cumsum(redundant, axis=1)
    distinct = np.broadcast_to(first.sum(axis=1)[:, None], reps.shape)
    p_iun = np.zeros((k + 1, k + 1, n + 1))
    np.add.at(p_iun, (rank[redundant], distinct[redundant], reps[redundant]),
              np.broadcast_to(prob[:, None], reps.shape)[redundant])
    return p_iun


def enumerated_g(inst: Instance) -> np.ndarray:
    """The redundancy-removing coefficients g from ``redundancy_probabilities``.

    The baseline's coefficient is a telescoping power of tail probabilities;
    at level l, C(K-u-i, l) redundant subsets are padded by the i-th ranked
    non-leader request, so that request's file gives them back.
    """
    n, k = inst.n_files, inst.n_users
    tails = np.concatenate([np.cumsum(inst.popularity[::-1])[::-1], [0.0]])
    g = np.zeros((n, k + 1))
    for l in range(k):
        g[:, l] = binom(k, l + 1) * (tails[:-1] ** (l + 1) - tails[1:] ** (l + 1))
    p_iun = redundancy_probabilities(inst)
    for u in range(1, min(n, k) + 1):
        for l in range(0, k - u):
            for i in range(1, k - u - l + 1):
                g[:, l] -= binom(k - u - i, l) * p_iun[i, u, 1:]
    return g


def yu_uniform_rate(n: int, k: int, t: int) -> Fraction:
    """Exact average rate at M = N t / K under uniform demand, uncoded placement:
    E[C(K, t+1) - C(K - N_e, t+1)] / C(K, t), with N_e the number of distinct
    requests, P(N_e = u) = C(N, u) S(K, u) u! / N^K and S a Stirling number of
    the second kind."""
    stirling = [[1] + [0] * k]
    for _ in range(k):
        prev = stirling[-1]
        stirling.append([0] + [u * prev[u] + prev[u - 1] for u in range(1, k + 1)])
    return sum(Fraction(math.comb(n, u) * stirling[k][u] * math.factorial(u), n ** k)
               * (math.comb(k, t + 1) - math.comb(k - u, t + 1))
               for u in range(1, min(n, k) + 1)) / math.comb(k, t)


def enumerate_candidates(inst: Instance) -> list[GroupingCandidate]:
    """All valid closed-form candidates, deduplicated by realized placement.

    Boundary tuples can emit identical matrices; the first producer (and its
    l_o, l_1) wins.  One-group prefixes come first, then the split-with-server
    family with n_top = N before the three-group tops 1..N-1.
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
    for top in (n, *range(1, n)):
        for n_o in range(top):
            for l_o in range(1, k + 1):
                for l_1 in range(1, k + 1):
                    add(two_group_candidate(inst, n_o, l_o, l_1, n_top=top))
    return out


def best_candidate(cands: list[GroupingCandidate], coef: np.ndarray) -> GroupingCandidate:
    """Lowest-rate candidate under ``coef``; near-ties go to the simplest grouping (sort_key)."""
    best: GroupingCandidate | None = None
    for cand in cands:
        rate = rate_from_coefficients(coef, cand.matrix)
        if best is None or rate < best.rate - 1e-12 or (
                rate < best.rate + 1e-12 and cand.sort_key() < best.sort_key()):
            best = replace(cand, rate=rate)
    return best


def dense_pivot(tab, row: int, col: int):
    """``lp._Tableau.pivot`` as one dense rank-1 update of the whole tableau."""
    T = tab.T
    piv = T[row, col]
    T[row] = T[row] / piv
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    ccoef = tab.cost[col]
    if ccoef != 0.0:
        tab.cost -= ccoef * T[row]
    tab.basis[row] = col
    tab.iterations += 1


def assert_refused_early(solve, inst: Instance, mib: float) -> None:
    """``solve(inst)`` raises the tableau guard within a second, having traced
    less than 4 MiB, where the refused tableau holds ``mib`` MiB."""
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=rf"tableau \({mib:.0f} MiB\) exceeds"):
            solve(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240801)
