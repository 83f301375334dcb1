"""Shared generators for randomized suites, and enumeration oracles.

Placements are drawn from inside the popularity-first feasible region by
stacking rows bottom-up: each file adds a nonnegative increment on top of the
next-less-popular file's row, spending part of that row's server share, so the
partition, ordering, and nonnegativity constraints hold by construction.

The oracles compute what the library computes by per-file passes the slow way:
by listing the demand multiset classes, the requested-file sets or the
all-distinct demands, or, at uniform popularity, by the exact rate of Yu,
Maddah-Ali and Avestimehr (IEEE Trans. Inf. Theory, 2018).  The per-file
passes themselves have an unfused oracle: one whole join per state map, so
three per file, that the fused passes must match bit for bit.  The grouping
search's oracle lists its candidate family, deduplicated by placement, and
picks from the list.  The simplex pivot's oracle updates every row of the
tableau with one dense outer product.
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
from cacheopt.delivery import (
    CHUNK,
    _choices,
    _placements,
    _set_probabilities,
    file_sets,
    leader_group,
    message_weights,
)
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
    orderings in lexicographic order, one epigraph block per set size;
    P1/P5 generate a subset of these rows.
    """
    k = inst.n_users
    blocks, costs = [], []
    for files in file_sets(inst):
        s = files.shape[1]
        orderings = [ordering for D in files.tolist() for ordering in itertools.permutations(D)]
        owner = len(costs) + np.repeat(np.arange(len(files)), math.factorial(s))
        weights = np.array([[binom(k - 1 - i, l) for l in range(k)] for i in range(s)], dtype=float)
        blocks.append((owner, np.array(orderings), weights))
        costs += [distinct_set_probability(inst, D) for D in (files + 1).tolist()]
    c = np.concatenate([np.zeros(inst.n_files * (k + 1)), costs])
    return placement_program(inst, c, blocks)


def enumerated_distinct_expectation(inst: Instance, a, rate) -> float:
    """Expected ``rate(demand, a)`` given that all K requests are distinct, by
    walking the C(N, K) file sets: each set is weighed by the product of its
    popularities (its K! user orders are equally likely, and ``rate_mccs`` and
    ``rlb_popfirst`` ignore order)."""
    demands = list(itertools.combinations(range(1, inst.n_files + 1), inst.n_users))
    weights = [math.prod(inst.popularity[f - 1] for f in d) for d in demands]
    return math.fsum(w * rate(d, a) for d, w in zip(demands, weights)) / math.fsum(weights)


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


def unfused_join(ways: np.ndarray, p: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``delivery``'s per-file step, one whole join per state map: every row of
    ``ways`` and the file's powers p^c recomputed each time."""
    k, (states, rows) = ways.shape[0] - 1, ways.shape[1:]
    placed = (_placements(k) @ ways.reshape(k + 1, -1)).reshape(k + 1, k + 1, states, rows)
    placed *= (p ** np.arange(k + 1)[:, None])[:, None, :]
    return phi @ placed.reshape(k + 1, (k + 1) * states, rows)


def unfused_by_padded_file(inst: Instance, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``delivery._by_padded_file`` by three whole joins per file."""
    n, k, p = inst.n_files, inst.n_users, inst.popularity[order]
    head = np.concatenate([[0.0], np.cumsum(p)[:-1]])
    ways = np.zeros((k + 1, 2 * k + 2, 1))
    ways[0, 0] = 1.0
    counts = np.zeros((2, n, k + 1))
    for f in range(n - 1, -1, -1):
        inside = unfused_join(ways, p[f:f + 1], _choices(k, 1, k))
        top = unfused_join(inside, head[f:f + 1], _choices(k, 0, 0))
        counts[:, f, :k] = top[k, :, 0].reshape(2, k + 1)[:, 1:]
        ways = unfused_join(ways, p[f:f + 1], _choices(k, 0, k))
    return counts[1], counts[1] + counts[0]


def unfused_by_rank(inst: Instance) -> np.ndarray:
    """``delivery._by_rank`` (P2's weights) by three whole joins per file."""
    n, k, p = inst.n_files, inst.n_users, inst.popularity
    tail = np.append(np.cumsum(p[::-1])[::-1][1:], 0.0)
    ways = np.zeros((k + 1, 2 * k + 2, 1))
    ways[0, 0] = 1.0
    w = np.zeros((n, k + 1))
    for f in range(n):
        held = unfused_join(ways, p[f:f + 1], _choices(k, 1, k))
        held[:, :k + 1] = 0.0
        w[f, :k] = unfused_join(held, tail[f:f + 1], _choices(k, 0, k))[k, k + 2:, 0]
        ways = unfused_join(ways, p[f:f + 1], _choices(k, 0, k))
        ways[:, k + 1:] = 0.0
    return w


def unfused_forward(inst: Instance, files: np.ndarray, phi: np.ndarray, outside: np.ndarray,
                    states: np.ndarray) -> np.ndarray:
    """``delivery._forward`` by whole joins, the other files' one included,
    CHUNK rows at a time."""
    n, k, p = inst.n_files, inst.n_users, inst.popularity
    out = np.empty((len(files), len(states)))
    for start in range(0, len(files), CHUNK):
        rows = files[start:start + CHUNK]
        rest = np.ones((len(rows), n), dtype=bool)
        rest[np.arange(len(rows))[:, None], rows] = False
        ways = np.zeros((k + 1, len(phi), len(rows)))
        ways[0, 0] = 1.0
        ways = unfused_join(ways, rest @ p, outside)
        for col in rows.T:
            ways = unfused_join(ways, p[col], phi)
        out[start:start + CHUNK] = ways[k, states].T
    return out


def unfused_set_probabilities(inst: Instance, files: np.ndarray) -> np.ndarray:
    """``delivery._set_probabilities``, the outside join admitting c = 0 only."""
    c = np.arange(inst.n_users + 1)[None, :]
    return unfused_forward(inst, files, (c > 0) * 1.0, (c == 0) * 1.0, np.zeros(1, np.intp))[:, 0]


def unfused_message_weights(inst: Instance) -> list[tuple[np.ndarray, np.ndarray]]:
    """``delivery.message_weights`` by whole joins."""
    k = inst.n_users
    hits = np.arange(k + 2, 2 * k + 2)
    return [(files, unfused_forward(inst, files, _choices(k, 1, k), _choices(k, 0, 0), hits))
            for files in file_sets(inst)]


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
