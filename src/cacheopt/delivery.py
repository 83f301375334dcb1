"""Exact per-demand and expected delivery rates.

A demand is any sequence of K 1-based file indices, entry k requested by user
k; ``distinct_set``, ``leader_group`` and ``redundancy_profile`` return plain
tuples.  Two delivery strategies are evaluated on the same placement:

* the baseline scheme sends one coded message per nonempty user subset
  (``rate_ccs``);
* the redundancy-removing scheme skips messages for subsets disjoint from a
  leader group covering the distinct requests (``rate_mccs``).

Messages mixing subfiles of different sizes are padded to the largest subfile,
so a message for subset S at level l costs max_{k in S} a_{d_k, l}.
Expectations over random demands are exact and list no demands.  The general
bounds and P4's padded messages sum over requested-file sets, and
``file_sets`` lists them once: one array per set size, guarded on the
(level, file set) keys that ``set_counts`` counts from (N, K) before anything
is allocated.  Users request independently, so a demand's weight factors over
files, and one file joins in two steps: c more users request it (``_placed``,
an O(K^4) product), and a state map ``phi`` picks the b of those c that join
a message's user subset (``_choices``).  Forward over the files of each set
this gives the distinct-set probabilities of ``bounds`` and P4's
``message_weights``; over all files, forward it gives P2's weights and
backward, in a given order, the messages by the file they pad to
(``_by_padded_file``): the exact expected rates and the coefficients of
``closedform``.  Those two passes move each file's one product by two maps,
into the subset or either way, and finish every file's count with one batched
join of the remaining files that computes only row K (``_join_last``), in
O(N K^4) time and O(N K^2) memory.  Given K distinct requests, two passes of
elementary symmetric polynomials count the same messages with no table
(``_distinct_counts``).  Only this module knows both layouts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain, combinations
from typing import Sequence

import numpy as np

from .lp import SizeGuardError
from .model import (
    Instance,
    PlacementLike,
    _whole,
    as_matrix,
    binom,
    file_rows,
    is_popularity_first,
)

KEY_GUARD = 10 ** 7
CHUNK = 1024  # file sets per forward pass, bounding its working arrays


def distinct_set(d: Sequence[int]) -> tuple[int, ...]:
    """The distinct files of a demand or a set, ascending (nonincreasing popularity)."""
    files = tuple(sorted({_whole(f, "file index") for f in d}))
    if not files:
        raise ValueError("distinct set must be nonempty")
    return files


def leader_group(d: Sequence[int]) -> tuple[int, ...]:
    """The deterministic leader group: for each distinct file, its first requester."""
    return tuple(u for u, f in enumerate(d, 1) if f not in d[:u - 1])


def redundancy_profile(d: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Redundant-request counts of a demand: (distinct, per_file, cumulative).

    ``distinct`` is ``distinct_set(d)``; ``per_file[i]`` counts the redundant
    requests for the i-th distinct file; ``cumulative[i]`` is the running total
    with ``cumulative[0] == 0``.
    """
    files = distinct_set(d)
    per_file = tuple(list(d).count(f) - 1 for f in files)
    return files, per_file, tuple(accumulate(per_file, initial=0))


def coded_message_size(subset, d: Sequence[int], a: PlacementLike) -> float:
    """Size of the padded message for user subset ``subset`` (distinct 1-based users)."""
    users = tuple(subset)
    if not users:
        raise ValueError("subset must be nonempty")
    for i, u in enumerate(users):
        if not 1 <= u <= len(d):
            raise ValueError(f"user {u} outside 1..{len(d)}")
        if u in users[:i]:
            raise ValueError(f"user {u} repeated in subset {users}")
    m = as_matrix(a)
    rows = _demand_rows(d, m)
    l = len(users) - 1
    return float(max(m[rows[k - 1], l] for k in users))


def _demand_rows(d: Sequence[int], m: np.ndarray) -> np.ndarray:
    """Zero-based rows of demand ``d``, refused unless it has one request per user of ``m``."""
    if len(d) != m.shape[1] - 1:
        raise ValueError(f"demand has {len(d)} requests, the placement has {m.shape[1] - 1} users")
    return file_rows(d, len(m))


def _rate_with_leaders(requests: Sequence[int], m: np.ndarray,
                       leaders: tuple[int, ...] | None) -> float:
    """Sum of padded message sizes over subsets meeting ``leaders`` (all if None)."""
    k_users = len(requests)
    leader_set = set(leaders) if leaders is not None else None
    total = 0.0
    rows = m[_demand_rows(requests, m)]
    for size in range(1, k_users + 1):
        l = size - 1
        for subset in combinations(range(k_users), size):
            if leader_set is not None and not any((u + 1) in leader_set for u in subset):
                continue
            total += max(rows[u][l] for u in subset)
    return total


def rate_mccs(d: Sequence[int], a: PlacementLike) -> float:
    """Delivery rate with redundant messages skipped."""
    return _rate_with_leaders(d, as_matrix(a), leader_group(d))


def rate_ccs(d: Sequence[int], a: PlacementLike) -> float:
    """Delivery rate with one message per nonempty user subset."""
    return _rate_with_leaders(d, as_matrix(a), None)


def rate_mccs_lemma3(d: Sequence[int], a: PlacementLike) -> float:
    """The redundancy-counting form of rate_mccs, valid for popularity-first a.

    With distinct files phi(1..u) in decreasing popularity and cumulative
    redundant-request counts Nhat, the messages regroup so that a_{phi(i),l}
    carries coefficient
        sum_{j=i..u} C(K-j-Nhat(i-1), l)  -  sum_{j=i+1..u} C(K-j-Nhat(i), l).
    Equals rate_mccs(d, a) exactly for every popularity-first placement.
    """
    m = as_matrix(a)
    if not is_popularity_first(m):
        raise ValueError("rate_mccs_lemma3 requires a popularity-first placement")
    k_users = len(_demand_rows(d, m))  # one request per user, else refused
    distinct, _, cumulative = redundancy_profile(d)
    u, rows = len(distinct), file_rows(distinct, len(m))
    total = 0.0
    for i in range(1, u + 1):
        coef = np.zeros(k_users)
        for l in range(k_users):
            first = sum(binom(k_users - j - cumulative[i - 1], l)
                        for j in range(i, u + 1))
            second = sum(binom(k_users - j - cumulative[i], l)
                         for j in range(i + 1, u + 1))
            coef[l] = first - second
        total += float(coef @ m[rows[i - 1], :k_users])
    return total


@lru_cache(maxsize=None)
def _placements(k: int) -> np.ndarray:
    """[m * (K+1) + c, j] = C(m, c) where j = m - c: the ways to place c more
    requests among m users (read-only)."""
    table = np.zeros((k + 1, k + 1, k + 1))
    for c in range(k + 1):
        for j in range(k + 1 - c):
            table[j + c, c, j] = binom(j + c, c)
    table = table.reshape(-1, k + 1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _choices(k: int, fewest: int, most: int) -> np.ndarray:
    """phi[s', c * S + s] moves a subset from state s to s' when fewest <= b' <=
    most of a file's c requests join it (read-only).  State (flag, b) is
    flag * (K+1) + b of S = 2K + 2.  Of the C(c, b') ways to pick, C(c - 1, b')
    miss the file's first requester (its leader) and C(c - 1, b' - 1) hit it:
    flag 0 (no leader yet) turns 1 on a hit, and flag 1 stays 1."""
    every = np.array([[binom(c, b) for b in range(k + 1)] for c in range(k + 1)], dtype=float)
    miss = np.vstack([np.arange(k + 1) == 0, every[:-1]])
    flags = np.zeros((k + 1, 2, 2, k + 1))  # c, flag before, flag after, b'
    flags[:, 0, 0], flags[:, 0, 1], flags[:, 1, 1] = miss, every - miss, every
    flags[..., :fewest] = flags[..., most + 1:] = 0.0
    shifts = np.array([np.eye(k + 1, k=b) for b in range(k + 1)])  # [b', b, b + b'] = 1
    phi = np.einsum("cxyd,dbe->yecxb", flags, shifts).reshape(2 * k + 2, -1)
    phi.flags.writeable = False
    return phi


def _powers(p: np.ndarray, k: int) -> np.ndarray:
    """[c, r] = p[r]^c for c = 0..K: a file's c requests, per row."""
    return p ** np.arange(k + 1)[:, None]


def _placed(ways: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """``ways[j, s, r]`` weighs j users' demands over the files so far, in state
    s, per row r.  One more file: c more users request it, in C(j + c, c)
    p[r]^c ways (``powers[c, r]``, from ``_powers``), at [j + c, c * S + s, r].
    ``phi @ _placed(ways, powers)`` adds the file; a pass that moves one
    product by two maps computes it once.  Every term is positive, so
    nothing cancels."""
    k, (states, rows) = ways.shape[0] - 1, ways.shape[1:]
    placed = (_placements(k) @ ways.reshape(k + 1, -1)).reshape(k + 1, k + 1, states, rows)
    placed *= powers[:, None, :]
    return placed.reshape(k + 1, (k + 1) * states, rows)


def _join_last(ways: np.ndarray, powers: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Row K of ``phi @ _placed(ways, powers)``, S' x rows, for a join read only
    there: c requests join ways[K - c] alone.  It forms the whole join's
    products and applies ``phi`` by the same matvec, so its bits are those of
    the whole join's row K.  Leading axes of ``ways`` (..., K+1, S, rows) and
    ``powers`` (..., K+1, rows) batch independent joins."""
    *lead, j, states, rows = ways.shape
    k = j - 1
    placed = (_placements(k)[k * (k + 1):] @ ways.reshape(*lead, j, -1)).reshape(ways.shape)
    placed *= powers[..., None, :]
    return phi @ placed.reshape(*lead, j * states, rows)


def set_counts(inst: Instance) -> list[tuple[int, int]]:
    """The file-set table's size, from (N, K) alone: per set size s = 1..min(N, K),
    its C(N, s) file sets and their C(N, s) (K - s + 1) (level, file set) keys,
    one per level l >= s - 1.  Raises ``SizeGuardError`` when the keys exceed
    ``KEY_GUARD``."""
    n, k = inst.n_files, inst.n_users
    counts = [(math.comb(n, s), math.comb(n, s) * (k - s + 1)) for s in range(1, min(n, k) + 1)]
    keys = sum(key for _, key in counts)
    if keys > KEY_GUARD:
        raise SizeGuardError(f"{keys} (level, file set) keys exceed the {KEY_GUARD}-key guard")
    return counts


def file_sets(inst: Instance) -> list[np.ndarray]:
    """The file-set table: per size s = 1..min(N, K), the C(N, s) x s array of
    zero-based file sets in ``combinations`` order, built after ``set_counts``
    admits it."""
    return [np.fromiter(chain.from_iterable(combinations(range(inst.n_files), s)), dtype=np.intp,
                        count=sets * s).reshape(-1, s)
            for s, (sets, _) in enumerate(set_counts(inst), 1)]


def _forward(inst: Instance, files: np.ndarray, phi: np.ndarray, outside: np.ndarray | None,
             states: np.ndarray) -> np.ndarray:
    """``ways[K, states]`` of each row of zero-based ``files``, CHUNK rows at a
    time: the other files join by ``outside`` as one file of their total
    popularity (none of their requests if None), then each file of the row
    joins by ``phi``, the last for row K alone.  Only the kept ``states`` are
    written out."""
    n, k, p = inst.n_files, inst.n_users, inst.popularity
    powers, out = _powers(p, k), np.empty((len(files), len(states)))
    for start in range(0, len(files), CHUNK):
        rows = files[start:start + CHUNK]
        ways = np.zeros((k + 1, len(phi), len(rows)))
        ways[0, 0] = 1.0
        if outside is not None:
            rest = np.ones((len(rows), n), dtype=bool)
            rest[np.arange(len(rows))[:, None], rows] = False
            ways = outside @ _placed(ways, _powers(rest @ p, k))
        for col in rows.T[:-1]:
            ways = phi @ _placed(ways, powers[:, col])
        out[start:start + CHUNK] = _join_last(ways, powers[:, rows[:, -1]], phi)[states].T
    return out


def _set_probabilities(inst: Instance, files: np.ndarray) -> np.ndarray:
    """P(Unique(d) = D) for each row D of zero-based ``files``: no user requests
    a file outside D (so no outside join) and each file of D is requested,
    nothing picked."""
    c = np.arange(inst.n_users + 1)[None, :]
    return _forward(inst, files, (c > 0) * 1.0, None, np.zeros(1, np.intp))[:, 0]


def _by_padded_file(inst: Instance, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mccs, ccs)[i, l]: the expected number of level-l messages whose first
    requested file in ``order`` is order[i], meeting a leader or any.

    One backward pass over ``order``: ``ways`` weighs the demands of the files
    after order[i], any of them in the subset.  order[i] joins from one
    product, in the subset and either way.  Then, for every i at once, the
    files before order[i] join outside the subset as one file of their total
    popularity, row K alone.
    """
    n, k, p = inst.n_files, inst.n_users, inst.popularity[order]
    head = np.concatenate([[0.0], np.cumsum(p)[:-1]])  # head[i] = sum_{i' < i} p
    powers, states = _powers(p, k), 2 * k + 2
    ways = np.zeros((k + 1, states, 1))
    ways[0, 0] = 1.0
    inside = np.empty((n, k + 1, states, 1))
    for f in range(n - 1, -1, -1):
        placed = _placed(ways, powers[:, f:f + 1])
        inside[f], ways = _choices(k, 1, k) @ placed, _choices(k, 0, k) @ placed
    top = _join_last(inside, _powers(head, k).T[..., None], _choices(k, 0, 0))
    counts = np.zeros((2, n, k + 1))
    counts[..., :k] = top.reshape(n, 2, k + 1).transpose(1, 0, 2)[..., 1:]
    return counts[1], counts[1] + counts[0]  # flag 1: a leader is in the subset


def _by_rank(inst: Instance) -> np.ndarray:
    """P2's w[n, l] = sum_{D containing n} P(D) C(K - rank_D(n), l), the expected
    number of (l+1)-subsets of users holding n's leader but no leader of a more
    popular file.  Forward: ``ways`` weighs the files before n, no leader in the
    subset; n joins from one product, with its leader in or not.  Then, for
    every n at once, the files after n join as one file, row K alone."""
    n, k, p = inst.n_files, inst.n_users, inst.popularity
    tail = np.append(np.cumsum(p[::-1])[::-1][1:], 0.0)  # tail[n] = sum_{n' > n} p
    powers, states = _powers(p, k), 2 * k + 2
    ways = np.zeros((k + 1, states, 1))
    ways[0, 0] = 1.0
    held = np.empty((n, k + 1, states, 1))
    for f in range(n):
        placed = _placed(ways, powers[:, f:f + 1])
        held[f], ways = _choices(k, 1, k) @ placed, _choices(k, 0, k) @ placed
        ways[:, k + 1:] = 0.0
    held[:, :, :k + 1] = 0.0  # else a later file's leader turns a miss into a hit
    w = np.zeros((n, k + 1))
    w[:, :k] = _join_last(held, _powers(tail, k).T[..., None], _choices(k, 0, k))[:, k + 2:, 0]
    return w


def message_weights(inst: Instance) -> list[tuple[np.ndarray, np.ndarray]]:
    """Expected message counts of the redundancy-removing scheme, one (files, W)
    pair per block of ``file_sets``: P4's objective.

    A message for user subset U has level l = |U| - 1 and is padded to
    max_{f in S} a[f, l], so its size depends only on the file set S that U
    requests.  W[i, l] is the expected number of level-l messages, meeting a
    leader, whose users request exactly the files of row i of ``files``; it is
    zero for l < s - 1 at set size s.  One forward pass per set.
    """
    k = inst.n_users
    hits = np.arange(k + 2, 2 * k + 2)  # (leader hit, b = l + 1) for l = 0..K-1
    return [(files, _forward(inst, files, _choices(k, 1, k), _choices(k, 0, 0), hits))
            for files in file_sets(inst)]


def _padded_rate(inst: Instance, a: PlacementLike, count) -> float:
    """sum_{l < K} sum_i count(order)[i, l] a[order[i], l], ``order`` column l's
    descending order (any for level 0's one-file messages): the file a level-l
    message pads to comes first.  ``count`` runs once per distinct order."""
    m, n, k = as_matrix(a), inst.n_files, inst.n_users
    if m.shape != (n, k + 1):
        raise ValueError(f"placement must be {n} x {k + 1}, got {m.shape[0]} x {m.shape[1]}")
    orders = np.argsort(-m[:, :k], axis=0, kind="stable")  # one stable sort for every level
    orders[:, 0] = np.arange(n)
    counts, picked = {}, np.empty((n, k))
    for l, order in enumerate(orders.T):
        key = order.tobytes()
        if key not in counts:
            counts[key] = count(order)
        picked[:, l] = counts[key][:, l]
    return math.fsum((picked * m[orders, np.arange(k)]).ravel().tolist())


def expected_rate(rate_fn: str, inst: Instance, a: PlacementLike) -> float:
    """Exact average rate of scheme ``rate_fn`` ('mccs' or 'ccs') over random demands:
    ``_by_padded_file`` once per distinct column order, once for a popularity-first a."""
    if rate_fn not in ("mccs", "ccs"):
        raise ValueError(f"scheme must be 'mccs' or 'ccs', got {rate_fn!r}")
    return _padded_rate(inst, a, lambda order: _by_padded_file(inst, order)[rate_fn == "ccs"])


def _distinct_counts(inst: Instance, order: np.ndarray) -> np.ndarray:
    """``_by_padded_file``'s counts given that the K requests are distinct, when
    both schemes send every message.  A demand is then a K-set D in one of K!
    equally likely user orders: P(D) = prod_D p / e_K(p), e_m the elementary
    symmetric polynomials.  A file with j files of D after it in ``order`` heads
    C(j, l) of D's (l+1)-subsets: p sum_j C(j, l) e_j(after) e_{K-1-j}(before) / e_K(p)."""
    n, k, p = inst.n_files, inst.n_users, inst.popularity[order]
    before, after = np.zeros((2, n + 1, k)) + np.eye(1, k)  # e_m(p[:i]), e_m(p[i:]), m < K
    for i in range(n):
        before[i + 1, 1:] = before[i, 1:] + p[i] * before[i, :-1]
        after[n - 1 - i, 1:] = after[n - i, 1:] + p[n - 1 - i] * after[n - i, :-1]
    total = p @ before[:n, k - 1]  # e_K(p), by the last file of each K-set; 0.0 if K > N
    if total == 0.0:
        raise ValueError("all-distinct demands need K <= N files of positive popularity")
    pascal = np.array([[binom(j, l) for l in range(k + 1)] for j in range(k)], dtype=float)
    return p[:, None] * ((after[1:] * before[:n, ::-1]) @ pascal) / total


def conditional_expected_rate_distinct(inst: Instance, a: PlacementLike) -> float:
    """Expected rate_mccs given that all K requests are distinct."""
    return _padded_rate(inst, a, lambda order: _distinct_counts(inst, order))
