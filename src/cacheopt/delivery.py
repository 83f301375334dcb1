"""Exact per-demand and expected delivery rates.

Two delivery strategies are evaluated on the same placement:

* the baseline scheme sends one coded message per nonempty user subset
  (``rate_ccs``);
* the redundancy-removing scheme skips messages for subsets disjoint from a
  leader group covering the distinct requests (``rate_mccs``).

Messages mixing subfiles of different sizes are padded to the largest subfile,
so a message for subset S at level l costs max_{k in S} a_{d_k, l}.
Expectations over random demands are exact: the N^K demand vectors are grouped
into multiset classes weighted by their multinomial probabilities (every rate
here is invariant under user relabeling), listed once per call by
``demand_class_table``.  ``message_weights``, the redundancy probabilities of
``closedform`` and the all-distinct conditional expectations read that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement
from typing import Iterator

import numpy as np

from .lp import SizeGuardError
from .model import (
    DemandLike,
    DistinctSet,
    Instance,
    PlacementLike,
    as_matrix,
    as_requests,
    binom,
    is_popularity_first,
)

ENUMERATION_GUARD = 10 ** 7


@dataclass(frozen=True)
class LeaderGroup:
    """One requester per distinct file; lowest user index breaks ties."""

    users: tuple[int, ...]


@dataclass(frozen=True)
class RedundancyProfile:
    """Redundant-request counts of a demand.

    ``distinct`` lists the distinct files in nonincreasing popularity order
    (ascending file index); ``per_file[i]`` counts the redundant requests for
    the i-th of them; ``cumulative[i]`` is the running total with
    ``cumulative[0] == 0``.
    """

    distinct: tuple[int, ...]
    per_file: tuple[int, ...]
    cumulative: tuple[int, ...]


def distinct_set(d: DemandLike) -> DistinctSet:
    return DistinctSet(tuple(as_requests(d)))


def leader_group(d: DemandLike) -> LeaderGroup:
    """The deterministic leader group: for each distinct file, its first requester."""
    requests = as_requests(d)
    return LeaderGroup(tuple(u for u, f in enumerate(requests, 1) if f not in requests[:u - 1]))


def redundancy_profile(d: DemandLike) -> RedundancyProfile:
    requests = as_requests(d)
    files = sorted(set(requests))
    per_file = tuple(requests.count(f) - 1 for f in files)
    cum = [0]
    for v in per_file:
        cum.append(cum[-1] + v)
    return RedundancyProfile(tuple(files), per_file, tuple(cum))


def coded_message_size(subset, d: DemandLike, a: PlacementLike) -> float:
    """Size of the padded message for user subset ``subset`` (1-based users)."""
    users = tuple(subset)
    if not users:
        raise ValueError("subset must be nonempty")
    requests = as_requests(d)
    m = as_matrix(a)
    l = len(users) - 1
    return float(max(m[requests[k - 1] - 1, l] for k in users))


def _rate_with_leaders(requests: tuple[int, ...], m: np.ndarray,
                       leaders: tuple[int, ...] | None) -> float:
    """Sum of padded message sizes over subsets meeting ``leaders`` (all if None)."""
    k_users = len(requests)
    leader_set = set(leaders) if leaders is not None else None
    total = 0.0
    rows = [m[f - 1] for f in requests]
    for size in range(1, k_users + 1):
        l = size - 1
        for subset in combinations(range(k_users), size):
            if leader_set is not None and not any((u + 1) in leader_set for u in subset):
                continue
            total += max(rows[u][l] for u in subset)
    return total


def rate_mccs(d: DemandLike, a: PlacementLike) -> float:
    """Delivery rate with redundant messages skipped."""
    requests = as_requests(d)
    return _rate_with_leaders(requests, as_matrix(a), leader_group(requests).users)


def rate_ccs(d: DemandLike, a: PlacementLike) -> float:
    """Delivery rate with one message per nonempty user subset."""
    requests = as_requests(d)
    return _rate_with_leaders(requests, as_matrix(a), None)


def rate_mccs_lemma3(d: DemandLike, a: PlacementLike) -> float:
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
    requests = as_requests(d)
    k_users = len(requests)
    prof = redundancy_profile(requests)
    u = len(prof.distinct)
    total = 0.0
    for i in range(1, u + 1):
        coef = np.zeros(k_users)
        for l in range(k_users):
            first = sum(binom(k_users - j - prof.cumulative[i - 1], l)
                        for j in range(i, u + 1))
            second = sum(binom(k_users - j - prof.cumulative[i], l)
                         for j in range(i + 1, u + 1))
            coef[l] = first - second
        total += float(coef @ m[prof.distinct[i - 1] - 1, :k_users])
    return total


def demand_class_table(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The demand multiset classes as one table ``(reps, first, prob)``.

    ``reps[c]`` is class c's sorted representative demand (1-based files,
    classes in lexicographic order), ``first[c, j]`` is True where user j + 1
    is its file's first requester, and ``prob[c]`` is the class probability: the
    running product of the requested popularities times K! / prod(count!).
    Raises ``SizeGuardError`` before allocating when N^K exceeds ``ENUMERATION_GUARD``.
    """
    n, k = inst.n_files, inst.n_users
    if n ** k > ENUMERATION_GUARD:
        raise SizeGuardError(f"N^K = {n ** k} exceeds the exact-enumeration guard")
    count = math.comb(n + k - 1, k)
    reps = np.fromiter(chain.from_iterable(combinations_with_replacement(range(1, n + 1), k)),
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


def demand_classes(inst: Instance) -> Iterator[tuple[tuple[int, ...], float]]:
    """The rows of ``demand_class_table`` as (representative, probability); the
    guard raises at the first ``next()``."""
    reps, _, prob = demand_class_table(inst)
    yield from zip(map(tuple, reps.tolist()), prob.tolist())


def message_weights(inst: Instance, scheme: str) -> dict[tuple[int, tuple[int, ...]], float]:
    """Expected message count per key (level l, requested-file set), keys sorted.

    A message for user subset S has level l = |S| - 1 and is padded to
    max_{f in files} a[f, l], so its size depends only on the file set S
    requests.  One walk over user subsets, each a numpy step over all demand
    classes, counts every subset for 'ccs' and for 'mccs' those meeting the
    class's first requesters (its leader group).  Guarded on classes x subsets.
    """
    if scheme not in ("mccs", "ccs"):
        raise ValueError(f"scheme must be 'mccs' or 'ccs', got {scheme!r}")
    n, k = inst.n_files, inst.n_users
    pairs = math.comb(n + k - 1, k) * ((1 << k) - 1)
    if pairs > ENUMERATION_GUARD:
        raise SizeGuardError(f"{pairs} classes x user subsets exceed the exact-enumeration guard")
    reps, first, prob = demand_class_table(inst)
    # user bitmasks ascending: a mask requests its rest's files and its lowest user's, the
    # smallest (reps are sorted), coded as base-(N+1) digits; a key's level comes from its
    # masks alone, so one level at a time keeps each key's sum in class-major order
    base = n + 1
    leaders = (first if scheme == "mccs" else np.ones_like(first)) @ (1 << np.arange(k))
    codes, items = {0: np.zeros(len(prob), dtype=np.int64)}, []
    for size in range(1, k + 1):
        masks = np.array([mask for mask in range(1, 1 << k) if bin(mask).count("1") == size])
        block = np.empty((len(prob), len(masks)), dtype=np.int64)
        for j, mask in enumerate(masks.tolist()):
            rest, f = codes[mask & (mask - 1)], reps[:, (mask & -mask).bit_length() - 1]
            codes[mask] = block[:, j] = np.where(rest % base == f, rest, rest * base + f)
        hit = leaders[:, None] & masks != 0  # classes x masks, class-major as the sums run
        keys, index = np.unique(block[hit], return_inverse=True)
        weights = np.bincount(index, np.broadcast_to(prob[:, None], hit.shape)[hit])
        items += [((size - 1, tuple(filter(None, (key // base ** i % base for i in range(k))))), w)
                  for key, w in zip(keys.tolist(), weights.tolist())]
    return dict(sorted(items))


def expected_rate(rate_fn: str, inst: Instance, a: PlacementLike) -> float:
    """Exact average rate of scheme ``rate_fn`` ('mccs' or 'ccs') over random demands.

    The ``math.fsum`` of W * max_{f in files} a[f, l] over ``message_weights``.
    """
    m = as_matrix(a)
    return math.fsum(w * max(m[f - 1, l] for f in files)
                     for (l, files), w in message_weights(inst, rate_fn).items())


def conditional_expected_distinct(inst: Instance, a: PlacementLike, rate) -> float:
    """Expected ``rate(demand, a)`` given that all K requests are distinct.

    Uses the renormalized product measure on the all-distinct rows of
    ``demand_class_table``; requires K <= N for the conditioning event to be possible.
    """
    if inst.n_users > inst.n_files:
        raise ValueError("all-distinct conditioning requires K <= N")
    m = as_matrix(a)
    reps, first, prob = demand_class_table(inst)
    distinct = first.all(axis=1)
    weights = prob[distinct].tolist()
    total = math.fsum(weights)
    if total == 0.0:
        raise ValueError("all-distinct demands have zero probability")
    return math.fsum(w * rate(rep, m) for rep, w in zip(reps[distinct].tolist(), weights)) / total


def conditional_expected_rate_distinct(inst: Instance, a: PlacementLike) -> float:
    """Expected rate_mccs given that all K requests are distinct."""
    return conditional_expected_distinct(inst, a, rate_mccs)
