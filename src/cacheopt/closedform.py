"""Polynomial-time closed form of the average delivery rate.

For popularity-first placements the expected rate is linear in the placement
entries: E[rate] = sum_{n,l} g[n,l] * a[n,l].  The coefficient matrix g splits
into a baseline term (every subset's message, a telescoping power of tail
probabilities) minus a correction for the skipped redundant messages.  The
correction is driven by the joint probabilities P[i,u,n] that the demand has u
distinct requests and that file n is requested by the i-th non-leader user
when non-leaders are ranked by decreasing popularity of their request
(ascending file index; index breaks popularity ties).  P is obtained by exact
enumeration over demand multiset classes rather than a combinatorial formula.
Nothing is cached: to score many placements of one instance, compute g once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delivery import demand_class_table
from .model import Instance, PlacementLike, as_matrix, binom, is_popularity_first


@dataclass(frozen=True)
class RateCoefficients:
    """Average-rate coefficients for one (N, K, popularity) triple.

    ``g`` is the N x (K+1) matrix for the redundancy-removing scheme and
    ``g_ccs`` the baseline-only first term.
    """

    g: np.ndarray
    g_ccs: np.ndarray


def redundancy_probabilities(inst: Instance) -> np.ndarray:
    """P[i, u, n] by exact enumeration over ``demand_class_table``.

    For each class: u is the number of distinct requests (first requesters);
    the other positions hold the non-leader requests, sorted ascending by file
    index (most popular first), and the class probability accumulates at each
    of them under its rank i in that list.
    """
    n, k = inst.n_files, inst.n_users
    reps, first, prob = demand_class_table(inst)
    redundant = ~first
    rank = np.cumsum(redundant, axis=1)
    distinct = np.broadcast_to(first.sum(axis=1)[:, None], reps.shape)
    p_iun = np.zeros((k + 1, k + 1, n + 1))
    # row-major selection: classes in order, ranks ascending within a class
    np.add.at(p_iun, (rank[redundant], distinct[redundant], reps[redundant]),
              np.broadcast_to(prob[:, None], reps.shape)[redundant])
    return p_iun


def g_coefficients(inst: Instance) -> RateCoefficients:
    """Rate coefficients of (N, K, popularity); every call enumerates the demand classes."""
    n, k = inst.n_files, inst.n_users
    p = inst.popularity
    tails = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]])  # tails[n-1] = sum_{n'>=n} p

    g_ccs = np.zeros((n, k + 1))
    for fi in range(n):
        for l in range(k):
            g_ccs[fi, l] = binom(k, l + 1) * (
                tails[fi] ** (l + 1) - tails[fi + 1] ** (l + 1))

    # Removed redundant messages: at level l there are C(K-u-i, l) redundant
    # subsets of size l+1 whose padded size is set by the i-th ranked
    # non-leader request, so that request's file absorbs coefficient
    # C(K-u-i, l) -- summed over ranks this recovers the C(K-u, l+1)
    # redundant subsets of the level.
    p_iun = redundancy_probabilities(inst)
    correction = np.zeros((n, k + 1))
    for u in range(1, min(n, k) + 1):
        for l in range(0, k - u):
            for i in range(1, k - u - l + 1):  # C(K-u-i, l) vanishes past i = K-u-l
                correction[:, l] += binom(k - u - i, l) * p_iun[i, u, 1:]

    return RateCoefficients(g=g_ccs - correction, g_ccs=g_ccs)


def rate_from_coefficients(coef: np.ndarray, a: PlacementLike) -> float:
    """Expected rate sum(coef * a) of a popularity-first a; ``coef`` is ``g`` or ``g_ccs``."""
    m = as_matrix(a)
    if not is_popularity_first(m):
        raise ValueError("closed-form rates require a popularity-first placement")
    return float(np.sum(coef * m))


def avg_rate_closed(inst: Instance, a: PlacementLike) -> float:
    """Closed-form expected rate of the redundancy-removing scheme."""
    return rate_from_coefficients(g_coefficients(inst).g, a)


def avg_rate_ccs_closed(inst: Instance, a: PlacementLike) -> float:
    """Closed-form expected rate of the all-subsets baseline scheme."""
    return rate_from_coefficients(g_coefficients(inst).g_ccs, a)
