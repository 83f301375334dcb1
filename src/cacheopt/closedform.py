"""Polynomial-time closed form of the average delivery rate.

For popularity-first placements the expected rate is linear in the placement
entries: E[rate] = sum_{n,l} g[n,l] * a[n,l].  A level-l message is padded to
its most popular file's entry, so g[n, l] is the expected number of level-l
messages whose most popular requested file is n: subsets meeting a leader for
the redundancy-removing scheme, every subset for the baseline ``g_ccs``.  One
backward pass of ``delivery``'s per-file step over the files in popularity
order gives both in O(N K^4) time and O(N K^2) memory, with no list of
demands: one product per file, moved by two state maps, then one batched
row-K join for all files.  Nothing is cached: to score many placements of
one instance, compute g once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delivery import _by_padded_file
from .model import Instance, PlacementLike, as_matrix, is_popularity_first


@dataclass(frozen=True)
class RateCoefficients:
    """Average-rate coefficients for one (N, K, popularity) triple.

    ``g`` is the N x (K+1) matrix for the redundancy-removing scheme and
    ``g_ccs`` the baseline one.
    """

    g: np.ndarray
    g_ccs: np.ndarray


def g_coefficients(inst: Instance) -> RateCoefficients:
    """Rate coefficients of (N, K, popularity), by one backward pass in popularity order."""
    return RateCoefficients(*_by_padded_file(inst, np.arange(inst.n_files)))


def rate_from_coefficients(coef: np.ndarray, a: PlacementLike) -> float:
    """Expected rate sum(coef * a) of a popularity-first a; ``coef`` is N x (K+1), as ``g``."""
    m = as_matrix(a)
    if m.shape != coef.shape:  # else one row would broadcast over every file
        raise ValueError(f"placement must be {len(coef)} x {coef.shape[1]}, got {m.shape[0]} x {m.shape[1]}")
    if not is_popularity_first(m):
        raise ValueError("closed-form rates require a popularity-first placement")
    return float(np.sum(coef * m))


def avg_rate_closed(inst: Instance, a: PlacementLike) -> float:
    """Closed-form expected rate of the redundancy-removing scheme."""
    return rate_from_coefficients(g_coefficients(inst).g, a)


def avg_rate_ccs_closed(inst: Instance, a: PlacementLike) -> float:
    """Closed-form expected rate of the all-subsets baseline scheme."""
    return rate_from_coefficients(g_coefficients(inst).g_ccs, a)
