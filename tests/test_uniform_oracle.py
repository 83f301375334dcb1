"""The exact uniform-demand rate as an oracle at sizes no enumeration reaches.

Under uniform popularity the rate-optimal uncoded placement splits every file
evenly over the user subsets of size t = KM/N, which is ``one_group_candidate``
with every file in the group, and its average rate is Yu, Maddah-Ali and
Avestimehr's R_t (``conftest.yu_uniform_rate``).  Given K distinct requests,
the placement that splits every file evenly over the user subsets of one size t
sends each of the C(K, t+1) messages at 1/C(K, t): (K - t) / (t + 1).
"""

import math

import numpy as np
import pytest

from cacheopt.bounds import (conditional_expected_bound_distinct, lower_bound_p1, lower_bound_p2,
                             rlb_popfirst)
from cacheopt.closedform import g_coefficients
from cacheopt.delivery import conditional_expected_rate_distinct, expected_rate, rate_mccs
from cacheopt.model import Instance, zipf_popularity
from cacheopt.optimizer import one_group_candidate, optimize_mccs, solve_p3_lp, solve_p4_lp

from conftest import enumerated_distinct_expectation, yu_uniform_rate

SIZES = [(7, 4), (12, 4), (30, 8), (50, 10)]


def corner(n: int, k: int, t: int) -> Instance:
    return Instance(n, k, n * t / k, np.full(n, 1 / n))


@pytest.mark.parametrize("n,k", SIZES)
def test_coefficients_give_uniform_rate(n, k):
    g = g_coefficients(corner(n, k, 0)).g
    for t in range(k + 1):
        placement = one_group_candidate(corner(n, k, t), n).matrix
        assert float(np.sum(g * placement)) == pytest.approx(
            float(yu_uniform_rate(n, k, t)), abs=1e-12)


@pytest.mark.parametrize("n,k", SIZES)
def test_expected_rate_gives_uniform_rate(n, k):
    # (30,8) and (50,10) lie past the file-set table's key guard, which the
    # expected rates never read
    for t in range(k + 1):
        inst = corner(n, k, t)
        assert expected_rate("mccs", inst, one_group_candidate(inst, n).matrix) == pytest.approx(
            float(yu_uniform_rate(n, k, t)), abs=1e-12)


def test_ordered_bound_meets_uniform_rate_past_key_guard():
    # at theta = 0, P1 <= P2 <= the search and both ends equal R_t; (30,8) has
    # 12,440,544 (level, file set) keys, and P2 reads none of them
    for t in range(9):
        assert lower_bound_p2(corner(30, 8, t)).value == pytest.approx(
            float(yu_uniform_rate(30, 8, t)), abs=1e-12)


def test_search_and_general_bound_meet_uniform_rate():
    for t in range(5):
        inst = corner(7, 4, t)
        want = float(yu_uniform_rate(7, 4, t))
        assert optimize_mccs(inst, with_bounds=False).rate_mccs == pytest.approx(want, abs=1e-12)
        assert lower_bound_p1(inst).value == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n,k", [(8, 4), (12, 3)])
def test_unrestricted_lp_meets_uniform_rate(n, k):
    for t in range(k + 1):
        assert solve_p4_lp(corner(n, k, t)).value == pytest.approx(
            float(yu_uniform_rate(n, k, t)), abs=1e-12)


def test_search_matches_placement_lp_beyond_enumeration():
    inst = Instance(30, 8, 3.0, zipf_popularity(30, 0.8))
    search = optimize_mccs(inst, with_bounds=False, with_ccs=False).rate_mccs
    assert search == pytest.approx(solve_p3_lp(inst).value, abs=1e-9)


def symmetric(n: int, k: int, t: int) -> np.ndarray:
    """Every file split evenly over the C(K, t) user subsets of size t."""
    a = np.zeros((n, k + 1))
    a[:, t] = 1 / math.comb(k, t)
    return a


@pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (7, 5)])
def test_all_distinct_symmetric_rate(n, k):
    # with K distinct requests each of the C(K, t+1) user subsets sends one
    # message of 1/C(K, t): (K - t) / (t + 1)
    for t in range(k + 1):
        inst, a = corner(n, k, t), symmetric(n, k, t)
        for value, rate in ((conditional_expected_rate_distinct(inst, a), rate_mccs),
                            (conditional_expected_bound_distinct(inst, a), rlb_popfirst)):
            assert value == pytest.approx(enumerated_distinct_expectation(inst, a, rate), rel=1e-14)
            assert value == pytest.approx((k - t) / (t + 1), rel=1e-14)


def test_all_distinct_symmetric_rate_past_key_guard():
    # (60,6) has 62,595,879 (level, file set) keys, and neither side reads them
    inst, a = corner(60, 6, 2), symmetric(60, 6, 2)
    assert conditional_expected_rate_distinct(inst, a) == pytest.approx(4 / 3, rel=1e-14)
    assert conditional_expected_bound_distinct(inst, a) == pytest.approx(4 / 3, rel=1e-14)
