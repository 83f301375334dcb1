"""The exact uniform-demand rate as an oracle at sizes no enumeration reaches.

Under uniform popularity the rate-optimal uncoded placement splits every file
evenly over the user subsets of size t = KM/N, which is ``one_group_candidate``
with every file in the group, and its average rate is Yu, Maddah-Ali and
Avestimehr's R_t (``conftest.yu_uniform_rate``).
"""

import numpy as np
import pytest

from cacheopt.bounds import lower_bound_p1, lower_bound_p2
from cacheopt.closedform import g_coefficients
from cacheopt.delivery import expected_rate
from cacheopt.lp import SizeGuardError
from cacheopt.model import Instance, zipf_popularity
from cacheopt.optimizer import one_group_candidate, optimize_mccs, solve_p3_lp, solve_p4_lp

from conftest import yu_uniform_rate

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


@pytest.mark.parametrize("n,k", SIZES[:2])
def test_expected_rate_gives_uniform_rate(n, k):
    for t in range(k + 1):
        inst = corner(n, k, t)
        assert expected_rate("mccs", inst, one_group_candidate(inst, n).matrix) == pytest.approx(
            float(yu_uniform_rate(n, k, t)), abs=1e-12)


@pytest.mark.parametrize("n,k", SIZES[2:])
def test_expected_rate_refuses_past_key_guard(n, k):
    inst = corner(n, k, 1)
    with pytest.raises(SizeGuardError, match="keys"):
        expected_rate("mccs", inst, one_group_candidate(inst, n).matrix)


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
