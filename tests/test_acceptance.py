"""Acceptance gate: one test per numbered criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Two assertions are known to fail and are left red on purpose:
the two-user exact-tradeoff equalities (criterion 5) and the stated gap
window of the cache sweep (criterion 10).  Each failure message carries a
minimal numeric witness; the behavior behind criterion 5 is pinned by a
regression test in test_bounds.py.
"""

import time

import numpy as np
import pytest

from cacheopt.bounds import lower_bound_p1, lower_bound_p2, lower_bound_p5
from cacheopt.closedform import avg_rate_ccs_closed, avg_rate_closed
from cacheopt.delivery import (
    conditional_expected_rate_distinct,
    expected_rate,
    rate_mccs,
    rate_mccs_lemma3,
)
from cacheopt.bounds import conditional_expected_bound_distinct, rlb_popfirst
from cacheopt.model import Instance, validate_placement
from cacheopt.optimizer import optimize_mccs, solve_p3_lp, solve_p4_lp

from conftest import (demand_classes, enumerated_distinct_expectation, random_popularity,
                      random_q_placement)

SEED = 20240801

TABLE_INSTANCES = [
    (7, 4, 1.0, 0.56),
    (7, 4, 2.0, 0.56),
    (9, 4, 3.0, 1.2),
    (9, 4, 4.0, 1.2),
    (9, 4, 7.0, 1.2),
]


def randomized_suite():
    """The shared randomized suite of criteria 7-9: small instances, 200 placements."""
    rng = np.random.default_rng(SEED)
    suite = []
    for n in (2, 3, 4):
        for k in (2, 3, 4):
            for _ in range(2):
                inst = Instance(n, k, float(rng.uniform(0, n)), random_popularity(n, rng))
                suite.append(inst)
    placements = []
    i = 0
    while len(placements) < 200:
        inst = suite[i % len(suite)]
        placements.append((inst, random_q_placement(inst.n_files, inst.n_users, rng)))
        i += 1
    return suite, placements


def _report(num, detail):
    print(f"criterion {num:2d}: PASS  {detail}")


def test_c01_reference_placement_small_cache():
    start = time.monotonic()
    rep = optimize_mccs(Instance.from_zipf(7, 4, 1.0, 0.56))
    elapsed = time.monotonic() - start
    assert np.allclose(rep.best.matrix[:, 0], 0.4286, atol=5e-5)
    assert np.allclose(rep.best.matrix[:, 1], 0.1429, atol=5e-5)
    assert np.allclose(rep.best.matrix[:, 2:], 0.0, atol=5e-5)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, f"uniform split (0.4286, 0.1429) for all files in {elapsed:.2f}s")


def test_c02_reference_placement_mid_cache():
    rep = optimize_mccs(Instance.from_zipf(7, 4, 2.0, 0.56), with_bounds=False)
    assert np.allclose(rep.best.matrix[:, 1], 0.2143, atol=5e-5)
    assert np.allclose(rep.best.matrix[:, 2], 0.0238, atol=5e-5)
    _report(2, "uniform split (0.2143 at l=1, 0.0238 at l=2)")


def test_c03_reference_grouping_progression():
    inst3 = Instance.from_zipf(9, 4, 3.0, 1.2)
    rep3 = optimize_mccs(inst3, with_bounds=False, with_ccs=False)
    assert np.allclose(rep3.best.matrix[:4, 3], 0.250, atol=5e-4)
    assert np.allclose(rep3.best.matrix[4:, 0], 1.000, atol=5e-4)
    assert np.allclose(rep3.best.matrix[4:, 1:], 0.0, atol=5e-4)

    rep4 = optimize_mccs(Instance.from_zipf(9, 4, 4.0, 1.2), with_bounds=False,
                         with_ccs=False)
    assert rep4.best.n_groups == 3
    assert np.allclose(rep4.best.matrix[:5, 3], 0.250, atol=5e-4)
    assert abs(rep4.best.matrix[5, 0] - 0.667) < 5e-4
    assert abs(rep4.best.matrix[5, 3] - 0.083) < 5e-4
    assert np.allclose(rep4.best.matrix[6:, 0], 1.000, atol=5e-4)

    rep7 = optimize_mccs(Instance.from_zipf(9, 4, 7.0, 1.2), with_bounds=False,
                         with_ccs=False)
    assert np.allclose(rep7.best.matrix[:, 3], 0.222, atol=5e-4)
    assert np.allclose(rep7.best.matrix[:, 4], 0.111, atol=5e-4)
    _report(3, "two groups at M=3, three at M=4, one at M=7")


def test_c04_transposed_reference_row():
    inst = Instance.from_zipf(7, 4, 6.0, 0.56)
    # constraint-consistent orientation: mass 0.1429 at l=3 and 0.4286 at l=4
    good = np.tile([0.0, 0.0, 0.0, 1 / 7, 3 / 7], (7, 1))
    assert validate_placement(inst, good) == []
    rep = optimize_mccs(inst, with_bounds=False, with_ccs=False)
    assert np.allclose(rep.best.matrix, good, atol=5e-5)
    # printed orientation violates both the partition and the cache budget
    printed = np.tile([0.0, 0.0, 0.0, 3 / 7, 1 / 7], (7, 1))
    kinds = {v.constraint for v in validate_placement(inst, printed)}
    assert "partition" in kinds and "cache" in kinds
    _report(4, "only the transposed orientation is feasible and is the optimum")


def test_c05_two_user_exact_tradeoff():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    bound_gaps = []
    rate_gaps = []
    count = 0
    for n in (2, 3, 5):
        for _ in range(20):
            p = random_popularity(n, rng)
            for m in np.linspace(0, n, 9):
                inst = Instance(n, 2, float(m), p)
                v1 = lower_bound_p1(inst).value
                v2 = lower_bound_p2(inst).value
                rate = optimize_mccs(inst, with_bounds=False, with_ccs=False).rate_mccs
                count += 1
                if abs(v1 - v2) > 1e-6:
                    bound_gaps.append((n, float(m), v2 - v1))
                if abs(rate - v1) > 1e-6:
                    rate_gaps.append((n, float(m), rate - v1))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert not bound_gaps and not rate_gaps, (
        f"two-user equalities fail on {len(bound_gaps)}/{count} instances "
        f"(largest ordered-vs-general bound gap "
        f"{max(g for *_, g in bound_gaps):.3e}); the ordering restriction is "
        f"not always free: witness N=5, M=2.5, "
        f"p=[0.50274, 0.18145, 0.16016, 0.14772, 0.00793] has general bound "
        f"0.385403 < ordered bound 0.390768, and the unrestricted delivery LP "
        f"attains 0.385403 with a placement that caches the most popular file "
        f"at the full-subset level only (pinned in "
        f"test_bounds.py::TestOrderingRestrictionGap)")
    _report(5, f"{count} instances agree within 1e-6 in {elapsed:.2f}s")


def test_c06_all_distinct_conditional_equality():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        p = random_popularity(5, rng)
        inst = Instance(5, 3, float(rng.uniform(0, 5)), p)
        rep = optimize_mccs(inst, with_bounds=False, with_ccs=False)
        lhs = conditional_expected_rate_distinct(inst, rep.best.matrix)
        rhs = conditional_expected_bound_distinct(inst, rep.best.matrix)
        worst = max(worst, abs(lhs - rhs))
        assert lhs == pytest.approx(rhs, abs=1e-9)
        # both sides run one kernel, so each is also checked by walking the sets
        assert lhs == pytest.approx(
            enumerated_distinct_expectation(inst, rep.best.matrix, rate_mccs), abs=1e-9)
        assert rhs == pytest.approx(
            enumerated_distinct_expectation(inst, rep.best.matrix, rlb_popfirst), abs=1e-9)
    _report(6, f"conditional delivery equals conditional bound (worst {worst:.2e})")


def test_c07_redundancy_counting_identity():
    _, placements = randomized_suite()
    assert len(placements) >= 200
    worst = 0.0
    for inst, a in placements:
        for d, _ in demand_classes(inst):
            diff = abs(rate_mccs_lemma3(d, a) - rate_mccs(d, a))
            worst = max(worst, diff)
            assert diff <= 1e-12
    _report(7, f"{len(placements)} placements x all demand classes (worst {worst:.1e})")


def test_c08_closed_form_equivalence():
    _, placements = randomized_suite()
    worst = 0.0
    for inst, a in placements:
        d1 = abs(avg_rate_closed(inst, a) - expected_rate("mccs", inst, a))
        d2 = abs(avg_rate_ccs_closed(inst, a) - expected_rate("ccs", inst, a))
        worst = max(worst, d1, d2)
        assert d1 <= 1e-9 and d2 <= 1e-9
    _report(8, f"closed form == exact enumeration on both schemes (worst {worst:.1e})")


def test_c09_grouping_structure_certification():
    suite, _ = randomized_suite()
    instances = [Instance.from_zipf(*args) for args in TABLE_INSTANCES] + suite
    mismatches = []
    for inst in instances:
        lp_opt = solve_p3_lp(inst)
        snapped = np.round(lp_opt.placement.matrix / 1e-6) * 1e-6
        n_rows = len({row.tobytes() for row in np.ascontiguousarray(snapped + 0.0)})
        assert n_rows <= 3, f"LP optimum uses {n_rows} distinct rows"
        rep = optimize_mccs(inst, with_bounds=False, with_ccs=False)
        if abs(rep.rate_mccs - lp_opt.value) > 1e-6:
            mismatches.append((inst.n_files, inst.n_users, inst.cache_size,
                               rep.rate_mccs - lp_opt.value))
    assert not mismatches, (
        f"the closed-form candidate family misses the LP optimum on "
        f"{len(mismatches)}/{len(instances)} suite instances "
        f"(largest excess {max(g for *_, g in mismatches):.3e}); witness: "
        f"N=2, K=3, M=0.18781, p=[0.89637, 0.10363] has LP optimum 1.091061 "
        f"with first-file vector [0.71828, 0, 0.09391, 0] (server share plus a "
        f"non-adjacent cached level), while the best candidate scores 1.132421 "
        f"(pinned in test_optimizer.py::TestCandidateFamilyGap)")
    _report(9, f"search matches LP and <=3 groups on {len(instances)} instances")


def test_c10_cache_sweep_reproduction():
    start = time.monotonic()
    rows = []
    for m in np.arange(0, 7.01, 0.5):
        inst = Instance.from_zipf(7, 4, float(m), 0.56)
        rep = optimize_mccs(inst)
        rows.append((float(m), rep.rate_mccs, rep.rate_ccs_opt, rep.lb_p1, rep.lb_p2))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s"

    for _, mccs, ccs, _, _ in rows:
        assert mccs <= ccs + 1e-9
    for prev, cur in zip(rows, rows[1:]):
        assert cur[1] <= prev[1] + 1e-9  # mccs_opt nonincreasing
        assert cur[2] <= prev[2] + 1e-9  # ccs_opt
        assert cur[3] <= prev[3] + 1e-9  # lb_p1
        assert cur[4] <= prev[4] + 1e-9  # lb_p2

    outside = [(m, mccs - lb1) for m, mccs, _, lb1, _ in rows
               if not 2.5 <= m <= 3.5 and mccs - lb1 > 1e-4]
    assert not outside, (
        f"rate-vs-bound gap appears outside the stated window [2.5, 3.5]: "
        f"{[(m, round(g, 6)) for m, g in outside]}; the verified gap window "
        f"on this grid is M in {{2.0, 2.5, 3.0}}, and the unrestricted "
        f"delivery LP confirms no placement closes the M=2.0 gap")
    _report(10, f"15-point sweep in {elapsed:.1f}s")


def test_c11_nonuniform_sizes_two_users():
    rng = np.random.default_rng(SEED)
    sizes = np.array([1.5, 1.25, 1.0, 0.75])
    worst = 0.0
    count = 0
    for _ in range(10):
        p = random_popularity(4, rng)
        for m in np.linspace(0, float(sizes.sum()), 9):
            inst = Instance(4, 2, float(m), p, sizes)
            v4 = solve_p4_lp(inst).value
            v5 = lower_bound_p5(inst).value
            count += 1
            worst = max(worst, abs(v4 - v5))
            assert v5 <= v4 + 1e-8
            assert abs(v4 - v5) <= 1e-6
    _report(11, f"delivery LP attains the sized bound on {count} instances "
                f"(worst {worst:.1e})")


def test_c12_bound_sanity_everywhere():
    rng = np.random.default_rng(SEED)
    instances = [Instance.from_zipf(*args) for args in TABLE_INSTANCES]
    instances.append(Instance.from_zipf(7, 4, 6.0, 0.56))
    for n in (2, 3, 5):
        for _ in range(20):
            p = random_popularity(n, rng)
            for m in np.linspace(0, n, 9):
                instances.append(Instance(n, 2, float(m), p))
    for _ in range(10):
        p = random_popularity(5, rng)
        instances.append(Instance(5, 3, float(rng.uniform(0, 5)), p))
    for m in np.arange(0, 7.01, 0.5):
        instances.append(Instance.from_zipf(7, 4, float(m), 0.56))

    for inst in instances:
        lb1 = lower_bound_p1(inst).value
        lb2 = lower_bound_p2(inst).value
        rate = optimize_mccs(inst, with_bounds=False, with_ccs=False).rate_mccs
        assert lb1 <= lb2 + 1e-8
        assert lb2 <= rate + 1e-8
    _report(12, f"bound ordering holds on {len(instances)} instances")
