import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacheopt import delivery
from cacheopt.bounds import (
    distinct_set_probability,
    lower_bound_p1,
    rlb_general,
    rlb_popfirst,
)
from cacheopt.closedform import g_coefficients
from cacheopt.delivery import (
    coded_message_size,
    conditional_expected_rate_distinct,
    distinct_set,
    expected_rate,
    leader_group,
    message_weights,
    rate_ccs,
    rate_mccs,
    rate_mccs_lemma3,
    redundancy_profile,
)
from cacheopt.lp import SizeGuardError
from cacheopt.model import Instance, binom
from cacheopt.optimizer import one_group_candidate

from conftest import (
    demand_classes,
    enumerate_distinct_sets,
    enumerated_g,
    enumerated_message_weights,
    message_weight_dict,
    random_popularity,
    random_q_instance,
    random_q_placement,
    yu_uniform_rate,
)

K2_MATRIX = np.array([[0.2, 0.4, 0.0], [0.6, 0.2, 0.0]])
K2_INSTANCE = Instance(2, 2, 0.6, [0.6, 0.4])


class TestStructure:
    @pytest.mark.parametrize("d,expected", [
        ((1, 1, 2), (1, 2)),
        ((3, 3, 3, 3), (3,)),
        ((4, 2, 1, 3), (1, 2, 3, 4)),
        ((2.0, np.int64(1), 2), (1, 2)),
    ])
    def test_distinct_set(self, d, expected):
        assert distinct_set(d) == expected

    def test_fractional_file_rejected(self):
        with pytest.raises(ValueError, match="file index must be a whole number, got 1.5"):
            distinct_set((1.5, 2))  # not truncated to file 1

    def test_empty_distinct_set_rejected(self):
        assert distinct_set((2, 1, 2)) == (1, 2)
        with pytest.raises(ValueError, match="nonempty"):
            distinct_set(())
        with pytest.raises(ValueError, match="nonempty"):
            rlb_general((), K2_MATRIX)

    @pytest.mark.parametrize("d,expected", [
        ((1, 1, 2), (1, 3)),
        ((2, 1), (1, 2)),
        ((5, 5, 5), (1,)),
    ])
    def test_leader_group(self, d, expected):
        assert leader_group(d) == expected

    def test_redundancy_profile(self):
        distinct, per_file, cumulative = redundancy_profile((1, 1, 2, 1, 3))
        assert distinct == (1, 2, 3)
        assert per_file == (2, 0, 0)
        assert cumulative == (0, 2, 2, 2)
        assert cumulative[-1] == 5 - 3


class TestMessageSize:
    def test_padded_to_largest(self):
        assert coded_message_size((1, 2), (1, 2), K2_MATRIX) == pytest.approx(0.4)

    def test_singleton_uses_server_share(self):
        a = np.array([[0.4, 0.3, 0.0, 0.0], [0.6, 0.2, 0.0, 0.0]])
        assert coded_message_size((3,), (1, 1, 2), a) == pytest.approx(0.6)

    def test_zero_when_nothing_at_server(self):
        a = np.array([[0.0, 0.5, 0.0]])
        assert coded_message_size((1,), (1, 1), a) == 0.0

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            coded_message_size((), (1, 1), K2_MATRIX)

    @pytest.mark.parametrize("subset,match", [
        ((0,), "user 0 outside 1..2"),
        ((3,), "user 3 outside 1..2"),
        ((1, 1), "user 1 repeated"),
    ], ids=["zero", "K+1", "repeated"])
    def test_bad_user_rejected(self, subset, match):
        # users are 1-based and distinct: none wraps to the last user or pads twice
        with pytest.raises(ValueError, match=match):
            coded_message_size(subset, (1, 2), K2_MATRIX)


class TestFileIndices:
    """1-based files outside 1..N or not whole numbers are refused by name, never
    wrapped or truncated to another file."""

    CALLS = pytest.mark.parametrize("call", [
        lambda d: rlb_general(d, K2_MATRIX),
        lambda d: rlb_popfirst(d, K2_MATRIX),
        lambda d: distinct_set_probability(K2_INSTANCE, d),
        lambda d: rate_mccs(d, K2_MATRIX),
        lambda d: rate_ccs(d, K2_MATRIX),
        lambda d: rate_mccs_lemma3(d, K2_MATRIX),
        lambda d: coded_message_size((1, 2), d, K2_MATRIX),
    ], ids=["rlb_general", "rlb_popfirst", "distinct_set_probability", "rate_mccs",
            "rate_ccs", "rate_mccs_lemma3", "coded_message_size"])

    @pytest.mark.parametrize("bad", [0, 3], ids=["zero", "N+1"])
    @CALLS
    def test_out_of_range_file(self, call, bad):
        assert call((1, 2)) >= 0.0
        with pytest.raises(ValueError, match=f"file index {bad} outside 1..2"):
            call((bad, 1))

    @pytest.mark.parametrize("bad", [1.5, True, "2"], ids=["fraction", "bool", "str"])
    @CALLS
    def test_non_whole_file(self, call, bad):
        # 1.5 is not truncated to file 1; whole numbers of any type still pass
        assert call((np.int64(2), 1.0)) == call((2, 1))
        match = re.escape(f"file index must be a whole number, got {bad!r}")
        with pytest.raises(ValueError, match=match):
            call((bad, 1))


class TestPerDemandRates:
    def test_nothing_cached(self):
        a = np.tile([1.0, 0.0, 0.0], (2, 1))
        assert rate_mccs((1, 1), a) == pytest.approx(1.0)

    def test_worked_distinct(self):
        assert rate_mccs((1, 2), K2_MATRIX) == pytest.approx(0.2 + 0.6 + 0.4)

    def test_worked_redundant(self):
        assert rate_mccs((2, 2), K2_MATRIX) == pytest.approx(0.6 + 0.2)

    def test_ccs_counts_redundant_subsets(self):
        assert rate_ccs((1, 1), K2_MATRIX) == pytest.approx(0.8)
        assert rate_mccs((1, 1), K2_MATRIX) == pytest.approx(0.6)

    def test_ccs_equals_mccs_on_distinct_demands(self, rng):
        for _ in range(10):
            inst, a = random_q_instance(4, 3, rng)
            d = tuple(rng.permutation(4)[:3] + 1)
            assert rate_ccs(d, a) == pytest.approx(rate_mccs(d, a), abs=1e-12)

    def test_ccs_uncached_triple(self):
        a = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
        assert rate_ccs((1, 1, 1), a) == pytest.approx(3.0)

    def test_rate_bounds_ordering(self, rng):
        for _ in range(20):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            inst, a = random_q_instance(n, k, rng)
            d = tuple(int(v) for v in rng.integers(1, n + 1, size=k))
            m = rate_mccs(d, a)
            assert 0.0 <= m <= rate_ccs(d, a) + 1e-12

    @pytest.mark.parametrize("n,k", [(3, 4), (2, 5), (4, 5)])
    def test_leader_group_invariance(self, rng, n, k):
        # any valid choice of one requester per distinct file gives the same rate
        from cacheopt.delivery import _rate_with_leaders
        for _ in range(6):
            inst, a = random_q_instance(n, k, rng)
            d = tuple(int(v) for v in rng.integers(1, n + 1, size=k))
            reference = rate_mccs(d, a)
            per_file = {}
            for user, f in enumerate(d, start=1):
                per_file.setdefault(f, []).append(user)
            for choice in itertools.product(*per_file.values()):
                assert _rate_with_leaders(d, a, tuple(sorted(choice))) == \
                    pytest.approx(reference, abs=1e-12)


class TestUserRelabeling:
    """Relabeling users permutes a demand's entries and changes no rate or bound."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 5), k=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_invariant_under_user_permutation(self, n, k, seed):
        rng = np.random.default_rng(seed)
        ordered = random_q_placement(n, k, rng)  # popularity-first, as Lemma 3 needs
        shuffled = ordered[rng.permutation(n)]  # any placement for the general forms
        d = tuple(int(v) for v in rng.integers(1, n + 1, size=k))
        relabeled = tuple(d[u] for u in rng.permutation(k))
        assert distinct_set(relabeled) == distinct_set(d)
        for fn, a in ((rate_mccs, shuffled), (rate_ccs, shuffled),
                      (rate_mccs_lemma3, ordered), (rlb_general, shuffled)):
            assert abs(fn(relabeled, a) - fn(d, a)) <= 1e-12, fn.__name__


class TestLemma3Form:
    def test_worked_coefficients(self):
        # d = (1,1,2) at K=3 regroups to a_{1,0} + a_{2,0} + 3 a_{1,1} + a_{1,2}
        a = np.array([[0.1, 0.2, 0.05, 0.01],
                      [0.3, 0.15, 0.02, 0.0],
                      [0.9, 0.01, 0.0, 0.0]])
        expected = a[0, 0] + a[1, 0] + 3 * a[0, 1] + a[0, 2]
        assert rate_mccs_lemma3((1, 1, 2), a) == pytest.approx(expected, abs=1e-12)
        assert rate_mccs((1, 1, 2), a) == pytest.approx(expected, abs=1e-12)

    def test_all_distinct_collapse(self, rng):
        inst, a = random_q_instance(4, 3, rng)
        d = (2, 3, 4)
        expected = sum(binom(3 - i, l) * a[d[i - 1] - 1, l]
                       for i in range(1, 4) for l in range(3))
        assert rate_mccs_lemma3(d, a) == pytest.approx(expected, abs=1e-12)

    def test_single_file_demand(self, rng):
        inst, a = random_q_instance(4, 4, rng)
        expected = sum(binom(3, l) * a[2, l] for l in range(4))
        assert rate_mccs_lemma3((3, 3, 3, 3), a) == pytest.approx(expected, abs=1e-12)

    def test_identity_random_suite(self, rng):
        for _ in range(40):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            inst, a = random_q_instance(n, k, rng)
            for d, _ in demand_classes(inst):
                assert rate_mccs_lemma3(d, a) == pytest.approx(
                    rate_mccs(d, a), abs=1e-12)

    def test_rejects_unordered_placement(self):
        bad = np.array([[0.6, 0.1, 0.1], [0.2, 0.3, 0.1]])
        with pytest.raises(ValueError, match="popularity-first"):
            rate_mccs_lemma3((1, 2), bad)


class TestDemandClasses:
    """The enumeration oracle the per-file passes are checked against."""

    def test_probabilities_sum_to_one(self):
        inst = Instance(3, 4, 1.0, [0.5, 0.3, 0.2])
        total = sum(prob for _, prob in demand_classes(inst))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_class_weights_match_raw_enumeration(self):
        for popularity, k in [([0.5, 0.3, 0.2], 3), ([0.4, 0.3, 0.2, 0.1], 5),
                              ([0.5, 0.3, 0.2], 6)]:
            n = len(popularity)
            inst = Instance(n, k, 1.0, popularity)
            raw = {}
            for d in itertools.product(range(1, n + 1), repeat=k):
                key = tuple(sorted(d))
                raw[key] = raw.get(key, 0.0) + math.prod(inst.popularity[f - 1] for f in d)
            classes = list(demand_classes(inst))
            assert [rep for rep, _ in classes] == sorted(raw)
            for rep, prob in classes:
                assert prob == pytest.approx(raw[rep], abs=1e-15)

    def test_multiplicities_past_int64(self):
        # 21! overflows int64; the class of c requests for file 1 has weight C(21, c)
        inst = Instance(2, 21, 1.0, [0.6, 0.4])
        classes = list(demand_classes(inst))
        pmf = [math.comb(21, c) * 0.6 ** c * 0.4 ** (21 - c) for c in range(21, -1, -1)]
        assert [rep.count(1) for rep, _ in classes] == list(range(21, -1, -1))
        np.testing.assert_allclose([prob for _, prob in classes], pmf, rtol=0, atol=1e-15)
        assert math.fsum(prob for _, prob in classes) == pytest.approx(1.0, abs=1e-15)
        # the per-file pass joins C(21, c) request placements as floats
        assert distinct_set_probability(inst, (1,)) == pytest.approx(pmf[0], rel=1e-14)
        assert distinct_set_probability(inst, (2,)) == pytest.approx(pmf[-1], rel=1e-14)
        assert distinct_set_probability(inst, (1, 2)) == pytest.approx(
            math.fsum(pmf[1:-1]), abs=1e-15)


class TestExpectedRate:
    def test_worked_example(self):
        assert expected_rate("mccs", K2_INSTANCE, K2_MATRIX) == pytest.approx(0.92, abs=1e-12)

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 5), k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           ties=st.booleans(), zero_file=st.booleans())
    def test_matches_raw_enumeration(self, n, k, seed, ties, zero_file):
        # any nonnegative matrix, columns in no particular order: the padded
        # size is the max entry over the requested files, not the most popular
        # file's entry; ties and zeros on a three-value grid
        rng = np.random.default_rng(seed)
        p = random_popularity(n, rng)
        if zero_file and n > 1:
            p[-1] = 0.0
        inst = Instance(n, k, 0.0, p / p.sum())
        a = rng.random((n, k + 1))
        a = np.round(a * 2) / 2 if ties else a * (rng.random((n, k + 1)) > 0.2)
        for scheme, rate in (("mccs", rate_mccs), ("ccs", rate_ccs)):
            raw = math.fsum(
                math.prod(inst.popularity[f - 1] for f in d) * rate(d, a)
                for d in itertools.product(range(1, n + 1), repeat=k))
            assert expected_rate(scheme, inst, a) == pytest.approx(raw, rel=1e-13, abs=1e-13)

    def test_reads_no_file_sets(self, monkeypatch):
        # the file-set table is guarded; the rates need none of it
        inst = Instance(5, 3, 0.0, [0.4, 0.25, 0.15, 0.12, 0.08])
        a = np.random.default_rng(3).random((5, 4))
        want = [expected_rate(scheme, inst, a) for scheme in ("mccs", "ccs")]

        def refuse(_):
            raise AssertionError("file_sets called")

        monkeypatch.setattr(delivery, "file_sets", refuse)
        assert [expected_rate(scheme, inst, a) for scheme in ("mccs", "ccs")] == want

    def test_one_pass_per_column_order(self, monkeypatch):
        inst = Instance(4, 3, 0.0, [0.4, 0.3, 0.2, 0.1])
        kernel, orders = delivery._by_padded_file, []

        def counted(inst, order):
            orders.append(order.tolist())
            return kernel(inst, order)

        monkeypatch.setattr(delivery, "_by_padded_file", counted)
        first = np.array([[0.5, 0.3, 0.2, 0.1], [0.4, 0.2, 0.2, 0.0],
                          [0.3, 0.2, 0.1, 0.0], [0.2, 0.1, 0.0, 0.0]])
        expected_rate("mccs", inst, first)
        assert orders == [[0, 1, 2, 3]]  # popularity-first: one pass, as for g
        orders.clear()
        reversed_level_2 = first.copy()
        reversed_level_2[:, 2] = [0.0, 0.05, 0.1, 0.15]
        expected_rate("ccs", inst, reversed_level_2)
        assert orders == [[0, 1, 2, 3], [3, 2, 1, 0]]

    def test_placement_shape(self):
        with pytest.raises(ValueError, match="placement must be 2 x 3"):
            expected_rate("mccs", K2_INSTANCE, K2_MATRIX[:1])
        with pytest.raises(ValueError, match="placement must be 2 x 3"):
            expected_rate("mccs", K2_INSTANCE, K2_MATRIX[:, :2])

    def test_uncached_gives_expected_distinct_count(self, rng):
        p = random_popularity(4, rng)
        inst = Instance(4, 3, 0.0, p)
        a = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
        expected_distinct = sum(
            len(D) * distinct_set_probability(inst, D)
            for D in enumerate_distinct_sets(inst))
        assert expected_rate("mccs", inst, a) == pytest.approx(expected_distinct, abs=1e-12)

    def test_fully_cached_is_free(self):
        inst = Instance(2, 3, 2.0, [0.7, 0.3])
        a = np.tile([0.0, 0.0, 0.0, 1.0], (2, 1))
        assert expected_rate("mccs", inst, a) == 0.0

    def test_size_guard(self):
        inst = Instance(30, 8, 1.0, np.full(30, 1 / 30))
        server = np.tile([1.0] + [0.0] * 8, (30, 1))
        # 12,440,544 (level, file set) keys: refused before anything is allocated
        start = time.perf_counter()
        with pytest.raises(SizeGuardError, match="keys"):
            conditional_expected_rate_distinct(inst, server)
        with pytest.raises(SizeGuardError, match="keys"):
            lower_bound_p1(inst)  # its distinct sets come from the same guarded table
        assert time.perf_counter() - start < 1.0
        # the rates need no keys: the expected number of distinct requests
        assert expected_rate("mccs", inst, server) == pytest.approx(
            30 * (1 - (29 / 30) ** 8), abs=1e-12)
        # the coefficients need no keys: one backward pass over the files
        g = g_coefficients(inst).g
        for t in range(9):
            placement = one_group_candidate(Instance(30, 8, 30 * t / 8, inst.popularity), 30)
            assert float(np.sum(g * placement.matrix)) == pytest.approx(
                float(yu_uniform_rate(30, 8, t)), abs=1e-12)
        # 21 demand classes x (2^20 - 1) user subsets are never listed
        wide = Instance(2, 20, 1.0, [0.6, 0.4])
        one = 0.6 ** 20 + 0.4 ** 20
        assert expected_rate("mccs", wide, np.tile([1.0] + [0.0] * 20, (2, 1))) == pytest.approx(
            1 * one + 2 * (1 - one), abs=1e-12)

    def test_unknown_rate_fn(self):
        with pytest.raises(ValueError):
            expected_rate("nope", K2_INSTANCE, K2_MATRIX)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    # Zipf (40,4): 102,090 file sets and 113,650 (level, file set) keys
    INST = Instance.from_zipf(40, 4, 10.0, 0.8)

    def test_message_weights_peak(self):
        # A dict keyed by (level, file tuple) peaks at 38.4-38.8 MiB on a
        # 2-core x86-64 host, about 350 bytes per key.  The per-size arrays
        # peak at 13.9 MiB when the forward pass writes out all 2K + 2 states,
        # 7.0 MiB of them at set size 4, and at 8.9 MiB when it writes the K
        # kept ones.
        peak = traced_peak(lambda: message_weights(self.INST))
        assert peak <= 11 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    def test_expected_rate_peak(self):
        # no file-set table: O(N K) per pass, 0.03 MiB here
        placement = one_group_candidate(self.INST, 40).matrix
        arbitrary = np.random.default_rng(0).random((40, 5))
        for a in (placement, arbitrary):
            peak = traced_peak(lambda: expected_rate("mccs", self.INST, a))
            assert peak <= 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestMessageWeights:
    def test_worked_example(self):
        # d = (1,1) w.p. 0.36, (1,2)/(2,1) w.p. 0.48, (2,2) w.p. 0.16
        assert message_weight_dict(K2_INSTANCE) == pytest.approx({
            (0, (1,)): 0.36 + 0.48, (0, (2,)): 0.48 + 0.16,
            (1, (1,)): 0.36, (1, (1, 2)): 0.48, (1, (2,)): 0.16})

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_folds_to_rate_coefficients(self, n, k, seed):
        # under popularity-first order a message pads to its most popular
        # file's entry, so summing the table by min(files) gives g, and the
        # enumerated all-subsets table gives g_ccs
        p = np.sort(np.random.default_rng(seed).dirichlet(np.ones(n)))[::-1]
        inst = Instance(n, k, 0.0, p / p.sum())
        coeffs = g_coefficients(inst)
        for weights, g in ((message_weight_dict(inst), coeffs.g),
                           (enumerated_message_weights(inst, "ccs"), coeffs.g_ccs)):
            folded = np.zeros((n, k + 1))
            for (l, files), w in weights.items():
                folded[min(files) - 1, l] += w
            np.testing.assert_allclose(folded, g, rtol=0, atol=1e-12)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_enumeration(self, n, k, seed):
        inst = Instance(n, k, 0.0, random_popularity(n, np.random.default_rng(seed)))
        want, got = enumerated_message_weights(inst, "mccs"), message_weight_dict(inst)
        assert list(got) == list(want)
        np.testing.assert_allclose(list(got.values()), list(want.values()), rtol=0, atol=1e-13)
        np.testing.assert_allclose(g_coefficients(inst).g, enumerated_g(inst), rtol=0, atol=1e-13)

    def test_zero_popularity_keys(self):
        # a file nobody requests still keys its messages, at weight zero
        inst = Instance(3, 2, 0.0, [0.6, 0.4, 0.0])
        weights = message_weight_dict(inst)
        assert list(weights) == list(enumerated_message_weights(inst, "mccs"))
        assert weights[(0, (3,))] == 0.0 and weights[(1, (2, 3))] == 0.0


def all_distinct_classes(inst):
    return [(d, w) for d, w in demand_classes(inst) if len(set(d)) == len(d)]


class TestConditionalDistinct:
    def test_uniform_symmetric(self, rng):
        # uniform popularity, K = N: every permutation demand has the same weight
        inst = Instance(3, 3, 1.0, np.full(3, 1 / 3))
        _, a = random_q_instance(3, 3, rng)
        rates = [rate_mccs(d, a) for d, _ in all_distinct_classes(inst)]
        assert len(rates) == 1
        assert conditional_expected_rate_distinct(inst, a) == pytest.approx(
            float(np.mean(rates)), abs=1e-12)

    def test_matches_conditioned_bound(self, rng):
        # per-demand equality with the ordered bound when every request is distinct
        for _ in range(5):
            inst, a = random_q_instance(5, 3, rng)
            num, den = [], []
            for d, w in all_distinct_classes(inst):
                num.append(w * rlb_popfirst(distinct_set(d), a))
                den.append(w)
            assert conditional_expected_rate_distinct(inst, a) == pytest.approx(
                math.fsum(num) / math.fsum(den), abs=1e-12)

    def test_placement_symmetry(self, rng):
        inst = Instance(3, 2, 1.0, random_popularity(3, rng))
        a = np.tile([0.4, 0.2, 0.2], (3, 1))
        per_pair = {d: rate_mccs(d, a) for d, _ in all_distinct_classes(inst)}
        assert sorted(per_pair) == [(1, 2), (1, 3), (2, 3)]
        assert len(set(round(v, 12) for v in per_pair.values())) == 1

    def test_requires_enough_files(self):
        inst = Instance(2, 3, 1.0, [0.7, 0.3])
        with pytest.raises(ValueError, match="K <= N"):
            conditional_expected_rate_distinct(inst, np.tile([1, 0, 0, 0.0], (2, 1)))


class TestRegionIdentities:
    """Per-demand equalities between the delivery rate and the ordered bound."""

    def test_all_distinct_equals_bound(self, rng):
        for _ in range(10):
            inst, a = random_q_instance(5, 4, rng)
            d = tuple(int(v) for v in rng.permutation(5)[:4] + 1)
            assert rate_mccs(d, a) == pytest.approx(
                rlb_popfirst(distinct_set(d), a), abs=1e-12)

    def test_single_file_equals_bound(self, rng):
        inst, a = random_q_instance(4, 4, rng)
        assert rate_mccs((2, 2, 2, 2), a) == pytest.approx(
            rlb_popfirst((2,), a), abs=1e-12)

    def test_redundancy_on_least_popular_equals_bound(self, rng):
        # all duplicate requests hit the least popular distinct file
        for _ in range(10):
            inst, a = random_q_instance(5, 4, rng)
            d = (1, 3, 3, 3)
            assert rate_mccs(d, a) == pytest.approx(
                rlb_popfirst(distinct_set(d), a), abs=1e-12)

    def test_identical_rows_average(self, rng):
        # symmetric placements: average rate depends only on the distinct-count law
        p = random_popularity(4, rng)
        inst = Instance(4, 3, 1.2, p)
        row = np.array([0.4, 0.15, 0.03, 0.06])
        row[0] = 1.0 - sum(binom(3, l) * row[l] for l in range(1, 4))
        a = np.tile(row, (4, 1))
        direct = sum(
            distinct_set_probability(inst, D)
            * sum(binom(3 - i, l) * row[l] for i in range(1, len(D) + 1) for l in range(3))
            for D in enumerate_distinct_sets(inst))
        assert expected_rate("mccs", inst, a) == pytest.approx(direct, abs=1e-12)
