import math

import numpy as np
import pytest

from cacheopt.model import (
    Instance,
    Placement,
    ingest_popularity,
    is_popularity_first,
    parse_instance_json,
    step_popularity,
    validate_placement,
    zipf_popularity,
)

from conftest import cache_used, random_q_placement


class TestZipf:
    def test_reference_values_7_056(self):
        # published reference multiset, 4 d.p.
        got = np.round(zipf_popularity(7, 0.56), 4)
        expected = sorted([0.0888, 0.0968, 0.1072, 0.1215, 0.2640, 0.1427, 0.1791],
                          reverse=True)
        assert np.allclose(got, expected, atol=5e-5)

    def test_theta_zero_is_uniform(self):
        assert np.allclose(zipf_popularity(4, 0.0), [0.25] * 4)

    @pytest.mark.parametrize("n,theta", [(1, 0.0), (5, 0.3), (12, 1.2), (40, 2.0)])
    def test_valid_distribution(self, n, theta):
        p = zipf_popularity(n, theta)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(np.diff(p) <= 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_popularity(0, 1.0)
        with pytest.raises(ValueError):
            zipf_popularity(3, -0.1)


class TestStepPopularity:
    def test_values(self):
        p = step_popularity()
        assert p.shape == (12,)
        assert p[0] == pytest.approx(7 / 12)
        assert np.allclose(p[1:7], 1 / 18)
        assert np.allclose(p[7:], 1 / 60)

    def test_normalized_and_sorted(self):
        p = step_popularity()
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(np.diff(p) <= 0)


class TestIngest:
    def test_sorts_and_records_order(self):
        raw = [0.0888, 0.0968, 0.1072, 0.1215, 0.2640, 0.1427, 0.1791]
        p, order = ingest_popularity(raw)
        assert np.all(np.diff(p) <= 0)
        assert np.allclose(np.asarray(raw)[order], p)

    def test_stable_on_ties(self):
        p, order = ingest_popularity([0.25, 0.25, 0.5])
        assert list(order) == [2, 0, 1]


class TestInstance:
    def test_requires_sorted_popularity(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            Instance(2, 2, 1.0, [0.4, 0.6])

    def test_requires_normalization(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Instance(2, 2, 1.0, [0.6, 0.5])

    def test_cache_range(self):
        with pytest.raises(ValueError, match="cache_size"):
            Instance(2, 2, 2.5, [0.6, 0.4])
        with pytest.raises(ValueError, match="cache_size"):
            Instance(2, 2, -0.1, [0.6, 0.4])
        # nonuniform sizes widen the budget
        Instance(2, 2, 2.5, [0.6, 0.4], file_sizes=[2.0, 1.0])

    def test_sizes_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Instance(2, 2, 1.0, [0.6, 0.4], file_sizes=[1.0, 0.0])
        inst = Instance(2, 2, 1.0, [0.6, 0.4])
        assert inst.uniform_sizes
        assert not Instance(2, 2, 1.0, [0.6, 0.4], file_sizes=[1.5, 0.5]).uniform_sizes

    def test_rejects_non_finite(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="popularity must be finite"):
            Instance(3, 2, 1.0, [nan, 0.5, 0.5])
        with pytest.raises(ValueError, match="file_sizes must be finite"):
            Instance(2, 2, 1.0, [0.6, 0.4], file_sizes=[1.0, nan])
        with pytest.raises(ValueError, match="file_sizes must be finite"):
            Instance(2, 2, 1.0, [0.6, 0.4], file_sizes=[1.0, float("inf")])

    def test_immutable(self):
        inst = Instance(2, 2, 1.0, [0.6, 0.4])
        with pytest.raises(ValueError):
            inst.popularity[0] = 0.9


class TestInstanceJson:
    def test_popularity_schema(self):
        inst, order = parse_instance_json(
            '{"users": 2, "cache": 1.0, "popularity": [0.4, 0.6]}')
        assert inst.n_files == 2 and inst.n_users == 2
        assert np.allclose(inst.popularity, [0.6, 0.4])
        assert list(order) == [1, 0]

    def test_zipf_schema(self):
        inst, _ = parse_instance_json('{"users": 4, "cache": 1, "zipf_theta": 0.56, "files": 7}')
        assert np.allclose(inst.popularity, zipf_popularity(7, 0.56))

    def test_integral_float_counts(self):
        inst, _ = parse_instance_json('{"users": 2.0, "cache": 1, "zipf_theta": 0.5, "files": 4.0}')
        assert (inst.n_files, inst.n_users) == (4, 2)

    def test_sizes_follow_sort_order(self):
        inst, order = parse_instance_json(
            '{"users": 2, "cache": 1.0, "popularity": [0.4, 0.6], "sizes": [2.0, 3.0]}')
        assert np.allclose(inst.file_sizes, [3.0, 2.0])

    @pytest.mark.parametrize("text", [
        "[]",
        "{not json",
        '{"cache": 1.0, "popularity": [1.0]}',
        '{"users": 2, "cache": 1.0}',
        '{"users": 2, "cache": 1.0, "zipf_theta": 1.0}',
        '{"users": 2, "cache": 1.0, "popularity": [0.6, 0.4], "sizes": [1.0]}',
        '{"users": 2, "cache": 1.0, "popularity": 0.5}',
        '{"users": 2, "cache": 1.0, "popularity": [[0.5, 0.5]]}',
        '{"users": 2.7, "cache": 1.0, "popularity": [0.6, 0.4]}',
        '{"users": true, "cache": 1.0, "popularity": [0.6, 0.4]}',
        '{"users": "2", "cache": 1.0, "popularity": [0.6, 0.4]}',
        '{"users": 2, "cache": 1.0, "zipf_theta": 1.0, "files": 4.9}',
    ])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_instance_json(text)

    @pytest.mark.parametrize("popularity", ["0.5", "[[0.5, 0.5]]"])
    def test_popularity_must_be_1d(self, popularity):
        # a 2-D vector used to be reported as a sizes mismatch without sizes
        with pytest.raises(ValueError, match="popularity must be a 1-D"):
            parse_instance_json(f'{{"users": 2, "cache": 1.0, "popularity": {popularity}}}')


class TestValidatePlacement:
    def test_nothing_cached_feasible(self):
        inst = Instance(3, 2, 0.0, [0.5, 0.3, 0.2])
        a = np.tile([1.0, 0.0, 0.0], (3, 1))
        assert validate_placement(inst, a) == []

    def test_uniform_split_feasible(self):
        # one-group optimum at N=7, K=4, M=1
        inst = Instance.from_zipf(7, 4, 1.0, 0.56)
        row = [3 / 7, 1 / 7, 0.0, 0.0, 0.0]
        assert validate_placement(inst, np.tile(row, (7, 1))) == []

    def test_partition_violation_reported(self):
        inst = Instance(2, 2, 2.0, [0.6, 0.4])
        a = np.array([[1.2, 0.0, 0.0], [1.0, 0.0, 0.0]])
        out = validate_placement(inst, a)
        assert [v.constraint for v in out] == ["partition"]
        assert out[0].residual == pytest.approx(0.2)

    def test_cache_violation_reported(self):
        inst = Instance(2, 2, 0.1, [0.6, 0.4])
        a = np.array([[0.0, 0.5, 0.0], [0.0, 0.5, 0.0]])
        out = validate_placement(inst, a)
        assert [v.constraint for v in out] == ["cache"]
        assert out[0].residual == pytest.approx(0.9)

    def test_negative_entry_reported(self):
        inst = Instance(2, 2, 2.0, [0.6, 0.4])
        a = np.array([[1.3, -0.1, 0.0], [1.0, 0.0, 0.0]])
        kinds = {v.constraint for v in validate_placement(inst, a)}
        assert "nonnegative" in kinds and "partition" in kinds

    def test_violations_in_entry_then_file_order(self):
        inst = Instance(3, 2, 0.5, [0.5, 0.3, 0.2])
        a = np.array([[1.3, -0.1, -0.2], [0.8, 0.0, 0.0], [-0.05, 0.525, 0.0]])
        assert [(v.constraint, v.detail) for v in validate_placement(inst, a)] == [
            ("nonnegative", "a[1,1] = -0.1 < 0"),
            ("nonnegative", "a[1,2] = -0.2 < 0"),
            ("nonnegative", "a[3,0] = -0.05 < 0"),
            ("partition", "file 1 partitions to 0.9, expected 1"),
            ("partition", "file 2 partitions to 0.8, expected 1")]

    def test_non_finite_entry_reported(self):
        inst = Instance(3, 2, 1.0, [0.5, 0.3, 0.2])
        a = np.array([[np.nan, 0.5, 0.25], [1.0, 0.0, 0.0], [np.inf, 0.0, 0.0]])
        out = validate_placement(inst, a)
        assert [(v.constraint, v.detail) for v in out] == [
            ("finite", "a[1,0] = nan"), ("finite", "a[3,0] = inf")]
        assert all(v.residual == math.inf for v in out)

    def test_dimension_mismatch(self):
        inst = Instance(2, 2, 1.0, [0.6, 0.4])
        out = validate_placement(inst, np.zeros((2, 2)))
        assert out[0].constraint == "shape"

    def test_random_generator_output_is_feasible(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
            a = random_q_placement(n, k, rng)
            inst = Instance(n, k, cache_used(a, k),
                            np.sort(rng.dirichlet(np.ones(n)))[::-1])
            assert validate_placement(inst, a) == []
            assert is_popularity_first(a)


class TestPopularityFirst:
    def test_identical_rows(self):
        assert is_popularity_first(np.tile([0.5, 0.25, 0.0], (4, 1)))

    def test_worked_example(self):
        assert is_popularity_first(np.array([[0.2, 0.4, 0.0], [0.6, 0.2, 0.0]]))

    def test_violation(self):
        assert not is_popularity_first(np.array([[0.6, 0.1, 0.0], [0.2, 0.2, 0.0]]))

    def test_level_zero_ignored(self):
        # only cached levels (l >= 1) are ordered
        assert is_popularity_first(np.array([[0.2, 0.4, 0.0], [0.6, 0.2, 0.0]]))


class TestSmallTypes:
    def test_placement_vector_clamps_tiny_negatives(self):
        inst = Instance(1, 2, 1.0, [1.0])
        assert Placement(np.array([[1.0, -5e-13, 0.0]]), inst).matrix[0, 1] == 0.0
        assert Placement(np.array([[1.0, -1e-6, 0.0]]), inst).matrix[0, 1] == -1e-6

    def test_placement_shape_checked(self):
        inst = Instance(2, 2, 1.0, [0.6, 0.4])
        with pytest.raises(ValueError, match="shape"):
            Placement(np.zeros((3, 3)), inst)
