import json
import re
import time

import numpy as np
import pytest

from cacheopt import bounds, optimizer
from cacheopt.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOptimizeCommand:
    def test_reference_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--files", "7", "--users", "4",
                               "--cache", "1", "--zipf", "0.56")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "grouping"
        a = np.asarray(doc["placement"])
        assert np.allclose(a[:, 0], 0.4286, atol=5e-5)
        assert np.allclose(a[:, 1], 0.1429, atol=5e-5)
        assert doc["lb_p1"] == pytest.approx(doc["rate_mccs"], abs=1e-5)

    def test_reference_three_groups(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--files", "9", "--users", "4",
                               "--cache", "3", "--zipf", "1.2", "--no-bounds")
        assert code == 0
        doc = json.loads(out)
        a = np.asarray(doc["placement"])
        assert np.allclose(a[:4, 3], 0.25, atol=5e-4)
        assert np.allclose(a[4:, 0], 1.0, atol=5e-4)

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--files", "7", "--users", "4",
                               "--cache", "1", "--zipf", "0.56", "--format", "table",
                               "--no-bounds")
        assert code == 0
        assert "0.4286" in out and "0.1429" in out
        assert out.splitlines()[0].startswith("l ")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--files", "7", "--users", "4",
                               "--cache", "1", "--zipf", "0.56", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "rate_mccs,rate_ccs_opt,lb_p1,lb_p2,gap"
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert values["rate_mccs"] == pytest.approx(2.170970, abs=1e-6)
        assert values["gap"] == pytest.approx(0.0, abs=1e-6)

    def test_lp_method(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--files", "5", "--users", "3",
                               "--cache", "2", "--zipf", "0.8", "--method", "lp")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "lp"
        _, out2, _ = run_cli(capsys, "optimize", "--files", "5", "--users", "3",
                             "--cache", "2", "--zipf", "0.8", "--no-bounds")
        doc2 = json.loads(out2)
        assert doc["rate_mccs"] == pytest.approx(doc2["rate_mccs"], abs=1e-6)

    def test_zero_cache(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--files", "3", "--users", "2",
                               "--cache", "0", "--zipf", "1.0", "--no-bounds")
        assert code == 0
        a = np.asarray(json.loads(out)["placement"])
        assert np.allclose(a[:, 0], 1.0)

    def test_instance_file_with_unsorted_popularity(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "users": 4, "cache": 1,
            "popularity": [0.0888, 0.0968, 0.1072, 0.1215, 0.2640, 0.1427, 0.1791],
        }))
        code, out, _ = run_cli(capsys, "optimize", "--instance", str(path), "--no-bounds")
        assert code == 0
        doc = json.loads(out)
        assert doc["file_order"] == [5, 7, 6, 4, 3, 2, 1]

    @pytest.mark.parametrize("popularity", ["not json", "0.5"], ids=["not-json", "scalar"])
    def test_malformed_input_exit_2(self, capsys, popularity):
        code, _, err = run_cli(capsys, "optimize", "--files", "3", "--users", "2",
                               "--cache", "0.5", "--popularity", popularity)
        assert code == 2
        assert err.startswith("error:")

    def test_nan_popularity_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--users", "2", "--cache", "1",
                                 "--popularity", "[NaN, 0.5, 0.5]", "--no-bounds")
        assert code == 2 and out == ""
        assert "popularity must be finite" in err

    POPULARITY = ("optimize", "--users", "2", "--cache", "1", "--popularity", "[0.5,0.3,0.2]",
                  "--no-bounds")

    @pytest.mark.parametrize("extra, named", [
        (("--files", "5"), "--files 5"),
        (("--zipf", "0.8"), "--zipf"),
    ], ids=["files", "zipf"])
    def test_flag_popularity_would_discard_exit_2(self, capsys, extra, named):
        code, out, err = run_cli(capsys, *self.POPULARITY, *extra)
        assert code == 2 and out == ""
        assert named in err and len(err.strip().splitlines()) == 1

    def test_files_matching_popularity_accepted(self, capsys):
        code, out, _ = run_cli(capsys, *self.POPULARITY, "--files", "3")
        assert code == 0
        assert out == run_cli(capsys, *self.POPULARITY)[1]

    def test_instance_file_refuses_other_instance_flags_exit_2(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"users": 2, "cache": 1, "popularity": [0.5, 0.3, 0.2]}))
        code, out, err = run_cli(capsys, "optimize", "--instance", str(path), "--users", "3",
                                 "--cache", "2", "--no-bounds")
        assert code == 2 and out == ""
        assert "--users, --cache" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind,value,field", [
        ("instance", '{"users": 2, "cache": null, "popularity": [0.6, 0.4]}', '"cache"'),
        ("instance", '{"users": 2, "cache": [1], "popularity": [0.6, 0.4]}', '"cache"'),
        ("instance", '{"users": 2, "cache": 1, "popularity": {"a": 1}}', "popularity"),
        ("popularity", '{"a": 1}', "popularity"),
        ("sizes", '{"a": 1}', "sizes"),
        ("placement", '{"placement": {"a": 1}}', "placement"),
    ], ids=["cache-null", "cache-list", "instance-popularity-object", "popularity-object",
            "sizes-object", "placement-object"])
    def test_malformed_field_exit_2(self, capsys, tmp_path, kind, value, field):
        # a value of the wrong JSON type names its field, with no traceback
        path = tmp_path / "in.json"
        path.write_text(value)
        args = {"instance": ["optimize", "--instance", str(path)],
                "popularity": ["optimize", "--users", "2", "--cache", "1", "--popularity", value],
                "sizes": ["optimize", "--users", "2", "--cache", "1",
                          "--popularity", "[0.6, 0.4]", "--sizes", value],
                "placement": ["rate", "--users", "2", "--cache", "1", "--popularity", "[0.6, 0.4]",
                              "--placement", str(path), "--demand", "1,2"]}[kind]
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and field in err and err.count("\n") == 1

    def test_bounds_refuse_before_search(self, capsys, monkeypatch):
        def search(inst):
            raise AssertionError("the grouping search ran before the bounds' guards")

        monkeypatch.setattr(optimizer, "_candidates", search)
        code, out, err = run_cli(capsys, "optimize", "--files", "40", "--users", "5",
                                 "--cache", "8", "--zipf", "0.8")
        assert code == 3 and out == ""
        assert "tableau guard" in err

    def test_size_guard_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--files", "13", "--users", "8",
                               "--cache", "1", "--zipf", "0.5")
        assert code == 3
        assert "guard" in err
        # P1 reads the file-set table, refused on its (level, file set) keys
        code, out, err = run_cli(capsys, "bound", "--which", "p1", "--files", "30", "--users", "8",
                                 "--cache", "3", "--zipf", "0.8")
        assert code == 3 and out == ""
        assert "keys" in err
        # P2 and the placement LP would pivot a 420 MiB dual tableau at (1000,4)
        for argv in (("bound", "--which", "p2"), ("optimize", "--method", "lp")):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv, "--files", "1000", "--users", "4",
                                     "--cache", "100", "--zipf", "0.8")
            assert time.perf_counter() - start < 1.0
            assert code == 3 and out == ""
            assert "(420 MiB) exceeds the 256 MiB tableau guard" in err
        # the general bound's first program would pivot a 602 MiB dual tableau
        code, out, err = run_cli(capsys, "bound", "--which", "p1", "--files", "20", "--users", "4",
                                 "--cache", "5", "--zipf", "0.56")
        assert code == 3 and out == ""
        assert "tableau guard" in err
        # P4 is refused from (N, K) before its message weights: 392 MiB at (16,4)
        sizes = json.dumps(np.linspace(0.5, 2.0, 16).tolist())
        code, out, err = run_cli(capsys, "sweep", "--files", "16", "--users", "4", "--zipf", "0.56",
                                 "--sizes", sizes, "--start", "4", "--stop", "4", "--step", "1",
                                 "--outputs", "p4,lb_p5")
        assert code == 3 and out == ""
        assert "tableau guard" in err


class TestBoundCommand:
    def test_solver_failure_exit_1(self, capsys, monkeypatch):
        # a solver fault (a RuntimeError from the bound) exits 1 with a
        # one-line reason and no traceback
        reason = ("placement program returned an infeasible placement "
                  "(nonnegative: a[2,8] = -4.47035e-08 < 0); this is a bug")

        def failed(inst):
            raise RuntimeError(reason)

        monkeypatch.setattr(bounds, "lower_bound_p2", failed)
        code, out, err = run_cli(capsys, "bound", "--which", "p2", "--files", "50", "--users", "10",
                                 "--cache", "10", "--zipf", "0.8")
        assert (code, out, err) == (1, "", f"error: {reason}\n")

    def test_emits_which_value_placement(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--files", "4", "--users", "2",
                               "--cache", "1.5", "--zipf", "1.0", "--which", "p2")
        assert code == 0
        doc = json.loads(out)
        assert doc["which"] == "P2"
        assert np.asarray(doc["placement"]).shape == (4, 3)

    def test_sized_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--files", "4", "--users", "2",
                               "--cache", "2.0", "--zipf", "0.56",
                               "--sizes", "[1.5, 1.25, 1.0, 0.75]", "--which", "p5")
        assert code == 0
        assert json.loads(out)["which"] == "P5"

    @pytest.mark.parametrize("which", ["p1", "p2"])
    def test_uniform_bound_rejects_sizes_exit_2(self, capsys, which):
        code, out, err = run_cli(capsys, "bound", "--files", "4", "--users", "2",
                                 "--cache", "4", "--zipf", "0.8",
                                 "--sizes", "[1,2,1,0.5]", "--which", which)
        assert code == 2 and out == ""
        assert "lower_bound_p5" in err

    def test_no_negative_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--files", "7", "--users", "4",
                               "--cache", "2", "--zipf", "0.56", "--which", "p1")
        assert code == 0
        assert "-0.0" not in out

    def test_bound_looked_up_on_module_per_call(self, capsys, monkeypatch):
        # tracing wrappers rebind the module attribute after cli is imported
        calls = []
        original = bounds.lower_bound_p2

        def recorded(inst):
            calls.append(inst)
            return original(inst)

        monkeypatch.setattr(bounds, "lower_bound_p2", recorded)
        code, _, _ = run_cli(capsys, "bound", "--files", "4", "--users", "2",
                             "--cache", "1.5", "--zipf", "1.0", "--which", "p2")
        assert code == 0 and len(calls) == 1


class TestNegativeZero:
    """A value that rounds to zero prints unsigned in every output format."""

    @pytest.mark.parametrize("argv", [
        ("bound", "--files", "2", "--users", "3", "--cache", "2", "--zipf", "0",
         "--which", "p2"),
        ("optimize", "--files", "2", "--users", "2", "--cache", "0", "--zipf", "0.56"),
        ("optimize", "--files", "2", "--users", "2", "--cache", "0", "--zipf", "0.56",
         "--format", "csv"),
        ("sweep", "--files", "2", "--users", "3", "--cache", "0", "--zipf", "0",
         "--variable", "cache", "--start", "2", "--stop", "2", "--step", "1"),
    ])
    def test_rounded_zero_is_unsigned(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert re.findall(r"-0\.0+(?![0-9])", out) == []


class TestSweepCommand:
    ARGS = ("sweep", "--files", "4", "--users", "3", "--cache", "0", "--zipf", "1.0",
            "--variable", "cache", "--start", "0", "--stop", "4", "--step", "1")

    def test_header_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,mccs_opt,ccs_opt,lb_p1,lb_p2"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == 0.0 and last[0] == 4.0
        assert last[1] == pytest.approx(0.0, abs=1e-9)

    def test_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, again, _ = run_cli(capsys, *self.ARGS)
        assert first == again

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--files", "3", "--users", "2",
                               "--cache", "0", "--zipf", "0.5", "--variable", "cache",
                               "--start", "1", "--stop", "1", "--step", "0.5",
                               "--outputs", "mccs_opt")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,mccs_opt" and len(lines) == 2

    def test_theta_sweep_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--files", "4", "--users", "3",
                               "--cache", "1", "--zipf", "0.0", "--variable", "theta",
                               "--start", "0", "--stop", "1.5", "--step", "0.5",
                               "--outputs", "mccs_opt,ccs_opt")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            _, mccs, ccs = (float(v) for v in line.split(","))
            assert mccs <= ccs + 1e-9

    def test_theta_sweep_needs_no_zipf(self, capsys):
        # every grid point draws Zipf(theta) over --files, so --zipf is optional here
        argv = ("sweep", "--files", "5", "--users", "2", "--cache", "1", "--variable", "theta",
                "--start", "0", "--stop", "1", "--step", "0.5", "--outputs", "mccs_opt")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == "x,mccs_opt\n0.000000,1.280000\n0.500000,1.257232\n1.000000,1.035164\n"
        assert run_cli(capsys, *argv, "--zipf", "1")[1] == out

    def test_sized_sweep_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--files", "3", "--users", "2",
                               "--cache", "0", "--zipf", "0.56",
                               "--sizes", "[1.5, 1.0, 0.5]", "--variable", "cache",
                               "--start", "1", "--stop", "2", "--step", "1",
                               "--outputs", "p4,lb_p5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,p4,lb_p5"
        for line in lines[1:]:
            _, p4, p5 = (float(v) for v in line.split(","))
            assert abs(p4 - p5) < 1e-6  # two users: delivery attains the bound

    def test_sized_default_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--files", "3", "--users", "2",
                               "--cache", "0", "--zipf", "0.56",
                               "--sizes", "[1.5, 1.0, 0.5]", "--variable", "cache",
                               "--start", "1", "--stop", "2", "--step", "1")
        assert code == 0
        assert out.splitlines()[0] == "x,p4,lb_p5"

    def test_sized_lb_p1_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--files", "4", "--users", "2",
                               "--cache", "0", "--zipf", "0.8", "--sizes", "[1,2,1,0.5]",
                               "--variable", "cache", "--start", "1", "--stop", "2",
                               "--step", "1", "--outputs", "lb_p1,lb_p5")
        assert code == 2
        assert "lower_bound_p5" in err

    def test_cache_sweep_needs_no_cache(self, capsys):
        # every grid point sets the cache size, so --cache is optional here
        at = self.ARGS.index("--cache")
        code, out, _ = run_cli(capsys, *self.ARGS[:at], *self.ARGS[at + 2:])
        assert code == 0
        assert out == run_cli(capsys, *self.ARGS)[1]

    def test_theta_sweep_rejects_popularity_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--users", "2", "--cache", "1",
                                 "--popularity", "[0.9, 0.05, 0.05]", "--variable", "theta",
                                 "--start", "0", "--stop", "0", "--step", "1",
                                 "--outputs", "mccs_opt")
        assert code == 2 and out == ""
        assert "--popularity" in err and len(err.strip().splitlines()) == 1

    def test_theta_sweep_rejects_instance_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"users": 2, "cache": 1, "popularity": [0.9, 0.05, 0.05]}))
        code, out, err = run_cli(capsys, "sweep", "--instance", str(path), "--variable", "theta",
                                 "--start", "0", "--stop", "0", "--step", "1",
                                 "--outputs", "mccs_opt")
        assert code == 2 and out == ""
        assert "--instance" in err and len(err.strip().splitlines()) == 1

    def test_bad_grid_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--files", "3", "--users", "2",
                               "--cache", "0", "--zipf", "1.0", "--variable", "cache",
                               "--start", "0", "--stop", "1", "--step", "-1")
        assert code == 2

    def test_unknown_output_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--files", "3", "--users", "2",
                             "--cache", "0", "--zipf", "1.0", "--variable", "cache",
                             "--start", "0", "--stop", "1", "--step", "1",
                             "--outputs", "bogus")
        assert code == 2


class TestRateCommand:
    @pytest.fixture
    def table_placement(self, tmp_path):
        row = [3 / 7, 1 / 7, 0.0, 0.0, 0.0]
        path = tmp_path / "placement.json"
        path.write_text(json.dumps({"placement": [row] * 7}))
        return str(path)

    def instance_args(self):
        return ("--files", "7", "--users", "4", "--cache", "1", "--zipf", "0.56")

    def test_all_distinct_demand_attains_bound(self, capsys, table_placement):
        code, out, _ = run_cli(capsys, "rate", *self.instance_args(),
                               "--placement", table_placement, "--demand", "1,2,3,4")
        assert code == 0
        doc = json.loads(out)
        assert doc["rate_mccs"] == pytest.approx(doc["rlb_popfirst"], abs=1e-6)
        assert doc["distinct"] == [1, 2, 3, 4]

    def test_single_file_demand(self, capsys, table_placement):
        code, out, _ = run_cli(capsys, "rate", *self.instance_args(),
                               "--placement", table_placement, "--demand", "1,1,1,1")
        assert code == 0
        doc = json.loads(out)
        # sum_l C(3, l) a_{1,l} for the uniform split
        assert doc["rate_mccs"] == pytest.approx(3 / 7 + 3 / 7, abs=1e-6)
        assert doc["rate_mccs_lemma3"] == pytest.approx(doc["rate_mccs"], abs=1e-6)

    def test_invalid_demand_exit_2(self, capsys, table_placement):
        code, _, err = run_cli(capsys, "rate", *self.instance_args(),
                               "--placement", table_placement, "--demand", "1,2,9,4")
        assert code == 2

    def test_demand_parse_and_validate(self, capsys, table_placement):
        code, out, _ = run_cli(capsys, "rate", *self.instance_args(),
                               "--placement", table_placement, "--demand", "1,1,2,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["demand"] == [1, 1, 2, 1] and doc["distinct"] == [1, 2]
        for demand, message in [
            ("1,x", "demand must be comma-separated file indices: '1,x'"),
            ("1,2,3", "demand has 3 entries, expected 4"),
            ("1,2,9,4", "file index 9 outside 1..7"),
            ("0,1,2,3", "file index 0 outside 1..7"),
        ]:
            code, out, err = run_cli(capsys, "rate", *self.instance_args(),
                                     "--placement", table_placement, "--demand", demand)
            assert (code, out, err) == (2, "", f"error: {message}\n"), demand

    def test_infeasible_placement_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[0.5, 0.5, 0.5]] * 2))
        code, _, err = run_cli(capsys, "rate", "--files", "2", "--users", "2",
                               "--cache", "1", "--zipf", "0.5",
                               "--placement", str(path), "--demand", "1,2")
        assert code == 2
        assert "infeasible" in err

    def test_nan_placement_exit_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"placement": [[NaN, 0.5, 0.25], [1, 0, 0], [1, 0, 0]]}')
        code, out, err = run_cli(capsys, "rate", "--files", "3", "--users", "2",
                                 "--cache", "1", "--zipf", "0.5",
                                 "--placement", str(path), "--demand", "1,2")
        assert code == 2 and out == ""
        assert "finite: a[1,0] = nan" in err

    def optimized_placement(self, capsys, tmp_path, shift=0.0):
        code, out, _ = run_cli(capsys, "optimize", *self.instance_args())
        assert code == 0
        doc = json.loads(out)
        doc["placement"][0][0] += shift
        path = tmp_path / "optimized.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_accepts_printed_optimum(self, capsys, tmp_path):
        # optimize prints entries to 6 decimals, so its rows sum to 0.999999
        path = self.optimized_placement(capsys, tmp_path)
        code, out, err = run_cli(capsys, "rate", *self.instance_args(),
                                 "--placement", path, "--demand", "1,1,2,3")
        assert code == 0, err
        assert json.loads(out)["distinct"] == [1, 2, 3]

    def test_rejects_row_beyond_rounding(self, capsys, tmp_path):
        path = self.optimized_placement(capsys, tmp_path, shift=1e-4)
        code, _, err = run_cli(capsys, "rate", *self.instance_args(),
                               "--placement", path, "--demand", "1,1,2,3")
        assert code == 2
        assert "file 1 partitions" in err


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out


class TestOutputFiles:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--files", "3", "--users", "2",
                               "--cache", "0", "--zipf", "1.0", "--variable", "cache",
                               "--start", "0", "--stop", "1", "--step", "1",
                               "--outputs", "mccs_opt", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("x,mccs_opt")


class TestSingleProcess:
    """A sweep solves its points one at a time, in grid order, in this process."""

    @staticmethod
    def sweep(capsys, *grid):
        code, out, err = run_cli(capsys, "sweep", "--files", "5", "--users", "3", "--zipf", "0.8",
                                 *grid)
        assert code == 0, err
        return out

    def test_sweep_runs_in_calling_process(self, capsys, monkeypatch):
        calls = []
        for module, name in ((optimizer, "optimize_mccs"), (bounds, "lower_bound_p2")):
            def tap(inst, *args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append((_name, inst.cache_size))
                return _fn(inst, *args, **kwargs)

            monkeypatch.setattr(module, name, tap)
        self.sweep(capsys, "--variable", "cache", "--start", "0.5", "--stop", "2.5",
                   "--step", "1", "--outputs", "mccs_opt,lb_p2")
        assert calls == [(name, x) for x in (0.5, 1.5, 2.5)
                         for name in ("optimize_mccs", "lower_bound_p2")]

    @pytest.mark.parametrize("grid,whole,halves", [
        (("--variable", "cache", "--step", "0.3"), ("0.3", "2.1"), (("0.3", "0.9"), ("1.2", "2.1"))),
        (("--cache", "1.2", "--variable", "theta", "--step", "0.2"), ("0.1", "1.3"),
         (("0.1", "0.5"), ("0.7", "1.3"))),
    ], ids=["cache", "theta"])
    def test_split_grid_concatenates(self, capsys, grid, whole, halves):
        # the documented way to use several cores: one process per part of the grid
        def run(start, stop):
            return self.sweep(capsys, *grid, "--start", start, "--stop", stop)

        first, second = (run(*half) for half in halves)
        header, rest = second.split("\n", 1)
        assert first.startswith(header + "\n")
        assert run(*whole) == first + rest

    def test_out_of_memory_exit_3(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(optimizer, "optimize_mccs", exhausted)
        code, out, err = run_cli(capsys, "optimize", "--files", "4", "--users", "2",
                                 "--cache", "1", "--zipf", "0.5")
        assert code == 3 and out == ""
        assert err == "error: out of memory\n"
