"""The library calls and CLI forms that the benchmark in ``perfbench/`` relies on.

The tier-1 suite does not run the benchmark, so a rename that breaks it would
show only when the benchmark itself runs.  Each call here mirrors one that
``perfbench/`` makes, through the same attribute paths
(``cacheopt.<module>.<name>``), on small instances.  This file does not import
``perfbench``.
"""

import inspect
import json
import os

import pytest

import cacheopt as lib
import cacheopt.cli  # noqa: F401  the benchmark imports every layer, cli too, by module name

from conftest import enumerate_distinct_sets

ARGS = ["--files", "5", "--users", "3", "--cache", "1.200000", "--zipf", "0.800000"]
SIZES = ["--sizes", "[1.500,0.700,1.200,0.500,2.000]"]
EXACT_TOL = 1e-9


@pytest.fixture(scope="module")
def inst():
    return lib.model.Instance.from_zipf(5, 3, 1.2, 0.8)


@pytest.fixture(scope="module")
def sized():
    return lib.model.Instance(5, 3, 2.0, lib.model.zipf_popularity(5, 0.8),
                              [1.5, 0.7, 1.2, 0.5, 2.0])


def cli_out(capsys, argv) -> str:
    code = lib.cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def test_general_bounds(inst, sized):
    for which, case in (("p1", inst), ("p2", inst), ("p5", inst), ("p5", sized)):
        res = getattr(lib.bounds, f"lower_bound_{which}")(case)
        assert lib.model.validate_placement(case, res.placement.matrix) == []
        if which != "p2":  # P1 and P5 are attained at their placement, set by set
            attained = sum(lib.bounds.distinct_set_probability(case, d)
                           * lib.bounds.rlb_general(tuple(d), res.placement.matrix)
                           for d in enumerate_distinct_sets(case))
            assert abs(attained - res.value) <= EXACT_TOL


def test_search_and_expected_rates(inst):
    bare = lib.optimizer.optimize_mccs(inst, with_bounds=False, with_ccs=False)
    full = lib.optimizer.optimize_mccs(inst, with_bounds=False)
    assert bare.rate_mccs == full.rate_mccs <= full.rate_ccs_opt + EXACT_TOL
    m = bare.best.matrix
    assert lib.model.validate_placement(inst, m) == []
    for scheme, closed in (("mccs", lib.closedform.avg_rate_closed),
                           ("ccs", lib.closedform.avg_rate_ccs_closed)):
        assert abs(closed(inst, m) - lib.delivery.expected_rate(scheme, inst, m)) <= EXACT_TOL
    assert abs(bare.rate_mccs - lib.delivery.expected_rate("mccs", inst, m)) <= EXACT_TOL


def test_p4_attained(sized):
    p4 = lib.optimizer.solve_p4_lp(sized)
    assert lib.model.validate_placement(sized, p4.placement.matrix) == []
    assert abs(lib.delivery.expected_rate("mccs", sized, p4.placement.matrix) - p4.value) <= EXACT_TOL
    assert lib.bounds.lower_bound_p5(sized).value <= p4.value + EXACT_TOL


def test_cli_forms(capsys):
    lib.cli.build_parser()
    assert lib.cli.main(["optimize", *ARGS, "--no-bounds", "--out", os.devnull]) == 0
    doc = json.loads(cli_out(capsys, ["optimize", *ARGS]))
    assert {"lb_p1", "lb_p2", "rate_mccs", "rate_ccs_opt", "placement"} <= set(doc)
    assert set(json.loads(cli_out(capsys, ["bound", *ARGS, "--which", "p1"]))) >= {"value"}


@pytest.mark.parametrize("grid,outputs,tapped", [
    (["--variable", "theta", "--start", "0.4", "--stop", "0.8", "--step", "0.2"],
     "mccs_opt,ccs_opt,lb_p2", ("optimizer.optimize_mccs", "bounds.lower_bound_p2")),
    (["--variable", "cache", "--start", "0.5", "--stop", "2.5", "--step", "1"],
     "mccs_opt,ccs_opt,lb_p2", ("optimizer.optimize_mccs", "bounds.lower_bound_p2")),
    (SIZES + ["--variable", "cache", "--start", "0.6", "--stop", "3.6", "--step", "1.5"],
     "p4,lb_p5", ("optimizer.solve_p4_lp", "bounds.lower_bound_p5")),
], ids=["theta", "cache", "sized"])
def test_sweep_taps_in_process(capsys, monkeypatch, grid, outputs, tapped):
    """A sweep calls the tapped functions in this process, once per point and in
    grid order, each with that point's Instance as its first argument: the
    benchmark pairs a point's results by that object."""
    calls = []
    for qual in tapped:
        layer, name = qual.split(".")
        module = getattr(lib, layer)

        def tap(*args, _fn=getattr(module, name), _qual=qual, **kwargs):
            calls.append((_qual, args[0]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, tap)
    out = cli_out(capsys, ["sweep", *ARGS, *grid, "--outputs", outputs])
    lines = out.strip().split("\n")
    assert lines[0] == "x," + outputs and len(lines) == 4
    assert [name for name, _ in calls] == list(tapped) * 3
    assert all(isinstance(arg, lib.model.Instance) for _, arg in calls)
    assert all(a is b for (_, a), (_, b) in zip(calls[::2], calls[1::2]))


def test_lp_public_functions_are_the_solves():
    # the benchmark reads LP dimensions off every public function of ``lp``
    public = {name for name, fn in vars(lib.lp).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and fn.__module__ == lib.lp.__name__}
    assert public == {"solve"}
