"""Tests of the benchmark itself: metric names, span arithmetic, failure counting.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from cacheopt import bounds, cli, closedform, delivery, optimizer  # noqa: E402
from cacheopt.model import Instance  # noqa: E402

END_TO_END = ["setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb"]
PER_LAYER = [
    "lp.calls", "lp.pivots", "lp.solve_s", "lp.s_per_pivot", "lp.max_rows", "lp.max_cols",
    "lp.dual_fallbacks", "bounds.calls", "bounds.rows", "bounds.self_s",
    "optimizer.candidates", "optimizer.search_s", "optimizer.p3_s", "optimizer.p4_self_s",
    "closedform.g_calls", "closedform.g_hit_ratio", "closedform.self_s",
    "delivery.classes", "delivery.rate_evals", "delivery.enum_s", "cli.self_s",
]

TINY = {
    "general-bound": [(4, 3), (5, 3), (4, 2)],
    "placement-sweep": [(5, 3), (4, 4), (4, 3)],
    "sized-sweep": [(4, 3), (5, 3), (4, 2)],
    "sized-rate": [(5, 3), (4, 4), (6, 3)],
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TINY)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_lists_every_metric_and_workload():
    doc = spec()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.GENERATORS)
    assert [m["name"] for m in doc["end_to_end"]] == END_TO_END
    assert set(PER_LAYER) <= {m["name"] for m in doc["per_layer"]}


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(tiny, name, trace):
    log = io.StringIO()
    result = run.run(name, seed=3, seconds=0.0, trace=trace, root=ROOT, log=log)
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in spec()[kind]]
    units = {m["name"]: m["unit"] for m in spec()[kind]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key]
        assert math.isfinite(metric["value"])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    text = log.getvalue()
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
        assert "failed_frac" in text and "ratio" in text
    json.dumps(result)


def test_self_times_subtract_children():
    # root [0,100] > a [10,30], b [40,90] > c [50,60]
    start = np.array([0, 10, 40, 50])
    end = np.array([100, 30, 90, 60])
    parent = np.array([-1, 0, 0, 2])
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [30.0, 20.0, 40.0, 10.0]
    assert own.sum() == end[0] - start[0]


def test_recorder_rebinds_from_imports_and_restores():
    originals = {
        (optimizer, "lower_bound_p1"): bounds.lower_bound_p1,
        (optimizer, "lower_bound_p2"): bounds.lower_bound_p2,
        (optimizer, "g_coefficients"): closedform.g_coefficients,
        (optimizer, "demand_classes"): delivery.demand_classes,
        (closedform, "demand_classes"): delivery.demand_classes,
        (bounds, "lower_bound_p1"): bounds.lower_bound_p1,
        (cli, "main"): cli.main,
    }
    rec = spans.Recorder()
    rec.install(full=True)
    try:
        for (module, attr), fn in originals.items():
            assert getattr(module, attr) is not fn
            assert getattr(module, attr).__wrapped__ is fn
    finally:
        rec.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn


def test_generators_are_consumed_inside_their_span():
    inst = Instance.from_zipf(5, 3, 1.0, 0.8)
    a = optimizer.optimize_mccs(inst, with_bounds=False).best.matrix
    rec = spans.Recorder()
    rec.install(full=True)
    try:
        rec.begin_op(0)
        value = delivery.expected_rate("mccs", inst, a)
        rec.end_op()
    finally:
        rec.uninstall()
    assert value == pytest.approx(closedform.avg_rate_closed(inst, a), abs=1e-12)
    found = spans.layer_metrics(rec, 1, 1.0, set(), 0.0, 0.0)
    assert found["delivery.classes"][0] == math.comb(5 + 3 - 1, 3)
    assert found["delivery.rate_evals"][0] == math.comb(5 + 3 - 1, 3)


def test_overstated_bound_is_caught():
    inst = Instance.from_zipf(5, 3, 1.2, 0.8)
    p1 = bounds.lower_bound_p1(inst)
    checker = checks.Checker(sys.modules["cacheopt"])
    assert checker.general_bound("P1", inst, p1) == []
    wrong = dataclasses.replace(p1, value=p1.value + 1e-6)
    errors = checker.general_bound("P1", inst, wrong)
    assert any("HiGHS" in e for e in errors) and any("attainment" in e for e in errors)


def test_wrong_value_counts_in_failed_frac(tiny, monkeypatch):
    honest = run.run_op

    def skewed(op, lib):
        out = honest(op, lib)
        return out + 1e-6 if op.scheme == "mccs" else out

    monkeypatch.setattr(run, "run_op", skewed)
    log = io.StringIO()
    result = run.run("sized-exact", seed=5, seconds=0.0, trace=False, root=ROOT, log=log)
    # each sized-exact cycle of nine ops has three mccs rate ops
    n, wrong = result["attempted"], result["attempted"] // 9 * 3
    assert wrong > 0
    assert result["failed"] == wrong and result["correct"] is False
    assert f"{wrong / n:<14.6g}" in log.getvalue()


def test_bare_copies_pair_every_traced_op(tiny, monkeypatch):
    monkeypatch.setenv("CACHEOPT_THREADS", "1")
    lib = sys.modules["cacheopt"]
    rec = spans.Recorder()
    honest = run.run_op

    def skewed_when_bare(op, lib):
        out = honest(op, lib)
        return out + 1e-6 if op.scheme == "mccs" and not rec._saved else out

    monkeypatch.setattr(run, "run_op", skewed_when_bare)
    bare: list[float] = []
    rec.install(full=True)
    try:
        records = run.timed_loop(workloads.cycles("sized-exact", 5, lib), 0.0, lib, rec,
                                 bare=bare)
        assert rec._saved  # the wrappers are back after every bare copy
    finally:
        rec.uninstall()
    assert len(bare) == len(records) and all(t > 0 for t in bare)
    for r in records:
        assert (r.error is not None) == (r.op.scheme == "mccs")


def test_same_seed_same_ops(tiny):
    lib = sys.modules["cacheopt"]

    def argvs(seed):
        gen = workloads.cycles("placement-sweep", seed, lib)
        return [op.argv for _ in range(2) for op in next(gen)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


def test_tail_percentile_keeps_ten_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10) and pct == pytest.approx(90.0)
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "general-bound",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
