"""cacheopt benchmark: one seeded workload, closed loop, one client.

Run from the root of a cacheopt checkout:

    python3 perfbench/run.py --workload general-bound --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The next op is issued only after the previous one returns.  Whole workload
cycles run until the ops have taken ``--seconds``; input generation and the
output checks happen outside the timed region.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a run whose spans are recorded from outside the program (see
``spans.py``).  ``--workload all`` runs every workload, each in a fresh
process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
TAIL_BEYOND = 10
PROBE = ("import sys; sys.path.insert(0, 'src'); import numpy, cacheopt.cli; "
         "cacheopt.cli.build_parser(); print('ready', flush=True)")


def probe_setup(root: str) -> float:
    """Seconds from starting a fresh interpreter until it can issue the first op."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], cwd=root,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it.

    Returns (value, percentile, ops beyond).  With fewer than TAIL_BEYOND + 1
    ops no percentile qualifies and the smallest latency is returned.
    """
    ordered = sorted(latencies)
    i = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def run_op(op, lib) -> object:
    """Issue one op; returns its printed CLI output or its expected rate."""
    if op.argv is None:
        return lib.delivery.expected_rate(op.scheme, op.inst, op.placement)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(op.argv)
    if code != 0:
        raise RuntimeError(f"cacheopt {op.argv[0]} exited with {code}")
    return buf.getvalue()


class CheckoutError(RuntimeError):
    """The working directory is not a cacheopt checkout."""


@dataclass
class OpRecord:
    op: workloads.Op
    latency: float
    output: object  # CLI text, or the rate a library op returned
    error: str | None
    taps: list  # (function, first argument, result) from the recorder


def issue(op, lib) -> tuple[float, object, str | None]:
    """Issue one op; returns its latency, output and error (a failed op is counted, not fatal)."""
    error = output = None
    t0 = time.perf_counter()
    try:
        output = run_op(op, lib)
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=3)
    return time.perf_counter() - t0, output, error


def issue_bare(op, lib, rec) -> tuple[float, object, str | None]:
    """``issue`` with the recorder's wrappers removed and an empty coefficient cache.

    The ``closedform`` coefficient cache is emptied before and after, so this
    issue and the recorded issue of the same op miss it alike.
    """
    coefficients = getattr(lib.closedform, "_cache", {})
    coefficients.clear()
    rec.uninstall()
    try:
        return issue(op, lib)
    finally:
        rec.install(full=rec.full)
        coefficients.clear()


def timed_loop(cycles, seconds: float, lib, rec, between=None, bare=None) -> list[OpRecord]:
    """Run whole cycles of ops until the ops have taken ``seconds`` or the cycles end.

    ``between(busy)``, if given, is called after each op, outside its latency.
    If ``bare`` is a list, every op is also issued by ``issue_bare``, just
    before its recorded issue on even ops and just after it on odd ones, and
    the latency of that copy is appended to ``bare``.  Paired this way, both
    issues of an op run at the same host speed.  The copies count toward
    ``seconds``.  A copy that raises or prints other output fails the op.
    """
    records: list[OpRecord] = []
    busy = 0.0
    for cycle in cycles:
        for op in cycle:
            i = len(records)
            if bare is not None and i % 2 == 0:
                copy = issue_bare(op, lib, rec)
            first = rec.begin_op(i)
            latency, output, error = issue(op, lib)
            rec.end_op()
            if bare is not None:
                if i % 2 == 1:
                    copy = issue_bare(op, lib, rec)
                bare.append(copy[0])
                busy += copy[0]
                if error is None and copy[1:] != (output, None):
                    error = copy[2] or "output differs without the recorder"
            busy += latency
            records.append(OpRecord(op, latency, output, error, rec.taps(first)))
            if between is not None:
                between(busy)
        if busy >= seconds:
            break
    return records


def check_records(records: list[OpRecord], lib, log=sys.stderr) -> int:
    """Check every op (outside the timed region); returns the number failed."""
    import checks  # scipy is imported only after the timed loop and the memory reading

    checker = checks.Checker(lib)
    rerun = records[0]
    if rerun.error is None:
        try:
            if run_op(rerun.op, lib) != rerun.output:
                rerun.error = "output differs when the same op is issued again"
        except (Exception, SystemExit):
            rerun.error = traceback.format_exc(limit=3)
    failed = 0
    for i, r in enumerate(records):
        errors = [r.error] if r.error else []
        if not errors:
            try:
                errors = checker.check(r.op, r.output, r.taps)
            except Exception:  # a check that cannot run is a failed op
                errors = [traceback.format_exc(limit=3)]
        if errors:
            failed += 1
            print(f"FAILED op {i} ({r.op.label}):", *errors, sep="\n  ", file=log)
    return failed


def import_checkout(root: str):
    """Import cacheopt from ``root/src``, never from an installed copy."""
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "cacheopt", "__init__.py")):
        raise CheckoutError(f"no cacheopt sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import cacheopt

    if os.path.dirname(os.path.dirname(os.path.realpath(cacheopt.__file__))) != src:
        raise CheckoutError(f"cacheopt was imported from {cacheopt.__file__}, not {src}")
    return cacheopt


def run(name: str, seed: int, seconds: float, trace: bool, root: str = ".",
        spans_path: str | None = None, log=sys.stdout) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    lib = import_checkout(root)
    setup: list[float] = []

    def probe_between(busy: float):
        """Spread the set-up probes over the timed loop, so their fastest is
        taken over the whole run rather than over a few seconds of it."""
        while len(setup) < SETUP_PROBES and len(setup) * seconds <= busy * SETUP_PROBES:
            setup.append(probe_setup(root))

    if not trace:
        probe_setup(root)  # untimed: loads the interpreter and libraries into the file cache
    rec = spans.Recorder()
    rec.install(full=trace)
    saved_threads = os.environ.get("CACHEOPT_THREADS")
    os.environ["CACHEOPT_THREADS"] = "1"  # sweeps run in this process, one point at a time
    try:
        lib.cli.main(["optimize", "--files", "3", "--users", "2", "--cache", "1", "--zipf", "1",
                      "--no-bounds", "--out", os.devnull])  # warm-up, untimed
        bare: list[float] = []
        records = timed_loop(workloads.cycles(name, seed, lib), seconds, lib, rec,
                             None if trace else probe_between, bare if trace else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = check_records(records, lib)
    finally:
        rec.uninstall()
        if saved_threads is None:
            os.environ.pop("CACHEOPT_THREADS", None)
        else:
            os.environ["CACHEOPT_THREADS"] = saved_threads

    latencies = [r.latency for r in records]
    busy = sum(latencies)
    n = len(records)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  ops {n}  busy {busy:.3f} s", file=log)
    if trace:
        optimize = {i for i, r in enumerate(records) if r.op.kind == "optimize"}
        found = spans.layer_metrics(rec, n, busy, optimize,
                                    sum(records[i].latency for i in optimize), sum(bare))
        notes = {}
        if spans_path:
            rec.write(spans_path)
    else:
        tail_s, tail_pct, beyond = tail(latencies)
        found = {
            "setup_s": (min(setup), "s"),
            "ops_per_s": (n / busy, "ops/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (tail_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        notes = {
            "setup_s": f"fastest of {len(setup)} fresh interpreters, spread over the run",
            "op_tail_s": f"p{tail_pct:.1f} of {n} ops, {beyond} beyond it",
        }
    for key, (value, unit) in found.items():
        print(f"  {key:<28} {value:<14.6g} {unit:<9} {notes.get(key, '')}", file=log)
    if not trace:
        print(f"  {'failed_frac':<28} {failed / n:<14.6g} {'ratio':<9} {failed} of {n} ops", file=log)
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in found.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in workloads.GENERATORS]
        return max(codes)

    spans_path = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"spans-{args.workload}.npz")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_path=spans_path)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
