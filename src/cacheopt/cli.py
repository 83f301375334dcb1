"""Command-line interface: optimize, bound, sweep, rate, selftest.

Numeric output is fixed to 6 decimal places, so repeated runs with identical
inputs produce byte-identical files.  A sweep solves its points one at a time,
in grid order, in the calling process; each row depends only on its own point,
so to use several cores, split the grid across ``cacheopt sweep`` processes and
concatenate their rows.  Errors exit nonzero with a one-line reason on stderr,
using code 2 for malformed input and 3 for size-guard violations and running
out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from itertools import product

import numpy as np

from . import bounds, delivery, optimizer
from .closedform import avg_rate_closed
from .lp import SizeGuardError
from .model import (
    Instance,
    _floats,
    file_rows,
    ingest_instance,
    is_popularity_first,
    parse_instance_json,
    validate_placement,
    zipf_popularity,
)


def _round6(value):
    if isinstance(value, float):
        return round(value, 6) + 0.0  # + 0.0 turns a rounded -0.0 into 0.0
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def _fixed6(value: float) -> str:
    """``value`` to 6 decimal places; a value that rounds to zero prints unsigned."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_instance_args(sub: argparse.ArgumentParser):
    sub.add_argument("--instance", help="instance JSON file (schema: users/cache/popularity|zipf_theta/sizes)")
    sub.add_argument("--files", type=int, help="number of files N")
    sub.add_argument("--users", type=int, help="number of users K")
    sub.add_argument("--cache", type=float, help="per-user cache size M")
    sub.add_argument("--zipf", type=float, help="Zipf exponent for the popularity")
    sub.add_argument("--popularity", help="popularity vector as a JSON array")
    sub.add_argument("--sizes", help="file sizes as a JSON array")


def _build_instance(args, need_cache: bool = True) -> tuple[Instance, np.ndarray]:
    """The instance the arguments describe; without ``need_cache`` a missing
    --cache reads as 0, for callers that set the cache size themselves."""
    if args.instance:
        with open(args.instance) as fh:
            return parse_instance_json(fh.read())
    if args.users is None or (args.cache is None and need_cache):
        raise ValueError("need --instance or --users/--cache plus a popularity source")
    if args.popularity is not None:
        pop = json.loads(args.popularity)
    elif args.zipf is not None:
        if args.files is None:
            raise ValueError("--zipf needs --files")
        pop = zipf_popularity(args.files, args.zipf)
    else:
        raise ValueError("need --popularity or --zipf")
    sizes = None if args.sizes is None else json.loads(args.sizes)
    return ingest_instance(int(args.users), float(args.cache or 0.0), pop, sizes)


def _placement_table(matrix: np.ndarray) -> str:
    lines = ["l    " + " ".join(f"a_{j + 1:<6d}" for j in range(matrix.shape[0]))]
    lines += [f"{l:<4d} " + " ".join(f"{v:<8.4f}" for v in col) for l, col in enumerate(matrix.T)]
    return "\n".join(lines) + "\n"


def _order_note(order: np.ndarray) -> list[int] | None:
    if np.array_equal(order, np.arange(order.shape[0])):
        return None
    return [int(v) + 1 for v in order]


def cmd_optimize(args) -> int:
    inst, order = _build_instance(args)
    if args.method == "lp":
        opt = optimizer.solve_p3_lp(inst)
        matrix = opt.placement.matrix
        report = {
            "method": "lp",
            "rate_mccs": opt.value,
            "placement": matrix.tolist(),
        }
    else:
        rep = optimizer.optimize_mccs(inst, with_bounds=not args.no_bounds,
                                      with_ccs=not args.no_bounds)
        matrix = rep.best.matrix
        report = {
            "method": "grouping",
            "rate_mccs": rep.rate_mccs,
            "rate_ccs_opt": rep.rate_ccs_opt,
            "lb_p1": rep.lb_p1,
            "lb_p2": rep.lb_p2,
            "gap": rep.gap,
            "grouping": {
                "kind": rep.best.kind,
                "n_o": rep.best.n_o,
                "n_1": rep.best.n_1,
                "l_o": rep.best.l_o,
                "l_1": rep.best.l_1,
            },
            "placement": matrix.tolist(),
        }
    if _order_note(order):
        report["file_order"] = _order_note(order)
    if args.format == "table":
        _emit(_placement_table(matrix), args.out)
    elif args.format == "csv":
        keys = [k for k in ("rate_mccs", "rate_ccs_opt", "lb_p1", "lb_p2", "gap") if report.get(k) is not None]
        line = ",".join(keys) + "\n" + ",".join(_fixed6(report[k]) for k in keys) + "\n"
        _emit(line, args.out)
    else:
        _emit(json.dumps(_round6(report), indent=2) + "\n", args.out)
    return 0


def cmd_bound(args) -> int:
    inst, order = _build_instance(args)
    if args.which not in ("p1", "p2", "p5"):
        raise ValueError(f"unknown bound {args.which!r}")
    res = getattr(bounds, f"lower_bound_{args.which}")(inst)  # per call: wrappers may rebind it
    doc = {"which": args.which.upper(), "value": res.value, "placement": res.placement.matrix.tolist()}
    if _order_note(order):
        doc["file_order"] = _order_note(order)
    _emit(json.dumps(_round6(doc), indent=2) + "\n", args.out)
    return 0


_SWEEP_UNIFORM = ("mccs_opt", "ccs_opt", "lb_p1", "lb_p2")
_SWEEP_SIZED = ("p4", "lb_p5")


def _sweep_point(x: float, inst: Instance, outputs: tuple[str, ...]) -> dict[str, float]:
    row: dict[str, float] = {"x": x}
    if "mccs_opt" in outputs or "ccs_opt" in outputs:
        rep = optimizer.optimize_mccs(inst, with_bounds=False, with_ccs="ccs_opt" in outputs)
        row["mccs_opt"] = rep.rate_mccs
        if rep.rate_ccs_opt is not None:
            row["ccs_opt"] = rep.rate_ccs_opt
    if "lb_p1" in outputs:
        row["lb_p1"] = bounds.lower_bound_p1(inst).value
    if "lb_p2" in outputs:
        row["lb_p2"] = bounds.lower_bound_p2(inst).value
    if "p4" in outputs:
        row["p4"] = optimizer.solve_p4_lp(inst).value
    if "lb_p5" in outputs:
        row["lb_p5"] = bounds.lower_bound_p5(inst).value
    return row


def cmd_sweep(args) -> int:
    if args.variable == "theta":
        if args.popularity is not None or args.instance:
            raise ValueError("--variable theta sweeps Zipf(theta) popularity over --files; "
                             "it cannot take --popularity or --instance")
        if args.zipf is None:  # every point draws its own Zipf(theta); any base will do
            if args.files is None:
                raise ValueError("--variable theta needs --files")
            args.zipf = args.start
    inst, _ = _build_instance(args, need_cache=args.variable != "cache")
    if args.step <= 0:
        raise ValueError("--step must be > 0")
    grid = np.arange(args.start, args.stop + args.step / 2, args.step)
    if grid.size == 0:
        raise ValueError("sweep grid is empty")
    default = _SWEEP_UNIFORM if inst.uniform_sizes else _SWEEP_SIZED
    outputs = tuple(args.outputs.split(",")) if args.outputs else default
    known = set(_SWEEP_UNIFORM + _SWEEP_SIZED)
    for name in outputs:
        if name not in known:
            raise ValueError(f"unknown output column {name!r}")

    xs = [float(x) for x in grid]
    if args.variable == "cache":
        points = [replace(inst, cache_size=x) for x in xs]
    else:
        points = [replace(inst, popularity=zipf_popularity(inst.n_files, x)) for x in xs]

    rows = [_sweep_point(x, point, outputs) for x, point in zip(xs, points)]
    lines = ["x," + ",".join(outputs)]
    lines += [",".join(_fixed6(row[name]) for name in ("x",) + outputs) for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_rate(args) -> int:
    inst, _ = _build_instance(args)
    with open(args.placement) as fh:
        doc = json.load(fh)
    matrix = _floats(doc["placement"] if isinstance(doc, dict) else doc, "placement")
    # 6-decimal entries are off by 5e-7 each: partition weights C(K, l) sum to
    # 2^K per file, cache weights C(K-1, l-1) to 2^(K-1)
    k = inst.n_users
    rounding = {"partition": 5e-7 * 2 ** k, "cache": 5e-7 * inst.n_files * 2 ** (k - 1)}
    violations = [v for v in validate_placement(inst, matrix)
                  if v.residual > rounding.get(v.constraint, -1.0)]
    if violations:
        raise ValueError("placement infeasible: " + "; ".join(str(v) for v in violations))
    try:
        demand = tuple(int(tok) for tok in args.demand.split(","))
    except ValueError as exc:
        raise ValueError(f"demand must be comma-separated file indices: {args.demand!r}") from exc
    if len(demand) != inst.n_users:
        raise ValueError(f"demand has {len(demand)} entries, expected {inst.n_users}")
    file_rows(demand, inst.n_files)
    dset = delivery.distinct_set(demand)
    doc = {
        "demand": list(demand),
        "distinct": list(dset),
        "rate_mccs": delivery.rate_mccs(demand, matrix),
        "rate_ccs": delivery.rate_ccs(demand, matrix),
        "rlb_general": bounds.rlb_general(dset, matrix),
    }
    if is_popularity_first(matrix):
        doc["rate_mccs_lemma3"] = delivery.rate_mccs_lemma3(demand, matrix)
        doc["rlb_popfirst"] = bounds.rlb_popfirst(dset, matrix)
    _emit(json.dumps(_round6(doc), indent=2) + "\n", args.out)
    return 0


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    p = zipf_popularity(7, 0.56)
    expect = sorted([0.0888, 0.0968, 0.1072, 0.1215, 0.2640, 0.1427, 0.1791], reverse=True)
    checks.append(("zipf reference values (4 d.p.)", bool(np.allclose(np.round(p, 4), expect, atol=5e-5))))

    inst = Instance(2, 2, 0.6, [0.6, 0.4])
    a = np.array([[0.2, 0.4, 0.0], [0.6, 0.2, 0.0]])
    checks.append(("two-user worked example average rate",
                   abs(delivery.expected_rate("mccs", inst, a) - 0.92) < 1e-12))

    # asymmetric feasible placement: average two closed-form candidates that
    # use the same cache budget (convexity keeps all constraints and the
    # popularity-first order)
    inst2 = Instance.from_zipf(4, 3, 1.5, 0.8)
    blend = (0.5 * optimizer.one_group_candidate(inst2, 2).matrix
             + 0.5 * optimizer.two_group_candidate(inst2, 2, 3, 2, n_top=3).matrix)
    demands = list(product(range(1, 5), repeat=3))  # every demand of inst2, listed
    enum = math.fsum(math.prod(inst2.popularity[f - 1] for f in d) * delivery.rate_mccs(d, blend)
                     for d in demands)
    checks.append(("closed form matches exact enumeration",
                   abs(avg_rate_closed(inst2, blend) - enum) < 1e-9))

    ok_l3 = all(
        abs(delivery.rate_mccs_lemma3(d, blend) - delivery.rate_mccs(d, blend)) < 1e-12
        for d in demands
    )
    checks.append(("redundancy-counting rate identity", ok_l3))

    inst3 = Instance.from_zipf(5, 3, 2.0, 1.0)
    rep = optimizer.optimize_mccs(inst3, with_bounds=False, with_ccs=False)
    p3 = optimizer.solve_p3_lp(inst3)
    checks.append(("grouping search matches placement LP", abs(rep.rate_mccs - p3.value) < 1e-6))

    for name, ok in checks:
        print(("PASS" if ok else "FAIL") + f"  {name}")
    return 0 if all(ok for _, ok in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cacheopt",
                                     description="cache placement optimization and delivery-rate bounds")
    subs = parser.add_subparsers(dest="command", required=True)

    opt = subs.add_parser("optimize", help="optimal placement and rate report")
    _add_instance_args(opt)
    opt.add_argument("--method", choices=("grouping", "lp"), default="grouping")
    opt.add_argument("--format", choices=("json", "csv", "table"), default="json")
    opt.add_argument("--no-bounds", action="store_true", help="skip the lower-bound columns")
    opt.add_argument("--out", help="write output to a file instead of stdout")
    opt.set_defaults(func=cmd_optimize)

    bnd = subs.add_parser("bound", help="average-rate lower bounds")
    _add_instance_args(bnd)
    bnd.add_argument("--which", choices=("p1", "p2", "p5"), default="p1")
    bnd.add_argument("--out")
    bnd.set_defaults(func=cmd_bound)

    swp = subs.add_parser("sweep", help="CSV sweep over cache size or Zipf exponent")
    _add_instance_args(swp)
    swp.add_argument("--variable", choices=("cache", "theta"), default="cache")
    swp.add_argument("--start", type=float, required=True)
    swp.add_argument("--stop", type=float, required=True)
    swp.add_argument("--step", type=float, required=True)
    swp.add_argument("--outputs", help="comma-separated subset of "
                     "mccs_opt,ccs_opt,lb_p1,lb_p2,p4,lb_p5")
    swp.add_argument("--out")
    swp.set_defaults(func=cmd_sweep)

    rte = subs.add_parser("rate", help="per-demand delivery rates for a stored placement")
    _add_instance_args(rte)
    rte.add_argument("--placement", required=True, help="placement JSON ([N][K+1] matrix)")
    rte.add_argument("--demand", required=True, help="comma-separated file indices")
    rte.add_argument("--out")
    rte.set_defaults(func=cmd_rate)

    slf = subs.add_parser("selftest", help="quick library consistency checks")
    slf.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SizeGuardError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
