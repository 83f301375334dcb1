"""Print cacheopt's values on a fixed grid, one line per value.

    python tools/parity.py --src path/to/tree/src > values.txt

``cacheopt`` is imported from ``--src``, so two trees (say, a change and its
parent checked out with ``git worktree add``) print comparable outputs, and
``diff`` lists every value that changed with both reprs.  A line reads

    <instance> <quantity> <repr of the value> <SHA-256 of the placement bytes, or -> [<pivots>]

Quantities: the rate coefficients ``g`` and ``g_ccs`` and P2's weights
``p2``, per entry [file, level]; ``expected_rate`` for both schemes and the
all-distinct conditional rate on a popularity-first and an arbitrary
placement; where the file-set table is small, the distinct-set
probabilities and P4's message weights per file set (1-based) and level;
and where it is smaller still, the optimal placement of each program at
M = N/3: P1 to P4 (``lower_bound_p1``, ``lower_bound_p2``, ``solve_p3_lp``,
``solve_p4_lp``), P3 for the baseline scheme (``solve_p3_lp:ccs``), P5
(``lower_bound_p5``) with sizes 0.5..1.5, and the grouping search for both
schemes (``optimize_mccs`` without bounds, ``optimize_ccs``).  An LP's line
ends with its simplex pivot count.  The grid is defined here, once, and
always printed whole (about 1 s).  No timings are taken.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
from pathlib import Path

import numpy as np

# (N, K, popularity): zipf (theta 0.8), uniform, tied (runs of two equal
# files), zeros (zipf with its last third at zero), random (Dirichlet)
GRID = [
    (2, 2, "zipf"), (3, 2, "tied"), (4, 3, "zeros"),
    (1, 3, "uniform"), (3, 5, "random"), (5, 1, "tied"), (5, 4, "uniform"),
    (6, 3, "zeros"), (6, 5, "tied"), (7, 4, "zipf"), (7, 7, "random"), (8, 5, "zeros"),
    (8, 6, "zipf"), (9, 6, "zipf"), (9, 4, "tied"), (10, 5, "zipf"), (10, 7, "zeros"),
    (12, 4, "zipf"), (10, 2, "random"),
]
TABLE_KEYS = 2000  # file-set quantities only up to this many (level, file set) keys
SOLVE_KEYS = 300  # placement programs and the search only up to this many


def popularity(n: int, k: int, kind: str) -> np.ndarray:
    if kind == "uniform":
        p = np.ones(n)
    elif kind == "tied":
        p = np.repeat(np.arange((n + 1) // 2, 0, -1), 2)[:n] / 1.0
    elif kind == "random":
        p = np.sort(np.random.default_rng([n, k]).dirichlet(np.ones(n)))[::-1]
    else:
        p = np.arange(1, n + 1) ** -0.8
        if kind == "zeros":
            p[n - n // 3:] = 0.0
    return p / p.sum()


def placements(n: int, k: int) -> dict[str, np.ndarray]:
    arbitrary = np.random.default_rng([n, k, 1]).random((n, k + 1))
    return {"popfirst": -np.sort(-arbitrary, axis=0), "arbitrary": arbitrary}


def sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def solves(lib, inst, label: str):
    """The lines of each program's optimum and of the search's best placement at ``inst``."""
    model, bounds, optimizer = lib[2:]
    n = inst.n_files
    sized = model.Instance(n, inst.n_users, n / 3, inst.popularity, np.linspace(0.5, 1.5, n))
    for name, opt in (("lower_bound_p1", bounds.lower_bound_p1(inst)),
                      ("lower_bound_p2", bounds.lower_bound_p2(inst)),
                      ("solve_p3_lp", optimizer.solve_p3_lp(inst)),
                      ("solve_p3_lp:ccs", optimizer.solve_p3_lp(inst, scheme="ccs")),
                      ("solve_p4_lp", optimizer.solve_p4_lp(inst)),
                      ("lower_bound_p5", bounds.lower_bound_p5(sized))):
        yield f"{label} {name} {opt.value!r} {sha(opt.placement.matrix)} {opt.iterations}"
    for name, best in (("optimize_mccs", optimizer.optimize_mccs(inst, with_bounds=False).best),
                       ("optimize_ccs", optimizer.optimize_ccs(inst))):
        yield f"{label} {name} {best.rate!r} {sha(best.matrix)}"


def lines(lib, n: int, k: int, kind: str):
    """The grid point's lines, in a fixed order."""
    delivery, closedform, model, *_ = lib
    inst = model.Instance(n, k, 0.0, popularity(n, k, kind))
    label = f"{n}x{k}:{kind}"
    coef = closedform.g_coefficients(inst)
    for name, table in (("g", coef.g), ("g_ccs", coef.g_ccs), ("p2", delivery._by_rank(inst))):
        for (f, l), value in np.ndenumerate(table):
            yield f"{label} {name}[{f + 1},{l}] {float(value)!r} -"
    distinct = k <= np.count_nonzero(inst.popularity)
    for form, a in placements(n, k).items():
        for scheme in ("mccs", "ccs"):
            yield f"{label} expected_rate:{scheme}@{form} {delivery.expected_rate(scheme, inst, a)!r} {sha(a)}"
        if distinct:
            value = delivery.conditional_expected_rate_distinct(inst, a)
            yield f"{label} conditional_rate_distinct@{form} {value!r} {sha(a)}"
    keys = sum(keys for _, keys in delivery.set_counts(inst))
    if keys > TABLE_KEYS:
        return
    for files, weights in delivery.message_weights(inst):
        probabilities = delivery._set_probabilities(inst, files)
        for row, prob, w in zip((files + 1).tolist(), probabilities.tolist(), weights.tolist()):
            key = ",".join(map(str, row))
            yield f"{label} set_probability({key}) {prob!r} -"
            for l, value in enumerate(w):
                yield f"{label} message_weight[{l}]({key}) {value!r} -"
    if keys <= SOLVE_KEYS:
        yield from solves(lib, model.Instance(n, k, n / 3, inst.popularity), label)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the cacheopt package")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    lib = tuple(importlib.import_module(f"cacheopt.{name}")
                for name in ("delivery", "closedform", "model", "bounds", "optimizer"))
    if not Path(lib[0].__file__).resolve().is_relative_to(src):
        parser.error(f"cacheopt was imported from {lib[0].__file__}, not from {src}")
    for point in GRID:
        for line in lines(lib, *point):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
