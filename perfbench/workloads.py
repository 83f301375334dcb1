"""Seeded workload generators.

A workload is an endless sequence of cycles; each cycle is a short list of
ops with a fixed mix of instance sizes and op kinds, and the seed draws the
Zipf exponent, cache size and file sizes of every op.  The benchmark runs
whole cycles, so every run measures the same mix and the seed only moves
the instances inside narrow ranges.  The program sees only the generated CLI
argv or, for rate ops, the generated ``Instance`` and placement.

Every op gets fresh draws, so no two ops share a popularity vector and the
``g_coefficients`` cache is only hit inside an op (along a cache grid).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# (N, K) per workload part; tests shrink these to run in seconds
SIZES = {
    "general-bound": [(9, 4), (10, 4), (8, 5)],
    "placement-sweep": [(12, 4), (9, 5), (8, 6)],
    "sized-sweep": [(6, 4), (7, 4), (7, 3)],
    "sized-rate": [(9, 6), (8, 6), (10, 5)],
}

SWEEP_POINTS = 5
SIZED_POINTS = 3


@dataclass
class Op:
    """One closed-loop request: a CLI argv, or an exact expected-rate call."""

    kind: str  # 'optimize' | 'bound' | 'sweep-theta' | 'sweep-cache' | 'sweep-sized' | 'rate'
    label: str
    argv: list[str] | None = None
    inst: object = None
    placement: np.ndarray | None = None
    scheme: str | None = None


def _num(x: float) -> str:
    return f"{x:.6f}"


def _jitter(rng: random.Random, centre: float, width: float = 0.05) -> float:
    return centre * (1.0 + rng.uniform(-width, width))


def _instance_args(n: int, k: int, cache: float, theta: float) -> list[str]:
    return ["--files", str(n), "--users", str(k), "--cache", _num(cache), "--zipf", _num(theta)]


def general_bound(seed: int, lib) -> Iterator[list[Op]]:
    """Alternating ``optimize`` (search + P1 + P2 + ccs) and ``bound --which p1`` ops."""
    rng = random.Random(seed)
    cycle = 0
    while True:
        ops = []
        for j, (n, k) in enumerate(SIZES["general-bound"]):
            theta, cache = _jitter(rng, 0.8), _jitter(rng, 1.5)
            args = _instance_args(n, k, cache, theta)
            if (cycle + j) % 2:
                ops.append(Op("bound", f"bound p1 N={n} K={k}", ["bound", *args, "--which", "p1"]))
            else:
                ops.append(Op("optimize", f"optimize N={n} K={k}", ["optimize", *args]))
        yield ops
        cycle += 1


def placement_sweep(seed: int, lib) -> Iterator[list[Op]]:
    """Memory-rate sweeps over a Zipf-exponent grid and a cache grid."""
    rng = random.Random(seed)
    outputs = ["--outputs", "mccs_opt,ccs_opt,lb_p2"]
    sizes = SIZES["placement-sweep"]
    while True:
        ops = []
        for j in range(2 * len(sizes)):
            n, k = sizes[j % len(sizes)]
            if j % 2 == 0:
                start, step = _jitter(rng, 0.4, 0.2), 0.2
                cache = _jitter(rng, n / 4)
                grid = ["--variable", "theta"]
                kind, theta = "sweep-theta", start
            else:
                start = _jitter(rng, 0.5, 0.2)
                step = (n / 2 - start) / (SWEEP_POINTS - 1)
                cache, theta = start, _jitter(rng, 0.8)
                grid = ["--variable", "cache"]
                kind = "sweep-cache"
            stop = start + step * (SWEEP_POINTS - 1)
            argv = ["sweep", *_instance_args(n, k, cache, theta), *grid,
                    "--start", _num(start), "--stop", _num(stop), "--step", _num(step), *outputs]
            ops.append(Op(kind, f"{kind} N={n} K={k}", argv))
        yield ops


def sized_exact(seed: int, lib) -> Iterator[list[Op]]:
    """Nonuniform-size P4/P5 sweeps interleaved with exact expected-rate ops."""
    rng = random.Random(seed)
    while True:
        ops = []
        for (n, k), (nr, kr) in zip(SIZES["sized-sweep"], SIZES["sized-rate"]):
            sizes = [round(rng.uniform(0.5, 2.0), 3) for _ in range(n)]
            total = sum(sizes)
            start, step = _jitter(rng, 0.1 * total), 0.15 * total
            stop = start + step * (SIZED_POINTS - 1)
            argv = ["sweep", *_instance_args(n, k, start, _jitter(rng, 0.8)),
                    "--sizes", "[" + ",".join(f"{s:.3f}" for s in sizes) + "]",
                    "--variable", "cache", "--start", _num(start), "--stop", _num(stop),
                    "--step", _num(step), "--outputs", "p4,lb_p5"]
            ops.append(Op("sweep-sized", f"sweep-sized N={n} K={k}", argv))

            inst = lib.model.Instance.from_zipf(nr, kr, _jitter(rng, nr / 4), _jitter(rng, 0.8))
            report = lib.optimizer.optimize_mccs(inst, with_bounds=False, with_ccs=False)
            for scheme in ("mccs", "ccs"):
                ops.append(Op("rate", f"rate {scheme} N={nr} K={kr}", inst=inst,
                              placement=report.best.matrix, scheme=scheme))
        yield ops


GENERATORS = {
    "general-bound": general_bound,
    "placement-sweep": placement_sweep,
    "sized-exact": sized_exact,
}


def cycles(name: str, seed: int, lib) -> Iterator[list[Op]]:
    """The op cycles of workload ``name`` for ``seed``; ``lib`` is the cacheopt package."""
    return GENERATORS[name](seed, lib)
