"""Shared generators for randomized suites.

Placements are drawn from inside the popularity-first feasible region by
stacking rows bottom-up: each file adds a nonnegative increment on top of the
next-less-popular file's row, spending part of that row's server share, so the
partition, ordering, and nonnegativity constraints hold by construction.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from cacheopt.bounds import distinct_set_probability, enumerate_distinct_sets
from cacheopt.lp import LpProblem
from cacheopt.model import Instance, binom, cache_used, placement_program


def random_popularity(n: int, rng: np.random.Generator) -> np.ndarray:
    p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    return p / p.sum()


def random_q_placement(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    rows = [None] * n
    mass = rng.dirichlet(np.ones(k + 1))
    rows[n - 1] = np.array([mass[l] / binom(k, l) for l in range(k + 1)])
    for fi in range(n - 2, -1, -1):
        below = rows[fi + 1]
        budget = below[0] * rng.random()
        weights = rng.dirichlet(np.ones(k))
        row = below.copy()
        for l in range(1, k + 1):
            row[l] += budget * weights[l - 1] / binom(k, l)
        row[0] = 1.0 - sum(binom(k, l) * row[l] for l in range(1, k + 1))
        rows[fi] = row
    return np.vstack(rows)


def random_q_instance(n: int, k: int, rng: np.random.Generator) -> tuple[Instance, np.ndarray]:
    """A random instance together with a placement that exactly fills its cache."""
    a = random_q_placement(n, k, rng)
    inst = Instance(n, k, cache_used(a, k), random_popularity(n, rng))
    return inst, a


def full_epigraph_problem(inst: Instance) -> LpProblem:
    """The whole P1/P5 epigraph LP: t_D >= the rate of every ordering of every D.

    Rows are grouped by D (by size, then lexicographically), with D's
    orderings in lexicographic order; P1/P5 generate a subset of these rows.
    """
    n, k = inst.n_files, inst.n_users
    dsets = list(enumerate_distinct_sets(inst))
    lhs, owner = [], []
    for j, D in enumerate(dsets):
        for ordering in itertools.permutations(D):
            row = np.zeros((n, k + 1))
            for i, f in enumerate(ordering):
                row[f - 1, :k] = [binom(k - 1 - i, l) for l in range(k)]
            lhs.append(row.ravel())
            owner.append(j)
    c = np.concatenate([np.zeros(n * (k + 1)),
                        [distinct_set_probability(inst, D) for D in dsets]])
    return placement_program(inst, c, (np.array(lhs), np.array(owner)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240801)
