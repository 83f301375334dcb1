"""Core domain types: caching instances, placements, popularity models.

Files are indexed 1..N in nonincreasing popularity order throughout; users are
indexed 1..K.  A demand is a plain sequence of K 1-based file indices, entry k
the file user k requests.  A placement assigns each file a vector over subset
sizes l = 0..K, where entry l is the common size of that file's subfiles
stored at every user subset of size l (a fraction of the file in the
uniform-size case, bits otherwise).  All types are immutable after
construction and every operation here is a pure function.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import lp
from .lp import LpProblem

FEAS_TOL = 1e-9
ENTRY_TOL = 1e-12


def zipf_popularity(n_files: int, theta: float) -> np.ndarray:
    """Zipf probabilities p_n proportional to n**-theta, sorted nonincreasing."""
    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    if theta < 0:
        raise ValueError("theta must be >= 0")
    ranks = np.arange(1, n_files + 1, dtype=float)
    weights = ranks ** (-float(theta))
    return weights / weights.sum()


def step_popularity() -> np.ndarray:
    """The 12-file step distribution: one hot file, six warm, five cold."""
    return np.array([7 / 12] + [1 / 18] * 6 + [1 / 60] * 5)


def ingest_popularity(popularity: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Sort a popularity vector nonincreasing (stable) and return (sorted, order).

    ``order[i]`` is the caller's original index of sorted position i, so results
    computed in sorted order can be reported back in input order.
    """
    p = np.asarray(popularity, dtype=float)
    order = np.argsort(-p, kind="stable")
    return p[order], order


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Instance:
    """A caching problem: N files, K users, per-user cache size, demand model.

    ``cache_size`` is in files when sizes are uniform (all 1), in bits when a
    nonuniform ``file_sizes`` vector is given.
    """

    n_files: int
    n_users: int
    cache_size: float
    popularity: np.ndarray
    file_sizes: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_files < 1 or self.n_users < 1:
            raise ValueError("n_files and n_users must be positive")
        p = np.asarray(self.popularity, dtype=float)
        if p.shape != (self.n_files,):
            raise ValueError("popularity length must equal n_files")
        if not np.all(np.isfinite(p)):
            raise ValueError("popularity must be finite")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"popularity must sum to 1 (off by {p.sum() - 1.0:.3e})")
        if np.any(p < 0):
            raise ValueError("popularity must be nonnegative")
        if np.any(np.diff(p) > ENTRY_TOL):
            raise ValueError("popularity must be sorted nonincreasing; see ingest_popularity")
        object.__setattr__(self, "popularity", _freeze(p))
        sizes = np.asarray(np.ones(self.n_files) if self.file_sizes is None else self.file_sizes,
                           dtype=float)
        if sizes.shape != (self.n_files,):
            raise ValueError("file_sizes length must equal n_files")
        if not np.all(np.isfinite(sizes)):
            raise ValueError("file_sizes must be finite")
        if np.any(sizes <= 0):
            raise ValueError("file_sizes must be positive")
        object.__setattr__(self, "file_sizes", _freeze(sizes))
        total = float(sizes.sum())
        if not (-FEAS_TOL <= self.cache_size <= total + FEAS_TOL):
            raise ValueError(f"cache_size must lie in [0, {total:g}]")

    @property
    def uniform_sizes(self) -> bool:
        return bool(np.all(self.file_sizes == 1.0))

    @classmethod
    def from_zipf(cls, n_files: int, n_users: int, cache_size: float, theta: float) -> "Instance":
        return cls(n_files, n_users, cache_size, zipf_popularity(n_files, theta))


def _whole(value, what: str) -> int:
    """``value`` as an int: 2, np.int64(2), 2.0; ValueError names ``what`` for 2.7, True, "2"."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) or math.isfinite(value) and value == int(value)):
        return int(value)
    raise ValueError(f"{what} must be a whole number, got {value!r}")


def _floats(value, what: str, ndim: int | None = None) -> np.ndarray:
    """``value`` as a float array, of ``ndim`` dimensions if given; ValueError
    names ``what`` for null, a string, a bool or an object."""
    arr = np.asarray(value)  # ragged lists raise ValueError here
    if arr.dtype.kind not in "iuf" or ndim not in (None, arr.ndim):
        raise ValueError(f"{what} must be {'a number' if ndim == 0 else 'numbers'}, got {value!r}")
    return arr.astype(float)


def parse_instance_json(text: str) -> tuple[Instance, np.ndarray]:
    """Build an Instance from its JSON form.

    Schema: {"users": K, "cache": M, "popularity": [...], "sizes": [...]?,
    "zipf_theta": theta?, "files": N?}.  Either "popularity" or
    ("zipf_theta" + "files") must be present.  Unsorted popularity input is
    sorted here; the returned order vector maps sorted positions back to the
    caller's file numbering.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid instance JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("instance JSON must be an object")
    try:
        users = _whole(doc["users"], 'instance JSON "users"')
        cache = float(_floats(doc["cache"], 'instance JSON "cache"', 0))
    except KeyError as exc:
        raise ValueError(f"instance JSON missing key {exc}") from exc
    if "popularity" in doc:
        pop = doc["popularity"]
    elif "zipf_theta" in doc:
        if "files" not in doc:
            raise ValueError('instance JSON with "zipf_theta" needs "files"')
        pop = zipf_popularity(_whole(doc["files"], 'instance JSON "files"'),
                              float(_floats(doc["zipf_theta"], 'instance JSON "zipf_theta"', 0)))
    else:
        raise ValueError('instance JSON needs "popularity" or "zipf_theta"')
    return ingest_instance(users, cache, pop, doc["sizes"] if "sizes" in doc else None)


def ingest_instance(users: int, cache: float, popularity,
                    sizes=None) -> tuple[Instance, np.ndarray]:
    """Instance from user-supplied vectors: sorts by popularity, forgives
    rounding in the normalization, and keeps sizes aligned with their files."""
    pop = _floats(popularity, "popularity")
    if pop.ndim != 1:
        raise ValueError("popularity must be a 1-D array of per-file probabilities")
    if sizes is None:
        sizes = np.ones(pop.shape[0])
    sizes = _floats(sizes, "sizes")
    if sizes.shape != pop.shape:
        raise ValueError("sizes length must match the number of files")
    total = float(pop.sum())
    if abs(total - 1.0) > 0.01:
        raise ValueError(f"popularity sums to {total:g}, expected 1")
    pop_sorted, order = ingest_popularity(pop / total)
    inst = Instance(pop.shape[0], users, cache, pop_sorted, sizes[order])
    return inst, order


@dataclass(frozen=True)
class Placement:
    """All N placement vectors as an (N, K+1) matrix, tied to an instance."""

    matrix: np.ndarray
    instance: Instance

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        expected = (self.instance.n_files, self.instance.n_users + 1)
        if m.shape != expected:
            raise ValueError(f"placement matrix shape {m.shape}, expected {expected}")
        m[(m < 0) & (m >= -ENTRY_TOL)] = 0.0
        object.__setattr__(self, "matrix", _freeze(m))


PlacementLike = Union[Placement, np.ndarray, Sequence[Sequence[float]]]


def as_matrix(a: PlacementLike) -> np.ndarray:
    """Placement matrix view of a Placement or raw (N, K+1) array."""
    if isinstance(a, Placement):
        return a.matrix
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError("placement must be a 2-D matrix of shape (N, K+1)")
    return m


def file_rows(files: Sequence[int], n_files: int) -> np.ndarray:
    """Zero-based rows of 1-based file indices; ValueError names a file not in 1..N."""
    rows = [_whole(f, "file index") for f in files]
    for f in rows:
        if not 1 <= f <= n_files:
            raise ValueError(f"file index {f} outside 1..{n_files}")
    return np.array(rows, dtype=np.intp) - 1


@dataclass(frozen=True)
class Violation:
    """One violated placement constraint with its residual."""

    constraint: str  # 'shape' | 'finite' | 'nonnegative' | 'partition' | 'cache'
    detail: str
    residual: float

    def __str__(self) -> str:
        return f"{self.constraint}: {self.detail} (residual {self.residual:.3e})"


def binom(n: int, k: int) -> int:
    """C(n, k), extended to 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def partition_coefficients(n_users: int) -> np.ndarray:
    """b_l = C(K, l): subfiles per file at subset size l."""
    return np.array([binom(n_users, l) for l in range(n_users + 1)], dtype=float)


def cache_coefficients(n_users: int) -> np.ndarray:
    """c_l = C(K-1, l-1): subfiles of level l stored by one user."""
    return np.array([binom(n_users - 1, l - 1) for l in range(n_users + 1)], dtype=float)


def placement_program(inst: Instance, objective: np.ndarray,
                      epigraph: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]] = (),
                      *, exact_cache: bool = False, ordered: bool = False) -> LpProblem:
    """The placement polytope as an LP over x = [a (row by row) | t].

    Rows come in a fixed order: one partition equality per file with its size
    on the right, the per-user cache row (an equality when ``exact_cache``),
    the popularity-first chain a_{n+1,l} - a_{n,l} <= 0 for l >= 1 when
    ``ordered``, then the epigraph rows, block by block.  A block
    ``(owner, files, weights)`` gives, for each r, the row
    sum_i weights[i] @ a[files[r, i], :K] - t[owner[r]] <= 0, where ``files``
    holds zero-based files, distinct within a row, and ``weights[i]`` is the
    K-vector over levels of position i.  The objective covers a and t.
    """
    n, k = inst.n_files, inst.n_users
    n_a, n_vars = n * (k + 1), objective.shape[0]
    n_rows = sum(len(owner) for owner, _, _ in epigraph)
    check_placement_program(inst, n_vars - n_a, n_rows, exact_cache=exact_cache, ordered=ordered)
    part = np.zeros((n, n_vars))
    part[:, :n_a] = np.kron(np.eye(n), partition_coefficients(k))
    cache = np.zeros(n_vars)
    cache[:n_a] = np.tile(cache_coefficients(k), n)
    first = 0 if exact_cache else 1
    n_chain = (n - 1) * k if ordered else 0
    # one allocation for the <= rows: the epigraph block dominates memory
    ub = np.zeros((first + n_chain + n_rows, n_vars))
    ub_rhs = np.zeros(ub.shape[0])
    if exact_cache:
        eq, eq_rhs = np.vstack([part, cache]), np.append(inst.file_sizes, inst.cache_size)
    else:
        eq, eq_rhs = part, inst.file_sizes.astype(float)
        ub[0], ub_rhs[0] = cache, inst.cache_size
    r = np.arange(n_chain)
    col = r + r // k + 1  # a_{n,l} with n = r // k, l = r % k + 1
    ub[first + r, col] = -1.0
    ub[first + r, col + k + 1] = 1.0
    top = first + n_chain
    for owner, files, weights in epigraph:
        rows = top + np.arange(len(owner))
        ub[rows[:, None, None], files[..., None] * (k + 1) + np.arange(k)] = weights
        ub[rows, n_a + owner] = -1.0
        top += len(owner)
    return LpProblem(objective=objective, eq_lhs=eq, eq_rhs=eq_rhs, ub_lhs=ub, ub_rhs=ub_rhs)


def check_placement_program(inst: Instance, n_t: int, n_rows: int, *,
                            exact_cache: bool = False, ordered: bool = False) -> None:
    """Raise SizeGuardError before a ``placement_program`` with n_t epigraph
    variables and n_rows epigraph rows is built, if the tableau of its
    ``solve_placement`` would pass the guard (``lp._check_tableau``)."""
    n, k = inst.n_files, inst.n_users
    n_ub = (not exact_cache) + ((n - 1) * k if ordered else 0) + n_rows
    lp._check_tableau(n * (k + 1) + n_t, n + exact_cache, n_ub)


@dataclass(frozen=True)
class LpOptimum:
    """An optimal placement of a placement program, its value and simplex pivots."""

    placement: Placement
    value: float
    iterations: int


def solve_placement(problem: LpProblem, inst: Instance) -> LpOptimum:
    """Solve a placement program through its explicit dual (``lp.solve_via_dual``
    checks the point's residual) and validate its placement.

    Entries in (-1e-9, 0] are cleared to 0.0; a placement that still violates
    ``validate_placement`` raises RuntimeError.
    """
    n_a = inst.n_files * (inst.n_users + 1)
    sol = lp.solve_via_dual(problem)
    if not sol.optimal:
        raise RuntimeError(f"placement program reported {sol.status}; this is a bug")
    m = sol.x[:n_a].reshape(inst.n_files, inst.n_users + 1)
    m = np.where((m < 0) & (m > -1e-9), 0.0, m) + 0.0
    if bad := validate_placement(inst, m):
        raise RuntimeError(f"placement program returned an infeasible placement ({bad[0]}); "
                           "this is a bug")
    return LpOptimum(Placement(m, inst), float(sol.value), sol.iterations)


def validate_placement(inst: Instance, a: PlacementLike) -> list[Violation]:
    """Check finiteness, partition, cache budget and nonnegativity; empty list = feasible.

    Each NaN or infinite entry is a 'finite' violation with residual inf; the
    other checks are skipped then, since they compare sums of the entries.
    """
    m = as_matrix(a)
    expected = (inst.n_files, inst.n_users + 1)
    if m.shape != expected:
        return [Violation("shape", f"matrix shape {m.shape}, expected {expected}", 0.0)]
    if not np.all(np.isfinite(m)):
        return [Violation("finite", f"a[{n + 1},{l}] = {m[n, l]}", math.inf)
                for n, l in zip(*np.nonzero(~np.isfinite(m)))]
    out = [Violation("nonnegative", f"a[{n + 1},{l}] = {m[n, l]:.6g} < 0", float(-m[n, l]))
           for n, l in np.argwhere(m < -ENTRY_TOL)]  # row-major order
    sums = m @ partition_coefficients(inst.n_users)
    resid = np.abs(sums - inst.file_sizes)
    out += [Violation("partition", f"file {n + 1} partitions to {sums[n]:.9g}, "
                      f"expected {inst.file_sizes[n]:.9g}", float(resid[n]))
            for n in np.flatnonzero(resid > FEAS_TOL)]
    used = float((m @ cache_coefficients(inst.n_users)).sum())
    if used - inst.cache_size > FEAS_TOL:
        out.append(Violation("cache", f"cache use {used:.9g} exceeds budget "
                             f"{inst.cache_size:.9g}", float(used - inst.cache_size)))
    return out


def is_popularity_first(a: PlacementLike) -> bool:
    """True iff a_{n,l} >= a_{n+1,l} - ENTRY_TOL for every l >= 1."""
    m = as_matrix(a)
    return bool(np.all(m[:-1, 1:] - m[1:, 1:] >= -ENTRY_TOL))  # vacuous for N <= 1
