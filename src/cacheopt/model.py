"""Core domain types: caching instances, placements, demands, popularity models.

Files are indexed 1..N in nonincreasing popularity order throughout; users are
indexed 1..K.  A placement assigns each file a vector over subset sizes
l = 0..K, where entry l is the common size of that file's subfiles stored at
every user subset of size l (a fraction of the file in the uniform-size case,
bits otherwise).  All types are immutable after construction and every
operation here is a pure function.
"""

from __future__ import annotations

import json
import math
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
    p = np.array([7 / 12] + [1 / 18] * 6 + [1 / 60] * 5)
    return p


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
        sizes = self.file_sizes
        if sizes is None:
            sizes = np.ones(self.n_files)
        sizes = np.asarray(sizes, dtype=float)
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


def _json_count(doc: dict, key: str) -> int:
    """A whole-number JSON field: 2 and 2.0 pass; 2.7, true and "2" are rejected, not truncated."""
    value = doc[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f'instance JSON "{key}" must be a whole number, got {json.dumps(value)}')


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
        users = _json_count(doc, "users")
        cache = float(doc["cache"])
    except KeyError as exc:
        raise ValueError(f"instance JSON missing key {exc}") from exc
    if "popularity" in doc:
        pop = np.asarray(doc["popularity"], dtype=float)
    elif "zipf_theta" in doc:
        if "files" not in doc:
            raise ValueError('instance JSON with "zipf_theta" needs "files"')
        pop = zipf_popularity(_json_count(doc, "files"), float(doc["zipf_theta"]))
    else:
        raise ValueError('instance JSON needs "popularity" or "zipf_theta"')
    sizes = np.asarray(doc["sizes"], dtype=float) if "sizes" in doc else None
    return ingest_instance(users, cache, pop, sizes)


def ingest_instance(users: int, cache: float, popularity,
                    sizes=None) -> tuple[Instance, np.ndarray]:
    """Instance from user-supplied vectors: sorts by popularity, forgives
    rounding in the normalization, and keeps sizes aligned with their files."""
    pop = np.asarray(popularity, dtype=float)
    if pop.ndim != 1:
        raise ValueError("popularity must be a 1-D array of per-file probabilities")
    if sizes is None:
        sizes = np.ones(pop.shape[0])
    sizes = np.asarray(sizes, dtype=float)
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


@dataclass(frozen=True)
class Demand:
    """A length-K request vector of 1-based file indices."""

    requests: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(int(v) for v in self.requests))

    def validate(self, n_files: int, n_users: int) -> None:
        if len(self.requests) != n_users:
            raise ValueError(f"demand has {len(self.requests)} entries, expected {n_users}")
        for v in self.requests:
            if not 1 <= v <= n_files:
                raise ValueError(f"file index {v} outside 1..{n_files}")

    @classmethod
    def parse(cls, text: str) -> "Demand":
        try:
            return cls(tuple(int(tok) for tok in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"demand must be comma-separated file indices: {text!r}") from exc


DemandLike = Union[Demand, Sequence[int]]


def as_requests(d: DemandLike) -> tuple[int, ...]:
    if isinstance(d, Demand):
        return d.requests
    return tuple(int(v) for v in d)


@dataclass(frozen=True)
class DistinctSet:
    """The sorted set of distinct file indices requested by a demand."""

    files: tuple[int, ...]

    def __post_init__(self):
        files = tuple(sorted({int(v) for v in self.files}))
        if not files:
            raise ValueError("distinct set must be nonempty")
        object.__setattr__(self, "files", files)

    def __len__(self) -> int:
        return len(self.files)


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
                      epigraph: tuple[np.ndarray, np.ndarray] | None = None,
                      *, exact_cache: bool = False, ordered: bool = False) -> LpProblem:
    """The placement polytope as an LP over x = [a (row by row) | t].

    Rows come in a fixed order: one partition equality per file with its size
    on the right, the per-user cache row (an equality when ``exact_cache``),
    the popularity-first chain a_{n+1,l} - a_{n,l} <= 0 for l >= 1 when
    ``ordered``, then the epigraph rows.  ``epigraph = (lhs, owner)`` gives
    one row lhs[r] @ a - t[owner[r]] <= 0 per r; the objective covers a and t.
    """
    n, k = inst.n_files, inst.n_users
    n_a = n * (k + 1)
    n_vars = objective.shape[0]
    epi_lhs, owner = epigraph if epigraph is not None else (np.zeros((0, n_a)), np.zeros(0, int))
    part = np.zeros((n, n_vars))
    part[:, :n_a] = np.kron(np.eye(n), partition_coefficients(k))
    cache = np.zeros(n_vars)
    cache[:n_a] = np.tile(cache_coefficients(k), n)
    first = 0 if exact_cache else 1
    n_chain = (n - 1) * k if ordered else 0
    # one allocation for the <= rows: the epigraph block dominates memory
    ub = np.zeros((first + n_chain + owner.shape[0], n_vars))
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
    ub[top:, :n_a] = epi_lhs
    ub[top + np.arange(owner.shape[0]), n_a + owner] = -1.0
    return LpProblem(objective=objective, eq_lhs=eq, eq_rhs=eq_rhs, ub_lhs=ub, ub_rhs=ub_rhs)


def solve_placement(problem: LpProblem, inst: Instance) -> tuple[float, Placement, int]:
    """Solve a placement program; return (value, placement, iterations).

    Programs with epigraph variables are tall (one row per ordering or
    message), so they are solved through the explicit dual.  Entries in
    (-1e-9, 0] are cleared to 0.0.
    """
    n_a = inst.n_files * (inst.n_users + 1)
    sol = (lp.solve_via_dual if problem.n_vars > n_a else lp.solve)(problem)
    if not sol.optimal:
        raise RuntimeError(f"placement program reported {sol.status}; this is a bug")
    m = sol.x[:n_a].reshape(inst.n_files, inst.n_users + 1)
    m = np.where((m < 0) & (m > -1e-9), 0.0, m) + 0.0
    return float(sol.value), Placement(m, inst), sol.iterations


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
    out: list[Violation] = []
    for n in range(inst.n_files):
        for l in range(inst.n_users + 1):
            if m[n, l] < -ENTRY_TOL:
                out.append(Violation(
                    "nonnegative", f"a[{n + 1},{l}] = {m[n, l]:.6g} < 0", float(-m[n, l])))
    b = partition_coefficients(inst.n_users)
    sums = m @ b
    for n in range(inst.n_files):
        resid = sums[n] - inst.file_sizes[n]
        if abs(resid) > FEAS_TOL:
            out.append(Violation(
                "partition", f"file {n + 1} partitions to {sums[n]:.9g}, "
                f"expected {inst.file_sizes[n]:.9g}", float(abs(resid))))
    c = cache_coefficients(inst.n_users)
    used = float((m @ c).sum())
    over = used - inst.cache_size
    if over > FEAS_TOL:
        out.append(Violation(
            "cache", f"cache use {used:.9g} exceeds budget {inst.cache_size:.9g}", float(over)))
    return out


def is_popularity_first(a: PlacementLike) -> bool:
    """True iff a_{n,l} >= a_{n+1,l} - ENTRY_TOL for every l >= 1."""
    m = as_matrix(a)
    if m.shape[0] <= 1:
        return True
    diffs = m[:-1, 1:] - m[1:, 1:]
    return bool(np.all(diffs >= -ENTRY_TOL))


def cache_used(a: PlacementLike, n_users: int) -> float:
    """Total per-user cache occupied by a placement."""
    m = as_matrix(a)
    return float((m @ cache_coefficients(n_users)).sum())
