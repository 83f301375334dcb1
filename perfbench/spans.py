"""Outside-in span recorder for the cacheopt layers.

The recorder wraps the public functions of the ``lp``, ``bounds``,
``optimizer``, ``closedform`` and ``delivery`` modules and ``cli.main``, and
rebinds every module attribute that still points at an original function, so
names brought in with ``from ... import`` (``optimizer.lower_bound_p1``,
``optimizer.g_coefficients``, ``closedform.demand_classes``, ...) are caught
too.  Nothing under ``src/`` is edited.

Each call becomes a span: name, parent span, op number, start and end (ns),
and one count (pivots of an LP solve, yields of a generator, candidates
enumerated).  Spans live in typed arrays, since a run records millions of
them, and are written to one ``.npz`` file when the run ends.  Generators are
consumed inside their span so the enumeration is timed and its yields counted.

Two modes share one mechanism:

* ``full=False`` wraps only the result-producing functions in ``TAPPED``.  The
  untraced benchmark run uses it to keep the unrounded results the output
  checks need; that is a handful of spans per op.
* ``full=True`` wraps every public function, for the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("lp", "bounds", "optimizer", "closedform", "delivery", "cli")

# functions whose return values the output checks read, in both modes
TAPPED = frozenset({
    "bounds.lower_bound_p1", "bounds.lower_bound_p2", "bounds.lower_bound_p5",
    "optimizer.optimize_mccs", "optimizer.solve_p4_lp",
})
LP_CALLS = frozenset({"lp.solve", "lp.solve_via_dual"})
COUNTED = frozenset({"optimizer.enumerate_candidates", "delivery.demand_classes"})


def _public_functions(module, layer: str) -> dict[str, object]:
    if layer == "cli":
        return {"main": module.main}
    return {
        name: fn for name, fn in vars(module).items()
        if inspect.isfunction(fn) and not name.startswith("_")
        and fn.__module__ == module.__name__
    }


class Recorder:
    """Span store plus the install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.lp_dims: dict[int, tuple[int, int]] = {}  # span -> (rows, cols) of the problem
        self.results: list[tuple[int, str, object, object]] = []
        self.active = False
        self.full = False
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def install(self, *, full: bool):
        """Wrap the layer functions (all public ones if ``full``, else ``TAPPED``)."""
        if self._saved:
            raise RuntimeError("recorder already installed")
        self.full = full
        modules = [importlib.import_module(f"cacheopt.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in _public_functions(module, layer).items():
                qual = f"{layer}.{name}"
                if full or qual in TAPPED:
                    wrappers[id(fn)] = self.wrap(qual, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        self.active = False

    def name_id(self, qual: str) -> int:
        if qual not in self.names:
            self.names.append(qual)
        return self.names.index(qual)

    def wrap(self, qual: str, fn):
        """``fn`` recording one span per call while the recorder is active."""
        nid = self.name_id(qual)
        names, parents, ops, starts, ends, counts = (
            self.name, self.parent, self.op, self.start, self.end, self.count)
        stack = self._stack
        clock = time.perf_counter_ns
        generator = inspect.isgeneratorfunction(fn)
        tapped, lp_call, counted = qual in TAPPED, qual in LP_CALLS, qual in COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0)
            counts.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                if generator:
                    out = list(out)
            finally:
                ends[index] = clock()
                stack.pop()
            if lp_call:
                problem = args[0]
                rows = sum(m.shape[0] for m in (problem.eq_lhs, problem.ub_lhs) if m is not None)
                self.lp_dims[index] = (rows, problem.n_vars)
                counts[index] = out.iterations
            elif counted:
                counts[index] = len(out)
            if tapped:
                self.results.append((index, qual, args[0] if args else None, out))
            return iter(out) if generator else out

        return wrapper

    def begin_op(self, op: int) -> int:
        self.current_op = op
        self.active = True
        return len(self)

    def end_op(self):
        self.active = False

    def taps(self, first: int) -> list[tuple[str, object, object]]:
        """(function, first argument, result) of the tapped calls from span ``first`` on."""
        return [(name, arg, out) for index, name, arg, out in self.results if index >= first]

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(getattr(self, key), dtype=getattr(self, key).typecode)
                for key in ("name", "parent", "op", "start", "end", "count")}

    def write(self, path: str):
        """Write every span, with the name table, to a compressed ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so a span's children run one after another
    inside it and the time they cover is the sum of their durations.
    """
    dur = (end - start).astype(float)
    nested = parent >= 0
    return dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.shape[0])


def layer_metrics(rec: Recorder, n_ops: int, busy_s: float, optimize_ops: set[int],
                  optimize_s: float, untraced_busy_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a finished traced run, as name -> (value, unit).

    Counts and times are per op (``count/op``, ``s/op``) so runs that complete
    different numbers of ops compare directly.  ``optimize_ops`` are the op
    numbers of ``cacheopt optimize`` ops and ``optimize_s`` their summed latency;
    ``untraced_busy_s`` is the summed latency of the same ops issued without spans.
    """
    a = rec.arrays()
    name, parent, count = a["name"], a["parent"], a["count"]
    n = name.shape[0]
    dur = (a["end"] - a["start"]) / 1e9
    own = self_times(a["start"], a["end"], parent) / 1e9
    layer = np.array([LAYERS.index(q.split(".", 1)[0]) for q in rec.names])[name]
    nested = parent >= 0
    parent_layer = np.full(n, -1)
    parent_layer[nested] = layer[parent[nested]]
    parent_name = np.full(n, -1)
    parent_name[nested] = name[parent[nested]]

    def is_(*quals: str) -> np.ndarray:
        return np.isin(name, [rec.names.index(q) for q in quals if q in rec.names])

    def in_layer(label: str) -> np.ndarray:
        return layer == LAYERS.index(label)

    def per_parent(mask: np.ndarray, weights=None) -> np.ndarray:
        """Sum (or count) over the children selected by ``mask``, indexed by parent."""
        sel = mask & nested
        return np.bincount(parent[sel], weights=None if weights is None else weights[sel],
                           minlength=n)

    per_op = 1.0 / max(n_ops, 1)

    solves = is_("lp.solve")
    pivots = int(count[solves].sum())
    outer_lp = in_layer("lp") & (parent_layer != LAYERS.index("lp"))
    lp_s = float(dur[outer_lp].sum())
    largest = max((rec.lp_dims[i] for i in np.flatnonzero(solves)),
                  key=lambda d: d[0] * d[1], default=(0, 0))
    fallbacks = int((is_("lp.solve_via_dual") & (per_parent(solves) > 1)).sum())
    bound_rows = sum(rec.lp_dims[i][0] for i in np.flatnonzero(
        outer_lp & (parent_layer == LAYERS.index("bounds"))))

    p1_in_optimize = float(dur[is_("bounds.lower_bound_p1")
                               & np.isin(a["op"], list(optimize_ops))].sum())

    searches = ("optimizer.optimize_mccs", "optimizer.optimize_ccs")
    outer_search = is_(*searches) & ~np.isin(parent_name, [rec.names.index(q) for q in searches
                                                           if q in rec.names])
    search_s = float((dur - per_parent(in_layer("bounds"), dur))[outer_search].sum())

    g_calls = is_("closedform.g_coefficients")
    g_misses = g_calls & (per_parent(is_("closedform.redundancy_probabilities")) > 0)
    n_g = int(g_calls.sum())

    classes = is_("delivery.demand_classes")
    rate_evals = is_("delivery.rate_mccs", "delivery.rate_ccs", "delivery.rate_mccs_lemma3")

    def self_s(label: str) -> float:
        return float(own[in_layer(label)].sum()) * per_op

    return {
        "lp.calls": (int(solves.sum()) * per_op, "count/op"),
        "lp.pivots": (pivots * per_op, "count/op"),
        "lp.solve_s": (lp_s * per_op, "s/op"),
        "lp.s_per_pivot": (lp_s / pivots if pivots else 0.0, "s"),
        "lp.max_rows": (largest[0], "count"),
        "lp.max_cols": (largest[1], "count"),
        "lp.dual_fallbacks": (fallbacks * per_op, "count/op"),
        "lp.share": (lp_s / busy_s if busy_s else 0.0, "ratio"),
        "bounds.calls": (int((in_layer("bounds") & (parent_layer != LAYERS.index("bounds"))).sum())
                         * per_op, "count/op"),
        "bounds.rows": (bound_rows * per_op, "count/op"),
        "bounds.self_s": (self_s("bounds"), "s/op"),
        "bounds.p1_share_of_optimize": (p1_in_optimize / optimize_s if optimize_s else 0.0, "ratio"),
        "optimizer.candidates": (int(count[is_("optimizer.enumerate_candidates")].sum()) * per_op,
                                 "count/op"),
        "optimizer.search_s": (search_s * per_op, "s/op"),
        "optimizer.p3_s": (float(dur[is_("optimizer.solve_p3_lp")].sum()) * per_op, "s/op"),
        "optimizer.p4_self_s": (float(own[is_("optimizer.solve_p4_lp")].sum()) * per_op, "s/op"),
        "closedform.g_calls": (n_g * per_op, "count/op"),
        "closedform.g_hit_ratio": (1.0 - g_misses.sum() / n_g if n_g else 0.0, "ratio"),
        "closedform.self_s": (self_s("closedform"), "s/op"),
        "delivery.classes": (int(count[classes].sum()) * per_op, "count/op"),
        "delivery.rate_evals": (int(rate_evals.sum()) * per_op, "count/op"),
        "delivery.enum_s": (float(dur[classes].sum()) * per_op, "s/op"),
        "cli.self_s": (self_s("cli"), "s/op"),
        "trace.ops_per_s": (n_ops / busy_s if busy_s else 0.0, "ops/s"),
        "trace.spans": (n * per_op, "count/op"),
        "trace.overhead_frac": (busy_s / untraced_busy_s - 1.0 if untraced_busy_s else 0.0, "ratio"),
    }
