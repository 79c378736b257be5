"""Interconnection gain graphs and the max-type gain operator.

A gain graph stores, for each subsystem i, the class-K curves gamma_ij
weighing the influence of neighbor j on i, plus an optional external-input
gain gamma_i.  The induced operator on nonnegative sequences is

    (Gamma s)_i = sup_j gamma_ij(s_j),

with the convention gamma_ij = 0 for absent edges, so entries outside the
working window contribute nothing.  Every row is finite, and every gain,
given or generated, is of class K or zero, off the diagonal and inside the
index set.  A graph is given on a finite index set, or generated on start,
start+1, ... by a named generator (decoupled, unidirectional-chain or
bidirectional-chain, each with only its own finite params >= 0), built
through _GeneratedGraph from graph JSON and the catalog chains alike, which
makes rows and external gains on demand, each checked once and kept.  All
computation happens on a finite working window with an implicit zero tail.

A working window is a nonempty tuple of distinct labels of the index
set, resolved from None (every label of a finite set), a positive size or
a label sequence by the index set's window(spec), the one window rule:
every function that takes a window, in any module, calls it once.  A
sequence is a float array of finite entries >= 0 aligned with a window.
A graph compiles each window, on first use, into a plan that walks the
window's edges once, keeps them in walk order and builds the kernel's
arrays in the same walk; restrict and the cycle screen read that list, and
a restricted graph keeps the plan of its subset.  On an all-linear window
the plan also solves v*(1), the least fixed point of v = Gamma(v) + 1, on
first use: policy iteration on Python floats read from the edge list, with
one closing application of the kernel to check the result.  Two
functions apply the operator.  apply_gain_operator is the reference: it
walks the window's rows and calls every edge curve on one vector.
apply_batch, the kernel of the small-gain searches, runs the plan: linear
edges on all batch rows at once as a gather, a product and a segmented
max, other edges one by one without re-validating the input.  Both
produce the same bits for every input row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .comparison import (ScalarCurve, _is_number, _require_k_or_zero,
                         curve_from_json, curve_max, curve_to_json, identity,
                         linear, zero_curve)

__all__ = [
    "FiniteIndexSet",
    "GeneratorIndexSet",
    "GainGraph",
    "GraphCheckReport",
    "apply_gain_operator",
    "apply_batch",
    "restrict",
    "iterate",
    "graph_to_json",
    "graph_from_json",
]

# radii of the gains checks: the cycle screen's, and check_graph's in the
# CLI unless a config gives "r_grid".  These are the values of
# np.geomspace(1e-3, 1e3, 13), written out because calling geomspace at
# import raises the peak RSS of every process by about 0.3 MB.
CHECK_GRID = np.array([0.001, 0.0031622776601683794, 0.01, 0.03162277660168379,
                       0.1, 0.31622776601683794, 1.0, 3.1622776601683795,
                       10.0, 31.622776601683793, 100.0, 316.2277660168379,
                       1000.0])
CHECK_GRID.flags.writeable = False


def _is_label(i) -> bool:
    """A Python or numpy integer; a bool is not a label."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def _label(i, what: str) -> int:
    """One label as a Python int; ValueError if it is not an integer."""
    if not _is_label(i):
        raise ValueError(f"{what} must be an integer, got {i!r}")
    return int(i)


def _unique(items, what: str) -> dict:
    """The (key, value) pairs as a dict; ValueError on a repeated key."""
    out = {}
    for key, value in items:
        if key in out:
            raise ValueError(f"{what} {key} is given twice")
        out[key] = value
    return out


def _labels(spec) -> tuple[int, ...]:
    """Nonempty, distinct integer labels, as a tuple of Python ints."""
    try:
        labels = tuple(spec)
    except TypeError:
        raise ValueError(f"labels must be a sequence of integers, "
                         f"got {spec!r}") from None
    if not labels:
        raise ValueError("labels must be nonempty")
    if any(type(i) is not int for i in labels):
        if not all(map(_is_label, labels)):
            raise ValueError(f"labels must be integers, got {list(labels)}")
        labels = tuple(map(int, labels))            # numpy integers
    if len(set(labels)) != len(labels):
        raise ValueError(f"labels must be distinct, got {list(labels)}")
    return labels


class _WindowRule:
    """The window rule and the label test, shared by both index sets; each
    set's _holds(i) tells whether the Python int i is one of its labels."""

    def __contains__(self, i) -> bool:
        return _is_label(i) and self._holds(i)

    def window(self, spec=None) -> tuple[int, ...]:
        """The window ``spec`` names (None, a positive size or labels of
        the set) as a tuple of Python ints; ValueError if it breaks a rule."""
        if spec is None:
            return self._first(None)
        if _is_label(spec):
            if spec <= 0:
                raise ValueError(f"window size must be positive, got {spec}")
            return self._first(int(spec))
        labels = _labels(spec)
        outside = [i for i in labels if not self._holds(i)]
        if outside:
            raise ValueError(f"labels {outside} outside the index set")
        return labels


@dataclass(frozen=True)
class FiniteIndexSet(_WindowRule):
    labels: tuple[int, ...]
    finite = True                   # a class constant, not a field

    def __post_init__(self):
        labels = _labels(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_label_set", frozenset(labels))

    def _holds(self, i: int) -> bool:
        return i in self._label_set

    def _first(self, n: int | None) -> tuple[int, ...]:
        if n is None:
            return self.labels
        if n > len(self.labels):
            raise ValueError(f"window size {n} exceeds the "
                             f"{len(self.labels)} labels of the index set")
        return self.labels[:n]


@dataclass(frozen=True)
class GeneratorIndexSet(_WindowRule):
    """Countably infinite index set start, start+1, ..."""

    start: int = 0
    finite = False                  # a class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "start", _label(self.start, "index set start"))

    def _holds(self, i: int) -> bool:
        return i >= self.start

    def _first(self, n: int | None) -> tuple[int, ...]:
        if n is None:
            raise ValueError("infinite index sets need an explicit window")
        return tuple(range(self.start, self.start + n))


class GainGraph:
    """Sparse row-major gain graph given on a finite index set; a graph on
    an infinite one is generated (see _GeneratedGraph)."""

    def __init__(self, index_set, entries: Mapping[tuple[int, int], ScalarCurve] | None = None,
                 external: Mapping[int, ScalarCurve] | None = None):
        if not index_set.finite:
            raise ValueError("a given gain graph needs a finite index set")
        self.index_set = index_set
        self.rows: dict[int, dict[int, ScalarCurve]] = {}
        for (i, j), g in (entries or {}).items():
            if self._nonzero_edge(i, j, g):
                self.rows.setdefault(int(i), {})[int(j)] = g
        self.external: dict[int, ScalarCurve] = {}
        for i, g in (external or {}).items():
            _require_k_or_zero(g, f"external gain of {i}")
            self.external[_label(i, "external gain label")] = g
        self._plans: dict[tuple, _WindowPlan] = {}

    def _nonzero_edge(self, i: int, j: int, g: ScalarCurve) -> bool:
        """Check gamma_ij, given or generated; True when it is nonzero."""
        i, j = _label(i, "edge label"), _label(j, "edge label")
        if i == j:
            raise ValueError(f"diagonal gain ({i},{i}) is not allowed")
        if not (self.index_set._holds(i) and self.index_set._holds(j)):
            raise ValueError(f"edge ({i},{j}) leaves the index set")
        _require_k_or_zero(g, f"gain ({i},{j})")
        return not g.is_zero()

    def row(self, i: int) -> dict[int, ScalarCurve]:
        """Finite row of i: mapping j -> gamma_ij (absent entries are zero)."""
        if i not in self.index_set:
            raise KeyError(f"index {i} outside the index set")
        return self.rows.get(i, {})

    def external_gain(self, i: int) -> ScalarCurve:
        if i not in self.index_set:
            raise KeyError(f"index {i} outside the index set")
        return self.external[i] if i in self.external else zero_curve()

    def uniform_external_gain(self, window: Sequence[int]) -> ScalarCurve:
        """Pointwise dominating curve over the window's external gains."""
        out = zero_curve()
        for i in window:
            out = curve_max(out, self.external_gain(i))
        return out

    def _plan(self, window) -> "_WindowPlan":
        """The compiled operator on the window.  Only a tuple of Python ints
        skips the check on a cached plan: (True, 2) hashes like (1, 2)."""
        plan = None
        if type(window) is tuple and all(type(i) is int for i in window):
            plan = self._plans.get(window)
        if plan is None:
            window = self.index_set.window(window)
            plan = self._plans.get(window) or _WindowPlan(self, window)
            self._plans[window] = plan
        return plan


class _WindowPlan:
    """One graph on one window: ``edges`` in walk order as (row position,
    column position, curve), and what is derived from them.  Linear edges
    are row-sorted (cols, coeffs) arrays, the edges of row ``targets[s]``
    starting at ``starts[s]``; other curve kinds stay the per-edge list
    ``other``."""

    def __init__(self, graph: GainGraph, window: tuple[int, ...]):
        self.window = window
        pos = {i: k for k, i in enumerate(window)}
        self.edges, self.other = [], []
        cols, coeffs, starts, targets = [], [], [], []
        for k, i in enumerate(window):
            for j, g in graph.row(i).items():
                if j not in pos:
                    continue
                edge = (k, pos[j], g)
                self.edges.append(edge)
                if g.kind != "linear":
                    self.other.append(edge)
                    continue
                if not targets or targets[-1] != k:
                    starts.append(len(cols))
                    targets.append(k)
                cols.append(edge[1])
                coeffs.append(g.params["a"])
        self.cols = np.array(cols, dtype=np.intp)
        self.coeffs = np.array(coeffs, dtype=float)
        self.starts = np.array(starts, dtype=np.intp)
        self.targets = np.array(targets, dtype=np.intp)

    def apply(self, b: np.ndarray) -> np.ndarray:
        out = np.zeros_like(b)
        prod = b[:, self.cols]       # a fresh gather, scaled in place
        prod *= self.coeffs
        out[:, self.targets] = np.maximum.reduceat(prod, self.starts, axis=1)
        for k, j, g in self.other:
            np.maximum(out[:, k], g._eval(b[:, j]), out=out[:, k])
        return out

    @property
    def fixed_point(self) -> np.ndarray | None:
        """v*(1), read-only, solved on first use; see _linear_fixed_point."""
        if not hasattr(self, "_fixed_point"):
            self._fixed_point = _linear_fixed_point(self)
        return self._fixed_point


# policy iteration gives up after this many improvement rounds
_POLICY_ROUNDS = 100


def _linear_fixed_point(plan: _WindowPlan) -> np.ndarray | None:
    """v*(1) solving v_i = 1 + max_j a_ij v_j on an all-linear window.

    Policy iteration (Howard 1960) on Python floats read from plan.edges:
    a policy picks one edge per row with edges, the first of the largest
    coefficients to start with; its values follow the policy's functional
    graph in O(n).  A row switches to its first largest product a_ij v_j
    only when that beats its current one by more than 1e-12 relative, so
    exact ties cannot make the policy flip-flop.  None on a nonlinear edge,
    a policy cycle of gain at least 1, a value or product that overflows,
    the round cap, or a v that one more operator application (plan.apply,
    the kernel) moves by more than the fixed-point iteration's tolerance.
    """
    if plan.other:
        return None
    n = len(plan.window)
    coeffs = [g.params["a"] for _, _, g in plan.edges]
    succ, gain = [-1] * n, [0.0] * n
    for (k, j, _), a in zip(plan.edges, coeffs):
        if a > gain[k]:                   # the first largest coefficient
            succ[k], gain[k] = j, a
    heads = [k for k in range(n) if succ[k] >= 0]
    for _ in range(_POLICY_ROUNDS):
        v = _policy_values(succ, gain)
        if v is None:
            return None
        best, to, by = [0.0] * n, [-1] * n, [0.0] * n
        for (k, j, _), a in zip(plan.edges, coeffs):
            c = a * v[j]
            if c > best[k]:               # the first largest product
                best[k], to[k], by[k] = c, j, a
        if math.inf in best:
            return None
        switched = False
        for k in heads:
            now = gain[k] * v[succ[k]]
            if best[k] - now > 1e-12 * now:
                succ[k], gain[k] = to[k], by[k]
                switched = True
        if not switched:
            break
    else:
        return None
    v = np.array(v)
    nxt = plan.apply(v[None, :]) + 1.0
    if not _settled(nxt, v[None, :], np.max(nxt, axis=1))[0]:
        return None
    v.flags.writeable = False
    return v


def _settled(nxt: np.ndarray, prev: np.ndarray, peak) -> np.ndarray:
    """Rows whose step prev -> nxt moved by at most 1e-13 * max(1, peak)."""
    return np.max(np.abs(nxt - prev), axis=1) <= 1e-13 * np.maximum(1.0, peak)


def _policy_values(succ: list, gain: list) -> list | None:
    """Values of v_i = 1 + gain_i v_succ(i), with v_i = 1 where succ is -1.

    Every walk along succ ends at a row without an edge or enters a cycle;
    a cycle solves in closed form, v_c = alpha / (1 - p) with p the product
    of its gains, and the rows leading to it are filled in backwards.
    None when a cycle has p >= 1 and so no finite solution, or a value
    overflows.
    """
    n = len(succ)
    v = [1.0] * n
    state = [0] * n              # 0 unseen, 1 on the current walk, 2 solved
    for s in range(n):
        walk = []
        i = s
        while i >= 0 and state[i] == 0:
            state[i] = 1
            walk.append(i)
            i = succ[i]
        if i >= 0 and state[i] == 1:
            k = walk.index(i)
            alpha, p = 0.0, 1.0  # v_i = alpha + p * v_i, folded backwards
            for c in reversed(walk[k:]):
                alpha = 1.0 + gain[c] * alpha
                p *= gain[c]
            if p >= 1.0:
                return None
            v[i] = alpha / (1.0 - p)
            state[i] = 2
            walk.pop(k)
        for c in reversed(walk):
            if succ[c] >= 0:
                v[c] = 1.0 + gain[c] * v[succ[c]]
            state[c] = 2
    return v if all(map(math.isfinite, v)) else None


@dataclass(frozen=True)
class GraphCheckReport:
    zero_diagonal: bool
    row_finite: bool
    max_row_size: int
    assumption1_sup: np.ndarray     # sup over checked entries of gamma_ij(r), per grid r
    assumption1_finite: bool
    window_only: bool = False       # a generated graph's bound covers its tail
    notes: str = ""


def check_graph(graph: GainGraph, r_grid: Sequence[float],
                window: Sequence[int] | None = None) -> GraphCheckReport:
    """Structural invariants on a working window, by default every label
    of a finite index set (a generated one needs an explicit window).

    On a generated graph the Assumption-1 sup also takes the generator's
    closed-form bound, so it covers the labels beyond the window.
    """
    window = graph.index_set.window(window)
    r = np.asarray(r_grid, float)
    if np.any(r < 0):
        raise ValueError("check grid must be nonnegative")
    sup = np.zeros_like(r)
    max_row = 0
    for i in window:
        row = graph.row(i)
        max_row = max(max_row, len(row))
        for g in row.values():
            sup = np.maximum(sup, g(r))
    notes = ""
    if isinstance(graph, _GeneratedGraph):
        sup = np.maximum(sup, graph.bound(r))
        notes = "assumption-1 sup taken from the generator's closed-form bound"
    return GraphCheckReport(
        zero_diagonal=True,      # enforced at construction
        row_finite=True,         # rows are materialized finite dicts
        max_row_size=max_row,
        assumption1_sup=sup,
        assumption1_finite=bool(np.all(np.isfinite(sup))),
        notes=notes,
    )


def _sequences(v, window: Sequence[int], batch: bool = False) -> np.ndarray:
    """v as a float vector aligned with the window, or with ``batch`` an
    (m, |window|) array of such rows; entries finite and >= 0."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 + batch or v.shape[-1] != len(window):
        raise ValueError(f"shape {v.shape} does not align with the window")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("sequence entries must be finite and >= 0")
    return v


def apply_gain_operator(graph: GainGraph, v,
                        window: Sequence[int]) -> np.ndarray:
    """One application of the max-type operator to the vector v on the window.

    Neighbors outside the window contribute zero (gamma fixes 0).  This
    edge-by-edge loop is the reference semantics of the operator;
    apply_batch must match it bit for bit.
    """
    window = graph.index_set.window(window)
    b = _sequences(v, window)[None, :]
    pos = {i: k for k, i in enumerate(window)}
    out = np.zeros_like(b)
    for i, k in pos.items():
        for j, g in graph.row(i).items():
            if j in pos:
                np.maximum(out[:, k], g(b[:, pos[j]]), out=out[:, k])
    return out[0]


def apply_batch(graph: GainGraph, batch: np.ndarray, window: Sequence[int]) -> np.ndarray:
    """Vectorized operator application to many sequences at once
    (batch rows are independent vectors on the same window), through the
    graph's compiled plan for the window."""
    plan = graph._plan(window)
    return plan.apply(_sequences(batch, plan.window, batch=True))


def iterate(graph: GainGraph, v, n: int, window: Sequence[int]) -> np.ndarray:
    """n-fold application to the vector v on the window; n = 0 is the
    identity."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    window = graph.index_set.window(window)
    v = _sequences(v, window)
    for _ in range(n):
        v = apply_batch(graph, v[None, :], window)[0]
    return v


def restrict(graph: GainGraph, subset: Sequence[int]) -> GainGraph:
    """Finite subgraph on ``subset``: rows and columns meeting the subset,
    external gains carried over.  Equivalent to zeroing all gains into and
    out of the complement.  The subgraph takes the plan compiled for the
    subset as its plan on all its labels: its rows hold the same edges in
    the same order."""
    plan = graph._plan(subset)
    labels = plan.window
    entries = {(labels[k], labels[j]): g for k, j, g in plan.edges}
    external = {i: g for i in labels
                if not (g := graph.external_gain(i)).is_zero()}
    sub = GainGraph(FiniteIndexSet(labels), entries, external)
    sub._plans[labels] = plan
    return sub


# Serialization ----------------------------------------------------------


def graph_to_json(graph: GainGraph, window: Sequence[int] | None = None) -> dict:
    if graph.index_set.finite:
        idx = {"kind": "finite", "n": len(graph.index_set.labels),
               "labels": list(graph.index_set.labels)}
        window = graph.index_set.labels
    else:
        idx = {"kind": "generator", "name": graph.name,
               "params": dict(graph.params), "start": graph.index_set.start}
        if window is None:
            window = ()
    edges = []
    external = []
    for i in window:
        for j, g in sorted(graph.row(i).items()):
            edges.append({"i": int(i), "j": int(j), "gain": curve_to_json(g)})
        ext = graph.external_gain(i)
        if not ext.is_zero():
            external.append({"i": int(i), "gain": curve_to_json(ext)})
    return {"index_set": idx, "edges": edges, "external": external}


def graph_from_json(obj: dict) -> GainGraph:
    idx = obj.get("index_set", {})
    kind = idx.get("kind")
    if kind == "finite":
        labels = idx.get("labels")
        if labels is None:
            labels = list(range(_label(idx["n"], "index set n")))
        index_set = FiniteIndexSet(labels)
        # checked before they become keys: True and 1 are one dict key
        entries = _unique([((_label(e["i"], "edge label"),
                             _label(e["j"], "edge label")),
                            curve_from_json(e["gain"]))
                           for e in obj.get("edges", [])], "edge")
        external = _unique([(_label(e["i"], "external gain label"),
                             curve_from_json(e["gain"]))
                            for e in obj.get("external", [])],
                           "external gain of")
        return GainGraph(index_set, entries, external)
    if kind == "generator":
        return _GeneratedGraph(idx.get("name"), idx.get("params", {}),
                               idx.get("start", 0))
    raise ValueError(f"unknown index set kind {kind!r}")


def _with_defaults(defaults: Mapping, params: Mapping, owner: str) -> dict:
    """params over defaults; a key without a default, or a value that is
    not a finite number (a bool is not a number), raises."""
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {owner}: {sorted(unknown)}")
    for key, value in params.items():
        if not _is_number(value) or not np.isfinite(value):
            raise ValueError(f"parameter {key!r} of {owner} must be a finite "
                             f"number, got {value!r}")
    return {**defaults, **params}


# Gain generators: the catalog chains' rows, rebuilt by name from graph
# JSON.  Each is (factory, defaults of every parameter it reads), and
# factory(params, start) returns (row_fn, external_fn, assumption-1 bound);
# start is the index set's first label, below which no row reaches.  Every
# parameter is a gain coefficient, so linear() rejects a negative one, and a
# zero gain is no edge.


def _gen_decoupled(params, start):
    return (lambda i: {}), (lambda i: zero_curve()), zero_curve()


def _gen_unidirectional(params, start):
    g = linear(params["theta"])
    return (lambda i: {i + 1: g}), (lambda i: identity()), g


def _gen_bidirectional(params, start):
    g = linear(params["gain"])
    return (lambda i: {i + 1: g, i - 1: g} if i > start else {i + 1: g}), \
        (lambda i: identity()), g


_GAIN_GENERATORS = {
    "decoupled": (_gen_decoupled, {}),
    "unidirectional-chain": (_gen_unidirectional, {"theta": 0.5}),
    "bidirectional-chain": (_gen_bidirectional, {"gain": 0.4}),
}


class _GeneratedGraph(GainGraph):
    """The graph of the gain generator ``name`` on start, start+1, ...,
    with its closed-form Assumption-1 ``bound`` and ``params`` as given."""

    def __init__(self, name: str, params: Mapping, start: int = 0):
        if name not in _GAIN_GENERATORS:
            raise ValueError(f"unknown gain generator {name!r}")
        factory, defaults = _GAIN_GENERATORS[name]
        full = _with_defaults(defaults, params, f"gain generator {name!r}")
        self.index_set = GeneratorIndexSet(start)
        self.name, self.params = name, dict(params)
        self._row_fn, self._external_fn, self.bound = factory(
            full, self.index_set.start)
        self.rows, self.external, self._plans = {}, {}, {}

    def row(self, i: int) -> dict[int, ScalarCurve]:
        if i not in self.rows and i in self.index_set:
            self.rows[i] = {int(j): g for j, g in self._row_fn(i).items()
                            if self._nonzero_edge(i, j, g)}
        return super().row(i)

    def external_gain(self, i: int) -> ScalarCurve:
        if i not in self.external and i in self.index_set:
            g = self._external_fn(i)
            _require_k_or_zero(g, f"external gain of {i}")
            self.external[i] = g
        return super().external_gain(i)
