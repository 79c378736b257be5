"""Interconnection gain graphs and the max-type gain operator.

A gain graph stores, for each subsystem i, the class-K curves gamma_ij
weighing the influence of neighbor j on i, plus an optional external-input
gain gamma_i.  The induced operator on nonnegative sequences is

    (Gamma s)_i = sup_j gamma_ij(s_j),

with the convention gamma_ij = 0 for absent edges, so entries outside the
working window contribute nothing.  Diagonal entries are rejected and every
row must be finite.  Infinite index sets are handled through a generator
callback that materializes rows on demand, each checked once and then kept
with the given rows; all computation happens on a finite working window
with an implicit zero tail.  Graph JSON names one of three fixed
generators (decoupled, unidirectional-chain, bidirectional-chain), the
ones the catalog chains are built from.

Two functions apply the operator.  apply_gain_operator is the reference:
it walks the window's rows and calls every edge curve on one vector.
apply_batch is the kernel used by the small-gain searches: on first use
for a window, the graph compiles a plan that holds its linear edges as
row-sorted (rows, cols, coeffs) arrays, applied to all batch rows at once
as a gather, a product and a segmented max, and its other edges as a
per-edge list evaluated without re-validating the input.  Both produce
the same bits for every input row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .comparison import (ScalarCurve, _require_k_or_zero, curve_from_json,
                         curve_max, curve_to_json, identity, linear,
                         zero_curve)

__all__ = [
    "FiniteIndexSet",
    "GeneratorIndexSet",
    "NonnegSequence",
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


@dataclass(frozen=True)
class FiniteIndexSet:
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError("finite index set cannot be empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("index labels must be distinct")

    @property
    def finite(self) -> bool:
        return True

    def __contains__(self, i: int) -> bool:
        return i in self.labels

    def window(self, n: int | None = None) -> tuple[int, ...]:
        if n is None:
            return self.labels
        if n <= 0:
            raise ValueError("window size must be positive")
        return self.labels[:n]


@dataclass(frozen=True)
class GeneratorIndexSet:
    """Countably infinite index set start, start+1, ..."""

    start: int = 0
    name: str = "integers"

    @property
    def finite(self) -> bool:
        return False

    def __contains__(self, i: int) -> bool:
        return int(i) >= self.start

    def window(self, n: int) -> tuple[int, ...]:
        if n is None or n <= 0:
            raise ValueError("infinite index sets need an explicit window size")
        return tuple(range(self.start, self.start + n))


@dataclass(frozen=True, eq=False)
class NonnegSequence:
    """Dense nonnegative vector over a finite working window; the values at
    indices outside the window are implicitly zero."""

    indices: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != len(self.indices):
            raise ValueError("values must be 1-d and aligned with indices")
        if np.any(~np.isfinite(v)) or np.any(v < 0):
            raise ValueError("sequence entries must be finite and >= 0")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    @property
    def sup_norm(self) -> float:
        return float(np.max(self.values)) if self.values.size else 0.0

    def __getitem__(self, i: int) -> float:
        try:
            return float(self.values[self.indices.index(i)])
        except ValueError:
            return 0.0

    def __len__(self) -> int:
        return len(self.indices)


class GainGraph:
    """Sparse row-major gain graph over a finite or generated index set."""

    def __init__(self, index_set, entries: Mapping[tuple[int, int], ScalarCurve] | None = None,
                 external: Mapping[int, ScalarCurve] | None = None,
                 row_fn: Callable[[int], Mapping[int, ScalarCurve]] | None = None,
                 external_fn: Callable[[int], ScalarCurve] | None = None,
                 assumption1_bound: ScalarCurve | None = None,
                 generator_name: str | None = None,
                 generator_params: Mapping | None = None):
        self.index_set = index_set
        self.rows: dict[int, dict[int, ScalarCurve]] = {}
        for (i, j), g in (entries or {}).items():
            self._add_entry(int(i), int(j), g)
        self.external: dict[int, ScalarCurve] = {}
        for i, g in (external or {}).items():
            _require_k_or_zero(g, f"external gain of {i}")
            self.external[int(i)] = g
        self.row_fn = row_fn
        self.external_fn = external_fn
        self.assumption1_bound = assumption1_bound
        self.generator_name = generator_name
        self.generator_params = dict(generator_params or {})
        self._plans: dict[tuple, _WindowPlan] = {}
        if not index_set.finite and row_fn is None:
            raise ValueError("generated index sets need a row function")

    def _add_entry(self, i: int, j: int, g: ScalarCurve):
        if i == j:
            raise ValueError(f"diagonal gain ({i},{i}) is not allowed")
        if i not in self.index_set or j not in self.index_set:
            raise ValueError(f"edge ({i},{j}) leaves the index set")
        _require_k_or_zero(g, f"gain ({i},{j})")
        if not g.is_zero():
            self.rows.setdefault(i, {})[j] = g

    def row(self, i: int) -> dict[int, ScalarCurve]:
        """Finite row of i: mapping j -> gamma_ij (absent entries are zero)."""
        if i not in self.index_set:
            raise KeyError(f"index {i} outside the index set")
        if i not in self.rows and self.row_fn is not None:
            cleaned = {}
            for j, g in self.row_fn(i).items():
                j = int(j)
                if j == i:
                    raise ValueError(f"generator produced diagonal gain at {i}")
                _require_k_or_zero(g, f"generated gain ({i},{j})")
                if not g.is_zero():
                    cleaned[j] = g
            self.rows[i] = cleaned
        return self.rows.get(i, {})

    def external_gain(self, i: int) -> ScalarCurve:
        if i in self.external:
            return self.external[i]
        if self.external_fn is not None:
            return self.external_fn(i)
        return zero_curve()

    def uniform_external_gain(self, window: Sequence[int]) -> ScalarCurve:
        """Pointwise dominating curve over the window's external gains."""
        out = zero_curve()
        for i in window:
            out = curve_max(out, self.external_gain(i))
        return out

    def _plan(self, window: Sequence[int]) -> "_WindowPlan":
        key = tuple(window)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _WindowPlan(self, key)
        return plan


class _WindowPlan:
    """The operator of one graph on one window, compiled for apply_batch.

    Linear edges are stored sorted by row as parallel (rows, cols, coeffs)
    arrays; the segment of each target row starts at ``starts``.  Only
    present edges are gathered and multiplied, so an absent edge never
    contributes a product.  Other curve kinds stay a per-edge list.
    """

    def __init__(self, graph: GainGraph, window: tuple):
        idx = [int(i) for i in window]
        pos = {i: k for k, i in enumerate(idx)}
        rows, cols, coeffs, self.other = [], [], [], []
        for k, i in enumerate(idx):
            for j, g in graph.row(i).items():
                if j not in pos:
                    continue
                if g.kind == "linear":
                    rows.append(k)
                    cols.append(pos[j])
                    coeffs.append(g.params["a"])
                else:
                    self.other.append((k, pos[j], g))
        rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.starts = np.flatnonzero(np.diff(rows, prepend=-1))
        self.targets = rows[self.starts]

    def apply(self, b: np.ndarray) -> np.ndarray:
        out = np.zeros_like(b)
        prod = b[:, self.cols]       # a fresh gather, scaled in place
        prod *= self.coeffs
        out[:, self.targets] = np.maximum.reduceat(prod, self.starts, axis=1)
        for k, j, g in self.other:
            np.maximum(out[:, k], g._eval(b[:, j]), out=out[:, k])
        return out


@dataclass(frozen=True)
class GraphCheckReport:
    zero_diagonal: bool
    row_finite: bool
    max_row_size: int
    assumption1_sup: np.ndarray     # sup over checked entries of gamma_ij(r), per grid r
    assumption1_finite: bool
    window_only: bool               # True when only a window of a generated graph was checked
    notes: str = ""


def check_graph(graph: GainGraph, r_grid: Sequence[float],
                window: Sequence[int] | None = None) -> GraphCheckReport:
    """Structural invariants on a working window.

    For generated graphs without a closed-form bound the Assumption-1 sup is
    taken over the window only and the gap is flagged, not hidden.
    """
    if window is None:
        if not graph.index_set.finite:
            raise ValueError("checking a generated graph needs an explicit window")
        window = graph.index_set.window()
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
    window_only = not graph.index_set.finite
    notes = ""
    if graph.assumption1_bound is not None:
        sup = np.maximum(sup, graph.assumption1_bound(r))
        window_only = False
        notes = "assumption-1 sup taken from the generator's closed-form bound"
    elif window_only:
        notes = "assumption-1 sup covers the materialized window only"
    return GraphCheckReport(
        zero_diagonal=True,      # enforced at construction
        row_finite=True,         # rows are materialized finite dicts
        max_row_size=max_row,
        assumption1_sup=sup,
        assumption1_finite=bool(np.all(np.isfinite(sup))),
        window_only=window_only,
        notes=notes,
    )


def _window_and_values(s, window):
    if isinstance(s, NonnegSequence):
        if window is not None and tuple(window) != s.indices:
            raise ValueError("sequence window does not match the requested window")
        return s.indices, s.values, True
    v = np.asarray(s, dtype=float)
    if window is None:
        raise ValueError("plain arrays need an explicit window")
    if v.ndim != 1 or v.size != len(window):
        raise ValueError("value array must align with the window")
    if np.any(v < 0) or np.any(~np.isfinite(v)):
        raise ValueError("sequence entries must be finite and >= 0")
    return tuple(int(i) for i in window), v, False


def apply_gain_operator(graph: GainGraph, s, window: Sequence[int] | None = None):
    """One application of the max-type operator on the window.

    Accepts a NonnegSequence or a plain array plus window; returns the same
    flavor.  Neighbors outside the window contribute zero (gamma fixes 0).
    This edge-by-edge loop is the reference semantics of the operator;
    apply_batch must match it bit for bit.
    """
    idx, v, wrapped = _window_and_values(s, window)
    pos = {i: k for k, i in enumerate(idx)}
    b = v[None, :]
    out = np.zeros_like(b)
    for i in idx:
        k = pos[i]
        for j, g in graph.row(i).items():
            if j in pos:
                np.maximum(out[:, k], g(b[:, pos[j]]), out=out[:, k])
    return NonnegSequence(idx, out[0]) if wrapped else out[0]


def apply_batch(graph: GainGraph, batch: np.ndarray, window: Sequence[int]) -> np.ndarray:
    """Vectorized operator application to many sequences at once
    (batch rows are independent vectors on the same window), through the
    graph's compiled plan for the window."""
    b = np.asarray(batch, dtype=float)
    if b.ndim != 2 or b.shape[1] != len(window):
        raise ValueError("batch must have shape (m, |window|)")
    if not np.all(np.isfinite(b)) or np.any(b < 0):
        raise ValueError("sequence entries must be finite and >= 0")
    return graph._plan(window).apply(b)


def iterate(graph: GainGraph, s, n: int, window: Sequence[int] | None = None):
    """n-fold application; n = 0 is the identity."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    idx, v, wrapped = _window_and_values(s, window)
    for _ in range(n):
        v = apply_batch(graph, v[None, :], idx)[0]
    return NonnegSequence(idx, v) if wrapped else v


def restrict(graph: GainGraph, subset: Sequence[int]) -> GainGraph:
    """Finite subgraph on ``subset``: rows and columns meeting the subset,
    external gains carried over.  Equivalent to zeroing all gains into and
    out of the complement."""
    labels = tuple(int(i) for i in subset)
    if len(labels) == 0:
        raise ValueError("cannot restrict to an empty subset")
    for i in labels:
        if i not in graph.index_set:
            raise ValueError(f"index {i} outside the index set")
    keep = set(labels)
    entries = {}
    external = {}
    for i in labels:
        for j, g in graph.row(i).items():
            if j in keep:
                entries[(i, j)] = g
        ext = graph.external_gain(i)
        if not ext.is_zero():
            external[i] = ext
    return GainGraph(FiniteIndexSet(labels), entries, external)


# Serialization ----------------------------------------------------------


def graph_to_json(graph: GainGraph, window: Sequence[int] | None = None) -> dict:
    if graph.index_set.finite:
        idx = {"kind": "finite", "n": len(graph.index_set.labels),
               "labels": list(graph.index_set.labels)}
        window = graph.index_set.labels
    else:
        idx = {"kind": "generator", "name": graph.generator_name or graph.index_set.name,
               "params": dict(graph.generator_params),
               "start": graph.index_set.start}
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
            labels = list(range(int(idx["n"])))
        index_set = FiniteIndexSet(tuple(int(i) for i in labels))
        entries = {(int(e["i"]), int(e["j"])): curve_from_json(e["gain"])
                   for e in obj.get("edges", [])}
        external = {int(e["i"]): curve_from_json(e["gain"])
                    for e in obj.get("external", [])}
        return GainGraph(index_set, entries, external)
    if kind == "generator":
        name = idx.get("name")
        return _generated_graph(GeneratorIndexSet(int(idx.get("start", 0)), name),
                                name, idx.get("params", {}))
    raise ValueError(f"unknown index set kind {kind!r}")


# Gain generators: the catalog chains' rows, rebuilt by name from graph
# JSON.  factory(params) returns (row_fn, external_fn, assumption-1 bound).


def _gen_decoupled(params):
    return (lambda i: {}), (lambda i: zero_curve()), zero_curve()


def _gen_unidirectional(params):
    theta = float(params.get("theta", 0.5))
    g = linear(theta) if theta > 0 else zero_curve()
    return (lambda i: ({i + 1: g} if theta > 0 else {})), \
        (lambda i: identity()), g


def _gen_bidirectional(params):
    gain = float(params.get("gain", 0.4))
    start = int(params.get("start", 0))
    g = linear(gain) if gain > 0 else zero_curve()

    def row(i):
        if gain == 0:
            return {}
        out = {i + 1: g}
        if i - 1 >= start:
            out[i - 1] = g
        return out

    return row, (lambda i: identity()), g


_GAIN_GENERATORS = {
    "decoupled": _gen_decoupled,
    "unidirectional-chain": _gen_unidirectional,
    "bidirectional-chain": _gen_bidirectional,
}


def _generated_graph(index_set: GeneratorIndexSet, name: str,
                     params: Mapping) -> GainGraph:
    """The graph of the gain generator ``name`` on ``index_set``."""
    if name not in _GAIN_GENERATORS:
        raise ValueError(f"unknown gain generator {name!r}")
    row_fn, external_fn, bound = _GAIN_GENERATORS[name](params)
    return GainGraph(index_set, row_fn=row_fn, external_fn=external_fn,
                     assumption1_bound=bound, generator_name=name,
                     generator_params=params)
