"""Benchmark interconnections with known analytic behavior.

Four families, each built as a NetworkSpec plus an oracle bundle holding the
closed forms the test suite compares against:

* counterexample-chain: decoupled continuous chain dx_i/dt = -(1/i) x_i,
  i = 1, 2, ...  Every component is exponentially stable, but the decay is
  not uniform over components, so no single decay curve works for every
  window; sup-norm over the window n stays at exp(-t/n).
* uniform-2-cycle: two discrete subsystems x_i+ = max(a x_i, c x_other, u_i)
  with a uniform contraction; stored cycle gains are (c/(1-a)) id, the
  conservative sum-style unrolling, so the recorded curve dominates the
  empirically tight c id by the documented slack 1/(1-a).
* nonuniform-discrete-chain: x_i+ = a_i x_i + b_i x_{i+1} + (1-a_i) u_i with
  a_i = 1 - 1/(i+2) and b_i = theta (1-a_i).  Per-component contraction rates
  degrade along the chain; internal gains are theta id, the external channel
  is normalized so every external gain is exactly id.
* linear-diffusive-chain: dx_i/dt = -x_i + eps (x_{i-1} + x_{i+1}) + u_i;
  a uniformly stable diffusive coupling for eps < 1/2, stored neighbor gains
  2 eps id (tight when both neighbors are driven together).

The three chains take their gain graphs from the named gain generators of
issnet.gains, the same ones graph_from_json rebuilds them with.
Each fast map is its formula over the neighbor block w that network
hands it; the per-component dynamics stay an independent reference.
"""

from __future__ import annotations

import ast
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .comparison import ScalarCurve, identity, linear, zero_curve
from .gains import (FiniteIndexSet, GainGraph, _GeneratedGraph, _label,
                    _unique, _with_defaults, graph_from_json)
from .network import NetworkSpec
from .systems import DISCRETE, SubsystemSpec, TimeDomain, continuous

__all__ = [
    "CatalogEntry",
    "Oracle",
    "entries",
    "instantiate",
    "parse_ref",
    "network_from_json",
]


@dataclass(frozen=True, eq=False)
class Oracle:
    """Closed forms used to cross-check the numerics."""

    sigma: ScalarCurve                      # uniform transient bound curve
    external_gain: ScalarCurve              # uniform dominator of the gamma_i
    xi: ScalarCurve | None = None           # monotone-bound curve of the gain graph
    component_value: Callable | None = None  # (i, t, x0_i) -> exact zero-input value
    any_input: bool = False                 # closed form holds for every input
    steady_state: Callable | None = None    # (window, level) -> vector under constant input
    linear_matrix: Callable | None = None   # window -> (A, B) for linear entries
    gain_slack: float = 1.0                 # stored gain / tight empirical gain
    notes: str = ""


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    description: str
    defaults: Mapping[str, float]
    build: Callable[[Mapping[str, float]], tuple[NetworkSpec, Oracle]]

    def instantiate(self, params: Mapping[str, float] | None = None):
        p = _with_defaults(self.defaults, params or {}, self.name)
        return self.build({k: float(v) for k, v in p.items()})


# counterexample-chain ---------------------------------------------------


def _build_counterexample(p):
    def subsystem(i: int) -> SubsystemSpec:
        if i < 1:
            raise ValueError("labels start at 1")
        inv = 1.0 / i

        def dyn(x, w, u, _inv=inv):
            return -_inv * x

        return SubsystemSpec(f"node{i}", continuous(1e-3), dyn, neighbors=())

    def fast(window):
        neg_inv = -1.0 / np.asarray(window, float)    # the bits of -(1/i)
        # neg_inv repeated to each state shape the map sees, made once: a
        # same-shape multiply is about 2.5x faster than one broadcasting a
        # row over the ensemble's rows, and its bits are the same
        tiles = {}

        def f(x, w, u):
            tile = tiles.get(x.shape)
            if tile is None:
                tile = tiles[x.shape] = np.broadcast_to(neg_inv, x.shape).copy()
            return tile * x

        return f

    graph = _GeneratedGraph("decoupled", {}, start=1)
    net = NetworkSpec("counterexample-chain", continuous(1e-3),
                      graph.index_set, subsystem, graph, fast)

    def component_value(i, t, x0):
        return float(np.exp(-np.asarray(t, float) / i) * x0)

    oracle = Oracle(
        sigma=identity(),
        external_gain=zero_curve(),
        xi=identity(),
        component_value=component_value,
        any_input=True,           # the input channel is absent from the dynamics
        steady_state=lambda window, level: np.zeros(len(window)),
        notes="decoupled; slowest window component sets the sup norm exp(-t/n)",
    )
    return net, oracle


# uniform-2-cycle --------------------------------------------------------


def _build_two_cycle(p):
    a, c = p["a"], p["c"]
    if not (0 <= a < 1):
        raise ValueError("need 0 <= a < 1")
    if not (0 <= c < 1):
        raise ValueError("need 0 <= c < 1")
    index_set = FiniteIndexSet((1, 2))

    def subsystem(i: int) -> SubsystemSpec:
        if i not in (1, 2):
            raise ValueError("labels are 1 and 2")

        def dyn(x, w, u):
            return max(a * x, c * w[0], u)

        return SubsystemSpec(f"node{i}", DISCRETE, dyn, neighbors=(3 - i,))

    def fast(window):
        return lambda x, w, u: np.maximum(np.maximum(a * x, c * w[..., 0]), u)

    g = linear(c / (1.0 - a)) if c > 0 else zero_curve()
    graph = GainGraph(index_set,
                      entries={(1, 2): g, (2, 1): g},
                      external={1: identity(), 2: identity()})
    net = NetworkSpec("uniform-2-cycle", DISCRETE, index_set, subsystem, graph, fast)

    def component_value(i, k, x0):
        # exact for symmetric starts (both components at x0) when c <= a
        return float(a ** np.asarray(k, float) * x0)

    oracle = Oracle(
        sigma=identity(),
        external_gain=identity(),
        xi=linear(1.0 / (1.0 - c / (1.0 - a))) if c / (1.0 - a) < 1 else None,
        component_value=component_value if c <= a else None,
        steady_state=lambda window, level: np.full(len(window), max(level, 0.0)),
        gain_slack=1.0 / (1.0 - a),
        notes="stored gains use the sum-style unrolling; tight neighbor gain is c id",
    )
    return net, oracle


# nonuniform-discrete-chain ----------------------------------------------


def _chain_coeffs(labels: np.ndarray, theta: float):
    rate = 1.0 / (labels + 2.0)
    a = 1.0 - rate
    return a, theta * rate, rate


def _build_nonuniform_chain(p):
    theta = p["theta"]
    if not (0 <= theta < 1):
        raise ValueError("need 0 <= theta < 1 for the monotone-bound closed form")

    def subsystem(i: int) -> SubsystemSpec:
        if i < 0:
            raise ValueError("labels start at 0")
        a, b, cc = _chain_coeffs(np.asarray(float(i)), theta)

        def dyn(x, w, u, _a=float(a), _b=float(b), _c=float(cc)):
            return _a * x + _b * w[0] + _c * u

        return SubsystemSpec(f"node{i}", DISCRETE, dyn, neighbors=(i + 1,))

    def fast(window):
        a, b, cc = _chain_coeffs(np.asarray(window, float), theta)
        # a and b repeated to each state shape, made once (see the
        # counterexample chain); cc * u broadcasts the input as given
        tiles = {}

        def f(x, w, u):
            tile = tiles.get(x.shape)
            if tile is None:
                tile = tiles[x.shape] = (np.broadcast_to(a, x.shape).copy(),
                                         np.broadcast_to(b, x.shape).copy())
            return tile[0] * x + tile[1] * w[..., 0] + cc * u

        return f

    graph = _GeneratedGraph("unidirectional-chain", {"theta": theta})
    net = NetworkSpec("nonuniform-discrete-chain", DISCRETE, graph.index_set,
                      subsystem, graph, fast)

    def component_value(i, k, x0):
        # exact when theta == 0 (decoupled); used as the decoupled oracle
        a = 1.0 - 1.0 / (i + 2.0)
        return float(a ** np.asarray(k, float) * x0)

    def steady_state(window, level):
        # x*_i = theta x*_{i+1} + level, solved from the right edge (zero beyond)
        at = {}
        for i in sorted(window, reverse=True):
            at[i] = theta * at.get(i + 1, 0.0) + level
        return np.array([at[i] for i in window])

    def linear_matrix(window):
        labels = np.asarray(window, float)
        a, b, cc = _chain_coeffs(labels, theta)
        # b_i in column i + 1 of row i
        return (np.where(labels == labels[:, None] + 1, b[:, None],
                         np.diag(a)), np.diag(cc))

    oracle = Oracle(
        sigma=identity(),
        external_gain=identity(),
        xi=linear(1.0 / (1.0 - theta)) if theta < 1 else None,
        component_value=component_value if theta == 0 else None,
        steady_state=steady_state,
        linear_matrix=linear_matrix,
        notes="per-component rates a_i = 1 - 1/(i+2) degrade along the chain",
    )
    return net, oracle


# linear-diffusive-chain -------------------------------------------------


def _build_diffusive(p):
    eps = p["eps"]
    if not (0 <= eps < 0.5):
        raise ValueError("need 0 <= eps < 1/2 for stability of the coupling")

    def subsystem(i: int) -> SubsystemSpec:
        if i < 0:
            raise ValueError("labels start at 0")
        nbrs = (i + 1,) if i == 0 else (i - 1, i + 1)

        def dyn(x, w, u):
            return -x + eps * float(np.sum(w)) + u

        return SubsystemSpec(f"node{i}", continuous(1e-3), dyn, neighbors=nbrs)

    def fast(window):
        # a sum, not w[..., 0] + w[..., 1]: on the window (0,) the block has
        # one column, label 0's one neighbor
        return lambda x, w, u: -x + eps * np.sum(w, axis=-1) + u

    graph = _GeneratedGraph("bidirectional-chain", {"gain": 2.0 * eps})
    net = NetworkSpec("linear-diffusive-chain", continuous(1e-3),
                      graph.index_set, subsystem, graph, fast)

    def linear_matrix(window):
        labels = np.asarray(window, float)
        n = len(window)
        # eps in columns i - 1 and i + 1 of row i
        return (np.where(np.abs(labels - labels[:, None]) == 1, eps,
                         -np.eye(n)), np.eye(n))

    def component_value(i, t, x0):
        # exact only when eps == 0
        return float(np.exp(-np.asarray(t, float)) * x0)

    oracle = Oracle(
        sigma=identity(),
        external_gain=identity(),
        xi=linear(1.0 / (1.0 - 2.0 * eps)) if eps < 0.5 else None,
        component_value=component_value if eps == 0 else None,
        linear_matrix=linear_matrix,
        gain_slack=1.0 if eps == 0 else 2.0,
        notes="neighbor gains 2 eps id are tight when both neighbors are driven",
    )
    return net, oracle


_ENTRIES = {
    "counterexample-chain": CatalogEntry(
        "counterexample-chain",
        "decoupled continuous chain with per-component rate 1/i; "
        "componentwise stable, no uniform decay across windows",
        {},
        _build_counterexample),
    "uniform-2-cycle": CatalogEntry(
        "uniform-2-cycle",
        "two discrete max-coupled subsystems with a uniform contraction",
        {"a": 0.5, "c": 0.25},
        _build_two_cycle),
    "nonuniform-discrete-chain": CatalogEntry(
        "nonuniform-discrete-chain",
        "discrete chain with degrading contraction rates and gains theta id",
        {"theta": 0.5},
        _build_nonuniform_chain),
    "linear-diffusive-chain": CatalogEntry(
        "linear-diffusive-chain",
        "continuous diffusively coupled linear chain",
        {"eps": 0.2},
        _build_diffusive),
}


def entries() -> dict[str, CatalogEntry]:
    return dict(_ENTRIES)


def instantiate(name: str, params: Mapping[str, float] | None = None):
    """Build (NetworkSpec, Oracle) for a catalog entry by name."""
    if name not in _ENTRIES:
        raise ValueError(f"unknown catalog entry {name!r}; "
                         f"have {sorted(_ENTRIES)}")
    return _ENTRIES[name].instantiate(params)


def parse_ref(ref: str):
    """Parse 'catalog:<name>?k=v&...' into (name, params)."""
    if not ref.startswith("catalog:"):
        raise ValueError("catalog references start with 'catalog:'")
    rest = ref[len("catalog:"):]
    name, _, query = rest.partition("?")
    params = {}
    if query:
        for k, vals in urllib.parse.parse_qs(query, strict_parsing=True).items():
            params[k] = float(vals[-1])
    return name, params


# Network JSON loading ---------------------------------------------------

_SAFE_FUNCS = {
    "abs": abs, "min": min, "max": max,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "tanh": np.tanh,
    "sin": np.sin, "cos": np.cos, "sign": np.sign, "pi": np.pi,
}


_EXPR_NODES = (ast.Expression, ast.Name, ast.Load, ast.BinOp, ast.UnaryOp,
               ast.BoolOp, ast.Compare, ast.IfExp, ast.operator, ast.unaryop,
               ast.boolop, ast.cmpop)


def _allowed_node(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Call):
        # arguments are checked as nodes of their own; keyword and starred
        # arguments are not in the whitelist
        return isinstance(node.func, ast.Name) \
            and callable(_SAFE_FUNCS.get(node.func.id))
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Name) and node.value.id == "w" \
            and isinstance(node.slice, ast.Constant) \
            and type(node.slice.value) is int
    return isinstance(node, _EXPR_NODES)


def _compile_dynamics(expr: str, n_neighbors: int):
    """Restricted arithmetic expression in x, w, u.

    The syntax tree is a whitelist: the names x, w, u and the helpers in
    _SAFE_FUNCS, int and float constants, arithmetic, comparison, boolean
    and conditional expressions, positional calls to the helpers, and
    w[k] for an int k below n_neighbors, the only use of w.  Anything else
    raises ValueError; no builtins are exposed.
    """
    try:
        tree = ast.parse(expr, "<subsystem-expression>", mode="eval")
    except SyntaxError as e:
        raise ValueError(f"expression {expr!r} is not valid: {e.msg}") from None
    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name)
                and node.id not in _SAFE_FUNCS and node.id not in ("x", "w", "u")):
            name = node.attr if isinstance(node, ast.Attribute) else node.id
            raise ValueError(f"expression uses disallowed name {name!r}")
    for node in nodes:
        if not _allowed_node(node):
            raise ValueError(f"expression uses disallowed syntax "
                             f"{ast.unparse(node)!r}")
    ks = [node.slice.value for node in nodes          # each is a w[int]
          if isinstance(node, ast.Subscript)]
    n_w = sum(isinstance(node, ast.Name) and node.id == "w" for node in nodes)
    if n_w > len(ks) or any(k >= n_neighbors for k in ks):
        raise ValueError(f"expression {expr!r} must use w only as w[k] with "
                         f"0 <= k < {n_neighbors}, its neighbor count")
    code = compile(tree, "<subsystem-expression>", "eval")

    def dyn(x, w, u):
        return float(eval(code, {"__builtins__": {}},
                          {**_SAFE_FUNCS, "x": x, "w": w, "u": u}))

    return dyn


def network_from_json(obj: dict) -> tuple[NetworkSpec, Oracle | None]:
    """Build a network from its JSON description.

    Either {"catalog": name, "params": {...}} or an explicit description
    with time_domain, index_set, a subsystem list of
    {"i": label, "expr": str, "neighbors": [...]}, one per label, and an
    optional gain_graph on the same index set.
    """
    if "catalog" in obj:
        return instantiate(obj["catalog"], obj.get("params"))
    td = obj["time_domain"]
    domain = TimeDomain(td["kind"], td.get("dt"))
    idx = obj["index_set"]
    if idx.get("kind") != "finite":
        raise ValueError("explicit network files need a finite index set")
    subs = _unique([(_label(s["i"], "subsystem label"), s)
                    for s in obj["subsystems"]], "subsystem")
    labels = idx.get("labels")
    index_set = FiniteIndexSet(sorted(subs) if labels is None else labels)
    missing = [i for i in index_set.labels if i not in subs]
    if missing:
        raise ValueError(f"no subsystem given for labels {missing}")
    outside = [i for i in subs if i not in index_set]
    if outside:
        raise ValueError(f"subsystems {outside} outside the index set")
    for i, s in subs.items():
        neighbors = tuple(_label(j, f"neighbor of {i}")
                          for j in s.get("neighbors", ()))
        for j in neighbors:
            if j == i:
                raise ValueError(f"subsystem {i} lists itself as a neighbor")
            if j not in index_set:
                raise ValueError(f"neighbor {j} of {i} leaves the index set")
        dyn = _compile_dynamics(s["expr"], len(neighbors))
        subs[i] = SubsystemSpec(s.get("name", f"node{i}"), domain, dyn,
                                neighbors=neighbors, expression=s["expr"])
    graph = graph_from_json(obj["gain_graph"]) if "gain_graph" in obj else None
    if graph is not None and graph.index_set != index_set:
        raise ValueError("gain_graph is on another index set than the network")
    return NetworkSpec(obj.get("name", "network"), domain, index_set,
                       lambda i: subs[i], graph, None), None
