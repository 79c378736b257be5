"""Gain graphs and the max-type coupling operator."""

import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from issnet import gains
from issnet.catalog import instantiate
from issnet.comparison import expdecay, identity, linear, power, zero_curve
from issnet.gains import (
    CHECK_GRID,
    FiniteIndexSet,
    GainGraph,
    GeneratorIndexSet,
    apply_batch,
    apply_gain_operator,
    check_graph,
    graph_from_json,
    graph_to_json,
    iterate,
    restrict,
)
from issnet.network import subnetwork
from issnet.smallgain import _directions, _iterated_directions


def _graph(entries, labels=None, external=None):
    labels = labels or sorted({i for i, _ in entries} | {j for _, j in entries})
    return GainGraph(FiniteIndexSet(tuple(labels)),
                     entries={k: v for k, v in entries.items()},
                     external=external)


@pytest.fixture
def cycle_graph():
    return _graph({(0, 1): linear(0.5), (1, 0): linear(0.5)}, labels=(0, 1))


# Structure --------------------------------------------------------------


def test_diagonal_entries_rejected():
    with pytest.raises(ValueError):
        _graph({(0, 0): linear(0.5)}, labels=(0,))


def test_finite_window_sizes_must_be_positive():
    labels = FiniteIndexSet((1, 2, 3))
    assert labels.window() == (1, 2, 3)
    assert labels.window(2) == (1, 2)
    with pytest.raises(ValueError, match="exceeds the 3 labels"):
        labels.window(7)
    for n in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            labels.window(n)


def test_windows_are_tuples_of_python_ints():
    labels = FiniteIndexSet((1, 2, 3))
    assert labels.window(np.array([3, 1])) == (3, 1)
    assert labels.window(np.int64(2)) == (1, 2)
    chain = GeneratorIndexSet(start=2)
    assert chain.window(range(5, 8)) == (5, 6, 7)
    for w in (labels.window(np.array([3, 1])), chain.window(np.int64(2))):
        assert all(type(i) is int for i in w)
    with pytest.raises(ValueError, match="explicit window"):
        chain.window()
    with pytest.raises(ValueError, match="outside the index set"):
        chain.window((1, 2))


@pytest.mark.parametrize("spec, message", [
    ((0, True), "labels must be integers, got [0, True]"),
    ((1, 0, 1), "labels must be distinct, got [1, 0, 1]"),
    ((0, 5, 2, -1), "labels [5, -1] outside the index set"),
    ((0, 1.0), "labels must be integers, got [0, 1.0]"),
    ((), "labels must be nonempty"),
])
def test_the_window_rule_checks_each_label(spec, message):
    for labels in (FiniteIndexSet((0, 1, 2)), GeneratorIndexSet(start=0)):
        if labels.finite or "outside" not in message:
            with pytest.raises(ValueError) as caught:
                labels.window(spec)
            assert str(caught.value) == message
    assert GeneratorIndexSet(start=0).window((0, 5, 2)) == (0, 5, 2)
    assert GeneratorIndexSet(start=1).window(np.array([3, 1])) == (3, 1)
    with pytest.raises(ValueError, match=r"labels \[0\] outside"):
        GeneratorIndexSet(start=1).window((0, 2))


def test_row_lookup(cycle_graph):
    row = cycle_graph.row(0)
    assert set(row) == {1}
    assert row[1](2.0) == 1.0
    with pytest.raises(KeyError):
        cycle_graph.row(7)


# Operator ---------------------------------------------------------------


def test_apply_on_two_cycle(cycle_graph):
    out = apply_gain_operator(cycle_graph, np.array([1.0, 2.0]), (0, 1))
    assert np.allclose(out, [1.0, 0.5])
    assert isinstance(out, np.ndarray)


@pytest.mark.parametrize("v, match", [
    ([1.0, -0.5], "finite and >= 0"),
    ([1.0, np.inf], "finite and >= 0"),
    ([1.0, 2.0, 3.0], "align with the window"),
], ids=["negative", "inf", "misaligned"])
def test_operator_rejects_bad_vectors(cycle_graph, v, match):
    with pytest.raises(ValueError, match=match):
        apply_gain_operator(cycle_graph, np.array(v), (0, 1))
    with pytest.raises(ValueError, match=match):
        iterate(cycle_graph, np.array(v), 2, (0, 1))


def test_apply_on_chain(chain):
    net, _ = chain
    window = (0, 1, 2)
    out = apply_gain_operator(net.graph, np.array([0.0, 0.0, 4.0]), window)
    assert np.allclose(out, [0.0, 2.0, 0.0])


def test_apply_batch_matches_rowwise(cycle_graph):
    batch = np.array([[1.0, 2.0], [0.5, 0.0], [3.0, 3.0]])
    got = apply_batch(cycle_graph, batch, (0, 1))
    for row_in, row_out in zip(batch, got):
        one = apply_gain_operator(cycle_graph, row_in, (0, 1))
        assert np.array_equal(row_out, one)


def test_max_aggregation_uses_largest_neighbor():
    g = _graph({(0, 1): linear(1.0), (0, 2): linear(0.25)}, labels=(0, 1, 2))
    out = apply_gain_operator(g, np.array([0.0, 1.0, 8.0]), (0, 1, 2))
    assert out[0] == 2.0       # max(1*1, 0.25*8)


def test_iterate_contracts(cycle_graph):
    s = np.array([1.0, 1.0])
    sups = [float(np.max(iterate(cycle_graph, s, k, (0, 1))))
            for k in range(5)]
    assert sups[0] == 1.0
    assert all(a > b for a, b in zip(sups, sups[1:]))


@settings(max_examples=40)
@given(st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
       st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3))
def test_operator_is_monotone(xs, ys):
    g = _graph({(0, 1): linear(0.7), (1, 2): power(1.0, 2.0),
                (2, 0): linear(0.3)}, labels=(0, 1, 2))
    lo = np.minimum(xs, ys)
    hi = np.maximum(xs, ys)
    glo = apply_gain_operator(g, lo, (0, 1, 2))
    ghi = apply_gain_operator(g, hi, (0, 1, 2))
    assert np.all(glo <= ghi + 1e-12)


# External gains ---------------------------------------------------------


def test_external_gain_defaults_to_zero(cycle_graph):
    assert cycle_graph.external_gain(0)(5.0) == 0.0


def test_uniform_external_gain_folds_max():
    g = _graph({(0, 1): linear(0.5)}, labels=(0, 1),
               external={0: linear(2.0), 1: linear(3.0)})
    gu = g.uniform_external_gain((0, 1))
    assert gu(2.0) == 6.0


# Restriction ------------------------------------------------------------


def test_restrict_zeroes_outside_influences(chain):
    net, _ = chain
    sub = restrict(net.graph, (0, 1, 2))
    # inside edges survive
    x = np.array([0.0, 4.0, 0.0])
    assert np.allclose(apply_gain_operator(sub, x, (0, 1, 2)), [2.0, 0.0, 0.0])
    # the edge 2 <- 3 is gone after restriction
    full = apply_gain_operator(net.graph, np.array([0.0, 0.0, 0.0, 8.0]),
                               (0, 1, 2, 3))
    assert full[2] == 4.0
    cut = apply_gain_operator(sub, np.array([0.0, 0.0, 0.0]), (0, 1, 2))
    assert cut[2] == 0.0


def test_restrict_never_increases(cycle_graph):
    sub = restrict(cycle_graph, (0,))
    for v in (0.5, 1.0, 3.0):
        out = apply_gain_operator(sub, np.array([v]), (0,))
        assert out[0] == 0.0


def _same_plan(plan, fresh):
    assert plan.window == fresh.window
    assert [(k, j) for k, j, _ in plan.edges] == \
        [(k, j) for k, j, _ in fresh.edges]
    assert all(g is h for (_, _, g), (_, _, h) in zip(plan.edges, fresh.edges))
    assert plan.other == fresh.other
    for name in ("cols", "coeffs", "starts", "targets"):
        mine, theirs = getattr(plan, name), getattr(fresh, name)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    v, w = plan.fixed_point, gains._linear_fixed_point(fresh)
    assert (v is None and w is None) or v.tobytes() == w.tobytes()


@pytest.mark.parametrize("name, subset", [
    ("linear-diffusive-chain", (7, 3, 4, 5, 12)),
    ("nonuniform-discrete-chain", range(2, 40)),
    ("uniform-2-cycle", [2]),
])
def test_a_restricted_graph_keeps_the_subsets_plan(name, subset):
    net, _ = instantiate(name)
    sub = restrict(net.graph, subset)
    labels = sub.index_set.labels
    assert labels == net.graph.index_set.window(subset)
    plan = sub._plan(labels)
    assert plan is net.graph._plan(labels) and sub._plans == {labels: plan}
    _same_plan(plan, gains._WindowPlan(sub, labels))
    # the subgraph is the one it was before it took the plan
    rebuilt = GainGraph(FiniteIndexSet(labels),
                        {(i, j): g for i in labels
                         for j, g in net.graph.row(i).items() if j in labels},
                        {i: net.graph.external_gain(i) for i in labels})
    assert graph_to_json(sub) == graph_to_json(rebuilt)


def test_subnetworks_keep_their_graphs_and_solves():
    net, _ = instantiate("linear-diffusive-chain")
    for subset in ((0, 1, 2), (3, 1, 2, 9), tuple(range(5, 60))):
        sub = subnetwork(net, subset)
        labels = sub.index_set.labels
        assert sub.graph.index_set == sub.index_set
        _same_plan(sub.graph._plan(labels), gains._WindowPlan(sub.graph,
                                                               labels))
        x = np.linspace(0.0, 3.0, len(labels))
        assert np.array_equal(apply_batch(sub.graph, x[None, :], labels)[0],
                              apply_gain_operator(net.graph, x, labels))


# Generators and structure checks ---------------------------------------


def test_generator_backed_window(chain):
    net, _ = chain
    g = net.graph
    assert not g.index_set.finite
    win = g.index_set.window(4)
    assert win == (0, 1, 2, 3)
    report = check_graph(g, r_grid=np.geomspace(0.1, 10.0, 5), window=win)
    assert report.assumption1_finite
    assert report.zero_diagonal


@pytest.mark.parametrize("bad, match", [
    ({3: linear(0.5)}, "diagonal"),
    ({1: linear(0.5)}, "leaves the index set"),
    ({5: expdecay(1.0, 1.0)}, "class-K"),
])
def test_generated_rows_are_checked_like_given_ones(monkeypatch, bad, match):
    # labels start at 2, so label 1 is outside the index set; the valid
    # edge to 4 comes first, so a half-built row would hold it
    def factory(params, start):
        return (lambda i: {4: linear(0.5), **bad}), \
            (lambda i: zero_curve()), zero_curve()

    monkeypatch.setitem(gains._GAIN_GENERATORS, "bad-rows", (factory, {}))
    g = graph_from_json({"index_set": {"kind": "generator",
                                       "name": "bad-rows", "start": 2}})
    with pytest.raises(ValueError, match=match):
        g.row(3)
    with pytest.raises(ValueError, match=match):
        g.row(3)


def test_generated_external_gains_are_checked_and_kept(monkeypatch):
    calls = []

    def external_fn(i):
        calls.append(i)
        return identity() if i < 5 else expdecay(1.0, 1.0)

    monkeypatch.setitem(
        gains._GAIN_GENERATORS, "counted-external",
        (lambda params, start: ((lambda i: {}), external_fn, zero_curve()),
         {}))
    g = graph_from_json({"index_set": {"kind": "generator",
                                       "name": "counted-external"}})
    assert g.external_gain(2) is g.external_gain(2)
    assert calls == [2]
    with pytest.raises(ValueError, match="class-K"):
        g.external_gain(5)


def test_external_gain_checks_its_label_like_row():
    g = graph_from_json({"index_set": {"kind": "generator",
                                       "name": "bidirectional-chain"}})
    assert g.external_gain(0)(2.0) == 2.0
    for lookup in (g.row, g.external_gain):
        with pytest.raises(KeyError, match="index -3 outside the index set"):
            lookup(-3)


def test_a_given_graph_needs_a_finite_index_set():
    with pytest.raises(ValueError, match="needs a finite index set"):
        GainGraph(GeneratorIndexSet(), {(0, 1): linear(0.5)})


@pytest.mark.parametrize("name, params, match", [
    ("bidirectional-chain", {"gain": -0.3}, "needs a >= 0"),
    ("unidirectional-chain", {"theta": -1e-9}, "needs a >= 0"),
    ("unidirectional-chain", {"theta": float("nan")}, "finite number"),
    ("bidirectional-chain", {"gain": float("inf")}, "finite number"),
    ("unidirectional-chain", {"theta": True}, "finite number"),
    ("bidirectional-chain", {"gain": "0.3"}, "finite number"),
    ("bidirectional-chain", {"gain": None}, "finite number"),
], ids=["negative-gain", "negative-theta", "nan", "inf", "bool", "string",
        "null"])
def test_generator_params_must_be_finite_and_nonnegative(name, params, match):
    # a negative or NaN gain used to build a graph with no edges, and true
    # was read as 1.0
    with pytest.raises(ValueError, match=match):
        graph_from_json({"index_set": {"kind": "generator", "name": name,
                                       "params": params}})


def test_generator_params_may_be_zero_or_numpy_numbers():
    g = graph_from_json({"index_set": {"kind": "generator",
                                       "name": "bidirectional-chain",
                                       "params": {"gain": 0}}})
    assert g.row(3) == {}
    g = gains._GeneratedGraph("unidirectional-chain",
                              {"theta": np.float64(0.25)}, np.int64(2))
    assert g.row(2)[3](4.0) == 1.0
    assert g.index_set == GeneratorIndexSet(2)


@pytest.mark.parametrize("params", [{"gian": 0.9}, {"start": 5},
                                    {"gain": 0.3, "theta": 0.5}], ids=str)
def test_unknown_generator_params_are_rejected(params):
    # a misspelled key used to build the default 0.4-gain chain
    with pytest.raises(ValueError, match="unknown parameters"):
        graph_from_json({"index_set": {"kind": "generator",
                                       "name": "bidirectional-chain",
                                       "params": params}})


_LIN = {"kind": "linear", "params": {"a": 0.5}, "class": "Kinf"}


@pytest.mark.parametrize("obj", [
    {"index_set": {"kind": "finite", "labels": [0, 1]},
     "edges": [{"i": 0.7, "j": True, "gain": _LIN}]},
    {"index_set": {"kind": "finite", "labels": [0, 1]},
     "edges": [{"i": 1, "j": 0, "gain": _LIN}, {"i": True, "j": 0, "gain": _LIN}]},
    {"index_set": {"kind": "finite", "labels": [0, 1]},
     "external": [{"i": 1.0, "gain": _LIN}]},
    {"index_set": {"kind": "finite", "n": 2.5}},
    {"index_set": {"kind": "finite", "n": True}},
    {"index_set": {"kind": "generator", "name": "bidirectional-chain",
                   "start": 1.5}},
], ids=["edge", "edge-bool", "external", "n", "n-bool", "start"])
def test_graph_json_labels_must_be_integers(obj):
    # int() used to turn the edge {"i": 0.7, "j": true} into (0, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        graph_from_json(obj)


@pytest.mark.parametrize("obj, match", [
    ({"index_set": {"kind": "finite", "labels": [0, 1]},
      "edges": [{"i": 0, "j": 1, "gain": _LIN},
                {"i": 0, "j": 1, "gain": {**_LIN, "params": {"a": 3.0}}}]},
     r"edge \(0, 1\) is given twice"),
    ({"index_set": {"kind": "finite", "labels": [0, 1]},
      "external": [{"i": 1, "gain": _LIN}, {"i": 1, "gain": _LIN}]},
     "external gain of 1 is given twice"),
], ids=["edge", "external"])
def test_graph_json_labels_must_not_repeat(obj, match):
    # the last of the repeated edges used to win: row(0) == {1: linear(3.0)}
    with pytest.raises(ValueError, match=match):
        graph_from_json(obj)


def test_only_integers_are_members_of_an_index_set():
    assert 0.7 not in GeneratorIndexSet()
    assert True not in FiniteIndexSet((0, 1))
    assert 1.0 not in FiniteIndexSet((0, 1))
    assert np.int64(1) in FiniteIndexSet((0, 1))
    assert 2 not in FiniteIndexSet((0, 1))
    chain = GeneratorIndexSet(start=3)
    assert True not in chain and 3.0 not in chain and 2 not in chain
    assert np.int64(3) in chain and 10**20 in chain
    with pytest.raises(KeyError):
        graph_from_json({"index_set": {"kind": "generator",
                                       "name": "bidirectional-chain"}}).row(0.7)


def test_check_graph_window_coverage_is_flagged():
    g = _graph({(0, 1): power(1.0, 2.0), (1, 0): linear(0.5)}, labels=(0, 1))
    report = check_graph(g, r_grid=np.geomspace(0.1, 1e3, 7))
    assert report.assumption1_finite          # finite window: sup is a max
    assert not report.window_only


# The compiled plan ------------------------------------------------------


def test_plan_edges_follow_the_walk_order():
    # row positions ascend, each row in its own order, whatever the kind
    g = _graph({(2, 0): power(0.5, 2.0), (2, 1): linear(0.5),
                (0, 2): linear(0.25), (1, 2): power(0.1, 1.5)},
               labels=(0, 1, 2))
    plan = g._plan((2, 0, 1))
    assert [(k, j) for k, j, _ in plan.edges] == [(0, 1), (0, 2), (1, 0),
                                                  (2, 0)]
    assert [e[2] for e in plan.edges] == [g.row(2)[0], g.row(2)[1],
                                          g.row(0)[2], g.row(1)[2]]
    assert [(k, j) for k, j, _ in plan.other] == [(0, 1), (2, 0)]


@pytest.mark.parametrize("name, sizes, norm", [
    ("linear-diffusive-chain", (10, 100, 1000), 5.0 / 3.0),
    ("nonuniform-discrete-chain", (100, 1000), 2.0),
])
def test_exact_fixed_point_norm_on_catalog_chains(name, sizes, norm):
    net, _ = instantiate(name)
    for size in sizes:
        v = net.graph._plan(net.graph.index_set.window(size)).fixed_point
        assert float(np.max(v)) == pytest.approx(norm, rel=1e-12), size


@pytest.mark.parametrize("name, value", [
    ("_policy_values", lambda succ, gain: np.full(len(succ), 5.0)),
    ("_POLICY_ROUNDS", 0),
])
def test_a_failed_solve_falls_back_to_the_iteration(monkeypatch, name, value):
    # a wrong policy value fails the fixed-point check; no rounds hit the cap
    radii = np.geomspace(1e-2, 1e2, 24)
    graph = _graph({(0, 1): linear(0.5), (1, 2): linear(0.7),
                    (2, 0): linear(1.2)}, labels=(0, 1, 2))
    window = (0, 1, 2)
    want = _iterated_directions(graph, window, radii)
    monkeypatch.setattr(gains, name, value)
    assert graph._plan(window).fixed_point is None
    got = _directions(graph, window, radii)[1:]
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert got[0].shape == (len(radii), 3)


def test_the_fixed_point_is_solved_once_and_kept(monkeypatch):
    calls = []

    def counted(plan):
        calls.append(plan.window)
        return solve(plan)

    solve = gains._linear_fixed_point
    monkeypatch.setattr(gains, "_linear_fixed_point", counted)
    g = _graph({(0, 1): linear(0.5), (1, 0): linear(0.5)}, labels=(0, 1))
    v = g._plan((0, 1)).fixed_point
    assert np.array_equal(v, [2.0, 2.0]) and not v.flags.writeable
    assert g._plan([0, 1]).fixed_point is v
    nonlinear = _graph({(0, 1): power(0.5, 2.0)}, labels=(0, 1))
    assert nonlinear._plan((0, 1)).fixed_point is None
    assert nonlinear._plan((0, 1)).fixed_point is None
    assert calls == [(0, 1), (0, 1)]


def _numpy_fixed_point(plan):
    """The numpy policy iteration that solved v*(1) before the solve read
    Python floats from plan.edges: the reference, bit for bit.  It rebuilds
    the linear arrays the way plans did then, with each edge's segment, and
    returns (v or None, the step that ended the solve)."""
    if plan.other:
        return None, "nonlinear"
    rows = np.array([k for k, _, _ in plan.edges], dtype=np.intp)
    cols = np.array([j for _, j, _ in plan.edges], dtype=np.intp)
    coeffs = np.array([g.params["a"] for _, _, g in plan.edges], dtype=float)
    first = np.diff(rows, prepend=-1) != 0
    starts = np.flatnonzero(first)
    segment = np.cumsum(first) - 1
    targets = rows[starts]
    for mine, theirs in ((cols, plan.cols), (coeffs, plan.coeffs),
                         (starts, plan.starts), (targets, plan.targets)):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)

    def segment_argmax(vals):
        best = np.maximum.reduceat(vals, starts)
        hits = np.where(vals == best[segment], np.arange(vals.size), vals.size)
        return np.minimum.reduceat(hits, starts)

    succ = np.full(len(plan.window), -1)
    gain = np.zeros(len(plan.window))
    choice = segment_argmax(coeffs)
    for _ in range(gains._POLICY_ROUNDS):
        succ[targets] = cols[choice]
        gain[targets] = coeffs[choice]
        v = gains._policy_values(succ.tolist(), gain.tolist())
        if v is None:
            return None, "values"
        v = np.array(v)
        with np.errstate(over="ignore"):
            cand = coeffs * v[cols]
        if not np.all(np.isfinite(cand)):
            return None, "products"
        best = segment_argmax(cand)
        better = cand[best] - cand[choice] > 1e-12 * cand[choice]
        if not better.any():
            break
        choice = np.where(better, best, choice)
    else:
        return None, "rounds"
    nxt = plan.apply(v[None, :]) + 1.0
    if not gains._settled(nxt, v[None, :], np.max(nxt, axis=1))[0]:
        return None, "unsettled"
    return v, "solved"


def _same_solve(plan, monkeypatch):
    """The plan's v*(1) has the reference's bits, or both are None, after
    the same policies in the same rounds; the step that ended the
    reference's solve."""
    values = gains._policy_values

    def recorded(seen):
        def policy_values(succ, gain):
            seen.append((list(succ), list(gain)))
            return values(succ, gain)
        return policy_values

    theirs, mine = [], []
    monkeypatch.setattr(gains, "_policy_values", recorded(theirs))
    want, why = _numpy_fixed_point(plan)
    monkeypatch.setattr(gains, "_policy_values", recorded(mine))
    got = gains._linear_fixed_point(plan)
    monkeypatch.setattr(gains, "_policy_values", values)
    assert mine == theirs
    if want is None or got is None:
        assert want is None and got is None, plan.window
    else:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return why


def _oracle_graph(rng):
    """A linear graph on 2-11 nodes in one of four families: tied
    coefficients, contracting rows, coefficients up to 1e160 on an acyclic
    graph, whose values and products overflow, and coefficients around 1
    that close cycles of gain >= 1."""
    n = int(rng.integers(2, 12))
    family = int(rng.integers(4))
    draw = [lambda: float(rng.choice([0.125, 0.25, 0.5])),
            lambda: float(rng.uniform(0.05, 0.9)),
            lambda: float(10.0 ** rng.uniform(-1.0, 160.0)),
            lambda: float(rng.uniform(0.5, 1.5))][family]
    coeffs = {(i, j): linear(draw()) for i in range(n) for j in range(n)
              if (i < j if family == 2 else i != j) and rng.random() < 0.45}
    return family, _graph(coeffs or {(0, 1): linear(0.5)}, labels=range(n))


def test_the_fixed_point_keeps_the_bits_of_the_numpy_solve(monkeypatch):
    # windows are permuted, so a row's edges follow its own order
    rng = np.random.default_rng(0)
    ends, tied = collections.Counter(), 0
    for _ in range(3000):
        family, graph = _oracle_graph(rng)
        n = len(graph.index_set.labels)
        plan = graph._plan(tuple(int(i) for i in rng.permutation(n)))
        ends[family, _same_solve(plan, monkeypatch)] += 1
        tied += any(len(r) > len(set(g.params["a"] for g in r.values()))
                    for r in graph.rows.values())
    # every family solves some windows; huge coefficients overflow a
    # product or a policy value, and cycles of gain >= 1 have no values
    assert all(ends[family, "solved"] > 100 for family in range(4))
    assert ends[2, "products"] > 40 and ends[2, "values"] > 100
    assert ends[3, "values"] > 300
    assert tied > 400


@pytest.mark.parametrize("name", ["counterexample-chain",
                                  "nonuniform-discrete-chain",
                                  "linear-diffusive-chain"])
def test_catalog_fixed_points_keep_the_bits_of_the_numpy_solve(name,
                                                              monkeypatch):
    net, _ = instantiate(name)
    for size in (10, 100, 1000):
        plan = net.graph._plan(net.graph.index_set.window(size))
        assert _same_solve(plan, monkeypatch) == "solved"


@pytest.mark.parametrize("entries", [
    {(0, 1): 1e200, (1, 2): 1e200},                  # a policy value
    {(0, 1): 1e200, (2, 3): 1e200, (2, 0): 1e190},   # an edge product
], ids=["value", "product"])
def test_an_overflowing_fixed_point_is_no_solve(entries):
    # the solve used to hand an infinite v to apply_batch, which raised
    g = _graph({k: linear(a) for k, a in entries.items()}, labels=(0, 1, 2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g._plan((0, 1, 2, 3)).fixed_point is None


# Serialization ----------------------------------------------------------


def test_graph_json_round_trip(cycle_graph):
    back = graph_from_json(graph_to_json(cycle_graph))
    x = np.array([1.5, 2.5])
    assert np.allclose(apply_gain_operator(back, x, (0, 1)),
                       apply_gain_operator(cycle_graph, x, (0, 1)))


@pytest.mark.parametrize("name", ["counterexample-chain",
                                  "nonuniform-discrete-chain",
                                  "linear-diffusive-chain"])
def test_generator_graph_json_round_trip(name):
    # the catalog builds these graphs from the same registered generators
    # that graph_from_json rebuilds them with
    net, _ = instantiate(name)
    back = graph_from_json(graph_to_json(net.graph))
    # an index set is its labels: the graph's, the network's and the copy's
    assert back.index_set == net.index_set == net.graph.index_set
    win = net.window(5)
    x = np.linspace(0.0, 4.0, 5)
    assert np.array_equal(apply_gain_operator(back, x, win),
                          apply_gain_operator(net.graph, x, win))
    assert graph_to_json(back, win) == graph_to_json(net.graph, win)


def test_check_grid_is_the_geometric_13_point_grid():
    assert np.array_equal(CHECK_GRID, np.geomspace(1e-3, 1e3, 13))
