"""Benchmark entries, their oracles, and network JSON loading."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from issnet.catalog import entries, instantiate, network_from_json, parse_ref
from issnet.comparison import linear
from issnet.gains import FiniteIndexSet, GainGraph, graph_to_json, restrict
from issnet.network import simulate
from issnet.systems import InputSignal


EXPECTED = {
    "counterexample-chain",
    "uniform-2-cycle",
    "nonuniform-discrete-chain",
    "linear-diffusive-chain",
}


def test_entry_listing():
    table = entries()
    assert set(table) == EXPECTED
    for name, entry in table.items():
        assert entry.name == name
        assert entry.description
    # the listing is a copy, not the registry itself
    table.clear()
    assert set(entries()) == EXPECTED


def test_instantiate_rejects_unknown_names_and_params():
    with pytest.raises(ValueError, match="unknown catalog entry"):
        instantiate("no-such-entry")
    with pytest.raises(ValueError, match="unknown parameters"):
        instantiate("uniform-2-cycle", {"bogus": 1.0})
    with pytest.raises(ValueError):
        instantiate("nonuniform-discrete-chain", {"theta": 1.5})
    with pytest.raises(ValueError):
        instantiate("linear-diffusive-chain", {"eps": 0.6})


@pytest.mark.parametrize("value", [True, "0.3", None, float("nan")], ids=str)
def test_instantiate_params_must_be_finite_numbers(value):
    # float() used to read true as 1.0 and "0.3" as 0.3
    with pytest.raises(ValueError, match="'a' of uniform-2-cycle must be a "
                                         "finite number"):
        instantiate("uniform-2-cycle", {"a": value})


def test_instantiate_applies_overrides():
    net, oracle = instantiate("uniform-2-cycle", {"a": 0.25, "c": 0.25})
    traj = simulate(net, (1, 2), np.ones(2), InputSignal.zero(), 1)
    assert traj.states[-1, 0] == 0.25
    # gain c/(1-a) and its norm bound follow the parameters
    assert net.graph.row(1)[2](1.0) == pytest.approx(1.0 / 3.0)
    assert oracle.xi(1.0) == pytest.approx(1.5)


def test_parse_ref():
    assert parse_ref("catalog:uniform-2-cycle") == ("uniform-2-cycle", {})
    name, params = parse_ref("catalog:uniform-2-cycle?a=0.3&c=0.1")
    assert name == "uniform-2-cycle"
    assert params == {"a": 0.3, "c": 0.1}
    with pytest.raises(ValueError):
        parse_ref("uniform-2-cycle")
    with pytest.raises(ValueError):
        parse_ref("catalog:x?a")


# Oracle cross-checks ----------------------------------------------------


def test_counterexample_oracle_matches_integration(counterexample):
    net, oracle = counterexample
    window = net.window(5)
    traj = simulate(net, window, np.ones(5), InputSignal.zero(), 2.0, dt=1e-3)
    for k in (0, 500, 2000):
        t = traj.times[k]
        for c, i in enumerate(window):
            assert traj.states[k, c] == pytest.approx(
                oracle.component_value(i, t, 1.0), abs=1e-8)
    assert oracle.any_input
    assert np.all(oracle.steady_state(window, 1.0) == 0.0)


def test_two_cycle_oracle_component_values(two_cycle):
    net, oracle = two_cycle
    traj = simulate(net, (1, 2), np.ones(2), InputSignal.zero(), 12)
    for k in range(13):
        assert traj.states[k, 0] == oracle.component_value(1, k, 1.0)
    assert oracle.gain_slack == 2.0


# the decoupled closed forms exist only at theta = 0 and eps = 0
@pytest.mark.parametrize("name, params, horizon, dt, atol", [
    ("nonuniform-discrete-chain", {"theta": 0.0}, 30, None, 1e-15),
    ("linear-diffusive-chain", {"eps": 0.0}, 3.0, 1e-2, 1e-10),
])
def test_decoupled_chain_oracle_component_values(name, params, horizon, dt,
                                                 atol):
    net, oracle = instantiate(name, params)
    window = net.window(5)
    x0 = np.linspace(-1.0, 1.0, 5)
    traj = simulate(net, window, x0, InputSignal.zero(), horizon, dt=dt)
    for c, i in enumerate(window):
        want = [oracle.component_value(i, t, x0[c]) for t in traj.times]
        np.testing.assert_allclose(traj.states[:, c], want, rtol=0.0,
                                   atol=atol)


def test_chain_steady_state_oracle(chain):
    net, oracle = chain
    window = net.window(6)
    traj = simulate(net, window, np.zeros(6), InputSignal.constant(1.0), 400)
    assert np.allclose(traj.states[-1],
                       oracle.steady_state(window, 1.0), atol=1e-12)


def test_chain_linear_matrix_matches_stepping(chain):
    net, oracle = chain
    window = net.window(5)
    A, B = oracle.linear_matrix(window)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 5)
    traj = simulate(net, window, x.copy(), InputSignal.constant(0.3), 10)
    for _ in range(10):
        x = A @ x + B @ np.full(5, 0.3)
    assert np.allclose(traj.states[-1], x, atol=1e-14)


def test_diffusive_matches_matrix_exponential(diffusive):
    net, oracle = diffusive
    window = net.window(8)
    A, _B = oracle.linear_matrix(window)
    x0 = np.linspace(-1.0, 1.0, 8)
    traj = simulate(net, window, x0, InputSignal.zero(), 1.0, dt=1e-3)
    exact = scipy.linalg.expm(A * traj.times[-1]) @ x0
    assert np.allclose(traj.states[-1], exact, atol=1e-9)


def test_oracle_norm_bound_curves(two_cycle, chain, diffusive):
    for (net, oracle), slope in ((two_cycle, 2.0), (chain, 2.0),
                                 (diffusive, 1.0 / 0.6)):
        assert oracle.xi(1.0) == pytest.approx(slope)
        assert oracle.sigma(3.0) == 3.0


# Network JSON loading ---------------------------------------------------


def _toy_obj():
    return {
        "name": "toy-pair",
        "time_domain": {"kind": "discrete"},
        "index_set": {"kind": "finite", "labels": [0, 1]},
        "subsystems": [
            {"i": 0, "expr": "0.5*x + 0.25*w[0] + u", "neighbors": [1]},
            {"i": 1, "expr": "0.5*x"},
        ],
    }


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fast_maps_take_batched_arrays(name):
    # the (..., n) contract: a 2-D (members, window) call equals the
    # row-by-row 1-D calls bitwise, for vector inputs and for a scalar
    # input column broadcast along the window; w is the (..., n, d)
    # neighbor block, d the window's largest neighbor count
    net, _ = instantiate(name)
    window = net.window() if name == "uniform-2-cycle" else net.window(6)
    n = len(window)
    d = max(len(net.subsystem_fn(i).neighbors) for i in window)
    f = net.fast_factory(window)
    rng = np.random.default_rng(1)
    x = rng.uniform(-2.0, 2.0, (5, n))
    w = rng.uniform(-2.0, 2.0, (5, n, d))
    u = rng.uniform(-1.0, 1.0, (5, n))
    c = rng.uniform(-1.0, 1.0, (5, 1))
    assert np.array_equal(f(x, w, u),
                          np.stack([f(x[j], w[j], u[j]) for j in range(5)]))
    assert np.array_equal(f(x, w, c),
                          np.stack([f(x[j], w[j], np.full(n, c[j, 0]))
                                    for j in range(5)]))


# a window per entry that cuts the network, in the middle and at the end
CUT_WINDOWS = {
    "counterexample-chain": (1, 2, 4, 5, 9),
    "uniform-2-cycle": (2,),
    "nonuniform-discrete-chain": (0, 1, 3, 4, 8),
    "linear-diffusive-chain": (0, 1, 3, 4, 8),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_gain_graph_agrees_with_the_neighbor_lists(name):
    # the two places that encode a network's coupling: each label's gain
    # row names exactly its neighbors, inside the window and out of it
    net, _ = instantiate(name)
    window = net.window(CUT_WINDOWS[name])
    sub = restrict(net.graph, window)
    for i in window:
        neighbors = set(net.subsystem_fn(i).neighbors)
        assert set(net.graph.row(i)) == neighbors
        assert set(sub.row(i)) == neighbors & set(window)


def test_network_from_json_explicit():
    net, oracle = network_from_json(_toy_obj())
    assert oracle is None
    assert net.window() == (0, 1)
    traj = simulate(net, (0, 1), np.array([1.0, 1.0]),
                    InputSignal.constant(0.125), 2)
    # x0' = 0.5 x0 + 0.25 x1 + u, x1' = 0.5 x1, stepped by hand
    assert traj.states[1, 0] == 0.875
    assert traj.states[1, 1] == 0.5
    assert traj.states[2, 0] == 0.6875


def test_network_from_json_catalog_ref():
    net, oracle = network_from_json({"catalog": "uniform-2-cycle",
                                     "params": {"a": 0.25}})
    assert net.name == "uniform-2-cycle"
    assert oracle is not None


def _toy_graph(labels=(0, 1)) -> dict:
    """Graph JSON of the toy network's coupling 0 <- 1 on ``labels``."""
    return graph_to_json(GainGraph(FiniteIndexSet(labels),
                                   {(0, 1): linear(0.5)}))


def test_network_from_json_carries_gain_graph():
    obj = _toy_obj()
    obj["gain_graph"] = _toy_graph()
    net, _ = network_from_json(obj)
    assert net.graph is not None
    assert net.graph.index_set == net.index_set
    assert net.graph.row(0)[1](1.0) == pytest.approx(0.5)


def test_network_from_json_validation():
    obj = _toy_obj()
    obj["index_set"] = {"kind": "generator", "start": 0}
    with pytest.raises(ValueError, match="finite"):
        network_from_json(obj)
    obj = _toy_obj()
    obj["index_set"]["labels"] = [0, 1, 2]
    with pytest.raises(ValueError, match="no subsystem"):
        network_from_json(obj)


@pytest.mark.parametrize("field, value", [
    ("i", 1.2), ("i", True), ("neighbors", [1.9]), ("neighbors", [True]),
], ids=str)
def test_network_json_labels_must_be_integers(field, value):
    # int() used to turn subsystem 1.2 with neighbor 1.9 into label 1
    obj = _toy_obj()
    obj["subsystems"][0][field] = value
    with pytest.raises(ValueError, match="must be an integer"):
        network_from_json(obj)


@pytest.mark.parametrize("change, match", [
    ({"subsystems": [{"i": 0, "expr": "0.5*x"}, {"i": 1, "expr": "0.5*x"},
                     {"i": 5, "expr": "0.5*x"}]},
     r"subsystems \[5\] outside the index set"),
    ({"gain_graph": _toy_graph((0, 1, 2))}, "another index set"),
    ({"gain_graph": _toy_graph((1, 0))}, "another index set"),
    ({"gain_graph": {"index_set": {"kind": "generator",
                                   "name": "decoupled"}}},
     "another index set"),
], ids=["stray-subsystem", "larger-graph", "reordered-graph",
        "generated-graph"])
def test_network_json_parts_share_the_index_set(change, match):
    # labels [0, 1] with subsystems 0, 1 and 5 used to load as a two-node
    # network, and a graph on labels [0, 1, 2] used to be accepted
    obj = {**_toy_obj(), **change}
    with pytest.raises(ValueError, match=match):
        network_from_json(obj)


def test_network_json_subsystem_labels_must_not_repeat():
    # the second subsystem 0 used to replace the first
    obj = _toy_obj()
    obj["subsystems"].append({"i": 0, "expr": "0.1*x"})
    with pytest.raises(ValueError, match="subsystem 0 is given twice"):
        network_from_json(obj)


@pytest.mark.parametrize("neighbors, match", [
    ([0], "subsystem 0 lists itself"),
    ([1, 7], "neighbor 7 of 0 leaves the index set"),
    ([-1], "neighbor -1 of 0 leaves the index set"),
], ids=["self", "outside", "below"])
def test_network_json_neighbors_are_other_labels_of_the_index_set(neighbors,
                                                                  match):
    # [1, 7] on subsystem 0 of labels [0, 1] used to load as (1, 7)
    obj = _toy_obj()
    obj["subsystems"][0]["neighbors"] = neighbors
    with pytest.raises(ValueError, match=match):
        network_from_json(obj)


def test_expression_whitelist_blocks_escapes():
    for expr in ("__import__('os').system('true')",
                 "open('/etc/passwd')",
                 "x.__class__",
                 "globals()"):
        obj = _toy_obj()
        obj["subsystems"][1]["expr"] = expr
        with pytest.raises(ValueError, match="disallowed name"):
            network_from_json(obj)
    # the whitelist covers the whole syntax tree, not just top-level names
    for expr in ("(lambda: (2.0).__abs__())() * x",
                 "(2.0).__abs__() * x",
                 "[x for x in w][0] * x"):
        obj = _toy_obj()
        obj["subsystems"][1]["expr"] = expr
        with pytest.raises(ValueError, match="disallowed"):
            network_from_json(obj)


@pytest.mark.parametrize("expr, neighbors", [
    ("0.5*x + 0.1*w[3]", [1]),
    ("0.5*x + 0.1*w[1]", [1]),
    ("0.5*x + w[0]", []),
    ("0.5*x + 0.1*w", [1, 2]),
    ("0.5*x + w[0] + 0.1*w", [1]),
], ids=str)
def test_expression_uses_w_only_below_its_neighbor_count(expr, neighbors):
    # each used to load, then fail while stepping
    obj = _toy_obj()
    obj["index_set"]["labels"] = [0, 1, 2]
    obj["subsystems"] = [{"i": 0, "expr": expr, "neighbors": neighbors},
                         {"i": 1, "expr": "0.5*x"}, {"i": 2, "expr": "0.5*x"}]
    with pytest.raises(ValueError, match=r"w only as w\[k\] with 0 <= k < "
                                         f"{len(neighbors)},"):
        network_from_json(obj)


def test_expression_math_helpers_work():
    obj = _toy_obj()
    obj["subsystems"][1]["expr"] = "0.5*tanh(x) + max(u, 0)"
    net, _ = network_from_json(obj)
    traj = simulate(net, (0, 1), np.ones(2), InputSignal.zero(), 1)
    assert traj.states[1, 1] == pytest.approx(0.5 * np.tanh(1.0))


@pytest.mark.parametrize("expr", [
    "1/x + log(u)",                  # inf and -inf at 0 are values
    "0.5*x + sqrt(w[0] - 1)",        # nan at 0 is a value too
    "x if x < 1 else 1/0",           # fails only on states zero never takes
], ids=str)
def test_an_expression_legal_at_zero_still_loads(expr):
    obj = _toy_obj()
    obj["subsystems"][0]["expr"] = expr
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the load check warns of nothing
        net, _ = network_from_json(obj)
    assert net.subsystem_fn(0).expression == expr
