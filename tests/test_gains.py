"""Gain graphs and the max-type coupling operator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from issnet.comparison import linear, power, zero_curve
from issnet.gains import (
    FiniteIndexSet,
    GainGraph,
    GeneratorIndexSet,
    NonnegSequence,
    apply_batch,
    apply_gain_operator,
    check_graph,
    graph_from_json,
    graph_to_json,
    iterate,
    restrict,
)


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


def test_row_lookup(cycle_graph):
    row = cycle_graph.row(0)
    assert set(row) == {1}
    assert row[1](2.0) == 1.0
    with pytest.raises(KeyError):
        cycle_graph.row(7)


def test_nonneg_sequence_validation():
    with pytest.raises(ValueError):
        NonnegSequence((0, 1), np.array([1.0, -0.5]))
    s = NonnegSequence((3, 4), np.array([1.0, 2.0]))
    assert s.sup_norm == 2.0
    assert s[3] == 1.0
    assert s[99] == 0.0        # outside the window the tail is zero


# Operator ---------------------------------------------------------------


def test_apply_on_two_cycle(cycle_graph):
    out = apply_gain_operator(cycle_graph, np.array([1.0, 2.0]), (0, 1))
    assert np.allclose(out, [1.0, 0.5])
    assert isinstance(out, np.ndarray)


def test_apply_preserves_sequence_flavor(cycle_graph):
    s = NonnegSequence((0, 1), np.array([1.0, 2.0]))
    out = apply_gain_operator(cycle_graph, s)
    assert isinstance(out, NonnegSequence)
    assert out.indices == (0, 1)
    assert np.allclose(out.values, [1.0, 0.5])


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


def test_check_graph_window_coverage_is_flagged():
    g = _graph({(0, 1): power(1.0, 2.0), (1, 0): linear(0.5)}, labels=(0, 1))
    report = check_graph(g, r_grid=np.geomspace(0.1, 1e3, 7))
    assert report.assumption1_finite          # finite window: sup is a max
    assert not report.window_only
    # a generated graph with no closed-form bound only certifies the window
    g2 = GainGraph(GeneratorIndexSet(),
                   row_fn=lambda i: {i + 1: linear(float(i + 1))},
                   external_fn=lambda i: zero_curve())
    report2 = check_graph(g2, r_grid=np.geomspace(0.1, 10.0, 5),
                          window=g2.index_set.window(6))
    assert report2.window_only
    assert "window" in report2.notes


# Serialization ----------------------------------------------------------


def test_graph_json_round_trip(cycle_graph):
    back = graph_from_json(graph_to_json(cycle_graph))
    x = np.array([1.5, 2.5])
    assert np.allclose(apply_gain_operator(back, x, (0, 1)),
                       apply_gain_operator(cycle_graph, x, (0, 1)))


def test_generator_graph_json_round_trip(chain):
    net, _ = chain
    back = graph_from_json(graph_to_json(net.graph))
    win = (0, 1, 2, 3, 4)
    x = np.linspace(0.0, 4.0, 5)
    assert np.allclose(apply_gain_operator(back, x, win),
                       apply_gain_operator(net.graph, x, win))
