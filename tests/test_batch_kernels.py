"""The batched fast paths against their per-row references, bit for bit.

apply_batch runs a compiled per-window plan and _extremal_directions steps
all radii as one batch; both must reproduce the one-vector-at-a-time
reference exactly, so every comparison here is np.array_equal.
"""

import functools

import numpy as np
import pytest

from issnet import smallgain
from issnet.comparison import compose, linear, power, pwl, saturating
from issnet.gains import (FiniteIndexSet, GainGraph, apply_batch,
                          apply_gain_operator)
from issnet.smallgain import _extremal_directions, estimate_uniform_sgc

RADII = np.geomspace(1e-2, 1e2, 24)

CURVES = {
    "linear": linear(0.6),
    "power": power(0.8, 1.7),
    "saturating": saturating(1.3),
    "pwl": pwl([(0.0, 0.0), (0.5, 0.2), (2.0, 1.1), (5.0, 1.4)], "Kinf"),
    "compose": compose(power(0.9, 1.3), saturating(1.5)),
}


def _per_radius_directions(graph, window, radii, max_iter=500):
    """One radius at a time with the reference operator: the loop that the
    batched iteration replaces, kept verbatim as its oracle."""
    n = len(window)
    out = []
    unconverged = 0
    for r in radii:
        w = np.full(n, float(r))
        v = w.copy()
        converged = False
        for _ in range(max_iter):
            nxt = apply_gain_operator(graph, v, window) + w
            if float(np.max(nxt)) > 1e9 * r:
                v = None
                break
            if float(np.max(np.abs(nxt - v))) <= 1e-13 * max(1.0, float(np.max(nxt))):
                v = nxt
                converged = True
                break
            v = nxt
        if v is None:
            continue
        unconverged += not converged
        peak = float(np.max(v))
        if peak > 0.0:
            out.append(v / peak)
    dirs = np.array(out) if out else np.empty((0, n))
    return dirs, unconverged


def _graph(entries, n):
    return GainGraph(FiniteIndexSet(tuple(range(n))), entries=entries)


def _random_graph(seed, kinds=tuple(CURVES)):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    entries = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                kind = kinds[int(rng.integers(len(kinds)))]
                scale = float(rng.uniform(0.2, 1.2))
                entries[(i, j)] = compose(linear(scale), CURVES[kind])
    entries.setdefault((0, 1), CURVES["linear"])
    return _graph(entries, n), tuple(range(n))


def _assert_rowwise(graph, window, batch):
    got = apply_batch(graph, batch, window)
    want = np.array([apply_gain_operator(graph, row, window) for row in batch])
    assert np.array_equal(got, want)


# apply_batch against apply_gain_operator ------------------------------


@pytest.mark.parametrize("kind", sorted(CURVES))
def test_apply_batch_is_bitwise_rowwise(kind):
    g = CURVES[kind]
    graph = _graph({(0, 1): g, (1, 2): g, (2, 0): g, (0, 2): g,
                    (3, 0): g, (3, 2): linear(0.3)}, 4)
    batch = np.random.default_rng(1).random((40, 4)) * 7.0
    batch[0] = 0.0
    _assert_rowwise(graph, (0, 1, 2, 3), batch)


@pytest.mark.parametrize("seed", range(6))
def test_apply_batch_is_bitwise_rowwise_on_mixed_graphs(seed):
    graph, window = _random_graph(seed)
    batch = np.random.default_rng(seed).random((30, len(window))) * 50.0
    _assert_rowwise(graph, window, batch)


def test_apply_batch_is_bitwise_rowwise_on_a_generated_window(chain, diffusive):
    for net, _ in (chain, diffusive):
        window = net.graph.index_set.window(40)
        batch = np.random.default_rng(2).random((25, 40)) * 3.0
        _assert_rowwise(net.graph, window, batch)


def test_apply_batch_on_a_subwindow_drops_outside_edges():
    graph = _graph({(0, 1): linear(0.5), (1, 2): power(2.0, 2.0),
                    (2, 0): saturating(1.0)}, 3)
    batch = np.array([[1.0, 2.0], [0.0, 4.0]])
    _assert_rowwise(graph, (0, 1), batch)
    assert np.array_equal(apply_batch(graph, batch, (0, 1))[:, 1], [0.0, 0.0])


def test_apply_batch_rejects_non_finite_entries():
    graph = _graph({(0, 1): linear(0.5), (1, 0): linear(0.5)}, 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            apply_batch(graph, np.array([[1.0, 1.0], [bad, 0.0]]), (0, 1))
    with pytest.raises(ValueError):
        apply_batch(graph, np.array([[1.0, -1.0]]), (0, 1))


# batched extremal directions against the per-radius loop --------------


def _assert_directions_match(graph, window, radii=RADII, max_iter=500):
    got = _extremal_directions(graph, window, radii, max_iter=max_iter)
    want = _per_radius_directions(graph, window, radii, max_iter=max_iter)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    return got


@pytest.mark.parametrize("seed", range(8))
def test_extremal_directions_match_per_radius_loop(seed):
    kinds = ("linear",) if seed % 2 else tuple(CURVES)
    graph, window = _random_graph(seed, kinds)
    _assert_directions_match(graph, window)


def test_extremal_directions_exhausting_the_budget():
    # cycle gain 0.998: the iterate keeps moving after a handful of steps
    graph = _graph({(0, 1): linear(0.999), (1, 0): linear(0.999)}, 2)
    dirs, unconverged = _assert_directions_match(graph, (0, 1), max_iter=5)
    assert unconverged == len(RADII)
    assert dirs.shape == (len(RADII), 2)


def test_extremal_directions_blow_up_guard_drops_rows():
    # v = v^2 + r has a fixed point only for r <= 1/4; larger radii blow up
    # while the small ones converge, so the batch loses rows midway
    sq = power(1.0, 2.0)
    graph = _graph({(0, 1): sq, (1, 0): sq, (2, 0): linear(0.5)}, 3)
    dirs, unconverged = _assert_directions_match(graph, (0, 1, 2))
    assert 0 < dirs.shape[0] < len(RADII)
    assert unconverged == 0


def test_extremal_directions_all_rows_blow_up():
    graph = _graph({(0, 1): linear(2.0), (1, 0): linear(2.0)}, 2)
    dirs, unconverged = _assert_directions_match(graph, (0, 1))
    assert dirs.shape == (0, 2)
    assert unconverged == 0


# unconverged fixed points surface in the report -----------------------


def test_estimate_reports_unconverged_radii(two_cycle, monkeypatch):
    net, _ = two_cycle
    assert estimate_uniform_sgc(net.graph, (1, 2), seed=0).unconverged == 0
    slow = _graph({(0, 1): linear(0.9), (1, 0): linear(0.9)}, 2)
    monkeypatch.setattr(smallgain, "_extremal_directions",
                        functools.partial(_extremal_directions, max_iter=3))
    sgc = estimate_uniform_sgc(slow, (0, 1), seed=0)
    assert sgc.unconverged == len(sgc.radii)
    assert f"{len(sgc.radii)} of {len(sgc.radii)} extremal" in sgc.summary()
