"""Small-gain estimation, falsification, and cycle screening."""

import os
import subprocess
import sys
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from issnet import gains, smallgain
from issnet._rng import derived_rng
from issnet.comparison import compose, linear, power, pwl, saturating
from issnet.gains import CHECK_GRID, FiniteIndexSet, GainGraph, apply_batch
from issnet.network import subnetwork
from issnet.smallgain import (
    CycleReport,
    _directions,
    _iterated_directions,
    _revalidate,
    dist_to_cone,
    estimate_uniform_sgc,
    falsify_mbi,
    finite_cycle_check,
    invert_k_curve,
    operator_deficit,
)


def _linear_graph(coeffs, labels):
    entries = {(i, j): linear(c) for (i, j), c in coeffs.items()}
    return GainGraph(FiniteIndexSet(tuple(labels)), entries=entries)


def exact_eta_two_node(a: float, b: float):
    """Closed-form uniform deficit for two nodes with linear mutual gains.

    With Gamma(x) = (a x2, b x1) the minimum deficit over the positive
    sphere of radius r is r (1 - a b) / (1 + max(a, b)); positive exactly
    when a b < 1.
    """
    if a < 0 or b < 0:
        raise ValueError("gains must be nonnegative")
    if a * b >= 1:
        raise ValueError("closed form needs a b < 1")
    return linear((1.0 - a * b) / (1.0 + max(a, b)))


# Deficits ---------------------------------------------------------------


def test_dist_to_cone():
    assert dist_to_cone(np.array([1.0, 2.0])) == 0.0
    assert dist_to_cone(np.array([1.0, -3.0])) == 3.0
    assert dist_to_cone(np.array([])) == 0.0


def test_operator_deficit_two_cycle(two_cycle):
    net, _ = two_cycle
    # at the all-ones pattern each component contracts by exactly half
    d = operator_deficit(net.graph, np.array([1.0, 1.0]), (1, 2))
    assert d == pytest.approx(0.5)


def test_estimate_on_two_cycle(two_cycle):
    net, _ = two_cycle
    sgc = estimate_uniform_sgc(net.graph, (1, 2), seed=0)
    assert sgc.holds
    # the plan solves this all-linear window, so the extremal row alone
    # is evaluated at each radius
    assert sgc.samples_per_radius == 1
    assert sgc.eta_hat(1.0) == pytest.approx(0.5)
    assert sgc.xi_hat(0.5) == pytest.approx(1.0)
    assert sgc.deficits[0] == pytest.approx(0.005)
    assert sgc.deficits[2] == pytest.approx(0.05)
    # the estimate matches the closed form on this graph
    exact = exact_eta_two_node(0.5, 0.5)
    for r in (0.1, 1.0, 10.0):
        assert sgc.eta_hat(r) == pytest.approx(exact(r), rel=1e-6)


def test_estimate_is_exact_on_chain_window(chain):
    net, _ = chain
    subset = tuple(range(5))
    sub = subnetwork(net, subset)
    sgc = estimate_uniform_sgc(sub.graph, subset, seed=5)
    assert sgc.holds
    # worst-direction fixed point: amplification 2 - 2^-4 on five nodes
    assert sgc.xi_hat(1.0) == pytest.approx(1.9375)
    assert sgc.eta_hat(1.0) == pytest.approx(1.0 / 1.9375)
    assert falsify_mbi(sub.graph, subset, sgc.xi_hat,
                       budget=10_000, seed=5) is None


def test_estimate_detects_failure():
    g = _linear_graph({(0, 1): 1.0, (1, 0): 1.0}, (0, 1))
    sgc = estimate_uniform_sgc(g, (0, 1), seed=0)
    assert not sgc.holds
    assert sgc.eta_hat is None
    assert sgc.xi_hat is None


def test_radii_order_does_not_change_the_estimate(two_cycle):
    # the deficit floor is a running minimum over ascending radii, so the
    # order in which radii are given must not reach eta_hat or xi_hat
    net, _ = two_cycle
    up = estimate_uniform_sgc(net.graph, (1, 2), radii=[0.1, 1.0, 10.0])
    down = estimate_uniform_sgc(net.graph, (1, 2), radii=[10.0, 1.0, 0.1])
    for field in ("radii", "deficits", "holds", "witnesses",
                  "samples_per_radius", "unconverged"):
        assert getattr(down, field) == getattr(up, field), field
    grid = np.geomspace(1e-3, 1e3, 25)
    assert np.array_equal(down.eta_hat(grid), up.eta_hat(grid))
    assert np.array_equal(down.xi_hat(grid), up.xi_hat(grid))
    assert up.radii == (0.1, 1.0, 10.0)
    assert down.xi_hat(1.0) == pytest.approx(2.0)


@pytest.mark.parametrize("radii", [[], [0.0, 1.0], [-1.0], [1.0, np.nan],
                                   [1.0, np.inf], [1.0, 1.0]], ids=str)
def test_estimate_rejects_radii_it_cannot_sample(two_cycle, radii):
    # no radius at all used to report "holds" with an xi_hat, a radius-0
    # sphere, whose deficit is 0, used to report a failure, and a repeated
    # radius failed inside the fit of eta_hat
    net, _ = two_cycle
    with pytest.raises(ValueError, match="radii must be a nonempty list of "
                                         "distinct positive finite numbers"):
        estimate_uniform_sgc(net.graph, (1, 2), radii=radii)


@pytest.mark.parametrize("name, num", [("_SGC_RADII", 9), ("_MBI_LEVELS", 24)])
def test_radius_and_level_constants_are_their_geomspace(name, num):
    grid = getattr(smallgain, name)
    assert grid.tobytes() == np.geomspace(1e-2, 1e2, num).tobytes()
    assert not grid.flags.writeable


# Extremal directions ----------------------------------------------------

RADII = np.geomspace(1e-2, 1e2, 24)


def _max_cycle_mean(coeffs):
    """Largest geometric mean gain per edge over the simple cycles: the
    rate at which the fixed-point iteration contracts."""
    worst = 0.0
    for cycle in nx.simple_cycles(nx.DiGraph(list(coeffs))):
        k = len(cycle)
        gains = [coeffs[(cycle[e], cycle[(e + 1) % k])] for e in range(k)]
        worst = max(worst, float(np.prod(gains)) ** (1.0 / k))
    return worst


def _contracting_cases(count):
    """Random linear graphs on 2-8 unsorted labels whose cycle means stay
    at most 0.9, each with a permuted window; some nodes are isolated."""
    cases = []
    seed = 0
    while len(cases) < count:
        rng = np.random.default_rng(seed)
        seed += 1
        n = int(rng.integers(2, 9))
        labels = tuple(int(i) for i in rng.choice(100, size=n, replace=False))
        isolated = set(rng.choice(labels, size=int(rng.integers(0, n // 2 + 1)),
                                  replace=False).tolist())
        coeffs = {(i, j): float(rng.uniform(0.05, 1.6))
                  for i in labels for j in labels
                  if i != j and i not in isolated and j not in isolated
                  and rng.random() < 0.5}
        if _max_cycle_mean(coeffs) > 0.9:
            continue
        window = tuple(int(i) for i in rng.permutation(labels))
        cases.append((_linear_graph(coeffs, labels), window))
    return cases


def test_exact_directions_match_the_iteration():
    for graph, window in _contracting_cases(200):
        _, exact, unconverged = _directions(graph, window, RADII)
        assert exact.shape == (1, len(window)) and unconverged == 0
        dirs, unconverged = _iterated_directions(graph, window, RADII)
        assert dirs.shape == (len(RADII), len(window)) and unconverged == 0
        # both directions peak at 1, so this is relative to the sup norm;
        # below r = 1 the iteration stops on an absolute step of 1e-13, so
        # its rows are only that close relative to r
        err = np.max(np.abs(dirs - exact), axis=1)
        assert np.all(err <= 1e-12 * np.maximum(1.0, 1.0 / RADII))


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (3.0, 0.2), (0.2, 4.5),
                                  (0.999, 1.0), (1.5, 0.6666)])
def test_exact_direction_meets_the_two_node_closed_form(a, b):
    g = _linear_graph({(0, 1): a, (1, 0): b}, (0, 1))
    _, dirs, unconverged = _directions(g, (0, 1), RADII)
    assert dirs.shape == (1, 2) and unconverged == 0
    want = float(exact_eta_two_node(a, b)(1.0))
    assert operator_deficit(g, dirs[0], (0, 1)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("coeffs, rows", [
    ({(0, 1): power(0.5, 1.2), (1, 0): linear(0.5), (2, 0): linear(0.3)}, 22),
    ({(0, 1): linear(2.0), (1, 0): linear(2.0)}, 0),
    ({(0, 1): linear(0.5), (1, 0): linear(2.0), (2, 1): linear(0.7)}, 24),
])
def test_extremal_directions_fall_back_to_the_iteration(coeffs, rows):
    # a nonlinear edge (the two largest radii blow up), a cycle gain of 4
    # (every row blows up) and a cycle gain of exactly 1 (none converges)
    graph = GainGraph(FiniteIndexSet((0, 1, 2)), entries=coeffs)
    window = (0, 1, 2)
    got = _directions(graph, window, RADII)[1:]
    want = _iterated_directions(graph, window, RADII)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert got[0].shape[0] == rows


# The estimate: exact on plan-solved windows, sampled on any other ---------


def _per_radius(graph, window, radii, patterns):
    """Deficits and argmin rows of each radius's own apply_batch call over
    the rows radius * patterns."""
    mins, points = [], []
    for r in radii:
        batch = r * patterns
        signed = np.max(batch - apply_batch(graph, batch, window), axis=1)
        k = int(np.argmin(signed))
        mins.append(float(signed[k]))
        points.append(tuple(batch[k]))
    return tuple(mins), tuple(points)


def _todays_estimate(graph, window, radii, n_random, seed):
    """The sampled estimate every window took before plan-solved windows
    evaluated the extremal row alone: (deficits, witnesses, samples per
    radius, the state of its stream after its draws)."""
    n = len(window)
    radii = sorted(radii)
    rng = derived_rng(seed, "sgc", n)
    _, dirs, _ = _directions(graph, window, radii)
    sphere = _reference_patterns(n, n_random, rng)
    seen = np.any(np.all(dirs[:, None, :] == sphere[None], axis=2), axis=1)
    patterns = np.vstack([sphere, dirs[~seen]])
    mins, points = _per_radius(graph, window, radii, patterns)
    return mins, points, patterns.shape[0], rng.bit_generator.state


def _recorded_streams(monkeypatch):
    """Every generator estimate_uniform_sgc builds, in order."""
    made = []

    def recording(*tags):
        made.append(derived_rng(*tags))
        return made[-1]

    monkeypatch.setattr(smallgain, "derived_rng", recording)
    return made


def test_solved_windows_take_the_extremal_row_alone(monkeypatch):
    made = _recorded_streams(monkeypatch)
    for graph, window in _contracting_cases(200):
        c, dirs, _ = _directions(graph, window, RADII)
        report = estimate_uniform_sgc(graph, window, radii=RADII, seed=3)
        assert report.exact and report.samples_per_radius == 1
        assert made == []
        want, _pts, _m, _state = _todays_estimate(graph, window, RADII, 64, 3)
        for r, got, sampled, point in zip(RADII, report.deficits, want,
                                          report.witnesses):
            row = r * dirs[0]
            assert point == tuple(row)
            assert got == float(np.max(
                row - gains.apply_gain_operator(graph, row, window)))
            # a difference of two terms of size r: rounding is in ulps of r
            ulp = np.spacing(r)
            assert abs(got - r / c) <= 4 * ulp
            assert 0.0 <= got - sampled <= 4 * ulp


def _unsolved_cases():
    """Windows with a nonlinear edge, windows whose solve fails (cycle gain
    4, cycle gain exactly 1, an overflowing v*(1)), and a nonlinear window
    wider than the vertex rows list in full."""
    mixed = (_mixed_graph(seed, n) for seed in range(40) for n in (2, 4, 8))
    graphs = [g for g in mixed if g._plan(g.index_set.labels).other][:12]
    graphs += [_linear_graph(coeffs, (0, 1, 2)) for coeffs in
               ({(0, 1): 2.0, (1, 0): 2.0}, {(0, 1): 0.5, (1, 0): 2.0,
                                             (2, 1): 0.7},
                {(0, 1): 1e200, (1, 2): 1e200})]
    graphs.append(_one_saturating_edge(
        {(i, (i + 1) % 70): 0.5 for i in range(70)}, range(70)))
    return [(g, g.index_set.labels) for g in graphs]


def test_unsolved_windows_keep_the_sampled_estimate(monkeypatch):
    made = _recorded_streams(monkeypatch)
    for graph, window in _unsolved_cases():
        assert graph._plan(window).fixed_point is None
        for n_random, seed in ((0, 0), (16, 5), (64, 2026)):
            made.clear()
            report = estimate_uniform_sgc(graph, window, radii=RADII,
                                          n_random=n_random, seed=seed)
            mins, points, samples, state = _todays_estimate(
                graph, window, RADII, n_random, seed)
            assert not report.exact
            assert report.deficits == mins
            assert report.witnesses == points
            assert report.samples_per_radius == samples
            assert len(made) == 1 and made[0].bit_generator.state == state


def test_batched_radii_equal_the_per_radius_loop():
    radii = RADII[::-1]          # given in any order, reported ascending
    cases = [(g, w, False) for g, w in _unsolved_cases()]
    cases += [(g, w, True) for g, w in _contracting_cases(20)]
    for graph, window, exact in cases:
        c, dirs, _ = _directions(graph, window, radii)
        report = estimate_uniform_sgc(graph, window, radii=radii, seed=7)
        assert report.exact == exact == (c is not None)
        if exact:
            want = _per_radius(graph, window, sorted(radii), dirs)
        else:
            want = _todays_estimate(graph, window, radii, 64, 7)[:2]
        assert (report.deficits, report.witnesses) == want


def test_summary_says_whether_the_estimate_is_exact(two_cycle):
    net, _ = two_cycle
    exact = estimate_uniform_sgc(net.graph, (1, 2)).summary()
    assert exact.endswith("exact: the extremal row at each radius")
    g = _one_saturating_edge({(1, 2): 0.5, (2, 1): 0.5}, (1, 2))
    sampled = estimate_uniform_sgc(g, (1, 2), n_random=4).summary()
    assert sampled.endswith("samples per radius")


# Curve inversion --------------------------------------------------------


@pytest.mark.parametrize("curve", [
    linear(2.0),
    power(3.0, 0.5),
    pwl([(0.0, 0.0), (1.0, 0.5), (2.0, 2.0)], "Kinf"),
])
def test_invert_k_curve_round_trip(curve):
    inv = invert_k_curve(curve)
    for r in (0.1, 0.7, 1.5, 4.0):
        assert inv(curve(r)) == pytest.approx(r, rel=1e-9)
        assert curve(inv(r)) == pytest.approx(r, rel=1e-9)


def test_invert_compose():
    c = compose(linear(2.0), power(1.0, 2.0))     # 2 r^2
    inv = invert_k_curve(c)
    for r in (0.5, 1.0, 3.0):
        assert inv(c(r)) == pytest.approx(r, rel=1e-9)


def test_invert_a_lazy_chain():
    # a power after a pwl curve has no closed form, so compose keeps the
    # chain and the inverse reverses its parts
    c = compose(power(2.0, 3.0),
                pwl([(0.0, 0.0), (1.0, 2.0), (3.0, 3.0)], "Kinf"))
    assert c.kind == "compose"
    inv = invert_k_curve(c)
    r = np.geomspace(1e-3, 1e3)
    np.testing.assert_allclose(inv(c(r)), r, rtol=2e-15, atol=0.0)
    np.testing.assert_allclose(c(inv(r)), r, rtol=2e-15, atol=0.0)


# Falsification ----------------------------------------------------------


def test_no_witness_against_true_bound(two_cycle):
    net, _ = two_cycle
    assert falsify_mbi(net.graph, (1, 2), linear(2.0),
                       budget=2000, seed=0) is None


def test_witness_against_tight_bound(two_cycle):
    net, _ = two_cycle
    w = falsify_mbi(net.graph, (1, 2), linear(1.2), budget=2000, seed=0)
    assert w is not None
    assert np.allclose(w.v, [0.01, 0.01])
    assert np.allclose(w.w, [0.005, 0.005])
    assert w.margin == pytest.approx(0.004)
    assert w.validate(net.graph, linear(1.2))


def test_witness_validation_is_exact(two_cycle):
    net, _ = two_cycle
    w = falsify_mbi(net.graph, (1, 2), linear(1.2), budget=2000, seed=0)
    # validation recomputes the slack; a transcription error must fail it
    tampered = type(w)(w.window, w.v, tuple(x + 1e-12 for x in w.w),
                       w.norm_v, w.norm_w, w.xi_at_w, w.margin,
                       w.samples_used, w.seed)
    assert not tampered.validate(net.graph, linear(1.2))


def test_witness_respects_budget(two_cycle):
    net, _ = two_cycle
    w = falsify_mbi(net.graph, (1, 2), linear(1.2), budget=500, seed=3)
    assert w is None or w.samples_used <= 500


def test_falsify_needs_a_positive_budget(two_cycle):
    net, _ = two_cycle
    for budget in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            falsify_mbi(net.graph, (1, 2), linear(1.2), budget=budget, seed=0)


def _count_screening(monkeypatch, graph, window):
    """Rows of every screening apply_batch call made by falsify_mbi.

    The plan's linear fixed point is solved up front and kept, and the
    iterated directions are computed up front and handed back, so their
    own apply_batch calls are not counted.
    """
    levels = np.geomspace(1e-2, 1e2, 24)
    v = graph._plan(tuple(window)).fixed_point
    dirs = _iterated_directions(graph, tuple(window), levels) if v is None else None
    monkeypatch.setattr(smallgain, "_iterated_directions", lambda *a: dirs)
    rows = []

    def counted(g, batch, w):
        rows.append(batch.shape[0])
        return apply_batch(g, batch, w)

    monkeypatch.setattr(smallgain, "apply_batch", counted)
    return rows


def _one_saturating_edge(coeffs, labels):
    """The linear graph of coeffs with its first edge a*s turned into
    a*s / (1 + a*s): a nonlinear window, so falsify_mbi runs its random
    search, with gains below the linear graph's, so every bound that
    graph keeps still holds."""
    first = next(iter(coeffs))
    entries = {(i, j): linear(c) for (i, j), c in coeffs.items()}
    entries[first] = compose(saturating(1.0), linear(coeffs[first]))
    return GainGraph(FiniteIndexSet(tuple(labels)), entries=entries)


@pytest.mark.parametrize("budget", [37, 500])
def test_screened_rows_equal_the_budget(monkeypatch, budget):
    # the first sweep's all-ones, extremal and vertex rows used to overrun
    # a budget smaller than themselves (59 rows at 37, 507 at 500); the
    # two-cycle with one saturating edge keeps the search running
    g = _one_saturating_edge({(1, 2): 0.5, (2, 1): 0.5}, (1, 2))
    rows = _count_screening(monkeypatch, g, (1, 2))
    assert falsify_mbi(g, (1, 2), linear(2.0),
                       budget=budget, seed=3) is None
    assert sum(rows) == budget


def test_one_apply_batch_call_per_screened_level_and_per_estimate(
        monkeypatch, two_cycle):
    # the 6-ring with one saturating edge screens its whole budget: 48
    # levels of 41 rows (budget // 48), then one cut to the 32 rows left
    labels = tuple(range(6))
    g = _one_saturating_edge({(i, (i + 1) % 6): 0.5 for i in labels}, labels)
    rows = _count_screening(monkeypatch, g, labels)
    assert falsify_mbi(g, labels, linear(4.0), budget=2000, seed=1) is None
    assert rows == [41] * 48 + [32]
    # criterion 3's witness lies in the first level, so one call screens it
    net, _ = two_cycle
    rows = _count_screening(monkeypatch, net.graph, (1, 2))
    wit = falsify_mbi(net.graph, (1, 2), linear(1.2), budget=10_000, seed=0)
    assert wit.samples_used == 208 and rows == [208]
    # the estimate takes every radius in one call: on a solved 6-ring, on
    # 105 sampled rows over 8 nodes and on a 70-wide sampled window
    wide = _one_saturating_edge({(i, (i + 1) % 70): 0.5 for i in range(70)},
                                range(70))
    for graph, samples in ((_ring(6, 0.5), 1), (_mixed_graph(13, 8), 105),
                           (wide, 153)):
        window = graph.index_set.labels
        rows = _count_screening(monkeypatch, graph, window)
        report = estimate_uniform_sgc(graph, window, radii=RADII)
        assert report.samples_per_radius == samples
        assert rows == [len(RADII) * samples]


# The search against the reference per-level loop -----------------------


def _reference_patterns(n, m, rng):
    """Vertex rows, each once, then m random rows: the draw order of the
    first sweep."""
    rows = [np.ones(n)]
    if n <= 64:
        if n > 1:                # one node: the unit row is all ones
            rows.extend(np.eye(n))
        if n > 2:                # two nodes: leave-one-out rows are units
            rows.extend(np.ones((n, n)) - np.eye(n))
    else:
        for k in rng.choice(n, size=32, replace=False):
            e = np.zeros(n)
            e[k] = 1.0
            rows.extend([e, 1.0 - e])
    rand = rng.random((m, n))
    peaks = rng.integers(0, n, size=m)
    rand[np.arange(m), peaks] = 1.0
    return np.vstack([np.array(rows), rand])


def _reference_falsify(graph, window, xi, budget, seed, atol=1e-9):
    """The falsifier screened one level at a time, capped at the budget.

    Returns the witness (or None) and whether it came from the first sweep.
    """
    n = len(window)
    rng = derived_rng(seed, "falsify", n)
    levels = np.geomspace(1e-2, 1e2, 24)
    _, dirs, _ = _directions(graph, window, levels)
    used, first = 0, True
    while used < budget:
        for level in levels:
            if used >= budget:
                break
            chunk = min(max(32, budget // (2 * len(levels))), budget - used)
            if first:
                sp = _reference_patterns(n, chunk, rng)
                base = np.vstack([sp[:1], dirs])
                seen = np.any(np.all(sp[1:, None, :] == base[None], axis=2),
                              axis=1)
                pats = np.vstack([base, sp[1:][~seen]])
                pats = pats[:min(max(chunk, n + 1 + dirs.shape[0]),
                                 budget - used)]
            else:
                pats = rng.random((chunk, n))
                peaks = rng.integers(0, n, size=chunk)
                pats[np.arange(chunk), peaks] = 1.0
            batch = level * pats
            w = np.maximum(batch - apply_batch(graph, batch, window), 0.0)
            nv = np.max(batch, axis=1)
            nw = np.max(w, axis=1)
            bad = nv > np.asarray(xi(nw), float) + atol * np.maximum(1.0, nv)
            used += batch.shape[0]
            if np.any(bad):
                witness = _revalidate(graph, window, xi,
                                      batch[int(np.argmax(bad))], used,
                                      seed)
                if witness is not None:
                    return witness, first
        first = False
    return None, None


def _mixed_graph(seed, n):
    """Random graph with linear, power, saturating and composed edges."""
    rng = np.random.default_rng(seed)
    entries = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < min(0.5, 3.0 / n):
                a = float(rng.uniform(0.1, 0.7))
                kind = int(rng.integers(0, 4))
                if kind == 0:
                    entries[(i, j)] = linear(a)
                elif kind == 1:
                    entries[(i, j)] = power(a, float(rng.uniform(1.0, 1.2)))
                elif kind == 2:
                    entries[(i, j)] = saturating(a)
                else:
                    entries[(i, j)] = compose(saturating(1.0), linear(a))
    if not entries:
        entries[(0, 1)] = linear(0.5)
    return GainGraph(FiniteIndexSet(tuple(range(n))), entries=entries)


def _bounds(seed):
    """Linear, power, pwl and composed monotone bounds of one random slope."""
    rng = np.random.default_rng(seed + 1000)
    a = float(rng.uniform(1.2, 3.0))
    bend = pwl([(0.0, 0.0), (1.0, a), (2.0, 2.2 * a)], "Kinf")
    return [linear(a), power(a, float(rng.uniform(0.9, 1.1))), bend,
            compose(power(1.0, float(rng.uniform(0.95, 1.05))), bend)]


_FIELDS = ("window", "v", "w", "norm_v", "norm_w", "xi_at_w", "margin",
           "samples_used", "seed")

# (graph seed, n, bound, budget) whose worst candidate is a random row of a
# later sweep: the slopes sit between the first-sweep and overall maxima of
# ||v|| / ||w||
_LATER_SWEEP = [(1, 3, linear(2.0587), 5000), (4, 6, linear(8.252), 5000),
                (14, 2, linear(1.8529), 5000)]


def test_falsify_equals_the_reference_per_level_loop():
    cases = [(seed, n, xi, budget)
             for seed, n in [(0, 2), (1, 3), (2, 4), (3, 5), (25, 6),
                             (12, 7), (13, 8), (17, 5), (23, 4)]
             for xi in _bounds(seed)
             for budget in (37, 500, 2000, 5000)]
    cases += _LATER_SWEEP
    wide = _linear_graph({(i, (i + 1) % 70): 0.5 for i in range(70)}
                         | {((i + 1) % 70, i): 0.3 for i in range(70)},
                         range(70))
    cases += [(5, wide, xi, budget) for xi in (linear(1.5), linear(3.0))
              for budget in (37, 500, 2000)]
    outcomes = set()
    for seed, n, xi, budget in cases:
        graph = n if isinstance(n, GainGraph) else _mixed_graph(seed, n)
        window = graph.index_set.labels
        want, first = _reference_falsify(graph, window, xi, budget, seed)
        got = falsify_mbi(graph, window, xi, budget=budget, seed=seed)
        outcomes.add(None if want is None else "first" if first else "later")
        if want is None:
            assert got is None, (seed, budget)
            continue
        assert got is not None, (seed, budget)
        for field in _FIELDS:
            assert getattr(got, field) == getattr(want, field), (seed, budget, field)
        assert got.samples_used <= budget
    assert outcomes == {None, "first", "later"}


# The exact test on all-linear windows -----------------------------------


def _ring(n, a):
    labels = tuple(range(n))
    return _linear_graph({(i, (i + 1) % n): a for i in labels}, labels)


@pytest.mark.parametrize("graph, xi", [
    (_ring(2, 0.5), linear(2.0)),        # xi = ||v*(1)|| id, the tight bound
    (_ring(6, 0.5), linear(4.0)),
    (_ring(6, 0.5), pwl([(0.0, 0.0), (1.0, 2.0), (2.0, 5.0)], "K")),
])
def test_linear_windows_decide_without_a_draw(monkeypatch, graph, xi):
    window = graph.index_set.labels
    rows = _count_screening(monkeypatch, graph, window)

    def no_draw(*args):
        raise AssertionError("random rows drawn on an exactly decided window")

    monkeypatch.setattr(smallgain, "_random_patterns", no_draw)
    assert falsify_mbi(graph, window, xi, budget=2000, seed=1) is None
    assert rows == []


@pytest.mark.parametrize("xi", [linear(4.0, "mono"), pwl([(0.0, 1e3)], "L")])
def test_bounds_outside_class_k_still_screen_the_budget(monkeypatch, xi):
    # the exact test needs a nondecreasing xi; any other class searches
    g = _ring(6, 0.5)
    rows = _count_screening(monkeypatch, g, g.index_set.labels)
    assert falsify_mbi(g, g.index_set.labels, xi, budget=500, seed=1) is None
    assert sum(rows) == 500


def _random_linear_graph(seed):
    """Linear gains in [0.1, 0.9] on 2-6 nodes: every cycle contracts."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    coeffs = {(i, j): float(rng.uniform(0.1, 0.9))
              for i in range(n) for j in range(n)
              if i != j and rng.random() < 0.5}
    return _linear_graph(coeffs or {(0, 1): 0.5}, range(n))


def test_both_searches_share_one_solve(monkeypatch):
    calls = []

    def counted(plan):
        calls.append(plan.window)
        return solve(plan)

    solve = gains._linear_fixed_point
    monkeypatch.setattr(gains, "_linear_fixed_point", counted)
    graph = _ring(6, 0.5)
    window = graph.index_set.labels
    report = estimate_uniform_sgc(graph, window, seed=1)
    assert falsify_mbi(graph, window, report.xi_hat, budget=100, seed=1) is None
    assert calls == [window]


def test_an_overflowing_solve_falls_back_to_the_iteration():
    # a window whose v*(1) overflows used to make the solve raise in
    # apply_batch; both searches now take the iterated directions
    g = _linear_graph({(0, 1): 1e200, (1, 2): 1e200}, (0, 1, 2))
    window = (0, 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, dirs, unconverged = _directions(g, window, RADII)
        report = estimate_uniform_sgc(g, window, seed=1)
        witness = falsify_mbi(g, window, report.xi_hat, budget=1000, seed=1)
    assert c is None and dirs.shape == (0, 3) and unconverged == 0
    assert report.holds
    assert witness is not None and witness.validate(g, report.xi_hat)


def test_exact_test_equals_the_search_on_linear_windows():
    outcomes = set()
    for seed in range(6):
        graph = _random_linear_graph(seed)
        window = graph.index_set.labels
        c = float(np.max(graph._plan(window).fixed_point))
        bend = pwl([(0.0, 0.0), (1.0, 1.2 * c), (10.0, 9.0 * c)], "Kinf")
        for xi in (linear(0.999 * c), linear(c), linear(1.001 * c),
                   power(c, 1.1), power(c, 0.9), bend):
            for budget in (37, 2000):
                want, _ = _reference_falsify(graph, window, xi, budget, seed)
                got = falsify_mbi(graph, window, xi, budget=budget, seed=seed)
                outcomes.add(want is None)
                if want is None:
                    assert got is None, (seed, xi, budget)
                    continue
                assert got is not None, (seed, xi, budget)
                for field in _FIELDS:
                    assert getattr(got, field) == getattr(want, field), \
                        (seed, xi, budget, field)
    assert outcomes == {True, False}


# Cycle screening --------------------------------------------------------


def test_cycle_check_two_cycle(two_cycle):
    net, _ = two_cycle
    report = finite_cycle_check(net.graph, (1, 2))
    assert report.passed
    assert report.n_cycles == 1
    assert report.worst_margin == pytest.approx(0.75)


def test_cycle_report_summary(two_cycle):
    net, _ = two_cycle
    assert finite_cycle_check(net.graph, (1, 2)).summary() == (
        "cycle screen passed: 1 simple cycles, worst relative margin 0.75")
    report = CycleReport((0, 1, 2), 3, -0.125, (0, 1), passed=False,
                         truncated=True)
    assert report.summary() == (
        "cycle screen FAILED: 3 simple cycles, worst relative margin -0.125 "
        "(cycle list truncated)")


def test_cycle_check_rejects_unit_loop():
    g = _linear_graph({(0, 1): 1.25, (1, 0): 0.8}, (0, 1))
    report = finite_cycle_check(g, (0, 1))
    assert not report.passed       # folded gain reaches the identity


def test_cycle_check_acyclic(chain):
    net, _ = chain
    subset = tuple(range(4))
    sub = subnetwork(net, subset)
    report = finite_cycle_check(sub.graph, subset)
    assert report.passed
    assert report.n_cycles == 0


@pytest.mark.parametrize("window, worst_cycle", [
    ((0, 1, 2, 3), (0, 1)),
    ((3, 1, 0, 2), (1, 0)),
])
def test_cycle_check_on_mixed_edge_kinds(window, worst_cycle):
    # the cycles (0, 1) and (0, 2) tie at the least margin, and row 1's
    # edge into it is nonlinear: successors taken in walk order list the
    # cycle through 1 first, linear edges first would list (0, 2) first
    entries = {(0, 1): linear(1.0), (0, 2): linear(1.0),
               (1, 0): power(0.5, 1.0), (2, 0): linear(0.5),
               (1, 3): compose(saturating(1.0), linear(0.6)),
               (3, 2): linear(0.9), (2, 1): linear(0.7),
               (3, 0): power(0.4, 1.5)}
    g = GainGraph(FiniteIndexSet((0, 1, 2, 3)), entries=entries)
    report = finite_cycle_check(g, window)
    assert report.n_cycles == 7
    assert report.worst_cycle == worst_cycle
    assert report.worst_margin == 0.5
    assert report.passed


def _listed_cycles(monkeypatch, graph, window):
    """The report and the label cycles finite_cycle_check enumerated."""
    found = []

    def recorded(succ):
        for cycle in enumerate_cycles(succ):
            found.append(tuple(window[p] for p in cycle))
            yield cycle

    enumerate_cycles = smallgain._simple_cycles
    monkeypatch.setattr(smallgain, "_simple_cycles", recorded)
    report = finite_cycle_check(graph, window)
    monkeypatch.undo()
    return report, found


def _least_label_first(cycle):
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def _oracle_cycles(graph, window):
    """nx.simple_cycles on the window, edges j -> i for j in row i."""
    g = nx.DiGraph()
    g.add_nodes_from(window)
    g.add_edges_from((j, i) for i in window for j in graph.row(i)
                     if j in window)
    return sorted(_least_label_first(c) for c in nx.simple_cycles(g))


def _random_digraph(rng, n):
    """Random linear gains on n unsorted labels, with a permuted window."""
    labels = tuple(int(v) for v in rng.choice(100, size=n, replace=False))
    density = rng.uniform(0.1, 0.7)
    coeffs = {(i, j): float(rng.uniform(0.1, 0.9))
              for i in labels for j in labels
              if i != j and rng.random() < density}
    window = tuple(labels[k] for k in rng.permutation(n))
    return _linear_graph(coeffs, labels), window


def test_cycles_match_networkx_on_random_digraphs(monkeypatch):
    rng = np.random.default_rng(8)
    total = 0
    for _ in range(300):
        graph, window = _random_digraph(rng, int(rng.integers(2, 9)))
        report, found = _listed_cycles(monkeypatch, graph, window)
        want = _oracle_cycles(graph, window)
        positions = {label: p for p, label in enumerate(window)}
        # each cycle once, from its least window position
        assert all(positions[c[0]] == min(positions[i] for i in c)
                   for c in found)
        assert sorted(_least_label_first(c) for c in found) == want
        assert report.n_cycles == len(want) and not report.truncated
        total += len(want)
    assert total > 5_000


def test_cycles_match_networkx_on_the_diffusive_chain(monkeypatch, diffusive):
    net, _ = diffusive
    window = net.index_set.window(300)
    report, found = _listed_cycles(monkeypatch, net.graph, window)
    assert sorted(found) == _oracle_cycles(net.graph, window)
    assert report.n_cycles == 299
    assert report.worst_margin == 0.84 and report.worst_cycle == (0, 1)


def _random_gain(rng):
    a = float(rng.uniform(0.2, 1.5))
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return linear(a)
    if kind == 1:
        return power(a, float(rng.uniform(0.5, 2.0)))
    if kind == 2:
        return saturating(a)
    if kind == 3:
        return pwl([(0.0, 0.0), (1.0, a), (5.0, a + 2.0 * rng.random())], "Kinf")
    return compose(power(1.0, float(rng.uniform(0.8, 1.2))), linear(a))


def _rotation_folds(gains):
    """Relative margin of the fold started at each edge, one at a time."""
    k = len(gains)
    margins = []
    for r in range(k):
        vals = CHECK_GRID
        for step in range(k):
            vals = np.asarray(gains[(r + step) % k](vals), float)
        margins.append(float(np.min((CHECK_GRID - vals) / CHECK_GRID)))
    return margins


def test_batched_fold_equals_every_rotation_folded_alone():
    rng = np.random.default_rng(3)
    spread = 0
    for _ in range(200):
        gains = [_random_gain(rng) for _ in range(int(rng.integers(1, 8)))]
        margins = _rotation_folds(gains)
        assert smallgain._cycle_margin(gains) == min(margins)
        spread += min(margins) < max(margins)
    assert spread > 50          # the starting edge matters on most cycles


@pytest.mark.parametrize("labels", [(0, 1), (1, 0)])
def test_cycle_verdict_does_not_depend_on_labels(labels):
    # one labeling used to pass with margin 0.5: its single fold ran the
    # power gain first, which stays below the identity on CHECK_GRID
    a, b = labels
    g = GainGraph(FiniteIndexSet((0, 1)),
                  entries={(b, a): power(1e-4, 2.0), (a, b): linear(5.0)})
    report = finite_cycle_check(g, (0, 1))
    assert not report.passed
    assert report.worst_margin == pytest.approx(-1.5)


def test_cycle_verdict_survives_relabeling_and_window_order():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        entries = {(i, j): _random_gain(rng) for i in range(n)
                   for j in range(n) if i != j and rng.random() < 0.5}
        graph = GainGraph(FiniteIndexSet(tuple(range(n))), entries=entries)
        base = finite_cycle_check(graph, tuple(range(n)))
        relabel = [int(v) for v in rng.choice(50, size=n, replace=False)]
        moved = GainGraph(FiniteIndexSet(tuple(relabel)), entries={
            (relabel[i], relabel[j]): c for (i, j), c in entries.items()})
        window = tuple(relabel[k] for k in rng.permutation(n))
        report = finite_cycle_check(moved, window)
        assert (report.n_cycles, report.worst_margin, report.passed) \
            == (base.n_cycles, base.worst_margin, base.passed)


def test_cycle_screen_fails_above_the_cap():
    labels = tuple(range(9))
    g = _linear_graph({(i, j): 0.1 for i in labels for j in labels if i != j},
                      labels)
    report = finite_cycle_check(g, labels)
    assert report.truncated
    assert report.n_cycles == 10_000
    assert not report.passed       # every listed cycle contracts


def test_cycle_screen_walks_a_long_ring():
    labels = tuple(range(2000))
    g = _linear_graph({((i + 1) % 2000, i): 0.9 for i in labels}, labels)
    report = finite_cycle_check(g, labels)
    assert report.n_cycles == 1 and report.passed
    assert report.worst_cycle == labels


def test_the_cli_runs_without_networkx():
    src = os.path.dirname(os.path.dirname(smallgain.__file__))
    code = ("import sys\n"
            "import issnet.cli\n"
            "from issnet.catalog import instantiate\n"
            "net, _ = instantiate('uniform-2-cycle')\n"
            "issnet.cli.finite_cycle_check(net.graph, net.window())\n"
            "print('networkx' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


# Shrinking and restriction never create witnesses -----------------------


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_derived_bound_survives_restriction_and_shrink(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    coeffs = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                coeffs[(i, j)] = float(rng.uniform(0.1, 0.8))
    if not coeffs:
        coeffs[(0, 1)] = 0.5
    g = _linear_graph(coeffs, range(n))
    window = tuple(range(n))
    sgc = estimate_uniform_sgc(g, window, n_random=16, seed=seed)
    assert sgc.holds
    assert falsify_mbi(g, window, sgc.xi_hat, budget=800, seed=seed) is None

    keep = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n)),
                                   replace=False).tolist()))
    sub = _linear_graph({k: c for k, c in coeffs.items()
                         if k[0] in keep and k[1] in keep}, keep)
    assert falsify_mbi(sub, keep, sgc.xi_hat, budget=800, seed=seed) is None

    lam = float(rng.uniform(0.3, 0.95))
    shrunk = _linear_graph({k: lam * c for k, c in coeffs.items()}, range(n))
    assert falsify_mbi(shrunk, window, sgc.xi_hat, budget=800, seed=seed) is None
