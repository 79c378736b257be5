"""Coupled simulation, truncation sweeps, and subnetwork restriction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from issnet.catalog import instantiate
from issnet.gains import FiniteIndexSet
from issnet.network import (
    NetworkSpec,
    NetworkSystem,
    TruncationPolicy,
    simulate,
    simulate_ensemble,
    subnetwork,
    truncation_sweep,
    write_trajectory_csv,
)
from issnet.systems import DISCRETE, InputSignal, SubsystemSpec, check_axioms


# Simulation against closed forms ---------------------------------------


def test_counterexample_components_decay_at_their_own_rates(counterexample):
    net, _ = counterexample
    window = net.window(10)
    traj = simulate(net, window, np.ones(10), InputSignal.zero(), 5.0, dt=1e-3)
    k = int(np.searchsorted(traj.times, 2.0))
    t = traj.times[k]
    for c, i in enumerate(window):
        assert traj.states[k, c] == pytest.approx(math.exp(-t / i), abs=1e-8)
    # slowest component carries the network norm
    tem = traj.times[-1]
    assert traj.sup_norms()[-1] == pytest.approx(math.exp(-tem / 10), abs=1e-9)


def test_chain_reaches_geometric_steady_state(chain):
    net, _ = chain
    window = net.window(6)
    traj = simulate(net, window, np.zeros(6), InputSignal.constant(1.0), 400)
    expected = [2.0 - 2.0 ** (i - 5) for i in range(6)]
    assert np.allclose(traj.states[-1], expected, atol=1e-12)


def test_two_cycle_matches_manual_iteration(two_cycle):
    net, _ = two_cycle
    window = net.window()
    specs = {i: net.subsystem_fn(i) for i in window}
    x = {1: 0.7, 2: -0.3}
    u = InputSignal.constant(0.25)
    traj = simulate(net, window, np.array([x[1], x[2]]), u, 20)
    for k in range(20):
        nxt = {}
        for c, i in enumerate(window):
            other = window[1 - c]
            w = np.array([x[other]])
            nxt[i] = specs[i].dynamics(x[i], w, 0.25)
        x = nxt
    assert traj.states[-1, 0] == x[1]
    assert traj.states[-1, 1] == x[2]


def test_scalar_x0_broadcasts(counterexample):
    net, _ = counterexample
    window = net.window(4)
    a = simulate(net, window, 1.0, InputSignal.zero(), 1.0, dt=1e-2)
    b = simulate(net, window, np.ones(4), InputSignal.zero(), 1.0, dt=1e-2)
    assert np.array_equal(a.states, b.states)


# these raised IndexError or "negative dimensions are not allowed"
@pytest.mark.parametrize("name, horizon, dt", [
    ("uniform-2-cycle", -1, None),
    ("uniform-2-cycle", -3, None),
    ("counterexample-chain", -0.1, 0.01),
])
def test_negative_horizon_is_rejected(name, horizon, dt):
    net, _ = instantiate(name)
    with pytest.raises(ValueError, match=f"horizon must be nonnegative, "
                                         f"got {horizon}"):
        simulate(net, net.window(2), 1.0, InputSignal.zero(), horizon, dt=dt)


def test_vector_input_must_match_window(counterexample):
    net, _ = counterexample
    u = InputSignal([0.0], np.zeros((1, 3)))
    with pytest.raises(ValueError):
        simulate(net, net.window(4), 1.0, u, 1.0, dt=1e-2)


def test_blowup_truncates_trajectory():
    spec = SubsystemSpec("doubling", DISCRETE, lambda x, w, u: 2.0 * x)
    net = NetworkSpec("explosive", DISCRETE, FiniteIndexSet((0,)),
                      lambda i: spec)
    traj = simulate(net, (0,), np.array([1.0]), InputSignal.zero(), 100,
                    blowup_bound=1e6)
    assert traj.blowup is not None
    assert traj.blowup.value > 1e6
    assert traj.times[-1] == traj.blowup.time
    assert len(traj.times) < 101


# Fast path --------------------------------------------------------------


def _halving_net(with_fast):
    spec = SubsystemSpec("halving", DISCRETE, lambda x, w, u: 0.5 * x + u)

    def fast_factory(window):
        def f(x, uv):
            return 0.5 * x + uv
        return f

    return NetworkSpec("halving-net", DISCRETE, FiniteIndexSet((0, 1, 2)),
                       lambda i: spec,
                       fast_factory=fast_factory if with_fast else None)


def _reference(net):
    """The same network on the map assembled from its per-component
    dynamics, the semantic reference of every fast_factory."""
    return dataclasses.replace(net, fast_factory=None)


def test_fast_factory_matches_reference_bitwise():
    net = _halving_net(True)
    x0 = np.array([1.0, -2.0, 0.25])
    u = InputSignal([0.0, 3.0], [0.5, -0.125])
    fast = simulate(net, (0, 1, 2), x0, u, 30)
    ref = simulate(_reference(net), (0, 1, 2), x0, u, 30)
    assert np.array_equal(fast.states, ref.states)


# Batched ensembles ------------------------------------------------------


def _same_run(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.window == b.window
    assert a.blowup == b.blowup


def _mixed_members(n, h):
    """Scalar and vector inputs; breaks on the step grid (multiples of h)
    and between its points."""
    rng = np.random.default_rng(5)
    on_grid = h * np.array([0.0, 3.0, 7.0])
    off_grid = h * np.array([0.0, 2.5, 8.3])
    return [
        (1.0, InputSignal.zero()),
        (rng.uniform(-1, 1, n), InputSignal.constant(0.5)),
        (rng.uniform(-1, 1, n), InputSignal(on_grid, [0.3, -0.2, 0.7])),
        (rng.uniform(-1, 1, n), InputSignal(off_grid, rng.uniform(-1, 1, 3))),
        (rng.uniform(-1, 1, n), InputSignal.constant(rng.uniform(-1, 1, n))),
        (rng.uniform(-1, 1, n), InputSignal(on_grid, rng.uniform(-1, 1, (3, n)))),
        (rng.uniform(-1, 1, n), InputSignal(off_grid, rng.uniform(-1, 1, (3, n)))),
    ]


@pytest.mark.parametrize("name", ["counterexample-chain", "uniform-2-cycle",
                                  "nonuniform-discrete-chain",
                                  "linear-diffusive-chain"])
def test_ensemble_matches_solo_runs_bitwise(name):
    net, _ = instantiate(name)
    window = net.window() if name == "uniform-2-cycle" else net.window(6)
    dt = 0.05 if net.time_domain.kind == "continuous" else None
    h = dt or 1.0
    members = _mixed_members(len(window), h)
    scalar_only = [mem for mem in members if mem[1].values.ndim == 1]
    for batch in (members, scalar_only):
        runs = simulate_ensemble(net, window, batch, 12 * h, dt=dt)
        assert len(runs) == len(batch)
        for (x0, u), run in zip(batch, runs):
            _same_run(run, simulate(_reference(net), window, x0, u, 12 * h,
                                    dt=dt))
            _same_run(run, simulate(net, window, x0, u, 12 * h, dt=dt))


def _squaring_net():
    spec = SubsystemSpec("squaring", DISCRETE, lambda x, w, u: x * x + u)

    def fast_factory(window):
        return lambda x, uv: x * x + uv

    return NetworkSpec("squaring-net", DISCRETE, FiniteIndexSet((0, 1, 2)),
                       lambda i: spec, fast_factory=fast_factory)


def test_ensemble_blowup_is_per_member():
    # the member holding a 10 crosses 1e6 at step 3, the one holding a 3 at
    # step 4; stepped on, either row would overflow a few steps later,
    # which errstate turns into an error
    net = _squaring_net()
    members = [
        (np.array([0.5, -0.5, 0.25]), InputSignal.constant(0.1)),
        (np.array([10.0, 0.0, 0.0]), InputSignal.zero()),
        (np.array([0.1, 0.2, 3.0]), InputSignal.zero()),
        (0.5, InputSignal([0.0, 4.5], np.array([[0.0, 0.1, 0.2],
                                                [0.0, 0.0, -0.1]]))),
    ]
    with np.errstate(over="raise", invalid="raise"):
        runs = simulate_ensemble(net, (0, 1, 2), members, 30, blowup_bound=1e6)
        solo = [simulate(net, (0, 1, 2), x0, u, 30, blowup_bound=1e6)
                for x0, u in members]
        ref = [simulate(_reference(net), (0, 1, 2), x0, u, 30,
                        blowup_bound=1e6)
               for x0, u in members]
        both = simulate_ensemble(net, (0, 1, 2), members[1:3], 30,
                                 blowup_bound=1e6)
    assert [r.blowup is None for r in runs] == [True, False, False, True]
    assert runs[1].blowup.time == 3.0 and runs[2].blowup.time == 4.0
    assert len(runs[0].times) == 31 and len(runs[1].times) == 4
    for run, a, b in zip(runs, solo, ref):
        _same_run(run, a)
        _same_run(run, b)
    for run, a in zip(both, solo[1:3]):
        _same_run(run, a)


def test_ensemble_input_and_state_checks(counterexample):
    net, _ = counterexample
    window = net.window(4)
    assert simulate_ensemble(net, window, [], 1.0, dt=1e-2) == []
    bad_u = InputSignal([0.0], np.zeros((1, 3)))
    with pytest.raises(ValueError, match="vector input has dim"):
        simulate_ensemble(net, window, [(1.0, InputSignal.zero()), (1.0, bad_u)],
                          1.0, dt=1e-2)
    with pytest.raises(ValueError, match="x0"):
        simulate_ensemble(net, window, [(np.ones(3), InputSignal.zero())],
                          1.0, dt=1e-2)


# Trajectory accessors ---------------------------------------------------


def test_trajectory_accessors(chain):
    net, _ = chain
    window = net.window(4)
    traj = simulate(net, window, np.ones(4), InputSignal.zero(), 10)
    assert traj.sup_norms().shape == (11,)
    assert traj.sup_norms()[0] == 1.0
    assert traj.component_norms().shape == (11, 4)
    comp = traj.component(2)
    assert comp.values[0] == 1.0
    assert traj.value_at(2, 0.0) == 1.0
    sig = traj.neighbor_signal(0, (1,))
    assert sig.dim == 1


def test_trajectory_csv_format(tmp_path, two_cycle):
    net, _ = two_cycle
    traj = simulate(net, net.window(), np.array([1.0, 0.5]),
                    InputSignal.zero(), 3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,i,value"
    assert len(lines) == 1 + 4 * 2
    t, i, v = lines[1].split(",")
    assert float(t) == 0.0 and int(i) == 1 and float(v) == 1.0


# Truncation sweep -------------------------------------------------------


def test_truncation_sweep_counterexample(counterexample):
    net, _ = counterexample
    policy = TruncationPolicy((10, 50, 100))
    report = truncation_sweep(net, policy, lambda w: np.ones(len(w)),
                              InputSignal.zero(), 5.0, dt=1e-2)
    expect = [math.exp(-5.0 / n) for n in (10, 50, 100)]
    assert np.allclose(report.final_sups(), expect, atol=1e-7)
    assert report.drifts.shape == (2,)
    assert np.all(report.drifts > 0)


def test_truncation_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy((10, 10))
    with pytest.raises(ValueError):
        TruncationPolicy((5, 3))


# Subnetworks ------------------------------------------------------------


def test_subnetwork_exact_when_influences_are_internal(chain):
    net, _ = chain
    # influence flows from larger to smaller labels; a suffix window that
    # contains the root is closed under it
    subset = (4, 5, 6, 7)
    sub = subnetwork(net, subset)
    x0 = np.array([1.0, -0.5, 0.25, 2.0])
    u = InputSignal.constant(0.5)
    a = simulate(sub, subset, x0, u, 50)
    full = simulate(net, net.window(8),
                    np.concatenate([np.zeros(4), x0]), u, 50)
    assert np.array_equal(a.states, full.states[:, 4:])


def test_subnetwork_cuts_outside_influence(chain):
    net, _ = chain
    subset = (0, 1, 2)
    sub = subnetwork(net, subset)
    # with zero start and zero input nothing can excite the subnetwork
    traj = simulate(sub, subset, np.zeros(3), InputSignal.zero(), 20)
    assert np.all(traj.states == 0.0)
    full = simulate(net, net.window(5), np.array([0, 0, 0, 1.0, 1.0]),
                    InputSignal.zero(), 20)
    assert np.any(full.states[:, :3] != 0.0)


def test_subnetwork_restricts_graph(chain):
    net, _ = chain
    sub = subnetwork(net, (0, 1))
    assert sub.graph is not None
    row = sub.graph.row(1)
    assert 2 not in row


def test_subnetwork_rejects_foreign_labels(two_cycle):
    net, _ = two_cycle
    with pytest.raises(ValueError):
        subnetwork(net, (1, 9))


# Axioms on whole networks ----------------------------------------------


def test_network_axioms_discrete(two_cycle):
    net, _ = two_cycle
    report = check_axioms(NetworkSystem(net, net.window()),
                          n_samples=8, horizon=8.0)
    assert report.ok
    assert report.cocycle_defect == 0.0


def test_network_axioms_continuous(counterexample):
    net, _ = counterexample
    report = check_axioms(NetworkSystem(net, net.window(3), dt=1e-2),
                          n_samples=6, horizon=2.0)
    assert report.ok
    assert report.causality_defect < 1e-7


# Linearity of the linear catalog entries --------------------------------


@settings(max_examples=10, deadline=None)
@given(st.floats(0.1, 4.0))
def test_diffusive_flow_is_homogeneous(scale):
    from issnet.catalog import instantiate
    net, _ = instantiate("linear-diffusive-chain")
    window = net.window(6)
    x0 = np.linspace(-1.0, 1.0, len(window))
    a = simulate(net, window, x0, InputSignal.zero(), 0.5, dt=1e-2)
    b = simulate(net, window, scale * x0, InputSignal.zero(), 0.5, dt=1e-2)
    assert np.allclose(b.states, scale * a.states, rtol=1e-10, atol=1e-12)
