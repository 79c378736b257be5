"""Coupled simulation, truncation sweeps, and subnetwork restriction."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from issnet import network
from issnet.catalog import instantiate
from issnet.certify import tail_limsup_estimate
from issnet.gains import FiniteIndexSet
from issnet.network import (
    NetworkSpec,
    NetworkSystem,
    _simulate,
    simulate,
    simulate_ensemble,
    subnetwork,
    truncation_sweep,
    write_trajectory_csv,
)
from issnet.systems import (DISCRETE, InputSignal, SubsystemSpec,
                            _step_subsystem, check_axioms)


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


# round() used to run 0, 2, 2 and 4 steps for these
@pytest.mark.parametrize("horizon", [0.5, 1.5, 2.5, 3.5, float("inf")])
def test_discrete_horizon_must_be_whole(chain, horizon):
    net, _ = chain
    with pytest.raises(ValueError, match="horizon must be a whole number"):
        simulate(net, net.window(2), 1.0, InputSignal.zero(), horizon)


# round() used to pick the step count: 1.2 in steps of 0.6, 0.8 in 0.4
@pytest.mark.parametrize("dt", [0.6, 0.4])
def test_continuous_horizon_must_be_whole_dt_steps(dt):
    net, _ = instantiate("linear-diffusive-chain")
    with pytest.raises(ValueError, match="horizon must be a whole number of "
                                         f"dt = {dt} steps, got 1.0"):
        simulate(net, net.window(4), 1.0, InputSignal.zero(), 1.0, dt=dt)


def test_a_tail_start_within_1e9_of_a_sample_starts_there():
    # 0.55 * 50 is 27.500000000000004, and used to start one sample late
    net, _ = instantiate("linear-diffusive-chain")
    times = net.time_domain.grid(50.0, 1e-3)[0]
    start = 0.55 * 50.0
    assert start > times[27500] == 27.5
    assert network._tail_start_samples(times, [start, 27.5 + 2e-9]).tolist() \
        == [27500, 27501]
    values = np.arange(times.size, 0, -1.0)      # the sup from k is values[k]
    assert tail_limsup_estimate(times, values, [start])[0] == values[27500]


def test_vector_input_must_match_window(counterexample):
    net, _ = counterexample
    u = InputSignal([0.0], np.zeros((1, 3)))
    with pytest.raises(ValueError):
        simulate(net, net.window(4), 1.0, u, 1.0, dt=1e-2)


def test_blowup_truncates_trajectory():
    spec = SubsystemSpec("doubling", DISCRETE, lambda x, w, u: 2.0 * x)
    net = NetworkSpec("explosive", DISCRETE, FiniteIndexSet((0,)),
                      lambda i: spec)
    traj = simulate(net, (0,), np.array([1.0]), InputSignal.zero(), 100)
    assert traj.blowup is not None
    assert traj.blowup.value > 1e12
    assert traj.times[-1] == traj.blowup.time
    assert len(traj.times) < 101


def test_a_negative_blowup_reports_its_norm_on_both_paths():
    # x+ = -3x from -1 passes the bound at t = 26 with x = -3**26
    spec = SubsystemSpec("flipping", DISCRETE, lambda x, w, u: -3.0 * x)
    net = NetworkSpec("flipping", DISCRETE, FiniteIndexSet((0,)),
                      lambda i: spec)
    alone = _step_subsystem(spec, -1.0, None, InputSignal.zero(), 40, None)
    coupled = simulate(net, (0,), -1.0, InputSignal.zero(), 40)
    assert alone.values[-1] == -3.0 ** 26
    for blowup in (alone.blowup, coupled.blowup):
        assert (blowup.time, blowup.value) == (26.0, 3.0 ** 26)


@pytest.mark.parametrize("x0, norm", [(1e13, 1e13), (np.nan, np.nan),
                                      (np.inf, np.inf),
                                      ([1.0, -np.inf, 2.0], np.inf)])
def test_a_start_past_the_bound_ends_at_t0(counterexample, x0, norm):
    # the rule applies to the start sample: no step is taken, so neither
    # a NaN nor an inf start reaches the arithmetic
    net, _ = counterexample
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(net, 3, x0, InputSignal.zero(), 1.0, 0.1)
    assert np.array_equal(traj.times, [0.0])
    assert np.array_equal(traj.states, np.broadcast_to(x0, (1, 3)),
                          equal_nan=True)
    assert traj.blowup.time == 0.0
    assert np.array_equal(traj.blowup.value, norm, equal_nan=True)


def test_a_start_past_the_bound_ends_only_its_member(counterexample):
    net, _ = counterexample
    members = [(0.5, InputSignal.zero()), (1e13, InputSignal.zero()),
               (2.0, InputSignal.zero())]
    stepped = _simulate(net, 3, members, 1.0, 0.1, tail_starts=(0.0,))
    assert list(stepped.ends) == [11, 1, 11]
    assert [b is None for b in stepped.blowups] == [True, False, True]
    assert stepped.peaks[1] == 1e13
    assert np.all(stepped.tail_sups[1] == 1e13)
    assert np.all(stepped.tail_sups[[0, 2]] < 1e13)
    for j in (0, 2):
        solo = simulate(net, 3, members[j][0], InputSignal.zero(), 1.0, 0.1)
        assert np.array_equal(stepped.states[j], solo.states)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e13])
def test_one_bad_member_among_finite_ones_ends_alone(counterexample, bad):
    # one scalar test per sample passes only while every norm is finite
    # and within the bound; a NaN fails it like a large norm does
    net, _ = counterexample
    members = [(0.5, InputSignal.zero()), ([1.0, bad, 0.0], InputSignal.zero())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stepped = _simulate(net, 3, members, 1.0, 0.1)
    assert list(stepped.ends) == [11, 1]
    assert stepped.blowups[0] is None
    assert np.array_equal(stepped.blowups[1].value, abs(bad), equal_nan=True)


def test_a_window_without_neighbors_gathers_an_empty_block():
    gather = network._neighbor_gather((1, 2, 3), [(), (), ()])
    assert gather(np.ones((4, 3))).shape == (4, 3, 0)
    assert gather(np.ones(3)).shape == (3, 0)


# Fast path --------------------------------------------------------------


def _halving_net(with_fast):
    spec = SubsystemSpec("halving", DISCRETE, lambda x, w, u: 0.5 * x + u)

    def fast_factory(window):
        def f(x, w, uv):
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


# a window per entry with neighbors outside it inside the network, not
# only past its right edge; a window of one label has every neighbor
# outside it (on the diffusive chain's (0,) the neighbor block has one
# column where other windows have two)
GAPPED_WINDOWS = {
    "counterexample-chain": (1, 2, 4, 5, 9),
    "uniform-2-cycle": (2,),
    "nonuniform-discrete-chain": (0, 1, 3, 4, 8),
    "linear-diffusive-chain": (0, 1, 3, 4, 8),
}


@pytest.mark.parametrize("name", sorted(GAPPED_WINDOWS))
def test_ensemble_matches_solo_runs_bitwise(name):
    net, _ = instantiate(name)
    dt = 0.05 if net.time_domain.kind == "continuous" else None
    h = dt or 1.0
    first = net.window() if name == "uniform-2-cycle" else net.window(6)
    for window in (first, net.window(GAPPED_WINDOWS[name]), net.window(1)):
        members = _mixed_members(len(window), h)
        scalar_only = [mem for mem in members if mem[1].values.ndim == 1]
        for batch in (members, scalar_only):
            runs = simulate_ensemble(net, window, batch, 12 * h, dt=dt)
            assert len(runs) == len(batch)
            for (x0, u), run in zip(batch, runs):
                _same_run(run, simulate(_reference(net), window, x0, u,
                                        12 * h, dt=dt))
                _same_run(run, simulate(net, window, x0, u, 12 * h, dt=dt))


def _squaring_net():
    spec = SubsystemSpec("squaring", DISCRETE, lambda x, w, u: x * x + u)

    def fast_factory(window):
        return lambda x, w, uv: x * x + uv

    return NetworkSpec("squaring-net", DISCRETE, FiniteIndexSet((0, 1, 2)),
                       lambda i: spec, fast_factory=fast_factory)


def test_ensemble_blowup_is_per_member():
    # the member holding a 10 crosses 1e12 at step 4, the one holding a 3
    # at step 5; stepped on, either row would overflow a few steps later,
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
        runs = simulate_ensemble(net, (0, 1, 2), members, 30)
        solo = [simulate(net, (0, 1, 2), x0, u, 30) for x0, u in members]
        ref = [simulate(_reference(net), (0, 1, 2), x0, u, 30)
               for x0, u in members]
        both = simulate_ensemble(net, (0, 1, 2), members[1:3], 30)
    assert [r.blowup is None for r in runs] == [True, False, False, True]
    assert runs[1].blowup.time == 4.0 and runs[2].blowup.time == 5.0
    assert len(runs[0].times) == 31 and len(runs[1].times) == 5
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


# One stepping loop ------------------------------------------------------


@pytest.mark.parametrize("name, size", [("uniform-2-cycle", None),
                                        ("nonuniform-discrete-chain", 6)])
@pytest.mark.parametrize("assembled", [False, True], ids=["fast", "assembled"])
def test_component_equals_its_subsystem_on_the_recorded_neighbors(
        name, size, assembled):
    net, _ = instantiate(name)
    if assembled:
        net = _reference(net)
    window = net.window(size)
    x0 = np.linspace(-0.9, 0.8, len(window))
    u = InputSignal([0.0, 4.0, 9.0, 13.0], [0.3, -0.6, 0.15, 0.0])
    traj = simulate(net, window, x0, u, 20)
    for c, i in enumerate(window):
        spec = net.subsystem_fn(i)
        alone = _step_subsystem(spec, x0[c],
                                traj.neighbor_signal(spec.neighbors),
                                u, 20, None)
        assert alone.blowup is None
        assert np.array_equal(alone.times, traj.times)
        assert np.array_equal(alone.values, traj.states[:, c])


# Trajectory accessors ---------------------------------------------------


def test_trajectory_accessors(chain):
    net, _ = chain
    window = net.window(4)
    traj = simulate(net, window, np.ones(4), InputSignal.zero(), 10)
    assert traj.sup_norms().shape == (11,)
    assert traj.sup_norms()[0] == 1.0
    comp = traj.component(2)
    assert comp.values[0] == 1.0
    assert traj.value_at(2, 0.0) == 1.0
    sig = traj.neighbor_signal((1,))
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
    report = truncation_sweep(net, (10, 50, 100), 1.0, InputSignal.zero(),
                              5.0, dt=1e-2)
    expect = [math.exp(-5.0 / n) for n in (10, 50, 100)]
    assert np.allclose(report.final_sups(), expect, atol=1e-7)
    assert report.drifts.shape == (2,)
    assert np.all(report.drifts > 0)


def test_truncation_sweep_broadcasts_its_start(counterexample):
    # the start value is broadcast to each window: the sweep equals, bit
    # for bit, per-window runs from a vector of that value
    net, _ = counterexample
    u = InputSignal.constant(0.3)
    report = truncation_sweep(net, (3, 7, 12), 0.7, u, 2.0, dt=1e-2)
    assert report.sizes == (3, 7, 12)
    for n, curve in zip(report.sizes, report.sup_curves):
        traj = simulate(net, net.window(n), np.full(n, 0.7), u, 2.0, dt=1e-2)
        assert np.array_equal(curve, traj.sup_norms())
        assert np.array_equal(report.times, traj.times)


def test_truncation_sweep_sizes_must_increase(counterexample):
    for sizes in [(), (10, 10), (5, 3)]:
        with pytest.raises(ValueError,
                           match="nonempty and strictly increasing"):
            truncation_sweep(counterexample[0], sizes, 1.0,
                             InputSignal.zero(), 1.0, dt=1e-2)


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
