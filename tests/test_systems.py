"""Signals, single-subsystem solvers, and the transition-axiom harness."""

import ast
import math
import pathlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import issnet
from issnet.gains import FiniteIndexSet
from issnet.network import NetworkSpec, NetworkSystem, simulate
from issnet.systems import (
    BlowUp,
    InputSignal,
    SubsystemSpec,
    SubsystemSystem,
    TimeDomain,
    check_axioms,
    continuous,
    DISCRETE,
    DEFAULT_AXIOM_DT,
    _axiom_dt,
    _step_subsystem,
    integrate_ode,
)


# Signals ----------------------------------------------------------------


def test_signal_pieces_are_left_open_right_closed():
    u = InputSignal([0.0, 1.0], [3.0, 7.0])
    assert u(0.0) == 3.0
    assert u(0.5) == 3.0
    assert u(1.0) == 3.0       # the break itself still belongs to piece 0
    assert u(1.0 + 1e-12) == 7.0
    assert u(5.0) == 7.0


def test_signal_validation():
    with pytest.raises(ValueError):
        InputSignal([1.0, 2.0], [0.0, 0.0])       # must start at 0
    with pytest.raises(ValueError):
        InputSignal([0.0, 2.0, 1.0], [0.0, 0.0, 0.0])
    for breaks in ([0.0, 0.0], [0.0, 1.0, 1.0]):    # strictly increasing
        with pytest.raises(ValueError, match="strictly increasing"):
            InputSignal(breaks, np.zeros(len(breaks)))
    with pytest.raises(ValueError):
        InputSignal([0.0], [np.inf])
    with pytest.raises(ValueError):
        InputSignal([0.0, 1.0], [1.0])            # one value per piece


def test_signal_negative_time_rejected():
    u = InputSignal.constant(1.0)
    with pytest.raises(ValueError):
        u(-0.5)


def test_constant_and_zero():
    assert InputSignal.constant(2.5)(13.0) == 2.5
    assert InputSignal.zero()(4.0) == 0.0
    z = InputSignal.zero(dim=3)
    assert z.dim == 3
    assert np.all(z(1.0) == 0.0)


def test_sup_norm_respects_horizon():
    u = InputSignal([0.0, 1.0, 2.0], [1.0, -5.0, 2.0])
    assert u.sup_norm() == 5.0


def test_shift_drops_earlier_pieces():
    u = InputSignal([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    s = u.shift(1.5)
    assert s(0.25) == 2.0
    assert s(0.5) == 2.0
    assert s(0.75) == 3.0


def test_concat_splices_exactly():
    u = InputSignal([0.0, 1.0], [1.0, 2.0])
    v = InputSignal.constant(9.0)
    w = u.concat(v, 2.0)
    assert w(1.5) == 2.0
    assert w(2.0) == 2.0       # closed on the left segment
    assert w(2.5) == 9.0


def test_step_value_uses_interior():
    u = InputSignal([0.0, 1.0], [1.0, 2.0])
    assert u.interior_values(1.0, 2.0) == 2.0
    assert u.interior_values(0.0, 1.0) == 1.0


def test_interior_values_match_pointwise_steps():
    u = InputSignal([0.0, 0.3, 1.0], [[1.0, -1.0], [2.0, 0.5], [-3.0, 4.0]])
    t0s = 0.1 * np.arange(15)
    vals = u.interior_values(t0s, t0s + 0.1)
    assert vals.shape == (15, 2)
    for k, t0 in enumerate(t0s):
        assert np.array_equal(vals[k], u.interior_values(t0, t0 + 0.1))
    assert u.interior_values(np.zeros(0), np.zeros(0)).shape == (0, 2)
    with pytest.raises(ValueError, match="positive length"):
        u.interior_values(t0s, t0s)
    with pytest.raises(ValueError, match="t >= 0"):
        u.interior_values([-2.0, 0.0], [-1.0, 1.0])


def test_signal_json_round_trip():
    u = InputSignal([0.0, 0.5, 2.0], [[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
    back = InputSignal.from_json(u.to_json())
    assert back == u


@given(st.floats(0.0, 3.0), st.floats(0.01, 2.0))
def test_shift_then_eval_matches_interior(t, tau):
    u = InputSignal([0.0, 1.0, 2.0], [1.0, -2.0, 4.0])
    interior = t + tau
    if any(abs(interior - b) < 1e-9 for b in (0.0, 1.0, 2.0)):
        return
    assert u.shift(tau)(t) == u(interior)


# Solvers ----------------------------------------------------------------


def _decay_spec(kind):
    return SubsystemSpec(
        name="decay",
        time_domain=kind,
        dynamics=lambda x, w, u: -x if kind.kind == "continuous" else 0.5 * x + u,
        neighbors=(),
        expression="internal",
    )


def test_discrete_step():
    spec = _decay_spec(DISCRETE)
    assert SubsystemSystem(spec).phi(1.0, 2.0, InputSignal.constant(1.0)) == 2.0


def test_ode_matches_exponential():
    spec = _decay_spec(continuous(1e-3))
    traj = integrate_ode(spec, 1.0, None, InputSignal.zero(), 1.0, 1e-3)
    assert traj.values[-1] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_ode_fourth_order_convergence():
    spec = _decay_spec(continuous())
    exact = math.exp(-1.0)
    errs = []
    for dt in (0.2, 0.1):
        traj = integrate_ode(spec, 1.0, None, InputSignal.zero(), 1.0, dt)
        errs.append(abs(traj.values[-1] - exact))
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0


def test_trajectory_lookup():
    spec = _decay_spec(continuous(0.25))
    traj = integrate_ode(spec, 1.0, None, InputSignal.zero(), 1.0, 0.25)
    assert traj.at(0.0) == 1.0
    assert traj.at(0.5) == traj.values[2]
    with pytest.raises(KeyError):
        traj.at(0.123)


def test_blowup_detection():
    spec = SubsystemSpec(
        name="doubling",
        time_domain=DISCRETE,
        dynamics=lambda x, w, u: 2.0 * x,
        neighbors=(),
        expression="internal",
    )
    sys = SubsystemSystem(spec)
    with pytest.raises(ArithmeticError):
        sys.phi(200.0, 1.0, InputSignal.zero())


def test_blowup_record_fields():
    spec = _decay_spec(continuous())

    quad = SubsystemSpec(
        name="quadratic",
        time_domain=continuous(1e-3),
        dynamics=lambda x, w, u: x * x,
        neighbors=(),
        expression="internal",
    )
    traj = integrate_ode(quad, 3.0, None, InputSignal.zero(), 2.0, 1e-3)
    assert traj.blowup is not None
    assert isinstance(traj.blowup, BlowUp)
    assert traj.blowup.value >= traj.blowup.bound
    assert traj.blowup.time <= 2.0
    # the healthy system stays below any sane bound
    ok = integrate_ode(spec, 1.0, None, InputSignal.zero(), 2.0, 1e-3)
    assert ok.blowup is None


@pytest.mark.parametrize("x0", [1e13, -1e13, math.inf, math.nan])
def test_integrate_ode_ends_a_start_past_the_bound_at_t0(x0):
    spec = _decay_spec(continuous())
    traj = integrate_ode(spec, x0, None, InputSignal.zero(), 1.0, 0.1)
    assert np.array_equal(traj.times, [0.0])
    assert np.array_equal(traj.values, [x0], equal_nan=True)
    assert traj.blowup.time == 0.0
    assert np.array_equal(traj.blowup.value, abs(x0), equal_nan=True)


# The loops the subsystem stepper replaced, kept as references -----------


def _reference_ode(spec, x0, w, u, horizon, dt):
    """integrate_ode's own RK4 loop: (times, values, blow-up or None)."""
    n = int(round(horizon / dt))
    zeros_w = np.zeros(len(spec.neighbors))
    times = dt * np.arange(n + 1)
    t0s = times[:-1]
    us = u.interior_values(t0s, t0s + dt)
    ws = None if w is None else w.interior_values(t0s, t0s + dt)
    vals = np.empty(n + 1)
    vals[0] = x = float(x0)
    f = spec.dynamics
    for k in range(n):
        wk = zeros_w if ws is None else np.atleast_1d(ws[k])
        uk = float(us[k])
        k1 = f(x, wk, uk)
        k2 = f(x + 0.5 * dt * k1, wk, uk)
        k3 = f(x + 0.5 * dt * k2, wk, uk)
        k4 = f(x + dt * k3, wk, uk)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        vals[k + 1] = x
        if not np.isfinite(x) or abs(x) > 1e12:
            return times[:k + 2], vals[:k + 2], (float(times[k + 1]), float(x))
    return times, vals, None


def _reference_discrete(spec, x, w, u, t):
    """SubsystemSystem.phi's own discrete loop, recording every state:
    (times, values, blow-up or None)."""
    steps = int(round(t))
    xs = float(x)
    t0s = np.arange(steps, dtype=float)
    us = u.interior_values(t0s, t0s + 1.0)
    ws = None if w is None else w.interior_values(t0s, t0s + 1.0)
    nw = len(spec.neighbors)
    vals = [xs]
    for k in range(steps):
        wk = np.zeros(nw) if ws is None else np.atleast_1d(ws[k])
        xs = float(spec.dynamics(float(xs), np.asarray(wk, float),
                                 float(us[k])))
        vals.append(xs)
        if not np.isfinite(xs) or abs(xs) > 1e12:
            return (np.arange(k + 2, dtype=float), np.array(vals),
                    (float(k + 1), xs))
    return np.arange(steps + 1, dtype=float), np.array(vals), None


def _coupled_spec(kind):
    """A subsystem reading two neighbor channels nonlinearly."""
    if kind.kind == "discrete":
        def dyn(x, w, u):
            return 0.5 * math.sin(x) + 0.3 * w[0] * w[1] - 0.2 * w[1] + u
    else:
        def dyn(x, w, u):
            return -x + 0.4 * math.tanh(w[0]) - 0.1 * w[1] * x + u
    return SubsystemSpec("coupled", kind, dyn, neighbors=(4, 7))


def _signals(h):
    """(u, w) pairs whose breaks lie on the step grid, off it, or both."""
    on_grid = h * np.array([0.0, 3.0, 7.0])
    off_grid = h * np.array([0.0, 2.5, 8.3])
    rng = np.random.default_rng(11)
    return [
        (InputSignal.zero(), None),
        (InputSignal(on_grid, [0.3, -0.2, 0.7]),
         InputSignal(on_grid, rng.uniform(-1, 1, (3, 2)))),
        (InputSignal(off_grid, rng.uniform(-1, 1, 3)),
         InputSignal(off_grid, rng.uniform(-1, 1, (3, 2)))),
        (InputSignal(on_grid, rng.uniform(-1, 1, 3)),
         InputSignal(off_grid, rng.uniform(-1, 1, (3, 2)))),
    ]


def _assert_same(traj, ref):
    times, vals, blowup = ref
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.values, vals)
    if blowup is None:
        assert traj.blowup is None
    else:
        assert (traj.blowup.time, traj.blowup.value) == blowup


@pytest.mark.parametrize("case", range(4))
def test_stepper_matches_the_discrete_loop_bitwise(case):
    spec = _coupled_spec(DISCRETE)
    u, w = _signals(1.0)[case]
    ref = _reference_discrete(spec, 0.8, w, u, 40.0)
    _assert_same(_step_subsystem(spec, 0.8, w, u, 40, None), ref)
    assert SubsystemSystem(spec, w).phi(40.0, 0.8, u) == ref[1][-1]


@pytest.mark.parametrize("case", range(4))
def test_stepper_matches_the_ode_loop_bitwise(case):
    # at this step a reordered RK4 combination already changes the bits
    spec = _coupled_spec(continuous())
    dt = 0.1
    u, w = _signals(dt)[case]
    ref = _reference_ode(spec, 0.8, w, u, 40 * dt, dt)
    _assert_same(integrate_ode(spec, 0.8, w, u, 40 * dt, dt), ref)
    assert SubsystemSystem(spec, w, dt).phi(40 * dt, 0.8, u) == ref[1][-1]


def test_stepper_matches_the_loops_at_a_blowup():
    u, w = _signals(1.0)[2]
    grow = SubsystemSpec("grow", DISCRETE,
                         lambda x, w, u: 3.0 * x + w[0] + u, neighbors=(1,))
    w1 = InputSignal(w.breaks, w.values[:, :1])
    ref = _reference_discrete(grow, 1.0, w1, u, 60.0)
    assert ref[2] is not None
    _assert_same(_step_subsystem(grow, 1.0, w1, u, 60, None), ref)
    with pytest.raises(ArithmeticError):
        SubsystemSystem(grow, w1).phi(60.0, 1.0, u)

    quad = SubsystemSpec("quad", continuous(),
                         lambda x, w, u: x * x + w[0] + u, neighbors=(1,))
    dt = 1e-2
    u, w = _signals(dt)[2]
    w1 = InputSignal(w.breaks, w.values[:, :1])
    ref = _reference_ode(quad, 3.0, w1, u, 2.0, dt)
    assert ref[2] is not None
    _assert_same(integrate_ode(quad, 3.0, w1, u, 2.0, dt), ref)
    with pytest.raises(ArithmeticError):
        SubsystemSystem(quad, w1, dt).phi(2.0, 3.0, u)


def test_w_needs_one_channel_per_neighbor():
    spec = _coupled_spec(DISCRETE)            # two neighbors
    u = InputSignal.zero()
    for w in (InputSignal.zero(), InputSignal.zero(dim=3)):
        with pytest.raises(ValueError, match="channels"):
            _step_subsystem(spec, 0.5, w, u, 5, None)
        with pytest.raises(ValueError, match="channels"):
            SubsystemSystem(spec, w).phi(5.0, 0.5, u)
    grow = SubsystemSpec("grow", DISCRETE, lambda x, w, u: x + w[0],
                         neighbors=(1,))
    scalar = _step_subsystem(grow, 0.0, InputSignal.constant(1.0), u, 3, None)
    assert list(scalar.values) == [0.0, 1.0, 2.0, 3.0]


def test_array_valued_dynamics_fail_alike_on_both_paths():
    spec = SubsystemSpec("pair", DISCRETE,
                         lambda x, w, u: np.array([x, x]))
    net = NetworkSpec("pair", DISCRETE, FiniteIndexSet((0,)), lambda i: spec)
    for run in (lambda: _step_subsystem(spec, 1.0, None, InputSignal.zero(),
                                        3, None),
                lambda: simulate(net, (0,), 1.0, InputSignal.zero(), 3)):
        with pytest.raises(ValueError, match="sequence"):
            run()


def test_a_dt_on_a_discrete_domain_is_an_error():
    with pytest.raises(ValueError, match="^dt"):
        TimeDomain("discrete", 0.5)
    with pytest.raises(ValueError, match="^dt"):
        DISCRETE.grid(3, 1.0)
    with pytest.raises(ValueError, match="^horizon"):     # checked first
        DISCRETE.grid(2.5, 1.0)
    assert DISCRETE.grid(3)[1] == 1.0
    assert _axiom_dt(DISCRETE, None) is None
    assert _axiom_dt(continuous(), None) == DEFAULT_AXIOM_DT
    assert _axiom_dt(continuous(0.25), None) == 0.25
    spec = _decay_spec(DISCRETE)
    with pytest.raises(ValueError, match="^dt"):
        _step_subsystem(spec, 1.0, None, InputSignal.zero(), 3, 1.0)
    with pytest.raises(ValueError, match="^dt"):
        SubsystemSystem(spec, dt=1.0).phi(3.0, 1.0, InputSignal.zero())
    net = NetworkSpec("decay", DISCRETE, FiniteIndexSet((0,)), lambda i: spec)
    with pytest.raises(ValueError, match="^dt"):
        NetworkSystem(net, (0,), dt=1.0).phi(3.0, np.ones(1),
                                             InputSignal.zero())


def test_a_continuous_horizon_must_be_a_whole_number_of_steps():
    # round() used to pick the step count: horizon 1 ran to 1.2 in steps
    # of 0.6 and stopped at 0.8 in steps of 0.4, and inf overflowed
    for horizon, dt in ((1.0, 0.6), (1.0, 0.4), (math.inf, 0.1)):
        with pytest.raises(ValueError, match="^horizon"):
            continuous().grid(horizon, dt)
    times, h = continuous().grid(240.0, 0.1)   # 2400 steps, off by rounding
    assert (times.size, h) == (2401, 0.1)
    assert abs(times[-1] - 240.0) <= 1e-9 * 240.0
    assert continuous(0.25).grid(1.0)[0][-1] == 1.0
    spec = _decay_spec(continuous())
    with pytest.raises(ValueError, match="^horizon"):
        integrate_ode(spec, 1.0, None, InputSignal.zero(), 1.0, 0.3)
    # check_axioms steps its horizon with the system's own dt
    with pytest.raises(ValueError, match="^horizon"):
        check_axioms(SubsystemSystem(spec, dt=0.3), n_samples=1, horizon=2.0)
    assert check_axioms(SubsystemSystem(spec, dt=0.25), n_samples=1,
                        horizon=2.0).ok


# only the stepping loop records a blow-up, so both paths share its rule
@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(issnet.__path__)
    if m.name != "systems"))
def test_only_systems_constructs_blowup(name):
    path = pathlib.Path(issnet.__file__).parent / f"{name}.py"
    calls = [f"{ast.unparse(node)} (line {node.lineno})"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "BlowUp"
                  or getattr(node.func, "attr", None) == "BlowUp")]
    assert calls == []


@pytest.mark.parametrize("kind, dt, t", [
    (DISCRETE, None, -1.0),
    (continuous(), 0.1, -1.0),
    (continuous(), 0.0, 1.0),
], ids=["discrete-negative-t", "continuous-negative-t", "zero-dt"])
def test_phi_needs_a_nonnegative_time_and_a_positive_step(kind, dt, t):
    with pytest.raises(ValueError):
        SubsystemSystem(_coupled_spec(kind), dt=dt).phi(t, 0.5,
                                                        InputSignal.zero())


# Axiom harness ----------------------------------------------------------


def test_axioms_discrete_subsystem():
    report = check_axioms(SubsystemSystem(_decay_spec(DISCRETE)),
                          n_samples=10, horizon=8.0)
    assert report.ok
    assert report.identity_defect == 0.0
    assert report.cocycle_defect == 0.0
    assert report.cocycle_tol == 0.0


def test_axioms_continuous_subsystem():
    report = check_axioms(SubsystemSystem(_decay_spec(continuous(1e-2))),
                          n_samples=10, horizon=2.0)
    assert report.ok
    assert report.identity_defect == 0.0
    assert report.causality_defect < 1e-7
    assert report.continuity_checked


def test_axioms_flag_broken_causality():
    class Peeking:
        """Reads the input beyond the current time: not causal."""

        def __init__(self):
            self.time_domain = DISCRETE

        def phi(self, t, x, u):
            return x + u(t + 3.0)

        def shifted(self, tau):
            return self

        def sample_state(self, rng, radius):
            return float(rng.uniform(-radius, radius))

    report = check_axioms(Peeking(), n_samples=20, horizon=6.0)
    assert not report.ok
    assert any("causality" in f for f in report.failures)


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.integers(1, 6))
def test_discrete_cocycle_exact(x0, split):
    spec = _decay_spec(DISCRETE)
    sys = SubsystemSystem(spec)
    u = InputSignal([0.0, 3.0], [0.5, -0.25])
    direct = sys.phi(8.0, x0, u)
    xt = sys.phi(float(split), x0, u)
    rest = sys.shifted(float(split)).phi(8.0 - split, xt, u.shift(float(split)))
    assert direct == rest
