"""Signals, single-subsystem solvers, and the transition-axiom harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from issnet.systems import (
    BlowUp,
    InputSignal,
    SubsystemSpec,
    SubsystemSystem,
    check_axioms,
    continuous,
    DISCRETE,
    integrate_ode,
    step_discrete,
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
    assert u.sup_norm(up_to=1.0) == 1.0    # the later pieces start after 1
    assert u.sup_norm(up_to=1.5) == 5.0


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


def test_truncate_extends_by_zero():
    u = InputSignal.constant(4.0)
    t = u.truncate(1.0)
    assert t(0.5) == 4.0
    assert t(1.0) == 4.0
    assert t(1.5) == 0.0
    assert t.sup_norm() == 4.0


def test_truncate_at_zero_keeps_initial_value():
    u = InputSignal.constant(4.0)
    t = u.truncate(0.0)
    assert t(0.0) == 4.0
    assert t(0.5) == 0.0


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
    assert step_discrete(spec, 2.0, np.array([]), 1.0) == 2.0


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
    traj = integrate_ode(quad, 3.0, None, InputSignal.zero(), 2.0, 1e-3,
                         blowup_bound=1e6)
    assert traj.blowup is not None
    assert isinstance(traj.blowup, BlowUp)
    assert traj.blowup.value >= traj.blowup.bound
    assert traj.blowup.time <= 2.0
    # the healthy system stays below any sane bound
    ok = integrate_ode(spec, 1.0, None, InputSignal.zero(), 2.0, 1e-3)
    assert ok.blowup is None


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
