"""Subsystem abstraction: signals, dynamics, integration, and system axioms.

Input signals are piecewise constant.  Pieces are left-open right-closed,
(b_k, b_{k+1}], with u(0) defined as the first value; a value change at a
breakpoint therefore takes effect immediately after it.  This convention
realizes causal truncation on the closed interval [0, t] exactly on the
representation (the value at the splice time is retained; truncation at 0
keeps the single point value through a duplicated leading breakpoint).
Steppers and integrators read the interior value of each step, so a signal
break aligned with the step grid switches cleanly at that step.

A time domain owns its step rule: TimeDomain.grid gives the sample times
and the step of a run (unit steps when discrete, dt when continuous) and
TimeDomain.stepper the update (the synchronous map when discrete, a
classical fixed-step RK4 step when continuous), inputs held left-constant
over each step.  The one subsystem stepper, run by integrate_ode and the
axiom adapter SubsystemSystem, and the network simulator both use them.
Trajectories that exceed the blow-up bound are truncated and flagged
instead of poisoning later arithmetic with infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rng import derived_rng

__all__ = [
    "TimeDomain",
    "DISCRETE",
    "continuous",
    "InputSignal",
    "SubsystemSpec",
    "Trajectory",
    "BlowUp",
    "integrate_ode",
    "check_axioms",
    "AxiomReport",
    "SubsystemSystem",
    "DEFAULT_BLOWUP_BOUND",
]

DEFAULT_BLOWUP_BOUND = 1e12


@dataclass(frozen=True)
class TimeDomain:
    kind: str                 # "discrete" | "continuous"
    dt: float | None = None   # default integrator step for continuous systems

    def __post_init__(self):
        if self.kind not in ("discrete", "continuous"):
            raise ValueError("time domain kind must be 'discrete' or 'continuous'")
        if self.kind == "continuous" and self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")

    def grid(self, horizon: float, dt: float | None = None):
        """(times, h): the sample times 0, h, ..., n*h of a run over
        ``horizon`` and its step h, 1 when discrete (the horizon counts
        steps), dt or else the domain's own dt when continuous, with
        n = round(horizon / h)."""
        if not horizon >= 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
        if self.kind == "discrete":
            return np.arange(int(round(horizon)) + 1, dtype=float), 1.0
        if dt is None:
            dt = self.dt
        if dt is None or dt <= 0:
            raise ValueError("continuous simulation needs dt > 0")
        return dt * np.arange(int(round(horizon / dt)) + 1), dt

    def stepper(self, f, h: float):
        """One step of length h of the dynamics f(x, *args): the update f
        itself when discrete, an RK4 step of x' = f when continuous."""
        if self.kind == "discrete":
            return f
        return lambda x, *args: _rk4_step(f, x, h, *args)


DISCRETE = TimeDomain("discrete")


def continuous(dt: float | None = None) -> TimeDomain:
    return TimeDomain("continuous", dt)


class InputSignal:
    """Piecewise-constant signal on [0, inf).

    values may be scalars (shape (n,)) or vectors (shape (n, d)).  The sup
    norm is the max absolute entry over all pieces, matching the signal
    space norm used by the stability estimates.
    """

    def __init__(self, breaks, values):
        b = np.asarray(breaks, dtype=float)
        v = np.asarray(values, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("breaks must be a nonempty 1-d array")
        if b[0] != 0.0:
            raise ValueError("the first breakpoint must be 0")
        if np.any(np.diff(b) < 0):
            raise ValueError("breakpoints must be nondecreasing")
        # at most one duplicated pair, produced by truncation at a point
        if np.any(np.diff(b) == 0) and np.count_nonzero(np.diff(b) == 0) > 1:
            raise ValueError("only a single duplicated breakpoint is representable")
        if v.shape[0] != b.size:
            raise ValueError("one value per piece required")
        if np.any(~np.isfinite(v)):
            raise ValueError("signal values must be finite")
        self.breaks = b
        self.values = v

    # Constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "InputSignal":
        v = np.asarray(value, dtype=float)
        return cls(np.array([0.0]), v[None] if v.ndim else np.array([float(v)]))

    @classmethod
    def zero(cls, dim: int | None = None) -> "InputSignal":
        if dim is None:
            return cls(np.array([0.0]), np.array([0.0]))
        return cls(np.array([0.0]), np.zeros((1, dim)))

    @classmethod
    def from_samples(cls, times, samples) -> "InputSignal":
        """Trajectory samples as a held signal: value samples[k] on
        (times[k], times[k+1]] and at 0."""
        return cls(np.asarray(times, float), np.asarray(samples, float))

    # Evaluation ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    def _piece_index(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("signals are defined for t >= 0")
        idx = np.searchsorted(self.breaks, t, side="left") - 1
        return np.clip(idx, 0, self.breaks.size - 1)

    def __call__(self, t):
        idx = self._piece_index(t)
        return self.values[idx]

    def interior_values(self, t0s, t1s):
        """Values on the interiors of the steps [t0s[k], t1s[k]), one
        evaluation for the whole step grid."""
        t0s = np.asarray(t0s, dtype=float)
        t1s = np.asarray(t1s, dtype=float)
        if not np.all(t1s > t0s):
            raise ValueError("step must have positive length")
        return self(0.5 * (t0s + t1s))

    def sup_norm(self, up_to: float | None = None) -> float:
        if up_to is None:
            vals = self.values
        else:
            if up_to < 0:
                raise ValueError("horizon must be >= 0")
            last = int(np.searchsorted(self.breaks, up_to, side="left"))
            vals = self.values[:max(1, last)]
        return float(np.max(np.abs(vals))) if vals.size else 0.0

    # Operations ---------------------------------------------------------

    def shift(self, tau: float) -> "InputSignal":
        """Left shift u(. + tau)."""
        if tau < 0:
            raise ValueError("shift must be >= 0")
        if tau == 0.0:
            return InputSignal(self.breaks.copy(), self.values.copy())
        k0 = int(np.searchsorted(self.breaks, tau, side="right")) - 1
        k0 = min(max(k0, 0), self.breaks.size - 1)
        later = self.breaks[k0 + 1:] - tau
        breaks = np.concatenate([[0.0], later])
        values = self.values[k0:]
        return InputSignal(breaks, values)

    def concat(self, other: "InputSignal", t: float) -> "InputSignal":
        """This signal on the closed interval [0, t], then other(. - t)."""
        if t <= 0:
            raise ValueError("concatenation time must be positive")
        if self.dim != other.dim:
            raise ValueError("signals must share a dimension")
        keep = self.breaks < t
        breaks = np.concatenate([self.breaks[keep], other.breaks + t])
        values = np.concatenate([self.values[keep], other.values])
        return InputSignal(breaks, values)

    def truncate(self, t: float) -> "InputSignal":
        """Restriction to [0, t] extended by zero after t."""
        if t < 0:
            raise ValueError("truncation time must be >= 0")
        zero = np.zeros((1,) + self.values.shape[1:])
        if t == 0.0:
            # degenerate closed interval {0}: duplicated leading breakpoint
            first = self.values[:1]
            if np.all(first == 0.0):
                return InputSignal(np.array([0.0]), zero)
            return InputSignal(np.array([0.0, 0.0]), np.concatenate([first, zero]))
        keep = self.breaks < t
        breaks = np.concatenate([self.breaks[keep], [t]])
        values = np.concatenate([self.values[keep], zero])
        return InputSignal(breaks, values)

    def __eq__(self, other):
        return (isinstance(other, InputSignal)
                and self.breaks.shape == other.breaks.shape
                and self.values.shape == other.values.shape
                and bool(np.all(self.breaks == other.breaks))
                and bool(np.all(self.values == other.values)))

    def __repr__(self):
        return f"InputSignal({self.breaks.size} pieces, dim {self.dim})"

    def to_json(self) -> dict:
        return {"breaks": [float(b) for b in self.breaks],
                "values": self.values.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "InputSignal":
        return cls(np.asarray(obj["breaks"], float), np.asarray(obj["values"], float))


@dataclass(frozen=True)
class SubsystemSpec:
    """One scalar subsystem.

    dynamics(x, w, u) -> dx/dt (continuous) or next state (discrete), where
    w is the vector of neighbor states ordered like ``neighbors`` (zeros for
    neighbors outside the simulated window) and u is the scalar external
    input channel.
    """

    name: str
    time_domain: TimeDomain
    dynamics: Callable[[float, np.ndarray, float], float]
    neighbors: tuple[int, ...] = ()
    expression: str | None = None

    def __post_init__(self):
        if len(set(self.neighbors)) != len(self.neighbors):
            raise ValueError("neighbor list has duplicates")


@dataclass(frozen=True)
class BlowUp:
    time: float
    value: float
    bound: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    values: np.ndarray
    blowup: BlowUp | None = None

    def __post_init__(self):
        t = np.asarray(self.times, float)
        v = np.asarray(self.values, float)
        if t.shape != v.shape:
            raise ValueError("times and values must align")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def norms(self) -> np.ndarray:
        return np.abs(self.values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def at(self, t: float) -> float:
        return float(self.values[_grid_index(self.times, t)])


def _grid_index(times: np.ndarray, t: float) -> int:
    """Index of the sample time within 1e-9 of t; KeyError if none is."""
    k = int(np.searchsorted(times, t))
    for kk in (k - 1, k):
        if 0 <= kk < times.size and math.isclose(times[kk], t,
                                                 rel_tol=0.0, abs_tol=1e-9):
            return kk
    raise KeyError(f"time {t} is not on the trajectory grid")


def _rk4_step(f, x, h, *args):
    """One classical RK4 step of x' = f(x, *args), the args held over it."""
    k1 = f(x, *args)
    k2 = f(x + 0.5 * h * k1, *args)
    k3 = f(x + 0.5 * h * k2, *args)
    k4 = f(x + h * k3, *args)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_subsystem(spec: SubsystemSpec, x0: float, w: InputSignal | None,
                    u: InputSignal, horizon: float, dt: float | None,
                    blowup_bound: float) -> Trajectory:
    """The one subsystem stepper: the domain's steps over ``horizon`` from x0.

    Each step reads its interior value of u and of w (None means zero
    neighbor signals).  A state that is not finite or exceeds the blow-up
    bound ends the trajectory there.
    """
    times, h = spec.time_domain.grid(horizon, dt)
    t0s = times[:-1]
    us = u.interior_values(t0s, t0s + h)
    ws = None if w is None else w.interior_values(t0s, t0s + h)
    zeros_w = np.zeros(len(spec.neighbors))
    update = spec.time_domain.stepper(spec.dynamics, h)
    vals = np.empty(times.size)
    vals[0] = x = float(x0)
    for k in range(t0s.size):
        wk = zeros_w if ws is None else np.atleast_1d(ws[k])
        x = update(x, wk, float(us[k]))
        vals[k + 1] = x
        if not np.isfinite(x) or abs(x) > blowup_bound:
            return Trajectory(times[:k + 2], vals[:k + 2],
                              BlowUp(float(times[k + 1]), float(x), blowup_bound))
    return Trajectory(times, vals)


def integrate_ode(spec: SubsystemSpec, x0: float, w: InputSignal | None,
                  u: InputSignal, horizon: float, dt: float,
                  blowup_bound: float = DEFAULT_BLOWUP_BOUND) -> Trajectory:
    """Classical RK4 with fixed step dt and left-constant input sampling.

    w feeds the neighbor channels (vector signal ordered like
    spec.neighbors; None means no neighbors or all zero).  The trajectory is
    sampled at 0, dt, ..., n*dt with n = round(horizon/dt).
    """
    if spec.time_domain.kind != "continuous":
        raise ValueError("integrate_ode needs a continuous-time spec")
    return _step_subsystem(spec, x0, w, u, horizon, dt, blowup_bound)


# Axiom harness ----------------------------------------------------------


class SubsystemSystem:
    """Adapter exposing one subsystem (with a frozen internal signal) as a
    transition system phi(t, x, u) for the axiom harness."""

    def __init__(self, spec: SubsystemSpec, w: InputSignal | None = None,
                 dt: float | None = None):
        self.spec = spec
        self.w = w
        self.time_domain = spec.time_domain
        self.dt = dt if dt is not None else (spec.time_domain.dt or 1e-3)

    def phi(self, t: float, x: float, u: InputSignal) -> float:
        traj = _step_subsystem(self.spec, x, self.w, u, t, self.dt,
                               DEFAULT_BLOWUP_BOUND)
        if traj.blowup is not None:
            raise ArithmeticError("trajectory blew up during axiom checking")
        return float(traj.values[-1])

    def shifted(self, tau: float) -> "SubsystemSystem":
        w = self.w.shift(tau) if self.w is not None else None
        return SubsystemSystem(self.spec, w, self.dt)

    def sample_state(self, rng: np.random.Generator, radius: float) -> float:
        return float(rng.uniform(-radius, radius))


@dataclass(frozen=True)
class AxiomReport:
    identity_defect: float
    causality_defect: float
    cocycle_defect: float
    cocycle_tol: float
    continuity_checked: bool
    samples: int
    seed: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_signal(rng: np.random.Generator, horizon: float, level: float,
                   discrete: bool) -> InputSignal:
    n = int(rng.integers(2, 6))
    if discrete:
        maxb = max(2, int(horizon))
        picks = rng.choice(np.arange(1, maxb + 1), size=min(n, maxb), replace=False)
        breaks = np.concatenate([[0.0], np.sort(picks.astype(float))])
    else:
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0, horizon, n))])
    return InputSignal(breaks, rng.uniform(-level, level, breaks.size))


def check_axioms(system, n_samples: int = 20, seed: int = 0,
                 horizon: float = 2.0) -> AxiomReport:
    """Sampled verification of the transition-system axioms.

    The system object must expose ``time_domain``, ``phi(t, x, u)``,
    ``shifted(tau)``, and ``sample_state(rng, radius)``.  Identity is exact
    by construction and still asserted.  States and input values are drawn
    from [-1, 1], and causality defects up to 1e-7 pass.  Cocycle split
    times are aligned with the step grid; the cocycle tolerance is 0 for
    discrete systems and 10x a local error estimate obtained by step
    halving for continuous ones, floored near machine epsilon.
    """
    discrete = system.time_domain.kind == "discrete"
    dt = 1.0 if discrete else float(system.dt)
    failures: list[str] = []
    id_defect = 0.0
    caus_defect = 0.0
    coc_defect = 0.0
    for m in range(n_samples):
        rng = derived_rng(seed, "axioms", m)
        x = system.sample_state(rng, 1.0)
        u = _random_signal(rng, horizon, 1.0, discrete)
        # identity
        d = _state_dist(system.phi(0.0, x, u), x)
        id_defect = max(id_defect, d)
        if d != 0.0:
            failures.append(f"identity defect {d:g} at sample {m}")
        # causality: change u strictly after t
        steps = int(round(horizon / dt))
        t = dt * int(rng.integers(1, steps))
        tail = _random_signal(rng, horizon, 1.0, discrete)
        u_alt = u.concat(tail, t)
        d = _state_dist(system.phi(t, x, u), system.phi(t, x, u_alt))
        caus_defect = max(caus_defect, d)
        if d > 1e-7:
            failures.append(f"causality defect {d:g} at sample {m}")
        # cocycle on a grid-aligned split
        h = dt * int(rng.integers(1, steps))
        xt = system.phi(t, x, u)
        direct = system.phi(t + h, x, u)
        split = system.shifted(t).phi(h, xt, u.shift(t))
        d = _state_dist(direct, split)
        coc_defect = max(coc_defect, d)
    if discrete:
        cocycle_tol = 0.0
    else:
        cocycle_tol = 10.0 * _local_error_estimate(system, horizon, seed)
    if coc_defect > cocycle_tol:
        failures.append(f"cocycle defect {coc_defect:g} exceeds tol {cocycle_tol:g}")
    return AxiomReport(id_defect, caus_defect, coc_defect, float(cocycle_tol),
                       continuity_checked=not discrete, samples=n_samples,
                       seed=seed, failures=tuple(failures))


def _state_dist(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float))))


def _local_error_estimate(system, horizon: float, seed: int) -> float:
    """Step-halving (Richardson) estimate of the integrator error scale."""
    rng = derived_rng(seed, "axioms", "localerr")
    x = system.sample_state(rng, 1.0)
    u = _random_signal(rng, horizon, 1.0, False)
    coarse = system.phi(horizon, x, u)
    fine_sys = _with_dt(system, system.dt / 2.0)
    fine = fine_sys.phi(horizon, x, u)
    est = _state_dist(coarse, fine) / 15.0
    return max(est, 1e-13 * max(1.0, abs(float(np.max(np.abs(np.asarray(x, float)))))))


def _with_dt(system, dt: float):
    import copy
    clone = copy.copy(system)
    clone.dt = dt
    return clone
