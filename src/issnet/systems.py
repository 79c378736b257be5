"""Subsystem abstraction: signals, dynamics, stepping, and system axioms.

Input signals are piecewise constant on strictly increasing breakpoints.
Pieces are left-open right-closed, (b_k, b_{k+1}], with u(0) defined as
the first value, so a causal splice on [0, t] (concat) keeps the value at
t.  Steppers read the interior value of each step, so a signal break
aligned with the step grid switches cleanly at that step.

A time domain owns its step rule: TimeDomain.grid gives the sample times
and the step of a run (unit steps and no dt when discrete, dt when
continuous) and TimeDomain.stepper the update (the synchronous map, or a
classical RK4 step), inputs held left-constant over each step.
_step_rows is the one stepping loop, over an (m, n) state with a row per
member; a network ensemble is one run of it, and a single subsystem (behind
integrate_ode and SubsystemSystem) a one-row, one-column run whose inputs
are u and the neighbor signals w.  A row that exceeds the blow-up bound
at a sample, the start one included, ends there with a BlowUp of its |x|
instead of poisoning later arithmetic; that test is one scalar max per
sample.  The loop writes each sample's |x| into one reused block and
hands its observer a block of 32 samples (_CHUNK) at a time, with the
state at the block's first sample.
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

DEFAULT_BLOWUP_BOUND = 1e12    # |x| above it ends a trajectory as a blow-up
DEFAULT_AXIOM_DT = 1e-3    # axiom adapters' step where the domain has none
_CHUNK = 32                # samples per block a stepping pass reduces


@dataclass(frozen=True)
class TimeDomain:
    kind: str                 # "discrete" | "continuous"
    dt: float | None = None   # default integrator step; continuous only

    def __post_init__(self):
        if self.kind not in ("discrete", "continuous"):
            raise ValueError("time domain kind must be 'discrete' or 'continuous'")
        if self.dt is not None:
            self.grid(0.0, self.dt)       # the dt rule of either kind

    def grid(self, horizon: float, dt: float | None = None):
        """(times, h): the sample times 0, h, ..., n*h of a run over
        ``horizon`` and its step h.  When discrete, h is 1, the horizon
        counts the steps, so it must be whole, and no dt may be given;
        when continuous, h is dt or else the domain's own dt, and n*h,
        n = round(horizon / h), must be within 1e-9 * max(1, horizon) of
        the horizon.  Each ValueError names the value at fault first."""
        if not horizon >= 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
        if self.kind == "discrete":
            if horizon % 1:
                raise ValueError(f"horizon must be a whole number of steps "
                                 f"on a discrete time domain, got {horizon!r}")
            if dt is not None:
                raise ValueError(f"dt has no meaning on a discrete time "
                                 f"domain, got {dt!r}")
            return np.arange(int(horizon) + 1, dtype=float), 1.0
        if dt is None:
            dt = self.dt
        if dt is None or dt <= 0:
            raise ValueError(f"dt must be positive on a continuous time "
                             f"domain, got {dt!r}")
        n = float(np.rint(horizon / dt))              # inf fails the test
        if not abs(n * dt - horizon) <= 1e-9 * max(1.0, horizon):
            raise ValueError(f"horizon must be a whole number of dt = {dt!r} "
                             f"steps, got {horizon!r}")
        return dt * np.arange(int(n) + 1), dt

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
        if np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
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

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

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
    """One classical RK4 step of x' = f(x, *args), the args held over it.

    The stages are x + (h/2) k1, x + (h/2) k2 and x + h k3, and the step
    x + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed in that order.  Each sum is
    formed in place in an array made here, never in one f returned or
    was handed, and + and * commute exactly, so the bits are those of
    the plain expressions.
    """
    half = 0.5 * h
    k1 = f(x, *args)
    stage = half * k1
    stage += x
    k2 = f(stage, *args)
    stage = half * k2
    stage += x
    k3 = f(stage, *args)
    stage = h * k3
    stage += x
    k4 = f(stage, *args)
    step = 2.0 * k2
    step += k1
    step += 2.0 * k3
    step += k4
    step *= h / 6.0
    step += x
    return step


def _step_rows(times: np.ndarray, update, x: np.ndarray, inputs,
               keep: bool = True, observe=None):
    """Step the rows of x (m, n) by ``update(x, inputs[k])`` over ``times``.

    Each sample's |x| goes into one reused (_CHUNK, m, n) block, and
    ``observe(k0, block, blown, start)`` sees a block of 32 samples at a
    time, k0 its first sample and the last block partial: blown lists
    (k, mask) for each sample k in it at which the rows of mask blow up,
    and start the (m, n) state at sample k0 (a reused buffer).  Every row
    stores its states when ``keep`` is set, and none does otherwise.  A row
    whose norm is not finite or exceeds DEFAULT_BLOWUP_BOUND at a sample,
    the start one included, ends there with a BlowUp of that norm, and is
    held at zero after every later step.  Returns (states, ends, blowups):
    the (ends[j], n) samples of each row j (None unless kept), each row's
    sample count and BlowUp or None.
    """
    m, n = x.shape
    steps = times.size - 1
    stored = np.empty((m if keep else 0, steps + 1, n))
    block = np.empty((min(_CHUNK, steps + 1), m, n))
    start = np.empty((m, n))          # the state at the block's first sample
    blown = []                        # (k, mask) in the current block
    ends = np.full(m, steps + 1)
    blowups: list[BlowUp | None] = [None] * m
    dead = np.zeros(m, bool)          # blown-up rows, held at zero
    n_dead = 0                        # no array test per step while 0
    k0 = 0                            # first sample of the current block
    samples = steps + 1               # fewer when every row has blown up
    for k in range(steps + 1):
        if k:
            if n_dead == m:
                samples = k
                break
            x = update(x, inputs[k - 1])
            if n_dead:
                x[dead] = 0.0
        if keep:
            stored[:, k] = x
        if k == k0:
            start[:] = x
        ax = np.abs(x, out=block[k - k0])
        # one scalar test per sample, which NaN fails too; the row norms
        # only when it fails
        if not ax.max(initial=0.0) <= DEFAULT_BLOWUP_BOUND:
            norms = ax.max(axis=1, initial=0.0)
            bad = ~(norms <= DEFAULT_BLOWUP_BOUND)
            for j in np.flatnonzero(bad):
                ends[j] = k + 1
                blowups[j] = BlowUp(float(times[k]), float(norms[j]),
                                    DEFAULT_BLOWUP_BOUND)
            dead |= bad
            n_dead = int(np.count_nonzero(dead))
            x[bad] = 0.0
            blown.append((k, bad))
        if k - k0 == _CHUNK - 1:
            if observe is not None:
                observe(k0, block, blown, start)
            blown = []
            k0 = k + 1
    if observe is not None and k0 < samples:
        observe(k0, block[:samples - k0], blown, start)
    states = [stored[j, :ends[j]] for j in range(m)] if keep else None
    return states, ends, blowups


def _step_subsystem(spec: SubsystemSpec, x0: float, w: InputSignal | None,
                    u: InputSignal, horizon: float,
                    dt: float | None) -> Trajectory:
    """One subsystem as a one-row, one-column _step_rows run: each step
    reads its interior value of u and of w, one channel per neighbor (None
    means zero neighbor signals)."""
    nw = len(spec.neighbors)
    if w is not None and w.dim != nw:
        raise ValueError(f"w has {w.dim} channels, {spec.name} has {nw} "
                         f"neighbors")
    times, h = spec.time_domain.grid(horizon, dt)
    t0s = times[:-1]
    uw = np.zeros((t0s.size, 1, 1 + nw))     # u in column 0, then w
    uw[:, 0, 0] = u.interior_values(t0s, t0s + h)
    if w is not None:
        uw[:, 0, 1:] = w.interior_values(t0s, t0s + h).reshape(t0s.size, nw)

    def f(x, uw):
        out = np.empty((1, 1))
        out[0, 0] = spec.dynamics(x[0, 0], uw[0, 1:], uw[0, 0])
        return out

    states, ends, blowups = _step_rows(
        times, spec.time_domain.stepper(f, h), np.full((1, 1), float(x0)), uw)
    return Trajectory(times[:ends[0]], states[0][:, 0], blowups[0])


def integrate_ode(spec: SubsystemSpec, x0: float, w: InputSignal | None,
                  u: InputSignal, horizon: float, dt: float) -> Trajectory:
    """Classical RK4 with fixed step dt at 0, dt, ..., n*dt = horizon
    (TimeDomain.grid's rule); w feeds the neighbor channels in spec.neighbors
    order (None means all zero), and inputs are held left-constant."""
    if spec.time_domain.kind != "continuous":
        raise ValueError("integrate_ode needs a continuous-time spec")
    return _step_subsystem(spec, x0, w, u, horizon, dt)


# Axiom harness ----------------------------------------------------------


def _axiom_dt(domain: TimeDomain, dt: float | None) -> float | None:
    """An axiom adapter's step: dt as given on a discrete domain; on a
    continuous one dt, else the domain's, else the default."""
    if dt is not None or domain.kind == "discrete":
        return dt
    return domain.dt or DEFAULT_AXIOM_DT


def _no_blowup(traj):
    """An axiom adapter's run, which must not have blown up."""
    if traj.blowup is not None:
        raise ArithmeticError("trajectory blew up during axiom checking")
    return traj


class SubsystemSystem:
    """Adapter exposing one subsystem (with a frozen internal signal) as a
    transition system phi(t, x, u) for the axiom harness."""

    def __init__(self, spec: SubsystemSpec, w: InputSignal | None = None,
                 dt: float | None = None):
        self.spec = spec
        self.w = w
        self.time_domain = spec.time_domain
        self.dt = _axiom_dt(spec.time_domain, dt)

    def phi(self, t: float, x: float, u: InputSignal) -> float:
        return float(_no_blowup(_step_subsystem(self.spec, x, self.w, u, t,
                                                self.dt)).values[-1])

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
    from [-1, 1], and causality defects up to 1e-7 pass.  Split times are
    drawn from the sample times of TimeDomain.grid, so a continuous dt
    must divide the horizon (a ValueError otherwise); the cocycle tolerance
    is 0 for discrete systems and 10x a local error estimate obtained by
    step halving for continuous ones, floored near machine epsilon.
    """
    discrete = system.time_domain.kind == "discrete"
    times, _ = system.time_domain.grid(horizon,
                                       None if discrete else float(system.dt))
    steps = times.size - 1
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
        t = times[rng.integers(1, steps)]
        tail = _random_signal(rng, horizon, 1.0, discrete)
        u_alt = u.concat(tail, t)
        d = _state_dist(system.phi(t, x, u), system.phi(t, x, u_alt))
        caus_defect = max(caus_defect, d)
        if d > 1e-7:
            failures.append(f"causality defect {d:g} at sample {m}")
        # cocycle on a grid-aligned split
        h = times[rng.integers(1, steps)]
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
