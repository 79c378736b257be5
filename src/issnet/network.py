"""Interconnected networks: coupled simulation on finite working windows.

A network couples scalar subsystems through neighbor lists; subsystems whose
neighbors fall outside the simulated window read zero there, which is exactly
the truncation convention used for infinite interconnections.  Discrete
networks update synchronously; continuous networks are integrated
monolithically with fixed-step RK4 so all components advance through the same
stages.

Entries may supply a vectorized coupled map for speed; the per-component
assembly path is the semantic reference and the two are checked against each
other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gains import FiniteIndexSet, GainGraph, GeneratorIndexSet, restrict as restrict_graph
from .systems import (DEFAULT_BLOWUP_BOUND, BlowUp, InputSignal, SubsystemSpec,
                      TimeDomain, Trajectory, _rk4_step)

__all__ = [
    "NetworkSpec",
    "NetworkTrajectory",
    "TruncationPolicy",
    "SweepReport",
    "simulate",
    "simulate_reference",
    "truncation_sweep",
    "subnetwork",
    "NetworkSystem",
    "write_trajectory_csv",
]


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Index set + per-label subsystem factory + optional gain graph.

    ``subsystem_fn`` must be deterministic in the label.  ``fast_factory``
    optionally maps a window (tuple of labels) to a vectorized coupled map
    f(x_vec, u_vec) -> update (next state when discrete, derivative when
    continuous) with zero boundary outside the window.
    """

    name: str
    time_domain: TimeDomain
    index_set: FiniteIndexSet | GeneratorIndexSet
    subsystem_fn: Callable[[int], SubsystemSpec]
    graph: GainGraph | None = None
    fast_factory: Callable[[tuple[int, ...]], Callable] | None = None

    def window(self, n: int | None = None) -> tuple[int, ...]:
        return self.index_set.window(n)


@dataclass(frozen=True, eq=False)
class NetworkTrajectory:
    times: np.ndarray
    window: tuple[int, ...]
    states: np.ndarray               # shape (len(times), len(window))
    blowup: BlowUp | None = None

    def __post_init__(self):
        if self.states.shape != (self.times.size, len(self.window)):
            raise ValueError("states must have shape (times, window)")

    def sup_norms(self) -> np.ndarray:
        """Network norm at each sample: exactly the max component norm."""
        return np.max(np.abs(self.states), axis=1)

    def component_norms(self) -> np.ndarray:
        return np.abs(self.states)

    def _pos(self, i: int) -> int:
        try:
            return self.window.index(i)
        except ValueError:
            raise KeyError(f"component {i} not in the simulated window") from None

    def component(self, i: int) -> Trajectory:
        return Trajectory(self.times.copy(), self.states[:, self._pos(i)].copy(),
                          self.blowup)

    def neighbor_signal(self, i: int, neighbors: Sequence[int]) -> InputSignal:
        """Recorded neighbor trajectories of i frozen as a held vector signal
        (components outside the window read zero)."""
        cols = []
        for j in neighbors:
            if j in self.window:
                cols.append(self.states[:, self._pos(j)])
            else:
                cols.append(np.zeros(self.times.size))
        vals = np.stack(cols, axis=1) if cols else np.zeros((self.times.size, 0))
        return InputSignal.from_samples(self.times, vals)

    def value_at(self, i: int, t: float) -> float:
        k = int(np.searchsorted(self.times, t))
        for kk in (k - 1, k):
            if 0 <= kk < self.times.size and math.isclose(self.times[kk], t,
                                                          rel_tol=0.0, abs_tol=1e-9):
                return float(self.states[kk, self._pos(i)])
        raise KeyError(f"time {t} not on the trajectory grid")


def _u_vector(u: InputSignal, t0: float, t1: float, n: int) -> np.ndarray:
    val = np.asarray(u.step_value(t0, t1), dtype=float)
    if val.ndim == 0:
        return np.full(n, float(val))
    if val.shape != (n,):
        raise ValueError(f"vector input has dim {val.shape}, window needs {n}")
    return val


def _assembled_map(net: NetworkSpec, window: tuple[int, ...]):
    """Reference coupled map built from per-component dynamics."""
    n = len(window)
    specs = [net.subsystem_fn(i) for i in window]
    pos = {i: k for k, i in enumerate(window)}
    pads = []
    for s in specs:
        pads.append(np.array([pos.get(j, n) for j in s.neighbors], dtype=int))

    def f(x: np.ndarray, uv: np.ndarray) -> np.ndarray:
        xp = np.concatenate([x, [0.0]])   # boundary components read zero
        out = np.empty(n)
        for k, s in enumerate(specs):
            out[k] = s.dynamics(x[k], xp[pads[k]], uv[k])
        return out

    return f


def _coupled_map(net: NetworkSpec, window: tuple[int, ...], reference: bool):
    if not reference and net.fast_factory is not None:
        return net.fast_factory(window)
    return _assembled_map(net, window)


def _simulate(net: NetworkSpec, window: Sequence[int], x0, u: InputSignal,
              horizon: float, dt: float | None, blowup_bound: float,
              reference: bool) -> NetworkTrajectory:
    window = tuple(int(i) for i in window)
    for i in window:
        if i not in net.index_set:
            raise ValueError(f"window label {i} outside the index set")
    n = len(window)
    x = np.asarray(x0, dtype=float)
    if x.ndim == 0:
        x = np.full(n, float(x))
    if x.shape != (n,):
        raise ValueError("x0 must be scalar or aligned with the window")
    f = _coupled_map(net, window, reference)
    if net.time_domain.kind == "discrete":
        steps = int(round(horizon))
        times = np.arange(steps + 1, dtype=float)
        stepper = lambda xk, t0: f(xk, _u_vector(u, t0, t0 + 1.0, n))
    else:
        if dt is None:
            dt = net.time_domain.dt
        if dt is None or dt <= 0:
            raise ValueError("continuous simulation needs dt > 0")
        steps = int(round(horizon / dt))
        times = dt * np.arange(steps + 1)
        stepper = lambda xk, t0: _rk4_step(f, xk, dt,
                                           _u_vector(u, t0, t0 + dt, n))

    states = np.empty((steps + 1, n))
    states[0] = x
    for k in range(steps):
        x = stepper(x, times[k])
        states[k + 1] = x
        m = float(np.max(np.abs(x))) if n else 0.0
        if not np.isfinite(m) or m > blowup_bound:
            return NetworkTrajectory(times[:k + 2], window, states[:k + 2],
                                     BlowUp(float(times[k + 1]), m, blowup_bound))
    return NetworkTrajectory(times, window, states)


def simulate(net: NetworkSpec, window: Sequence[int], x0, u: InputSignal,
             horizon: float, dt: float | None = None,
             blowup_bound: float = DEFAULT_BLOWUP_BOUND) -> NetworkTrajectory:
    """Simulate the interconnection on a finite window.

    x0 is a vector aligned with the window (or a scalar broadcast to it);
    u is one external signal, scalar (shared by all components) or vector
    valued with one channel per window label.  Discrete horizons count
    steps; continuous horizons are integrated in n = round(horizon/dt)
    RK4 steps.
    """
    return _simulate(net, window, x0, u, horizon, dt, blowup_bound, reference=False)


def simulate_reference(net: NetworkSpec, window: Sequence[int], x0, u: InputSignal,
                       horizon: float, dt: float | None = None,
                       blowup_bound: float = DEFAULT_BLOWUP_BOUND) -> NetworkTrajectory:
    """Same semantics as :func:`simulate` but always assembles the coupled
    map from per-component dynamics; used as the semantic reference."""
    return _simulate(net, window, x0, u, horizon, dt, blowup_bound, reference=True)


@dataclass(frozen=True)
class TruncationPolicy:
    sizes: tuple[int, ...]
    boundary: str = "zero"

    def __post_init__(self):
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError("window sizes must be positive")
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("window sizes must be strictly increasing")
        if self.boundary != "zero":
            raise ValueError("only the zero boundary policy is implemented")


@dataclass(frozen=True, eq=False)
class SweepReport:
    sizes: tuple[int, ...]
    times: np.ndarray
    sup_curves: np.ndarray           # shape (len(sizes), len(times))
    drifts: np.ndarray               # max |curve_{k+1} - curve_k| per consecutive pair

    def final_sups(self) -> np.ndarray:
        return self.sup_curves[:, -1]


def truncation_sweep(net: NetworkSpec, policy: TruncationPolicy, x0_fn,
                     u: InputSignal, horizon: float,
                     dt: float | None = None) -> SweepReport:
    """Simulate nested windows and report how the sup-norm curve moves.

    ``x0_fn`` maps a window tuple to an initial vector (a scalar is
    broadcast).  Boundary components outside each window contribute zero.
    """
    curves = []
    times = None
    for size in policy.sizes:
        window = net.window(size)
        if len(window) < size:
            raise ValueError(f"index set has no window of size {size}")
        x0 = x0_fn(window) if callable(x0_fn) else x0_fn
        traj = simulate(net, window, x0, u, horizon, dt)
        if traj.blowup is not None:
            raise ArithmeticError(f"window {size} blew up at t={traj.blowup.time}")
        curves.append(traj.sup_norms())
        times = traj.times
    sup_curves = np.stack(curves)
    drifts = np.max(np.abs(np.diff(sup_curves, axis=0)), axis=1) if len(curves) > 1 \
        else np.zeros(0)
    return SweepReport(tuple(policy.sizes), times, sup_curves, drifts)


def subnetwork(net: NetworkSpec, subset: Sequence[int]) -> NetworkSpec:
    """Restriction to ``subset``: same dynamics, neighbors outside the subset
    read zero, gain graph restricted accordingly."""
    labels = tuple(int(i) for i in subset)
    for i in labels:
        if i not in net.index_set:
            raise ValueError(f"index {i} outside the index set")
    graph = restrict_graph(net.graph, labels) if net.graph is not None else None
    return NetworkSpec(
        name=f"{net.name}|{len(labels)}",
        time_domain=net.time_domain,
        index_set=FiniteIndexSet(labels),
        subsystem_fn=net.subsystem_fn,
        graph=graph,
        fast_factory=net.fast_factory,
    )


class NetworkSystem:
    """Axiom-harness adapter: the whole network on a fixed window as one
    transition system."""

    def __init__(self, net: NetworkSpec, window: Sequence[int],
                 dt: float | None = None):
        self.net = net
        self.window = tuple(int(i) for i in window)
        self.time_domain = net.time_domain
        self.dt = dt if dt is not None else (net.time_domain.dt or 1e-3)
        self.input_dim = None     # scalar external input broadcast to components

    def phi(self, t: float, x, u: InputSignal):
        traj = _simulate(self.net, self.window, x, u, t,
                         None if self.time_domain.kind == "discrete" else self.dt,
                         DEFAULT_BLOWUP_BOUND, reference=False)
        if traj.blowup is not None:
            raise ArithmeticError("trajectory blew up during axiom checking")
        return traj.states[-1]

    def shifted(self, tau: float) -> "NetworkSystem":
        return NetworkSystem(self.net, self.window, self.dt)

    def sample_state(self, rng: np.random.Generator, radius: float) -> np.ndarray:
        return rng.uniform(-radius, radius, len(self.window))


def write_trajectory_csv(traj: NetworkTrajectory, path) -> None:
    """Long-format rows t,i,value with 17-significant-digit floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,i,value\n")
        for k, t in enumerate(traj.times):
            for c, i in enumerate(traj.window):
                fh.write("%.17g,%d,%.17g\n" % (t, i, traj.states[k, c]))
