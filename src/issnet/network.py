"""Interconnected networks: coupled simulation on finite working windows.

A network couples scalar subsystems through neighbor lists; subsystems whose
neighbors fall outside the simulated window read zero there, which is exactly
the truncation convention used for infinite interconnections.  Discrete
networks update synchronously; continuous networks are integrated
monolithically with fixed-step RK4 so all components advance through the same
stages.  The step grid and the update come from the time domain
(TimeDomain.grid and TimeDomain.stepper), the rule a single subsystem is
stepped by as well.

An ensemble of (x0, u) members on one window is stepped together as one
(members, window) state array, with every member's input evaluated once on
the step grid; a single run is an ensemble of one.  The stepper can reduce
each sample's |x| rows per member as they are produced (the peak sup norm,
the last sample above given nonnegative thresholds, the suffix sups at
given tail starts), and only the members asked to keep their states store
them, so an ensemble need not hold all of its trajectories.  A member that
blows up keeps its row, held at zero from then on, which moves none of
these reductions.

A spec may supply a vectorized coupled map (fast_factory) for speed;
without one the map is assembled from the per-component dynamics.  The
assembled map is the semantic reference: the same spec with
fast_factory=None runs it, and the test suite checks the two against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gains import FiniteIndexSet, GainGraph, GeneratorIndexSet, restrict as restrict_graph
from .systems import (DEFAULT_BLOWUP_BOUND, BlowUp, InputSignal, SubsystemSpec,
                      TimeDomain, Trajectory, _grid_index)

__all__ = [
    "NetworkSpec",
    "NetworkTrajectory",
    "TruncationPolicy",
    "SweepReport",
    "simulate",
    "simulate_ensemble",
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
    f(x, u) -> update (next state when discrete, derivative when
    continuous) with zero boundary outside the window.  The map takes
    (..., n) arrays, n = len(window): the simulator calls it with an (m, n)
    ensemble state and an (m, n) input, or an (m, 1) input column for
    scalar inputs, and row j of the result must equal f(x[j], u[j]).
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
        return float(self.states[_grid_index(self.times, t), self._pos(i)])


def _assembled_map(net: NetworkSpec, window: tuple[int, ...]):
    """Reference coupled map built from per-component dynamics."""
    n = len(window)
    specs = [net.subsystem_fn(i) for i in window]
    pos = {i: k for k, i in enumerate(window)}
    pads = []
    for s in specs:
        pads.append(np.array([pos.get(j, n) for j in s.neighbors], dtype=int))

    def f(x: np.ndarray, uv: np.ndarray) -> np.ndarray:
        if x.ndim == 2:               # an ensemble: one member at a time
            uv = np.broadcast_to(uv, x.shape)
            return np.stack([f(xj, uj) for xj, uj in zip(x, uv)])
        xp = np.concatenate([x, [0.0]])   # boundary components read zero
        out = np.empty(n)
        for k, s in enumerate(specs):
            out[k] = s.dynamics(x[k], xp[pads[k]], uv[k])
        return out

    return f


def _input_block(members, t0s: np.ndarray, h: float, n: int) -> np.ndarray:
    """Every member's input on the step interiors: (steps, m, 1) when all
    inputs are scalar, (steps, m, n) when some input is vector valued."""
    vals = [u.interior_values(t0s, t0s + h) for _x0, u in members]
    if all(v.ndim == 1 for v in vals):
        return np.stack(vals, axis=1)[:, :, None]
    block = np.empty((t0s.size, len(vals), n))
    for j, v in enumerate(vals):
        if v.ndim == 1:
            v = v[:, None]
        elif v.shape[1:] != (n,):
            raise ValueError(f"vector input has dim {v.shape[1:]}, window needs {n}")
        block[:, j] = v
    return block


@dataclass(frozen=True, eq=False)
class _Stepped:
    """One stepping pass: the step grid plus, per member j, what was kept.

    A member that blew up has only its first ends[j] samples, and its
    reductions cover just those: its row was held at zero afterwards.
    """

    window: tuple
    times: np.ndarray                # the full step grid
    ends: np.ndarray                 # samples member j has
    blowups: list                    # BlowUp or None
    peaks: np.ndarray                # largest sup norm over the samples
    states: dict                     # j -> (ends[j], n) samples, kept members
    last_exceed: np.ndarray | None   # (m, L, n) last sample with |x_i| above
                                     # threshold l, -1 if none
    tail_sups: np.ndarray | None     # (m, starts, n) sup from each start on

    def trajectory(self, j: int) -> NetworkTrajectory:
        return NetworkTrajectory(self.times[:self.ends[j]], self.window,
                                 self.states[j], self.blowups[j])


def _simulate(net: NetworkSpec, window: Sequence[int], members,
              horizon: float, dt: float | None, blowup_bound: float,
              keep=None, thresholds=None, tail_starts=None) -> _Stepped:
    """Step every (x0, u) member together as one (m, n) state array.

    The coupled map is the spec's fast_factory(window), or the map
    assembled from the per-component dynamics when it has none.  Each
    sample's |x| rows are reduced as they are produced: the running
    peak sup norm always; with ``thresholds`` (an (m, L) array, which must
    be nonnegative) the last sample at which |x_i| of member j exceeds
    thresholds[j, l]; with ``tail_starts`` the sup of |x_i| from each start
    on.  Only the members flagged in ``keep`` (all when None) store their
    states.  A member that blows up is truncated at the offending sample.
    Its row is then set to zero after every step, so it adds nothing to
    the reductions and its arithmetic stays finite.
    """
    times, h = net.time_domain.grid(horizon, dt)
    window = tuple(int(i) for i in window)
    for i in window:
        if i not in net.index_set:
            raise ValueError(f"window label {i} outside the index set")
    n = len(window)
    m = len(members)
    x = np.empty((m, n))
    for j, (x0, _u) in enumerate(members):
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim == 0:
            x0 = np.full(n, float(x0))
        if x0.shape != (n,):
            raise ValueError("x0 must be scalar or aligned with the window")
        x[j] = x0
    f = net.fast_factory(window) if net.fast_factory is not None \
        else _assembled_map(net, window)
    stepper = net.time_domain.stepper(f, h)
    steps = times.size - 1
    inputs = _input_block(members, times[:-1], h, n) if m else None

    kept = np.arange(m) if keep is None else np.flatnonzero(keep)
    block = np.empty((kept.size, steps + 1, n))
    block[:, 0] = x[kept]
    red = _Reductions(m, n, times, thresholds, tail_starts)
    ax = np.abs(x)
    red.update(0, ax, np.max(ax, axis=1, initial=0.0))

    ends = np.full(m, steps + 1)
    blowups: list[BlowUp | None] = [None] * m
    dead = np.zeros(m, bool)          # blown-up rows, held at zero
    n_dead = 0                        # no array test per step while 0
    for k in range(steps):
        if n_dead == m:
            break
        x = stepper(x, inputs[k])
        if n_dead:
            x[dead] = 0.0
        block[:, k + 1] = x[kept]
        ax = np.abs(x)
        norms = np.max(ax, axis=1, initial=0.0)
        red.update(k + 1, ax, norms)
        bad = ~np.isfinite(norms) | (norms > blowup_bound)
        if bad.any():
            for j in np.flatnonzero(bad):
                ends[j] = k + 2
                blowups[j] = BlowUp(float(times[k + 1]), float(norms[j]),
                                    blowup_bound)
            dead |= bad
            n_dead = int(np.count_nonzero(dead))
            x[bad] = 0.0
    states = {int(j): block[s, :ends[j]] for s, j in enumerate(kept)}
    return _Stepped(window, times, ends, blowups, red.peaks, states,
                    red.last_exceed, red.tail_sups())


class _Reductions:
    """Per-member reductions of the |x| rows, fed one sample at a time.

    Each one is a running max, or a test of |x| against a nonnegative
    threshold, so a row of zeros changes none of them.
    """

    def __init__(self, m: int, n: int, times: np.ndarray, thresholds,
                 tail_starts):
        self.peaks = np.zeros(m)
        self.last_exceed = None
        if thresholds is not None:
            self.thresholds = np.asarray(thresholds, float)[:, :, None]
            if self.thresholds.shape[0] != m:
                raise ValueError("one threshold row per member required")
            if np.any(self.thresholds < 0):
                raise ValueError("thresholds must be nonnegative")
            self.last_exceed = np.full((m, self.thresholds.shape[1], n), -1)
        self.starts = None
        if tail_starts is not None:
            # the sup from a start is the max of the segment maxima between
            # consecutive distinct start samples from that start on
            self.starts = _tail_start_samples(times, tail_starts)
            self.bounds = np.unique(self.starts)
            self.segment = np.searchsorted(self.bounds, np.arange(times.size),
                                           side="right") - 1
            self.seg_max = np.zeros((m, self.bounds.size, n))

    def update(self, k: int, ax: np.ndarray, norms: np.ndarray) -> None:
        np.maximum(self.peaks, norms, out=self.peaks)
        if self.last_exceed is not None:
            np.copyto(self.last_exceed, k,
                      where=ax[:, None, :] > self.thresholds)
        if self.starts is not None and self.segment[k] >= 0:
            seg = self.seg_max[:, self.segment[k]]
            np.maximum(seg, ax, out=seg)

    def tail_sups(self) -> np.ndarray | None:
        if self.starts is None:
            return None
        suffix = _suffix_max(self.seg_max, axis=1)
        return suffix[:, np.searchsorted(self.bounds, self.starts)]


def _tail_start_samples(times: np.ndarray, tail_starts) -> np.ndarray:
    """The first sample at or after each tail start (the last sample for a
    start past the end)."""
    return np.clip(np.searchsorted(times, np.asarray(tail_starts, float),
                                   side="left"), 0, times.size - 1)


def _suffix_max(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Running max from the end along ``axis``."""
    return np.flip(np.maximum.accumulate(np.flip(values, axis), axis), axis)


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
    return _simulate(net, window, [(x0, u)], horizon, dt,
                     blowup_bound).trajectory(0)


def simulate_ensemble(net: NetworkSpec, window: Sequence[int],
                      members: Sequence[tuple], horizon: float,
                      dt: float | None = None,
                      blowup_bound: float = DEFAULT_BLOWUP_BOUND
                      ) -> list[NetworkTrajectory]:
    """Simulate many (x0, u) members on one window, stepped together.

    Returns one trajectory per member, in order, each equal to the
    member's own :func:`simulate` run; a member that blows up is truncated
    exactly as that run would be, without stopping the others.
    """
    run = _simulate(net, window, members, horizon, dt, blowup_bound)
    return [run.trajectory(j) for j in range(len(members))]


@dataclass(frozen=True)
class TruncationPolicy:
    """Nested window sizes; components outside each window read zero."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError("window sizes must be positive")
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("window sizes must be strictly increasing")


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
            raise ArithmeticError(f"window {size} blew up at "
                                  f"t={traj.blowup.time:g}")
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

    def phi(self, t: float, x, u: InputSignal):
        traj = simulate(self.net, self.window, x, u, t, self.dt)
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
