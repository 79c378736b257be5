"""Interconnected networks: coupled simulation on finite working windows.

A network couples scalar subsystems through neighbor lists; subsystems whose
neighbors fall outside the simulated window read zero there, which is exactly
the truncation convention used for infinite interconnections.  A window is
resolved and checked by the index set's window rule (see gains), once per
stepping pass and before any step; a truncation sweep steps its nested
windows from one start value.  Discrete networks update synchronously;
continuous networks are integrated monolithically with fixed-step RK4 so all
components advance through the same stages.  The step grid and the update
come from the time domain (TimeDomain.grid and TimeDomain.stepper).

An ensemble of (x0, u) members on one window is stepped together as one
(members, window) state array, with every member's input evaluated once on
the step grid; a single run is an ensemble of one.  This module sets a
pass up (start states, coupled map, input block) and systems._step_rows,
the one stepping loop, steps it.  The pass reduces the |x| rows per
member a block of 32 samples at a time (the peak sup norm, the last
sample above given nonnegative thresholds, the suffix sups at given tail
starts, and for recorded members each block's start state and per-column
max), and it keeps the states of all of its members or of none, so an
ensemble need not hold its trajectories.  _replay steps recorded
blocks again on their own, from their start states.  Equal members (start
row, input and threshold row) share one row, in the order of their first
members, so each distinct member is stepped and stored once and its
results are handed to every copy.  A member that blows up keeps its row,
held at zero from then on, which moves none of these reductions.

The truncation rule has one copy, _neighbor_gather, which hands every
coupled map f(x, w, u) the block w of neighbor states; on a window with no
neighbors a pass binds that (empty) block once.  A spec may supply
a vectorized map (fast_factory) for speed; without one the map is
assembled from the per-component dynamics.  The assembled map is the
semantic reference: the same spec with fast_factory=None runs it, and the
test suite checks the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .comparison import _sorted_unique
from .gains import FiniteIndexSet, GainGraph, GeneratorIndexSet, restrict as restrict_graph
from .systems import (_CHUNK, BlowUp, InputSignal, SubsystemSpec,
                      TimeDomain, Trajectory, _axiom_dt, _grid_index,
                      _no_blowup, _step_rows)

__all__ = [
    "NetworkSpec",
    "NetworkTrajectory",
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
    f(x, w, u) -> update (next state when discrete, derivative when
    continuous).  The simulator calls it with an (m, n) ensemble state,
    n = len(window), the (m, n, d) neighbor block w (see _neighbor_gather)
    and an (m, n) input, or an (m, 1) input column for scalar inputs; row
    j of the result must equal f(x[j], w[j], u[j]).
    """

    name: str
    time_domain: TimeDomain
    index_set: FiniteIndexSet | GeneratorIndexSet
    subsystem_fn: Callable[[int], SubsystemSpec]
    graph: GainGraph | None = None
    fast_factory: Callable[[tuple[int, ...]], Callable] | None = None

    def window(self, spec=None) -> tuple[int, ...]:
        return self.index_set.window(spec)


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

    def _pos(self, i: int) -> int:
        try:
            return self.window.index(i)
        except ValueError:
            raise KeyError(f"component {i} not in the simulated window") from None

    def component(self, i: int) -> Trajectory:
        return Trajectory(self.times.copy(), self.states[:, self._pos(i)].copy(),
                          self.blowup)

    def neighbor_signal(self, neighbors: Sequence[int]) -> InputSignal:
        """The recorded trajectories of the labels in ``neighbors``, frozen
        as a held vector signal (labels outside the window read zero)."""
        gather = _neighbor_gather(self.window, [neighbors])
        return InputSignal(self.times, gather(self.states)[:, 0])

    def value_at(self, i: int, t: float) -> float:
        return float(self.states[_grid_index(self.times, t), self._pos(i)])


def _neighbor_gather(window: tuple, neighbor_lists):
    """The truncation rule, x -> w: w[..., k, c] is the state in x of the
    c-th label of neighbor_lists[k], zero outside the window and past that
    list's end, and w's last axis d is the longest list (an empty block,
    nothing padded, when d is 0).  Positions are found here, once."""
    n = len(window)
    pos = {i: k for k, i in enumerate(window)}
    d = max(map(len, neighbor_lists), default=0)
    if d == 0:
        blocks = {}                   # one empty block per leading shape

        def empty(x: np.ndarray) -> np.ndarray:
            lead = x.shape[:-1]
            if lead not in blocks:
                blocks[lead] = np.empty(lead + (len(neighbor_lists), 0))
            return blocks[lead]

        return empty
    slots = np.full((len(neighbor_lists), d), n)
    for k, labels in enumerate(neighbor_lists):
        slots[k, :len(labels)] = [pos.get(j, n) for j in labels]

    def gather(x: np.ndarray) -> np.ndarray:
        xp = np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
        return xp[..., slots]

    return gather


def _assembled_map(specs: list):
    """Reference coupled map built from per-component dynamics; component
    k reads w[k, :len(neighbors)]."""

    def f(x: np.ndarray, w: np.ndarray, uv: np.ndarray) -> np.ndarray:
        if x.ndim == 2:               # an ensemble: one member at a time
            uv = np.broadcast_to(uv, x.shape)
            return np.stack([f(xj, wj, uj) for xj, wj, uj in zip(x, w, uv)])
        out = np.empty(x.size)
        for k, s in enumerate(specs):
            out[k] = s.dynamics(x[k], w[k, :len(s.neighbors)], uv[k])
        return out

    return f


def _input_block(inputs, t0s: np.ndarray, h: float, n: int) -> np.ndarray:
    """Every input on the step interiors [t0, t0 + h) of t0s, (steps,)
    shared or (steps, m) a column per input: (steps, m, 1) when all
    inputs are scalar, (steps, m, n) when some input is vector valued,
    filled one input at a time, a one-piece input with its value."""
    scalar = all(u.values.ndim == 1 for u in inputs)
    block = np.empty((t0s.shape[0], len(inputs), 1 if scalar else n))
    t1s = t0s + h
    for j, u in enumerate(inputs):
        if u.values.shape[1:] not in ((), (n,)):
            raise ValueError(f"vector input has dim {u.values.shape[1:]}, window needs {n}")
        if u.breaks.size == 1:
            block[:, j] = u.values[0]
            continue
        v = u.interior_values(t0s, t1s) if t0s.ndim == 1 \
            else u.interior_values(t0s[:, j], t1s[:, j])
        block[:, j] = v[:, None] if v.ndim == 1 else v
    return block


def _start_rows(members, n: int) -> np.ndarray:
    """The (m, n) start states of the (x0, u) members, a scalar x0
    broadcast to the window."""
    starts = np.empty((len(members), n))
    for j, (x0, _u) in enumerate(members):
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim == 0:
            x0 = np.full(n, float(x0))
        if x0.shape != (n,):
            raise ValueError("x0 must be scalar or aligned with the window")
        starts[j] = x0
    return starts


def _row_key(start: np.ndarray, u: InputSignal) -> tuple:
    """A member's start row and its input's breaks and values: members
    with equal keys step to equal rows."""
    return (start.tobytes(), u.breaks.tobytes(), u.values.shape,
            u.values.tobytes())


def _coupled_step(net: NetworkSpec, window: tuple, h: float, m: int):
    """The time domain's update of an (m, n) state on the window: the
    spec's fast_factory(window), or the map assembled from the
    per-component dynamics, handed the window's neighbor block (bound once
    when the window has no neighbors)."""
    specs = [net.subsystem_fn(i) for i in window]
    lists = [s.neighbors for s in specs]
    gather = _neighbor_gather(window, lists)
    f = net.fast_factory(window) if net.fast_factory is not None \
        else _assembled_map(specs)
    if any(lists):
        return net.time_domain.stepper(lambda x, u: f(x, gather(x), u), h)
    w = gather(np.empty((m, len(window))))   # one empty block for every call
    step_w = net.time_domain.stepper(f, h)

    def step(x, u):
        return step_w(x, w, u)
    return step


@dataclass(frozen=True, eq=False)
class _BlockRecords:
    """What a pass keeps of its recorded members' rows, a 32-sample block
    at a time: each row's state at the block's first sample and each
    column's largest |x| over the block, enough to step any block again on
    its own (_replay).  rows gives each recorded member's row in states
    and tops, in member order; equal members share one.  net, window,
    times and h are the pass's."""

    net: NetworkSpec
    window: tuple
    times: np.ndarray
    h: float
    rows: np.ndarray                 # (recorded members,)
    states: np.ndarray               # (rows, blocks, n)
    tops: np.ndarray                 # (rows, blocks, n)

    def block(self, b: int) -> slice:
        """The samples of block b."""
        return slice(b * _CHUNK, min((b + 1) * _CHUNK, self.times.size))


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
    states: list | None              # (ends[j], n) samples of member j, None
                                     # unless kept; equal members share one
    last_exceed: np.ndarray | None   # (m, L, n) last sample with |x_i| above
                                     # threshold l, -1 if none
    tail_sups: np.ndarray | None     # (m, starts, n) sup from each start on
    records: _BlockRecords | None    # of the recorded members' rows

    def trajectory(self, j: int) -> NetworkTrajectory:
        return NetworkTrajectory(self.times[:self.ends[j]], self.window,
                                 self.states[j], self.blowups[j])


def _simulate(net: NetworkSpec, window: Sequence[int], members,
              horizon: float, dt: float | None, keep: bool = True,
              thresholds=None, tail_starts=None, record=None) -> _Stepped:
    """Step every (x0, u) member together as one (m, n) state array.

    The coupled map is the spec's fast_factory(window), or the map
    assembled from the per-component dynamics when it has none, handed
    the window's neighbor block.  The |x| rows are reduced a block of 32
    samples at a time: the running peak sup norm always; with
    ``thresholds`` (an (m, L) array, which must be nonnegative) the last
    sample at which |x_i| of member j exceeds thresholds[j, l]; with
    ``tail_starts`` the sup of |x_i| from each start on; with ``record``
    (a flag per member) the block records of the flagged members' rows.
    systems._step_rows steps the pass, which stores every member's states
    when ``keep`` is set and none otherwise.

    Members with equal start rows, inputs (breaks and values) and
    threshold rows share one row, which the map's row contract makes
    exact: each distinct member is stepped, and kept, once.  Every result
    is mapped back to each member, and kept duplicates share one states
    array.
    """
    times, h = net.time_domain.grid(horizon, dt)
    window = net.window(window)
    n = len(window)
    m = len(members)
    starts = _start_rows(members, n)
    if thresholds is not None:
        thresholds = np.asarray(thresholds, float)
        if thresholds.ndim != 2 or thresholds.shape[0] != m:
            raise ValueError("one threshold row per member required")

    order, row = _distinct_rows(starts, members, thresholds)
    step = _coupled_step(net, window, h, order.size)
    inputs = _input_block([members[d][1] for d in order], times[:-1], h, n) \
        if m else None
    recorded = None if record is None else row[np.asarray(record, bool)]
    red = _Reductions(order.size, n, times,
                      None if thresholds is None else thresholds[order],
                      tail_starts,
                      None if recorded is None else _sorted_unique(recorded))
    states, ends, blowups = _step_rows(
        times, step, starts[order], inputs, keep, red.update)
    tail_sups = red.tail_sups()
    records = None if recorded is None else _BlockRecords(
        net, window, times, h, np.searchsorted(red.recorded, recorded),
        red.rec_states, red.rec_tops)
    return _Stepped(window, times, ends[row], [blowups[r] for r in row],
                    red.peaks[row],
                    None if states is None else [states[r] for r in row],
                    None if red.last_exceed is None else red.last_exceed[row],
                    None if tail_sups is None else tail_sups[row], records)


def _replay(records: _BlockRecords, segments) -> list:
    """The |x| samples of each (row, block, u) segment of the records,
    stepped again from the block's recorded start on the row's input u.

    The segments are stacked as the rows of short runs of at most as many
    rows as the records have, each as long as its longest segment; a
    shorter segment (the grid's last block) steps on past its block's end
    on the grid's last step input, and those samples are dropped.  Each
    run is one systems._step_rows call that keeps no states and hands its
    one block to the observer.  The map's row contract makes every sample
    equal the recording pass's.
    """
    times = records.times
    group = records.states.shape[0]
    out = []
    for g0 in range(0, len(segments), group):
        rows, blocks, inputs = zip(*segments[g0:g0 + group])
        k0s = np.array(blocks) * _CHUNK
        sizes = np.minimum(_CHUNK, times.size - k0s)
        c = int(sizes.max())
        # each segment's steps, its last one repeated past the grid's end
        k = np.minimum(k0s + np.arange(c - 1)[:, None], times.size - 2)
        got = []
        _step_rows(times[:c], _coupled_step(records.net, records.window,
                                            records.h, len(rows)),
                   records.states[list(rows), list(blocks)],
                   _input_block(inputs, times[k], records.h,
                                len(records.window)),
                   False, lambda _k0, block, _blown, _start: got.append(block))
        out.extend(got[0][:size, i] for i, size in enumerate(sizes))
    return out


def _distinct_rows(starts: np.ndarray, members, thresholds):
    """(order, row): the first member of each distinct key, in member
    order, and the row in that order stepping each member.  A member's key
    is its start row, its input's breaks and values, and its threshold
    row."""
    first = {}                        # key -> its row
    order = []
    row = np.empty(len(members), int)
    for j, (_x0, u) in enumerate(members):
        key = (_row_key(starts[j], u),
               None if thresholds is None else thresholds[j].tobytes())
        if key not in first:
            first[key] = len(order)
            order.append(j)
        row[j] = first[key]
    return np.array(order, int), row


class _Reductions:
    """Per-member reductions of the |x| rows, fed a block of 32 samples at
    a time.

    Each one is a running max, or a test of |x| against a nonnegative
    threshold, so a row of zeros changes none of them, and a tail start
    after a row's blow-up sample reads that sample, as on the row's
    truncated trajectory.  The recorded rows keep, per block, their state
    at its first sample and each column's max (_BlockRecords); no certify
    pass reads the records of a blown row: it raises on the blow-up.
    """

    def __init__(self, m: int, n: int, times: np.ndarray, thresholds,
                 tail_starts, recorded):
        self.peaks = np.zeros(m)
        self.last_exceed = None
        if thresholds is not None:
            self.thresholds = thresholds[:, :, None]
            if np.any(self.thresholds < 0):
                raise ValueError("thresholds must be nonnegative")
            self.last_exceed = np.full((m, self.thresholds.shape[1], n), -1)
        self.starts = None
        if tail_starts is not None:
            # the sup from a start is the max of the segment maxima between
            # consecutive distinct start samples from that start on
            self.starts = _tail_start_samples(times, tail_starts)
            self.bounds = _sorted_unique(self.starts)
            self.segment = np.searchsorted(self.bounds, np.arange(times.size),
                                           side="right") - 1
            self.seg_max = np.zeros((m, self.bounds.size, n))
            self.ends = np.full(m, times.size)    # samples each row has
            self.final = np.zeros((m, n))         # |x| at its blow-up
        self.recorded = recorded
        if recorded is not None:
            blocks = -(-times.size // _CHUNK)
            self.rec_states = np.zeros((recorded.size, blocks, n))
            self.rec_tops = np.zeros((recorded.size, blocks, n))

    def update(self, k0: int, block: np.ndarray, blown, start) -> None:
        """Fold samples k0 .. k0 + c - 1, block (c, m, n) of their |x|,
        into every reduction; blown lists (k, mask) of the rows that blow
        up at sample k, and start is the state at sample k0."""
        c = block.shape[0]
        top = block.max(axis=0)
        np.maximum(self.peaks, top.max(axis=1, initial=0.0), out=self.peaks)
        if self.recorded is not None:
            self.rec_states[:, k0 // _CHUNK] = start[self.recorded]
            self.rec_tops[:, k0 // _CHUNK] = top[self.recorded]
        if self.last_exceed is not None:
            # a cell above at the last sample was last above there; only
            # the cells above earlier in the block, and not at its end, are
            # compared sample by sample (NaN cells too, which compare
            # above nowhere)
            above = block[-1][:, None, :] > self.thresholds
            np.copyto(self.last_exceed, k0 + c - 1, where=above)
            inner = ~(top[:, None, :] <= self.thresholds)
            inner &= ~above
            j, lv, i = np.nonzero(inner)
            if j.size:
                hit = block[:-1, j, i] > self.thresholds[j, lv, 0]
                found = hit.any(axis=0)
                last = c - 2 - np.argmax(hit[::-1], axis=0)
                self.last_exceed[j[found], lv[found], i[found]] = \
                    k0 + last[found]
        if self.starts is not None:
            segs = self.segment[k0:k0 + c]
            cuts = np.flatnonzero(segs[1:] != segs[:-1]) + 1
            for a, b in zip((0, *cuts), (*cuts, c)):
                if segs[a] >= 0:
                    seg = self.seg_max[:, segs[a]]
                    np.maximum(seg, top if b - a == c
                               else block[a:b].max(axis=0), out=seg)
            for k, bad in blown:
                self.ends[bad] = k + 1
                self.final[bad] = block[k - k0][bad]

    def tail_sups(self) -> np.ndarray | None:
        if self.starts is None:
            return None
        suffix = _suffix_max(self.seg_max, axis=1)
        sups = suffix[:, np.searchsorted(self.bounds, self.starts)]
        late = self.starts[None, :] > self.ends[:, None] - 1
        return np.where(late[:, :, None], self.final[:, None, :], sups)


def _tail_start_samples(times: np.ndarray, tail_starts) -> np.ndarray:
    """The first sample at or after each tail start, or within 1e-9 of it
    (the last sample for a start past the end)."""
    return np.clip(np.searchsorted(times, np.asarray(tail_starts, float)
                                   - 1e-9, side="left"), 0, times.size - 1)


def _suffix_max(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Running max from the end along ``axis``."""
    return np.flip(np.maximum.accumulate(np.flip(values, axis), axis), axis)


def simulate(net: NetworkSpec, window: Sequence[int], x0, u: InputSignal,
             horizon: float, dt: float | None = None) -> NetworkTrajectory:
    """Simulate the interconnection on a finite window.

    x0 is a vector aligned with the window (or a scalar broadcast to it);
    u is one external signal, scalar (shared by all components) or vector
    valued with one channel per window label.  Discrete horizons count
    steps; continuous horizons are integrated in n = round(horizon/dt)
    RK4 steps, n * dt within 1e-9 * max(1, horizon) of the horizon.
    """
    return _simulate(net, window, [(x0, u)], horizon, dt).trajectory(0)


def simulate_ensemble(net: NetworkSpec, window: Sequence[int],
                      members: Sequence[tuple], horizon: float,
                      dt: float | None = None) -> list[NetworkTrajectory]:
    """Simulate many (x0, u) members on one window, stepped together.

    Returns one trajectory per member, in order, each equal to the
    member's own :func:`simulate` run; a member that blows up is truncated
    exactly as that run would be, without stopping the others.
    """
    run = _simulate(net, window, members, horizon, dt)
    return [run.trajectory(j) for j in range(len(members))]


def _nested_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """A sweep's window sizes, nonempty and strictly increasing, as a tuple."""
    sizes = tuple(sizes)
    if not sizes or list(sizes) != sorted(set(sizes)):
        raise ValueError("window sizes must be nonempty and strictly "
                         "increasing")
    return sizes


@dataclass(frozen=True, eq=False)
class SweepReport:
    sizes: tuple[int, ...]
    times: np.ndarray
    sup_curves: np.ndarray           # shape (len(sizes), len(times))
    drifts: np.ndarray               # max |curve_{k+1} - curve_k| per consecutive pair

    def final_sups(self) -> np.ndarray:
        return self.sup_curves[:, -1]


def truncation_sweep(net: NetworkSpec, sizes: Sequence[int], x0: float,
                     u: InputSignal, horizon: float,
                     dt: float | None = None) -> SweepReport:
    """Simulate nested windows of the given sizes, nonempty and strictly
    increasing, and report how the sup-norm curve moves.

    Every component of every window starts at the number ``x0``.  Boundary
    components outside each window contribute zero; a window that blows up
    raises ArithmeticError.  The sizes and every window are checked before
    the first one is stepped.
    """
    sizes = _nested_sizes(sizes)
    curves = []
    for window in [net.window(size) for size in sizes]:
        traj = simulate(net, window, float(x0), u, horizon, dt)
        if traj.blowup is not None:
            raise ArithmeticError(f"window {len(window)} blew up at "
                                  f"t={traj.blowup.time:g}")
        curves.append(traj.sup_norms())
    sup_curves = np.stack(curves)
    drifts = np.max(np.abs(np.diff(sup_curves, axis=0)), axis=1)
    return SweepReport(sizes, traj.times, sup_curves, drifts)


def subnetwork(net: NetworkSpec, subset: Sequence[int]) -> NetworkSpec:
    """Restriction to ``subset``: same dynamics, neighbors outside the subset
    read zero, gain graph restricted accordingly."""
    labels = net.window(subset)
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
        self.window = net.window(window)
        self.time_domain = net.time_domain
        self.dt = _axiom_dt(net.time_domain, dt)

    def phi(self, t: float, x, u: InputSignal):
        return _no_blowup(simulate(self.net, self.window, x, u, t,
                                   self.dt)).states[-1]

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
