"""Small-gain diagnostics for gain graphs.

Three complementary checks on the gain operator:

* estimate_uniform_sgc samples the positive sphere at several radii and
  records the smallest contraction deficit max_i (x_i - Gamma(x)_i) seen.
  A uniformly positive deficit across radii is the sampled form of the
  uniform small-gain condition; its fitted envelope eta_hat inverts into a
  monotone bound curve xi_hat.
* falsify_mbi hunts for a vector v violating the claimed monotone bound
  ||v|| <= xi(||w||) with w the smallest slack making v <= Gamma(v) + w
  pointwise.  Candidates are drawn one sup-norm level at a time and
  screened in blocks of whole levels, one apply_batch and one xi call per
  block; a hit is revalidated with the reference operator
  apply_gain_operator, which walks the edges one at a time and never uses
  the compiled plan, so a reported witness is exact, not a batch artifact.
  The sample budget (at least 1) bounds the candidates screened.
* finite_cycle_check enumerates simple cycles of a finite window with
  Johnson's blocking search, each from its least window position in a
  fixed order, and folds the gains along each cycle from every starting
  edge; every folded composition must stay below the identity on
  gains.CHECK_GRID, and the screen fails on more than 10 000 cycles.  For
  max-type operators this cycle screen is the classical strong small-gain
  condition.

The two views are dual: a falsification witness v with slack w exists
exactly when the sampled deficit at radius ||v|| drops below what xi's
inverse demands, so shrinking gains or restricting to a subnetwork (both
of which only increase deficits) can never create new witnesses.

Both searches are seeded with extremal directions: the least fixed point
of v -> Gamma(v) + r*ones dominates every solution of v <= Gamma(v) + w
with ||w|| <= r once the cycle screen passes, so its normalized profile
is the extremal sphere pattern.  With these seeds the deficit estimate
and the falsifier agree on linear-gain graphs instead of bracketing the
true bound from opposite sides.  On a window whose edges are all linear
the fixed point is r * v*(1), with v*(1) solving v_i = 1 + max_j a_ij v_j,
so one direction serves every radius; policy iteration solves for it
exactly and a fixed-point residual check accepts it.  Any other window
(or a solve that fails its checks) iterates all radii as one batch, one
apply_batch call per step, and radii that exhaust the iteration budget
without converging are counted in SGCReport.unconverged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import derived_rng
from .comparison import (ScalarCurve, compose, linear,
                         make_strictly_increasing, power, pwl)
from .gains import (CHECK_GRID, GainGraph, NonnegSequence, apply_batch,
                    apply_gain_operator)

__all__ = [
    "dist_to_cone",
    "operator_deficit",
    "SGCReport",
    "estimate_uniform_sgc",
    "MBIWitness",
    "falsify_mbi",
    "invert_k_curve",
    "CycleReport",
    "finite_cycle_check",
    "exact_eta_two_node",
]


def dist_to_cone(v) -> float:
    """Sup-norm distance from v to the nonnegative cone: max(0, -min v)."""
    v = np.asarray(v, float)
    if v.size == 0:
        return 0.0
    return float(max(0.0, -np.min(v)))


def operator_deficit(graph: GainGraph, x, window: Sequence[int] | None = None) -> float:
    """Contraction deficit at x: distance of Gamma(x) - x from the cone.

    Equals max_i (x_i - Gamma(x)_i) clipped at zero; positive means at
    least one component strictly contracts at x.
    """
    if window is None:
        window = tuple(x.indices) if isinstance(x, NonnegSequence) else None
        if window is None:
            raise ValueError("window required for plain arrays")
    arr = x.values if isinstance(x, NonnegSequence) else np.asarray(x, float)
    g = apply_gain_operator(graph, arr, window)
    g = g.values if isinstance(g, NonnegSequence) else g
    return dist_to_cone(g - arr)


_FULL_VERTEX_N = 64   # up to this width every vertex pattern is enumerated


def _vertex_patterns(n: int, rng) -> np.ndarray:
    """All-ones, unit and leave-one-out rows on the positive unit sphere.

    Up to _FULL_VERTEX_N nodes every unit and leave-one-out row is listed and
    rng is not touched; wider windows draw 32 nodes for them from rng.
    """
    rows = [np.ones(n)]
    if n <= _FULL_VERTEX_N:
        rows.extend(np.eye(n))
        if n > 1:
            rows.extend(np.ones((n, n)) - np.eye(n))
    else:
        picks = rng.choice(n, size=32, replace=False)
        for k in picks:
            e = np.zeros(n)
            e[k] = 1.0
            rows.append(e)
            rows.append(1.0 - e)
    return np.array(rows)


def _random_patterns(n: int, m: int, rng) -> np.ndarray:
    """m uniform rows in [0, 1)^n, each with one entry raised to 1."""
    rand = rng.random((m, n))
    peaks = rng.integers(0, n, size=m)
    rand[np.arange(m), peaks] = 1.0
    return rand


def _extremal_directions(graph: GainGraph, window: tuple,
                         radii: Sequence[float]) -> tuple[np.ndarray, int]:
    """Normalized least fixed points of v -> Gamma(v) + r*ones.

    When every in-window edge is linear, v*(r) = r * v*(1) for all radii,
    so the answer is the single row v*(1) / ||v*(1)|| with no unconverged
    radius.  v*(1) solves v_i = 1 + max_j a_ij v_j; policy iteration
    (Howard 1960) finds it exactly, and it is accepted only when one more
    application of the operator moves it by at most the tolerance on which
    the iteration stops.  Anything else (a nonlinear edge, a policy cycle
    of gain at least 1, a failed check, the round cap) falls back to
    _iterated_directions, one row per radius.
    """
    v = _linear_fixed_point(graph, window)
    if v is None:
        return _iterated_directions(graph, window, radii)
    return v[None, :] / np.max(v), 0


# policy iteration gives up after this many improvement rounds
_POLICY_ROUNDS = 100


def _linear_fixed_point(graph: GainGraph, window: tuple) -> np.ndarray | None:
    """v solving v_i = 1 + max_j a_ij v_j on an all-linear window, or None.

    A policy picks one edge per row with edges; its values follow the
    policy's functional graph in O(n).  A row switches edge only when the
    new product beats its current one by more than 1e-12 relative, so
    exact ties cannot make the policy flip-flop.  None when an edge is not
    linear, a policy cycle has gain at least 1, the rounds run out or the
    result fails the fixed-point check.
    """
    plan = graph._plan(window)
    if plan.other:
        return None
    n = len(window)
    succ = np.full(n, -1)
    gain = np.zeros(n)
    choice = _segment_argmax(plan.coeffs, plan.starts)
    for _ in range(_POLICY_ROUNDS):
        succ[plan.targets] = plan.cols[choice]
        gain[plan.targets] = plan.coeffs[choice]
        v = _policy_values(succ.tolist(), gain.tolist())
        if v is None:
            return None
        cand = plan.coeffs * v[plan.cols]
        best = _segment_argmax(cand, plan.starts)
        better = cand[best] - cand[choice] > 1e-12 * cand[choice]
        if not better.any():
            break
        choice = np.where(better, best, choice)
    else:
        return None
    nxt = apply_batch(graph, v[None, :], window)[0] + 1.0
    if np.max(np.abs(nxt - v)) > 1e-13 * max(1.0, float(np.max(nxt))):
        return None
    return v


def _segment_argmax(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Index of the first maximum of each nonempty segment of vals."""
    best = np.maximum.reduceat(vals, starts)
    sizes = np.diff(np.append(starts, vals.size))
    hits = np.flatnonzero(vals == np.repeat(best, sizes))
    seg = np.searchsorted(starts, hits, side="right")
    return hits[np.flatnonzero(np.diff(seg, prepend=0))]


def _policy_values(succ: list, gain: list) -> np.ndarray | None:
    """Values of v_i = 1 + gain_i v_succ(i), with v_i = 1 where succ is -1.

    Every walk along succ ends at a row without an edge or enters a cycle;
    a cycle solves in closed form, v_c = alpha / (1 - p) with p the product
    of its gains, and the rows leading to it are filled in backwards.
    None when a cycle has p >= 1 and so no finite solution.
    """
    n = len(succ)
    v = [1.0] * n
    state = [0] * n              # 0 unseen, 1 on the current walk, 2 solved
    for s in range(n):
        walk = []
        i = s
        while i >= 0 and state[i] == 0:
            state[i] = 1
            walk.append(i)
            i = succ[i]
        if i >= 0 and state[i] == 1:
            k = walk.index(i)
            alpha, p = 0.0, 1.0  # v_i = alpha + p * v_i, folded backwards
            for c in reversed(walk[k:]):
                alpha = 1.0 + gain[c] * alpha
                p *= gain[c]
            if p >= 1.0:
                return None
            v[i] = alpha / (1.0 - p)
            state[i] = 2
            walk.pop(k)
        for c in reversed(walk):
            if succ[c] >= 0:
                v[c] = 1.0 + gain[c] * v[succ[c]]
            state[c] = 2
    return np.array(v)


def _iterated_directions(graph: GainGraph, window: tuple,
                         radii: Sequence[float],
                         max_iter: int = 500) -> tuple[np.ndarray, int]:
    """Normalized fixed points of v -> Gamma(v) + r*ones, one per radius.

    All radii iterate together as the rows of one batch; a row leaves the
    batch when its step stops moving the iterate, when it exceeds a blow-up
    guard (a sign the small-gain condition fails, in which case other
    patterns already expose a nonpositive deficit; the row is dropped), or
    after max_iter steps.  Each row follows exactly the steps it would take
    on its own.  Unconverged iterates are still valid sphere patterns, just
    not extremal ones; their number is returned next to the patterns.
    """
    n = len(window)
    r = np.asarray(radii, dtype=float)
    w = np.repeat(r[:, None], n, axis=1)
    v = w.copy()
    kept = np.ones(r.size, dtype=bool)
    active = np.arange(r.size)
    for _ in range(max_iter):
        if active.size == 0:
            break
        prev = v[active]
        nxt = apply_batch(graph, prev, window) + w[active]
        peak = np.max(nxt, axis=1)
        blown = peak > 1e9 * r[active]
        done = np.max(np.abs(nxt - prev), axis=1) <= 1e-13 * np.maximum(1.0, peak)
        v[active] = nxt
        kept[active[blown]] = False
        active = active[~(blown | done)]
    peak = np.max(v, axis=1)
    keep = kept & (peak > 0.0)
    return v[keep] / peak[keep, None], int(active.size)


def _new_rows(base: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """The rows of extra that equal no row of base, in order."""
    # a row equal to a base row shares its first entry, so only rows whose
    # first entry recurs in base need the full comparison
    cand = np.flatnonzero((extra[:, :1] == base[:, 0]).any(axis=1))
    if cand.size == 0:
        return extra
    seen = np.zeros(extra.shape[0], dtype=bool)
    seen[cand] = (extra[cand, None, :] == base[None, :, :]).all(axis=2).any(axis=1)
    return extra[~seen]


def _append_new_rows(base: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """base followed by the rows of extra that equal no row of base."""
    return np.vstack([base, _new_rows(base, extra)])


@dataclass(frozen=True, eq=False)
class SGCReport:
    """Sampled uniform small-gain estimate."""

    window: tuple
    radii: tuple
    deficits: tuple              # per-radius minimum of the signed deficit
    holds: bool
    eta_hat: ScalarCurve | None  # fitted deficit envelope, only when holds
    xi_hat: ScalarCurve | None   # inverse of eta_hat
    witnesses: tuple             # per-radius argmin points (tuples)
    samples_per_radius: int
    seed: int
    unconverged: int = 0         # radii whose extremal iteration hit max_iter;
                                 # 0 on windows solved exactly (all linear)

    def summary(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        worst = min(self.deficits)
        text = (f"uniform small-gain estimate: {verdict}; "
                f"worst deficit {worst:.6g} over radii "
                f"[{self.radii[0]:g}, {self.radii[-1]:g}], "
                f"{self.samples_per_radius} samples per radius")
        if self.unconverged:
            text += (f"; {self.unconverged} of {len(self.radii)} extremal "
                     f"fixed-point iterations did not converge")
        return text


def estimate_uniform_sgc(graph: GainGraph,
                         window: Sequence[int] | None = None,
                         radii: Sequence[float] | None = None,
                         n_random: int = 64,
                         seed: int = 0) -> SGCReport:
    """Estimate the uniform small-gain deficit over sampled spheres.

    For each radius the signed deficit max_i (x_i - Gamma(x)_i) is
    minimized over deterministic vertex patterns (unit vectors, all-ones,
    leave-one-out) plus random patterns; the condition holds at the sampled
    resolution when every per-radius minimum is positive relative to the
    radius.  The radii are sorted first, so the report lists them in
    ascending order whatever order they came in.
    """
    if window is None:
        if not graph.index_set.finite:
            raise ValueError("window required for an infinite index set")
        window = graph.index_set.labels
    window = tuple(window)
    n = len(window)
    if radii is None:
        radii = np.geomspace(1e-2, 1e2, 9)
    # the deficit floor below is a running minimum from the largest radius
    radii = tuple(sorted(float(r) for r in radii))
    rng = derived_rng(seed, "sgc", n)
    dirs, unconverged = _extremal_directions(graph, window, radii)
    sphere = np.vstack([_vertex_patterns(n, rng),
                        _random_patterns(n, n_random, rng)])
    patterns = _append_new_rows(sphere, dirs)

    mins, worst_points = [], []
    for r in radii:
        batch = r * patterns
        g = apply_batch(graph, batch, window)
        signed = np.max(batch - g, axis=1)
        k = int(np.argmin(signed))
        mins.append(float(signed[k]))
        worst_points.append(tuple(batch[k]))
    holds = all(m > 1e-9 * r for m, r in zip(mins, radii))

    eta_hat = xi_hat = None
    if holds:
        # largest nondecreasing minorant of the sampled deficits: the fit
        # must stay below every per-radius minimum to remain a valid floor
        floor = np.minimum.accumulate(np.asarray(mins)[::-1])[::-1]
        br = np.concatenate([[0.0], radii])
        vals = np.concatenate([[0.0], floor])
        eta_hat = make_strictly_increasing(pwl(zip(br, vals), "K"))
        xi_hat = invert_k_curve(eta_hat)
    return SGCReport(window, radii, tuple(mins), holds, eta_hat, xi_hat,
                     tuple(worst_points), patterns.shape[0], seed, unconverged)


# a witness must beat xi by more than _ATOL * max(1, ||v||)
_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class MBIWitness:
    """A vector violating a claimed monotone bound.

    v fails ||v|| <= xi(||w||) for the minimal slack w = (v - Gamma(v))+,
    which is the smallest w satisfying v <= Gamma(v) + w pointwise.
    """

    window: tuple
    v: tuple
    w: tuple
    norm_v: float
    norm_w: float
    xi_at_w: float
    margin: float
    samples_used: int
    seed: int

    def validate(self, graph: GainGraph, xi: ScalarCurve, atol: float = _ATOL) -> bool:
        again = _revalidate(graph, self.window, xi, self.v, self.samples_used,
                            self.seed, atol)
        return again is not None and np.array_equal(again.w, self.w)


# rows x window width screened per apply_batch call; whole levels are
# gathered until a block reaches it, so a wide level is a block of its own
_BLOCK_ENTRIES = 1 << 12


def falsify_mbi(graph: GainGraph,
                window: Sequence[int],
                xi: ScalarCurve,
                budget: int = 10_000,
                seed: int = 0) -> MBIWitness | None:
    """Search for a violation of the monotone bound property.

    Samples nonnegative vectors across a sweep of 24 sup-norm levels from
    1e-2 to 1e2; each candidate v gets the minimal slack w = (v - Gamma(v))+
    and is checked against ||v|| <= xi(||w||) + 1e-9 * max(1, ||v||).  The
    first sweep tries the all-ones row, the extremal directions and the
    vertex patterns before random rows; later sweeps draw random rows only.

    Whole levels are screened together in blocks of about _BLOCK_ENTRIES
    entries, one apply_batch and one xi call per block.  Levels are then
    scanned in order, and the first hit of each level is recomputed
    entrywise before being returned, with samples_used at that level's end.
    The random stream is local to the call, so the result equals screening
    one level at a time.  budget (at least 1) is a hard bound: exactly
    budget candidates are screened when no witness turns up, and None is
    returned.
    """
    if budget < 1:
        raise ValueError(f"falsification budget must be at least 1, got {budget}")
    window = tuple(window)
    n = len(window)
    rng = derived_rng(seed, "falsify", n)
    levels = np.geomspace(1e-2, 1e2, 24)
    # amplified profiles go right after the all-ones row, and a first-sweep
    # level keeps at least n + 1 + len(dirs) rows, so a small chunk cannot
    # slice them away before they are tried; only the budget itself can
    dirs, _ = _extremal_directions(graph, window, levels)
    base = np.vstack([np.ones((1, n)), dirs])
    # up to _FULL_VERTEX_N nodes the vertex rows draw nothing from rng, so
    # they are deduplicated once; wider windows draw them again per level
    head = None
    if n <= _FULL_VERTEX_N:
        head = _append_new_rows(base, _vertex_patterns(n, rng))
    block, ends = [], []        # level batches; (block rows, used) per level
    rows = used = 0
    first = True
    while used < budget:
        for level in levels:
            if used >= budget:
                break
            chunk = min(max(32, budget // (2 * len(levels))), budget - used)
            if first:
                top = head if head is not None else _append_new_rows(
                    base, _vertex_patterns(n, rng))
                # random rows are checked against base, not the vertex rows
                rand = _new_rows(base, _random_patterns(n, chunk, rng))
                keep = min(max(chunk, n + 1 + dirs.shape[0]), budget - used)
                pats = np.vstack([top, rand])[:keep]
            else:
                pats = _random_patterns(n, chunk, rng)
            pats *= level          # pats is a fresh array in both branches
            block.append(pats)
            rows += pats.shape[0]
            used += pats.shape[0]
            ends.append((rows, used))
            if rows * n >= _BLOCK_ENTRIES or used >= budget:
                witness = _screen_block(graph, window, xi, np.vstack(block),
                                        ends, seed)
                if witness is not None:
                    return witness
                block, ends, rows = [], [], 0
        first = False
    return None


def _screen_block(graph, window, xi, batch, ends, seed):
    """First revalidated witness among a block of levels, or None.

    ends holds (end row in batch, samples used) per level; only the first
    hit of each level is revalidated, as when levels are screened alone.
    """
    # the slack overwrites apply_batch's fresh output: on wide windows each
    # block-sized temporary costs page faults
    w = apply_batch(graph, batch, window)
    np.subtract(batch, w, out=w)
    np.maximum(w, 0.0, out=w)
    nv = np.max(batch, axis=1)
    nw = np.max(w, axis=1)
    rhs = np.asarray(xi(nw), float)
    bad = nv > rhs + _ATOL * np.maximum(1.0, nv)
    if not np.any(bad):
        return None
    start = 0
    for stop, used in ends:
        hits = np.flatnonzero(bad[start:stop])
        if hits.size:
            witness = _revalidate(graph, window, xi, batch[start + hits[0]],
                                  used, seed)
            if witness is not None:
                return witness
        start = stop
    return None


def _revalidate(graph, window, xi, v, used, seed, atol=_ATOL):
    """Recompute a candidate witness entrywise with the block screen's test,
    ||v|| > xi(||w||) + atol * max(1, ||v||); discard batch artifacts.
    MBIWitness.validate applies the same rule."""
    v = np.asarray(v, float)
    g = apply_gain_operator(graph, v, window)
    w = np.maximum(v - g, 0.0)
    nv = float(np.max(np.abs(v)))
    nw = float(np.max(np.abs(w)))
    rhs = float(xi(nw))
    if not nv > rhs + atol * max(1.0, nv):
        return None
    return MBIWitness(tuple(window), tuple(v), tuple(w), nv, nw, rhs,
                      nv - rhs, used, seed)


def invert_k_curve(curve: ScalarCurve) -> ScalarCurve:
    """Exact inverse of an unbounded increasing curve.

    linear and power invert in closed form; a strictly increasing pwl curve
    inverts by swapping breakpoints and values; compositions invert by
    reversing their parts.  Anything bounded (saturating) is rejected.
    """
    if curve.kind == "linear":
        a = curve.params["a"]
        if a <= 0:
            raise ValueError("cannot invert a flat curve")
        return linear(1.0 / a)
    if curve.kind == "power":
        p = curve.params
        a, q = p["a"], p["p"]
        if a <= 0 or q <= 0:
            raise ValueError("cannot invert a degenerate power curve")
        return power(a ** (-1.0 / q), 1.0 / q)
    if curve.kind == "pwl":
        b = np.asarray(curve.breaks, float)
        v = np.asarray(curve.vals, float)
        if np.any(np.diff(v) <= 0):
            raise ValueError("pwl inverse needs strictly increasing values")
        if curve.final_slope() <= 0:
            raise ValueError("pwl inverse needs a positive final slope")
        if b[0] != 0 or v[0] != 0:
            raise ValueError("pwl inverse needs an anchored origin")
        return pwl(zip(v, b), "Kinf")
    if curve.kind == "compose":
        outer, inner = curve.parts
        return compose(invert_k_curve(inner), invert_k_curve(outer))
    raise ValueError(f"no exact inverse for kind {curve.kind!r}")


@dataclass(frozen=True, eq=False)
class CycleReport:
    window: tuple
    n_cycles: int
    worst_margin: float          # min over cycles/rotations/grid of (r - folded)/r
    worst_cycle: tuple | None
    passed: bool
    truncated: bool

    def summary(self) -> str:
        state = "passed" if self.passed else "FAILED"
        extra = " (cycle list truncated)" if self.truncated else ""
        return (f"cycle screen {state}: {self.n_cycles} simple cycles, "
                f"worst relative margin {self.worst_margin:.6g}{extra}")


def _simple_cycles(succ):
    """Simple cycles of the digraph with successor lists succ, as position lists.

    Johnson's blocking search (SIAM J. Comput. 1975), kept iterative.  The
    search from start s walks only the positions above s, so every cycle
    comes out once, from its least position, in a fixed order; a start
    with no edge into it from itself or above closes no cycle and is
    skipped.
    """
    n = len(succ)
    closable = [False] * n
    for v, ws in enumerate(succ):
        for w in ws:
            if w <= v:
                closable[w] = True
    for s in range(n):
        if not closable[s]:
            continue
        blocked = [False] * n
        blocked[s] = True
        waiting = {}               # w -> positions to unblock along with w
        path = [s]
        todo = [iter(succ[s])]
        closed = [False]           # per path entry: a cycle was found below it
        while todo:
            for w in todo[-1]:
                if w == s:
                    yield path[:]
                    closed[-1] = True
                elif w > s and not blocked[w]:
                    blocked[w] = True
                    path.append(w)
                    todo.append(iter(succ[w]))
                    closed.append(False)
                    break
            else:
                todo.pop()
                v = path.pop()
                if closed.pop():
                    if closed:
                        closed[-1] = True
                    free = [v]
                    while free:
                        u = free.pop()
                        if blocked[u]:
                            blocked[u] = False
                            free.extend(waiting.pop(u, ()))
                else:
                    for w in succ[v]:
                        if w > s:
                            waiting.setdefault(w, set()).add(v)


def _cycle_margin(gains) -> float:
    """Least relative margin (r - folded(r)) / r on CHECK_GRID over every
    starting edge of the fold along gains, the cycle's edges in order.

    The k rotations run as one first-in first-out batch: row r starts at
    step r and leaves after k steps, so step t applies edge t mod k to a
    contiguous block of rows and the k folds take 2k - 1 curve calls.
    """
    k = len(gains)
    vals = np.tile(CHECK_GRID, (k, 1))
    for t in range(2 * k - 1):
        rows = slice(max(0, t - k + 1), min(t, k - 1) + 1)
        vals[rows] = gains[t % k](vals[rows])
    return float(np.min((CHECK_GRID - vals) / CHECK_GRID))


def finite_cycle_check(graph: GainGraph, window: Sequence[int]) -> CycleReport:
    """Fold gains along every simple cycle of a finite window.

    For the cycle i1 -> i2 -> ... -> ik -> i1 of influence (i2's row holds
    i1, and so on) the folded map is the composition of the edge gains,
    started at any of the k edges; the screen passes when every such map
    stays below the identity by a relative margin of 1e-6 on the gains
    check grid, and fails when the window has more than 10 000 cycles.
    Cycles are listed from their least window position, in the order of
    Johnson's search, so worst_cycle (the first cycle of least margin)
    starts there, and the verdict does not depend on labels or window order.
    """
    window = tuple(window)
    pos = {label: p for p, label in enumerate(window)}
    rows = [graph.row(i) for i in window]
    succ = [[] for _ in window]
    for q, row in enumerate(rows):
        for j in row:
            if j in pos:
                succ[pos[j]].append(q)   # influence flows from j into window[q]

    n_cycles = 0
    truncated = False
    worst = np.inf
    worst_cycle = None
    for cycle in _simple_cycles(succ):
        n_cycles += 1
        if n_cycles > 10_000:
            truncated = True
            n_cycles -= 1
            break
        k = len(cycle)
        margin = _cycle_margin([rows[cycle[(e + 1) % k]][window[cycle[e]]]
                                for e in range(k)])
        if margin < worst:
            worst = margin
            worst_cycle = tuple(window[p] for p in cycle)
    passed = (n_cycles == 0) or (worst > 1e-6 and not truncated)
    return CycleReport(window, n_cycles, worst, worst_cycle, passed, truncated)


def exact_eta_two_node(a: float, b: float) -> ScalarCurve:
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
