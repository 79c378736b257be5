"""Small-gain diagnostics for gain graphs.

Three complementary checks on the gain operator:

* estimate_uniform_sgc records, at several radii, the smallest contraction
  deficit max_i (x_i - Gamma(x)_i) over the positive sphere.  On a window
  the plan solves (all edges linear) the extremal row r * v*(1) / c,
  c = ||v*(1)||, attains the least deficit r / c, so that one row is
  evaluated and nothing is drawn; on any other window the sphere is
  sampled.  A uniformly positive deficit across radii is the uniform
  small-gain condition; its fitted envelope eta_hat inverts into a
  monotone bound curve xi_hat.
* falsify_mbi hunts for a vector v violating the claimed monotone bound
  ||v|| <= xi(||w||) with w the smallest slack making v <= Gamma(v) + w
  pointwise.  Candidates are drawn one sup-norm level at a time, and each
  level is screened as it is drawn, with one apply_batch and one xi call;
  its first hit is revalidated with the reference operator
  apply_gain_operator, which walks the edges one at a time and never uses
  the compiled plan, so a reported witness is exact, not a batch artifact.
  The sample budget (at least 1) bounds the candidates screened.  On a
  window whose edges are all linear and a class-K xi, the least fixed
  point below decides exactly when no candidate can fail, and then nothing
  is drawn or screened.
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
so one direction serves every radius; the window's plan (gains) solves
for it exactly once and keeps it, and the estimate evaluates that row
alone.  Any other window (or a failed solve)
iterates all radii as one batch, one apply_batch call per step, and radii
that exhaust the iteration budget without converging are counted in
SGCReport.unconverged.  _directions makes this choice for both searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import derived_rng
from .comparison import (ScalarCurve, compose, linear,
                         make_strictly_increasing, power, pwl)
from .gains import (CHECK_GRID, GainGraph, _settled, apply_batch,
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
]


def dist_to_cone(v) -> float:
    """Sup-norm distance from v to the nonnegative cone: max(0, -min v)."""
    v = np.asarray(v, float)
    if v.size == 0:
        return 0.0
    return float(max(0.0, -np.min(v)))


def operator_deficit(graph: GainGraph, x, window: Sequence[int]) -> float:
    """Contraction deficit at the vector x on the window: distance of
    Gamma(x) - x from the cone.

    Equals max_i (x_i - Gamma(x)_i) clipped at zero; positive means at
    least one component strictly contracts at x.
    """
    x = np.asarray(x, float)
    return dist_to_cone(apply_gain_operator(graph, x, window) - x)


_FULL_VERTEX_N = 64   # up to this width every vertex pattern is enumerated
DEFAULT_SGC_RANDOM = 64        # random sphere patterns of estimate_uniform_sgc
DEFAULT_FALSIFY_BUDGET = 10_000
# estimate_uniform_sgc's default radii and falsify_mbi's levels, written out
# like gains.CHECK_GRID: np.geomspace(1e-2, 1e2, 9) and (1e-2, 1e2, 24)
_SGC_RADII = np.array([
    0.01, 0.03162277660168379, 0.1, 0.31622776601683794, 1.0,
    3.1622776601683795, 10.0, 31.622776601683793, 100.0])
_SGC_RADII.flags.writeable = False
_MBI_LEVELS = np.array([
    0.01, 0.014924955450518291, 0.022275429519995574, 0.03324597932270942,
    0.04961947603002903, 0.07405684692262435, 0.11052951411260215,
    0.16496480740980207, 0.24620924014946255, 0.3674661940736688,
    0.5484416576121018, 0.8185467307069029, 1.2216773489967918,
    1.8233480008684404, 2.7213387683753085, 4.061585988376979,
    6.061898993497572, 9.047357242349293, 13.503140378698722,
    20.15337685941733, 30.07882518043099, 44.89251258218603,
    67.0018750350959, 100.0])
_MBI_LEVELS.flags.writeable = False


def _vertex_patterns(n: int, rng) -> np.ndarray:
    """All-ones, unit and leave-one-out rows on the positive unit sphere,
    each row once.

    Up to _FULL_VERTEX_N nodes every unit and leave-one-out row is listed and
    rng is not touched; wider windows draw 32 nodes for them from rng.  On
    one node the unit row is the all-ones row, and on two nodes the
    leave-one-out rows are the unit rows, so neither is listed again.
    """
    rows = [np.ones(n)]
    if n <= _FULL_VERTEX_N:
        if n > 1:
            rows.extend(np.eye(n))
        if n > 2:
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


def _directions(graph: GainGraph, window: tuple, radii: Sequence[float]
                ) -> tuple[float | None, np.ndarray, int]:
    """(c, rows, unconverged) for v -> Gamma(v) + r*ones: c = ||v*(1)|| and one
    row v*(1) / c from the plan, else c None and _iterated_directions."""
    v = graph._plan(window).fixed_point
    if v is None:
        return (None, *_iterated_directions(graph, window, radii))
    c = float(np.max(v))
    return c, v[None, :] / c, 0


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
        done = _settled(nxt, prev, peak)
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
    """Uniform small-gain estimate: exact on a window the plan solves,
    sampled on any other."""

    window: tuple
    radii: tuple
    deficits: tuple              # per-radius minimum of the signed deficit
    holds: bool
    eta_hat: ScalarCurve | None  # fitted deficit envelope, only when holds
    xi_hat: ScalarCurve | None   # inverse of eta_hat
    witnesses: tuple             # per-radius argmin points (tuples)
    samples_per_radius: int      # rows evaluated at each radius: 1 when exact
    seed: int
    unconverged: int = 0         # radii whose extremal iteration hit max_iter;
                                 # 0 on windows solved exactly (all linear)
    exact: bool = False          # deficits are the extremal row's, r / c

    def summary(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        worst = min(self.deficits)
        text = (f"uniform small-gain estimate: {verdict}; "
                f"worst deficit {worst:.6g} over radii "
                f"[{self.radii[0]:g}, {self.radii[-1]:g}], ")
        if self.exact:
            return text + "exact: the extremal row at each radius"
        text += f"{self.samples_per_radius} samples per radius"
        if self.unconverged:
            text += (f"; {self.unconverged} of {len(self.radii)} extremal "
                     f"fixed-point iterations did not converge")
        return text


def estimate_uniform_sgc(graph: GainGraph,
                         window: Sequence[int] | None = None,
                         radii: Sequence[float] | None = None,
                         n_random: int = DEFAULT_SGC_RANDOM,
                         seed: int = 0) -> SGCReport:
    """Estimate the uniform small-gain deficit over the spheres of radii.

    For each radius the signed deficit max_i (x_i - Gamma(x)_i) is
    minimized over rows on the sphere; the condition holds when every
    per-radius minimum is positive relative to the radius.

    On a window the plan solves (every edge linear, v*(1) found), the
    estimate is exact: with c = ||v*(1)||, every row at radius r has
    deficit at least r / c, and the extremal row r * v*(1) / c attains it
    (falsify_mbi's proof).  That row alone is evaluated at each radius
    (samples_per_radius 1, exact True), and no random stream is built.
    Any other window, or a failed solve, samples: the deterministic vertex
    patterns (all-ones, unit and leave-one-out rows), n_random random rows
    of the stream of seed, and the iterated extremal directions, counted
    in samples_per_radius.  n_random and seed act only there.

    Every radius is evaluated in one apply_batch call.  The radii (at
    least one, distinct, positive and finite) are sorted first, so the
    report lists them in ascending order whatever order they came in.  The
    window defaults to every label of a finite index set; a generated one
    needs it given.
    """
    window = graph.index_set.window(window)
    n = len(window)
    # sorted for the deficit floor below, a running minimum from the largest
    # radius; then distinct, positive and finite is increasing from 0 to inf
    radii = tuple(sorted(map(float, _SGC_RADII if radii is None else radii)))
    if not radii or not all(a < b for a, b in zip((0.0, *radii),
                                                  (*radii, np.inf))):
        raise ValueError(f"radii must be a nonempty list of distinct positive "
                         f"finite numbers, got {list(radii)}")
    c, patterns, unconverged = _directions(graph, window, radii)
    if c is None:
        rng = derived_rng(seed, "sgc", n)
        sphere = np.vstack([_vertex_patterns(n, rng),
                            _random_patterns(n, n_random, rng)])
        patterns = _append_new_rows(sphere, patterns)

    # every radius in one call: batch rows are independent, so each radius
    # keeps the bits of a call of its own
    batch = np.asarray(radii)[:, None, None] * patterns
    g = apply_batch(graph, batch.reshape(-1, n), window)
    signed = np.max(batch - g.reshape(batch.shape), axis=2)
    worst = np.argmin(signed, axis=1)
    mins = signed[np.arange(len(radii)), worst].tolist()
    worst_points = [tuple(rows[k]) for rows, k in zip(batch, worst)]
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
                     tuple(worst_points), patterns.shape[0], seed, unconverged,
                     c is not None)


def _beats(nv, rhs):
    """Whether ||v|| = nv beats xi(||w||) = rhs by more than
    1e-9 * max(1, nv): the witness test, elementwise on arrays."""
    return nv > rhs + 1e-9 * np.maximum(1.0, nv)


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

    def validate(self, graph: GainGraph, xi: ScalarCurve) -> bool:
        again = _revalidate(graph, self.window, xi, self.v, self.samples_used,
                            self.seed)
        return again is not None and np.array_equal(again.w, self.w)


def falsify_mbi(graph: GainGraph,
                window: Sequence[int],
                xi: ScalarCurve,
                budget: int = DEFAULT_FALSIFY_BUDGET,
                seed: int = 0) -> MBIWitness | None:
    """Search for a violation of the monotone bound property.

    Samples nonnegative vectors across a sweep of 24 sup-norm levels from
    1e-2 to 1e2; each candidate v gets the minimal slack w = (v - Gamma(v))+
    and is checked against ||v|| <= xi(||w||) + 1e-9 * max(1, ||v||).  The
    first sweep tries the all-ones row, the extremal directions and the
    vertex patterns before random rows; later sweeps draw random rows only.

    On a window whose edges are all linear, with v*(1) the least fixed
    point of v = Gamma(v) + 1 and c = ||v*(1)||, a class-K (or Kinf) xi is
    first tested exactly: every nonnegative row v at level L has
    ||w|| >= L / c, with equality at L * v*(1) / c.  Proof: let
    u = ||w|| * v*(1) and t = max_i v_i / u_i; if t > 1, then
    v <= Gamma(v) + ||w|| <= t * u - (t - 1) * ||w|| < t * u, which
    contradicts v_i = t * u_i at the maximizing i.  Since xi is
    nondecreasing, when no level fails at xi(L / c) (with L / c shrunk by
    1e-12 as a rounding guard), no candidate can, and None is returned
    without drawing or screening a row.  Otherwise the search below runs as it
    would without the test, with v*(1) / c as its extremal direction.

    Each level is screened as soon as it is drawn, with one apply_batch and
    one xi call, and its first hit is recomputed entrywise before being
    returned, with samples_used at that level's end; a hit the recomputation
    rejects lets the search go on.  budget (at least 1) is a hard bound on
    the candidates screened: when the search runs and no witness turns up,
    exactly budget candidates are screened and None is returned.
    """
    if budget < 1:
        raise ValueError(f"falsification budget must be at least 1, got {budget}")
    window = graph.index_set.window(window)
    n = len(window)
    levels = _MBI_LEVELS
    c, dirs, _ = _directions(graph, window, levels)
    if c is not None and xi.claimed_class in ("K", "Kinf"):
        # the least slack at each level, shrunk by a rounding guard
        rhs = np.asarray(xi(levels / c * (1.0 - 1e-12)), float)
        if not np.any(_beats(levels, rhs)):
            return None
    rng = derived_rng(seed, "falsify", n)
    # amplified profiles go right after the all-ones row, and a first-sweep
    # level keeps at least n + 1 + len(dirs) rows, so a small chunk cannot
    # slice them away before they are tried; only the budget itself can
    base = np.vstack([np.ones((1, n)), dirs])
    used = 0
    first = True
    while used < budget:
        for level in levels:
            if used >= budget:
                break
            chunk = min(max(32, budget // (2 * len(levels))), budget - used)
            if first:
                top = _append_new_rows(base, _vertex_patterns(n, rng))
                # random rows are checked against base, not the vertex rows
                rand = _new_rows(base, _random_patterns(n, chunk, rng))
                keep = min(max(chunk, n + 1 + dirs.shape[0]), budget - used)
                pats = np.vstack([top, rand])[:keep]
            else:
                pats = _random_patterns(n, chunk, rng)
            pats *= level          # pats is a fresh array in both branches
            used += pats.shape[0]
            w = np.maximum(pats - apply_batch(graph, pats, window), 0.0)
            bad = _beats(np.max(pats, axis=1),
                         np.asarray(xi(np.max(w, axis=1)), float))
            if np.any(bad):
                witness = _revalidate(graph, window, xi,
                                      pats[np.argmax(bad)], used, seed)
                if witness is not None:
                    return witness
        first = False
    return None


def _revalidate(graph, window, xi, v, used, seed):
    """Recompute a candidate witness entrywise with the screen's test,
    _beats; discard batch artifacts.  MBIWitness.validate applies the same
    rule."""
    v = np.asarray(v, float)
    g = apply_gain_operator(graph, v, window)
    w = np.maximum(v - g, 0.0)
    nv = float(np.max(np.abs(v)))
    nw = float(np.max(np.abs(w)))
    rhs = float(xi(nw))
    if not _beats(nv, rhs):
        return None
    return MBIWitness(window, tuple(v), tuple(w), nv, nw, rhs,
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
    plan = graph._plan(window)
    window = plan.window
    succ = [[] for _ in window]
    gain = {}
    for q, p, g in plan.edges:
        succ[p].append(q)        # influence flows from position p into q
        gain[q, p] = g

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
        margin = _cycle_margin([gain[cycle[(e + 1) % k], cycle[e]]
                                for e in range(k)])
        if margin < worst:
            worst = margin
            worst_cycle = tuple(window[p] for p in cycle)
    passed = (n_cycles == 0) or (worst > 1e-6 and not truncated)
    return CycleReport(window, n_cycles, worst, worst_cycle, passed, truncated)
