"""Small-gain diagnostics for gain graphs.

Three complementary checks on the gain operator:

* estimate_uniform_sgc samples the positive sphere at several radii and
  records the smallest contraction deficit max_i (x_i - Gamma(x)_i) seen.
  A uniformly positive deficit across radii is the sampled form of the
  uniform small-gain condition; its fitted envelope eta_hat inverts into a
  monotone bound curve xi_hat.
* falsify_mbi hunts for a vector v violating the claimed monotone bound
  ||v|| <= xi(||w||) with w the smallest slack making v <= Gamma(v) + w
  pointwise.  Candidates are screened with the batch kernel apply_batch;
  a hit is revalidated with the reference operator apply_gain_operator,
  which walks the edges one at a time and never uses the compiled plan,
  so a reported witness is exact, not a batch artifact.
* finite_cycle_check enumerates simple cycles of a finite window and folds
  the gains along each cycle; every folded composition must stay below the
  identity.  For max-type operators this cycle screen is the classical
  strong small-gain condition.

The two views are dual: a falsification witness v with slack w exists
exactly when the sampled deficit at radius ||v|| drops below what xi's
inverse demands, so shrinking gains or restricting to a subnetwork (both
of which only increase deficits) can never create new witnesses.

Both searches are seeded with iterated-slack directions: the fixed point
of v -> Gamma(v) + r*ones dominates every solution of v <= Gamma(v) + w
with ||w|| <= r once the cycle screen passes, so its normalized profile
is the extremal sphere pattern.  With these seeds the deficit estimate
and the falsifier agree on linear-gain graphs instead of bracketing the
true bound from opposite sides.  The fixed-point iterations of all radii
run as one batch, one apply_batch call per step; radii that exhaust the
iteration budget without converging are counted in SGCReport.unconverged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import networkx as nx
import numpy as np

from ._rng import derived_rng
from .comparison import (ScalarCurve, compose, linear,
                         make_strictly_increasing, power, pwl)
from .gains import GainGraph, NonnegSequence, apply_batch, apply_gain_operator

__all__ = [
    "dist_to_cone",
    "operator_deficit",
    "SGCReport",
    "estimate_uniform_sgc",
    "MBIWitness",
    "falsify_mbi",
    "invert_k_curve",
    "derive_xi_from_eta",
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


def _sphere_patterns(n: int, n_random: int, rng) -> np.ndarray:
    """Patterns on the positive sup-norm unit sphere (max entry == 1)."""
    rows = [np.ones(n)]
    if n <= 64:
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
    det = np.array(rows)
    if n_random > 0:
        rand = rng.random((n_random, n))
        peaks = rng.integers(0, n, size=n_random)
        rand[np.arange(n_random), peaks] = 1.0
        det = np.vstack([det, rand])
    return det


def _extremal_directions(graph: GainGraph, window: tuple,
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


def _append_new_rows(base: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """base followed by the rows of extra that equal no row of base."""
    seen = np.any(np.all(extra[:, None, :] == base[None, :, :], axis=2), axis=1)
    if np.all(seen):
        return base
    return np.vstack([base, extra[~seen]])


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
    unconverged: int = 0         # radii whose extremal iteration hit max_iter

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
    radius.
    """
    if window is None:
        if not graph.index_set.finite:
            raise ValueError("window required for an infinite index set")
        window = graph.index_set.labels
    window = tuple(window)
    n = len(window)
    if radii is None:
        radii = np.geomspace(1e-2, 1e2, 9)
    radii = tuple(float(r) for r in radii)
    rng = derived_rng(seed, "sgc", n)
    dirs, unconverged = _extremal_directions(graph, window, radii)
    patterns = _append_new_rows(_sphere_patterns(n, n_random, rng), dirs)

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

    def validate(self, graph: GainGraph, xi: ScalarCurve, atol: float = 1e-9) -> bool:
        v = np.asarray(self.v, float)
        g = apply_gain_operator(graph, v, self.window)
        w = np.maximum(v - g, 0.0)
        if not np.array_equal(w, np.asarray(self.w, float)):
            return False
        nv, nw = float(np.max(np.abs(v))), float(np.max(np.abs(w)))
        return nv > float(xi(nw)) + atol * max(1.0, nv)


def falsify_mbi(graph: GainGraph,
                window: Sequence[int],
                xi: ScalarCurve,
                budget: int = 10_000,
                seed: int = 0,
                norm_range: tuple[float, float] = (1e-2, 1e2),
                atol: float = 1e-9) -> MBIWitness | None:
    """Search for a violation of the monotone bound property.

    Samples nonnegative vectors across a sweep of sup norms; each candidate
    v gets the minimal slack w = (v - Gamma(v))+ and is checked against
    ||v|| <= xi(||w||) + atol * max(1, ||v||).  The first batch hit is
    recomputed entrywise before being returned.  Returns None if the budget
    is exhausted without a violation.
    """
    window = tuple(window)
    n = len(window)
    rng = derived_rng(seed, "falsify", n)
    levels = np.geomspace(norm_range[0], norm_range[1], 24)
    # amplified profiles go right after the all-ones row so a small budget
    # cannot slice them away before they are ever tried
    dirs, _ = _extremal_directions(graph, window, levels)
    used = 0
    first = True
    while used < budget:
        for level in levels:
            if used >= budget:
                break
            chunk = min(max(32, budget // (2 * len(levels))), budget - used)
            if first:
                sp = _sphere_patterns(n, chunk, rng)
                pats = _append_new_rows(np.vstack([sp[:1], dirs]), sp[1:])
                pats = pats[:max(chunk, n + 1 + dirs.shape[0])]
            else:
                pats = rng.random((chunk, n))
                peaks = rng.integers(0, n, size=chunk)
                pats[np.arange(chunk), peaks] = 1.0
            batch = level * pats
            g = apply_batch(graph, batch, window)
            w = np.maximum(batch - g, 0.0)
            nv = np.max(batch, axis=1)
            nw = np.max(w, axis=1)
            rhs = np.asarray(xi(nw), float)
            bad = nv > rhs + atol * np.maximum(1.0, nv)
            used += batch.shape[0]
            if np.any(bad):
                k = int(np.argmax(bad))
                witness = _revalidate(graph, window, xi, batch[k], used, seed, atol)
                if witness is not None:
                    return witness
        first = False
    return None


def _revalidate(graph, window, xi, v, used, seed, atol):
    """Recompute a candidate witness entrywise; discard batch artifacts."""
    v = np.asarray(v, float)
    g = apply_gain_operator(graph, v, window)
    w = np.maximum(v - g, 0.0)
    nv = float(np.max(np.abs(v)))
    nw = float(np.max(np.abs(w)))
    rhs = float(xi(nw))
    margin = nv - rhs
    if margin <= atol * max(1.0, nv):
        return None
    return MBIWitness(tuple(window), tuple(v), tuple(w), nv, nw, rhs,
                      margin, used, seed)


def invert_k_curve(curve: ScalarCurve) -> ScalarCurve:
    """Exact inverse of an unbounded increasing curve.

    linear and power invert in closed form; a strictly increasing pwl curve
    inverts by swapping breakpoints and values; compositions invert by
    reversing their parts.  Anything bounded (saturating) is rejected.
    """
    if curve.kind == "linear":
        a = curve._pdict()["a"]
        if a <= 0:
            raise ValueError("cannot invert a flat curve")
        return linear(1.0 / a)
    if curve.kind == "power":
        p = curve._pdict()
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


def derive_xi_from_eta(eta: ScalarCurve) -> ScalarCurve:
    """Monotone bound curve from a uniform deficit curve: the exact inverse.

    If every point on the sphere of radius r has deficit at least eta(r),
    any v with slack w satisfies eta(||v||) <= ||w||, so ||v|| stays below
    the inverse of eta at ||w||.
    """
    return invert_k_curve(eta)


@dataclass(frozen=True, eq=False)
class CycleReport:
    window: tuple
    n_cycles: int
    worst_margin: float          # min over cycles/grid of (r - folded)/r
    worst_cycle: tuple | None
    passed: bool
    truncated: bool

    def summary(self) -> str:
        state = "passed" if self.passed else "FAILED"
        extra = " (cycle list truncated)" if self.truncated else ""
        return (f"cycle screen {state}: {self.n_cycles} simple cycles, "
                f"worst relative margin {self.worst_margin:.6g}{extra}")


def finite_cycle_check(graph: GainGraph,
                       window: Sequence[int],
                       r_grid: Sequence[float] | None = None,
                       max_cycles: int = 10_000,
                       rel_margin: float = 1e-6) -> CycleReport:
    """Fold gains along every simple cycle of a finite window.

    For the cycle i1 <- i2 <- ... <- ik <- i1 the folded map is the
    composition of the edge gains; the screen passes when each folded map
    stays below the identity by the relative margin on the whole grid.
    """
    window = tuple(window)
    if r_grid is None:
        r_grid = np.geomspace(1e-3, 1e3, 13)
    r_grid = np.asarray(r_grid, float)

    g = nx.DiGraph()
    g.add_nodes_from(window)
    inside = set(window)
    for i in window:
        for j, _curve in graph.row(i).items():
            if j in inside:
                g.add_edge(j, i)   # influence flows from j into i

    n_cycles = 0
    truncated = False
    worst = np.inf
    worst_cycle = None
    for cycle in nx.simple_cycles(g):
        n_cycles += 1
        if n_cycles > max_cycles:
            truncated = True
            n_cycles -= 1
            break
        vals = np.array(r_grid, float)
        k = len(cycle)
        for step in range(k):
            j = cycle[step]
            i = cycle[(step + 1) % k]
            vals = np.asarray(graph.row(i)[j](vals), float)
        margin = float(np.min((r_grid - vals) / r_grid))
        if margin < worst:
            worst = margin
            worst_cycle = tuple(cycle)
    if n_cycles == 0:
        worst = np.inf
    passed = (n_cycles == 0) or (worst > rel_margin and not truncated)
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
