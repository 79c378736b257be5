"""Comparison functions: scalar gain/decay curves and two-argument decay surfaces.

The stability estimates in this package are phrased through classes of scalar
curves.  A curve of class K is continuous, strictly increasing, and vanishes
at 0; class Kinf additionally grows without bound; class L is nonincreasing
with values tending to a floor (0 unless stated); "mono" is a nonnegative
nondecreasing envelope with no strictness claim.  A KL surface is class K-like
in the radius argument and class L in the time argument.  Decay surfaces
take attainment times only; _dyadic_levels gives their levels 2^-n sigma(r).

Curves are either parametric (linear a*r, power a*r**p, saturating a*r/(1+r),
exponential decay c*exp(-lam*t)) or piecewise linear on explicit breakpoints.
Piecewise-linear curves extrapolate beyond the last breakpoint by the final
segment slope; L curves additionally clamp at their floor.  Class membership
is a *claim* checked on sampled grids, not a symbolic proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ScalarCurve",
    "KLSurface",
    "ClassReport",
    "linear",
    "power",
    "saturating",
    "expdecay",
    "pwl",
    "zero_curve",
    "identity",
    "compose",
    "scale",
    "curve_sum",
    "curve_max",
    "fit_monotone_envelope",
    "make_strictly_increasing",
    "kl_from_decay_table",
    "max_surface",
    "check_class",
    "default_grid",
    "curve_from_json",
    "curve_to_json",
    "surface_from_json",
    "surface_to_json",
]

_KINDS = ("linear", "power", "sat", "expdec", "pwl", "compose")
_CLASSES = ("K", "Kinf", "L", "mono")

# Grid used whenever a parametric curve has to be compared or sampled: 256
# points per decade over [1e-3, 1e3], plus 0.
GRID_POINTS_PER_DECADE = 256
GRID_RANGE = (1e-3, 1e3)


def _sorted_unique(values) -> np.ndarray:
    """The distinct values in ascending order: np.unique's bits on finite
    input, without the numpy.ma import np.unique makes on its first call."""
    a = np.sort(values, axis=None)
    keep = np.empty(a.size, bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def default_grid() -> np.ndarray:
    lo, hi = GRID_RANGE
    n = max(2, int(round(GRID_POINTS_PER_DECADE * math.log10(hi / lo))))
    return np.concatenate([[0.0], np.logspace(math.log10(lo), math.log10(hi), n)])


def _pwl_fault(b: np.ndarray, v: np.ndarray, claimed_class: str) -> str | None:
    """The message of the first pwl rule that b and v break, in rule
    order, or None.  One test clears them all: a NaN fails its comparisons
    and none of them warns on an infinity.  Finite data breaks a rule when
    one of its comparisons holds somewhere."""
    x = np.concatenate((b, v))
    up = v[:-1] >= v[1:] if claimed_class == "L" else v[1:] >= v[:-1]
    k = claimed_class in ("K", "Kinf")
    off_origin = k and (b[0], v[0]) != (0, 0)
    if (np.maximum.reduce(x) < math.inf
            and np.concatenate((x >= 0.0, b[1:] >= b[:-1], up)).all()
            and not off_origin):
        return None
    if not (np.isfinite(b).all() and np.isfinite(v).all()):
        return "pwl data must be finite"
    rules = [(b[1:] < b[:-1], "pwl breakpoints must be nondecreasing"),
             (b < 0, "pwl breakpoints must be nonnegative"),
             (v < 0, "pwl values must be nonnegative"),
             (off_origin, "class-K pwl curves must start at (0, 0)"),
             (k and v[1:] < v[:-1], "class-K pwl values must be nondecreasing"),
             (claimed_class == "L" and v[1:] > v[:-1],
              "class-L pwl values must be nonincreasing"),
             (claimed_class == "mono" and v[1:] < v[:-1],
              "monotone pwl values must be nondecreasing")]
    broken = [message for fault, message in rules if np.any(fault)]
    assert broken, "a pwl curve failed the one test but broke no rule"
    return broken[0]


def _pwl_slope(b: np.ndarray, v: np.ndarray) -> float:
    """The final segment's slope, 0 for one point or a vertical step."""
    db = b[-1] - b[-2] if b.size > 1 else 0.0
    return (v[-1] - v[-2]) / db if db > 0 else 0.0


def _pwl_values(b: np.ndarray, v: np.ndarray, x: np.ndarray,
                floor: float | None) -> np.ndarray:
    """The pwl rule at x: interpolate inside the breakpoints, past the last
    one extrapolate by the final slope, clamped at floor unless None."""
    if b.size == 1:
        return np.full_like(x, v[0])
    y = np.interp(x, b, v)
    over = x > b[-1]
    if over.any():
        y = np.where(over, v[-1] + _pwl_slope(b, v) * (x - b[-1]), y)
        if floor is not None:
            y = np.maximum(y, floor)
    return y


@dataclass(frozen=True, eq=False)
class ScalarCurve:
    """One scalar comparison function.

    Not constructed directly in user code; use the factory helpers
    (:func:`linear`, :func:`power`, :func:`saturating`, :func:`expdecay`,
    :func:`pwl`) or the algebra (:func:`compose`, :func:`curve_max`, ...).
    """

    kind: str
    claimed_class: str
    params: dict = field(default_factory=dict)  # parametric kinds: name -> value
    breaks: np.ndarray | None = None
    vals: np.ndarray | None = None
    floor: float = 0.0            # L curves clamp here beyond the data
    parts: tuple = ()             # composition chain, outermost first

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.claimed_class not in _CLASSES:
            raise ValueError(f"unknown curve class {self.claimed_class!r}")
        if self.kind == "pwl":
            b = np.asarray(self.breaks, dtype=float)
            v = np.asarray(self.vals, dtype=float)
            if b.ndim != 1 or b.shape != v.shape or b.size < 1:
                raise ValueError("pwl curve needs matching 1-d breaks and values")
            fault = _pwl_fault(b, v, self.claimed_class)
            if fault:
                raise ValueError(fault)
            object.__setattr__(self, "breaks", b)
            object.__setattr__(self, "vals", v)

    # Evaluation ---------------------------------------------------------

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        x = arr.reshape(1) if arr.ndim == 0 else arr
        if (x < 0).any():
            raise ValueError("comparison functions are defined on r >= 0")
        y = self._eval(x)
        return float(y[0]) if arr.ndim == 0 else y

    def _eval(self, x: np.ndarray) -> np.ndarray:
        p = self.params
        if self.kind == "linear":
            return p["a"] * x
        if self.kind == "power":
            return p["a"] * np.power(x, p["p"])
        if self.kind == "sat":
            return p["a"] * x / (1.0 + x)
        if self.kind == "expdec":
            return p["c"] * np.exp(-p["lam"] * x)
        if self.kind == "compose":
            y = x
            for part in reversed(self.parts):
                y = part._eval(y)
            return y
        return _pwl_values(self.breaks, self.vals, x,
                           self.floor if self.claimed_class == "L" else None)

    def final_slope(self) -> float:
        """Growth rate past the represented range."""
        p = self.params
        if self.kind == "linear":
            return p["a"]
        if self.kind == "power":
            # slope at the right end of the default range
            hi = GRID_RANGE[1]
            return p["a"] * p["p"] * hi ** (p["p"] - 1.0)
        if self.kind in ("sat", "expdec"):
            return 0.0
        if self.kind == "compose":
            s = 1.0
            for part in self.parts:
                s *= part.final_slope()
            return s
        return _pwl_slope(self.breaks, self.vals)

    def is_zero(self) -> bool:
        if self.kind in ("linear", "power", "sat"):
            return self.params["a"] == 0.0
        if self.kind == "expdec":
            return self.params["c"] == 0.0
        if self.kind == "pwl":
            return bool(np.all(self.vals == 0.0))
        return all(p.is_zero() for p in self.parts)

    def __repr__(self):
        if self.kind == "pwl":
            return f"ScalarCurve(pwl, {self.claimed_class}, {self.breaks.size} pts)"
        if self.kind == "compose":
            return "ScalarCurve(compose, %s, depth %d)" % (self.claimed_class, len(self.parts))
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"ScalarCurve({self.kind}, {self.claimed_class}, {inner})"


# Factories --------------------------------------------------------------


def linear(a: float, claimed_class: str | None = None) -> ScalarCurve:
    if a < 0 or not np.isfinite(a):
        raise ValueError("linear curve needs a >= 0")
    if claimed_class is None:
        claimed_class = "mono" if a == 0.0 else "Kinf"
    return ScalarCurve("linear", claimed_class, {"a": float(a)})


def power(a: float, p: float, claimed_class: str = "Kinf") -> ScalarCurve:
    if a < 0 or p <= 0:
        raise ValueError("power curve needs a >= 0 and p > 0")
    if a == 0.0:
        claimed_class = "mono"
    return ScalarCurve("power", claimed_class, {"a": float(a), "p": float(p)})


def saturating(a: float) -> ScalarCurve:
    """a*r/(1+r): class K, bounded by a (not Kinf)."""
    if a < 0:
        raise ValueError("saturating curve needs a >= 0")
    return ScalarCurve("sat", "K" if a > 0 else "mono", {"a": float(a)})


def expdecay(c: float, lam: float) -> ScalarCurve:
    """c*exp(-lam*t): class L for c >= 0, lam > 0."""
    if c < 0 or lam <= 0:
        raise ValueError("expdecay needs c >= 0 and lam > 0")
    return ScalarCurve("expdec", "L", {"c": float(c), "lam": float(lam)})


def pwl(points: Iterable[tuple[float, float]], claimed_class: str = "mono",
        floor: float = 0.0) -> ScalarCurve:
    pts = sorted((float(r), float(v)) for r, v in points)
    if not pts:
        raise ValueError("pwl curve needs at least one point")
    b = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(np.diff(b) == 0):
        raise ValueError("pwl breakpoints must be distinct")
    return ScalarCurve("pwl", claimed_class, breaks=b, vals=v, floor=floor)


def zero_curve() -> ScalarCurve:
    return linear(0.0)


def identity() -> ScalarCurve:
    return linear(1.0)


# Algebra ----------------------------------------------------------------


def _require_k_or_zero(c: ScalarCurve, what: str):
    if not c.is_zero() and c.claimed_class not in ("K", "Kinf"):
        raise ValueError(f"{what} requires a class-K curve, got {c.claimed_class!r}")


def compose(f: ScalarCurve, g: ScalarCurve) -> ScalarCurve:
    """f after g.  Exact for linear/power pairs and for pwl pairs
    (pulled-back breakpoints); otherwise an exact lazy chain."""
    _require_k_or_zero(f, "compose")
    _require_k_or_zero(g, "compose")
    if f.is_zero() or g.is_zero():
        return zero_curve()
    cls = "Kinf" if f.claimed_class == g.claimed_class == "Kinf" else "K"
    fp, gp = f.params, g.params
    if f.kind == "linear" and g.kind == "linear":
        return linear(fp["a"] * gp["a"], cls)
    if f.kind == "linear" and g.kind == "power":
        return power(fp["a"] * gp["a"], gp["p"], cls)
    if f.kind == "power" and g.kind == "linear":
        return power(fp["a"] * gp["a"] ** fp["p"], fp["p"], cls)
    if f.kind == "power" and g.kind == "power":
        return power(fp["a"] * gp["a"] ** fp["p"], fp["p"] * gp["p"], cls)
    if f.kind == "linear" and g.kind == "pwl":
        return ScalarCurve("pwl", cls, breaks=g.breaks.copy(), vals=fp["a"] * g.vals)
    if f.kind == "pwl" and g.kind == "linear" and gp["a"] > 0:
        return ScalarCurve("pwl", cls, breaks=f.breaks / gp["a"], vals=f.vals.copy())
    if f.kind == "pwl" and g.kind == "pwl":
        return _compose_pwl(f, g, cls)
    parts = (f.parts if f.kind == "compose" else (f,)) + \
            (g.parts if g.kind == "compose" else (g,))
    return ScalarCurve("compose", cls, parts=parts)


def _invert_monotone_pwl(b: np.ndarray, v: np.ndarray, y: np.ndarray,
                         final_slope: float) -> np.ndarray:
    """Preimages under a nondecreasing pwl map; clips below range."""
    x = np.interp(y, v, b)
    over = y > v[-1]
    if np.any(over):
        if final_slope <= 0:
            raise ValueError("cannot pull back past a flat pwl tail")
        x = np.where(over, b[-1] + (y - v[-1]) / final_slope, x)
    return x


def _compose_pwl(f: ScalarCurve, g: ScalarCurve, cls: str) -> ScalarCurve:
    pulled = _invert_monotone_pwl(g.breaks, g.vals,
                                  f.breaks[(f.breaks >= g.vals[0])], g.final_slope())
    b = _sorted_unique(np.concatenate([g.breaks, pulled]))
    v = f._eval(g._eval(b))
    return ScalarCurve("pwl", cls, breaks=b, vals=v)


def scale(c: ScalarCurve, factor: float) -> ScalarCurve:
    """Pointwise multiple factor*c; every kind is closed under scaling."""
    if factor < 0:
        raise ValueError("scale factor must be >= 0")
    if factor == 0.0:
        return zero_curve()
    p = dict(c.params)
    if c.kind in ("linear", "power", "sat"):
        p["a"] *= factor
    elif c.kind == "expdec":
        p["c"] *= factor
    elif c.kind == "pwl":
        return ScalarCurve("pwl", c.claimed_class, breaks=c.breaks.copy(),
                           vals=factor * c.vals, floor=factor * c.floor)
    else:
        return ScalarCurve("compose", c.claimed_class,
                           parts=(scale(c.parts[0], factor),) + c.parts[1:])
    return ScalarCurve(c.kind, c.claimed_class, p)


def _merge_class(a: ScalarCurve, b: ScalarCurve) -> str:
    # identically-zero operands are neutral for both sum and max
    if a.is_zero():
        return b.claimed_class
    if b.is_zero():
        return a.claimed_class
    if a.claimed_class == b.claimed_class == "L":
        return "L"
    kish = ("K", "Kinf")
    if a.claimed_class in kish and b.claimed_class in kish:
        return "Kinf" if "Kinf" in (a.claimed_class, b.claimed_class) else "K"
    return "mono"


def _binary_grid(a: ScalarCurve, b: ScalarCurve) -> np.ndarray:
    pieces = [c.breaks for c in (a, b) if c.kind == "pwl"] or [default_grid()]
    return _sorted_unique(np.concatenate([[0.0]] + pieces))


def curve_sum(a: ScalarCurve, b: ScalarCurve) -> ScalarCurve:
    """Pointwise a+b.  Exact for linear/pwl operands, sampled otherwise."""
    if a.kind == "linear" and b.kind == "linear":
        return linear(a.params["a"] + b.params["a"], _merge_class(a, b))
    g = _binary_grid(a, b)
    return ScalarCurve("pwl", _merge_class(a, b), breaks=g,
                       vals=a._eval(g) + b._eval(g),
                       floor=a.floor + b.floor)


def curve_max(a: ScalarCurve, b: ScalarCurve) -> ScalarCurve:
    """Pointwise max(a,b).  Exact for linear/pwl operands (segment crossings
    become breakpoints), sampled on a grid otherwise."""
    if a.kind == "linear" and b.kind == "linear":
        return linear(max(a.params["a"], b.params["a"]), _merge_class(a, b))
    g = _binary_grid(a, b)
    va, vb = a._eval(g), b._eval(g)
    if all(c.kind in ("linear", "pwl") for c in (a, b)):
        # insert interior crossing points so the max is exact between nodes
        d = va - vb
        k = np.flatnonzero(d[:-1] * d[1:] < 0)
        extra = list(g[k] + d[k] / (d[k] - d[k + 1]) * (g[k + 1] - g[k]))
        # crossing in the extrapolation region
        sa, sb = a.final_slope(), b.final_slope()
        if (va[-1] - vb[-1]) * (sa - sb) < 0:
            extra.append(g[-1] + (vb[-1] - va[-1]) / (sa - sb))
        if extra:
            g = _sorted_unique(np.concatenate([g, extra]))
            va, vb = a._eval(g), b._eval(g)
    return ScalarCurve("pwl", _merge_class(a, b), breaks=g, vals=np.maximum(va, vb),
                       floor=max(a.floor, b.floor))


# Envelopes --------------------------------------------------------------


def fit_monotone_envelope(samples: Iterable[tuple[float, float]],
                          zero_anchor: bool = False) -> ScalarCurve:
    """Least nondecreasing piecewise-linear curve through the running max.

    Duplicate radii collapse to their max value.  With ``zero_anchor`` the
    point (0, 0) is prepended, which is a contract error if a sample at
    r == 0 has positive value.
    """
    pts: dict[float, float] = {}
    for r, v in samples:
        r, v = float(r), float(v)
        if r < 0:
            raise ValueError("sample radii must be >= 0")
        if not np.isfinite(v):
            raise ValueError("sample values must be finite")
        pts[r] = max(v, pts.get(r, -math.inf))
    if not pts:
        raise ValueError("cannot fit an envelope to an empty sample set")
    if zero_anchor:
        if pts.get(0.0, 0.0) > 0.0:
            raise ValueError("zero_anchor conflicts with a positive sample at r = 0")
        pts[0.0] = 0.0
    radii = np.array(sorted(pts))
    vals = np.maximum.accumulate(np.array([pts[r] for r in radii]))
    if np.any(vals < 0):
        raise ValueError("envelope values must be nonnegative")
    return ScalarCurve("pwl", "mono", breaks=radii, vals=vals)


def _above(prev: float, lifted: float) -> float:
    """lifted, or the next float above prev where the lift rounded away."""
    return lifted if lifted > prev else float(np.nextafter(prev, np.inf))


def make_strictly_increasing(c: ScalarCurve) -> ScalarCurve:
    """Lift a nondecreasing pwl curve to class Kinf.

    Flat segments gain slope 1e-9, or the next float up where a lift that
    small rounds away at the value's magnitude; domination of the original
    curve is preserved because values only move up.  A zero first
    breakpoint is required (anchor the envelope first if needed).
    """
    if c.kind == "linear" and c.params["a"] > 0:
        return ScalarCurve("linear", "Kinf", dict(c.params))
    if c.kind != "pwl":
        raise ValueError("strictification expects a pwl or linear curve")
    min_slope = 1e-9
    b, v = c.breaks, c.vals.copy()
    if b[0] != 0.0:
        b = np.concatenate([[0.0], b])
        v = np.concatenate([[0.0], v])
    if v[0] != 0.0:
        raise ValueError("a class-K curve must vanish at 0")
    for k in range(1, v.size):
        lifted = max(v[k], v[k - 1] + min_slope * (b[k] - b[k - 1]))
        v[k] = _above(v[k - 1], lifted)
    if b.size == 1:
        b = np.concatenate([b, [1.0]])
        v = np.concatenate([v, [min_slope]])
    if (v[-1] - v[-2]) / (b[-1] - b[-2]) < min_slope:
        # guarantee unbounded growth past the data
        b = np.concatenate([b, [b[-1] + 1.0]])
        v = np.concatenate([v, [_above(v[-1], v[-1] + min_slope)]])
    return ScalarCurve("pwl", "Kinf", breaks=b, vals=v)


# Class checking ---------------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    ok: bool
    claimed: str
    detail: str
    grid_max: float


def check_class(c: ScalarCurve) -> ClassReport:
    """Verify the claimed class on the default grid.

    No decreasing (or, for L, increasing) step is tolerated; 'mono' allows
    exact ties.
    """
    g = default_grid()
    y = c(g)
    d = np.diff(y)
    claimed = c.claimed_class
    if claimed in ("K", "Kinf"):
        faults = [(c(0.0) != 0.0, "value at 0 is nonzero"),
                  (np.any(d < 0), "decreasing step on grid"),
                  (np.any(d <= 0) and (claimed == "Kinf" or not c.is_zero()),
                   "not strictly increasing on grid"),
                  (claimed == "Kinf" and c.final_slope() <= 0,
                   "bounded tail cannot be Kinf")]
    elif claimed == "L":
        faults = [(np.any(d > 0), "increasing step on grid"),
                  (y[-1] > c.floor + 1e-9 * max(1.0, y[0]) and c.final_slope() >= 0,
                   "does not approach the floor")]
    else:  # mono
        faults = [(np.any(d < 0), "decreasing step on grid"),
                  (np.any(y < 0), "negative value")]
    detail = next((message for broken, message in faults if broken), "ok")
    return ClassReport(detail == "ok", claimed, detail, float(np.max(y)))


# KL surfaces ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KLSurface:
    """Two-argument decay surface beta(r, t).

    Stored as one class-L pwl curve per grid radius; nondecreasing in r by
    construction (running sup across radii).  Evaluation anchors r = 0 at 0
    and otherwise reads the time curve of _curve_at: the grid curve at a
    grid radius, the last one above the grid, and between grid radii the
    linear blend of the bracketing curves, clamped nonincreasing in t.
    """

    radii: np.ndarray
    curves: tuple[ScalarCurve, ...]
    dominator: ScalarCurve | None = None

    def __post_init__(self):
        r = np.asarray(self.radii, float)
        if r.ndim != 1 or r.size == 0 or np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise ValueError("surface radii must be positive and strictly increasing")
        if len(self.curves) != r.size:
            raise ValueError("one time curve per radius required")
        object.__setattr__(self, "radii", r)

    def __call__(self, r: float, t) -> float | np.ndarray:
        if not r >= 0:
            raise ValueError("radius must be >= 0")
        if r == 0:
            return np.zeros(np.shape(t)) if np.ndim(t) else 0.0
        return self._curve_at(float(r))(t)

    def _curve_at(self, r: float) -> ScalarCurve:
        """Exact pwl time-curve at radius r (blend of the bracketing grid
        curves; the blend of pwl curves is pwl on their union breakpoints)."""
        j = int(np.searchsorted(self.radii, r, side="left"))
        if j >= self.radii.size:
            return self.curves[-1]
        if self.radii[j] == r:
            return self.curves[j]
        hi = self.curves[j]
        if j == 0:
            f = r / self.radii[0]
            return ScalarCurve("pwl", "L", breaks=hi.breaks.copy(),
                               vals=f * hi.vals, floor=f * hi.floor)
        lo = self.curves[j - 1]
        t = _sorted_unique(np.concatenate([lo.breaks, hi.breaks]))
        w = (r - self.radii[j - 1]) / (self.radii[j] - self.radii[j - 1])
        v = (1.0 - w) * lo(t) + w * hi(t)
        return ScalarCurve("pwl", "L", breaks=t, vals=np.minimum.accumulate(v),
                           floor=(1.0 - w) * lo.floor + w * hi.floor)


def max_surface(surfaces: Sequence[KLSurface]) -> KLSurface:
    """Pointwise max of the surfaces, folded pairwise in order (exact:
    segment crossings of the per-radius pwl curves become breakpoints)."""
    if not surfaces:
        raise ValueError("need at least one surface")
    out = surfaces[0]
    for other in surfaces[1:]:
        radii = _sorted_unique(np.concatenate([out.radii, other.radii]))
        curves = []
        for r in radii:
            m = curve_max(out._curve_at(float(r)), other._curve_at(float(r)))
            v = np.minimum.accumulate(m.vals)
            curves.append(ScalarCurve("pwl", "L", breaks=m.breaks, vals=v,
                                      floor=m.floor))
        dom = None
        if out.dominator is not None and other.dominator is not None:
            dom = curve_max(out.dominator, other.dominator)
        out = KLSurface(radii, tuple(curves), dom)
    return out


def _dyadic_levels(sigma: ScalarCurve, r: float, depth: int) -> np.ndarray:
    """eps_n = 2^-n sigma(r), n = 0..depth: sigma(r) times an exact power
    of two, so the bits do not depend on how the power is formed."""
    return float(sigma(r)) * np.power(2.0, -np.arange(depth + 1))


def kl_from_decay_table(table: dict[float, Sequence[float]],
                        sigma: ScalarCurve) -> KLSurface:
    """Assemble a KL surface from per-radius attainment staircases.

    ``table`` maps each radius r to the attainment times of the dyadic
    ladder eps_n = 2^-n sigma(r), n = 0..len(times) - 1, with times[0] == 0
    and times strictly increasing.  The radius-r curve starts at
    2*sigma(r), steps down to eps_{n-1} at times[n], and is interpolated
    linearly in t.  Curves are completed to a running sup across radii (so
    the surface is nondecreasing in r) and clipped at 2*sigma(r), which
    makes the cap bound exact in floating point.
    """
    if not table:
        raise ValueError("empty decay table")
    radii = np.array(sorted(table))
    if np.any(radii <= 0):
        raise ValueError("table radii must be positive")
    stair = []
    for r in radii:
        t = np.asarray(table[r], float)
        if t.ndim != 1 or t.size < 1 or t[0] != 0.0:
            raise ValueError("attainment times must be 1-d and start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("attainment times must be strictly increasing")
        levels = _dyadic_levels(sigma, float(r), t.size - 1)
        if levels[0] <= 0:
            raise ValueError("sigma must be positive at every table radius")
        # staircase points (0, 2*eps_0), (tau_n, eps_{n-1}); 2*eps_0 is the cap
        stair.append((t, np.concatenate([[2.0 * levels[0]], levels[:-1]])))
    t_union = _sorted_unique(np.concatenate([tb for tb, _ in stair]))
    # a staircase can break only the finite rule; a NaN time sorts last
    if not (math.isfinite(t_union[-1])
            and all(math.isfinite(vb[0]) for _, vb in stair)):
        raise ValueError("pwl data must be finite")
    curves = []
    running = np.full(t_union.shape, -np.inf)
    for tb, vb in stair:
        running = np.maximum(running, _pwl_values(tb, vb, t_union, 0.0))
        # L class: running sup of nonincreasing staircases stays nonincreasing,
        # but enforce against float slip before constructing
        capped = np.minimum.accumulate(np.minimum(running, vb[0]))
        # beyond the last recorded time only the last certified level is
        # claimed, so the curve floors there instead of extrapolating to 0
        curves.append(ScalarCurve("pwl", "L", breaks=t_union, vals=capped,
                                  floor=float(capped[-1])))
    return KLSurface(radii, tuple(curves), dominator=scale(sigma, 2.0))


# Serialization ----------------------------------------------------------


def curve_to_json(c: ScalarCurve) -> dict:
    """Wire form.  Composition chains are flattened to sampled pwl (lossy,
    noted in the payload) because the wire format has five kinds."""
    if c.kind == "pwl":
        out = {"kind": "pwl", "points": [[float(b), float(v)] for b, v in zip(c.breaks, c.vals)],
                "class": c.claimed_class}
        if c.floor != 0.0:
            out["floor"] = float(c.floor)
        return out
    if c.kind == "compose":
        g = default_grid()
        v = c(g)
        return {"kind": "pwl", "points": [[float(b), float(y)] for b, y in zip(g, v)],
                "class": c.claimed_class, "sampled_from": "compose"}
    return {"kind": c.kind, "params": {k: float(v) for k, v in c.params.items()},
            "class": c.claimed_class}


def curve_from_json(obj: dict) -> ScalarCurve:
    kind = obj.get("kind")
    cls = obj.get("class", "mono")
    if cls not in _CLASSES:
        raise ValueError(f"unknown curve class {cls!r}")
    if kind == "pwl":
        pts = obj.get("points")
        if not pts:
            raise ValueError("pwl curve JSON needs points")
        return pwl([(p[0], p[1]) for p in pts], cls, floor=float(obj.get("floor", 0.0)))
    params = obj.get("params", {})
    if kind == "linear":
        return linear(params["a"], cls)
    if kind == "power":
        return power(params["a"], params["p"], cls)
    if kind == "sat":
        return saturating(params["a"])
    if kind == "expdec":
        return expdecay(params["c"], params["lam"])
    raise ValueError(f"unknown curve kind {kind!r}")


def surface_to_json(s: KLSurface) -> dict:
    out = {"radii": [float(r) for r in s.radii],
           "curves": [curve_to_json(c) for c in s.curves]}
    if s.dominator is not None:
        out["dominator"] = curve_to_json(s.dominator)
    return out


def surface_from_json(obj: dict) -> KLSurface:
    radii = np.asarray(obj["radii"], float)
    curves = tuple(curve_from_json(c) for c in obj["curves"])
    dom = curve_from_json(obj["dominator"]) if "dominator" in obj else None
    return KLSurface(radii, curves, dom)
