"""Scalar gain curves and decay surfaces.

Everything downstream (gain graphs, certificates, traces) is built out of
one-argument comparison curves: nondecreasing gains of class K / K-infinity
and decreasing decay profiles of class L.  This script walks through the
curve algebra and ends with a two-argument decay surface assembled from a
dyadic attainment table.
"""

import numpy as np

from issnet import (
    check_class,
    compose,
    curve_max,
    curve_sum,
    fit_monotone_envelope,
    identity,
    invert_k_curve,
    kl_from_decay_table,
    linear,
    power,
    saturating,
    scale,
)

print("== curve classes ==")
gains = {
    "identity": identity(),
    "0.5 * r": linear(0.5),
    "r^2": power(1.0, 2.0),
    "r / (1 + r)": saturating(1.0),
}
for name, c in gains.items():
    cls = check_class(c)
    verdict = "ok" if cls.ok else "FAIL"
    print(f"  {name:<12} claims {cls.claimed:<5} ({verdict})  "
          f"at r=2: {float(c(2.0)):.4f}")

print()
print("== algebra ==")
g = compose(linear(0.5), power(1.0, 2.0))     # 0.5 * r^2
h = curve_sum(linear(0.25), saturating(1.0))
m = curve_max(g, h)
for r in (0.5, 1.0, 4.0):
    print(f"  r={r:>3}: compose={float(g(r)):.4f}  sum={float(h(r)):.4f}  "
          f"max={float(m(r)):.4f}")

print()
print("== inversion ==")
# the falsifier needs xi = eta^{-1}; inversion is exact on pwl curves
eta = linear(0.5)
xi = invert_k_curve(eta)
print(f"  eta(r) = 0.5 r  ->  xi(0.5) = {float(xi(0.5)):.4f}, "
      f"xi(1) = {float(xi(1.0)):.4f}")
round_trip = compose(xi, eta)
print(f"  xi(eta(2)) = {float(round_trip(2.0)):.6f}  (identity up to pwl grid)")

print()
print("== fitting an envelope to noisy sups ==")
rng = np.random.default_rng(3)
radii = np.linspace(0.2, 4.0, 12)
sups = 1.4 * radii * rng.uniform(0.6, 1.0, radii.size)
env = fit_monotone_envelope(zip(radii, sups), zero_anchor=True)
worst = max(float(s - env(r)) for r, s in zip(radii, sups))
print(f"  envelope covers all {radii.size} samples, worst slack {worst:.2e}")
print(f"  env(1) = {float(env(1.0)):.4f}, env(4) = {float(env(4.0)):.4f}")

print()
print("== decay surface from a dyadic table ==")
# at each radius: the times at which the levels sigma(r) * 2^-n,
# n = 0..6, were attained; the levels themselves come from sigma
sigma = identity()
times = np.concatenate([[0.0], np.cumsum(np.full(6, 2.0))])
table = {r: times for r in (0.5, 1.0, 2.0)}
surf = kl_from_decay_table(table, sigma)
print("  beta(1, t):", ", ".join(f"{float(surf(1.0, t)):.4f}"
                                 for t in (0.0, 2.0, 6.0, 12.0, 50.0)))
print("  starts at 2*sigma(r) and floors at the last certified level")
cap = scale(sigma, 2.0)
ok = all(float(surf(r, t)) <= float(cap(r))
         for r in table for t in np.linspace(0, 60, 121))
print(f"  cap beta <= 2*sigma holds everywhere sampled: {ok}")
