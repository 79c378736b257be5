"""From trajectory ensembles to stability certificates.

The certification pipeline on the discrete two-node cycle:

  1. simulate an ensemble over bins of initial-state and input magnitudes,
  2. fit a global envelope sup ||x|| <= sigma(r) + gamma(||u||),
  3. record when each component first stays below sigma(r) * 2^-n, the
     dyadic ladder that the library works out from sigma and a depth,
  4. turn the attainment staircases into per-component decay surfaces,
  5. optionally collapse to one shared surface when the window allows it.

Every fitted object validates itself against a holdout ensemble that the
fit never saw; the certificate records the residual.
"""

import json

from issnet import (
    EnsembleConfig,
    build_fit_and_holdout,
    build_nonuniform_iss,
    estimate_attainment_times,
    fit_ugs,
    identity,
)
from issnet.catalog import instantiate

net, oracle = instantiate("uniform-2-cycle")
window = net.window()
cfg = EnsembleConfig(horizon=60.0, n_random=4)
radii = (0.5, 1.0, 2.0)
bins = [(r, 0.0) for r in radii] + [(0.0, r) for r in radii] \
    + [(r, r) for r in radii]

print("== ensemble and global envelope ==")
fit_runs, holdout = build_fit_and_holdout(net, window, bins, cfg, seed=7)
print(f"  {len(fit_runs)} fit members, {len(holdout)} holdout members")
ugs = fit_ugs(fit_runs, holdout=holdout)
print(f"  sigma(1) = {float(ugs.sigma(1.0)):.4f}, "
      f"gamma(1) = {float(ugs.gamma(1.0)):.4f}, "
      f"inflation {ugs.inflation:.3f}")
print(f"  fit residual {ugs.fit_residual:.2e}, "
      f"holdout residual {ugs.holdout_residual:.2e}, valid: {ugs.valid}")

print()
print("== attainment times ==")
att = estimate_attainment_times(net, window, radii, 8, ugs.sigma, identity(),
                                cfg, seed=7)
row = [att.time(1, 1.0, n) for n in range(9)]
print("  component 1, r=1, levels sigma/2^n:",
      " ".join(f"{t:.0f}" for t in row))
print(f"  unattained cells: {att.unattained()}")

print()
print("== per-component certificate ==")
cert = build_nonuniform_iss(att, ugs, holdout, uniform=True)
print(f"  valid: {cert.valid}, holdout residual {cert.holdout_residual:.2e}")
surf = cert.surfaces[1]
print("  beta_1(1, t) at t = 0, 2, 5, 10:",
      ", ".join(f"{float(surf(1.0, t)):.4f}" for t in (0, 2, 5, 10)))
print(f"  sigma_tilde(1) = {float(cert.sigma_tilde(1.0)):.4f} "
      f"(twice the fitted sigma)")

print()
print("== collapse to a uniform certificate ==")
uni = cert.uniform
print(f"  valid: {uni.valid}, holdout residual {uni.holdout_residual:.2e}")
print(f"  shared beta(1, 5) = {float(uni.beta(1.0, 5.0)):.4f}")

blob = json.dumps(uni.to_json(), sort_keys=True)
print(f"  serializes to {len(blob)} bytes of JSON")
