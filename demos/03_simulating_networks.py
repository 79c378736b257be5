"""Simulating interconnections on finite working windows.

Infinite networks are simulated through nested finite truncations whose
boundary components read zero.  The catalog's decoupled continuous chain
makes the cost of truncation visible: every finite window is exponentially
stable, but the decay rate degrades with the window size, so no single
rate covers all truncations.
"""

import numpy as np

from issnet import (
    InputSignal,
    NetworkSystem,
    check_axioms,
    simulate,
    truncation_sweep,
)
from issnet.catalog import instantiate

net, oracle = instantiate("counterexample-chain")

print("== one window ==")
window = net.window(10)
traj = simulate(net, window, 1.0, InputSignal.zero(), 5.0, dt=1e-3)
print(f"  window {window[0]}..{window[-1]}, {traj.times.size} samples")
k = traj.times.size // 2
print(f"  sup norm at t={traj.times[k]:.1f}: {traj.sup_norms()[k]:.6f}, "
      f"at t={traj.times[-1]:.1f}: {traj.sup_norms()[-1]:.6f}")
err = max(abs(traj.value_at(i, 2.5) - oracle.component_value(i, 2.5, 1.0))
          for i in window)
print(f"  worst gap to the closed form at t=2.5: {err:.2e}")

print()
print("== nested truncations ==")
sweep = truncation_sweep(net, (10, 50, 100), 1.0, InputSignal.zero(), 5.0,
                         dt=1e-2)
for n, s in zip(sweep.sizes, sweep.final_sups()):
    print(f"  window {n:>4}: sup at t=5 is {s:.6f}  (exp(-5/n) = "
          f"{np.exp(-5.0 / n):.6f})")
print(f"  drift between consecutive curves: {sweep.drifts}")

print()
print("== the decay rate is not uniform ==")
probe = truncation_sweep(net, (10, 100, 1000), 1.0, InputSignal.zero(), 5.0,
                         dt=0.01)
for n, v in zip(probe.sizes, probe.final_sups()):
    print(f"  window {n:>5}: sup at t=5 = {v:.6f}")
print("  the value climbs toward 1: a single decay profile beta(r, t)")
print("  valid for every window would have to be constant in t")

print()
print("== transition axioms on the assembled system ==")
report = check_axioms(NetworkSystem(net, net.window(4), dt=1e-2),
                      n_samples=6, horizon=2.0)
print(f"  ok: {report.ok}; identity {report.identity_defect:g}, "
      f"causality {report.causality_defect:.2e}, "
      f"cocycle {report.cocycle_defect:.2e}")
