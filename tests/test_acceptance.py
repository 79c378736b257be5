"""End-to-end acceptance checks, one test per shipped guarantee.

Each test records a one-line verdict through the record_criterion fixture;
pytest prints the collected lines in the terminal summary.  Tolerances and
budgets here are the release gate and must not be loosened to make a run
pass.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from issnet.catalog import instantiate
from issnet.certify import tail_limsup_estimate
from issnet.comparison import (
    curve_from_json,
    curve_to_json,
    kl_from_decay_table,
    linear,
    power,
    surface_from_json,
)
from issnet.gains import FiniteIndexSet, GainGraph, restrict
from issnet.network import NetworkSystem, simulate, truncation_sweep
from issnet.smallgain import estimate_uniform_sgc, falsify_mbi
from issnet.systems import InputSignal, check_axioms


def _payload(out_dir, name):
    return json.loads((out_dir / name).read_text())


def test_c1_decay_rates_slow_down_with_window_size(record_criterion):
    # sup norm of the undriven chain at t=5 is exp(-5/n): the slowest
    # component sets it, so the decay degrades as the window grows
    start = time.monotonic()
    worst_sup = 0.0
    worst_comp = 0.0
    for n in (10, 100, 1000):
        net, _ = instantiate("counterexample-chain")
        window = net.window(n)
        traj = simulate(net, window, 1.0, InputSignal.zero(), 5.0, dt=1e-3)
        sup_err = abs(float(traj.sup_norms()[-1]) - math.exp(-5.0 / n))
        rates = 1.0 / np.arange(1, n + 1)
        exact = np.exp(-np.outer(traj.times, rates))
        comp_err = float(np.max(np.abs(traj.states - exact)))
        worst_sup = max(worst_sup, sup_err)
        worst_comp = max(worst_comp, comp_err)
    elapsed = time.monotonic() - start
    ok = worst_sup < 1e-6 and worst_comp < 1e-8 and elapsed < 30.0
    record_criterion(1, ok,
                     f"windows 10/100/1000: sup-norm error {worst_sup:.2e}, "
                     f"component error {worst_comp:.2e}, {elapsed:.1f}s")


def test_c2_per_component_certificate_where_uniform_fit_fails(
        record_criterion, run_cli):
    code, out = run_cli("certify", {
        "network": "catalog:counterexample-chain",
        "window": 50,
        "ensemble": {"horizon": 240.0, "dt": 0.1, "n_random": 3},
        "radii": [0.5, 1.0, 2.0],
        "depth": 6,
        "seed": 12,
    })
    assert code == 0
    payload = _payload(out, "certificate.json")
    assert payload["ugs"]["valid"] and payload["noniss"]["valid"]

    sigma_tilde = curve_from_json(payload["noniss"]["sigma_tilde"])
    ratios = [float(sigma_tilde(r)) / (2.0 * r)
              for r in np.geomspace(0.5, 2.0, 9)]
    factor_ok = all(1.0 / 2.2 <= q <= 2.2 for q in ratios)

    # each component's decay surface may reach level ~2^-5 only after
    # 5*ln2*i less 20 percent grid slack; the level itself carries the
    # fitted overshoot of sigma, so read it off the certificate
    level = float(sigma_tilde(1.0)) / 2.0 * 2.0 ** -5
    grid = np.linspace(0.0, 240.0, 4801)
    min_slack = np.inf
    for i in range(1, 51):
        surf = surface_from_json(payload["noniss"]["surfaces"][str(i)])
        vals = surf(1.0, grid)
        hit = np.nonzero(vals <= level * (1.0 + 1e-9))[0]
        if hit.size == 0:
            min_slack = -np.inf
            break
        reach = float(grid[hit[0]])
        min_slack = min(min_slack, reach / (5.0 * i * math.log(2.0)))
    times_ok = min_slack >= 1.0 - 0.2

    net, _ = instantiate("counterexample-chain")
    probe = truncation_sweep(net, (10, 100), 1.0, InputSignal.zero(), 5.0,
                             0.01).final_sups()
    uniform_fails = probe[1] > 0.95

    ok = factor_ok and times_ok and uniform_fails
    record_criterion(2, ok,
                     f"sigma factor in [{min(ratios):.3f}, {max(ratios):.3f}], "
                     f"worst reach-time slack {min_slack:.3f}, "
                     f"sup at t=5 for window 100 is {probe[1]:.4f}")


def test_c3_derived_bound_is_tight_on_the_two_cycle(record_criterion,
                                                    two_cycle):
    net, _ = two_cycle
    graph, window = net.graph, net.window()
    report = estimate_uniform_sgc(graph, window, seed=0)
    eta1 = float(report.eta_hat(1.0))

    safe = falsify_mbi(graph, window, linear(2.0), budget=100_000, seed=0)
    wit = falsify_mbi(graph, window, linear(1.2), budget=10_000, seed=0)
    revalidates = wit is not None and wit.validate(graph, linear(1.2))

    ok = (abs(eta1 - 0.5) <= 0.025 and safe is None and revalidates
          and wit.samples_used <= 10_000)
    record_criterion(3, ok,
                     f"eta(1)={eta1:.4f}; 2id held, decided exactly on the "
                     f"linear window (budget 1e5); 1.2id "
                     f"fell in {wit.samples_used if wit else -1} samples and "
                     f"the witness revalidated")


def test_c4_window64_trace_passes_with_converged_tails(record_criterion,
                                                       run_cli):
    # the 64-chain contracts in max norm at 1 - rate/2 per step, so the
    # slowest row needs ~130 steps per decade; horizon 2000 leaves the last
    # tail start converged to ~1e-7 against the 1e-6 margin gate
    start = time.monotonic()
    code, out = run_cli("trace-theorem1", {
        "network": "catalog:nonuniform-discrete-chain",
        "window": 64,
        "ensemble": {"horizon": 2000, "n_random": 2},
        "radii": [0.5, 1.0, 2.0],
        "bands": [1, 2, 3, 4, 5, 6],
        "xi": curve_to_json(linear(2.0)),
        "seed": 4,
    })
    elapsed = time.monotonic() - start
    assert code == 0
    payload = _payload(out, "proof_trace.json")
    assert len(payload["entries"]) == 3 * 7   # six bands plus a small cell

    rows = payload["check"]["rows"]
    worst_comp = min(row["component_margin"] for row in rows)
    worst_norm = min(row["norm_margin"] for row in rows)
    margins_ok = payload["check"]["all_passed"] and worst_comp >= -1e-6 \
        and worst_norm >= -1e-6

    # convergence evidence: suffix sups never increase across tail starts,
    # and for bands below the first the boundary component strictly
    # decreases through all recorded starts (at k=1 the band top equals the
    # radius and pins that component flat, so it carries no evidence)
    monotone_ok = True
    strict_ok = True
    for entry in payload["entries"]:
        y = np.array(entry["y_hat"])
        if y.shape[0] < 4 or not np.all(np.diff(y, axis=0) <= 0.0):
            monotone_ok = False
        if entry["k"] is not None and entry["k"] >= 2 \
                and not np.all(np.diff(y[:, -1]) < 0.0):
            strict_ok = False

    ok = margins_ok and monotone_ok and strict_ok and elapsed < 300.0
    record_criterion(4, ok,
                     f"21 cells, worst component margin {worst_comp:.2e}, "
                     f"worst norm margin {worst_norm:.2e}, tails monotone "
                     f"over 4 starts, {elapsed:.1f}s")


def test_c5_axioms_hold_on_every_catalog_entry(record_criterion):
    cases = [
        ("uniform-2-cycle", None, None, 8.0),
        ("nonuniform-discrete-chain", 6, None, 8.0),
        ("counterexample-chain", 4, 1e-3, 2.0),
        ("linear-diffusive-chain", 4, 1e-3, 2.0),
    ]
    worst_cont = 0.0
    all_ok = True
    for name, size, dt, horizon in cases:
        net, _ = instantiate(name)
        window = net.window() if size is None else net.window(size)
        system = NetworkSystem(net, window) if dt is None \
            else NetworkSystem(net, window, dt=dt)
        report = check_axioms(system, n_samples=4, horizon=horizon)
        all_ok = all_ok and report.ok and report.identity_defect == 0.0
        if dt is None:
            all_ok = all_ok and report.cocycle_defect == 0.0
        else:
            worst_cont = max(worst_cont, report.cocycle_defect,
                             report.causality_defect)
    defects_ok = worst_cont < 1e-7

    # halving the step must cut the endpoint error of a linear entry by a
    # fourth-order factor
    net, oracle = instantiate("linear-diffusive-chain")
    window = net.window(4)
    a_mat, _ = oracle.linear_matrix(window)
    x0 = np.array([1.0, -0.5, 0.25, 0.8])
    exact = scipy.linalg.expm(a_mat * 1.0) @ x0
    errs = []
    for dt in (0.02, 0.01):
        traj = simulate(net, window, x0, InputSignal.zero(), 1.0, dt=dt)
        errs.append(float(np.max(np.abs(traj.states[-1] - exact))))
    ratio = errs[0] / errs[1]
    order_ok = 8.0 <= ratio <= 32.0

    ok = all_ok and defects_ok and order_ok
    record_criterion(5, ok,
                     f"identity exact, discrete cocycle 0, continuous "
                     f"defects {worst_cont:.2e}, halving ratio {ratio:.1f}")


def test_c6_derived_bounds_survive_restriction_and_shrink(record_criterion,
                                                          run_cli):
    rng = np.random.default_rng(2026)
    budget = 2000
    trials = 100
    survived = 0
    for trial in range(trials):
        n = int(rng.integers(3, 7))
        coeffs = {}
        for i in range(n):
            row = [j for j in range(n) if j != i and rng.random() < 0.5]
            raw = rng.uniform(0.1, 0.8, len(row))
            total = float(raw.sum())
            cap = float(rng.uniform(0.55, 0.9))
            if total > cap:
                raw *= cap / total
            for j, c in zip(row, raw):
                coeffs[(i, j)] = float(c)
        if not coeffs:
            coeffs[(0, 1)] = 0.5
        labels = tuple(range(n))
        graph = GainGraph(FiniteIndexSet(labels),
                          entries={k: linear(c) for k, c in coeffs.items()})
        sgc = estimate_uniform_sgc(graph, labels, n_random=16, seed=trial)
        if not sgc.holds:
            break
        if falsify_mbi(graph, labels, sgc.xi_hat,
                       budget=budget, seed=trial) is not None:
            break
        keep = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n)),
                                       replace=False).tolist()))
        sub = restrict(graph, keep)
        if falsify_mbi(sub, keep, sgc.xi_hat,
                       budget=budget, seed=trial) is not None:
            break
        lam = float(rng.uniform(0.3, 0.95))
        shrunk = GainGraph(FiniteIndexSet(labels),
                           entries={k: linear(lam * c)
                                    for k, c in coeffs.items()})
        if falsify_mbi(shrunk, labels, sgc.xi_hat,
                       budget=budget, seed=trial) is not None:
            break
        survived += 1

    code, out = run_cli("subnetwork", {
        "network": "catalog:nonuniform-discrete-chain",
        "subset": [0, 1, 2, 3, 4],
        "ensemble": {"horizon": 80, "n_random": 3},
        "radii": [0.5, 1.0],
        "depth": 6,
        "seed": 21,
    })
    payload = _payload(out, "subnetwork.json") if code == 0 else {}
    sub_ok = (code == 0 and payload["gains"]["passed"]
              and payload["uniform"]["valid"]
              and payload["uniform"]["holdout_residual"] < 1e-3)

    ok = survived == trials and sub_ok
    residual = payload["uniform"]["holdout_residual"] if sub_ok else np.nan
    record_criterion(6, ok,
                     f"{survived}/{trials} graphs kept the bound under "
                     f"restriction and shrink at budget {budget}; size-5 "
                     f"subnetwork residual {residual:.1e}")


def test_c7_tail_estimate_ignores_the_clock(record_criterion):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(200, 1500))
        times = np.sort(rng.uniform(0.0, 1000.0, m))
        lam = float(rng.uniform(0.05, 2.0))
        amp = float(rng.uniform(0.1, 10.0))
        base = float(rng.uniform(0.0, 3.0))
        values = base + amp * np.exp(-lam * times) * rng.uniform(0.0, 1.0, m)
        tails = np.array([times[-8], times[-4]])

        kind = int(rng.integers(0, 3))
        c = float(rng.uniform(0.1, 5.0))
        d = float(rng.uniform(0.01, 2.0))
        if kind == 0:
            warp = lambda t: c * t ** 2 + d * t
        elif kind == 1:
            warp = lambda t: c * np.sinh(t / 250.0)
        else:
            warp = lambda t: c * t + d * (t / 100.0) ** 3

        direct = np.asarray(tail_limsup_estimate(times, values, tails))
        warped = np.asarray(tail_limsup_estimate(warp(times), values,
                                                 warp(tails)))
        worst = max(worst, float(np.max(np.abs(direct - warped))))
    ok = worst <= 1e-9
    record_criterion(7, ok,
                     f"100 reparametrized tail estimates agree within "
                     f"{worst:.1e}")


def test_c8_decay_surfaces_never_exceed_twice_sigma(record_criterion):
    rng = np.random.default_rng(88)
    points = 0
    exact = True
    for _ in range(100):
        if rng.random() < 0.5:
            sig = linear(float(rng.uniform(0.2, 5.0)))
        else:
            sig = power(float(rng.uniform(0.2, 3.0)),
                        float(rng.uniform(0.5, 2.0)))
        radii = np.sort(rng.uniform(0.05, 20.0, int(rng.integers(1, 4))))
        table = {}
        for r in radii:
            depth = int(rng.integers(2, 12))
            steps = np.cumsum(rng.uniform(0.05, 5.0, depth))
            table[float(r)] = np.concatenate([[0.0], steps])
        surf = kl_from_decay_table(table, sig)
        for r, times in table.items():
            cap = 2.0 * float(sig(r))
            vals = np.asarray(surf(r, times))
            if vals[0] != cap or np.any(vals > cap):
                exact = False
            points += vals.size
    ok = exact
    record_criterion(8, ok,
                     f"cap held exactly at {points} staircase grid points "
                     f"with equality at t=0")
