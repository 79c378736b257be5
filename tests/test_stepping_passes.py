"""The certify and trace passes against the stored-trajectory loops.

Certification steps its members in few passes and reduces each sample as
it is produced; only holdout members keep their trajectories.  The loops
below are the per-family, per-run and per-cell computations that read
stored trajectories, kept as references: every reduced result must equal
them bit for bit.
"""

import numpy as np
import pytest

from issnet import certify
from issnet.catalog import instantiate
from issnet.certify import (CertificationError, EnsembleConfig,
                            build_ensemble, build_fit_and_holdout,
                            build_nonuniform_iss, compute_band_cells,
                            compute_band_limsups, estimate_attainment_times,
                            fit_ugs, tail_limsup_estimate,
                            uniform_from_nonuniform)
from issnet.comparison import KLSurface, identity, linear
from issnet.gains import FiniteIndexSet
from issnet.network import NetworkSpec, _simulate, simulate_ensemble
from issnet.systems import DISCRETE, InputSignal, SubsystemSpec

BINS = [(0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 0.5),
        (1.0, 1.0)]


# stored-trajectory references -------------------------------------------


def _suffix_max(values):
    return np.flip(np.maximum.accumulate(np.flip(values, 0), 0), 0)


def _reference_attainment(net, window, levels, radii, gamma_hat, cfg, seed):
    """One stored ensemble per radius; the tail of every sample checked.

    A level that some member never attains stays NaN.
    """
    shared = not isinstance(levels, dict)
    times = {}
    for r in radii:
        lv = np.asarray(levels if shared else levels[r], float)
        bins = [(r, r), (r, 0.5 * r), (r, 0.0)]
        runs = build_ensemble(net, window, bins, cfg, seed,
                              tag=f"attain:{r:g}")
        tab = np.zeros((len(lv), len(window)))
        for run in runs:
            traj = run.trajectory
            suffix = _suffix_max(np.abs(traj.states))
            offset = float(gamma_hat(run.u_norm))
            ok = suffix[:, None, :] <= lv[None, :, None] + offset
            first = np.argmax(ok, axis=0).astype(float)
            first[~ok[-1]] = np.nan
            member_times = np.where(
                np.isnan(first), np.nan,
                traj.times[np.nan_to_num(first).astype(int)])
            tab = np.maximum(tab, member_times)
        times[r] = tab
    if shared:
        for lo, hi in zip(radii, radii[1:]):
            times[hi] = np.maximum(times[hi], times[lo])
    return times


def _reference_validation(cert, holdout, tol_abs=1e-6, tol_rel=1e-3):
    """Each (run, component) checked on its own, first worst point kept."""
    raw, exceed, worst = 0.0, -np.inf, None
    for run in holdout:
        traj = run.trajectory
        g_term = float(cert.gamma(run.u_norm))
        for pos, i in enumerate(cert.window):
            bound = cert.surfaces[i](run.r_x, traj.times) + g_term
            viol = np.abs(traj.states[:, pos]) - bound
            raw = max(raw, float(viol[int(np.argmax(viol))]))
            over = viol - (tol_abs + tol_rel * bound)
            k = int(np.argmax(over))
            if over[k] > exceed:
                exceed = float(over[k])
                worst = (i, float(traj.times[k]), run.member)
    return max(0.0, raw), worst, exceed <= 0.0


def _reference_uniform(uni_beta, gamma, holdout, tol_abs=1e-6, tol_rel=1e-3):
    residual, exceed = 0.0, 0.0
    for run in holdout:
        traj = run.trajectory
        bound = uni_beta(run.r_x, traj.times) + float(gamma(run.u_norm))
        viol = traj.sup_norms() - bound
        residual = max(residual, float(np.max(viol)))
        exceed = max(exceed, float(np.max(viol - (tol_abs + tol_rel * bound))))
    return max(0.0, residual), exceed


def _reference_cell(net, window, r, k, q, cfg, tail_starts, seed):
    """One cell as its own stored ensemble."""
    if k is not None:
        lo, hi, tag = 2.0 ** (-k) * r, 2.0 ** (1 - k) * r, f"band:{k}"
    else:
        lo, hi, tag = 0.0, float(q), f"small:{q:g}"
    members = certify._band_members(net, window, r, lo, hi, cfg, seed, tag)
    if q == 0.0:
        members = [(name, x0, InputSignal.zero()) for name, x0, _u in members]
    trajs = simulate_ensemble(net, window, [(x0, u) for _n, x0, u in members],
                              cfg.horizon, dt=cfg.dt)
    y = np.zeros((len(tail_starts), len(window)))
    for traj in trajs:
        y = np.maximum(y, tail_limsup_estimate(traj.times, np.abs(traj.states),
                                               tail_starts))
    return (lo, hi), y, len(members)


# networks: one continuous, one discrete ---------------------------------


NETWORKS = {
    "diffusive": ("linear-diffusive-chain", 5,
                  EnsembleConfig(horizon=6.0, dt=0.05, n_random=2)),
    "discrete": ("nonuniform-discrete-chain", 5,
                 EnsembleConfig(horizon=40.0, n_random=2)),
}


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def setting(request):
    name, size, cfg = NETWORKS[request.param]
    net, _oracle = instantiate(name)
    return net, net.window(size), cfg


def _levels(ugs, radii):
    # a huge top level (attained at step 0), the dyadic ladder, and a level
    # below anything the horizon reaches (never attained)
    return {r: np.concatenate([[1e3], float(ugs.sigma(r)) * 2.0 ** -np.arange(5),
                               [1e-12]]) for r in radii}


def test_fit_and_holdout_match_their_separate_ensembles(setting):
    net, window, cfg = setting
    fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=3)
    for tag, runs in (("fit", fit), ("holdout", hold)):
        ref = build_ensemble(net, window, BINS, cfg, seed=3, tag=tag)
        assert len(runs) == len(ref)
        for run, want in zip(runs, ref):
            assert (run.r_x, run.r_u, run.u_norm, run.member, run.seed) == \
                (want.r_x, want.r_u, want.u_norm, want.member, want.seed)
            assert run.peak == float(np.max(want.trajectory.sup_norms()))
            assert want.peak == run.peak
            if tag == "fit":
                assert run.trajectory is None
            else:
                assert np.array_equal(run.trajectory.states,
                                      want.trajectory.states)
                assert np.array_equal(run.trajectory.times,
                                      want.trajectory.times)
    ref_ugs = fit_ugs(build_ensemble(net, window, BINS, cfg, seed=3),
                      holdout=build_ensemble(net, window, BINS, cfg, seed=3,
                                             tag="holdout"))
    ugs = fit_ugs(fit, holdout=hold)
    assert ugs.to_json() == ref_ugs.to_json()


@pytest.mark.parametrize("shared", [False, True])
def test_attainment_equals_the_stored_trajectory_loop(setting, shared):
    net, window, cfg = setting
    radii = (0.5, 1.0)
    fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=5)
    ugs = fit_ugs(fit, holdout=hold)
    levels = _levels(ugs, radii)
    if shared:
        levels = levels[1.0]
    gamma_hat = linear(0.5)
    att = estimate_attainment_times(net, window, levels, radii, gamma_hat,
                                    cfg, seed=5)
    ref = _reference_attainment(net, window, levels, radii, gamma_hat, cfg, 5)
    for r in radii:
        assert np.array_equal(att.times[r], ref[r], equal_nan=True)
        # the top level holds from step 0, the bottom one never
        assert np.all(att.times[r][0] == 0.0)
        assert np.all(np.isnan(att.times[r][-1]))
        assert not np.isnan(att.times[r][1:-1]).all()


def test_an_unattained_member_level_stays_unattained():
    # from radius 0.5 the slowest component of the 3-window counterexample
    # chain is 0.5 exp(-2/3) ~ 0.257 at the horizon: zero-input members
    # never get below 0.25, members with input do once gamma_hat(|u|) is
    # added; one member that never attains decides the level
    net, _ = instantiate("counterexample-chain")
    window = net.window(3)
    cfg = EnsembleConfig(horizon=2.0, dt=0.1, n_random=1)
    levels = {0.5: np.array([0.5, 0.25])}
    att = estimate_attainment_times(net, window, levels, (0.5,), identity(),
                                    cfg, seed=1)
    ref = _reference_attainment(net, window, levels, (0.5,), identity(),
                                cfg, 1)
    assert np.array_equal(att.times[0.5], ref[0.5], equal_nan=True)
    assert np.isnan(att.times[0.5][1, 2])
    assert (3, 1, 0.5) in att.unattained()
    # and some member of that ensemble does attain the level in time
    runs = build_ensemble(net, window, [(0.5, 0.5)], cfg, 1, tag="attain:0.5")
    assert any(np.abs(run.trajectory.states[-1, 2]) <= 0.25 + run.u_norm
               for run in runs)


def test_holdout_validation_equals_the_per_component_loop(setting):
    net, window, cfg = setting
    radii = (0.5, 1.0)
    fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=8)
    ugs = fit_ugs(fit, holdout=hold)
    levels = {r: float(ugs.sigma(r)) * 2.0 ** -np.arange(4) for r in radii}
    att = estimate_attainment_times(net, window, levels, radii, ugs.gamma,
                                    cfg, seed=8)
    # holdout runs on a second, shorter time grid share start radii with
    # the first ones but not their surface values
    short = EnsembleConfig(horizon=0.5 * cfg.horizon, dt=cfg.dt, n_random=1)
    hold = hold + build_ensemble(net, window, BINS, short, 9, tag="holdout")
    for tol_abs, tol_rel in ((1e-6, 1e-3), (-1.0, 0.0)):
        # the negative tolerance makes every point a violation, so the
        # worst-case tie-break is exercised on real data
        cert = build_nonuniform_iss(att, ugs, hold, tol_abs=tol_abs,
                                    tol_rel=tol_rel)
        residual, worst, valid = _reference_validation(cert, hold, tol_abs,
                                                       tol_rel)
        assert cert.holdout_residual == residual
        assert cert.worst_case == worst
        assert cert.valid == valid
        uni = uniform_from_nonuniform(cert, hold, tol_abs=tol_abs,
                                      tol_rel=tol_rel)
        ref_residual, ref_exceed = _reference_uniform(uni.beta, cert.gamma,
                                                      hold, tol_abs, tol_rel)
        assert uni.holdout_residual == ref_residual
        assert uni.valid == (cert.valid and ref_exceed <= 0.0)
    assert not cert.valid


def test_surfaces_are_evaluated_once_per_radius_and_grid(setting,
                                                         monkeypatch):
    net, window, cfg = setting
    fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=8)
    ugs = fit_ugs(fit, holdout=hold)
    levels = {1.0: float(ugs.sigma(1.0)) * 2.0 ** -np.arange(3)}
    att = estimate_attainment_times(net, window, levels, (1.0,), ugs.gamma,
                                    cfg, seed=8)
    calls = []
    evaluate = KLSurface.__call__

    def counted(self, r, t):
        calls.append(r)
        return evaluate(self, r, t)

    monkeypatch.setattr(KLSurface, "__call__", counted)
    cert = build_nonuniform_iss(att, ugs, hold)
    starts = {run.r_x for run in hold}
    assert len(hold) > len(starts)
    assert sorted(calls) == sorted(list(starts) * len(window))
    calls.clear()
    uniform_from_nonuniform(cert, hold)
    assert sorted(calls) == sorted(starts)


def test_holdout_worst_case_keeps_the_first_maximum():
    # both components hold their start value, so every run ties across
    # components; the first component of the worst run must be reported
    spec = SubsystemSpec("hold", DISCRETE, lambda x, w, u: x)
    net = NetworkSpec("flat", DISCRETE, FiniteIndexSet((0, 1)),
                      lambda i: spec)
    cfg = EnsembleConfig(horizon=4.0, n_random=0)
    fit, hold = build_fit_and_holdout(net, (0, 1), [(1.0, 0.0), (0.0, 1.0)],
                                      cfg, seed=0)
    ugs = fit_ugs(fit, holdout=hold)
    att = estimate_attainment_times(net, (0, 1),
                                    {1.0: np.array([float(ugs.sigma(1.0))])},
                                    (1.0,), ugs.gamma, cfg, seed=0)
    cert = build_nonuniform_iss(att, ugs, hold, tol_abs=-1.0, tol_rel=0.0)
    assert cert.worst_case == _reference_validation(cert, hold, -1.0, 0.0)[1]
    assert cert.worst_case[0] == 0


@pytest.mark.parametrize("tails", [
    "grid",              # starts on the step grid
    "between",           # starts between grid points, unsorted, repeated
])
def test_band_cells_equal_per_cell_ensembles(setting, tails):
    net, window, cfg = setting
    h = cfg.horizon
    if tails == "grid":
        starts = (0.0, 0.25 * h, 0.5 * h, 0.75 * h)
    else:
        step = cfg.dt or 1.0
        starts = (0.6 * h + 0.5 * step, 0.3 * h + 0.25 * step,
                  0.6 * h + 0.5 * step, h - 0.5 * step)
    cells = [(1.0, 1, None), (1.0, 3, None), (0.5, 2, None),
             (1.0, None, 0.125), (0.5, None, 0.0)]
    entries = compute_band_cells(net, window, cells, cfg, starts, seed=6)
    assert len(entries) == len(cells)
    for (r, k, q), entry in zip(cells, entries):
        band, y, n_members = _reference_cell(net, window, r, k, q, cfg,
                                             starts, 6)
        assert (entry.r, entry.k, entry.q, entry.band) == (r, k, q, band)
        assert entry.tail_starts == tuple(starts)
        assert entry.n_members == n_members and entry.seed == 6
        assert np.array_equal(entry.y_hat, y)
        single = compute_band_limsups(net, window, r, k, cfg, starts, seed=6,
                                      q=q)
        assert np.array_equal(single.y_hat, y)


# blow-ups in a merged pass -----------------------------------------------


def _trap_net(trigger):
    # stable unless trigger(u) holds, then it doubles each step
    spec = SubsystemSpec(
        "trap", DISCRETE,
        lambda x, w, u: 2.0 * x + 1.0 if trigger(u) else 0.5 * x)
    return NetworkSpec("trap", DISCRETE, FiniteIndexSet((0,)), lambda i: spec)


def _message(call):
    with pytest.raises(CertificationError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("seed, family", [(1, "holdout"), (9, "fit")])
def test_blowup_in_a_merged_pass_reports_todays_member(seed, family):
    # only random inputs go below -0.5: at seed 1 a holdout member does
    # and no fit member; at seed 9 members of both families do, and the
    # fit family, built first today, is the one reported
    net = _trap_net(lambda u: u < -0.5)
    cfg = EnsembleConfig(horizon=60.0, n_random=2, input_pieces=1)
    bins = [(1.0, 0.0), (0.0, 1.0)]
    if family == "holdout":
        build_ensemble(net, (0,), bins, cfg, seed, tag="fit")
    today = _message(lambda: build_ensemble(net, (0,), bins, cfg, seed,
                                            tag=family))
    merged = _message(lambda: build_fit_and_holdout(net, (0,), bins, cfg,
                                                    seed))
    assert merged == today
    assert merged == ("trajectory blow-up at t=40 in member 'random1' of "
                      f"bin (r_x=0, r_u=1), seed {seed}")


def test_blowup_at_the_second_radius_reports_todays_member():
    net = _trap_net(lambda u: u > 1.5)
    cfg = EnsembleConfig(horizon=60.0, n_random=1, input_pieces=1)
    # radius 0.25 keeps every input below 1.5; radius 2 does not
    today = _message(lambda: build_ensemble(
        net, (0,), [(2.0, 2.0), (2.0, 1.0), (2.0, 0.0)], cfg, 4,
        tag="attain:2"))
    merged = _message(lambda: estimate_attainment_times(
        net, (0,), {0.25: np.array([0.25]), 2.0: np.array([2.0])},
        (0.25, 2.0), identity(), cfg, 4))
    assert merged == today
    assert "member 'ones+const' of bin (r_x=2, r_u=2)" in merged


def test_blowup_in_the_second_band_cell_reports_that_cell():
    net = _trap_net(lambda u: u > 1.5)
    cfg = EnsembleConfig(horizon=60.0, n_random=1, input_pieces=1)
    cells = [(0.25, 1, None), (2.0, 1, None)]
    compute_band_limsups(net, (0,), 0.25, 1, cfg, (10.0,), seed=2)
    today = _message(lambda: compute_band_limsups(net, (0,), 2.0, 1, cfg,
                                                  (10.0,), seed=2))
    merged = _message(lambda: compute_band_cells(net, (0,), cells, cfg,
                                                 (10.0,), seed=2))
    assert merged == today
    assert "band cell (r=2, band:1)" in merged


# the reductions themselves ----------------------------------------------


def test_reductions_of_blown_members_cover_their_samples():
    # members blow up at different steps; each one's peak and last
    # exceedances equal those of its own truncated trajectory
    net = _trap_net(lambda u: u < -0.5)
    members = [(0.5, InputSignal.constant(-1.0)),
               (1.0, InputSignal.zero()),
               (100.0, InputSignal.constant(-1.0)),
               (0.3, InputSignal(np.array([0.0, 20.0]),
                                 np.array([0.0, -1.0])))]
    thresholds = np.array([[2.0, 0.1, 1e-9]] * len(members))
    stepped = _simulate(net, (0,), members, 80.0, None, 1e12,
                        thresholds=thresholds, tail_starts=(0.0, 5.0))
    trajs = simulate_ensemble(net, (0,), members, 80.0)
    assert [t.blowup is not None for t in trajs] == [True, False, True, True]
    for j, traj in enumerate(trajs):
        ax = np.abs(traj.states)
        assert stepped.ends[j] == traj.times.size
        assert stepped.peaks[j] == float(np.max(traj.sup_norms()))
        for level in range(thresholds.shape[1]):
            above = np.flatnonzero(ax[:, 0] > thresholds[j, level])
            want = above[-1] if above.size else -1
            assert stepped.last_exceed[j, level, 0] == want
        assert np.array_equal(stepped.tail_sups[j],
                              tail_limsup_estimate(traj.times, ax, (0.0, 5.0)))
    assert stepped.states[1].shape == (81, 1)


def test_negative_thresholds_are_rejected():
    # a blown-up member's row is held at zero, which must never count as
    # exceeding a threshold
    net = _trap_net(lambda u: False)
    with pytest.raises(ValueError, match="thresholds must be nonnegative"):
        _simulate(net, (0,), [(1.0, InputSignal.zero())], 5.0, None, 1e12,
                  thresholds=np.array([[0.5, -0.1]]))
