"""The certify and trace passes against the stored-trajectory loops.

Certification steps its members in few passes and reduces their samples
a block of 32 at a time; no certify pass keeps a trajectory, and holdout
validation reads the fit pass's block records, stepping again only the
blocks that can reach the worst excess.  The loops below are the
per-family, per-run and per-cell computations that read stored
trajectories, kept as references: every reduced result must equal them
bit for bit.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from issnet import certify, network
from issnet.catalog import instantiate
from issnet.certify import (CertificationError, EnsembleConfig,
                            build_ensemble, build_fit_and_holdout,
                            build_nonuniform_iss, compute_band_limsups,
                            estimate_attainment_times, fit_ugs,
                            tail_limsup_estimate)
from issnet.comparison import KLSurface, identity, linear, scale
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
    times = {}
    for r in radii:
        lv = np.asarray(levels[r], float)
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
    return times


def _stored(holdout):
    """The holdout's runs, each with its trajectory from one stored
    ensemble."""
    trajs = simulate_ensemble(holdout.net, holdout.window,
                              [(run.x0, run.u) for run in holdout],
                              holdout.cfg.horizon, holdout.cfg.dt)
    return [dataclasses.replace(run, trajectory=traj)
            for run, traj in zip(holdout, trajs)]


def _reference_validation(cert, holdout, tol_abs=1e-6, tol_rel=1e-3):
    """Each (run, component) of the stored holdout checked on its own,
    first worst point kept: (residual, exceed, worst)."""
    raw, exceed, worst = 0.0, -np.inf, None
    for run in _stored(holdout):
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
    return max(0.0, raw), exceed, worst


def _reference_uniform(uni_beta, gamma, holdout, tol_abs=1e-6, tol_rel=1e-3):
    residual, exceed = 0.0, 0.0
    for run in _stored(holdout):
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


def _ladder(sigma, radii, depth):
    """The dyadic ladder of each radius, one level at a time."""
    return {r: np.array([float(sigma(r)) * 2.0 ** (-n)
                         for n in range(depth + 1)]) for r in radii}


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
            assert run.trajectory is None
        # the holdout steps again to the trajectories it would have stored
        if tag == "holdout":
            assert (runs.net, runs.window, runs.cfg, runs.seed) == \
                (net, window, cfg, 3)
            for run, want in zip(_stored(runs), ref):
                assert np.array_equal(run.trajectory.states,
                                      want.trajectory.states)
                assert np.array_equal(run.trajectory.times,
                                      want.trajectory.times)
    ref_ugs = fit_ugs(build_ensemble(net, window, BINS, cfg, seed=3),
                      holdout=build_ensemble(net, window, BINS, cfg, seed=3,
                                             tag="holdout"))
    ugs = fit_ugs(fit, holdout=hold)
    assert ugs.to_json() == ref_ugs.to_json()


def test_attainment_equals_the_stored_trajectory_loop(setting):
    net, window, cfg = setting
    radii = (0.5, 1.0)
    fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=5)
    ugs = fit_ugs(fit, holdout=hold)
    # sigma scaled to 1e3 at the smallest radius and a ladder 60 levels
    # deep: a huge top level (attained at step 0), and a bottom one below
    # anything the horizon reaches (never attained)
    sigma = scale(ugs.sigma, 1e3 / float(ugs.sigma(radii[0])))
    levels = _ladder(sigma, radii, 60)
    gamma_hat = linear(0.5)
    att = estimate_attainment_times(net, window, radii, 60, sigma, gamma_hat,
                                    cfg, seed=5)
    ref = _reference_attainment(net, window, levels, radii, gamma_hat, cfg, 5)
    for r in radii:
        assert levels[r][0] > 999.0 and levels[r][-1] < 1e-12
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
    att = estimate_attainment_times(net, window, (0.5,), 1, identity(),
                                    identity(), cfg, seed=1)
    ref = _reference_attainment(net, window, {0.5: np.array([0.5, 0.25])},
                                (0.5,), identity(), cfg, 1)
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
    att = estimate_attainment_times(net, window, radii, 3, ugs.sigma,
                                    ugs.gamma, cfg, seed=8)
    # a second holdout on a shorter time grid is validated on that grid
    short = EnsembleConfig(horizon=0.5 * cfg.horizon, dt=cfg.dt, n_random=1)
    _fit, short_hold = build_fit_and_holdout(net, window, BINS, short, 9)
    for holdout in (hold, short_hold):
        for tol_abs, tol_rel in ((1e-6, 1e-3), (-1.0, 0.0)):
            # the negative tolerance makes every point a violation, so the
            # worst-case tie-break is exercised on real data
            cert = build_nonuniform_iss(att, ugs, holdout, tol_abs=tol_abs,
                                        tol_rel=tol_rel, uniform=True)
            residual, exceed, worst = _reference_validation(
                cert, holdout, tol_abs, tol_rel)
            assert cert.holdout_residual == residual
            assert cert.worst_case == worst
            assert cert.valid == (exceed <= 0.0)
            # the collapse, validated in the certificate's own pass
            uni = cert.uniform
            ref_residual, ref_exceed = _reference_uniform(
                uni.beta, cert.gamma, holdout, tol_abs, tol_rel)
            assert uni.holdout_residual == ref_residual
            assert uni.valid == (cert.valid and ref_exceed <= 0.0)
        assert not cert.valid


def test_surfaces_are_evaluated_once_per_radius_and_grid(setting,
                                                         monkeypatch):
    net, window, cfg = setting
    fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=8)
    ugs = fit_ugs(fit, holdout=hold)
    att = estimate_attainment_times(net, window, (1.0,), 2, ugs.sigma,
                                    ugs.gamma, cfg, seed=8)
    calls = []
    evaluate = KLSurface.__call__

    def counted(self, r, t):
        calls.append(r)
        return evaluate(self, r, t)

    monkeypatch.setattr(KLSurface, "__call__", counted)
    build_nonuniform_iss(att, ugs, hold)
    # each positive start radius once per component; a run from rest is
    # bounded by gamma(||u||) alone, so r = 0 is never evaluated
    starts = {run.r_x for run in hold if run.r_x > 0}
    assert 0.0 in {run.r_x for run in hold}
    assert len(hold) > len(starts) + 1
    assert sorted(calls) == sorted(list(starts) * len(window))
    # sharing the pass, the collapsed surface is evaluated once per radius
    calls.clear()
    build_nonuniform_iss(att, ugs, hold, uniform=True)
    assert sorted(calls) == sorted(list(starts) * (len(window) + 1))


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
    att = estimate_attainment_times(net, (0, 1), (1.0,), 0, ugs.sigma,
                                    ugs.gamma, cfg, seed=0)
    cert = build_nonuniform_iss(att, ugs, hold, tol_abs=-1.0, tol_rel=0.0)
    assert cert.worst_case == _reference_validation(cert, hold, -1.0, 0.0)[2]
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
    entries = compute_band_limsups(net, window, cells, cfg, starts, seed=6)
    assert len(entries) == len(cells)
    for (r, k, q), entry in zip(cells, entries):
        band, y, n_members = _reference_cell(net, window, r, k, q, cfg,
                                             starts, 6)
        assert (entry.r, entry.k, entry.q, entry.band) == (r, k, q, band)
        assert entry.tail_starts == tuple(starts)
        assert entry.n_members == n_members and entry.seed == 6
        assert np.array_equal(entry.y_hat, y)
        single, = compute_band_limsups(net, window, [(r, k, q)], cfg, starts,
                                       seed=6)
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
        net, (0,), (0.25, 2.0), 0, identity(), identity(), cfg, 4))
    assert merged == today
    assert "member 'ones+const' of bin (r_x=2, r_u=2)" in merged


def test_blowup_in_the_second_band_cell_reports_that_cell():
    net = _trap_net(lambda u: u > 1.5)
    cfg = EnsembleConfig(horizon=60.0, n_random=1, input_pieces=1)
    cells = [(0.25, 1, None), (2.0, 1, None)]
    compute_band_limsups(net, (0,), cells[:1], cfg, (10.0,), seed=2)
    today = _message(lambda: compute_band_limsups(net, (0,), cells[1:], cfg,
                                                  (10.0,), seed=2))
    merged = _message(lambda: compute_band_limsups(net, (0,), cells, cfg,
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
    stepped = _simulate(net, (0,), members, 80.0, None,
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


def test_a_tail_start_after_a_blowup_reads_the_last_sample():
    # a blown-up row is held at zero, yet from a tail start after its last
    # sample the sup is that sample's, as on its truncated trajectory
    chain, _ = instantiate("counterexample-chain")
    trap = _trap_net(lambda u: u < -0.5)
    cases = [(chain, 3, [(0.5, InputSignal.zero()),
                         (1e13, InputSignal.zero())], 1.0, 0.1, (0.0, 0.5)),
             (trap, (0,), [(0.5, InputSignal.constant(-1.0)),
                           (1.0, InputSignal.zero())], 80.0, None,
              (0.0, 5.0, 75.0, 39.5))]
    for net, window, members, horizon, dt, starts in cases:
        stepped = _simulate(net, window, members, horizon, dt,
                            tail_starts=starts)
        trajs = simulate_ensemble(net, window, members, horizon, dt)
        assert trajs[0].blowup is not None or trajs[1].blowup is not None
        for j, traj in enumerate(trajs):
            assert np.array_equal(
                stepped.tail_sups[j],
                tail_limsup_estimate(traj.times, np.abs(traj.states), starts))
    chain_rows = _simulate(chain, 3, cases[0][2], 1.0, 0.1,
                           tail_starts=(0.0, 0.5)).tail_sups[1]
    assert np.array_equal(chain_rows, [[1e13] * 3] * 2)


def test_negative_thresholds_are_rejected():
    # a blown-up member's row is held at zero, which must never count as
    # exceeding a threshold
    net = _trap_net(lambda u: False)
    with pytest.raises(ValueError, match="thresholds must be nonnegative"):
        _simulate(net, (0,), [(1.0, InputSignal.zero())], 5.0, None,
                  thresholds=np.array([[0.5, -0.1]]))


# distinct rows -----------------------------------------------------------


def _copy(x0, u):
    """An equal member built from fresh arrays."""
    return (np.array(x0, float), InputSignal(u.breaks.copy(), u.values.copy()))


def _duplicated_members(n, h):
    rng = np.random.default_rng(3)
    a = (rng.uniform(-1, 1, n), InputSignal(h * np.array([0.0, 2.5, 7.0]),
                                            [0.3, -0.6, 0.2]))
    b = (np.ones(n), InputSignal.zero())
    c = (np.ones(n), InputSignal.constant(0.0))   # equal to b
    d = (0.5, InputSignal.constant(0.4))
    return [a, b, _copy(*a), d, c, a, _copy(*d)]


def _rows_seen(monkeypatch):
    seen = []
    step_rows = network._step_rows

    def recorded(times, update, x, inputs, keep=True, observe=None):
        seen.append((x.shape[0], keep))
        return step_rows(times, update, x, inputs, keep, observe)

    monkeypatch.setattr(network, "_step_rows", recorded)
    return seen


def _calls_seen(monkeypatch):
    """(rows, keep, samples) of every _step_rows call."""
    seen = []
    step_rows = network._step_rows

    def recorded(times, update, x, inputs, keep=True, observe=None):
        seen.append((x.shape[0], keep, times.size))
        return step_rows(times, update, x, inputs, keep, observe)

    monkeypatch.setattr(network, "_step_rows", recorded)
    return seen


def test_duplicate_members_equal_their_solo_runs(setting, monkeypatch):
    net, window, cfg = setting
    h = cfg.dt or 1.0
    members = _duplicated_members(len(window), h)
    thresholds = np.tile([1e3, 0.5, 0.05], (len(members), 1))
    starts = (0.0, 0.5 * cfg.horizon)
    seen = _rows_seen(monkeypatch)
    for keep in (True, False):
        seen.clear()
        stepped = _simulate(net, window, members, cfg.horizon, cfg.dt,
                            keep=keep, thresholds=thresholds,
                            tail_starts=starts)
        assert seen == [(3, keep)]          # a, b and d
        assert (stepped.states is None) == (not keep)
        for j, (x0, u) in enumerate(members):
            solo = _simulate(net, window, [(x0, u)], cfg.horizon, cfg.dt,
                             thresholds=thresholds[j:j + 1],
                             tail_starts=starts)
            assert stepped.ends[j] == solo.ends[0]
            assert stepped.blowups[j] == solo.blowups[0] is None
            assert stepped.peaks[j] == solo.peaks[0]
            assert np.array_equal(stepped.last_exceed[j],
                                  solo.last_exceed[0])
            assert np.array_equal(stepped.tail_sups[j], solo.tail_sups[0])
            if keep:
                assert np.array_equal(stepped.states[j], solo.states[0])


def test_kept_duplicates_share_one_states_array(setting):
    net, window, cfg = setting
    members = _duplicated_members(len(window), cfg.dt or 1.0)
    trajs = simulate_ensemble(net, window, members, cfg.horizon, cfg.dt)
    for i, j in [(0, 2), (0, 5), (1, 4), (3, 6)]:
        assert np.shares_memory(trajs[i].states, trajs[j].states)
    assert not np.shares_memory(trajs[0].states, trajs[1].states)
    for (x0, u), traj in zip(members, trajs):
        solo = simulate_ensemble(net, window, [(x0, u)], cfg.horizon, cfg.dt)
        assert np.array_equal(traj.states, solo[0].states)


def test_duplicates_that_blow_up_equal_their_solo_runs(monkeypatch):
    net = _trap_net(lambda u: u < -0.5)
    bad = (0.5, InputSignal.constant(-1.0))
    members = [(1.0, InputSignal.zero()), bad, _copy(*bad), (0.25, bad[1]),
               bad]
    seen = _rows_seen(monkeypatch)
    for keep in (True, False):
        seen.clear()
        stepped = _simulate(net, (0,), members, 60.0, None, keep=keep,
                            tail_starts=(0.0,))
        assert seen == [(3, keep)]
        assert (stepped.states is None) == (not keep)
        for j, (x0, u) in enumerate(members):
            solo = _simulate(net, (0,), [(x0, u)], 60.0, None,
                             tail_starts=(0.0,))
            assert stepped.ends[j] == solo.ends[0]
            assert stepped.blowups[j] == solo.blowups[0]
            assert stepped.peaks[j] == solo.peaks[0]
            assert np.array_equal(stepped.tail_sups[j], solo.tail_sups[0])
            if keep:
                assert np.array_equal(stepped.states[j], solo.states[0])
        assert stepped.blowups[1] is not None and stepped.ends[1] < 61


def test_a_duplicated_blowup_names_its_first_member():
    # the copy in the second family shares the row of the first family's
    # member, which comes first in family order, so it is the member named
    net = _trap_net(lambda u: u < -0.5)
    cfg = EnsembleConfig(horizon=60.0)
    bad = (0.5, InputSignal.constant(-1.0))
    families = [[("first", 1.0, InputSignal.zero()), ("second", *bad)],
                [("third", *_copy(*bad))]]
    for keep in (True, False):
        with pytest.raises(CertificationError, match="in second, seed 0"):
            certify._run_pass(net, (0,), cfg, 0, families, keep)


def test_equal_runs_with_different_thresholds_stay_separate(monkeypatch):
    net, _ = instantiate("counterexample-chain")
    members = [(1.0, InputSignal.zero()), (1.0, InputSignal.zero())]
    thresholds = np.array([[0.5], [0.9]])
    seen = _rows_seen(monkeypatch)
    for keep in (True, False):
        seen.clear()
        stepped = _simulate(net, 2, members, 2.0, 0.1, keep=keep,
                            thresholds=thresholds)
        assert seen == [(2, keep)]
        assert stepped.last_exceed[0, 0, 1] > stepped.last_exceed[1, 0, 1]
        if keep:
            assert not np.shares_memory(stepped.states[0], stepped.states[1])
        for j in range(2):
            solo = _simulate(net, 2, members[j:j + 1], 2.0, 0.1,
                             thresholds=thresholds[j:j + 1])
            assert np.array_equal(stepped.last_exceed[j],
                                  solo.last_exceed[0])


def test_a_certify_pass_steps_each_distinct_member_once(monkeypatch):
    # the deterministic members repeat across the fit and holdout tags,
    # and ones+const at r_u = 0 repeats ones+zero of the same r_x
    net, _ = instantiate("counterexample-chain")
    window = net.window(4)
    cfg = EnsembleConfig(horizon=2.0, dt=0.1, n_random=1)
    bins = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    fit = certify._plan_bins(net, window, bins, cfg, 0, "fit")
    hold = certify._plan_bins(net, window, bins, cfg, 0, "holdout")
    keys = [(np.broadcast_to(np.asarray(x0, float), 4).tobytes(), u.to_json())
            for *_, x0, u in fit + hold]
    distinct = len({(x, str(u)) for x, u in keys})
    kept = len({(x, str(u)) for x, u in keys[len(fit):]})
    seen = _rows_seen(monkeypatch)
    fit_runs, hold_runs = build_fit_and_holdout(net, window, bins, cfg, 0)
    assert seen == [(distinct, False)]
    assert (distinct, kept) == (12, 9)      # of 24 members, 12 of them holdout
    assert all(run.trajectory is None for run in fit_runs + list(hold_runs))
    assert len(hold_runs) == 12
    # validation reads the block records the pass handed the holdout, a
    # row per run and 9 distinct rows, and steps again only some of their
    # blocks, in runs of at most 9 rows, keeping none
    records = hold_runs._records
    assert records.rows.size == 12 and records.states.shape[0] == 9
    ugs = fit_ugs(fit_runs, holdout=hold_runs)
    att = estimate_attainment_times(net, window, (1.0,), 0, ugs.sigma,
                                    ugs.gamma, cfg, 0)
    seen.clear()
    build_nonuniform_iss(att, ugs, hold_runs, uniform=True)
    assert all(rows <= 9 and not kept for rows, kept in seen)


# holdout validation -------------------------------------------------------


def _todays_validate_holdout(runs, beta, gamma, values, tol_abs, tol_rel):
    """The per-run validation loop over stored trajectories that the
    streamed one replaced."""
    raw, exceed, worst = 0.0, -np.inf, None
    for run in runs:
        traj = run.trajectory
        bound = beta(run.r_x, traj.times) + float(gamma(run.u_norm))
        viol = values(traj) - bound
        over = viol - (tol_abs + tol_rel * bound)
        ks, k2s = np.argmax(viol, axis=0), np.argmax(over, axis=0)
        for col in range(viol.shape[1]):
            raw = max(raw, float(viol[ks[col], col]))
            if over[k2s[col], col] > exceed:
                exceed = float(over[k2s[col], col])
                worst = (col, float(traj.times[k2s[col]]), run.member)
    return raw, exceed, worst


def _with_duplicates(hold):
    """hold plus a second name for a run, an equal copy of it built from
    fresh arrays, the same run under another r_x and under another ||u||
    (both on its row), and a repeated run."""
    run = hold[0]
    copy = dataclasses.replace(run, member="copied", x0=np.array(run.x0),
                               u=InputSignal(run.u.breaks.copy(),
                                             run.u.values.copy()))
    return dataclasses.replace(hold, runs=(
        dataclasses.replace(run, member="again"), *hold, copy,
        dataclasses.replace(run, r_x=2.0 * run.r_x, member="wider"),
        dataclasses.replace(run, u_norm=run.u_norm + 0.5, member="louder"),
        hold[-1]))


def _checks(cert, uni_beta):
    """(beta, sup_norm, values) of the component and the uniform check."""
    def beta(r, t):
        return np.stack([cert.surfaces[i](r, t) for i in cert.window], -1)

    return [(beta, False, lambda traj: np.abs(traj.states)),
            (lambda r, t: uni_beta(r, t)[:, None], True,
             lambda traj: traj.sup_norms()[:, None])]


def _flat_check(window):
    """(beta, sup_norm, values) of a zero beta: the bound is gamma(||u||)
    alone, so every run from the largest ball with zero input ties at its
    start, in every column, while tol_rel > -1."""
    return (lambda r, t: np.zeros((t.size, len(window))), False,
            lambda traj: np.abs(traj.states))


def _ties(stored, check, gamma, tol_abs, tol_rel):
    """The runs and the columns that attain the largest excess."""
    beta, _sup, values = check
    tops = []
    for run in stored:
        bound = beta(run.r_x, run.trajectory.times) + float(gamma(run.u_norm))
        over = values(run.trajectory) - bound - (tol_abs + tol_rel * bound)
        tops.append(over.max(axis=0))
    hits = np.argwhere(np.array(tops) == np.max(tops))
    return set(hits[:, 0].tolist()), set(hits[:, 1].tolist())


def test_grouped_validation_equals_the_per_run_loop(setting, monkeypatch):
    net, window, cfg = setting
    fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=8)
    ugs = fit_ugs(fit, holdout=hold)
    att = estimate_attainment_times(net, window, (0.5, 1.0), 3, ugs.sigma,
                                    ugs.gamma, cfg, seed=8)
    runs = _with_duplicates(hold)
    stored = _stored(runs)
    rows = {(np.broadcast_to(np.asarray(run.x0, float), len(window))
             .tobytes(), str(run.u.to_json())) for run in runs}
    assert len(rows) < len(runs) - 4       # repeats from the pass itself
    seen = _calls_seen(monkeypatch)
    for tol_abs, tol_rel in ((1e-6, 1e-3), (-1.0, 0.0), (-1.0, 0.5)):
        # a negative tolerance makes every point a violation: ties
        # between runs, copies and components all reach the tie-break
        seen.clear()
        cert = build_nonuniform_iss(att, ugs, runs, tol_abs, tol_rel,
                                    uniform=True)
        # a holdout made by dataclasses.replace has no records: one
        # records pass of the distinct rows, then replay runs of at most
        # that many rows, for both checks, keeping none
        samples = stored[0].trajectory.times.size
        assert seen[0] == (len(rows), False, samples)
        assert all(n_rows <= len(rows) and not kept and n <= BLOCK
                   for n_rows, kept, n in seen[1:])
        uni = cert.uniform
        checks = _checks(cert, uni.beta) + [_flat_check(window)]
        got = certify._validate_holdout(
            runs, window, [(beta, sup) for beta, sup, _v in checks],
            cert.gamma, tol_abs, tol_rel)
        for (beta, _sup, values), result in zip(checks, got):
            assert result == _todays_validate_holdout(
                stored, beta, cert.gamma, values, tol_abs, tol_rel)
        # the zero beta's largest excess is tied across runs and columns
        runs_hit, cols_hit = _ties(stored, checks[-1], cert.gamma, tol_abs,
                                   tol_rel)
        assert len(runs_hit) >= 2 and len(cols_hit) >= 2
        raw, exceed, worst = _reference_validation(cert, runs, tol_abs,
                                                   tol_rel)
        assert got[0][:2] == (raw, exceed)
        assert cert.holdout_residual == raw
        assert cert.valid == (exceed <= 0.0)
        assert cert.worst_case == worst == \
            (window[got[0][2][0]],) + got[0][2][1:]
        raw, exceed, _ = got[1]
        assert uni.holdout_residual == raw
        assert uni.valid == (cert.valid and exceed <= 0)


def _replay_net():
    # x+ = u: a discrete two-component network whose states replay a
    # vector input, so a run's trajectory can be written down
    spec = SubsystemSpec("replay", DISCRETE, lambda x, w, u: u)
    return NetworkSpec("replay", DISCRETE, FiniteIndexSet((0, 1)),
                       lambda i: spec)


def _replayed(states, member, r_x=1.0):
    """A holdout run whose trajectory is ``states``."""
    u = InputSignal(np.arange(len(states) - 1.0), np.array(states[1:]))
    return certify.LabeledRun(None, r_x, 0.0, 0.0, member, 0, 3.0,
                              np.array(states[0]), u)


def test_grouped_validation_names_the_first_of_tied_runs():
    states = [[1.0, -3.0], [2.0, 3.0], [0.5, 0.0], [3.0, 1.0]]
    copy = [list(row) for row in states]
    net = _replay_net()
    cfg = EnsembleConfig(horizon=3.0, n_random=0)

    def beta(r, t):
        return np.full((t.size, 2), r)

    def values(traj):
        return np.abs(traj.states)

    for runs, name in (([_replayed(states, "one"), _replayed(states, "two"),
                         _replayed(copy, "three")], "one"),
                       ([_replayed(copy, "three"), _replayed(states, "one"),
                         _replayed(states, "two")], "three"),
                       ([_replayed(states, "wide", 2.0),
                         _replayed(states, "one"),
                         _replayed(copy, "three")], "one")):
        holdout = certify.Holdout(net, (0, 1), cfg, 0, tuple(runs))
        stored = _stored(holdout)
        assert np.array_equal(stored[0].trajectory.states, states)
        got, = certify._validate_holdout(holdout, (0, 1), [(beta, False)],
                                         identity(), 0.0, 0.0)
        assert got == _todays_validate_holdout(stored, beta, identity(),
                                               values, 0.0, 0.0)
        # both columns peak at 3, column 0 at t=3 and column 1 first at
        # t=0; the tie goes to column 0 of the first run at radius 1
        assert got == (2.0, 2.0, (0, 3.0, name))


def test_runs_from_rest_are_bounded_by_gamma_alone():
    # beta vanishes at r = 0, so a run from rest has no beta slot and no
    # beta call; with every run from rest there is no slot at all
    states = [[0.0, 0.0], [2.0, 0.5], [0.5, 3.0], [1.0, 1.0]]
    net = _replay_net()
    cfg = EnsembleConfig(horizon=3.0, n_random=0)
    radii = []

    def beta(r, t):
        radii.append(r)
        return np.full((t.size, 2), r)

    def values(traj):
        return np.abs(traj.states)

    rest = dataclasses.replace(_replayed(states, "rest", 0.0), u_norm=1.0)
    for runs in ([rest], [rest, _replayed(states, "one"),
                          _replayed(states[::-1], "back", 0.0)]):
        holdout = certify.Holdout(net, (0, 1), cfg, 0, tuple(runs))
        stored = _stored(holdout)
        for tol_abs in (0.0, -1.0):
            radii.clear()
            got, = certify._validate_holdout(holdout, (0, 1), [(beta, False)],
                                             linear(0.5), tol_abs, 0.1)
            assert radii == [1.0] * (len(runs) > 1)
            assert got == _todays_validate_holdout(stored, beta, linear(0.5),
                                                   values, tol_abs, 0.1)


@pytest.mark.parametrize("late, worst_t", [(2.0, 40.0), (2.5, 100.0)])
def test_the_worst_sample_is_found_across_chunks(late, worst_t):
    # samples are reduced a chunk at a time: a tie in a later chunk keeps
    # the earlier sample, and a larger value there wins
    steps = 3 * network._CHUNK + 5
    states = [[0.5, 0.5] for _ in range(steps + 1)]
    states[40][0] = 2.0
    states[100][0] = late
    states[99][1] = 1.9
    holdout = certify.Holdout(_replay_net(), (0, 1),
                              EnsembleConfig(horizon=float(steps)), 0,
                              (_replayed(states, "late"),))

    def beta(r, t):
        return np.full((t.size, 2), r)

    for tol_abs in (0.0, -1.0):
        got, = certify._validate_holdout(holdout, (0, 1), [(beta, False)],
                                         identity(), tol_abs, 0.0)
        assert got == (late - 1.0, late - 1.0 - tol_abs,
                       (0, worst_t, "late"))


def test_an_empty_holdout_is_rejected(monkeypatch):
    net, _ = instantiate("counterexample-chain")
    window = net.window(3)
    cfg = EnsembleConfig(horizon=2.0, dt=0.1, n_random=1)
    bins = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    fit, hold = build_fit_and_holdout(net, window, bins, cfg, 0)
    ugs = fit_ugs(fit, holdout=hold)
    att = estimate_attainment_times(net, window, (1.0,), 0, ugs.sigma,
                                    ugs.gamma, cfg, 0)
    empty = dataclasses.replace(hold, runs=())
    for holdout in ([], empty):
        with pytest.raises(ValueError, match="empty holdout"):
            fit_ugs(fit, holdout=holdout)
        for uniform in (False, True):
            with pytest.raises(ValueError, match="empty holdout"):
                build_nonuniform_iss(att, ugs, holdout, uniform=uniform)
    # and a holdout stepped on another window than the certificate's
    _fit, wider = build_fit_and_holdout(net, net.window(4), bins, cfg, 0)
    for uniform in (False, True):
        with pytest.raises(ValueError, match="holdout on window"):
            build_nonuniform_iss(att, ugs, wider, uniform=uniform)


def test_no_certify_pass_keeps_states(run_cli, monkeypatch):
    seen = _calls_seen(monkeypatch)
    base = {"network": "catalog:counterexample-chain",
            "ensemble": {"horizon": 4.0, "dt": 0.1, "n_random": 1},
            "radii": [0.5, 1.0], "depth": 1, "seed": 1}
    for command, conf in (("certify", dict(base, window=4)),
                          ("certify", dict(base, window=4,
                                           emit_uniform=True)),
                          ("subnetwork", dict(base, subset=[1, 2, 3]))):
        seen.clear()
        code, _out = run_cli(command, conf)
        assert code == 0
        # fit and holdout, then attainment: two full passes; validation
        # reads the holdout's block records and makes at most one replay
        # call, of at most 32 samples; no call keeps states
        assert [samples for _rows, _kept, samples in seen[:2]] == [41, 41]
        assert len(seen) <= 3
        assert all(samples <= BLOCK for _rows, _kept, samples in seen[2:])
        assert all(not kept for _rows, kept, _samples in seen)


def test_a_certify_run_holds_no_holdout_block():
    # the stored holdout would be members x samples x window doubles; the
    # whole run, validation included, peaks well below a quarter of it
    net, _ = instantiate("counterexample-chain")
    window = net.window(40)
    cfg = EnsembleConfig(horizon=80.0, dt=0.05, n_random=2)
    radii = (0.5, 1.0)
    bins = [(r, 0.0) for r in radii] + [(0.0, r) for r in radii] \
        + [(r, r) for r in radii]
    tracemalloc.start()
    try:
        fit, hold = build_fit_and_holdout(net, window, bins, cfg, 0)
        ugs = fit_ugs(fit, holdout=hold)
        att = estimate_attainment_times(net, window, radii, 0, ugs.sigma,
                                        ugs.gamma, cfg, 0)
        cert = build_nonuniform_iss(att, ugs, hold, uniform=True)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.valid and cert.uniform.valid
    samples = round(cfg.horizon / cfg.dt) + 1
    block = len(hold) * samples * len(window) * 8
    assert peak < block / 4, (peak, block)


# blocks of 32 samples ----------------------------------------------------


BLOCK = network._CHUNK
TAIL_STARTS = (0.0, 20.0, 33.0, 64.5, 90.0)
THRESHOLDS = [0.5, 1.5, 0.0, 1.0]        # in no particular order


def _replay_member(states):
    """A member of _replay_net whose trajectory is ``states``, (T, 2)."""
    states = np.asarray(states, float)
    if len(states) == 1:
        return states[0], InputSignal.zero(2)
    return states[0], InputSignal(np.arange(len(states) - 1.0), states[1:])


def _decaying(r, t):
    """Two decaying slots on both columns, exp(-t/9) at r = 1 and
    2 exp(-t/30) at r = 2; a run from rest has none (zero)."""
    col = {0.0: 0.0 * t, 1.0: np.exp(-t / 9.0),
           2.0: 2.0 * np.exp(-t / 30.0)}[r]
    return np.stack([col, col], 1)


def _sup_of(beta):
    """The sup-norm check of a two-column beta: its larger column."""
    return lambda r, t: beta(r, t).max(axis=1, keepdims=True)


def _block_holdout(trajectories):
    """The replayed ``trajectories`` as a holdout without records: the
    runs in the two decaying slots by turns, every third one bounded by
    its offset alone (r_x 0), offsets 0.25 (j mod 4) through identity."""
    runs = []
    for j, states in enumerate(trajectories):
        x0, u = _replay_member(states)
        r_x = 0.0 if j % 3 == 2 else 1.0 + j % 2
        runs.append(certify.LabeledRun(None, r_x, 0.0, 0.25 * (j % 4),
                                       f"run{j}", 0, 0.0, x0, u))
    return _holdout(runs, len(trajectories[0]))


def _validation_equals_the_stored_loop(holdout, beta, tol_abs, tol_rel,
                                       gamma=identity()):
    """Both checks of ``beta`` (columns and sup norm) validated from block
    records equal the per-run loop on stored trajectories; returns the
    results."""
    got = certify._validate_holdout(
        holdout, holdout.window, [(beta, False), (_sup_of(beta), True)],
        gamma, tol_abs, tol_rel)
    stored = _stored(holdout)
    assert got == [
        _todays_validate_holdout(stored, beta, gamma,
                                 lambda traj: np.abs(traj.states),
                                 tol_abs, tol_rel),
        _todays_validate_holdout(stored, _sup_of(beta), gamma,
                                 lambda traj: traj.sup_norms()[:, None],
                                 tol_abs, tol_rel)]
    return got


def _assert_blocks_equal_the_stored_pass(trajectories):
    """Every reduction of a pass over the replayed ``trajectories`` (each
    the same length) equals numpy on its stored ensemble, and so do the
    block records and the holdout validation read from them (which
    raises on a blown-up run); returns the stepped pass."""
    net = _replay_net()
    members = [_replay_member(states) for states in trajectories]
    m, samples = len(members), len(trajectories[0])
    thresholds = np.array([THRESHOLDS] * m)
    stepped = _simulate(net, (0, 1), members, samples - 1.0, None,
                        thresholds=thresholds, tail_starts=TAIL_STARTS,
                        record=0)
    trajs = simulate_ensemble(net, (0, 1), members, samples - 1.0)
    records = stepped.records
    for j, traj in enumerate(trajs):
        ax = np.abs(traj.states)
        size = traj.times.size
        assert stepped.ends[j] == size
        assert stepped.blowups[j] == traj.blowup
        assert stepped.peaks[j] == ax.max()
        above = ax[:, None, :] > thresholds[j][None, :, None]
        last = np.where(above.any(axis=0),
                        size - 1 - np.argmax(above[::-1], axis=0), -1)
        assert np.array_equal(stepped.last_exceed[j], last)
        assert np.array_equal(stepped.tail_sups[j], tail_limsup_estimate(
            traj.times, ax, TAIL_STARTS))
        if traj.blowup is None:
            row = records.rows[j]
            assert np.array_equal(records.states[row],
                                  traj.states[::BLOCK])
            assert np.array_equal(records.tops[row], np.maximum.reduceat(
                ax, np.arange(0, size, BLOCK), axis=0))
    holdout = _block_holdout(trajectories)
    if any(traj.blowup is not None for traj in trajs):
        with pytest.raises(CertificationError, match="blow-up"):
            certify._validate_holdout(holdout, (0, 1), [(_decaying, False)],
                                      identity(), -1e-3, 0.1)
    else:
        _validation_equals_the_stored_loop(holdout, _decaying, -1e-3, 0.1)
    return stepped


def _random_trajectories(samples, m, seed):
    rng = np.random.default_rng(seed)
    return list(rng.uniform(-2.0, 2.0, (m, samples, 2)))


@pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                     3 * BLOCK + 5])
def test_passes_across_block_boundaries_equal_the_stored_pass(samples):
    _assert_blocks_equal_the_stored_pass(_random_trajectories(samples, 5,
                                                              samples))


def test_blowups_at_block_boundaries_equal_the_stored_pass():
    trajectories = _random_trajectories(3 * BLOCK + 5, 5, 7)
    for states, k in zip(trajectories, (0, BLOCK - 1, BLOCK, BLOCK + 1)):
        states[k, 1] = -1e13
    stepped = _assert_blocks_equal_the_stored_pass(trajectories)
    assert list(stepped.ends) == [1, BLOCK, BLOCK + 1, BLOCK + 2,
                                  3 * BLOCK + 5]
    assert [b and b.value for b in stepped.blowups] == [1e13] * 4 + [None]


@pytest.mark.parametrize("deaths", [(40, 45), (BLOCK - 1, BLOCK - 1)])
def test_a_pass_whose_rows_all_die_mid_block_equals_the_stored_pass(deaths):
    # the last row to blow up ends the loop; the samples stepped so far
    # are reduced, a partial block or none
    trajectories = _random_trajectories(3 * BLOCK + 5, 2, 11)
    for states, k in zip(trajectories, deaths):
        states[k, 0] = 1e13
    stepped = _assert_blocks_equal_the_stored_pass(trajectories)
    assert list(stepped.ends) == [k + 1 for k in deaths]


def test_crossings_inside_one_block_equal_the_stored_pass():
    # column 0 crosses threshold 1.0 down and up several times inside the
    # second block and ends it below; column 1 is above 1.0 only at the
    # block's last sample
    states = np.full((3 * BLOCK + 5, 2), 0.25)
    states[BLOCK + 2:BLOCK + 12:3, 0] = 1.25
    states[2 * BLOCK - 1, 1] = -1.25
    stepped = _assert_blocks_equal_the_stored_pass([states])
    level = THRESHOLDS.index(1.0)
    assert list(stepped.last_exceed[0, level]) == [BLOCK + 11, 2 * BLOCK - 1]


def test_equality_with_a_threshold_is_not_above_it():
    # |x| equal to a threshold never counts, in a block's interior or at
    # its last sample; the last sample strictly above does
    states = np.full((3 * BLOCK + 5, 2), 0.25)
    states[BLOCK + 3, 0] = -1.5
    states[BLOCK + 5, 0] = 1.0
    states[2 * BLOCK - 1, :] = 1.0
    stepped = _assert_blocks_equal_the_stored_pass([states])
    at_one = stepped.last_exceed[0, THRESHOLDS.index(1.0)]
    at_half = stepped.last_exceed[0, THRESHOLDS.index(0.5)]
    assert list(at_one) == [BLOCK + 3, -1]
    assert list(at_half) == [2 * BLOCK - 1, 2 * BLOCK - 1]


def test_a_pass_observes_one_block_per_32_samples(monkeypatch):
    blocks = []
    step_rows = network._step_rows

    def recorded(times, update, x, inputs, keep=True, observe=None):
        def counted(k0, block, blown, start):
            blocks.append((k0, block.shape[0]))
            observe(k0, block, blown, start)
        return step_rows(times, update, x, inputs, keep, counted)

    monkeypatch.setattr(network, "_step_rows", recorded)
    net = _replay_net()
    for samples in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5):
        blocks.clear()
        members = [_replay_member(s) for s in _random_trajectories(samples,
                                                                   3, 0)]
        _simulate(net, (0, 1), members, samples - 1.0, None,
                  thresholds=np.ones((3, 1)))
        assert len(blocks) == -(-samples // BLOCK)
        assert blocks == [(k0, min(BLOCK, samples - k0))
                          for k0 in range(0, samples, BLOCK)]


def test_a_window_without_neighbors_binds_its_block_once():
    net, _ = instantiate("counterexample-chain")
    seen = []

    def factory(window):
        f = net.fast_factory(window)

        def recorded(x, w, u):
            seen.append(w)
            return f(x, w, u)
        return recorded

    recording = dataclasses.replace(net, fast_factory=factory)
    members = [(0.5, InputSignal.zero()), (1.0, InputSignal.constant(0.2))]
    stepped = _simulate(recording, 5, members, 1.0, 0.1)
    assert len(seen) == 4 * 10                    # four RK4 stages a step
    assert all(w is seen[0] for w in seen)
    assert seen[0].shape == (2, 5, 0)
    assert np.array_equal(stepped.trajectory(1).states,
                          _simulate(net, 5, members, 1.0, 0.1)
                          .trajectory(1).states)


def test_a_nan_sample_is_above_no_threshold():
    # a NaN row blows up at its sample and compares above nothing there,
    # though its block's max is NaN; the sample above 0.05 still counts
    spec = SubsystemSpec("nan", DISCRETE,
                         lambda x, w, u: np.nan if u > 0.5 else 0.5 * x)
    net = NetworkSpec("nan", DISCRETE, FiniteIndexSet((0, 1)),
                      lambda i: spec)
    members = [(0.1, InputSignal(np.array([0.0, 5.0]), np.array([0.0, 1.0]))),
               (0.1, InputSignal.zero())]
    stepped = _simulate(net, (0, 1), members, 40.0, None,
                        thresholds=np.array([[0.5, 0.05]] * 2))
    assert list(stepped.ends) == [7, 41]
    assert np.isnan(stepped.blowups[0].value)
    assert stepped.last_exceed[:, :, 0].tolist() == [[-1, 0], [-1, 0]]


# holdout validation from block records -----------------------------------


def _flat(r, t):
    """beta(r, t) = r on both columns."""
    return np.full((t.size, 2), r)


def _holdout(runs, samples):
    """A hand-built holdout of replayed runs, which has no records."""
    return certify.Holdout(_replay_net(), (0, 1),
                           EnsembleConfig(horizon=samples - 1.0), 0,
                           tuple(runs))


def _replay_calls(seen):
    """The replay runs among the recorded _step_rows calls."""
    return [(rows, kept, samples) for rows, kept, samples in seen
            if samples <= BLOCK]


def test_validation_without_a_run_from_rest_finds_a_worst_case_mid_block(
        monkeypatch):
    # no run is from rest and every block starts low, so the exact values
    # at the block starts lie below the worst excess, which sits inside a
    # block; pruning still leaves blocks out
    samples = 3 * BLOCK + 5
    rng = np.random.default_rng(5)
    runs = []
    for j in range(4):
        states = rng.uniform(0.05, 0.3, (samples, 2))
        states[BLOCK + 7 + j, j % 2] = 1.5 + 0.125 * j
        states[2 * BLOCK + 3, 1 - j % 2] = -0.75
        runs.append(_replayed(states, f"run{j}"))
    holdout = _holdout(runs, samples)
    seen = _calls_seen(monkeypatch)
    for tol_abs, tol_rel in ((1e-6, 1e-3), (-1e-3, 0.1)):
        seen.clear()
        got = _validation_equals_the_stored_loop(holdout, _flat, tol_abs,
                                                 tol_rel)
        assert got[0][2] == (1, BLOCK + 10.0, "run3")
        replayed = sum(rows for rows, _k, _s in _replay_calls(seen))
        assert 0 < replayed < 4 * 4


@pytest.mark.parametrize("samples, late", [(3 * BLOCK + 5, 3 * BLOCK + 2),
                                           (3 * BLOCK + 1, 3 * BLOCK)])
def test_a_certificate_failing_only_in_the_last_partial_block(samples, late):
    # the bound 1 holds everywhere except at one sample of the grid's last
    # block: inside a 5-sample block, or the whole of a 1-sample block
    states = np.full((samples, 2), 0.25)
    states[late, 1] = -3.0
    rest = _replayed(np.zeros((samples, 2)), "rest", 0.0)
    holdout = _holdout([rest, _replayed(states, "late")], samples)
    got = _validation_equals_the_stored_loop(holdout, _flat, 1e-6, 1e-3)
    assert got[0][1] > 0.0 and got[1][1] > 0.0
    assert got[0][2] == (1, float(late), "late")
    assert got[1][2] == (0, float(late), "late")


def test_negative_tolerances_equal_the_stored_loop(setting):
    net, window, cfg = setting
    fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=8)
    ugs = fit_ugs(fit, holdout=hold)
    att = estimate_attainment_times(net, window, (0.5, 1.0), 3, ugs.sigma,
                                    ugs.gamma, cfg, seed=8)
    cert = build_nonuniform_iss(att, ugs, hold, uniform=True)
    uni = cert.uniform
    stored = _stored(hold)
    # a negative tol_rel makes the tolerance least at a block's largest
    # bound, not at its smallest
    for tol_abs, tol_rel in ((-1e-3, 0.1), (-0.05, -0.5), (1e-6, -1e-3),
                             (-0.2, 0.0), (-0.05, -2.0)):
        checks = _checks(cert, uni.beta) + [_flat_check(window)]
        got = certify._validate_holdout(
            hold, window, [(beta, sup) for beta, sup, _v in checks],
            cert.gamma, tol_abs, tol_rel)
        for (beta, _sup, values), result in zip(checks, got):
            assert result == _todays_validate_holdout(
                stored, beta, cert.gamma, values, tol_abs, tol_rel)
        if tol_rel > -1:
            runs_hit, cols_hit = _ties(stored, checks[-1], cert.gamma,
                                       tol_abs, tol_rel)
            assert len(runs_hit) >= 2 and len(cols_hit) >= 2


@pytest.mark.parametrize("spots, worst", [
    # (run, sample, column) of each |x| = 2 spot, and the worst case
    ([(0, 40, 0), (0, 2 * BLOCK, 0)], (0, 40.0, "run0")),
    ([(0, BLOCK, 1), (0, 70, 1)], (1, float(BLOCK), "run0")),
    ([(0, 40, 1), (1, BLOCK, 0)], (1, 40.0, "run0")),
    ([(0, BLOCK, 1), (0, 40, 0)], (0, 40.0, "run0")),
    ([(1, 2 * BLOCK, 0), (2, 40, 0)], (0, 2.0 * BLOCK, "run1")),
])
def test_a_stepped_sample_tied_with_a_block_start(spots, worst):
    # the first of tied maxima, runs first, then columns, then samples,
    # whether it is a block's first sample or one stepped again
    samples = 3 * BLOCK + 5
    trajectories = np.full((3, samples, 2), 0.5)
    for j, k, col in spots:
        trajectories[j, k, col] = -2.0
    holdout = _holdout([_replayed(states, f"run{j}")
                        for j, states in enumerate(trajectories)], samples)
    for tol_abs in (0.0, -1.0):
        got = _validation_equals_the_stored_loop(holdout, _flat, tol_abs,
                                                 0.0)
        assert got[0] == (1.0, 1.0 - tol_abs, worst)


def test_the_largest_violation_is_read_where_the_excess_is_not():
    # under a large tol_rel the largest violation (run "wide", 0.5 above
    # its bound 2) has a negative excess, and the largest excess is run
    # "narrow"'s (0.4 above its bound 0.125): both blocks are read, though
    # the lower bound from "narrow", bounded first, is above every excess
    # of "wide"
    samples = 3 * BLOCK + 5
    wide = np.full((samples, 2), 1.0)
    wide[BLOCK + 9, 0] = 2.5
    narrow = np.full((samples, 2), 0.0625)
    narrow[2 * BLOCK + 3, 1] = 0.525
    holdout = _holdout([_replayed(narrow, "narrow", 0.125),
                        _replayed(wide, "wide", 2.0)], samples)
    got = _validation_equals_the_stored_loop(holdout, _flat, 0.0, 0.5)
    assert got[0] == (0.5, 0.4 - 0.0625, (1, 2.0 * BLOCK + 3, "narrow"))


def test_the_sup_norm_check_reads_the_larger_column():
    # column 0 peaks in block 0, column 1 higher in block 2; the sup norm
    # of a run from rest under input is its gamma alone
    samples = 3 * BLOCK + 5
    states = np.full((samples, 2), 0.5)
    states[5, 0] = 1.25
    states[2 * BLOCK + 9, 1] = -1.75
    rest = dataclasses.replace(_replayed(np.zeros((samples, 2)), "rest",
                                         0.0), u_norm=0.5)
    holdout = _holdout([rest, _replayed(states, "peaks")], samples)
    got = _validation_equals_the_stored_loop(holdout, _decaying, 1e-6, 1e-3,
                                             linear(0.5))
    assert got[1][2][1:] == (2.0 * BLOCK + 9, "peaks")


def test_runs_sharing_a_row_under_other_radii_and_inputs(monkeypatch):
    # one row under four (r_x, ||u||) labels: one records pass of one row,
    # and each label bounded on its own
    samples = 3 * BLOCK + 5
    states = np.random.default_rng(2).uniform(-1.0, 1.0, (samples, 2))
    runs = [dataclasses.replace(_replayed(states, f"run{j}", r_x),
                                u_norm=u_norm)
            for j, (r_x, u_norm) in enumerate([(1.0, 0.0), (2.0, 0.0),
                                               (0.0, 0.5), (1.0, 0.25)])]
    seen = _calls_seen(monkeypatch)
    for tol_abs in (1e-6, -0.5):
        seen.clear()
        _validation_equals_the_stored_loop(_holdout(runs, samples),
                                           _decaying, tol_abs, 1e-3)
        assert seen[0] == (1, 0, samples)
        assert all(rows == 1 for rows, _k, _s in _replay_calls(seen))


def test_with_nothing_pruned_replay_runs_stay_within_the_row_count(
        monkeypatch):
    # every |x| is 0.5 but at each block's second sample, where it is
    # 0.625, under one bound, so every block's upper bound is above the
    # lower bound: all 4 blocks of the 3 rows are stepped again, in runs
    # of at most 3 rows
    samples = 3 * BLOCK + 5
    level = np.full(samples, 0.5)
    level[1::BLOCK] = 0.625
    rows = [np.c_[level, level], -np.c_[level, level], np.c_[level, -level]]
    holdout = _holdout([_replayed(states, f"run{j}")
                        for j, states in enumerate(rows + rows[:1])], samples)
    seen = _calls_seen(monkeypatch)
    _validation_equals_the_stored_loop(holdout, _flat, 1e-6, 1e-3)
    replays = _replay_calls(seen)
    assert sum(n for n, _k, _s in replays) == 3 * 4
    assert all(n <= 3 and not kept for n, kept, _s in replays)


def test_ties_after_the_first_worst_case_are_not_stepped_again(monkeypatch):
    # every |x| and every bound is the same, so the excess ties at every
    # sample: the worst case is run 0's first sample in column 0, and only
    # the first blocks of the runs whose tie was the first one found when
    # they were bounded are stepped again
    samples = 3 * BLOCK + 5
    rows = [np.full((samples, 2), 0.5), np.full((samples, 2), -0.5),
            np.tile([0.5, -0.5], (samples, 1))]
    runs = [_replayed(states, f"run{j}")
            for j, states in enumerate(rows + rows[:1])]
    # a run from rest under gamma(1) = 1 ties too, and is bounded before
    # run 0, whose tie then comes first
    rest = dataclasses.replace(_replayed(rows[1], "rest", 0.0), u_norm=1.0)
    seen = _calls_seen(monkeypatch)
    for holdout, stepped in ((_holdout(runs, samples), 1),
                             (_holdout([runs[0], rest], samples), 2)):
        seen.clear()
        got = _validation_equals_the_stored_loop(holdout, _flat, 1e-6, 1e-3)
        assert [worst for *_r, worst in got] == [(0, 0.0, "run0")] * 2
        assert sum(n for n, _k, _s in _replay_calls(seen)) == stepped


def test_records_belong_to_their_rows(setting, monkeypatch):
    # only the pass that stepped a holdout's runs hands it their records;
    # a holdout made by dataclasses.replace has none, whether a run has
    # another x0, the grid is another, or the same rows carry other labels
    # (_with_duplicates), and gets them from one records pass over its runs
    net, window, cfg = setting
    fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=8)
    ugs = fit_ugs(fit, holdout=hold)
    att = estimate_attainment_times(net, window, (0.5, 1.0), 3, ugs.sigma,
                                    ugs.gamma, cfg, seed=8)
    cert = build_nonuniform_iss(att, ugs, hold, uniform=True)
    uni = cert.uniform
    moved = dataclasses.replace(hold[1], x0=0.5 * hold[1].x0 + 0.125)
    short = EnsembleConfig(horizon=0.5 * cfg.horizon, dt=cfg.dt, n_random=2)
    samples = round(cfg.horizon / (cfg.dt or 1.0)) + 1
    cases = [(dataclasses.replace(hold, runs=(hold[0], moved, *hold[2:])),
              samples),
             (dataclasses.replace(hold, cfg=short), samples // 2 + 1),
             (_with_duplicates(hold), samples)]
    seen = _calls_seen(monkeypatch)
    for holdout, full in cases:
        stored = _stored(holdout)
        seen.clear()
        checks = _checks(cert, uni.beta)
        got = certify._validate_holdout(
            holdout, window, [(beta, sup) for beta, sup, _v in checks],
            cert.gamma, 1e-6, 1e-3)
        for (beta, _sup, values), result in zip(checks, got):
            assert result == _todays_validate_holdout(
                stored, beta, cert.gamma, values, 1e-6, 1e-3)
        # the records pass, then replay runs alone
        assert seen[0][2] == full
        assert all(samples <= BLOCK for _r, _k, samples in seen[1:])


def test_a_replaced_holdout_makes_one_records_pass(setting, monkeypatch):
    # dataclasses.replace hands over no records, even with no field
    # changed: the copy makes exactly one records pass over its runs, and
    # both checks read the same bits from it as from the original's
    net, window, cfg = setting
    fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=8)
    ugs = fit_ugs(fit, holdout=hold)
    att = estimate_attainment_times(net, window, (0.5, 1.0), 3, ugs.sigma,
                                    ugs.gamma, cfg, seed=8)
    cert = build_nonuniform_iss(att, ugs, hold, uniform=True)
    checks = [(beta, sup) for beta, sup, _v in _checks(cert,
                                                       cert.uniform.beta)]
    samples = round(cfg.horizon / (cfg.dt or 1.0)) + 1
    seen = _calls_seen(monkeypatch)
    want = certify._validate_holdout(hold, window, checks, cert.gamma, 1e-6,
                                     1e-3)
    assert all(n <= BLOCK for _r, _k, n in seen)         # replays alone
    copy = dataclasses.replace(hold)
    assert copy._records is None and copy.runs == hold.runs
    seen.clear()
    got = certify._validate_holdout(copy, window, checks, cert.gamma, 1e-6,
                                    1e-3)
    assert seen[0] == (hold._records.states.shape[0], False, samples)
    assert all(n <= BLOCK for _r, _k, n in seen[1:])
    assert len(got) == 2
    assert got == want and repr(got) == repr(want)


def test_certify_chain50_steps_few_segments_again(monkeypatch):
    # the acceptance config of criterion 2 at seed 12: the fit pass's
    # records leave at most 64 segments of at most 32 samples to step
    net, _ = instantiate("counterexample-chain")
    window = net.window(50)
    cfg = EnsembleConfig(horizon=240.0, dt=0.1, n_random=3)
    radii = (0.5, 1.0, 2.0)
    bins = [(r, 0.0) for r in radii] + [(0.0, r) for r in radii] \
        + [(r, r) for r in radii]
    fit, hold = build_fit_and_holdout(net, window, bins, cfg, 12)
    ugs = fit_ugs(fit, holdout=hold)
    att = estimate_attainment_times(net, window, radii, 6, ugs.sigma,
                                    ugs.gamma, cfg, 12)
    seen = _calls_seen(monkeypatch)
    cert = build_nonuniform_iss(att, ugs, hold, uniform=True)
    assert cert.valid and cert.uniform.valid
    assert seen and all(samples <= BLOCK and not kept
                        for _rows, kept, samples in seen)
    assert sum(rows for rows, _kept, _samples in seen) <= 64
    assert all(rows <= hold._records.states.shape[0]
               for rows, _k, _s in seen)
