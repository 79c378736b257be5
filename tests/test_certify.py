"""Ensemble fitting, decay certificates, and band proof traces."""

import dataclasses
import json
import math

import numpy as np
import pytest

from issnet.certify import (
    BandEntry,
    CertificationError,
    EnsembleConfig,
    ProofTrace,
    build_ensemble,
    build_fit_and_holdout,
    build_nonuniform_iss,
    compute_band_limsups,
    estimate_attainment_times,
    fit_ugs,
    tail_limsup_estimate,
    trace_to_csv,
    verify_sg_inequality,
)
from issnet.comparison import curve_sum, identity
from issnet.gains import FiniteIndexSet
from issnet.network import NetworkSpec, truncation_sweep
from issnet.systems import DISCRETE, InputSignal, SubsystemSpec

BINS = ((0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.0, 1.0), (1.0, 1.0))


@pytest.fixture(scope="module")
def cycle_pipeline(two_cycle):
    net, _ = two_cycle
    window = net.window()
    cfg = EnsembleConfig(horizon=60.0, n_random=3)
    ens = build_ensemble(net, window, BINS, cfg, seed=7)
    # the holdout members of seed 11, which the fit at seed 7 never saw
    _fit, hold = build_fit_and_holdout(net, window, BINS, cfg, seed=11)
    ugs = fit_ugs(ens, holdout=hold)
    att = estimate_attainment_times(net, window, (0.5, 1.0), 10, ugs.sigma,
                                    identity(), cfg, seed=7)
    cert = build_nonuniform_iss(att, ugs, hold)
    return net, window, cfg, hold, ugs, att, cert


# UGS fitting ------------------------------------------------------------


def test_ugs_fit_is_exact_for_the_cycle(cycle_pipeline):
    # sup over any ball is attained at t=0 (state) or at the input level,
    # so both envelopes are the identity and nothing needs inflating
    *_, ugs, _att, _cert = cycle_pipeline[:7]
    ugs = cycle_pipeline[4]
    assert ugs.inflation == 1.0
    assert ugs.fit_residual == 0.0
    assert ugs.holdout_residual == 0.0
    assert ugs.valid
    assert ugs.sigma(1.0) == pytest.approx(1.0, abs=1e-8)
    assert ugs.sigma(0.5) == pytest.approx(0.5, abs=1e-8)
    assert ugs.gamma(1.0) == pytest.approx(1.0, abs=1e-8)
    assert curve_sum(ugs.sigma, ugs.gamma)(1.0) == pytest.approx(2.0, abs=1e-7)


def test_ugs_json_is_serializable(cycle_pipeline):
    ugs = cycle_pipeline[4]
    payload = ugs.to_json()
    assert payload["valid"] is True
    assert payload["inflation"] == 1.0
    json.dumps(payload)


def test_ensemble_requires_axis_bins(two_cycle):
    net, _ = two_cycle
    cfg = EnsembleConfig(horizon=10.0, n_random=1)
    runs = build_ensemble(net, net.window(), [(1.0, 1.0)], cfg, seed=0)
    with pytest.raises(ValueError):
        fit_ugs(runs)


def test_ensemble_blowup_is_reported():
    spec = SubsystemSpec("doubling", DISCRETE, lambda x, w, u: 2.0 * x)
    net = NetworkSpec("explosive", DISCRETE, FiniteIndexSet((0,)),
                      lambda i: spec)
    cfg = EnsembleConfig(horizon=60.0, n_random=1)
    with pytest.raises(CertificationError, match="blow-up"):
        build_ensemble(net, (0,), [(1.0, 0.0)], cfg, seed=3)


def test_ensemble_reports_the_first_blown_member_in_bin_order():
    # every member of both bins blows up; the r_x = 1 members cross the
    # bound two steps before the r_x = 0.25 ones, but the 0.25 bin comes
    # first, so its first member is the one reported
    spec = SubsystemSpec("doubling", DISCRETE, lambda x, w, u: 2.0 * x)
    net = NetworkSpec("explosive", DISCRETE, FiniteIndexSet((0,)),
                      lambda i: spec)
    cfg = EnsembleConfig(horizon=60.0, n_random=1)
    with pytest.raises(CertificationError) as info:
        build_ensemble(net, (0,), [(0.25, 0.0), (1.0, 0.0)], cfg, seed=3)
    assert str(info.value) == ("trajectory blow-up at t=42 in member "
                               "'ones+const' of bin (r_x=0.25, r_u=0), seed 3")


# Attainment times -------------------------------------------------------


def test_attainment_times_match_geometric_decay(cycle_pipeline):
    att = cycle_pipeline[5]
    # from the unit ball the slowest member halves once per step, so the
    # dyadic level n is first held from exactly time n
    for n in range(11):
        assert att.time(1, 1.0, n) == float(n)
        assert att.time(2, 1.0, n) == float(n)
    assert att.unattained() == []


def test_attainment_times_nest_across_radii(cycle_pipeline):
    att = cycle_pipeline[5]
    assert np.all(att.times[1.0] >= att.times[0.5])


def test_short_horizon_is_an_unattained_level(cycle_pipeline, two_cycle):
    net, _ = two_cycle
    _, window, _, hold, ugs, *_ = cycle_pipeline
    cfg = EnsembleConfig(horizon=5.0, n_random=1)
    att = estimate_attainment_times(net, window, (1.0,), 10, ugs.sigma,
                                    identity(), cfg, seed=7)
    assert att.unattained() != []
    with pytest.raises(CertificationError, match="not attained"):
        build_nonuniform_iss(att, ugs, hold)


def test_attainment_rejects_bad_radii(cycle_pipeline, two_cycle):
    net, _ = two_cycle
    _, window, cfg, _hold, ugs, *_ = cycle_pipeline
    for radii in ((), (0.5, 1.0, 0.5), (0.0, 1.0), (1.0, -0.5)):
        with pytest.raises(ValueError, match="radii must be"):
            estimate_attainment_times(net, window, radii, 2, ugs.sigma,
                                      identity(), cfg, seed=7)
    with pytest.raises(ValueError, match="depth must be"):
        estimate_attainment_times(net, window, (1.0,), -1, ugs.sigma,
                                  identity(), cfg, seed=7)


def test_attainment_keeps_the_radii_order(cycle_pipeline, two_cycle):
    net, _ = two_cycle
    _, window, cfg, _hold, ugs, att, _cert = cycle_pipeline
    swapped = estimate_attainment_times(net, window, (1.0, 0.5), 10,
                                        ugs.sigma, identity(), cfg, seed=7)
    assert att.radii == (0.5, 1.0) and swapped.radii == (1.0, 0.5)
    for r in att.radii:
        assert np.array_equal(swapped.times[r], att.times[r])


def test_certificate_rejects_a_table_of_another_sigma(cycle_pipeline,
                                                      two_cycle):
    # sigma(r) is r up to the strict lift, so identity() gives the same
    # ladder to 1e-8, yet the table was not estimated with ugs.sigma
    net, _ = two_cycle
    _, window, cfg, hold, ugs, *_ = cycle_pipeline
    att = estimate_attainment_times(net, window, (0.5, 1.0), 10, identity(),
                                    identity(), cfg, seed=7)
    assert att.sigma is not ugs.sigma
    with pytest.raises(ValueError, match="another sigma"):
        build_nonuniform_iss(att, ugs, hold)


def test_a_top_level_reached_late_is_a_certification_error(cycle_pipeline):
    # the fitted envelope covers the attainment ensemble, so every top
    # level is attained at t = 0; a column first below it later fails
    _, window, _cfg, hold, ugs, att, _cert = cycle_pipeline
    assert np.all(att.times[1.0][0] == 0.0)
    times = att.times[1.0].copy()
    times[0, 1] = 0.5
    late = dataclasses.replace(att, times={**att.times, 1.0: times})
    with pytest.raises(CertificationError,
                       match=f"top level not attained immediately for "
                             f"component {window[1]} at radius 1: the "
                             f"fitted envelope does not cover"):
        build_nonuniform_iss(late, ugs, hold)


# Decay certificates -----------------------------------------------------


def test_nonuniform_certificate_validates(cycle_pipeline):
    cert = cycle_pipeline[6]
    assert cert.valid
    assert cert.holdout_residual == 0.0
    assert cert.worst_case is not None
    assert cert.n_holdout > 0


def test_certificate_curves(cycle_pipeline):
    cert = cycle_pipeline[6]
    assert cert.sigma_tilde(1.0) == pytest.approx(2.0, abs=1e-7)
    # gamma folds the transient envelope on top of the fitted input gain
    assert cert.gamma(1.0) == pytest.approx(2.0, abs=1e-7)


def test_decay_surface_staircase_values(cycle_pipeline):
    cert = cycle_pipeline[6]
    surf = cert.surfaces[1]
    assert surf(1.0, 0.0) == pytest.approx(2.0, abs=1e-8)
    # at the last recorded time the claim is the previous dyadic level,
    # and past the table the last certified level is held, not improved
    assert surf(1.0, 10.0) == pytest.approx(2.0 ** -9, abs=1e-12)
    assert surf(1.0, 60.0) == surf(1.0, 10.0)
    assert surf(1.0, 1000.0) == surf(1.0, 10.0)
    # symmetric components carry the same surface
    other = cert.surfaces[2]
    for t in (0.0, 3.0, 10.0, 25.0):
        assert surf(1.0, t) == other(1.0, t)


def test_tied_attainment_times_are_lifted_apart():
    # x+ = 0 x + u forgets its start in one step, so every level is first
    # attained at t = 1; the staircase needs strictly increasing times, so
    # each tie moves one gap later, gap = 1e-9 * horizon
    spec = SubsystemSpec("memoryless", DISCRETE, lambda x, w, u: 0.0 * x + u)
    net = NetworkSpec("memoryless", DISCRETE, FiniteIndexSet((0, 1)),
                      lambda i: spec)
    cfg = EnsembleConfig(horizon=6.0, n_random=1)
    bins = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    fit, hold = build_fit_and_holdout(net, (0, 1), bins, cfg, seed=0)
    ugs = fit_ugs(fit, holdout=hold)
    att = estimate_attainment_times(net, (0, 1), (1.0,), 3, ugs.sigma,
                                    ugs.gamma, cfg, seed=0)
    assert np.array_equal(att.times[1.0][:, 0], [0.0, 1.0, 1.0, 1.0])
    cert = build_nonuniform_iss(att, ugs, hold)
    gap = 1e-9 * cfg.horizon
    assert np.array_equal(cert.surfaces[0].curves[0].breaks,
                          [0.0, 1.0, 1.0 + gap, 1.0 + gap + gap])
    assert cert.valid


def test_surface_dominates_trajectories(cycle_pipeline, two_cycle):
    net, _ = two_cycle
    cert = cycle_pipeline[6]
    from issnet.network import simulate
    from issnet.systems import InputSignal
    traj = simulate(net, (1, 2), np.ones(2), InputSignal.zero(), 60)
    surf = cert.surfaces[1]
    bound = surf(1.0, traj.times)
    assert np.all(np.abs(traj.states[:, 0]) <= bound + 1e-12)


def test_uniform_certificate_collapses_the_window(cycle_pipeline):
    hold, ugs, att, cert = cycle_pipeline[3:7]
    uni = build_nonuniform_iss(att, ugs, hold, uniform=True).uniform
    assert uni.valid
    assert uni.holdout_residual == 0.0
    assert uni.beta(1.0, 0.0) == pytest.approx(2.0, abs=1e-8)
    for t in (0.0, 5.0, 30.0):
        assert uni.beta(1.0, t) >= cert.surfaces[1](1.0, t)
    json.dumps(uni.to_json())
    json.dumps(cert.to_json())


# Band proof traces ------------------------------------------------------


TAILS = (140.0, 220.0, 300.0, 372.0)


@pytest.fixture(scope="module")
def chain_trace(chain):
    net, _ = chain
    window = net.window(8)
    cfg = EnsembleConfig(horizon=400.0, n_random=3)
    band, small = compute_band_limsups(
        net, window, [(1.0, 1, None), (1.0, None, 0.0)], cfg, TAILS, seed=5)
    trace = ProofTrace(window, (band, small), cfg.horizon, 5)
    return net, window, trace, band, small


def test_band_entry_reaches_the_driven_steady_state(chain_trace):
    _net, _window, _trace, band, _small = chain_trace
    assert band.band == (0.5, 1.0)
    assert band.level == 1.0
    assert band.k == 1 and band.q is None
    # driven fixed point x_i = theta x_{i+1} + 1 solved from the far edge
    expected = [2.0 - 2.0 ** (i - 7) for i in range(8)]
    assert band.reported == pytest.approx(expected, abs=1e-12)
    # suffix sups can only shrink as the tail start moves out
    assert np.all(np.diff(band.y_hat, axis=0) <= 1e-15)


def test_reported_reads_the_row_of_the_largest_tail_start():
    # the rows of unordered starts; reported used to read the last row
    y_hat = np.array([[0.25, 0.5], [2.0, 4.0], [1.0, 3.0]])
    entry = BandEntry(1.0, 1, None, (0.5, 1.0), (180.0, 60.0, 100.0), y_hat,
                      4, 5)
    assert np.array_equal(entry.reported, [0.25, 0.5])


def test_small_input_cell_decays_to_zero(chain_trace):
    *_, small = chain_trace
    assert small.level == 0.0
    assert small.k is None and small.q == 0.0
    assert float(np.max(small.reported)) <= 1e-12


def test_band_argument_validation(chain):
    net, _ = chain
    cfg = EnsembleConfig(horizon=40.0, n_random=1)
    window = net.window(3)
    for cell, tails in (((1.0, 1, 0.5), (10.0,)),
                        ((1.0, None, None), (10.0,)),
                        ((1.0, -1, None), (10.0,)),
                        ((1.0, 1, None), (40.0,))):
        with pytest.raises(ValueError):
            compute_band_limsups(net, window, [cell], cfg, tails, seed=0)


def test_trace_satisfies_the_gain_inequality(chain_trace, chain):
    net, oracle = chain
    _net, window, trace, *_ = chain_trace
    report = verify_sg_inequality(trace, net.graph, oracle.xi)
    assert report.all_passed
    assert "passed" in report.summary()
    for r, k, q, level, comp_margin, norm_margin, passed in report.rows:
        assert passed
        assert comp_margin >= -1e-6
        assert norm_margin >= -1e-6
    # the norm check has real slack: ||y|| ~ 2 - 2^-7 against xi bound 2
    band_row = report.rows[0]
    assert band_row[5] == pytest.approx(2.0 ** -7, abs=1e-10)


def test_trace_json_and_csv(tmp_path, chain_trace):
    _net, window, trace, *_ = chain_trace
    payload = trace.to_json()
    json.dumps(payload)
    assert len(payload["entries"]) == 2

    path = tmp_path / "trace.csv"
    trace_to_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "r,k,i,tail_start,y_hat"
    assert len(lines) == 1 + 2 * len(TAILS) * len(window)
    first = lines[1].split(",")
    assert len(first) == 5
    assert first[0] == "1" and first[1] == "1"
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds == {"1", "q=0"}


# Tail estimates and probes ----------------------------------------------


def test_tail_limsup_basic():
    times = np.linspace(0.0, 10.0, 101)
    values = np.exp(-times)
    est = tail_limsup_estimate(times, values, [0.0, 5.0, 9.0])
    assert est[0] == 1.0
    assert est[1] == pytest.approx(math.exp(-5.0), rel=1e-12)
    assert np.all(np.diff(est) < 0)


def test_tail_limsup_sees_late_spikes():
    times = np.arange(100.0)
    values = np.zeros(100)
    values[90] = 3.0
    est = tail_limsup_estimate(times, values, [0.0, 50.0, 95.0])
    assert est[0] == 3.0 and est[1] == 3.0 and est[2] == 0.0


def test_tail_limsup_on_columns_matches_the_scalar_call():
    rng = np.random.default_rng(4)
    times = np.cumsum(rng.uniform(0.1, 1.0, 60))
    values = rng.standard_normal((60, 5))
    tails = [times[0] - 1.0, times[7], 0.5 * (times[30] + times[31]),
             times[-1], times[-1] + 1.0]
    est = tail_limsup_estimate(times, values, tails)
    cols = np.stack([tail_limsup_estimate(times, values[:, c], tails)
                     for c in range(values.shape[1])], axis=1)
    assert est.shape == (len(tails), 5)
    assert np.array_equal(est, cols)


def test_tail_limsup_is_clock_invariant():
    # the limiting value depends on the sample sequence, not on how the
    # sampling times are spread out
    times = np.linspace(0.0, 50.0, 400)
    floor = 0.37
    values = floor + (1.0 - floor) * np.exp(-times)
    warped = np.sinh(times / 5.0) * 5.0
    a = tail_limsup_estimate(times, values, [times[-2]])
    b = tail_limsup_estimate(warped, values, [warped[-2]])
    assert a[0] == b[0]


def test_sweep_final_sups_grow_with_the_window(counterexample):
    net, _ = counterexample
    probe = truncation_sweep(net, (10, 100), 1.0, InputSignal.zero(), 5.0,
                             0.01).final_sups()
    assert probe[0] == pytest.approx(math.exp(-0.5), abs=1e-6)
    assert probe[1] == pytest.approx(math.exp(-0.05), abs=1e-6)
    assert probe[1] > probe[0]
