"""Empirical stability certification.

The pipeline has four stages, each producing an inspectable artifact:

1. fit_ugs: from an ensemble of labeled trajectories, fit a two-curve
   envelope ||x(t)|| <= sigma(||x0||) + gamma(||u||).  The two curves come
   from the zero-input and zero-state bins; a single multiplicative
   inflation factor (recorded) makes the additive split dominate the mixed
   bins as well.
2. estimate_attainment_times: for each component, radius r and dyadic
   level 2^-n sigma(r), n = 0..depth, the earliest grid time after which
   the component's tail stays below level + gamma_hat(||u||) for every
   ensemble member.  Unattained levels are recorded, not silently dropped.
3. build_nonuniform_iss: turns the attainment table into per-component
   decay surfaces via the dyadic staircase construction, with the common
   transient bound sigma_tilde = 2 sigma and the common input gain
   gamma = max(sigma + gamma_ugs, gamma_hat), gamma_hat being the curve
   of the attainment table, then validates the resulting estimate on
   the held-out members, from their block records.  With ``uniform`` set
   it also collapses the certificate to one surface, the pointwise max of
   the per-component ones, and validates that in the same pass.
4. compute_band_limsups / verify_sg_inequality: finite-horizon tail-sup
   estimates per (r, k, q) cell, an input band [2^-k r, 2^(1-k) r] or a
   small-input cap q, all stepped in one pass, checked against the vector
   inequality y <= Gamma(y) + gamma_vec(level) and the norm bound
   ||y|| <= xi(gamma(level)).

Ensembles are planned, stepped, then reduced.  Member draws depend only on
the config and the seed, so a stage plans all of its members and steps
them in one network._simulate pass that reduces the |x| rows a block of
32 samples at a time: the running peak sup norm (fit_ugs), the last sample
above each attainment threshold (estimate_attainment_times) and the
suffix sups at the tail starts (compute_band_limsups) and the holdout
members' block records (build_fit_and_holdout).  A certification makes two
full passes, neither of which stores states: build_fit_and_holdout steps
the fit and holdout members together for their peaks, keeping per block
of 32 samples each holdout row's start state and per-component |x| max,
which it hands to the Holdout it returns, and estimate_attainment_times
steps the members of every radius, whose thresholds need the fitted
sigma.  build_nonuniform_iss, whose decay surfaces need the attainment
times, validates the holdout pointwise (_validate_holdout, which with
uniform set checks the collapse to one surface at the same time): the
records bound every block's violation and excess from above and give
exact values at the blocks' first samples, and only the blocks whose
upper bound reaches the largest of those are stepped again, a few
32-sample segments stacked as the rows of short runs (network._replay).
A holdout that no pass handed records to (built by hand or by
dataclasses.replace) gets them from one records pass over its runs.
build_ensemble keeps every trajectory it returns; every other pass keeps
none.  A pass steps each distinct member once, so the deterministic
members that fit and holdout share cost one row, and equal kept members
share one trajectory.
Validation evaluates the decay surfaces once per start radius, and runs
that share a row share its records and its replayed blocks.  Every stage
hands its planned member families to one helper, _run_pass, which makes
the single _simulate call, raises on the first blown-up member in family
order and returns each family's rows.

All limit quantities are replaced by finite-horizon tail sups with the
decay across tail starts recorded as convergence evidence; certificates
are empirical statements about the sampled ensembles, never proofs.
Randomness flows from a single job seed through documented tags, so runs
are reproducible.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ._rng import derived_rng
from .comparison import (KLSurface, ScalarCurve, _dyadic_levels, curve_max,
                         curve_sum, curve_to_json, fit_monotone_envelope,
                         kl_from_decay_table, make_strictly_increasing,
                         max_surface, scale, surface_to_json)
from .gains import GainGraph, apply_gain_operator
from .network import (_CHUNK, NetworkSpec, NetworkTrajectory, _BlockRecords,
                      _replay, _simulate, _suffix_max, _tail_start_samples)
from .systems import InputSignal

__all__ = [
    "CertificationError",
    "EnsembleConfig",
    "LabeledRun",
    "Holdout",
    "build_ensemble",
    "build_fit_and_holdout",
    "UGSCertificate",
    "fit_ugs",
    "AttainmentTable",
    "estimate_attainment_times",
    "NonUniformISSCertificate",
    "build_nonuniform_iss",
    "UniformISSCertificate",
    "BandEntry",
    "ProofTrace",
    "compute_band_limsups",
    "SGInequalityReport",
    "verify_sg_inequality",
    "tail_limsup_estimate",
    "trace_to_csv",
]

DEFAULT_RADII = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_DEPTH = 10
DEFAULT_BANDS = tuple(range(1, 9))
DEFAULT_TOL_ABS = 1e-6        # holdout tolerance tol_abs + tol_rel * bound
DEFAULT_TOL_REL = 1e-3
DEFAULT_SG_TOL = 1e-6         # slack of verify_sg_inequality


class CertificationError(RuntimeError):
    """Raised when a certification stage fails; the message names the
    component, level, radius, or seed needed to reproduce the failure."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Shared knobs for trajectory ensembles."""

    horizon: float
    dt: float | None = None       # required for continuous-time networks
    n_random: int = 5
    input_pieces: int = 4


@dataclass(frozen=True, eq=False)
class LabeledRun:
    """One simulated member with the labels the fitting stages bin by.

    trajectory is None for a member stepped only for its peak sup norm;
    x0 and u are its start and input, so it can be stepped again.
    """

    trajectory: NetworkTrajectory | None
    r_x: float                    # initial-state ball radius
    r_u: float                    # input ball radius
    u_norm: float                 # the member's actual sup norm of u
    member: str
    seed: int
    peak: float                   # largest sup norm over the run
    x0: np.ndarray
    u: InputSignal


@dataclass(frozen=True, eq=False)
class Holdout:
    """The held-out runs of one certification, a sequence of LabeledRuns
    without trajectories, with the network, window and ensemble config
    they were stepped on.

    ``records`` is an init-only field for the pass that stepped these
    runs: it hands over their block records (network._BlockRecords, a row
    per run), kept as _records, from which validation steps again only the
    blocks that can decide it instead of storing their states.
    holdout.records reads the field's default None, which is what
    dataclasses.replace passes on, so a holdout built by hand or by
    dataclasses.replace has no records, and validation makes one records
    pass over its runs.
    """

    net: NetworkSpec
    window: tuple
    cfg: EnsembleConfig
    seed: int
    runs: tuple
    records: InitVar[_BlockRecords | None] = None

    def __post_init__(self, records):
        object.__setattr__(self, "_records", records)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def __getitem__(self, k):
        return self.runs[k]


def _random_input(rng, domain, horizon, level, pieces):
    if level <= 0:
        return InputSignal.zero()
    if domain.kind == "discrete":
        breaks = np.arange(0, max(int(horizon), 1) + 1,
                           max(1, int(horizon) // max(pieces, 1)), dtype=float)
    else:
        interior = np.sort(rng.uniform(0, horizon, size=max(pieces - 1, 0)))
        breaks = np.concatenate([[0.0], interior])
    vals = level * (2.0 * rng.random(len(breaks)) - 1.0)
    vals[rng.integers(0, len(vals))] = level * (1.0 if rng.random() < 0.5 else -1.0)
    return InputSignal(breaks, vals)


def _members_for_bin(net, window, r_x, r_u, cfg, job_seed, tag):
    """Deterministic worst-case members plus seeded random ones.

    Constant inputs at the ball boundary realize the envelope for monotone
    dynamics; random members guard against asymmetries.
    """
    n = len(window)
    domain = net.time_domain
    out = []
    ones = np.full(n, float(r_x))
    out.append(("ones+const", ones, InputSignal.constant(r_u)))
    if r_u > 0:
        out.append(("ones+zero", ones, InputSignal.zero()))
        out.append(("zero+const", np.zeros(n), InputSignal.constant(r_u)))
    if r_x > 0 and n > 1:
        alt = float(r_x) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        out.append(("alt+const", alt, InputSignal.constant(r_u)))
    for k in range(cfg.n_random):
        seed = [job_seed, tag, "rx", float(r_x), "ru", float(r_u), "m", k]
        rng = derived_rng(*seed)
        x0 = float(r_x) * (2.0 * rng.random(n) - 1.0)
        if r_x > 0:
            x0[rng.integers(0, n)] = float(r_x) * (1.0 if rng.random() < 0.5 else -1.0)
        level = float(r_u) if rng.random() < 0.5 else float(r_u) * rng.random()
        u = _random_input(rng, domain, cfg.horizon, level, cfg.input_pieces)
        out.append((f"random{k}", x0, u))
    return out


def _where(name, r_x, r_u):
    """A bin member's name in a blow-up message."""
    return f"member {name!r} of bin (r_x={r_x:g}, r_u={r_u:g})"


def _plan_bins(net, window, bins, cfg, seed, tag):
    """The (r_x, r_u, name, where, x0, u) members of every bin, in bin
    order; where names the member in a blow-up message."""
    return [(float(r_x), float(r_u), name, _where(name, r_x, r_u), x0, u)
            for r_x, r_u in bins
            for name, x0, u in _members_for_bin(net, window, r_x, r_u,
                                                cfg, seed, tag)]


def _run_pass(net, window, cfg, seed, families, keep=False, **reductions):
    """Step planned member families in one _simulate pass, which stores
    every member's states when ``keep`` is set and none otherwise.

    The last three fields of a member are (where, x0, u).  The first
    member, in family order, that blew up raises, named by its where.
    Returns the pass and each family's slice of its rows.
    """
    members = [member for fam in families for member in fam]
    stepped = _simulate(net, window, [(x0, u) for *_, x0, u in members],
                        cfg.horizon, cfg.dt, keep, **reductions)
    for (*_, where, _x0, _u), blowup in zip(members, stepped.blowups):
        if blowup is not None:
            raise CertificationError(f"trajectory blow-up at t={blowup.time:g} "
                                     f"in {where}, seed {seed}")
    spans, start = [], 0
    for fam in families:
        spans.append(slice(start, start + len(fam)))
        start += len(fam)
    return stepped, spans


def _labeled_runs(stepped, rows, family, seed):
    """LabeledRuns of the planned bin members stepped at ``rows``, each
    with its trajectory when the pass kept states."""
    kept = stepped.states is not None
    return [LabeledRun(stepped.trajectory(j) if kept else None,
                       r_x, r_u, u.sup_norm(), name, seed,
                       float(stepped.peaks[j]), x0, u)
            for j, (r_x, r_u, name, _where, x0, u) in enumerate(family,
                                                                 rows.start)]


def build_ensemble(net: NetworkSpec,
                   window: Sequence[int],
                   bins: Sequence[tuple[float, float]],
                   cfg: EnsembleConfig,
                   seed: int,
                   tag: str = "fit") -> list[LabeledRun]:
    """Simulate the member family for every (r_x, r_u) bin, in bin order.

    All members are stepped together in one ensemble.  Seeds derive from
    (seed, tag, bin, member index), so the same call is reproducible.  The
    first member (in bin order) that blows up raises.
    """
    window = net.window(window)
    family = _plan_bins(net, window, bins, cfg, seed, tag)
    stepped, (rows,) = _run_pass(net, window, cfg, seed, [family], keep=True)
    return _labeled_runs(stepped, rows, family, seed)


def build_fit_and_holdout(net: NetworkSpec,
                          window: Sequence[int],
                          bins: Sequence[tuple[float, float]],
                          cfg: EnsembleConfig,
                          seed: int) -> tuple[list[LabeledRun], Holdout]:
    """The "fit" and "holdout" ensembles of one certification, one pass.

    The members equal those of build_ensemble with either tag.  Every
    member keeps only its peak sup norm, which is all fit_ugs reads, and
    no trajectory; the holdout members' block records go to the Holdout,
    from which build_nonuniform_iss validates them pointwise.  A fit
    blow-up is reported before a holdout one.
    """
    window = net.window(window)
    fit = _plan_bins(net, window, bins, cfg, seed, "fit")
    hold = _plan_bins(net, window, bins, cfg, seed, "holdout")
    stepped, (fit_rows, hold_rows) = _run_pass(
        net, window, cfg, seed, [fit, hold],
        record=[False] * len(fit) + [True] * len(hold))
    return (_labeled_runs(stepped, fit_rows, fit, seed),
            Holdout(net, window, cfg, seed,
                    tuple(_labeled_runs(stepped, hold_rows, hold, seed)),
                    stepped.records))


# UGS fitting ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UGSCertificate:
    """Envelope ||x(t)|| <= sigma(||x0||) + gamma(||u||) fitted on bins."""

    sigma: ScalarCurve
    gamma: ScalarCurve
    radii_x: tuple
    radii_u: tuple
    bin_sups: Mapping[tuple, float]
    inflation: float
    fit_residual: float           # max violation over the fitting ensemble
    holdout_residual: float | None
    n_members: int
    seed: int

    @property
    def valid(self) -> bool:
        tol = 1e-9
        ok = self.fit_residual <= tol
        if self.holdout_residual is not None:
            ok = ok and self.holdout_residual <= 1e-6
        return ok

    def to_json(self) -> dict:
        return {
            "sigma": curve_to_json(self.sigma),
            "gamma": curve_to_json(self.gamma),
            "radii_x": list(self.radii_x),
            "radii_u": list(self.radii_u),
            "inflation": self.inflation,
            "fit_residual": self.fit_residual,
            "holdout_residual": self.holdout_residual,
            "n_members": self.n_members,
            "seed": self.seed,
            "valid": self.valid,
        }


def _residual(runs, sigma, gamma) -> float:
    worst = 0.0
    for run in runs:
        bound = float(sigma(run.r_x)) + float(gamma(run.u_norm))
        worst = max(worst, run.peak - bound)
    return worst


def fit_ugs(ensemble: Sequence[LabeledRun],
            holdout: Sequence[LabeledRun] | None = None) -> UGSCertificate:
    """Fit the additive stability envelope from a labeled ensemble.

    Per-bin sups over time and members give a table S(r_x, r_u); the two
    axis restrictions S(., 0) and S(0, .) become monotone envelopes, and
    the smallest factor >= 1 making sigma(r_x) + gamma(r_u) dominate every
    mixed bin inflates both curves (the factor is recorded).  A holdout,
    when given, must not be empty.
    """
    if not ensemble:
        raise ValueError("empty ensemble")
    if holdout is not None and not len(holdout):
        raise ValueError("empty holdout")
    sups: dict[tuple, float] = {}
    for run in ensemble:
        key = (run.r_x, run.r_u)
        sups[key] = max(sups.get(key, 0.0), run.peak)

    radii_x = sorted({rx for rx, ru in sups if ru == 0.0})
    radii_u = sorted({ru for rx, ru in sups if rx == 0.0})
    if not radii_x or not radii_u:
        raise ValueError("ensemble must include zero-input and zero-state bins")
    sigma_env = fit_monotone_envelope(
        [(r, sups[(r, 0.0)]) for r in radii_x], zero_anchor=True)
    gamma_env = fit_monotone_envelope(
        [(r, sups[(0.0, r)]) for r in radii_u], zero_anchor=True)

    c = 1.0
    for (rx, ru), s in sups.items():
        denom = float(sigma_env(rx)) + float(gamma_env(ru))
        if s > 0 and denom > 0:
            c = max(c, s / denom)
        elif s > 0 and denom == 0:
            raise CertificationError(
                f"bin (r_x={rx:g}, r_u={ru:g}) has sup {s:g} but zero envelope")
    sigma = make_strictly_increasing(scale(sigma_env, c))
    gamma = make_strictly_increasing(scale(gamma_env, c))

    fit_res = max(0.0, _residual(ensemble, sigma, gamma))
    hold_res = max(0.0, _residual(holdout, sigma, gamma)) if holdout is not None else None
    return UGSCertificate(sigma, gamma, tuple(radii_x), tuple(radii_u),
                          sups, c, fit_res, hold_res,
                          len(ensemble), ensemble[0].seed)


# Attainment times -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AttainmentTable:
    """Earliest tail-entry times per (component, level, radius).

    times[r] is a (depth + 1, n_components) array, row n for 2^-n sigma(r);
    NaN marks a level not attained within the horizon for some member.
    """

    window: tuple
    radii: tuple
    sigma: ScalarCurve
    times: Mapping[float, np.ndarray]
    gamma_hat: ScalarCurve
    horizon: float
    seed: int

    def time(self, i: int, r: float, n: int) -> float:
        return float(self.times[r][n, self.window.index(i)])

    def unattained(self) -> list[tuple]:
        out = []
        for r in self.radii:
            t = self.times[r]
            for n, i in zip(*np.nonzero(np.isnan(t))):
                out.append((self.window[int(i)], int(n), r))
        return out


def estimate_attainment_times(net: NetworkSpec,
                              window: Sequence[int],
                              radii: Sequence[float],
                              depth: int,
                              sigma: ScalarCurve,
                              gamma_hat: ScalarCurve,
                              cfg: EnsembleConfig,
                              seed: int) -> AttainmentTable:
    """Earliest time after which each component stays below each level.

    The levels of radius r are the dyadic ladder 2^-n sigma(r),
    n = 0..depth.  For every member with ||x0|| <= r and ||u|| <= r, the
    component's tail max must be below level + gamma_hat(||u||); the
    recorded time is the earliest grid time working for all members (max
    over members of the first crossing).  Radii, nonempty, distinct and
    positive, keep their order.
    """
    window = net.window(window)
    radii = tuple(float(r) for r in radii)
    if not radii or len(set(radii)) < len(radii) or min(radii) <= 0:
        raise ValueError(f"radii must be nonempty, distinct and > 0, got {radii}")
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth!r}")

    # every radius's members are stepped in one pass; each member only
    # records, per (level, component), the last sample above its threshold
    families = [_plan_bins(net, window, [(r, r), (r, 0.5 * r), (r, 0.0)],
                           cfg, seed, f"attain:{r:g}") for r in radii]
    ladders = [_dyadic_levels(sigma, r, depth) for r in radii]
    thresholds = np.array([ladder + float(gamma_hat(u.sup_norm()))
                           for ladder, fam in zip(ladders, families)
                           for *_, u in fam])
    stepped, spans = _run_pass(net, window, cfg, seed, families,
                               thresholds=thresholds)

    # the tail from sample last + 1 on stays below the level; "never"
    # means the final sample is still above it
    final = stepped.times.size - 1
    times: dict[float, np.ndarray] = {}
    for r, rows in zip(radii, spans):
        last = stepped.last_exceed[rows]
        member_times = np.where(last == final, np.nan,
                                stepped.times[np.minimum(last + 1, final)])
        times[r] = np.max(member_times, axis=0)   # NaN if any member never
    return AttainmentTable(window, radii, sigma, times, gamma_hat,
                           cfg.horizon, seed)


# Non-uniform certificates -----------------------------------------------


@dataclass(frozen=True, eq=False)
class NonUniformISSCertificate:
    """Per-component decay surfaces with common transient and input curves.

    Validated claim: |x_i(t)| <= beta_i(||x0||, t) + gamma(||u||) on the
    held-out ensemble, within the recorded tolerance.  uniform is the
    collapse to one surface when it was validated in the same pass.
    """

    window: tuple
    surfaces: Mapping[int, KLSurface]
    sigma_tilde: ScalarCurve
    gamma: ScalarCurve
    gamma_hat: ScalarCurve
    holdout_residual: float
    worst_case: tuple | None      # (component, time, member)
    n_holdout: int
    seed: int
    valid: bool
    uniform: UniformISSCertificate | None = None

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "surfaces": {str(i): surface_to_json(s)
                         for i, s in self.surfaces.items()},
            "sigma_tilde": curve_to_json(self.sigma_tilde),
            "gamma": curve_to_json(self.gamma),
            "gamma_hat": curve_to_json(self.gamma_hat),
            "holdout_residual": self.holdout_residual,
            "worst_case": list(self.worst_case) if self.worst_case else None,
            "n_holdout": self.n_holdout,
            "seed": self.seed,
            "valid": self.valid,
        }


def _lift_strict(times: np.ndarray, gap: float) -> np.ndarray:
    """Make attainment times strictly increasing; ties move later, which
    only weakens (never falsifies) the resulting staircase."""
    out = np.array(times, float)
    for k in range(1, len(out)):
        if out[k] <= out[k - 1]:
            out[k] = out[k - 1] + gap
    return out


def _holdout_records(holdout: Holdout) -> _BlockRecords:
    """The block records of the holdout's runs: those the pass that
    stepped them handed it, else those of one records pass over its runs,
    where a blow-up raises."""
    if holdout._records is not None:
        return holdout._records
    family = [(_where(run.member, run.r_x, run.r_u), run.x0, run.u)
              for run in holdout]
    stepped, _spans = _run_pass(holdout.net, holdout.window, holdout.cfg,
                                holdout.seed, [family],
                                record=[True] * len(family))
    return stepped.records


def _validate_holdout(holdout: Holdout, window: tuple, checks,
                      gamma: ScalarCurve, tol_abs: float, tol_rel: float):
    """Check each (beta, sup_norm) bound at every sample of the holdout
    runs, storing no states: |x|, column by column, or the sup norm as
    one column, at most beta(r_x, times) + gamma(||u||).

    beta(r, times), a (samples, columns) block, is evaluated once per
    positive start radius r, and kept only over the blocks some run must
    read; a decay surface vanishes at r = 0, so a run from rest is
    bounded by gamma(||u||) alone, with no call.  The runs' block records
    (_holdout_records) bound every (run, 32-sample block, column): the
    violation and excess expressions at the block's largest |x| and its
    smallest bound (its largest one in the tolerance when tol_rel < 0)
    are upper bounds, since rounding is monotone, and their exact values
    at the blocks' first samples are lower bounds on the largest ones.
    Only the blocks whose upper bound reaches a lower bound, less those
    that only tie the excess's after where it first occurs (runs in order,
    then columns, then samples), are read sample by sample: stepped again
    by network._replay, in runs of at most the records' row count (the
    holdout's distinct rows), or read from the records if of one sample.
    Returns per check (raw, exceed, worst): the largest violation, at
    least 0; the largest violation less the tolerance tol_abs + tol_rel *
    bound; and (column, time, member) where the latter first occurs, in
    that order, in the bits of the plain expressions over every sample.
    """
    if not len(holdout):
        raise ValueError("empty holdout")
    if tuple(holdout.window) != tuple(window):
        raise ValueError(f"holdout on window {holdout.window}, certificate "
                         f"on {window}")
    records = _holdout_records(holdout)
    rows = records.rows
    times = records.times
    edges = np.arange(0, times.size, _CHUNK)      # each block's first sample
    radius = [float(run.r_x) if run.r_x > 0 else 0.0 for run in holdout]
    radii: dict[float, list] = {0.0: []}           # start radius -> its runs
    for j, r in enumerate(radius):
        radii.setdefault(r, []).append(j)
    offset = [float(gamma(run.u_norm)) for run in holdout]

    def tol(bound):
        return tol_abs + tol_rel * bound

    def values(ax, sup_norm):
        return ax.max(axis=-1, keepdims=True) if sup_norm else ax

    # per check, the blocks each run must read and beta over them; a radius
    # is evaluated, bounded and dropped before the next one, runs from rest
    # first, and a lower bound that is not yet the final one picks more
    plans = []
    for beta, sup_norm in checks:
        cols = 1 if sup_norm else len(window)
        viol_lo = exceed_lo = -np.inf
        # fold order of each (block, column), and exceed_lo's first place
        order = np.arange(edges.size)[:, None] + edges.size * np.arange(cols)
        first = np.inf
        picks, spans = {}, {}
        for r, runs in radii.items():
            blk = beta(r, times) if r > 0 \
                else np.broadcast_to(np.zeros(cols), (times.size, cols))
            for j in runs:
                b0 = blk[edges] + offset[j]
                viol = values(np.abs(records.states[rows[j]]), sup_norm) - b0
                viol_lo = max(viol_lo, float(viol.max()))
                over = viol - tol(b0)
                top = over.max()
                if top >= exceed_lo:
                    at = j * order.size + order[over == top].min()
                    if top > exceed_lo or at < first:
                        exceed_lo, first = float(top), at
            low = np.minimum.reduceat(blk, edges, axis=0)
            high = np.maximum.reduceat(blk, edges, axis=0) if tol_rel < 0 \
                else low                      # where the tolerance is least
            for j in runs:
                viol = values(records.tops[rows[j]], sup_norm) \
                    - (low + offset[j])
                over = viol - tol(high + offset[j])
                # a tie after exceed_lo's first place is not the worst case
                tie = (over == exceed_lo) & (j * order.size + order > first)
                picks[j] = np.flatnonzero(
                    ~((over < exceed_lo) | tie).all(axis=1)
                    | (viol.max(axis=1) > max(0.0, viol_lo)))
                for b in picks[j]:
                    # a copy lets the radius's block go (and a view of the
                    # zeros of r = 0 holds no memory)
                    if (r, b) not in spans:
                        span = blk[records.block(b)]
                        spans[r, b] = span.copy() if r > 0 else span
        plans.append((sup_norm, max(0.0, viol_lo), picks, spans))

    # the |x| samples of every picked (row, block), stepped only where
    # needed (a None until then)
    exact = {}
    segments = []
    for *_plan, picks, _spans in plans:
        for j, blocks in picks.items():
            for b in blocks:
                key = (int(rows[j]), int(b))
                if key in exact:
                    continue
                span = records.block(key[1])
                if span.stop - span.start == 1:
                    exact[key] = np.abs(records.states[key])[None]
                else:
                    exact[key] = None
                    segments.append((*key, holdout[j].u))
    for (r, b, _u), ax in zip(segments, _replay(records, segments)):
        exact[r, b] = ax

    # folded runs in order, then columns, then samples: a strict > keeps
    # the first of tied maxima
    results = []
    for sup_norm, raw, picks, spans in plans:
        exceed, worst = -np.inf, None
        for j, run in enumerate(holdout):
            best = np.full(1 if sup_norm else len(window), -np.inf)
            first = np.zeros(best.size, int)
            for b in picks[j]:
                b_k = spans[radius[j], b] + offset[j]
                viol = values(exact[rows[j], b], sup_norm) - b_k
                raw = max(raw, float(viol.max()))
                over = viol - tol(b_k)
                top = over.max(axis=0)
                better = top > best
                best[better] = top[better]
                first[better] = b * _CHUNK + over.argmax(axis=0)[better]
            col = int(np.argmax(best))
            if best[col] > exceed or worst is None and picks[j].size:
                exceed = float(best[col])
                worst = (col, float(times[first[col]]), run.member)
        results.append((raw, exceed, worst))
    return results


def build_nonuniform_iss(attainment: AttainmentTable,
                         ugs: UGSCertificate,
                         holdout: Holdout,
                         tol_abs: float = DEFAULT_TOL_ABS,
                         tol_rel: float = DEFAULT_TOL_REL,
                         uniform: bool = False
                         ) -> NonUniformISSCertificate:
    """Assemble and validate the per-component certificate.

    The staircase for component i and radius r walks the dyadic levels
    eps_n = 2^-n sigma(r) at the recorded attainment times, starts at
    2 sigma(r), and is majorized into a monotone decay surface.  The
    common curves are sigma_tilde = 2 sigma and
    gamma = max(sigma + gamma_ugs, gamma_hat), with gamma_hat the curve
    the attainment table was estimated with (and ugs.sigma its sigma, or a
    ValueError).  Every component of every holdout run must stay below its
    bound within the tolerance tol_abs + tol_rel * bound; the holdout,
    nonempty and on the table's window, is checked from its block
    records (_validate_holdout).  With ``uniform`` the same pass also
    checks the sup norm of each holdout run against the pointwise max of
    the surfaces, kept as the certificate's uniform collapse.
    """
    gamma_hat = attainment.gamma_hat
    window = attainment.window
    sigma = ugs.sigma
    if attainment.sigma is not sigma:
        raise ValueError("attainment table of another sigma than ugs.sigma")

    for (i, n, r) in attainment.unattained():
        raise CertificationError(
            f"level {n} not attained for component {i} at radius {r:g} "
            f"within horizon {attainment.horizon:g} (seed {attainment.seed})")

    gap = 1e-9 * max(attainment.horizon, 1.0)
    surfaces = {}
    for pos, i in enumerate(window):
        table = {}
        for r in attainment.radii:
            times = _lift_strict(attainment.times[r][:, pos], gap)
            if times[0] != 0.0:
                raise CertificationError(
                    f"top level not attained immediately for component {i} "
                    f"at radius {r:g}: the fitted envelope does not cover "
                    f"the attainment ensemble (seed {attainment.seed})")
            table[r] = times
        surfaces[i] = kl_from_decay_table(table, sigma)

    sigma_tilde = scale(sigma, 2.0)
    gamma = curve_max(curve_sum(sigma, ugs.gamma), gamma_hat)

    def beta(r, t):
        out = np.empty((t.size, len(window)))
        for pos, i in enumerate(window):
            out[:, pos] = surfaces[i](r, t)
        return out

    checks = [(beta, False)]
    if uniform:
        collapsed = max_surface([surfaces[i] for i in window])
        checks.append((lambda r, t: collapsed(r, t)[:, None], True))
    results = _validate_holdout(holdout, window, checks, gamma, tol_abs,
                                tol_rel)
    raw, exceed, (col, t, member) = results[0]
    cert = NonUniformISSCertificate(window, surfaces, sigma_tilde, gamma,
                                    gamma_hat, raw, (window[col], t, member),
                                    len(holdout), attainment.seed,
                                    exceed <= 0.0)
    if not uniform:
        return cert
    raw, exceed, _worst = results[1]
    return replace(cert, uniform=UniformISSCertificate(
        window, collapsed, gamma, raw, cert.valid and exceed <= 0.0))


@dataclass(frozen=True, eq=False)
class UniformISSCertificate:
    """A single decay surface for the whole window: the pointwise max of
    the per-component surfaces, valid whenever each of them is."""

    window: tuple
    beta: KLSurface
    gamma: ScalarCurve
    holdout_residual: float
    valid: bool

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "beta": surface_to_json(self.beta),
            "gamma": curve_to_json(self.gamma),
            "holdout_residual": self.holdout_residual,
            "valid": self.valid,
        }


# Band tail-sup estimates ------------------------------------------------


@dataclass(frozen=True, eq=False)
class BandEntry:
    """Tail-sup estimates for one (radius, input band) cell.

    y_hat has shape (n_tail_starts, n_components); row m is the per
    component sup over [tail_starts[m], horizon], maximized over members.
    """

    r: float
    k: int | None                 # band exponent; None for small-input rows
    q: float | None               # small-input cap; None for band rows
    band: tuple[float, float]
    tail_starts: tuple
    y_hat: np.ndarray
    n_members: int
    seed: int

    @property
    def level(self) -> float:
        """Input level entering the gain offsets: the band top or the cap."""
        return self.band[1] if self.k is not None else float(self.q)

    @property
    def reported(self) -> np.ndarray:
        """The estimate at the largest tail start."""
        return self.y_hat[int(np.argmax(self.tail_starts))]


@dataclass(frozen=True, eq=False)
class ProofTrace:
    window: tuple
    entries: tuple
    horizon: float
    seed: int

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "horizon": self.horizon,
            "seed": self.seed,
            "entries": [{
                "r": e.r, "k": e.k, "q": e.q,
                "band": list(e.band),
                "tail_starts": list(e.tail_starts),
                "y_hat": [[float(v) for v in row] for row in e.y_hat],
                "n_members": e.n_members,
            } for e in self.entries],
        }


def _band_members(net, window, r, lo, hi, cfg, seed, tag):
    n = len(window)
    domain = net.time_domain
    out = []
    ones = np.full(n, float(r))
    out.append(("ones+top", ones, InputSignal.constant(hi)))
    if lo < hi:
        out.append(("ones+bottom", ones, InputSignal.constant(lo)))
    out.append(("zero+top", np.zeros(n), InputSignal.constant(hi)))
    for k in range(cfg.n_random):
        rng = derived_rng(seed, tag, float(r), float(lo), float(hi), "m", k)
        x0 = float(r) * (2.0 * rng.random(n) - 1.0)
        # individual pieces may dip below the band bottom; only the sup
        # norm matters for band membership and it is pinned to target
        target = float(rng.uniform(lo, hi)) if hi > lo else hi
        u = _random_input(rng, domain, cfg.horizon, target, cfg.input_pieces)
        out.append((f"random{k}", x0, u))
    return out


def _band_limits(r, k, q):
    """(lo, hi, seed tag) of a band k or small-input cap q cell."""
    if (k is None) == (q is None):
        raise ValueError("give exactly one of k (band) or q (small-input cap)")
    if k is not None:
        if k < 0:
            raise ValueError("band exponent must be nonnegative")
        lo, hi = 2.0 ** (-k) * r, 2.0 ** (1 - k) * r
        if hi <= 0:
            raise ValueError("empty band: nonpositive top level")
        return lo, hi, f"band:{k}"
    if q < 0:
        raise ValueError("small-input cap must be nonnegative")
    return 0.0, float(q), f"small:{q:g}"


def compute_band_limsups(net: NetworkSpec,
                         window: Sequence[int],
                         cells: Sequence[tuple],
                         cfg: EnsembleConfig,
                         tail_starts: Sequence[float],
                         seed: int) -> list[BandEntry]:
    """Tail-sup estimates for each (r, k, q) cell, all stepped in one pass.

    A cell gives exactly one of k and q.  Band k means ||u|| in
    [2^-k r, 2^(1-k) r]; q instead bounds ||u|| <= q (q = 0 is the
    zero-input cell).  A single cell is a one-item list.  Tail starts must
    precede the horizon; row m of an entry is the suffix sup from start m.
    Each member keeps only its suffix sups at the tail starts, never its
    trajectory.  The first cell (in order) with a blown-up member raises.
    """
    window = net.window(window)
    limits = [_band_limits(r, k, q) for r, k, q in cells]
    tail_starts = tuple(float(t) for t in tail_starts)
    if any(t >= cfg.horizon for t in tail_starts) or not tail_starts:
        raise ValueError("tail starts must be nonempty and precede the horizon")

    families = []
    for (r, _k, _q), (lo, hi, tag) in zip(cells, limits):
        families.append([(f"band cell (r={r:g}, {tag})", x0, u)
                         for _name, x0, u in _band_members(
                             net, window, r, lo, hi, cfg, seed, tag)])
    stepped, spans = _run_pass(net, window, cfg, seed, families,
                               tail_starts=tail_starts)
    return [BandEntry(float(r), k, q, (lo, hi), tail_starts,
                      np.max(stepped.tail_sups[rows], axis=0),
                      rows.stop - rows.start, seed)
            for (r, k, q), (lo, hi, _tag), rows in zip(cells, limits, spans)]


@dataclass(frozen=True, eq=False)
class SGInequalityReport:
    """Per-cell margins of the vector and norm small-gain checks."""

    window: tuple
    rows: tuple                   # (r, k-or-None, q-or-None, level,
                                  #  min component margin, norm margin, passed)
    tol: float
    all_passed: bool

    def summary(self) -> str:
        state = "passed" if self.all_passed else "FAILED"
        worst = min((row[4] for row in self.rows), default=float("inf"))
        return (f"small-gain inequality check {state} on {len(self.rows)} "
                f"cells; worst component margin {worst:.3e}, tol {self.tol:g}")


def verify_sg_inequality(trace: ProofTrace,
                         graph: GainGraph,
                         xi: ScalarCurve,
                         tol: float = DEFAULT_SG_TOL) -> SGInequalityReport:
    """Check each trace cell against the gain operator.

    Componentwise: y <= Gamma(y) + gamma_vec(level) + tol, with y the
    reported estimate and level the band top (or the small-input cap).
    Norm: ||y|| <= xi(gamma_u(level)) + tol with gamma_u the uniform
    external gain over the window.
    """
    window = trace.window
    gamma_u = graph.uniform_external_gain(window)
    rows = []
    all_passed = True
    for e in trace.entries:
        y = e.reported
        gy = apply_gain_operator(graph, y, window)
        offs = np.array([float(graph.external_gain(i)(e.level)) for i in window])
        margins = gy + offs - y
        comp_margin = float(np.min(margins)) if len(margins) else float("inf")
        norm_margin = float(xi(float(gamma_u(e.level)))) - float(np.max(y, initial=0.0))
        passed = comp_margin >= -tol and norm_margin >= -tol
        all_passed = all_passed and passed
        rows.append((e.r, e.k, e.q, e.level, comp_margin, norm_margin, passed))
    return SGInequalityReport(window, tuple(rows), tol, all_passed)


def tail_limsup_estimate(times, values, tail_starts) -> np.ndarray:
    """Suffix sups of a sampled signal at the given tail starts.

    values is 1-D or (len(times), n); sups run along axis 0, so row m of a
    2-D result holds each column's sup from tail_starts[m] on.  The value at
    the largest start estimates the limiting tail value; the decay across
    starts is the convergence evidence.  Reindexing the starts through any
    unbounded increasing map leaves the limit unchanged, which is what
    makes the finite surrogate meaningful.
    """
    idx = _tail_start_samples(np.asarray(times, float), tail_starts)
    return _suffix_max(np.asarray(values, float))[idx]


def trace_to_csv(trace: ProofTrace, path: str) -> None:
    """CSV matrix (r, k, i, tail_start, y_hat) of a trace, for plotting."""
    lines = ["r,k,i,tail_start,y_hat"]
    for e in trace.entries:
        kfield = str(e.k) if e.k is not None else f"q={e.q:.17g}"
        for m, t0 in enumerate(e.tail_starts):
            for pos, i in enumerate(trace.window):
                lines.append(f"{e.r:.17g},{kfield},{i},{t0:.17g},"
                             f"{e.y_hat[m, pos]:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
