"""Empirical stability certification.

The pipeline has four stages, each producing an inspectable artifact:

1. fit_ugs: from an ensemble of labeled trajectories, fit a two-curve
   envelope ||x(t)|| <= sigma(||x0||) + gamma(||u||).  The two curves come
   from the zero-input and zero-state bins; a single multiplicative
   inflation factor (recorded) makes the additive split dominate the mixed
   bins as well.
2. estimate_attainment_times: for each component, level, and radius, the
   earliest grid time after which the component's tail stays below
   level + gamma_hat(||u||) for every ensemble member.  Unattained levels
   are recorded, not silently dropped.
3. build_nonuniform_iss: turns the attainment table into per-component
   decay surfaces via the dyadic staircase construction, with the common
   transient bound sigma_tilde = 2 sigma and the common input gain
   gamma = max(sigma + gamma_ugs, gamma_hat), then validates the resulting
   estimate on held-out trajectories.
4. compute_band_limsups / verify_sg_inequality: finite-horizon tail-sup
   estimates over input bands [2^-k r, 2^(1-k) r], checked against the
   vector inequality y <= Gamma(y) + gamma_vec(level) and the norm bound
   ||y|| <= xi(gamma(level)).

Ensembles are planned, stepped, then reduced.  Member draws depend only on
the config and the seed, so a stage plans all of its members and steps
them in one network._simulate pass that reduces each sample's |x| rows as
they are produced: the running peak sup norm (fit_ugs), the last sample
above each attainment threshold (estimate_attainment_times) and the
suffix sups at the tail starts (compute_band_cells).  A certification
makes two passes: build_fit_and_holdout steps the fit and holdout members
together, then estimate_attainment_times steps the members of every
radius, whose thresholds need the fitted sigma.  Only holdout members
keep their trajectories, because build_nonuniform_iss validates them
pointwise; build_ensemble keeps every trajectory it returns.  Every
stage hands its planned member families to one helper, _run_pass, which
makes the single _simulate call, raises on the first blown-up member in
family order and returns each family's rows.

All limit quantities are replaced by finite-horizon tail sups with the
decay across tail starts recorded as convergence evidence; certificates
are empirical statements about the sampled ensembles, never proofs.
Randomness flows from a single job seed through documented tags, so runs
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._rng import derived_rng
from .comparison import (KLSurface, ScalarCurve, curve_max, curve_sum,
                         curve_to_json, fit_monotone_envelope,
                         kl_from_decay_table, make_strictly_increasing,
                         max_surface, scale, surface_to_json)
from .gains import GainGraph, apply_gain_operator
from .network import (NetworkSpec, NetworkTrajectory, _simulate, _suffix_max,
                      _tail_start_samples, simulate)
from .systems import DEFAULT_BLOWUP_BOUND, InputSignal

__all__ = [
    "CertificationError",
    "EnsembleConfig",
    "LabeledRun",
    "build_ensemble",
    "build_fit_and_holdout",
    "UGSCertificate",
    "fit_ugs",
    "AttainmentTable",
    "estimate_attainment_times",
    "NonUniformISSCertificate",
    "build_nonuniform_iss",
    "UniformISSCertificate",
    "uniform_from_nonuniform",
    "BandEntry",
    "ProofTrace",
    "compute_band_limsups",
    "compute_band_cells",
    "SGInequalityReport",
    "verify_sg_inequality",
    "tail_limsup_estimate",
    "uniformity_probe",
    "trace_to_csv",
]

DEFAULT_RADII = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_DEPTH = 10
DEFAULT_BANDS = tuple(range(1, 9))


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

    trajectory is None for a member stepped only for its peak sup norm.
    """

    trajectory: NetworkTrajectory | None
    r_x: float                    # initial-state ball radius
    r_u: float                    # input ball radius
    u_norm: float                 # the member's actual sup norm of u
    member: str
    seed: int
    peak: float                   # largest sup norm over the run


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
        if r_x > 0 and n > 0:
            x0[rng.integers(0, n)] = float(r_x) * (1.0 if rng.random() < 0.5 else -1.0)
        level = float(r_u) if rng.random() < 0.5 else float(r_u) * rng.random()
        u = _random_input(rng, domain, cfg.horizon, level, cfg.input_pieces)
        out.append((f"random{k}", x0, u))
    return out


def _plan_bins(net, window, bins, cfg, seed, tag):
    """The (r_x, r_u, name, where, x0, u) members of every bin, in bin
    order; where names the member in a blow-up message."""
    return [(float(r_x), float(r_u), name,
             f"member {name!r} of bin (r_x={r_x:g}, r_u={r_u:g})", x0, u)
            for r_x, r_u in bins
            for name, x0, u in _members_for_bin(net, window, r_x, r_u,
                                                cfg, seed, tag)]


def _run_pass(net, window, cfg, seed, families, **reductions):
    """Step planned (members, keep) families in one _simulate pass.

    The last three fields of a member are (where, x0, u); only the members
    of a family with keep set store their states.  The first member, in
    family order, that blew up raises, named by its where.  Returns the
    pass and each family's slice of its rows.
    """
    members = [member for fam, _keep in families for member in fam]
    stepped = _simulate(net, window, [(x0, u) for *_, x0, u in members],
                        cfg.horizon, cfg.dt, DEFAULT_BLOWUP_BOUND,
                        keep=[kept for fam, kept in families for _m in fam],
                        **reductions)
    for (*_, where, _x0, _u), blowup in zip(members, stepped.blowups):
        if blowup is not None:
            raise CertificationError(f"trajectory blow-up at t={blowup.time:g} "
                                     f"in {where}, seed {seed}")
    spans, start = [], 0
    for fam, _keep in families:
        spans.append(slice(start, start + len(fam)))
        start += len(fam)
    return stepped, spans


def _labeled_runs(stepped, rows, family, seed):
    """LabeledRuns of the planned bin members stepped at ``rows``; only
    the members that kept their states carry a trajectory."""
    return [LabeledRun(stepped.trajectory(j) if j in stepped.states else None,
                       r_x, r_u, u.sup_norm(), name, seed,
                       float(stepped.peaks[j]))
            for j, (r_x, r_u, name, _where, _x0, u) in enumerate(family,
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
    window = tuple(window)
    family = _plan_bins(net, window, bins, cfg, seed, tag)
    stepped, (rows,) = _run_pass(net, window, cfg, seed, [(family, True)])
    return _labeled_runs(stepped, rows, family, seed)


def build_fit_and_holdout(net: NetworkSpec,
                          window: Sequence[int],
                          bins: Sequence[tuple[float, float]],
                          cfg: EnsembleConfig,
                          seed: int) -> tuple[list[LabeledRun], list[LabeledRun]]:
    """The "fit" and "holdout" ensembles of one certification, one pass.

    The members equal those of build_ensemble with either tag.  Fit
    members keep only their peak sup norm, which is all fit_ugs reads;
    holdout members keep their trajectories, because build_nonuniform_iss
    validates them pointwise.  A fit blow-up is reported before a holdout
    one.
    """
    window = tuple(window)
    fit = _plan_bins(net, window, bins, cfg, seed, "fit")
    hold = _plan_bins(net, window, bins, cfg, seed, "holdout")
    stepped, (fit_rows, hold_rows) = _run_pass(net, window, cfg, seed,
                                               [(fit, False), (hold, True)])
    return (_labeled_runs(stepped, fit_rows, fit, seed),
            _labeled_runs(stepped, hold_rows, hold, seed))


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

    def mu(self) -> ScalarCurve:
        """Combined bound mu(r) = sigma(r) + gamma(r)."""
        return curve_sum(self.sigma, self.gamma)

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
    mixed bin inflates both curves (the factor is recorded).
    """
    if not ensemble:
        raise ValueError("empty ensemble")
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

    times[r] is an (n_levels, n_components) array; NaN marks a level not
    attained within the horizon for some member.
    """

    window: tuple
    radii: tuple
    levels: Mapping[float, np.ndarray]
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
                              levels,
                              radii: Sequence[float],
                              gamma_hat: ScalarCurve,
                              cfg: EnsembleConfig,
                              seed: int) -> AttainmentTable:
    """Earliest time after which each component stays below each level.

    For every member with ||x0|| <= r and ||u|| <= r, the component's tail
    max must be below level + gamma_hat(||u||); the recorded time is the
    earliest grid time working for all members (max over members of the
    first crossing).  `levels` is either one array shared by all radii or
    a mapping radius -> array.  With a shared array the times are also
    monotonized over increasing r, matching the nesting of the balls.
    """
    window = tuple(window)
    radii = tuple(float(r) for r in radii)
    shared = not isinstance(levels, Mapping)
    level_map = {r: np.asarray(levels if shared else levels[r], float)
                 for r in radii}

    # every radius's members are stepped in one pass; each member only
    # records, per (level, component), the last sample above its threshold
    families = []
    for r in radii:
        bins = [(r, r), (r, 0.5 * r), (r, 0.0)] if r > 0 else [(0.0, 0.0)]
        families.append((_plan_bins(net, window, bins, cfg, seed,
                                    f"attain:{r:g}"), False))
    members = [(r, u) for r, (fam, _keep) in zip(radii, families)
               for *_, u in fam]
    width = max((level_map[r].size for r in radii), default=0)
    thresholds = np.full((len(members), width), np.inf)
    for j, (r, u) in enumerate(members):
        lv = level_map[r]
        thresholds[j, :lv.size] = lv + float(gamma_hat(u.sup_norm()))
    stepped, spans = _run_pass(net, window, cfg, seed, families,
                               thresholds=thresholds)

    # the tail from sample last + 1 on stays below the level; "never"
    # means the final sample is still above it
    final = stepped.times.size - 1
    times: dict[float, np.ndarray] = {}
    for r, rows in zip(radii, spans):
        last = stepped.last_exceed[rows, :level_map[r].size]
        member_times = np.where(last == final, np.nan,
                                stepped.times[np.minimum(last + 1, final)])
        times[r] = np.max(member_times, axis=0)   # NaN if any member never
    if shared:
        # balls nest, so a time valid for radius r must also cover r' < r;
        # an unattained level at either radius stays unattained at r
        for lo, hi in zip(radii, radii[1:]):
            times[hi] = np.maximum(times[hi], times[lo])
    return AttainmentTable(window, radii, level_map, times, gamma_hat,
                           cfg.horizon, seed)


# Non-uniform certificates -----------------------------------------------


@dataclass(frozen=True, eq=False)
class NonUniformISSCertificate:
    """Per-component decay surfaces with common transient and input curves.

    Validated claim: |x_i(t)| <= beta_i(||x0||, t) + gamma(||u||) on the
    held-out ensemble, within the recorded tolerance.
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


class _SurfaceBlocks:
    """A surface evaluated once per distinct (radius, time grid): holdout
    members share few start radii and one step grid."""

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.blocks = {}

    def __call__(self, r: float, times: np.ndarray) -> np.ndarray:
        key = (float(r), times.tobytes())
        if key not in self.blocks:
            self.blocks[key] = self.evaluate(r, times)
        return self.blocks[key]


def build_nonuniform_iss(attainment: AttainmentTable,
                         ugs: UGSCertificate,
                         holdout: Sequence[LabeledRun],
                         gamma_hat: ScalarCurve | None = None,
                         tol_abs: float = 1e-6,
                         tol_rel: float = 1e-3) -> NonUniformISSCertificate:
    """Assemble and validate the per-component certificate.

    The staircase for component i and radius r walks the dyadic levels
    eps_n = 2^-n sigma(r) at the recorded attainment times, starts at
    2 sigma(r), and is majorized into a monotone decay surface.  The
    common curves are sigma_tilde = 2 sigma and
    gamma = max(sigma + gamma_ugs, gamma_hat).
    """
    gamma_hat = attainment.gamma_hat if gamma_hat is None else gamma_hat
    window = attainment.window
    sigma = ugs.sigma

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
            table[r] = (times, attainment.levels[r])
        surfaces[i] = kl_from_decay_table(table, sigma)

    sigma_tilde = scale(sigma, 2.0)
    gamma = curve_max(curve_sum(sigma, ugs.gamma), gamma_hat)

    raw = 0.0                     # largest |x_i(t)| - bound, before tolerance
    exceed = -np.inf              # same, after the per-point tolerance
    worst = None
    beta = _SurfaceBlocks(lambda r, t: np.stack(
        [surfaces[i](r, t) for i in window], axis=-1))
    for run in holdout:
        traj = run.trajectory
        bound = beta(run.r_x, traj.times) + float(gamma(run.u_norm))
        viol = np.abs(traj.states) - bound
        over = viol - (tol_abs + tol_rel * bound)
        ks, k2s = np.argmax(viol, axis=0), np.argmax(over, axis=0)
        # components in window order, each at its first worst sample
        for pos, i in enumerate(window):
            raw = max(raw, float(viol[ks[pos], pos]))
            if over[k2s[pos], pos] > exceed:
                exceed = float(over[k2s[pos], pos])
                worst = (i, float(traj.times[k2s[pos]]), run.member)
    valid = exceed <= 0.0
    return NonUniformISSCertificate(window, surfaces, sigma_tilde, gamma,
                                    gamma_hat, max(0.0, raw), worst,
                                    len(holdout), attainment.seed, valid)


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


def uniform_from_nonuniform(cert: NonUniformISSCertificate,
                            holdout: Sequence[LabeledRun] | None = None,
                            tol_abs: float = 1e-6,
                            tol_rel: float = 1e-3) -> UniformISSCertificate:
    """Collapse a finite-window certificate to a common decay surface."""
    beta = max_surface([cert.surfaces[i] for i in cert.window])
    residual = 0.0
    exceed = 0.0
    valid = cert.valid
    if holdout is not None:
        beta_at = _SurfaceBlocks(beta)
        for run in holdout:
            traj = run.trajectory
            g_term = float(cert.gamma(run.u_norm))
            bound = beta_at(run.r_x, traj.times) + g_term
            viol = traj.sup_norms() - bound
            residual = max(residual, float(np.max(viol)))
            exceed = max(exceed, float(np.max(viol - (tol_abs + tol_rel * bound))))
        residual = max(0.0, residual)
        valid = cert.valid and exceed <= 0.0
    return UniformISSCertificate(cert.window, beta, cert.gamma,
                                 residual, valid)


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
        return self.y_hat[-1]


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
                         r: float,
                         k: int | None,
                         cfg: EnsembleConfig,
                         tail_starts: Sequence[float],
                         seed: int,
                         q: float | None = None) -> BandEntry:
    """Tail-sup estimates over one input band or small-input cell.

    Band k means ||u|| in [2^-k r, 2^(1-k) r]; passing q instead bounds
    ||u|| <= q (q = 0 is the zero-input cell).  Tail starts must precede
    the horizon; each row of the result is the suffix sup from that start.
    """
    return compute_band_cells(net, window, [(r, k, q)], cfg, tail_starts,
                              seed)[0]


def compute_band_cells(net: NetworkSpec,
                       window: Sequence[int],
                       cells: Sequence[tuple],
                       cfg: EnsembleConfig,
                       tail_starts: Sequence[float],
                       seed: int) -> list[BandEntry]:
    """compute_band_limsups for each (r, k, q) cell, all stepped in one pass.

    Each member keeps only its suffix sups at the tail starts, never its
    trajectory.  The first cell (in order) with a blown-up member raises.
    """
    window = tuple(window)
    limits = [_band_limits(r, k, q) for r, k, q in cells]
    tail_starts = tuple(float(t) for t in tail_starts)
    if any(t >= cfg.horizon for t in tail_starts) or not tail_starts:
        raise ValueError("tail starts must be nonempty and precede the horizon")

    families = []
    for (r, _k, _q), (lo, hi, tag) in zip(cells, limits):
        families.append(([(f"band cell (r={r:g}, {tag})", x0, u)
                          for _name, x0, u in _band_members(
                              net, window, r, lo, hi, cfg, seed, tag)],
                         False))
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
                         tol: float = 1e-6) -> SGInequalityReport:
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


def uniformity_probe(net: NetworkSpec,
                     sizes: Sequence[int],
                     r: float,
                     t: float,
                     dt: float | None = None) -> dict[int, float]:
    """Sup norm at time t for all-ones starts across window sizes.

    A sequence approaching r as the window grows is direct evidence that
    no single decay curve covers every window.
    """
    out = {}
    for n in sizes:
        window = net.window(n)
        traj = simulate(net, window, float(r), InputSignal.zero(), t, dt=dt)
        out[int(n)] = float(traj.sup_norms()[-1])
    return out


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
