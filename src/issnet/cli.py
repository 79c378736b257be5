"""Command-line entry point.

Five subcommands cover the workflows end to end:

* gains-check: structural checks, sampled small-gain estimation, monotone
  bound falsification, and the cycle screen for a gain graph.
* simulate: one network simulation (plus an optional window sweep) written
  as a t,i,value CSV with a sup-norm summary.
* certify: the full certification pipeline producing a per-component
  certificate JSON.
* trace-theorem1: tail-sup estimates over dyadic input bands checked
  against the gain operator inequality and the norm bound.
* subnetwork: restrict to a subset of components, then re-run the gain
  checks (gains-check's, with their defaults) and certification there;
  finite subsets also get the collapsed single-surface certificate.

Each command takes the loaded config and returns its result files (name
to JSON payload, or to a path-taking writer) and its failure line, or
None.  main does the rest: it writes every file atomically, prints the
failure line and picks the exit code.

Exit codes: 0 all checks passed, 1 a certified failure or falsification
(details in the written report), 2 configuration or usage errors.  Config
values go through the _resolve_* helpers, so a bad one exits 2 with a
message instead of a traceback.

Every command that draws random numbers requires an explicit seed (config
"seed" or --seed); there is no entropy default, so rerunning a job byte
for byte reproduces its reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from functools import partial
from typing import Sequence

import numpy as np

from . import catalog
from .certify import (DEFAULT_BANDS, DEFAULT_DEPTH, DEFAULT_RADII,
                      CertificationError, EnsembleConfig, ProofTrace,
                      build_fit_and_holdout, build_nonuniform_iss,
                      compute_band_cells, estimate_attainment_times,
                      fit_ugs, trace_to_csv, uniform_from_nonuniform,
                      verify_sg_inequality)
from .comparison import curve_from_json
from .gains import CHECK_GRID, check_graph, graph_from_json
from .network import (NetworkSpec, TruncationPolicy, simulate, subnetwork,
                      truncation_sweep, write_trajectory_csv)
from .smallgain import estimate_uniform_sgc, falsify_mbi, finite_cycle_check
from .systems import InputSignal

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    """The config object.  Its "out" entry, which main writes to, is
    checked here, before anything runs."""
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(conf, dict):
        raise ConfigError(f"config must be a JSON object, got {conf!r}")
    out = conf.get("out", ".")
    if not isinstance(out, str) or not out:
        raise ConfigError(f"out must be a nonempty string, got {out!r}")
    return conf


def _resolve_network(conf: dict):
    """Network plus oracle (or None) from the "network" config entry."""
    src = conf.get("network")
    if src is None:
        return None, None
    try:
        if isinstance(src, str):
            if src.startswith("catalog:"):
                name, params = catalog.parse_ref(src)
                return catalog.instantiate(name, params)
            with open(src) as fh:
                return catalog.network_from_json(json.load(fh))
        if isinstance(src, dict):
            return catalog.network_from_json(src)
    except (AttributeError, OSError, TypeError, ValueError) as e:
        raise ConfigError(f"cannot build the network: {e}") from e
    raise ConfigError("network must be a catalog ref, a file path, or an object")


def _resolve_window(net: NetworkSpec | None, conf: dict, graph=None):
    """Window from the config: a positive size, or labels of the index set."""
    index_set = (net if net is not None else graph).index_set
    w = conf.get("window")
    if w is None:
        if index_set.finite:
            return index_set.window()
        raise ConfigError("window (size or label list) is required")
    if _is_int(w):
        if w <= 0:
            raise ConfigError(f"window size must be positive, got {w}")
        n_labels = _label_count(index_set)
        if w > n_labels:
            raise ConfigError(f"window size {w} exceeds the {n_labels} "
                              f"labels of the index set")
        return index_set.window(w)
    return _resolve_labels(index_set, w, "window")


def _is_int(value) -> bool:
    """A JSON integer; true and false load as bools, which are ints too."""
    return isinstance(value, int) and not isinstance(value, bool)


def _label_count(index_set) -> float:
    """The number of labels of a finite index set; inf for a generated one."""
    return len(index_set.window()) if index_set.finite else math.inf


def _resolve_labels(index_set, value, key: str) -> tuple[int, ...]:
    """A nonempty list of distinct labels of the index set."""
    if not isinstance(value, (list, tuple)) \
            or not all(_is_int(i) for i in value):
        raise ConfigError(f"{key} must be a list of integer labels, "
                          f"got {value!r}")
    labels = tuple(value)
    if not labels or len(set(labels)) != len(labels):
        raise ConfigError(f"{key} labels must be nonempty and distinct, "
                          f"got {list(labels)}")
    outside = [i for i in labels if i not in index_set]
    if outside:
        raise ConfigError(f"{key} labels {outside} outside the index set")
    return labels


def _resolve_int(value, key: str, least: int) -> int:
    """An integer of at least ``least`` from the config."""
    if not _is_int(value) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _resolve_float(value, key: str, lo: float, hi: float = math.inf,
                   lo_open: bool = True) -> float:
    """A number in (lo, hi), or in [lo, hi) when lo_open is False."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not ((lo < value if lo_open else lo <= value) and value < hi):
        interval = f"{'(' if lo_open else '['}{lo:g}, {hi:g})"
        raise ConfigError(f"{key} must be a number in {interval}, "
                          f"got {value!r}")
    return float(value)


def _resolve_bool(value, key: str) -> bool:
    """A JSON true or false; no other value counts as either."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _resolve_section(conf: dict, key: str) -> dict:
    """An optional object of sub-keys; empty when absent."""
    value = conf.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


def _resolve_list(value, key: str, item) -> tuple:
    """A nonempty list whose entries pass ``item``."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key} must be a nonempty list, got {value!r}")
    return tuple(item(v) for v in value)


def _resolve_radii(value, key: str) -> tuple[float, ...]:
    """A nonempty list of positive radii."""
    return _resolve_list(value, key, lambda r: _resolve_float(r, key, 0.0))


def _resolve_graph(spec):
    """A gain graph from its JSON object."""
    if not isinstance(spec, dict):
        raise ConfigError(f"graph must be a gain graph object, got {spec!r}")
    try:
        return graph_from_json(spec)
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"graph is not a valid gain graph: {e}") from e


def _resolve_dt(net: NetworkSpec, dt, key: str):
    """dt as given; on a continuous network it, or the network's default
    when it is absent, must be positive."""
    if net.time_domain.kind == "continuous":
        _resolve_float(net.time_domain.dt if dt is None else dt, key, 0.0)
    return dt


def _resolve_curve(spec, key: str):
    """A curve from its JSON object."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{key} must be a curve object, got {spec!r}")
    try:
        return curve_from_json(spec)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{key} is not a valid curve: {e}") from e


def _resolve_seed(conf: dict, args) -> int:
    seed = args.seed if args.seed is not None else conf.get("seed")
    if seed is None:
        raise ConfigError("an explicit seed is required (config \"seed\" or --seed)")
    return _resolve_int(seed, "seed", 0)


def _atomic_write(path: str, content) -> None:
    """Write a JSON payload (sorted keys, two-space indent), or run a
    path-taking writer, against a sibling temp file, then swap."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    os.close(fd)
    try:
        if callable(content):
            content(tmp)
        else:
            with open(tmp, "w") as fh:
                json.dump(content, fh, sort_keys=True, indent=2)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_input(conf) -> InputSignal:
    """The "input" signal object; zero when absent."""
    spec = conf.get("input")
    if spec is None:
        return InputSignal.zero()
    if not isinstance(spec, dict):
        raise ConfigError(f"input must be a signal object, got {spec!r}")
    kind = spec.get("kind", "signal")
    try:
        if kind == "zero":
            return InputSignal.zero()
        if kind == "constant":
            return InputSignal.constant(spec["level"])
        if kind == "signal" or ("breaks" in spec and "values" in spec):
            return InputSignal.from_json(spec)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"input is not a valid signal: {e}") from e
    raise ConfigError(f"unknown input kind {kind!r}")


# gains-check ------------------------------------------------------------


def _resolve_r_grid(conf: dict) -> tuple[float, ...] | np.ndarray:
    """conf's "r_grid" of nonnegative radii, default gains.CHECK_GRID."""
    r_grid = conf.get("r_grid")
    if r_grid is None:
        return CHECK_GRID
    return _resolve_list(r_grid, "r_grid", lambda r: _resolve_float(
        r, "r_grid", 0.0, lo_open=False))


def _run_gains(graph, window, r_grid, seed, budget, radii=None, n_random=64,
               xi="derived", cycles=True):
    """Shared gain checks behind gains-check and subnetwork: the structure
    check on r_grid, the small-gain estimate, the falsifier against xi
    ("derived" takes the estimate's xi_hat) and, with ``cycles``, the
    cycle screen.

    Returns (structure, sgc, xi, witness, cycles, failures); the gains
    pass when failures, a list of reasons, is empty.
    """
    structure = check_graph(graph, r_grid, window)
    sgc = estimate_uniform_sgc(graph, window, radii=radii, n_random=n_random,
                               seed=seed)
    if xi == "derived":
        xi = sgc.xi_hat
    witness = None
    if xi is not None:
        witness = falsify_mbi(graph, window, xi, budget=budget, seed=seed)
    cycles = finite_cycle_check(graph, window) if cycles else None

    failures = []
    if not structure.assumption1_finite:
        failures.append("unbounded gain sup")
    if not sgc.holds:
        failures.append("small-gain deficit <= 0 at some sampled radius")
    if witness is not None:
        failures.append(f"monotone-bound witness of norm {witness.norm_v:g}")
    if cycles is not None and not cycles.passed:
        failures.append(f"cycle gain not below identity: {cycles.worst_cycle}")
    return structure, sgc, xi, witness, cycles, failures


def cmd_gains_check(conf: dict, args) -> tuple[dict, str | None]:
    seed = _resolve_seed(conf, args)
    net, _oracle = _resolve_network(conf)
    if "graph" in conf:
        graph = _resolve_graph(conf["graph"])
    elif net is not None and net.graph is not None:
        graph = net.graph
    else:
        raise ConfigError("config needs a \"graph\" or a network with gains")
    window = _resolve_window(net, conf, graph)
    fal_conf = _resolve_section(conf, "falsify")
    budget = _resolve_int(fal_conf.get("budget", 10_000), "falsify.budget", 1)
    sgc_conf = _resolve_section(conf, "sgc")
    radii = sgc_conf.get("radii")
    if radii is not None:
        radii = _resolve_radii(radii, "sgc.radii")
        if len(set(radii)) != len(radii):
            raise ConfigError(f"sgc.radii must be distinct, got {list(radii)}")
    n_random = _resolve_int(sgc_conf.get("n_random", 64), "sgc.n_random", 0)
    xi_spec = fal_conf.get("xi", "derived")
    xi = xi_spec if xi_spec == "derived" else _resolve_curve(xi_spec, "falsify.xi")

    structure, sgc, xi, witness, cycles, failures = _run_gains(
        graph, window, _resolve_r_grid(conf), seed, budget, radii, n_random,
        xi, _resolve_bool(conf.get("cycles", True), "cycles"))
    payload = {
        "passed": not failures,
        "seed": seed,
        "window": list(window),
        "structure": {
            "zero_diagonal": structure.zero_diagonal,
            "row_finite": structure.row_finite,
            "max_row_size": structure.max_row_size,
            "assumption1_finite": structure.assumption1_finite,
            "assumption1_sup": list(structure.assumption1_sup),
            "window_only": structure.window_only,
            "notes": structure.notes,
        },
        "sgc": {
            "holds": sgc.holds,
            "radii": list(sgc.radii),
            "deficits": list(sgc.deficits),
            "worst_points": [list(p) for p in sgc.witnesses],
        },
        "falsify": {
            "xi": "derived" if xi_spec == "derived" else "explicit",
            "xi_available": xi is not None,
            "witness": None if witness is None else {
                "v": list(witness.v), "w": list(witness.w),
                "norm_v": witness.norm_v, "norm_w": witness.norm_w,
                "xi_at_w": witness.xi_at_w, "margin": witness.margin,
                "samples_used": witness.samples_used,
            },
        },
        "cycles": None if cycles is None else {
            "n_cycles": cycles.n_cycles,
            "worst_margin": None if not np.isfinite(cycles.worst_margin)
            else cycles.worst_margin,
            "worst_cycle": None if cycles.worst_cycle is None
            else list(cycles.worst_cycle),
            "passed": cycles.passed,
            "truncated": cycles.truncated,
        },
    }
    return {"gains_check.json": payload}, None if not failures else (
        f"gains check failed ({'; '.join(failures)}); seed {seed}, "
        f"details in gains_check.json")


# simulate ---------------------------------------------------------------


def _resolve_x0(conf: dict, window) -> float | np.ndarray:
    """A finite number, or one finite number per window label."""
    x0 = conf.get("x0", 0.0)
    if not isinstance(x0, list):
        return _resolve_float(x0, "x0", -math.inf)
    if len(x0) != len(window):
        raise ConfigError(f"x0 needs one value per window label "
                          f"({len(window)}), got {len(x0)}")
    return np.array([_resolve_float(v, "x0", -math.inf) for v in x0])


def cmd_simulate(conf: dict, args) -> tuple[dict, str | None]:
    net, _oracle = _resolve_network(conf)
    if net is None:
        raise ConfigError("simulate needs a \"network\"")
    window = _resolve_window(net, conf)
    x0 = _resolve_x0(conf, window)
    u = _parse_input(conf)
    if u.values.ndim > 1 and u.values.shape[1:] != (len(window),):
        raise ConfigError(f"input values must be scalars or vectors of the "
                          f"window's width {len(window)}, got pieces of "
                          f"shape {u.values.shape[1:]}")
    horizon = _resolve_float(conf["horizon"], "horizon", 0.0, lo_open=False)
    dt = _resolve_dt(net, conf.get("dt"), "dt")
    probe_times = conf.get("probe_times", [])
    if probe_times != []:
        probe_times = _resolve_list(probe_times, "probe_times", lambda t:
                                    _resolve_float(t, "probe_times", -math.inf))
    policy = None
    if conf.get("sweep_sizes"):
        sizes = _resolve_list(conf["sweep_sizes"], "sweep_sizes",
                              lambda n: _resolve_int(n, "sweep_sizes", 1))
        n_labels = _label_count(net.index_set)
        if max(sizes) > n_labels:
            raise ConfigError(f"sweep_sizes entry {max(sizes)} exceeds the "
                              f"{n_labels} labels of the index set")
        if u.values.ndim > 1 and set(sizes) != {len(window)}:
            raise ConfigError(f"sweep_sizes must be [{len(window)}] with a "
                              f"vector input, got {list(sizes)}")
        try:
            policy = TruncationPolicy(sizes)
        except ValueError as e:
            raise ConfigError(f"sweep_sizes: {e}") from e
        x0_scalar = _resolve_float(conf.get("sweep_x0", 1.0), "sweep_x0",
                                   -math.inf)

    traj = simulate(net, window, x0, u, horizon, dt=dt)
    sups = traj.sup_norms()
    probes = []
    for t in probe_times:
        k = int(np.searchsorted(traj.times, t, side="left"))
        k = min(max(k, 0), len(traj.times) - 1)
        probes.append({"t": float(traj.times[k]), "sup_norm": float(sups[k])})
    summary = {
        "window_size": len(window),
        "final_time": float(traj.times[-1]),
        "final_sup_norm": float(sups[-1]),
        "max_sup_norm": float(np.max(sups)),
        "probes": probes,
        "blowup": None if traj.blowup is None else {
            "time": traj.blowup.time, "value": traj.blowup.value,
            "bound": traj.blowup.bound,
        },
    }

    failure = None
    if policy is not None:
        try:
            report = truncation_sweep(net, policy,
                                      lambda w: np.full(len(w), x0_scalar),
                                      u, horizon, dt=dt)
        except ArithmeticError as e:      # a sweep window blew up
            failure = f"truncation sweep failed: {e}"
        else:
            summary["sweep"] = {
                "sizes": list(report.sizes),
                "final_sups": [float(v) for v in report.final_sups()],
                "drifts": [float(v) for v in report.drifts],
            }
    if traj.blowup is not None:
        failure = (f"trajectory blow-up at t={traj.blowup.time:g} "
                   f"(|x| reached {traj.blowup.value:g}, "
                   f"bound {traj.blowup.bound:g})")
    return {"trajectory.csv": partial(write_trajectory_csv, traj),
            "simulate_summary.json": summary}, failure


# certify ----------------------------------------------------------------


def _ensemble_config(conf: dict, net: NetworkSpec) -> EnsembleConfig:
    e = conf.get("ensemble")
    if not isinstance(e, dict) or "horizon" not in e:
        raise ConfigError("config needs ensemble.horizon")
    return EnsembleConfig(
        horizon=_resolve_float(e["horizon"], "ensemble.horizon", 0.0),
        dt=_resolve_dt(net, e.get("dt"), "ensemble.dt"),
        n_random=_resolve_int(e.get("n_random", 5), "ensemble.n_random", 0),
        input_pieces=_resolve_int(e.get("input_pieces", 4),
                                  "ensemble.input_pieces", 1))


def _resolve_tolerances(conf: dict) -> dict:
    """The holdout validation tolerances, finite numbers."""
    return {key: _resolve_float(conf.get(key, default), key, -math.inf)
            for key, default in (("tol_abs", 1e-6), ("tol_rel", 1e-3))}


def _resolve_certify(conf: dict, net: NetworkSpec) -> dict:
    """The keys of the certify pipeline, as _run_certify's keywords."""
    return {
        "cfg": _ensemble_config(conf, net),
        "radii": _resolve_radii(conf.get("radii", DEFAULT_RADII), "radii"),
        "depth": _resolve_int(conf.get("depth", DEFAULT_DEPTH), "depth", 0),
        "tolerances": _resolve_tolerances(conf),
        "gamma_hat": _resolve_curve(conf["gamma_hat"], "gamma_hat")
        if "gamma_hat" in conf else None,
    }


def _run_certify(net, window, seed, cfg, radii, depth, tolerances, gamma_hat):
    """Shared pipeline behind certify and subnetwork, on the keys that
    _resolve_certify resolved.

    Returns (payload, cert, holdout_runs); raises CertificationError with a
    reproducer in the message on any certified failure.
    """
    # two stepping passes: the fit and holdout members first, then the
    # attainment members, whose thresholds need the fitted sigma
    bins = [(r, 0.0) for r in radii] + [(0.0, r) for r in radii] \
        + [(r, r) for r in radii]
    fit_runs, hold_runs = build_fit_and_holdout(net, window, bins, cfg, seed)
    ugs = fit_ugs(fit_runs, holdout=hold_runs)

    levels = {r: np.array([float(ugs.sigma(r)) * 2.0 ** (-n)
                           for n in range(depth + 1)]) for r in radii}
    if gamma_hat is None:
        gamma_hat = ugs.gamma
    attain = estimate_attainment_times(net, window, levels, radii, gamma_hat,
                                       cfg, seed)
    cert = build_nonuniform_iss(attain, ugs, hold_runs, gamma_hat,
                                **tolerances)
    payload = {
        "seed": seed,
        "window": list(window),
        "ugs": ugs.to_json(),
        "noniss": cert.to_json(),
    }
    return payload, cert, hold_runs


def cmd_certify(conf: dict, args) -> tuple[dict, str | None]:
    seed = _resolve_seed(conf, args)
    net, _oracle = _resolve_network(conf)
    if net is None:
        raise ConfigError("certify needs a \"network\"")
    window = _resolve_window(net, conf)
    emit_uniform = _resolve_bool(conf.get("emit_uniform", False),
                                 "emit_uniform")
    keys = _resolve_certify(conf, net)
    try:
        payload, cert, hold_runs = _run_certify(net, window, seed, **keys)
    except CertificationError as e:
        return ({"certificate.json": {"error": str(e), "seed": seed}},
                f"certification failed: {e}")
    if emit_uniform:
        uni = uniform_from_nonuniform(cert, hold_runs, **keys["tolerances"])
        payload["uniform"] = uni.to_json()
    worst = cert.worst_case
    return {"certificate.json": payload}, None if cert.valid else (
        f"certificate failed holdout validation at component "
        f"{worst[0]} t={worst[1]:g} member {worst[2]!r} "
        f"(residual {cert.holdout_residual:g}, seed {seed})")


# trace-theorem1 ---------------------------------------------------------


def _resolve_xi(conf, oracle, graph, window, seed):
    spec = conf.get("xi", "oracle")
    if isinstance(spec, dict):
        return _resolve_curve(spec, "xi")
    if spec == "oracle":
        if oracle is None or oracle.xi is None:
            raise ConfigError("no oracle monotone-bound curve available; "
                              "pass xi explicitly or use xi=\"derived\"")
        return oracle.xi
    if spec == "derived":
        sgc = estimate_uniform_sgc(graph, window, seed=seed)
        if sgc.xi_hat is None:
            raise CertificationError(
                f"small-gain estimate failed on the window; cannot derive a "
                f"monotone bound curve (seed {seed})")
        return sgc.xi_hat
    raise ConfigError(f"unknown xi spec {spec!r}")


def cmd_trace_theorem1(conf: dict, args) -> tuple[dict, str | None]:
    seed = _resolve_seed(conf, args)
    net, oracle = _resolve_network(conf)
    if net is None:
        raise ConfigError("trace needs a \"network\"")
    if net.graph is None:
        raise ConfigError("trace needs a network with a gain graph")
    window = _resolve_window(net, conf)
    cfg = _ensemble_config(conf, net)
    radii = _resolve_radii(conf.get("radii", DEFAULT_RADII), "radii")
    bands = _resolve_list(conf.get("bands", DEFAULT_BANDS), "bands",
                          lambda k: _resolve_int(k, "bands", 0))
    fractions = _resolve_list(
        conf.get("tail_fractions", (0.35, 0.55, 0.75, 0.93)), "tail_fractions",
        lambda f: _resolve_float(f, "tail_fractions", 0.0, 1.0, lo_open=False))
    tail_starts = [f * cfg.horizon for f in fractions]
    tol = _resolve_float(conf.get("tol", 1e-6), "tol", -math.inf)

    cap = conf.get("small_cap")
    if cap is not None:
        cap = _resolve_float(cap, "small_cap", 0.0, lo_open=False)
    cells = []
    for r in radii:
        cells += [(r, k, None) for k in bands]
        cells.append((r, None, 2.0 ** (-max(bands)) * r if cap is None else cap))
    try:
        xi = _resolve_xi(conf, oracle, net.graph, window, seed)
        entries = compute_band_cells(net, window, cells, cfg, tail_starts,
                                     seed)
        trace = ProofTrace(tuple(window), tuple(entries), cfg.horizon, seed)
    except CertificationError as e:
        return ({"proof_trace.json": {"error": str(e), "seed": seed}},
                f"trace failed: {e}")

    report = verify_sg_inequality(trace, net.graph, xi, tol=tol)
    payload = trace.to_json()
    payload["check"] = {
        "tol": report.tol,
        "all_passed": report.all_passed,
        "rows": [{"r": r, "k": k, "q": q, "level": level,
                  "component_margin": cm, "norm_margin": nm, "passed": p}
                 for (r, k, q, level, cm, nm, p) in report.rows],
    }
    bad = [row for row in report.rows if not row[6]]
    failure = None if not bad else (
        f"small-gain inequality failed on {len(bad)} of "
        f"{len(report.rows)} cells (seed {seed}); see proof_trace.json")
    return {"proof_trace.json": payload,
            "proof_trace.csv": partial(trace_to_csv, trace)}, failure


# subnetwork -------------------------------------------------------------


def cmd_subnetwork(conf: dict, args) -> tuple[dict, str | None]:
    seed = _resolve_seed(conf, args)
    net, _oracle = _resolve_network(conf)
    if net is None:
        raise ConfigError("subnetwork needs a \"network\"")
    subset = conf.get("subset")
    if not subset:
        raise ConfigError("subnetwork needs a nonempty \"subset\" of labels")
    subset = _resolve_labels(net.index_set, subset, "subset")
    sub = subnetwork(net, subset)

    budget = _resolve_int(conf.get("falsify_budget", 10_000),
                          "falsify_budget", 1)
    r_grid = _resolve_r_grid(conf)
    keys = _resolve_certify(conf, sub)

    payload: dict = {"seed": seed, "subset": list(subset)}
    ok = True

    if sub.graph is not None:
        _structure, sgc, _xi, witness, cycles, failures = _run_gains(
            sub.graph, subset, r_grid, seed, budget)
        payload["gains"] = {
            "passed": not failures,
            "sgc_holds": sgc.holds,
            "witness_found": witness is not None,
            "cycles_passed": cycles.passed,
        }
        ok = not failures

    try:
        cert_payload, cert, hold_runs = _run_certify(sub, subset, seed, **keys)
    except CertificationError as e:
        payload["certificate"] = {"error": str(e)}
        return ({"subnetwork.json": payload},
                f"subnetwork certification failed: {e}")
    payload["certificate"] = cert_payload
    ok = ok and cert.valid

    uni = uniform_from_nonuniform(cert, hold_runs, **keys["tolerances"])
    payload["uniform"] = uni.to_json()
    ok = ok and uni.valid

    return {"subnetwork.json": payload}, None if ok else (
        f"subnetwork checks failed (seed {seed}); see subnetwork.json")


# dispatch ---------------------------------------------------------------


_COMMANDS = {
    "gains-check": cmd_gains_check,
    "simulate": cmd_simulate,
    "certify": cmd_certify,
    "trace-theorem1": cmd_trace_theorem1,
    "subnetwork": cmd_subnetwork,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="issnet",
        description="simulate interconnected subsystems and certify their "
                    "stability estimates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON job description")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 2
    try:
        conf = _load_config(args.config)
        files, failure = _COMMANDS[args.command](conf, args)
        out = args.out or conf.get("out", ".")
        for name, content in files.items():
            _atomic_write(os.path.join(out, name), content)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (KeyError, FileNotFoundError) as e:
        print(f"config error: missing {e}", file=sys.stderr)
        return 2
    if failure:
        print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
