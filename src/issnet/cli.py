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
  checks and certification there; finite subsets also get the collapsed
  single-surface certificate.

Exit codes: 0 all checks passed, 1 a certified failure or falsification
(details in the written report), 2 configuration or usage errors.

Every command that draws random numbers requires an explicit seed (config
"seed" or --seed); there is no entropy default, so rerunning a job byte
for byte reproduces its reports.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Sequence

import numpy as np

from . import catalog
from .certify import (CertificationError, EnsembleConfig, ProofTrace,
                      build_ensemble, build_nonuniform_iss,
                      compute_band_limsups, estimate_attainment_times,
                      fit_ugs, trace_to_csv, uniform_from_nonuniform,
                      verify_sg_inequality)
from .comparison import curve_from_json
from .gains import check_graph, graph_from_json
from .network import (NetworkSpec, TruncationPolicy, simulate, subnetwork,
                      truncation_sweep, write_trajectory_csv)
from .smallgain import estimate_uniform_sgc, falsify_mbi, finite_cycle_check
from .systems import InputSignal

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")


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
    except ValueError as e:
        raise ConfigError(f"cannot build the network: {e}") from e
    raise ConfigError("network must be a catalog ref, a file path, or an object")


def _resolve_window(net: NetworkSpec | None, conf: dict, graph=None):
    w = conf.get("window")
    if w is None:
        index_set = net.index_set if net is not None else (
            graph.index_set if graph is not None else None)
        if index_set is not None and index_set.finite:
            return index_set.window()
        raise ConfigError("window (size or label list) is required")
    if isinstance(w, int):
        source = net if net is not None else graph
        return source.index_set.window(w) if hasattr(source, "index_set") \
            else source.window(w)
    return tuple(int(i) for i in w)


def _resolve_seed(conf: dict, args) -> int:
    seed = args.seed if args.seed is not None else conf.get("seed")
    if seed is None:
        raise ConfigError("an explicit seed is required (config \"seed\" or --seed)")
    return int(seed)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    _atomic_write(path, text)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_csv(path: str, writer) -> None:
    """Run a path-taking CSV writer against a sibling temp file, then swap."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_path(args, conf, name: str) -> str:
    out = args.out or conf.get("out") or "."
    return os.path.join(out, name)


def _parse_input(conf, fallback_zero=True):
    spec = conf.get("input")
    if spec is None:
        return InputSignal.zero() if fallback_zero else None
    kind = spec.get("kind", "signal")
    if kind == "zero":
        return InputSignal.zero()
    if kind == "constant":
        return InputSignal.constant(spec["level"])
    if kind == "signal" or ("breaks" in spec and "values" in spec):
        return InputSignal.from_json(spec)
    raise ConfigError(f"unknown input kind {kind!r}")


# gains-check ------------------------------------------------------------


def cmd_gains_check(args) -> int:
    conf = _load_config(args.config)
    seed = _resolve_seed(conf, args)
    net, _oracle = _resolve_network(conf)
    if "graph" in conf:
        graph = graph_from_json(conf["graph"])
    elif net is not None and net.graph is not None:
        graph = net.graph
    else:
        raise ConfigError("config needs a \"graph\" or a network with gains")
    window = _resolve_window(net, conf, graph)

    r_grid = conf.get("r_grid") or list(np.geomspace(1e-3, 1e3, 13))
    structure = check_graph(graph, r_grid, window)

    sgc_conf = conf.get("sgc", {})
    sgc = estimate_uniform_sgc(graph, window,
                               radii=sgc_conf.get("radii"),
                               n_random=int(sgc_conf.get("n_random", 64)),
                               seed=seed)

    fal_conf = conf.get("falsify", {})
    xi_spec = fal_conf.get("xi", "derived")
    if xi_spec == "derived":
        xi = sgc.xi_hat
    else:
        xi = curve_from_json(xi_spec)
    witness = None
    if xi is not None:
        witness = falsify_mbi(graph, window, xi,
                              budget=int(fal_conf.get("budget", 10_000)),
                              seed=seed)

    cycles = None
    if conf.get("cycles", True):
        cycles = finite_cycle_check(graph, window)

    passed = (structure.assumption1_finite and sgc.holds
              and witness is None and (cycles is None or cycles.passed))
    payload = {
        "passed": passed,
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
    _write_json(_out_path(args, conf, "gains_check.json"), payload)
    if not passed:
        what = []
        if not structure.assumption1_finite:
            what.append("unbounded gain sup")
        if not sgc.holds:
            what.append("small-gain deficit <= 0 at some sampled radius")
        if witness is not None:
            what.append(f"monotone-bound witness of norm {witness.norm_v:g}")
        if cycles is not None and not cycles.passed:
            what.append(f"cycle gain not below identity: {cycles.worst_cycle}")
        print(f"gains check failed ({'; '.join(what)}); seed {seed}, "
              f"details in gains_check.json", file=sys.stderr)
        return 1
    return 0


# simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    conf = _load_config(args.config)
    net, _oracle = _resolve_network(conf)
    if net is None:
        raise ConfigError("simulate needs a \"network\"")
    window = _resolve_window(net, conf)
    x0 = conf.get("x0", 0.0)
    if isinstance(x0, list):
        x0 = np.asarray(x0, float)
    u = _parse_input(conf)
    horizon = conf["horizon"]
    dt = conf.get("dt")

    traj = simulate(net, window, x0, u, horizon, dt=dt)
    _atomic_csv(_out_path(args, conf, "trajectory.csv"),
                lambda p: write_trajectory_csv(traj, p))

    sups = traj.sup_norms()
    probes = []
    for t in conf.get("probe_times", []):
        k = int(np.searchsorted(traj.times, float(t), side="left"))
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

    if conf.get("sweep_sizes"):
        policy = TruncationPolicy(tuple(int(s) for s in conf["sweep_sizes"]))
        x0_scalar = conf.get("sweep_x0", 1.0)
        report = truncation_sweep(net, policy, lambda w: np.full(len(w), float(x0_scalar)),
                                  u, horizon, dt=dt)
        summary["sweep"] = {
            "sizes": list(report.sizes),
            "final_sups": [float(v) for v in report.final_sups()],
            "drifts": [float(v) for v in report.drifts],
        }

    _write_json(_out_path(args, conf, "simulate_summary.json"), summary)
    if traj.blowup is not None:
        print(f"trajectory blow-up at t={traj.blowup.time:g} "
              f"(|x| reached {traj.blowup.value:g}, bound {traj.blowup.bound:g})",
              file=sys.stderr)
        return 1
    return 0


# certify ----------------------------------------------------------------


def _ensemble_config(conf: dict) -> EnsembleConfig:
    e = conf.get("ensemble")
    if e is None or "horizon" not in e:
        raise ConfigError("config needs ensemble.horizon")
    return EnsembleConfig(horizon=float(e["horizon"]),
                          dt=e.get("dt"),
                          n_random=int(e.get("n_random", 5)),
                          input_pieces=int(e.get("input_pieces", 4)))


def _run_certify(net, window, conf, seed, threads):
    """Shared pipeline behind certify and subnetwork.

    Returns (payload, cert, holdout_runs); raises CertificationError with a
    reproducer in the message on any certified failure.
    """
    cfg = _ensemble_config(conf)
    radii = tuple(float(r) for r in conf.get("radii", (0.25, 0.5, 1.0, 2.0, 4.0)))
    depth = int(conf.get("depth", 10))

    bins = [(r, 0.0) for r in radii] + [(0.0, r) for r in radii] \
        + [(r, r) for r in radii]
    fit_runs = build_ensemble(net, window, bins, cfg, seed, tag="fit",
                              threads=threads)
    hold_runs = build_ensemble(net, window, bins, cfg, seed, tag="holdout",
                               threads=threads)
    ugs = fit_ugs(fit_runs, holdout=hold_runs)

    levels = {r: np.array([float(ugs.sigma(r)) * 2.0 ** (-n)
                           for n in range(depth + 1)]) for r in radii}
    gamma_hat = curve_from_json(conf["gamma_hat"]) if "gamma_hat" in conf \
        else ugs.gamma
    attain = estimate_attainment_times(net, window, levels, radii, gamma_hat,
                                       cfg, seed, threads=threads)
    cert = build_nonuniform_iss(attain, ugs, hold_runs, gamma_hat,
                                tol_abs=float(conf.get("tol_abs", 1e-6)),
                                tol_rel=float(conf.get("tol_rel", 1e-3)))
    payload = {
        "seed": seed,
        "window": list(window),
        "ugs": ugs.to_json(),
        "noniss": cert.to_json(),
    }
    return payload, cert, hold_runs


def cmd_certify(args) -> int:
    conf = _load_config(args.config)
    seed = _resolve_seed(conf, args)
    net, _oracle = _resolve_network(conf)
    if net is None:
        raise ConfigError("certify needs a \"network\"")
    window = _resolve_window(net, conf)
    try:
        payload, cert, hold_runs = _run_certify(net, window, conf, seed,
                                                args.threads)
    except CertificationError as e:
        _write_json(_out_path(args, conf, "certificate.json"),
                    {"error": str(e), "seed": seed})
        print(f"certification failed: {e}", file=sys.stderr)
        return 1
    if conf.get("emit_uniform", False):
        uni = uniform_from_nonuniform(cert, hold_runs,
                                      tol_abs=float(conf.get("tol_abs", 1e-6)),
                                      tol_rel=float(conf.get("tol_rel", 1e-3)))
        payload["uniform"] = uni.to_json()
    _write_json(_out_path(args, conf, "certificate.json"), payload)
    if not cert.valid:
        worst = cert.worst_case
        print(f"certificate failed holdout validation at component "
              f"{worst[0]} t={worst[1]:g} member {worst[2]!r} "
              f"(residual {cert.holdout_residual:g}, seed {seed})",
              file=sys.stderr)
        return 1
    return 0


# trace-theorem1 ---------------------------------------------------------


def _resolve_xi(conf, oracle, graph, window, seed):
    spec = conf.get("xi", "oracle")
    if isinstance(spec, dict):
        return curve_from_json(spec)
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


def cmd_trace_theorem1(args) -> int:
    conf = _load_config(args.config)
    seed = _resolve_seed(conf, args)
    net, oracle = _resolve_network(conf)
    if net is None:
        raise ConfigError("trace needs a \"network\"")
    if net.graph is None:
        raise ConfigError("trace needs a network with a gain graph")
    window = _resolve_window(net, conf)
    cfg = _ensemble_config(conf)
    radii = tuple(float(r) for r in conf.get("radii", (0.25, 0.5, 1.0, 2.0, 4.0)))
    bands = tuple(int(k) for k in conf.get("bands", range(1, 9)))
    fractions = conf.get("tail_fractions", (0.35, 0.55, 0.75, 0.93))
    tail_starts = [float(f) * cfg.horizon for f in fractions]
    tol = float(conf.get("tol", 1e-6))

    entries = []
    try:
        for r in radii:
            for k in bands:
                entries.append(compute_band_limsups(
                    net, window, r, k, cfg, tail_starts, seed,
                    threads=args.threads))
            q = conf.get("small_cap")
            if q is None:
                q = 2.0 ** (-max(bands)) * r
            entries.append(compute_band_limsups(
                net, window, r, None, cfg, tail_starts, seed,
                q=float(q), threads=args.threads))
        trace = ProofTrace(tuple(window), tuple(entries), cfg.horizon, seed)
        xi = _resolve_xi(conf, oracle, net.graph, window, seed)
    except CertificationError as e:
        _write_json(_out_path(args, conf, "proof_trace.json"),
                    {"error": str(e), "seed": seed})
        print(f"trace failed: {e}", file=sys.stderr)
        return 1

    report = verify_sg_inequality(trace, net.graph, xi, tol=tol)
    payload = trace.to_json()
    payload["check"] = {
        "tol": report.tol,
        "all_passed": report.all_passed,
        "rows": [{"r": r, "k": k, "q": q, "level": level,
                  "component_margin": cm, "norm_margin": nm, "passed": p}
                 for (r, k, q, level, cm, nm, p) in report.rows],
    }
    _write_json(_out_path(args, conf, "proof_trace.json"), payload)
    _atomic_csv(_out_path(args, conf, "proof_trace.csv"),
                lambda p: trace_to_csv(trace, p))
    if not report.all_passed:
        bad = [row for row in report.rows if not row[6]]
        print(f"small-gain inequality failed on {len(bad)} of "
              f"{len(report.rows)} cells (seed {seed}); see proof_trace.json",
              file=sys.stderr)
        return 1
    return 0


# subnetwork -------------------------------------------------------------


def cmd_subnetwork(args) -> int:
    conf = _load_config(args.config)
    seed = _resolve_seed(conf, args)
    net, _oracle = _resolve_network(conf)
    if net is None:
        raise ConfigError("subnetwork needs a \"network\"")
    subset = conf.get("subset")
    if not subset:
        raise ConfigError("subnetwork needs a nonempty \"subset\" of labels")
    subset = tuple(int(i) for i in subset)
    sub = subnetwork(net, subset)

    payload: dict = {"seed": seed, "subset": list(subset)}
    ok = True

    if sub.graph is not None:
        r_grid = conf.get("r_grid") or list(np.geomspace(1e-3, 1e3, 13))
        structure = check_graph(sub.graph, r_grid, subset)
        sgc = estimate_uniform_sgc(sub.graph, subset, seed=seed)
        witness = None
        if sgc.xi_hat is not None:
            witness = falsify_mbi(sub.graph, subset, sgc.xi_hat,
                                  budget=int(conf.get("falsify_budget", 10_000)),
                                  seed=seed)
        cycles = finite_cycle_check(sub.graph, subset)
        gains_ok = (structure.assumption1_finite and sgc.holds
                    and witness is None and cycles.passed)
        payload["gains"] = {
            "passed": gains_ok,
            "sgc_holds": sgc.holds,
            "witness_found": witness is not None,
            "cycles_passed": cycles.passed,
        }
        ok = ok and gains_ok

    try:
        cert_payload, cert, hold_runs = _run_certify(sub, subset, conf, seed,
                                                     args.threads)
    except CertificationError as e:
        payload["certificate"] = {"error": str(e)}
        _write_json(_out_path(args, conf, "subnetwork.json"), payload)
        print(f"subnetwork certification failed: {e}", file=sys.stderr)
        return 1
    payload["certificate"] = cert_payload
    ok = ok and cert.valid

    uni = uniform_from_nonuniform(cert, hold_runs,
                                  tol_abs=float(conf.get("tol_abs", 1e-6)),
                                  tol_rel=float(conf.get("tol_rel", 1e-3)))
    payload["uniform"] = uni.to_json()
    ok = ok and uni.valid

    _write_json(_out_path(args, conf, "subnetwork.json"), payload)
    if not ok:
        print(f"subnetwork checks failed (seed {seed}); see subnetwork.json",
              file=sys.stderr)
        return 1
    return 0


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
        p.add_argument("--threads", type=int, default=1,
                       help="ensemble fan-out; never changes results")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (KeyError, FileNotFoundError) as e:
        print(f"config error: missing {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
