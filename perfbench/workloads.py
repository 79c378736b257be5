"""The four benchmark workloads: inputs made from a seed, the job, and the
output gates.

Inputs are plain JSON built by the benchmark; the program only ever sees
them through its public entry points (``issnet.cli.main`` and the
``issnet.smallgain`` / ``issnet.gains`` library calls).  With the default
seed 0 every input equals the acceptance-gate config it is named after
(tests/test_acceptance.py criteria 2, 4 and 6, and the gains-check run on
the diffusive chain); seed n shifts each job seed by n.

This module imports no program code at import time, so the parent process
(perfbench/run.py) can build inputs without touching the package.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

DEFAULT_SEED = 0

# acceptance-gate seed of each workload; the workload seed is added to it
GATE_SEEDS = {
    "certify-chain50": 12,
    "trace-chain64": 4,
    "falsify-small": 2026,
    "gains-chain300": 3,
}
WORKLOADS = tuple(GATE_SEEDS)

FALSIFY_TRIALS = 100
FALSIFY_BUDGET = 2000


def make_inputs(workload: str, seed: int) -> dict:
    """The job description of one workload; equal seeds give equal inputs."""
    job_seed = GATE_SEEDS[workload] + seed
    if workload == "certify-chain50":
        return {"command": "certify", "config": {
            "network": "catalog:counterexample-chain",
            "window": 50,
            "ensemble": {"horizon": 240.0, "dt": 0.1, "n_random": 3},
            "radii": [0.5, 1.0, 2.0],
            "depth": 6,
            "seed": job_seed,
        }}
    if workload == "trace-chain64":
        return {"command": "trace-theorem1", "config": {
            "network": "catalog:nonuniform-discrete-chain",
            "window": 64,
            "ensemble": {"horizon": 2000, "n_random": 2},
            "radii": [0.5, 1.0, 2.0],
            "bands": [1, 2, 3, 4, 5, 6],
            "xi": {"kind": "linear", "params": {"a": 2.0},
                   "class": "Kinf"},
            "seed": job_seed,
        }}
    if workload == "gains-chain300":
        return {"command": "gains-check", "config": {
            "network": "catalog:linear-diffusive-chain",
            "window": 300,
            "seed": job_seed,
        }}
    if workload == "falsify-small":
        return {"command": None, "graphs": _random_linear_graphs(job_seed),
                "n_random": 16, "budget": FALSIFY_BUDGET}
    raise KeyError(workload)


def _random_linear_graphs(seed: int) -> list[dict]:
    """The criterion-6 graph family, drawn in the same order as the gate."""
    import numpy as np

    rng = np.random.default_rng(seed)
    graphs = []
    for trial in range(FALSIFY_TRIALS):
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
        keep = sorted(rng.choice(n, size=int(rng.integers(1, n)),
                                 replace=False).tolist())
        lam = float(rng.uniform(0.3, 0.95))
        graphs.append({"trial": trial, "n": n,
                       "edges": [[i, j, c] for (i, j), c in coeffs.items()],
                       "keep": keep, "lam": lam})
    return graphs


def inputs_sha256(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Setup and job, run inside a fresh worker process -----------------------


def setup(inputs: dict):
    """What a CLI process does before its job: imports, then catalog
    instantiation of the configured network (config load is the caller's)."""
    import issnet.cli  # noqa: F401  (imports every package module)
    from issnet import catalog

    network = inputs.get("config", {}).get("network")
    if network is not None:
        catalog.instantiate(*catalog.parse_ref(network))


def run_job(inputs: dict, config_path: str, out_dir: str) -> dict:
    """Run one job; returns its exit code, wall time and per-graph times.

    Program functions are looked up on their modules at call time so a
    traced run sees the patched bindings.
    """
    if inputs["command"] is None:
        t0 = time.perf_counter()
        results, graph_s = _falsify_loop(inputs)
        job_s = time.perf_counter() - t0
        return {"code": 0, "job_s": job_s, "graph_s": graph_s,
                "results": results}
    from issnet import cli

    argv = [inputs["command"], "--config", config_path, "--out", out_dir]
    t0 = time.perf_counter()
    code = cli.main(argv)
    job_s = time.perf_counter() - t0
    return {"code": code, "job_s": job_s, "graph_s": []}


def _falsify_loop(inputs: dict):
    from issnet import comparison, gains, smallgain

    budget = int(inputs["budget"])
    results, graph_s = [], []
    for g in inputs["graphs"]:
        t0 = time.perf_counter()
        trial = int(g["trial"])
        labels = tuple(range(int(g["n"])))
        coeffs = {(int(i), int(j)): float(c) for i, j, c in g["edges"]}
        graph = gains.GainGraph(
            gains.FiniteIndexSet(labels),
            entries={k: comparison.linear(c) for k, c in coeffs.items()})
        sgc = smallgain.estimate_uniform_sgc(graph, labels,
                                             n_random=int(inputs["n_random"]),
                                             seed=trial)
        found = []
        if sgc.holds:
            found.append(smallgain.falsify_mbi(
                graph, labels, sgc.xi_hat, budget=budget, seed=trial))
            keep = tuple(int(i) for i in g["keep"])
            sub = gains.restrict(graph, keep)
            found.append(smallgain.falsify_mbi(
                sub, keep, sgc.xi_hat, budget=budget, seed=trial))
            lam = float(g["lam"])
            shrunk = gains.GainGraph(
                gains.FiniteIndexSet(labels),
                entries={k: comparison.linear(lam * c)
                         for k, c in coeffs.items()})
            found.append(smallgain.falsify_mbi(
                shrunk, labels, sgc.xi_hat, budget=budget, seed=trial))
        graph_s.append(time.perf_counter() - t0)
        results.append({"trial": trial, "holds": bool(sgc.holds),
                        "deficits": [repr(float(d)) for d in sgc.deficits],
                        "witnesses": [w is not None for w in found]})
    return results, graph_s


# Output gates -----------------------------------------------------------


def check_outputs(workload: str, inputs: dict, job: dict,
                  out_dir: str) -> tuple[list[str], int, int, dict]:
    """Gate one job's output with the acceptance thresholds as written.

    Returns (problems, attempted, failed, digests): attempted counts graphs
    for falsify-small and the job itself otherwise; digests map each result
    file (or the falsify result list) to its sha256.
    """
    error = [f"job raised: {job['error']}"] if "error" in job else []
    if workload == "falsify-small":
        bad = [r["trial"] for r in job["results"]
               if not r["holds"] or len(r["witnesses"]) != 3
               or any(r["witnesses"])]
        problems = error + [f"graph {t}: small-gain estimate failed or a "
                            f"witness was found" for t in bad]
        attempted = len(inputs["graphs"])
        missing = attempted - len(job["results"])
        if missing:
            problems.append(f"{missing} graphs produced no result")
        text = json.dumps(job["results"], sort_keys=True)
        digests = {"falsify_results": hashlib.sha256(text.encode()).hexdigest()}
        return problems, attempted, len(bad) + missing, digests

    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    problems = list(error)
    if not error and job["code"] != 0:
        problems.append(f"exit code {job['code']}, expected 0")
    elif not error:
        gate = {"certify-chain50": _gate_certify,
                "trace-chain64": _gate_trace,
                "gains-chain300": _gate_gains}[workload]
        try:
            problems += gate(inputs["config"], out_dir)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as e:
            problems.append(f"unreadable result: {e!r}")
    return problems, 1, int(bool(problems)), digests


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _gate_certify(config, out_dir) -> list[str]:
    """Criterion 2: sigma-tilde factor and per-component reach-time slack."""
    import numpy as np
    from issnet.comparison import curve_from_json, surface_from_json

    payload = _load(out_dir, "certificate.json")
    problems = []
    if not (payload["ugs"]["valid"] and payload["noniss"]["valid"]):
        problems.append("certificate not valid")
    sigma_tilde = curve_from_json(payload["noniss"]["sigma_tilde"])
    ratios = [float(sigma_tilde(r)) / (2.0 * r)
              for r in np.geomspace(0.5, 2.0, 9)]
    if not all(1.0 / 2.2 <= q <= 2.2 for q in ratios):
        problems.append(f"sigma factor out of [1/2.2, 2.2]: "
                        f"[{min(ratios):.3f}, {max(ratios):.3f}]")
    horizon = float(config["ensemble"]["horizon"])
    level = float(sigma_tilde(1.0)) / 2.0 * 2.0 ** -5
    grid = np.linspace(0.0, horizon, 4801)
    min_slack = np.inf
    for i in range(1, int(config["window"]) + 1):
        surf = surface_from_json(payload["noniss"]["surfaces"][str(i)])
        hit = np.nonzero(surf(1.0, grid) <= level * (1.0 + 1e-9))[0]
        if hit.size == 0:
            min_slack = -np.inf
            break
        min_slack = min(min_slack,
                        float(grid[hit[0]]) / (5.0 * i * math.log(2.0)))
    if not min_slack >= 1.0 - 0.2:
        problems.append(f"worst reach-time slack {min_slack:.3f} < 0.8")
    return problems


def _gate_trace(config, out_dir) -> list[str]:
    """Criterion 4: 21 cells, margins >= -1e-6, monotone tails."""
    import numpy as np

    payload = _load(out_dir, "proof_trace.json")
    problems = []
    cells = len(config["radii"]) * (len(config["bands"]) + 1)
    if len(payload["entries"]) != cells:
        problems.append(f"{len(payload['entries'])} cells, expected {cells}")
    rows = payload["check"]["rows"]
    worst_comp = min(row["component_margin"] for row in rows)
    worst_norm = min(row["norm_margin"] for row in rows)
    if not (payload["check"]["all_passed"] and worst_comp >= -1e-6
            and worst_norm >= -1e-6):
        problems.append(f"margins: component {worst_comp:.2e}, "
                        f"norm {worst_norm:.2e}")
    for entry in payload["entries"]:
        y = np.array(entry["y_hat"])
        if y.shape[0] < 4 or not np.all(np.diff(y, axis=0) <= 0.0):
            problems.append(f"tail not monotone in cell r={entry['r']} "
                            f"k={entry['k']}")
        if entry["k"] is not None and entry["k"] >= 2 \
                and not np.all(np.diff(y[:, -1]) < 0.0):
            problems.append(f"boundary tail not strictly decreasing in cell "
                            f"r={entry['r']} k={entry['k']}")
    return problems


def _gate_gains(config, out_dir) -> list[str]:
    payload = _load(out_dir, "gains_check.json")
    return [] if payload["passed"] is True else ["gains check did not pass"]
