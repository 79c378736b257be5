"""Benchmark runner for the issnet CLI and library workloads.

Run from the root of a source checkout (the package is imported from
./src, nothing is installed):

    python3 perfbench/run.py --workload certify-chain50 --seed 0 \
        --seconds 45 --trace 0

Each job runs in a fresh single-threaded worker process (one at a time),
because a CLI user pays for a cold process on every run.  With --trace 0
the run times set-up in several fresh processes, then runs at least two
jobs and as many more as fit in --seconds, and reports the end-to-end metrics
named in BENCHMARK.json as medians.  With --trace 1 it runs one untraced
and one traced job and reports the per-layer metrics of the traced one.
Every job's output is gated and hashed; the last line of standard output
is the JSON result.  See perfbench/NOTE.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

SETUP_PER_GAP = 3             # set-up-only processes around each job
MIN_JOBS = 2                  # job_s is a median of at least this many jobs
DEADLINE_S = 170.0            # a whole run must end within 180 s
CHILD_ENV = {                 # single-threaded BLAS in every worker
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    # on SIGTERM, unwind so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = _load_spec()
        with Workdir() as work:
            result = run(spec, work, args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def _load_spec() -> dict:
    if not (ROOT / "src" / "issnet" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'issnet'}; "
                         f"run from a source checkout")
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}")


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        self.path = STATE / "work" / str(os.getpid())
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


# Worker processes -------------------------------------------------------


def write_inputs(work: Path, workload: str, seed: int) -> dict:
    """The job file the workers load, and the CLI config inside it."""
    inputs = workloads.make_inputs(workload, seed)
    (work / "inputs.json").write_text(json.dumps(inputs))
    if "config" in inputs:
        (work / "config.json").write_text(json.dumps(inputs["config"]))
    return inputs


def spawn(work: Path, workload: str, tag: str, *, job: bool,
          deadline: float, spans: Path | None = None) -> dict:
    """Start one worker, wait for it, and return its report plus setup_s.

    With ``spans`` the job is traced and its spans are written there."""
    out_dir = work / f"out-{tag}"
    out_dir.mkdir()
    result_path = work / f"result-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(work / "inputs.json"),
           "--config", str(work / "config.json"),
           "--out-dir", str(out_dir),
           "--result", str(result_path), "--job-id", tag]
    if job:
        cmd.append("--job")
    if spans is not None:
        cmd += ["--trace", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next worker")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    rep = json.loads(result_path.read_text())
    src = str(ROOT / "src")
    if not os.path.abspath(rep["issnet_file"]).startswith(src + os.sep):
        raise BenchError(f"imported {rep['issnet_file']}, not the checkout")
    rep["setup_s"] = rep["ready"] - start
    rep["wall_s"] = time.monotonic() - start
    rep["stderr"] = proc.stderr
    rep["out_dir"] = str(out_dir)
    return rep


def run(spec: dict, work: Path, args) -> dict:
    inputs = write_inputs(work, args.workload, args.seed)
    began = time.monotonic()
    deadline = began + DEADLINE_S

    def setup_samples(tag):
        return [spawn(work, args.workload, f"setup{tag}-{i}", job=False,
                      deadline=deadline) for i in range(SETUP_PER_GAP)]

    # set-up samples before, between and after the jobs, so that they span
    # the same stretch of time as the jobs
    setups, jobs = setup_samples("a"), []
    min_jobs = 1 if args.trace else MIN_JOBS
    while len(jobs) < min_jobs or (
            not args.trace and time.monotonic() - began + statistics.median(
                j["wall_s"] for j in jobs) <= args.seconds):
        jobs.append(spawn(work, args.workload, f"job{len(jobs)}", job=True,
                          deadline=deadline))
        setups += setup_samples(len(jobs))
    traced = None
    if args.trace:
        spans = STATE / f"spans-{args.workload}-seed{args.seed}.json"
        traced = spawn(work, args.workload, "traced", job=True,
                       deadline=deadline, spans=spans)

    checked = jobs + ([traced] if traced else [])
    attempted = sum(j["attempted"] for j in checked)
    failed = sum(j["failed"] for j in checked)
    problems = [f"{j['out_dir']}: {p}" for j in checked for p in j["problems"]]
    for mismatch in _digest_mismatches(args, checked):
        problems.append(mismatch)
        failed += 1
    failed = min(failed, attempted)

    job_s = statistics.median(j["job_s"] for j in jobs)
    end_to_end = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + jobs),
        "job_s": job_s,
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }
    graph_s = sorted(g for j in jobs for g in j["graph_s"])
    env = _provenance(args, inputs, jobs[0]["env"])

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}  "
          f"set-up samples {len(setups) + len(jobs)}")
    print("env " + json.dumps(env, sort_keys=True))
    for p in problems:
        print(f"CHECK FAILED {p}")
    for j in checked:
        if j["stderr"].strip():
            print(f"stderr {j['out_dir']}: {j['stderr'].strip()[-500:]}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in end_to_end.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")
    print("job_s samples " + " ".join(f"{j['job_s']:.4g}" for j in jobs))
    print("setup_s samples " + " ".join(f"{r['setup_s']:.3g}"
                                        for r in setups + jobs))
    if graph_s:
        q = statistics.quantiles(graph_s, n=10, method="inclusive")
        print(f"graph_s.p50 {statistics.median(graph_s):.6g} s  "
              f"graph_s.p90 {q[8]:.6g} s  ({len(graph_s)} graphs)")
    print(f"error_rate {failed / attempted:.6g} ratio  "
          f"({failed} failed of {attempted} attempted)")

    if args.trace:
        layers = dict(traced["layers"])
        layers["cli.output_bytes"] = traced["output_bytes"]
        layers["trace.overhead_s"] = traced["job_s"] - job_s
        print(f"spans {spans}")
        for name in traced["absent"]:
            print(f"ABSENT trace target {name}")
        metrics = _select(spec["per_layer"], layers)
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = _select(spec["end_to_end"], end_to_end)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _select(declared: list, values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


# Digests and provenance -------------------------------------------------


def _source_sha256() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _digest_mismatches(args, jobs: list) -> list[str]:
    """Jobs of the same code and seed must write identical results, within
    this run and against earlier runs recorded in .perfbench/digests.json."""
    key = f"{_source_sha256()}:{args.workload}:{args.seed}"
    store_path = STATE / "digests.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    reference = store.get(key, jobs[0]["digests"])
    out = [f"{j['out_dir']}: result digests differ from an earlier job of "
           f"the same code and seed" for j in jobs
           if j["digests"] != reference]
    if key not in store and not out and not any(j["problems"] for j in jobs):
        store[key] = reference
        tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, store_path)
    return out


def _git() -> dict | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=ROOT,
                               capture_output=True, text=True, check=True,
                               timeout=30).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return None
    return {"sha": sha, "dirty": dirty}


def _provenance(args, inputs: dict, worker_env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **worker_env,
        "worker_blas_threads": CHILD_ENV,
        "git": _git(),
        "source_sha256": _source_sha256(),
        "workload_seed": args.seed,
        "inputs_sha256": workloads.inputs_sha256(inputs),
    }


if __name__ == "__main__":
    sys.exit(main())
