"""One fresh benchmark process: set up, optionally run one job, report.

Usage (perfbench/run.py starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py --workload NAME --inputs JOB.json \
        --config CONFIG.json --out-dir DIR --result RESULT.json [--job] [--trace SPANS.json]

Set-up is the imports, the load of the job file and catalog instantiation;
the moment it ends is reported on the system-wide monotonic clock, so the
parent can time it from before the process started.  With ``--job`` the
job runs once, its output is gated and hashed, and ``ru_maxrss`` is read
before the gates run.  With ``--trace`` the layer functions are patched
after set-up and the spans are written to SPANS.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--job", action="store_true")
    p.add_argument("--trace", default=None)
    p.add_argument("--job-id", default="job")
    args = p.parse_args()

    import workloads

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    workloads.setup(inputs)
    ready = time.monotonic()

    import issnet
    result = {"ready": ready, "issnet_file": issnet.__file__}
    if args.job:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(args.job_id)
            tracer.install()
        start = time.perf_counter()
        try:
            if tracer is not None:
                job = tracer.run_root(workloads.run_job, inputs, args.config,
                                      args.out_dir)
            else:
                job = workloads.run_job(inputs, args.config, args.out_dir)
        except Exception:
            # a program crash is a failed job, reported like a failed gate
            job = {"code": None, "job_s": time.perf_counter() - start,
                   "graph_s": [], "results": [],
                   "error": traceback.format_exc(limit=-3)}
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        problems, attempted, failed, digests = workloads.check_outputs(
            args.workload, inputs, job, args.out_dir)
        result.update({
            "code": job["code"], "job_s": job["job_s"],
            "graph_s": job["graph_s"], "peak_rss_mb": rss_kb / 1024.0,
            "problems": problems, "attempted": attempted, "failed": failed,
            "digests": digests,
            "output_bytes": sum(os.path.getsize(os.path.join(args.out_dir, f))
                                for f in os.listdir(args.out_dir)),
        })
        if tracer is not None:
            from tracer import layer_metrics
            dump = tracer.dump()
            with open(args.trace, "w") as fh:
                json.dump(dump, fh)
            result["layers"] = layer_metrics(dump)
            result["absent"] = dump["absent"]
    result["env"] = _environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _environment() -> dict:
    import networkx
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    sys.exit(main())
