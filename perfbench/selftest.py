"""The benchmark's own test: exact counts repeat between traced runs.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Runs two traced jobs of each workload (default: all four) in fresh
processes and requires every count metric (calls, rows, members, steps,
witnesses, cycles, input and curve evaluations, computed state bytes) and
every result digest to be equal, and every output gate to pass.  Exits 1
on any difference.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
import workloads

EXACT_UNITS = ("count", "B_computed")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = p.parse_args()
    spec = run._load_spec()
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in EXACT_UNITS]
    failures = 0
    for name in args.workload or workloads.WORKLOADS:
        with run.Workdir() as work:
            run.write_inputs(work, name, args.seed)
            deadline = time.monotonic() + 600.0
            a, b = (run.spawn(work, name, tag, job=True, deadline=deadline,
                              spans=work / f"spans-{tag}.json")
                    for tag in ("a", "b"))
        diffs = [f"{m}: {a['layers'][m]} != {b['layers'][m]}" for m in exact
                 if a["layers"][m] != b["layers"][m]]
        if a["digests"] != b["digests"]:
            diffs.append("result digests differ")
        diffs += a["problems"] + b["problems"]
        failures += bool(diffs)
        print(f"{name}: {'FAIL' if diffs else 'ok'} "
              f"({len(exact)} counts compared)")
        for d in diffs:
            print(f"  {d}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
