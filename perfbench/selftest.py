"""Tracer self-test: two traced runs must give identical layer counts.

Run from the repository root::

    python3 perfbench/selftest.py [--workloads zoo_joint_dfs,serve_mix]

Runs ``run.py --trace 1`` twice per workload with the same seed, in
separate processes, and compares every per-layer metric that is a
count or a ratio of counts.  Times (``*_s``, ``*_per_s``) and the
timing ratios (``speedup``, ``overhead``) are expected to differ and
are skipped.  Exits non-zero on any difference or incorrect run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
TIMING_RATIOS = ("synth.parallel.speedup", "trace.overhead")


def is_count(name: str) -> bool:
    return not (
        name.endswith("_s") or name.endswith("per_s") or name in TIMING_RATIOS
    )


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported incorrect answers")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in bench["workloads"])
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failed = False
    for workload in args.workloads.split(","):
        first = traced_run(workload, args.seed)
        second = traced_run(workload, args.seed)
        counts = sorted(name for name in first if is_count(name))
        diffs = [n for n in counts if first[n] != second[n]]
        nonzero = sum(1 for n in counts if first[n])
        for name in diffs:
            print(f"  {workload} {name}: {first[name]} != {second[name]}")
        print(
            f"{workload}: {len(counts)} count metrics ({nonzero} nonzero), "
            f"{'identical' if not diffs else f'{len(diffs)} DIFFER'}"
        )
        failed |= bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
