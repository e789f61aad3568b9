"""A/A steadiness check: two alternating sets of runs of one commit.

Run from the repository root::

    python3 perfbench/aa.py --runs 10 --sets 2

Run ``i`` of every set uses seed ``--seed-base + i``; the sets
alternate which goes first.  For each workload and end-to-end metric
the script prints each set's median, quartiles and spread (the
interquartile distance as a share of the median), then whether the
sets agree within the bounds of ``BENCHMARK.json``:

* every spread except ``setup_s``'s is within the metric's bound
  (``steady`` when also below a third of it);
* the second set's median is not worse than the first's by more than
  the bound.

The pure-Python calibration loop each run times (``calibration_s`` in
its stamp) is printed beside it as a drift diagnostic only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload: str, seed: int, seconds: int):
    command = [
        sys.executable, RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    began = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - began
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    stamp = json.loads(lines[-2])["stamp"]
    result = json.loads(lines[-1])
    return result, stamp, wall


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main() -> int:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in bench["workloads"])
    )
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {
        (s, w): {name: [] for name in metrics}
        for s in range(args.sets)
        for w in workloads
    }
    log = []
    for index in range(args.runs):
        sets = list(range(args.sets))
        if index % 2:
            sets.reverse()
        for which in sets:
            for workload in workloads:
                seed = args.seed_base + index
                result, stamp, wall = run_once(workload, seed, args.seconds)
                if not result["correct"]:
                    print(f"INCORRECT {workload} {seed}: {stamp['failures']}")
                for name in metrics:
                    values[(which, workload)][name].append(
                        result["metrics"][name]["value"]
                    )
                calibration = ", ".join(
                    f"{c * 1e3:.1f}" for c in stamp["calibration_s"]
                )
                print(
                    f"set {'AB'[which]} run {index} {workload:26s} "
                    f"seed {seed} "
                    f"wall {wall:5.1f}s ops/s "
                    f"{result['metrics']['ops_per_s']['value']:8.3f} "
                    f"calibration [{calibration}] ms",
                    flush=True,
                )
                log.append({"set": which, "run": index, "workload": workload,
                            "seed": seed, "result": result, "stamp": stamp})

    all_ok = True
    for workload in workloads:
        print(f"\n{workload}")
        for name, spec in metrics.items():
            cells = []
            ok = True
            per_set = []
            for which in range(args.sets):
                median, q1, q3, share = spread(values[(which, workload)][name])
                per_set.append(median)
                mark = "steady" if share < spec["bound"] / 3 else "wide"
                if name != "setup_s" and share > spec["bound"]:
                    ok = False
                    mark = "TOO NOISY"
                cells.append(
                    f"{'AB'[which]}: {median:10.4f} [{q1:10.4f}, {q3:10.4f}] "
                    f"spread {share:6.3f} {mark}"
                )
            if args.sets == 2:
                worse = worse_by(per_set[0], per_set[1], spec["better"])
                if worse > spec["bound"]:
                    ok = False
                cells.append(f"B vs A worse by {worse:+.3f}")
            all_ok &= ok
            print(
                f"  {name:14s} bound {spec['bound']:.2f}  " + "  ".join(cells)
                + ("" if ok else "  DISAGREE")
            )
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", f"aa-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(log, handle)
    print(f"\n{'AGREE' if all_ok else 'DISAGREE'} (runs logged to {path})")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
