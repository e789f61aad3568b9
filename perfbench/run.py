"""Wall-clock benchmark of ``repro``: time to a proven optimum.

Run from the repository root::

    python3 perfbench/run.py --workload zoo_joint_dfs --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric from a separate traced
phase (see ``tracer.py``).  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the environment stamp.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

#: Seed used when none is given, and the seed kept back for checking
#: a claimed gain after the change was written (never tune on it).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Whole passes per measurement at least (more if time allows).
MIN_PASSES = 3
#: Set-up repetitions whose median is reported.
SETUP_REPEATS = 3
#: Tail percentiles tried, highest first; the first with >= 10 samples
#: beyond it is reported (p50 when none has).
TAIL_LADDER = (99, 95, 90, 75, 50)

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.synth, repro.zoo, repro.serve, repro.apps.generators; "
    "print(time.perf_counter() - t)"
)


def calibration_s() -> float:
    """A fixed pure-Python loop: a drift diagnostic, never a metric."""
    began = time.perf_counter()
    total = 0
    for value in range(400_000):
        total += value * value % 7
    return time.perf_counter() - began


def import_probe_s() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def pass_order(n_ops: int, seed: int, index: int):
    """The op order of one pass: a permutation drawn from the seed."""
    order = list(range(n_ops))
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


def nearest_rank(sorted_values, q: float):
    index = max(0, math.ceil(q / 100 * len(sorted_values)) - 1)
    return sorted_values[index], len(sorted_values) - index - 1


def tail(values):
    """``(value, percentile, samples beyond)`` per the tail ladder."""
    ordered = sorted(values)
    for q in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, q)
        if beyond >= 10:
            break
    return value, q, beyond


class Runner:
    """Set-up, timed passes and answer checks of one workload."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.pass_index = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _pass(self, tracer=None):
        workload = self.workload
        order = pass_order(len(workload.ops), self.seed, self.pass_index)
        self.pass_index += 1
        gc.collect()
        wall, samples = workload.run_pass(order, tracer)
        if tracer is not None:
            tracer.paused = True
        ok = {}
        for op, (latency, output) in samples.items():
            problems = workload.check(op, output)
            if problems:
                self.failures.append(
                    f"{workload.ops[op]}: {'; '.join(problems)}"
                )
            else:
                ok[op] = latency
        if tracer is not None:
            tracer.paused = False
        self.attempted += len(workload.ops)
        self.failed += len(workload.ops) - len(ok)
        return wall, ok, len(workload.ops)

    def setup(self) -> float:
        """Median of repeated set-ups, plus one warm-up pass."""
        imports = [import_probe_s() for _ in range(SETUP_REPEATS)]
        builds = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            self.workload.generate()
            self.workload.boot()
            builds.append(time.perf_counter() - began)
        self.workload.prepare_checks()
        warmup, _ok, _total = self._pass()
        return statistics.median(imports) + statistics.median(builds) + warmup

    def measure(self, seconds: float, min_passes: int, tracer=None):
        """Whole passes until ``seconds`` have gone by."""
        passes = []
        began = time.perf_counter()
        while (
            len(passes) < min_passes
            or time.perf_counter() - began < seconds
        ):
            passes.append(self._pass(tracer))
        return passes


def end_to_end(workload, passes, setup_s: float):
    """The end-to-end metric values and their stamp details."""
    per_op = {op: [] for op in range(len(workload.ops))}
    attempted = completed = 0
    rates = []
    for wall, ok, total in passes:
        attempted += total
        completed += len(ok)
        rates.append(len(ok) / wall)
        for op, latency in ok.items():
            per_op[op].append(latency)
    medians = {op: statistics.median(v) for op, v in per_op.items() if v}
    light = [m for op, m in medians.items() if not workload.heavy[op]]
    heavy = [m for op, m in medians.items() if workload.heavy[op]]
    samples = [x for v in per_op.values() for x in v]
    tail_value, tail_q, tail_beyond = tail(samples)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = self_kb + workload.pool_workers * child_kb
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
        "ok_frac": completed / attempted,
        "ops_per_s": statistics.median(rates),
        "op_geomean_ms": 1e3 * statistics.geometric_mean(medians.values()),
        "op_tail_ms": 1e3 * tail_value,
        "light_p50_ms": 1e3 * statistics.median(light),
        "heavy_p50_ms": 1e3 * statistics.median(heavy),
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [round(wall, 4) for wall, _ok, _total in passes],
        "samples": len(samples),
        "tail_percentile": tail_q,
        "tail_samples_beyond": tail_beyond,
        "heavy_ops": sum(workload.heavy),
    }
    return metrics, details


def traced(runner, seconds: float, trace_path: str):
    """Untraced baseline passes, then a fixed traced phase."""
    from tracer import Tracer, default_hooks, per_layer

    workload = runner.workload
    baseline = runner.measure(seconds / 2, 2)
    untraced_rate = statistics.median(
        len(ok) / wall for wall, ok, _t in baseline
    )

    tracer = Tracer()
    tracer.install(default_hooks())
    try:
        workload.generate()
        passes = [
            runner.measure(0, 1, tracer)[0]
            for _ in range(workload.trace_passes)
        ]
        if workload.name == "zoo_space_jobs2":
            # The same spaces in-process: the speedup's base, and the
            # only place the pool workload's kernel spans are visible.
            jobs, workload.jobs = workload.jobs, 1
            try:
                runner.measure(0, 1, tracer)
            finally:
                workload.jobs = jobs
    finally:
        tracer.uninstall()
    traced_rate = statistics.median(len(ok) / wall for wall, ok, _t in passes)
    tracer.write(trace_path)
    metrics = per_layer(tracer, getattr(workload, "layer_totals", {}))
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead"] = untraced_rate / traced_rate
    return metrics, {
        "spans_kept": tracer.span_count(),
        "trace_file": os.path.relpath(trace_path, ROOT),
    }


def declared(bench: dict, key: str):
    return {m["name"]: m["unit"] for m in bench[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    from repro.synth.backend import numpy
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        bench = json.load(handle)

    calibration_before = calibration_s()
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    expected = workloads.load_expected(os.path.join(HERE, "expected.json"))
    workload = workloads.make_workload(args.workload, expected, workdir)
    runner = Runner(workload, args.seed)
    try:
        setup_s = runner.setup()
        if args.trace:
            path = os.path.join(
                out_dir, f"trace-{args.workload}-s{args.seed}.jsonl"
            )
            values, details = traced(runner, args.seconds, path)
            units = declared(bench, "per_layer")
        else:
            passes = runner.measure(args.seconds, MIN_PASSES)
            values, details = end_to_end(workload, passes, setup_s)
            units = declared(bench, "end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        runner.failures.append(f"metrics not measured: {missing}")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__ if numpy is not None else None,
        "calibration_s": [calibration_before, calibration_s()],
        "failures": runner.failures[:20],
        **workload.stamp(),
        **details,
    }
    print(json.dumps({"stamp": stamp}))
    result = {
        "correct": not runner.failures and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
