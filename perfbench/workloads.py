"""The four benchmark workloads: fixed op lists, timed passes, checks.

A *pass* runs every op of a workload's fixed list once, in an order
drawn from the workload seed (the seed permutes the list; it never
changes which scenarios, spaces or jobs are in it).  Each op returns
its raw outputs; :meth:`Workload.check` verifies them against the
committed expected answers (``expected.json``) outside the timed
region.

Every workload exposes the same surface:

* ``generate()`` builds the op inputs and can be repeated (set-up);
  ``boot()`` is the rest of set-up (the serve daemon boot);
  ``prepare_checks()`` builds what only the checks need (untimed);
* ``run_pass(order, tracer)`` returns ``(wall_s, samples)`` where
  ``samples[op] = (latency_s, output)``;
* ``check(op, output)`` returns a list of failure strings;
* ``ops`` is the fixed list; ``heavy[op]`` marks the heavy class.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import shutil
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import zoo
from repro.apps.generators import generate_system
from repro.serve.client import ServeClient
from repro.serve.engine import ServeEngine
from repro.serve.http import ServeHTTP
from repro.serve.jobs import JobSpec, build_workload, mapping_from_payload
from repro.synth import (
    ArchitectureTemplate,
    BranchBoundExplorer,
    ProblemFamily,
    ReferenceSearchState,
    explore_space,
)
from repro.synth.checkpoint import Checkpointer, SearchCheckpoint
from repro.variants.variant_space import VariantSpace

#: Zoo coordinates of the two joint-problem workloads: every family at
#: size ``bench``, zoo seeds 0-3 (24 scenarios).
ZOO_SEEDS = (0, 1, 2, 3)
ZOO_LIST = tuple(
    (family, seed) for family in zoo.FAMILIES for seed in ZOO_SEEDS
)

#: Zoo spaces of the jobs=2 workload: bench spaces with >= 8
#: selections (families whose spaces are smaller are skipped), plus
#: the knapsack-hard jobs-sweep space.
SPACE_SEEDS = (0, 1, 2)
MIN_SELECTIONS = 8
SPACE_FAMILIES = (
    "deep_chain",
    "exclusion_pathology",
    "streaming_pipeline",
    "chained",
)
SPACE_JOBS = 2

#: Checkpoint cadence of the best-first workload (nodes per snapshot).
CHECKPOINT_EVERY = 256

#: Serve daemon shape: worker threads and closed-loop clients.
SERVE_WORKERS = 2

_HARD = {"max_processors": 1, "processor_cost": 0.0, "processor_capacity": 0.5}


def _generated(seed, n_variants, cluster_size, common_processes, **arch):
    space = {
        "kind": "generated",
        "seed": seed,
        "n_variants": n_variants,
        "cluster_size": cluster_size,
        "common_processes": common_processes,
    }
    space.update(arch)
    return {"space": space}


def _static(job):
    return dict(job, explorer={"ordering": "static"})


#: Distinct serve job keys.  Each generated space is its own problem
#: family, and a ``*_static`` key shares its family with the key it
#: follows, so it is always warm-seeded by that key's result.
SERVE_KEYS: Dict[str, dict] = {
    "figure2": {"space": {"kind": "figure2"}},
    "hard3": _generated(3, 6, 6, 6, **_HARD),
    "light10": _generated(10, 3, 2, 2),
    "mid11": _generated(11, 4, 3, 3),
    "hard4": _generated(4, 6, 6, 6, **_HARD),
    "hard5": _generated(5, 6, 5, 5, **_HARD),
    "light12": _generated(12, 3, 2, 2),
    "mid13": _generated(13, 4, 3, 3),
}
SERVE_KEYS["hard3_static"] = _static(SERVE_KEYS["hard3"])
SERVE_KEYS["hard4_static"] = _static(SERVE_KEYS["hard4"])

#: Per client: blocks of ``(key, expected cache status)``.  A block
#: holds every job of one family, in a fixed order; the seed permutes
#: blocks, never jobs inside a block, so every pass has the same
#: hit/miss/warm split.  Keys never cross clients.
SERVE_CLIENTS = (
    (
        (("figure2", "miss"), ("figure2", "hit")),
        (
            ("hard3", "miss"),
            ("hard3", "hit"),
            ("hard3_static", "warm"),
            ("hard3_static", "warm"),
        ),
        (("light10", "miss"), ("light10", "hit")),
        (("mid11", "miss"), ("mid11", "hit")),
    ),
    (
        (
            ("hard4", "miss"),
            ("hard4", "hit"),
            ("hard4_static", "warm"),
            ("hard4_static", "warm"),
        ),
        (("hard5", "miss"), ("hard5", "hit")),
        (("light12", "miss"), ("light12", "hit")),
        (("mid13", "miss"), ("mid13", "hit")),
    ),
)


def jobs_sweep_space() -> Tuple[ProblemFamily, VariantSpace]:
    """The knapsack-hard eight-selection space of the jobs sweep.

    Zero processor cost and a tight capacity force every selection
    into a hardware-subset knapsack on one processor.
    """
    system = generate_system(
        seed=3, n_variants=8, cluster_size=10, common_processes=10
    )
    architecture = ArchitectureTemplate(
        name="jobs-sweep-bench",
        max_processors=1,
        processor_cost=0.0,
        processor_capacity=0.5,
    )
    family = ProblemFamily(
        name="jobs_sweep",
        library=system.library,
        architecture=architecture,
    )
    return family, VariantSpace(system.vgraph)


def space_list() -> List[Tuple[str, ProblemFamily, VariantSpace]]:
    """``(name, family, space)`` of every op of ``zoo_space_jobs2``."""
    spaces = []
    for family in SPACE_FAMILIES:
        for seed in SPACE_SEEDS:
            scenario = zoo.generate(family, seed, "bench")
            if scenario.space.count() >= MIN_SELECTIONS:
                spaces.append(
                    (scenario.name, scenario.problem_family, scenario.space)
                )
    family, space = jobs_sweep_space()
    spaces.append(("jobs_sweep", family, space))
    return spaces


def selection_problems(family, space) -> list:
    """Every selection's problem, in enumeration order (for checks)."""
    return [
        family.problem_for(graph) for _sel, graph in space.iter_applications()
    ]


def load_expected(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Answer checks shared by every workload
# ----------------------------------------------------------------------
def check_mapping(problem, mapping, cost) -> Optional[str]:
    """Re-evaluate ``mapping`` with the reference state at ``cost``."""
    if mapping is None:
        return "no mapping returned"
    reference = ReferenceSearchState(problem)
    for unit, target in mapping.assignment.items():
        reference.assign(unit, target)
    if not reference.complete:
        return "mapping leaves units unassigned"
    evaluation = reference.evaluation()
    if not evaluation.feasible:
        return "mapping re-evaluates infeasible"
    if evaluation.total_cost != cost:
        return f"mapping re-evaluates to {evaluation.total_cost}, not {cost}"
    return None


def floor_tolerance(problem, on_grid: bool) -> float:
    """How far a proven floor may sit from the reference cost.

    On the 1/64 grid the integer kernel is bit-exact, so the floor must
    equal the cost.  Off the grid (decimal generator values) the
    kernel's documented accuracy is ~n * 2**-33 per aggregate of n
    units; a cost is two aggregates (hardware + processors).
    """
    return 0.0 if on_grid else len(problem.units) * 2.0**-32


def check_exploration(
    problem, result, expected_cost, on_grid=True
) -> List[str]:
    """Cost, proof and mapping checks of one exploration result."""
    if expected_cost is None:
        return [] if not result.feasible else ["feasible, expected none"]
    failures = []
    if result.cost != expected_cost:
        failures.append(f"cost {result.cost} != expected {expected_cost}")
    if not result.optimal:
        failures.append("not proven optimal")
    gap = abs(result.proof_floor - result.cost)
    if gap > floor_tolerance(problem, on_grid):
        failures.append(
            f"proof floor {result.proof_floor} != cost {result.cost}"
        )
    problem_text = check_mapping(problem, result.mapping, result.cost)
    if problem_text is not None:
        failures.append(problem_text)
    return failures


def _no_span(_name):
    return contextlib.nullcontext()


class Workload:
    """Base: a fixed op list with light/heavy classes."""

    name = ""
    #: Passes made by a traced run (fixed work, so counts repeat).
    trace_passes = 1
    #: Multiplier on the benchmark process's peak RSS for workers.
    pool_workers = 0

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.ops: List[str] = []
        self.heavy: List[bool] = []

    def _classify(self, work: Sequence[float]) -> None:
        """Heavy = expected work above the list's median expected work."""
        cut = statistics.median(work)
        self.heavy = [value > cut for value in work]

    def generate(self) -> None:
        """Build the op inputs (repeatable; timed as set-up)."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Build what only the answer checks need (untimed)."""

    def boot(self) -> None:
        """Extra per-setup work (the serve daemon boot)."""

    def run_pass(self, order, tracer=None):
        raise NotImplementedError

    def check(self, op: int, output) -> List[str]:
        raise NotImplementedError

    def stamp(self) -> Dict[str, object]:
        return {}

    def _timed_ops(self, order, run_op, tracer):
        samples = {}
        start = time.perf_counter()
        for op in order:
            if tracer is not None:
                tracer.set_op(op)
            began = time.perf_counter()
            output = run_op(op)
            samples[op] = (time.perf_counter() - began, output)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.set_op(None)
        return wall, samples


# ----------------------------------------------------------------------
# Zoo joint problems (depth-first and checkpointed best-first)
# ----------------------------------------------------------------------
class ZooJointDfs(Workload):
    name = "zoo_joint_dfs"
    frontier = "dfs"

    def __init__(self, expected: dict) -> None:
        super().__init__(expected)
        self.ops = [f"{family}-s{seed}-bench" for family, seed in ZOO_LIST]
        key = "nodes_dfs" if self.frontier == "dfs" else "nodes_best_first"
        self._classify([expected["zoo"][name][key] for name in self.ops])
        self.problems = []

    def generate(self) -> None:
        self.problems = [
            zoo.generate(family, seed, "bench").joint_problem()
            for family, seed in ZOO_LIST
        ]

    def explorer(self) -> BranchBoundExplorer:
        return BranchBoundExplorer(frontier=self.frontier)

    def run_pass(self, order, tracer=None):
        problems = self.problems
        return self._timed_ops(
            order, lambda op: self.explorer().explore(problems[op]), tracer
        )

    def check(self, op, output):
        return check_exploration(
            self.problems[op],
            output,
            self.expected["zoo"][self.ops[op]]["cost"],
        )

    def stamp(self):
        return {"backend": self.explorer().backend, "scenarios": self.ops}


class ZooJointBestFirstCkpt(ZooJointDfs):
    name = "zoo_joint_bestfirst_ckpt"
    frontier = "best-first"

    def run_pass(self, order, tracer=None):
        problems = self.problems
        span = tracer.span if tracer is not None else _no_span

        def run_op(op):
            problem = problems[op]
            snapshots: List[str] = []
            sink = Checkpointer(
                every_nodes=CHECKPOINT_EVERY,
                sink=lambda ck: snapshots.append(ck.to_json()),
            )
            result = self.explorer().explore(problem, checkpoint=sink)
            # The middle snapshot; the last one is the completion.
            middle = snapshots[(len(snapshots) - 1) // 2]
            with span("synth.checkpoint.resume"):
                checkpoint = SearchCheckpoint.from_json(middle)
                resume = Checkpointer(resume=checkpoint)
                resumed = self.explorer().explore(problem, checkpoint=resume)
            return result, resumed

        return self._timed_ops(order, run_op, tracer)

    def check(self, op, output):
        result, resumed = output
        failures = super().check(op, result)
        for field in ("cost", "proof_floor", "nodes_explored"):
            if getattr(resumed, field) != getattr(result, field):
                failures.append(
                    f"resumed {field} {getattr(resumed, field)} != "
                    f"uninterrupted {getattr(result, field)}"
                )
        return failures


# ----------------------------------------------------------------------
# Variant spaces over the process pool
# ----------------------------------------------------------------------
class ZooSpaceJobs2(Workload):
    name = "zoo_space_jobs2"
    pool_workers = SPACE_JOBS

    def __init__(self, expected: dict) -> None:
        super().__init__(expected)
        self.spaces = []
        self.problems = []
        self.ops = sorted(expected["spaces"])
        self._classify(
            [expected["spaces"][name]["nodes"] for name in self.ops]
        )
        #: ``jobs`` of the timed passes; a traced run adds one jobs=1 pass.
        self.jobs = SPACE_JOBS

    def generate(self) -> None:
        spaces = {entry[0]: entry for entry in space_list()}
        if sorted(spaces) != self.ops:
            raise RuntimeError(f"spaces {sorted(spaces)} != {self.ops}")
        self.spaces = [spaces[name] for name in self.ops]

    def prepare_checks(self) -> None:
        self.problems = [
            selection_problems(family, space)
            for _name, family, space in self.spaces
        ]

    def run_pass(self, order, tracer=None):
        spaces = self.spaces
        jobs = self.jobs
        return self._timed_ops(
            order,
            lambda op: explore_space(spaces[op][1], spaces[op][2], jobs=jobs),
            tracer,
        )

    def check(self, op, output):
        expected = self.expected["spaces"][self.ops[op]]["costs"]
        results = output.results
        if len(results) != len(expected):
            return [f"{len(results)} selections, expected {len(expected)}"]
        failures = []
        # The jobs-sweep space is the only one built off the 1/64 grid.
        on_grid = self.ops[op] != "jobs_sweep"
        for index, (sel, cost) in enumerate(zip(results, expected)):
            for text in check_exploration(
                self.problems[op][index], sel.exploration, cost, on_grid
            ):
                failures.append(f"selection {index}: {text}")
        return failures

    def stamp(self):
        return {
            "backend": BranchBoundExplorer().backend,
            "jobs": self.jobs,
            "spaces": self.ops,
        }


# ----------------------------------------------------------------------
# The serve daemon under two closed-loop clients
# ----------------------------------------------------------------------
class _Daemon:
    """The real HTTP daemon on an ephemeral port, in a loop thread."""

    def __init__(self, state_dir: str) -> None:
        self.loop = asyncio.new_event_loop()
        self.engine = ServeEngine(workers=SERVE_WORKERS, state_dir=state_dir)
        self.server = ServeHTTP(self.engine, host="127.0.0.1", port=0)
        self.thread = threading.Thread(target=self._run)
        self.thread.start()
        self.port = asyncio.run_coroutine_threadsafe(
            self._boot(), self.loop
        ).result(60)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    async def _boot(self) -> int:
        await self.server.start()
        return self.server.bound_port

    def stop(self) -> None:
        try:
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self.loop
            ).result(60)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(60)
            if self.thread.is_alive():
                raise RuntimeError("serve loop thread did not stop")
            self.loop.close()


class ServeMix(Workload):
    name = "serve_mix"
    trace_passes = 3

    def __init__(self, expected: dict, workdir: str) -> None:
        super().__init__(expected)
        self.workdir = workdir
        #: (client, block, key, expected cache status) per op.
        self.jobs: List[Tuple[int, int, str, str]] = []
        for client, blocks in enumerate(SERVE_CLIENTS):
            for block, jobs in enumerate(blocks):
                for key, status in jobs:
                    self.jobs.append((client, block, key, status))
        self.ops = [f"c{c}.b{b}.{key}.{s}" for c, b, key, s in self.jobs]
        self.heavy = [status != "hit" for _c, _b, _k, status in self.jobs]
        self.problems: Dict[str, Dict[tuple, object]] = {}
        self.daemon_runs = 0
        #: Per traced pass: summed job run time and queue wait (s).
        self.layer_totals = {
            "run_s": 0.0,
            "queue_wait_s": 0.0,
            "shed": 0,
            "failed": 0,
        }

    def generate(self) -> None:
        """Job payloads are constants; nothing to build per set-up."""

    def prepare_checks(self) -> None:
        problems = {}
        for key, payload in SERVE_KEYS.items():
            workload = build_workload(JobSpec.from_payload(payload))
            family = workload.family
            problems[key] = {
                VariantSpace.selection_key(sel): family.problem_for(graph)
                for sel, graph in workload.space.iter_applications()
            }
        self.problems = problems

    def _state_dir(self) -> str:
        self.daemon_runs += 1
        path = os.path.join(self.workdir, f"serve-{self.daemon_runs}")
        os.makedirs(path)
        return path

    def boot(self) -> None:
        state_dir = self._state_dir()
        _Daemon(state_dir).stop()
        shutil.rmtree(state_dir)

    def _client_order(self, order) -> List[List[int]]:
        """Each client's op sequence: blocks in ``order``'s block order."""
        first_ops: Dict[Tuple[int, int], List[int]] = {}
        for op, (client, block, _key, _status) in enumerate(self.jobs):
            first_ops.setdefault((client, block), []).append(op)
        sequences: List[List[int]] = [[] for _ in SERVE_CLIENTS]
        seen = set()
        for op in order:
            client, block = self.jobs[op][:2]
            if (client, block) not in seen:
                seen.add((client, block))
                sequences[client].extend(first_ops[(client, block)])
        return sequences

    def run_pass(self, order, tracer=None):
        state_dir = self._state_dir()
        daemon = _Daemon(state_dir)
        samples: Dict[int, tuple] = {}
        try:
            wall = self._drive(
                daemon.port, self._client_order(order), samples, tracer
            )
            if tracer is not None:
                tracer.paused = True
            client = ServeClient(
                host="127.0.0.1", port=daemon.port, timeout=120.0
            )
            for _latency, output in samples.values():
                if (output.get("event") or {}).get("event") == "done":
                    output["text"] = client.result_text(output["job_id"])
                    output["view"] = client.job(output["job_id"])
            if tracer is not None:
                self._layer_totals(daemon.engine, samples)
        finally:
            try:
                daemon.stop()
            finally:
                if tracer is not None:
                    tracer.paused = False
                shutil.rmtree(state_dir, ignore_errors=True)
        self._byte_identity(samples)
        return wall, samples

    def _drive(self, port, sequences, samples, tracer) -> float:
        lock = threading.Lock()

        def client_loop(ops):
            client = ServeClient(host="127.0.0.1", port=port, timeout=120.0)
            for op in ops:
                if tracer is not None:
                    tracer.set_op(op)
                payload = SERVE_KEYS[self.jobs[op][2]]
                began = time.perf_counter()
                try:
                    view = client.submit(payload)
                    terminal = None
                    for event in client.events(view["job_id"]):
                        terminal = event
                    latency = time.perf_counter() - began
                    output = {"job_id": view["job_id"], "event": terminal}
                except Exception as exc:  # recorded as a failed op
                    latency = time.perf_counter() - began
                    output = {"error": f"{type(exc).__name__}: {exc}"}
                with lock:
                    samples[op] = (latency, output)

        threads = [
            threading.Thread(target=client_loop, args=(ops,))
            for ops in sequences
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180)
        wall = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve client thread did not finish")
        return wall

    def _layer_totals(self, engine, samples) -> None:
        totals = self.layer_totals
        for op, (latency, output) in samples.items():
            view = output.get("view") or {}
            if self.jobs[op][3] != "hit" and "elapsed_seconds" in view:
                totals["run_s"] += view["elapsed_seconds"]
                totals["queue_wait_s"] += latency - view["elapsed_seconds"]
        stats = engine.stats()
        totals["shed"] += stats["jobs_shed"]
        totals["failed"] += stats["jobs_failed"]

    def _byte_identity(self, samples) -> None:
        """Mark each hit whose body differs from its key's miss body."""
        miss_text = {}
        for op, (_lat, output) in samples.items():
            if self.jobs[op][3] == "miss" and "text" in output:
                miss_text[self.jobs[op][2]] = output["text"]
        for op, (_lat, output) in samples.items():
            if self.jobs[op][3] == "hit" and "text" in output:
                output["same_as_miss"] = (
                    output["text"] == miss_text.get(self.jobs[op][2])
                )

    def check(self, op, output):
        if output.get("error") is not None:
            return [output["error"]]
        _client, _block, key, status = self.jobs[op]
        event = output["event"]
        if "text" not in output:
            return [f"terminal event {event!r}"]
        failures = []
        if event.get("cache") != status:
            failures.append(f"cache {event.get('cache')!r}, not {status!r}")
        if status == "hit" and not output.get("same_as_miss"):
            failures.append("hit body differs from its miss body")
        result = json.loads(output["text"])
        expected = self.expected["serve"][key]
        if len(result["selections"]) != expected["selections"]:
            failures.append(f"{len(result['selections'])} selections")
        if not all(sel["optimal"] for sel in result["selections"]):
            failures.append("a selection is not proven optimal")
        best = result["best"]
        want = expected["best_cost"]
        if best is None or best["cost"] != want:
            failures.append(f"best {best and best['cost']} != {want}")
        else:
            selection = VariantSpace.selection_key(best["selection"])
            problem = self.problems[key][selection]
            text = check_mapping(
                problem, mapping_from_payload(best["mapping"]), best["cost"]
            )
            if text is not None:
                failures.append(text)
        return failures

    def stamp(self):
        return {
            "backend": BranchBoundExplorer().backend,
            "workers": SERVE_WORKERS,
            "clients": len(SERVE_CLIENTS),
            "jobs": self.ops,
        }


def make_workload(name: str, expected: dict, workdir: str) -> Workload:
    if name == "zoo_joint_dfs":
        return ZooJointDfs(expected)
    if name == "zoo_joint_bestfirst_ckpt":
        return ZooJointBestFirstCkpt(expected)
    if name == "zoo_space_jobs2":
        return ZooSpaceJobs2(expected)
    if name == "serve_mix":
        return ServeMix(expected, workdir)
    raise SystemExit(f"unknown workload {name!r}")

