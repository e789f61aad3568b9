"""In-memory span tracer installed around the layers of ``repro``.

The traced run wraps public functions and methods of each layer from
the outside (nothing in ``src/`` changes).  Every wrapped call is a
span: name, start, end, parent span, op id.  Self time is computed
online with a per-thread stack: when a span ends, its duration is
charged to its parent as child time, and its own self time is its
duration minus the child time it collected.

Hot kernel methods (``SearchState.assign`` and friends run tens of
thousands of times per op) are *aggregated*: they take part in the
stack, so parents' self times exclude them, but only per-name totals
are kept for them.  All other spans are kept individually and written
out by :meth:`Tracer.write` when the run ends.

Usage::

    tracer = Tracer()
    tracer.install(default_hooks())
    ...                      # traced work
    tracer.uninstall()
    tracer.summary()         # name -> Agg(calls, total_s, self_s, ...)
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional


class Hook(NamedTuple):
    """One wrap point: ``module:Owner.attr`` (or ``module:attr``)."""

    target: str
    #: Span name, or ``name(args)`` choosing it per call.
    name: object
    #: Aggregate only (no individual span records): hot kernel calls.
    hot: bool = False
    #: Wrap a generator function: each ``next()`` step is a span.
    generator: bool = False
    #: ``on_return(tracer, args, kwargs, result)`` for counters.
    on_return: Optional[Callable] = None


class _Agg:
    __slots__ = ("calls", "total", "self", "child_calls")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        #: Wrapped calls made directly from inside this span.
        self.child_calls = 0

    def merge(self, other: "_Agg") -> None:
        self.calls += other.calls
        self.total += other.total
        self.self += other.self
        self.child_calls += other.child_calls


class _ThreadState:
    __slots__ = ("index", "stack", "spans", "aggs", "counts", "next_id", "op")

    def __init__(self, index: int) -> None:
        self.index = index
        #: Open frames: [name, start, child_time, span_id, child_calls].
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.aggs: Dict[str, _Agg] = {}
        self.counts: Dict[str, float] = {}
        self.next_id = 0
        self.op: Optional[int] = None


class Tracer:
    """Span recorder with per-thread stacks (safe under threads)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: List[tuple] = []
        #: While set, wrappers call straight through (used around the
        #: benchmark's own answer checks, which reuse library code).
        self.paused = False

    # -- per-thread state ----------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def set_op(self, op: Optional[int]) -> None:
        """Tag the calling thread's following spans with ``op``."""
        self._state().op = op

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (thread-local, merged on read)."""
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def high_water(self, name: str, value: float) -> None:
        """Keep the maximum of a named gauge."""
        counts = self._state().counts
        if value > counts.get(name, 0):
            counts[name] = value

    # -- spans -----------------------------------------------------------
    def _enter(self, name: str) -> tuple:
        state = self._state()
        stack = state.stack
        if stack:
            stack[-1][4] += 1
        frame = [name, 0.0, 0.0, state.next_id, 0]
        state.next_id += 1
        stack.append(frame)
        frame[1] = perf_counter()
        return state, frame

    def _exit(self, state: _ThreadState, frame: list, keep: bool) -> None:
        end = perf_counter()
        stack = state.stack
        stack.pop()
        duration = end - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        name = frame[0]
        agg = state.aggs.get(name)
        if agg is None:
            agg = state.aggs[name] = _Agg()
        agg.calls += 1
        agg.total += duration
        agg.self += duration - frame[2]
        agg.child_calls += frame[4]
        if keep:
            state.spans.append(
                (
                    name,
                    frame[1],
                    end,
                    parent[3] if parent is not None else None,
                    frame[3],
                    state.op,
                )
            )

    def span(self, name: str) -> "_SpanContext":
        """A span opened by the benchmark itself (``with`` block)."""
        return _SpanContext(self, name)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        tracer = self
        name = hook.name
        pick = name if callable(name) else None
        keep = not hook.hot
        on_return = hook.on_return

        if hook.generator:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    if tracer.paused:
                        yield from iterator
                        return
                    state, frame = tracer._enter(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(state, frame, keep)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            state, frame = tracer._enter(name if pick is None else pick(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(state, frame, keep)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, hooks: List[Hook]) -> None:
        """Replace every hook target with its traced wrapper."""
        for hook in hooks:
            module_name, _, path = hook.target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, hook))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, hook))
            else:
                wrapped = self._wrap(raw, hook)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped target (reverse install order)."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- results ---------------------------------------------------------
    def summary(self) -> Dict[str, _Agg]:
        """Per-span-name aggregates merged over all threads."""
        merged: Dict[str, _Agg] = {}
        for state in self._threads:
            for name, agg in state.aggs.items():
                merged.setdefault(name, _Agg()).merge(agg)
        return merged

    def counters(self) -> Dict[str, float]:
        """Named counters summed (gauges: maxed) over all threads."""
        merged: Dict[str, float] = {}
        for state in self._threads:
            for name, value in state.counts.items():
                if name.endswith("_high_water"):
                    merged[name] = max(merged.get(name, 0), value)
                else:
                    merged[name] = merged.get(name, 0) + value
        return merged

    def span_count(self) -> int:
        return sum(len(state.spans) for state in self._threads)

    def write(self, path: str) -> None:
        """Write kept spans, then per-name aggregates, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for state in self._threads:
                for name, start, end, parent, span_id, op in state.spans:
                    handle.write(
                        json.dumps(
                            {
                                "name": name,
                                "start": start,
                                "end": end,
                                "parent": parent,
                                "id": span_id,
                                "thread": state.index,
                                "op": op,
                            }
                        )
                        + "\n"
                    )
            for name, agg in sorted(self.summary().items()):
                handle.write(
                    json.dumps(
                        {
                            "agg": name,
                            "calls": agg.calls,
                            "total_s": agg.total,
                            "self_s": agg.self,
                        }
                    )
                    + "\n"
                )


class _SpanContext:
    __slots__ = ("tracer", "name", "state", "frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.state, self.frame = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.state, self.frame, True)


# ----------------------------------------------------------------------
# Hook table: the layer boundaries of ``repro`` the benchmark traces
# ----------------------------------------------------------------------
def _count_candidates(tracer, args, kwargs, result) -> None:
    tracer.count("synth.state.candidates_scored", len(result))


def _explorer_result(tracer, args, kwargs, result) -> None:
    tracer.count("synth.explorer.nodes", result.nodes_explored)
    tracer.count("synth.explorer.evicted_subtrees", result.evicted_subtrees)
    tracer.high_water("synth.explorer.open_high_water", result.open_high_water)


def _checkpoint_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("synth.checkpoint.bytes", len(result))


def _shards(tracer, args, kwargs, result) -> None:
    stack = tracer._state().stack
    if stack and stack[-1][0] == "synth.parallel.explore":
        tracer.count("synth.parallel.shards", len(result))


def _parallel_name(args) -> str:
    """Pool runs and in-process (``jobs=1``) runs are separate spans."""
    if args[0].jobs > 1:
        return "synth.parallel.explore"
    return "synth.parallel.inproc"


def _space_retries(tracer, args, kwargs, result) -> None:
    tracer.count(
        "synth.parallel.retries",
        sum(r.exploration.retries for r in result.results),
    )


def _canonical_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("serve.canonical.bytes", len(result))


def _cache_lookup(tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.count("serve.cache.hits")


def default_hooks() -> List[Hook]:
    """Every wrap point, one per public layer boundary.

    ``canonical_json`` and ``build_workload`` are imported by name into
    the engine module, so both bindings are wrapped; the explorer
    calls ``unit_order`` through its own module global.
    """
    return [
        Hook("repro.zoo:generate", "zoo.generate"),
        Hook("repro.zoo.base:ZooScenario.joint_problem", "zoo.joint_problem"),
        Hook(
            "repro.variants.variant_space:VariantSpace.iter_applications",
            "variants.iter_applications",
            generator=True,
        ),
        Hook(
            "repro.variants.variant_space:VariantSpace.selection_at",
            "variants.selection_at",
        ),
        Hook("repro.variants.vgraph:VariantGraph.bind", "variants.bind"),
        Hook(
            "repro.synth.methods:ProblemFamily.problem_for",
            "synth.methods.problem_for",
        ),
        Hook(
            "repro.synth.methods:ProblemFamily.problem_for_units",
            "synth.methods.problem_for_units",
        ),
        Hook(
            "repro.synth.state:SearchState.assign",
            "synth.state.assign",
            hot=True,
        ),
        Hook(
            "repro.synth.state:SearchState.unassign",
            "synth.state.unassign",
            hot=True,
        ),
        Hook(
            "repro.synth.state:SearchState.lower_bound",
            "synth.state.lower_bound",
            hot=True,
        ),
        Hook(
            "repro.synth.state:SearchState.score_candidates",
            "synth.state.score_candidates",
            hot=True,
            on_return=_count_candidates,
        ),
        Hook(
            "repro.synth.state:_NumpySearchState.score_candidates",
            "synth.state.numpy_score_candidates",
            hot=True,
            on_return=_count_candidates,
        ),
        Hook(
            "repro.synth.state:PathTrail.restore",
            "synth.state.restore",
            hot=True,
        ),
        Hook("repro.synth.explorer:unit_order", "synth.ordering.unit_order"),
        Hook(
            "repro.synth.explorer:BranchBoundExplorer.explore",
            "synth.explorer.explore",
            on_return=_explorer_result,
        ),
        Hook(
            "repro.synth.checkpoint:Checkpointer.emit",
            "synth.checkpoint.emit",
        ),
        Hook(
            "repro.synth.checkpoint:SearchCheckpoint.to_json",
            "synth.checkpoint.encode",
            on_return=_checkpoint_bytes,
        ),
        Hook(
            "repro.synth.checkpoint:SearchCheckpoint.from_json",
            "synth.checkpoint.decode",
        ),
        Hook(
            "repro.synth.parallel:ParallelSpaceExplorer.explore",
            _parallel_name,
            on_return=_space_retries,
        ),
        Hook(
            "repro.synth.parallel:shard_indices",
            "synth.parallel.shard_indices",
            on_return=_shards,
        ),
        Hook("repro.serve.jobs:JobSpec.from_payload", "serve.jobs.parse"),
        Hook("repro.serve.jobs:build_workload", "serve.jobs.build_workload"),
        Hook("repro.serve.engine:build_workload", "serve.jobs.build_workload"),
        Hook(
            "repro.serve.cache:ResultCache.lookup",
            "serve.cache.lookup",
            on_return=_cache_lookup,
        ),
        Hook("repro.serve.cache:ResultCache.store", "serve.cache.store"),
        Hook(
            "repro.serve.canonical:canonical_json",
            "serve.canonical.json",
            on_return=_canonical_bytes,
        ),
        Hook(
            "repro.serve.engine:canonical_json",
            "serve.canonical.json",
            on_return=_canonical_bytes,
        ),
        Hook("repro.serve.persist:Journal.append", "serve.persist.append"),
        Hook("repro.serve.client:ServeClient.submit", "serve.http.submit"),
    ]


def layer_self_times(summary: Dict[str, _Agg]) -> Dict[str, float]:
    """Self time per layer: the sum of its spans' self times.

    A span's layer is its name up to the last dot
    (``synth.state.assign`` belongs to ``synth.state``).
    """
    totals: Dict[str, float] = {}
    for name, agg in summary.items():
        layer = name.rpartition(".")[0]
        totals[layer] = totals.get(layer, 0.0) + agg.self
    return totals


def per_layer(
    tracer: Tracer, serve_totals: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric of the traced phase.

    Layers a workload never enters report 0.  ``*_s`` metrics of a
    whole layer are self times; those of one boundary call (encode,
    decode, resume, pool explore, parse, HTTP submit, ...) are the
    inclusive time of that call.  Ratios with a zero base report 0.
    """
    summary = tracer.summary()
    counters = tracer.counters()
    selfs = layer_self_times(summary)
    empty = _Agg()

    def agg(name: str) -> _Agg:
        return summary.get(name, empty)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    nodes = counters.get("synth.explorer.nodes", 0)
    candidates = counters.get("synth.state.candidates_scored", 0)
    restore = agg("synth.state.restore")
    lookups = agg("serve.cache.lookup").calls
    explore_s = agg("synth.parallel.explore").total
    inproc_s = agg("synth.parallel.inproc").total
    score = agg("synth.state.score_candidates").calls
    numpy_score = agg("synth.state.numpy_score_candidates").calls
    return {
        "zoo.generate_s": selfs.get("zoo", 0.0),
        "variants.enumerate_s": selfs.get("variants", 0.0),
        "variants.bind_calls": agg("variants.bind").calls,
        "synth.methods.problem_for_s": selfs.get("synth.methods", 0.0),
        "synth.state.assign_calls": agg("synth.state.assign").calls,
        "synth.state.unassign_calls": agg("synth.state.unassign").calls,
        "synth.state.lower_bound_calls": agg("synth.state.lower_bound").calls,
        "synth.state.self_s": selfs.get("synth.state", 0.0),
        "synth.state.score_calls": score + numpy_score,
        "synth.state.candidates_scored": candidates,
        "synth.state.numpy_score_calls": numpy_score,
        "synth.state.restore_calls": restore.calls,
        "synth.state.restore_steps": restore.child_calls,
        "synth.state.restore_steps_per_node": ratio(
            restore.child_calls, nodes
        ),
        "synth.ordering.unit_order_calls": agg(
            "synth.ordering.unit_order"
        ).calls,
        "synth.ordering.self_s": selfs.get("synth.ordering", 0.0),
        "synth.explorer.nodes": nodes,
        "synth.explorer.nodes_per_s": ratio(
            nodes, agg("synth.explorer.explore").total
        ),
        "synth.explorer.self_s": selfs.get("synth.explorer", 0.0),
        "synth.explorer.nodes_per_candidate": ratio(nodes, candidates),
        "synth.explorer.open_high_water": counters.get(
            "synth.explorer.open_high_water", 0
        ),
        "synth.explorer.evicted_subtrees": counters.get(
            "synth.explorer.evicted_subtrees", 0
        ),
        "synth.checkpoint.emits": agg("synth.checkpoint.emit").calls,
        "synth.checkpoint.bytes": counters.get("synth.checkpoint.bytes", 0),
        "synth.checkpoint.encode_s": agg("synth.checkpoint.encode").total,
        "synth.checkpoint.decode_s": agg("synth.checkpoint.decode").total,
        "synth.checkpoint.resume_s": agg("synth.checkpoint.resume").total,
        "synth.parallel.explore_s": explore_s,
        "synth.parallel.shards": counters.get("synth.parallel.shards", 0),
        "synth.parallel.inproc_s": inproc_s,
        "synth.parallel.speedup": ratio(inproc_s, explore_s),
        "synth.parallel.retries": counters.get("synth.parallel.retries", 0),
        "serve.jobs.parse_s": agg("serve.jobs.parse").total,
        "serve.jobs.build_workload_s": agg("serve.jobs.build_workload").total,
        "serve.cache.lookups": lookups,
        "serve.cache.hit_ratio": ratio(
            counters.get("serve.cache.hits", 0), lookups
        ),
        "serve.cache.stores": agg("serve.cache.store").calls,
        "serve.canonical.json_s": agg("serve.canonical.json").total,
        "serve.canonical.bytes": counters.get("serve.canonical.bytes", 0),
        "serve.persist.appends": agg("serve.persist.append").calls,
        "serve.persist.append_s": agg("serve.persist.append").total,
        "serve.engine.run_s": serve_totals.get("run_s", 0.0),
        "serve.engine.queue_wait_s": serve_totals.get("queue_wait_s", 0.0),
        "serve.engine.shed": serve_totals.get("shed", 0),
        "serve.engine.failed": serve_totals.get("failed", 0),
        "serve.http.submit_rtt_s": agg("serve.http.submit").total,
    }
