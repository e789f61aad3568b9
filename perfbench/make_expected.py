"""Regenerate ``expected.json``: the answer every benchmark op must give.

Each answer is taken only where three independent configurations
agree: the default depth-first branch-and-bound (adaptive ordering,
dynamic pools), best-first, and static ordering.  All three must also
claim a proven optimum.

Run from the repository root::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro import zoo  # noqa: E402
from repro.serve.jobs import (  # noqa: E402
    JobSpec,
    build_explorer,
    build_workload,
)
from repro.synth import BranchBoundExplorer, explore_space  # noqa: E402

from workloads import SERVE_KEYS, ZOO_LIST, space_list  # noqa: E402

CONFIGS = {
    "dfs": lambda: BranchBoundExplorer(),
    "best_first": lambda: BranchBoundExplorer(frontier="best-first"),
    "static": lambda: BranchBoundExplorer(ordering="static"),
}


def _cost(result):
    return result.cost if result.feasible else None


def _agree(label, answers):
    values = set(answers.values())
    if len(values) != 1:
        raise SystemExit(f"{label}: configurations disagree: {answers}")
    return values.pop()


def zoo_answers():
    answers = {}
    for family, seed in ZOO_LIST:
        scenario = zoo.generate(family, seed, "bench")
        problem = scenario.joint_problem()
        results = {
            name: make().explore(problem) for name, make in CONFIGS.items()
        }
        for name, result in results.items():
            if not result.optimal:
                raise SystemExit(f"{scenario.name}: {name} not optimal")
        answers[scenario.name] = {
            "cost": _agree(
                scenario.name, {n: _cost(r) for n, r in results.items()}
            ),
            "nodes_dfs": results["dfs"].nodes_explored,
            "nodes_best_first": results["best_first"].nodes_explored,
        }
        print(scenario.name, answers[scenario.name], flush=True)
    return answers


def _space_costs(label, family, space, explorers):
    runs = {
        name: explore_space(family, space, explorer=explorer)
        for name, explorer in explorers.items()
    }
    per_config = {
        name: tuple(_cost(r.exploration) for r in run.results)
        for name, run in runs.items()
    }
    for name, run in runs.items():
        for sel in run.results:
            if sel.exploration.feasible and not sel.exploration.optimal:
                raise SystemExit(f"{label}: {name} selection not optimal")
    return list(_agree(label, per_config)), runs


def space_answers():
    answers = {}
    for name, family, space in space_list():
        explorers = {n: make() for n, make in CONFIGS.items()}
        costs, runs = _space_costs(name, family, space, explorers)
        answers[name] = {"costs": costs, "nodes": runs["dfs"].total_nodes}
        print(name, len(costs), "selections", flush=True)
    return answers


def serve_answers():
    answers = {}
    for key, payload in SERVE_KEYS.items():
        spec = JobSpec.from_payload(payload)
        workload = build_workload(spec)
        explorers = {n: make() for n, make in CONFIGS.items()}
        explorers["job"] = build_explorer(spec.explorer)
        costs, _runs = _space_costs(
            key, workload.family, workload.space, explorers
        )
        feasible = [cost for cost in costs if cost is not None]
        answers[key] = {"best_cost": min(feasible), "selections": len(costs)}
        print(key, answers[key], flush=True)
    return answers


def main() -> None:
    expected = {
        "zoo": zoo_answers(),
        "spaces": space_answers(),
        "serve": serve_answers(),
    }
    path = os.path.join(HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
