"""One library pass, in a fresh process: what a planner embedding the package does.

    PYTHONPATH=src python3 perfbench/libpass.py INPUT_DIR OUT.json [--oracle]

Reads the four input files from INPUT_DIR, then calls the package's public
API: parse_foon_text -> parse_motion_rates/apply_motion_rates ->
build_graph -> parse_kitchen/parse_goals -> ids_search/gbfs_search for
every (goal, algorithm) pair. Set-up time runs from the first file read
until graph, kitchen and goals are ready; interpreter start and imports are
outside it. Each retrieval is timed on its own. A fixed calibration task of the
benchmark's own code (forward chaining over 200 layered-batch units) runs
50 times just before the retrievals and 50 times just after; its median
time goes out with the retrieval times so that ``run.py`` can put them in
terms of the host's speed during this pass. It does not run between
retrievals, where it would evict their data from the CPU caches. With
--oracle it also times reachable_oracle once per goal, after everything
else.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from foon import (
    INPUT_COUNT,
    SUCCESS_RATE,
    SearchConfig,
    apply_motion_rates,
    build_graph,
    gbfs_search,
    ids_search,
    node_key,
    parse_foon_text,
    parse_goals,
    parse_kitchen,
    parse_motion_rates,
    reachable_oracle,
    serialize_task_tree,
)
from workloads import layered_batch, reachable_keys

SEARCHES = (
    ("ids", ids_search, SearchConfig()),
    ("gbfs_a", gbfs_search, SearchConfig(heuristic=SUCCESS_RATE)),
    ("gbfs_b", gbfs_search, SearchConfig(heuristic=INPUT_COUNT)),
)

_CALIBRATION = layered_batch(0)
CALIBRATION_UNITS = _CALIBRATION.units[:200]
CALIBRATION_RUNS = 50


def calibration_ns() -> int:
    begin = time.perf_counter_ns()
    reachable_keys(CALIBRATION_UNITS, _CALIBRATION.kitchen)
    return time.perf_counter_ns() - begin


def main(argv: list[str]) -> int:
    source, out = Path(argv[0]), Path(argv[1])

    def read(name: str) -> str:
        return (source / name).read_text(encoding="utf-8")

    start = time.perf_counter()
    units, diagnostics = parse_foon_text(read("foon.txt"))
    if not units:
        print(f"FOON text did not parse: {diagnostics[:3]}", file=sys.stderr)
        return 1
    units = apply_motion_rates(units, parse_motion_rates(read("rates.json")))
    graph = build_graph(units)
    kitchen = parse_kitchen(read("kitchen.json"))
    goals = parse_goals(read("goals.json"))
    setup_s = time.perf_counter() - start

    calibration = [calibration_ns() for _ in range(CALIBRATION_RUNS)]
    timed = []
    for goal in goals:
        for name, search, config in SEARCHES:
            begin = time.perf_counter_ns()
            outcome = search(graph, kitchen, goal, config)
            timed.append((goal.label, name, outcome, time.perf_counter_ns() - begin))
    calibration += [calibration_ns() for _ in range(CALIBRATION_RUNS)]

    pairs = []
    for label, name, outcome, elapsed_ns in timed:
        tree = outcome.tree if outcome.solved else None
        pairs.append(
            {
                "goal": label,
                "algorithm": name,
                "status": outcome.status,
                "ms": elapsed_ns / 1e6,
                "units": len(tree.steps) if tree else None,
                "tree_sha256": hashlib.sha256(
                    serialize_task_tree(tree).encode("utf-8")
                ).hexdigest()
                if tree
                else None,
            }
        )
    result = {
        "setup_s": setup_s,
        "calibration_ms": statistics.median(calibration) / 1e6,
        "pairs": pairs,
    }

    if "--oracle" in argv[2:]:
        begin = time.perf_counter()
        for goal in goals:
            reachable_oracle(graph, kitchen, node_key(goal))
        result["oracle_ms_per_goal"] = (time.perf_counter() - begin) * 1000 / len(goals)

    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
