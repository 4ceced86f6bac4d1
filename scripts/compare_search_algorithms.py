#!/usr/bin/env python3
"""Compare the retrieval algorithms on random synthetic FOONs.

Generates seeded random graphs, retrieves a task tree for one goal per
graph with iterative deepening and both greedy heuristics, and prints
solve rates, average tree sizes, and average search effort. Useful for
eyeballing how often the greedy variants get stuck and how tree sizes
compare when everything succeeds. Each algorithm searches a graph of its
own, so no search returns a tree another one finalized, and each total
counts its own finalizing.

    python scripts/compare_search_algorithms.py --instances 300 --seed 7
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from randgen import random_instance  # noqa: E402

from foon import ALGORITHMS, FoonGraph, run_algorithm  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-units", type=int, default=40)
    parser.add_argument("--max-keys", type=int, default=25)
    args = parser.parse_args(argv)

    algorithms = tuple(ALGORITHMS)
    solved = {a: 0 for a in algorithms}
    units = {a: [] for a in algorithms}
    expanded = {a: [] for a in algorithms}
    elapsed = {a: 0.0 for a in algorithms}
    greedy_stuck = greedy_trees = same_as_ids = 0

    for i in range(args.instances):
        instance = random_instance(
            random.Random(args.seed + i),
            max_units=args.max_units,
            max_keys=args.max_keys,
            acyclic=(i % 3 == 0),
        )
        outcomes = {}
        for name in algorithms:
            graph = FoonGraph(instance.graph.units)
            start = time.perf_counter()
            outcome = run_algorithm(name, graph, instance.kitchen, instance.goal)
            elapsed[name] += time.perf_counter() - start
            outcomes[name] = outcome
            if outcome.solved:
                solved[name] += 1
                units[name].append(len(outcome.tree.steps))
                expanded[name].append(outcome.stats.nodes_expanded)
        if outcomes["ids"].solved and not (
            outcomes["gbfs_a"].solved and outcomes["gbfs_b"].solved
        ):
            greedy_stuck += 1
        for name in ("gbfs_a", "gbfs_b"):
            if outcomes[name].solved:
                greedy_trees += 1
                same_as_ids += outcomes[name].tree == outcomes["ids"].tree

    print(f"instances: {args.instances} (seed {args.seed})")
    print(f"{'algorithm':<10} {'solved':>7} {'avg units':>10} {'avg expanded':>13} {'total ms':>9}")
    for name in algorithms:
        avg_units = statistics.mean(units[name]) if units[name] else float("nan")
        avg_exp = statistics.mean(expanded[name]) if expanded[name] else float("nan")
        print(
            f"{name:<10} {solved[name]:>7} {avg_units:>10.2f} {avg_exp:>13.1f} "
            f"{elapsed[name] * 1000:>9.1f}"
        )
    print(f"\nsolvable instances where a greedy variant got stuck: {greedy_stuck}")
    print(f"greedy trees equal to the IDS tree: {same_as_ids} of {greedy_trees}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
