"""Frozen copy of the recursive iterative-deepening search, kept as a reference.

This is the IDS that ``foon.search.ids_search`` replaced: every bound
reruns a recursive resolver from scratch over the full producer index.
The differential test in ``test_search.py`` checks the
explicit-stack version against it. Do not edit it to match the new code.
"""

from __future__ import annotations

import time

from foon import (
    DEPTH_EXHAUSTED,
    SOLVED,
    UNSOLVABLE,
    FoonError,
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    NodeKey,
    ObjectNode,
    SearchConfig,
    SearchOutcome,
    SearchStats,
    TaskTree,
    finalize_tree,
)


def reference_depth_limited_search(
    graph: FoonGraph, kitchen: Kitchen, goal_key: NodeKey, bound: int
) -> tuple[bool, bool, list[FunctionalUnit], int]:
    """One depth-limited backward resolution pass.

    Returns ``(found, cutoff, discovery, calls)`` where ``cutoff`` records
    whether any branch failed purely because the depth ran out (so a larger
    bound could behave differently), ``discovery`` lists the accepted units
    goal-first, and ``calls`` counts resolver invocations.

    Resolution of one item: fail when the remaining depth is below 1; then
    succeed when the item is in the kitchen or already resolved; otherwise
    try each producing unit in ascending unit-index order, resolving every
    input one level deeper. A unit whose inputs all resolve is accepted and
    its outputs become available to the rest of the pass; on failure its
    partial discoveries are rolled back and the next producer is tried.
    Items already being resolved further up the recursion fail immediately,
    which bounds the recursion on cyclic graphs without changing what any
    bound can solve.
    """
    kitchen_keys = kitchen.keys
    resolved: set[NodeKey] = set()
    trail: list[NodeKey] = []
    discovery: list[FunctionalUnit] = []
    on_path: set[NodeKey] = set()
    cutoff = False
    calls = 0

    def resolve(key: NodeKey, depth: int) -> bool:
        nonlocal cutoff, calls
        calls += 1
        if depth < 1:
            cutoff = True
            return False
        if key in kitchen_keys or key in resolved:
            return True
        if key in on_path:
            return False
        producers = graph.producers_of(key)
        if not producers:
            return False
        on_path.add(key)
        try:
            for unit in producers:
                discovery_mark = len(discovery)
                trail_mark = len(trail)
                discovery.append(unit)
                if all(resolve(k, depth - 1) for k in unit.input_keys):
                    for out in unit.output_keys:
                        if out not in resolved:
                            resolved.add(out)
                            trail.append(out)
                    return True
                del discovery[discovery_mark:]
                for k in trail[trail_mark:]:
                    resolved.discard(k)
                del trail[trail_mark:]
            return False
        finally:
            on_path.discard(key)

    found = resolve(goal_key, bound)
    return found, cutoff, discovery, calls


def reference_ids_search(
    graph: FoonGraph,
    kitchen: Kitchen,
    goal: ObjectNode,
    config: SearchConfig | None = None,
) -> SearchOutcome:
    """Retrieve a task tree by iterative deepening.

    Runs :func:`reference_depth_limited_search` with bounds 0, 1, ... up to
    ``config.max_depth``. Stops early with ``unsolvable`` when a pass fails
    without ever hitting the depth limit (no larger bound can differ);
    reports ``depth_exhausted`` when every bound up to the maximum was
    tried. On success the returned tree validates against the same kitchen.

    The resolver is recursive, so a bound deep enough to exhaust Python's
    recursion limit raises :class:`FoonError` naming that bound.
    """
    config = config or SearchConfig()
    goal_key = goal.key
    start = time.perf_counter()

    tree: TaskTree | None = None
    status = DEPTH_EXHAUSTED
    reason: str | None = None
    final_bound = config.max_depth
    total_calls = 0
    for bound in range(config.max_depth + 1):
        try:
            found, cutoff, discovery, calls = reference_depth_limited_search(
                graph, kitchen, goal_key, bound
            )
        except RecursionError:
            raise FoonError(
                f"iterative deepening ran out of recursion depth at bound {bound} "
                f"(max_depth {config.max_depth}); use a smaller max_depth"
            ) from None
        total_calls += calls
        if found:
            tree = finalize_tree(discovery, goal_key, kitchen)
            if tree is None:
                raise RuntimeError("internal error: accepted units form a cycle")
            status = SOLVED
            final_bound = bound
            break
        if not cutoff:
            status = UNSOLVABLE
            if not graph.producers_of(goal_key) and goal_key not in kitchen:
                reason = f"goal has no producers and is not in the kitchen: {goal_key}"
            else:
                reason = f"goal is unreachable from the kitchen: {goal_key}"
            final_bound = bound
            break

    elapsed = time.perf_counter() - start
    stats = SearchStats(
        nodes_expanded=total_calls,
        final_depth_bound=final_bound,
        elapsed_seconds=elapsed,
    )
    return SearchOutcome(tree=tree, status=status, stats=stats, reason=reason)
