"""Task-tree retrieval: iterative deepening and greedy best-first search.

Both algorithms chain backward from the goal node: they repeatedly pick a
functional unit that outputs a needed item and then go looking for that
unit's inputs, until everything bottoms out in the kitchen.

Iterative deepening runs a depth-limited recursive resolver with bounds
0, 1, 2, ... and backtracks across alternative producers, so it succeeds
exactly on the instances where the goal is reachable at all (up to the
configured bound). Greedy best-first keeps a FIFO frontier of items to
produce and commits to one producer per item, chosen by a heuristic, with
no backtracking; a bad greedy commitment is reported as a failure.

Heuristics: ``success_rate`` prefers the unit whose motion has the highest
success rate, ``input_count`` the unit with the fewest inputs; ties go to
the lowest unit index.

Units are discovered goal-first. Both searches end in one pass,
:func:`finalize_tree`: reverse the discovery list, drop duplicates, order
the steps by a stable topological sort (a no-op for chain- and tree-shaped
recipes), trim after the last goal producer, and validate once.
:data:`ALGORITHMS` maps each algorithm name to its search call.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass

from .core import (
    FoonError,
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    NodeKey,
    ObjectNode,
    TaskTree,
    validate_tree,
)

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
DEPTH_EXHAUSTED = "depth_exhausted"

SUCCESS_RATE = "success_rate"
INPUT_COUNT = "input_count"
HEURISTICS = (SUCCESS_RATE, INPUT_COUNT)

DEFAULT_MAX_DEPTH = 100


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs: the outer depth bound and the greedy heuristic."""

    max_depth: int = DEFAULT_MAX_DEPTH
    heuristic: str = SUCCESS_RATE

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}")


@dataclass(frozen=True)
class SearchStats:
    functional_unit_count: int
    nodes_expanded: int
    final_depth_bound: int | None
    elapsed_seconds: float


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one retrieval: a task tree on success, a status otherwise.

    ``status`` is ``solved``, ``unsolvable`` (no way to produce some needed
    item, or the greedy selection is not executable), or
    ``depth_exhausted`` (iterative deepening hit its bound). On greedy
    failures ``missing_key`` names the first item that had no producer and
    was not in the kitchen.
    """

    tree: TaskTree | None
    status: str
    stats: SearchStats
    missing_key: NodeKey | None = None
    reason: str | None = None

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


def heuristic_select(candidates, mode: str) -> FunctionalUnit:
    """Pick one producing unit: argmax success rate or argmin input count.

    Ties break toward the lowest unit index. The candidate list must be
    non-empty.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("heuristic_select: empty candidate list")
    if mode == SUCCESS_RATE:
        return min(candidates, key=lambda u: (-u.motion.success_rate, u.unit_index))
    if mode == INPUT_COUNT:
        return min(candidates, key=lambda u: (len(u.inputs), u.unit_index))
    raise ValueError(f"unknown heuristic {mode!r}")


def finalize_tree(discovery, goal: NodeKey, kitchen: Kitchen) -> TaskTree | None:
    """Turn a goal-first discovery list into a validated task tree.

    Reverses the discovery order, keeps the first occurrence of each
    structurally identical unit, then repeatedly takes the earliest step
    whose inputs are all available (a stable Kahn pass: availability only
    grows, so a ready step stays ready). Steps after the last one that
    outputs the goal are dropped. Returns None when the steps cannot all
    run in any order (a circular dependency); raises RuntimeError if the
    ordered tree still fails :func:`validate_tree`.
    """
    steps: list[FunctionalUnit] = []
    seen: set[tuple] = set()
    for unit in reversed(list(discovery)):
        if unit.signature not in seen:
            seen.add(unit.signature)
            steps.append(unit)

    available = set(kitchen.keys)
    unmet: list[int] = []
    waiting: dict[NodeKey, list[int]] = {}
    ready: list[int] = []
    for pos, unit in enumerate(steps):
        needs = set(unit.input_keys) - available
        unmet.append(len(needs))
        for key in needs:
            waiting.setdefault(key, []).append(pos)
        if not needs:
            ready.append(pos)

    ordered: list[FunctionalUnit] = []
    last_producer = -1
    while ready:
        unit = steps[heapq.heappop(ready)]
        if goal in unit.output_keys:
            last_producer = len(ordered)
        ordered.append(unit)
        for key in unit.output_keys:
            if key in available:
                continue
            available.add(key)
            for waiter in waiting.get(key, ()):
                unmet[waiter] -= 1
                if unmet[waiter] == 0:
                    heapq.heappush(ready, waiter)
    if len(ordered) < len(steps):
        return None

    tree = TaskTree(steps=tuple(ordered[: last_producer + 1]), goal=goal)
    report = validate_tree(kitchen, tree)
    if not report.ok:
        raise RuntimeError(
            f"internal error: invalid task tree for {goal}: "
            + "; ".join(report.violations)
        )
    return tree


def depth_limited_search(
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


def ids_search(
    graph: FoonGraph,
    kitchen: Kitchen,
    goal: ObjectNode,
    config: SearchConfig | None = None,
) -> SearchOutcome:
    """Retrieve a task tree by iterative deepening.

    Runs :func:`depth_limited_search` with bounds 0, 1, ... up to
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
            found, cutoff, discovery, calls = depth_limited_search(
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
        functional_unit_count=len(tree.steps) if tree else 0,
        nodes_expanded=total_calls,
        final_depth_bound=final_bound,
        elapsed_seconds=elapsed,
    )
    return SearchOutcome(tree=tree, status=status, stats=stats, reason=reason)


def gbfs_search(
    graph: FoonGraph,
    kitchen: Kitchen,
    goal: ObjectNode,
    config: SearchConfig | None = None,
) -> SearchOutcome:
    """Retrieve a task tree by greedy best-first search.

    A FIFO frontier starts with the goal key. Each dequeued item is skipped
    when already handled or in the kitchen; otherwise one producing unit is
    committed via :func:`heuristic_select` and its inputs join the
    frontier. There is no backtracking: an item with no producers, or a
    selection that turns out not to be executable (circular commitments),
    fails the search even if another choice would have succeeded.
    """
    config = config or SearchConfig()
    goal_key = goal.key
    start = time.perf_counter()

    frontier: deque[NodeKey] = deque([goal_key])
    visited: set[NodeKey] = set()
    discovery: list[FunctionalUnit] = []
    expanded = 0
    missing: NodeKey | None = None
    while frontier:
        key = frontier.popleft()
        if key in visited or key in kitchen:
            continue
        visited.add(key)
        expanded += 1
        candidates = graph.producers_of(key)
        if not candidates:
            missing = key
            break
        unit = heuristic_select(candidates, config.heuristic)
        discovery.append(unit)
        frontier.extend(unit.input_keys)

    tree: TaskTree | None = None
    status = UNSOLVABLE
    reason: str | None = None
    if missing is not None:
        reason = f"item cannot be produced and is not in the kitchen: {missing}"
    else:
        tree = finalize_tree(discovery, goal_key, kitchen)
        if tree is not None:
            status = SOLVED
        else:
            reason = "selected units contain a circular dependency"

    elapsed = time.perf_counter() - start
    stats = SearchStats(
        functional_unit_count=len(tree.steps) if tree else 0,
        nodes_expanded=expanded,
        final_depth_bound=None,
        elapsed_seconds=elapsed,
    )
    return SearchOutcome(
        tree=tree, status=status, stats=stats, missing_key=missing, reason=reason
    )


# Algorithm name -> (search function, greedy heuristic; IDS ignores it).
ALGORITHMS = {
    "ids": (ids_search, SUCCESS_RATE),
    "gbfs_a": (gbfs_search, SUCCESS_RATE),
    "gbfs_b": (gbfs_search, INPUT_COUNT),
}


def run_algorithm(
    name: str,
    graph: FoonGraph,
    kitchen: Kitchen,
    goal: ObjectNode,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SearchOutcome:
    """Retrieve a task tree with the algorithm named in :data:`ALGORITHMS`."""
    search, heuristic = ALGORITHMS[name]
    return search(graph, kitchen, goal, SearchConfig(max_depth, heuristic))
