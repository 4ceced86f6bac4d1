"""Task-tree retrieval: iterative deepening and greedy best-first search.

Both algorithms chain backward from the goal node: they repeatedly pick a
functional unit that outputs a needed item and then go looking for that
unit's inputs, until everything bottoms out in the kitchen.

Iterative deepening (:func:`ids_search`, its one entry point) runs
depth-limited passes with bounds 0, 1, 2, ... in one resolver loop and
backtracks across alternative producers, so it succeeds exactly on the
instances where the goal is reachable at all (up to the configured bound).
It tries only producers the kitchen can feed and keeps one explicit stack
of frames, one per item being resolved (slots in :func:`_deepen`), so dead
producers cost nothing and depth is limited only by the bound. As in a
Prolog machine, a stack of choice points (the frames with an untried
producer) makes each failure unwind in one step, and an undo log kept from
a bound's first cutoff takes a failed bound back to that cutoff, where the
next bound starts: a bound costs only the work done since the previous
bound's first cutoff, so an n-unit chain takes time linear in n. A frame
leaves the stack whole, so the log holds frames, not copies of their slots.
Greedy best-first keeps a FIFO frontier of items to produce and commits to
one producer per item, chosen by a heuristic, with no backtracking; a bad
greedy commitment is reported as a failure.

Heuristics: ``success_rate`` prefers the unit whose motion has the highest
success rate, ``input_count`` the unit with the fewest inputs; ties go to
the lowest unit index.

Units are discovered goal-first. Both searches end in
:func:`finalize_tree`: reverse the discovery list, drop duplicates, order
the steps by the same forward pass from the kitchen that finds the live
producers (:func:`~foon.core.forward_chain`; a no-op for chain- and
tree-shaped recipes), trim after the last goal producer, and validate once.
:data:`ALGORITHMS` maps each algorithm name to its search call.
"""

from __future__ import annotations

__all__ = [
    "ALGORITHMS",
    "DEPTH_EXHAUSTED",
    "INPUT_COUNT",
    "SOLVED",
    "SUCCESS_RATE",
    "UNSOLVABLE",
    "SearchConfig",
    "SearchOutcome",
    "SearchStats",
    "finalize_tree",
    "gbfs_search",
    "heuristic_select",
    "ids_search",
    "run_algorithm",
]

import time
from collections import deque
from dataclasses import dataclass

from .core import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    NodeKey,
    ObjectNode,
    TaskTree,
    forward_chain,
    validate_tree,
)

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
DEPTH_EXHAUSTED = "depth_exhausted"

SUCCESS_RATE = "success_rate"
INPUT_COUNT = "input_count"
# Heuristic name -> ranking key: greedy search commits to the candidate
# with the smallest key, so ties go to the lowest unit index.
HEURISTICS = {
    SUCCESS_RATE: lambda unit: (-unit.motion.success_rate, unit.unit_index),
    INPUT_COUNT: lambda unit: (len(unit.inputs), unit.unit_index),
}

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
    nodes_expanded: int
    final_depth_bound: int | None
    elapsed_seconds: float


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one retrieval: a task tree on success, a status otherwise.

    ``status`` is ``solved``, ``unsolvable`` (no way to produce some needed
    item, or the greedy selection is not executable), or
    ``depth_exhausted`` (iterative deepening hit its bound). Iterative
    deepening reports ``unsolvable`` exactly when the goal is unreachable
    from the kitchen. On greedy failures ``missing_key`` names the first
    item that had no producer and was not in the kitchen.
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

    Ties break toward the lowest unit index (see :data:`HEURISTICS`). The
    candidate sequence must be non-empty.
    """
    if mode not in HEURISTICS:
        raise ValueError(f"unknown heuristic {mode!r}")
    if not candidates:
        raise ValueError("heuristic_select: empty candidate list")
    return min(candidates, key=HEURISTICS[mode])


def finalize_tree(discovery, goal: NodeKey, kitchen: Kitchen) -> TaskTree | None:
    """Turn a goal-first discovery list into a validated task tree.

    Reverses the discovery order, keeps the first occurrence of each
    structurally identical unit, then orders the steps by one
    :func:`~foon.core.forward_chain` pass from the kitchen (the earliest
    ready step first). Steps after the last one that outputs the goal are
    dropped. Returns None when the steps cannot all run in any order (a
    circular dependency); raises RuntimeError if the ordered tree still
    fails :func:`validate_tree`.
    """
    steps: list[FunctionalUnit] = []
    seen: set[tuple] = set()
    for unit in reversed(list(discovery)):
        if unit.signature not in seen:
            seen.add(unit.signature)
            steps.append(unit)

    fired, _ = forward_chain(steps, kitchen.keys)
    ordered = [steps[pos] for pos in fired]
    if len(ordered) < len(steps):
        return None
    while ordered and goal not in ordered[-1].output_keys:
        ordered.pop()
    tree = TaskTree(steps=tuple(ordered), goal=goal)
    report = validate_tree(kitchen, tree)
    if not report.ok:
        raise RuntimeError(
            f"internal error: invalid task tree for {goal}: "
            + "; ".join(report.violations)
        )
    return tree


# Undo-log entries that carry no data; a frame pop and an unwind log tuples
# tagged _POP and _UNWIND.
_PUSH = ("push",)
_ADVANCE = ("advance",)
_POP = "pop"
_UNWIND = "unwind"


def _deepen(
    live: dict[NodeKey, tuple[FunctionalUnit, ...]],
    kitchen_keys: frozenset[NodeKey],
    goal: NodeKey,
    max_depth: int,
) -> tuple[list[FunctionalUnit] | None, int, int]:
    """Run the depth-limited passes with bounds 0, 1, ... up to ``max_depth``.

    Returns ``(discovery, bound, calls)``: the goal-first discovery list of
    the first pass that resolves the goal (None when none does), that
    pass's bound (``max_depth`` when none does) and the number of resolver
    calls made.

    Frame ``i`` of ``stack`` resolves an item at depth ``i``; it is the list
    ``[key, producers, unit_pos, input_pos, discovery_mark, trail_mark]``:
    it is trying producer ``producers[unit_pos]`` for ``key`` and has
    resolved that unit's inputs before ``input_pos``, and the marks are the
    lengths of ``discovery`` and ``trail`` to roll back to if the unit
    fails. The pending resolver call is the top frame's next input, or the
    goal when the stack is empty.

    ``choices`` holds, in stack order, the indices of the frames that still
    have an untried producer (the choice points), so a failure unwinds in
    one step to the nearest of them, and the pass fails when there is none.
    From a pass's first cutoff on, every change to the state is logged, as
    its inverse, in ``undo``; when the pass fails, replaying that log
    backwards restores the state of the cutoff, and the next bound starts
    from there. A bound therefore costs only the work done since the
    previous bound's first cutoff. A frame leaves the stack whole and is
    not changed until a replay puts it back, so the log holds the frames
    themselves.
    """
    stack: list[list] = []
    choices: list[int] = []
    resolved: set[NodeKey] = set()
    trail: list[NodeKey] = []
    discovery: list[FunctionalUnit] = []
    on_path: set[NodeKey] = set()
    calls = 0
    for bound in range(max_depth + 1):
        # None until this pass's first cutoff; then the inverse of each
        # change since, oldest first.
        undo: list[tuple] | None = None
        # ok is the result of the call that just returned, or None while a
        # call is pending. A frame that starts a unit sets its input_pos to
        # -1 and ok to True, so the next step moves on to the unit's first
        # input.
        ok = None
        while True:
            if ok is None:
                depth = len(stack)
                if depth:
                    frame = stack[-1]
                    key = frame[1][frame[2]].input_keys[frame[3]]
                else:
                    key = goal
                calls += 1
                if depth >= bound:
                    if undo is None:
                        undo = []
                    ok = False
                elif key in kitchen_keys or key in resolved:
                    ok = True
                elif key in on_path or key not in live:
                    ok = False
                else:
                    producers = live[key]
                    on_path.add(key)
                    stack.append([key, producers, 0, -1, len(discovery), len(trail)])
                    discovery.append(producers[0])
                    if len(producers) > 1:
                        choices.append(depth)
                    if undo is not None:
                        undo.append(_PUSH)
                    ok = True
                    continue
            if not stack:
                break

            if ok:
                frame = stack[-1]
                unit = frame[1][frame[2]]
                frame[3] += 1
                if undo is not None:
                    undo.append(_ADVANCE)
                if frame[3] < len(unit.input_keys):
                    ok = None
                    continue
                # The top frame's unit resolved: so does its item, and the
                # frame's other producers are never tried.
                added = len(trail)
                for out in unit.output_keys:
                    if out not in resolved:
                        resolved.add(out)
                        trail.append(out)
                if choices and choices[-1] == len(stack) - 1:
                    choices.pop()
                on_path.discard(stack.pop()[0])
                if undo is not None:
                    undo.append((_POP, frame, len(trail) - added))
                continue

            # A frame whose last producer failed fails too, and so fails its
            # parent's unit: unwind in one step to the nearest choice point,
            # rolling back to that frame's marks, and try its next producer.
            if not choices:
                break
            top = choices[-1]
            frame = stack[top]
            producers, mark, trail_mark = frame[1], frame[4], frame[5]
            cut = stack[top + 1:]
            if undo is not None:
                undo.append(
                    (_UNWIND, top, frame[3], cut, discovery[mark:], trail[trail_mark:])
                )
            del stack[top + 1:]
            on_path.difference_update(cut_frame[0] for cut_frame in cut)
            del discovery[mark:]
            if len(trail) > trail_mark:
                resolved.difference_update(trail[trail_mark:])
                del trail[trail_mark:]
            frame[2] += 1
            if frame[2] + 1 == len(producers):
                choices.pop()
            discovery.append(producers[frame[2]])
            frame[3] = -1
            ok = True

        if ok:
            return discovery, bound, calls
        if undo is None:
            raise RuntimeError(
                f"internal error: reachable goal failed without a cutoff: {goal}"
            )
        # Back to the state of this pass's first cutoff, newest change first.
        for entry in reversed(undo):
            if entry is _ADVANCE:
                stack[-1][3] -= 1
            elif entry is _PUSH:
                if choices and choices[-1] == len(stack) - 1:
                    choices.pop()
                on_path.discard(stack.pop()[0])
                discovery.pop()
            elif entry[0] is _POP:
                _, frame, added = entry
                if added:
                    resolved.difference_update(trail[-added:])
                    del trail[-added:]
                if frame[2] + 1 < len(frame[1]):
                    choices.append(len(stack))
                on_path.add(frame[0])
                stack.append(frame)
            else:
                _, top, at, cut, cut_discovery, cut_trail = entry
                discovery.pop()
                discovery.extend(cut_discovery)
                trail.extend(cut_trail)
                resolved.update(cut_trail)
                on_path.update(cut_frame[0] for cut_frame in cut)
                stack.extend(cut)
                if not choices or choices[-1] != top:
                    choices.append(top)
                frame = stack[top]
                frame[2] -= 1
                frame[3] = at
    return None, max_depth, calls


def ids_search(
    graph: FoonGraph,
    kitchen: Kitchen,
    goal: ObjectNode,
    config: SearchConfig | None = None,
) -> SearchOutcome:
    """Retrieve a task tree by iterative deepening.

    Runs depth-limited passes with bounds 0, 1, ... up to
    ``config.max_depth`` and stops at the first that succeeds, or reports
    ``depth_exhausted`` when every bound was tried. A goal that is neither
    in the kitchen nor output by a producer the kitchen can feed is
    ``unsolvable`` before any pass runs (``final_depth_bound`` None); every
    other goal is reachable, and some bound solves it. On success the
    returned tree validates against the same kitchen.

    Resolution of one item in a pass: fail when the remaining depth is
    below 1; then succeed when the item is in the kitchen or already
    resolved; otherwise try each producing unit in ascending unit-index
    order, resolving every input one level deeper. A unit whose inputs all
    resolve is accepted and its outputs become available to the rest of
    the pass; on failure its partial discoveries are rolled back and the
    next producer is tried. Items already being resolved further up the
    stack fail immediately, which bounds the search on cyclic graphs
    without changing what any bound can solve. Only producers the kitchen
    can feed (:meth:`FoonGraph.live_producers`) are tried: the others fail
    at every bound and leave nothing behind.

    Each pass after the first starts where its predecessor first ran out
    of depth: up to that call no depth test had fired, so a deeper pass
    would replay the same steps. Steps, tree and bound are those of
    rerunning every pass from scratch; ``nodes_expanded`` counts only the
    resolver calls actually made. The resolver keeps an explicit stack, so
    depth is limited only by ``max_depth``, and a pass costs only the work
    done since the previous pass's first cutoff (see :func:`_deepen`).
    """
    config = config or SearchConfig()
    goal_key = goal.key
    start = time.perf_counter()

    tree: TaskTree | None = None
    status = DEPTH_EXHAUSTED
    reason: str | None = None
    live = graph.live_producers(kitchen)
    if goal_key not in kitchen and goal_key not in live:
        status = UNSOLVABLE
        if not graph.producers_of(goal_key):
            reason = f"goal has no producers and is not in the kitchen: {goal_key}"
        else:
            reason = f"goal is unreachable from the kitchen: {goal_key}"
        final_bound, calls = None, 0
    else:
        discovery, final_bound, calls = _deepen(
            live, kitchen.keys, goal_key, config.max_depth
        )
        if discovery is not None:
            tree = finalize_tree(discovery, goal_key, kitchen)
            if tree is None:
                raise RuntimeError("internal error: accepted units form a cycle")
            status = SOLVED

    elapsed = time.perf_counter() - start
    stats = SearchStats(
        nodes_expanded=calls,
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
