"""Task-tree retrieval: iterative deepening and greedy best-first search.

Both algorithms chain backward from the goal node: they repeatedly pick a
functional unit that outputs a needed item and then go looking for that
unit's inputs, until everything bottoms out in the kitchen.

Iterative deepening (:func:`ids_search`, its one entry point) runs
depth-limited passes with bounds 0, 1, 2, ... in one resolver loop and
backtracks across alternative producers, so it succeeds exactly on the
instances where the goal is reachable at all (up to the configured bound).
It tries only producers the kitchen can feed, keeps one explicit stack of
frames and starts each bound where the previous one first ran out of
depth. A bound's first cutoff with no untried producer on the stack raises
the bound in place; a bound that fails is restored from a copy taken at
its first cutoff. So an n-unit chain takes time linear in n (see
:func:`_deepen`).
Greedy best-first keeps a FIFO frontier of items to produce and commits to
one producer per item, with no backtracking; a bad greedy commitment is
reported as a failure. Its rule is :data:`HEURISTICS`: ``success_rate``
prefers the unit whose motion has the highest success rate, ``input_count``
the unit with the fewest inputs; ties go to the lowest unit index. An
item's commitment among several producers is ranked once per graph and
heuristic and kept in :attr:`FoonGraph.commitments`.

Units are discovered goal-first. Both searches end in :func:`finalize_tree`:
drop duplicate units and sort the rest by ``unit_index``. A sorted list
that validates as it stands is the tree; any other is fired earliest ready
first by the same forward pass from the kitchen that finds the live
producers (:func:`~foon.core.forward_chain`), trimmed after the last goal
producer and validated. Each returned tree is validated once. So a tree's
step order follows from its unit set and the kitchen alone, not from the
order its search found the units in.
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
from operator import attrgetter

from .core import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    NodeKey,
    ObjectNode,
    TaskTree,
    _setters,
    _Value,
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

_UNIT_INDEX = attrgetter("unit_index")


class SearchConfig(_Value):
    """Search knobs: the outer depth bound and the greedy heuristic."""

    __slots__ = _fields = ("max_depth", "heuristic")

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH, heuristic: str = SUCCESS_RATE):
        # IDS stops when its bound equals max_depth, so it must be a true int.
        if isinstance(max_depth, bool) or not isinstance(max_depth, int):
            raise ValueError(f"max_depth must be an int, got {max_depth!r}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {heuristic!r}")
        _set_max_depth(self, max_depth)
        _set_heuristic(self, heuristic)


class SearchStats(_Value):
    """Counters of one search; ``elapsed_seconds`` is its own time, not per-kitchen set-up."""

    __slots__ = _fields = ("nodes_expanded", "final_depth_bound", "elapsed_seconds")

    def __init__(self, nodes_expanded: int, final_depth_bound: int | None,
                 elapsed_seconds: float):
        _set_expanded(self, nodes_expanded)
        _set_bound(self, final_depth_bound)
        _set_elapsed(self, elapsed_seconds)


class SearchOutcome(_Value):
    """Result of one retrieval: a task tree on success, a status otherwise.

    ``status`` is ``solved``, ``unsolvable`` (no way to produce some needed
    item, or the greedy selection is not executable), or
    ``depth_exhausted`` (iterative deepening hit its bound). Iterative
    deepening reports ``unsolvable`` exactly when the goal is unreachable
    from the kitchen. On greedy failures ``missing_key`` names the first
    item that had no producer and was not in the kitchen.
    """

    __slots__ = _fields = ("tree", "status", "stats", "missing_key", "reason")

    def __init__(self, tree: TaskTree | None, status: str, stats: SearchStats,
                 missing_key: NodeKey | None = None, reason: str | None = None):
        _set_tree(self, tree)
        _set_status(self, status)
        _set_stats(self, stats)
        _set_missing(self, missing_key)
        _set_reason(self, reason)

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


_set_max_depth, _set_heuristic = _setters(SearchConfig)
_set_expanded, _set_bound, _set_elapsed = _setters(SearchStats)
_set_tree, _set_status, _set_stats, _set_missing, _set_reason = _setters(SearchOutcome)


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

    Keeps the last-discovered occurrence of each structurally identical
    unit and sorts the kept units by ``unit_index`` (a stable sort: ties
    keep their reversed discovery order). One set of the signatures of a
    list of two or more units shows whether any unit repeats; when none
    does, the reversed list is kept whole. When the sorted list can run as
    is (it is non-empty, the kitchen feeds its first step, its last step
    outputs the goal and :func:`validate_tree` passes it), it is the tree.
    Otherwise one :func:`~foon.core.forward_chain` pass from the kitchen
    repairs the order: the ready step that comes first in the sorted list
    fires first, which on a list that runs as is fires it in list order.
    So the tree depends only on the set of units and the kitchen. Steps
    after the last one that outputs the goal are dropped. Returns None when
    the steps cannot all run in any order (a circular dependency); raises
    RuntimeError if the repaired tree still fails :func:`validate_tree`.
    Either way the returned tree is validated once, as that very object.
    """
    steps: list[FunctionalUnit] = list(discovery)
    steps.reverse()
    if len(steps) > 1 and len({unit.signature for unit in steps}) < len(steps):
        kept: list[FunctionalUnit] = []
        seen: set[str] = set()
        for unit in steps:
            if unit.signature not in seen:
                seen.add(unit.signature)
                kept.append(unit)
        steps = kept
    steps.sort(key=_UNIT_INDEX)

    # The checks on the list's two ends cost O(1) in its length and spare a
    # validation that would fail, as on most greedy selections with a cycle.
    kitchen_keys = kitchen.keys
    if (steps and goal in steps[-1].output_keys
            and kitchen_keys.issuperset(steps[0].input_keys)):
        tree = TaskTree(steps, goal)
        if not validate_tree(kitchen, tree).violations:
            return tree

    fired, _ = forward_chain(steps, kitchen_keys)
    ordered = [steps[pos] for pos in fired]
    if len(ordered) < len(steps):
        return None
    while ordered and goal not in ordered[-1].output_keys:
        ordered.pop()
    tree = TaskTree(ordered, goal)
    report = validate_tree(kitchen, tree)
    if report.violations:
        raise RuntimeError(f"internal error: invalid task tree for {goal}: "
                           + "; ".join(report.violations))
    return tree


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
    calls made. Precondition: ``goal`` is in ``kitchen_keys`` or in
    ``live``, and ``live`` indexes only producers the kitchen can feed, each
    with at least one input. So every item a pass asks for is in the
    kitchen or has a live producer, and only a cutoff or a cycle fails it.

    Frame ``i`` of ``stack`` resolves an item at depth ``i``; it is the list
    ``[key, producers, unit_pos, input_pos, discovery_mark, trail_mark]``:
    it is trying producer ``producers[unit_pos]`` for ``key`` and has
    resolved that unit's inputs before ``input_pos``, and the marks are the
    lengths of ``discovery`` and ``trail`` to roll back to if the unit
    fails. The pending resolver call is the top frame's next input, or the
    goal when the stack is empty; a call that succeeds with the stack empty
    solves the goal. ``resolved`` is the set of ``trail`` and ``on_path``
    that of the stack's keys.

    ``choices`` holds, in stack order, the indices of the frames that still
    have an untried producer (the choice points), so a failure unwinds in
    one step to the nearest of them and goes on with its next producer.
    A failure with no choice point fails the pass. Each pass runs on from
    where its predecessor first ran out of depth, since up to that call a
    deeper pass would replay the same steps. A pass's first cutoff with no
    choice point is not a failure: the pass would fail there with nothing
    to restore, and the next bound would make this very call again, so the
    bound rises by one in place and the call is counted again and goes on
    (at ``max_depth`` the search stops instead). Any other first cutoff
    sets ``saved``, None until then, to a copy of what the rest of the pass
    can change: the frames up to the top choice point (those above it are
    only cut away), ``choices``, and the tails of ``discovery`` and
    ``trail`` from the lowest choice point's marks, below which no unwind
    truncates. Every failed pass ends at one site: the state is put back
    from ``saved``, the bound rises by one, and the cut-off call is made
    again, and counted, as the next pass. So a bound costs its work since
    the previous bound's first cutoff plus the copy, and an n-unit chain,
    where no pass fails, takes time linear in n. A pass that fails
    before any cutoff breaks the precondition (an internal error).
    """
    stack: list[list] = []
    choices: list[int] = []
    resolved: set[NodeKey] = set()
    trail: list[NodeKey] = []
    discovery: list[FunctionalUnit] = []
    on_path: set[NodeKey] = set()
    calls = bound = 0
    # ok is the result of the call that just returned, or None while a call
    # is pending; saved is None until the pass's first failing cutoff.
    saved = ok = None
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
                if saved is not None or choices:
                    if saved is None:
                        top, low = choices[-1], stack[choices[0]]
                        saved = (
                            [frame.copy() for frame in stack[:top + 1]] + stack[top + 1:],
                            choices.copy(), low[4], discovery[low[4]:], low[5], trail[low[5]:],
                        )
                    ok = False
                    continue
                # The pass would fail here with nothing to restore, and the
                # next bound would make this very call: make it one deeper.
                if bound == max_depth:
                    return None, max_depth, calls
                bound += 1
                calls += 1
            if key in kitchen_keys or key in resolved:
                ok = True
            elif key in on_path:
                ok = False
            else:
                producers = live[key]
                on_path.add(key)
                stack.append([key, producers, 0, 0, len(discovery), len(trail)])
                discovery.append(producers[0])
                if len(producers) > 1:
                    choices.append(depth)
                continue

        if ok:
            if not stack:
                return discovery, bound, calls
            frame = stack[-1]
            unit = frame[1][frame[2]]
            frame[3] += 1
            if frame[3] < len(unit.input_keys):
                ok = None
                continue
            # The top frame's unit resolved: so does its item, and the
            # frame's other producers are never tried.
            for out in unit.output_keys:
                if out not in resolved:
                    resolved.add(out)
                    trail.append(out)
            if choices and choices[-1] == len(stack) - 1:
                choices.pop()
            on_path.discard(stack.pop()[0])
        elif choices:
            # A frame whose last producer failed fails too, and so fails its
            # parent's unit: unwind in one step to the nearest choice point,
            # rolling back to that frame's marks, and try its next producer.
            top = choices[-1]
            frame = stack[top]
            producers, mark, trail_mark = frame[1], frame[4], frame[5]
            on_path.difference_update(cut_frame[0] for cut_frame in stack[top + 1:])
            del stack[top + 1:]
            del discovery[mark:]
            if len(trail) > trail_mark:
                resolved.difference_update(trail[trail_mark:])
                del trail[trail_mark:]
            frame[2] += 1
            if frame[2] + 1 == len(producers):
                choices.pop()
            discovery.append(producers[frame[2]])
            frame[3] = 0
            ok = None
        else:
            # The pass fails: put back the state of its first cutoff and make
            # the cut-off call one bound deeper.
            if saved is None:
                raise RuntimeError(
                    f"internal error: reachable goal failed without a cutoff: {goal}"
                )
            if bound == max_depth:
                return None, max_depth, calls
            stack, choices, mark, discovery_tail, trail_mark, trail_tail = saved
            discovery[mark:] = discovery_tail
            resolved.difference_update(trail[trail_mark:])
            trail[trail_mark:] = trail_tail
            resolved.update(trail_tail)
            on_path = {frame[0] for frame in stack}
            saved = ok = None
            bound += 1


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

    A pass resolves an item thus: fail when the remaining depth is below 1;
    then succeed when the item is in the kitchen or already resolved;
    otherwise try each producing unit in ascending unit-index order,
    resolving every input one level deeper. A unit whose inputs all resolve
    is accepted and its outputs become available to the rest of the pass;
    on failure its partial discoveries are rolled back and the next
    producer is tried. Items already being resolved further up the stack
    fail at once, which bounds the search on cyclic graphs without changing
    what any bound can solve. Only producers the kitchen can feed
    (:meth:`FoonGraph.live_producers`) are tried; that index is built off
    the clock. Steps, tree and bound are those of rerunning every pass from
    scratch, and ``nodes_expanded`` counts the resolver calls actually made
    (see :func:`_deepen`).
    """
    config = config or SearchConfig()
    goal_key = goal.key
    live = graph.live_producers(kitchen)
    start = time.perf_counter()

    tree: TaskTree | None = None
    status = DEPTH_EXHAUSTED
    reason: str | None = None
    if goal_key not in kitchen.keys and goal_key not in live:
        status = UNSOLVABLE
        if not graph.producers_of(goal_key):
            reason = f"goal has no producers and is not in the kitchen: {goal_key}"
        else:
            reason = f"goal is unreachable from the kitchen: {goal_key}"
        final_bound, calls = None, 0
    else:
        discovery, final_bound, calls = _deepen(live, kitchen.keys, goal_key, config.max_depth)
        if discovery is not None:
            tree = finalize_tree(discovery, goal_key, kitchen)
            if tree is None:
                raise RuntimeError("internal error: accepted units form a cycle")
            status = SOLVED

    stats = SearchStats(calls, final_bound, time.perf_counter() - start)
    return SearchOutcome(tree, status, stats, None, reason)


def gbfs_search(
    graph: FoonGraph,
    kitchen: Kitchen,
    goal: ObjectNode,
    config: SearchConfig | None = None,
) -> SearchOutcome:
    """Retrieve a task tree by greedy best-first search.

    A FIFO frontier, a list read in order as it grows, starts with the goal
    key. Each item read is skipped when handled or in the kitchen; else one
    producing unit is committed by the :data:`HEURISTICS` rule and its inputs
    join the frontier. There is no backtracking: an item with no producers,
    or a selection that is not executable (circular commitments), fails the
    search even if another choice would have succeeded.
    """
    config = config or SearchConfig()
    goal_key = goal.key
    start = time.perf_counter()

    producers = graph.producers
    kitchen_keys = kitchen.keys
    heuristic = config.heuristic
    rank = HEURISTICS[heuristic]
    # The heuristic's commitments, fetched at the first item with several
    # producers: a search that meets none does no memo work.
    committed: dict[NodeKey, FunctionalUnit] | None = None
    frontier: list[NodeKey] = [goal_key]
    visited: set[NodeKey] = set()
    discovery: list[FunctionalUnit] = []
    missing: NodeKey | None = None
    for key in frontier:
        if key in visited or key in kitchen_keys:
            continue
        visited.add(key)
        candidates = producers.get(key)
        if not candidates:
            missing = key
            break
        if len(candidates) == 1:
            unit = candidates[0]
        else:
            if committed is None:
                committed = graph.commitments.get(heuristic)
                if committed is None:
                    committed = graph.commitments[heuristic] = {}
            unit = committed.get(key)
            if unit is None:
                unit = committed[key] = min(candidates, key=rank)
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

    stats = SearchStats(len(visited), None, time.perf_counter() - start)
    return SearchOutcome(tree, status, stats, missing, reason)


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
