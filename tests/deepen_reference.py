"""Frozen copy of the snapshot-copy iterative-deepening resolver, kept as a reference.

This is the ``foon.search._deepen`` that the choice-point and undo-log
version replaced: at each bound's first cutoff it copies the whole stack and
the pass's partial result, and after a failure it scans the stack for the
nearest frame with an untried producer. The differential test in
``test_search.py`` checks that the new resolver returns the same discovery
list, bound and call count. Do not edit it to match the new code.
"""

from __future__ import annotations

from foon import FunctionalUnit, NodeKey


def reference_deepen(
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

    Frame ``i`` of the stack is the resolution of ``keys[i]`` at depth
    ``i``: it is trying producer ``units[i][unit_pos[i]]`` and has resolved
    that unit's inputs before ``input_pos[i]``; ``discovery_marks[i]`` and
    ``trail_marks[i]`` are the lengths to roll back to if the unit fails.
    The pending resolver call is the top frame's next input, or the goal
    when the stack is empty. Just before a pass's first cutoff the stack
    and the pass's partial result are copied; when the pass fails, the
    next bound starts from that copy.
    """
    keys: list[NodeKey] = []
    units: list[tuple[FunctionalUnit, ...]] = []
    unit_pos: list[int] = []
    input_pos: list[int] = []
    discovery_marks: list[int] = []
    trail_marks: list[int] = []
    resolved: set[NodeKey] = set()
    trail: list[NodeKey] = []
    discovery: list[FunctionalUnit] = []
    on_path: set[NodeKey] = set()
    calls = 0
    for bound in range(max_depth + 1):
        snapshot = None
        # ok is the result of the call that just returned, or None while a
        # call is pending. A frame that starts a unit sets its input_pos to
        # -1 and ok to True, so the next step moves on to the unit's first
        # input.
        ok = None
        while True:
            if ok is None:
                depth = len(keys)
                key = units[-1][unit_pos[-1]].input_keys[input_pos[-1]] if depth else goal
                calls += 1
                if depth >= bound:
                    if snapshot is None:
                        snapshot = [held.copy() for held in (
                            keys, units, unit_pos, input_pos, discovery_marks,
                            trail_marks, resolved, trail, discovery, on_path,
                        )]
                    ok = False
                elif key in kitchen_keys or key in resolved:
                    ok = True
                elif key in on_path or key not in live:
                    ok = False
                else:
                    producers = live[key]
                    on_path.add(key)
                    keys.append(key)
                    units.append(producers)
                    unit_pos.append(0)
                    input_pos.append(-1)
                    discovery_marks.append(len(discovery))
                    trail_marks.append(len(trail))
                    discovery.append(producers[0])
                    ok = True
                    continue
            if not keys:
                break

            if ok:
                unit = units[-1][unit_pos[-1]]
                input_pos[-1] += 1
                if input_pos[-1] < len(unit.input_keys):
                    ok = None
                    continue
                for out in unit.output_keys:
                    if out not in resolved:
                        resolved.add(out)
                        trail.append(out)
                on_path.discard(keys.pop())
                units.pop()
                unit_pos.pop()
                input_pos.pop()
                discovery_marks.pop()
                trail_marks.pop()
                continue

            # A frame whose last producer failed fails too, and so fails its
            # parent's unit: unwind in one step to the nearest frame that
            # still has a producer to try, rolling back to that frame's
            # marks. When no frame has one the pass fails, and its state is
            # about to be replaced, so nothing is rolled back.
            top = len(keys) - 1
            while top >= 0 and unit_pos[top] + 1 == len(units[top]):
                top -= 1
            if top < 0:
                break
            del discovery[discovery_marks[top]:]
            mark = trail_marks[top]
            if len(trail) > mark:
                resolved.difference_update(trail[mark:])
                del trail[mark:]
            on_path.difference_update(keys[top + 1:])
            for frames in (keys, units, unit_pos, input_pos, discovery_marks, trail_marks):
                del frames[top + 1:]
            unit_pos[top] += 1
            discovery.append(units[top][unit_pos[top]])
            input_pos[top] = -1
            ok = True

        if ok:
            return discovery, bound, calls
        if snapshot is None:
            raise RuntimeError(
                f"internal error: reachable goal failed without a cutoff: {goal}"
            )
        (
            keys, units, unit_pos, input_pos, discovery_marks,
            trail_marks, resolved, trail, discovery, on_path,
        ) = snapshot
    return None, max_depth, calls
