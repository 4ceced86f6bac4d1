"""Frozen reference of the unit-index step order of ``foon.search.finalize_tree``.

The rule: keep the last-discovered occurrence of each structurally
identical unit, then fire, again and again, the ready unit that is
smallest by ``(unit_index, position)``, where position counts along the
reversed discovery list; the tree ends at the last step that outputs the
goal. It is quadratic on purpose: one plain loop per fired step, with no
sort, heap or counter, so that the one-pass code can be checked against
it. ``test_search.py`` compares exact trees. Do not edit it to match the
code.
"""

from __future__ import annotations

from foon import FunctionalUnit, Kitchen, NodeKey, TaskTree


def reference_sorted_finalize(discovery, goal: NodeKey, kitchen: Kitchen) -> TaskTree | None:
    """The tree of the unit-index rule, or None when some step never gets ready."""
    kept: list[FunctionalUnit] = []
    seen: set[tuple] = set()
    for unit in reversed(list(discovery)):
        if unit.signature not in seen:
            seen.add(unit.signature)
            kept.append(unit)
    remaining = list(enumerate(kept))
    available = set(kitchen.keys)
    ordered: list[FunctionalUnit] = []
    while remaining:
        ready = [
            (unit.unit_index, pos, unit)
            for pos, unit in remaining
            if all(key in available for key in unit.input_keys)
        ]
        if not ready:
            return None
        _, pos, pick = min(ready, key=lambda entry: entry[:2])
        remaining.remove((pos, pick))
        ordered.append(pick)
        available.update(pick.output_keys)
    last = max((i for i, unit in enumerate(ordered) if goal in unit.output_keys), default=-1)
    return TaskTree(steps=tuple(ordered[: last + 1]), goal=goal)
