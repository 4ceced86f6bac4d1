"""Frozen copy of the three-pass task-tree finalization, kept as a reference.

This is the finalization that ``foon.search.finalize_tree`` replaced:
reverse and deduplicate, then repeatedly scan for the first ready step,
then trim after the last goal producer. The differential test in
``test_search.py`` checks the one-pass version against it. Do not edit
it to match the new code.
"""

from __future__ import annotations

from foon import FunctionalUnit, Kitchen, NodeKey, TaskTree


def reference_finalize_tree(discovery, goal: NodeKey) -> TaskTree:
    steps: list[FunctionalUnit] = []
    seen: set[tuple] = set()
    for unit in reversed(list(discovery)):
        sig = unit.signature
        if sig not in seen:
            seen.add(sig)
            steps.append(unit)
    return TaskTree(steps=tuple(steps), goal=goal)


def reference_execution_order(steps, kitchen: Kitchen) -> list[FunctionalUnit] | None:
    remaining = list(steps)
    available = set(kitchen.keys)
    ordered: list[FunctionalUnit] = []
    while remaining:
        pick = None
        for unit in remaining:
            if all(key in available for key in unit.input_keys):
                pick = unit
                break
        if pick is None:
            return None
        remaining.remove(pick)
        ordered.append(pick)
        available.update(pick.output_keys)
    return ordered


def reference_executable_tree(candidate: TaskTree, kitchen: Kitchen) -> TaskTree | None:
    if not candidate.steps:
        return candidate if candidate.goal in kitchen else None
    ordered = reference_execution_order(candidate.steps, kitchen)
    if ordered is None:
        return None
    last_producer = None
    for i, unit in enumerate(ordered):
        if candidate.goal in unit.output_keys:
            last_producer = i
    if last_producer is None:
        return None
    return TaskTree(steps=tuple(ordered[: last_producer + 1]), goal=candidate.goal)


def reference_finalize(discovery, goal: NodeKey, kitchen: Kitchen) -> TaskTree | None:
    """The old pipeline: ``_executable_tree(finalize_tree(discovery, goal), kitchen)``."""
    return reference_executable_tree(reference_finalize_tree(discovery, goal), kitchen)
