"""Frozen copy of the mutating forward pass and validator, kept as a reference.

These are the ``foon.core.forward_chain`` and ``foon.core.validate_tree``
that the read-only versions replaced: the pass adds every output to the
set its caller passes in, so callers copied the kitchen's key set first,
and the validator copied it too. The differential test in ``test_core.py``
checks the read-only versions against them. Do not edit them to match the
new code.
"""

from __future__ import annotations

import heapq

from foon import Kitchen, NodeKey, TaskTree, ValidationReport


def reference_forward_chain(units, available: set[NodeKey]) -> list[int]:
    waiting: dict[NodeKey, list[int]] = {}
    unmet: list[int] = []
    ready: list[int] = []
    for pos, unit in enumerate(units):
        needs = set(unit.input_keys) - available
        unmet.append(len(needs))
        for key in needs:
            waiting.setdefault(key, []).append(pos)
        if not needs:
            ready.append(pos)
    fired: list[int] = []
    while ready:
        pos = heapq.heappop(ready)
        fired.append(pos)
        for key in units[pos].output_keys:
            if key in available:
                continue
            available.add(key)
            for waiter in waiting.get(key, ()):
                unmet[waiter] -= 1
                if not unmet[waiter]:
                    heapq.heappush(ready, waiter)
    return fired


def reference_validate_tree(kitchen: Kitchen, tree: TaskTree) -> ValidationReport:
    violations: list[str] = []
    if not tree.steps:
        if tree.goal not in kitchen:
            violations.append("empty tree but goal not in kitchen")
        return ValidationReport(tuple(violations))

    available: set[NodeKey] = set(kitchen.keys)
    seen_signatures: dict[tuple, int] = {}
    for i, unit in enumerate(tree.steps):
        for key in unit.input_keys:
            if key not in available:
                violations.append(f"step {i}: input {key} unavailable")
        if unit.signature in seen_signatures:
            violations.append(
                f"step {i}: duplicate of step {seen_signatures[unit.signature]}"
            )
        else:
            seen_signatures[unit.signature] = i
        available.update(unit.output_keys)

    if tree.goal not in tree.steps[-1].output_keys:
        violations.append("final step does not output the goal")
    return ValidationReport(tuple(violations))
