"""Frozen copy of the block-object FOON text parser, kept as a reference.

This is the parser that ``foon.parsing.parse_foon_text`` replaced: a
``_BlockParser`` per block that normalizes and empty-checks every label,
state, container and ingredient itself and re-parses the S lines of every
occurrence of an object. The differential test in ``test_parsing.py``
checks the one-pass parser against it. Do not edit it to match the new code.
"""

from __future__ import annotations

import re

from foon import FunctionalUnit, MotionNode, ObjectNode, StateDescriptor, normalize
from foon.parsing import ERROR, WARNING, ParseDiagnostic

_BRACES = re.compile(r"\{([^{}]*)\}")
_BRACKETS = re.compile(r"\[([^\[\]]*)\]")
_OBJECT_TAGS = ("o", "0")  # "0" appears in older hand-written files


def reference_parse_state_payload(
    payload: str,
) -> tuple[StateDescriptor | None, frozenset[str]]:
    """Parse an S-line payload into a state plus the ingredients it carries.

    A payload made only of braced groups naming at least one ingredient
    carries no state, and the returned state is None. Otherwise raises
    ValueError when the state label is empty once the braced and bracketed
    groups are stripped.
    """
    ingredients: set[str] = set()

    def collect(match: re.Match) -> str:
        ingredients.update(
            filter(None, (normalize(part) for part in match.group(1).split(",")))
        )
        return " "

    rest = _BRACES.sub(collect, payload)
    if ingredients and not normalize(rest):
        return None, frozenset(ingredients)
    containers = [normalize(m.group(1)) for m in _BRACKETS.finditer(rest)]
    rest = _BRACKETS.sub(" ", rest)
    label = normalize(rest)
    if not label:
        raise ValueError("state label is empty")
    container = next((c for c in containers if c), None)
    return StateDescriptor(label, container), frozenset(ingredients)


class _BlockParser:
    """Accumulates O/S/M lines of one block into a functional unit.

    ``nodes`` is shared by all blocks of one parse, so each distinct object
    node is built (and keyed) once and every later occurrence reuses it.
    """

    def __init__(self, diagnostics: list[ParseDiagnostic], nodes: dict):
        self.diagnostics = diagnostics
        self.nodes = nodes
        self.inputs: list[ObjectNode] = []
        self.outputs: list[ObjectNode] = []
        self.motion: str | None = None
        self.failed = False
        self._label: str | None = None
        self._states: set[StateDescriptor] = set()
        self._ingredients: set[str] = set()
        self._saw_object = False

    def _error(self, line_number: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line_number, message, ERROR))
        self.failed = True

    def _flush(self) -> None:
        if self._label is None:
            return
        content = (self._label, frozenset(self._states), frozenset(self._ingredients))
        node = self.nodes.get(content)
        if node is None:
            node = self.nodes[content] = ObjectNode(*content)
        (self.outputs if self.motion is not None else self.inputs).append(node)
        self._label = None
        self._states = set()
        self._ingredients = set()

    def feed(self, line_number: int, tag: str, payload: str) -> None:
        kind = tag.lower()
        if kind in _OBJECT_TAGS:
            label = normalize(payload)
            if not label:
                self._error(line_number, "object line with empty label")
                return
            self._flush()
            self._label = label
            self._saw_object = True
        elif kind == "s":
            if self._label is None:
                self._error(line_number, "state line with no preceding object line")
                return
            try:
                state, extra = reference_parse_state_payload(payload)
            except ValueError as exc:
                self._error(line_number, str(exc))
                return
            if state is not None:
                self._states.add(state)
            self._ingredients.update(extra)
        elif kind == "m":
            if self.motion is not None:
                self._error(line_number, "block has more than one motion line")
                return
            if not self._saw_object:
                self._error(line_number, "motion line with no preceding object line")
                return
            label = normalize(payload)
            if not label:
                self._error(line_number, "motion line with empty label")
                return
            self._flush()
            self.motion = label
        else:
            self.diagnostics.append(
                ParseDiagnostic(line_number, f"unknown line tag {tag!r}", WARNING)
            )

    def finish(self, start_line: int, unit_index: int) -> FunctionalUnit | None:
        self._flush()
        if self.motion is None:
            self._error(start_line, "block with no motion line")
        if self.failed:
            return None
        return FunctionalUnit(
            inputs=tuple(self.inputs),
            motion=MotionNode(self.motion),
            outputs=tuple(self.outputs),
            unit_index=unit_index,
        )


def reference_parse_foon_text(
    text: str,
) -> tuple[list[FunctionalUnit], list[ParseDiagnostic]]:
    """Parse FOON text into functional units plus diagnostics.

    Never raises: every problem becomes a diagnostic. If any diagnostic has
    error severity the parse fails and the returned unit list is empty.
    """
    diagnostics: list[ParseDiagnostic] = []
    units: list[FunctionalUnit] = []
    nodes: dict[tuple, ObjectNode] = {}  # (label, states, ingredients) -> node

    block: _BlockParser | None = None
    block_start = 0
    previous_delimiter: int | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("//"):
            if block is not None:
                unit = block.finish(block_start, len(units))
                if unit is not None:
                    units.append(unit)
                block = None
            elif previous_delimiter is not None:
                diagnostics.append(
                    ParseDiagnostic(line_number, "empty functional-unit block", WARNING)
                )
            previous_delimiter = line_number
            continue
        if block is None:
            block = _BlockParser(diagnostics, nodes)
            block_start = line_number
        parts = stripped.split(None, 1)
        block.feed(line_number, parts[0], parts[1] if len(parts) > 1 else "")

    if block is not None:
        unit = block.finish(block_start, len(units))
        if unit is not None:
            units.append(unit)

    if any(d.severity == ERROR for d in diagnostics):
        return [], diagnostics
    return units, diagnostics
