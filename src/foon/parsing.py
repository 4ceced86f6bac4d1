"""Readers and writers for the FOON text format and its sidecar files.

The functional-unit text format is line oriented. The first whitespace
separated token of a line is its tag (case-insensitive); the rest is the
payload:

    //              delimits functional-unit blocks (at line start)
    O <label>       an object node; before the M line it is an input,
                    after it an output ("0" is accepted as a legacy
                    spelling of "O")
    S <payload>     a state of the most recent object; a bracketed suffix
                    ``[x]`` names a relative container and every braced
                    group ``{a,b}`` contributes ingredients. A payload of
                    braced groups only (``S {a,b}``) adds ingredients and
                    no state
    M <label>       the block's single motion

Blank lines are ignored, unknown tags are skipped with a warning, and all
failures are reported as :class:`ParseDiagnostic` records instead of
exceptions; any error-severity diagnostic fails the whole parse.

The parser only splits lines into labels, states, containers and
ingredients; the node types alone normalize and validate them, so the
message for an empty label is the :class:`InvalidNodeError` of
:class:`ObjectNode`, :class:`StateDescriptor` or :class:`MotionNode`,
anchored to the O, S or M line. Each distinct line is split into tag and
payload, each distinct S payload parsed, each distinct M payload made a
:class:`MotionNode` and each distinct object text (its O payload and S
payloads) built into a node once per parse. Only the first object over a
distinct tuple of S payloads runs :class:`ObjectNode`; an object with
another label over the same S payloads is that node's
:meth:`ObjectNode.with_label`, which shares its states, ingredients and the
tail of its key. Equal motion payloads share one motion, and nodes with
equal keys are one shared instance.

Kitchen and goal files are JSON lists of ``{"label": ..., "states": [...],
"ingredients": [...]}`` records whose state strings use the same payload
mini-grammar as S lines. Motion success rates come from a JSON object
mapping motion label to a number; :class:`MotionNode` normalizes the label
and checks that the rate lies in [0, 1]. JSON nested too deeply to decode
is invalid JSON like any other: a :class:`SchemaError`.

Serialization is canonical: states sorted by (label, container),
ingredients sorted lexicographically and attached to the first state line
(or to a state-less ``S {a,b}`` line when the object has no states), LF
line endings. Parsing serialized output and serializing again is
byte-identical. A :class:`RenderMemo` passed to every call of one run makes
each distinct node and unit render once, with the same output; every tree
is joined from those pieces. ``hashlib`` is imported only to name DOT nodes.
"""

from __future__ import annotations

__all__ = [
    "FoonWarning",
    "ParseDiagnostic",
    "SchemaError",
    "apply_motion_rates",
    "export_dot",
    "parse_foon_text",
    "parse_goals",
    "parse_kitchen",
    "parse_motion_rates",
    "serialize_task_tree",
    "serialize_units",
]

import json
import re
import warnings

from .core import (
    FoonError,
    FoonGraph,
    FunctionalUnit,
    InvalidNodeError,
    Kitchen,
    MotionNode,
    NodeKey,
    ObjectNode,
    StateDescriptor,
    TaskTree,
    _set,
    _state_sort_key,
    _Value,
)

WARNING = "warning"
ERROR = "error"


class FoonWarning(UserWarning):
    """Non-fatal condition noticed while reading input files."""


class SchemaError(FoonError):
    """A kitchen, goal, or motion-rate document violates its schema."""


class ParseDiagnostic(_Value):
    """A problem found while parsing FOON text, anchored to a source line."""

    __slots__ = _fields = ("line_number", "message", "severity")

    def __init__(self, line_number: int, message: str, severity: str = ERROR):
        _set(self, "line_number", line_number)
        _set(self, "message", message)
        _set(self, "severity", severity)

    def __str__(self) -> str:
        return f"line {self.line_number}: {self.severity}: {self.message}"


_BRACES = re.compile(r"\{([^{}]*)\}")
_BRACKETS = re.compile(r"\[([^\[\]]*)\]")
_OBJECT_TAGS = ("o", "0")  # "0" appears in older hand-written files


def parse_state_payload(payload: str) -> tuple[StateDescriptor | None, frozenset[str]]:
    """Parse an S-line payload into a state plus the ingredients it carries.

    Each braced group ``{a,b}`` adds its comma-separated parts as written
    (:class:`ObjectNode` normalizes them and drops blank ones), the first
    non-blank bracketed group names the relative container, and the rest is
    the state label. A payload made only of braced groups naming at least
    one ingredient carries no state, and the returned state is None.
    Otherwise :class:`StateDescriptor` raises InvalidNodeError when the
    state label is empty.
    """
    ingredients: list[str] = []

    def collect(match: re.Match) -> str:
        ingredients.extend(match.group(1).split(","))
        return " "

    rest = _BRACES.sub(collect, payload)
    if not rest.strip() and any(map(str.strip, ingredients)):
        return None, frozenset(ingredients)
    container = next(filter(str.strip, _BRACKETS.findall(rest)), None)
    return StateDescriptor(_BRACKETS.sub(" ", rest), container), frozenset(ingredients)


def _split_line(raw: str) -> tuple[str, str]:
    """The (kind, payload) of one line.

    ``kind`` is "" for a blank line, "//" for a delimiter, "o", "s" or "m"
    for a tag (lowercased, "0" read as "o") and "?" for an unknown tag, whose
    payload is then the tag as written.
    """
    stripped = raw.strip()
    if not stripped:
        return "", ""
    if stripped.startswith("//"):
        return "//", ""
    tag, *rest = stripped.split(None, 1)
    kind = tag.lower()
    if kind in _OBJECT_TAGS:
        kind = "o"
    elif kind not in ("s", "m"):
        return "?", tag
    return kind, rest[0] if rest else ""


def parse_foon_text(text: str) -> tuple[list[FunctionalUnit], list[ParseDiagnostic]]:
    """Parse FOON text into functional units plus diagnostics.

    Never raises: every problem becomes a diagnostic. If any diagnostic has
    error severity the parse fails and the returned unit list is empty.
    """
    diagnostics: list[ParseDiagnostic] = []
    units: list[FunctionalUnit] = []
    # Each distinct piece is worked out once per parse. A payload that fails
    # is not stored, so every occurrence reports its own line.
    tagged: dict[str, tuple[str, str]] = {}  # raw line -> (kind, payload)
    parsed_states: dict[str, tuple] = {}  # S payload -> parse_state_payload result
    motions: dict[str, MotionNode] = {}  # M payload -> its one instance
    built: dict[tuple[str, ...], ObjectNode] = {}  # O and S payloads -> node
    alike: dict[tuple[str, ...], ObjectNode] = {}  # S payloads -> first node of them
    shared: dict[str, ObjectNode] = {}  # node key -> its one instance
    failed = False

    def error(line_number: int, message: str) -> None:
        nonlocal failed
        failed = True
        diagnostics.append(ParseDiagnostic(line_number, message, ERROR))

    def build(lines: list[int], payloads: list[str]) -> ObjectNode | None:
        content = tuple(payloads)
        node = built.get(content)
        if node is not None:
            return node
        state_part = content[1:]
        sibling = alike.get(state_part)
        if sibling is None:
            states: set[StateDescriptor] = set()
            ingredients: set[str] = set()
            for line_number, payload in zip(lines[1:], state_part):
                parsed = parsed_states.get(payload)
                if parsed is None:
                    try:
                        parsed = parsed_states[payload] = parse_state_payload(payload)
                    except InvalidNodeError as exc:
                        error(line_number, str(exc))
                        return None
                state, extra = parsed
                if state is not None:
                    states.add(state)
                ingredients.update(extra)
        try:
            if sibling is None:
                node = alike[state_part] = ObjectNode(payloads[0], states, ingredients)
            else:
                node = sibling.with_label(payloads[0])
        except InvalidNodeError as exc:
            error(lines[0], str(exc))
            return None
        node = built[content] = shared.setdefault(node.key, node)
        return node

    def close(start: int, inputs: list, outputs: list, motion: MotionNode | None):
        input_nodes = [build(*obj) for obj in inputs]
        output_nodes = [build(*obj) for obj in outputs]
        if motion is None:
            error(start, "block with no motion line")
        if not failed:
            units.append(FunctionalUnit(input_nodes, motion, output_nodes, len(units)))

    # Per block: each object is a pair (line numbers, payloads) of its O line
    # and S lines; ``objects`` is the side new objects join, outputs after M.
    start: int | None = None
    previous_delimiter: int | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        entry = tagged.get(raw)
        if entry is None:
            entry = tagged[raw] = _split_line(raw)
        kind, payload = entry
        if not kind:
            continue
        if kind == "//":
            if start is not None:
                close(start, inputs, outputs, motion)
                start = None
            elif previous_delimiter is not None:
                diagnostics.append(
                    ParseDiagnostic(line_number, "empty functional-unit block", WARNING)
                )
            previous_delimiter = line_number
            continue
        if start is None:
            start, inputs, outputs, motion, obj = line_number, [], [], None, None
            objects = inputs
        if kind == "s":
            if obj is None:
                error(line_number, "state line with no preceding object line")
            else:
                obj[0].append(line_number)
                obj[1].append(payload)
        elif kind == "o":
            obj = ([line_number], [payload])
            objects.append(obj)
        elif kind == "m":
            if objects is outputs:
                error(line_number, "block has more than one motion line")
            elif not inputs:
                error(line_number, "motion line with no preceding object line")
            else:
                objects, obj = outputs, None
                motion = motions.get(payload)
                if motion is None:
                    try:
                        motion = motions[payload] = MotionNode(payload)
                    except InvalidNodeError as exc:
                        error(line_number, str(exc))
        else:
            diagnostics.append(
                ParseDiagnostic(line_number, f"unknown line tag {payload!r}", WARNING)
            )
    if start is not None:
        close(start, inputs, outputs, motion)
    return ([] if failed else units), diagnostics


def _parse_node_records(text: str, what: str) -> list[ObjectNode]:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise SchemaError(f"{what}: not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise SchemaError(f"{what}: expected a list of object records")

    nodes: list[ObjectNode] = []
    parsed: dict[str, tuple] = {}  # state string -> parse_state_payload result
    for index, entry in enumerate(data):
        where = f"{what} entry {index}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object record")
        if "label" not in entry:
            raise SchemaError(f'{where}: missing "label"')
        label = entry["label"]
        if not isinstance(label, str):
            raise SchemaError(f'{where}: "label" must be a string')
        states_raw = entry.get("states", [])
        ingredients_raw = entry.get("ingredients", [])
        if not isinstance(states_raw, list):
            raise SchemaError(f'{where}: "states" must be a list of strings')
        if not isinstance(ingredients_raw, list):
            raise SchemaError(f'{where}: "ingredients" must be a list of strings')

        states: set[StateDescriptor] = set()
        ingredients: set[str] = set()
        for s in states_raw:
            if not isinstance(s, str):
                raise SchemaError(f'{where}: "states" must be a list of strings')
            if s in parsed:
                state, extra = parsed[s]
            else:
                try:
                    state, extra = parsed[s] = parse_state_payload(s)
                except InvalidNodeError as exc:
                    raise SchemaError(f"{where}: state {s!r}: {exc}") from exc
            if state is None:
                # Records list ingredients in their own field.
                raise SchemaError(f"{where}: state {s!r}: state label is empty")
            states.add(state)
            ingredients.update(extra)
        for ing in ingredients_raw:
            if not isinstance(ing, str):
                raise SchemaError(f'{where}: "ingredients" must be a list of strings')
            ingredients.add(ing)
        try:
            nodes.append(ObjectNode(label, states, ingredients))
        except InvalidNodeError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    return nodes


def parse_kitchen(text: str) -> Kitchen:
    """Read a kitchen document into a deduplicated :class:`Kitchen`."""
    return Kitchen(_parse_node_records(text, "kitchen"))


def parse_goals(text: str) -> list[ObjectNode]:
    """Read a goal document, preserving order; duplicate goals warn."""
    nodes = _parse_node_records(text, "goals")
    seen: set[str] = set()
    for node in nodes:
        if node.key in seen:
            warnings.warn(f"duplicate goal {node.label!r}", FoonWarning, stacklevel=2)
        seen.add(node.key)
    return nodes


def parse_motion_rates(text: str) -> dict[str, float]:
    """Read a motion success-rate document into a normalized-label map."""
    # Every JSON object arrives as a tuple of (key, value) pairs, so
    # duplicate labels stay visible and a nested object fails the number
    # check below.
    try:
        data = json.loads(text, object_pairs_hook=tuple)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise SchemaError(f"motion rates: not valid JSON: {exc}") from exc
    if not isinstance(data, tuple):
        raise SchemaError("motion rates: expected an object mapping motion to rate")

    rates: dict[str, float] = {}
    for raw_label, value in data:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"motion rates: rate for {raw_label!r} must be a number")
        try:
            motion = MotionNode(raw_label, value)
        except InvalidNodeError as exc:
            raise SchemaError(f"motion rates: motion {raw_label!r}: {exc}") from exc
        if motion.label in rates:
            raise SchemaError(f"motion rates: duplicate motion {motion.label!r}")
        rates[motion.label] = motion.success_rate
    return rates


def apply_motion_rates(
    units: list[FunctionalUnit], rates: dict[str, float]
) -> list[FunctionalUnit]:
    """Attach success rates to motions; absent motions default to 1.0.

    Rate labels are matched after :class:`MotionNode` normalizes them. A
    unit whose motion has a rate is copied with that motion, and keeps its
    index, keys and signature. Warns once per motion label that has no entry
    in the rate map.
    """
    motions = {m.label: m for m in map(MotionNode, rates, rates.values())}
    missing: set[str] = set()
    out: list[FunctionalUnit] = []
    for unit in units:
        label = unit.motion.label
        if label in motions:
            unit = unit._with(motions[label], unit.unit_index)
        elif label not in missing:
            missing.add(label)
            warnings.warn(
                f"no success rate for motion {label!r}; defaulting to 1.0",
                FoonWarning,
                stacklevel=2,
            )
        out.append(unit)
    return out


class RenderMemo:
    """Text already rendered in one run, so each distinct piece renders once.

    Pass one memo to every :func:`serialize_task_tree` and
    :func:`export_dot` call of a run; the output is the same as without it.
    Each map is keyed by exactly what its text depends on, so none ever
    needs clearing, and every tree is joined from these pieces:

    * ``nodes``: node key -> the node's O/S lines
    * ``units``: (input keys, motion label, output keys) -> the unit's
      block. Not the unit signature, which sorts the keys and so would merge
      units whose objects are written in a different order.
    * ``dot_nodes``: node key -> (DOT identifier, declaration line)
    """

    def __init__(self):
        self.nodes: dict[NodeKey, str] = {}
        self.units: dict[tuple, str] = {}
        self.dot_nodes: dict[NodeKey, tuple[str, str]] = {}


def _state_text(state: StateDescriptor) -> str:
    if state.relative_container:
        return f"{state.label} [{state.relative_container}]"
    return state.label


def _node_text(node: ObjectNode, memo: RenderMemo) -> str:
    text = memo.nodes.get(node.key)
    if text is None:
        # Ingredients ride on the first state line in canonical order, or on
        # a state-less "S {a,b}" line when the node has no states.
        payloads = [_state_text(s) for s in sorted(node.states, key=_state_sort_key)]
        if node.ingredients:
            ingredients = "{" + ",".join(sorted(node.ingredients)) + "}"
            if payloads:
                payloads[0] += " " + ingredients
            else:
                payloads.append(ingredients)
        lines = [f"O {node.label}", *(f"S {payload}" for payload in payloads)]
        text = memo.nodes[node.key] = "\n".join(lines)
    return text


def _unit_text(unit: FunctionalUnit, memo: RenderMemo) -> str:
    key = unit.input_keys, unit.motion.label, unit.output_keys
    text = memo.units.get(key)
    if text is None:
        lines = ["//"]
        lines.extend(_node_text(node, memo) for node in unit.inputs)
        lines.append(f"M {unit.motion.label}")
        lines.extend(_node_text(node, memo) for node in unit.outputs)
        text = memo.units[key] = "\n".join(lines)
    return text


def serialize_units(units, memo: RenderMemo | None = None) -> str:
    """Render functional units in the canonical text format ("" when empty).

    ``memo`` reuses the node and unit texts of earlier calls (see
    :class:`RenderMemo`).
    """
    memo = RenderMemo() if memo is None else memo
    blocks = [_unit_text(unit, memo) for unit in units]
    if not blocks:
        return ""
    return "\n".join(blocks) + "\n//\n"


def serialize_task_tree(tree: TaskTree, memo: RenderMemo | None = None) -> str:
    """Render a task tree's steps, execution order first to last.

    ``memo`` reuses the node and unit texts of earlier calls (see
    :class:`RenderMemo`).
    """
    return serialize_units(tree.steps, memo)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_node(node: ObjectNode) -> tuple[str, str]:
    import hashlib  # here, so that a run without DOT output never loads it
    ident = "o" + hashlib.sha1(node.key.encode("utf-8")).hexdigest()[:12]
    states = ", ".join(_state_text(s) for s in sorted(node.states, key=_state_sort_key))
    parts = (node.label, states, "{" + ", ".join(sorted(node.ingredients)) + "}")
    # escape first, then join with the DOT newline sequence
    label = "\\n".join(_dot_escape(part) for part in parts)
    return ident, f'  "{ident}" [shape=box, label="{label}"];'


def export_dot(source: FoonGraph | TaskTree, memo: RenderMemo | None = None) -> str:
    """Render a graph or task tree as deterministic Graphviz DOT text.

    Object nodes are boxes identified by their node key (so equal nodes
    merge); each unit's motion is its own ellipse. Render with any DOT
    tool, e.g. ``dot -Tpng out.dot -O``. ``memo`` reuses the node
    declarations of earlier calls (see :class:`RenderMemo`).
    """
    memo = RenderMemo() if memo is None else memo
    units = source.steps if isinstance(source, TaskTree) else source.units
    lines = ["digraph foon {"]
    declared: set[str] = set()

    def declare(nodes) -> list[str]:
        idents = []
        for node in nodes:
            key = node.key
            entry = memo.dot_nodes.get(key)
            if entry is None:
                entry = memo.dot_nodes[key] = _dot_node(node)
            if key not in declared:
                declared.add(key)
                lines.append(entry[1])
            idents.append(entry[0])
        return idents

    for position, unit in enumerate(units):
        motion_id = f"m{position}"
        input_ids = declare(unit.inputs)
        lines.append(
            f'  "{motion_id}" [shape=ellipse, label="{_dot_escape(unit.motion.label)}"];'
        )
        output_ids = declare(unit.outputs)
        for ident in input_ids:
            lines.append(f'  "{ident}" -> "{motion_id}";')
        for ident in output_ids:
            lines.append(f'  "{motion_id}" -> "{ident}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
