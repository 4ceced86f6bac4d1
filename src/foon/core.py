"""Domain model for functional object-oriented networks (FOON).

A FOON is a bipartite graph: object nodes flow into a motion node, which
transforms them into new object nodes. One motion together with its input
and output objects is a *functional unit* (one recipe step). A *task tree*
is an execution-ordered list of units that turns a kitchen (the objects
assumed available) into a goal node. Each value builds its own indexes:
``FoonGraph(units)`` drops duplicate units and maps each object node to the
units that output it, and ``Kitchen(nodes)`` derives its key set.

:func:`forward_chain`, the one forward pass from a kitchen, gives the step
order of every retrieved task tree; the live-producer index is the producer
index of the units it fires. It and :func:`validate_tree` only read the
kitchen's key set: they keep the keys derived so far in a set of their own,
so checking one task tree costs what the tree costs, not what the kitchen
holds.

Object identity is canonical: labels, states and ingredients are lowercased,
trimmed and whitespace-collapsed, and two nodes are the same node exactly
when their normalized content is equal. Each node computes its key, and
each unit its keys and signature, as JSON text (a string caches its
hash), once on construction; there is no process-global cache. The value
types are ``__slots__`` classes that compare by content and raise
AttributeError on assignment, so they are safe to share between searches.
Each slot is written only through the setter :func:`_setters` binds once
per class, by ``__init__`` or a copy that skips it. A graph remembers two
things, each a pure function of what it was computed from: its
live-producer index for the last kitchen, and the greedy commitments of
each heuristic, one unit per item with several producers, filled as
searches first rank them.
"""

from __future__ import annotations

__all__ = [
    "FoonError",
    "FoonGraph",
    "FunctionalUnit",
    "InvalidNodeError",
    "InvalidUnitError",
    "Kitchen",
    "MotionNode",
    "NodeKey",
    "ObjectNode",
    "StateDescriptor",
    "TaskTree",
    "ValidationReport",
    "build_graph",
    "node_key",
    "normalize",
    "reachable_oracle",
    "validate_tree",
]

import heapq
from collections import deque
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

NodeKey = str


class _Value:
    """Base of the immutable value types. ``_fields`` names the ``__init__``
    parameters in order; ``__init__`` sets each slot once with its
    :func:`_setters` setter, and a slot not in ``_fields`` is derived from
    them. Instances of one class with equal fields are equal and hash as the
    tuple of their fields; assigning or deleting raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # The fields as a tuple, read in C (attrgetter gives one field bare).
        get = attrgetter(*cls._fields)
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda v: (get(v),))
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _setters(cls: type[_Value]) -> tuple:
    """The bound ``__set__`` of each slot of ``cls``, in ``__slots__`` order:
    the one way to write a slot, bound once per class at module level."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class FoonError(Exception):
    """Base class for errors raised by this package."""


class InvalidNodeError(FoonError):
    """A node violates its content rules (e.g. empty label)."""


class InvalidUnitError(FoonError):
    """A functional unit violates its content rules.

    ``unit_index`` is the position of the offending unit among the units
    handed to :class:`FoonGraph` (or :func:`build_graph`, the same call).
    """

    def __init__(self, message: str, unit_index: int):
        super().__init__(f"unit {unit_index}: {message}")
        self.unit_index = unit_index


def normalize(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace to single spaces."""
    return " ".join(text.split()).lower()


class StateDescriptor(_Value):
    """One state of an object, e.g. ``empty`` or ``in [bowl]``.

    ``relative_container`` holds the bracketed payload for states that are
    relative to another object. An empty container collapses to ``None``.
    """

    __slots__ = _fields = ("label", "relative_container")

    def __init__(self, label: str, relative_container: str | None = None):
        normalized = normalize(label)
        if not normalized:
            raise InvalidNodeError("state label is empty after normalization")
        if relative_container is not None:
            relative_container = normalize(relative_container) or None
        _set_state_label(self, normalized)
        _set_state_container(self, relative_container)


def _state_sort_key(state: StateDescriptor) -> tuple[str, str]:
    return (state.label, state.relative_container or "")


class ObjectNode(_Value):
    """An object with a set of states and a set of contained ingredients.

    ``key`` is the node's canonical identity, computed once on
    construction: the compact, ASCII-escaped JSON text of (label, sorted
    states, sorted ingredients), joined from escaped strings. Two nodes get
    equal keys exactly when their normalized content is equal, regardless of
    state/ingredient order, letter case or surrounding whitespace.
    :meth:`with_label` makes a node of another label over the same states
    and ingredients without sorting or quoting them again.
    """

    _fields = ("label", "states", "ingredients")
    __slots__ = _fields + ("key",)

    def __init__(self, label: str, states: frozenset[StateDescriptor] = frozenset(),
                 ingredients: frozenset[str] = frozenset()):
        normalized = normalize(label)
        if not normalized:
            raise InvalidNodeError("object label is empty after normalization")
        states = frozenset(states)
        ingredients = frozenset(filter(None, map(normalize, ingredients)))
        ordered = sorted(map(_state_sort_key, states))
        pairs = ",".join([f"[{_quote(s)},{_quote(c)}]" for s, c in ordered])
        contents = ",".join(map(_quote, sorted(ingredients)))
        _set_node_label(self, normalized)
        _set_node_states(self, states)
        _set_node_ingredients(self, ingredients)
        _set_node_key(self, f"[{_quote(normalized)},[{pairs}],[{contents}]]")

    def with_label(self, label: str) -> ObjectNode:
        """A node of ``label`` with this node's states and ingredients.

        Equal to ``ObjectNode(label, self.states, self.ingredients)``, and
        raises the same InvalidNodeError for an empty label. It shares this
        node's sets and the states and ingredients part of its key, so only
        the label is normalized and quoted.
        """
        normalized = normalize(label)
        if not normalized:
            raise InvalidNodeError("object label is empty after normalization")
        node = object.__new__(ObjectNode)
        _set_node_label(node, normalized)
        _set_node_states(node, self.states)
        _set_node_ingredients(node, self.ingredients)
        _set_node_key(node, "[" + _quote(normalized) + self.key[len(_quote(self.label)) + 1:])
        return node


def node_key(node: ObjectNode) -> NodeKey:
    """Canonical identity of an object node; read :attr:`ObjectNode.key` instead.
    Kept only for its last caller, ``perfbench/libpass.py``."""
    return node.key


class MotionNode(_Value):
    """A named manipulation motion weighted with a success rate in [0, 1]."""

    __slots__ = _fields = ("label", "success_rate")

    def __init__(self, label: str, success_rate: float = 1.0):
        normalized = normalize(label)
        if not normalized:
            raise InvalidNodeError("motion label is empty after normalization")
        if not 0.0 <= success_rate <= 1.0:
            raise InvalidNodeError(f"success rate {success_rate!r} outside [0, 1]")
        _set_motion_label(self, normalized)
        _set_motion_rate(self, float(success_rate))


class FunctionalUnit(_Value):
    """One recipe step: input objects, a single motion, output objects.

    ``input_keys`` and ``output_keys`` are the node keys of ``inputs`` and
    ``outputs``. ``signature``, the unit's structural identity, is the JSON
    text ``[[sorted input keys],"motion label",[sorted output keys]]``, a
    string so that it caches its hash. All three are computed once on
    construction. The signature deliberately ignores the motion's success
    rate and the unit index, so re-weighted or re-numbered copies of the
    same step compare equal; :meth:`_with` makes such a copy.
    """

    _fields = ("inputs", "motion", "outputs", "unit_index")
    __slots__ = _fields + ("input_keys", "output_keys", "signature")

    def __init__(self, inputs: tuple[ObjectNode, ...], motion: MotionNode,
                 outputs: tuple[ObjectNode, ...], unit_index: int = 0):
        inputs, outputs = tuple(inputs), tuple(outputs)
        input_keys = tuple([node.key for node in inputs])
        output_keys = tuple([node.key for node in outputs])
        signature = (f"[[{','.join(sorted(input_keys))}],{_quote(motion.label)},"
                     f"[{','.join(sorted(output_keys))}]]")
        _set_unit_inputs(self, inputs)
        _set_unit_motion(self, motion)
        _set_unit_outputs(self, outputs)
        _set_unit_index(self, unit_index)
        _set_unit_input_keys(self, input_keys)
        _set_unit_output_keys(self, output_keys)
        _set_unit_signature(self, signature)

    def _with(self, motion: MotionNode, unit_index: int) -> FunctionalUnit:
        """This unit with ``motion`` (of this motion's label) and ``unit_index``.

        The keys and signature depend on neither the success rate nor the
        index, so they are copied, not computed again.
        """
        unit = object.__new__(FunctionalUnit)
        _set_unit_inputs(unit, self.inputs)
        _set_unit_motion(unit, motion)
        _set_unit_outputs(unit, self.outputs)
        _set_unit_index(unit, unit_index)
        _set_unit_input_keys(unit, self.input_keys)
        _set_unit_output_keys(unit, self.output_keys)
        _set_unit_signature(unit, self.signature)
        return unit


class FoonGraph(_Value):
    """Deduplicated unit store with a producer index; :func:`build_graph`
    is this constructor.

    It keeps the first unit of each signature, renumbered densely in order,
    and raises :class:`InvalidUnitError` with the source position for a unit
    with no inputs or no outputs. ``producers`` maps each node key to the
    units that output it, in ascending ``unit_index`` order.
    ``commitments`` maps a greedy heuristic's name to ``{item key: the
    producer it ranks first}``; it starts empty, and greedy search fills it
    the first time it ranks an item's several producers, so each ranking is
    done once per graph and heuristic. Graphs compare by their units but
    have no hash: the index is a dict, and both memos are written after
    construction. Neither takes part in equality, ``repr`` or pickling, so
    a copy or an unpickled graph starts with empty memos.
    """

    _fields = ("units",)
    # _live_memo: (kitchen keys, live index); commitments: see above.
    __slots__ = _fields + ("producers", "_live_memo", "commitments")
    __hash__ = None

    def __init__(self, units: Iterable[FunctionalUnit] = ()):
        kept: list[FunctionalUnit] = []
        seen: set[str] = set()
        for source_index, unit in enumerate(units):
            if not unit.inputs:
                raise InvalidUnitError("no input nodes", source_index)
            if not unit.outputs:
                raise InvalidUnitError("no output nodes", source_index)
            if unit.signature in seen:
                continue
            seen.add(unit.signature)
            if unit.unit_index != len(kept):
                unit = unit._with(unit.motion, len(kept))
            kept.append(unit)
        _set_graph_units(self, tuple(kept))
        _set_producers(self, _producer_index(kept))
        _set_live_memo(self, None)
        _set_commitments(self, {})

    def producers_of(self, key: NodeKey) -> tuple[FunctionalUnit, ...]:
        """Units whose outputs contain ``key``, in ascending unit_index order."""
        return self.producers.get(key, ())

    def live_producers(self, kitchen: Kitchen) -> dict[NodeKey, tuple[FunctionalUnit, ...]]:
        """The producer index of the units the kitchen can feed.

        These are exactly the units that one :func:`forward_chain` pass
        from ``kitchen`` fires, indexed in position order, so each key maps
        to its fed producers in ascending unit_index order and a key with
        none is absent. The result is memoized for the last kitchen key
        set, so every goal searched against one kitchen shares it.
        """
        memo = self._live_memo
        if memo is not None and (memo[0] is kitchen.keys or memo[0] == kitchen.keys):
            return memo[1]

        fired, _ = forward_chain(self.units, kitchen.keys)
        live = _producer_index(map(self.units.__getitem__, sorted(fired)))
        _set_live_memo(self, (kitchen.keys, live))
        return live

    def __len__(self) -> int:
        return len(self.units)


build_graph = FoonGraph


def _producer_index(units) -> dict[NodeKey, tuple[FunctionalUnit, ...]]:
    """Map each key that ``units`` output to the units that output it, in
    the given order; a unit that names one output twice is listed once."""
    index: dict[NodeKey, list[FunctionalUnit]] = {}
    for unit in units:
        for key in dict.fromkeys(unit.output_keys):
            index.setdefault(key, []).append(unit)
    return {key: tuple(found) for key, found in index.items()}


def forward_chain(
    units, kitchen_keys: frozenset[NodeKey] | set[NodeKey]
) -> tuple[list[int], set[NodeKey]]:
    """Fire units lowest position first from ``kitchen_keys``.

    Returns ``(fired, made)``: the positions of the fired units in firing
    order, and the keys they output that are not in ``kitchen_keys``, so
    ``kitchen_keys | made`` is the closure. A unit fires once each of its
    inputs is in the kitchen or made (availability only grows, so a ready
    unit stays ready). Units behind a missing input or a cycle never fire.
    ``kitchen_keys`` is only read, never copied or mutated. One scan in
    position order fires each unit ready when reached, so a list already in
    execution order costs one scan. Only a unit not ready then gets an
    unmet-input counter (Dowling & Gallier 1984); once met, it joins a
    min-heap that fires before the scan moves on, lowest position first.
    """
    waiting: dict[NodeKey, list[int]] = {}
    unmet: dict[int, int] = {}
    ready: list[int] = []
    fired: list[int] = []
    made: set[NodeKey] = set()
    for scan, unit in enumerate(units):
        for key in unit.input_keys:
            if key not in made and key not in kitchen_keys:
                needs = set(unit.input_keys) - kitchen_keys - made
                unmet[scan] = len(needs)
                for need in needs:
                    waiting.setdefault(need, []).append(scan)
                break
        else:
            pos = scan
            while True:
                fired.append(pos)
                for key in units[pos].output_keys:
                    if key in made or key in kitchen_keys:
                        continue
                    made.add(key)
                    if key in waiting:
                        for waiter in waiting.pop(key):
                            unmet[waiter] -= 1
                            if not unmet[waiter]:
                                heapq.heappush(ready, waiter)
                if not ready:
                    break
                pos = heapq.heappop(ready)
    return fired, made


class Kitchen(_Value):
    """The set of object nodes available at the start of a task.

    ``Kitchen(nodes)`` keeps the first node of each key, in key order, and
    derives ``keys``, their frozenset; membership is by node key. Nodes of
    equal key are equal, so kitchens of one key set are equal and hash
    alike, whatever order their nodes were listed in.
    """

    _fields = ("nodes",)
    __slots__ = _fields + ("keys",)

    def __init__(self, nodes: Iterable[ObjectNode] = ()):
        first: dict[NodeKey, ObjectNode] = {}
        for node in nodes:
            first.setdefault(node.key, node)
        _set_kitchen_nodes(self, tuple([first[key] for key in sorted(first)]))
        _set_kitchen_keys(self, frozenset(first))

    def __contains__(self, key: NodeKey) -> bool:
        return key in self.keys

    def __len__(self) -> int:
        return len(self.keys)


class TaskTree(_Value):
    """Execution-ordered functional units satisfying a goal from a kitchen.

    Steps run leaves-first; the final step outputs the goal. Use
    :func:`validate_tree` to check feasibility.
    """

    __slots__ = _fields = ("steps", "goal")

    def __init__(self, steps: tuple[FunctionalUnit, ...], goal: NodeKey):
        _set_tree_steps(self, tuple(steps))
        _set_tree_goal(self, goal)


class ValidationReport(_Value):
    __slots__ = _fields = ("violations",)

    def __init__(self, violations: tuple[str, ...] = ()):
        _set_report_violations(self, violations)

    @property
    def ok(self) -> bool:
        return not self.violations


# The one writer of each slot (see _setters), bound once per class.
_set_state_label, _set_state_container = _setters(StateDescriptor)
_set_node_label, _set_node_states, _set_node_ingredients, _set_node_key = _setters(ObjectNode)
_set_motion_label, _set_motion_rate = _setters(MotionNode)
(_set_unit_inputs, _set_unit_motion, _set_unit_outputs, _set_unit_index,
 _set_unit_input_keys, _set_unit_output_keys, _set_unit_signature) = _setters(FunctionalUnit)
_set_graph_units, _set_producers, _set_live_memo, _set_commitments = _setters(FoonGraph)
_set_kitchen_nodes, _set_kitchen_keys = _setters(Kitchen)
_set_tree_steps, _set_tree_goal = _setters(TaskTree)
(_set_report_violations,) = _setters(ValidationReport)

_VALID = ValidationReport()


def validate_tree(kitchen: Kitchen, tree: TaskTree) -> ValidationReport:
    """Check that a task tree is executable against a kitchen.

    The kitchen's key set is only read, never copied: the outputs of the
    steps so far are kept in a set of their own, so the check costs what the
    tree costs. Violations (returned as data, never raised):
      * a step consumes an input that is neither in the kitchen nor output
        by an earlier step,
      * the final step does not output the goal,
      * two steps are structurally identical,
      * the tree is empty although the goal is not already in the kitchen.
    Repeats are found with one set of the steps' signatures (a tree of two
    or more steps); only when that set is shorter than the tree does the
    loop keep each signature's first position, to name the step a repeat
    duplicates. A valid tree gets one shared, immutable report: compare by
    value, not identity.
    """
    steps = tree.steps
    if not steps:
        if tree.goal in kitchen.keys:
            return _VALID
        return ValidationReport(("empty tree but goal not in kitchen",))

    violations: list[str] = []
    kitchen_keys = kitchen.keys
    made: set[NodeKey] = set()
    first: dict[str, int] | None = None
    if len(steps) > 1 and len({unit.signature for unit in steps}) < len(steps):
        first = {}
    for i, unit in enumerate(steps):
        for key in unit.input_keys:
            if key not in made and key not in kitchen_keys:
                violations.append(f"step {i}: input {key} unavailable")
        if first is not None:
            signature = unit.signature
            if signature in first:
                violations.append(f"step {i}: duplicate of step {first[signature]}")
            else:
                first[signature] = i
        made.update(unit.output_keys)

    if tree.goal not in steps[-1].output_keys:
        violations.append("final step does not output the goal")
    return ValidationReport(tuple(violations)) if violations else _VALID


def reachable_oracle(graph: FoonGraph, kitchen: Kitchen, goal: NodeKey) -> bool:
    """Ground truth for solvability, by forward-chaining saturation.

    Starts from the kitchen keys and repeatedly fires any unit whose inputs
    are all available, adding its outputs, until nothing changes. Returns
    whether the goal key ever becomes available. Independent of the search
    algorithms; used as the brute-force reference in tests.
    """
    available: set[NodeKey] = set(kitchen.keys)
    if goal in available:
        return True

    # Unmet-input counters give one pass per derived key instead of
    # rescanning all units every round. Positional indices, so the oracle
    # does not care how unit_index values were assigned.
    waiting: dict[NodeKey, list[int]] = {}
    unmet: list[int] = []
    for pos, unit in enumerate(graph.units):
        needs = set(unit.input_keys) - available
        unmet.append(len(needs))
        for key in needs:
            waiting.setdefault(key, []).append(pos)

    # A counter reaches zero once, so each unit is queued at most once.
    frontier = deque(pos for pos, n in enumerate(unmet) if n == 0)
    while frontier:
        idx = frontier.popleft()
        for key in graph.units[idx].output_keys:
            if key in available:
                continue
            available.add(key)
            if key == goal:
                return True
            for waiter in waiting.get(key, ()):
                unmet[waiter] -= 1
                if unmet[waiter] == 0:
                    frontier.append(waiter)
    return goal in available
