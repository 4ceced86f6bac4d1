"""Domain model for functional object-oriented networks (FOON).

A FOON is a bipartite graph: object nodes flow into a motion node, which
transforms them into new object nodes. One motion together with its input
and output objects is a *functional unit* (one recipe step). A graph is a
deduplicated store of units plus a producer index mapping each object node
to the units that output it. A *task tree* is an execution-ordered list of
units that turns a kitchen (the objects assumed available) into a goal node.

:func:`forward_chain`, the one forward pass from a kitchen, gives both the
live-producer index and the step order of every retrieved task tree. It and
:func:`validate_tree` only read the kitchen's key set: they keep the keys
derived so far in a set of their own, so checking one task tree costs what
the tree costs, not what the kitchen holds.

Object identity is canonical: labels, states and ingredients are lowercased,
trimmed and whitespace-collapsed, and two nodes are the same node exactly
when their normalized content is equal. Each node computes its key, and
each unit its input keys, output keys and signature, once on construction;
there is no process-global cache. Everything here is immutable after
construction and safe to share between searches; the one thing a graph
remembers, its live-producer index for the last kitchen, is a pure
function of the graph and that kitchen.
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
import json
from collections import deque
from dataclasses import dataclass, field

NodeKey = str

# json.dumps(..., separators=(",", ":")) without building an encoder per call.
_encode_key = json.JSONEncoder(separators=(",", ":")).encode


class FoonError(Exception):
    """Base class for errors raised by this package."""


class InvalidNodeError(FoonError):
    """A node violates its content rules (e.g. empty label)."""


class InvalidUnitError(FoonError):
    """A functional unit violates its content rules.

    ``unit_index`` is the position of the offending unit in the list that
    was handed to :func:`build_graph`.
    """

    def __init__(self, message: str, unit_index: int):
        super().__init__(f"unit {unit_index}: {message}")
        self.unit_index = unit_index


def normalize(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace to single spaces."""
    return " ".join(text.split()).lower()


@dataclass(frozen=True, slots=True)
class StateDescriptor:
    """One state of an object, e.g. ``empty`` or ``in [bowl]``.

    ``relative_container`` holds the bracketed payload for states that are
    relative to another object. An empty container collapses to ``None``.
    """

    label: str
    relative_container: str | None = None

    def __post_init__(self):
        label = normalize(self.label)
        if not label:
            raise InvalidNodeError("state label is empty after normalization")
        container = None
        if self.relative_container is not None:
            container = normalize(self.relative_container) or None
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "relative_container", container)


def _state_sort_key(state: StateDescriptor) -> tuple[str, str]:
    return (state.label, state.relative_container or "")


@dataclass(frozen=True, slots=True)
class ObjectNode:
    """An object with a set of states and a set of contained ingredients.

    ``key`` is the node's canonical identity, computed once on
    construction: a deterministic serialization of (label, sorted states,
    sorted ingredients). Two nodes get equal keys exactly when their
    normalized content is equal, regardless of state/ingredient order,
    letter case or surrounding whitespace in the original text.
    """

    label: str
    states: frozenset[StateDescriptor] = frozenset()
    ingredients: frozenset[str] = frozenset()
    key: NodeKey = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        label = normalize(self.label)
        if not label:
            raise InvalidNodeError("object label is empty after normalization")
        ingredients = frozenset(
            filter(None, (normalize(i) for i in self.ingredients))
        )
        states = frozenset(self.states)
        key = _encode_key(
            [label, sorted(map(_state_sort_key, states)), sorted(ingredients)]
        )
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "ingredients", ingredients)
        object.__setattr__(self, "key", key)


def node_key(node: ObjectNode) -> NodeKey:
    """Canonical identity of an object node; read :attr:`ObjectNode.key` instead.
    Kept only for its last caller, ``perfbench/libpass.py``."""
    return node.key


@dataclass(frozen=True)
class MotionNode:
    """A named manipulation motion weighted with a success rate in [0, 1]."""

    label: str
    success_rate: float = 1.0

    def __post_init__(self):
        label = normalize(self.label)
        if not label:
            raise InvalidNodeError("motion label is empty after normalization")
        if not 0.0 <= self.success_rate <= 1.0:
            raise InvalidNodeError(
                f"success rate {self.success_rate!r} outside [0, 1]"
            )
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "success_rate", float(self.success_rate))


@dataclass(frozen=True, slots=True)
class FunctionalUnit:
    """One recipe step: input objects, a single motion, output objects.

    ``input_keys`` and ``output_keys`` are the node keys of ``inputs`` and
    ``outputs``, and ``signature`` is the unit's structural identity: input
    key multiset, motion label, output key multiset. All three are computed
    once on construction. The signature deliberately ignores the motion's
    success rate and the unit index, so re-weighted or re-numbered copies of
    the same step compare equal.
    """

    inputs: tuple[ObjectNode, ...]
    motion: MotionNode
    outputs: tuple[ObjectNode, ...]
    unit_index: int = 0
    input_keys: tuple[NodeKey, ...] = field(init=False, compare=False, repr=False)
    output_keys: tuple[NodeKey, ...] = field(init=False, compare=False, repr=False)
    signature: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        input_keys = tuple(n.key for n in self.inputs)
        output_keys = tuple(n.key for n in self.outputs)
        signature = (
            tuple(sorted(input_keys)), self.motion.label, tuple(sorted(output_keys))
        )
        object.__setattr__(self, "input_keys", input_keys)
        object.__setattr__(self, "output_keys", output_keys)
        object.__setattr__(self, "signature", signature)

    def with_motion(self, motion: MotionNode) -> "FunctionalUnit":
        """This unit with ``motion`` in place of a motion of the same label.

        Copies the fields as they are: the keys and signature cannot change
        with the success rate, so they are not computed again.
        """
        if motion.label != self.motion.label:
            raise ValueError(
                f"motion {motion.label!r} does not match {self.motion.label!r}"
            )
        return self._with("motion", motion)

    def with_index(self, unit_index: int) -> "FunctionalUnit":
        """This unit renumbered to ``unit_index``.

        Copies the fields as they are: the keys and signature do not depend
        on the index, so they are not computed again.
        """
        return self._with("unit_index", unit_index)

    def _with(self, name: str, value) -> "FunctionalUnit":
        unit = object.__new__(FunctionalUnit)
        for slot in self.__slots__:
            object.__setattr__(unit, slot, getattr(self, slot))
        object.__setattr__(unit, name, value)
        return unit


@dataclass(frozen=True)
class FoonGraph:
    """Deduplicated unit store with a producer index.

    ``producers`` maps each node key to the units that output it, in
    ascending ``unit_index`` order. Instances are immutable apart from the
    memo behind :meth:`live_producers`; build them with :func:`build_graph`.
    """

    units: tuple[FunctionalUnit, ...] = ()
    producers: dict[NodeKey, tuple[FunctionalUnit, ...]] = field(default_factory=dict)
    # (kitchen keys, live producer index) of the last live_producers call.
    _live_memo: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def producers_of(self, key: NodeKey) -> tuple[FunctionalUnit, ...]:
        """Units whose outputs contain ``key``, in ascending unit_index order."""
        return self.producers.get(key, ())

    def live_producers(
        self, kitchen: Kitchen
    ) -> dict[NodeKey, tuple[FunctionalUnit, ...]]:
        """The producer index restricted to units the kitchen can feed.

        Maps each key to its producers, in ascending unit_index order, whose
        inputs are all reachable from ``kitchen``; a key with no such
        producer is absent. One :func:`forward_chain` pass over all units
        finds the reachable keys. The result is memoized for the last
        kitchen key set, so every goal searched against one kitchen shares it.
        """
        memo = self._live_memo
        if memo is not None and (memo[0] is kitchen.keys or memo[0] == kitchen.keys):
            return memo[1]

        _, reachable = forward_chain(self.units, kitchen.keys)
        reachable |= kitchen.keys
        live: dict[NodeKey, tuple[FunctionalUnit, ...]] = {}
        for key, units in self.producers.items():
            fed = tuple(u for u in units if reachable.issuperset(u.input_keys))
            if fed:
                live[key] = fed
        object.__setattr__(self, "_live_memo", (kitchen.keys, live))
        return live

    def node_keys(self) -> frozenset[NodeKey]:
        """All distinct object-node keys appearing in the graph."""
        keys: set[NodeKey] = set()
        for unit in self.units:
            keys.update(unit.input_keys)
            keys.update(unit.output_keys)
        return frozenset(keys)

    def __len__(self) -> int:
        return len(self.units)


def forward_chain(
    units, kitchen_keys: frozenset[NodeKey] | set[NodeKey]
) -> tuple[list[int], set[NodeKey]]:
    """Fire units lowest position first from ``kitchen_keys``.

    Returns ``(fired, made)``: the positions of the fired units in firing
    order, and the keys they output that are not in ``kitchen_keys``, so
    ``kitchen_keys | made`` is the closure. A unit fires once each of its
    inputs is in the kitchen or made (availability only grows, so a ready
    unit stays ready). Units behind a missing input or a cycle never fire.
    ``kitchen_keys`` is only read, never copied or mutated, so the pass
    costs what the units cost, however large the kitchen. Unmet-input
    counters keep it linear (Dowling & Gallier 1984).
    """
    waiting: dict[NodeKey, list[int]] = {}
    unmet: list[int] = []
    ready: list[int] = []  # ascending, so already a heap
    for pos, unit in enumerate(units):
        needs = set(unit.input_keys) - kitchen_keys
        unmet.append(len(needs))
        for key in needs:
            waiting.setdefault(key, []).append(pos)
        if not needs:
            ready.append(pos)
    fired: list[int] = []
    made: set[NodeKey] = set()
    while ready:
        pos = heapq.heappop(ready)
        fired.append(pos)
        for key in units[pos].output_keys:
            if key in made or key in kitchen_keys:
                continue
            made.add(key)
            for waiter in waiting.get(key, ()):
                unmet[waiter] -= 1
                if not unmet[waiter]:
                    heapq.heappush(ready, waiter)
    return fired, made


def build_graph(units: list[FunctionalUnit] | tuple[FunctionalUnit, ...]) -> FoonGraph:
    """Assemble a graph from units, dropping structural duplicates.

    The first occurrence of each structurally identical unit wins;
    surviving units are re-indexed densely in their original order. Raises
    :class:`InvalidUnitError` (carrying the source position) for a unit
    with no inputs or no outputs.
    """
    kept: list[FunctionalUnit] = []
    seen: set[tuple] = set()
    producers: dict[NodeKey, list[FunctionalUnit]] = {}
    for source_index, unit in enumerate(units):
        if not unit.inputs:
            raise InvalidUnitError("no input nodes", source_index)
        if not unit.outputs:
            raise InvalidUnitError("no output nodes", source_index)
        if unit.signature in seen:
            continue
        seen.add(unit.signature)
        if unit.unit_index != len(kept):
            unit = unit.with_index(len(kept))
        kept.append(unit)
        for key in dict.fromkeys(unit.output_keys):
            producers.setdefault(key, []).append(unit)
    index = {key: tuple(found) for key, found in producers.items()}
    return FoonGraph(units=tuple(kept), producers=index)


@dataclass(frozen=True)
class Kitchen:
    """The set of object nodes available at the start of a task.

    Membership is by node key; the originating nodes are kept for
    reporting. Deduplicated on construction.
    """

    nodes: tuple[ObjectNode, ...] = ()
    keys: frozenset[NodeKey] = frozenset()

    @classmethod
    def from_nodes(cls, nodes) -> "Kitchen":
        kept: list[ObjectNode] = []
        keys: set[NodeKey] = set()
        for node in nodes:
            if node.key not in keys:
                keys.add(node.key)
                kept.append(node)
        return cls(nodes=tuple(kept), keys=frozenset(keys))

    def __contains__(self, key: NodeKey) -> bool:
        return key in self.keys

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class TaskTree:
    """Execution-ordered functional units satisfying a goal from a kitchen.

    Steps run leaves-first; the final step outputs the goal. Use
    :func:`validate_tree` to check feasibility.
    """

    steps: tuple[FunctionalUnit, ...]
    goal: NodeKey

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


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
    """
    violations: list[str] = []
    if not tree.steps:
        if tree.goal not in kitchen:
            violations.append("empty tree but goal not in kitchen")
        return ValidationReport(tuple(violations))

    kitchen_keys = kitchen.keys
    made: set[NodeKey] = set()
    seen_signatures: dict[tuple, int] = {}
    for i, unit in enumerate(tree.steps):
        for key in unit.input_keys:
            if key not in made and key not in kitchen_keys:
                violations.append(f"step {i}: input {key} unavailable")
        if unit.signature in seen_signatures:
            violations.append(
                f"step {i}: duplicate of step {seen_signatures[unit.signature]}"
            )
        else:
            seen_signatures[unit.signature] = i
        made.update(unit.output_keys)

    if tree.goal not in tree.steps[-1].output_keys:
        violations.append("final step does not output the goal")
    return ValidationReport(tuple(violations))


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
