"""Seeded workload generators and the benchmark's own ground truth.

Everything here is independent of the package under test: the FOON text,
kitchen, goal and motion-rate files are written by this module's own
writer, solvability comes from this module's own forward chaining, and
written task trees are read back and replayed by this module's own reader.
Only the file formats are shared with the package.

A node is a tuple ``(label, states, ingredients)`` where ``states`` is a
sorted tuple of ``(state_label, container)`` pairs (container ``""`` when
absent) and ``ingredients`` a sorted tuple of strings. That tuple is also
the node's key. A unit is ``(inputs, motion, outputs)`` with node tuples.

Every generated node carries at least one state: the text format attaches
ingredients to a state line, so it cannot express a node with ingredients
but no state, and the kitchen JSON (which can) would then disagree with
the graph.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass

ALGORITHMS = ("ids", "gbfs_a", "gbfs_b")


@dataclass
class Workload:
    units: list  # [(inputs, motion, outputs)], file order
    kitchen: list  # [node]
    goals: list  # [node], file order
    rates: dict  # motion label -> success rate
    jobs: int

    def files(self) -> dict[str, bytes]:
        """The four input files, as bytes, keyed by file name."""
        return {
            "foon.txt": write_foon_text(self.units).encode("utf-8"),
            "kitchen.json": write_node_records(self.kitchen).encode("utf-8"),
            "goals.json": write_node_records(self.goals).encode("utf-8"),
            "rates.json": (json.dumps(self.rates, indent=1) + "\n").encode("utf-8"),
        }


def node(label: str, states, ingredients=()) -> tuple:
    if not states:
        raise ValueError(f"node {label!r} needs at least one state")
    return (
        label,
        tuple(sorted((s, c or "") for s, c in states)),
        tuple(sorted(ingredients)),
    )


# --- writers ---------------------------------------------------------------


def _state_payload(state, ingredients=()) -> str:
    label, container = state
    text = label + (f" [{container}]" if container else "")
    if ingredients:
        text += " {" + ",".join(ingredients) + "}"
    return text


def write_foon_text(units) -> str:
    lines: list[str] = []

    def emit(n):
        label, states, ingredients = n
        lines.append(f"O {label}")
        for position, state in enumerate(states):
            lines.append("S " + _state_payload(state, ingredients if position == 0 else ()))

    for inputs, motion, outputs in units:
        lines.append("//")
        for n in inputs:
            emit(n)
        lines.append(f"M {motion}")
        for n in outputs:
            emit(n)
    lines.append("//")
    return "\n".join(lines) + "\n"


def write_node_records(nodes) -> str:
    records = [
        {
            "label": label,
            "states": [_state_payload(s) for s in states],
            "ingredients": list(ingredients),
        }
        for label, states, ingredients in nodes
    ]
    return json.dumps(records, indent=1) + "\n"


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


# --- ground truth ----------------------------------------------------------


def signature(unit) -> tuple:
    inputs, motion, outputs = unit
    return (tuple(sorted(inputs)), motion, tuple(sorted(outputs)))


def reachable_keys(units, kitchen) -> set:
    """Every key derivable from the kitchen by firing units forward.

    Counter-based Horn saturation: each unit waits on its distinct unmet
    inputs and fires once the count reaches zero.
    """
    available = set(kitchen)
    waiting: dict = {}
    unmet = []
    ready = []
    for pos, (inputs, _, _) in enumerate(units):
        needs = set(inputs) - available
        unmet.append(len(needs))
        for key in needs:
            waiting.setdefault(key, []).append(pos)
        if not needs:
            ready.append(pos)
    while ready:
        pos = ready.pop()
        for key in units[pos][2]:
            if key in available:
                continue
            available.add(key)
            for waiter in waiting.get(key, ()):
                unmet[waiter] -= 1
                if unmet[waiter] == 0:
                    ready.append(waiter)
    return available


# --- reading written task trees ----------------------------------------------

_BRACES = re.compile(r"\{([^{}]*)\}")
_BRACKETS = re.compile(r"\[([^\[\]]*)\]")


def _norm(text: str) -> str:
    return " ".join(text.split()).lower()


class TreeFileError(ValueError):
    pass


def read_tree_text(text: str) -> list:
    """Parse a written task tree into units; raise TreeFileError if unclean."""
    units = []
    block = None  # [inputs, motion, outputs, current node parts]

    def flush():
        current = block[3]
        if current is None:
            return
        label, states, ingredients = current
        if not states:
            raise TreeFileError(f"object {label!r} has no state")
        key = (label, tuple(sorted(states)), tuple(sorted(ingredients)))
        (block[2] if block[1] is not None else block[0]).append(key)
        block[3] = None

    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            if block is not None:
                flush()
                if block[1] is None or not block[0] or not block[2]:
                    raise TreeFileError(f"line {number}: incomplete unit")
                units.append((tuple(block[0]), block[1], tuple(block[2])))
            block = [[], None, [], None]
            continue
        if block is None:
            raise TreeFileError(f"line {number}: text before the first //")
        tag, _, payload = line.partition(" ")
        tag = tag.lower()
        if tag in ("o", "0"):
            flush()
            block[3] = (_norm(payload), set(), set())
        elif tag == "s":
            if block[3] is None:
                raise TreeFileError(f"line {number}: state without object")
            ingredients = set()
            for group in _BRACES.findall(payload):
                ingredients.update(filter(None, (_norm(p) for p in group.split(","))))
            rest = _BRACES.sub(" ", payload)
            containers = [_norm(c) for c in _BRACKETS.findall(rest)]
            label = _norm(_BRACKETS.sub(" ", rest))
            if not label:
                raise TreeFileError(f"line {number}: empty state label")
            block[3][1].add((label, next((c for c in containers if c), "")))
            block[3][2].update(ingredients)
        elif tag == "m":
            if block[1] is not None:
                raise TreeFileError(f"line {number}: second motion")
            flush()
            block[1] = _norm(payload)
        else:
            raise TreeFileError(f"line {number}: unknown tag {tag!r}")
    if block is not None and (block[1] is not None or block[0] or block[3]):
        raise TreeFileError("file does not end with //")
    return units


def replay(steps, kitchen_keys, goal, unit_signatures) -> str | None:
    """Return None if ``steps`` executes from the kitchen to the goal."""
    if not steps:
        return None if goal in kitchen_keys else "empty tree for a goal not in the kitchen"
    available = set(kitchen_keys)
    for position, step in enumerate(steps):
        if signature(step) not in unit_signatures:
            return f"step {position} is not a unit of the graph"
        for key in step[0]:
            if key not in available:
                return f"step {position} consumes an unavailable item"
        available.update(step[2])
    if goal not in steps[-1][2]:
        return "last step does not output the goal"
    return None


def slug(label: str) -> str:
    """The CLI's documented file stem for a goal label."""
    return re.sub(r"[^a-z0-9_.-]+", "_", label.replace(" ", "_"))


# --- workloads ---------------------------------------------------------------


def _spread(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """``count`` values evenly spread over [low, high], in seeded order."""
    values = [low + round(i * (high - low) / (count - 1)) for i in range(count)]
    rng.shuffle(values)
    return values


def layered_batch(seed: int) -> Workload:
    """The 12 x 417 layered graph of the package's c8 acceptance test.

    Item (layer, i) has one producer with inputs (layer-1, i) and
    (layer-1, 7i+3 mod 417), so every item is reachable and a goal on
    layer L has a tree of about L(L+1)/2 units. The seed picks goal
    indices; goal counts per layer are fixed so that tree sizes, and
    hence the work per run, do not depend on the seed.
    """
    layers, width = 12, 417
    rng = random.Random(seed)

    def item(layer, i):
        return node(f"item {layer} {i}", [("stage", str(layer))])

    units = [
        (
            (item(layer - 1, i), item(layer - 1, (i * 7 + 3) % width)),
            f"combine {layer % 5}",
            (item(layer, i),),
        )
        for layer in range(1, layers + 1)
        for i in range(width)
    ]
    goals = []
    for layer in range(1, layers + 1):
        count = 9 if layer <= 4 else 8
        goals += [item(layer, i) for i in rng.sample(range(width), count)]
    rng.shuffle(goals)
    rates = {f"combine {m}": rng.choice((0.6, 0.7, 0.8, 0.9, 1.0)) for m in range(5)}
    kitchen = [item(0, i) for i in range(width)]
    return Workload(units, kitchen, goals, rates, jobs=1)


TRAP_LEVELS = 40
TRAP_GOOD_DEPTHS = tuple(range(2, 9))  # each used by TRAP_GOALS_PER_DEPTH goals
TRAP_GOALS_PER_DEPTH = 12
DEEP_GOALS = 21
DEEP_CHAIN = 90


def trap_deep(seed: int) -> Workload:
    """Dead-end trap shared by most goals, plus goals on deep chains.

    Trap item t(d) for d < 40 has two producers, each needing t(d+1) and a
    kitchen item; t(40) has no producer. Each trap goal's first producer
    (lowest unit index) needs t(0); its second needs spine item s(D), D
    steps above the kitchen. IDS re-explores the 2-way trap at every depth
    bound, so its cost roughly doubles per unit of D. The multiset of D
    values is fixed and only its assignment to goals depends on the seed,
    which keeps the total work per run seed-independent. The remaining
    goals are items 40-90 deep on one plain chain, evenly spread, inside
    the CLI's default --max-depth 100 and well below the ~330 where the
    package's recursive resolver overflows the interpreter stack.
    """
    rng = random.Random(seed)
    tag = rng.choice(("batch", "tray", "lot", "run"))
    pantry = [node(f"{tag} pantry {j}", [("stocked", "shelf")]) for j in range(3)]

    def trap(d):
        return node(f"{tag} trap {d}", [("folded", str(d))])

    def spine(k):
        return node(f"{tag} spine {k}", [("proofed", ""), ("stage", str(k))])

    def chain(k):
        return node(f"{tag} chain {k}", [("simmered", "pot")], ("stock",))

    units = []
    for d in range(TRAP_LEVELS):
        for variant in ("a", "b"):
            units.append(((trap(d + 1), pantry[1]), f"fold {variant}", (trap(d),)))

    depths = [d for d in TRAP_GOOD_DEPTHS for _ in range(TRAP_GOALS_PER_DEPTH)]
    rng.shuffle(depths)
    trap_goals = []
    for j, depth in enumerate(depths):
        goal = node(f"{tag} dish {j}", [("plated", "tray")], ("garnish",))
        trap_goals.append((goal, depth))
        units.append(((trap(0), pantry[1]), "glaze", (goal,)))

    units.append(((pantry[0],), "proof", (spine(1),)))
    for k in range(2, max(TRAP_GOOD_DEPTHS) + 1):
        units.append(((spine(k - 1),), "proof", (spine(k),)))
    for goal, depth in trap_goals:
        units.append(((spine(depth),), "finish", (goal,)))

    units.append(((pantry[2],), "simmer", (chain(1),)))
    for k in range(2, DEEP_CHAIN + 1):
        units.append(((chain(k - 1),), "simmer", (chain(k),)))
    deep_goals = [chain(k) for k in _spread(rng, 40, DEEP_CHAIN, DEEP_GOALS)]

    goals = [g for g, _ in trap_goals] + deep_goals
    rng.shuffle(goals)
    # gbfs_a (highest rate) walks into the trap; gbfs_b (fewest inputs)
    # takes the one-input good producer.
    rates = {"fold a": 0.9, "fold b": 0.85, "glaze": 0.95, "proof": 0.8,
             "finish": 0.7, "simmer": 0.75}
    return Workload(units, pantry, goals, rates, jobs=2)


_STATES = ("raw", "chopped", "whole", "mixed", "empty")
_CONTAINERS = (None, "bowl", "pan")
_INGREDIENTS = ("salt", "oil", "water")
_MOTIONS = ("chop", "pour", "mix", "scoop", "bake", "stir")
MIXED_CLUSTERS = 280
MIXED_UNITS = 20


def _cluster(rng: random.Random, prefix: str, n_keys: int, n_units: int, acyclic: bool):
    """One random recipe cluster, drawn like the package's tests/randgen.py."""
    pool = []
    for i in range(n_keys):
        states = [(s, rng.choice(_CONTAINERS)) for s in rng.sample(_STATES, rng.randint(1, 2))]
        ingredients = rng.sample(_INGREDIENTS, rng.randint(0, 2))
        pool.append(node(f"{prefix} item {i}", states, ingredients))
    units = []
    rates = {}
    for _ in range(n_units):
        if acyclic:
            pivot = rng.randint(1, n_keys - 1)
            input_range, output_range = range(0, pivot), range(pivot, n_keys)
        else:
            input_range = output_range = range(n_keys)
        outputs = rng.sample(list(output_range), min(rng.randint(1, 2), len(output_range)))
        inputs = [rng.choice(input_range) for _ in range(rng.randint(1, 3))]
        motion = f"{prefix} {rng.choice(_MOTIONS)}"
        rates.setdefault(motion, round(rng.randint(0, 20) * 0.05, 2))
        units.append((tuple(pool[i] for i in inputs), motion, tuple(pool[i] for i in outputs)))
    kitchen = [n for n in pool if rng.random() < 0.3]
    return units, kitchen, pool, rates


def mixed_corpus(seed: int) -> Workload:
    """Independent random clusters merged into one graph, one goal each.

    Labels are prefixed per cluster, so clusters share no items, and each
    goal's backward closure is at most one cluster. That bound is
    deliberate: on a uniformly random sparse cyclic graph of a few
    thousand units, IDS is exponential and one seed ran for over ten
    minutes. Clusters have at most 20 units, not the 40 of randgen: an
    unreachable goal with a closure of 40 units cost IDS up to 158k
    expansions, so the one or two such goals a seed drew set the whole
    run's time (0.85-1.8 s across seeds). Three clusters in five get a reachable goal and the rest an
    unreachable one; cluster sizes are spread evenly and only their order
    is random. Both keep graph size and the solvable share the same on
    every seed. Every eighth cluster's labels contain a quantity with a
    dot ("1.5 cup"), as real goal labels do. When such a cluster's goal is
    reachable it is a new item made by one extra unit from cluster kitchen
    items, so every algorithm solves it and the CLI's file-name collision
    on dotted labels fails the same number of pairs, three per such goal,
    on every seed.
    """
    rng = random.Random(seed)
    units, kitchen, goals, rates = [], [], [], {}
    sizes = zip(
        _spread(rng, 2, 25, MIXED_CLUSTERS), _spread(rng, 1, MIXED_UNITS, MIXED_CLUSTERS)
    )
    for k, (n_keys, n_units) in enumerate(sizes):
        prefix = f"c{k:03d}"
        dotted = k % 8 == 7
        if dotted:
            prefix += f" {rng.randint(1, 3)}.{rng.choice((25, 5, 75))} cup"
        want_reachable = k % 5 < 3
        for _ in range(100):
            c_units, c_kitchen, pool, c_rates = _cluster(
                rng, prefix, n_keys, n_units, acyclic=k % 3 == 0
            )
            reachable = reachable_keys(c_units, c_kitchen)
            candidates = [
                n for n in pool if n not in c_kitchen and (n in reachable) == want_reachable
            ]
            if candidates:
                break
        else:
            raise RuntimeError(f"cluster {k}: no goal of the wanted kind in 100 draws")
        goal = rng.choice(candidates)
        if dotted and want_reachable:
            # A serving step with kitchen inputs is the goal's only producer.
            goal = node(f"{prefix} item {n_keys}", [("plated", "dish")])
            c_units.append((tuple(c_kitchen[:2]), f"{prefix} serve", (goal,)))
            c_rates[f"{prefix} serve"] = 0.9
        units += c_units
        kitchen += c_kitchen
        goals.append(goal)
        rates.update(c_rates)
    return Workload(units, kitchen, goals, rates, jobs=1)


WORKLOADS = {
    "layered-batch": layered_batch,
    "trap-deep": trap_deep,
    "mixed-corpus": mixed_corpus,
}
