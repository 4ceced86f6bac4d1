"""Seeded random FOON instances for property and acceptance tests.

Instances are deterministic functions of the RNG seed. Node labels are all
distinct, so the key pool size equals the node pool size. With
``acyclic=True`` every unit's outputs sit strictly above all of its inputs
in pool order, which rules out circular derivations; with
``single_producer=True`` no key is output by more than one unit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from foon import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    StateDescriptor,
    build_graph,
    serialize_units,
)

_STATES = ("raw", "chopped", "whole", "mixed", "empty")
_CONTAINERS = (None, "bowl", "pan")
_INGREDIENTS = ("salt", "oil", "water")
_MOTIONS = ("chop", "pour", "mix", "scoop", "bake", "stir")


def _node(rng: random.Random, index: int) -> ObjectNode:
    states = set()
    for label in rng.sample(_STATES, rng.randint(0, 2)):
        states.add(StateDescriptor(label, rng.choice(_CONTAINERS)))
    ingredients = rng.sample(_INGREDIENTS, rng.randint(0, 2))
    return ObjectNode(f"item {index}", frozenset(states), frozenset(ingredients))


@dataclass
class Instance:
    graph: FoonGraph
    kitchen: Kitchen
    goal: ObjectNode
    pool: list[ObjectNode]


def random_instance(
    rng: random.Random | int,
    max_units: int = 40,
    max_keys: int = 25,
    acyclic: bool = False,
    single_producer: bool = False,
) -> Instance:
    if isinstance(rng, int):
        rng = random.Random(rng)
    n_keys = rng.randint(2, max_keys)
    pool = [_node(rng, i) for i in range(n_keys)]

    units: list[FunctionalUnit] = []
    produced: set[int] = set()
    for _ in range(rng.randint(0, max_units)):
        if acyclic:
            pivot = rng.randint(1, n_keys - 1)
            input_range = range(0, pivot)
            output_range = range(pivot, n_keys)
        else:
            input_range = output_range = range(n_keys)
        output_candidates = [
            i for i in output_range if not (single_producer and i in produced)
        ]
        if not output_candidates:
            continue
        outputs = rng.sample(output_candidates, min(rng.randint(1, 2), len(output_candidates)))
        inputs = [rng.choice(input_range) for _ in range(rng.randint(1, 3))]
        produced.update(outputs)
        motion = MotionNode(
            rng.choice(_MOTIONS), round(rng.randint(0, 20) * 0.05, 2)
        )
        units.append(
            FunctionalUnit(
                inputs=tuple(pool[i] for i in inputs),
                motion=motion,
                outputs=tuple(pool[i] for i in outputs),
                unit_index=len(units),
            )
        )

    kitchen_nodes = [node for node in pool if rng.random() < 0.3]
    return Instance(
        graph=build_graph(units),
        kitchen=Kitchen(kitchen_nodes),
        goal=rng.choice(pool),
        pool=pool,
    )


def node_record(node: ObjectNode, label: str | None = None) -> dict:
    """A kitchen/goal JSON record of ``node``, optionally under another label."""
    states = sorted(
        f"{s.label} [{s.relative_container}]" if s.relative_container else s.label
        for s in node.states
    )
    return {
        "label": node.label if label is None else label,
        "states": states,
        "ingredients": sorted(node.ingredients),
    }


def write_instance(
    instance: Instance, directory: Path, goals: list[dict], rates: dict[str, float]
) -> dict[str, Path]:
    """Write ``instance`` as the CLI's four input files; returns their paths.

    ``goals`` are goal records (see :func:`node_record`) and ``rates`` the
    motion success-rate map.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "foon": directory / "foon.txt",
        "kitchen": directory / "kitchen.json",
        "goals": directory / "goals.json",
        "rates": directory / "motion_rates.json",
    }
    kitchen = [node_record(node) for node in instance.kitchen.nodes]
    paths["foon"].write_text(serialize_units(instance.graph.units), encoding="utf-8")
    paths["kitchen"].write_text(json.dumps(kitchen), encoding="utf-8")
    paths["goals"].write_text(json.dumps(goals), encoding="utf-8")
    paths["rates"].write_text(json.dumps(rates), encoding="utf-8")
    return paths
