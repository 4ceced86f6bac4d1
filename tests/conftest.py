import time

import pytest

from foon import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    StateDescriptor,
    build_graph,
    parse_foon_text,
)

# One scoop-and-pour step, transcribed from a hand-written FOON file
# (object lines tagged with the legacy "0" spelling).
SAMPLE_UNIT_TEXT = """\
//
0 drinking glas
S empty
0 bucket
S contains {ice}
0 ice
S crushed
S frozen
S in [bowl]
0 measuring cup
S empty
M scoop and pour
0 drinking glas
S contains {ice}
0 ice
S crushed
S frozen
S in [drinking glass]
//
"""


def obj(label, states=(), ingredients=()):
    """Shorthand node builder: states as 'label' or ('label', 'container')."""
    parsed = frozenset(
        StateDescriptor(s) if isinstance(s, str) else StateDescriptor(*s)
        for s in states
    )
    return ObjectNode(label, parsed, frozenset(ingredients))


def node_keys(graph):
    """All distinct object-node keys appearing in the graph's units."""
    keys = set()
    for step in graph.units:
        keys.update(step.input_keys)
        keys.update(step.output_keys)
    return frozenset(keys)


def unit(inputs, motion, outputs, index=0, rate=1.0):
    return FunctionalUnit(
        inputs=tuple(inputs),
        motion=MotionNode(motion, rate),
        outputs=tuple(outputs),
        unit_index=index,
    )


def layered_units(layers=12, width=417):
    """Deterministic layered graph: ~layers*width units, two inputs each.

    Returns (units, the layer-0 nodes, the first node of the top layer).
    """
    def node(layer, i):
        return ObjectNode(
            f"item {layer} {i}", frozenset({StateDescriptor("stage", str(layer))})
        )

    units = []
    for layer in range(1, layers + 1):
        for i in range(width):
            inputs = (node(layer - 1, i), node(layer - 1, (i * 7 + 3) % width))
            units.append(
                FunctionalUnit(
                    inputs=inputs,
                    motion=MotionNode(f"combine {layer % 5}"),
                    outputs=(node(layer, i),),
                    unit_index=len(units),
                )
            )
    base = [node(0, i) for i in range(width)]
    return units, base, node(layers, 0)


@pytest.fixture
def layered():
    """A small layered graph: (graph, kitchen of layer 0, goals on every layer)."""
    units, base, _ = layered_units(layers=6, width=30)
    goals = [unit.outputs[0] for unit in units[::7]]
    return build_graph(units), Kitchen(base), goals


@pytest.fixture
def sample_unit():
    units, diagnostics = parse_foon_text(SAMPLE_UNIT_TEXT)
    assert not diagnostics
    return units[0]


@pytest.fixture
def sample_graph(sample_unit):
    return build_graph([sample_unit])


@pytest.fixture
def sample_kitchen(sample_unit):
    return Kitchen(sample_unit.inputs)


@pytest.fixture
def chain():
    """kitchen {A} --U1--> B --U2--> goal G, as (graph, kitchen, goal)."""
    a, b, g = obj("a"), obj("b"), obj("g")
    u1 = unit([a], "step one", [b])
    u2 = unit([b], "step two", [g])
    graph = build_graph([u1, u2])
    return graph, Kitchen([a]), g


# Three-step demo recipe: crush the ice, scoop it into the glass, pour in
# the water. Every key has a single producer, so all algorithms agree.
DEMO_FOON = """\
//
O ice
S whole
S frozen
S in [bowl]
M crush
O ice
S crushed
S frozen
S in [bowl]
//
O drinking glass
S empty
O bucket
S contains {ice}
O ice
S crushed
S frozen
S in [bowl]
O measuring cup
S empty
M scoop and pour
O drinking glass
S contains {ice}
O ice
S crushed
S frozen
S in [drinking glass]
//
O pitcher
S contains {water}
O drinking glass
S contains {ice}
M pour
O drinking glass
S contains {ice,water}
//
"""

DEMO_KITCHEN = """\
[
  {"label": "drinking glass", "states": ["empty"], "ingredients": []},
  {"label": "bucket", "states": ["contains {ice}"], "ingredients": []},
  {"label": "ice", "states": ["whole", "frozen", "in [bowl]"], "ingredients": []},
  {"label": "measuring cup", "states": ["empty"], "ingredients": []},
  {"label": "pitcher", "states": ["contains {water}"], "ingredients": []}
]
"""

DEMO_GOALS = """\
[
  {"label": "drinking glass", "states": ["contains {ice,water}"], "ingredients": []}
]
"""

DEMO_RATES = '{"crush": 0.8, "scoop and pour": 0.9, "pour": 0.95}\n'


def write_demo_dataset(directory, goals_text=DEMO_GOALS):
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "foon": directory / "foon.txt",
        "kitchen": directory / "kitchen.json",
        "goals": directory / "goals.json",
        "rates": directory / "motion_rates.json",
    }
    paths["foon"].write_text(DEMO_FOON)
    paths["kitchen"].write_text(DEMO_KITCHEN)
    paths["goals"].write_text(goals_text)
    paths["rates"].write_text(DEMO_RATES)
    return paths


@pytest.fixture
def demo_dataset(tmp_path):
    return write_demo_dataset(tmp_path / "dataset")


# How long the first live-producer index of a test takes to build.
LIVE_INDEX_SLEEP = 0.05


@pytest.fixture
def slow_live_index(monkeypatch):
    """Make the first ``FoonGraph.live_producers`` call sleep
    ``LIVE_INDEX_SLEEP`` seconds, as a slow per-kitchen pass would; returns
    the list of kitchens it is called with."""
    calls = []
    live_producers = FoonGraph.live_producers

    def slow_first_call(graph, kitchen):
        if not calls:
            time.sleep(LIVE_INDEX_SLEEP)
        calls.append(kitchen)
        return live_producers(graph, kitchen)

    monkeypatch.setattr(FoonGraph, "live_producers", slow_first_call)
    return calls
