"""Graph families for search tests, each built as ``(graph, kitchen, goal)``.

The first six shape a single case of iterative deepening's resolver:
a long chain, a dead-end trap beside a good chain, detours, side outputs,
a restored bound, and bounds restored and raised in place by turns. The
last three are its worst cases, where items have
several producers of equal depth, so every frame is a choice point and
each failed bound retries every combination below it: a ladder, a chain
of diamonds, and recipes merged at shared intermediates
(:func:`merged_recipes` returns a list of goals).
"""

import random

from foon import Kitchen, build_graph
from tests.conftest import obj, unit


def long_chain(length, kitchen_has_start=True):
    """``item 0`` --> ``item 1`` --> ... --> ``item <length>``, as (graph, kitchen, goal)."""
    items = [obj(f"item {i}") for i in range(length + 1)]
    units = [unit([items[i]], "cook", [items[i + 1]], index=i) for i in range(length)]
    kitchen = Kitchen(items[:1] if kitchen_has_start else [])
    return build_graph(units), kitchen, items[-1]


def trap(levels=40, good=16):
    """The goal's first producer leads into ``levels`` levels of two-way
    alternatives that bottom out in a missing item; its second producer
    ends a ``good``-unit chain from the kitchen."""
    goal = obj("goal")
    traps = [obj(f"trap {i}") for i in range(levels + 1)]
    path = [obj(f"path {i}") for i in range(good)]
    units = [unit([traps[0]], "enter trap", [goal])]
    for i in range(levels):
        units.append(unit([traps[i + 1]], "left", [traps[i]]))
        units.append(unit([traps[i + 1]], "right", [traps[i]]))
    units.append(unit([obj("missing")], "dead end", [traps[levels]]))
    units += [unit([path[i]], "step", [path[i + 1]]) for i in range(good - 1)]
    units.append(unit([path[-1]], "finish", [goal]))
    return build_graph(units), Kitchen(path[:1]), goal


def detour_chain(length=60, every=10, detour=3):
    """``item 0`` --> ... --> ``item <length>``, where every ``every``-th
    item's first producer is a ``detour``-unit longer way round from the
    previous item: its pass cuts off inside the detour first and then
    backtracks into the direct step."""
    items = [obj(f"item {i}") for i in range(length + 1)]
    units = []
    for i in range(1, length + 1):
        if i % every == 0:
            way = [items[i - 1]] + [obj(f"detour {i}.{j}") for j in range(detour)]
            units += [unit([a], "wander", [b]) for a, b in zip(way, way[1:])]
            units.append(unit([way[-1]], "arrive", [items[i]]))
        units.append(unit([items[i - 1]], "cook", [items[i]]))
    return build_graph(units), Kitchen(items[:1]), items[-1]


def wide_then_deep(chains, length, deep):
    """``chains`` kitchen-fed chains of ``length`` units and one of ``deep``
    units, whose ends the goal's one producer joins, the deep chain's last.
    The deep chain's end has a second producer that needs the goal: it is
    live, but fails at once because the goal is on the path. So each bound
    that reaches the deep chain without solving it cuts off under that
    choice point, fails and is restored, with the short chains resolved."""
    starts, ends, units = [], [], []
    for name, size in [(f"chain {c}", length) for c in range(chains)] + [("deep", deep)]:
        items = [obj(f"{name}.{i}") for i in range(size + 1)]
        units += [unit([a], "cook", [b]) for a, b in zip(items, items[1:])]
        starts.append(items[0])
        ends.append(items[-1])
    goal = obj("goal")
    units.append(unit(ends, "join", [goal]))
    units.append(unit([goal], "unjoin", [ends[-1]]))
    return build_graph(units), Kitchen(starts), goal


def side_output():
    """The goal needs ``x``, then a 4-unit chain from the kitchen. ``x``'s
    first producer needs ``d`` and then ``t``, which needs ``m`` two levels
    down. At bound 5, ``d``'s first producer (a 2-unit chain) runs out of
    depth, and its second also outputs ``m``, so ``x`` resolves; then the
    goal's chain runs out of depth. At bound 6 the chain under ``d`` fits,
    ``m`` must be made one level too deep, and the search backtracks into
    ``x``, a frame resolved after bound 5's first cutoff: ``x``'s second
    producer takes one kitchen item, and the goal is solved at bound 6."""
    kitchen = [obj("flour"), obj("salt")]
    flour, salt = kitchen
    goal, x, d, t, t2, m, a, c1, c2, f1, f2, f3, f4 = map(
        obj, "goal x d t t2 m a c1 c2 f1 f2 f3 f4".split()
    )
    units = [
        unit([x, f1], "finish", [goal]),
        unit([d, t], "assemble", [x]),
        unit([salt], "shortcut", [x]),
        unit([c1], "long way", [d]),
        unit([a], "split", [d, m]),
        unit([c2], "step", [c1]),
        unit([flour], "step", [c2]),
        unit([flour], "grind", [a]),
        unit([t2], "wrap", [t]),
        unit([m], "fold", [t2]),
        unit([f2], "knead", [f1]),
        unit([f3], "knead", [f2]),
        unit([f4], "knead", [f3]),
        unit([flour], "knead", [f4]),
    ]
    return build_graph(units), Kitchen(kitchen), goal


def forked_chain(forks=4, spacing=6, detour=3):
    """``item 0`` <-- ... <-- ``item <forks * spacing>``, where every
    ``spacing``-th step joins the next item with a side item. A side item's
    first producer is a ``detour``-unit way round from the kitchen's
    ``raw`` and its second takes ``raw`` directly. While the bound cuts off
    inside a detour, the side item is a choice point: the bound takes a
    copy, the direct step resolves it, the chain below cuts off and the
    bound is restored. Once the detour fits, the side item resolves with no
    choice point left, and the chain's cutoffs raise the bound in place. So
    along one search, restored bounds and bounds raised in place alternate
    ``forks`` times."""
    length = forks * spacing
    items = [obj(f"item {i}") for i in range(length + 1)]
    raw = obj("raw")
    units = []
    for i in range(length):
        if i % spacing == 0:
            side = obj(f"side {i}")
            way = [raw] + [obj(f"detour {i}.{j}") for j in range(detour - 1)] + [side]
            units += [unit([a], "wander", [b]) for a, b in zip(way, way[1:])]
            units.append(unit([raw], "take", [side]))
            units.append(unit([side, items[i + 1]], "join", [items[i]]))
        else:
            units.append(unit([items[i + 1]], "cook", [items[i]]))
    units.append(unit([raw], "start", [items[length]]))
    return build_graph(units), Kitchen([raw]), items[0]


def ladder(n, width):
    """Rung ``k i`` has ``width`` producers, each consuming ``k i+1`` with
    its own motion; ``k n`` is made from the kitchen's one item, and the goal
    is ``k 0``. ``n * width + 1`` units, every one of them live."""
    rungs = [obj(f"k {i}") for i in range(n + 1)]
    raw = obj("raw")
    units = [unit([rungs[i + 1]], f"way {j}", [rungs[i]])
             for i in range(n) for j in range(width)]
    units.append(unit([raw], "start", [rungs[n]]))
    return build_graph(units), Kitchen([raw]), rungs[0]


def diamond(n):
    """Rung ``k i`` is made from ``k i+1`` through ``z i`` (its first
    producer) or directly; ``z i`` is made from ``k i+1``. The kitchen holds
    ``k n``, and the goal is ``k 0``. ``3 n`` units; the shortest tree takes
    the direct step at every rung, and it is the last way IDS tries."""
    rungs = [obj(f"k {i}") for i in range(n + 1)]
    units = []
    for i in range(n):
        via = obj(f"z {i}")
        units += [unit([via], "through", [rungs[i]]),
                  unit([rungs[i + 1]], "direct", [rungs[i]]),
                  unit([rungs[i + 1]], "detour", [via])]
    return build_graph(units), Kitchen(rungs[-1:]), rungs[0]


def merged_recipes(seed, recipes, variants, depth):
    """``recipes`` recipes of ``depth`` steps, merged at shared items.

    Recipe r starts from the kitchen's ``raw r``. Each step consumes the
    previous step's output (``raw r`` for the first) and one of the
    kitchen's 3 tools, with one of 6 motions, and outputs one of the
    ``variants`` items of its stage, which every recipe's step at that
    stage draws from. So an item has about ``recipes / variants`` producers
    of equal depth, as when many recipes make one intermediate in different
    ways. All choices come from ``random.Random(seed)``; structurally equal
    steps are merged by the graph. Returns ``(graph, kitchen, goals)``: the
    goals are each recipe's last output, in recipe order, repeats kept.
    """
    rng = random.Random(seed)
    tools = [obj(f"tool {t}") for t in range(3)]
    raws = [obj(f"raw {r}") for r in range(recipes)]
    stages = [[obj(f"stage {s} item {v}") for v in range(variants)]
              for s in range(1, depth + 1)]
    units, goals = [], []
    for raw in raws:
        made = raw
        for stage in stages:
            step = unit([made, rng.choice(tools)], f"motion {rng.randrange(6)}",
                        [rng.choice(stage)])
            units.append(step)
            made = step.outputs[0]
        goals.append(made)
    return build_graph(units), Kitchen(tools + raws), goals
