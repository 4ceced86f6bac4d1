"""The exact work of both searches on the graph families of ``tests/families.py``.

The IDS pins are today's resolver calls and solving bounds on small sizes:
every item of a ladder or a diamond has several live producers of equal
depth, so the calls grow exponentially with the height, and a change that
cuts them shows here as a diff. The GBFS pins count the ranking-key calls:
each item with several producers is ranked once per graph and heuristic, so
goals that share rungs with earlier ones rank only the rungs new to them.
"""

import collections

import pytest

from foon import (
    INPUT_COUNT,
    SOLVED,
    SUCCESS_RATE,
    SearchConfig,
    gbfs_search,
    ids_search,
    reachable_oracle,
    validate_tree,
)
from foon.search import HEURISTICS
from tests.conftest import obj
from tests.families import diamond, ladder, merged_recipes

# (n, width) -> (resolver calls, solving bound) of ids_search on ladder(n, width).
LADDER_IDS = {
    (4, 2): (95, 6), (5, 2): (201, 7), (6, 2): (418, 8), (7, 2): (858, 9),
    (8, 2): (1_745, 10), (9, 2): (3_527, 11), (10, 2): (7_100, 12),
    (11, 2): (14_256, 13), (12, 2): (28_579, 14),
    (4, 3): (372, 6), (5, 3): (1_136, 7), (6, 3): (3_438, 8), (7, 3): (10_356, 9),
    (8, 3): (31_124, 10), (9, 3): (93_444, 11), (10, 3): (280_422, 12),
    (11, 3): (841_376, 13), (12, 3): (2_524_260, 14),
}

# n -> (resolver calls, solving bound) of ids_search on diamond(n).
DIAMOND_IDS = {4: (60, 5), 5: (108, 6), 6: (189, 7), 7: (324, 8), 8: (547, 9)}

# merged_recipes(0, 12, 3, 4): per goal, in recipe order.
MERGED = (0, 12, 3, 4)
MERGED_IDS = [(720, 5), (282, 5)] + [(690, 5)] * 5 + [(720, 5)] * 4 + [(282, 5)]


def solved_ids(graph, kitchen, goal):
    outcome = ids_search(graph, kitchen, goal)
    assert outcome.status == SOLVED
    assert validate_tree(kitchen, outcome.tree).ok
    return outcome


@pytest.mark.parametrize("n, width", sorted(LADDER_IDS))
def test_ladder_ids_work(n, width):
    graph, kitchen, goal = ladder(n, width)
    assert len(graph) == n * width + 1
    outcome = solved_ids(graph, kitchen, goal)
    assert len(outcome.tree.steps) == n + 1
    stats = outcome.stats
    assert (stats.nodes_expanded, stats.final_depth_bound) == LADDER_IDS[n, width]


@pytest.mark.parametrize("n", sorted(DIAMOND_IDS))
def test_diamond_ids_work(n):
    graph, kitchen, goal = diamond(n)
    assert len(graph) == 3 * n
    outcome = solved_ids(graph, kitchen, goal)
    assert [unit.motion.label for unit in outcome.tree.steps] == ["direct"] * n
    stats = outcome.stats
    assert (stats.nodes_expanded, stats.final_depth_bound) == DIAMOND_IDS[n]


def test_merged_recipes_ids_work():
    graph, kitchen, goals = merged_recipes(*MERGED)
    seed, recipes, variants, depth = MERGED
    assert len(goals) == recipes
    work = []
    for goal in goals:
        assert reachable_oracle(graph, kitchen, goal.key)
        outcome = solved_ids(graph, kitchen, goal)
        assert len(outcome.tree.steps) == depth
        work.append((outcome.stats.nodes_expanded, outcome.stats.final_depth_bound))
    assert work == MERGED_IDS


def test_merged_recipes_share_their_items():
    # Each unit outputs one stage item: 48 units over 12 items, 11 of
    # which have several producers.
    graph, _, _ = merged_recipes(*MERGED)
    shared = [len(graph.producers_of(obj(f"stage {s} item {v}").key))
              for s in range(1, 5) for v in range(3)]
    assert sum(shared) == len(graph) == 48
    assert sum(count > 1 for count in shared) == 11


@pytest.mark.parametrize("n, width", [(12, 2), (12, 3), (40, 2)])
def test_ladder_gbfs_ranks_each_rung_once(monkeypatch, n, width):
    """Goals at rungs n - 2, n // 2 and 0, in turn, under each heuristic: a
    goal ranks only the rungs below it that no earlier goal ranked, and a
    second round ranks nothing."""
    calls = collections.Counter()
    for mode, rank in list(HEURISTICS.items()):
        def counted(unit, mode=mode, rank=rank):
            calls[mode] += 1
            return rank(unit)
        monkeypatch.setitem(HEURISTICS, mode, counted)

    graph, kitchen, _ = ladder(n, width)
    rungs = (n - 2, n // 2, 0)
    for mode in (SUCCESS_RATE, INPUT_COUNT):
        ranked = []
        for _ in range(2):
            for rung in rungs:
                outcome = gbfs_search(graph, kitchen, obj(f"k {rung}"), SearchConfig(heuristic=mode))
                assert outcome.status == SOLVED and len(outcome.tree.steps) == n - rung + 1
                ranked.append(calls[mode])
        assert ranked == [width * (n - rung) for rung in rungs] + [width * n] * 3, mode
        assert len(graph.commitments[mode]) == n
