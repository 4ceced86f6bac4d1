import random

import pytest

from foon import (
    DEPTH_EXHAUSTED,
    INPUT_COUNT,
    SOLVED,
    SUCCESS_RATE,
    UNSOLVABLE,
    Kitchen,
    SearchConfig,
    build_graph,
    finalize_tree,
    gbfs_search,
    heuristic_select,
    ids_search,
    reachable_oracle,
    validate_tree,
)
from foon.search import _deepen
from tests.conftest import obj, unit
from tests.deepen_reference import reference_deepen
from tests.finalize_reference import reference_finalize
from tests.ids_reference import reference_depth_limited_search, reference_ids_search
from tests.randgen import random_instance


def signatures(tree):
    return [u.signature for u in tree.steps]


def long_chain(length, kitchen_has_start=True):
    """``item 0`` --> ``item 1`` --> ... --> ``item <length>``, as (graph, kitchen, goal)."""
    items = [obj(f"item {i}") for i in range(length + 1)]
    units = [unit([items[i]], "cook", [items[i + 1]], index=i) for i in range(length)]
    kitchen = Kitchen.from_nodes(items[:1] if kitchen_has_start else [])
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
    return build_graph(units), Kitchen.from_nodes(path[:1]), goal


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
    return build_graph(units), Kitchen.from_nodes(items[:1]), items[-1]


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
    return build_graph(units), Kitchen.from_nodes(kitchen), goal


class TestHeuristicSelect:
    def test_highest_success_rate_wins(self):
        a = unit([obj("x")], "m1", [obj("g")], index=0, rate=0.9)
        b = unit([obj("y")], "m2", [obj("g")], index=1, rate=0.5)
        assert heuristic_select([a, b], SUCCESS_RATE) is a

    def test_fewest_inputs_wins(self):
        a = unit([obj("x"), obj("y"), obj("z")], "m1", [obj("g")], index=0)
        b = unit([obj("w")], "m2", [obj("g")], index=1)
        assert heuristic_select([a, b], INPUT_COUNT) is b

    def test_tie_breaks_to_lowest_index(self):
        a = unit([obj("x")], "m1", [obj("g")], index=0, rate=0.7)
        b = unit([obj("y")], "m2", [obj("g")], index=1, rate=0.7)
        assert heuristic_select([a, b], SUCCESS_RATE) is a
        assert heuristic_select([b, a], SUCCESS_RATE) is a

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            heuristic_select([], SUCCESS_RATE)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            heuristic_select([unit([obj("x")], "m", [obj("g")])], "nope")


class TestFinalizeTree:
    def test_reverses_discovery_order(self):
        u1 = unit([obj("a")], "m1", [obj("b")], index=0)
        u2 = unit([obj("b")], "m2", [obj("g")], index=1)
        tree = finalize_tree([u2, u1], obj("g").key, Kitchen.from_nodes([obj("a")]))
        assert list(tree.steps) == [u1, u2]

    def test_deduplicates_keeping_earliest_execution_occurrence(self):
        # u1 and u2 are both ready at once, so their order shows which
        # occurrence of the duplicated u2 was kept.
        u1 = unit([obj("a")], "m1", [obj("b")], index=0)
        u2 = unit([obj("a")], "m2", [obj("c")], index=1)
        u3 = unit([obj("b"), obj("c")], "m3", [obj("g")], index=2)
        u2_copy = unit([obj("a")], "m2", [obj("c")], index=7, rate=0.5)
        kitchen = Kitchen.from_nodes([obj("a")])
        tree = finalize_tree([u3, u2, u1, u2_copy], obj("g").key, kitchen)
        assert list(tree.steps) == [u2_copy, u1, u3]

    def test_empty_discovery(self):
        goal = obj("g")
        tree = finalize_tree([], goal.key, Kitchen.from_nodes([goal]))
        assert tree.steps == ()
        with pytest.raises(RuntimeError, match="empty tree"):
            finalize_tree([], goal.key, Kitchen.from_nodes([]))

    def test_trims_after_last_goal_producer(self):
        u1 = unit([obj("a")], "m1", [obj("g")], index=0)
        u2 = unit([obj("g")], "m2", [obj("h")], index=1)
        tree = finalize_tree([u1, u2], obj("g").key, Kitchen.from_nodes([obj("a")]))
        assert list(tree.steps) == [u1]

    def test_matches_the_three_pass_reference(self):
        """Differential check on the randgen corpus.

        Discovery lists are those of the frozen recursive IDS, shuffled
        copies of them with duplicates, and random unit samples of (often
        cyclic) graphs; the goal is always output by the list's first unit,
        as in both searches.
        """
        solved = none = 0
        for seed in range(500):
            rng = random.Random(seed)
            instance = random_instance(seed, acyclic=(seed % 3 == 0))
            graph, kitchen = instance.graph, instance.kitchen
            goal = instance.goal.key
            lists = []
            for bound in range(len(graph) + 2):
                found, _, discovery, _ = reference_depth_limited_search(
                    graph, kitchen, goal, bound
                )
                if found:
                    lists.append((discovery, goal))
                    shuffled = discovery + rng.choices(discovery, k=len(discovery))
                    rng.shuffle(shuffled)
                    if shuffled:
                        lists.append((shuffled, rng.choice(shuffled[0].output_keys)))
                    break
            for _ in range(3):
                if not graph.units:
                    break
                sample = rng.choices(graph.units, k=rng.randint(1, 8))
                lists.append((sample, rng.choice(sample[0].output_keys)))

            for discovery, target in lists:
                expected = reference_finalize(discovery, target, kitchen)
                actual = finalize_tree(discovery, target, kitchen)
                if expected is None:
                    assert actual is None, (seed, discovery)
                    none += 1
                else:
                    assert actual is not None, (seed, discovery)
                    assert actual.steps == expected.steps, (seed, discovery)
                    solved += 1
        assert solved > 500 and none > 500


class TestIdsSearch:
    def test_goal_in_kitchen_succeeds_at_bound_one(self):
        graph = build_graph([])
        goal = obj("a")
        outcome = ids_search(graph, Kitchen.from_nodes([goal]), goal)
        assert outcome.status == SOLVED
        assert outcome.tree  # a tree with no steps is still a tree
        assert outcome.tree.steps == ()
        assert outcome.stats.final_depth_bound == 1

    def test_chain_solved_at_bound_three(self, chain):
        graph, kitchen, goal = chain
        outcome = ids_search(graph, kitchen, goal)
        assert outcome.status == SOLVED
        assert [u.motion.label for u in outcome.tree.steps] == ["step one", "step two"]
        assert outcome.stats.final_depth_bound == 3
        assert validate_tree(kitchen, outcome.tree).ok

    def test_sample_unit_solved_at_bound_two(self, sample_unit, sample_graph, sample_kitchen):
        outcome = ids_search(sample_graph, sample_kitchen, sample_unit.outputs[0])
        assert outcome.status == SOLVED
        assert len(outcome.tree.steps) == 1
        assert outcome.stats.final_depth_bound == 2

    def test_unproducible_goal_reported_unsolvable(self, chain):
        graph, kitchen, _ = chain
        outcome = ids_search(graph, kitchen, obj("nowhere"))
        assert outcome.status == UNSOLVABLE
        assert outcome.tree is None

    def test_depth_cap_reports_exhaustion(self, chain):
        graph, kitchen, goal = chain
        outcome = ids_search(graph, kitchen, goal, SearchConfig(max_depth=2))
        assert outcome.status == DEPTH_EXHAUSTED
        assert outcome.stats.final_depth_bound == 2

    def test_backtracks_to_second_producer(self):
        g = obj("g")
        dead = unit([obj("missing")], "bad route", [g], index=0)
        live = unit([obj("a")], "good route", [g], index=1)
        graph = build_graph([dead, live])
        outcome = ids_search(graph, Kitchen.from_nodes([obj("a")]), g)
        assert outcome.status == SOLVED
        assert [u.motion.label for u in outcome.tree.steps] == ["good route"]

    def test_shared_intermediate_orders_executably(self):
        # both Y's unit and the goal unit consume X
        a, x, y, g = obj("a"), obj("x"), obj("y"), obj("g")
        make_x = unit([a], "make x", [x], index=0)
        make_y = unit([x], "make y", [y], index=1)
        make_g = unit([x, y], "make g", [g], index=2)
        graph = build_graph([make_x, make_y, make_g])
        kitchen = Kitchen.from_nodes([a])
        outcome = ids_search(graph, kitchen, g)
        assert outcome.status == SOLVED
        assert validate_tree(kitchen, outcome.tree).ok
        assert [u.motion.label for u in outcome.tree.steps] == [
            "make x",
            "make y",
            "make g",
        ]

    def test_cyclic_graph_terminates(self):
        a, b = obj("a"), obj("b")
        graph = build_graph([unit([a], "m1", [b], index=0), unit([b], "m2", [a], index=1)])
        for max_depth in (1, 2, 100):
            config = SearchConfig(max_depth=max_depth)
            outcome = ids_search(graph, Kitchen.from_nodes([]), a, config)
            assert outcome.status == UNSOLVABLE

    def test_deterministic(self, chain):
        graph, kitchen, goal = chain
        first = ids_search(graph, kitchen, goal)
        second = ids_search(graph, kitchen, goal)
        assert first.tree == second.tree
        assert first.stats.nodes_expanded == second.stats.nodes_expanded

    def test_unreachable_goal_behind_a_deep_chain_is_unsolvable(self):
        # Every bound up to max_depth runs out of depth on the chain, but no
        # bound could reach the goal, since the kitchen lacks its start.
        graph, kitchen, goal = long_chain(10, kitchen_has_start=False)
        outcome = ids_search(graph, kitchen, goal, SearchConfig(max_depth=5))
        assert outcome.status == UNSOLVABLE
        assert "unreachable" in outcome.reason
        assert outcome.stats.final_depth_bound is None

    def test_chain_of_2000_units_is_solved(self):
        graph, kitchen, goal = long_chain(2000)
        outcome = ids_search(graph, kitchen, goal, SearchConfig(max_depth=2005))
        assert outcome.status == SOLVED
        assert len(outcome.tree.steps) == 2000
        assert outcome.stats.final_depth_bound == 2001
        assert validate_tree(kitchen, outcome.tree).ok

    def test_trap_costs_a_few_expansions(self):
        # Rerunning each bound from scratch over the full producer index
        # makes 262k resolver calls here; the trap is dead at every bound.
        graph, kitchen, goal = trap()
        outcome = ids_search(graph, kitchen, goal)
        assert outcome.status == SOLVED
        assert [u.motion.label for u in outcome.tree.steps][-1] == "finish"
        assert len(outcome.tree.steps) == 16
        assert outcome.stats.nodes_expanded == 34

    def test_each_bound_resumes_where_the_last_one_ran_out(self):
        # From scratch, bound b replays the b - 1 calls of its predecessor:
        # 20,502 calls in all for this chain.
        graph, kitchen, goal = long_chain(200)
        outcome = ids_search(graph, kitchen, goal, SearchConfig(max_depth=205))
        assert outcome.status == SOLVED
        assert outcome.stats.final_depth_bound == 201
        assert outcome.stats.nodes_expanded == 402

    def test_matches_the_recursive_reference(self):
        """Differential check against the frozen recursive IDS.

        Cyclic, acyclic and single-producer randgen instances, every pool
        node as goal, several depth caps. Solved pairs keep their steps and
        first successful bound and expand no more; a pair the reference
        leaves unsolved stays unsolved, and it is ``unsolvable`` exactly
        when the oracle says the goal is unreachable.
        """
        solved = exhausted_to_unsolvable = 0
        for seed in range(150):
            for kind in range(3):
                instance = random_instance(
                    random.Random(3 * seed + kind),
                    acyclic=kind == 1,
                    single_producer=kind == 2,
                )
                graph, kitchen = instance.graph, instance.kitchen
                for goal in instance.pool:
                    reachable = reachable_oracle(graph, kitchen, goal.key)
                    for max_depth in (1, 2, 3, 5, 100):
                        config = SearchConfig(max_depth=max_depth)
                        expected = reference_ids_search(graph, kitchen, goal, config)
                        actual = ids_search(graph, kitchen, goal, config)
                        case = (seed, kind, goal.label, max_depth)
                        if expected.solved:
                            assert actual.solved, case
                            assert actual.tree.steps == expected.tree.steps, case
                            assert (
                                actual.stats.final_depth_bound
                                == expected.stats.final_depth_bound
                            ), case
                            assert (
                                actual.stats.nodes_expanded
                                <= expected.stats.nodes_expanded
                            ), case
                            solved += 1
                            continue
                        assert (actual.status == UNSOLVABLE) == (not reachable), case
                        if actual.status != expected.status:
                            assert expected.status == DEPTH_EXHAUSTED, case
                            exhausted_to_unsolvable += 1
                        assert not actual.solved, case
        assert solved > 10_000 and exhausted_to_unsolvable > 1_000

    def test_deepen_matches_the_snapshot_reference(self):
        """Differential check against the frozen snapshot-copy resolver.

        Every goal ``ids_search`` hands to the resolver (one in the kitchen
        or output by a live producer) on the randgen instances above, at
        the same depth caps: the same discovery list, bound and call count.
        """
        compared = 0
        for seed in range(150):
            for kind in range(3):
                instance = random_instance(
                    random.Random(3 * seed + kind),
                    acyclic=kind == 1,
                    single_producer=kind == 2,
                )
                kitchen = instance.kitchen
                live = instance.graph.live_producers(kitchen)
                for goal in instance.pool:
                    if goal.key not in kitchen and goal.key not in live:
                        continue
                    for max_depth in (1, 2, 3, 5, 100):
                        case = (seed, kind, goal.label, max_depth)
                        expected = reference_deepen(live, kitchen.keys, goal.key, max_depth)
                        actual = _deepen(live, kitchen.keys, goal.key, max_depth)
                        assert actual == expected, case
                        compared += 1
        assert compared > 10_000

    @pytest.mark.parametrize(
        "instance, solved_at",
        [(long_chain(300), 301), (trap(), 17), (detour_chain(), 61), (side_output(), 6)],
        ids=["long_chain", "trap", "detour_chain", "side_output"],
    )
    def test_deep_choice_points_match_the_snapshot_reference(self, instance, solved_at):
        # Each cap below the solving bound fails every pass and restores
        # the state of each pass's first cutoff; each cap from it on
        # backtracks after cutoffs and then succeeds.
        graph, kitchen, goal = instance
        live = graph.live_producers(kitchen)
        for max_depth in (solved_at // 2, solved_at - 1, solved_at, solved_at + 20):
            expected = reference_deepen(live, kitchen.keys, goal.key, max_depth)
            assert _deepen(live, kitchen.keys, goal.key, max_depth) == expected, max_depth
            assert (expected[0] is not None) == (max_depth >= solved_at), max_depth
            assert expected[1] == min(max_depth, solved_at), max_depth

    def test_detour_chain_backtracks_into_the_direct_steps(self):
        graph, kitchen, goal = detour_chain()
        outcome = ids_search(graph, kitchen, goal)
        assert outcome.status == SOLVED
        assert [u.motion.label for u in outcome.tree.steps] == ["cook"] * 60
        assert outcome.stats.final_depth_bound == 61

    def test_4000_unit_chain_costs_about_what_gbfs_costs(self):
        # Each bound costs only the work since the previous bound's first
        # cutoff, so IDS time grows linearly with the chain; rescanning or
        # copying the stack at every bound made it about 100x GBFS here.
        graph, kitchen, goal = long_chain(4000)
        config = SearchConfig(max_depth=4005)
        ids_runs = [ids_search(graph, kitchen, goal, config) for _ in range(3)]
        gbfs_runs = [gbfs_search(graph, kitchen, goal, config) for _ in range(3)]
        for outcome in ids_runs:
            assert outcome.status == SOLVED
            assert outcome.stats.nodes_expanded == 8002
            assert outcome.stats.final_depth_bound == 4001
        ids_time = min(outcome.stats.elapsed_seconds for outcome in ids_runs)
        gbfs_time = min(outcome.stats.elapsed_seconds for outcome in gbfs_runs)
        assert ids_time < 5 * gbfs_time, (ids_time, gbfs_time)


class TestGbfsSearch:
    def test_goal_in_kitchen(self):
        graph = build_graph([])
        goal = obj("a")
        outcome = gbfs_search(graph, Kitchen.from_nodes([goal]), goal)
        assert outcome.status == SOLVED
        assert outcome.tree  # a tree with no steps is still a tree
        assert outcome.tree.steps == ()
        assert outcome.stats.nodes_expanded == 0

    def test_heuristics_pick_different_producers(self):
        g = obj("g")
        wide = unit([obj("x"), obj("y"), obj("z")], "reliable", [g], index=0, rate=0.9)
        narrow = unit([obj("w")], "lean", [g], index=1, rate=0.5)
        graph = build_graph([wide, narrow])
        kitchen = Kitchen.from_nodes([obj("x"), obj("y"), obj("z"), obj("w")])

        by_rate = gbfs_search(graph, kitchen, g, SearchConfig(heuristic=SUCCESS_RATE))
        assert [u.motion.label for u in by_rate.tree.steps] == ["reliable"]

        by_count = gbfs_search(graph, kitchen, g, SearchConfig(heuristic=INPUT_COUNT))
        assert [u.motion.label for u in by_count.tree.steps] == ["lean"]

    def test_dead_end_failure_names_missing_item(self):
        g, x, z = obj("g"), obj("x"), obj("z")
        top = unit([x], "assemble", [g], index=0)
        mid = unit([z], "prepare", [x], index=1, rate=1.0)
        graph = build_graph([top, mid])
        outcome = gbfs_search(graph, Kitchen.from_nodes([]), g)
        assert outcome.status == UNSOLVABLE
        assert outcome.missing_key == z.key
        assert outcome.tree is None

    def test_greedy_commitment_is_not_repaired(self):
        # the preferred producer dead-ends while the other would work
        g = obj("g")
        trap = unit([obj("missing")], "tempting", [g], index=0, rate=0.9)
        works = unit([obj("a")], "works", [g], index=1, rate=0.1)
        graph = build_graph([trap, works])
        kitchen = Kitchen.from_nodes([obj("a")])
        outcome = gbfs_search(graph, kitchen, g, SearchConfig(heuristic=SUCCESS_RATE))
        assert outcome.status == UNSOLVABLE
        assert outcome.missing_key == obj("missing").key

    def test_circular_selection_is_a_failure_not_a_bogus_tree(self):
        a, b = obj("a"), obj("b")
        graph = build_graph([unit([b], "m1", [a], index=0), unit([a], "m2", [b], index=1)])
        outcome = gbfs_search(graph, Kitchen.from_nodes([]), a)
        assert outcome.status == UNSOLVABLE
        assert outcome.tree is None
        assert outcome.reason is not None

    def test_shared_intermediate_orders_executably(self):
        a, x, y, g = obj("a"), obj("x"), obj("y"), obj("g")
        make_x = unit([a], "make x", [x], index=0)
        make_y = unit([x], "make y", [y], index=1)
        make_g = unit([x, y], "make g", [g], index=2)
        graph = build_graph([make_x, make_y, make_g])
        kitchen = Kitchen.from_nodes([a])
        for heuristic in (SUCCESS_RATE, INPUT_COUNT):
            outcome = gbfs_search(graph, kitchen, g, SearchConfig(heuristic=heuristic))
            assert outcome.status == SOLVED
            assert validate_tree(kitchen, outcome.tree).ok

    def test_deterministic(self, chain):
        graph, kitchen, goal = chain
        first = gbfs_search(graph, kitchen, goal)
        second = gbfs_search(graph, kitchen, goal)
        assert first.tree == second.tree
        assert first.stats.nodes_expanded == second.stats.nodes_expanded


def test_search_agreement_on_chain(chain):
    graph, kitchen, goal = chain
    ids_tree = ids_search(graph, kitchen, goal).tree
    for heuristic in (SUCCESS_RATE, INPUT_COUNT):
        gbfs_tree = gbfs_search(graph, kitchen, goal, SearchConfig(heuristic=heuristic)).tree
        assert signatures(gbfs_tree) == signatures(ids_tree)
