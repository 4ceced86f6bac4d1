import collections
import itertools
import pickle
import random
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import pytest

import foon.core
import foon.search
from foon import (
    ALGORITHMS,
    DEPTH_EXHAUSTED,
    INPUT_COUNT,
    SOLVED,
    SUCCESS_RATE,
    UNSOLVABLE,
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    SearchConfig,
    build_graph,
    finalize_tree,
    gbfs_search,
    heuristic_select,
    ids_search,
    reachable_oracle,
    run_algorithm,
    validate_tree,
)
from foon.core import forward_chain
from foon.search import HEURISTICS, _deepen
from tests.conftest import LIVE_INDEX_SLEEP, obj, unit
from tests.deepen_reference import reference_deepen
from tests.families import (
    detour_chain,
    diamond,
    forked_chain,
    ladder,
    long_chain,
    merged_recipes,
    side_output,
    trap,
    wide_then_deep,
)
from tests.finalize_reference import reference_finalize
from tests.finalize_sorted_reference import reference_sorted_finalize
from tests.ids_reference import reference_depth_limited_search, reference_ids_search
from tests.randgen import random_instance


def merged_recipe_goals():
    for seed in range(3):
        graph, kitchen, goals = merged_recipes(seed, 12, 3, 4)
        for position, goal in enumerate(goals):
            yield (seed, position), (graph, kitchen, goal)


# Family name -> its (case, (graph, kitchen, goal)) instances, built when a
# test asks. Ladders of width 3 stop at n = 10: n = 11 and 12 (0.84M and
# 2.5M calls per search) would take about 6 and 19 s at these caps on a
# 2-core box, and tests/test_families.py pins their calls and bounds.
FAMILY_GOALS = {
    "ladder": lambda: [((n, width), ladder(n, width))
                       for width, top in ((2, 12), (3, 10)) for n in range(4, top + 1)],
    "diamond": lambda: [(n, diamond(n)) for n in range(4, 9)],
    "merged_recipes": merged_recipe_goals,
}


def signatures(tree):
    return [u.signature for u in tree.steps]


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


class TestSearchConfig:
    @pytest.mark.parametrize("max_depth", [0, -3])
    def test_max_depth_below_one_rejected(self, max_depth):
        with pytest.raises(ValueError, match=f"^max_depth must be >= 1, got {max_depth}$"):
            SearchConfig(max_depth)

    @pytest.mark.parametrize("max_depth", [2.5, 10.0, True, False, "3", None])
    def test_max_depth_that_is_not_an_int_rejected(self, max_depth):
        # A float cap is never met by an int bound, so IDS would search past
        # it, and True would be reported as the final depth bound.
        with pytest.raises(ValueError, match=f"^max_depth must be an int, got {max_depth!r}$"):
            SearchConfig(max_depth)

    def test_run_algorithm_rejects_max_depth_zero(self, chain):
        with pytest.raises(ValueError, match="^max_depth must be >= 1, got 0$"):
            run_algorithm("ids", *chain, max_depth=0)

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError, match="^unknown heuristic 'fewest'$"):
            SearchConfig(heuristic="fewest")


class TestFinalizeTree:
    def test_reverses_discovery_order(self):
        u1 = unit([obj("a")], "m1", [obj("b")], index=0)
        u2 = unit([obj("b")], "m2", [obj("g")], index=1)
        tree = finalize_tree([u2, u1], obj("g").key, Kitchen([obj("a")]))
        assert list(tree.steps) == [u1, u2]

    def test_deduplicates_keeping_earliest_execution_occurrence(self):
        # u2 and its copy differ only in rate and index, so the tree shows
        # which occurrence was kept: the last discovered (u2_copy). It sorts
        # after u3 but fires before it, as u3 needs its output.
        u1 = unit([obj("a")], "m1", [obj("b")], index=0)
        u2 = unit([obj("a")], "m2", [obj("c")], index=1)
        u3 = unit([obj("b"), obj("c")], "m3", [obj("g")], index=2)
        u2_copy = unit([obj("a")], "m2", [obj("c")], index=7, rate=0.5)
        kitchen = Kitchen([obj("a")])
        tree = finalize_tree([u3, u2, u1, u2_copy], obj("g").key, kitchen)
        assert list(tree.steps) == [u1, u2_copy, u3]

    def test_orders_ready_steps_by_unit_index(self):
        # Both of u1 and u2 are ready at once: the lower index fires first,
        # whichever order they were discovered in.
        u1 = unit([obj("a")], "m1", [obj("b")], index=3)
        u2 = unit([obj("a")], "m2", [obj("c")], index=5)
        u3 = unit([obj("b"), obj("c")], "m3", [obj("g")], index=4)
        kitchen = Kitchen([obj("a")])
        for discovery in itertools.permutations([u1, u2, u3]):
            tree = finalize_tree(discovery, obj("g").key, kitchen)
            assert list(tree.steps) == [u1, u2, u3], discovery

    def test_empty_discovery(self):
        goal = obj("g")
        tree = finalize_tree([], goal.key, Kitchen([goal]))
        assert tree.steps == ()
        with pytest.raises(RuntimeError, match="empty tree"):
            finalize_tree([], goal.key, Kitchen([]))

    def test_trims_after_last_goal_producer(self):
        u1 = unit([obj("a")], "m1", [obj("g")], index=0)
        u2 = unit([obj("g")], "m2", [obj("h")], index=1)
        tree = finalize_tree([u1, u2], obj("g").key, Kitchen([obj("a")]))
        assert list(tree.steps) == [u1]

    def test_a_sorted_list_that_runs_is_accepted_without_ordering(self, monkeypatch):
        ordering, checked = _spy_finalize_calls(monkeypatch)
        u1 = unit([obj("a")], "m1", [obj("b")], index=0)
        u2 = unit([obj("b")], "m2", [obj("g")], index=1)
        tree = finalize_tree([u2, u1], obj("g").key, Kitchen([obj("a")]))
        assert list(tree.steps) == [u1, u2]
        assert ordering == []
        assert len(checked) == 1 and checked[0][0] is tree and checked[0][1].ok

    def test_a_sorted_list_out_of_order_is_repaired(self, monkeypatch):
        # The sorted list starts in the kitchen and ends at the goal, so it
        # is validated, but its second step needs the third's output.
        ordering, checked = _spy_finalize_calls(monkeypatch)
        u1 = unit([obj("a")], "m1", [obj("b")], index=0)
        u2 = unit([obj("c")], "m2", [obj("d")], index=1)
        u3 = unit([obj("b")], "m3", [obj("c")], index=2)
        u4 = unit([obj("d")], "m4", [obj("g")], index=3)
        tree = finalize_tree([u4, u2, u3, u1], obj("g").key, Kitchen([obj("a")]))
        assert list(tree.steps) == [u1, u3, u2, u4]
        assert len(ordering) == 1
        assert [candidate.steps for candidate, _ in checked] == [(u1, u2, u3, u4), tree.steps]
        assert not checked[0][1].ok and checked[1][0] is tree and checked[1][1].ok

    def test_a_cycle_the_kitchen_does_not_feed_is_not_validated(self, monkeypatch):
        ordering, checked = _spy_finalize_calls(monkeypatch)
        u1 = unit([obj("b")], "m1", [obj("c")], index=0)
        u2 = unit([obj("c")], "m2", [obj("b"), obj("g")], index=1)
        assert finalize_tree([u2, u1], obj("g").key, Kitchen([obj("a")])) is None
        assert len(ordering) == 1
        assert checked == []

    def test_matches_the_three_pass_reference(self):
        """Differential check against the reversal order on the randgen corpus.

        The step order differs from the frozen three-pass finalization by
        design, and so can the trim of a list with units the goal does not
        need. What must not change is checked on every list of
        :func:`_finalize_corpus`: the same None / not-None result, and on the
        lists a search produced, the same set of units.
        """
        searched = solved = none = 0
        for seed in range(500):
            kitchen, lists = _finalize_corpus(seed)
            for discovery, target, from_search in lists:
                expected = reference_finalize(discovery, target, kitchen)
                actual = finalize_tree(discovery, target, kitchen)
                assert (actual is None) == (expected is None), (seed, discovery)
                if expected is None:
                    none += 1
                    continue
                solved += 1
                if from_search:
                    assert set(actual.steps) == set(expected.steps), (seed, discovery)
                    searched += 1
        # 283 search lists; 545 trees and 1,332 Nones in all.
        assert searched > 250 and solved > 500 and none > 500, (searched, solved, none)

    def test_matches_the_unit_index_reference(self, monkeypatch):
        """Exact trees against the frozen quadratic reference of the rule.

        Every list of :func:`_finalize_corpus` is checked as is, and once
        more with every unit renumbered to index 0, as units built outside
        ``build_graph`` are, so that all ties go to discovery position.
        Both branches of ``finalize_tree`` are counted: trees accepted as
        sorted, with no ordering pass, and trees the pass repaired.
        """
        ordering, _ = _spy_finalize_calls(monkeypatch)
        solved = none = accepted = repaired = 0
        for seed in range(500):
            kitchen, lists = _finalize_corpus(seed)
            for discovery, target, _ in lists:
                for units in (discovery, [u._with(u.motion, 0) for u in discovery]):
                    expected = reference_sorted_finalize(units, target, kitchen)
                    ordering.clear()
                    actual = finalize_tree(units, target, kitchen)
                    if expected is None:
                        assert actual is None, (seed, units)
                        none += 1
                    else:
                        assert actual is not None, (seed, units)
                        assert actual.steps == expected.steps, (seed, units)
                        solved += 1
                        if ordering:
                            repaired += 1
                        else:
                            accepted += 1
        # 1,090 trees and 2,664 Nones; 604 trees accepted and 486 repaired.
        assert solved > 1000 and none > 1000, (solved, none)
        assert accepted > 100 and repaired > 100, (accepted, repaired)

    def test_a_shuffled_discovery_list_gives_the_same_tree(self, monkeypatch):
        """On the randgen corpus, the tree of each IDS and GBFS discovery list
        is also the tree of shuffled copies of it, with duplicates added."""
        discoveries = []

        def spy_finalize(discovery, goal, kitchen):
            discoveries.append((list(discovery), goal))
            return finalize_tree(discovery, goal, kitchen)

        monkeypatch.setattr(foon.search, "finalize_tree", spy_finalize)
        reordered = 0
        for seed in range(300):
            rng = random.Random(seed)
            instance = random_instance(seed, acyclic=(seed % 3 == 0))
            graph, kitchen = instance.graph, instance.kitchen
            for name in ALGORITHMS:
                outcome = run_algorithm(name, graph, kitchen, instance.goal)
                for discovery, goal in discoveries:
                    for _ in range(3):
                        shuffled = discovery + rng.choices(discovery, k=len(discovery) // 2)
                        rng.shuffle(shuffled)
                        tree = finalize_tree(shuffled, goal, kitchen)
                        assert tree == outcome.tree, (seed, name)
                        reordered += len(discovery) > 1
                discoveries.clear()
        # 390 shuffles of lists with two or more units.
        assert reordered > 350, reordered

    def test_each_returned_tree_is_validated_once(self, monkeypatch):
        """On the randgen corpus, every tree that ``ids_search`` or
        ``gbfs_search`` returns went through exactly one call of
        ``foon.search.validate_tree``, on that very tree, and that call was
        the last. At most one call came before it: on the sorted candidate,
        whose report had violations. A search that returns no tree makes at
        most one call, and that call fails."""
        _, checked = _spy_finalize_calls(monkeypatch)
        discoveries = []

        def spy_finalize(discovery, goal, kitchen):
            discoveries.append(list(discovery))
            return finalize_tree(discovery, goal, kitchen)

        monkeypatch.setattr(foon.search, "finalize_tree", spy_finalize)
        trees = repaired = 0
        for seed in range(400):
            instance = random_instance(seed, acyclic=(seed % 3 == 0))
            for name in ALGORITHMS:
                outcome = run_algorithm(name, instance.graph, instance.kitchen, instance.goal)
                earlier = checked
                if outcome.tree is not None:
                    last_tree, last_report = checked[-1]
                    assert last_tree is outcome.tree and last_report.ok, (seed, name)
                    earlier = checked[:-1]
                    trees += 1
                assert len(earlier) <= 1, (seed, name)
                for candidate, report in earlier:
                    assert not report.ok, (seed, name)
                    assert candidate.steps == _sorted_candidate(discoveries[0]), (seed, name)
                    repaired += outcome.tree is not None
                checked.clear()
                discoveries.clear()
        # 582 trees, 2 of them repaired after a failed validation.
        assert trees > 500 and repaired > 0, (trees, repaired)


def _spy_finalize_calls(monkeypatch):
    """Record the calls ``finalize_tree`` makes: a list of the unit lists
    it passes to ``forward_chain`` and one of ``(tree, report)`` for each
    ``validate_tree`` call."""
    ordering, checked = [], []

    def spy_forward_chain(units, kitchen_keys):
        ordering.append(list(units))
        return forward_chain(units, kitchen_keys)

    def spy_validate(kitchen, tree):
        report = validate_tree(kitchen, tree)
        checked.append((tree, report))
        return report

    monkeypatch.setattr(foon.search, "forward_chain", spy_forward_chain)
    monkeypatch.setattr(foon.search, "validate_tree", spy_validate)
    return ordering, checked


def _sorted_candidate(discovery):
    """The steps ``finalize_tree`` validates before any ordering: the last
    discovered unit of each signature, stably sorted by ``unit_index``."""
    kept = {}
    for unit_ in reversed(discovery):
        kept.setdefault(unit_.signature, unit_)
    return tuple(sorted(kept.values(), key=lambda unit_: unit_.unit_index))


def _finalize_corpus(seed):
    """The kitchen and the discovery lists the finalize differential tests
    check at ``seed``.

    Each list entry is ``(discovery, target, from_search)``: the list of the
    frozen recursive IDS at its first solving bound (``from_search``), a
    shuffled copy of it with duplicates, and three random unit samples of
    the (often cyclic) graph; the target is always output by the list's
    first unit, as in both searches.
    """
    rng = random.Random(seed)
    instance = random_instance(seed, acyclic=(seed % 3 == 0))
    graph, kitchen = instance.graph, instance.kitchen
    goal = instance.goal.key
    lists = []
    for bound in range(len(graph) + 2):
        found, _, discovery, _ = reference_depth_limited_search(graph, kitchen, goal, bound)
        if found:
            lists.append((discovery, goal, True))
            shuffled = discovery + rng.choices(discovery, k=len(discovery))
            rng.shuffle(shuffled)
            if shuffled:
                lists.append((shuffled, rng.choice(shuffled[0].output_keys), False))
            break
    for _ in range(3):
        if not graph.units:
            break
        sample = rng.choices(graph.units, k=rng.randint(1, 8))
        lists.append((sample, rng.choice(sample[0].output_keys), False))
    return kitchen, lists


def test_every_layered_tree_is_ordered_in_one_scan(layered, monkeypatch):
    """The work of ordering, as a count: on the layered fixture, each of the
    78 trees of the three algorithms is its sorted units in list order, so
    ``finalize_tree`` accepts it after one validation, the scan that
    checks it, and never calls ``forward_chain``. The kitchen pass behind
    the live-producer index runs once over the whole graph, for all 78
    searches."""
    ordering, checked = _spy_finalize_calls(monkeypatch)
    graph_passes = []

    def spy_kitchen_pass(units, kitchen_keys):
        graph_passes.append(units is graph.units)
        return forward_chain(units, kitchen_keys)

    monkeypatch.setattr(foon.core, "forward_chain", spy_kitchen_pass)
    graph, kitchen, goals = layered
    trees = []
    for goal in goals:
        for name in ALGORITHMS:
            outcome = run_algorithm(name, graph, kitchen, goal)
            assert outcome.solved
            trees.append(outcome.tree)
    assert len(trees) == 78 and len(checked) == 78
    assert ordering == []
    assert all(tree is checked_tree for tree, (checked_tree, _) in zip(trees, checked))
    assert graph_passes == [True]


def test_each_layered_step_signature_is_read_once_per_check(layered, monkeypatch):
    """The work of the repeat checks, as a count: no discovery list of the
    layered fixture's 78 searches repeats a unit, so ``finalize_tree`` and
    ``validate_tree`` each read a step's signature once in a tree of two or
    more steps, to build the one set that shows it, and never in a one-step
    tree. The count starts after set-up, so the reads of the graph's own
    dedup are not in it, and no signature is read outside the two."""
    graph, kitchen, goals = layered
    slot = FunctionalUnit.__dict__["signature"]
    reads = {"search": 0, "finalize": 0, "validate": 0}
    phase = ["search"]

    def counted(unit_):
        reads[phase[-1]] += 1
        return slot.__get__(unit_, FunctionalUnit)

    def within(name, function):
        def spy(*args):
            phase.append(name)
            try:
                return function(*args)
            finally:
                phase.pop()
        return spy

    monkeypatch.setattr(FunctionalUnit, "signature", property(counted))
    monkeypatch.setattr(foon.search, "finalize_tree", within("finalize", finalize_tree))
    monkeypatch.setattr(foon.search, "validate_tree", within("validate", validate_tree))
    sizes = collections.Counter()
    for goal in goals:
        for name in ALGORITHMS:
            reads.update(search=0, finalize=0, validate=0)
            outcome = run_algorithm(name, graph, kitchen, goal)
            steps = len(outcome.tree.steps)
            once = steps if steps > 1 else 0
            assert reads == {"search": 0, "finalize": once, "validate": once}, (goal, name)
            sizes[steps > 1] += 1
    assert sizes[False] > 0 and sizes[True] > 0 and sum(sizes.values()) == 78, sizes


def test_a_unit_discovered_twice_is_one_step(monkeypatch):
    """Both halves of the dough come from one ``split`` unit, which greedy
    search commits to once per half: its discovery list holds ``split``
    twice, and the tree holds it once, before the ``join`` it feeds."""
    dough, loaf = obj("dough", ["raw"]), obj("loaf", ["shaped"])
    halves = [obj("left half", ["raw"]), obj("right half", ["raw"])]
    graph = build_graph([unit([dough], "split", halves, 0), unit(halves, "join", [loaf], 1)])
    split, join = graph.units
    discoveries = []

    def spy_finalize(discovery, goal, kitchen):
        discoveries.append(list(discovery))
        return finalize_tree(discovery, goal, kitchen)

    monkeypatch.setattr(foon.search, "finalize_tree", spy_finalize)
    for heuristic in HEURISTICS:
        outcome = gbfs_search(graph, Kitchen([dough]), loaf, SearchConfig(heuristic=heuristic))
        assert discoveries.pop() == [join, split, split]
        assert outcome.solved and outcome.tree.steps == (split, join)


class TestIdsSearch:
    def test_goal_in_kitchen_succeeds_at_bound_one(self):
        graph = build_graph([])
        goal = obj("a")
        outcome = ids_search(graph, Kitchen([goal]), goal)
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

    def test_a_chain_counts_two_calls_per_bound(self):
        # Bound 0 cuts off the goal call. Each later bound makes the cut-off
        # call again, one bound deeper, and counts it, then cuts off one
        # item further down; the bound after the chain's length reaches the
        # kitchen. So a cap m <= n stops after 2m + 1 calls.
        for n in range(1, 41):
            graph, kitchen, goal = long_chain(n)
            outcome = ids_search(graph, kitchen, goal, SearchConfig(max_depth=n + 1))
            assert outcome.status == SOLVED, n
            assert outcome.stats.nodes_expanded == 2 * n + 2, n
            assert outcome.stats.final_depth_bound == n + 1, n
            for cap in range(1, n + 1):
                outcome = ids_search(graph, kitchen, goal, SearchConfig(max_depth=cap))
                assert outcome.status == DEPTH_EXHAUSTED, (n, cap)
                assert outcome.stats.nodes_expanded == 2 * cap + 1, (n, cap)
                assert outcome.stats.final_depth_bound == cap, (n, cap)

    def test_backtracks_to_second_producer(self):
        g = obj("g")
        dead = unit([obj("missing")], "bad route", [g], index=0)
        live = unit([obj("a")], "good route", [g], index=1)
        graph = build_graph([dead, live])
        outcome = ids_search(graph, Kitchen([obj("a")]), g)
        assert outcome.status == SOLVED
        assert [u.motion.label for u in outcome.tree.steps] == ["good route"]

    def test_shared_intermediate_orders_executably(self):
        # both Y's unit and the goal unit consume X
        a, x, y, g = obj("a"), obj("x"), obj("y"), obj("g")
        make_x = unit([a], "make x", [x], index=0)
        make_y = unit([x], "make y", [y], index=1)
        make_g = unit([x, y], "make g", [g], index=2)
        graph = build_graph([make_x, make_y, make_g])
        kitchen = Kitchen([a])
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
            outcome = ids_search(graph, Kitchen([]), a, config)
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
        [
            (long_chain(300), 301), (trap(), 17), (detour_chain(), 61), (side_output(), 6),
            (wide_then_deep(5, 20, 40), 42), (forked_chain(), 26),
        ],
        ids=["long_chain", "trap", "detour_chain", "side_output", "wide_then_deep",
             "forked_chain"],
    )
    def test_deep_choice_points_match_the_snapshot_reference(self, instance, solved_at):
        # Every cap from 1 to one past the solving bound. Below the cap a
        # bound's first cutoff raises the bound in place when no choice
        # point is on the stack, and otherwise takes a copy that a failed
        # pass restores; the last bound stops at the cap on either path, or
        # backtracks after cutoffs and then succeeds.
        graph, kitchen, goal = instance
        live = graph.live_producers(kitchen)
        for max_depth in range(1, solved_at + 2):
            expected = reference_deepen(live, kitchen.keys, goal.key, max_depth)
            assert _deepen(live, kitchen.keys, goal.key, max_depth) == expected, max_depth
            assert (expected[0] is not None) == (max_depth >= solved_at), max_depth
            assert expected[1] == min(max_depth, solved_at), max_depth

    @pytest.mark.parametrize("family", sorted(FAMILY_GOALS))
    def test_families_with_several_producers_match_the_snapshot_reference(self, family):
        """Ladders, diamonds and merged recipes, whose items have several
        live producers of equal depth: a search raises its first bounds in
        place, until a choice point is on the stack, and then restores every
        failed bound from a copy after retrying each combination below it.
        Every goal at caps 1, h - 1, h, h + 1 and 100, where h is its
        solving bound."""
        for case, (graph, kitchen, goal) in FAMILY_GOALS[family]():
            live = graph.live_producers(kitchen)
            solved_at = reference_deepen(live, kitchen.keys, goal.key, 100)[1]
            for max_depth in (1, solved_at - 1, solved_at, solved_at + 1, 100):
                expected = reference_deepen(live, kitchen.keys, goal.key, max_depth)
                actual = _deepen(live, kitchen.keys, goal.key, max_depth)
                assert actual == expected, (case, max_depth)
                assert (expected[0] is not None) == (max_depth >= solved_at), (case, max_depth)

    def test_elapsed_seconds_excludes_building_the_live_index(self, chain, slow_live_index):
        graph, kitchen, goal = chain
        outcome = ids_search(graph, kitchen, goal)
        assert outcome.status == SOLVED and slow_live_index == [kitchen]
        assert outcome.stats.elapsed_seconds < LIVE_INDEX_SLEEP

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

    def test_a_restored_bound_costs_about_what_gbfs_costs(self):
        # Bounds 252 to 601 each cut off in the deep chain under its end's
        # choice point, fail and are restored, with the 40 short chains
        # resolved. Copying only what the rest of a bound can change keeps
        # IDS about 2x GBFS here; copying the whole state (the resolved short
        # chains too) at each of those bounds made it about 20x.
        graph, kitchen, goal = wide_then_deep(40, 250, 600)
        config = SearchConfig(max_depth=650)
        ids_runs = [ids_search(graph, kitchen, goal, config) for _ in range(3)]
        gbfs_runs = [gbfs_search(graph, kitchen, goal, config) for _ in range(3)]
        for outcome in ids_runs:
            assert outcome.status == SOLVED
            assert outcome.stats.nodes_expanded == 11_594
            assert outcome.stats.final_depth_bound == 602
        for outcome in gbfs_runs:
            assert outcome.status == SOLVED
            assert outcome.stats.nodes_expanded == 10_601
        ids_time = min(outcome.stats.elapsed_seconds for outcome in ids_runs)
        gbfs_time = min(outcome.stats.elapsed_seconds for outcome in gbfs_runs)
        assert ids_time < 5 * gbfs_time, (ids_time, gbfs_time)


class TestGbfsSearch:
    def test_goal_in_kitchen(self):
        graph = build_graph([])
        goal = obj("a")
        outcome = gbfs_search(graph, Kitchen([goal]), goal)
        assert outcome.status == SOLVED
        assert outcome.tree  # a tree with no steps is still a tree
        assert outcome.tree.steps == ()
        assert outcome.stats.nodes_expanded == 0

    def test_heuristics_pick_different_producers(self):
        g = obj("g")
        wide = unit([obj("x"), obj("y"), obj("z")], "reliable", [g], index=0, rate=0.9)
        narrow = unit([obj("w")], "lean", [g], index=1, rate=0.5)
        graph = build_graph([wide, narrow])
        kitchen = Kitchen([obj("x"), obj("y"), obj("z"), obj("w")])

        by_rate = gbfs_search(graph, kitchen, g, SearchConfig(heuristic=SUCCESS_RATE))
        assert [u.motion.label for u in by_rate.tree.steps] == ["reliable"]

        by_count = gbfs_search(graph, kitchen, g, SearchConfig(heuristic=INPUT_COUNT))
        assert [u.motion.label for u in by_count.tree.steps] == ["lean"]

    def test_dead_end_failure_names_missing_item(self):
        g, x, z = obj("g"), obj("x"), obj("z")
        top = unit([x], "assemble", [g], index=0)
        mid = unit([z], "prepare", [x], index=1, rate=1.0)
        graph = build_graph([top, mid])
        outcome = gbfs_search(graph, Kitchen([]), g)
        assert outcome.status == UNSOLVABLE
        assert outcome.missing_key == z.key
        assert outcome.tree is None

    def test_greedy_commitment_is_not_repaired(self):
        # the preferred producer dead-ends while the other would work
        g = obj("g")
        trap = unit([obj("missing")], "tempting", [g], index=0, rate=0.9)
        works = unit([obj("a")], "works", [g], index=1, rate=0.1)
        graph = build_graph([trap, works])
        kitchen = Kitchen([obj("a")])
        outcome = gbfs_search(graph, kitchen, g, SearchConfig(heuristic=SUCCESS_RATE))
        assert outcome.status == UNSOLVABLE
        assert outcome.missing_key == obj("missing").key

    def test_circular_selection_is_a_failure_not_a_bogus_tree(self):
        a, b = obj("a"), obj("b")
        graph = build_graph([unit([b], "m1", [a], index=0), unit([a], "m2", [b], index=1)])
        outcome = gbfs_search(graph, Kitchen([]), a)
        assert outcome.status == UNSOLVABLE
        assert outcome.tree is None
        assert outcome.reason is not None

    def test_shared_intermediate_orders_executably(self):
        a, x, y, g = obj("a"), obj("x"), obj("y"), obj("g")
        make_x = unit([a], "make x", [x], index=0)
        make_y = unit([x], "make y", [y], index=1)
        make_g = unit([x, y], "make g", [g], index=2)
        graph = build_graph([make_x, make_y, make_g])
        kitchen = Kitchen([a])
        for heuristic in (SUCCESS_RATE, INPUT_COUNT):
            outcome = gbfs_search(graph, kitchen, g, SearchConfig(heuristic=heuristic))
            assert outcome.status == SOLVED
            assert validate_tree(kitchen, outcome.tree).ok

    def test_each_commitment_is_heuristic_select_of_its_producers(self, monkeypatch):
        """Differential check of every greedy choice on the randgen corpus,
        with the graph's commitments warm.

        On one graph per instance, every pool node is searched as the goal
        under each heuristic and against two kitchens, alternating both, so
        later searches read the commitments earlier ones stored. A walk of
        the same FIFO frontier commits to
        ``heuristic_select(graph.producers_of(key), mode)`` for each key; the
        search must commit to the same units (its discovery list, as handed
        to ``finalize_tree``), expand as many keys and stop at the same
        missing key. Afterwards the graph holds a commitment for exactly the
        items with several producers that some search of that heuristic met.
        """
        discoveries = []

        def spy_finalize(discovery, goal, kitchen):
            discoveries.append(list(discovery))
            return finalize_tree(discovery, goal, kitchen)

        monkeypatch.setattr(foon.search, "finalize_tree", spy_finalize)
        choices = several = ties = reads = 0
        for seed in range(400):
            instance = random_instance(seed, acyclic=(seed % 3 == 0))
            graph, pool = instance.graph, instance.pool
            kitchens = (instance.kitchen,
                        Kitchen([node for node in pool if node.key not in instance.kitchen][::2]))
            ranked = {SUCCESS_RATE: set(), INPUT_COUNT: set()}
            for goal in pool:
                for mode, kitchen in ((SUCCESS_RATE, kitchens[0]), (INPUT_COUNT, kitchens[1]),
                                      (SUCCESS_RATE, kitchens[1]), (INPUT_COUNT, kitchens[0])):
                    case = (seed, goal.label, mode, kitchen is kitchens[0])
                    outcome = gbfs_search(graph, kitchen, goal, SearchConfig(heuristic=mode))
                    committed, visited, missing = [], set(), None
                    frontier = deque([goal.key])
                    while frontier:
                        key = frontier.popleft()
                        if key in visited or key in kitchen:
                            continue
                        visited.add(key)
                        candidates = graph.producers_of(key)
                        if not candidates:
                            missing = key
                            break
                        committed.append(heuristic_select(candidates, mode))
                        frontier.extend(committed[-1].input_keys)
                        if len(candidates) > 1:
                            reads += key in ranked[mode]
                            ranked[mode].add(key)
                            ranks = sorted(HEURISTICS[mode](u)[0] for u in candidates)
                            several += 1
                            ties += ranks[0] == ranks[1]
                    choices += len(committed)
                    assert outcome.missing_key == missing, case
                    assert outcome.stats.nodes_expanded == len(visited), case
                    if missing is None:
                        assert discoveries.pop() == committed, case
                    assert not discoveries, case
            for mode, keys in ranked.items():
                assert set(graph.commitments.get(mode, {})) == keys, (seed, mode)
        # 20,246 choices, 14,695 among several producers: 3,917 of those
        # were ties, and 9,985 read a commitment an earlier search stored.
        assert choices > 18_000 and several > 13_000 and ties > 3_500, (choices, several, ties)
        assert reads > 9_000, reads

    def test_each_item_is_ranked_once_per_graph_and_heuristic(self, monkeypatch):
        """Every goal of ``trap()``'s 40 levels, searched deepest first,
        shares the levels below it, under both heuristics and twice over:
        each producer of an item with several is ranked once per heuristic.
        A rebuilt or unpickled graph starts with no commitments and ranks
        again, and commitments take no part in graph equality."""
        evaluations = collections.Counter()
        for mode, rank in list(HEURISTICS.items()):
            def counted(unit, mode=mode, rank=rank):
                evaluations[mode, unit.signature] += 1
                return rank(unit)
            monkeypatch.setitem(HEURISTICS, mode, counted)

        graph, kitchen, goal = trap()
        goals = [obj(f"trap {i}") for i in range(40, -1, -1)] + [goal]
        ranked = {unit.signature for units in graph.producers.values() if len(units) > 1
                  for unit in units}
        assert len(ranked) == 82
        for _ in range(2):
            for mode in (SUCCESS_RATE, INPUT_COUNT):
                for target in goals:
                    gbfs_search(graph, kitchen, target, SearchConfig(heuristic=mode))
        assert evaluations == {(mode, signature): 1 for mode in (SUCCESS_RATE, INPUT_COUNT)
                               for signature in ranked}
        assert [len(graph.commitments[mode]) for mode in (SUCCESS_RATE, INPUT_COUNT)] == [41, 41]

        for fresh in (FoonGraph(graph.units), pickle.loads(pickle.dumps(graph))):
            assert fresh.commitments == {}
            assert fresh == graph and repr(fresh) == repr(graph)
            outcome = gbfs_search(fresh, kitchen, goal)
            assert outcome.tree == gbfs_search(graph, kitchen, goal).tree
            assert len(fresh.commitments[SUCCESS_RATE]) == 41
        assert all(evaluations[SUCCESS_RATE, signature] == 3 for signature in ranked)

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


def test_searches_over_one_graph_can_run_concurrently():
    """Four threads run every (goal, algorithm) of a few randgen instances on
    one shared graph, each pair against two kitchens by turns, so the
    live-producer memo changes hands while greedy searches fill the
    commitments. Every outcome, and the graph's commitments afterwards,
    equal those of a serial run of the same searches on a fresh graph."""
    def fields(outcome):
        stats = outcome.stats
        return (outcome.status, outcome.tree and outcome.tree.steps, stats.nodes_expanded,
                stats.final_depth_bound, outcome.missing_key, outcome.reason)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over often, so searches interleave
    try:
        for seed in range(20):
            instance = random_instance(seed, acyclic=(seed % 2 == 0))
            pool = instance.pool
            kitchens = (instance.kitchen,
                        Kitchen([node for node in pool if node.key not in instance.kitchen][::2]))
            jobs = [(name, goal, kitchen) for goal in pool for name in ALGORITHMS
                    for kitchen in kitchens]
            serial_graph = FoonGraph(instance.graph.units)
            serial = [fields(run_algorithm(name, serial_graph, kitchen, goal))
                      for name, goal, kitchen in jobs]
            shared = FoonGraph(instance.graph.units)
            threads = set()

            def run(job):
                threads.add(threading.get_ident())
                name, goal, kitchen = job
                return fields(run_algorithm(name, shared, kitchen, goal))

            with ThreadPoolExecutor(max_workers=4) as executor:
                threaded = list(executor.map(run, jobs, timeout=60))
            assert len(threads) > 1, seed
            assert threaded == serial, seed
            assert shared.commitments == serial_graph.commitments, seed
    finally:
        sys.setswitchinterval(switch)
