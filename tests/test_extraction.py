import random
from itertools import combinations

import pytest

from expansions import (AugmentedFamily, Graph, SetFamily, Sunflower, TripleSystem,
                        expand, find_biclique_avoiding_lists, find_sunflower,
                        full_subgraph, select_disjoint_augmented,
                        shadow, sunflower_threshold)

from expansions.core import first_compatible
from expansions.extraction import _sunflower
from helpers import random_system, recount_sunflower, recursive_y_completion


# --------------------------------------------------------- full subgraph

def check_full(original, result, d):
    assert result.edges <= original.edges
    for count in result.pair_counts.values():
        assert count >= d + 1
    lost = len(original.edges) - len(result.edges)
    assert lost <= d * len(shadow(original).edges)


def test_full_subgraph_small_example():
    # the pair (0,1) lies in three triples, everything else in one
    h = TripleSystem.from_edges(6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 5)])
    out = full_subgraph(h, 1)
    # every triple outside the (0,1)-bundle dies with its sparse pairs,
    # then the bundle's own side pairs are sparse too
    assert out.edges == frozenset()
    out2 = full_subgraph(h, 2)
    assert out2.edges == frozenset()


def test_full_subgraph_keeps_rich_systems_whole():
    # complete system on 5 vertices: every pair lies in 3 triples
    full = TripleSystem(5, frozenset(combinations(range(5), 3)))
    assert full_subgraph(full, 2).edges == full.edges
    assert full_subgraph(full, 1).edges == full.edges


def test_full_subgraph_rejects_nonpositive_threshold():
    h = TripleSystem.from_edges(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        full_subgraph(h, 0)


def test_full_subgraph_idempotent_and_bounded_random_sweep():
    rng = random.Random(41)
    for _ in range(80):
        h = random_system(rng, rng.randint(4, 10), rng.randint(0, 20))
        d = rng.randint(1, 3)
        out = full_subgraph(h, d)
        check_full(h, out, d)
        again = full_subgraph(out, d)
        assert again.edges == out.edges


# -------------------------------------------------------------- sunflower

def test_sunflower_threshold_values():
    assert sunflower_threshold(2, 3) == 8
    assert sunflower_threshold(3, 3) == 48
    assert sunflower_threshold(3, 2) == 6
    assert sunflower_threshold(1, 4) == 3
    assert sunflower_threshold(0, 1) == 1
    for k, petals in ((3, 0), (-1, 3), (2, -2)):
        with pytest.raises(ValueError):
            sunflower_threshold(k, petals)


def test_set_family_rejects_duplicates():
    with pytest.raises(ValueError):
        SetFamily.from_sets([{1, 2}, {2, 1}])


def test_sunflower_disjoint_sets_form_empty_core():
    fam = SetFamily.from_sets([{1, 2}, {3, 4}, {5, 6}])
    flower = find_sunflower(fam, 3)
    assert flower is not None
    assert flower.core == frozenset()
    assert flower.check(fam)


def test_sunflower_common_element():
    fam = SetFamily.from_sets([{0, 1}, {0, 2}, {0, 3}])
    flower = find_sunflower(fam, 3)
    assert flower is not None
    assert flower.core == frozenset({0})
    assert flower.check(fam)


def test_sunflower_absent_below_need():
    fam = SetFamily.from_sets([{1, 2}, {2, 3}])
    assert find_sunflower(fam, 3) is None


def test_sunflower_two_petals_always_exist_with_two_sets():
    # any two sets form a sunflower; the search must find one
    fam = SetFamily.from_sets([{1, 2}, {1, 3}])
    flower = find_sunflower(fam, 2)
    assert flower is not None and flower.check(fam)


def test_sunflower_core_beyond_the_recursion_limit():
    # each core element is one link step; 1,500 of them used to exceed the
    # recursion limit
    fam = SetFamily.from_sets([range(1500), range(1501)])
    assert find_sunflower(fam, 2) == Sunflower((0, 1), frozenset(range(1500)))


def test_sunflower_rejects_bad_petal_count():
    fam = SetFamily.from_sets([{1}])
    with pytest.raises(ValueError):
        find_sunflower(fam, 0)


def random_family(rng, k, size):
    universe = range(3 * k + 6)
    sets = set()
    while len(sets) < size:
        take = rng.randint(1, k)
        sets.add(frozenset(rng.sample(universe, take)))
    return SetFamily(tuple(sorted(sets, key=sorted)))


def test_sunflower_guarantee_at_exact_threshold():
    rng = random.Random(43)
    for k in (2, 3):
        for petals in (2, 3):
            size = sunflower_threshold(k, petals)
            for _ in range(30):
                fam = random_family(rng, k, size)
                flower = find_sunflower(fam, petals)
                assert flower is not None, (k, petals, fam)
                assert flower.check(fam)


def test_sunflower_equals_recount_reference_on_random_families():
    # counting frequencies once and updating them must not change a petal or
    # the core; some families get duplicates, empty sets and a shuffled order
    rng = random.Random(53)
    outcomes = set()
    for trial in range(300):
        k = rng.randint(1, 4)
        sets = list(random_family(rng, k, rng.randint(1, 9 if k == 1 else 40)).sets)
        if trial % 3 == 0:
            sets += rng.sample(sets, rng.randint(0, len(sets))) + [frozenset()]
            rng.shuffle(sets)
        items = list(enumerate(sets))
        petals = rng.randint(1, 5)
        want = recount_sunflower(items, petals)
        assert _sunflower(items, petals) == want, (sets, petals)
        outcomes.add(want is None)
    assert outcomes == {True, False}


# --------------------------------------------------- augmented selection

def test_augmented_family_validation():
    with pytest.raises(ValueError):
        AugmentedFamily.from_pairs([({1, 2}, 5), ({2, 3}, 6)])
    with pytest.raises(ValueError):
        AugmentedFamily.from_pairs([({1, 2}, 5), ({3, 4}, 5)])


def check_selection(family, picked):
    m = len(family)
    assert len(picked) * 3 >= m
    assert picked == sorted(set(picked))
    augmented = [family.pairs[i][0] | {family.pairs[i][1]} for i in picked]
    for a, b in combinations(augmented, 2):
        assert not (a & b)


def test_select_disjoint_augmented_small_cases():
    fam = AugmentedFamily.from_pairs([({0, 1}, 2), ({2, 3}, 0), ({4, 5}, 6)])
    check_selection(fam, select_disjoint_augmented(fam))
    assert select_disjoint_augmented(AugmentedFamily.from_pairs([])) == []
    # a star: every leaf's anchor lands in the hub's base, whose anchor is free
    hub = (range(30), 1000)
    fam = AugmentedFamily.from_pairs([hub] + [({100 + i}, i) for i in range(30)])
    picked = select_disjoint_augmented(fam)
    check_selection(fam, picked)
    assert picked == list(range(1, 31))


def test_select_disjoint_augmented_cycle_of_conflicts():
    # anchors chase each other around a triangle: any single member is fine
    fam = AugmentedFamily.from_pairs([({0}, 1), ({1}, 2), ({2}, 0)])
    check_selection(fam, select_disjoint_augmented(fam))
    # an odd cycle of five: two colors cannot do, the third closes it
    fam = AugmentedFamily.from_pairs([({2 * i, 2 * i + 1}, 2 * ((i + 1) % 5)) for i in range(5)])
    picked = select_disjoint_augmented(fam)
    check_selection(fam, picked)
    assert len(picked) == 2


def random_augmented(rng, m):
    universe = list(range(4 * m + 4))
    rng.shuffle(universe)
    cursor = 0
    bases = []
    for _ in range(m):
        take = rng.randint(1, 3)
        bases.append(frozenset(universe[cursor:cursor + take]))
        cursor += take
    anchor_pool = universe[:cursor + m]
    anchors = rng.sample(anchor_pool, m)
    return AugmentedFamily.from_pairs(list(zip(bases, anchors)))


def test_select_disjoint_augmented_random_sweep():
    rng = random.Random(47)
    for _ in range(60):
        fam = random_augmented(rng, rng.randint(1, 60))
        check_selection(fam, select_disjoint_augmented(fam))


# ----------------------------------------------------- biclique avoidance

def grid_instance(lists_by_edge, n_host, host_triples):
    host = TripleSystem.from_edges(n_host, host_triples)
    n = max(max(e) for e in lists_by_edge) + 1
    grid = Graph.from_edges(n, list(lists_by_edge))
    lists = {e: frozenset(s) for e, s in lists_by_edge.items()}
    return grid, lists, host


def test_biclique_found_when_lists_point_elsewhere():
    # grid K_{2,2} on {0,1}x{2,3} inside a host covering those pairs;
    # all lists point at vertex 4, outside the grid
    triples = [(0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4)]
    grid, lists, host = grid_instance(
        {(0, 2): {4}, (0, 3): {4}, (1, 2): {4}, (1, 3): {4}}, 5, triples)
    found = find_biclique_avoiding_lists(grid, lists, 2, host)
    assert found == (frozenset({0, 1}), frozenset({2, 3}))


def test_biclique_blocked_by_list_into_grid():
    # one list contains an opposite-side grid vertex, killing the only K_{2,2}
    triples = [(0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 2, 3), (1, 3, 4)]
    grid, lists, host = grid_instance(
        {(0, 2): {4}, (0, 3): {4}, (1, 2): {3}, (1, 3): {4}}, 5, triples)
    assert find_biclique_avoiding_lists(grid, lists, 2, host) is None


def test_biclique_blocked_by_own_side_hit():
    # a list contains the other x of the would-be biclique
    triples = [(0, 2, 1), (0, 3, 4), (1, 2, 4), (1, 3, 4)]
    grid, lists, host = grid_instance(
        {(0, 2): {1}, (0, 3): {4}, (1, 2): {4}, (1, 3): {4}}, 5, triples)
    assert find_biclique_avoiding_lists(grid, lists, 2, host) is None


def test_biclique_validates_inputs():
    host = TripleSystem.from_edges(5, [(0, 2, 4)])
    grid = Graph.from_edges(4, [(0, 2), (1, 3)])
    with pytest.raises(ValueError, match="shadow"):
        find_biclique_avoiding_lists(grid, {(0, 2): frozenset({4}),
                                            (1, 3): frozenset({4})}, 1, host)
    grid2 = Graph.from_edges(3, [(0, 2)])
    with pytest.raises(ValueError, match="list"):
        find_biclique_avoiding_lists(grid2, {}, 1, host)
    with pytest.raises(ValueError):
        find_biclique_avoiding_lists(grid2, {(0, 2): frozenset({4})}, 0, host)


def test_biclique_completion_matches_recursive_reference():
    # candidates come in sorted order, with lists that miss xs and the
    # candidate itself, drawn from a small pool so that they often hit
    # other candidates
    rng = random.Random(71)
    found = 0
    for _ in range(4000):
        xs = range(rng.randint(1, 3))
        candidates = sorted(rng.sample(range(10, 22), rng.randint(0, 9)))
        lists = {(x, y): frozenset(rng.sample([z for z in range(10, 22) if z != y],
                                              rng.randint(0, 3)))
                 for x in xs for y in candidates}
        unions = {y: frozenset().union(*(lists[(x, y)] for x in xs)) for y in candidates}
        t = rng.randint(1, 5)
        want = recursive_y_completion(xs, candidates, lists, t)
        assert first_compatible(unions, t, lambda a, b: a not in unions[b]
                                and b not in unions[a]) == want, (candidates, lists, t)
        found += want is not None
    assert 0 < found < 4000


def test_biclique_rejects_odd_cycles():
    host = TripleSystem.from_edges(4, [(0, 1, 3), (1, 2, 3), (0, 2, 3)])
    grid = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    lists = {e: frozenset({3}) for e in grid.edges}
    with pytest.raises(ValueError, match="bipartite"):
        find_biclique_avoiding_lists(grid, lists, 1, host)


def expansion_grid(base):
    # expansions give every grid edge a singleton list, its enlargement vertex
    exp = expand(base)
    lists = {e: frozenset({w}) for e, w in exp.enlargement.items()}
    return base, lists, exp.system


def test_biclique_on_expansion_of_complete_bipartite():
    base = Graph.from_edges(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
    grid, lists, host = expansion_grid(base)
    grid = Graph(host.n, grid.edges)
    found = find_biclique_avoiding_lists(grid, lists, 3, host)
    assert found == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
