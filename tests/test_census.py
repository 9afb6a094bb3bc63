"""Exhaustive checks over every small input: each graph on at most 7
vertices with an edge (networkx's graph atlas), each tree on at most 16
vertices and each forest on at most 14.  A cross-check beside the seeded
sweeps, not a replacement for them."""

from collections import Counter
from functools import lru_cache

import pytest

from expansions import (Graph, audit_sigma_jump, complete_forest_to_tree, contains_expansion,
                        crosscut_audit, crosscut_number, expand, forests,
                        lower_bound_construction, min_crosscut, trees)

from helpers import brute_graph_contains, brute_is_tree


@lru_cache(maxsize=1)
def atlas() -> tuple[tuple[Graph, int], ...]:
    """The 1,245 atlas graphs with at least one edge, each with sigma."""
    nx = pytest.importorskip("networkx")
    graphs = [Graph.from_edges(g.number_of_nodes(), g.edges())
              for g in nx.graph_atlas_g() if g.number_of_edges()]
    return tuple((g, crosscut_number(g)) for g in graphs)


def test_atlas_sigma_equals_min_crosscut_of_the_expansion():
    census = atlas()
    assert len(census) == 1245
    for g, sigma in census:
        assert min_crosscut(expand(g).system)[0] == sigma, sorted(g.edges)
    by_size = Counter((g.n, sigma) for g, sigma in census)
    assert {s: c for (n, s), c in by_size.items() if n == 5} == {
        1: 4, 2: 11, 3: 10, 4: 5, 5: 2, 7: 1}
    assert {s: c for (n, s), c in by_size.items() if n == 7} == {
        1: 6, 2: 32, 3: 114, 4: 215, 5: 251, 6: 196, 7: 120, 8: 60, 9: 30, 10: 9, 11: 5,
        12: 4, 16: 1}


def test_atlas_expansions_avoid_their_core_construction():
    # a copy would give the expansion a crosscut of size at most the core
    checked = 0
    for g, sigma in atlas():
        if sigma >= 2:
            host = lower_bound_construction(2 * g.n + len(g.edges), min(sigma - 1, 2))
            assert contains_expansion(host, g) is None, sorted(g.edges)
            checked += 1
    assert checked == 1224


def test_atlas_sigma_jump_shapes_match_brute_force():
    checked = 0
    for g, sigma in atlas():
        if sigma != 2:
            continue
        k = g.n
        star_plus_edge = Graph.from_edges(k, [(0, v) for v in range(1, k)]
                                        + ([(1, 2)] if k >= 3 else []))
        bipartite_two = Graph.from_edges(k, [(a, v) for a in (0, 1) for v in range(2, k)])
        report = audit_sigma_jump(g, 2 * k + len(g.edges))
        assert report["free"] and report["edges"] == report["expected_edges"]
        assert report["shape"] == {
            "in_star_plus_edge": brute_graph_contains(star_plus_edge, g),
            "in_complete_bipartite_two": brute_graph_contains(bipartite_two, g),
        }, sorted(g.edges)
        checked += 1
    assert checked == 69


def test_audit_passes_on_every_tree_up_to_16_vertices():
    count = 0
    for n in range(2, 17):
        for tree in trees(n):
            report = crosscut_audit(tree)
            assert all(c["pass"] for c in report["checks"]), (n, sorted(tree.edges))
            count += 1
    assert count == 32507


def test_completion_of_every_forest_up_to_14_vertices():
    # only the edgeless forest of each size is rejected, as documented
    completed = rejected = 0
    for n in range(2, 15):
        for forest in forests(n):
            if not forest.edges:
                with pytest.raises(ValueError):
                    complete_forest_to_tree(forest)
                rejected += 1
                continue
            tree = complete_forest_to_tree(forest)
            assert forest.edges <= tree.edges and brute_is_tree(tree), sorted(forest.edges)
            assert crosscut_number(tree) == crosscut_number(forest), sorted(forest.edges)
            completed += 1
    assert (completed, rejected) == (15191, 13)
