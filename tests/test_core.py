import random
from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from expansions import (AugmentedFamily, CrosscutPair, EmbeddingCertificate, Expansion, Graph,
                        GridColoring, ListAssignment, Multicoloring, SetFamily,
                        StructuredSearch, Sunflower, TripleSystem, TuranResult, canonical_edge,
                        canonical_triple, codegree, edge_codegree_extremes, is_linear,
                        neighborhood, remove_vertices, shadow)
from expansions.core import Budget, BudgetExhausted

from helpers import (brute_two_coloring, brute_twin_pairs, random_forest, random_graph,
                     random_system)


def test_canonical_edge_orders_and_rejects_loops():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        canonical_edge(2, 2)


def test_canonical_triple_sorts_and_rejects_repeats():
    assert canonical_triple(5, 0, 2) == (0, 2, 5)
    for bad in [(1, 1, 2), (1, 2, 2), (3, 1, 3)]:
        with pytest.raises(ValueError):
            canonical_triple(*bad)


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(-1, frozenset())


def test_graph_adjacency_and_degrees():
    g = Graph.from_edges(4, [(0, 1), (2, 1), (1, 3)])
    assert g.adjacency[1] == frozenset({0, 2, 3})
    assert g.degree(1) == 3
    assert g.degree(0) == 1
    assert g.sorted_edges() == [(0, 1), (1, 2), (1, 3)]


def test_graph_components_ordered_by_smallest_member():
    g = Graph.from_edges(6, [(4, 5), (0, 2)])
    comps = g.components()
    assert comps == [frozenset({0, 2}), frozenset({1}), frozenset({3}), frozenset({4, 5})]


def test_forest_and_tree_predicates():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert path.is_tree() and path.is_forest()
    two_paths = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert two_paths.is_forest() and not two_paths.is_tree()
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert not triangle.is_forest()
    assert not Graph(0, frozenset()).is_tree()


def test_leaves_and_pendant_edges():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert star.leaves() == frozenset({1, 2, 3})
    assert star.pendant_edges() == star.edges
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert path.pendant_edges() == frozenset({(0, 1), (2, 3)})


def test_triple_system_rejects_bad_triples():
    with pytest.raises(ValueError):
        TripleSystem(3, frozenset({(0, 1, 3)}))
    with pytest.raises(ValueError):
        TripleSystem.from_edges(4, [(0, 1, 1)])


def test_shadow_example_two_triples_sharing_a_pair():
    h = TripleSystem.from_edges(4, [(0, 1, 2), (0, 1, 3)])
    assert shadow(h).edges == frozenset({(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)})


def test_codegree_counts_and_rejects():
    h = TripleSystem.from_edges(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)])
    assert codegree(h, 0, 1) == 3
    assert codegree(h, 1, 0) == 3
    assert codegree(h, 2, 3) == 1
    assert codegree(h, 0, 4) == 1
    with pytest.raises(ValueError):
        codegree(h, 2, 2)
    with pytest.raises(ValueError):
        codegree(h, 0, 5)


def test_neighborhood_rejects_vertices_out_of_range():
    h = TripleSystem.from_edges(4, [(0, 1, 2)])
    for pair in ((0, 99), (-1, 2)):
        with pytest.raises(ValueError, match="out of range for n=4"):
            neighborhood(h, pair)


def test_neighborhood_third_vertices():
    h = TripleSystem.from_edges(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    assert neighborhood(h, (0, 1)) == frozenset({2, 3})
    assert neighborhood(h, (1, 0)) == frozenset({2, 3})
    assert neighborhood(h, (0, 4)) == frozenset()
    with pytest.raises(ValueError):
        neighborhood(h, (1, 1))


def test_edge_codegree_extremes():
    h = TripleSystem.from_edges(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3)])
    assert edge_codegree_extremes(h, (0, 1, 2)) == (1, 3)
    with pytest.raises(ValueError):
        edge_codegree_extremes(h, (1, 2, 3))


def test_remove_vertices_keeps_vertex_range():
    h = TripleSystem.from_edges(5, [(0, 1, 2), (2, 3, 4), (1, 3, 4)])
    out = remove_vertices(h, [2])
    assert out.n == 5
    assert out.edges == frozenset({(1, 3, 4)})
    with pytest.raises(ValueError):
        remove_vertices(h, [5])


def test_is_linear():
    assert is_linear(TripleSystem.from_edges(6, [(0, 1, 2), (3, 4, 5)]))
    assert not is_linear(TripleSystem.from_edges(4, [(0, 1, 2), (0, 1, 3)]))


def check_codegree_double_count(system):
    # each triple contributes its three vertex pairs once
    total = sum(system.pair_counts.values())
    assert total == 3 * len(system.edges)
    for x, y in combinations(range(system.n), 2):
        direct = sum(1 for e in system.edges if x in e and y in e)
        assert codegree(system, x, y) == direct


def test_codegree_double_counting_random_sweep():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(3, 9)
        m = rng.randint(0, 12)
        check_codegree_double_count(random_system(rng, n, m))


@given(st.integers(3, 7), st.data())
def test_shadow_pairs_exactly_covered_pairs(n, data):
    pool = list(combinations(range(n), 3))
    chosen = data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    h = TripleSystem(n, frozenset(chosen))
    expected = {p for e in h.edges for p in combinations(e, 2)}
    assert shadow(h).edges == frozenset(expected)


def _class_pairs(classes):
    return {pair for cls in classes for pair in combinations(cls, 2)}


def test_twin_classes_match_transposition_oracle():
    rng = random.Random(83)
    for _ in range(150):
        n = rng.randint(1, 8)
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                 if rng.random() < rng.choice((0.2, 0.5, 0.9))])
        assert sorted(v for cls in g.twin_classes for v in cls) == list(range(n))
        assert _class_pairs(g.twin_classes) == brute_twin_pairs(n, g.edges)
        system = random_system(rng, max(n, 3), rng.randint(0, 20))
        assert _class_pairs(system.twin_classes) == brute_twin_pairs(system.n, system.edges)


def test_twin_classes_of_core_construction():
    # every non-core vertex is a twin of every other; core vertices too
    system = TripleSystem.from_edges(
        7, [(c, x, y) for c in (0, 1) for x, y in combinations(range(2, 7), 2)])
    assert system.twin_classes == ((0, 1), (2, 3, 4, 5, 6))
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert path.twin_classes == ((0,), (1,), (2,), (3,))
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert star.twin_classes == ((0,), (1, 2, 3))


# ------------------------------------------------------------ 2-coloring

def test_two_coloring_matches_distance_parity_oracle():
    rng = random.Random(23)
    kinds = {"forest": 0, "bipartite": 0, "odd": 0}
    for _ in range(300):
        n = rng.randint(1, 12)
        pick = rng.random()
        if pick < 0.4:
            graph = random_forest(rng, n)
        elif pick < 0.7:  # random bipartite graph with hidden sides
            side = [rng.randrange(2) for _ in range(n)]
            graph = Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                         if side[u] != side[v] and rng.random() < 0.4])
        else:
            graph = random_graph(rng, n, 0.3)
        want = brute_two_coloring(n, graph.edges)
        if want is None:
            kinds["odd"] += 1
            with pytest.raises(ValueError, match="bipartite"):
                graph.two_coloring()
        else:
            kinds["forest" if graph.is_forest() else "bipartite"] += 1
            assert graph.two_coloring() == want
    assert all(count >= 20 for count in kinds.values())


def test_two_coloring_colors_each_component_from_its_smallest_vertex():
    graph = Graph.from_edges(7, [(4, 1), (1, 6), (5, 3)])
    assert graph.two_coloring() == (0, 0, 0, 0, 1, 1, 1)


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (0, 2)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6)],
])
def test_two_coloring_rejects_odd_cycle(edges):
    with pytest.raises(ValueError, match="bipartite"):
        Graph.from_edges(7, edges).two_coloring()


PATH = Graph(3, frozenset({(0, 1), (1, 2)}))
PATH_PLUS = TripleSystem(5, frozenset({(0, 1, 3), (1, 2, 4)}))

# every value class: its fields in declaration order, and fields its
# validation rejects with the message it gives (None when it validates nothing)
VALUE_CLASSES = [
    (Graph, {"n": 3, "edges": frozenset({(0, 1), (1, 2)})},
     ({"n": 2, "edges": frozenset({(0, 2)})}, "bad edge \\(0, 2\\) for n=2")),
    (TripleSystem, {"n": 5, "edges": frozenset({(0, 1, 3), (1, 2, 4)})},
     ({"n": -1, "edges": frozenset()}, "vertex count must be nonnegative")),
    (Expansion, {"base": PATH, "system": PATH_PLUS, "enlargement": {(0, 1): 3, (1, 2): 4}}, None),
    (CrosscutPair, {"independent": frozenset({1}), "uncovered": frozenset()}, None),
    (EmbeddingCertificate, {"mapping": {0: 2, 1: 0}, "kind": "direct"}, None),
    (TuranResult, {"n": 5, "value": 4, "exact": True, "witness": ((0, 1, 2), (0, 1, 3)),
                   "method": "branch-and-bound", "nodes": 17}, None),
    (GridColoring, {"rows": (0, 1), "cols": (2,), "colors": {(0, 2): 5, (1, 2): 6}},
     ({"rows": (0, 1), "cols": (1, 2), "colors": {}}, "grid sides must be disjoint")),
    (ListAssignment, {"rows": (0,), "cols": (1,), "lists": {(0, 1): frozenset({2})}}, None),
    (Multicoloring, {"colorings": ({(0, 1): 2}, {(0, 1): 3})}, None),
    (StructuredSearch, {"status": "absent", "rows": None, "cols": None, "result": None,
                        "labels": None, "nodes": 3}, None),
    (SetFamily, {"sets": (frozenset({1, 2}), frozenset({3}))}, None),
    (Sunflower, {"petals": (0, 2), "core": frozenset({1})}, None),
    (AugmentedFamily, {"pairs": ((frozenset({1}), 2), (frozenset({3}), 4))}, None),
]


@pytest.mark.parametrize("cls, fields, invalid", VALUE_CLASSES,
                         ids=[row[0].__name__ for row in VALUE_CLASSES])
def test_value_classes_are_frozen_records(cls, fields, invalid):
    by_keyword = cls(**fields)
    positional = cls(*fields.values())
    reordered = cls(**dict(reversed(fields.items())))
    assert by_keyword == positional == reordered and by_keyword is not positional
    assert by_keyword != tuple(fields.values())
    assert all(getattr(by_keyword, name) == value for name, value in fields.items())
    if cls is TuranResult:
        assert list(reordered.as_dict()) == list(fields)
    try:
        hash(tuple(fields.values()))
    except TypeError:
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(positional)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, None)
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)
    assert repr(by_keyword) == (f"{cls.__name__}("
                                + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")")
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    if invalid is not None:
        bad, message = invalid
        with pytest.raises(ValueError, match=message):
            cls(**bad)
    cached = [name for name, attr in vars(cls).items() if isinstance(attr, cached_property)]
    assert bool(cached) == (cls in (Graph, TripleSystem))
    for name in cached:
        assert getattr(by_keyword, name) is getattr(by_keyword, name)
        assert name in vars(by_keyword)
    assert by_keyword == positional  # a cached value is not a field


def test_budget_rejects_negative_values_and_accepts_zero():
    for kwargs in ({"budget_ms": -5}, {"budget_nodes": -1}, {"budget_ms": -1, "budget_nodes": 3}):
        with pytest.raises(ValueError, match="must be nonnegative"):
            Budget(**kwargs)
    budget = Budget(budget_ms=0, budget_nodes=0)  # 0 stops at the first node
    with pytest.raises(BudgetExhausted):
        budget.spend()
    assert budget.nodes == 1
