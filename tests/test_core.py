import random
import re
from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from expansions import (AugmentedFamily, CrosscutPair, EmbeddingCertificate, Expansion, Graph,
                        GridColoring, ListAssignment, Multicoloring, SetFamily,
                        StructuredSearch, Sunflower, TripleSystem, TuranResult,
                        build_list_assignment, canonical_edge, canonical_triple, codegree,
                        find_biclique_avoiding_lists, neighborhood, shadow)
from expansions.core import Budget, BudgetExhausted, Record, _walk
from expansions.search import _host_masks

from helpers import (brute_components, brute_is_forest, brute_smaller_twins, brute_two_coloring,
                     pair_counts, random_forest, random_graph, random_system)


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
    nbrs = g.neighbours()
    assert sorted(nbrs[1]) == [0, 2, 3] and nbrs[0] == [1] == nbrs[2] == nbrs[3]
    assert [len(nb) for nb in nbrs] == [1, 3, 1, 1]
    assert g.neighbours() == nbrs and g.neighbours() is not nbrs  # built afresh, not cached
    assert list(vars(g)) == ["n", "edges"]
    assert g.sorted_edges() == [(0, 1), (1, 2), (1, 3)]


def test_graph_components_ordered_by_smallest_member():
    g = Graph.from_edges(6, [(4, 5), (0, 2)])
    comps, _, proper = _walk(g.neighbours())
    assert comps == [frozenset({0, 2}), frozenset({1}), frozenset({3}), frozenset({4, 5})]
    assert comps == brute_components(g.n, g.edges) and proper


def test_forest_and_tree_predicates():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert path.is_tree()
    two_paths = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not two_paths.is_tree()
    triangle_and_vertex = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])  # n - 1 edges
    assert not triangle_and_vertex.is_tree()
    assert not Graph(0, frozenset()).is_tree()


# one defect a row, for both containers: n, a graph's edges, a triple
# system's edges, and the message, {noun} being "edge" or "triple"
REJECTED = {
    "negative n": (-1, [], [], "vertex count must be nonnegative"),
    "too many vertices": (4, [(0, 1, 2)], [(0, 1, 2, 3)], "bad {noun} {edge} for n=4"),
    "too few vertices": (4, [(0,)], [(0, 1)], "bad {noun} {edge} for n=4"),
    "no vertices": (4, [()], [()], "bad {noun} () for n=4"),
    "unsorted first pair": (4, [(2, 1)], [(1, 0, 2)], "bad {noun} {edge} for n=4"),
    "unsorted last pair": (4, [(3, 0)], [(0, 2, 1)], "bad {noun} {edge} for n=4"),
    "repeated vertex": (4, [(1, 1)], [(0, 1, 1)], "bad {noun} {edge} for n=4"),
    "repeated first vertex": (4, [(0, 0)], [(2, 2, 3)], "bad {noun} {edge} for n=4"),
    "out of range": (4, [(0, 4)], [(0, 1, 4)], "bad {noun} {edge} for n=4"),
    "negative vertex": (4, [(-1, 2)], [(-1, 0, 1)], "bad {noun} {edge} for n=4"),
}


@pytest.mark.parametrize("defect", sorted(REJECTED))
@pytest.mark.parametrize("cls, noun", [(Graph, "edge"), (TripleSystem, "triple")])
def test_both_containers_reject_the_same_inputs(cls, noun, defect):
    n, graph_edges, triples, message = REJECTED[defect]
    edges = graph_edges if cls is Graph else triples
    text = message.format(noun=noun, edge=edges[0] if edges else None)
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        cls(n, frozenset(edges))


def test_from_edges_builds_its_own_class_also_once_rewrapped(monkeypatch):
    # a tracer rebinds each class's from_edges as a staticmethod of the
    # bound method, one class after the other
    cases = [(Graph, [(1, 0), (2, 1)]), (TripleSystem, [(2, 0, 1)])]
    built = [cls.from_edges(3, edges) for cls, edges in cases]
    assert [type(b) for b in built] == [Graph, TripleSystem]
    for cls, _ in cases:
        monkeypatch.setattr(cls, "from_edges", staticmethod(cls.from_edges))
        assert [c.from_edges(3, edges) for c, edges in cases] == built


def test_hosts_keep_one_pair_table():
    # every reader of a host's pairs goes through pair_neighborhoods, the
    # only table cached on it; pair_counts is derived on each read
    host = TripleSystem.from_edges(8, [(0, 2, 4), (0, 3, 5), (1, 2, 6), (1, 3, 7)])
    grid = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    lists = {e: frozenset({4, 5}) for e in grid.edges}
    build_list_assignment(host, (0, 1), (2, 3))
    find_biclique_avoiding_lists(grid, lists, 1, host)
    assert (codegree(host, 0, 2), shadow(host).n) == (1, 8)
    assert list(vars(host)) == ["n", "edges", "pair_neighborhoods"]
    assert host.pair_counts == pair_counts(host)
    assert list(vars(host)) == ["n", "edges", "pair_neighborhoods"]


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
    # a repeated vertex, or a third one, is not a pair
    for pair in ((1, 1), (0, 1, 1), (0, 1, 2)):
        with pytest.raises(ValueError, match=re.escape(f"expected two distinct vertices, got {pair}")):
            neighborhood(h, pair)


def check_codegree_double_count(system):
    # each triple contributes its three vertex pairs once
    counts = pair_counts(system)
    total = sum(counts.values())
    assert total == 3 * len(system.edges)
    for x, y in combinations(range(system.n), 2):
        direct = sum(1 for e in system.edges if x in e and y in e)
        assert codegree(system, x, y) == direct == counts[(x, y)]


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


def test_twin_classes_match_transposition_oracle():
    rng = random.Random(83)
    for _ in range(150):
        n = rng.randint(1, 8)
        for _ in combinations(range(n), 2):  # draws that keep the seed's triple systems
            rng.random(), rng.choice((0.2, 0.5, 0.9))
        system = random_system(rng, max(n, 3), rng.randint(0, 20))
        smaller = brute_smaller_twins(system.n, system.edges)  # each need bit is the largest
        assert _host_masks(system)[2] == [1 << smaller[v] if v in smaller else 0
                                          for v in range(system.n)]


def test_twin_classes_of_core_construction():
    # every non-core vertex is a twin of every other; core vertices too:
    # the chains 0 <- 1 and 2 <- 3 <- 4 <- 5 <- 6
    system = TripleSystem.from_edges(
        7, [(c, x, y) for c in (0, 1) for x, y in combinations(range(2, 7), 2)])
    assert _host_masks(system)[2] == [0, 1 << 0, 0, 1 << 2, 1 << 3, 1 << 4, 1 << 5]


# ------------------------------------------------------------ 2-coloring

def test_two_coloring_matches_distance_parity_oracle():
    # one walk gives the components, the sides and whether they are proper
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
        comps, color, proper = _walk(graph.neighbours())
        assert comps == brute_components(n, graph.edges)
        want = brute_two_coloring(n, graph.edges)
        assert proper == (want is not None)
        if want is None:
            kinds["odd"] += 1
        else:
            kinds["forest" if brute_is_forest(graph) else "bipartite"] += 1
            assert color == want
    assert all(count >= 20 for count in kinds.values())


def test_two_coloring_colors_each_component_from_its_smallest_vertex():
    graph = Graph.from_edges(7, [(4, 1), (1, 6), (5, 3)])
    assert _walk(graph.neighbours())[1] == (0, 0, 0, 0, 1, 1, 1)


PATH_PLUS = TripleSystem(5, frozenset({(0, 1, 3), (1, 2, 4)}))

# every value class: its fields in declaration order, and fields its
# validation rejects with the message it gives (None when it validates nothing)
VALUE_CLASSES = [
    (Graph, {"n": 3, "edges": frozenset({(0, 1), (1, 2)})},
     ({"n": 2, "edges": frozenset({(0, 2)})}, "bad edge \\(0, 2\\) for n=2")),
    (TripleSystem, {"n": 5, "edges": frozenset({(0, 1, 3), (1, 2, 4)})},
     ({"n": -1, "edges": frozenset()}, "vertex count must be nonnegative")),
    (Expansion, {"system": PATH_PLUS, "enlargement": {(0, 1): 3, (1, 2): 4}}, None),
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
    # Record.__init__ builds every record, and refuses a field given by
    # position and again by keyword with its own message
    first = next(iter(fields))
    with pytest.raises(TypeError, match=f"^{cls.__name__}\\(\\) takes the fields "):
        cls(*fields.values(), **{first: fields[first]})
    own_bodies = cls.__mro__[:cls.__mro__.index(Record)]  # _EdgeSet's too, for the containers
    assert not [base for base in own_bodies if "__init__" in vars(base)]
    if invalid is not None:
        bad, message = invalid
        with pytest.raises(ValueError, match=message):
            cls(**bad)
    cached = [name for name, attr in vars(cls).items() if isinstance(attr, cached_property)]
    assert bool(cached) == (cls is TripleSystem)
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


@pytest.mark.parametrize("budget_ms", [None, 0, 10 ** 9])
@pytest.mark.parametrize("budget_nodes", [None, 0, 5000])
def test_budget_check_returns_the_next_count_to_check_as_an_int(monkeypatch, budget_ms,
                                                                budget_nodes):
    # the next multiple of 1,024, or the cap + 1 if that comes first, in
    # every mode; a deadline that never passes lets each count through
    monkeypatch.setattr(Budget, "expired", lambda budget: False)
    budget = Budget(budget_ms, budget_nodes)
    last = 6000 if budget_nodes is None else budget_nodes
    nodes, seen = 0, []
    while nodes <= last:
        due = budget.check(nodes)
        assert type(due) is int
        assert budget.nodes == nodes
        seen.append(due)
        nodes = due
    steps = list(range(1024, last + 1024, 1024))
    assert seen == (steps if budget_nodes is None else steps[:-1] + [budget_nodes + 1])
    if budget_nodes is not None:
        with pytest.raises(BudgetExhausted):
            budget.check(nodes)


@pytest.mark.parametrize("done, step", [(1, 1), (1023, 1), (1024, 1), (1025, 1), (3072, 1),
                                        (1033, 10), (1034, 10), (900, 900), (2048, 900),
                                        (5000, 2000)])
def test_budget_tick_reads_the_deadline_when_a_step_passes_a_multiple_of_1024(done, step):
    # a step above 1,024 may pass two multiples and still reads only once
    passed = any(done - step < m <= done for m in range(1024, done + 1, 1024))
    reads = []
    budget = Budget(budget_ms=0)
    budget.expired = lambda: reads.append(done) or True
    if passed:
        with pytest.raises(BudgetExhausted):
            budget.tick(done, step)
    else:
        budget.tick(done, step)
    assert len(reads) == passed
    Budget().tick(done, step)  # no deadline: never stops
    Budget(budget_ms=10 ** 9).tick(done, step)  # one not yet passed: neither
