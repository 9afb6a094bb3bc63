import random
import tracemalloc

import pytest

from expansions import (CrosscutPair, Graph, audit_forest_bound, audit_sigma_jump,
                        best_crosscut_pair, complete_forest_to_tree, crosscut_audit,
                        crosscut_number, expand, forest_lambda, min_crosscut,
                        tree_crosscut_number, tree_lambda, trees)

from helpers import (branching_pair, brute_components, brute_is_forest, brute_is_tree,
                     brute_lambda_tree, brute_min_crosscut, brute_optimal_pairs, brute_sigma,
                     random_forest, random_graph)


LONG_PATH = Graph.from_edges(1200, [(i, i + 1) for i in range(1199)])
LONG_CYCLE = Graph(1200, LONG_PATH.edges | {(0, 1199)})
# vertex 7r + c is row r, column c; the odd vertices are one colour class
GRID7 = Graph.from_edges(49, [(v, v + 1) for v in range(49) if v % 7 < 6]
                         + [(v, v + 7) for v in range(42)])


def relabeled(rng: random.Random, graph: Graph, extra: int = 0) -> Graph:
    """The graph under a random vertex permutation, with `extra` isolated
    vertices mixed in among the labels."""
    n = graph.n + extra
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in graph.edges])


def mixed_forest(rng: random.Random) -> tuple[Graph, list[set[int]]]:
    """A relabeled forest on 10-30 vertices with its components: random
    trees, evenly split trees (even paths and balanced double stars) and
    isolated vertices, so that a component's smallest vertex is often not
    the root a peel gives it."""
    pieces: list[list[tuple[int, int]]] = []  # each piece's edges on range(size)
    sizes: list[int] = []
    target = rng.randint(10, 30)
    while sum(sizes) < target:
        kind, size = rng.randrange(4), rng.randint(1, 8)
        if kind == 0:  # a path on an even number of vertices
            size += size % 2
            edges = [(v, v + 1) for v in range(size - 1)]
        elif kind == 1:  # two adjacent centres with k leaves each
            k = rng.randint(0, 3)
            size = 2 * k + 2
            edges = [(0, 1)] + [(i % 2, i) for i in range(2, size)]
        elif kind == 2:
            edges = [(rng.randrange(v), v) for v in range(1, size)]
        else:
            size, edges = 1, []
        pieces.append(edges)
        sizes.append(size)
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, comps, offset = [], [], 0
    for piece, size in zip(pieces, sizes):
        edges += [(perm[offset + u], perm[offset + v]) for u, v in piece]
        comps.append({perm[offset + v] for v in range(size)})
        offset += size
    return Graph.from_edges(n, edges), comps


# ------------------------------------------------------------- expansion

def test_expand_assigns_enlargement_vertices_in_sorted_edge_order():
    g = Graph.from_edges(3, [(1, 2), (0, 1)])
    exp = expand(g)
    assert exp.system.n == 5
    assert exp.enlargement == {(0, 1): 3, (1, 2): 4}
    assert exp.system.edges == frozenset({(0, 1, 3), (1, 2, 4)})


def test_expand_empty_graph():
    exp = expand(Graph(4, frozenset()))
    assert exp.system.n == 4
    assert exp.system.edges == frozenset()


# ------------------------------------------------------------- crosscuts

def test_min_crosscut_single_triple():
    from expansions import TripleSystem
    h = TripleSystem.from_edges(3, [(0, 1, 2)])
    assert min_crosscut(h) == (1, frozenset({0}))


def test_min_crosscut_can_be_absent():
    from expansions import TripleSystem
    # three triples pairwise sharing two vertices on four points: any vertex
    # choice hits some triple twice
    h = TripleSystem.from_edges(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    found = min_crosscut(h)
    assert found == brute_min_crosscut(h)


def test_min_crosscut_matches_brute_force_sweep():
    from helpers import random_system
    rng = random.Random(11)
    for _ in range(80):
        h = random_system(rng, rng.randint(3, 8), rng.randint(1, 8))
        got = min_crosscut(h)
        want = brute_min_crosscut(h)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == want[0]
            # returned witness must itself be a crosscut
            assert all(len(got[1].intersection(e)) == 1 for e in h.edges)


# (n, triples, (size, sorted witness) or None), recorded from the recursive
# search that the loop replaced: the first witness found at the minimum size
RECORDED_MIN_CROSSCUTS = [
    (11, [(1, 2, 9), (1, 4, 7), (1, 5, 7), (1, 7, 10), (2, 7, 9), (4, 6, 8), (5, 6, 10)], None),
    (11, [(1, 3, 6), (1, 8, 10), (2, 3, 7), (2, 8, 9), (4, 5, 8), (4, 5, 10), (4, 7, 8),
          (6, 7, 10)], (4, [1, 5, 7, 9])),
    (8, [(0, 2, 6), (0, 3, 6), (1, 3, 7), (1, 5, 7), (2, 4, 6), (2, 5, 7), (2, 6, 7), (3, 4, 5),
         (3, 4, 7), (3, 5, 6), (4, 6, 7)], None),
    (11, [(0, 5, 7), (0, 6, 7), (2, 4, 6), (2, 8, 9), (3, 5, 10), (6, 9, 10)], (3, [0, 2, 10])),
    (10, [(0, 4, 9), (1, 2, 7), (1, 2, 8), (1, 2, 9), (1, 3, 5), (1, 4, 9), (1, 5, 6), (2, 4, 7),
          (4, 5, 7)], (5, [3, 6, 7, 8, 9])),
    (9, [(0, 3, 7), (0, 4, 8), (1, 4, 8), (1, 5, 6), (2, 3, 4), (2, 5, 7), (4, 7, 8), (5, 6, 7)],
     (3, [3, 5, 8])),
    (9, [(0, 2, 5), (0, 6, 7), (1, 2, 5), (1, 2, 8), (1, 3, 6), (1, 3, 8), (2, 3, 8), (2, 4, 6),
         (2, 5, 7), (2, 6, 7), (3, 4, 8), (4, 6, 7)], (3, [5, 6, 8])),
    (10, [(0, 2, 7), (0, 3, 6), (0, 6, 9), (1, 8, 9), (2, 3, 7), (2, 4, 7), (2, 8, 9), (3, 5, 9)],
     (4, [1, 2, 5, 6])),
    (9, [(0, 1, 7), (0, 5, 6), (1, 2, 3), (1, 4, 6), (1, 5, 8), (2, 3, 4), (3, 4, 6)],
     (4, [2, 6, 7, 8])),
    (12, [(0, 1, 9), (3, 5, 6), (3, 6, 10), (3, 7, 8), (3, 9, 10), (6, 9, 10)], (4, [0, 5, 7, 10])),
    # recorded from the search that undid each choice through a log, before
    # it searched over saved mask states
    (14, [(0, 5, 11), (0, 8, 11), (0, 8, 12), (0, 10, 12), (1, 5, 11), (1, 11, 13), (3, 5, 13),
          (3, 6, 13), (4, 5, 9), (4, 7, 10), (5, 9, 10), (6, 8, 13), (6, 9, 11), (10, 12, 13)],
     None),
    (10, [(0, 1, 8), (0, 1, 9), (0, 4, 6), (0, 4, 9), (0, 5, 8), (1, 2, 6), (1, 5, 9), (2, 3, 6),
          (2, 4, 6), (2, 6, 9), (3, 5, 7), (3, 6, 7), (4, 5, 9), (5, 7, 8)], None),
    (14, [(0, 5, 6), (0, 10, 11), (1, 2, 9), (3, 5, 8), (3, 5, 9), (3, 6, 13), (3, 7, 8),
          (4, 9, 13)], (4, [0, 1, 3, 4])),
    (12, [(0, 1, 9), (0, 7, 8), (2, 3, 6), (2, 3, 10), (2, 4, 10), (2, 7, 11), (4, 5, 10),
          (4, 6, 11), (6, 7, 8)], (4, [1, 3, 4, 7])),
    (12, [(0, 1, 10), (0, 2, 9), (0, 6, 10), (1, 6, 11), (2, 7, 8), (3, 4, 8), (3, 5, 6),
          (4, 5, 6), (4, 5, 9), (4, 5, 10), (5, 6, 9)], (4, [0, 5, 8, 11])),
    (13, [(0, 7, 8), (0, 8, 10), (1, 4, 10), (1, 5, 8), (1, 7, 12), (1, 8, 10), (2, 9, 12),
          (3, 9, 12), (4, 6, 8), (7, 8, 12), (7, 11, 12)], (5, [5, 6, 7, 9, 10])),
    (14, [(0, 6, 10), (0, 6, 12), (1, 3, 6), (1, 7, 10), (1, 8, 9), (2, 6, 7), (3, 5, 7),
          (3, 6, 11), (3, 8, 13), (4, 9, 13), (5, 7, 10), (5, 12, 13), (8, 10, 11)],
     (5, [2, 3, 9, 10, 12])),
    (13, [(0, 1, 3), (0, 10, 12), (2, 5, 9), (2, 8, 12), (3, 5, 8), (3, 6, 10), (3, 7, 9),
          (3, 11, 12), (4, 6, 10), (4, 6, 12), (4, 7, 9), (5, 8, 12)], (5, [0, 6, 8, 9, 11])),
    (14, [(0, 2, 8), (0, 2, 11), (0, 3, 4), (0, 3, 9), (1, 11, 12), (2, 4, 11), (2, 4, 12),
          (2, 5, 6), (2, 9, 11), (3, 4, 9), (3, 8, 13), (3, 9, 13), (6, 9, 13)], None),
    (11, [(0, 1, 4), (0, 3, 4), (0, 3, 6), (0, 7, 8), (0, 8, 9), (1, 3, 10), (2, 5, 8), (3, 5, 8),
          (7, 8, 10)], (3, [0, 5, 10])),
]


@pytest.mark.parametrize("n, triples, want", RECORDED_MIN_CROSSCUTS)
def test_min_crosscut_witnesses_recorded_from_recursion(n, triples, want):
    from expansions import TripleSystem
    got = min_crosscut(TripleSystem.from_edges(n, triples))
    assert (None if got is None else (got[0], sorted(got[1]))) == want


def test_min_crosscut_beyond_the_recursion_limit():
    from expansions import TripleSystem
    k = 1100
    h = TripleSystem.from_edges(3 * k, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)])
    assert min_crosscut(h) == (k, frozenset(3 * i for i in range(k)))


def test_min_crosscut_union_find_halves_its_paths():
    from expansions import TripleSystem
    # in the book with pages (i, k, k + 1), page i becomes the parent of the
    # root of pages 0..i-1, so k sits at the foot of a chain of i links:
    # walked whole for every page, that took 0.2 s at k = 2,000 and 2.6 s at
    # 8,000, quadratic in k, where the halved walks take 0.02 s
    k = 2000
    h = TripleSystem.from_edges(k + 2, [(i, k, k + 1) for i in range(k)])
    assert min_crosscut(h) == (1, frozenset({k}))


def test_min_crosscut_solves_each_component_alone():
    from expansions import TripleSystem
    from helpers import random_system
    # 3,000 disjoint triples, 3,000 components: solved alone, each is one
    # state and one choice (0.02 s), where the search over the whole system
    # rebuilt its disjoint-edge bound at every state (about 5 s)
    k = 3000
    h = TripleSystem.from_edges(3 * k, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)])
    assert min_crosscut(h) == (k, frozenset(3 * i for i in range(k)))
    # the size adds and the witness is the union of the components' first
    # ones; one component with no crosscut leaves the system without one
    rng = random.Random(17)
    for _ in range(40):
        a = random_system(rng, rng.randint(3, 7), rng.randint(1, 6))
        b = random_system(rng, rng.randint(3, 7), rng.randint(1, 6))
        both = TripleSystem(a.n + b.n, a.edges | {tuple(a.n + v for v in e) for e in b.edges})
        parts = [brute_min_crosscut(a), brute_min_crosscut(b)]
        got = min_crosscut(both)
        if None in parts:
            assert got is None
        else:
            assert got[0] == parts[0][0] + parts[1][0]
            assert got[1] == min_crosscut(a)[1] | {a.n + v for v in min_crosscut(b)[1]}


def test_pair_weight_formula_matches_hypergraph_search_on_random_graphs():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), 0.45)
        exp = expand(g)
        found = min_crosscut(exp.system)
        assert found is not None
        assert found[0] == best_crosscut_pair(g).weight


def test_crosscut_pair_of_validates_independence():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        CrosscutPair.of(g, [0, 1])
    pair = CrosscutPair.of(g, [0])
    assert pair.uncovered == frozenset()
    assert pair.weight == 1
    # a dependent set is refused on the first edge inside it, in the order of
    # graph.edges; otherwise R is every edge that misses the set
    rng = random.Random(29)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.2, 0.5, 0.8]))
        chosen = frozenset(v for v in range(g.n) if rng.random() < 0.4)
        inside = [e for e in g.edges if e[0] in chosen and e[1] in chosen]
        if inside:
            with pytest.raises(ValueError) as info:
                CrosscutPair.of(g, chosen)
            assert type(info.value) is ValueError
            assert str(info.value) == f"set is not independent: contains edge {inside[0]}"
            continue
        pair = CrosscutPair.of(g, iter(sorted(chosen)))
        assert pair.independent == chosen
        assert pair.uncovered == frozenset(e for e in g.edges if not chosen.intersection(e))


def test_crosscut_pair_renders_its_sigma_report():
    pair = CrosscutPair(frozenset({5, 2}), frozenset({(3, 4), (0, 1)}))
    assert pair.as_dict() == {"sigma": 4, "I": [2, 5], "R": [[0, 1], [3, 4]]}
    # the audit extends the same report, its own keys after it
    report = crosscut_audit(Graph.from_edges(8, BROOM_EDGES))
    assert list(report) == ["sigma", "I", "R", "lambda", "checks"]
    assert (report["sigma"], report["I"], report["R"]) == (3, [2, 5], [[0, 1]])


def test_best_pair_weight_matches_subset_oracle():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
        assert best_crosscut_pair(g).weight == brute_sigma(g)


def test_best_pair_tie_breaks_max_independent_then_lex():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), 0.4)
        pair = best_crosscut_pair(g)
        sigma, optima = brute_optimal_pairs(g)
        assert pair.weight == sigma
        assert pair.independent in optima
        biggest = max(len(s) for s in optima)
        assert len(pair.independent) == biggest
        lex_best = min((tuple(sorted(s)) for s in optima if len(s) == biggest))
        assert tuple(sorted(pair.independent)) == lex_best


def test_forest_pair_tie_breaks_on_relabeled_forests_with_isolated_vertices():
    rng = random.Random(41)
    for _ in range(150):
        forest = relabeled(rng, random_forest(rng, rng.randint(1, 7)), rng.randint(0, 2))
        assert brute_is_forest(forest)
        pair = best_crosscut_pair(forest)
        sigma, optima = brute_optimal_pairs(forest)
        assert pair.weight == sigma
        biggest = max(len(s) for s in optima)
        lex_best = min(tuple(sorted(s)) for s in optima if len(s) == biggest)
        assert tuple(sorted(pair.independent)) == lex_best


def test_forest_pair_equals_branching_on_all_small_trees():
    rng = random.Random(43)
    for n in range(1, 10):
        for tree in trees(n):
            for graph in (tree, relabeled(rng, tree)):
                assert best_crosscut_pair(graph) == branching_pair(graph)


def test_forest_pair_equals_branching_on_random_forests():
    rng = random.Random(47)
    for _ in range(400):
        forest = relabeled(rng, random_forest(rng, rng.randint(1, 12)), rng.randint(0, 2))
        assert best_crosscut_pair(forest) == branching_pair(forest)
    # graphs with cycles: a spanning tree plus a few chords, or dense
    cyclic = 0
    while cyclic < 400:
        n = rng.randint(3, 14)
        if cyclic % 2:
            graph = random_graph(rng, n, 0.8)
        else:
            chords = [rng.sample(range(n), 2) for _ in range(rng.randint(1, 4))]
            graph = Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)] + chords)
        if brute_is_forest(graph):
            continue
        graph = relabeled(rng, graph)
        assert best_crosscut_pair(graph) == branching_pair(graph)
        cyclic += 1


def test_cyclic_pair_equals_branching_past_the_subset_oracles_size():
    # sparse cyclic graphs like the benchmark's: a tree on 9-12 vertices plus
    # 2-6 chords leaves a feedback set F of 1-3 vertices (3 on 10 of these
    # graphs), so the pass over the independent subsets of F and their summed
    # costs meet graphs past the brute-force oracles' size (n <= 8)
    rng = random.Random(53)
    for i in range(150):
        n = rng.randint(9, 12)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        target = len(edges) + rng.randint(2, 6)
        while len(edges) < target:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        graph = Graph.from_edges(n, sorted(edges))
        if i % 3:  # relabeled, every other time with 1-2 isolated vertices
            graph = relabeled(rng, graph, rng.randint(1, 2) if i % 3 == 2 else 0)
        assert best_crosscut_pair(graph) == branching_pair(graph)


def test_tree_scan_agrees_with_branching_on_all_small_trees():
    for n in range(1, 10):
        for tree in trees(n):
            assert tree_crosscut_number(tree) == branching_pair(tree).weight


def test_tree_scan_rejects_non_trees():
    with pytest.raises(ValueError):
        tree_crosscut_number(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_known_sigma_values():
    assert tree_crosscut_number(Graph(1, frozenset())) == 0
    # single edge: one endpoint covers the only triple
    assert crosscut_number(Graph.from_edges(2, [(0, 1)])) == 1
    # stars: the center alone is a crosscut
    for k in (2, 3, 4, 5):
        star = Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])
        assert crosscut_number(star) == 1
    # path with 4 edges: both inner non-adjacent vertices
    assert crosscut_number(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])) == 2


# ---------------------------------------------------------------- lambda

def test_lambda_three_leaf_star_is_one():
    # smaller part is the center alone; it is not a leaf, but a one-vertex
    # part of a star with 3 leaves has no leaf only when n > 2; definition
    # gives |P| = 1 with no discount only if P misses the leaves
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert tree_lambda(star) == brute_lambda_tree(star, range(4)) == 1


def test_lambda_paths():
    # even path: parts 2/2, both ends are leaves
    p3 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert tree_lambda(p3) == 1
    # path with 4 edges: parts 3/2, smaller part {1,3} has no leaf
    p4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert tree_lambda(p4) == 2
    assert tree_lambda(Graph.from_edges(2, [(0, 1)])) == 0
    # one vertex is a tree, the only one without an edge
    assert tree_lambda(Graph(1, frozenset())) == 0


def test_lambda_matches_definition_oracle_on_all_small_trees():
    for n in range(2, 10):
        for tree in trees(n):
            assert tree_lambda(tree) == brute_lambda_tree(tree, range(n))


def test_forest_lambda_sums_components_and_skips_isolated_vertices():
    # star on {0..3} plus an edge {4,5} plus isolated 6
    forest = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5)])
    assert forest_lambda(forest) == 1 + 0
    assert forest_lambda(Graph(3, frozenset())) == 0
    with pytest.raises(ValueError):
        forest_lambda(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))


def test_forest_lambda_additive_over_random_forests():
    rng = random.Random(23)
    for _ in range(40):
        f = random_forest(rng, rng.randint(2, 9))
        per_component = sum(
            brute_lambda_tree(f, comp) for comp in brute_components(f.n, f.edges)
            if len(comp) > 1)
        assert forest_lambda(f) == per_component
    # relabeled forests on 10-30 vertices, with components known by construction
    for _ in range(200):
        f, comps = mixed_forest(rng)
        per_component = sum(brute_lambda_tree(f, comp) for comp in comps if len(comp) > 1)
        assert forest_lambda(f) == per_component


# ------------------------------------------------------------ completion

def test_completion_joins_components_and_preserves_sigma():
    forest = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    tree = complete_forest_to_tree(forest)
    assert brute_is_tree(tree)
    assert forest.edges <= tree.edges
    assert crosscut_number(tree) == crosscut_number(forest)
    # trees by smallest member, each joined from its least vertex outside I
    # into the next one's least vertex of I, then the isolated 6 to min I = 1;
    # recorded from the completion that walked the forest for its components
    forest = Graph.from_edges(11, [(0, 7), (7, 3), (1, 5), (9, 2), (9, 4), (4, 8), (10, 2)])
    assert complete_forest_to_tree(forest).edges - forest.edges == {(0, 1), (2, 5), (1, 6)}


def test_completion_attaches_isolated_vertices():
    forest = Graph.from_edges(5, [(0, 1)])
    tree = complete_forest_to_tree(forest)
    assert brute_is_tree(tree)
    assert crosscut_number(tree) == crosscut_number(forest) == 1


def test_completion_leaves_trees_alone():
    tree = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert complete_forest_to_tree(tree) is tree
    single = Graph(1, frozenset())
    assert complete_forest_to_tree(single) is single
    empty = Graph(0, frozenset())
    assert complete_forest_to_tree(empty) is empty


def test_long_path_pair_completion_and_audit():
    # one vertex per recursion level used to exceed the recursion limit,
    # on the path and on the cycle
    pair = best_crosscut_pair(LONG_PATH)
    assert pair.weight == tree_crosscut_number(LONG_PATH) == 600
    report = crosscut_audit(LONG_PATH)
    assert report["sigma"] == 600
    assert all(c["pass"] for c in report["checks"])
    padded = Graph(LONG_PATH.n + 3, LONG_PATH.edges)
    tree = complete_forest_to_tree(padded)
    assert brute_is_tree(tree) and padded.edges <= tree.edges
    assert crosscut_number(tree) == 600
    # the alternating set covers every edge; on the cycle evens are
    # lex-smaller than odds, on the 7x7 grid (49 vertices, past the oracle's
    # size) the 24 odd vertices are the smaller class
    for graph, independent in ((LONG_CYCLE, range(0, 1200, 2)), (GRID7, range(1, 49, 2))):
        assert best_crosscut_pair(graph) == CrosscutPair(frozenset(independent), frozenset())


def test_pair_memory_is_linear_on_a_long_path():
    # the DP keeps O(n) words and the costs waiting at parents; a table of
    # n-bit costs per vertex would take O(n^2) bits, about 170 MB here
    path = Graph.from_edges(20000, [(i, i + 1) for i in range(19999)])
    tracemalloc.start()
    try:
        pair = best_crosscut_pair(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.weight == 10000
    assert peak < 20_000_000


def test_pair_memory_on_a_random_recursive_tree():
    # a vertex with many children holds their costs waiting in its
    # accumulators; the peak is about 17 MB on Python 3.11, and it is
    # bounded here so that no change can make it worse
    rng = random.Random(0)
    tree = Graph.from_edges(20000, [(rng.randrange(v), v) for v in range(1, 20000)])
    tracemalloc.start()
    try:
        pair = best_crosscut_pair(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.weight == 9235  # recorded from the DP before its costs were rebuilt inline
    assert peak < 20_000_000


def test_completion_rejects_edgeless_forests_on_two_or_more_vertices():
    # an edgeless forest has crosscut number 0; every tree on those
    # vertices has an edge, hence a positive crosscut number
    with pytest.raises(ValueError):
        complete_forest_to_tree(Graph(2, frozenset()))
    with pytest.raises(ValueError):
        complete_forest_to_tree(Graph(5, frozenset()))


def test_completion_rejects_non_forests():
    with pytest.raises(ValueError):
        complete_forest_to_tree(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))


def test_completion_sigma_preserved_random_sweep():
    rng = random.Random(31)
    forests = [random_forest(rng, rng.randint(2, 9)) for _ in range(60)]
    # relabeled forests on 10-30 vertices with evenly split trees and isolated vertices
    forests += [mixed_forest(rng)[0] for _ in range(200)]
    for f in forests:
        if not f.edges:
            continue
        tree = complete_forest_to_tree(f)
        assert brute_is_tree(tree)
        assert f.edges <= tree.edges
        assert crosscut_number(tree) == crosscut_number(f)


# ----------------------------------------------------------------- audit

def test_audit_reports_structure_for_path():
    p4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    report = crosscut_audit(p4)
    assert report["sigma"] == 2
    assert {c["name"] for c in report["checks"]} == {
        "uncovered_edge_count", "no_pendant_uncovered", "uncovered_degree_bound"}
    assert all(c["pass"] for c in report["checks"])


def test_audit_rejects_non_trees_and_edgeless():
    with pytest.raises(ValueError):
        crosscut_audit(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        crosscut_audit(Graph(1, frozenset()))


def test_audit_passes_on_all_small_trees():
    for n in range(2, 9):
        for tree in trees(n):
            report = crosscut_audit(tree)
            assert all(c["pass"] for c in report["checks"]), (n, report)


# a tree whose optimal pair leaves the edge 01 uncovered, so the audit weighs a nonempty R
BROOM_EDGES = [(0, 1), (0, 5), (1, 2), (2, 3), (2, 4), (5, 6), (5, 7)]


def audited_trees(rng: random.Random):
    """About 2,400 trees, each also relabeled: random recursive trees, paths,
    stars, caterpillars, spiders, brooms, spines of stars and BROOM_EDGES."""
    shapes = [Graph.from_edges(8, BROOM_EDGES)]
    for _ in range(900):
        n = rng.randint(2, 40)
        shapes.append(Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)]))
    for k in range(2, 14):
        shapes.append(Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)]))
        shapes.append(Graph.from_edges(k, [(0, i) for i in range(1, k)]))
    for _ in range(80):  # caterpillars: a spine with legs at each spine vertex
        spine = rng.randint(1, 10)
        edges, n = [(i, i + 1) for i in range(spine - 1)], spine
        for i in range(spine):
            for _ in range(rng.randint(0, 3)):
                edges.append((i, n))
                n += 1
        if n > 1:
            shapes.append(Graph.from_edges(n, edges))
    for _ in range(60):  # spiders: legs of given lengths from one centre
        edges, n = [], 1
        for _ in range(rng.randint(1, 6)):
            last = 0
            for _ in range(rng.randint(1, 5)):
                edges.append((last, n))
                last, n = n, n + 1
        shapes.append(Graph.from_edges(n, edges))
    for _ in range(40):  # brooms: a handle path ending in a star
        handle, bristles = rng.randint(1, 10), rng.randint(1, 8)
        edges = [(i, i + 1) for i in range(handle)]
        edges += [(handle, handle + 1 + j) for j in range(bristles)]
        shapes.append(Graph.from_edges(handle + 1 + bristles, edges))
    for _ in range(100):  # a random spine, each vertex hung with its own star: R is much of the spine
        spine = rng.randint(2, 12)
        edges, n = [(rng.randrange(v), v) for v in range(1, spine)], spine
        for v in range(spine):
            centre, n = n, n + 1
            edges.append((v, centre))
            for _ in range(rng.randint(1, 4)):
                edges.append((centre, n))
                n += 1
        shapes.append(Graph.from_edges(n, edges))
    for tree in shapes:
        yield tree
        yield relabeled(rng, tree)


def test_audit_lambda_matches_the_uncovered_forest_on_seeded_trees():
    # the audit reads lambda of R from the tree's own peel; the oracles are
    # forest_lambda on R built as a graph, and the definition summed over R's
    # components
    rng = random.Random(31)
    count = nonempty = positive = 0
    for tree in audited_trees(rng):
        if tree.n < 2:
            continue
        report = crosscut_audit(tree)
        uncovered = Graph.from_edges(tree.n, report["R"])
        oracle = sum(brute_lambda_tree(uncovered, comp)
                     for comp in brute_components(uncovered.n, uncovered.edges) if len(comp) > 1)
        assert report["lambda"] == forest_lambda(uncovered) == oracle, sorted(tree.edges)
        count += 1
        nonempty += bool(report["R"])
        positive += report["lambda"] > 0
    assert count >= 2000 and nonempty >= 400 and positive >= 80, (count, nonempty, positive)


# ------------------------------------------------------- graph contents

P4_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4)]  # a tree with crosscut number 2
FOREST_EDGES = [(0, 1), (1, 2), (4, 5)]  # on 7 vertices: two paths and two isolated vertices
C4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]


def audit_forest_bound_to_6(graph):
    return audit_forest_bound(graph, [5, 6])


@pytest.mark.parametrize("routine, n, edges", [
    (best_crosscut_pair, 4, C4_EDGES),
    (crosscut_number, 7, FOREST_EDGES),
    (tree_crosscut_number, 5, P4_EDGES),
    (forest_lambda, 7, FOREST_EDGES),
    (tree_lambda, 5, P4_EDGES),
    (complete_forest_to_tree, 7, FOREST_EDGES),
    (crosscut_audit, 5, P4_EDGES),
    (audit_forest_bound_to_6, 7, FOREST_EDGES),
    (lambda graph: audit_sigma_jump(graph, 8), 5, P4_EDGES),
], ids=["best_crosscut_pair", "crosscut_number", "tree_crosscut_number", "forest_lambda",
        "tree_lambda", "complete_forest_to_tree", "crosscut_audit", "audit_forest_bound",
        "audit_sigma_jump"])
def test_graph_routines_leave_the_graph_holding_only_its_edges(routine, n, edges):
    # the neighbour lists live only while a routine runs; a cached
    # adjacency took about 6 KB on a 22-vertex graph
    graph = Graph.from_edges(n, edges)
    routine(graph)
    assert list(vars(graph)) == ["n", "edges"]


# ------------------------------------------------------ one peel per graph

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
TWO_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])
TRIANGLE_AND_VERTEX = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])  # n - 1 edges and a cycle
EMPTY, POINT = Graph(0, frozenset()), Graph(1, frozenset())
NOT_FOREST, NOT_TREE = "input must be a forest", "input must be a tree"
NOT_AUDITABLE = "audit requires a tree with at least one edge"
NOT_A_FOREST_TO_AUDIT = "audit expects a forest with at least one edge"


@pytest.mark.parametrize("routine, graph, message", [
    (forest_lambda, TRIANGLE, NOT_FOREST),
    (tree_lambda, TRIANGLE, NOT_TREE),
    (tree_crosscut_number, TRIANGLE, NOT_TREE),
    (complete_forest_to_tree, TRIANGLE, NOT_FOREST),
    (crosscut_audit, TRIANGLE, NOT_AUDITABLE),
    (tree_lambda, TWO_EDGES, NOT_TREE),
    (tree_crosscut_number, TWO_EDGES, NOT_TREE),
    (crosscut_audit, TWO_EDGES, NOT_AUDITABLE),
    (tree_lambda, TRIANGLE_AND_VERTEX, NOT_TREE),
    (tree_crosscut_number, TRIANGLE_AND_VERTEX, NOT_TREE),
    (crosscut_audit, TRIANGLE_AND_VERTEX, NOT_AUDITABLE),
    (tree_lambda, EMPTY, NOT_TREE),
    (tree_crosscut_number, EMPTY, NOT_TREE),
    (crosscut_audit, EMPTY, NOT_AUDITABLE),
    (crosscut_audit, POINT, NOT_AUDITABLE),
    (complete_forest_to_tree, Graph(2, frozenset()),
     "an edgeless forest on 2+ vertices cannot extend to a tree with the same crosscut number"),
    (audit_forest_bound_to_6, TRIANGLE, NOT_A_FOREST_TO_AUDIT),
    (audit_forest_bound_to_6, TRIANGLE_AND_VERTEX, NOT_A_FOREST_TO_AUDIT),
])
def test_rejections_keep_their_type_and_message(routine, graph, message):
    # the messages the walks gave before the peel answered the forest and
    # tree tests
    with pytest.raises(ValueError) as info:
        routine(graph)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("routine, n, edges, builds", [
    (best_crosscut_pair, 4, C4_EDGES, 1),
    (tree_crosscut_number, 8, BROOM_EDGES, 1),
    (tree_lambda, 8, BROOM_EDGES, 1),
    (forest_lambda, 7, FOREST_EDGES, 1),
    (crosscut_audit, 8, BROOM_EDGES, 1),  # R's trees and sides come from the tree's peel
    (complete_forest_to_tree, 7, FOREST_EDGES, 2),  # the forest, then the completed tree
    (audit_forest_bound_to_6, 7, FOREST_EDGES, 1),  # sigma and the forest test from one peel
    (lambda graph: audit_sigma_jump(graph, 8), 5, P4_EDGES, 1),  # sigma 2: degrees from the peel
], ids=["best_crosscut_pair", "tree_crosscut_number", "tree_lambda", "forest_lambda",
        "crosscut_audit", "complete_forest_to_tree", "audit_forest_bound", "audit_sigma_jump"])
def test_crosscut_routines_peel_each_graph_once(monkeypatch, routine, n, edges, builds):
    # the peel builds the neighbour lists and answers the forest, tree,
    # component and side questions, so no routine walks a graph again
    from expansions import core, crosscuts
    built = []
    neighbours = core.Graph.neighbours

    def counted(graph):
        built.append(graph)
        return neighbours(graph)

    def walked(*args):
        raise AssertionError("a crosscut routine walked a graph outside its peel")

    monkeypatch.setattr(core.Graph, "neighbours", counted)
    monkeypatch.setattr(core.Graph, "is_tree", walked)
    monkeypatch.setattr(core, "_walk", walked)
    graph = Graph.from_edges(n, edges)
    routine(graph)
    assert len(built) == builds and built[0] is graph
    assert not hasattr(crosscuts, "_walk")

