import os
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations

import pytest

import expansions
from expansions import Graph, TripleSystem, forests, trees, triple_trees

from helpers import ahu_form, brute_components, brute_is_forest, brute_is_tree, labeled_trees


# counts frozen after cross-checking the n <= 8 values against the labeled
# enumeration below; n = 9 confirmed once by the same oracle offline, and
# n = 10..14 are OEIS A000055 and networkx's counts
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159}
FOREST_COUNTS = {1: 1, 2: 2, 3: 3, 4: 6, 5: 10, 6: 20, 7: 37, 8: 76, 9: 153}


def test_tree_counts_match_frozen_table():
    for n, want in TREE_COUNTS.items():
        assert len(trees(n)) == want, n
    assert trees(0) == ()


def test_trees_are_trees_and_pairwise_nonisomorphic():
    for n in range(1, 10):
        forms = set()
        for t in trees(n):
            assert t.n == n and brute_is_tree(t)
            forms.add(ahu_form(n, t.sorted_edges()))
        assert len(forms) == len(trees(n))


def test_trees_equal_networkx_output_in_order():
    # the generator is a port of networkx's; the tuple, order included, is
    # what forests, the demos and the benchmark's inputs are built from
    nx = pytest.importorskip("networkx")
    for n in range(15):
        assert trees(n) == tuple(Graph.from_edges(n, t.edges())
                                 for t in nx.nonisomorphic_trees(n)), n


def test_generators_do_not_import_networkx():
    code = ("import sys; sys.modules['networkx'] = None\n"
            "from expansions import forests, trees, triple_trees\n"
            "assert (len(trees(9)), len(forests(8)), len(triple_trees(7))) == (47, 76, 12)")
    src = os.path.dirname(os.path.dirname(expansions.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_tree_enumeration_complete_against_labeled_oracle():
    # every labeled tree's shape appears in the unlabeled enumeration
    for n in range(2, 8):
        enumerated = {ahu_form(n, t.sorted_edges()) for t in trees(n)}
        seen = {ahu_form(n, edges) for edges in labeled_trees(n)}
        assert seen == enumerated


def test_forest_counts_match_frozen_table():
    for n, want in FOREST_COUNTS.items():
        assert len(forests(n)) == want, n


def forest_shape(f: Graph) -> tuple:
    # multiset of component shapes, each relabeled onto 0..size-1
    parts = []
    for comp in brute_components(f.n, f.edges):
        order = {v: i for i, v in enumerate(sorted(comp))}
        edges = [(order[u], order[v]) for u, v in f.edges if u in comp]
        parts.append(ahu_form(len(comp), edges))
    return tuple(sorted(parts))


def test_forests_are_forests_and_distinct():
    for n in range(1, 9):
        shapes = set()
        for f in forests(n):
            assert f.n == n and brute_is_forest(f)
            shapes.add(forest_shape(f))
        assert len(shapes) == len(forests(n))


def test_forest_shape_is_label_independent():
    a = Graph.from_edges(5, [(3, 4), (0, 1), (1, 2)])
    b = Graph.from_edges(5, [(0, 3), (1, 3), (2, 4)])
    assert forest_shape(a) == forest_shape(b)


def test_forests_include_edgeless_and_full_tree_extremes():
    for n in range(1, 8):
        edge_counts = Counter(len(f.edges) for f in forests(n))
        assert edge_counts[0] == 1  # the edgeless forest
        assert edge_counts[n - 1] == TREE_COUNTS[n]  # spanning trees


def test_forests_of_zero_vertices_is_the_empty_graph():
    assert forests(0) == (Graph(0, frozenset()),)


def test_generators_reject_negative():
    with pytest.raises(ValueError):
        trees(-1)
    with pytest.raises(ValueError):
        forests(-2)


# ------------------------------------------------------------ triple trees

def is_triple_tree(system: TripleSystem) -> bool:
    # some ordering glues each edge onto a covered pair with one new vertex
    edges = list(system.edges)
    if not edges:
        return False

    def grow(placed, covered):
        if len(placed) == len(edges):
            return len(covered) == system.n
        for e in edges:
            if e in placed:
                continue
            inter = covered.intersection(e)
            if len(inter) == 2 and any(
                    inter <= set(p) for p in placed):
                if grow(placed | {e}, covered | set(e)):
                    return True
        return False

    for first in edges:
        if grow({first}, set(first)):
            return True
    return False


def canonical_by_permutation(system: TripleSystem):
    best = None
    for perm in permutations(range(system.n)):
        img = tuple(sorted(tuple(sorted((perm[a], perm[b], perm[c])))
                           for a, b, c in system.edges))
        if best is None or img < best:
            best = img
    return best


def test_triple_tree_counts_and_validity():
    # the counts of unlabeled 2-trees (OEIS A054581): a triple tree is the
    # set of triangles of a 2-tree
    assert [len(triple_trees(v)) for v in range(3, 10)] == [1, 1, 2, 5, 12, 39, 136]
    assert triple_trees(2) == ()
    for v in (3, 4, 5):
        forms = set()
        for t in triple_trees(v):
            assert t.n == v
            assert len(t.edges) == v - 2
            assert is_triple_tree(t)
            forms.add(canonical_by_permutation(t))
        assert len(forms) == len(triple_trees(v))


def test_triple_trees_equal_growth_deduplicated_by_permutation():
    # the same growth order, keeping the first system of each class found
    # by the factorial canonical form: the same tuple, order included
    level = [frozenset({(0, 1, 2)})]
    for w in range(3, 7):
        seen, nxt = set(), []
        for edges in level:
            for a, b in sorted({p for e in edges for p in combinations(e, 2)}):
                grown = TripleSystem(w + 1, edges | {(a, b, w)})
                key = canonical_by_permutation(grown)
                if key not in seen:
                    seen.add(key)
                    nxt.append(grown.edges)
        level = nxt
        assert triple_trees(w + 1) == tuple(TripleSystem(w + 1, e) for e in level)


def test_triple_tree_enumeration_complete_by_exhaustion():
    for v in (3, 4, 5):
        q = v - 2
        pool = list(combinations(range(v), 3))
        found = set()
        for subset in combinations(pool, q):
            system = TripleSystem(v, frozenset(subset))
            if is_triple_tree(system):
                found.add(canonical_by_permutation(system))
        assert found == {canonical_by_permutation(t) for t in triple_trees(v)}
