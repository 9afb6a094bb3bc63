import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from expansions import (Graph, TripleSystem, audit_forest_bound, audit_sigma_jump,
                        contains, contains_expansion, crosscut_number, expand,
                        graph_contains, lower_bound_construction, trees, triple_trees,
                        turan_number)

from expansions import search
from expansions.core import Budget
from expansions.search import _embeddings, _holds
from helpers import (brute_contains, brute_graph_contains, brute_turan, counter_copies,
                     counter_turan, random_graph, random_system)


PATH2 = Graph.from_edges(3, [(0, 1), (1, 2)])
PATH3 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


# ------------------------------------------------------------- containment

def test_contains_rejects_pair_sharing_host():
    # expansion of a 2-edge path needs two triples meeting in one vertex
    host = TripleSystem.from_edges(4, [(0, 1, 2), (0, 1, 3)])
    assert contains(host, expand(PATH2).system) is None


def test_contains_finds_center_at_shared_vertex():
    host = TripleSystem.from_edges(5, [(0, 1, 2), (0, 3, 4)])
    cert = contains(host, expand(PATH2).system)
    assert cert is not None
    assert cert.check(host, expand(PATH2).system)
    assert cert.mapping[1] == 0  # the path center must land on the shared vertex


def test_contains_empty_pattern_and_oversized_pattern():
    host = TripleSystem.from_edges(4, [(0, 1, 2)])
    empty = TripleSystem(2, frozenset())
    cert = contains(host, empty)
    assert cert is not None and cert.check(host, empty)
    big = TripleSystem(6, frozenset())
    assert contains(host, big) is None


def test_contains_matches_permutation_oracle_sweep():
    rng = random.Random(71)
    for _ in range(50):
        host = random_system(rng, rng.randint(4, 7), rng.randint(0, 9))
        pattern = random_system(rng, rng.randint(3, 5), rng.randint(0, 3))
        got = contains(host, pattern)
        want = brute_contains(host, pattern)
        assert (got is not None) == want
        if got is not None:
            assert got.check(host, pattern)


def test_contains_expansion_agrees_with_generic_search():
    # contains_expansion is contains on the expansion: the same map, re-kinded
    rng = random.Random(73)
    for _ in range(40):
        base = random_graph(rng, rng.randint(2, 4), 0.6)
        host = random_system(rng, rng.randint(5, 8), rng.randint(4, 16))
        via_expansion = contains_expansion(host, base)
        via_generic = contains(host, expand(base).system)
        assert (via_expansion is None) == (via_generic is None)
        if via_expansion is not None:
            assert via_expansion.mapping == via_generic.mapping
            assert via_expansion.kind == "expansion"
    # an edgeless base maps identically, and only when it fits
    host = TripleSystem.from_edges(4, [(0, 1, 2)])
    cert = contains_expansion(host, Graph.from_edges(3, []))
    assert (cert.mapping, cert.kind) == ({0: 0, 1: 1, 2: 2}, "expansion")
    assert contains_expansion(host, Graph.from_edges(5, [])) is None


def test_contains_expansion_needs_distinct_enlargement_vertices():
    # two triples through pair (0,1) plus one through (1,2): the expansion of
    # the path embeds only if the two path edges get distinct third vertices
    host = TripleSystem.from_edges(5, [(0, 1, 3), (1, 2, 3)])
    assert contains_expansion(host, PATH2) is None
    host2 = TripleSystem.from_edges(6, [(0, 1, 3), (1, 2, 3), (1, 2, 5)])
    cert = contains_expansion(host2, PATH2)
    assert cert is not None
    assert cert.check(host2, expand(PATH2).system)


def test_containment_refuses_a_map_that_is_no_copy(monkeypatch):
    # a kernel that sends two pattern vertices to host vertex 0: each
    # pattern triple lands on a host triple, but the map is not injective
    host = TripleSystem.from_edges(5, [(0, 1, 2), (0, 1, 3)])
    pattern = expand(PATH2).system
    monkeypatch.setattr(search, "_embeddings",
                        lambda *args, **kwargs: iter([{0: 0, 1: 1, 2: 0, 3: 2, 4: 3}]))
    with pytest.raises(RuntimeError, match="not a copy"):
        contains(host, pattern)
    monkeypatch.setattr(search, "_embeddings", lambda *args, **kwargs: iter([{0: 0, 1: 1, 2: 0}]))
    with pytest.raises(RuntimeError, match="not a copy"):
        contains_expansion(host, PATH2)


def test_graph_contains_basics():
    path3 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert graph_contains(path3, PATH2)
    assert graph_contains(star, Graph.from_edges(3, [(0, 1), (0, 2)]))
    assert not graph_contains(path3, star)
    assert graph_contains(star, Graph(2, frozenset()))


def twin_rich_system(rng: random.Random) -> TripleSystem:
    # a core construction, sometimes with a few triples added, so that the
    # twin pruning has large classes to work on
    n, core = rng.randint(4, 8), rng.randint(1, 2)
    extra = random_system(rng, n, rng.choice((0, 0, 1, 2))).edges
    return TripleSystem(n, lower_bound_construction(n, core).edges | extra)


def test_containment_agrees_with_permutation_oracle_on_twin_rich_hosts():
    rng = random.Random(89)
    for _ in range(60):
        host = twin_rich_system(rng) if rng.random() < 0.6 else \
            random_system(rng, rng.randint(4, 7), rng.randint(0, 14))
        pattern = random_system(rng, rng.randint(3, 5), rng.randint(0, 3))
        got = contains(host, pattern)
        assert (got is not None) == brute_contains(host, pattern)
        assert got is None or got.check(host, pattern)
        base = random_graph(rng, rng.randint(2, 4), 0.6)
        got = contains_expansion(host, base)
        assert (got is not None) == brute_contains(host, expand(base).system)
        assert got is None or got.check(host, expand(base).system)


def test_graph_contains_agrees_with_permutation_oracle():
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(2, 7)
        if rng.random() < 0.4:  # complete bipartite or complete: many twins
            side = rng.randint(0, n)
            host = Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                        if (u < side) != (v < side) or side == n])
        else:
            host = random_graph(rng, n, rng.random())
        pattern = random_graph(rng, rng.randint(1, 5), rng.random())
        assert graph_contains(host, pattern) == brute_graph_contains(host, pattern)


P4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
S3 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
M2 = Graph.from_edges(4, [(0, 1), (2, 3)])
FANO = TripleSystem.from_edges(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                                   (2, 3, 6), (2, 4, 5)])

# first copies found by the search before twin pruning existed; pruning
# must not change which copy comes first.  The contains_expansion copies
# of the four core constructions are the lexicographically first ones,
# recorded once it became contains on the expansion; their base images
# are those of the earlier matching search (see below)
RECORDED_WITNESSES = [
    (contains, lambda: lower_bound_construction(8, 1), lambda: expand(PATH2).system,
     [(0, 1), (1, 0), (2, 2), (3, 3), (4, 4)]),
    (contains, lambda: lower_bound_construction(9, 2), lambda: expand(P4).system,
     [(0, 3), (1, 0), (2, 2), (3, 1), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8)]),
    (contains, lambda: FANO, lambda: expand(PATH2).system,
     [(0, 1), (1, 0), (2, 3), (3, 2), (4, 4)]),
    (contains, lambda: FANO, lambda: expand(M2).system, None),
    (contains, lambda: lower_bound_construction(10, 2), lambda: expand(S3).system,
     [(0, 0), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]),
    (contains, lambda: random_system(random.Random(0), 9, 24), lambda: expand(PATH2).system,
     [(0, 1), (1, 0), (2, 2), (3, 7), (4, 5)]),
    (contains, lambda: random_system(random.Random(2), 9, 24), lambda: expand(PATH2).system,
     [(0, 1), (1, 0), (2, 2), (3, 5), (4, 3)]),
    (contains_expansion, lambda: lower_bound_construction(9, 1), lambda: PATH2,
     [(0, 1), (1, 0), (2, 2), (3, 3), (4, 4)]),
    (contains_expansion, lambda: lower_bound_construction(10, 2), lambda: P4,
     [(0, 3), (1, 0), (2, 2), (3, 1), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8)]),
    (contains_expansion, lambda: lower_bound_construction(10, 3), lambda: S3,
     [(0, 0), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8)]),
    (contains_expansion, lambda: lower_bound_construction(8, 2), lambda: M2,
     [(0, 0), (1, 2), (2, 1), (3, 3), (4, 4), (5, 5)]),
    (contains_expansion, lambda: FANO, lambda: PATH2,
     [(0, 1), (1, 0), (2, 3), (3, 2), (4, 4)]),
    (contains_expansion, lambda: lower_bound_construction(9, 1), lambda: P4, None),
    (contains_expansion, lambda: random_system(random.Random(100), 10, 30), lambda: PATH2,
     [(0, 1), (1, 0), (2, 2), (3, 8), (4, 5)]),
    (contains_expansion, lambda: random_system(random.Random(103), 10, 30), lambda: M2,
     [(0, 0), (1, 1), (2, 2), (3, 4), (4, 5), (5, 9)]),
    (contains_expansion, lambda: random_system(random.Random(105), 10, 30), lambda: M2,
     [(0, 0), (1, 1), (2, 3), (3, 4), (4, 2), (5, 6)]),
]


@pytest.mark.parametrize("search, host, pattern, want", RECORDED_WITNESSES,
                         ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(RECORDED_WITNESSES)])
def test_first_witness_is_unchanged_by_twin_pruning(search, host, pattern, want):
    cert = search(host(), pattern())
    assert (None if cert is None else sorted(cert.mapping.items())) == want


# the copies contains_expansion returned when it assigned the enlargement
# vertices by augmenting-path matching after embedding the base graph; the
# lexicographically first copy differs only in the enlargement images
MATCHED_EXPANSION_WITNESSES = [
    (lambda: lower_bound_construction(9, 1), PATH2, [(0, 1), (1, 0), (2, 2), (3, 4), (4, 3)]),
    (lambda: lower_bound_construction(10, 2), P4,
     [(0, 3), (1, 0), (2, 2), (3, 1), (4, 4), (5, 8), (6, 7), (7, 6), (8, 5)]),
    (lambda: lower_bound_construction(10, 3), S3,
     [(0, 0), (1, 3), (2, 4), (3, 5), (4, 8), (5, 7), (6, 6)]),
    (lambda: lower_bound_construction(8, 2), M2, [(0, 0), (1, 2), (2, 1), (3, 3), (4, 5), (5, 4)]),
]


@pytest.mark.parametrize("host, base, matched", MATCHED_EXPANSION_WITNESSES,
                         ids=["P2-core1", "P4-core2", "S3-core3", "M2-core2"])
def test_expansion_witness_keeps_the_matched_base_images(host, base, matched):
    cert = contains_expansion(host(), base)
    got = sorted(cert.mapping.items())
    assert got[:base.n] == matched[:base.n]
    assert got != matched  # the enlargement images are lexicographically first now
    assert [w for _, w in got[base.n:]] == sorted(w for _, w in matched[base.n:])


def _first_maps(edges, host_n, completions, host_degree, twin_classes):
    found = [next(_embeddings(edges, host_n, completions, host_degree, classes), None)
             for classes in (None, twin_classes)]
    return [None if m is None else dict(m) for m in found]


def test_prefix_twin_rule_keeps_the_first_map():
    # a member of a host twin class is tried only once its next smaller
    # twin is used; on twin-rich hosts the first map is the unpruned one
    rng = random.Random(113)
    hosts = [lower_bound_construction(10, 1), lower_bound_construction(9, 2)]
    hosts += [twin_rich_system(rng) for _ in range(150)]
    assert max(len(cls) for cls in hosts[0].twin_classes) == 9
    for host in hosts:
        host_degree = [sum(h in e for e in host.edges) for h in range(host.n)]
        pattern = expand(random_graph(rng, rng.randint(2, 5), 0.6)).system \
            if rng.random() < 0.5 else random_system(rng, rng.randint(3, 6), rng.randint(1, 3))
        plain, pruned = _first_maps(pattern.sorted_edges(), host.n, host.pair_neighborhoods,
                                    host_degree, host.twin_classes)
        assert plain == pruned
    for _ in range(150):
        n = rng.randint(3, 9)
        side = rng.randint(0, n)  # complete bipartite, or complete, plus one edge
        pairs = [(u, v) for u, v in combinations(range(n), 2)
                 if (u < side) != (v < side) or side == n]
        host = Graph.from_edges(n, pairs + rng.sample(list(combinations(range(n), 2)), 1))
        adj = host.adjacency
        pattern = random_graph(rng, rng.randint(2, 6), rng.random())
        plain, pruned = _first_maps(pattern.sorted_edges(), n, adj,
                                    [len(adj[h]) for h in range(n)], host.twin_classes)
        assert plain == pruned


def test_core_constructions_separate_every_tree_on_seven_vertices():
    # the crosscut argument: T+ is absent from the core-(sigma-1)
    # construction and present in the core-sigma one
    n, checked = 13, 0
    for tree in trees(7):
        sigma = crosscut_number(tree)
        if sigma < 2:
            continue
        assert contains_expansion(lower_bound_construction(n, sigma - 1), tree) is None
        host = lower_bound_construction(n, sigma)
        cert = contains_expansion(host, tree)
        assert cert is not None and cert.check(host, expand(tree).system)
        checked += 1
    assert checked == 10


# ------------------------------------------------------------ construction

def test_construction_count_formula():
    for n in range(0, 11):
        for core in range(0, n + 1):
            system = lower_bound_construction(n, core)
            assert len(system.edges) == core * comb(n - core, 2)
            # every triple meets the core exactly once
            for e in system.edges:
                assert sum(1 for v in e if v < core) == 1
    with pytest.raises(ValueError):
        lower_bound_construction(3, 4)


def test_construction_avoids_high_crosscut_patterns():
    # path with 4 edges has crosscut number 2, so the single-vertex core
    # construction must contain no copy of its expansion
    p4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert crosscut_number(p4) == 2
    host = lower_bound_construction(9, 1)
    assert contains_expansion(host, p4) is None
    # but the path with 2 edges (crosscut number 1) embeds once n is large
    assert contains_expansion(host, PATH2) is not None


# ------------------------------------------------------------------ turan

def test_turan_small_host_cannot_fit_pattern():
    result = turan_number(4, expand(PATH2).system)
    assert result.value == 4 and result.exact
    assert len(result.witness) == 4


def test_turan_on_five_vertices_matches_exhaustive_oracle():
    result = turan_number(5, expand(PATH2).system)
    value, witnesses = brute_turan(5, expand(PATH2).system)
    assert result.exact
    assert result.value == value == 4
    assert result.witness == min(witnesses)  # lexicographically smallest family


def test_turan_witness_is_free_and_maximal_random_patterns():
    rng = random.Random(79)
    for _ in range(10):
        pattern = random_system(rng, 4, rng.randint(1, 3))
        result = turan_number(5, pattern)
        assert result.exact
        host = TripleSystem(5, frozenset(result.witness))
        assert contains(host, pattern) is None
        value, _ = brute_turan(5, pattern)
        assert result.value == value


def test_turan_rejects_edgeless_pattern_that_fits():
    with pytest.raises(ValueError):
        turan_number(4, TripleSystem(3, frozenset()))
    # an edgeless pattern too large to fit is a benign trivial instance
    result = turan_number(4, TripleSystem(9, frozenset()))
    assert result.value == 4 and result.exact


def test_turan_budget_exhaustion_gives_flagged_lower_bound():
    result = turan_number(7, expand(PATH2).system, budget_nodes=30)
    assert not result.exact
    exact = turan_number(7, expand(PATH2).system)
    assert exact.exact
    assert result.value <= exact.value
    host = TripleSystem(7, frozenset(result.witness))
    assert contains(host, expand(PATH2).system) is None


def test_turan_beyond_the_recursion_limit_returns_flagged_bound():
    # C(20, 3) = 1,140 triples: deeper than Python's default recursion limit
    pattern = expand(PATH2).system
    result = turan_number(20, pattern, budget_nodes=5000)
    assert not result.exact
    assert result.nodes == 5001
    assert len(result.witness) == result.value > 0
    assert contains(TripleSystem(20, frozenset(result.witness)), pattern) is None


BOOK = TripleSystem.from_edges(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])

# (value, exact, nodes, witness) recorded from the recursive search that
# the loop replaced; the loop visits the same nodes in the same order
RECORDED_TURAN = [
    (lambda: turan_number(7, expand(PATH2).system), 5, True, 10_436,
     [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6)]),
    (lambda: turan_number(6, expand(M2).system), 10, True, 38_578,
     [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 2, 5),
      (0, 3, 4), (0, 3, 5), (0, 4, 5)]),
    (lambda: turan_number(8, BOOK, budget_nodes=40_000), 16, False, 40_001,
     [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4, 5), (0, 4, 6), (0, 5, 6), (1, 2, 3),
      (1, 4, 5), (1, 4, 6), (1, 5, 7), (1, 6, 7), (2, 4, 7), (2, 5, 6), (2, 5, 7),
      (3, 4, 7), (3, 6, 7)]),
    # recorded from the per-copy counter loop (tests/helpers.counter_turan)
    (lambda: turan_number(7, expand(PATH3).system), 20, True, 1_106_290,
     [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 2, 5),
      (0, 3, 4), (0, 3, 5), (0, 4, 5), (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4),
      (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)]),
]


@pytest.mark.parametrize("run, value, exact, nodes, witness", RECORDED_TURAN)
def test_turan_matches_recorded_results(run, value, exact, nodes, witness):
    result = run()
    assert (result.value, result.exact, result.nodes) == (value, exact, nodes)
    assert list(result.witness) == witness


def listed_lanes(pattern, n):
    """The copies turan_number searches over, one triple set per lane in
    lane order; none when the pattern does not fit."""
    if pattern.n > n:
        return []
    holds = _holds(pattern, n, Budget())
    triples = list(combinations(range(n), 3))
    lanes = max(held.bit_length() for held in holds)
    return [frozenset(t for t, held in zip(triples, holds) if held >> lane & 1)
            for lane in range(lanes)]


def test_holds_list_each_copy_once_by_last_triple():
    rng = random.Random(83)
    patterns = [expand(PATH2).system, expand(PATH3).system, expand(M2).system, BOOK]
    patterns += [random_system(rng, rng.randint(3, 6), rng.randint(0, 4)) for _ in range(40)]
    cases = [(pattern, n) for pattern in patterns for n in range(pattern.n - 1, 8)]
    cases += [(BOOK, 8)] + [(tree, 8) for v in range(3, 7) for tree in triple_trees(v)]
    isolated = TripleSystem.from_edges(7, [(1, 2, 3), (3, 4, 5)])  # 0 and 6 in no edge
    cases += [(isolated, n) for n in (5, 6, 7, 8)]
    cases += [(TripleSystem.from_edges(5, [(0, 1, 2)]), n) for n in (4, 5, 6)]
    cases += [(TripleSystem(3, frozenset()), n) for n in (2, 3, 8)]
    checked = 0
    for pattern, n in cases:
        if not pattern.edges:  # the copy on no triples fits every host, or no host
            if pattern.n <= n:
                with pytest.raises(ValueError, match="edgeless"):
                    turan_number(n, pattern)
            continue
        lanes = listed_lanes(pattern, n)
        assert len(set(lanes)) == len(lanes)
        assert sorted(lanes, key=sorted) == counter_copies(pattern, n)
        last = [max(lane) for lane in lanes]
        assert last == sorted(last, reverse=True)
        checked += bool(lanes)
    assert checked >= 100  # listings with at least one copy


def kernel_result(n, pattern, budget_nodes):
    result = turan_number(n, pattern, budget_nodes=budget_nodes)
    return result.value, result.exact, result.nodes, result.witness


def test_turan_equals_counter_reference_on_random_patterns():
    # an uncapped search at n = 7 can take ten million nodes (three
    # triples on four vertices), so uncapped draws stay at n <= 6
    rng = random.Random(211)
    capped = 0
    for _ in range(300):
        pattern = random_system(rng, rng.randint(3, 6), rng.randint(1, 3))
        cap = rng.choice((None, 5, 50, 500, 3000))
        n = rng.randint(3, 6 if cap is None else 7)
        want = counter_turan(n, pattern, budget_nodes=cap)
        assert kernel_result(n, pattern, cap) == want
        capped += not want[1]
    assert 50 <= capped <= 250


def test_turan_equals_counter_reference_on_four_triple_patterns():
    # four triples per copy, so three planes; the other cross-checks need at most two
    rng = random.Random(307)
    capped = 0
    for _ in range(60):
        pattern = random_system(rng, rng.randint(4, 7), 4)
        cap = rng.choice((None, 50, 500, 3000))
        n = rng.randint(4, 6 if cap is None else 7)
        want = counter_turan(n, pattern, budget_nodes=cap)
        assert kernel_result(n, pattern, cap) == want
        capped += not want[1]
    assert 10 <= capped <= 50


def test_turan_of_a_single_triple_is_zero():
    # no planes: every triple is a copy, so each node refuses one triple
    single = TripleSystem.from_edges(3, [(0, 1, 2)])
    for n in range(3, 7):
        result = kernel_result(n, single, None)
        assert result == (0, True, comb(n, 3) + 1, ()) == counter_turan(n, single)


@pytest.mark.parametrize("budget_ms", [None, 0])
@pytest.mark.parametrize("cap", [0, 1, 1023, 1024, 1025])
def test_turan_budget_checkpoints(cap, budget_ms):
    # the exact search takes 10,436 nodes; it stops past the cap, or at
    # node 1,024 once the deadline has passed, whichever comes first
    pattern = expand(PATH2).system
    result = turan_number(7, pattern, budget_ms=budget_ms, budget_nodes=cap)
    got = (result.value, result.exact, result.nodes, result.witness)
    assert got == counter_turan(7, pattern, budget_ms=budget_ms, budget_nodes=cap)
    assert result.nodes == (min(cap + 1, 1024) if budget_ms == 0 else cap + 1)
    assert not result.exact and result.value == len(result.witness) >= 0
    assert contains(TripleSystem(7, frozenset(result.witness)), pattern) is None


M2_SYSTEM = expand(M2).system

# every Turan call of the benchmark workloads (perfbench/tasks.py and
# perfbench/clibatch.py), with its node cap
BENCHMARK_TURAN = [
    (5, expand(PATH2).system, None), (6, expand(PATH2).system, None),
    (7, expand(PATH2).system, None), (6, expand(PATH3).system, None),
    (7, expand(PATH3).system, None), (6, expand(S3).system, None),
    (5, M2_SYSTEM, None), (6, M2_SYSTEM, None),
    (8, BOOK, 40_000), (6, BOOK, 2_000),
    (7, expand(PATH3).system, 50_000), (7, M2_SYSTEM, 50_000),
]


@pytest.mark.parametrize("n, pattern, cap", BENCHMARK_TURAN)
def test_turan_equals_counter_reference_on_benchmark_instances(n, pattern, cap):
    assert kernel_result(n, pattern, cap) == counter_turan(n, pattern, budget_nodes=cap)


@pytest.mark.parametrize("n, pattern, cap", BENCHMARK_TURAN)
def test_turan_equals_counter_reference_past_a_spent_deadline(n, pattern, cap):
    # a spent deadline stops the first checkpoint it meets: shape map 1,024
    # or k-subset 1,024 of the copy listing, with the empty lower bound, or
    # else node 1,024 of a longer search, in the middle of its tree (the
    # book rows, with three-triple copies, as well as P2+ and M2+); only
    # P3+ at n = 7 stops in the listing: k = n = 7, and 1,260 shape maps
    result = turan_number(n, pattern, budget_ms=0, budget_nodes=cap)
    got = (result.value, result.exact, result.nodes, result.witness)
    k = len({v for e in pattern.edges for v in e})
    maps = _embeddings(pattern.sorted_edges(), k, pattern_twins=pattern.twin_classes)
    listing = pattern.n <= n and (sum(1 for _ in maps) >= 1024 or comb(n, k) >= 1024)
    assert listing == (n == 7 and pattern == expand(PATH3).system)
    if listing:
        assert got == (0, False, 0, ())
    else:
        assert got == counter_turan(n, pattern, budget_ms=0, budget_nodes=cap)


def test_turan_deadline_is_checked_every_1024_nodes():
    # the exact search needs 10,436 nodes; a spent deadline stops it at the first check
    result = turan_number(7, expand(PATH2).system, budget_ms=0)
    assert not result.exact
    assert result.nodes == 1024
    assert contains(TripleSystem(7, frozenset(result.witness)), expand(PATH2).system) is None


def test_turan_deadline_covers_the_copy_listing():
    # P2+ at n = 20 lifts its 15 shapes through 15,504 5-subsets before the
    # first node; a spent deadline stops the lift at subset 1,024, its first
    # check, with the empty lower bound
    result = turan_number(20, expand(PATH2).system, budget_ms=0)
    assert (result.value, result.exact, result.nodes, result.witness) == (0, False, 0, ())
    # the set-up before that check is a table of triple indices, n^3 small
    # ints: a table of the triple bits themselves took 40 MB here at n = 40
    tracemalloc.start()
    try:
        result = turan_number(40, expand(PATH2).system, budget_ms=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.value, result.exact, result.nodes, result.witness) == (0, False, 0, ())
    assert peak < 8_000_000


def test_turan_as_dict_round_trips_fields():
    result = turan_number(4, expand(PATH2).system)
    d = result.as_dict()
    assert d["n"] == 4 and d["value"] == 4 and d["exact"] is True
    assert d["method"] == "branch-and-bound"


# ------------------------------------------------------------------ audits

def test_audit_forest_bound_reports_descriptive_rows():
    report = audit_forest_bound(PATH2, [4, 5, 6, 9])
    assert report["sigma"] == 1
    assert report["core_size"] == 0
    assert "no asymptotic claim" in report["note"]
    by_n = {row["n"]: row for row in report["rows"]}
    assert set(by_n) == {4, 5, 6, 9}
    for n, row in by_n.items():
        assert row["count_matches"]
        assert row["free"]
        if n <= 6:
            assert row["turan"]["exact"]
        else:
            assert row["turan"] is None


def test_audits_reject_a_negative_n():
    with pytest.raises(ValueError, match="n must be nonnegative"):
        audit_forest_bound(PATH3, [-2, 5])
    for graph in (PATH2, PATH3):  # crosscut numbers 1 and 2
        with pytest.raises(ValueError, match="n must be nonnegative"):
            audit_sigma_jump(graph, -5)


def test_audit_forest_bound_nontrivial_core():
    p4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    report = audit_forest_bound(p4, [6])
    row = report["rows"][0]
    assert report["core_size"] == 1
    assert row["bound"] == comb(5, 2)
    assert row["free"]
    assert row["turan"]["value"] >= row["bound"]


def test_audit_sigma_jump_star_case():
    report = audit_sigma_jump(PATH2, 8)
    assert report["sigma"] == 1
    assert report["construction"] is None

    p4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    report = audit_sigma_jump(p4, 8)
    assert report["sigma"] == 2
    assert report["construction"] == "one-vertex core (star of triples)"
    assert report["edges"] == report["expected_edges"] == comb(7, 2)
    assert report["free"]
    assert "shape" in report


def test_audit_sigma_jump_two_vertex_core():
    # two disjoint paths with 4 edges each: crosscut number 4
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)]
    forest = Graph.from_edges(10, edges)
    assert crosscut_number(forest) == 4
    report = audit_sigma_jump(forest, 9)
    assert report["construction"] == "two-vertex core"
    assert report["edges"] == 2 * comb(7, 2)
    assert report["free"]
