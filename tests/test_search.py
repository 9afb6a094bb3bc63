import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from expansions import (Graph, TripleSystem, audit_forest_bound, audit_sigma_jump,
                        contains, contains_expansion, crosscut_number, expand,
                        find_structured_multicoloring, lower_bound_construction, trees,
                        triple_trees, turan_number)

from expansions import search
from expansions.core import Budget, BudgetExhausted
from expansions.search import _embeddings, _holds, _host_masks
from helpers import (brute_contains, brute_embeddings, brute_graph_contains, brute_smaller_twins,
                     brute_turan, counter_copies, counter_turan, random_graph, random_system)


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


P4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
P5 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
S3 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
M2 = Graph.from_edges(4, [(0, 1), (2, 3)])
K4 = Graph.from_edges(4, combinations(range(4), 2))
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


def test_containment_caches_nothing_on_the_host():
    # the kernel builds its link masks and twins on each call: a host
    # holds only its fields afterwards, found or free
    for search, pattern, found in ((contains, expand(P4).system, True), (contains, FANO, False),
                                   (contains_expansion, P4, True), (contains_expansion, P5, False)):
        host = lower_bound_construction(9, 2)
        assert (search(host, pattern) is not None) == found
        assert list(vars(host)) == ["n", "edges"]


def test_prefix_twin_rule_keeps_the_first_map():
    # a member of a host twin class is tried only once its next smaller
    # twin is used; on twin-rich hosts the first map is still the first
    # of a plain scan of every arrangement
    rng = random.Random(113)
    hosts = [lower_bound_construction(10, 1), lower_bound_construction(9, 2)]
    hosts += [twin_rich_system(rng) for _ in range(150)]
    assert _host_masks(hosts[0])[2] == [0, 0] + [1 << (v - 1) for v in range(2, 10)]  # 1 <- ... <- 9
    for host in hosts:
        pattern = expand(random_graph(rng, rng.randint(2, 5), 0.6)).system \
            if rng.random() < 0.5 else random_system(rng, rng.randint(3, 6), rng.randint(1, 3))
        edges = pattern.sorted_edges()
        first = next(_embeddings(edges, host), None)
        assert (None if first is None else list(first.items())) == \
            next(brute_embeddings(edges, host), None)


def test_kernel_matches_the_permutation_oracle_in_order():
    # the first map and the whole listing, in order, against a scan of
    # every arrangement in lexicographic order under the twin rule; on a
    # host without twins that is every map, so the edge rule alone is
    # checked on full listings
    rng = random.Random(127)
    listed = pruned = untwinned = 0
    for _ in range(120):
        host = twin_rich_system(rng) if rng.random() < 0.5 else \
            random_system(rng, rng.randint(4, 9), rng.randint(0, 24))
        pattern = expand(random_graph(rng, rng.randint(2, 4), 0.6)).system \
            if rng.random() < 0.5 else random_system(rng, rng.randint(3, 5), rng.randint(0, 3))
        if pattern.n > 5 and host.n > 8:  # keep the scan under 10^5 arrangements
            continue
        edges = pattern.sorted_edges()
        plain = list(brute_embeddings(edges, host))
        want = list(brute_embeddings(edges, host, twins=True))
        got = [list(found.items()) for found in _embeddings(edges, host)]
        assert got == want
        assert got[:1] == plain[:1]  # pruning keeps the first map
        listed += len(plain)
        pruned += len(plain) > len(want)
        if not brute_smaller_twins(host.n, host.edges):
            assert want == plain
            untwinned += bool(plain)
    assert listed > 10_000 and pruned > 30 and untwinned > 10


def separate_trees_on_seven_vertices(n: int):
    # the crosscut argument: T+ is absent from the core-(sigma-1)
    # construction and present in the core-sigma one
    checked = 0
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


def test_core_constructions_separate_every_tree_on_seven_vertices():
    separate_trees_on_seven_vertices(13)


def test_core_constructions_separate_trees_with_masks_wider_than_64_bits():
    # at n = 70 every candidate and link mask spans more than 64 vertices
    separate_trees_on_seven_vertices(70)


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


def test_turan_rejects_a_negative_n():
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        turan_number(-1, expand(PATH2).system)


def test_construction_rejects_a_negative_n_before_the_core():
    # core 0 is within every n >= 0, so the message must blame n
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        lower_bound_construction(-1, 0)
    with pytest.raises(ValueError, match="^core size must be between 0 and n$"):
        lower_bound_construction(3, 4)


def test_budgets_are_keyword_only():
    # a bare number could be read as either budget, so each is named
    with pytest.raises(TypeError):
        turan_number(5, expand(PATH2).system, 100)
    with pytest.raises(TypeError):
        audit_forest_bound(PATH2, [5], 100)
    with pytest.raises(TypeError):
        find_structured_multicoloring(None, 1, 1, 100)


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


def shape_count(pattern: TripleSystem) -> tuple[int, int]:
    """k, the pattern vertices in edges, and the shapes: the copies of the
    pattern on range(k), of which every k-subset of range(n) holds one
    lift each."""
    at = {v: i for i, v in enumerate(sorted({v for e in pattern.edges for v in e}))}
    on_k = TripleSystem.from_edges(len(at), [[at[v] for v in e] for e in pattern.edges])
    return len(at), len(counter_copies(on_k, len(at)))


def listed_lanes(pattern, n, copies):
    """The copies turan_number searches over, one triple set per lane in
    lane order; none when the pattern does not fit.  The triples _holds
    lists must be all of them, in lex order, and row i must end within
    the lanes of the first C(n, k) - C(c, k) subsets lifted, those with a
    vertex at or above c, the last vertex of triple i (k the pattern
    vertices in edges), at one lane per shape and subset: each subset
    holds the same number of the given copies."""
    if pattern.n > n:
        return []
    triples, holds = _holds(pattern, n, Budget())
    assert triples == list(combinations(range(n), 3))
    k = len({v for e in pattern.edges for v in e})
    shapes = len(copies) // comb(n, k)
    assert all(held.bit_length() <= (comb(n, k) - comb(c, k)) * shapes
               for (*_, c), held in zip(triples, holds))
    lanes = max(held.bit_length() for held in holds)
    return [frozenset(t for t, held in zip(triples, holds) if held >> lane & 1)
            for lane in range(lanes)]


def test_holds_list_each_copy_once_by_subset_then_last_triple():
    rng = random.Random(83)
    patterns = [expand(PATH2).system, expand(PATH3).system, expand(M2).system, BOOK]
    patterns += [random_system(rng, rng.randint(3, 6), rng.randint(0, 4)) for _ in range(40)]
    cases = [(pattern, n) for pattern in patterns for n in range(pattern.n - 1, 8)]
    cases += [(BOOK, 8)] + [(tree, 8) for v in range(3, 7) for tree in triple_trees(v)]
    m3 = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    cases += [(expand(S3).system, 9), (expand(m3).system, 9)]  # 105 and 280 shapes, k = 7 and 9
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
        copies = counter_copies(pattern, n)
        lanes = listed_lanes(pattern, n, copies)
        assert len(set(lanes)) == len(lanes)
        assert sorted(lanes, key=sorted) == copies
        # the k-subsets in reverse colex order (largest vertex first), then
        # each subset's copies by last triple, highest first
        order = [(sorted({v for t in lane for v in t}, reverse=True), max(lane)) for lane in lanes]
        assert order == sorted(order, reverse=True)
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
    # the exact search takes 38,578 nodes after a listing of 10 copies and
    # 40 row bytes; it stops past the cap, or at node 1,024 once the
    # deadline has passed, whichever comes first
    pattern = expand(M2).system
    result = turan_number(6, pattern, budget_ms=budget_ms, budget_nodes=cap)
    got = (result.value, result.exact, result.nodes, result.witness)
    assert got == counter_turan(6, pattern, budget_ms=budget_ms, budget_nodes=cap)
    assert result.nodes == (min(cap + 1, 1024) if budget_ms == 0 else cap + 1)
    assert not result.exact and result.value == len(result.witness) >= 0
    assert contains(TripleSystem(6, frozenset(result.witness)), pattern) is None


M2_SYSTEM = expand(M2).system
# five triples on seven vertices: planes 1 and 2 below the top two
FIVE_TRIPLES = TripleSystem.from_edges(7, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 6), (0, 5, 6)])


@pytest.mark.parametrize("n, pattern", [(8, BOOK), (7, expand(PATH2).system), (7, FIVE_TRIPLES)])
def test_turan_every_node_cap_matches_counter_reference(n, pattern):
    # the incumbent is recorded at an inclusion but counts from the next
    # node, so a cap stopping that node must land before the inclusion;
    # early in the tree improvements come every few nodes, and the book's
    # last two at nodes 319 and 322
    for cap in range(331 if pattern == BOOK else 65):
        assert kernel_result(n, pattern, cap) == counter_turan(n, pattern, budget_nodes=cap), cap


# whole searches, each with its node count (the book and FIVE_TRIPLES
# under a 40,000-node cap)
DEEP_TURAN = [(7, expand(PATH2).system, 10_436), (6, M2_SYSTEM, 38_578),
              (8, BOOK, 40_000), (7, FIVE_TRIPLES, 40_000)]
DEEP_IDS = ["P2+ n7", "M2+ n6", "book n8", "five triples n7"]


@pytest.mark.parametrize("n, pattern, nodes", DEEP_TURAN, ids=DEEP_IDS)
def test_turan_node_caps_deep_in_the_tree_match_counter_reference(n, pattern, nodes):
    # refused nodes and pops change no incumbent, so the loop checks its
    # budget only before the next inclusion or at the end node; a cap whose
    # stop falls on a refused node must give the same count, incumbent and
    # witness
    refused = []
    counter_turan(n, pattern, budget_nodes=nodes, refused=refused)
    refused = set(refused)
    caps = sorted(random.Random(nodes).sample(range(65, nodes), 8))
    for cap in caps:
        assert kernel_result(n, pattern, cap) == counter_turan(n, pattern, budget_nodes=cap), cap
    assert 0 < sum(cap + 1 in refused for cap in caps) < len(caps)


@pytest.mark.parametrize("n, pattern, nodes", DEEP_TURAN, ids=DEEP_IDS)
def test_turan_deadline_stops_deep_in_the_tree_match_counter_reference(monkeypatch, n, pattern,
                                                                       nodes):
    # the deadline is found passed at node 2,048, 4,096 or 9,216; most of
    # these are refused nodes, whose check comes at a later node
    refused = []
    counter_turan(n, pattern, budget_nodes=nodes, refused=refused)
    stops = (2048, 4096, 9216)
    for stop in stops:
        monkeypatch.setattr(Budget, "expired", lambda budget: budget.nodes >= stop)
        result = turan_number(n, pattern, budget_ms=10 ** 9)
        got = (result.value, result.exact, result.nodes, result.witness)
        assert got == counter_turan(n, pattern, budget_ms=10 ** 9), stop
        assert result.nodes == stop
    assert sum(stop in refused for stop in stops) >= 2


@pytest.mark.parametrize("n, pattern, nodes", [
    (7, expand(PATH2).system, 10_436), (6, M2_SYSTEM, 38_578),
    # every node refuses its triple: one run of 9,880 refused nodes, so all
    # nine reads come at the end node
    (40, TripleSystem.from_edges(3, [(0, 1, 2)]), comb(40, 3) + 1),
], ids=["P2+ n7", "M2+ n6", "one triple n40"])
def test_turan_loop_reads_its_deadline_once_per_1024_nodes(monkeypatch, n, pattern, nodes):
    counted, listed = [], []  # the node count at each read; the reads by the listing
    monkeypatch.setattr(Budget, "expired", lambda budget: counted.append(budget.nodes) or False)
    real = search._holds

    def holds(*args):
        rows = real(*args)
        listed.append(len(counted))
        return rows

    monkeypatch.setattr(search, "_holds", holds)
    result = turan_number(n, pattern, budget_ms=10 ** 9)
    assert (result.exact, result.nodes) == (True, nodes)
    assert counted[listed[0]:] == list(range(1024, nodes + 1, 1024))


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


def row_bytes(pattern: TripleSystem, n: int) -> list[int]:
    """The byte length of each of _holds's rows, row i one lane per shape
    (copy on the k pattern vertices in edges) and per k-subset of range(n)
    with a vertex at or above c, the last vertex of triple i."""
    k, shapes = shape_count(pattern)
    return [((comb(n, k) - comb(c, k)) * shapes + 7) // 8 for *_, c in combinations(range(n), 3)]


@pytest.mark.parametrize("n, pattern, cap", BENCHMARK_TURAN)
def test_turan_equals_counter_reference_past_a_spent_deadline(n, pattern, cap):
    # a spent deadline stops the first checkpoint it meets: shape image
    # 1,024, copy 1,024 lifted or row byte 1,024 turned into an int in the
    # copy listing, with the empty lower bound, or else node 1,024 of a
    # longer search, in the middle of its tree (the book at n = 6, with
    # three-triple copies, as well as P2+ at n = 6 and M2+); the orbit walk
    # images each of the shapes (the copies on k vertices) k - 1 times,
    # each k-subset lifts every shape, and only P3+ at n = 7 (k = n = 7:
    # 630 shapes give 3,780 images), the book at n = 8 (560 copies, whose
    # 56 rows hold 3,259 bytes) and P2+ at n = 7 (315 copies, whose 35 rows
    # hold 1,215 bytes) stop in the listing
    result = turan_number(n, pattern, budget_ms=0, budget_nodes=cap)
    got = (result.value, result.exact, result.nodes, result.witness)
    k, shapes = shape_count(pattern)
    listing = pattern.n <= n and ((k - 1) * shapes >= 1024 or comb(n, k) * shapes >= 1024
                                  or sum(row_bytes(pattern, n)) >= 1024)
    assert listing == ((n, pattern) in ((7, expand(PATH3).system), (8, BOOK),
                                        (7, expand(PATH2).system)))
    if listing:
        assert got == (0, False, 0, ())
    else:
        assert got == counter_turan(n, pattern, budget_ms=0, budget_nodes=cap)


def test_turan_deadline_is_checked_every_1024_nodes():
    # the exact search needs 38,578 nodes after a listing under every
    # cadence; a spent deadline stops it at the first check
    result = turan_number(6, M2_SYSTEM, budget_ms=0)
    assert not result.exact
    assert result.nodes == 1024
    assert contains(TripleSystem(6, frozenset(result.witness)), M2_SYSTEM) is None


def test_turan_deadline_covers_the_copy_listing():
    # P2+ at n = 20 lifts its 15 shapes through 15,504 5-subsets before the
    # first node; a spent deadline stops the lift after subset 69, whose
    # copies pass 1,024, at its first check, with the empty lower bound
    result = turan_number(20, expand(PATH2).system, budget_ms=0)
    assert (result.value, result.exact, result.nodes, result.witness) == (0, False, 0, ())
    # at n = 40 the 9,870,120 copies are over the listing cap, so the call
    # stops before any table: a table of the triple bits took 40 MB here
    tracemalloc.start()
    try:
        result = turan_number(40, expand(PATH2).system, budget_ms=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.value, result.exact, result.nodes, result.witness) == (0, False, 0, ())
    assert peak < 8_000_000


def test_turan_refused_under_a_budget_lists_no_triple():
    # P2+ at n = 300 is over the listing cap: the call is refused before its
    # 4,455,100 triples are listed, which took about 320 MB when the list
    # came before the refusal
    tracemalloc.start()
    try:
        result = turan_number(300, expand(PATH2).system, budget_nodes=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.value, result.exact, result.nodes, result.witness) == (0, False, 0, ())
    assert peak < 20_000_000


def test_turan_under_a_budget_refuses_a_listing_over_the_cap():
    # P3+ at n = 16 has C(16, 7) * 630 = 7,207,200 copies, about 970 MB of
    # listing: a budgeted call stops after the orbit walk, allocating no
    # table, with the empty lower bound
    tracemalloc.start()
    try:
        result = turan_number(16, expand(PATH3).system, budget_nodes=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.value, result.exact, result.nodes, result.witness) == (0, False, 0, ())
    assert peak < 1_000_000


def test_turan_without_a_budget_refuses_a_listing_over_the_cap():
    # the orbit walk stops once its shapes' copies pass the cap, long before
    # it ends: P3+ has 630 shapes (7,207,200 copies at n = 16), K4+ 151,200
    for n, pattern, shapes, k in ((16, expand(PATH3).system, 176, 7),
                                  (14, expand(K4).system, 2_189, 10)):
        with pytest.raises(ValueError, match=f"^at least {shapes:,} shapes of the pattern on its"
                                             f" {k} vertices, lifted to n = {n}, are too many to"
                                             f" list in 268 MB$"):
            turan_number(n, pattern)


@pytest.mark.parametrize("n, pattern, listed", [
    (20, expand(PATH2).system, True), (30, expand(PATH2).system, False),
    (9, expand(PATH3).system, True), (9, expand(P4).system, True),
    (12, expand(P4).system, False), (10, expand(K4).system, True),
    (14, expand(K4).system, False),
], ids=["P2+ n20", "P2+ n30", "P3+ n9", "P4+ n9", "P4+ n12", "K4+ n10", "K4+ n14"])
def test_turan_listing_cap_passes_what_the_search_can_use(n, pattern, listed):
    # a 0-node cap stops node 1 after a listing, or refuses it with 0 nodes
    assert turan_number(n, pattern, budget_nodes=0).nodes == listed


def test_turan_orbit_walk_refuses_once_its_shapes_pass_the_cap(monkeypatch):
    # K4+ at n = 10 walks 151,200 shapes, about 28 MB, under the real cap;
    # under a 1 MB cap the walk stops near 4,000 shapes, long before the
    # copies could be counted, under a budget and without one
    monkeypatch.setattr(search, "LISTING_MAX_BYTES", 1_000_000)
    pattern = expand(K4).system
    tracemalloc.start()
    try:
        result = turan_number(10, pattern, budget_nodes=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.value, result.exact, result.nodes, result.witness) == (0, False, 0, ())
    assert peak < 3_000_000
    with pytest.raises(ValueError, match=r"^at least 4,035 shapes of the pattern on its 10 "
                                         r"vertices, lifted to n = 10, are too many to list in 1 MB$"):
        turan_number(10, pattern)


# four triples on seven vertices whose copies on range(7) number 1,260
CHAIN4 = TripleSystem.from_edges(7, [(0, 1, 2), (2, 3, 4), (1, 4, 5), (5, 6, 0)])


@pytest.mark.parametrize("n, pattern, reads, row_reads", [
    # 630 shapes, 3,780 images, 36 subsets and 22,680 copies: 3 reads in
    # the walk, then 22 in the lift, where one read per 1,024 subsets would
    # make none; then 84 as the 84 rows, 218,862 bytes (each of 1,024 or
    # more, so each read after), are turned into ints
    (9, expand(PATH3).system, 3 + 22, 84),
    # 1,260 shapes, so a read after each of the 8 subsets and 7,560
    # images, then 56 over 56 rows of 67,263 bytes (each of 1,024 or more)
    (8, CHAIN4, 7 + 8, 56),
], ids=["P3+ n9", "CHAIN4 n8"])
def test_turan_listing_reads_its_deadline_every_1024_copies(monkeypatch, n, pattern, reads,
                                                            row_reads):
    # a subset lifts every shape: P4+ has 45,360, and reading once per
    # 1,024 subsets let a 1 s deadline run 12 s at n = 12
    counted = []
    monkeypatch.setattr(Budget, "expired", lambda budget: counted.append(budget) or False)
    result = turan_number(n, pattern, budget_ms=10 ** 9, budget_nodes=0)
    assert (result.value, result.exact, result.nodes) == (0, False, 1)  # the cap stops node 1
    assert len(counted) == reads + row_reads
    done = 0  # a row read comes each time the bytes turned pass a multiple of 1,024
    assert sum((done := done + size) % 1024 < size for size in row_bytes(pattern, n)) == row_reads


def test_turan_listing_reads_its_deadline_while_turning_rows_into_ints(monkeypatch):
    # P3+ at n = 9 reads the deadline 25 times while it walks and lifts,
    # setting each copy's lanes; a deadline found passed at the next read,
    # the first of the loop turning the rows into ints, stops the listing
    # in that loop, after its first row
    counted = []
    monkeypatch.setattr(Budget, "expired", lambda budget: counted.append(budget) or len(counted) > 25)
    with pytest.raises(BudgetExhausted) as info:
        _holds(expand(PATH3).system, 9, Budget(budget_ms=10 ** 9))
    rows = next(entry for entry in info.traceback if entry.name == "_holds").locals["rows"]
    assert len(counted) == 26
    assert isinstance(rows[0], int) and all(isinstance(row, bytearray) for row in rows[1:])
    counted.clear()
    result = turan_number(9, expand(PATH3).system, budget_ms=10 ** 9)
    assert (result.value, result.exact, result.nodes, result.witness) == (0, False, 0, ())


def test_holds_keeps_no_copy_while_it_lists():
    # each copy's lanes are set as it is lifted, so the listing's peak is
    # what it returns plus one row's int; filing the 22,680 copies of P3+
    # at n = 9 before setting their lanes peaked at 5.8 times the result
    tracemalloc.start()
    try:
        listing = _holds(expand(PATH3).system, 9, Budget())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(listing[1]) == 84
    assert peak < 2 * kept


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


def test_audit_sigma_jump_rejects_n_below_the_core_size():
    # crosscut number 2 needs a one-vertex core, 3 or more a two-vertex one
    k4 = Graph.from_edges(4, list(combinations(range(4), 2)))
    for graph, n, core in ((PATH3, 0, 1), (k4, 1, 2), (k4, 0, 2)):
        with pytest.raises(ValueError, match=f"^n must be at least the core size {core}, got {n}$"):
            audit_sigma_jump(graph, n)
    assert audit_sigma_jump(PATH3, 1)["edges"] == 0
    assert audit_sigma_jump(k4, 2)["edges"] == 0


def test_audit_forest_bound_rejects_an_edgeless_forest():
    # sigma is 0, so the core, sigma - 1, and every bound would be negative
    for forest in (Graph.from_edges(3, []), Graph.from_edges(0, [])):
        with pytest.raises(ValueError, match="audit expects a forest with at least one edge"):
            audit_forest_bound(forest, [3, 6])


def test_audit_forest_bound_notes_a_core_larger_than_n():
    m3 = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])  # crosscut number 3, core 2
    report = audit_forest_bound(m3, [1])
    assert report["core_size"] == 2
    assert report["rows"] == [{"n": 1, "note": "core exceeds n; construction undefined"}]


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


def _shape_hosts(k):
    star = [(0, i) for i in range(1, k)]
    star_plus_edge = Graph.from_edges(k, star + [(1, 2)] if k >= 3 else star)
    bipartite_two = Graph.from_edges(k, [(a, b) for a in (0, 1) for b in range(2, k)])
    return star_plus_edge, bipartite_two


def test_graph_contains_basics():
    # the sigma = 2 shape report answers two graph containments: is the
    # graph inside the star at 0 plus the edge 12, and inside K(2, k - 2),
    # both on its own k vertices
    k23 = Graph.from_edges(5, [(a, b) for a in (0, 1) for b in range(2, 5)])
    star_plus_edge = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    cases = ((P4, (False, True)), (PATH3, (True, True)), (M2, (True, True)),
             (c4, (False, True)), (k3, (True, False)), (k23, (False, True)),
             (star_plus_edge, (True, False)))
    for graph, want in cases:
        report = audit_sigma_jump(graph, 8)
        assert report["sigma"] == 2
        assert (report["shape"]["in_star_plus_edge"],
                report["shape"]["in_complete_bipartite_two"]) == want, graph


def test_graph_contains_agrees_with_permutation_oracle():
    # the report's two direct tests against a scan of every vertex
    # arrangement into the star plus the edge 12 and into K(2, k - 2):
    # every labelled graph on at most 5 vertices with crosscut number 2,
    # and the sigma = 2 graphs among 300 seeded sparse ones on 6-8 vertices
    rng = random.Random(137)
    graphs = [Graph.from_edges(k, edges) for k in range(6) for m in range(comb(k, 2) + 1)
              for edges in combinations(combinations(range(k), 2), m)]
    graphs += [random_graph(rng, rng.randint(6, 8), rng.uniform(0.1, 0.4)) for _ in range(300)]
    seen = set()
    for graph in graphs:
        report = audit_sigma_jump(graph, 2)
        if report["sigma"] != 2:
            assert "shape" not in report
            continue
        star_plus_edge, bipartite_two = _shape_hosts(graph.n)
        want = (brute_graph_contains(star_plus_edge, graph),
                graph.n >= 2 and brute_graph_contains(bipartite_two, graph))
        assert (report["shape"]["in_star_plus_edge"],
                report["shape"]["in_complete_bipartite_two"]) == want, graph
        seen.add((graph.n > 5, want))
    # each answer pair with a no in it occurs among the small and the large graphs
    assert {(large, want) for large in (False, True)
            for want in ((True, False), (False, True))} <= seen


def test_audit_sigma_jump_two_vertex_core():
    # two disjoint paths with 4 edges each: crosscut number 4
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)]
    forest = Graph.from_edges(10, edges)
    assert crosscut_number(forest) == 4
    report = audit_sigma_jump(forest, 9)
    assert report["construction"] == "two-vertex core"
    assert report["edges"] == 2 * comb(7, 2)
    assert report["free"]
