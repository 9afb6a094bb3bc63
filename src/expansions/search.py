"""Exact containment search and small-instance Turan numbers.

Containment means a copy: an injective vertex map sending every edge of
the pattern onto an edge of the host.  One kernel with one edge rule,
_embeddings, finds copies for contains (contains_expansion is contains on
the expansion), graph_contains and the shapes of the Turan copy listing.
The Turan routine maximizes the edge count of a host on n vertices
avoiding such a copy, by lexicographic include/exclude branching over all
triples with an optimistic-count prune, over int bitmasks of the triples.
Budgets turn the answer into a flagged lower bound, never a silently
wrong exact value.

The audit helpers compare the guaranteed construction (all triples
meeting a small core exactly once) against exact counts where feasible.
Every ratio they emit is a finite-n observation, deliberately so; nothing
here extrapolates to asymptotics.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from itertools import accumulate, chain, combinations, permutations
from math import comb
from operator import itemgetter

from .core import (Budget, BudgetExhausted, Graph, Record, Triple, TripleSystem,
                   _pair_completions, canonical_triple)
from .crosscuts import crosscut_number, expand

EXACT_MAX_N = 6  # the largest n at which audit_forest_bound runs the exact search


class EmbeddingCertificate(Record):
    """Injective vertex map witnessing a copy of a pattern in a host."""

    mapping: dict[int, int]
    kind: str

    def check(self, host: TripleSystem, pattern: TripleSystem) -> bool:
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            return False
        if set(self.mapping) != set(range(pattern.n)):
            return False
        if not all(0 <= h < host.n for h in values):
            return False
        return all(
            canonical_triple(*(self.mapping[v] for v in e)) in host.edges
            for e in pattern.edges
        )


def _embeddings(edges, host_n: int, completions=None, host_degree=None, twin_classes=None,
                pattern_twins=None):
    """Yield every injective map of the vertices of the pattern edges
    (pairs or triples) into range(host_n) sending each edge onto a host
    edge.  completions, keyed by the images of all but one vertex of an
    edge (that image, or the sorted pair), holds the host vertices that
    complete them to a host edge; None accepts every map.

    Pattern vertices are placed in descending degree order, each onto
    host vertices in increasing order, so maps come out in lexicographic
    order of their images in placement order; no edges give one map, the
    empty one.  The edge rule: the vertex closing edges is drawn from the
    completions of their placed images, intersected, and once an edge has
    one vertex left to place, those must hold an unused vertex or the
    branch dies.  Neither drops a copy.  With host_degree, a vertex of
    pattern degree d only goes to host vertices of degree >= d.

    With twin_classes, a host vertex is tried only when its next smaller
    twin is used.  Each placed vertex passed that test and the last placed
    is lifted first, so the used members of a class are its smallest: the
    test is that every smaller twin is used.  Swapping a vertex with an
    unused smaller twin is an automorphism fixing every used vertex, so
    its subtree mirrors one already searched: a caller stopping at the
    first map it accepts, by tests invariant under host automorphisms,
    gets the same first map with or without pruning.  With pattern_twins
    (classes of pattern vertices any two of which swap by a pattern
    automorphism), the members of a class take increasing images: a map
    out of that order is one in order composed with such swaps, so the
    image edge sets are the same and the maps fewer.  The yielded dict is
    live.
    """
    degree: dict[int, int] = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    support = sorted(degree, key=lambda v: (-degree[v], v))
    if not support:
        yield {}
        return
    position = {v: i for i, v in enumerate(support)}
    closing: list[list] = [[] for _ in support]  # placed vertices of the edges each level closes
    short: list[list] = [[] for _ in support]  # ... of the edges left one vertex short there
    if completions is not None:
        for e in edges:
            *placed, v = sorted(e, key=position.__getitem__)
            closing[position[v]].append(placed)
            short[position[placed[-1]]].append(placed)
    candidates = [range(host_n) if host_degree is None
                  else [h for h in range(host_n) if host_degree[h] >= degree[v]]
                  for v in support]
    after = [-1] * len(support)  # level of the previous member of the pattern twin class
    for cls in pattern_twins or ():
        levels = sorted(position[v] for v in cls if v in position)
        for a, b in zip(levels, levels[1:]):
            after[b] = a
    smaller = [-1] * host_n  # the next smaller twin; -1, always used, for none
    for cls in twin_classes or ():
        for g, h in zip(cls, cls[1:]):
            smaller[h] = g

    mapping: dict[int, int] = {}
    used = {-1}
    nothing: frozenset[int] = frozenset()

    def completing(placed):
        if len(placed) == 1:
            return completions[mapping[placed[0]]]
        a, b = mapping[placed[0]], mapping[placed[1]]
        return completions.get((a, b) if a < b else (b, a), nothing)

    last = len(support) - 1
    rest = [iter(candidates[0])] + [None] * last  # untried candidates per level
    i = 0
    while i >= 0:
        v, ahead = support[i], short[i]
        if v in mapping:  # back from the level below: lift this level's choice
            used.discard(mapping.pop(v))
        for h in rest[i]:
            if h in used or smaller[h] not in used:
                continue
            mapping[v] = h
            used.add(h)
            for p in ahead:
                if completing(p) <= used:  # no unused vertex can close the edge
                    break
            else:
                if i < last:
                    break
                yield mapping
            del mapping[v]
            used.discard(h)
        if v in mapping:
            i += 1
            level = candidates[i]
            if closing[i]:
                pools = [completing(p) for p in closing[i]]
                level = sorted(pools[0].intersection(*pools[1:], level))
            rest[i] = iter(level) if after[i] < 0 else \
                filter(mapping[support[after[i]]].__lt__, level)
        else:
            i -= 1


def _fill(mapping: dict[int, int], n: int, host_n: int) -> dict[int, int]:
    """Send the pattern vertices 0..n-1 still unmapped to the smallest
    unused host vertices, in order."""
    full = dict(mapping)
    taken = set(full.values())
    spare = (h for h in range(host_n) if h not in taken)
    for v in range(n):
        if v not in full:
            full[v] = next(spare)
    return full


def _contains(host: TripleSystem, pattern: TripleSystem,
              kind: str) -> EmbeddingCertificate | None:
    """The first copy of the pattern in the host, as a certificate of the
    given kind: the search behind contains and contains_expansion."""
    if pattern.n > host.n:
        return None
    host_degree = [0] * host.n
    for e in host.edges:
        for h in e:
            host_degree[h] += 1
    found = next(_embeddings(pattern.sorted_edges(), host.n, _pair_completions(host.edges),
                             host_degree, host.twin_classes), None)
    if found is None:
        return None
    cert = EmbeddingCertificate(_fill(found, pattern.n, host.n), kind)
    if not cert.check(host, pattern):
        raise RuntimeError("search produced a map that is not a copy of the pattern")
    return cert


def contains(host: TripleSystem, pattern: TripleSystem) -> EmbeddingCertificate | None:
    """First copy of the pattern in the host, or None (exact).

    The edge rule of _embeddings: a triple's last vertex is drawn from the
    host pair neighbourhood of its other two images, which must hold an
    unused vertex once those are placed; a host twin is tried only once
    its next smaller twin is used.  The copy returned is the first in
    placement order (descending pattern degree), as a plain scan's would
    be.  Pattern vertices outside any edge get the smallest unused host
    vertices, at the end.
    """
    return _contains(host, pattern, "generic")


def contains_expansion(host: TripleSystem, base: Graph) -> EmbeddingCertificate | None:
    """Copy of the expansion of a graph in the host, or None (exact):
    contains(host, expand(base).system), the same map, in a certificate of
    kind "expansion".  Each enlargement vertex is drawn from the pair
    neighbourhood of its base edge's images.  In a core construction the
    vertices outside the core are all twins, so the twin rule keeps its
    freeness proofs fast.
    """
    return _contains(host, expand(base).system, "expansion")


def graph_contains(host: Graph, pattern: Graph) -> bool:
    """Copy of a graph pattern inside a graph host (exact, boolean); the
    same search and twin pruning as contains, drawing from the host
    adjacency."""
    if pattern.n > host.n:
        return False
    adj = host.adjacency
    host_degree = [len(adj[h]) for h in range(host.n)]
    return next(_embeddings(pattern.sorted_edges(), host.n, adj, host_degree,
                            host.twin_classes), None) is not None


def lower_bound_construction(n: int, core_size: int) -> TripleSystem:
    """All triples meeting the core {0..core_size-1} in exactly one vertex.

    Any copy of a pattern inside it yields a crosscut of the pattern of
    size at most the core, so patterns whose expansions have a larger
    crosscut number never embed.  Edge count: core_size * C(n-core_size, 2).
    """
    if not (0 <= core_size <= n):
        raise ValueError("core size must be between 0 and n")
    return TripleSystem(n, frozenset((c, x, y) for c in range(core_size)
                                     for x, y in combinations(range(core_size, n), 2)))


class TuranResult(Record):
    """Outcome of the forbidden-pattern edge-maximization search."""

    n: int
    value: int
    exact: bool
    witness: tuple[Triple, ...]
    method: str
    nodes: int

    def as_dict(self) -> dict:
        return {**vars(self), "witness": [list(e) for e in self.witness]}


def _triple_index(n: int) -> list:
    """index[a][b][c] is the position of {a, b, c}, in any order, in
    combinations(range(n), 3): n^3 small ints, not C(n, 3)^2 bits."""
    index = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, t in enumerate(combinations(range(n), 3)):
        for a, b, c in permutations(t):
            index[a][b][c] = i
    return index


def _holds(pattern: TripleSystem, n: int, budget: Budget) -> list[int]:
    """holds[i] has a bit lane for each copy of the pattern (with edges,
    pattern.n <= n) in the complete triple system on n vertices holding the
    i-th triple of combinations(range(n), 3).  It raises BudgetExhausted
    past the deadline, read every 1,024 shape maps and every 1,024 subsets.

    A copy spans one k-subset of range(n), k the number of vertices in
    pattern edges, as one shape: a copy on range(k), moved by the
    increasing map, which keeps triples in lex order.  The shapes are the
    maps _embeddings lists at n = k, pattern twins taking increasing
    images, each kept once as the ascending ranks of its triples; lifted
    through every k-subset, they list each copy once, with no set and no
    sort.  Lanes go by last triple, highest first, so holds[i] spans only
    the copies ending at or after i: shorter ints for the search, which
    tests sets of lanes, so the order never changes an answer."""
    edges = pattern.sorted_edges()
    k = len({v for e in edges for v in e})
    rank, shapes = _triple_index(k), set()
    for count, at in enumerate(_embeddings(edges, k, pattern_twins=pattern.twin_classes), 1):
        if count % 1024 == 0 and budget.expired():
            raise BudgetExhausted
        shapes.add(tuple(sorted([rank[at[a]][at[b]][at[c]] for a, b, c in edges])))
    # itemgetter of one rank would return the bare triple index, not a sequence
    getters = [itemgetter(*s) if len(s) > 1 else itemgetter(slice(s[0], s[0] + 1)) for s in shapes]
    index, ending = _triple_index(n), defaultdict(list)  # the copies by last triple
    for count, subset in enumerate(combinations(range(n), k), 1):
        if count % 1024 == 0 and budget.expired():
            raise BudgetExhausted
        image = [index[a][b][c] for a, b, c in combinations(subset, 3)]
        for get in getters:
            copy = get(image)
            ending[copy[-1]].append(copy)
    # the lanes of the copies ending at or after triple i are those below bound i
    bounds = accumulate(len(ending.get(i, ())) for i in reversed(range(comb(n, 3))))
    rows = [bytearray((lanes + 7) >> 3) for lanes in bounds][::-1]
    ordered = (ending.pop(last) for last in sorted(ending, reverse=True))
    for lane, copy in enumerate(chain.from_iterable(ordered)):
        byte, bit = lane >> 3, 1 << (lane & 7)
        for i in copy:
            rows[i][byte] |= bit
    for i, row in enumerate(rows):  # in place: each row is freed once its int is built
        rows[i] = int.from_bytes(row, "little")
    return rows


def turan_number(
    n: int,
    forbidden: TripleSystem,
    budget_ms: int | None = None,
    budget_nodes: int | None = None,
) -> TuranResult:
    """Maximum edges of a triple system on n vertices with no copy of the
    forbidden pattern.

    Lexicographic include-first branching over all C(n, 3) triples, as a
    loop with the included indices as its stack (no recursion limit).  A
    branch dies when even taking every remaining triple cannot beat the
    incumbent, and a triple is never included if it completes a copy.
    Each copy (listed by _holds) is one bit lane: holds[i] has the lanes
    of the copies holding triple i, and planes[k], for k < m (the pattern
    size), those with at least k of their triples included.  Plane 0 is
    every lane, so including i ORs holds[i] into planes[1] and
    planes[k-1] & holds[i] into planes[k] for k from the top plane down
    to 2; popping it restores the saved planes.  Triple i is not included
    while it is decided, so including it completes a copy exactly when
    planes[m-1] & holds[i] is nonzero, and no copy ever reaches m: a
    per-copy count of included triples, kept for every copy at once.
    Every test is on a set of lanes, so their order, chosen for speed,
    never changes a node count, a value or a witness.

    The bound is one index, limit = min(total, depth + total - value):
    triple idx is decided only while idx < limit.  It is recomputed only
    where it can change (an improvement, an inclusion, a pop), so a
    refused triple costs the node count, three comparisons and one AND.
    The budget is consulted only at its checkpoints (Budget.next_check).
    On exhaustion the incumbent is returned with exact=False: a witnessed
    lower bound; a deadline passed while listing copies leaves the empty
    one (value 0).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    all_triples = list(combinations(range(n), 3))
    total = len(all_triples)
    budget = Budget(budget_ms, budget_nodes)
    if forbidden.n > n:  # no copy fits
        return TuranResult(n, total, True, tuple(all_triples), "branch-and-bound", 0)
    if not forbidden.edges:
        raise ValueError("an edgeless pattern that fits is contained in every host")
    top = len(forbidden.edges) - 1
    planes, ks = [-1] + [0] * top, range(top, 1, -1)
    full = planes[top]  # the lanes one triple short of a copy; -1 when m = 1
    saved: list[list[int]] = []  # the planes before each inclusion
    chosen: list[int] = []  # the included indices, ascending
    value, best, exact = 0, [], True  # the empty set is free
    nodes, due = 0, budget.next_check(0)
    idx, depth, limit = 0, 0, total  # next triple to decide, len(chosen), the bound
    try:
        holds = _holds(forbidden, n, budget)
        while True:  # each pass is one node
            nodes += 1
            if nodes >= due:
                due = budget.check(nodes)
            if depth > value:
                value, best, limit = depth, chosen[:], total
            if idx < limit:
                if full & holds[idx]:  # including idx completes a copy
                    idx += 1
                    continue
                # a one-triple pattern refuses every triple, so here m >= 2
                saved.append(planes[:])
                held = holds[idx]
                for k in ks:
                    planes[k] |= planes[k - 1] & held
                planes[1] |= held
                full = planes[top]
                chosen.append(idx)
                depth += 1
                limit += 1
                if limit > total:
                    limit = total
            elif depth:  # dead end: take the exclude branch of the last inclusion
                idx = chosen.pop()
                planes = saved.pop()
                full = planes[top]
                depth -= 1
                limit = depth + total - value  # below total: depth < value here
            else:
                break
            idx += 1
    except BudgetExhausted:
        exact = False
    witness = tuple(all_triples[i] for i in best)
    system = TripleSystem(n, frozenset(witness))
    if contains(system, forbidden) is not None:
        raise RuntimeError("search produced a witness containing the forbidden pattern")
    return TuranResult(n, value, exact, witness, "branch-and-bound", nodes)


def audit_forest_bound(
    forest: Graph,
    ns: Iterable[int],
    budget_ms: int | None = None,
    budget_nodes: int | None = None,
) -> dict:
    """Compare the one-core-vertex construction against exact counts.

    Per n: the guaranteed edge count (sigma - 1) * C(n - sigma + 1, 2),
    the construction itself with an exact freeness check, and, for n up
    to EXACT_MAX_N, the exact maximum with the ratio to C(n, 2) scaled by
    sigma - 1.  Ratios are finite-n observations only.
    """
    if not forest.is_forest():
        raise ValueError("audit expects a forest")
    ns = sorted(set(ns))
    if ns and ns[0] < 0:
        raise ValueError("n must be nonnegative")
    sigma = crosscut_number(forest)
    core = sigma - 1
    rows = []
    for n in ns:
        row: dict = {"n": n}
        if core > n:
            row["note"] = "core exceeds n; construction undefined"
            rows.append(row)
            continue
        bound = core * comb(n - core, 2)
        construction = lower_bound_construction(n, core)
        row["bound"] = bound
        row["construction_edges"] = len(construction.edges)
        row["count_matches"] = len(construction.edges) == bound
        row["free"] = contains_expansion(construction, forest) is None
        if n <= EXACT_MAX_N:
            result = turan_number(n, expand(forest).system, budget_ms, budget_nodes)
            row["turan"] = {"value": result.value, "exact": result.exact}
            denom = core * comb(n, 2)
            row["ratio"] = result.value / denom if denom else None
        else:
            row["turan"] = None
            row["ratio"] = None
        rows.append(row)
    return {
        "sigma": sigma,
        "core_size": core,
        "note": "descriptive finite-n ratios; no asymptotic claim",
        "rows": rows,
    }


def audit_sigma_jump(graph: Graph, n: int) -> dict:
    """Construction dictated by the crosscut number of the expansion.

    Crosscut number at least 3 activates the two-vertex core; exactly 2
    activates the one-vertex core (a full star of triples).  In the
    latter case the report also records, as plain containment data,
    whether the graph sits inside the star-plus-one-edge graph or inside
    the complete bipartite graph with a side of two.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    sigma = crosscut_number(graph)
    report: dict = {
        "sigma": sigma,
        "n": n,
        "note": "descriptive finite-n report; no asymptotic claim",
    }
    if sigma < 2:
        report["construction"] = None
        report["detail"] = "expansion has a crosscut of size at most 1; no core construction"
        return report
    core = 2 if sigma >= 3 else 1
    construction = lower_bound_construction(n, core)
    report["construction"] = "two-vertex core" if core == 2 else "one-vertex core (star of triples)"
    report["edges"] = len(construction.edges)
    report["expected_edges"] = core * comb(n - core, 2)
    report["free"] = contains_expansion(construction, graph) is None
    if sigma == 2:
        k = graph.n
        star_plus_edge = [(0, i) for i in range(1, k)] + ([(1, 2)] if k >= 3 else [])
        bipartite_two = [(a, b) for a in (0, 1) for b in range(2, k)]
        report["shape"] = {
            "in_star_plus_edge": graph_contains(Graph.from_edges(k, star_plus_edge), graph),
            "in_complete_bipartite_two":
                k >= 2 and graph_contains(Graph.from_edges(k, bipartite_two), graph),
        }
    return report
