"""Exact containment search and small-instance Turan numbers.

Containment means a copy: an injective vertex map sending every triple
of the pattern onto a triple of the host.  One kernel with one edge rule,
_embeddings, finds copies for contains (contains_expansion is contains on
the expansion), over int bit masks of host vertices.  The Turan routine
maximizes the edge count of a host on n vertices avoiding such a copy,
by lexicographic include/exclude branching over all triples with an
optimistic-count prune, over int bitmasks of the copies it lists by an
orbit walk.  Budgets turn the answer into a flagged lower bound, never a
silently wrong exact value.

The audit helpers compare the guaranteed construction (all triples
meeting a small core exactly once) against exact counts where feasible.
Every ratio they emit is a finite-n observation, deliberately so; nothing
here extrapolates to asymptotics.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations
from math import comb
from operator import itemgetter

from .core import (Budget, BudgetExhausted, Graph, Record, Triple, TripleSystem,
                   canonical_triple)
from .crosscuts import _optimal_pair, expand

EXACT_MAX_N = 6  # the largest n at which audit_forest_bound runs the exact search
# the largest copy listing turan_number builds, in bytes estimated per shape of
# the pattern on its k vertices as the larger of 200 + 8m in the orbit walk (a
# key tuple, an itemgetter and a dict slot) and C(n, k) * (100 + C(n, 3) / 16)
# for its copies (100 bytes each, a margin that keeps the slow P4+ at n = 12
# refused, then a row bit per triple for about half of the lanes); P2+ at
# n = 20 estimates about 40 MB and peaks at 24 MB, P2+ at n = 30 about 760 MB
LISTING_MAX_BYTES = 1 << 28


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


def _host_masks(host: TripleSystem):
    """The host's incidences from one pass over its triples, as (link,
    degree, need): link[x][y], for both orders of every pair inside a
    triple, has the bits of the third vertices completing it, degree[x]
    counts the triples at x, and need[v] is the bit of v's next smaller
    twin (0 for none).  Twins, whose swap is an automorphism, have equal
    link rows, or share a triple and have rows equal once each drops the
    other.  Twins are an equivalence relation of equal degrees, so v is
    compared only with the smallest member of each class of its degree
    found so far."""
    link: dict[int, dict[int, int]] = {}
    degree = [0] * host.n
    for a, b, c in host.edges:
        A, B, C = 1 << a, 1 << b, 1 << c
        la, lb, lc = link.setdefault(a, {}), link.setdefault(b, {}), link.setdefault(c, {})
        la[b], la[c] = la.get(b, 0) | C, la.get(c, 0) | B
        lb[a], lb[c] = lb.get(a, 0) | C, lb.get(c, 0) | A
        lc[a], lc[b] = lc.get(a, 0) | B, lc.get(b, 0) | A
        degree[a] += 1
        degree[b] += 1
        degree[c] += 1
    need = [0] * host.n
    classes: dict[int, list[list[int]]] = {}  # by degree, the classes found so far
    for v, d in enumerate(degree):
        rv = link.get(v, {})
        for cls in classes.setdefault(d, []):
            h = cls[0]
            rh = link.get(h, {})
            if rh != rv and (v not in rh or len(rh) != len(rv) or any(
                    rv.get(y, 0) & ~(1 << h) != m & ~(1 << v) for y, m in rh.items() if y != v)):
                continue
            need[v] = 1 << cls[-1]
            cls.append(v)
            break
        else:
            classes[d].append([v])
    return link, degree, need


def _embeddings(edges, host: TripleSystem):
    """Yield the injective maps of the vertices of the pattern triples into
    range(host.n) sending each triple onto a host triple, up to the twin
    rule below, each as a fresh dict.

    Pattern vertices are placed in descending degree order, each onto
    host vertices in increasing order, so maps come out in lexicographic
    order of their images in placement order; no edges give one map, the
    empty one.  Vertex sets are int masks: the used images, and per level
    its untried candidates, walked low bit first.  The host's link masks
    and degrees come from _host_masks, once per call.  The edge rule: a
    level's pool is its candidates, less the used vertices, ANDed with the
    link masks of the edges it closes; once an edge has one vertex left to
    place, its link mask must hold an unused vertex or the branch dies.
    Neither drops a copy.  A vertex of pattern degree d only goes to host
    vertices of host degree >= d.

    The twin rule: a host vertex h is tried only when need[h], the bit of
    its next smaller twin (0 for none), is used.  Each placed vertex
    passed that test and the last placed is lifted first, so the used
    members of a class are its smallest: the test is that every smaller
    twin is used.  Swapping a vertex with an unused smaller twin is an
    automorphism fixing every used vertex, so its subtree mirrors one
    already searched: a caller stopping at the first map it accepts, by
    tests invariant under host automorphisms, gets the first map of a
    search without the rule.
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
    closing: list[list] = [[] for _ in support]  # the placed levels of each edge a level closes
    short: list[list] = [[] for _ in support]  # the other placed level of each edge left one short
    for e in edges:
        a, b, c = sorted(map(position.__getitem__, e))
        closing[c].append((a, b))
        short[b].append(a)
    link, host_degree, need = _host_masks(host)
    fits = {d: sum(1 << h for h, at in enumerate(host_degree) if at >= d)
            for d in set(degree.values())}
    candidates = [fits[degree[v]] for v in support]

    last = len(support) - 1
    image, pools = [0] * len(support), [0] * len(support)
    pools[0], used, i = candidates[0], 0, 0
    while i >= 0:
        pool, ahead = pools[i], short[i]
        while pool:
            bit = pool & -pool
            pool ^= bit
            h = bit.bit_length() - 1
            if need[h] & ~used:
                continue
            row = link[h]
            for j in ahead:
                if not row.get(image[j], 0) & ~(used | bit):  # no unused vertex can close the edge
                    break
            else:
                image[i] = h
                if i < last:
                    break
                yield dict(zip(support, image))
        else:  # the level is used up: lift the choice below it
            i -= 1
            used ^= 1 << image[i]  # at i = -1 the search ends, whatever used holds
            continue
        pools[i] = pool
        used |= bit
        i += 1
        pool = candidates[i] & ~used
        for a, b in closing[i]:
            pool &= link[image[a]].get(image[b], 0)
        pools[i] = pool


def _contains(host: TripleSystem, pattern: TripleSystem,
              kind: str) -> EmbeddingCertificate | None:
    """The first copy of the pattern in the host, as a certificate of the
    given kind: the search behind contains and contains_expansion."""
    if pattern.n > host.n:
        return None
    found = next(_embeddings(pattern.sorted_edges(), host), None)
    if found is None:
        return None
    taken = set(found.values())  # the vertices outside pattern edges go to the smallest unused
    spare = (h for h in range(host.n) if h not in taken)
    for v in range(pattern.n):
        if v not in found:
            found[v] = next(spare)
    cert = EmbeddingCertificate(found, kind)
    if not cert.check(host, pattern):
        raise RuntimeError("search produced a map that is not a copy of the pattern")
    return cert


def contains(host: TripleSystem, pattern: TripleSystem) -> EmbeddingCertificate | None:
    """First copy of the pattern in the host, or None (exact).

    The edge rule of _embeddings: a triple's last vertex is drawn from the
    host pair neighbourhood of its other two images, which must hold an
    unused vertex once those are placed; a host twin, found on each call
    from the host's link masks, is tried only once its next smaller twin is
    used.  The copy returned is the first in placement order (descending
    pattern degree), as a plain scan's would be.  Pattern vertices outside
    any edge get the smallest unused host vertices, at the end.
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


def lower_bound_construction(n: int, core_size: int) -> TripleSystem:
    """All triples meeting the core {0..core_size-1} in exactly one vertex.

    Any copy of a pattern inside it yields a crosscut of the pattern of
    size at most the core, so patterns whose expansions have a larger
    crosscut number never embed.  Edge count: core_size * C(n-core_size, 2).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
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


def _swap_ranks(rank: dict[Triple, int], k: int) -> list[list[int]]:
    """swaps[j][r]: the rank of the r-th triple of range(k), in rank (its
    position in combinations(range(k), 3)), with j and j + 1 exchanged."""
    return [[rank[tuple(sorted(t))]
             for t in combinations([*range(j), j + 1, j, *range(j + 2, k)], 3)]
            for j in range(k - 1)]


def _holds(pattern: TripleSystem, n: int, budget: Budget) -> tuple[list[Triple], list[int]]:
    """All triples on range(n) in lex order, listed once the listing is not
    refused, and holds: holds[i] has a bit lane for each copy of the pattern
    (with edges, pattern.n <= n) holding the i-th.  It raises BudgetExhausted
    past the deadline, which Budget.tick reads after the shape images, the
    copies lifted and the row bytes turned into ints pass each multiple of
    its cadence.  The orbit walk refuses the listing as soon as its shapes,
    at the larger of their own and their copies' bytes, pass
    LISTING_MAX_BYTES, before any table is built: BudgetExhausted under a
    budget, else a ValueError.

    A copy spans one k-subset of range(n), k the number of vertices in
    pattern edges, as one shape: a copy on range(k), moved by the
    increasing map, which keeps triples in lex order, kept as the ascending
    ranks of its triples.  The shapes are one orbit under the permutations
    of range(k), which the k - 1 adjacent swaps generate, so a walk imaging
    each new shape under each swap's rank table lists them exactly; lifted
    through every k-subset, they list each copy once, with no set of copies
    and no sort.  Each copy's bits are set as it is lifted; none is kept.
    Subsets go in reverse colex order, so row i spans only those with a
    vertex at or above c, the last vertex of triple i, and shapes by last
    rank, highest first: shorter ints deep in the search, which tests sets
    of lanes, so the order never changes an answer."""
    edges = pattern.sorted_edges()
    label = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    k = len(label)
    rank = {t: i for i, t in enumerate(combinations(range(k), 3))}
    swaps = _swap_ranks(rank, k)
    shape_bytes = max(200 + 8 * len(edges), comb(n, k) * (100 + comb(n, 3) / 16))

    def getter(shape):  # itemgetter of one rank would return the bare rank, not a sequence
        return itemgetter(*shape) if len(shape) > 1 else itemgetter(slice(shape[0], shape[0] + 1))

    start = tuple(sorted([rank[label[a], label[b], label[c]] for a, b, c in edges]))
    shapes, todo, count = {start: getter(start)}, [start], 0  # the getter reads images, copies
    while todo:
        get = shapes[todo.pop()]
        for swap in swaps:
            image = tuple(sorted(get(swap)))
            if image not in shapes:
                shapes[image] = getter(image)
                todo.append(image)
        count += len(swaps)
        budget.tick(count, len(swaps))
        if len(shapes) * shape_bytes > LISTING_MAX_BYTES:
            if budget.deadline is None and budget.node_cap is None:
                raise ValueError(f"at least {len(shapes):,} shapes of the pattern on its {k}"
                                 f" vertices, lifted to n = {n}, are too many to list in"
                                 f" {LISTING_MAX_BYTES / 1e6:,.0f} MB")
            raise BudgetExhausted
    triples = list(combinations(range(n), 3))
    index = {t: i for i, t in enumerate(triples)}
    getters = [shapes[shape] for shape in sorted(shapes, key=itemgetter(-1), reverse=True)]
    # a triple ending at c lies only in the first C(n, k) - C(c, k) subsets lifted
    rows = [bytearray(((comb(n, k) - comb(c, k)) * len(getters) + 7) >> 3) for *_, c in triples]
    for count, subset in enumerate(combinations(range(n - 1, -1, -1), k)):
        image = [index[t] for t in combinations(subset[::-1], 3)]
        for lane, get in enumerate(getters, count * len(getters)):
            byte, bit = lane >> 3, 1 << (lane & 7)
            for i in get(image):
                rows[i][byte] |= bit
        budget.tick((count + 1) * len(getters), len(getters))
    done = 0
    for i, row in enumerate(rows):  # in place: each row is freed once its int is built
        rows[i] = int.from_bytes(row, "little")
        done += len(row)
        budget.tick(done, len(row))
    return triples, rows


def turan_number(
    n: int,
    forbidden: TripleSystem,
    *,
    budget_ms: int | None = None,
    budget_nodes: int | None = None,
) -> TuranResult:
    """Maximum edges of a triple system on n vertices with no copy of the
    forbidden pattern.

    Lexicographic include-first branching over all C(n, 3) triples, as a
    loop with the inclusions as its stack (no recursion limit).  A branch
    dies when even taking every remaining triple cannot beat the
    incumbent, and a triple is never included if it completes a copy.
    Each copy (listed by _holds) is one bit lane: holds[i] has the lanes
    of the copies holding triple i, and plane k, for k < m (the pattern
    size), those with at least k of their triples included; plane 0 is
    every lane.  Triple i is not included while it is decided, so it
    completes a copy exactly when plane m-1 & holds[i] is nonzero, and
    including it ORs plane k-1 & holds[i] into plane k from the top down.
    The top two planes are the locals full and near (plane 0, -1, when
    m = 2; at m = 1 full is -1 and refuses every triple), and planes
    1..m-3 a list walked only when m >= 4.  Every test is on a set of
    lanes, so their order never changes a node count, value or witness.

    The bound is one index, limit = len(saved) + total - value <= total,
    moved only by an inclusion (+1, or an improvement exactly when limit
    == total) and a pop (-1); idx is decided while idx < limit.  The pass
    deciding idx is node base + idx (a pop from idx to a saved j adds
    idx - j to base), so a refused triple, which changes nothing, costs
    one comparison and one AND.  Only an inclusion changes the incumbent,
    and the new one counts from the next node, so the budget is read
    before each inclusion for every count due by that next node, and at
    the end node: a stop gives the count and incumbent of a check at
    every node.  On exhaustion the incumbent is returned with exact=False,
    a witnessed lower bound; a deadline passed while listing copies, or a
    listing over the cap under a budget, leaves the empty one (value 0).
    _holds lists the C(n, 3) triples once, after its refusal check: a
    refused call never lists them.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = comb(n, 3)
    budget = Budget(budget_ms, budget_nodes)
    if forbidden.n > n:  # no copy fits
        return TuranResult(n, total, True, tuple(combinations(range(n), 3)), "branch-and-bound", 0)
    if not forbidden.edges:
        raise ValueError("an edgeless pattern that fits is contained in every host")
    top = len(forbidden.edges) - 1
    planes, ks = [-1] + [0] * top, range(top - 3, 0, -1)  # ks: the list's planes above its first
    full, near, rest = planes[top], planes[top - 1], planes[1:top - 1]  # near unread at m = 1
    saved: list[tuple] = []  # (idx, full, near, rest) at each inclusion, idx ascending
    value, best, exact = 0, [], True  # the empty set is free
    idx, limit, base, due = 0, total, 1, 1  # next triple, bound, node base + idx, next check
    triples: list[Triple] = []  # none if the listing is refused or stopped
    try:
        triples, holds = _holds(forbidden, n, budget)
        while True:  # refused nodes, then one that includes, pops or ends
            while idx < limit and full & (held := holds[idx]):  # idx completes a copy
                idx += 1
            if idx < limit:  # include idx
                while base + idx + 1 >= due:  # every count due by the node after it
                    due = budget.check(due)
                saved.append((idx, full, near, rest))
                full |= near & held
                near |= rest[-1] & held if rest else held
                if rest:  # m >= 4: a new list, as the saved one is restored on the pop
                    rest = rest[:]
                    for k in ks:
                        rest[k] |= rest[k - 1] & held
                    rest[0] |= held
                if limit == total:  # len(saved) - 1 == value before: an improvement
                    value, best = len(saved), [entry[0] for entry in saved]
                else:
                    limit += 1
                idx += 1
            elif saved:  # dead end: take the exclude branch of the last inclusion
                j, full, near, rest = saved.pop()
                base += idx - j
                idx, limit = j + 1, limit - 1
            else:
                break
        nodes = base + idx
        while nodes >= due:  # the end node
            due = budget.check(due)
    except BudgetExhausted:
        exact, nodes = False, budget.nodes
    witness = tuple(triples[i] for i in best)
    system = TripleSystem(n, frozenset(witness))
    if contains(system, forbidden) is not None:
        raise RuntimeError("search produced a witness containing the forbidden pattern")
    return TuranResult(n, value, exact, witness, "branch-and-bound", nodes)


def audit_forest_bound(
    forest: Graph,
    ns: Iterable[int],
    *,
    budget_ms: int | None = None,
    budget_nodes: int | None = None,
) -> dict:
    """Compare the one-core-vertex construction against exact counts.

    Per n: the guaranteed edge count (sigma - 1) * C(n - sigma + 1, 2),
    the construction itself with an exact freeness check, and, for n up
    to EXACT_MAX_N, the exact maximum with the ratio to C(n, 2) scaled by
    sigma - 1.  Ratios are finite-n observations only.
    """
    unfit = ValueError("audit expects a forest with at least one edge")
    if not forest.edges:
        raise unfit
    sigma = _optimal_pair(forest, unfit)[0].weight
    ns = sorted(set(ns))
    if ns and ns[0] < 0:
        raise ValueError("n must be nonnegative")
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
            result = turan_number(n, expand(forest).system, budget_ms=budget_ms,
                                  budget_nodes=budget_nodes)
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
    activates the one-vertex core (a full star of triples).  n must be at
    least that core size.  In the latter case the report also records, as
    plain containment data, whether the graph sits inside two graphs on
    its own k = graph.n vertices, where a copy is a bijection: the star at
    0 plus the edge 12, exactly when some vertex misses at most one edge
    (which goes onto 12; missing one needs k >= 3), and the complete
    bipartite graph with sides {0, 1} and the rest, exactly when two
    non-adjacent vertices meet every edge, that is their degrees sum to
    the edge count.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    pair, (adj, *_) = _optimal_pair(graph)
    sigma = pair.weight
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
    if n < core:
        raise ValueError(f"n must be at least the core size {core}, got {n}")
    construction = lower_bound_construction(n, core)
    report["construction"] = "two-vertex core" if core == 2 else "one-vertex core (star of triples)"
    report["edges"] = len(construction.edges)
    report["expected_edges"] = core * comb(n - core, 2)
    report["free"] = contains_expansion(construction, graph) is None
    if sigma == 2:
        m, degree = len(graph.edges), [len(nbrs) for nbrs in adj]
        report["shape"] = {
            "in_star_plus_edge": any(m - d <= 1 for d in degree),
            "in_complete_bipartite_two": any(degree[a] + degree[b] == m
                                             and (a, b) not in graph.edges
                                             for a, b in combinations(range(graph.n), 2)),
        }
    return report
