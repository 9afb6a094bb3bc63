"""Expansions of graphs and exact crosscut computations.

The expansion of a graph G is the triple system with one triple per edge,
obtained by adding a fresh enlargement vertex to that edge.  A crosscut of
a triple system is a vertex set meeting every edge exactly once; the
crosscut number of an expansion decomposes over the base graph as

    min over independent sets I of  |I| + #{edges disjoint from I},

so crosscut searches on expansions run on the base graph directly.  Both
the hypergraph search and the base-graph search here are exact and
deterministic; the hypergraph one doubles as the oracle for the other.
The base-graph search is one DP along a peel of the graph that sets a
feedback vertex set F aside.  That peel is the module's one pass over a
graph: F is empty exactly on forests, and a forest's roots and depths give
its components and sides, so every routine here that reads a graph works
from one peel and builds the neighbour lists once.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress

from .core import Edge, Graph, Record, Triple, TripleSystem, canonical_edge


class Expansion(Record):
    """A graph's expansion triple system and each edge's enlargement vertex.

    Enlargement vertices are assigned in sorted edge order: on a graph of n
    vertices the i-th edge receives vertex n + i, so the layout is reproducible.
    """

    system: TripleSystem
    enlargement: dict[Edge, int]


def expand(graph: Graph) -> Expansion:
    edges = graph.sorted_edges()
    enlargement = {e: graph.n + i for i, e in enumerate(edges)}
    triples = frozenset((u, v, enlargement[(u, v)]) for u, v in edges)
    return Expansion(TripleSystem(graph.n + len(edges), triples), enlargement)


def min_crosscut(system: TripleSystem) -> tuple[int, frozenset[int]] | None:
    """Smallest vertex set meeting every edge exactly once, or None.

    A crosscut meets each connected component of the system on its own,
    so each is solved alone: the size is the sum, the witness the union,
    and None if any component has none.  Per component, exact
    backtracking: branch on the first uncovered edge, over its vertices in
    order; choosing a vertex covers its edges and forbids every vertex
    sharing an edge with it, as a second chosen vertex in a covered edge
    would break exactness.  So a vertex still allowed has no covered edge,
    and a choice covers exactly its own edges.  A search state is two int
    masks, covered edges (bit i for the i-th edge) and forbidden vertices,
    with the chosen count and the chosen vertices as a linked pair
    (v, rest).  One stack holds the states, children pushed last vertex
    first: depth-first, with nothing to undo and no recursion limit.  Of
    the crosscuts of minimum size, the first one the branching meets is
    returned; the branching meets a component's decisions in the same
    order with or without the others, so that is the union of the
    components' first ones.  A branch is cut when its chosen vertices plus
    a greedy set of pairwise disjoint uncovered edges, each needing its
    own further vertex, reach the incumbent size: such a branch holds no
    smaller crosscut, so the cut never changes the result.
    """
    n, edges = system.n, system.sorted_edges()
    root = list(range(n))  # union-find over the vertices, for the components
    for a, b, c in edges:
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        while root[c] != c:
            root[c] = c = root[root[c]]
        root[b] = root[c] = a
    parts: dict[int, list[Triple]] = {}  # the edges of each component, by its root
    at = [0] * n  # the edges at each vertex, by their index in its component
    near = [0] * n  # the vertices sharing an edge with each vertex, itself included
    for e in edges:
        a = e[0]
        while root[a] != a:
            root[a] = a = root[root[a]]
        part = parts.setdefault(a, [])
        bit, span = 1 << len(part), (1 << e[0]) | (1 << e[1]) | (1 << e[2])
        part.append(e)
        for v in e:
            at[v] |= bit
            near[v] |= span

    size, witness = 0, []
    for part in parts.values():
        everything = (1 << len(part)) - 1
        best, first = None, None  # the incumbent size and its chosen vertices
        stack: list[tuple[int, int, int, tuple | None]] = [(0, 0, 0, None)]
        while stack:
            covered, forbidden, count, chosen = stack.pop()
            if covered == everything:
                # keep the first witness found at each size; later equal-size
                # solutions must not displace it
                if best is None or count < best:
                    best, first = count, chosen
                continue
            left = bin(everything ^ covered)[:1:-1]  # character i is "1" when edge i is uncovered
            if best is not None:  # greedy pairwise disjoint uncovered edges, up to the cut
                limit, seen, disjoint = best - count, set(), 0
                for e in compress(part, map("1".__eq__, left)):
                    if seen.isdisjoint(e):
                        seen.update(e)
                        disjoint += 1
                        if disjoint >= limit:
                            break
                if disjoint >= limit:
                    continue
            for v in reversed(part[left.index("1")]):
                if not forbidden >> v & 1:
                    stack.append((covered | at[v], forbidden | near[v], count + 1, (v, chosen)))
        if best is None:
            return None
        size, chosen = size + best, first
        while chosen is not None:
            v, chosen = chosen
            witness.append(v)
    return (size, frozenset(witness))


class CrosscutPair(Record):
    """An independent set I with the edges R the base graph leaves disjoint from it.

    The pair weight |I| + |R| equals the crosscut number of the expansion
    when the pair is optimal.
    """

    independent: frozenset[int]
    uncovered: frozenset[Edge]

    @property
    def weight(self) -> int:
        return len(self.independent) + len(self.uncovered)

    def as_dict(self) -> dict:
        """The sigma report: the weight, then I and R sorted."""
        return {"sigma": self.weight, "I": sorted(self.independent),
                "R": [list(e) for e in sorted(self.uncovered)]}

    @staticmethod
    def of(graph: Graph, independent: Iterable[int]) -> "CrosscutPair":
        ind, uncovered = frozenset(independent), []
        for e in graph.edges:
            if e[0] not in ind:
                if e[1] not in ind:
                    uncovered.append(e)
            elif e[1] in ind:
                raise ValueError(f"set is not independent: contains edge {e}")
        return CrosscutPair(ind, frozenset(uncovered))


def best_crosscut_pair(graph: Graph) -> CrosscutPair:
    """Optimal crosscut pair of a graph: minimum weight, then maximum |I|,
    then lexicographically smallest I.

    One DP serves every graph, on the identity weight = m - sum over v
    in I of (deg v - 1).  Per independent subset of a feedback vertex set,
    empty on forests, it makes O(n + m) additions of ints of n + O(log n)
    bits, in O(n) words plus the costs waiting in parents' accumulators.
    """
    return _optimal_pair(graph)[0]


def _peel(graph: Graph, error: Exception | None = None, tree: int = 0) -> tuple:
    """The module's one pass over a graph: its neighbour lists, then a peel of
    vertices of degree at most 1, each before its parent, its one remaining
    neighbour; when none is left, a vertex of maximum remaining degree
    (smallest on ties) joins F and the trees peeled into it become roots.
    Given an error, the peel raises it rather than fill F, and, when a tree on
    at least `tree` vertices is required, when m != n - 1 or n < tree.
    Returns (lists, order, parent, F)."""
    n = graph.n
    if tree and (len(graph.edges) != n - 1 or n < tree):
        raise error
    adj = graph.neighbours()
    degree = [len(nbrs) for nbrs in adj]
    parent = list(range(n))
    order, feedback = [], []
    stack = [v for v in range(n) if degree[v] <= 1]
    while len(order) + len(feedback) < n:
        if stack:
            v = stack.pop()
            order.append(v)
        elif error is not None:
            raise error
        else:
            # a removed vertex has degree -1; max keeps the first of equals
            v = max(range(n), key=degree.__getitem__)
            feedback.append(v)
            for u in adj[v]:
                if parent[u] == v:
                    parent[u] = u
        degree[v] = -1
        for u in adj[v]:
            if degree[u] >= 0:
                parent[v] = u
                degree[u] -= 1
                if degree[u] == 1:
                    stack.append(u)
    return adj, order, parent, feedback


def _roots(order: list[int], parent: list[int]) -> tuple[list[int], list[int]]:
    """Each vertex's root and side, the parity of its depth, pushed down the
    reverse peel order of a forest; a root is its own parent."""
    root, side = list(range(len(parent))), [0] * len(parent)
    for v in reversed(order):
        p = parent[v]
        if p != v:
            root[v], side[v] = root[p], side[p] ^ 1
    return root, side


def _optimal_pair(graph: Graph, error: Exception | None = None, tree: int = 0) -> tuple:
    """The optimal crosscut pair, checked by CrosscutPair.of, and the peel its
    two-state DP ran on (error and tree go to _peel): the one route to sigma.

    For an independent set I, the edges meeting I number the sum of the
    degrees over I, so the pair weight is m - sum over v in I of
    (deg v - 1): a maximum-weight independent set with vertex weights
    deg v - 1 and no edge terms.  The peel, the module's one pass over the
    graph, orders the forest G - F with each vertex before its parent; its
    F is empty exactly on forests.  For each independent subset S of F, one
    pass along that order keeps the cost of each subtree with its root
    inside or outside I, and pushes both into accumulators at the parent; a
    neighbour of S cannot enter I.  The whole tie-break is one additive
    integer cost per vertex of I,

        in_term(v) = ((1 - deg v) * (n + 1) - 1) * 2**n - 2**(n - 1 - v),

    whose sum is, up to the constant m * (n + 1) * 2**n,
    (weight * (n + 1) - |I|) * 2**n - mask with the mask the sum of the
    2**(n - 1 - v).  It is ordered like (weight, -|I|, -mask): |I| <= n
    and the mask is below 2**n.  For two sets of equal size, the sorted
    one that is lexicographically smaller holds the smallest vertex of
    their symmetric difference, which is the larger mask.  Distinct sets
    have distinct costs, so neither F nor the rooting changes the optimum,
    and the top-down reconstruction never meets a tie.  A vertex keeps
    only the small int (1 - deg v) * (n + 1) - 1, and in_term is built from
    it where it is used; each independent subset of F carries its summed
    in_term, and F's vertices set their bits in their neighbours' masks.
    """
    peel = _peel(graph, error, tree)
    adj, order, parent, feedback = peel
    n = len(adj)
    small = [(1 - len(nbrs)) * (n + 1) - 1 for nbrs in adj]
    f_nbrs = [0] * n  # bit i is set at each neighbour of the i-th vertex of F
    labels = [(0, 0)]  # the independent subsets of F, each with its summed in_term
    for i, f in enumerate(feedback):
        for u in adj[f]:
            f_nbrs[u] |= 1 << i
        term = (small[f] << n) - (1 << n - 1 - f)
        labels += [(s | 1 << i, cost + term) for s, cost in labels if not s & f_nbrs[f]]
    acc_in, acc_out = [0] * n, [0] * n
    best = None
    for s, total in labels:
        take = [False] * n
        for v in order:
            # a neighbour of S stays out of I
            cout = acc_out[v]
            cin = cout if f_nbrs[v] & s else (small[v] << n) - (1 << n - 1 - v) + acc_in[v]
            acc_in[v] = acc_out[v] = 0
            take[v] = cin < cout
            low = cin if take[v] else cout
            p = parent[v]
            if p == v:
                total += low
            else:
                acc_in[p] += cout
                acc_out[p] += low
        if best is None or total < best[0]:
            best = (total, s, take)

    _, s, take = best
    inside = [False] * n
    for i, f in enumerate(feedback):
        inside[f] = bool(s >> i & 1)
    # a root is its own parent, and outside F it starts outside I
    for v in reversed(order):
        inside[v] = take[v] and not inside[parent[v]]
    return CrosscutPair.of(graph, compress(range(n), inside)), peel


def crosscut_number(graph: Graph) -> int:
    """Crosscut number of the expansion of a graph."""
    return best_crosscut_pair(graph).weight


def tree_crosscut_number(tree: Graph) -> int:
    """Crosscut number of a tree's expansion: the weight of its optimal pair."""
    return _optimal_pair(tree, ValueError("input must be a tree"), tree=1)[0].weight


def _forest_lambda(degree: Iterable[int], root: list[int], side: list[int]) -> int:
    """Lambda of a forest from each vertex's degree, tree root and side;
    vertices of degree 0 add zero and are skipped."""
    parts: dict[int, list[int]] = {}  # per edge-bearing tree: side sizes, then 1 if a side has a leaf
    for v, d in enumerate(degree):
        if d:
            part = parts.setdefault(root[v], [0, 0, 0, 0])
            part[side[v]] += 1
            part[2 + side[v]] |= d == 1
    total = 0
    for size0, size1, leaf0, leaf1 in parts.values():
        # the smaller part, less one if it has a leaf: a larger part is bigger by
        # one at least, and both parts of an evenly split tree contain a leaf
        if size0 == size1 and not (leaf0 and leaf1):
            raise RuntimeError("evenly split tree bipartition missing a leaf on one side")
        total += min(size0 - leaf0, size1 - leaf1)
    return total


def tree_lambda(tree: Graph) -> int:
    """Size of the smaller bipartition part, discounted by one if it has a leaf."""
    adj, order, parent, _ = _peel(tree, ValueError("input must be a tree"), tree=1)
    return _forest_lambda(map(len, adj), *_roots(order, parent))


def forest_lambda(forest: Graph) -> int:
    """Sum of the tree values over components; isolated vertices, which add zero, are skipped."""
    adj, order, parent, _ = _peel(forest, ValueError("input must be a forest"))
    return _forest_lambda(map(len, adj), *_roots(order, parent))


def complete_forest_to_tree(forest: Graph) -> Graph:
    """Extend a forest to a tree on the same vertices, preserving the
    crosscut number of the expansion.

    Consecutive edge-bearing components are joined by an edge from a
    non-independent vertex of one into the independent set of the next, so
    every joining edge is already covered.  Isolated vertices then attach
    to an independent vertex for the same reason.  A forest with two or
    more vertices but no edges has crosscut number 0, which no tree on
    those vertices can match, so that case is rejected.
    """
    return _complete_forest_to_tree(forest)[0]


def _complete_forest_to_tree(forest: Graph) -> tuple[Graph, int]:
    """complete_forest_to_tree's tree, with the crosscut number it keeps."""
    pair, (adj, order, parent, _) = _optimal_pair(forest, ValueError("input must be a forest"))
    n = forest.n
    if n <= 1 or len(forest.edges) == n - 1:  # a forest with n - 1 edges is a tree
        return forest, pair.weight
    if not forest.edges:
        raise ValueError(
            "an edgeless forest on 2+ vertices cannot extend to a tree "
            "with the same crosscut number")

    # weight and |I| add over components, so the forest's optimal pair
    # restricts to an optimal pair of each component
    root = _roots(order, parent)[0]
    joints: dict[int, list] = {}  # per edge-bearing tree: least vertex outside I, then inside I
    for v in reversed(range(n)):
        if adj[v]:
            joints.setdefault(root[v], [None, None])[v in pair.independent] = v
    if any(inner is None for _, inner in joints.values()):
        raise RuntimeError("optimal pair of an edge-bearing tree has empty independent set")

    new_edges = set(forest.edges)
    ends = sorted(joints.values(), key=min)  # the trees by smallest member
    for (outer, _), (_, inner) in zip(ends, ends[1:]):
        new_edges.add(canonical_edge(outer, inner))
    anchor = min(pair.independent)
    new_edges.update(canonical_edge(anchor, z) for z in range(n) if not adj[z])

    tree = Graph(n, frozenset(new_edges))  # the self-check's peel also proves it a tree
    after = _optimal_pair(tree, RuntimeError("completion did not produce a tree"), tree=1)[0].weight
    if pair.weight != after:
        raise RuntimeError(f"completion changed the crosscut number: {pair.weight} -> {after}")
    return tree, after


def crosscut_audit(tree: Graph) -> dict:
    """Structural report on the optimal max-|I| crosscut pair of a tree.

    Writing the crosscut number as ell + 1, the audited facts are: at most
    ell/2 uncovered edges, no pendant edge uncovered, and every vertex of
    an uncovered edge has tree-degree at most ell minus the bipartition
    weight of the uncovered forest R.  R is weighed on the tree's own peel,
    with no second graph.
    """
    pair, (adj, order, parent, _) = _optimal_pair(
        tree, ValueError("audit requires a tree with at least one edge"), tree=2)
    ell = pair.weight - 1
    r_edges = sorted(pair.uncovered)
    # each tree edge joins a vertex to its peel parent, so R's peel is the
    # tree's with the parent links outside R cut
    r_degree, r_parent = [0] * tree.n, list(range(tree.n))
    for u, v in r_edges:
        r_degree[u] += 1
        r_degree[v] += 1
        child = v if parent[v] == u else u
        r_parent[child] = parent[child]
    lam = _forest_lambda(r_degree, *_roots(order, r_parent))
    degree_bound = ell - lam
    pendant_hits = [e for e in r_edges if len(adj[e[0]]) == 1 or len(adj[e[1]]) == 1]
    top = max((len(adj[v]) for v in compress(range(tree.n), r_degree)), default=0)
    checks = [{
        "name": "uncovered_edge_count",
        "pass": len(r_edges) <= ell / 2,
        "detail": f"|R| = {len(r_edges)}, bound ell/2 = {ell / 2}",
    }, {
        "name": "no_pendant_uncovered",
        "pass": not pendant_hits,
        "detail": "R avoids all pendant edges" if not pendant_hits
                  else f"pendant edges uncovered: {pendant_hits}",
    }, {
        "name": "uncovered_degree_bound",
        "pass": top <= degree_bound,  # an empty R passes, as lambda is then 0 and ell >= 0
        "detail": f"max tree-degree on R vertices {top}, "
                  f"bound ell - lambda = {degree_bound}" if r_edges
                  else "R is empty; bound is vacuous",
    }]
    return {**pair.as_dict(), "lambda": lam, "checks": checks}
