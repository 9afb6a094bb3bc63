"""Expansions of graphs and exact crosscut computations.

The expansion of a graph G is the triple system with one triple per edge,
obtained by adding a fresh enlargement vertex to that edge.  A crosscut of
a triple system is a vertex set meeting every edge exactly once; the
crosscut number of an expansion decomposes over the base graph as

    min over independent sets I of  |I| + #{edges disjoint from I},

so crosscut searches on expansions run on the base graph directly.  Both
the hypergraph search and the base-graph search here are exact and
deterministic; the hypergraph one doubles as the oracle for the other.
The base-graph search is one two-state DP on the forest left after
removing a feedback vertex set F, run once per independent subset of F
that may join I.  It is linear on forests, exponential only in |F|, and
applies the tie-break (maximum |I|, then lexicographically smallest I).
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import Edge, Graph, Record, TripleSystem, canonical_edge


class Expansion(Record):
    """A graph together with its expansion triple system.

    Enlargement vertices are assigned in sorted edge order: the i-th edge
    receives vertex base.n + i, so the layout is reproducible.
    """

    base: Graph
    system: TripleSystem
    enlargement: dict[Edge, int]


def expand(graph: Graph) -> Expansion:
    edges = graph.sorted_edges()
    enlargement = {e: graph.n + i for i, e in enumerate(edges)}
    triples = frozenset((u, v, enlargement[(u, v)]) for u, v in edges)
    return Expansion(graph, TripleSystem(graph.n + len(edges), triples), enlargement)


def min_crosscut(system: TripleSystem) -> tuple[int, frozenset[int]] | None:
    """Smallest vertex set meeting every edge exactly once, or None.

    Exact backtracking: branch on the first uncovered edge; choosing a
    vertex covers its edges and permanently forbids their other vertices
    (a second chosen vertex in a covered edge would break exactness).  Of
    the crosscuts of minimum size, the first one the branching meets is
    returned.  A branch is cut when its chosen vertices plus a greedy set
    of pairwise disjoint uncovered edges, each needing its own further
    vertex, reach the incumbent size: such a branch holds no smaller
    crosscut, so the cut never changes the result.  The branching is a
    loop with one frame per chosen vertex, so no recursion limit applies.
    """
    edges = system.sorted_edges()
    if not edges:
        return (0, frozenset())
    m = len(edges)
    edges_at: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        for v in e:
            edges_at.setdefault(v, []).append(i)

    covered = [False] * m
    forbidden: dict[int, int] = {}
    chosen: list[int] = []
    # one frame per chosen vertex: [branching edge, next position in it,
    # edges the chosen vertex newly covered]
    frames: list[list] = []
    num_covered = 0
    best: tuple[int, tuple[int, ...]] | None = None

    def disjoint_uncovered(limit: int) -> int:
        """Greedy count of pairwise disjoint uncovered edges, up to limit."""
        seen: set[int] = set()
        count = 0
        for i in range(m):
            if not covered[i] and seen.isdisjoint(edges[i]):
                seen.update(edges[i])
                count += 1
                if count >= limit:
                    break
        return count

    while True:
        if num_covered == m:
            # keep the first witness found at each size; later equal-size
            # solutions must not displace it
            if best is None or len(chosen) < best[0]:
                best = (len(chosen), tuple(chosen))
        elif best is None or len(chosen) + disjoint_uncovered(best[0] - len(chosen)) < best[0]:
            frames.append([next(i for i in range(m) if not covered[i]), 0, None])
        # undo the last choice and take its next sibling, popping exhausted frames
        while frames:
            frame = frames[-1]
            target, pos, newly = frame
            if newly is not None:
                v = chosen.pop()
                num_covered -= len(newly)
                for i in newly:
                    covered[i] = False
                    for u in edges[i]:
                        if u != v:
                            forbidden[u] -= 1
            while pos < 3 and forbidden.get(edges[target][pos], 0):
                pos += 1
            if pos == 3:
                frames.pop()
                continue
            v = edges[target][pos]
            newly = [i for i in edges_at[v] if not covered[i]]
            for i in newly:
                covered[i] = True
                for u in edges[i]:
                    if u != v:
                        forbidden[u] = forbidden.get(u, 0) + 1
            chosen.append(v)
            num_covered += len(newly)
            frame[1], frame[2] = pos + 1, newly
            break
        else:
            break
    if best is None:
        return None
    size, witness = best
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

    @staticmethod
    def of(graph: Graph, independent: Iterable[int]) -> "CrosscutPair":
        ind = frozenset(independent)
        for u, v in graph.edges:
            if u in ind and v in ind:
                raise ValueError(f"set is not independent: contains edge {(u, v)}")
        uncovered = frozenset(e for e in graph.edges if e[0] not in ind and e[1] not in ind)
        return CrosscutPair(ind, uncovered)


def best_crosscut_pair(graph: Graph) -> CrosscutPair:
    """Optimal crosscut pair of a graph: minimum weight, then maximum |I|,
    then lexicographically smallest I.

    One DP serves every graph.  It takes O(n + m) time per independent
    subset of a feedback vertex set, so it is exponential only in that
    set, which is empty on forests.
    """
    return CrosscutPair.of(graph, _optimal_independent_set(graph))


def _optimal_independent_set(graph: Graph) -> list[int]:
    """The independent set of the optimal crosscut pair, by a two-state DP.

    Peeling vertices of degree at most 1, and moving a vertex of maximum
    remaining degree (smallest on ties) into F when none is left, orders
    the forest G - F so that each vertex comes before its one remaining
    neighbour, its parent.  For each independent subset S of F, the DP
    keeps the cost of each subtree with its root inside or outside I; an
    edge to an excluded child is covered by an included parent or stays
    uncovered.  S adds its in-I terms, a neighbour of S cannot enter I,
    and every edge to or inside F - S stays uncovered.  The whole
    tie-break is one additive integer cost,

        (weight * (n + 1) - |I|) * 2**n - sum over v in I of 2**(n - 1 - v),

    ordered like (weight, -|I|, -mask), where the mask is the sum: |I| <= n
    and the mask is below 2**n.  For two sets of equal size, the sorted one
    that is lexicographically smaller holds the smallest vertex of their
    symmetric difference, which is the larger mask.  Distinct sets have
    distinct costs, so neither F nor the rooting changes the optimum, and
    the top-down reconstruction never meets a tie.
    """
    n = graph.n
    adj = graph.adjacency
    uncovered_edge = (n + 1) << n
    in_term = [(n << n) - (1 << (n - 1 - v)) for v in range(n)]

    degree = [len(adj[v]) for v in range(n)]
    gone = [False] * n
    parent = list(range(n))
    order: list[int] = []
    feedback: list[int] = []
    stack = [v for v in range(n) if degree[v] <= 1]
    while len(order) + len(feedback) < n:
        if stack:
            v = stack.pop()
            order.append(v)
        else:
            v = max((u for u in range(n) if not gone[u]), key=lambda u: (degree[u], -u))
            feedback.append(v)
        gone[v] = True
        for u in adj[v]:
            if not gone[u]:
                parent[v] = u
                degree[u] -= 1
                if degree[u] == 1:
                    stack.append(u)

    bit = {f: 1 << i for i, f in enumerate(feedback)}
    f_nbrs = [sum(bit.get(u, 0) for u in adj[v]) for v in range(n)]
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in order:
        if parent[v] in bit:
            parent[v] = v
        if parent[v] != v:
            kids[parent[v]].append(v)
    roots = [v for v in order if parent[v] == v]

    labels = [0]
    for f in feedback:
        labels += [s | bit[f] for s in labels if not s & f_nbrs[f]]
    best = None
    for s in labels:
        # S's in-I terms, and each edge inside F - S once, from its later end
        total = sum(in_term[f] if s & bit[f] else
                    uncovered_edge * (f_nbrs[f] & ~s & (bit[f] - 1)).bit_count()
                    for f in feedback)
        cost_in = [0] * n
        cost_out = [0] * n
        for v in order:
            cin, cout = in_term[v], 0
            for u in kids[v]:
                cin += cost_out[u]
                cout += min(cost_in[u], cost_out[u] + uncovered_edge)
            if f_nbrs[v]:
                cout += uncovered_edge * (f_nbrs[v] & ~s).bit_count()
                if f_nbrs[v] & s:
                    # a neighbour of S: entering I must never beat staying out
                    cin = cout + uncovered_edge
            cost_in[v], cost_out[v] = cin, cout
        total += sum(min(cost_in[v], cost_out[v]) for v in roots)
        if best is None or total < best[0]:
            best = (total, s, cost_in, cost_out)

    _, s, cost_in, cost_out = best
    inside = [bool(s & bit.get(v, 0)) for v in range(n)]
    for v in reversed(order):
        p = parent[v]
        if p == v:
            inside[v] = cost_in[v] < cost_out[v]
        else:
            inside[v] = not inside[p] and cost_in[v] < cost_out[v] + uncovered_edge
    return [v for v in range(n) if inside[v]]


def crosscut_number(graph: Graph) -> int:
    """Crosscut number of the expansion of a graph."""
    return best_crosscut_pair(graph).weight


def tree_crosscut_number(tree: Graph) -> int:
    """Crosscut number of a tree's expansion: the weight of its optimal
    crosscut pair."""
    if not tree.is_tree():
        raise ValueError("input must be a tree")
    return crosscut_number(tree)


def _component_lambda(graph: Graph, comp: frozenset[int], color: tuple[int, ...]) -> int:
    if len(comp) == 1:
        return 0
    adj = graph.adjacency
    sides = (frozenset(v for v in comp if color[v] == 0),
             frozenset(v for v in comp if color[v] == 1))
    leaves = {v for v in comp if len(adj[v]) == 1}
    if len(sides[0]) == len(sides[1]):
        # both parts of an evenly split tree contain a leaf, so the
        # discount applies no matter which part is called smaller
        if not (sides[0] & leaves and sides[1] & leaves):
            raise RuntimeError("evenly split tree bipartition missing a leaf on one side")
        return len(sides[0]) - 1
    small = min(sides, key=len)
    return len(small) - 1 if small & leaves else len(small)


def tree_lambda(tree: Graph) -> int:
    """Size of the smaller bipartition part, discounted by one if it has a leaf."""
    if not tree.is_tree():
        raise ValueError("input must be a tree")
    return _component_lambda(tree, frozenset(range(tree.n)), tree.two_coloring())


def forest_lambda(forest: Graph) -> int:
    """Sum of the tree values over components; isolated vertices add zero."""
    if not forest.is_forest():
        raise ValueError("input must be a forest")
    color = forest.two_coloring()
    return sum(_component_lambda(forest, comp, color) for comp in forest.components())


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
    if not forest.is_forest():
        raise ValueError("input must be a forest")
    if forest.n <= 1 or forest.is_tree():
        return forest
    comps = sorted(forest.components(), key=min)
    edge_comps = [c for c in comps if len(c) >= 2]
    singles = sorted(v for c in comps if len(c) == 1 for v in c)
    if not edge_comps:
        raise ValueError(
            "an edgeless forest on 2+ vertices cannot extend to a tree "
            "with the same crosscut number")

    # weight and |I| add over components, so the forest's optimal pair
    # restricts to an optimal pair of each component
    pair = best_crosscut_pair(forest)
    parts = []
    for comp in edge_comps:
        independent = comp & pair.independent
        if not independent:
            raise RuntimeError("optimal pair of an edge-bearing tree has empty independent set")
        parts.append((comp, independent))

    new_edges = set(forest.edges)
    for (comp_a, ind_a), (_, ind_b) in zip(parts, parts[1:]):
        new_edges.add(canonical_edge(min(comp_a - ind_a), min(ind_b)))
    anchor = min(pair.independent)
    for z in singles:
        new_edges.add(canonical_edge(anchor, z))

    tree = Graph(forest.n, frozenset(new_edges))
    if not tree.is_tree():
        raise RuntimeError("completion did not produce a tree")
    before, after = pair.weight, crosscut_number(tree)
    if before != after:
        raise RuntimeError(f"completion changed the crosscut number: {before} -> {after}")
    return tree


def crosscut_audit(tree: Graph) -> dict:
    """Structural report on the optimal max-|I| crosscut pair of a tree.

    Writing the crosscut number as ell + 1, the audited facts are: at most
    ell/2 uncovered edges, no pendant edge uncovered, and every vertex of
    an uncovered edge has tree-degree at most ell minus the bipartition
    weight of the uncovered forest.
    """
    if not tree.is_tree() or not tree.edges:
        raise ValueError("audit requires a tree with at least one edge")
    pair = best_crosscut_pair(tree)
    sigma = pair.weight
    ell = sigma - 1
    r_edges = sorted(pair.uncovered)
    r_graph = Graph(tree.n, pair.uncovered)
    lam = forest_lambda(r_graph)

    checks = []
    checks.append({
        "name": "uncovered_edge_count",
        "pass": len(r_edges) <= ell / 2,
        "detail": f"|R| = {len(r_edges)}, bound ell/2 = {ell / 2}",
    })
    pendant_hits = sorted(pair.uncovered & tree.pendant_edges())
    checks.append({
        "name": "no_pendant_uncovered",
        "pass": not pendant_hits,
        "detail": "R avoids all pendant edges" if not pendant_hits
                  else f"pendant edges uncovered: {pendant_hits}",
    })
    r_vertices = sorted({v for e in r_edges for v in e})
    degree_bound = ell - lam
    offenders = [v for v in r_vertices if tree.degree(v) > degree_bound]
    checks.append({
        "name": "uncovered_degree_bound",
        "pass": not offenders,
        "detail": f"max tree-degree on R vertices "
                  f"{max((tree.degree(v) for v in r_vertices), default=0)}, "
                  f"bound ell - lambda = {degree_bound}" if r_vertices
                  else "R is empty; bound is vacuous",
    })
    return {
        "sigma": sigma,
        "I": sorted(pair.independent),
        "R": [list(e) for e in r_edges],
        "lambda": lam,
        "checks": checks,
    }
