"""Enumeration of unlabeled trees and forests on a fixed vertex count.

Trees come from networkx's free-tree generator, normalized onto vertices
0..n-1.  Forests are assembled as multisets of smaller trees laid out on
consecutive vertex blocks; distinct multisets of component classes give
non-isomorphic forests, so the enumeration is exact and duplicate-free.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product

from .core import Graph, TripleSystem


@lru_cache(maxsize=None)
def trees(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic trees on n vertices."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return ()
    if n == 1:
        return (Graph(1, frozenset()),)
    import networkx as nx  # deferred: it dominates the package import time

    return tuple(Graph.from_edges(n, t.edges()) for t in nx.nonisomorphic_trees(n))


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield []
        return
    cap = n if largest is None else min(largest, n)
    for first in range(cap, 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def _canonical_system(n: int, edges: frozenset) -> tuple:
    # factorial in n; intended for the tiny systems triple_trees produces
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(sorted(tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in edges))
        if best is None or relabeled < best:
            best = relabeled
    return best


@lru_cache(maxsize=None)
def triple_trees(v: int) -> tuple[TripleSystem, ...]:
    """All non-isomorphic triple systems on v vertices built from one triple
    by repeatedly gluing a fresh vertex onto a covered pair.

    Each gluing adds one vertex, so a system with q edges spans q + 2
    vertices and v must be at least 3.  Deduplication is by brute-force
    canonical relabeling, which caps practical use at small v.
    """
    if v < 3:
        return ()
    level = [frozenset({(0, 1, 2)})]
    for w in range(3, v):
        seen: set[tuple] = set()
        nxt = []
        for edges in level:
            pairs = {p for e in edges for p in combinations(e, 2)}
            for a, b in sorted(pairs):
                grown = edges | {(a, b, w)}
                key = _canonical_system(w + 1, grown)
                if key not in seen:
                    seen.add(key)
                    nxt.append(grown)
        level = nxt
    return tuple(TripleSystem(v, edges) for edges in level)


@lru_cache(maxsize=None)
def forests(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic forests on n vertices, the edgeless one included."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return (Graph(0, frozenset()),)
    out = []
    for partition in _partitions(n):
        sizes = Counter(partition)
        pools = []
        ordered_sizes = sorted(sizes, reverse=True)
        for size in ordered_sizes:
            pool = range(len(trees(size)))
            pools.append(list(combinations_with_replacement(pool, sizes[size])))
        for combo in product(*pools):
            edges = []
            offset = 0
            for size, indices in zip(ordered_sizes, combo):
                for ti in indices:
                    component = trees(size)[ti]
                    edges += [(u + offset, v + offset) for u, v in component.sorted_edges()]
                    offset += size
            out.append(Graph.from_edges(n, edges))
    return tuple(out)
