"""Enumeration of unlabeled trees, forests and triple trees.

Trees come from the WROM free-tree generator (Wright, Richmond, Odlyzko
and McKay, SIAM J. Comput. 1986) as centre-rooted level sequences in
Beyer-Hedetniemi successor order, so their order is fixed by this module.
Forests are assembled as multisets of smaller trees laid out on
consecutive vertex blocks; distinct multisets of component classes give
non-isomorphic forests, so the enumeration is exact and duplicate-free.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .core import Graph, TripleSystem
from .search import contains


def _successor(layout: list[int], p: int | None = None) -> list[int] | None:
    # Beyer-Hedetniemi: the next rooted level sequence, changing it from
    # position p (by default the last vertex not at level 1) onwards
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    out = list(layout)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _second_child(layout: list[int]) -> int:
    # position of the root's second child, len(layout) when it has only one
    return next((i for i in range(2, len(layout)) if layout[i] == 1), len(layout))


def _free_tree(layout: list[int]) -> list[int]:
    # WROM: the layout itself when it roots a free tree at its centre, that
    # is when the root's first subtree does not come after the rest of the
    # tree in (height, size, level sequence) order; else the next candidate
    m = _second_child(layout)
    left, rest = [d - 1 for d in layout[1:m]], [0] + layout[m:]
    if (max(left), len(left), left) <= (max(rest), len(rest), rest):
        return layout
    out = _successor(layout, m - 1)
    if layout[m - 1] > 2:
        height = max(out[1:_second_child(out)])
        out[-height:] = range(1, height + 1)
    return out


@lru_cache(maxsize=None)
def trees(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic trees on n vertices, in the WROM generation order."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return ()
    if n == 1:
        return (Graph(1, frozenset()),)
    out = []
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))  # the path
    while layout is not None:
        layout = _free_tree(layout)
        last: dict[int, int] = {}  # level -> latest vertex there, the next parent
        edges = []
        for v, level in enumerate(layout):
            if level:
                edges.append((last[level - 1], v))
            last[level] = v
        out.append(Graph.from_edges(n, edges))
        layout = _successor(layout)
    return tuple(out)


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield []
        return
    cap = n if largest is None else min(largest, n)
    for first in range(cap, 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


@lru_cache(maxsize=None)
def triple_trees(v: int) -> tuple[TripleSystem, ...]:
    """All non-isomorphic triple systems on v vertices built from one triple
    by repeatedly gluing a fresh vertex onto a covered pair.

    Each gluing adds one vertex, so a system with q edges spans q + 2
    vertices and v must be at least 3.  A grown system is kept unless a
    system kept before it at the same size contains it, which for equal
    vertex and edge counts means the two are isomorphic; only systems
    with equal degree and codegree multisets are compared.
    """
    if v < 3:
        return ()
    level = [TripleSystem(3, frozenset({(0, 1, 2)}))]
    for w in range(3, v):
        kept: dict[tuple, list[TripleSystem]] = {}
        nxt = []
        for system in level:
            for a, b in sorted(system.pair_neighborhoods):
                grown = TripleSystem(w + 1, system.edges | {(a, b, w)})
                degrees = Counter(x for e in grown.edges for x in e)
                codegrees = map(len, grown.pair_neighborhoods.values())
                bucket = kept.setdefault((tuple(sorted(degrees.values())),
                                          tuple(sorted(codegrees))), [])
                if all(contains(grown, other) is None for other in bucket):
                    bucket.append(grown)
                    nxt.append(grown)
        level = nxt
    return tuple(level)


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
