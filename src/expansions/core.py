"""Simple graphs and 3-uniform triple systems on integer vertices.

Vertices are always 0..n-1 with n stored explicitly, so isolated vertices
are representable.  Graph edges are canonical pairs (u, v) with u < v and
triples are canonical sorted 3-tuples.  Both containers are immutable;
derived structures (adjacency, codegree tables) are cached on first use.
The node and time budget shared by the exhaustive searches lives here too,
with the lexicographic search for pairwise compatible candidates and
Record, the import-free base of every value class.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable
from functools import cached_property
from itertools import combinations, islice
from operator import attrgetter

Edge = tuple[int, int]
Triple = tuple[int, int, int]
_set = object.__setattr__  # stores a field of a Record


class Record:
    """Base of the immutable value classes, plain Python so that importing
    them costs no inspect import.  The fields are the names annotated in a
    subclass body, in order: taken positionally or by keyword and checked
    by __post_init__, they give __eq__, __hash__ and a __repr__ naming
    each.  Setting or deleting raises AttributeError; cached_property works."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) > len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for field in fields:
            _set(self, field, values[field])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, *value):  # also __delattr__
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop edge on vertex {u}")
    return (u, v) if u < v else (v, u)


def canonical_triple(u: int, v: int, w: int) -> Triple:
    if u == v or u == w or v == w:
        raise ValueError(f"triple with repeated vertex: {(u, v, w)}")
    a, b, c = sorted((u, v, w))
    return (a, b, c)


class Graph(Record):
    """Simple undirected graph; edges are canonical (u, v) pairs with u < v."""

    n: int
    edges: frozenset[Edge]

    # written out, as the searches build and compare containers in hot paths
    def __init__(self, n: int, edges: frozenset[Edge]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        for e in edges:
            if len(e) != 2 or not (0 <= e[0] < e[1] < n):
                raise ValueError(f"bad edge {e} for n={n}")
        _set(self, "n", n)
        _set(self, "edges", edges)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    @staticmethod
    def from_edges(n: int, pairs: Iterable[Iterable[int]]) -> "Graph":
        return Graph(n, frozenset(canonical_edge(*pair) for pair in pairs))

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.n)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(nb) for v, nb in adj.items()}

    @cached_property
    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """Vertices h, g whose swap is an automorphism: N(h) - {g} = N(g) - {h}."""
        adj = self.adjacency
        return _twin_classes([len(adj[v]) for v in range(self.n)],
                             lambda h, g: adj[h] - {g} == adj[g] - {h})

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def components(self) -> list[frozenset[int]]:
        """Connected components, ordered by smallest member."""
        seen: set[int] = set()
        comps = []
        for start in range(self.n):
            if start in seen:
                continue
            stack, comp = [start], {start}
            seen.add(start)
            while stack:
                v = stack.pop()
                for u in self.adjacency[v]:
                    if u not in comp:
                        comp.add(u)
                        seen.add(u)
                        stack.append(u)
            comps.append(frozenset(comp))
        return comps

    def two_coloring(self) -> tuple[int, ...]:
        """Side 0 or 1 of every vertex; each component is colored from its
        smallest vertex, which gets side 0.  Raises ValueError on an odd cycle."""
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] >= 0:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for u in self.adjacency[v]:
                    if color[u] < 0:
                        color[u] = 1 - color[v]
                        stack.append(u)
                    elif color[u] == color[v]:
                        raise ValueError("graph is not bipartite: it has an odd cycle")
        return tuple(color)

    def is_forest(self) -> bool:
        return len(self.edges) == self.n - len(self.components())

    def is_tree(self) -> bool:
        return self.n > 0 and len(self.edges) == self.n - 1 and len(self.components()) == 1

    def leaves(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if self.degree(v) == 1)

    def pendant_edges(self) -> frozenset[Edge]:
        """Edges with at least one endpoint of degree 1."""
        return frozenset(e for e in self.edges if self.degree(e[0]) == 1 or self.degree(e[1]) == 1)


class TripleSystem(Record):
    """3-uniform set system; edges are canonical sorted triples."""

    n: int
    edges: frozenset[Triple]

    def __init__(self, n: int, edges: frozenset[Triple]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        for e in edges:
            if len(e) != 3 or not (0 <= e[0] < e[1] < e[2] < n):
                raise ValueError(f"bad triple {e} for n={n}")
        _set(self, "n", n)
        _set(self, "edges", edges)

    __eq__, __hash__ = Graph.__eq__, Graph.__hash__

    @staticmethod
    def from_edges(n: int, triples: Iterable[Iterable[int]]) -> "TripleSystem":
        return TripleSystem(n, frozenset(canonical_triple(*t) for t in triples))

    @cached_property
    def pair_counts(self) -> dict[Edge, int]:
        # codegree of every pair that lies in at least one triple
        counts: dict[Edge, int] = {}
        for e in self.edges:
            for pair in combinations(e, 2):
                counts[pair] = counts.get(pair, 0) + 1
        return counts

    @cached_property
    def pair_neighborhoods(self) -> dict[Edge, frozenset[int]]:
        return {pair: frozenset(s) for pair, s in _pair_completions(self.edges).items()}

    @cached_property
    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """Vertices h, g whose swap is an automorphism: the link pairs of h
        that avoid g equal the link pairs of g that avoid h."""
        links: list[set[Edge]] = [set() for _ in range(self.n)]
        for a, b, c in self.edges:
            links[a].add((b, c))
            links[b].add((a, c))
            links[c].add((a, b))
        return _twin_classes([len(link) for link in links],
                             lambda h, g: {p for p in links[h] if g not in p}
                             == {p for p in links[g] if h not in p})

    def sorted_edges(self) -> list[Triple]:
        return sorted(self.edges)


def _pair_completions(triples: Iterable[Triple]) -> dict[Edge, set[int]]:
    """For every pair inside a triple, the third vertices completing it to
    one; uncached, for a search that needs it only while it runs."""
    hoods: dict[Edge, set[int]] = {}
    for a, b, c in triples:
        hoods.setdefault((a, b), set()).add(c)
        hoods.setdefault((a, c), set()).add(b)
        hoods.setdefault((b, c), set()).add(a)
    return hoods


def _twin_classes(degree: list[int],
                  are_twins: Callable[[int, int], bool]) -> tuple[tuple[int, ...], ...]:
    # Twins are an equivalence relation (a transposition conjugated by another
    # is one), so each vertex is compared only with one member per class;
    # twins always have equal degree.
    classes: list[list[int]] = []
    for v, d in enumerate(degree):
        for cls in classes:
            if degree[cls[0]] == d and are_twins(cls[0], v):
                cls.append(v)
                break
        else:
            classes.append([v])
    return tuple(tuple(cls) for cls in classes)


class BudgetExhausted(Exception):
    """Raised by Budget.check once the node cap or the deadline is passed."""


class Budget:
    """Node cap and deadline shared by the exhaustive searches; None
    disables either.  check(nodes) is the one stopping rule: past the cap
    (so a search stopped by it has counted cap + 1 nodes), or at a multiple
    of 1,024 past the deadline.  A hot loop keeps its own count and calls
    check() only at next_check(); spend() counts one node and checks it.
    Set-up before the first node reads the deadline through expired().
    A negative budget is a ValueError; 0 is valid."""

    def __init__(self, budget_ms: int | None = None, budget_nodes: int | None = None):
        for name, given in (("budget_ms", budget_ms), ("budget_nodes", budget_nodes)):
            if given is not None and given < 0:
                raise ValueError(f"{name} must be nonnegative, got {given}")
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.node_cap = budget_nodes
        self.nodes = 0

    def next_check(self, nodes: int) -> float:
        """The first count after nodes at which check() can stop a search."""
        due = math.inf if self.node_cap is None else self.node_cap + 1
        return due if self.deadline is None else min(due, nodes - nodes % 1024 + 1024)

    def check(self, nodes: int) -> float:
        """Record the count; stop here or return the next checkpoint."""
        self.nodes = nodes
        if self.node_cap is not None and nodes > self.node_cap or nodes % 1024 == 0 and self.expired():
            raise BudgetExhausted
        return self.next_check(nodes)

    def spend(self) -> None:
        self.check(self.nodes + 1)

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


def first_compatible(candidates: Iterable, t: int, compatible: Callable[[object, object], bool],
                     budget: Budget | None = None) -> list | None:
    """The lexicographically first t pairwise compatible candidates, in the
    order the iterable yields them; None if no t are.  Candidates are drawn
    only when the search reaches them, and once the iterable is used up a
    branch stops as soon as too few remain.  With a budget, each candidate
    tried is one node."""
    source = iter(candidates)
    seen: list = []  # the candidates drawn so far
    total = math.inf  # how many there are, known once source is used up
    stack: list[int] = []  # positions in seen of the chosen candidates
    i = 0
    while len(stack) < t:
        if i == len(seen) < total:
            seen.extend(islice(source, 1))
            if i == len(seen):
                total = i
        if total - i >= t - len(stack):  # enough candidates may remain
            if budget is not None:
                budget.spend()
            y = seen[i]
            if all(compatible(seen[p], y) for p in stack):
                stack.append(i)
            i += 1
        elif stack:
            i = stack.pop() + 1
        else:
            return None
    return [seen[p] for p in stack]


def shadow(system: TripleSystem) -> Graph:
    """The graph of pairs covered by at least one triple."""
    return Graph(system.n, frozenset(system.pair_counts))


def _check_vertices(system: TripleSystem, vertices: Iterable[int]) -> None:
    for v in vertices:
        if not (0 <= v < system.n):
            raise ValueError(f"vertex {v} out of range for n={system.n}")


def codegree(system: TripleSystem, x: int, y: int) -> int:
    """Number of triples containing both x and y.  Rejects x == y."""
    if x == y:
        raise ValueError("codegree requires two distinct vertices")
    _check_vertices(system, (x, y))
    return system.pair_counts.get(canonical_edge(x, y), 0)


def neighborhood(system: TripleSystem, pair: Iterable[int]) -> frozenset[int]:
    """Third vertices completing the pair to a triple of the system."""
    pair = tuple(pair)
    if len(set(pair)) != 2:
        raise ValueError(f"neighborhood requires a set of exactly two vertices, got {pair}")
    _check_vertices(system, pair)
    return system.pair_neighborhoods.get(canonical_edge(*pair), frozenset())


def edge_codegree_extremes(system: TripleSystem, edge: Iterable[int]) -> tuple[int, int]:
    """(min, max) codegree over the three vertex pairs of an edge of the system."""
    e = canonical_triple(*edge)
    if e not in system.edges:
        raise ValueError(f"{e} is not an edge of the system")
    degs = [system.pair_counts[pair] for pair in combinations(e, 2)]
    return (min(degs), max(degs))


def remove_vertices(system: TripleSystem, xs: Iterable[int]) -> TripleSystem:
    """Subsystem of edges disjoint from xs; the vertex range is kept."""
    mark = set(xs)
    _check_vertices(system, mark)
    return TripleSystem(system.n, frozenset(e for e in system.edges if not mark.intersection(e)))


def is_linear(system: TripleSystem) -> bool:
    """True when every pair of vertices lies in at most one triple."""
    return all(c <= 1 for c in system.pair_counts.values())
