"""Simple graphs and 3-uniform triple systems on integer vertices.

Vertices are always 0..n-1 with n stored explicitly, so isolated vertices
are representable.  Graph edges are canonical pairs (u, v) with u < v and
triples are canonical sorted 3-tuples.  Both containers are immutable and
share one base, which holds the fields, the validity check, from_edges and
sorted_edges; a graph caches nothing, a triple system one table, its pair
neighbourhoods, whose sizes are the codegrees.  Here too: the node and
time budget of the exhaustive searches, the lexicographic search for
pairwise compatible candidates, and Record, the import-free base of every
value class.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable
from functools import cached_property
from itertools import islice, starmap
from operator import attrgetter

Edge = tuple[int, int]
Triple = tuple[int, int, int]
_set = object.__setattr__  # stores a field of a Record


class Record:
    """Base of the immutable value classes, plain Python so that importing
    them costs no inspect import.  The fields are the names annotated in a
    subclass body, in order (its base's if it annotates none): taken
    positionally or by keyword and checked by __post_init__, they give
    __eq__, __hash__ and a __repr__ naming each.  A field given twice (by
    position and by keyword), missing or unknown raises TypeError; this
    __init__ is every record's constructor.  Setting or deleting raises
    AttributeError; cached_property works."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__) or cls._fields
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        for field in fields[len(args):]:
            if field in kwargs:
                args += (kwargs.pop(field),)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for field, value in zip(fields, args):
            _set(self, field, value)
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


class _EdgeSet(Record):
    """Vertices 0..n-1 and edges, each a strictly increasing tuple of _width
    vertices below n; Graph and TripleSystem give the width, nouns and form."""

    n: int
    edges: frozenset

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        width = self._width
        for e in self.edges:  # at width 2 or 3 the two chains compare every adjacent pair
            if len(e) != width or not (0 <= e[0] < e[1] and e[-2] < e[-1] < n):
                raise ValueError(f"bad {self._edge} {e} for n={n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]):
        return cls(n, frozenset(starmap(cls._canonical, edges)))

    def sorted_edges(self) -> list:
        return sorted(self.edges)


class Graph(_EdgeSet):
    """Simple undirected graph; edges are canonical (u, v) pairs with u < v."""

    _width, _edge, _kind, _canonical = 2, "edge", "graph", staticmethod(canonical_edge)

    def neighbours(self) -> list[list[int]]:
        """Each vertex's neighbours, built afresh on every call."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return nbrs

    def is_tree(self) -> bool:
        return (self.n > 0 and len(self.edges) == self.n - 1
                and len(_walk(self.neighbours())[0]) == 1)


def _walk(nbrs: list[list[int]]) -> tuple[list[frozenset[int]], tuple[int, ...], bool]:
    """One walk of the graph with these neighbour lists: its components by
    smallest member, a side per vertex (side 0 at each component's
    smallest), and whether no edge joins a side to itself."""
    color, comps, proper = [-1] * len(nbrs), [], True
    for start in range(len(nbrs)):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack, comp = [start], [start]
        while stack:
            v = stack.pop()
            for u in nbrs[v]:
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    comp.append(u)
                    stack.append(u)
                elif color[u] == color[v]:
                    proper = False
        comps.append(frozenset(comp))
    return comps, tuple(color), proper


class TripleSystem(_EdgeSet):
    """3-uniform set system of sorted triples; caches only pair_neighborhoods."""

    _width, _edge, _kind, _canonical = 3, "triple", "triple system", staticmethod(canonical_triple)

    @cached_property
    def pair_neighborhoods(self) -> dict[Edge, frozenset[int]]:
        # for every pair inside a triple, the third vertices completing it to one
        hoods: dict[Edge, set[int]] = {}
        for a, b, c in self.edges:
            hoods.setdefault((a, b), set()).add(c)
            hoods.setdefault((a, c), set()).add(b)
            hoods.setdefault((b, c), set()).add(a)
        return {pair: frozenset(s) for pair, s in hoods.items()}

    @property
    def pair_counts(self) -> dict[Edge, int]:  # each pair's codegree, afresh on every read
        return {pair: len(thirds) for pair, thirds in self.pair_neighborhoods.items()}


class BudgetExhausted(Exception):
    """Raised by Budget.check once the node cap or the deadline is passed."""


class Budget:
    """Node cap and deadline shared by the exhaustive searches; None
    disables either.  The deadline is read once per CADENCE units of work,
    by tick(done, step) only: nodes, and in a search's set-up whatever it
    counts (shape images, copies, row bytes).  check(nodes) is the node rule:
    past the cap (so a search stopped by it has counted cap + 1 nodes), or
    at a multiple of CADENCE past the deadline.  A hot loop keeps its own
    count and passes check() 1, then each count check() returns (an int)
    once reached; spend() counts one node and checks it.  A negative
    budget is a ValueError; 0 is valid."""

    CADENCE = 1024

    def __init__(self, budget_ms: int | None = None, budget_nodes: int | None = None):
        for name, given in (("budget_ms", budget_ms), ("budget_nodes", budget_nodes)):
            if given is not None and given < 0:
                raise ValueError(f"{name} must be nonnegative, got {given}")
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.node_cap = budget_nodes
        self.nodes = 0

    def tick(self, done: int, step: int = 1) -> None:
        """Stop past the deadline if done, just raised by step, passed a
        multiple of CADENCE; a step above CADENCE reads it every time."""
        if done % self.CADENCE < step and self.expired():
            raise BudgetExhausted

    def check(self, nodes: int) -> int:
        """Record the count; stop here or return the next count to check:
        the next multiple of CADENCE, or the cap + 1 if that comes first."""
        self.nodes = nodes
        if self.node_cap is not None and nodes > self.node_cap:
            raise BudgetExhausted
        self.tick(nodes)
        due = nodes - nodes % self.CADENCE + self.CADENCE
        return due if self.node_cap is None else min(due, self.node_cap + 1)

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
    return Graph(system.n, frozenset(system.pair_neighborhoods))


def codegree(system: TripleSystem, x: int, y: int) -> int:
    """Number of triples containing both x and y: the size of their neighborhood."""
    return len(neighborhood(system, (x, y)))


def neighborhood(system: TripleSystem, pair: Iterable[int]) -> frozenset[int]:
    """Third vertices completing the pair to a triple of the system.
    Rejects a pair that is not two distinct vertices below n."""
    pair = tuple(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ValueError(f"expected two distinct vertices, got {pair}")
    for v in pair:
        if not (0 <= v < system.n):
            raise ValueError(f"vertex {v} out of range for n={system.n}")
    return system.pair_neighborhoods.get(canonical_edge(*pair), frozenset())
