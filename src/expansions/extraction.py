"""Extraction of well-structured subfamilies from set systems.

Four independent tools live here: trimming a triple system until every
shadow pair is richly covered, the classic sunflower recursion, selecting
a large pairwise-disjoint subfamily of augmented sets, and an exact search
for complete bipartite grids whose edges avoid their own forbidden lists.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import factorial

from .core import Edge, Graph, Record, TripleSystem, canonical_edge, first_compatible, shadow


def full_subgraph(system: TripleSystem, d: int) -> TripleSystem:
    """Largest subsystem reachable by deleting sparse shadow pairs.

    While some pair lies in between 1 and d surviving triples, the
    lexicographically smallest such pair is selected and every triple
    containing it is removed.  The result has every remaining shadow pair
    in at least d+1 triples, and at most d * |shadow| triples are lost
    overall since each selected pair deletes at most d and no pair is
    selected twice.
    """
    if d <= 0:
        raise ValueError("sparsity threshold d must be positive")
    remaining = set(system.edges)
    while True:
        counts: dict[Edge, int] = {}
        for e in remaining:
            for pair in combinations(e, 2):
                counts[pair] = counts.get(pair, 0) + 1
        sparse = sorted(pair for pair, c in counts.items() if c <= d)
        if not sparse:
            break
        pick = sparse[0]
        remaining = {e for e in remaining if not (pick[0] in e and pick[1] in e)}
    return TripleSystem(system.n, frozenset(remaining))


class SetFamily(Record):
    """An indexed family of finite sets over integer elements."""

    sets: tuple[frozenset[int], ...]

    @staticmethod
    def from_sets(sets: Iterable[Iterable[int]]) -> "SetFamily":
        fam = tuple(frozenset(s) for s in sets)
        if len(set(fam)) != len(fam):
            raise ValueError("duplicate sets in family")
        return SetFamily(fam)

    def __len__(self) -> int:
        return len(self.sets)


class Sunflower(Record):
    """Indices of family members whose pairwise intersections all equal core."""

    petals: tuple[int, ...]
    core: frozenset[int]

    def check(self, family: SetFamily) -> bool:
        sets = [family.sets[i] for i in self.petals]
        if len(set(self.petals)) != len(self.petals):
            return False
        whole = sets[0]
        for s in sets[1:]:
            whole = whole & s
        if whole != self.core:
            return False
        return all(a & b == self.core for a, b in combinations(sets, 2))


def sunflower_threshold(k: int, petal_count: int) -> int:
    """Family size guaranteeing a sunflower: k! * (petal_count - 1)^k."""
    if k < 0 or petal_count < 1:
        raise ValueError("set size must be nonnegative and petal count positive")
    return factorial(k) * (petal_count - 1) ** k


def find_sunflower(family: SetFamily, petal_count: int) -> Sunflower | None:
    """Sunflower with the requested number of petals, or None.

    The search alternates two classical steps: a greedy maximal
    pairwise-disjoint subfamily (enough disjoint sets form a sunflower
    with empty core), otherwise passing to the link of the most frequent
    element, which joins the core and shrinks every set by one.  It is a
    loop that accumulates the core, so no recursion limit applies.  At
    family sizes of at least k!(petals-1)^k with sets of size at most
    k >= 2 this always succeeds; below, a miss is reported as absence
    without backtracking.
    """
    if petal_count < 1:
        raise ValueError("petal count must be positive")
    found = _sunflower(list(enumerate(family.sets)), petal_count)
    if found is None:
        return None
    petals, core = found
    flower = Sunflower(tuple(petals), core)
    if not flower.check(family):
        raise RuntimeError("internal error: extracted petals fail the core equality")
    return flower


def _sunflower(items: list[tuple[int, frozenset[int]]], want: int):
    # Frequencies are counted once and then only fall, as sets drop out and
    # as core elements leave the sets that stay; a heap of (-count, element)
    # with stale entries skipped gives the most frequent, smallest element.
    items = [(idx, set(s)) for idx, s in items]
    freq = Counter(x for _, s in items for x in s)
    heap = [(-c, x) for x, c in freq.items()]
    heapify(heap)
    core: set[int] = set()
    while True:
        taken: list[tuple[int, set[int]]] = []
        union: set[int] = set()
        for idx, s in items:
            if s.isdisjoint(union):
                taken.append((idx, s))
                union |= s
        if len(taken) >= want:
            picked = taken[:want]
            core.update(picked[0][1].intersection(*(s for _, s in picked[1:])))
            return [idx for idx, _ in picked], frozenset(core)

        while heap and freq[heap[0][1]] != -heap[0][0]:
            heappop(heap)
        if not heap:
            return None
        x = heap[0][1]
        core.add(x)
        kept = []
        for idx, s in items:
            if x in s:
                s.discard(x)
                kept.append((idx, s))
            else:
                for y in s:
                    freq[y] -= 1
                    if freq[y]:
                        heappush(heap, (-freq[y], y))
        del freq[x]
        items = kept


class AugmentedFamily(Record):
    """Pairs (A_i, a_i): the A_i pairwise disjoint, the a_i distinct.

    Each a_i may or may not lie inside its own A_i; the augmented sets
    A_i + {a_i} can still collide when some a_i lands in another A_j.
    """

    pairs: tuple[tuple[frozenset[int], int], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Iterable[int], int]]) -> "AugmentedFamily":
        fixed = tuple((frozenset(s), int(a)) for s, a in pairs)
        seen: set[int] = set()
        for s, _ in fixed:
            if s & seen:
                raise ValueError("base sets must be pairwise disjoint")
            seen |= s
        anchors = [a for _, a in fixed]
        if len(set(anchors)) != len(anchors):
            raise ValueError("augmenting elements must be distinct")
        return AugmentedFamily(fixed)

    def __len__(self) -> int:
        return len(self.pairs)


def select_disjoint_augmented(family: AugmentedFamily) -> list[int]:
    """Indices whose augmented sets A_i + {a_i} are pairwise disjoint,
    at least a third of the family.

    Two augmented sets can only meet through an anchor landing in the
    other base set, and each anchor lands in at most one base set, so
    every member has at most one conflict target.  Each uncolored member
    walks along its targets until it meets a colored member or closes a
    cycle, and the walk is colored backwards: a member then sees only its
    target's color, plus the first-colored member's where the cycle
    closes, so three colors suffice.  The largest color class is returned.
    """
    owner = {x: j for j, (s, _) in enumerate(family.pairs) for x in s}
    target = [owner.get(a, i) for i, (_, a) in enumerate(family.pairs)]
    color = [-1] * len(target)  # -2 marks a member on the current walk
    for start in range(len(target)):
        walk = []
        v = start
        while color[v] == -1:
            color[v] = -2
            walk.append(v)
            v = target[v]
        for u in reversed(walk):
            seen = (color[target[u]], color[walk[-1]] if u == v else -1)
            free = [c for c in (0, 1, 2) if c not in seen]
            if not free:
                raise RuntimeError("conflict graph needed a fourth color; invariant broken")
            color[u] = free[0]
    classes = [[i for i, c in enumerate(color) if c == k] for k in (0, 1, 2)]
    best = max(classes, key=len)
    if 3 * len(best) < len(target):
        raise RuntimeError("largest color class fell below a third of the family")
    return best


def find_biclique_avoiding_lists(
    grid_graph: Graph,
    lists: dict[Edge, frozenset[int]],
    t: int,
    host: TripleSystem,
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Complete t-by-t bipartite subgraph all of whose edge lists miss it.

    Exact backtracking: one side ranges over sorted t-subsets of a color
    class of a component, the other side is completed from the common
    neighborhood, rejecting any vertex that appears in a selected edge's
    list.  Returns the first qualifying pair of sides, or None after an
    exhaustive scan.
    """
    if t < 1:
        raise ValueError("biclique side size must be positive")
    host_pairs = shadow(host).edges
    for e in grid_graph.edges:
        if e not in host_pairs:
            raise ValueError(f"grid edge {e} is not in the shadow of the host")
        if e not in lists:
            raise ValueError(f"no list given for grid edge {e}")
    sizes = {len(lists[e]) for e in grid_graph.edges}
    if len(sizes) > 1:
        raise ValueError("all edge lists must have the same size")

    color = grid_graph.two_coloring()
    adj = grid_graph.adjacency
    for comp in sorted(grid_graph.components(), key=min):
        side = sorted(v for v in comp if color[v] == 0)
        other = sorted(v for v in comp if color[v] == 1)
        if len(side) < t or len(other) < t:
            continue
        for xs in combinations(side, t):
            xset = set(xs)
            unions = {}  # candidate y -> union of its lists over xs
            for y in other:
                if all(y in adj[x] for x in xs):
                    union = frozenset().union(*(lists[canonical_edge(x, y)] for x in xs))
                    if not (union & xset) and y not in union:
                        unions[y] = union
            picked = first_compatible(unions, t, lambda a, b: a not in unions[b]
                                      and b not in unions[a])
            if picked is not None:
                return frozenset(xs), frozenset(picked)
    return None
