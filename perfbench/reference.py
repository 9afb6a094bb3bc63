"""Reference answers recomputed from definitions, with no calls into the
library under test.

Graphs and triple systems are passed as plain data: a vertex count and a
collection of sorted edge tuples.  Every routine here is either a brute
force scan over the definition or an exact dynamic programme that is
structurally different from the library's branch-and-bound, so agreement
between the two is meaningful.
"""

from __future__ import annotations

import json
import os
from itertools import combinations, permutations, product

HERE = os.path.dirname(os.path.abspath(__file__))
TURAN_TABLE = os.path.join(HERE, "references.json")

INF = (float("inf"), 0)

# small named graphs: forbidden patterns (as expansions) and audit inputs
BASE_GRAPHS = {
    "P2": (3, ((0, 1), (1, 2))),
    "P3": (4, ((0, 1), (1, 2), (2, 3))),
    "S3": (4, ((0, 1), (0, 2), (0, 3))),
    "M2": (4, ((0, 1), (2, 3))),
    "P5": (5, ((0, 1), (1, 2), (2, 3), (3, 4))),
    "chair": (5, ((0, 1), (0, 2), (0, 3), (3, 4))),
    "P3P3": (8, ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7))),
}


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def crosscut_key(n: int, edges) -> tuple[int, int]:
    """(sigma, largest |I| among optimal pairs) of a graph's expansion.

    sigma = min over independent I of |I| + #edges disjoint from I.  One
    endpoint of every non-forest edge goes into a set F; each independent
    IN/OUT labelling of F leaves a forest, solved by a two-state DP.  The
    cost is 2^|F| forest scans, so this is meant for graphs that are a
    forest plus a few extra edges.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    # spanning forest by union-find; every other edge contributes to F
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    feedback = set()
    for u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            feedback.add(min(u, v))
        else:
            parent[ru] = rv
    fvs = sorted(feedback)
    rest = [v for v in range(n) if v not in feedback]
    best = INF
    for labels in product((True, False), repeat=len(fvs)):
        inside = {v for v, take in zip(fvs, labels) if take}
        if any(u in inside and v in inside for u, v in edges):
            continue
        total = (len(inside), -len(inside))
        total = _add(total, (sum(1 for u, v in edges
                                 if u in feedback and v in feedback
                                 and u not in inside and v not in inside), 0))
        total = _add(total, _forest_cost(rest, adj, feedback, inside))
        best = min(best, total)
    return best[0], -best[1]


def _forest_cost(rest, adj, feedback, inside):
    seen = set()
    total = (0, 0)
    for root in rest:
        if root in seen:
            continue
        order, parent = [], {root: None}
        stack = [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            order.append(v)
            for u in adj[v]:
                if u not in feedback and u not in seen:
                    seen.add(u)
                    parent[u] = v
                    stack.append(u)
        cost_in, cost_out = {}, {}
        for v in reversed(order):
            kids = [u for u in adj[v] if parent.get(u) == v]
            f_in = [u for u in adj[v] if u in inside]
            f_out = sum(1 for u in adj[v] if u in feedback and u not in inside)
            c_in = (1, -1)
            c_out = (f_out, 0)
            for k in kids:
                c_in = _add(c_in, cost_out[k])
                c_out = _add(c_out, min(cost_in[k], _add(cost_out[k], (1, 0))))
            cost_in[v] = INF if f_in else c_in
            cost_out[v] = c_out
        total = _add(total, min(cost_in[root], cost_out[root]))
    return total


def pair_problems(edges, independent, uncovered, sigma: int, max_size: int) -> list[str]:
    """Why a reported crosscut pair (I, R) is not optimal, or []."""
    ind = set(independent)
    problems = []
    clash = [e for e in edges if e[0] in ind and e[1] in ind]
    if clash:
        problems.append(f"I is not independent: {clash[0]}")
    want_r = {tuple(e) for e in edges if e[0] not in ind and e[1] not in ind}
    if {tuple(e) for e in uncovered} != want_r:
        problems.append("R is not the set of edges disjoint from I")
    weight = len(ind) + len(want_r)
    if weight != sigma:
        problems.append(f"weight {weight} != sigma {sigma}")
    elif len(ind) != max_size:
        problems.append(f"|I| = {len(ind)} but the largest optimal I has {max_size}")
    return problems


def min_crosscut(n: int, triples):
    """Smallest vertex set meeting every triple exactly once, by subset scan."""
    triples = sorted(triples)
    if not triples:
        return 0
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            inside = set(subset)
            if all(len(inside.intersection(e)) == 1 for e in triples):
                return r
    return None


def is_exact_crosscut(triples, vertices) -> bool:
    inside = set(vertices)
    return all(len(inside.intersection(e)) == 1 for e in triples)


def expansion(n: int, edges) -> tuple[int, list[tuple[int, int, int]]]:
    """Expansion of a graph: edge i of the sorted list gains vertex n + i."""
    ordered = sorted(tuple(sorted(e)) for e in edges)
    return n + len(ordered), [(u, v, n + i) for i, (u, v) in enumerate(ordered)]


def contains(host_n: int, host_triples, pat_n: int, pat_triples) -> bool:
    """Copy of the pattern in the host, by matching pattern edges to host
    triples one at a time (all six vertex orders of each triple), edges
    taken in an order that keeps the matched part connected."""
    if pat_n > host_n:
        return False
    pending = sorted(tuple(t) for t in pat_triples)
    if not pending:
        return True
    order = [pending.pop(0)]
    while pending:
        seen = {v for e in order for v in e}
        nxt = next((e for e in pending if seen.intersection(e)), pending[0])
        pending.remove(nxt)
        order.append(nxt)
    host = [tuple(t) for t in host_triples]
    at: dict[int, list] = {}
    for t in host:
        for v in t:
            at.setdefault(v, []).append(t)
    place: dict[int, int] = {}
    used: set[int] = set()

    def match(i: int) -> bool:
        if i == len(order):
            return True
        edge = order[i]
        anchor = next((v for v in edge if v in place), None)
        for t in (host if anchor is None else at.get(place[anchor], [])):
            for image in permutations(t):
                fresh = []
                ok = True
                for v, h in zip(edge, image):
                    if v in place:
                        ok = place[v] == h
                    elif h in used:
                        ok = False
                    else:
                        place[v] = h
                        used.add(h)
                        fresh.append(v)
                    if not ok:
                        break
                if ok and match(i + 1):
                    return True
                for v in fresh:
                    used.discard(place.pop(v))
        return False

    return match(0)


def mapping_problems(mapping: dict, host_n: int, host_triples, pat_n: int, pat_triples) -> list[str]:
    """Why a claimed copy is not one, or []."""
    host = {tuple(sorted(t)) for t in host_triples}
    problems = []
    if set(mapping) != set(range(pat_n)):
        problems.append("map does not cover the pattern's vertices")
        return problems
    values = list(mapping.values())
    if len(set(values)) != len(values):
        problems.append("map is not injective")
    if not all(0 <= h < host_n for h in values):
        problems.append("map leaves the host's vertices")
    missed = [e for e in pat_triples if tuple(sorted(mapping[v] for v in e)) not in host]
    if missed:
        problems.append(f"pattern edge {tuple(missed[0])} maps outside the host")
    return problems


def graph_contains(host_n: int, host_edges, pat_n: int, pat_edges) -> bool:
    """Copy of a graph in a graph, by scanning injective placements."""
    if pat_n > host_n:
        return False
    host = {tuple(sorted(e)) for e in host_edges}
    support = sorted({v for e in pat_edges for v in e})
    for image in permutations(range(host_n), len(support)):
        place = dict(zip(support, image))
        if all(tuple(sorted((place[u], place[v]))) in host for u, v in pat_edges):
            return True
    return False


def core_construction(n: int, core: int) -> list[tuple[int, int, int]]:
    """Every triple with exactly one vertex in {0..core-1}."""
    return [(c, x, y) for c in range(core) for x, y in combinations(range(core, n), 2)]


def core_construction_size(n: int, core: int) -> int:
    """Triples meeting a core of the given size in exactly one vertex."""
    rest = n - core
    return core * rest * (rest - 1) // 2


def load_turan_table(path: str = TURAN_TABLE) -> dict[str, dict]:
    """Stored exact Turan values keyed '<pattern>@<n>', with provenance."""
    with open(path) as fh:
        rows = json.load(fh)["turan"]
    return {f"{row['pattern']}@{row['n']}": row for row in rows}
