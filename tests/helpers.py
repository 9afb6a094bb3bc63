"""Independent oracles used across the test suite.

Everything here recomputes results from definitions by brute force or
exact branching, with no calls into the package's search code, so
agreement is meaningful.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations

from expansions import CrosscutPair, Graph, TripleSystem
from expansions.core import Budget, BudgetExhausted, canonical_edge


# ------------------------------------------------------------ labeled trees

def labeled_trees(n: int):
    """All labeled trees on 0..n-1, decoded from their sequences (n >= 2)."""
    if n == 2:
        yield ((0, 1),)
        return
    for seq in permutations_with_repetition(range(n), n - 2):
        yield prufer_decode(n, seq)


def permutations_with_repetition(pool, length):
    if length == 0:
        yield ()
        return
    for head in pool:
        for tail in permutations_with_repetition(pool, length - 1):
            yield (head,) + tail


def prufer_decode(n: int, seq) -> tuple:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [w for w in range(n) if degree[w] == 1]
    edges.append((u, v))
    return tuple(sorted(edges))


def adjacency(n: int, edges) -> list[set[int]]:
    """Each vertex's neighbour set, read off the edges alone."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def ahu_form(n: int, edges) -> str:
    """Canonical string of an unlabeled tree: encode rooted at each center,
    take the smaller."""
    if n == 1:
        return "()"
    adj = adjacency(n, edges)
    # strip leaves layer by layer; survivors are the 1 or 2 centers
    degree = {v: len(adj[v]) for v in range(n)}
    alive = set(range(n))
    layer = [v for v in alive if degree[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for u in adj[v]:
                if u in alive:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt

    def encode(v, parent):
        kids = sorted(encode(u, v) for u in adj[v] if u != parent)
        return "(" + "".join(kids) + ")"

    return min(encode(c, None) for c in alive)


# ------------------------------------------------------- crosscut oracles

def brute_sigma(graph: Graph) -> int:
    """min |I| + #edges-disjoint-from-I over all independent I, by subsets."""
    best = len(graph.edges)  # I empty leaves every edge uncovered
    vertices = list(range(graph.n))
    for r in range(1, graph.n + 1):
        for subset in combinations(vertices, r):
            inside = set(subset)
            if any(u in inside and v in inside for u, v in graph.edges):
                continue
            uncovered = sum(1 for u, v in graph.edges if u not in inside and v not in inside)
            best = min(best, len(subset) + uncovered)
    return best


def branching_pair(graph: Graph) -> CrosscutPair:
    """Optimal crosscut pair of any graph by exact branching.

    Branches vertex-by-vertex in descending degree order over the support
    (an optimal I never uses isolated vertices; they would add weight).
    Partial weight |I| + #edges-with-both-endpoints-excluded only grows, so
    branches strictly above the incumbent weight are cut; ties continue so
    the |I| and lexicographic preferences stay exact.  This is the
    reference the DP is tested against.
    """
    adj = adjacency(graph.n, graph.edges)
    support = [v for v in range(graph.n) if adj[v]]
    order = sorted(support, key=lambda v: (-len(adj[v]), v))
    UNDECIDED, IN, OUT = 0, 1, 2
    state = [UNDECIDED] * graph.n
    taken: list[int] = []
    best_key: list[tuple] = [(len(graph.edges) + 1, 0, ())]
    best_set: list[frozenset[int]] = [frozenset()]

    def walk(idx: int, rcount: int):
        if len(taken) + rcount > best_key[0][0]:
            return
        if idx == len(order):
            key = (len(taken) + rcount, -len(taken), tuple(sorted(taken)))
            if key < best_key[0]:
                best_key[0] = key
                best_set[0] = frozenset(taken)
            return
        v = order[idx]
        if all(state[u] != IN for u in adj[v]):
            state[v] = IN
            taken.append(v)
            walk(idx + 1, rcount)
            taken.pop()
        state[v] = OUT
        newly = sum(1 for u in adj[v] if state[u] == OUT)
        walk(idx + 1, rcount + newly)
        state[v] = UNDECIDED

    walk(0, 0)
    chosen = best_set[0]
    uncovered = frozenset((u, v) for u, v in graph.edges if u not in chosen and v not in chosen)
    return CrosscutPair(chosen, uncovered)


def brute_optimal_pairs(graph: Graph):
    """All (I, weight) with minimum weight, for tie-break checks."""
    sigma = brute_sigma(graph)
    out = []
    for r in range(0, graph.n + 1):
        for subset in combinations(range(graph.n), r):
            inside = set(subset)
            if any(u in inside and v in inside for u, v in graph.edges):
                continue
            uncovered = sum(1 for u, v in graph.edges if u not in inside and v not in inside)
            if len(subset) + uncovered == sigma:
                out.append(frozenset(subset))
    return sigma, out


def brute_min_crosscut(system: TripleSystem):
    """Smallest set meeting every triple exactly once, by subset scan."""
    edges = sorted(system.edges)
    if not edges:
        return (0, frozenset())
    for r in range(1, system.n + 1):
        for subset in combinations(range(system.n), r):
            inside = set(subset)
            if all(len(inside.intersection(e)) == 1 for e in edges):
                return (r, frozenset(subset))
    return None


def brute_lambda_tree(graph: Graph, component) -> int:
    """Definition restated: smaller bipartition part, minus one if it holds a leaf."""
    comp = sorted(component)
    if len(comp) == 1:
        return 0
    adj = adjacency(graph.n, graph.edges)
    side = {comp[0]: 0}
    frontier = [comp[0]]
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in side:
                side[u] = 1 - side[v]
                frontier.append(u)
    parts = [sorted(v for v in comp if side[v] == i) for i in (0, 1)]
    parts.sort(key=len)
    candidates = [parts[0]] if len(parts[0]) < len(parts[1]) else parts
    best = None
    for part in candidates:
        has_leaf = any(len(adj[v]) == 1 for v in part)
        value = len(part) - 1 if has_leaf else len(part)
        best = value if best is None else min(best, value)
    return best


# ---------------------------------------------------- containment oracles

def brute_contains(host: TripleSystem, pattern: TripleSystem) -> bool:
    """Injective map over all vertex arrangements; no pruning."""
    if pattern.n > host.n:
        return False
    pat_edges = sorted(pattern.edges)
    for image in permutations(range(host.n), pattern.n):
        if all(tuple(sorted((image[a], image[b], image[c]))) in host.edges
               for a, b, c in pat_edges):
            return True
    return False


def brute_embeddings(edges, host: TripleSystem, twins: bool = False):
    """Every injective map of the vertices of the pattern triples sending
    each triple onto a host triple, as (vertex, image) lists in the
    kernel's placement order (descending pattern degree, then vertex), by
    a scan of permutations(range(host.n), k) in lexicographic order.  With
    twins, a map is kept only when each image's next smaller twin (from
    brute_smaller_twins) is an earlier image."""
    degree: dict[int, int] = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    support = sorted(degree, key=lambda v: (-degree[v], v))
    smaller = brute_smaller_twins(host.n, host.edges) if twins else {}
    for image in permutations(range(host.n), len(support)):
        at = dict(zip(support, image))
        if all(tuple(sorted(at[v] for v in e)) in host.edges for e in edges) and \
                all(smaller.get(h, -1) in (-1, *image[:i]) for i, h in enumerate(image)):
            yield list(zip(support, image))


def brute_graph_contains(host: Graph, pattern: Graph) -> bool:
    """Injective map over all vertex arrangements; no pruning."""
    if pattern.n > host.n:
        return False
    for image in permutations(range(host.n), pattern.n):
        if all(tuple(sorted((image[a], image[b]))) in host.edges for a, b in pattern.edges):
            return True
    return False


def brute_twin_pairs(n: int, edges) -> set:
    """Pairs h < g whose transposition maps the edge set onto itself."""
    edges = {tuple(sorted(e)) for e in edges}
    pairs = set()
    for h, g in combinations(range(n), 2):
        swap = {h: g, g: h}
        if {tuple(sorted(swap.get(v, v) for v in e)) for e in edges} == edges:
            pairs.add((h, g))
    return pairs


def brute_smaller_twins(n: int, edges) -> dict:
    """Each vertex's largest smaller twin, for the vertices that have one."""
    smaller = {}
    for g, h in sorted(brute_twin_pairs(n, edges)):
        smaller[h] = g  # the largest smaller twin comes last
    return smaller


def brute_turan(n: int, pattern: TripleSystem):
    """Exhaust every subfamily of the complete triple system; returns
    (value, all maximum witnesses as sorted tuples)."""
    triples = list(combinations(range(n), 3))
    best, witnesses = 0, [()]
    for r in range(1, len(triples) + 1):
        found = []
        for subset in combinations(triples, r):
            host = TripleSystem(n, frozenset(subset))
            if not brute_contains(host, pattern):
                found.append(subset)
        if found:
            best, witnesses = r, found
    return best, witnesses


def counter_copies(pattern: TripleSystem, n: int) -> list[frozenset]:
    """Edge sets of all copies of the pattern inside the complete triple
    system on n vertices, one per copy, from a scan over every injective
    map of the pattern's support."""
    return list(_copies(pattern, n))


@lru_cache(maxsize=32)  # counter_turan runs again at every cap of a sweep
def _copies(pattern: TripleSystem, n: int) -> tuple[frozenset, ...]:
    if pattern.n > n:
        return ()
    support = sorted({v for e in pattern.edges for v in e})
    copies = set()
    for image in permutations(range(n), len(support)):
        at = dict(zip(support, image))
        copies.add(frozenset(tuple(sorted(at[v] for v in e)) for e in pattern.edges))
    return tuple(sorted(copies, key=sorted))


def counter_turan(n: int, forbidden: TripleSystem, budget_ms=None, budget_nodes=None,
                  refused: list | None = None):
    """Include-first branch-and-bound over the triples in lex order with one
    hit counter per copy, updated on every include and pop: the loop
    turan_number ran before its bitset kernel, kept as the reference that
    kernel is tested against.  Returns (value, exact, nodes, witness); a
    given refused list gets the number of each node whose triple would
    complete a copy."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    all_triples = list(combinations(range(n), 3))
    copies = _copies(forbidden, n)
    if any(len(c) == 0 for c in copies):
        raise ValueError("an edgeless pattern that fits is contained in every host")
    if not copies:
        witness = tuple(all_triples)
        return len(witness), True, 0, witness

    copies_at: dict = {t: [] for t in all_triples}
    for c, copy in enumerate(copies):
        for t in copy:
            copies_at[t].append(c)
    copy_sizes = [len(c) for c in copies]
    hits = [0] * len(copies)
    budget = Budget(budget_ms, budget_nodes)
    total = len(all_triples)
    included: list[int] = []  # indices of the chosen triples, ascending
    value, witness = 0, ()  # the empty set is free
    exact = True
    idx = 0  # next triple to decide; each pass of the loop is one node
    try:
        while True:
            budget.spend()
            if len(included) > value:
                value, witness = len(included), tuple(all_triples[i] for i in included)
            if idx < total and len(included) + (total - idx) > value:
                t = all_triples[idx]
                if all(hits[c] < copy_sizes[c] - 1 for c in copies_at[t]):
                    for c in copies_at[t]:
                        hits[c] += 1
                    included.append(idx)
                elif refused is not None:
                    refused.append(budget.nodes)
            elif included:  # dead end: take the exclude branch of the last inclusion
                idx = included.pop()
                for c in copies_at[all_triples[idx]]:
                    hits[c] -= 1
            else:
                break
            idx += 1
    except BudgetExhausted:
        exact = False
    return value, exact, budget.nodes, witness


# -------------------------------------------------- full subgraph oracle

def pair_counts(system: TripleSystem) -> Counter:
    """Each pair inside a triple, with the number of triples containing it:
    its keys are the shadow's edges, its values the codegrees."""
    return Counter(pair for e in system.edges for pair in combinations(e, 2))


def recount_full_subgraph(system: TripleSystem, d: int) -> TripleSystem:
    """The loop extraction.full_subgraph ran before it kept its counts
    incrementally: after each deletion every pair of every surviving
    triple is counted again and the sparse pairs sorted.  Kept as the
    reference the incremental version is tested against."""
    remaining = set(system.edges)
    while True:
        counts: dict = {}
        for e in remaining:
            for pair in combinations(e, 2):
                counts[pair] = counts.get(pair, 0) + 1
        sparse = sorted(pair for pair, c in counts.items() if c <= d)
        if not sparse:
            break
        pick = sparse[0]
        remaining = {e for e in remaining if not (pick[0] in e and pick[1] in e)}
    return TripleSystem(system.n, frozenset(remaining))


def brute_rich_subsystems(system: TripleSystem, d: int) -> list[TripleSystem]:
    """Every largest subsystem in which each shadow pair lies in at least
    d+1 of its triples, found by scanning the subsets of the triples from
    the largest size down (the empty one always qualifies)."""
    edges = sorted(system.edges)
    for size in range(len(edges), -1, -1):
        rich = []
        for subset in combinations(edges, size):
            counts: dict = {}
            for e in subset:
                for pair in combinations(e, 2):
                    counts[pair] = counts.get(pair, 0) + 1
            if all(c > d for c in counts.values()):
                rich.append(TripleSystem(system.n, frozenset(subset)))
        if rich:
            return rich


# ------------------------------------------------------- sunflower oracle

def recount_sunflower(items: list[tuple[int, frozenset[int]]], want: int):
    """The link loop extraction._sunflower ran before it counted
    frequencies incrementally: every pass recounts all frequencies and
    copies every remaining set.  Kept as the reference the incremental
    version is tested against; returns (petal indices, core) or None."""
    core: set[int] = set()
    while True:
        taken: list[tuple[int, frozenset[int]]] = []
        union: set[int] = set()
        for idx, s in items:
            if not (s & union):
                taken.append((idx, s))
                union |= s
        if len(taken) >= want:
            picked = taken[:want]
            core.update(picked[0][1].intersection(*(s for _, s in picked[1:])))
            return [idx for idx, _ in picked], frozenset(core)

        freq: dict[int, int] = {}
        for _, s in items:
            for x in s:
                freq[x] = freq.get(x, 0) + 1
        if not freq:
            return None
        x = min(freq, key=lambda el: (-freq[el], el))
        core.add(x)
        items = [(idx, s - {x}) for idx, s in items if x in s]


# ------------------------------------------------------------ grid oracle

def brute_subgrid_labels(colors, xs, ys):
    """Labels recomputed from scratch on the cell matrix."""
    matrix = [[colors[(x, y)] for y in ys] for x in xs]
    flat = [c for row in matrix for c in row]
    labels = set()
    if len(set(flat)) == 1:
        labels.add("monochromatic")
    if len(set(flat)) == len(flat):
        labels.add("rainbow")
    if all(len(set(row)) == 1 for row in matrix):
        firsts = [row[0] for row in matrix]
        if len(set(firsts)) == len(firsts):
            labels.add("row-canonical")
    columns = [[matrix[i][j] for i in range(len(xs))] for j in range(len(ys))]
    if all(len(set(col)) == 1 for col in columns):
        firsts = [col[0] for col in columns]
        if len(set(firsts)) == len(firsts):
            labels.add("column-canonical")
    return frozenset(labels)


# --------------------------------------------------------- random inputs

def brute_components(n: int, edges) -> list[frozenset[int]]:
    """Connected components ordered by smallest member, by relaxing every
    edge to the smaller of its ends' roots until nothing changes."""
    root = list(range(n))
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            low = min(root[u], root[v])
            if root[u] != low or root[v] != low:
                root[u] = root[v] = low
                changed = True
    comps: dict[int, set[int]] = {}  # a root is its component's smallest member
    for v in range(n):
        comps.setdefault(root[v], set()).add(v)
    return [frozenset(comp) for comp in comps.values()]


def brute_is_forest(graph: Graph) -> bool:
    return len(graph.edges) == graph.n - len(brute_components(graph.n, graph.edges))


def brute_is_tree(graph: Graph) -> bool:
    return graph.n > 0 and len(graph.edges) == graph.n - 1 and brute_is_forest(graph)


def brute_two_coloring(n: int, edges):
    """Parity of the distance from the smallest vertex of each component,
    by relaxing every edge until nothing changes; None when some edge joins
    two vertices of equal parity (an odd cycle)."""
    dist = [n] * n
    for comp in brute_components(n, edges):
        dist[min(comp)] = 0
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if dist[a] + 1 < dist[b]:
                    dist[b] = dist[a] + 1
                    changed = True
    if any(dist[u] % 2 == dist[v] % 2 for u, v in edges):
        return None
    return tuple(d % 2 for d in dist)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_system(rng: random.Random, n: int, m: int) -> TripleSystem:
    pool = list(combinations(range(n), 3))
    m = min(m, len(pool))
    return TripleSystem(n, frozenset(rng.sample(pool, m)))


def random_forest(rng: random.Random, n: int) -> Graph:
    # random spanning forest: each non-root vertex may attach to an earlier one
    edges = []
    for v in range(1, n):
        if rng.random() < 0.7:
            edges.append((rng.randrange(v), v))
    return Graph.from_edges(n, edges)


# --------------------------------------------------- biclique completion

def recursive_y_completion(xs, candidates, lists, t):
    """The recursive completion extraction.find_biclique_avoiding_lists ran
    before it became a loop over each candidate's list union: the first t
    candidates, in order, such that no chosen y lies in the list of an
    edge from xs to another chosen y.  Kept as the reference the loop is
    tested against; returns the chosen ys or None."""
    chosen: list[int] = []

    def ok(y: int) -> bool:
        for x in xs:
            new_list = lists[canonical_edge(x, y)]
            if any(prev in new_list for prev in chosen):
                return False
            for prev in chosen:
                if y in lists[canonical_edge(x, prev)]:
                    return False
        return True

    def walk(start: int):
        if len(chosen) == t:
            return True
        for i in range(start, len(candidates)):
            y = candidates[i]
            if ok(y):
                chosen.append(y)
                if walk(i + 1):
                    return True
                chosen.pop()
        return False

    return list(chosen) if walk(0) else None


# ------------------------------------------------- structured multicoloring

def recursive_structured_search(lists, rows, cols, m, s):
    """The subgrid search ramsey.find_structured_multicoloring ran before
    its disjoint branch became one lexicographic loop over the rounds: per
    subgrid the first rainbow choice (shortest list first), else a
    recursive stack of m color-disjoint rounds that lists every candidate
    round again at every level, in every order.  Kept as the reference the
    loop is tested against, without a budget; returns (status, rows, cols,
    labels, colorings)."""
    for xs in combinations(sorted(rows), s):
        for ys in combinations(sorted(cols), s):
            cells = sorted([(x, y) for x in xs for y in ys], key=lambda c: len(lists[c]))
            rainbow = _recursive_rainbow(cells, lists, {})
            if rainbow is not None:
                return "found", xs, ys, ("rainbow",), (rainbow,)
            stacked = _recursive_stack(xs, ys, lists, m, [], [], set())
            if stacked is not None:
                labels, rounds = stacked
                return "found", xs, ys, tuple(labels), tuple(rounds)
    return "absent", None, None, None, None


def _recursive_rainbow(cells, lists, chosen):
    if len(chosen) == len(cells):
        return dict(chosen)
    cell = cells[len(chosen)]
    for c in sorted(lists[cell]):
        if c not in chosen.values():
            chosen[cell] = c
            if _recursive_rainbow(cells, lists, chosen) is not None:
                return dict(chosen)
            del chosen[cell]
    return None


def _candidate_rounds(kind, xs, ys, lists, used):
    # every round of one kind avoiding the used colors, in increasing
    # color order along its lines
    if kind == "monochromatic":
        lines = [[(x, y) for x in xs for y in ys]]
    elif kind == "row-canonical":
        lines = [[(x, y) for y in ys] for x in xs]
    else:
        lines = [[(x, y) for x in xs] for y in ys]
    pools = [sorted(frozenset.intersection(*(lists[c] for c in line)) - used)
             for line in lines]
    out = []

    def build(i, picks):
        if i == len(lines):
            out.append(({c: color for line, color in zip(lines, picks) for c in line},
                        set(picks)))
            return
        for color in pools[i]:
            if color not in picks:
                build(i + 1, picks + [color])

    build(0, [])
    return out


def _recursive_stack(xs, ys, lists, m, labels, rounds, used):
    if len(rounds) == m:
        return list(labels), list(rounds)
    for kind in ("monochromatic", "row-canonical", "column-canonical"):
        for coloring, colors in _candidate_rounds(kind, xs, ys, lists, used):
            labels.append(kind)
            rounds.append(coloring)
            found = _recursive_stack(xs, ys, lists, m, labels, rounds, used | colors)
            if found is not None:
                return found
            labels.pop()
            rounds.pop()
    return None
