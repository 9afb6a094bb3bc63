"""Seeded task lists for the library workloads.

A task is one thing a user asks the library for.  Each carries a thunk
that calls the library, a check that compares the result with a reference
answer recomputed in reference.py (or fixed by the paper's argument), and
the provenance of that answer.  Inputs come only from the workload seed;
the library sees nothing but the generated graphs and triple systems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import reference as ref

# generated-input parameters; "smoke" keeps every task kind at toy size
PARAMS = {
    "paper-audit": {
        "full": {"tree_n": 20, "trees": 140, "audits": 130, "forests": 130,
                 "named_trees": ["path32", "caterpillar10x2", "spider5x6"],
                 "free_k": (5, 6), "free_extra_n": {5: 4, 6: 1},
                 "turan": [("P2", 5), ("P2", 6), ("P2", 7), ("P3", 7), ("S3", 6)],
                 "forest_audits": [("P2", (5, 6, 7)), ("M2", (5, 6, 7))],
                 "jump_audits": [("P3", 8), ("S3", 8), ("P3P3", 8), ("chair", 9)]},
        "smoke": {"tree_n": 10, "trees": 3, "audits": 2, "forests": 2,
                  "named_trees": ["caterpillar3x2"],
                  "free_k": (4, 5), "free_extra_n": {4: 1, 5: 1},
                  "turan": [("P2", 5), ("P3", 6)],
                  "forest_audits": [("P2", (5, 6))],
                  "jump_audits": [("P3", 8), ("S3", 8)]},
    },
    "generic-inputs": {
        "full": {"cyclic_n": 22, "extra_edges": (2, 6), "cyclic": 400,
                 "crosscut_systems": 100, "system_n": (7, 9), "system_m": (4, 8),
                 "contains": 150, "host_n": 12, "host_m": (6, 30),
                 "expansions": 100, "exp_host_n": 12, "exp_host_m": (6, 30),
                 "turan_n": 8, "turan_budget": 40_000, "turan_calls": 14},
        "smoke": {"cyclic_n": 10, "extra_edges": (2, 3), "cyclic": 3,
                  "crosscut_systems": 3, "system_n": (6, 7), "system_m": (3, 5),
                  "contains": 3, "host_n": 7, "host_m": (6, 20),
                  "expansions": 3, "exp_host_n": 7, "exp_host_m": (6, 20),
                  "turan_n": 6, "turan_budget": 2_000, "turan_calls": 1},
    },
}


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    source: str


def edge_list(graph) -> list[tuple]:
    return sorted(graph.edges)


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random attachment: vertex v joins a uniform earlier vertex."""
    return [(rng.randrange(v), v) for v in range(1, n)]


def random_forest_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85]
    return edges or [(0, 1)]


def random_triples(rng: random.Random, n: int, m: int) -> list[tuple[int, int, int]]:
    pool = list(combinations(range(n), 3))
    return sorted(rng.sample(pool, min(m, len(pool))))


# ------------------------------------------------------------------ checks

def as_dict(check):
    """Adapt a check of a dict report to a result object with as_dict()."""
    return lambda result: check(result.as_dict())


def check_pair(graph):
    def check(pair) -> list[str]:
        key = ref.crosscut_key(graph.n, edge_list(graph))
        return ref.pair_problems(edge_list(graph), pair.independent, pair.uncovered, *key)
    return check


def forest_lambda(n: int, edges) -> int:
    """The paper's bipartition weight of a forest, from its definition."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    side, total = {}, 0
    for start in range(n):
        if start in side or not adj[start]:
            continue
        side[start] = 0
        comp, stack = [start], [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in side:
                    side[u] = 1 - side[v]
                    comp.append(u)
                    stack.append(u)
        parts = sorted(([v for v in comp if side[v] == s] for s in (0, 1)), key=len)
        candidates = parts if len(parts[0]) == len(parts[1]) else parts[:1]
        total += min(len(p) - 1 if any(len(adj[v]) == 1 for v in p) else len(p)
                     for p in candidates)
    return total


def check_audit(n: int, edges) -> Callable[[dict], list[str]]:
    """Check a crosscut_audit report (also the crosscut-audit CLI output)."""
    def check(report) -> list[str]:
        key = ref.crosscut_key(n, edges)
        uncovered = [tuple(e) for e in report["R"]]
        problems = ref.pair_problems(edges, report["I"], uncovered, *key)
        if report["sigma"] != key[0]:
            problems.append(f"sigma {report['sigma']} != {key[0]}")
        if report["lambda"] != forest_lambda(n, uncovered):
            problems.append("lambda of the uncovered forest is wrong")
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        if failed:
            problems.append(f"paper's structural checks failed: {failed}")
        return problems
    return check


def check_completion(forest):
    def check(tree) -> list[str]:
        sigma = ref.crosscut_key(forest.n, edge_list(forest))[0]
        problems = []
        if tree.n != forest.n or len(tree.edges) != tree.n - 1 or not tree.is_tree():
            problems.append("completion is not a spanning tree")
        if not forest.edges <= tree.edges:
            problems.append("completion dropped a forest edge")
        got = ref.crosscut_key(tree.n, edge_list(tree))[0]
        if got != sigma:
            problems.append(f"completion has sigma {got}, forest has {sigma}")
        return problems
    return check


def check_copy(host, pattern, want_found: bool | None = None):
    """Compare a containment answer with want_found, or with a brute force
    scan when it is None; a witness must pass both the independent map
    check and its own EmbeddingCertificate.check."""
    pat_triples = sorted(pattern.edges)

    def check(cert) -> list[str]:
        want = want_found
        if want is None:
            want = ref.contains(host.n, host.edges, pattern.n, pat_triples)
        if cert is None:
            return ["no copy returned, a copy exists"] if want else []
        if not want:
            return ["copy returned, the host is free"]
        problems = ref.mapping_problems(cert.mapping, host.n, host.edges, pattern.n, pat_triples)
        if not problems and not cert.check(host, pattern):
            problems.append("EmbeddingCertificate.check rejects the witness")
        return problems
    return check


def check_turan(n, pat_n, pat_triples, value, exact: bool | None):
    """Check a TuranResult.as_dict() (also the turan CLI output).  exact is
    True when an exact maximum equal to value is expected, False when a
    budget must run out, None when either is acceptable."""
    def check(out) -> list[str]:
        problems = []
        witness = [tuple(t) for t in out["witness"]]
        if len(set(witness)) != out["value"] or any(max(t) >= n for t in witness):
            problems.append("witness size or range does not match the value")
        if ref.contains(n, witness, pat_n, pat_triples):
            problems.append("witness contains the forbidden pattern")
        if exact is not None and out["exact"] != exact:
            problems.append(f"exact={out['exact']}, expected {exact}")
        elif exact and out["value"] != value:
            problems.append(f"value {out['value']} != reference {value}")
        return problems
    return check


# ------------------------------------------------------------ paper-audit

def named_tree(name: str) -> tuple[int, list[tuple[int, int]]]:
    """Fixed trees: path<n>, caterpillar<spine>x<legs>, spider<legs>x<length>."""
    if name.startswith("path"):
        n = int(name[4:])
        return n, [(i, i + 1) for i in range(n - 1)]
    if name.startswith("caterpillar"):
        spine, legs = map(int, name[11:].split("x"))
        edges, v = [(i, i + 1) for i in range(spine - 1)], spine
        for i in range(spine):
            for _ in range(legs):
                edges.append((i, v))
                v += 1
        return v, edges
    if name.startswith("spider"):
        legs, length = map(int, name[6:].split("x"))
        edges, v = [], 1
        for _ in range(legs):
            prev = 0
            for _ in range(length):
                edges.append((prev, v))
                prev, v = v, v + 1
        return v, edges
    raise ValueError(f"unknown tree {name}")


def base_graph(lib, name: str):
    return lib.Graph.from_edges(*ref.BASE_GRAPHS[name])


FREE_SOURCE = ("paper: a copy of T+ in the core-c construction gives T+ a crosscut "
               "of size <= c < sigma")
COPY_SOURCE = ("paper: an optimal crosscut of size sigma maps onto the core-sigma "
               "construction once n >= 2k-1; witness checked")


def paper_audit(lib, rng: random.Random, p: dict) -> list[Task]:
    tasks: list[Task] = []
    turan_table = ref.load_turan_table()
    crosscut_src = "tree_crosscut_number agreement and reference.crosscut_key DP"

    n = p["tree_n"]
    named = [lib.Graph.from_edges(*named_tree(name)) for name in p["named_trees"]]
    random_trees = [lib.Graph.from_edges(n, random_tree_edges(rng, n))
                    for _ in range(p["trees"])]
    for tree in random_trees + named:
        pair_check = check_pair(tree)

        def check(pair, tree=tree, pair_check=pair_check):
            problems = pair_check(pair)
            dp = lib.tree_crosscut_number(tree)
            if dp != pair.weight:
                problems.append(f"tree_crosscut_number {dp} != best pair weight {pair.weight}")
            return problems
        tasks.append(Task("crosscut.best_pair_tree",
                          lambda tree=tree: lib.best_crosscut_pair(tree), check, crosscut_src))
    audit_trees = [lib.Graph.from_edges(n, random_tree_edges(rng, n))
                   for _ in range(p["audits"])]
    for tree in audit_trees + named:
        tasks.append(Task("crosscut.audit", lambda tree=tree: lib.crosscut_audit(tree),
                          check_audit(tree.n, edge_list(tree)),
                          crosscut_src + "; paper's structural lemma for the checks"))
    for i in range(p["forests"]):
        forest = lib.Graph.from_edges(n, random_forest_edges(rng, n))
        tasks.append(Task("crosscut.complete_forest",
                          lambda forest=forest: lib.complete_forest_to_tree(forest),
                          check_completion(forest), "reference.crosscut_key DP"))

    for k in p["free_k"]:
        for tree in lib.trees(k):
            sigma = ref.crosscut_key(k, edge_list(tree))[0]
            if sigma < 2:
                continue
            pattern = lib.expand(tree).system
            for n in range(2 * k - 1, 2 * k - 1 + p["free_extra_n"][k]):
                for core, want, kind, source in (
                        (sigma - 1, False, "search.freeness_proof", FREE_SOURCE),
                        (sigma, True, "search.core_copy", COPY_SOURCE)):
                    host = lib.TripleSystem(n, frozenset(ref.core_construction(n, core)))
                    tasks.append(Task(
                        kind,
                        lambda n=n, core=core, tree=tree:
                            lib.contains_expansion(lib.lower_bound_construction(n, core), tree),
                        check_copy(host, pattern, want), source))

    for name, n in p["turan"]:
        base = base_graph(lib, name)
        pat_n, pat_triples = ref.expansion(base.n, edge_list(base))
        row = turan_table[f"{name}+@{n}"]
        forbidden = lib.expand(base).system
        tasks.append(Task("search.turan_exact",
                          lambda n=n, forbidden=forbidden: lib.turan_number(n, forbidden),
                          as_dict(check_turan(n, pat_n, pat_triples, row["value"], True)),
                          "references.json: " + row["provenance"]))

    for name, ns in p["forest_audits"]:
        forest = base_graph(lib, name)
        tasks.append(Task("search.audit_forest_bound",
                          lambda forest=forest, ns=ns: lib.audit_forest_bound(forest, ns),
                          check_forest_audit(forest.n, edge_list(forest), name, ns, turan_table),
                          "formula, paper's freeness argument, references.json"))
    for name, n in p["jump_audits"]:
        graph = base_graph(lib, name)
        tasks.append(Task("search.audit_sigma_jump",
                          lambda graph=graph, n=n: lib.audit_sigma_jump(graph, n),
                          check_jump_audit(graph.n, edge_list(graph), n),
                          "reference.crosscut_key, formula, paper, brute graph containment"))
    rng.shuffle(tasks)
    return tasks


def check_forest_audit(n, edges, name, ns, table, exact_max_n: int = 6):
    """Check an audit_forest_bound report (also the audit-theorem1 output)."""
    def check(report) -> list[str]:
        core = ref.crosscut_key(n, edges)[0] - 1
        problems = []
        if report["core_size"] != core:
            problems.append("sigma or core size is wrong")
        rows = {row["n"]: row for row in report["rows"]}
        for size in ns:
            row = rows.get(size)
            bound = ref.core_construction_size(size, core)
            if row is None or row.get("bound") != bound or row.get("construction_edges") != bound:
                problems.append(f"n={size}: construction size is not {bound}")
                continue
            if row["free"] is not True:
                problems.append(f"n={size}: construction reported not free")
            want = {"value": table[f"{name}+@{size}"]["value"], "exact": True} \
                if size <= exact_max_n else None
            if row["turan"] != want:
                problems.append(f"n={size}: turan {row['turan']} != {want}")
        return problems
    return check


def check_jump_audit(k: int, edges, n: int):
    """Check an audit_sigma_jump report (also the audit-jump CLI output)."""
    star_plus = [(0, i) for i in range(1, k)] + ([(1, 2)] if k >= 3 else [])
    bipartite = [(a, b) for a in (0, 1) for b in range(2, k)]

    def check(report) -> list[str]:
        sigma = ref.crosscut_key(k, edges)[0]
        problems = []
        if report["sigma"] != sigma:
            problems.append(f"sigma {report['sigma']} != {sigma}")
        if sigma < 2:
            if report["construction"] is not None:
                problems.append("construction reported for sigma < 2")
            return problems
        core = 2 if sigma >= 3 else 1
        if report["edges"] != ref.core_construction_size(n, core) \
                or report["expected_edges"] != report["edges"]:
            problems.append("construction size is wrong")
        if report["free"] is not True:
            problems.append("construction reported not free")
        if sigma == 2:
            want = {
                "in_star_plus_edge": ref.graph_contains(k, star_plus, k, edges),
                "in_complete_bipartite_two":
                    k >= 2 and ref.graph_contains(k, bipartite, k, edges),
            }
            if report["shape"] != want:
                problems.append(f"shape {report['shape']} != {want}")
        return problems
    return check


# --------------------------------------------------------- generic-inputs

def generic_inputs(lib, rng: random.Random, p: dict) -> list[Task]:
    tasks: list[Task] = []
    for i in range(p["cyclic"]):
        n = p["cyclic_n"]
        edges = set(random_tree_edges(rng, n))
        target = len(edges) + rng.randint(*p["extra_edges"])
        while len(edges) < target:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        graph = lib.Graph.from_edges(n, sorted(edges))
        tasks.append(Task("crosscut.best_pair_cyclic",
                          lambda graph=graph: lib.best_crosscut_pair(graph),
                          check_pair(graph), "reference.crosscut_key DP"))
    for i in range(p["crosscut_systems"]):
        n = rng.randint(*p["system_n"])
        system = lib.TripleSystem.from_edges(n, random_triples(rng, n, rng.randint(*p["system_m"])))
        tasks.append(Task("crosscut.min_crosscut", lambda s=system: lib.min_crosscut(s),
                          check_min_crosscut(n, sorted(system.edges)),
                          "brute force subset scan"))
    patterns = [t for k in (4, 5, 6) for t in lib.triple_trees(k)]
    for i in range(p["contains"]):
        n = p["host_n"]
        host = lib.TripleSystem.from_edges(n, random_triples(rng, n, rng.randint(*p["host_m"])))
        pattern = patterns[rng.randrange(len(patterns))]
        tasks.append(Task("search.contains",
                          lambda h=host, q=pattern: lib.contains(h, q),
                          check_copy(host, pattern), "brute force permutation scan"))
    for i in range(p["expansions"]):
        n = p["exp_host_n"]
        host = lib.TripleSystem.from_edges(n, random_triples(rng, n, rng.randint(*p["exp_host_m"])))
        name = sorted(ref.BASE_GRAPHS)[rng.randrange(len(ref.BASE_GRAPHS))]
        base = base_graph(lib, name)
        tasks.append(Task("search.contains_expansion",
                          lambda h=host, b=base: lib.contains_expansion(h, b),
                          check_copy(host, lib.expand(base).system),
                          "brute force permutation scan"))
    # the three-page book: three triples through one pair
    book = next(t for t in lib.triple_trees(5) if max(t.pair_counts.values()) == 3)
    for i in range(p["turan_calls"]):
        n, budget = p["turan_n"], p["turan_budget"]
        tasks.append(Task("search.turan_budget",
                          lambda n=n, budget=budget: lib.turan_number(n, book, budget_nodes=budget),
                          as_dict(check_turan(n, book.n, sorted(book.edges), None, None)),
                          "witness checked by brute force; value is a lower bound"))
    rng.shuffle(tasks)
    return tasks


def check_min_crosscut(n: int, triples):
    """Check min_crosscut's (size, witness) or None against a subset scan."""
    def check(found) -> list[str]:
        want = ref.min_crosscut(n, triples)
        if found is None:
            return [] if want is None else [f"no crosscut returned, minimum is {want}"]
        size, witness = found
        if want is None:
            return ["crosscut returned where none exists"]
        problems = []
        if size != want or len(witness) != size:
            problems.append(f"size {size} != minimum {want}")
        if not ref.is_exact_crosscut(triples, witness):
            problems.append("witness does not meet every triple exactly once")
        return problems
    return check


TASK_LISTS = {"paper-audit": paper_audit, "generic-inputs": generic_inputs}


def build(lib, workload: str, seed: int, smoke: bool) -> list[Task]:
    params = PARAMS[workload]["smoke" if smoke else "full"]
    return TASK_LISTS[workload](lib, random.Random(f"{workload}:{seed}"), params)
