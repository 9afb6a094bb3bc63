"""The cli-batch workload: input files, argv lists and expected outcomes.

Everything here is plain Python with no import of the library, so the
benchmark can plan the calls, write the files and judge the outputs
independently of the code under test.  Files use the CLI's documented
formats: "n m" plus edge lines for text, {"n", "edges"} for JSON.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import reference as ref
from tasks import (check_audit, check_forest_audit, check_jump_audit, check_min_crosscut,
                   check_turan, forest_lambda)

# inputs whose malformed JSON escapes as a TypeError traceback (exit 1)
# instead of the documented exit 2; counted as failures, never skipped
KNOWN_DEFECTS = {
    "bad_row.json": "coloring row 5 is not an [x, y, c] triple",
    "bad_edge.json": "graph edge [0, 1, 2] has three vertices",
    "bad_n.json": "graph vertex count \"n\": \"x\" is not an integer",
}

PARAMS = {
    "full": {"tree_n": (12, 16), "cyclic_n": (14, 18), "grid": 14, "biclique_t": 5,
             "list_size": 2, "family": 48, "augmented": 12, "mc_side": 8},
    "smoke": {"tree_n": (6, 8), "cyclic_n": (6, 8), "grid": 4, "biclique_t": 2,
              "list_size": 2, "family": 48, "augmented": 6, "mc_side": 3},
}


@dataclass
class Call:
    argv: list[str]
    expect_code: int
    check: Callable[[dict], list[str]] = field(default=lambda out: [])
    known_defect: str | None = None


def graph_text(n, edges) -> str:
    edges = sorted(tuple(sorted(e)) for e in edges)
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def triples_text(n, triples) -> str:
    triples = sorted(tuple(sorted(t)) for t in triples)
    return "\n".join([f"{n} {len(triples)}"] + [" ".join(map(str, t)) for t in triples]) + "\n"


def graph_json(n, edges) -> str:
    return json.dumps({"n": n, "edges": [list(e) for e in sorted(edges)]})


def _tree(rng, n):
    return [(rng.randrange(v), v) for v in range(1, n)]


# --------------------------------------------------------------- checkers

def check_pair(n, edges):
    def check(out):
        sigma, size = ref.crosscut_key(n, edges)
        return ref.pair_problems(edges, out["I"], [tuple(e) for e in out["R"]], sigma, size)
    return check


def check_completion(n, edges):
    def check(out):
        tree = [tuple(e) for e in out["edges"]]
        sigma = ref.crosscut_key(n, edges)[0]
        problems = []
        if out["n"] != n or len(tree) != n - 1 or not set(map(tuple, edges)) <= set(tree):
            problems.append("completion is not a spanning tree over the forest")
        elif ref.crosscut_key(n, tree)[0] != sigma or out["sigma"] != sigma:
            problems.append("completion changed sigma")
        return problems
    return check


def full_subgraph(triples, d):
    remaining = set(triples)
    while True:
        counts = {}
        for e in remaining:
            for pair in combinations(e, 2):
                counts[pair] = counts.get(pair, 0) + 1
        sparse = sorted(p for p, c in counts.items() if c <= d)
        if not sparse:
            return remaining
        a, b = sparse[0]
        remaining = {e for e in remaining if not (a in e and b in e)}


def check_full_subgraph(triples, d):
    def check(out):
        want = full_subgraph(triples, d)
        got = {tuple(e) for e in out["edges"]}
        if got != want or out["removed"] != len(triples) - len(want):
            return ["trimmed system differs from the definition"]
        return []
    return check


def check_sunflower(sets, petals):
    def check(out):
        if not out["found"]:
            return ["no sunflower, but the family is above the Erdos-Rado threshold"]
        picked = [set(sets[i]) for i in out["petals"]]
        core = set(out["core"])
        if len(set(out["petals"])) != petals or \
                any(a & b != core for a, b in combinations(picked, 2)):
            return ["petals do not form a sunflower with the reported core"]
        return []
    return check


def check_trim(pairs):
    def check(out):
        chosen = [set(pairs[i][0]) | {pairs[i][1]} for i in out["selected"]]
        if any(a & b for a, b in combinations(chosen, 2)):
            return ["selected augmented sets intersect"]
        if 3 * len(chosen) < len(pairs):
            return ["selected fewer than a third of the family"]
        return []
    return check


def first_biclique(xs, ys, lists, t):
    """First (X', Y') in sorted order whose edge lists all miss X' + Y'."""
    for a in combinations(xs, t):
        # a y whose own lists meet X' can never be used with this X'
        fits = [y for y in ys if all(not (lists[(x, y)] & set(a)) for x in a)]
        for b in combinations(fits, t):
            if all(not (lists[(x, y)] & set(b)) for x in a for y in b):
                return list(a), list(b)
    return None


def check_biclique(xs, ys, lists, t):
    def check(out):
        want = first_biclique(xs, ys, lists, t)
        got = (out["X"], out["Y"]) if out["found"] else None
        return [] if got == want else [f"biclique {got} != first valid {want}"]
    return check


def grid_labels(rows, cols, colors):
    matrix = [[colors[(x, y)] for y in cols] for x in rows]
    flat = [c for row in matrix for c in row]
    labels = set()
    if len(set(flat)) == 1:
        labels.add("monochromatic")
    if len(set(flat)) == len(flat):
        labels.add("rainbow")
    for name, lines in (("row-canonical", matrix), ("column-canonical", list(zip(*matrix)))):
        if all(len(set(line)) == 1 for line in lines) and \
                len({line[0] for line in lines}) == len(lines):
            labels.add(name)
    return sorted(labels)


def check_classify(rows, cols, colors):
    def check(out):
        want = grid_labels(rows, cols, colors) or ["none"]
        return [] if out["labels"] == want else [f"labels {out['labels']} != {want}"]
    return check


def check_subgrid(rows, cols, colors, s):
    def check(out):
        for a in combinations(sorted(rows), s):
            for b in combinations(sorted(cols), s):
                labels = grid_labels(a, b, colors)
                if labels:
                    want = {"found": True, "X": list(a), "Y": list(b), "labels": labels}
                    return [] if out == want else [f"subgrid {out} != first {want}"]
        return [] if not out["found"] else ["subgrid reported where none exists"]
    return check


def list_assignment(triples, xs, ys):
    grid = set(xs) | set(ys)
    return {(x, y): {t[0] + t[1] + t[2] - x - y for t in triples if x in t and y in t} - grid
            for x in xs for y in ys}


def check_lists(triples, xs, ys):
    def check(out):
        lists = list_assignment(triples, xs, ys)
        got = {(row["edge"][0], row["edge"][1]): set(row["set"]) for row in out["lists"]}
        return [] if got == lists else ["lists differ from the host's third vertices"]
    return check


def coloring_problems(colorings, lists, cells):
    problems = []
    for chi in colorings:
        got = {(x, y): c for x, y, c in chi}
        if set(got) != set(cells) or any(got[c] not in lists[c] for c in cells):
            problems.append("a round leaves the lists or misses a cell")
    for cell in cells:
        picks = [next(c for x, y, c in chi if (x, y) == cell) for chi in colorings]
        if len(set(picks)) != len(picks):
            problems.append(f"cell {cell} repeats a color across rounds")
            break
    return problems


def check_multicolor(triples, xs, ys, m):
    def check(out):
        lists = list_assignment(triples, xs, ys)
        want = all(len(v) >= m for v in lists.values())
        if out["found"] != want:
            return [f"found={out['found']}, expected {want}"]
        return coloring_problems(out["colorings"], lists, list(lists)) if want else []
    return check


def check_structured(triples, xs, ys, m, s):
    def check(out):
        if out["status"] != "found":
            return [f"status {out['status']}, a planted solution exists"]
        full = list_assignment(triples, xs, ys)
        cells = [(x, y) for x in out["X"] for y in out["Y"]]
        lists = {c: full[c] for c in cells}
        problems = coloring_problems(out["colorings"], lists, cells)
        if len(out["X"]) != s or len(out["Y"]) != s:
            problems.append("subgrid has the wrong size")
        rounds = 1 if out["labels"] == ["rainbow"] else m
        if len(out["colorings"]) != rounds:
            problems.append(f"{len(out['colorings'])} rounds, expected {rounds}")
        colors = []
        for chi, label in zip(out["colorings"], out["labels"]):
            got = {(x, y): c for x, y, c in chi}
            if label not in grid_labels(out["X"], out["Y"], got):
                problems.append(f"round is not {label}")
            colors.append(set(got.values()))
        if any(a & b for a, b in combinations(colors, 2)):
            problems.append("rounds share a color")
        return problems
    return check


def check_copy(host_n, host, pat_n, pattern, want=None):
    def check(out):
        found = ref.contains(host_n, host, pat_n, pattern) if want is None else want
        if out["found"] != found:
            return [f"found={out['found']}, expected {found}"]
        if found:
            return ref.mapping_problems(dict(map(tuple, out["map"])), host_n, host, pat_n, pattern)
        return []
    return check


def check_construct(n, core):
    def check(out):
        want = {tuple(t) for t in ref.core_construction(n, core)}
        return [] if {tuple(e) for e in out["edges"]} == want else ["construction differs"]
    return check


def check_expand(n, edges):
    def check(out):
        size, triples = ref.expansion(n, edges)
        if out["n"] != size or [tuple(e) for e in out["edges"]] != sorted(triples) \
                or out["enlargement"] != [list(t) for t in triples]:
            return ["expansion differs"]
        return []
    return check


def check_lambda(n, edges):
    def check(out):
        want = forest_lambda(n, edges)
        return [] if out["lambda"] == want else [f"lambda {out['lambda']} != {want}"]
    return check


# -------------------------------------------------------------------- plan

def cycle(rng: random.Random, c: int, p: dict, table) -> tuple[dict[str, str], list[Call]]:
    """Files and calls for one pass over every subcommand."""
    files: dict[str, str] = {}
    calls: list[Call] = []

    def put(name, text):
        files[f"c{c}_{name}"] = text
        return f"c{c}_{name}"

    def call(argv, check=None, code=0, defect=None):
        calls.append(Call(argv + ["--json"], code, check or (lambda out: []), defect))

    n = rng.randint(*p["tree_n"])
    tree = _tree(rng, n)
    f_tree = put("tree.txt", graph_text(n, tree))
    call(["expand", "--graph", f_tree], check_expand(n, tree))
    call(["crosscut-audit", "--graph", f_tree], check_audit(n, tree))

    fn = rng.randint(*p["tree_n"])
    forest = sorted({(rng.randrange(v), v) for v in range(1, fn) if rng.random() < 0.8}
                    or {(0, 1)})
    f_forest = put("forest.json", graph_json(fn, forest))
    call(["lambda", "--graph", f_forest], check_lambda(fn, forest))
    call(["complete-tree", "--graph", f_forest], check_completion(fn, forest))

    cn = rng.randint(*p["cyclic_n"])
    cyclic = set(_tree(rng, cn))
    target = len(cyclic) + rng.randint(2, 4)
    while len(cyclic) < target:
        cyclic.add(tuple(sorted(rng.sample(range(cn), 2))))
    cyclic = sorted(cyclic)
    call(["sigma", "--graph", put("cyclic.txt", graph_text(cn, cyclic))], check_pair(cn, cyclic))

    small = sorted(rng.sample(list(combinations(range(8), 3)), rng.randint(6, 10)))
    f_small = put("small.txt", triples_text(8, small))
    min_crosscut = check_min_crosscut(8, small)
    call(["sigma", "--triples", f_small],
         lambda out: min_crosscut(None if out["sigma"] is None else (out["sigma"], out["witness"])))
    call(["full-subgraph", "--triples", f_small, "--d", "1"], check_full_subgraph(small, 1))

    sets = [list(s) for s in rng.sample(list(combinations(range(14), 3)), p["family"])]
    f_family = put("family.json", json.dumps({"sets": sets}))
    call(["sunflower", "--family", f_family, "--petals", "3"], check_sunflower(sets, 3))

    pool = list(range(4 * p["augmented"]))
    rng.shuffle(pool)
    anchors = rng.sample(range(4 * p["augmented"]), p["augmented"])
    pairs = [(sorted(pool[2 * i:2 * i + 2]), anchors[i]) for i in range(p["augmented"])]
    f_aug = put("augmented.json", json.dumps(
        {"pairs": [{"set": s, "element": a} for s, a in pairs]}))
    call(["trim-select", "--family", f_aug], check_trim(pairs))

    # biclique: complete grid X x Y, lists drawn from every vertex
    g = p["grid"]
    xs, ys = list(range(g)), list(range(g, 2 * g))
    total = 2 * g + 4
    lists = {(x, y): set(rng.sample([v for v in range(total) if v not in (x, y)],
                                    p["list_size"])) for x in xs for y in ys}
    grid_edges = [(x, y) for x in xs for y in ys]
    host = [(x, y, z) for (x, y), zs in lists.items() for z in zs]
    f_grid = put("grid.txt", graph_text(total, grid_edges))
    f_lists = put("lists.json", json.dumps(
        {"lists": [{"edge": [x, y], "set": sorted(zs)} for (x, y), zs in sorted(lists.items())]}))
    f_bhost = put("biclique_host.txt", triples_text(total, host))
    call(["biclique", "--grid", f_grid, "--lists", f_lists, "--t", str(p["biclique_t"]),
          "--host", f_bhost], check_biclique(xs, ys, lists, p["biclique_t"]))

    rows, cols = [0, 1, 2, 3], [4, 5, 6, 7]
    colors = {(x, y): rng.randrange(3) for x in rows for y in cols}
    f_col = put("coloring.json", json.dumps(
        {"X": rows, "Y": cols, "edges": [[x, y, c] for (x, y), c in sorted(colors.items())]}))
    call(["classify", "--coloring", f_col], check_classify(rows, cols, colors))
    call(["ramsey-subgrid", "--coloring", f_col, "--s", "2"], check_subgrid(rows, cols, colors, 2))

    # multicoloring host over three colors: no 2x2 subgrid has a rainbow
    # coloring, and three rounds with disjoint colors need all three colors
    # on every cell, which only the last 2x2 subgrid has (planted answer),
    # so the structured search scans every subgrid before it
    side = p["mc_side"]
    mx, my = list(range(side)), list(range(side, 2 * side))
    palette = list(range(2 * side, 2 * side + 3))
    mc = []
    for x in mx:
        for y in my:
            planted = x >= side - 2 and y >= 2 * side - 2
            for z in (palette if planted else rng.sample(palette, 2)):
                mc.append((x, y, z))
    f_mc = put("mc_host.txt", triples_text(2 * side + 3, mc))
    x_arg, y_arg = ",".join(map(str, mx)), ",".join(map(str, my))
    call(["lists", "--host", f_mc, "--x", x_arg, "--y", y_arg], check_lists(mc, mx, my))
    call(["multicolor", "--host", f_mc, "--x", x_arg, "--y", y_arg, "--m", "2"],
         check_multicolor(mc, mx, my, 2))
    call(["multicolor", "--host", f_mc, "--x", x_arg, "--y", y_arg, "--m", "3",
          "--structured", "--s", "2"], check_structured(mc, mx, my, 3, 2))

    hn = 9
    chost = sorted(rng.sample(list(combinations(range(hn), 3)), rng.randint(14, 30)))
    pat = [(0, 1, 2), (0, 3, 4), (1, 3, 5)] if rng.random() < 0.5 else [(0, 1, 2), (0, 1, 3), (2, 3, 4)]
    pat_n = max(map(max, pat)) + 1
    call(["contains", "--host", put("chost.txt", triples_text(hn, chost)),
          "--pattern", put("pattern.txt", triples_text(pat_n, pat))],
         check_copy(hn, chost, pat_n, pat))

    # fixed heavy calls: freeness proofs and budgeted searches
    for name in ("P2", "M2", "P3", "P5", "chair"):
        files[f"{name}.txt"] = graph_text(*ref.BASE_GRAPHS[name])
    for name in ("P5", "chair"):
        k, edges = ref.BASE_GRAPHS[name]
        host_n = 2 * k
        core_host = ref.core_construction(host_n, ref.crosscut_key(k, edges)[0] - 1)
        exp_n, exp_triples = ref.expansion(k, edges)
        files[f"core_{name}.txt"] = triples_text(host_n, core_host)
        call(["contains", "--host", f"core_{name}.txt", "--expansion-of", f"{name}.txt"],
             check_copy(host_n, core_host, exp_n, exp_triples, False))
        call(["audit-jump", "--graph", f"{name}.txt", "--n", str(host_n)],
             check_jump_audit(k, edges, host_n))
    for name in ("P3", "M2"):
        pat_n, pattern = ref.expansion(*ref.BASE_GRAPHS[name])
        call(["turan", "--n", "7", "--expansion-of", f"{name}.txt", "--budget-nodes", "50000"],
             check_turan(7, pat_n, pattern, None, False), code=3)

    call(["construct", "--n", "9", "--core", "2"], check_construct(9, 2))
    p2_n, p2 = ref.expansion(*ref.BASE_GRAPHS["P2"])
    m2_n, m2 = ref.expansion(*ref.BASE_GRAPHS["M2"])
    call(["turan", "--n", "7", "--expansion-of", "P2.txt"],
         check_turan(7, p2_n, p2, table["P2+@7"]["value"], True))
    call(["turan", "--n", "6", "--expansion-of", "M2.txt"],
         check_turan(6, m2_n, m2, table["M2+@6"]["value"], True))
    call(["audit-theorem1", "--graph", "P2.txt", "--n-list", "5,6,7"],
         check_forest_audit(*ref.BASE_GRAPHS["P2"], "P2", (5, 6, 7), table))

    # malformed inputs: each must exit 2 with a one-line diagnostic
    files["bad_row.json"] = json.dumps({"X": [0, 1], "Y": [2, 3], "edges": [5]})
    files["bad_edge.json"] = json.dumps({"n": 3, "edges": [[0, 1, 2]]})
    files["bad_n.json"] = json.dumps({"n": "x", "edges": []})
    files["bad_header.txt"] = "not a graph\n"
    files["bad_syntax.json"] = "{not json"
    call(["classify", "--coloring", "bad_row.json"], code=2, defect=KNOWN_DEFECTS["bad_row.json"])
    call(["sigma", "--graph", "bad_edge.json"], code=2, defect=KNOWN_DEFECTS["bad_edge.json"])
    call(["lambda", "--graph", "bad_n.json"], code=2, defect=KNOWN_DEFECTS["bad_n.json"])
    call(["sigma", "--graph", "bad_header.txt"], code=2)
    call(["expand", "--graph", "bad_syntax.json"], code=2)
    return files, calls


def plan(seed: int, cycles: int, smoke: bool) -> tuple[dict[str, str], list[Call]]:
    p = PARAMS["smoke" if smoke else "full"]
    table = ref.load_turan_table()
    files: dict[str, str] = {}
    calls: list[Call] = []
    for c in range(cycles):
        more_files, more_calls = cycle(random.Random(f"cli-batch:{seed}:{c}"), c, p, table)
        files.update(more_files)
        calls += more_calls
    return files, calls


def write_files(workdir: str, files: dict[str, str]) -> None:
    os.makedirs(workdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)


def with_dir(workdir: str, argv: list[str]) -> list[str]:
    """Prefix the call's input file names with the work directory."""
    out = []
    for i, a in enumerate(argv):
        if i > 0 and argv[i - 1] in FILE_FLAGS:
            a = os.path.join(workdir, a)
        out.append(a)
    return out


FILE_FLAGS = {"--graph", "--triples", "--family", "--grid", "--lists", "--host",
              "--coloring", "--pattern", "--expansion-of"}


def judge(call: Call, code: int, stdout: str, stderr: str) -> tuple[str, list[str]]:
    """('pass' | 'known' | 'fail', problems) for one finished call."""
    if "Traceback" in stderr or code != call.expect_code:
        problems = [f"exit {code}, expected {call.expect_code}"
                    + (" with a traceback" if "Traceback" in stderr else "")]
        if call.known_defect and code == 1 and "TypeError" in stderr:
            return "known", problems + [call.known_defect]
        return "fail", problems
    if call.expect_code == 2:
        return "pass", []
    try:
        out = json.loads(stdout)
    except ValueError:
        return "fail", ["stdout is not JSON"]
    try:
        problems = call.check(out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems = [f"output has the wrong shape: {exc!r}"]
    return ("fail" if problems else "pass"), problems


def judge_all(calls, results) -> tuple[list[dict], list[dict], dict[str, int]]:
    """(failures, known defects, exit-code counts) over (code, stdout, stderr)."""
    failures, known, exits = [], [], {}
    for i, (call, (code, out, err)) in enumerate(zip(calls, results)):
        verdict, problems = judge(call, code, out, err)
        row = {"task": i, "argv": call.argv, "problems": problems}
        if verdict == "fail":
            failures.append(row)
        elif verdict == "known":
            known.append(row)
        key = "unexpected" if "Traceback" in err or code not in (0, 2, 3) else f"exit{code}"
        exits[key] = exits.get(key, 0) + 1
    return failures, known, exits
