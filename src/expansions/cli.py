"""Command line interface.

Every capability is exposed as a subcommand; run with no arguments for
the list.  Each handler imports the library modules it uses when it runs,
so the usage path loads none and a subcommand loads only its own; main
imports argparse and json only once the subcommand is known.  Graph and
triple-system files use the text format ("n m" header plus edge lines)
or the JSON mirror when the filename ends in .json; families, lists, and
colorings are JSON only (schemas in the README).

Every subcommand takes --json for machine output (the human output
renders the same dictionary).  Only the subcommands with a budgeted
search, turan, audit-theorem1 (per row) and multicolor --structured,
take --budget-ms and --budget-nodes; their --help has the rule.

Exit codes: 0 success, 1 unknown subcommand (usage printed), 2 invalid
input, 3 budget exhausted (the flagged partial result is still printed;
audit-theorem1 exits 3 when any row's Turan search is inexact), and
the same when the reader closes the output early.
"""

from __future__ import annotations

import os
import sys


def _one_of(args, a: str, b: str) -> str:
    """Which of the options a and b was given; ValueError unless exactly one."""
    given = [dest for dest in (a, b) if getattr(args, dest) is not None]
    if len(given) != 1:
        raise ValueError(f"give exactly one of --{a} or --{b}".replace("_", "-"))
    return given[0]


def _int_list(raw: str) -> list[int]:
    try:
        return [int(p) for p in raw.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {raw!r}") from None


def _load_set_family(path: str):
    from . import extraction, io
    obj = io.json_object(io.read_json(path), "set family JSON", "sets")
    return extraction.SetFamily.from_sets(io.int_list(s, "each set")
                                          for s in io.json_list(obj, "sets"))


def _load_augmented(path: str):
    from . import extraction, io
    obj = io.json_object(io.read_json(path), "augmented family JSON", "pairs")
    pairs = []
    for row in io.json_list(obj, "pairs"):
        io.json_object(row, "each pair", "set", "element")
        pairs.append((io.int_list(row["set"], "each pair's set"),
                      io.json_int(row["element"], "each pair's element")))
    return extraction.AugmentedFamily.from_pairs(pairs)


def _load_lists(path: str) -> dict:
    from . import core, io
    obj = io.json_object(io.read_json(path), "lists JSON", "lists")
    out = {}
    for row in io.json_list(obj, "lists"):
        io.json_object(row, "each list entry", "edge", "set")
        u, v = io.int_list(row["edge"], "each list entry's edge", 2)
        out[core.canonical_edge(u, v)] = frozenset(io.int_list(row["set"],
                                                               "each list entry's set"))
    return out


def _load_coloring(path: str):
    from . import io, ramsey
    obj = io.json_object(io.read_json(path), "coloring JSON", "X", "Y", "edges")
    colors = {}
    for row in io.json_list(obj, "edges"):
        x, y, c = io.int_list(row, "each coloring row [x, y, c]", 3)
        colors[(x, y)] = c
    return ramsey.GridColoring(tuple(io.int_list(obj["X"], "coloring 'X'")),
                               tuple(io.int_list(obj["Y"], "coloring 'Y'")), colors)


# ---------------------------------------------------------------- handlers

def _cmd_expand(args):
    from . import crosscuts, io
    graph = io.load_graph(args.graph)
    exp = crosscuts.expand(graph)
    out = io.to_json_dict(exp.system)
    out["enlargement"] = [[u, v, w] for (u, v), w in sorted(exp.enlargement.items())]
    return out, False


def _cmd_sigma(args):
    from . import crosscuts, io
    if _one_of(args, "graph", "triples") == "graph":
        return crosscuts.best_crosscut_pair(io.load_graph(args.graph)).as_dict(), False
    found = crosscuts.min_crosscut(io.load_triples(args.triples))
    if found is None:
        return {"sigma": None, "witness": None}, False
    size, witness = found
    return {"sigma": size, "witness": sorted(witness)}, False


def _cmd_crosscut_audit(args):
    from . import crosscuts, io
    return crosscuts.crosscut_audit(io.load_graph(args.graph)), False


def _cmd_lambda(args):
    from . import crosscuts, io
    return {"lambda": crosscuts.forest_lambda(io.load_graph(args.graph))}, False


def _cmd_complete_tree(args):
    from . import crosscuts, io
    tree, sigma = crosscuts._complete_forest_to_tree(io.load_graph(args.graph))
    out = io.to_json_dict(tree)
    out["sigma"] = sigma
    return out, False


def _cmd_full_subgraph(args):
    from . import extraction, io
    system = io.load_triples(args.triples)
    result = extraction.full_subgraph(system, args.d)
    out = io.to_json_dict(result)
    out["removed"] = len(system.edges) - len(result.edges)
    return out, False


def _cmd_sunflower(args):
    from . import extraction
    family = _load_set_family(args.family)
    flower = extraction.find_sunflower(family, args.petals)
    if flower is None:
        return {"found": False, "petals": None, "core": None}, False
    return {"found": True, "petals": list(flower.petals), "core": sorted(flower.core)}, False


def _cmd_trim_select(args):
    from . import extraction
    family = _load_augmented(args.family)
    picked = extraction.select_disjoint_augmented(family)
    return {"m": len(family), "selected": picked, "count": len(picked)}, False


def _cmd_biclique(args):
    from . import extraction, io
    grid = io.load_graph(args.grid)
    lists = _load_lists(args.lists)
    host = io.load_triples(args.host)
    found = extraction.find_biclique_avoiding_lists(grid, lists, args.t, host)
    if found is None:
        return {"found": False, "X": None, "Y": None}, False
    xs, ys = found
    return {"found": True, "X": sorted(xs), "Y": sorted(ys)}, False


def _cmd_classify(args):
    from . import ramsey
    labels = ramsey.classify(_load_coloring(args.coloring))
    return {"labels": sorted(labels) if labels else ["none"]}, False


def _cmd_ramsey_subgrid(args):
    from . import ramsey
    coloring = _load_coloring(args.coloring)
    found = ramsey.find_classified_subgrid(coloring, args.s)
    if found is None:
        return {"found": False, "X": None, "Y": None, "labels": None}, False
    xs, ys, labels = found
    return {"found": True, "X": list(xs), "Y": list(ys), "labels": sorted(labels)}, False


def _colorings(colorings) -> list:
    return [[[x, y, chi[(x, y)]] for (x, y) in sorted(chi)] for chi in colorings]


def _assignment(args):
    from . import io, ramsey
    host = io.load_triples(args.host)
    return ramsey.build_list_assignment(host, _int_list(args.x), _int_list(args.y))


def _cmd_lists(args):
    assignment = _assignment(args)
    return {"X": list(assignment.rows), "Y": list(assignment.cols),
            "lists": [{"edge": [x, y], "set": sorted(assignment.lists[(x, y)])}
                      for x in assignment.rows for y in assignment.cols]}, False


def _cmd_multicolor(args):
    if not args.structured and (args.budget_ms, args.budget_nodes) != (None, None):
        raise ValueError("--budget-ms and --budget-nodes bound the --structured search only")
    if not args.structured and args.s is not None:
        raise ValueError("--s sizes the subgrid of the --structured search only")
    from . import ramsey
    assignment = _assignment(args)
    if args.structured:
        budget = ramsey.DEFAULT_BUDGET_NODES if args.budget_nodes is None else args.budget_nodes
        s = 1 if args.s is None else args.s
        result = ramsey.find_structured_multicoloring(assignment, args.m, s, budget_nodes=budget,
                                                      budget_ms=args.budget_ms)
        out = {
            "status": result.status,
            "X": list(result.rows) if result.rows else None,
            "Y": list(result.cols) if result.cols else None,
            "labels": list(result.labels) if result.labels else None,
            "colorings": _colorings(result.result.colorings) if result.result else None,
            "nodes": result.nodes,
        }
        return out, result.status == "budget-exhausted"
    found = ramsey.extract_multicoloring(assignment, args.m)
    if found is None:
        return {"found": False, "colorings": None}, False
    return {"found": True, "colorings": _colorings(found.colorings)}, False


def _cmd_contains(args):
    from . import io, search
    host = io.load_triples(args.host)
    if _one_of(args, "pattern", "expansion_of") == "pattern":
        cert = search.contains(host, io.load_triples(args.pattern))
    else:
        cert = search.contains_expansion(host, io.load_graph(args.expansion_of))
    if cert is None:
        return {"found": False, "map": None, "kind": None}, False
    return {"found": True,
            "map": [[a, b] for a, b in sorted(cert.mapping.items())],
            "kind": cert.kind}, False


def _cmd_construct(args):
    from . import io, search
    system = search.lower_bound_construction(args.n, args.core)
    out = io.to_json_dict(system)
    out["core_size"] = args.core
    return out, False


def _cmd_turan(args):
    from . import crosscuts, io, search
    if _one_of(args, "pattern", "expansion_of") == "pattern":
        forbidden = io.load_triples(args.pattern)
    else:
        forbidden = crosscuts.expand(io.load_graph(args.expansion_of)).system
    result = search.turan_number(args.n, forbidden, budget_ms=args.budget_ms,
                                budget_nodes=args.budget_nodes)
    return result.as_dict(), not result.exact


def _cmd_audit_theorem1(args):
    from . import io, search
    forest = io.load_graph(args.graph)
    report = search.audit_forest_bound(forest, _int_list(args.n_list),
                                       budget_ms=args.budget_ms, budget_nodes=args.budget_nodes)
    return report, any(row.get("turan") and not row["turan"]["exact"]
                       for row in report["rows"])


def _cmd_audit_jump(args):
    from . import io, search
    return search.audit_sigma_jump(io.load_graph(args.graph), args.n), False


# ------------------------------------------------------------------ wiring

def _add_budget(parser, setup=""):
    """The deadline and node cap of a budgeted search; setup names the work
    before its first node, which the deadline bounds but the node cap does not."""
    parser.add_argument("--budget-ms", type=int, help="deadline in ms, read every 1,024 nodes"
                        + (f" and every 1,024 shape images, copies and lanes of {setup}"
                           if setup else ""))
    parser.add_argument("--budget-nodes", type=int, help="exact node cap: a stopped search"
                        " has counted cap + 1 nodes" + (f"; {setup} counts no nodes" if setup else ""))


COMMANDS: dict[str, tuple] = {}


def _register(name, help_text, configure, handler):
    COMMANDS[name] = (help_text, configure, handler)


_register("expand", "expansion triple system of a graph",
          lambda p: p.add_argument("--graph", required=True), _cmd_expand)
_register("sigma", "minimum crosscut of a triple system or of a graph expansion",
          lambda p: (p.add_argument("--graph"), p.add_argument("--triples")), _cmd_sigma)
_register("crosscut-audit", "structural checks on the optimal crosscut pair of a tree",
          lambda p: p.add_argument("--graph", required=True), _cmd_crosscut_audit)
_register("lambda", "bipartition weight of a forest",
          lambda p: p.add_argument("--graph", required=True), _cmd_lambda)
_register("complete-tree", "extend a forest to a tree preserving the crosscut number",
          lambda p: p.add_argument("--graph", required=True), _cmd_complete_tree)
_register("full-subgraph", "trim a triple system until every shadow pair is rich",
          lambda p: (p.add_argument("--triples", required=True),
                     p.add_argument("--d", type=int, required=True)), _cmd_full_subgraph)
_register("sunflower", "find a sunflower in a set family",
          lambda p: (p.add_argument("--family", required=True),
                     p.add_argument("--petals", type=int, required=True)), _cmd_sunflower)
_register("trim-select", "pairwise-disjoint augmented subfamily of at least a third",
          lambda p: p.add_argument("--family", required=True), _cmd_trim_select)
_register("biclique", "complete bipartite subgrid avoiding its edge lists",
          lambda p: (p.add_argument("--grid", required=True),
                     p.add_argument("--lists", required=True),
                     p.add_argument("--t", type=int, required=True),
                     p.add_argument("--host", required=True)), _cmd_biclique)
_register("classify", "structured labels of a grid coloring",
          lambda p: p.add_argument("--coloring", required=True), _cmd_classify)
_register("ramsey-subgrid", "first classified s-by-s subgrid of a coloring",
          lambda p: (p.add_argument("--coloring", required=True),
                     p.add_argument("--s", type=int, required=True)), _cmd_ramsey_subgrid)
_register("lists", "third-vertex lists of a grid inside a triple system",
          lambda p: (p.add_argument("--host", required=True),
                     p.add_argument("--x", required=True),
                     p.add_argument("--y", required=True)), _cmd_lists)
_register("multicolor", "multicoloring from lists, or the structured subgrid search",
          lambda p: (p.add_argument("--host", required=True),
                     p.add_argument("--x", required=True),
                     p.add_argument("--y", required=True),
                     p.add_argument("--m", type=int, required=True),
                     p.add_argument("--structured", action="store_true"),
                     p.add_argument("--s", type=int, help="subgrid size of --structured (default 1)"),
                     _add_budget(p)), _cmd_multicolor)
_register("contains", "copy of a pattern (or of a graph expansion) in a host",
          lambda p: (p.add_argument("--host", required=True),
                     p.add_argument("--pattern"),
                     p.add_argument("--expansion-of")), _cmd_contains)
_register("construct", "all triples meeting a core in exactly one vertex",
          lambda p: (p.add_argument("--n", type=int, required=True),
                     p.add_argument("--core", type=int, required=True)), _cmd_construct)
_register("turan", "maximum edges avoiding a copy of the pattern",
          lambda p: (p.add_argument("--n", type=int, required=True),
                     p.add_argument("--pattern"),
                     p.add_argument("--expansion-of"),
                     _add_budget(p, "the copy listing")), _cmd_turan)
_register("audit-theorem1", "construction versus exact counts for a forest expansion",
          lambda p: (p.add_argument("--graph", required=True),
                     p.add_argument("--n-list", required=True),
                     _add_budget(p, "the copy listing")), _cmd_audit_theorem1)
_register("audit-jump", "core construction dictated by the crosscut number",
          lambda p: (p.add_argument("--graph", required=True),
                     p.add_argument("--n", type=int, required=True)), _cmd_audit_jump)


def _usage() -> str:
    lines = ["usage: expansions <subcommand> [options]", "", "subcommands:"]
    width = max(len(name) for name in COMMANDS)
    for name, (help_text, _, _) in COMMANDS.items():
        lines.append(f"  {name:<{width}}  {help_text}")
    lines.append("")
    lines.append("run 'expansions <subcommand> --help' for options")
    return "\n".join(lines)


def _render(obj: dict, indent=0) -> list[str]:
    """A handler's dict, one line per key; a nested dict or list of dicts indents."""
    import json
    pad = "  " * indent
    lines = []
    for key, value in obj.items():
        if isinstance(value, dict) and value:
            lines.append(f"{pad}{key}:")
            lines += _render(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(f"{pad}  -")
                lines += _render(item, indent + 2)
        else:
            lines.append(f"{pad}{key}: {json.dumps(value)}")
    return lines


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0
    name = argv[0]
    if name not in COMMANDS:
        print(f"unknown subcommand: {name}", file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return 1
    import argparse
    import json
    help_text, configure, handler = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"expansions {name}", description=help_text)
    configure(parser)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        result, exhausted = handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # a MemoryError has no message
        reason = "out of memory for this input" if isinstance(exc, MemoryError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(result, indent=2) if args.json else "\n".join(_render(result)))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early; keep the exit-time flush quiet too
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return 3 if exhausted else 0


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
