import contextlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import expansions
from expansions import Graph, TripleSystem, expand
from expansions.cli import main
from expansions.io import to_text


PATH2 = Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def path2_file(tmp_path):
    p = tmp_path / "path2.txt"
    p.write_text(to_text(PATH2))
    return str(p)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "subcommands" in out
    assert "turan" in out


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "unknown subcommand" in err
    assert "usage" in err


def test_missing_file_exits_two(capsys):
    assert main(["sigma", "--graph", "/definitely/not/here.txt"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert main(["sigma", "--graph", str(bad)]) == 2
    assert "header" in capsys.readouterr().err


def test_non_integer_vertex_exits_two_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 x\n")
    assert main(["sigma", "--graph", str(bad)]) == 2
    assert capsys.readouterr().err == "error: graph edge line must have integer vertices, got '0 x'\n"


def test_input_too_large_for_memory_exits_two_with_one_line(tmp_path):
    # one triple on 10^8 vertices: min_crosscut's vertex table does not fit
    # in a 1 GB address space, set in the child only
    big = tmp_path / "big.txt"
    big.write_text("100000000 1\n0 1 2\n")
    src = os.path.dirname(os.path.dirname(expansions.__file__))

    def limit():  # the soft limit only: the hard one stays as it was
        resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, resource.getrlimit(resource.RLIMIT_AS)[1]))

    done = subprocess.run([sys.executable, "-m", "expansions.cli", "sigma", "--triples", str(big)],
                          env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == "error: out of memory for this input\n"


# a JSON file nested deeper than the decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000
# a well-formed host, for the cases whose argv is at fault
HOST = {"n": 6, "edges": [[0, 2, 4], [0, 3, 5], [1, 2, 5], [1, 3, 4]]}
# a subcommand's argv, which the malformed file completes, and the file's
# content; "*.txt" arguments name the well-formed files of write_grid_inputs
MALFORMED = {
    "coloring row": (["classify", "--coloring"], {"X": [0, 1], "Y": [2, 3], "edges": [5]}),
    "three-vertex graph edge": (["sigma", "--graph"], {"n": 3, "edges": [[0, 1, 2]]}),
    "non-integer n": (["lambda", "--graph"], {"n": "x", "edges": []}),
    "truncated JSON": (["sigma", "--graph"], '{"n": 3,'),
    "empty grid rows": (["classify", "--coloring"], {"X": [], "Y": [1], "edges": []}),
    "empty grid columns": (["classify", "--coloring"], {"X": [1], "Y": [], "edges": []}),
    "deep graph": (["sigma", "--graph"], DEEP),
    "deep set family": (["sunflower", "--petals", "2", "--family"], DEEP),
    "deep augmented family": (["trim-select", "--family"], DEEP),
    "deep lists": (["biclique", "--grid", "grid.txt", "--t", "1", "--host", "host.txt",
                    "--lists"], DEEP),
    "deep coloring": (["classify", "--coloring"], DEEP),
    "repeated grid vertex in lists": (["lists", "--x", "0,0", "--y", "2", "--host"], HOST),
    "repeated grid vertex in multicolor": (["multicolor", "--x", "0,0", "--y", "2", "--m", "1",
                                            "--host"], HOST),
}


def write_grid_inputs(work):
    (work / "grid.txt").write_text(
        to_text(Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])))
    (work / "host.txt").write_text(to_text(TripleSystem.from_edges(
        6, [(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)])))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_shapes_exit_two_with_one_line(case, tmp_path, capsys):
    argv, payload = MALFORMED[case]
    write_grid_inputs(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    assert main(argv + [str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_expand_emits_system_and_enlargement(capsys, path2_file):
    code, out = run_json(capsys, ["expand", "--graph", path2_file])
    assert code == 0
    assert out["n"] == 5
    assert out["edges"] == [[0, 1, 3], [1, 2, 4]]
    assert out["enlargement"] == [[0, 1, 3], [1, 2, 4]]


def test_sigma_on_graph_and_on_triples(capsys, tmp_path, path2_file):
    code, out = run_json(capsys, ["sigma", "--graph", path2_file])
    assert code == 0
    assert out["sigma"] == 1 and out["I"] == [1] and out["R"] == []

    tri = tmp_path / "h.txt"
    tri.write_text(to_text(expand(PATH2).system))
    code, out = run_json(capsys, ["sigma", "--triples", str(tri)])
    assert code == 0
    assert out["sigma"] == 1

    # exactly one input is required; an empty path is given, not absent
    assert main(["sigma", "--graph", path2_file, "--triples", str(tri)]) == 2
    capsys.readouterr()
    assert main(["sigma"]) == 2
    assert main(["sigma", "--graph", ""]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_long_inputs_exit_zero(capsys, tmp_path):
    # a 1,200-vertex path and cycle, 1,100 disjoint triples and a 32 x 32
    # rainbow grid: deeper than the recursion limit, so the searches must
    # run as loops
    path = tmp_path / "path.txt"
    path.write_text(to_text(Graph.from_edges(1200, [(i, i + 1) for i in range(1199)])))
    code, out = run_json(capsys, ["sigma", "--graph", str(path)])
    assert code == 0 and out["sigma"] == 600
    code, out = run_json(capsys, ["crosscut-audit", "--graph", str(path)])
    assert code == 0 and out["sigma"] == 600
    assert all(c["pass"] for c in out["checks"])
    cycle = tmp_path / "cycle.txt"
    cycle.write_text(to_text(
        Graph.from_edges(1200, [(i, (i + 1) % 1200) for i in range(1200)])))
    code, out = run_json(capsys, ["sigma", "--graph", str(cycle)])
    assert code == 0 and out["sigma"] == 600

    k = 1100
    tri = tmp_path / "disjoint.txt"
    tri.write_text(to_text(TripleSystem.from_edges(
        3 * k, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)])))
    code, out = run_json(capsys, ["sigma", "--triples", str(tri)])
    assert code == 0 and out["sigma"] == k

    side = 32  # every cell of the grid has its own third vertex
    grid = tmp_path / "private_colors.txt"
    grid.write_text(to_text(TripleSystem.from_edges(
        2 * side + side * side,
        [(x, side + y, 2 * side + side * x + y) for x in range(side) for y in range(side)])))
    code, out = run_json(capsys, [
        "multicolor", "--host", str(grid), "--x", ",".join(map(str, range(side))),
        "--y", ",".join(map(str, range(side, 2 * side))), "--m", "1", "--structured",
        "--s", str(side)])
    assert code == 0 and out["status"] == "found"


def test_sigma_reports_absence(capsys, tmp_path):
    h = TripleSystem.from_edges(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    tri = tmp_path / "tight.txt"
    tri.write_text(to_text(h))
    code, out = run_json(capsys, ["sigma", "--triples", str(tri)])
    assert code == 0
    assert out["sigma"] is None


def test_crosscut_audit_and_lambda(capsys, path2_file):
    code, out = run_json(capsys, ["crosscut-audit", "--graph", path2_file])
    assert code == 0
    assert out["sigma"] == 1
    assert all(c["pass"] for c in out["checks"])

    # smaller bipartition part of the 2-edge path is its center, not a leaf
    code, out = run_json(capsys, ["lambda", "--graph", path2_file])
    assert code == 0
    assert out["lambda"] == 1


def test_complete_tree(capsys, tmp_path):
    forest = tmp_path / "forest.txt"
    forest.write_text(to_text(Graph.from_edges(5, [(0, 1), (2, 3)])))
    code, out = run_json(capsys, ["complete-tree", "--graph", str(forest)])
    assert code == 0
    assert len(out["edges"]) == 4
    assert out["sigma"] == 2


@pytest.mark.parametrize("edges, dps", [
    ([(0, 1), (2, 3)], 2),  # the forest's pair, then the completed tree's self-check
    ([(0, 1), (1, 2), (1, 3), (3, 4)], 1),  # already a tree: its one pair
], ids=["forest", "tree"])
def test_complete_tree_prints_the_crosscut_number_it_kept(capsys, tmp_path, monkeypatch,
                                                          edges, dps):
    # the printed sigma is the weight the completion computed, not a third DP
    from expansions import crosscuts
    runs = []
    dp = crosscuts._optimal_pair

    def counted(graph, *args, **kwargs):
        runs.append(graph)
        return dp(graph, *args, **kwargs)

    monkeypatch.setattr(crosscuts, "_optimal_pair", counted)
    forest = tmp_path / "forest.txt"
    forest.write_text(to_text(Graph.from_edges(5, edges)))
    code, out = run_json(capsys, ["complete-tree", "--graph", str(forest)])
    assert (code, out["sigma"], len(runs)) == (0, 2, dps)


def test_full_subgraph_command(capsys, tmp_path):
    h = TripleSystem.from_edges(6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 5)])
    tri = tmp_path / "h.txt"
    tri.write_text(to_text(h))
    code, out = run_json(capsys, ["full-subgraph", "--triples", str(tri), "--d", "1"])
    assert code == 0
    assert out["edges"] == []
    assert out["removed"] == 4


def test_sunflower_command(capsys, tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"sets": [[1, 2], [3, 4], [5, 6]]}))
    code, out = run_json(capsys, ["sunflower", "--family", str(fam), "--petals", "3"])
    assert code == 0
    assert out["found"] and out["core"] == []

    fam.write_text(json.dumps({"wrong": []}))
    assert main(["sunflower", "--family", str(fam), "--petals", "2"]) == 2


def test_trim_select_command(capsys, tmp_path):
    fam = tmp_path / "aug.json"
    fam.write_text(json.dumps({"pairs": [
        {"set": [0, 1], "element": 2},
        {"set": [2, 3], "element": 0},
        {"set": [4, 5], "element": 6},
    ]}))
    code, out = run_json(capsys, ["trim-select", "--family", str(fam)])
    assert code == 0
    assert out["m"] == 3
    assert out["count"] >= 1


def test_classify_and_subgrid_commands(capsys, tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({
        "X": [0, 1], "Y": [2, 3],
        "edges": [[0, 2, 7], [0, 3, 7], [1, 2, 7], [1, 3, 7]],
    }))
    code, out = run_json(capsys, ["classify", "--coloring", str(coloring)])
    assert code == 0
    assert out["labels"] == ["monochromatic"]

    code, out = run_json(capsys, ["ramsey-subgrid", "--coloring", str(coloring), "--s", "2"])
    assert code == 0
    assert out["found"] and "monochromatic" in out["labels"]


def test_ramsey_subgrid_reports_absence_and_a_smaller_find(capsys, tmp_path):
    # the 2-by-2 grid carries no label, while its first 1-by-1 subgrid carries all four
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({
        "X": [0, 1], "Y": [2, 3],
        "edges": [[0, 2, 1], [0, 3, 2], [1, 2, 2], [1, 3, 3]],
    }))
    argv = ["ramsey-subgrid", "--coloring", str(coloring), "--s"]
    code, out = run_json(capsys, argv + ["2"])
    assert (code, out) == (0, {"found": False, "X": None, "Y": None, "labels": None})
    code, out = run_json(capsys, argv + ["1"])
    assert (code, out["found"], out["X"], out["Y"]) == (0, True, [0], [2])


def test_classify_reports_none(capsys, tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({
        "X": [0, 1], "Y": [2, 3],
        "edges": [[0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 2]],
    }))
    code, out = run_json(capsys, ["classify", "--coloring", str(coloring)])
    assert code == 0
    assert out["labels"] == ["none"]


def test_lists_and_multicolor_commands(capsys, tmp_path):
    host = TripleSystem(6, frozenset(
        (a, b, c) for a in range(6) for b in range(a + 1, 6) for c in range(b + 1, 6)))
    tri = tmp_path / "full.txt"
    tri.write_text(to_text(host))
    code, out = run_json(capsys, ["lists", "--host", str(tri), "--x", "0,1", "--y", "2,3"])
    assert code == 0
    cell = next(row for row in out["lists"] if row["edge"] == [0, 2])
    assert cell["set"] == [4, 5]

    code, out = run_json(capsys, ["multicolor", "--host", str(tri),
                                  "--x", "0,1", "--y", "2,3", "--m", "2"])
    assert code == 0
    assert out["found"] and len(out["colorings"]) == 2

    code, out = run_json(capsys, ["multicolor", "--host", str(tri),
                                  "--x", "0,1", "--y", "2,3", "--m", "2",
                                  "--structured", "--s", "1"])
    assert code == 0
    assert out["status"] == "found"


def test_grid_side_that_is_not_integers_exits_two_with_one_line(capsys, tmp_path):
    write_grid_inputs(tmp_path)
    assert main(["lists", "--host", str(tmp_path / "host.txt"), "--x", "0,a", "--y", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: expected comma-separated integers, "
                                                "got '0,a'\n")


def test_multicolor_reports_absence(capsys, tmp_path):
    # the K2,2 grid of the biclique host: each cell lists one third vertex,
    # too few for five rounds
    write_grid_inputs(tmp_path)
    code, out = run_json(capsys, ["multicolor", "--host", str(tmp_path / "host.txt"),
                                  "--x", "0,1", "--y", "2,3", "--m", "5"])
    assert (code, out) == (0, {"found": False, "colorings": None})


def test_multicolor_structured_budget_exit_three(capsys, tmp_path):
    host = TripleSystem(9, frozenset(
        (a, b, c) for a in range(9) for b in range(a + 1, 9) for c in range(b + 1, 9)))
    tri = tmp_path / "full9.txt"
    tri.write_text(to_text(host))
    code = main(["multicolor", "--host", str(tri), "--x", "0,1,2", "--y", "3,4,5",
                 "--m", "3", "--structured", "--s", "3", "--budget-nodes", "5", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["status"] == "budget-exhausted"


def test_contains_commands(capsys, tmp_path, path2_file):
    host = tmp_path / "host.txt"
    host.write_text(to_text(TripleSystem.from_edges(5, [(0, 1, 2), (0, 3, 4)])))
    code, out = run_json(capsys, ["contains", "--host", str(host),
                                  "--expansion-of", path2_file])
    assert code == 0
    assert out["found"] and out["kind"] == "expansion"

    pattern = tmp_path / "pat.txt"
    pattern.write_text(to_text(TripleSystem.from_edges(3, [(0, 1, 2)])))
    code, out = run_json(capsys, ["contains", "--host", str(host),
                                  "--pattern", str(pattern)])
    assert code == 0
    assert out["found"] and out["kind"] == "generic"

    assert main(["contains", "--host", str(host)]) == 2

    # four triples cannot fit in a host of two
    pattern.write_text(to_text(TripleSystem.from_edges(
        6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])))
    code, out = run_json(capsys, ["contains", "--host", str(host), "--pattern", str(pattern)])
    assert (code, out) == (0, {"found": False, "map": None, "kind": None})


def test_construct_command(capsys):
    code, out = run_json(capsys, ["construct", "--n", "6", "--core", "1"])
    assert code == 0
    assert len(out["edges"]) == 10
    assert out["core_size"] == 1
    assert main(["construct", "--n", "3", "--core", "5"]) == 2
    # core 0 fits every n >= 0, so a negative n is blamed on n
    assert main(["construct", "--n", "-1", "--core", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: core size must be between 0 and n\n"
                                                "error: n must be nonnegative\n")


def test_turan_command_and_budget_exit(capsys, path2_file):
    code, out = run_json(capsys, ["turan", "--n", "4", "--expansion-of", path2_file])
    assert code == 0
    assert out["value"] == 4 and out["exact"] is True

    code = main(["turan", "--n", "7", "--expansion-of", path2_file,
                 "--budget-nodes", "20", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["exact"] is False


def test_turan_command_reads_a_pattern_file(capsys, tmp_path, path2_file):
    # P2's expansion written out as triples gives the --expansion-of answer
    pattern = tmp_path / "p2plus.txt"
    pattern.write_text("5 2\n0 1 3\n1 2 4\n")
    code, out = run_json(capsys, ["turan", "--n", "6", "--pattern", str(pattern)])
    assert (code, out["value"], out["exact"]) == (0, 4, True)
    code, by_graph = run_json(capsys, ["turan", "--n", "6", "--expansion-of", path2_file])
    assert (code, by_graph["value"]) == (0, 4)


def test_biclique_command_finds_and_misses(capsys, tmp_path):
    # K2,2 inside the host, each edge listing the third vertex of its own triple
    write_grid_inputs(tmp_path)
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"lists": [
        {"edge": [0, 2], "set": [4]}, {"edge": [0, 3], "set": [5]},
        {"edge": [1, 2], "set": [5]}, {"edge": [1, 3], "set": [4]}]}))
    argv = ["biclique", "--grid", str(tmp_path / "grid.txt"), "--lists", str(lists),
            "--host", str(tmp_path / "host.txt"), "--t"]
    code, out = run_json(capsys, argv + ["2"])
    assert (code, out) == (0, {"found": True, "X": [0, 1], "Y": [2, 3]})
    code, out = run_json(capsys, argv + ["3"])
    assert (code, out) == (0, {"found": False, "X": None, "Y": None})


def test_biclique_with_lists_of_two_sizes_exits_two_with_one_line(capsys, tmp_path):
    write_grid_inputs(tmp_path)
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"lists": [
        {"edge": [0, 2], "set": [4]}, {"edge": [0, 3], "set": [4, 5]},
        {"edge": [1, 2], "set": [5]}, {"edge": [1, 3], "set": [4]}]}))
    assert main(["biclique", "--grid", str(tmp_path / "grid.txt"), "--lists", str(lists),
                 "--host", str(tmp_path / "host.txt"), "--t", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: all edge lists must have the same size\n")


def test_audit_commands(capsys, path2_file):
    code, out = run_json(capsys, ["audit-theorem1", "--graph", path2_file,
                                  "--n-list", "4,5"])
    assert code == 0
    assert "no asymptotic claim" in out["note"]
    assert len(out["rows"]) == 2

    code, out = run_json(capsys, ["audit-jump", "--graph", path2_file, "--n", "7"])
    assert code == 0
    assert out["sigma"] == 1


@pytest.mark.parametrize("edges, n, core", [([(0, 1), (1, 2), (2, 3)], 0, 1),
                                           ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 1, 2)],
                         ids=["P3-n0", "K4-n1"])
def test_audit_jump_below_the_core_size_exits_two_with_one_line(tmp_path, capsys, edges, n, core):
    # P3 (crosscut number 2) and K4 (4): the core size comes from the graph, not the user
    graph = tmp_path / "graph.txt"
    graph.write_text(to_text(Graph.from_edges(4, edges)))
    assert main(["audit-jump", "--graph", str(graph), "--n", str(n), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: n must be at least the core size {core}, got {n}\n"
    assert captured.out == ""


def test_audit_theorem1_exits_three_when_a_row_is_inexact(capsys, path2_file):
    code = main(["audit-theorem1", "--graph", path2_file, "--n-list", "6,7",
                 "--budget-nodes", "10", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    # n = 7 is past the audit's exact range, so only n = 6 runs a Turan search
    assert out["rows"][0]["turan"]["exact"] is False and out["rows"][1]["turan"] is None

    code, out = run_json(capsys, ["audit-theorem1", "--graph", path2_file,
                                  "--n-list", "5,7", "--budget-nodes", "1000"])
    assert code == 0
    assert out["rows"][0]["turan"]["exact"] is True and out["rows"][1]["turan"] is None


def test_audit_theorem1_rejects_an_edgeless_forest(capsys, tmp_path):
    # sigma is 0 with no edge, so the core and the bound would be negative
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text("3 0\n")
    assert main(["audit-theorem1", "--graph", str(edgeless), "--n-list", "3,5"]) == 2
    err = capsys.readouterr().err
    assert err == "error: audit expects a forest with at least one edge\n"


def test_audit_theorem1_rejects_a_graph_with_a_cycle(capsys, tmp_path):
    # the forest test is the crosscut peel's, with the edgeless test's message
    triangle = tmp_path / "triangle.txt"
    triangle.write_text("3 3\n0 1\n1 2\n0 2\n")
    assert main(["audit-theorem1", "--graph", str(triangle), "--n-list", "3,5"]) == 2
    err = capsys.readouterr().err
    assert err == "error: audit expects a forest with at least one edge\n"


def test_multicolor_structured_honours_budget_ms(capsys, tmp_path):
    xs, ys = range(6), range(6, 12)
    host = TripleSystem.from_edges(15, [(x, y, 12 + c) for x in xs for y in ys
                                        for c in range(3) if c != (x + y) % 3])
    tri = tmp_path / "two_of_three.txt"
    tri.write_text(to_text(host))
    argv = ["multicolor", "--host", str(tri), "--x", "0,1,2,3,4,5", "--y", "6,7,8,9,10,11",
            "--m", "3", "--structured", "--s", "2"]
    code, out = run_json(capsys, argv)
    assert (code, out["status"], out["nodes"]) == (0, "absent", 4083)
    code, out = run_json(capsys, argv + ["--budget-ms", "0"])
    assert (code, out["status"], out["nodes"]) == (3, "budget-exhausted", 1024)


def test_budget_comes_only_from_the_flags(capsys, path2_file, monkeypatch):
    # a budget variable in the environment is not read: the search runs to the end
    monkeypatch.setenv("EXPANSIONS_BUDGET_NODES", "20")
    code, out = run_json(capsys, ["turan", "--n", "7", "--expansion-of", path2_file])
    assert (code, out["exact"], out["nodes"]) == (0, True, 10436)


def test_human_output_renders_same_data(capsys, path2_file):
    assert main(["sigma", "--graph", path2_file]) == 0
    text = capsys.readouterr().out
    assert "sigma: 1" in text
    assert "I: [1]" in text


def test_human_output_renders_nested_reports(capsys, path2_file):
    # a list of objects is a "key:" line with one "-" line per item, nested one step
    assert main(["audit-theorem1", "--graph", path2_file, "--n-list", "4,5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "rows:" in lines and lines.count("  -") == 2
    assert "    n: 4" in lines and "    turan:" in lines and "      exact: true" in lines
    assert main(["crosscut-audit", "--graph", path2_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["sigma: 1", "I: [1]", "R: []"]
    assert "checks:" in lines and lines.count("  -") == 3
    assert '    name: "no_pendant_uncovered"' in lines


def test_workers_flag_is_rejected(capsys, path2_file):
    # execution is sequential: there is no --workers option to accept
    assert main(["turan", "--n", "5", "--expansion-of", path2_file, "--workers", "4"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_seed_and_prefilter_flags_are_rejected(capsys, path2_file):
    # every subcommand is deterministic: no --seed, and no random biclique prefilter
    assert main(["sigma", "--graph", path2_file, "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["biclique", "--grid", path2_file, "--lists", "lists.json", "--t", "1",
                 "--host", "host.txt", "--prefilter"]) == 2
    assert "--prefilter" in capsys.readouterr().err


def test_budget_flags_only_on_budgeted_searches(capsys, path2_file):
    # sigma runs no budgeted search, so it takes no budget flag
    assert main(["sigma", "--graph", path2_file, "--budget-ms", "5"]) == 2
    assert "--budget-ms" in capsys.readouterr().err


def test_multicolor_budget_flags_need_structured(capsys, tmp_path):
    # only the structured search reads a budget or a subgrid size: given
    # without it, a flag exits 2 rather than being ignored
    host = tmp_path / "host.txt"
    host.write_text(to_text(TripleSystem.from_edges(6, [(0, 2, 4), (0, 3, 5),
                                                                (1, 2, 5), (1, 3, 4)])))
    argv = ["multicolor", "--host", str(host), "--x", "0,1", "--y", "2,3", "--m", "1"]
    for flags in (["--budget-ms", "0"], ["--budget-nodes", "0"],
                  ["--budget-ms", "0", "--budget-nodes", "0"], ["--s", "5"], ["--s", "1"]):
        assert main(argv + flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--structured" in err[0]
    # under --structured, --s defaults to 1
    code, default = run_json(capsys, argv + ["--structured"])
    assert code == 0
    assert run_json(capsys, argv + ["--structured", "--s", "1"]) == (0, default)
    assert default["X"] is not None and len(default["X"]) == 1


def test_negative_budgets_exit_two(capsys, path2_file, tmp_path):
    # a negative cap or deadline is invalid input, not a search stopped at its first node
    host = tmp_path / "host.txt"
    host.write_text(to_text(TripleSystem.from_edges(6, [(0, 2, 4), (0, 3, 5),
                                                                (1, 2, 5), (1, 3, 4)])))
    turan = ["turan", "--n", "6", "--expansion-of", path2_file]
    for argv in (turan + ["--budget-nodes", "-5"], turan + ["--budget-ms", "-5"],
                 ["multicolor", "--host", str(host), "--x", "0,1", "--y", "2,3", "--m", "1",
                  "--structured", "--budget-nodes", "-1"]):
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "nonnegative" in err[0]
        assert captured.out == ""


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_output_pipe_ends_quietly_with_the_result_code(capsys, monkeypatch,
                                                              path2_file, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert main(["sigma", "--graph", path2_file, "--json"]) == 0
        assert main(["turan", "--n", "7", "--expansion-of", path2_file,
                     "--budget-nodes", "20"]) == 3
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


# ------------------------------------------------------------- fuzzing

KEYS = ["n", "edges", "sets", "pairs", "set", "element", "lists", "edge", "X", "Y", "z"]
LEAVES = (st.none() | st.booleans() | st.integers(-2, 9) | st.sampled_from(["x", "", "1"])
          | st.floats(-2, 9, allow_nan=False))
JSON = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
                    max_leaves=24)
ROWS = st.lists(JSON, max_size=4)


def shaped(**fields):
    return st.fixed_dictionaries(fields)


# every JSON loader: a subcommand that reads it ("{}" is the file) and the
# object shape it expects, with fuzzed leaves
LOADERS = {
    "graph": (["expand", "--graph", "{}"], shaped(n=JSON, edges=ROWS)),
    "triples": (["full-subgraph", "--triples", "{}", "--d", "1"], shaped(n=JSON, edges=ROWS)),
    "set family": (["sunflower", "--family", "{}", "--petals", "2"], shaped(sets=ROWS)),
    "augmented family": (["trim-select", "--family", "{}"],
                         shaped(pairs=st.lists(shaped(set=JSON, element=JSON), max_size=3))),
    "coloring": (["classify", "--coloring", "{}"], shaped(X=JSON, Y=JSON, edges=ROWS)),
    "lists": (["biclique", "--grid", "grid.txt", "--lists", "{}", "--t", "1",
               "--host", "host.txt"],
              shaped(lists=st.lists(shaped(edge=JSON, set=JSON), max_size=4))),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_json_loaders_succeed_or_exit_two(loader, data):
    argv, shape = LOADERS[loader]
    payload = data.draw(shape | st.dictionaries(st.sampled_from(KEYS), JSON, max_size=5) | JSON)
    with tempfile.TemporaryDirectory() as work:
        def path(name):
            return f"{work}/{name}"

        write_grid_inputs(pathlib.Path(work))
        with open(path("in.json"), "w") as fh:
            json.dump(payload, fh)
        argv = [path("in.json") if a == "{}" else path(a) if a.endswith(".txt") else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json"])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
