import random

import pytest

from expansions import Graph, TripleSystem
from expansions.io import (from_json_dict, load_graph, load_triples, parse_text, to_json_dict,
                           to_text)

from helpers import random_graph, random_system


def test_parse_text_reads_a_graph():
    g = parse_text("4 2\n0 1\n2 3\n", Graph)
    assert g == Graph.from_edges(4, [(0, 1), (2, 3)])


def test_parse_tolerates_blank_lines_and_whitespace():
    g = parse_text("\n 3 1 \n\n  2 0\n\n", Graph)
    assert g == Graph.from_edges(3, [(0, 2)])


def test_parse_errors_are_diagnostic():
    with pytest.raises(ValueError, match="header"):
        parse_text("banana\n", Graph)
    with pytest.raises(ValueError, match="promises"):
        parse_text("3 2\n0 1\n", Graph)
    with pytest.raises(ValueError, match="vertices"):
        parse_text("4 1\n0 1\n", TripleSystem)
    with pytest.raises(ValueError, match="empty"):
        parse_text("   \n", Graph)


@pytest.mark.parametrize("cls, kind, width", [
    (Graph, "graph", 2),
    (TripleSystem, "triple system", 3),
])
def test_text_and_json_errors_name_the_same_kind(cls, kind, width):
    with pytest.raises(ValueError, match=f"^empty {kind} input$"):
        parse_text("\n", cls)
    with pytest.raises(ValueError, match=f"^{kind} header must be 'n m'"):
        parse_text("4\n", cls)
    with pytest.raises(ValueError, match=f"^{kind} edge line must have {width} vertices"):
        parse_text("4 1\n0 1 2 3\n", cls)
    for line in ("0 x", "0 1.5"):  # a word, and a number that is not an integer
        line += " 2" * (width - 2)
        with pytest.raises(ValueError, match=f"^{kind} edge line must have integer vertices,"
                                             f" got '{line}'$"):
            parse_text(f"4 1\n{line}\n", cls)
    with pytest.raises(ValueError, match=f"^{kind} JSON must be an object with 'n', 'edges'$"):
        from_json_dict([], cls)
    with pytest.raises(ValueError, match=f"^{kind} 'n' must be an integer"):
        from_json_dict({"n": "4", "edges": []}, cls)
    with pytest.raises(ValueError, match=f"^{kind} edge must be a list of {width} integers"):
        from_json_dict({"n": 4, "edges": [[0, 1, 2, 3]]}, cls)


def test_repeated_edges_are_read_once_and_loops_rejected():
    # a repeated line, in any vertex order, counts toward the header's m
    # but gives one edge
    assert parse_text("3 3\n0 1\n1 0\n1 2\n", Graph) == Graph.from_edges(3, [(0, 1), (1, 2)])
    assert parse_text("4 3\n0 1 2\n2 0 1\n1 2 3\n", TripleSystem) == \
        TripleSystem.from_edges(4, [(0, 1, 2), (1, 2, 3)])
    with pytest.raises(ValueError, match="promises 1 edges, found 2"):
        parse_text("3 1\n0 1 2\n2 1 0\n", TripleSystem)
    assert from_json_dict({"n": 3, "edges": [[0, 1], [1, 0]]}, Graph) == Graph.from_edges(3, [(0, 1)])
    assert from_json_dict({"n": 3, "edges": [[0, 1, 2], [2, 1, 0]]}, TripleSystem) == \
        TripleSystem.from_edges(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="loop"):
        parse_text("2 1\n1 1\n", Graph)
    with pytest.raises(ValueError, match="loop"):
        from_json_dict({"n": 2, "edges": [[0, 1], [1, 1]]}, Graph)
    with pytest.raises(ValueError, match="repeated vertex"):
        parse_text("3 1\n0 1 1\n", TripleSystem)
    with pytest.raises(ValueError, match="repeated vertex"):
        from_json_dict({"n": 3, "edges": [[2, 0, 2]]}, TripleSystem)


def test_text_round_trip_random_sweep():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), 0.4)
        assert parse_text(to_text(g), Graph) == g
        h = random_system(rng, rng.randint(3, 9), rng.randint(0, 10))
        assert parse_text(to_text(h), TripleSystem) == h


def test_json_round_trip():
    g = Graph.from_edges(5, [(0, 4), (1, 2)])
    assert from_json_dict(to_json_dict(g), Graph) == g
    h = TripleSystem.from_edges(5, [(0, 1, 4)])
    assert from_json_dict(to_json_dict(h), TripleSystem) == h


def test_load_dispatches_on_extension(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 3)])
    text_path = tmp_path / "g.txt"
    text_path.write_text(to_text(g))
    assert load_graph(str(text_path)) == g

    import json
    json_path = tmp_path / "g.json"
    json_path.write_text(json.dumps(to_json_dict(g)))
    assert load_graph(str(json_path)) == g

    h = TripleSystem.from_edges(5, [(0, 1, 2), (2, 3, 4)])
    tri_path = tmp_path / "h.json"
    tri_path.write_text(json.dumps(to_json_dict(h)))
    assert load_triples(str(tri_path)) == h


def test_over_deep_json_is_a_value_error(tmp_path):
    # the decoder's RecursionError must not escape as a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="deep"):
        load_graph(str(deep))
    with pytest.raises(ValueError, match="deep"):
        load_triples(str(deep))
