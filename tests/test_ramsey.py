import random
from itertools import combinations, product

import pytest

from expansions import (COLUMN_CANONICAL, MONOCHROMATIC, RAINBOW, ROW_CANONICAL,
                        GridColoring, TripleSystem, build_list_assignment, classify,
                        expand, extract_multicoloring, find_classified_subgrid,
                        find_structured_multicoloring, Graph, ListAssignment)

from expansions import ramsey
from helpers import brute_subgrid_labels, recursive_structured_search


def grid(rows, cols, matrix):
    colors = {(x, y): matrix[i][j] for i, x in enumerate(rows) for j, y in enumerate(cols)}
    return GridColoring(tuple(rows), tuple(cols), colors)


# ---------------------------------------------------------------- classify

def test_classify_monochromatic():
    c = grid([0, 1], [2, 3], [[7, 7], [7, 7]])
    assert classify(c) == frozenset({MONOCHROMATIC})


def test_classify_rainbow():
    c = grid([0, 1], [2, 3], [[1, 2], [3, 4]])
    assert classify(c) == frozenset({RAINBOW})


def test_classify_row_and_column_canonical():
    c = grid([0, 1], [2, 3], [[1, 1], [2, 2]])
    assert classify(c) == frozenset({ROW_CANONICAL})
    c = grid([0, 1], [2, 3], [[1, 2], [1, 2]])
    assert classify(c) == frozenset({COLUMN_CANONICAL})


def test_classify_unstructured_is_empty():
    c = grid([0, 1], [2, 3], [[1, 1], [1, 2]])
    assert classify(c) == frozenset()


def test_classify_degenerate_single_cell_gets_every_label():
    c = grid([0], [1], [[5]])
    assert classify(c) == frozenset({MONOCHROMATIC, RAINBOW, ROW_CANONICAL,
                                     COLUMN_CANONICAL})


def test_classify_degenerate_single_row():
    # one row, distinct colors: rainbow and column-canonical, and also
    # row-canonical is out (row not constant), monochromatic out
    c = grid([0], [1, 2, 3], [[4, 5, 6]])
    assert classify(c) == frozenset({RAINBOW, COLUMN_CANONICAL})
    c = grid([0], [1, 2], [[9, 9]])
    assert classify(c) == frozenset({MONOCHROMATIC, ROW_CANONICAL})


def test_grid_coloring_validation():
    with pytest.raises(ValueError, match="disjoint"):
        grid([0, 1], [1, 2], [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="cover"):
        GridColoring((0,), (1,), {})
    with pytest.raises(ValueError, match="repeat"):
        GridColoring((0, 0), (1,), {(0, 1): 3})
    for rows, cols in (((), (1,)), ((1,), ())):
        with pytest.raises(ValueError, match="nonempty"):
            GridColoring(rows, cols, {})


def test_classify_agrees_with_matrix_oracle_sweep():
    rng = random.Random(61)
    rows, cols = (0, 1, 2), (3, 4, 5)
    for _ in range(200):
        colors = {(x, y): rng.randint(0, 4) for x in rows for y in cols}
        c = GridColoring(rows, cols, colors)
        assert classify(c) == brute_subgrid_labels(colors, rows, cols)


# ----------------------------------------------------- classified subgrid

def exhaustive_subgrid(coloring, s):
    hits = []
    for xs in combinations(sorted(coloring.rows), s):
        for ys in combinations(sorted(coloring.cols), s):
            labels = brute_subgrid_labels(coloring.colors, xs, ys)
            if labels:
                hits.append((xs, ys, labels))
    return hits


def test_find_classified_subgrid_first_in_sorted_order():
    rng = random.Random(67)
    rows, cols = (0, 1, 2, 3), (4, 5, 6, 7)
    for _ in range(150):
        colors = {(x, y): rng.randint(0, 3) for x in rows for y in cols}
        c = GridColoring(rows, cols, colors)
        got = find_classified_subgrid(c, 2)
        hits = exhaustive_subgrid(c, 2)
        if not hits:
            assert got is None
        else:
            assert got == hits[0]


def test_find_classified_subgrid_none_on_witnessed_coloring():
    # rows of the identity-like 0/1 matrix with no structured 2x2 block
    c = grid([0, 1, 2], [3, 4, 5], [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert find_classified_subgrid(c, 2) is None
    with pytest.raises(ValueError):
        find_classified_subgrid(c, 0)


# ------------------------------------------------------- list assignments

def test_build_list_assignment_from_expansion():
    base = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    exp = expand(base)
    la = build_list_assignment(exp.system, (0, 1), (2, 3))
    assert la.lists[(0, 2)] == frozenset({exp.enlargement[(0, 2)]})
    assert la.lists[(1, 3)] == frozenset({exp.enlargement[(1, 3)]})


def test_build_list_assignment_excludes_grid_vertices():
    h = TripleSystem.from_edges(5, [(0, 2, 4), (0, 2, 3), (0, 3, 4), (2, 3, 4)])
    la = build_list_assignment(h, (0,), (2, 3))
    # triple (0,2,3) completes pair (0,2) with 3, but 3 is a grid vertex
    assert la.lists[(0, 2)] == frozenset({4})
    assert la.lists[(0, 3)] == frozenset({4})


def test_build_list_assignment_validation():
    h = TripleSystem.from_edges(4, [(0, 1, 2)])
    with pytest.raises(ValueError, match="shadow"):
        build_list_assignment(h, (0,), (3,))
    with pytest.raises(ValueError, match="disjoint"):
        build_list_assignment(h, (0,), (0,))
    with pytest.raises(ValueError, match="nonempty"):
        build_list_assignment(h, (), (0,))


def test_build_list_assignment_rejects_repeated_grid_vertices():
    # the same rule and message as a coloring with a repeated side vertex
    h = TripleSystem.from_edges(4, [(0, 1, 2), (0, 1, 3)])
    for rows, cols in [((0, 0), (1,)), ((0,), (1, 1))]:
        with pytest.raises(ValueError, match="grid sides must not repeat vertices"):
            build_list_assignment(h, rows, cols)
        with pytest.raises(ValueError, match="grid sides must not repeat vertices"):
            GridColoring(rows, cols, {(x, y): 0 for x in rows for y in cols})


# ----------------------------------------------------------- multicoloring

def full_host(n):
    return TripleSystem(n, frozenset(combinations(range(n), 3)))


def test_extract_multicoloring_uses_smallest_colors():
    h = full_host(6)
    la = build_list_assignment(h, (0, 1), (2, 3))
    mc = extract_multicoloring(la, 2)
    assert mc is not None
    assert mc.check(la)
    assert mc.colorings[0][(0, 2)] == 4  # smallest non-grid completion
    assert mc.colorings[1][(0, 2)] == 5


def test_extract_multicoloring_absent_when_lists_short():
    base = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    exp = expand(base)
    la = build_list_assignment(exp.system, (0, 1), (2, 3))
    assert extract_multicoloring(la, 2) is None
    one = extract_multicoloring(la, 1)
    assert one is not None and one.check(la)
    with pytest.raises(ValueError):
        extract_multicoloring(la, 0)


def test_multicoloring_check_rejects_repeats_across_rounds():
    h = full_host(6)
    la = build_list_assignment(h, (0,), (1,))
    mc = extract_multicoloring(la, 2)
    from expansions import Multicoloring
    bad = Multicoloring((mc.colorings[0], mc.colorings[0]))
    assert not bad.check(la)


def test_a_witness_failing_its_check_raises(monkeypatch):
    # a list repeating a color makes extraction give that cell one color twice
    with pytest.raises(RuntimeError):
        extract_multicoloring(ListAssignment((0,), (1,), {(0, 1): [5, 5]}), 2)
    # row 0 lists {0, 1} and row 1 lists {0, 2}: no rainbow and no two
    # column rounds, so the two disjoint rounds are monochromatic 0 and the
    # rows colored 1 and 2
    lists = {(0, 2): frozenset({0, 1}), (0, 3): frozenset({0, 1}),
             (1, 2): frozenset({0, 2}), (1, 3): frozenset({0, 2})}
    la = ListAssignment((0, 1), (2, 3), lists)
    out = find_structured_multicoloring(la, m=2, s=2)
    assert (out.labels, [sorted(set(chi.values())) for chi in out.result.colorings]) == \
        ((MONOCHROMATIC, ROW_CANONICAL), [[0], [1, 2]])
    # a disjointness rule passing everything stacks the rows colored 0 and 2
    # on the monochromatic 0, so a cell gets color 0 twice
    with monkeypatch.context() as patch:
        patch.setattr(ramsey, "_disjoint", lambda a, b: True)
        with pytest.raises(RuntimeError):
            find_structured_multicoloring(la, m=2, s=2)
    # a round reported under a label it does not carry
    rounds = ramsey._structured_rounds
    monkeypatch.setattr(ramsey, "_structured_rounds", lambda *args: (
        (ROW_CANONICAL, colors, chi) for _, colors, chi in rounds(*args)))
    with pytest.raises(RuntimeError):
        find_structured_multicoloring(la, m=2, s=2)


# ------------------------------------------------- structured multicolor

def test_structured_search_finds_rainbow_on_rich_host():
    h = full_host(8)
    la = build_list_assignment(h, (0, 1), (2, 3))
    out = find_structured_multicoloring(la, m=1, s=2)
    assert out.status == "found"
    assert out.labels == (RAINBOW,)
    assert out.result.check(build_list_assignment(h, out.rows, out.cols))


def test_structured_search_monochromatic_rounds_on_singleton_grid():
    h = full_host(7)
    la = build_list_assignment(h, (0,), (1,))
    out = find_structured_multicoloring(la, m=2, s=1)
    assert out.status == "found"
    # a 1x1 grid is rainbow with any single color
    assert out.labels == (RAINBOW,)


def test_structured_search_absent_when_lists_conflict():
    # expansion lists are singletons; a 2x2 rainbow needs 4 distinct colors,
    # which holds, so shrink the host: all four pairs complete to the SAME vertex
    h = TripleSystem.from_edges(5, [(0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4)])
    la = build_list_assignment(h, (0, 1), (2, 3))
    out = find_structured_multicoloring(la, m=2, s=2)
    # every list is {4}: rainbow impossible, and two disjoint rounds impossible
    assert out.status == "absent"
    single = find_structured_multicoloring(la, m=1, s=2)
    assert single.status == "found"
    assert single.labels == (MONOCHROMATIC,)


def test_structured_search_budget_exhaustion_reported():
    h = full_host(9)
    la = build_list_assignment(h, (0, 1, 2), (3, 4, 5))
    out = find_structured_multicoloring(la, m=3, s=3, budget_nodes=5)
    assert out.status == "budget-exhausted"
    assert out.result is None
    assert out.nodes >= 5


def test_structured_search_validates_parameters():
    h = full_host(6)
    la = build_list_assignment(h, (0,), (1,))
    with pytest.raises(ValueError):
        find_structured_multicoloring(la, m=0, s=1)
    with pytest.raises(ValueError):
        find_structured_multicoloring(la, m=1, s=0)


def test_structured_search_disjoint_color_sets_across_rounds():
    # lists large enough for three structured rounds on a 2x2 grid
    h = full_host(10)
    la = build_list_assignment(h, (0, 1), (2, 3))
    out = find_structured_multicoloring(la, m=3, s=2)
    assert out.status == "found"
    if len(out.result.colorings) > 1:
        seen: set[int] = set()
        for chi in out.result.colorings:
            mine = set(chi.values())
            assert not (mine & seen)
            seen |= mine


def test_structured_search_rainbow_deeper_than_the_recursion_limit():
    # each of the 32 x 32 cells completes to its own third vertex, so the
    # one rainbow choice is 1,024 levels deep: one node per level plus the
    # subgrid's own
    side = 32
    xs, ys = tuple(range(side)), tuple(range(side, 2 * side))
    host = TripleSystem.from_edges(2 * side + side * side, [
        (x, y, 2 * side + side * x + (y - side)) for x in xs for y in ys])
    la = build_list_assignment(host, xs, ys)
    out = find_structured_multicoloring(la, m=1, s=side)
    assert (out.status, out.labels, out.nodes) == ("found", (RAINBOW,), 1025)
    assert out.result.check(la)


def random_list_assignment(rng):
    # lists hold at least half of a palette of at most six colors, so that
    # rainbow subgrids are often impossible and the disjoint rounds decide
    rows = tuple(range(rng.randint(1, 4)))
    cols = tuple(range(10, 10 + rng.randint(1, 4)))
    palette = range(20, 20 + rng.randint(1, 6))
    lists = {(x, y): frozenset(rng.sample(palette, rng.randint(len(palette) // 2,
                                                               len(palette))))
             for x in rows for y in cols}
    return ListAssignment(rows, cols, lists)


def test_structured_search_matches_recursive_reference():
    rng = random.Random(83)
    kinds = []
    for _ in range(1500):
        la = random_list_assignment(rng)
        # subgrids of the largest size or one less; 1-by-1 ones are rainbow or empty
        m, s = rng.randint(1, 4), max(1, min(len(la.rows), len(la.cols)) - rng.randint(0, 1))
        out = find_structured_multicoloring(la, m, s, budget_nodes=None)
        want = recursive_structured_search(la.lists, la.rows, la.cols, m, s)
        colorings = out.result.colorings if out.result else None
        assert (out.status, out.rows, out.cols, out.labels, colorings) == want, (la, m, s)
        kinds.append(want[3])
    # every kind of round ends some stack, and some stacks mix kinds
    assert {labels[-1] for labels in kinds if labels} == {
        RAINBOW, MONOCHROMATIC, ROW_CANONICAL, COLUMN_CANONICAL}
    assert None in kinds and any(labels and len(set(labels)) > 1 for labels in kinds)


def three_color_grid(side=6):
    # every cell lists two of three colors: no 2x2 rainbow, and three rounds
    # with disjoint colors would need all three on every cell, so the search
    # scans every subgrid and proves absence after 4,083 nodes
    xs, ys = tuple(range(side)), tuple(range(side, 2 * side))
    host = TripleSystem.from_edges(2 * side + 3, [
        (x, y, 2 * side + c) for x in xs for y in ys for c in range(3) if c != (x + y) % 3])
    return build_list_assignment(host, xs, ys)


def test_structured_search_node_cap_is_exact_and_deadline_checked_every_1024_nodes():
    la = three_color_grid()
    full = find_structured_multicoloring(la, m=3, s=2)
    assert (full.status, full.nodes) == ("absent", 4083)
    capped = find_structured_multicoloring(la, m=3, s=2, budget_nodes=2000)
    assert (capped.status, capped.nodes) == ("budget-exhausted", 2001)
    out = find_structured_multicoloring(la, m=3, s=2, budget_ms=0)
    assert (out.status, out.nodes) == ("budget-exhausted", 1024)
    assert out.result is None
