"""Canonical patterns in edge-colored bipartite grids.

A grid coloring assigns a color to every cell of a complete bipartite
grid rows x cols.  The four structured patterns are: monochromatic, all
colors distinct (rainbow), constant along each row with distinct row
colors (row-canonical), and the column analogue.  Degenerate grids
satisfy several patterns at once and every applicable label is reported.

List assignments connect grids to triple systems: the list of a grid
pair is the set of third vertices completing it to a triple of the host,
minus the grid's own vertices.  Colorings drawn from such lists with
distinct colors per cell across rounds form a multicoloring.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .core import Budget, BudgetExhausted, Record, TripleSystem, canonical_edge, first_compatible

MONOCHROMATIC = "monochromatic"
RAINBOW = "rainbow"
ROW_CANONICAL = "row-canonical"
COLUMN_CANONICAL = "column-canonical"

Cell = tuple[int, int]


def _check_sides(rows: tuple[int, ...], cols: tuple[int, ...]) -> None:
    """Grid sides must be nonempty, disjoint and free of repeated vertices."""
    if not rows or not cols:
        raise ValueError("both grid sides must be nonempty")
    if set(rows) & set(cols):
        raise ValueError("grid sides must be disjoint")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("grid sides must not repeat vertices")


class GridColoring(Record):
    """Total coloring of the cells rows x cols; sides must be disjoint."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    colors: dict[Cell, int]

    def __post_init__(self):
        _check_sides(self.rows, self.cols)
        want = {(x, y) for x in self.rows for y in self.cols}
        if set(self.colors) != want:
            raise ValueError("coloring must cover exactly the grid cells")


def _canonical(lines) -> bool:
    """Each line is constant, and no two lines share a color."""
    return (all(len(set(line)) == 1 for line in lines)
            and len({line[0] for line in lines}) == len(lines))


def _labels(rows, cols, colors) -> frozenset[str]:
    matrix = [[colors[(x, y)] for y in cols] for x in rows]
    values = [c for row in matrix for c in row]
    labels = set()
    if len(set(values)) == 1:
        labels.add(MONOCHROMATIC)
    if len(set(values)) == len(values):
        labels.add(RAINBOW)
    if _canonical(matrix):
        labels.add(ROW_CANONICAL)
    if _canonical(list(zip(*matrix))):
        labels.add(COLUMN_CANONICAL)
    return frozenset(labels)


def classify(coloring: GridColoring) -> frozenset[str]:
    """Every structured label the coloring satisfies; empty when none do."""
    return _labels(coloring.rows, coloring.cols, coloring.colors)


def find_classified_subgrid(
    coloring: GridColoring, s: int
) -> tuple[tuple[int, ...], tuple[int, ...], frozenset[str]] | None:
    """First s-by-s subgrid, in sorted subset order, carrying any label."""
    if s < 1:
        raise ValueError("subgrid size must be positive")
    for xs in combinations(sorted(coloring.rows), s):
        for ys in combinations(sorted(coloring.cols), s):
            labels = _labels(xs, ys, coloring.colors)
            if labels:
                return xs, ys, labels
    return None


class ListAssignment(Record):
    """Color lists on the cells of a complete grid."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    lists: dict[Cell, frozenset[int]]

    def cells(self) -> list[Cell]:
        return [(x, y) for x in self.rows for y in self.cols]


def build_list_assignment(host: TripleSystem, rows: Iterable[int], cols: Iterable[int]) -> ListAssignment:
    """Lists from a host system: third vertices of each grid pair, read once
    from its pair table, minus the grid's own vertices.  The sides follow
    the GridColoring rules, and every grid pair must lie in the host shadow."""
    rows, cols = tuple(rows), tuple(cols)
    _check_sides(rows, cols)
    grid_vertices = set(rows) | set(cols)
    lists: dict[Cell, frozenset[int]] = {}
    for x in rows:
        for y in cols:
            thirds = host.pair_neighborhoods.get(canonical_edge(x, y))
            if thirds is None:
                raise ValueError(f"grid pair {(x, y)} is not in the shadow of the host")
            lists[(x, y)] = thirds - grid_vertices
    return ListAssignment(rows, cols, lists)


class Multicoloring(Record):
    """Rounds of cell colorings with per-cell distinct colors across rounds."""

    colorings: tuple[dict[Cell, int], ...]

    def check(self, assignment: ListAssignment) -> bool:
        cells = assignment.cells()
        for chi in self.colorings:
            if set(chi) != set(cells):
                return False
            if any(chi[c] not in assignment.lists[c] for c in cells):
                return False
        for c in cells:
            picks = [chi[c] for chi in self.colorings]
            if len(set(picks)) != len(picks):
                return False
        return True


def extract_multicoloring(assignment: ListAssignment, m: int) -> Multicoloring | None:
    """m rounds using the m smallest colors of each list, checked against
    the lists; None when some list is too short.  A multicoloring exists iff
    every list has size >= m."""
    if m < 1:
        raise ValueError("round count must be positive")
    if any(len(lst) < m for lst in assignment.lists.values()):
        return None
    smallest = {cell: sorted(lst)[:m] for cell, lst in assignment.lists.items()}
    result = Multicoloring(tuple({cell: colors[i] for cell, colors in smallest.items()}
                                 for i in range(m)))
    if not result.check(assignment):
        raise RuntimeError("extraction produced rounds that are not a multicoloring of the lists")
    return result


# the node cap of the structured search when none is given
DEFAULT_BUDGET_NODES = 500_000


class StructuredSearch(Record):
    """Outcome of find_structured_multicoloring.

    status is "found", "absent", or "budget-exhausted"; the last means the
    node cap or the deadline ran out before the search space was
    exhausted, which is weaker than proven absence.
    """

    status: str
    rows: tuple[int, ...] | None
    cols: tuple[int, ...] | None
    result: Multicoloring | None
    labels: tuple[str, ...] | None
    nodes: int


def find_structured_multicoloring(
    assignment: ListAssignment, m: int, s: int, *,
    budget_nodes: int | None = DEFAULT_BUDGET_NODES, budget_ms: int | None = None,
) -> StructuredSearch:
    """On some s-by-s subgrid: a rainbow list coloring, or m structured
    list colorings with pairwise disjoint color sets.

    Subgrids are scanned in sorted order.  Per subgrid the rainbow branch
    runs first (the first injective choice from the lists, shortest list
    first); the disjoint branch then takes the lexicographically first m
    pairwise color-disjoint rounds in one fixed order: monochromatic,
    then row-canonical, then column-canonical, each by its colors read
    along its lines.  Disjointness does not depend on the order of the
    rounds, so any m disjoint rounds sort into an increasing stack, and
    the first stack among all orderings is the first increasing one:
    the same witness a search over every ordering finds first.

    Nodes: one per subgrid, one per level entered while choosing colors
    along cells or lines, and one per round tried for the stack.  A found
    witness is checked against the subgrid's lists and the labels of
    classify before it is returned.
    """
    if m < 1 or s < 1:
        raise ValueError("round count and subgrid size must be positive")
    lists = assignment.lists
    budget = Budget(budget_ms, budget_nodes)
    try:
        for xs in combinations(sorted(assignment.rows), s):
            for ys in combinations(sorted(assignment.cols), s):
                budget.spend()
                cells = sorted(((x, y) for x in xs for y in ys), key=lambda c: len(lists[c]))
                rainbow = next(_distinct_choices([lists[c] for c in cells], budget), None)
                if rainbow is not None:
                    only = (RAINBOW, frozenset(rainbow), dict(zip(cells, rainbow)))
                    return _found(assignment, xs, ys, [only], budget.nodes)
                stack = first_compatible(_structured_rounds(xs, ys, lists, budget), m,
                                         _disjoint, budget)
                if stack is not None:
                    return _found(assignment, xs, ys, stack, budget.nodes)
    except BudgetExhausted:
        return StructuredSearch("budget-exhausted", None, None, None, None, budget.nodes)
    return StructuredSearch("absent", None, None, None, None, budget.nodes)


def _found(assignment: ListAssignment, xs, ys, rounds, nodes: int) -> StructuredSearch:
    """The found search of these (label, colors, coloring) rounds on xs by
    ys, checked against that subgrid's lists and labels; RuntimeError if not."""
    result = Multicoloring(tuple(r[2] for r in rounds))
    sub = ListAssignment(xs, ys, {(x, y): assignment.lists[(x, y)] for x in xs for y in ys})
    if not result.check(sub) or not all(r[0] in _labels(xs, ys, r[2]) for r in rounds):
        raise RuntimeError("structured search produced rounds that fail their check")
    return StructuredSearch("found", xs, ys, result, tuple(r[0] for r in rounds), nodes)


def _structured_rounds(xs, ys, lists, budget):
    """Every structured round on the subgrid xs by ys, as (label, colors,
    coloring): one color per line, distinct across lines, from the
    colors all cells of the line list.  The single line of all cells
    gives the monochromatic rounds, then come rows, then columns."""
    cells = [(x, y) for x in xs for y in ys]
    for label, lines in ((MONOCHROMATIC, [cells]),
                         (ROW_CANONICAL, [[(x, y) for y in ys] for x in xs]),
                         (COLUMN_CANONICAL, [[(x, y) for x in xs] for y in ys])):
        pools = [set(lists[line[0]]).intersection(*(lists[c] for c in line[1:]))
                 for line in lines]
        for picks in _distinct_choices(pools, budget):
            yield label, frozenset(picks), {c: color for line, color in zip(lines, picks)
                                            for c in line}


def _disjoint(a, b) -> bool:
    """Two rounds from _structured_rounds share no color."""
    return a[1].isdisjoint(b[1])


def _distinct_choices(pools, budget):
    """Every choice of one color from each pool, no color twice, in
    lexicographic order; entering a level is one node."""
    picks: dict[int, None] = {}  # colors chosen above, kept in order with fast lookup
    budget.spend()
    rest = [iter(sorted(pools[0]))]  # the untried colors of each open level
    while rest:
        color = next((c for c in rest[-1] if c not in picks), None)
        if color is None:
            rest.pop()
            if picks:
                picks.popitem()
        elif len(rest) == len(pools):
            yield (*picks, color)
        else:
            picks[color] = None
            budget.spend()
            rest.append(iter(sorted(pools[len(rest)])))
