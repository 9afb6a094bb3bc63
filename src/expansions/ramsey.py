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

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .core import Budget, BudgetExhausted, TripleSystem, canonical_edge, neighborhood, shadow

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


@dataclass(frozen=True)
class GridColoring:
    """Total coloring of the cells rows x cols; sides must be disjoint."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    colors: dict[Cell, int]

    def __post_init__(self):
        _check_sides(self.rows, self.cols)
        want = {(x, y) for x in self.rows for y in self.cols}
        if set(self.colors) != want:
            raise ValueError("coloring must cover exactly the grid cells")

    def color(self, x: int, y: int) -> int:
        return self.colors[(x, y)]


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


@dataclass(frozen=True)
class ListAssignment:
    """Color lists on the cells of a complete grid."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    lists: dict[Cell, frozenset[int]]

    def cells(self) -> list[Cell]:
        return [(x, y) for x in self.rows for y in self.cols]


def build_list_assignment(host: TripleSystem, rows: Iterable[int], cols: Iterable[int]) -> ListAssignment:
    """Lists from a host system: third vertices of each grid pair, minus
    the grid's own vertices.  The sides follow the GridColoring rules, and
    every grid pair must lie in the host shadow."""
    rows, cols = tuple(rows), tuple(cols)
    _check_sides(rows, cols)
    grid_vertices = set(rows) | set(cols)
    host_pairs = shadow(host).edges
    lists: dict[Cell, frozenset[int]] = {}
    for x in rows:
        for y in cols:
            if canonical_edge(x, y) not in host_pairs:
                raise ValueError(f"grid pair {(x, y)} is not in the shadow of the host")
            lists[(x, y)] = neighborhood(host, (x, y)) - grid_vertices
    return ListAssignment(rows, cols, lists)


@dataclass(frozen=True)
class Multicoloring:
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
    """m rounds using the m smallest colors of each list; None when some
    list is too short.  A multicoloring exists iff every list has size >= m."""
    if m < 1:
        raise ValueError("round count must be positive")
    if any(len(lst) < m for lst in assignment.lists.values()):
        return None
    rounds = []
    for i in range(m):
        rounds.append({cell: sorted(lst)[i] for cell, lst in assignment.lists.items()})
    return Multicoloring(tuple(rounds))


@dataclass(frozen=True)
class StructuredSearch:
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
    assignment: ListAssignment, m: int, s: int, budget_nodes: int | None = 500_000,
    budget_ms: int | None = None,
) -> StructuredSearch:
    """On some s-by-s subgrid: a rainbow list coloring, or m structured
    list colorings with pairwise disjoint color sets.

    Subgrids are scanned in sorted order.  Per subgrid the rainbow branch
    runs first (exact backtracking for an injective choice from the
    lists); the disjoint branch then stacks m colorings, each either
    monochromatic or canonical along one side, never reusing a color.
    """
    if m < 1 or s < 1:
        raise ValueError("round count and subgrid size must be positive")
    budget = Budget(budget_ms, budget_nodes)
    try:
        for xs in combinations(sorted(assignment.rows), s):
            for ys in combinations(sorted(assignment.cols), s):
                budget.spend()
                cells = [(x, y) for x in xs for y in ys]
                lists = {c: assignment.lists[c] for c in cells}
                rainbow = _rainbow_coloring(cells, lists, budget)
                if rainbow is not None:
                    return StructuredSearch(
                        "found", xs, ys, Multicoloring((rainbow,)), (RAINBOW,), budget.nodes)
                stacked = _disjoint_structured(xs, ys, lists, m, budget)
                if stacked is not None:
                    rounds, labels = stacked
                    return StructuredSearch(
                        "found", xs, ys, Multicoloring(tuple(rounds)), tuple(labels), budget.nodes)
    except BudgetExhausted:
        return StructuredSearch("budget-exhausted", None, None, None, None, budget.nodes)
    return StructuredSearch("absent", None, None, None, None, budget.nodes)


def _rainbow_coloring(cells, lists, budget) -> dict[Cell, int] | None:
    order = sorted(cells, key=lambda c: len(lists[c]))
    used: set[int] = set()
    chosen: dict[Cell, int] = {}
    rest: list = [None] * len(order)  # untried colors per level
    i = 0
    while i < len(order):
        cell = order[i]
        if cell in chosen:  # back from the level below: lift this level's choice
            used.remove(chosen.pop(cell))
        else:
            budget.spend()
            rest[i] = iter(sorted(lists[cell]))
        color = next((c for c in rest[i] if c not in used), None)
        if color is not None:
            used.add(color)
            chosen[cell] = color
            i += 1
        elif i == 0:
            return None
        else:
            i -= 1
    return chosen


def _disjoint_structured(xs, ys, lists, m, budget):
    rounds: list[dict[Cell, int]] = []
    labels: list[str] = []
    used: set[int] = set()

    def common(cells) -> frozenset[int]:
        out = lists[cells[0]]
        for c in cells[1:]:
            out = out & lists[c]
        return out

    def place(kind: str) -> list[tuple[dict[Cell, int], set[int]]]:
        # enumerate candidate colorings of one round, cheapest first
        if kind == MONOCHROMATIC:
            pool = sorted(common([(x, y) for x in xs for y in ys]) - used)
            return [({(x, y): c for x in xs for y in ys}, {c}) for c in pool]
        side, lines = (xs, "row") if kind == ROW_CANONICAL else (ys, "col")
        choices: list[tuple[dict[Cell, int], set[int]]] = []

        def build(i: int, acc: dict[Cell, int], mine: set[int]):
            budget.spend()
            if i == len(side):
                choices.append((dict(acc), set(mine)))
                return
            v = side[i]
            cells = [(v, y) for y in ys] if lines == "row" else [(x, v) for x in xs]
            for c in sorted(common(cells) - used - mine):
                for cell in cells:
                    acc[cell] = c
                build(i + 1, acc, mine | {c})
            for cell in cells:
                acc.pop(cell, None)

        build(0, {}, set())
        return choices

    def walk(i: int) -> bool:
        if i == m:
            return True
        budget.spend()
        for kind in (MONOCHROMATIC, ROW_CANONICAL, COLUMN_CANONICAL):
            for coloring, colors in place(kind):
                rounds.append(coloring)
                labels.append(kind)
                used.update(colors)
                if walk(i + 1):
                    return True
                used.difference_update(colors)
                rounds.pop()
                labels.pop()
        return False

    return (rounds, labels) if walk(0) else None
