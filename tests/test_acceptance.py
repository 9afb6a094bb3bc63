"""Acceptance gate: thirteen numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
criterion asserts its contract except number 13, whose bound is reported,
never asserted: a violation there would be a finding, and it is printed
loudly instead of failing the suite.
"""

import random
import time
from itertools import combinations, product
from math import comb, factorial

from expansions import (AugmentedFamily, Graph, GridColoring, SetFamily,
                        TripleSystem, best_crosscut_pair, complete_forest_to_tree,
                        contains, contains_expansion, crosscut_number, expand,
                        find_classified_subgrid, find_sunflower, forest_lambda,
                        forests, full_subgraph, lower_bound_construction,
                        min_crosscut, select_disjoint_augmented,
                        tree_crosscut_number, trees, triple_trees, turan_number)

from helpers import (brute_is_tree, brute_subgrid_labels, brute_turan, pair_counts,
                     random_system)


def verdict(number: int, ok: bool, title: str, detail: str = ""):
    line = f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'}: {title}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_criterion_01_sigma_cross_validation():
    t0 = time.time()
    checked = 0
    for n in range(1, 9):
        for tree in trees(n):
            pair_value = best_crosscut_pair(tree).weight
            hyper = min_crosscut(expand(tree).system)
            assert hyper is not None and hyper[0] == pair_value, (n, tree)
            assert tree_crosscut_number(tree) == pair_value
            checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 60
    assert verdict(1, ok, "graph-side and hypergraph-side crosscut numbers agree "
                          "on every tree with at most 8 vertices",
                   f"{checked} trees, {elapsed:.1f}s")


def test_criterion_02_uncovered_edges_few_and_never_pendant():
    checked = 0
    for n in range(2, 10):
        for tree in trees(n):
            pair = best_crosscut_pair(tree)
            ell = pair.weight - 1
            assert len(pair.uncovered) <= ell / 2, (n, tree, pair)
            degree = [0] * n
            for u, v in tree.edges:
                degree[u] += 1
                degree[v] += 1
            assert all(min(degree[u], degree[v]) > 1 for u, v in pair.uncovered), (n, tree, pair)
            checked += 1
    assert verdict(2, True, "optimal pairs leave at most ell/2 edges uncovered "
                            "and never a pendant edge", f"{checked} trees")


def test_criterion_03_lambda_at_most_half_the_edges():
    checked = 0
    for n in range(1, 10):
        for forest in forests(n):
            assert forest_lambda(forest) <= len(forest.edges) / 2, (n, forest)
            checked += 1
    assert verdict(3, True, "bipartition weight is at most half the edge count "
                            "on every forest with at most 9 vertices",
                   f"{checked} forests")


def test_criterion_04_degree_bound_on_uncovered_vertices():
    checked = 0
    for n in range(2, 10):
        for tree in trees(n):
            pair = best_crosscut_pair(tree)
            ell = pair.weight - 1
            lam = forest_lambda(Graph(tree.n, pair.uncovered))
            nbrs = tree.neighbours()
            for v in {x for e in pair.uncovered for x in e}:
                assert len(nbrs[v]) <= ell - lam, (n, tree, v)
            checked += 1
    assert verdict(4, True, "vertices of uncovered edges have tree-degree at "
                            "most ell minus the uncovered bipartition weight",
                   f"{checked} trees")


def test_criterion_05_completion_preserves_crosscut_number():
    completed = 0
    excluded = 0
    for n in range(1, 8):
        for forest in forests(n):
            if n >= 2 and not forest.edges:
                # crosscut number 0 cannot survive gaining an edge; the
                # completion refuses these by contract
                try:
                    complete_forest_to_tree(forest)
                except ValueError:
                    excluded += 1
                    continue
                raise AssertionError("edgeless forest was not rejected")
            tree = complete_forest_to_tree(forest)
            assert brute_is_tree(tree) or forest.n <= 1
            assert crosscut_number(tree) == crosscut_number(forest), (n, forest)
            completed += 1
    assert verdict(5, True, "forest-to-tree completion preserves the crosscut "
                            "number on every forest with at most 7 vertices",
                   f"{completed} completed, {excluded} edgeless refused by contract")


def test_criterion_06_trimming_is_full_and_bounded():
    rng = random.Random(20260816)
    for trial in range(500):
        n = rng.randint(4, 12)
        h = random_system(rng, n, rng.randint(0, 3 * n))
        d = rng.randint(1, 3)
        out = full_subgraph(h, d)
        for count in pair_counts(out).values():
            assert count >= d + 1, (trial, d)
        assert len(out.edges) >= len(h.edges) - d * len(pair_counts(h)), (trial, d)
    assert verdict(6, True, "trimmed systems are (d+1)-full and lose at most "
                            "d edges per shadow pair", "500 seeded systems")


def test_criterion_07_sunflower_guarantee_at_exact_threshold():
    rng = random.Random(97)
    runs = 0
    for k in (2, 3):
        for petals in (2, 3):
            size = factorial(k) * (petals - 1) ** k
            for _ in range(200):
                universe = range(3 * k + 6)
                sets: set[frozenset] = set()
                while len(sets) < size:
                    sets.add(frozenset(rng.sample(universe, rng.randint(1, k))))
                family = SetFamily(tuple(sorted(sets, key=sorted)))
                flower = find_sunflower(family, petals)
                assert flower is not None, (k, petals, family)
                assert flower.check(family)
                runs += 1
    # k = 1 (and s = 1) sit below the pigeonhole floor: the threshold
    # formula gives s - 1 singleton sets (or an empty family), which cannot
    # carry s petals, so those subcases are excluded as vacuously impossible
    assert verdict(7, True, "sunflowers always found at family size exactly "
                            "k!(s-1)^k for k in {2,3}, s in {2,3}",
                   f"{runs} families; k=1 and s=1 impossible by counting, excluded")


def test_criterion_08_augmented_selection_reaches_a_third():
    rng = random.Random(101)
    for trial in range(200):
        m = rng.randint(1, 200)
        universe = list(range(4 * m + 4))
        rng.shuffle(universe)
        cursor = 0
        bases = []
        for _ in range(m):
            take = rng.randint(1, 3)
            bases.append(frozenset(universe[cursor:cursor + take]))
            cursor += take
        anchors = rng.sample(universe[:cursor + m], m)
        family = AugmentedFamily.from_pairs(list(zip(bases, anchors)))
        picked = select_disjoint_augmented(family)
        assert 3 * len(picked) >= m, trial
        augmented = [bases[i] | {anchors[i]} for i in picked]
        for a, b in combinations(augmented, 2):
            assert not (a & b), trial
    assert verdict(8, True, "at least a third of every augmented family chosen "
                            "pairwise disjoint", "200 seeded families, m up to 200")


def test_criterion_09_classified_subgrids_oracle_and_threshold():
    rng = random.Random(103)
    rows, cols = tuple(range(5)), tuple(range(5, 10))
    for _ in range(500):
        palette = rng.randint(2, 4)
        colors = {(x, y): rng.randrange(palette) for x in rows for y in cols}
        coloring = GridColoring(rows, cols, colors)
        got = find_classified_subgrid(coloring, 2)
        expected = None
        for xs in combinations(rows, 2):
            for ys in combinations(cols, 2):
                labels = brute_subgrid_labels(colors, xs, ys)
                if labels:
                    expected = (xs, ys, labels)
                    break
            if expected:
                break
        assert got == expected

    smallest = None
    for t in range(3, 7):
        grid_rows = tuple(range(t))
        grid_cols = tuple(range(t, 2 * t))
        cells = [(x, y) for x in grid_rows for y in grid_cols]
        if all(find_classified_subgrid(
                GridColoring(grid_rows, grid_cols, dict(zip(cells, bits))), 2)
               is not None for bits in product((0, 1), repeat=len(cells))):
            smallest = t
            break
    assert smallest == 4
    assert verdict(9, True, "subgrid finder matches the exhaustive oracle on "
                            "500 colorings; every 2-coloring of the 4x4 grid "
                            "has a classified 2x2 subgrid and 3x3 does not",
                   "smallest t = 4")


def test_criterion_10_construction_count_and_freeness():
    t0 = time.time()
    checked = 0
    for v in range(2, 7):
        for tree in trees(v):
            sigma = crosscut_number(tree)
            core = sigma - 1
            for n in range(core, 11):
                construction = lower_bound_construction(n, core)
                assert len(construction.edges) == core * comb(n - core, 2), (tree, n)
                assert contains_expansion(construction, tree) is None, (tree, n)
                checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 120
    assert verdict(10, ok, "core constructions have the promised edge count and "
                           "avoid every tree expansion, trees to 6 vertices, n to 10",
                   f"{checked} checks, {elapsed:.1f}s")


def test_criterion_11_exact_turan_values_for_the_two_edge_path():
    path2 = Graph.from_edges(3, [(0, 1), (1, 2)])
    pattern = expand(path2).system
    at4 = turan_number(4, pattern)
    assert at4.exact and at4.value == 4

    at5 = turan_number(5, pattern)
    oracle_value, oracle_witnesses = brute_turan(5, pattern)
    assert at5.exact
    assert at5.value == oracle_value
    assert at5.witness == min(oracle_witnesses)
    assert verdict(11, True, "edge-maximization is exact on 4 and 5 vertices and "
                             "matches the exhaustive subfamily oracle",
                   f"values 4 and {at5.value}")


def test_criterion_12_audits_are_descriptive_not_asymptotic():
    from expansions import audit_forest_bound, audit_sigma_jump
    from expansions.cli import COMMANDS

    path2 = Graph.from_edges(3, [(0, 1), (1, 2)])
    theorem_report = audit_forest_bound(path2, [4, 5, 6])
    jump_report = audit_sigma_jump(path2, 8)
    assert "no asymptotic claim" in theorem_report["note"]
    assert "no asymptotic claim" in jump_report["note"]
    assert "audit-theorem1" in COMMANDS and "audit-jump" in COMMANDS
    assert all(row["free"] for row in theorem_report["rows"])
    assert verdict(12, True, "asymptotic statements are out of desk reach; audits "
                             "ship finite-n counts and ratios labeled descriptive")


def test_criterion_13_edge_bound_spot_check_reported_not_asserted():
    violations = []
    rows = []
    for v in (3, 4, 5):
        for pattern in triple_trees(v):
            for n in range(3, 7):
                result = turan_number(n, pattern)
                assert result.exact
                bound = (v - 3) / 3 * comb(n, 2)
                rows.append((sorted(pattern.edges), n, result.value, bound))
                if result.value > bound:
                    violations.append(rows[-1])
    for edges, n, value, bound in rows:
        print(f"    pattern {edges} n={n}: exact max {value}, bound {bound:.2f}")
    for edges, n, value, bound in violations:
        print(f"    FINDING: pattern {edges} exceeds the bound at n={n}: "
              f"{value} > {bound:.2f}")
    assert verdict(13, True, "edge bound spot check on glued triple trees, "
                             "v to 5, n to 6",
                   f"{len(rows)} instances, {len(violations)} violations reported, "
                   "bound observed, never asserted")
