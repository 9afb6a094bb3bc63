"""Recompute the stored Turan reference table, references.json.

    python3 perfbench/make_references.py

Needs scipy.  Values for n <= 5 come from a scan over every subfamily of
the complete triple system; larger n from an integer programme with one
binary variable per triple and one constraint per copy of the pattern,
solved by scipy.optimize.milp.  Neither path calls the library.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations, permutations

import reference as ref

ENTRIES = [("P2", 5), ("P2", 6), ("P2", 7), ("P3", 5), ("P3", 6), ("P3", 7),
           ("S3", 5), ("S3", 6), ("S3", 7), ("M2", 5), ("M2", 6), ("M2", 7)]


def copies(n: int, pat_n: int, pat_triples) -> list[frozenset]:
    support = sorted({v for e in pat_triples for v in e})
    found = set()
    for image in permutations(range(n), len(support)):
        place = dict(zip(support, image))
        found.add(frozenset(tuple(sorted(place[v] for v in e)) for e in pat_triples))
    return sorted(found, key=sorted)


def by_subsets(n: int, pat_n: int, pat_triples) -> int:
    triples = list(combinations(range(n), 3))
    for r in range(len(triples), -1, -1):
        for subset in combinations(triples, r):
            if not ref.contains(n, subset, pat_n, pat_triples):
                return r
    return 0


def by_milp(n: int, pat_n: int, pat_triples) -> int:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    triples = list(combinations(range(n), 3))
    index = {t: i for i, t in enumerate(triples)}
    rows = copies(n, pat_n, pat_triples)
    if not rows:
        return len(triples)
    a = np.zeros((len(rows), len(triples)))
    for r, copy in enumerate(rows):
        for t in copy:
            a[r, index[t]] = 1
    upper = np.array([len(c) - 1 for c in rows], dtype=float)
    res = milp(c=-np.ones(len(triples)), integrality=np.ones(len(triples)),
               bounds=Bounds(0, 1), constraints=LinearConstraint(a, -np.inf, upper))
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return int(round(-res.fun))


def main() -> int:
    rows = []
    for name, n in ENTRIES:
        base_n, base_edges = ref.BASE_GRAPHS[name]
        pat_n, pat_triples = ref.expansion(base_n, base_edges)
        if pat_n > n:
            value, source = n * (n - 1) * (n - 2) // 6, \
                "pattern has more vertices than the host, so every triple is allowed"
        elif n <= 5:
            value, source = by_subsets(n, pat_n, pat_triples), \
                "scan over every subfamily of the complete triple system"
        else:
            value, source = by_milp(n, pat_n, pat_triples), \
                "integer programme over all copies (scipy.optimize.milp, HiGHS)"
        rows.append({"pattern": f"{name}+", "n": n, "value": value, "provenance": source})
        print(f"{name}+ n={n}: {value}  ({source})", file=sys.stderr)
    with open(ref.TURAN_TABLE, "w") as fh:
        json.dump({"turan": rows}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
