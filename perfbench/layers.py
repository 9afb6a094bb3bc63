"""Names, units and computation of every reported metric.

End-to-end metrics come from untraced runs; per-layer metrics from a
separate traced run.  Each per-layer name is <module>.<function>.<stat>,
where .s is self time: span time minus the time of the spans it called.
"""

from __future__ import annotations

import statistics

END_TO_END = [
    # name, unit, better
    ("wall_s", "s", "lower"),
    ("task_p50_ms", "ms", "lower"),
    ("task_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("pass_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("cli_startup_ms", "ms", "lower"),
]

_CALLS_AND_SELF = {
    "crosscuts": ["best_crosscut_pair", "crosscut_audit", "complete_forest_to_tree",
                  "tree_crosscut_number", "min_crosscut", "forest_lambda"],
    "search": ["audit_forest_bound", "audit_sigma_jump"],
    "extraction": ["full_subgraph", "find_sunflower", "select_disjoint_augmented",
                   "find_biclique_avoiding_lists"],
}


def _per_layer() -> list[tuple[str, str, str]]:
    out = []
    for module, functions in _CALLS_AND_SELF.items():
        for fn in functions:
            out += [(f"{module}.{fn}.calls", "count", "lower"), (f"{module}.{fn}.s", "s", "lower")]
    for fn in ("contains_expansion", "contains"):
        out += [(f"search.{fn}.calls", "count", "lower"), (f"search.{fn}.s", "s", "lower"),
                (f"search.{fn}.found", "count", "higher"),
                (f"search.{fn}.found_ratio", "ratio", "higher")]
    out += [("search.turan_number.calls", "count", "lower"),
            ("search.turan_number.s", "s", "lower"),
            ("search.turan_number.nodes", "count", "lower"),
            ("search.turan_number.exact_ratio", "ratio", "higher"),
            ("search.turan_number.nodes_per_s", "1/s", "higher"),
            ("search.lower_bound_construction.s", "s", "lower"),
            ("cli.interp_ms", "ms", "lower"),
            ("cli.import_ms", "ms", "lower"),
            ("cli.main.s", "s", "lower"),
            ("cli.exit0", "count", "higher"),
            ("cli.exit2", "count", "higher"),
            ("cli.exit3", "count", "higher"),
            ("cli.unexpected", "count", "lower"),
            ("io.load.calls", "count", "lower"),
            ("io.load.s", "s", "lower"),
            ("io.bytes", "B", "lower"),
            ("ramsey.find_structured_multicoloring.s", "s", "lower"),
            ("ramsey.find_structured_multicoloring.nodes", "count", "lower"),
            ("ramsey.find_classified_subgrid.s", "s", "lower"),
            ("ramsey.build_list_assignment.s", "s", "lower"),
            ("ramsey.classify.s", "s", "lower"),
            ("core.build.s", "s", "lower"),
            ("core.pair_neighborhoods.s", "s", "lower"),
            ("generate.trees.s", "s", "lower"),
            ("generate.triple_trees.s", "s", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.spans", "count", "lower")]
    return out


PER_LAYER = _per_layer()

# counts that must repeat exactly across two runs of one seed
EXACT_COUNTS = ["search.turan_number.nodes", "ramsey.find_structured_multicoloring.nodes",
                "search.contains.found", "search.contains_expansion.found",
                "search.contains.calls", "search.contains_expansion.calls",
                "search.turan_number.calls", "cli.exit0", "cli.exit2", "cli.exit3",
                "cli.unexpected"]


def from_tracer(tracer, factors: dict) -> dict[str, float]:
    """Per-layer values measured by the spans of one traced run."""
    calls, self_s = tracer.totals(factors)
    counters = tracer.counters
    out: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if name.startswith(("cli.", "trace.")):
            continue
        span, _, stat = name.rpartition(".")
        if name == "io.bytes":
            out[name] = counters["io.load"]["bytes"]
        elif stat == "calls":
            out[name] = calls[span]
        elif stat == "s":
            out[name] = self_s[span]
        elif stat == "found":
            out[name] = counters[span]["found"]
        elif stat == "found_ratio":
            out[name] = counters[span]["found"] / calls[span] if calls[span] else 0.0
        elif stat == "nodes":
            out[name] = counters[span]["nodes"]
        elif stat == "exact_ratio":
            out[name] = counters[span]["exact"] / calls[span] if calls[span] else 0.0
        elif stat == "nodes_per_s":
            out[name] = counters[span]["nodes"] / self_s[span] if self_s[span] else 0.0
    out["cli.main.s"] = self_s["cli.main"]
    out["trace.spans"] = len(tracer.spans)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it: the eleventh largest value, the (N-11)/(N-1)
    quantile of N.  Runs with fewer than eleven samples report the median."""
    n = len(values)
    if n < 11:
        return 50.0, statistics.median(values)
    return 100.0 * (n - 11) / (n - 1), sorted(values)[n - 11]
