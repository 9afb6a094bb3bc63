"""Spans around calls into the library's public functions.

The tracer replaces module attributes of the imported package with
wrappers; nothing inside the package changes.  Each call records one
span (name, start, end, parent span, task id) in memory, with CPU-time
clocks.  Self time of a span is its duration minus the time covered by
its direct children, so the self times of all spans add up to the traced
time without double counting.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the package is imported as "expansions"
FUNCTIONS = [
    ("crosscuts", "best_crosscut_pair", "crosscuts.best_crosscut_pair"),
    ("crosscuts", "crosscut_audit", "crosscuts.crosscut_audit"),
    ("crosscuts", "complete_forest_to_tree", "crosscuts.complete_forest_to_tree"),
    ("crosscuts", "tree_crosscut_number", "crosscuts.tree_crosscut_number"),
    ("crosscuts", "min_crosscut", "crosscuts.min_crosscut"),
    ("crosscuts", "forest_lambda", "crosscuts.forest_lambda"),
    ("search", "contains_expansion", "search.contains_expansion"),
    ("search", "contains", "search.contains"),
    ("search", "turan_number", "search.turan_number"),
    ("search", "lower_bound_construction", "search.lower_bound_construction"),
    ("search", "audit_forest_bound", "search.audit_forest_bound"),
    ("search", "audit_sigma_jump", "search.audit_sigma_jump"),
    ("io", "load_graph", "io.load"),
    ("io", "load_triples", "io.load"),
    ("extraction", "full_subgraph", "extraction.full_subgraph"),
    ("extraction", "find_sunflower", "extraction.find_sunflower"),
    ("extraction", "select_disjoint_augmented", "extraction.select_disjoint_augmented"),
    ("extraction", "find_biclique_avoiding_lists", "extraction.find_biclique_avoiding_lists"),
    ("ramsey", "find_structured_multicoloring", "ramsey.find_structured_multicoloring"),
    ("ramsey", "find_classified_subgrid", "ramsey.find_classified_subgrid"),
    ("ramsey", "build_list_assignment", "ramsey.build_list_assignment"),
    ("ramsey", "classify", "ramsey.classify"),
    ("generate", "trees", "generate.trees"),
    ("generate", "triple_trees", "generate.triple_trees"),
]

MODULES = ["core", "io", "crosscuts", "search", "extraction", "ramsey", "generate", "cli"]


def _found(result):
    return {"found": int(result is not None)}


def _turan(result):
    return {"nodes": result.nodes, "exact": int(result.exact)}


def _structured(result):
    return {"nodes": result.nodes}


def _file_bytes(args):
    return {"bytes": os.path.getsize(args[0])} if args else {}


# per-span counters, computed from the call's result (or, for io, its path)
RESULT_COUNTERS = {
    "search.contains": _found,
    "search.contains_expansion": _found,
    "search.turan_number": _turan,
    "ramsey.find_structured_multicoloring": _structured,
}
ARG_COUNTERS = {"io.load": _file_bytes}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, task]
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.stack: list[int] = []
        self.task = "setup"
        self.active = True

    def span(self, name: str, fn):
        on_result = RESULT_COUNTERS.get(name)
        on_args = ARG_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.task]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.process_time()
                self.stack.pop()
            if on_result is not None:
                self.counters[name].update(on_result(result))
            if on_args is not None:
                self.counters[name].update(on_args(args))
            return result

        return wrapper

    def install(self, package):
        """Wrap every traced function wherever the package binds it."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in MODULES]
        for mod_name, attr, name in FUNCTIONS:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            original = getattr(home, attr)
            wrapped = self.span(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        core = sys.modules[f"{package.__name__}.core"]
        for cls in (core.Graph, core.TripleSystem):
            cls.from_edges = staticmethod(self.span("core.build", cls.from_edges))
        hood = core.TripleSystem.__dict__["pair_neighborhoods"]
        replacement = functools.cached_property(self.span("core.pair_neighborhoods", hood.func))
        replacement.__set_name__(core.TripleSystem, "pair_neighborhoods")
        core.TripleSystem.pair_neighborhoods = replacement

    def totals(self, factors: dict) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name; each span's CPU self time is
        scaled by the calibration factor of the task it ran in."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _, task) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += ((end - start) - child_s[i]) * factors[task]
        return calls, self_s
