"""Crosscuts, expansions, and small-instance Turan search for triple systems.

Importing the package loads none of its modules: each public name is listed
once, under its module, which is imported on the name's first access (PEP
562) and the name cached here."""

from importlib import import_module

_EXPORTS = {
    "core": ("Graph", "TripleSystem", "canonical_edge", "canonical_triple", "codegree",
             "neighborhood", "shadow"),
    "crosscuts": ("CrosscutPair", "Expansion", "best_crosscut_pair",
                  "complete_forest_to_tree", "crosscut_audit", "crosscut_number",
                  "expand", "forest_lambda", "min_crosscut", "tree_crosscut_number",
                  "tree_lambda"),
    "extraction": ("AugmentedFamily", "SetFamily", "Sunflower",
                   "find_biclique_avoiding_lists", "find_sunflower", "full_subgraph",
                   "select_disjoint_augmented", "sunflower_threshold"),
    "generate": ("forests", "trees", "triple_trees"),
    "ramsey": ("COLUMN_CANONICAL", "MONOCHROMATIC", "RAINBOW", "ROW_CANONICAL",
               "GridColoring", "ListAssignment", "Multicoloring", "StructuredSearch",
               "build_list_assignment", "classify", "extract_multicoloring",
               "find_classified_subgrid", "find_structured_multicoloring"),
    "search": ("EmbeddingCertificate", "TuranResult", "audit_forest_bound",
               "audit_sigma_jump", "contains", "contains_expansion",
               "lower_bound_construction", "turan_number"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
