"""Text and JSON serialization for graphs and triple systems, and the one
reader and shape checks every JSON input file of the package goes through.

Text format: a header line "n m" followed by m edge lines, "u v" for graphs
and "u v w" for triple systems.  Blank lines and trailing whitespace are
tolerated.  The JSON mirror is {"n": n, "edges": [[u, v], ...]} with inner
lists of length 3 for triple systems.
"""

from __future__ import annotations

import json
import reprlib

from .core import Graph, TripleSystem


def parse_text(text: str, cls: type[Graph | TripleSystem]) -> Graph | TripleSystem:
    """The graph or triple system (as cls says) written in the text format."""
    width, kind = cls._width, cls._kind
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError(f"empty {kind} input")
    try:  # two integers, or a ValueError: wrong counts fail the unpacking
        n, m = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"{kind} header must be 'n m', got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"{kind} header promises {m} edges, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != width:
            raise ValueError(f"{kind} edge line must have {width} vertices, got {ln!r}")
        try:
            rows.append([int(p) for p in parts])
        except ValueError:
            raise ValueError(f"{kind} edge line must have integer vertices, got {ln!r}") from None
    return cls.from_edges(n, rows)


def to_text(system: Graph | TripleSystem) -> str:
    lines = [f"{system.n} {len(system.edges)}"]
    lines += [" ".join(map(str, e)) for e in system.sorted_edges()]
    return "\n".join(lines) + "\n"


def to_json_dict(system: Graph | TripleSystem) -> dict:
    return {"n": system.n, "edges": [list(e) for e in system.sorted_edges()]}


def read_json(path: str):
    """The decoded JSON file; nesting too deep to decode is a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def json_object(obj, what: str, *keys: str) -> dict:
    """obj itself, once checked to be a JSON object with every given key."""
    if not isinstance(obj, dict) or not set(keys) <= set(obj):
        raise ValueError(f"{what} must be an object with {', '.join(map(repr, keys))}")
    return obj


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(value, what: str) -> int:
    """The value itself, once checked to be a JSON integer (not a boolean)."""
    if not _is_int(value):
        raise ValueError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return value


def int_list(value, what: str, width: int | None = None) -> list[int]:
    """The value itself, once checked to be a JSON list of integers (of the
    given length); ValueError naming `what` otherwise."""
    if not (isinstance(value, list) and (width is None or len(value) == width)
            and all(_is_int(x) for x in value)):
        size = "" if width is None else f" {width}"
        raise ValueError(f"{what} must be a list of{size} integers, got {reprlib.repr(value)}")
    return value


def json_list(obj: dict, key: str) -> list:
    """obj[key], once checked to be a JSON list."""
    value = obj[key]
    if not isinstance(value, list):
        raise ValueError(f"'{key}' must be a list, got {reprlib.repr(value)}")
    return value


def from_json_dict(obj, cls: type[Graph | TripleSystem]) -> Graph | TripleSystem:
    """The graph or triple system (as cls says) of a decoded JSON mirror."""
    json_object(obj, f"{cls._kind} JSON", "n", "edges")
    n = json_int(obj["n"], f"{cls._kind} 'n'")
    return cls.from_edges(n, [int_list(e, f"{cls._kind} edge", cls._width)
                              for e in json_list(obj, "edges")])


def _load(path: str, cls: type[Graph | TripleSystem]) -> Graph | TripleSystem:
    if path.endswith(".json"):
        return from_json_dict(read_json(path), cls)
    with open(path) as fh:
        return parse_text(fh.read(), cls)


def load_graph(path: str) -> Graph:
    """Read a graph file, JSON when the name ends in .json, text otherwise."""
    return _load(path, Graph)


def load_triples(path: str) -> TripleSystem:
    return _load(path, TripleSystem)
