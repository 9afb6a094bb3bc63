"""The package imports lazily: a fresh interpreter loads only the modules
the code it runs uses."""

import importlib
import os
import subprocess
import sys

import pytest

import expansions

SRC = os.path.dirname(os.path.dirname(expansions.__file__))


def run_fresh(*argv: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def modules_after(code: str) -> set[str]:
    """Every module loaded after running code in a fresh interpreter; -S
    keeps a site .pth that preloads modules from hiding what code loads."""
    out = run_fresh("-S", "-c", code + "\nimport sys\nprint('LOADED', *sys.modules)").stdout
    return set(out.splitlines()[-1].split()[1:])


def loaded_by(code: str) -> set[str]:
    """The package's modules loaded after running code in a fresh interpreter."""
    return {m.split(".", 1)[1] for m in modules_after(code) if m.startswith("expansions.")}


@pytest.fixture
def path2(tmp_path):
    path = tmp_path / "p2.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    return str(path)


def test_import_loads_no_submodule():
    assert loaded_by("import expansions") == set()


def test_usage_path_loads_no_library_module():
    # -X importtime lists every module the real `python -m` run imports
    done = run_fresh("-X", "importtime", "-m", "expansions.cli")
    assert done.stdout.startswith("usage: expansions")
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "expansions" in imported
    assert not [m for m in imported if m.startswith("expansions.")]
    assert not imported & {"argparse", "json"}


def test_sigma_on_a_graph_loads_only_its_modules(path2):
    loaded = loaded_by(f"from expansions import cli\n"
                       f"assert cli.main(['sigma', '--graph', {path2!r}]) == 0")
    assert {"cli", "core", "crosscuts", "io"} <= loaded
    assert not loaded & {"search", "ramsey", "extraction", "generate"}


def test_turan_loads_search_but_not_the_extraction_tools(path2):
    loaded = loaded_by(f"from expansions import cli\n"
                       f"assert cli.main(['turan', '--n', '5', '--expansion-of', {path2!r}]) == 0")
    assert "search" in loaded
    assert not loaded & {"ramsey", "extraction"}


INPUTS = {
    "p2.txt": "3 2\n0 1\n1 2\n",
    "host.txt": "6 4\n0 2 4\n0 3 5\n1 2 5\n1 3 4\n",
    "grid.txt": "6 1\n0 2\n",
    "lists.json": '{"lists": [{"edge": [0, 2], "set": [4]}]}',
    "sets.json": '{"sets": [[0, 1], [2, 3]]}',
    "pairs.json": '{"pairs": [{"set": [0], "element": 1}, {"set": [1], "element": 0}]}',
}


@pytest.mark.parametrize("argv", [
    ["sigma", "--graph", "p2.txt"],
    ["turan", "--n", "5", "--expansion-of", "p2.txt"],
    ["full-subgraph", "--triples", "host.txt", "--d", "1"],
    ["sunflower", "--family", "sets.json", "--petals", "2"],
    ["trim-select", "--family", "pairs.json"],
    ["biclique", "--grid", "grid.txt", "--lists", "lists.json", "--t", "1", "--host", "host.txt"],
], ids=lambda argv: argv[0])
def test_a_subcommand_loads_no_introspection_module(tmp_path, argv):
    # measured against a bare interpreter; nor does any load random, which
    # no library code uses
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in INPUTS else a for a in argv]
    ran = modules_after(f"from expansions import cli\nassert cli.main({argv!r}) == 0")
    loaded = ran - modules_after("pass")
    assert "expansions.core" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "random"}


def test_every_exported_name_is_its_module_attribute():
    names = []
    for module, exported in expansions._EXPORTS.items():
        home = importlib.import_module(f"expansions.{module}")
        for name in exported:
            assert getattr(expansions, name) is getattr(home, name), name
            names.append(name)
    assert expansions.__all__ == names
    assert set(names) <= set(dir(expansions))


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from expansions import *", namespace)
    assert set(expansions.__all__) <= set(namespace)
    assert namespace["turan_number"] is expansions.search.turan_number
    with pytest.raises(AttributeError):
        expansions.no_such_name
    assert getattr(expansions, "load_graph", None) is None
