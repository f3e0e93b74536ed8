"""Every ``ttcomplete`` attribute the benchmark scripts read exists.

The scripts bind the package and its modules to names (``import ttcomplete
as ttc``, ``import ttcomplete.engine as engine``); each chain of attribute
reads on such a name, such as ``ttc.cli.main``, must resolve. A rename in the
package then fails here instead of in a benchmark run.
"""

import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def package_names(tree: ast.Module) -> dict:
    """Local name -> imported ``ttcomplete`` module, for every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ttcomplete":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        names[alias.asname] = module
                    else:  # a plain ``import ttcomplete.x`` binds the package
                        names["ttcomplete"] = importlib.import_module("ttcomplete")
    return names


def attribute_chains(tree: ast.Module, names: dict):
    """(line, root name, attribute path) for each outermost attribute chain on a name in ``names``."""
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in names:
            yield node.lineno, node.id, path[::-1]


def test_scripts_found():
    assert any(p.name == "run.py" for p in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_package_attributes_exist(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = package_names(tree)
    for line, root, chain in attribute_chains(tree, names):
        obj = names[root]
        for depth, attr in enumerate(chain):
            dotted = ".".join([root, *chain[: depth + 1]])
            assert hasattr(obj, attr), f"{path.name}:{line}: {dotted} does not exist"
            obj = getattr(obj, attr)
