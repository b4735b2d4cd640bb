"""Tests and demos reach infillbench through its public names only.

A leading underscore marks a module-private name (dunders excepted). This
scan flags ``from infillbench... import _name``, imports of private modules,
and ``module._name`` where ``module`` was bound by an infillbench import.
"""

import ast
import importlib
from pathlib import Path

import pytest

import infillbench

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def root_name(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def private_uses(source):
    """(line, description) for each private infillbench name the source uses."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "infillbench":
            imported = [alias.name for alias in node.names]
            for name in node.module.split(".") + imported:
                if is_private(name):
                    found.append((node.lineno, f"from {node.module} import {name}"))
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "infillbench":
                    continue
                found += [(node.lineno, f"import {alias.name}") for p in parts if is_private(p)]
                bound.add(alias.asname or parts[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr) and root_name(node) in bound:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_scanner_flags_private_names():
    source = (
        "import infillbench.smbo as smbo_module\n"
        "from infillbench import kriging\n"
        "from infillbench.kriging import fit, _mle_bounds\n"
        "smbo_module._STREAM_FIT\n"
        "kriging._decode(v, 2).real\n"
        "fit.__doc__\n"
        "other._private\n"
    )
    assert [line for line, _ in private_uses(source)] == [3, 4, 5]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_uses_public_api_only(path):
    assert private_uses(path.read_text()) == []


# The package namespace: each name in __all__ resolves, on first use, to the
# object its module defines.


@pytest.mark.parametrize("name", infillbench.__all__)
def test_public_name_is_its_modules_object(name):
    value = getattr(infillbench, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("infillbench.")
    assert getattr(module, name) is value


def test_public_names_are_listed_and_star_imported():
    assert set(infillbench.__all__) <= set(dir(infillbench))
    namespace = {}
    exec("from infillbench import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(infillbench.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        infillbench.no_such_name  # noqa: B018
