"""No module of the package imports another module's private name.

A name with a leading underscore is its module's own business; a module
that needs it from a sibling should get a public entry point instead.  A
public name from a private module (``engine``'s ``_floatfmt.shortest``) is
fine.
"""

import ast
from pathlib import Path

import pytest

import platoonsec

SOURCES = sorted(Path(platoonsec.__file__).parent.glob("*.py"))


def private_imports(tree: ast.AST) -> list[str]:
    """``module.name`` of each underscore-prefixed name a ``from`` import in
    ``tree`` takes from a sibling module."""
    return [f"{node.module}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and (node.level or node.module.startswith("platoonsec."))
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.name)
def test_no_module_imports_a_private_name(source):
    assert private_imports(ast.parse(source.read_text())) == []


def test_the_check_sees_a_private_import():
    tree = ast.parse("from .engine import ScenarioConfig, _steps_per_period\n"
                     "from ._floatfmt import shortest\n")
    assert private_imports(tree) == ["engine._steps_per_period"]
