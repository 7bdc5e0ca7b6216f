"""Modules of the package share only public names with each other."""

import ast
from pathlib import Path

import tsvflab

PACKAGE = Path(tsvflab.__file__).parent


def _private_uses(path: Path):
    """`from .x import _name` and `x._name` where x is a sibling module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("tsvflab"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"
            if node.module is None:  # from . import <module>
                siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
        ):
            yield f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}"


def test_no_cross_module_private_names():
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in _private_uses(path)]
    assert found == []
