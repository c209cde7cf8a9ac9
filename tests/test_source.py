"""Checks on the library source itself."""

import ast
from pathlib import Path

import bracelab


def test_library_has_no_assert_statements():
    # python -O strips assert statements; invariants must be raised errors
    src = Path(bracelab.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_names_no_frozenset():
    # subsets of a carrier are Subset bit masks, in groups and braces alike
    src = Path(bracelab.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "frozenset"
    ]
    assert found == []
