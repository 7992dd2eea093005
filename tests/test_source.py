"""Checks on the library source itself."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "binrisk").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one
    # would vanish; the library raises typed errors instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
