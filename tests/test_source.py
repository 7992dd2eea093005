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


def test_kernel_is_called_only_by_the_beta_measure():
    # log_beta_measure is the one home of the incomplete-beta kernel (the
    # kernel's upper-tail branch recurses into itself), so a change to how
    # measures are computed is made once, for every caller
    kernel = "log_inc_beta_lower"
    callers = set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(stmt, "name", f"line {stmt.lineno}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and kernel in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    callers.add((path.name, owner))
    assert callers == {("incbeta.py", kernel), ("incbeta.py", "log_beta_measure")}
