"""No correctness check in the library relies on `assert`: `python -O`
strips assert statements, so a check written as one would vanish."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "lightspan").glob("*.py"))


def test_sources_are_found():
    assert SRC


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"
