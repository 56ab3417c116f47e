"""No correctness check in the library or a demo relies on `assert`:
`python -O` strips assert statements, so a check written as one would
vanish, and a demo's failed self-check must still exit nonzero."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "lightspan").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_sources_are_found():
    assert SRC and DEMOS


def assert_free(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert_free(path)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_no_assert_statements_in_demos(path):
    assert_free(path)
