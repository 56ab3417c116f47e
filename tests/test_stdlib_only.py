"""The library runs on the standard library alone: every absolute import
in src/lightspan names a standard-library module, and pyproject.toml
declares no runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "lightspan").glob("*.py"))


def test_sources_are_found():
    assert SRC


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    foreign = sorted(names - set(sys.stdlib_module_names))
    assert not foreign, f"{path.name}: non-stdlib imports {foreign}"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies\s*=\s*\[\s*\]", text, re.MULTILINE), \
        "pyproject.toml must keep dependencies = []"
