"""Postchecks survive `python -O`: the package raises AssertionError
explicitly instead of using `assert` statements, which -O strips."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "germforge"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_package_sources_are_found():
    assert "oracle.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []
