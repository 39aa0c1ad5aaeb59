"""The runtime stays on the standard library: every absolute import in the
package names a standard-library module."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "germforge"
SOURCES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_sources_are_found():
    assert "linalg.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_standard_library(path):
    outside = sorted({name for name in absolute_imports(path)
                      if name.split(".")[0] not in sys.stdlib_module_names})
    assert outside == []
