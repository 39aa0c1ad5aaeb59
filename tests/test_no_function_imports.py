"""Every module of the package imports at its top: no function body holds
an import, so the import graph is the one the module headers show. jetmorse
does not import oracle (oracle builds on jetmorse), and cli imports no
private name of another module."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "germforge"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(name):
    path = PACKAGE / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_package_sources_are_found():
    assert {"cli.py", "jetmorse.py", "oracle.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    tree = _tree(path.name)
    lines = [node.lineno for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert lines == []


def test_jetmorse_does_not_import_oracle():
    modules = {node.module for node in ast.walk(_tree("jetmorse.py"))
               if isinstance(node, ast.ImportFrom)}
    assert "oracle" not in modules


def test_cli_imports_no_private_names():
    names = [alias.name for node in ast.walk(_tree("cli.py"))
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names]
    assert names and not [n for n in names if n.startswith("_")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py imports to re-export; elsewhere an imported name that the
    # module never reads is left over from code that is gone
    tree = _tree(path.name)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []
