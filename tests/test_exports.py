"""Library-wide AST checks.

Every name the package or one of its modules exports has a caller inside the
library, and every error type the package defines is raised there.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oddzeta
from oddzeta import errors

SOURCES = sorted(Path(oddzeta.__file__).parent.glob("*.py"))


class _Loads(ast.NodeVisitor):
    """Names read as a ``Name`` or an ``Attribute``, outside a def or class of that name."""

    def __init__(self):
        self.owners: list[str] = []
        self.names: set[str] = set()

    def _definition(self, node):
        self.owners.append(node.name)
        self.generic_visit(node)
        self.owners.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name, ctx):
        if isinstance(ctx, ast.Load) and name not in self.owners:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id, node.ctx)

    def visit_Attribute(self, node):
        self._read(node.attr, node.ctx)
        self.generic_visit(node)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def library_loads() -> set:
    loads = _Loads()
    for path in SOURCES:
        if path.name != "__init__.py":
            loads.visit(parse(path))
    return loads.names


def test_every_export_has_a_library_caller():
    exported = set(oddzeta.__all__) - {"__version__"}
    assert sorted(exported - library_loads()) == []


@pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(oddzeta.__path__)])
def test_every_module_export_has_a_library_caller(name):
    exported = set(getattr(importlib.import_module(f"oddzeta.{name}"), "__all__", ()))
    assert sorted(exported - library_loads()) == []


def test_error_inventory():
    """errors.py defines exactly these five types, and the library raises every subclass."""
    tree = parse(Path(errors.__file__))
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert defined == {
        "OddzetaError",
        "DomainError",
        "NonFiniteSample",
        "NoConvergence",
        "IdentityViolation",
    }
    raised = {
        node.exc.func.id
        for path in SOURCES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
    }
    assert sorted(defined - {"OddzetaError"} - raised) == []
