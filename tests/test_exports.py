"""Every name the package or one of its modules exports has a caller inside the library."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oddzeta


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


def library_loads() -> set:
    loads = _Loads()
    for path in sorted(Path(oddzeta.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            loads.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return loads.names


def test_every_export_has_a_library_caller():
    exported = set(oddzeta.__all__) - {"__version__"}
    assert sorted(exported - library_loads()) == []


@pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(oddzeta.__path__)])
def test_every_module_export_has_a_library_caller(name):
    exported = set(getattr(importlib.import_module(f"oddzeta.{name}"), "__all__", ()))
    assert sorted(exported - library_loads()) == []
