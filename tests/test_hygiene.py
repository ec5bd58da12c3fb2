"""Source hygiene: no module of the package imports a name it never
uses, and no private helper is left that the package never reads.

The package `__init__` is exempt from the import check: its imports are
the public API it re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treelike"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import os\nfrom typing import List, Dict\nx: List = os.sep\n"
    assert unused_imports(source) == [(2, "Dict")]


def unread_private_helpers(sources: dict) -> list:
    """(module, line, name) of the private module-level functions and
    private methods defined in `sources` ({module: source}) that no
    source reads, by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defined.extend(
                (module, f.lineno, f.name) for f in body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and f.name.startswith("_") and not f.name.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(d for d in defined if d[2] not in read)


def test_package_reads_every_private_helper():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_helpers(sources) == []


def test_unread_private_helper_is_reported():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _dead():\n    pass\n",
        "b.py": ("from a import _used\n\n\nclass K:\n"
                 "    def __init__(self):\n        self._go()\n\n"
                 "    def _go(self):\n        _used()\n\n"
                 "    def _stale(self):\n        pass\n"),
    }
    assert unread_private_helpers(sources) == [("a.py", 5, "_dead"),
                                               ("b.py", 11, "_stale")]
