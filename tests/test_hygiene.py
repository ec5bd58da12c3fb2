"""Source hygiene: no module of the package imports a name it never
uses, no private helper is left that the package never reads, and the
edge-key layout of Cayley graphs is computed in `groups` only.

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


def _is_one(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1


def _is_op(node, op) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, op)


def _holds_pair(node, second) -> bool:
    """Whether node is or holds a 2-tuple whose second item passes
    second, as the edge (u, x) does."""
    return any(isinstance(t, ast.Tuple) and len(t.elts) == 2
               and second(t.elts[1]) for t in ast.walk(node))


def _edge_rule(node) -> str:
    """The edge rule that node computes inline, or "": "key" for
    g * k + a - 1, "edge" for key % k + 1, "crossed" for the positive
    edge that a signed letter crosses, (u, x) if x > 0 else (v, -x)."""
    if (_is_op(node, ast.Sub) and _is_one(node.right)
            and _is_op(node.left, ast.Add) and _is_op(node.left.left, ast.Mult)):
        return "key"
    if _is_op(node, ast.Add) and _is_one(node.right) and _is_op(node.left, ast.Mod):
        return "edge"
    if (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and isinstance(node.test.ops[0], ast.Gt)):
        x = node.test.left.id
        if (_holds_pair(node.body, lambda e: isinstance(e, ast.Name)
                        and e.id == x)
                and _holds_pair(node.orelse, lambda e: isinstance(
                    e, ast.UnaryOp) and isinstance(e.op, ast.USub)
                    and isinstance(e.operand, ast.Name) and e.operand.id == x)):
            return "crossed"
    return ""


def inline_edge_rules(source: str) -> list:
    """(enclosing function's qualified name, line, rule) of each edge
    rule (`_edge_rule`) that source computes."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            rule = _edge_rule(child)
            if rule:
                found.append((".".join(scope), child.lineno, rule))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


# where each edge rule may be computed: the layout and its inverse in
# groups, next to the crossed-edge table; the two walks that also run
# over unenumerated extension levels, whose edges have no keys
EDGE_RULE_HOMES = [
    ("cayley.py", "walk", "crossed"),
    ("extension.py", "ExtContext.step", "crossed"),
    ("groups.py", "_edge_key", "key"),
    ("groups.py", "_edge_of", "edge"),
]


def test_edge_rules_are_computed_in_their_homes_only():
    found = [(p.name, scope, rule) for p in sorted(PACKAGE.glob("*.py"))
             for scope, _, rule in inline_edge_rules(p.read_text())]
    assert found == EDGE_RULE_HOMES


def test_inline_edge_rule_is_reported():
    source = ("def key(g, a, k):\n    return g * k + a - 1\n\n\n"
              "class C:\n    def cross(self, u, v, x):\n"
              "        return (u, x) if x > 0 else (v, -x)\n\n"
              "    def edge(self, i, k):\n        return i // k, i % k + 1\n\n"
              "    def label(self, u, v, x):\n"
              "        return (u, x, v) if x > 0 else (v, -x, u)\n")
    assert inline_edge_rules(source) == [("key", 2, "key"),
                                         ("C.cross", 7, "crossed"),
                                         ("C.edge", 10, "edge")]
