"""Every module of the package reads each name it imports.  ``__init__.py``
is exempt: its imports are the exports.  A name listed in a module's
``__all__`` counts as read.  Stdlib ``ast`` only, so no linter is needed."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zetalab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names that the imports of source bind and nothing in it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_the_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .exact import RatPoly, poly_reflect\n"
              "from .reduction import RationalFunctionOfS\n"
              "__all__ = ['RationalFunctionOfS', 'f']\n"
              "def f(x: RatPoly):\n"
              "    return np.asarray(x)\n")
    assert unread_imports(source) == ["poly_reflect"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unread_imports((PACKAGE / module).read_text()) == []
