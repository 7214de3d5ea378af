"""Every module of the package uses every name it imports.

__init__.py is left out: the names it imports are the package's public
names, used by its importers.  A deletion that leaves an import behind
fails here.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "truncbin"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module source binds by import and never reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_finds_a_dead_import():
    source = "from __future__ import annotations\nimport os.path\nimport sys\nfrom math import gcd as g\n"
    assert unused_imports(source + "sys.exit(g(2, 4))\n") == ["os"]
    assert unused_imports(source + "os.path.join(sys.argv[0], str(g))\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []
