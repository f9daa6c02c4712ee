"""No module in src/gaugecert imports a name it never uses.  The repository
has no linter, so this test walks each module's syntax tree instead.  An
imported name counts as used when the module reads it, when the module's
__all__ lists it (a re-export), or when an annotation written as a string
names it.  The package's __init__.py is left out: every name it imports is
re-exported as the public API."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gaugecert"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
        # a quoted annotation, or a quoted part of one, is parsed for its names
        annotations = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for quoted in (c for a in annotations if a for c in ast.walk(a) if isinstance(c, ast.Constant)):
            if isinstance(quoted.value, str):
                used.update(n.id for n in ast.walk(ast.parse(quoted.value, mode="eval")) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from fractions import Fraction\n"
        "from math import gcd, lcm\n"
        "from typing import Optional\n"
        "__all__ = ['lcm']\n"
        "def f(x: 'Optional[Fraction]') -> int:\n"
        "    return gcd(json.decoder.x, 1)\n"
    )
    assert _unused_imports(source) == ["os (line 2)", "osp (line 2)"]


def test_library_imports_only_names_it_uses():
    found = []
    for path in sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}):
        found += [f"{path.name}: {name}" for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert list(SRC.glob("*.py"))
    assert found == []
