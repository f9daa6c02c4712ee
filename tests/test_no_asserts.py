"""The library keeps no assert statements: python -O strips them, so every
internal check in src/gaugecert raises InternalCheckError (or BadParameters
for a caller's precondition) instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gaugecert"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py"))
    assert found == []
