"""The library reads no integer through operator.index: it takes True as 1,
so every integer input goes through gaugecert.exactnum.exact_int, the one
rule for what counts as an integer."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gaugecert"


def _uses(tree):
    # operator.index as an attribute, or index imported from operator
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "index" and getattr(node.value, "id", None) == "operator":
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            yield from (node.lineno for alias in node.names if alias.name in ("index", "*"))


def test_library_reads_no_integer_through_operator_index():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _uses(tree)]
    assert list(SRC.glob("*.py"))
    assert found == []
