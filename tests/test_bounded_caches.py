"""Every memo in the library is bounded: each functools.lru_cache in
src/gaugecert has an integer maxsize, or its keys are bounded by an input
limit named below, so that a long-running process cannot grow a table
without end."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gaugecert"

#: Memos without a maxsize, and the limit (module.constant) that bounds
#: their keys.  On library paths the cyclotomic polynomials and their power
#: tables are built for a knotted strand's order a only, which knots refuses
#: above MAX_KNOT_ORDER; _real_cyclotomic takes that order too, and
#: _descartes_basis takes the genus, half a Seifert matrix's size, which is
#: at most MAX_SEIFERT_SIZE.
UNBOUNDED_ALLOWED = {
    "cyclotomic_poly": "knots.MAX_KNOT_ORDER",
    "_zeta_power_table": "knots.MAX_KNOT_ORDER",
    "_real_cyclotomic": "knots.MAX_KNOT_ORDER",
    "_descartes_basis": "knots.MAX_SEIFERT_SIZE",
}

MEMO_DECORATORS = ("lru_cache", "cache")


def _memo_name(node):
    name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
    return name if name in MEMO_DECORATORS else None


def _maxsize(deco):
    # the integer maxsize of a memo decorator, else None (functools.cache,
    # a bare lru_cache, or a maxsize that is not an integer literal)
    if not isinstance(deco, ast.Call) or _memo_name(deco.func) != "lru_cache":
        return None
    args = [kw.value for kw in deco.keywords if kw.arg == "maxsize"] + deco.args[:1]
    if args and isinstance(args[0], ast.Constant) and type(args[0].value) is int:
        return args[0].value
    return None


def _memos():
    """(file, function, maxsize) for every memo decorator in the package;
    a use of lru_cache other than as a decorator is reported as one with
    function None, since it bounds no named function."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        uses = sum(_memo_name(node) is not None for node in ast.walk(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    if _memo_name(deco.func if isinstance(deco, ast.Call) else deco):
                        uses -= 1
                        yield path.name, node.name, _maxsize(deco)
        for _ in range(uses):
            yield path.name, None, None


def test_every_memo_is_bounded():
    memos = list(_memos())
    assert ("exactnum.py", "_cot_cot_sin2_sum", 1024) in memos
    unbounded = [(path, name) for path, name, maxsize in memos if maxsize is None and name not in UNBOUNDED_ALLOWED]
    assert unbounded == []
    assert all(maxsize >= 1 for _, _, maxsize in memos if maxsize is not None)


def test_allowlist_names_unbounded_memos_and_real_limits():
    assert {name for _, name, maxsize in _memos() if maxsize is None} == set(UNBOUNDED_ALLOWED)
    for limit in UNBOUNDED_ALLOWED.values():
        module, constant = limit.split(".")
        assert type(getattr(importlib.import_module(f"gaugecert.{module}"), constant)) is int
