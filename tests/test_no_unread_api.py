"""Every public name of src/gaugecert is read by the library itself.  The
repository has no linter, so this test walks each module's syntax tree.
A name in a module's __all__, and a public method of a class listed
there, counts as read when some code in src/gaugecert other than its own
definition loads it, as a name or as an attribute.  Types are not
inferred, so a method is matched by its name alone: a call of
`SeifertData.reversed` would also have counted for `LensSpace.reversed`.
The package's __init__.py is left out: it only re-exports.

The allowlist holds the names that the benchmark still measures: the
per-layer list of BENCHMARK.json and the methods that benchmarks/tracer.py
wraps (`CycloElement`, whose other public methods stay with it).  They
leave src/ for tests/oracles.py once the benchmark definition drops them
(ROADMAP items 1a and 4; item 13 is the sweep that removed the rest)."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gaugecert"

ALLOWED = {
    "lattice.detect_orthogonal_split",
    "knots.alexander_from_seifert",
    "knots.nondegenerate_at",
    "exactnum.CycloElement",
    "exactnum.CycloElement.zero",
    "exactnum.CycloElement.zeta",
    "exactnum.CycloElement.inverse",
    "exactnum.CycloElement.conjugate",
}


def _unread(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    public = []  # (label, name, defining node or None)
    for module, tree in trees.items():
        top = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        exported = [
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts
        ]
        for name in exported:
            node = top.get(name)
            public.append((f"{module}.{name}", name, node))
            if isinstance(node, ast.ClassDef):
                public += [
                    (f"{module}.{name}.{f.name}", f.name, f)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                ]

    loads: dict[str, list[tuple]] = {}  # name -> the definitions enclosing each load of it

    def walk(node, enclosing: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = (*enclosing, node)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            loads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    for tree in trees.values():
        walk(tree, ())
    return [label for label, name, node in public if all(node in enclosing for enclosing in loads.get(name, ()))]


def test_checker_finds_unread_names():
    sources = {
        "a": (
            "__all__ = ['used', 'unused', 'recursive', 'K']\n"
            "def used(): return 1\n"
            "def unused(): return used()\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "class K:\n"
            "    def read(self): return self.own()\n"
            "    def own(self): return 2\n"
            "    def alone(self): return K\n"
            "    def _private(self): return 3\n"
        ),
        "b": "from .a import K\nK().read()\n",
    }
    assert _unread(sources) == ["a.unused", "a.recursive", "a.K.alone"]


def test_library_reads_every_public_name():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
    assert sorted(_unread(sources)) == sorted(ALLOWED)


def test_allowlist_is_what_the_benchmark_measures():
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    tracer = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text(encoding="utf-8"))
    methods = next(
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "METHODS"
    )
    measured = {".".join(name.split(".")[:2]) for name in per_layer} | {f"{layer}.{cls}" for layer, cls, _, _ in methods}
    for label in ALLOWED:
        assert ".".join(label.split(".")[:2]) in measured, label
