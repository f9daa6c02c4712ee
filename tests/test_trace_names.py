"""The per-layer names BENCHMARK.json lists stay measurable.

`benchmarks/run.py --trace 1` reads each `<module>.<function>.<stat>` span
statistic from the functions that `benchmarks/tracer.py` wraps: the public
module-level functions of each gaugecert module and the traced
CycloElement methods.  It raises KeyError on a name it cannot measure, so
deleting or renaming such a function must fail here first."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_STATS = ("calls", "s", "self_s")

_WRAPPED = """
import json, sys
sys.path.insert(0, "benchmarks")
from tracer import Tracer
tracer = Tracer()
tracer.patch_package()
print(json.dumps(sorted(tracer.wrapped)))
"""


def test_benchmark_span_names_are_traced():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    functions = set()
    for name in names:
        function, _, stat = name.rpartition(".")
        if stat in SPAN_STATS and "." in function:
            functions.add(function)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, "-c", _WRAPPED], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    wrapped = set(json.loads(r.stdout))
    # spans the worker opens around its own code, not around gaugecert's
    worker = (ROOT / "benchmarks" / "worker.py").read_text(encoding="utf-8")
    wrapped |= set(re.findall(r'\.wrap\("([\w.]+)"', worker))
    assert {"matutil.det_int", "matutil.bareiss_leading_minors", "exactnum.CycloElement.inverse"} <= functions
    assert sorted(functions - wrapped) == []
