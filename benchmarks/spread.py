"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) against the bounds in
BENCHMARK.json; then one traced run per workload on the first seed.

    python3 benchmarks/spread.py --workloads family knotted --seeds 1-10 --out .bench_out/spread.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RECORDED = ("digest_sha256", "digest_ops", "commit", "python", "numpy", "mpmath", "nproc",
            "loadavg_start", "loadavg_end", "raw", "reference")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _status(spread: float, bound: float) -> str:
    """"steady" below a third of the bound; "unresolved" when runs of one
    commit already differ by more than the bound, so a regression that size
    could not be told from noise."""
    if spread < bound / 3:
        return "steady"
    return "within bound" if spread <= bound else "unresolved"


def _run(spec, workload, seed, trace):
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    return json.loads(lines[-1]), info


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", help="write the per-run values and the summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, info = _run(spec, workload, seed, 0)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         **{k: info[k] for k in RECORDED},
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, runs[-1], file=sys.stderr, flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "spread": spread, "bound": bound, "status": _status(spread, bound)}
            print(f"{workload:13s} {name:12s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bound:5.3f}  {summary[name]['status']}")
        traced, info = _run(spec, workload, args.seeds[0], 1)
        report[workload] = {
            "runs": runs,
            "summary": summary,
            "traced": {"seed": args.seeds[0], "correct": traced["correct"],
                       "inclusive_share_top5": info["inclusive_share_top5"],
                       **{k: v["value"] for k, v in traced["metrics"].items()}},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
