"""gaugecert benchmark: seeded closed-loop certificate workloads.

Run from the root of a checkout (gaugecert is imported from ./src):

    python3 benchmarks/run.py --workload family --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    family        check_sfqhs_family on valid torus-knot surgery families
    knotted       run_problem on surgery configurations with one knotted strand
    lattice       CeProblem construction plus enumerate_C_e
    seifert-grid  check_fintushel_stern plus the CLI's JSON serialisation

One client drives one worker process in a closed loop: the next operation
starts when the previous one returns.  Every output is validated here,
after the worker exits, by code in workloads.py that does not call
gaugecert.  Operation timings are scaled to a nominal host speed by a
reference task timed beside them (reference.py); the raw figures are in the
result record.  setup_s is not scaled: no in-process reference followed the
speed of interpreter launches.  With --trace 0 the last line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run.  Spans and a full result record are written under .bench_out/.
The exit status is 0 when a result was printed (check "correct" in it), 2
when the checkout has no gaugecert sources, 1 when the worker failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_LAUNCHES = 20
COLD_START_LAUNCHES = 5
WORKER_TIMEOUT_S = 170
OUT_DIR = ".bench_out"

# traced statistics of one wrapped function, reported as <function>.<stat>
SPAN_STATS = ("calls", "s", "self_s")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _launch_s(args, env) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return perf_counter() - t0


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _machine_info(root: Path) -> dict:
    import mpmath
    import numpy

    src = hashlib.sha256()
    for path in sorted((root / "src" / "gaugecert").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_start": _loadavg(),
    }


def _validate(workload, seed, summaries, errors):
    """Failed operation indices -> reason, from exceptions and independent checks."""
    failed = {int(i): msg for i, msg in errors.items()}
    for i, (inp, summary) in enumerate(zip(workloads.inputs(workload, seed), summaries)):
        if i not in failed:
            reason = workloads.check(workload, inp, summary)
            if reason:
                failed[i] = reason
    return failed


def _timings(lat, ok) -> tuple[float, float, float]:
    """(ops per second of op time, median ms, 90th-percentile ms)."""
    return ok / sum(lat), statistics.median(lat) * 1e3, statistics.quantiles(lat, n=10)[8] * 1e3


def _end_to_end(lat, setup_s, result, attempted, failed) -> dict:
    ok = attempted - len(failed)
    ops_per_s, p50, p90 = _timings(lat, ok)
    return {
        "ops_per_s": _metric(ops_per_s, "1/s"),
        "op_p50_ms": _metric(p50, "ms"),
        "op_p90_ms": _metric(p90, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(result["maxrss_kb"] / 1024, "MB"),
        "ok_rate": _metric(ok / attempted, "ratio"),
    }


def _per_layer(result, cold_start_s, names) -> dict:
    """The per-layer metrics BENCHMARK.json lists, in its order and units."""
    t = result["trace"]
    op_s = t["s"]["op"]
    untraced_rate = len(result["warm_lat"]) / sum(result["warm_lat"])
    traced_rate = len(result["traced_lat"]) / sum(result["traced_lat"])
    a_sum, a_max = t["sizes"].get("exactnum.cot_cot_sin2_sum", (0, 0))
    cache = result["cyclotomic_poly"]
    values = {
        "exactnum.cot_cot_sin2_sum.a_sum": a_sum,
        "exactnum.cot_cot_sin2_sum.a_max": a_max,
        "exactnum.cyclotomic_poly.hits": cache["hits"],
        "exactnum.cyclotomic_poly.lookups": cache["lookups"],
        "knots.lt_signature.raised": t["raised"].get("knots.lt_signature", 0),
        "lattice.enumerate_C_e.classes": t["returned"].get("lattice.enumerate_C_e", 0),
        "cstau.s": t["layer_s"].get("cstau", 0.0),
        "cli.cold_start_s": cold_start_s,
        "cli.build_parser.s": result["build_parser_s"],
        "trace.ops": len(result["traced_lat"]),
        "trace.op_s": op_s,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead": traced_rate / untraced_rate,
        # "op" is the root span: time in no wrapped gaugecert function
        "unattributed.self_share": t["layer_self_s"].get("op", 0.0) / op_s,
    }
    for layer in LAYERS:
        values[f"{layer}.self_share"] = t["layer_self_s"].get(layer, 0.0) / op_s
    metrics = {}
    for name, unit in names.items():
        function, _, stat = name.rpartition(".")
        if name in values:
            metrics[name] = _metric(values[name], unit)
        elif stat in SPAN_STATS and function in t["wrapped"]:
            metrics[name] = _metric(t[stat].get(function, 0), unit)
        else:
            raise KeyError(f"BENCHMARK.json lists {name}, which the traced run does not measure")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gaugecert" / "__init__.py").is_file():
        print(f"error: no gaugecert sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = _machine_info(root)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    if args.trace:
        layer_metrics = {m["name"]: m["unit"]
                         for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]}
        cold_start = statistics.median(
            _launch_s(["-m", "gaugecert.cli", "check-fs", "2,1", "3,1", "11,-9"], env)
            for _ in range(COLD_START_LAUNCHES)
        )
    else:
        setup_s = statistics.median(
            _launch_s(["-m", "gaugecert.cli", "--version"], env) for _ in range(SETUP_LAUNCHES)
        )

    spans_path = out_dir / f"spans-{tag}.jsonl"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), str(spans_path)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("error: worker timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with status {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])

    attempted = len(result["lat"])
    failed = _validate(args.workload, args.seed, result["summaries"], result["errors"])
    if args.trace and not result["repeatable"]:
        failed.setdefault(-1, "repeated or traced outputs differ from the first pass")
    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        attempted=attempted, failed=len(failed), failures=dict(list(failed.items())[:5]),
        digest_sha256=result["digest"], digest_ops=result["digest_ops"],
        loop_wall_s=result["wall_s"], loadavg_end=_loadavg(),
    )
    if args.trace:
        metrics = _per_layer(result, cold_start, layer_metrics)
        cache = result["cyclotomic_poly"]
        info["cyclotomic_poly_hit_ratio"] = cache["hits"] / cache["lookups"] if cache["lookups"] else None
        info["spans"] = str(spans_path.relative_to(root))
        shares = {k: v["value"] for k, v in metrics.items() if k.endswith("self_share")}
        top = sorted(((result["trace"]["s"][n] / metrics["trace.op_s"]["value"], n)
                      for n in result["trace"]["s"] if n != "op"), reverse=True)[:5]
        info["inclusive_share_top5"] = {n: round(s, 4) for s, n in top}
        info["largest_self_share"] = max(shares.items(), key=lambda kv: kv[1])
    else:
        lat = reference.scale(result["lat"], result["refs"])
        metrics = _end_to_end(lat, setup_s, result, attempted, failed)
        info["latency_samples"] = attempted
        info["setup_launches"] = SETUP_LAUNCHES
        ref_s = [r for _, r in result["refs"]]
        info["reference"] = {"nominal_s": reference.NOMINAL_S, "runs": len(ref_s),
                             "median_s": statistics.median(ref_s), "min_s": min(ref_s), "max_s": max(ref_s)}
        info["raw"] = dict(zip(("ops_per_s", "op_p50_ms", "op_p90_ms"),
                               _timings(result["lat"], attempted - len(failed))))

    final = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    (out_dir / f"result-{tag}.json").write_text(json.dumps({"info": info, **final}, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        beyond = sum(x > metrics["op_p90_ms"]["value"] / 1e3 for x in lat)
        print(f"latency samples: {attempted}, of which {beyond} lie beyond the 90th percentile")
    print(f"digest sha256 of the first {result['digest_ops']} outputs: {result['digest']}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
