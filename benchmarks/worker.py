"""Closed-loop worker: one client driving gaugecert's public API, one operation at a time.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 benchmarks/worker.py WORKLOAD SEED SECONDS TRACE SPANS_PATH

Prints one JSON line.  With TRACE = 0 it times operations for SECONDS (and at
least MIN_OPS operations).  After every REF_EVERY_S of operation time it also
times the host-speed reference task (reference.py), outside the operations.  With TRACE = 1 it runs a fixed number of
operations three times (cold, warm, traced), so that call counts repeat
exactly for a seed; the spans go to SPANS_PATH.  Inputs are generated and
outputs summarized and hashed between operations, outside the timed calls.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import reference
import workloads

MIN_OPS = 100  # so that at least 10 samples lie beyond the 90th percentile
DIGEST_OPS = 100
HARD_LIMIT_S = 140.0
TRACE_OPS = {"family": 60, "knotted": 80, "lattice": 200, "seifert-grid": 2000}
BUILD_PARSER_REPEATS = 25
REF_EVERY_S = 0.04

root = Path.cwd()
sys.path[:0] = [str(root / "src")]
import gaugecert  # noqa: E402

if Path(gaugecert.__file__).resolve().parent != (root / "src" / "gaugecert").resolve():
    sys.exit(f"gaugecert imported from {gaugecert.__file__}, not from {root / 'src'}")

from gaugecert import cli, exactnum, lattice, obstruct, seifert  # noqa: E402
from gaugecert.obstruct import report_to_json_dict as _report_json  # noqa: E402  (never traced)


def serialize(report) -> str:
    """The report exactly as the CLI emits it."""
    return json.dumps(obstruct.report_to_json_dict(report), sort_keys=True, indent=2)


# Operations look gaugecert names up at call time, so the traced run sees the wrappers.

def op_family(inp):
    return obstruct.check_sfqhs_family(inp["p"], inp["q"], inp["d"], inp["n_list"])


def op_knotted(inp):
    return obstruct.run_problem(inp)


def op_lattice(inp):
    form = lattice.GramForm(inp["rank"], tuple(tuple(row) for row in inp["gram"]))
    restrictions = tuple(lattice.Restriction(r["modulus"], tuple(r["row"])) for r in inp["restrictions"])
    return lattice.enumerate_C_e(lattice.CeProblem(form, tuple(inp["e"]), restrictions))


def op_seifert_grid(inp):
    report = obstruct.check_fintushel_stern(seifert.SeifertData(tuple(tuple(p) for p in inp["pairs"])))
    return report, serialize(report)


OPS = {"family": op_family, "knotted": op_knotted, "lattice": op_lattice, "seifert-grid": op_seifert_grid}


def summarize(workload: str, out):
    """(what the validator needs, the canonical text that goes into the digest)."""
    if workload == "lattice":
        classes = [list(c) for c in out]
        return classes, json.dumps(classes)
    if workload == "seifert-grid":
        report, text = out
        return [report.conclusion, report.line("Ind+").value], text
    text = json.dumps(_report_json(out), sort_keys=True)
    if workload == "family":
        return [out.conclusion, out.line("Ind+ = 1").value, out.line("p_1").value], text
    return [out.conclusion, out.line("Ind+").value], text


def run_ops(workload, inputs, run_one, stop):
    """Closed loop over ``inputs`` until ``stop(done, elapsed)``; returns latencies,
    reference times, summaries, errors and the digest of the first DIGEST_OPS outputs."""
    op = OPS[workload]
    lat, refs, summaries, errors = [], [], [], {}
    since_ref = REF_EVERY_S
    digest = hashlib.sha256()
    start = perf_counter()
    for i, inp in enumerate(inputs):
        if stop(i, perf_counter() - start):
            break
        t0 = perf_counter()
        try:
            out = run_one(i, op, inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        lat.append(perf_counter() - t0)
        since_ref += lat[-1]
        if since_ref >= REF_EVERY_S:
            refs.append((len(lat), reference.reference_s()))
            since_ref = 0.0
        summary = None
        if out is not None:
            try:
                summary, text = summarize(workload, out)
            except (KeyError, AttributeError) as exc:
                text = err = f"unreadable output: {exc!r}"
        if summary is None:
            errors[i] = err
            text = err
        summaries.append(summary)
        if i < DIGEST_OPS:
            digest.update(text.encode() + b"\n")
    return {
        "lat": lat,
        "refs": refs,
        "summaries": summaries,
        "errors": errors,
        "digest": digest.hexdigest(),
        "digest_ops": min(len(lat), DIGEST_OPS),
        "wall_s": perf_counter() - start,
    }


def untraced(i, op, inp):
    return op(inp)


def main() -> None:
    workload, seed, seconds, trace, spans_path = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    gen = workloads.inputs(workload, seed)
    if not trace:
        result = run_ops(
            workload, gen, untraced,
            lambda done, elapsed: (elapsed >= seconds and done >= MIN_OPS) or elapsed >= HARD_LIMIT_S,
        )
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result))
        return

    from tracer import Tracer

    count = TRACE_OPS[workload]
    inputs = list(itertools.islice(gen, count))
    everything = lambda done, elapsed: False  # noqa: E731
    # pass 1 (cold) is validated and counts cache use; pass 2 (warm) is the
    # untraced baseline for the tracing overhead; pass 3 is traced
    cache0 = exactnum.cyclotomic_poly.cache_info()
    result = run_ops(workload, inputs, untraced, everything)
    cache1 = exactnum.cyclotomic_poly.cache_info()
    warm = run_ops(workload, inputs, untraced, everything)

    tracer = Tracer()
    tracer.patch_package()
    globals()["serialize"] = tracer.wrap("obstruct.serialize", serialize)
    traced = run_ops(workload, inputs, lambda i, op, inp: tracer.run_op(i, op, inp), everything)
    tracer.write(spans_path)

    parser_s = []
    for _ in range(BUILD_PARSER_REPEATS):
        t0 = perf_counter()
        cli.build_parser()
        parser_s.append(perf_counter() - t0)

    hits = cache1.hits - cache0.hits
    lookups = hits + cache1.misses - cache0.misses
    result.update(
        warm_lat=warm["lat"],
        traced_lat=traced["lat"],
        repeatable=warm["summaries"] == traced["summaries"] == result["summaries"],
        trace=tracer.summary(),
        cyclotomic_poly={"hits": hits, "lookups": lookups},
        build_parser_s=statistics.median(parser_s),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
