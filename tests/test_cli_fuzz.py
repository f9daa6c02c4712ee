"""Fuzzing the command line: every verb, given malformed argv, must exit with
status 0, 2 or 3 and never show a traceback.

The argv mixes wrong arity, non-integers, malformed ``a,b`` pairs, JSON
garbage and booleans for ``--seifert-matrix`` and for problem files, and
values just above the size caps (``MAX_CHAIN_LENGTH`` for ``plumbing``,
``MAX_KNOT_ORDER`` for knotted strands, ``MAX_NZ_GRID`` for ``selftest
--nz-max``, which must exit with status 2).  ``--output`` may name a
directory or a file whose parent is missing; then nothing is printed and
the status is 2 or 3.  Other integers stay small: this test checks
malformed input, not size.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugecert import cli

SMALL = st.integers(-12, 12).map(str)
NON_INTEGERS = st.sampled_from(("x", "1.5", "", "1e3", "0x10", " 3", "--", "-", "true", "NaN"))
ABOVE_CAPS = st.sampled_from(("1001", "1002", "1009", "1000000000000"))
ABOVE_GRID = st.sampled_from((str(cli.MAX_NZ_GRID + 1), "1001", "1000000000000"))
integers = SMALL | NON_INTEGERS | ABOVE_CAPS
pairs = (
    st.tuples(SMALL, SMALL).map(",".join)
    | st.sampled_from(("1,", ",2", "1,2,3", "a,b", "1;2", ",", "2,1,", "1.5,2"))
    | st.tuples(ABOVE_CAPS, SMALL).map(",".join)
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats(-4, 4) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=16,
)
matrices = (
    json_values.map(json.dumps)
    | st.sampled_from(("[[-1,1],[0,-1]]", "[[1,1],[0,-1]]", "[[true,1],[0,-1]]", "[[-1,1],[0,false]]", "[[", "[]", ""))
)
knots = st.sampled_from(("unknot", "trefoil", "figure8", "", "knot", "1"))
files = (
    json_values
    | st.fixed_dictionaries(
        {"kind": st.sampled_from(("seifert", "surgery-config", "sfqhs-family", ""))},
        optional={k: json_values for k in ("pairs", "strands", "form", "e", "p", "q", "d", "n_list")},
    )
).map(json.dumps) | st.sampled_from(("", "{", "not json"))

FILE = "FILE"  # replaced by the path of a drawn problem file
BAD_OUTPUTS = {"DIR": lambda tmp: tmp, "MISSING": lambda tmp: tmp / "missing" / "report.json"}


def _verb(positional, *options):
    # positional arguments, then up to two options, each a tuple of tokens
    chosen = st.lists(st.one_of(options), max_size=2) if options else st.just([])
    return st.tuples(positional, chosen).map(lambda t: (*t[0], *(tok for opt in t[1] for tok in opt)))


def _arity(strategy, lo, hi):
    # the correct arity lies inside [lo, hi], so too few and too many both occur
    return st.lists(strategy, min_size=lo, max_size=hi)


VERBS = {
    "rho-lens": _verb(_arity(integers, 2, 4)),
    "nz-check": _verb(_arity(integers, 1, 3)),
    "r-invariant": _verb(_arity(pairs, 0, 4)),
    "ind-plus": _verb(_arity(pairs, 0, 4)),
    "tau-bound": _verb(
        st.just(()),
        st.tuples(st.just("--lens"), integers, integers),
        st.tuples(st.just("--lens"), integers),
        st.tuples(st.just("--seifert"), pairs, pairs, pairs),
        st.tuples(st.just("--denominator"), integers),
    ),
    "plumbing": _verb(_arity(integers, 1, 3) | ABOVE_CAPS.map(lambda a: (a, str(int(a) - 1)))),
    "c-e": _verb(_arity(st.just(FILE), 0, 2)),
    "check-fs": _verb(_arity(pairs, 0, 4), st.tuples(st.just("--problem"), st.just(FILE))),
    "check-family": _verb(
        st.tuples(_arity(integers, 2, 4), st.lists(SMALL | NON_INTEGERS, max_size=3).map(",".join))
        .map(lambda t: (*t[0], t[1]))
    ),
    "rho-transfer": _verb(
        _arity(integers, 1, 3),
        st.tuples(st.just("--knot"), knots),
        st.tuples(st.just("--seifert-matrix"), matrices),
    ),
    "selftest": _verb(
        st.just(()), st.tuples(st.just("--nz-max"), st.integers(-3, 8).map(str) | NON_INTEGERS | ABOVE_GRID)
    ),
}


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(sorted(VERBS)))
    args = draw(VERBS[verb])
    contents = [draw(files) for arg in args if arg == FILE]
    output = draw(st.sampled_from(((), *(("--output", bad) for bad in BAD_OUTPUTS))))
    formats = draw(st.sampled_from(((), ("--format", "text"), ("--format", "yaml"))))
    return (*output, *formats, verb, *args), contents


@settings(max_examples=400, deadline=None)
@given(argvs())
# a positional whose only token is "--" (CPython 3.11 argparse passes it on as [])
@example(case=(("nz-check", "2", "--", "--"), []))
@example(case=(("rho-transfer", "2", "--", "--"), []))
@example(case=(("selftest", "--nz-max", "1000000000000"), []))
def test_cli_exits_cleanly_on_malformed_argv(tmp_path_factory, case):
    argv, contents = case
    paths = []
    for text in contents:
        paths.append(tmp_path_factory.mktemp("fuzz") / "problem.json")
        paths[-1].write_text(text, encoding="utf-8")
    paths = iter(paths)
    bad_output = argv[0] == "--output"
    argv = [str(next(paths)) if arg == FILE else arg for arg in argv]
    if bad_output:
        argv[1] = str(BAD_OUTPUTS[argv[1]](tmp_path_factory.mktemp("out")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the argv with status 2
            status = exc.code
    assert status in (0, 2, 3), (argv, status, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if bad_output:
        assert status in (2, 3) and out.getvalue() == "", (argv, status)
    if _nz_max(argv) > cli.MAX_NZ_GRID:
        assert status == 2, (argv, status)


def _nz_max(argv) -> int:
    # the value of the last --nz-max option that argparse reads as an int, else 0
    values = [tok for opt, tok in zip(argv, argv[1:]) if opt == "--nz-max"]
    try:
        return int(values[-1])
    except (IndexError, ValueError):
        return 0
