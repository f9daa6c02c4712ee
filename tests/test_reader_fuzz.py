"""Fuzzing the JSON input boundary: :func:`run_problem` and
:func:`read_ce_problem` must turn any parsed JSON value, and any mutation of
a golden problem file, into a result or a :class:`GaugeCertError`, never
into another exception.

Integers are bounded by |x| <= 40 and lists by 4 entries per level, so
matrices are at most 4x4.  The bounds exist because size caps on inputs
are a separate open ROADMAP item: without them a well-formed input may
legitimately run for unbounded time, which is not what this test checks.
"""

import json
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugecert import GaugeCertError, read_ce_problem, run_problem

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(GOLDEN.glob("*.problem.json"))]

KINDS = ("seifert", "surgery-config", "sfqhs-family")
FIELDS = (
    "kind", "pairs", "strands", "p", "q", "d", "n_list", "form", "e", "restrictions",
    "rank", "gram", "scale", "modulus", "row",
    "a", "b", "knot", "seifert_matrix", "cs_denominators", "provenance",
)
WORDS = (*KINDS, "unknot", "trefoil", "figure8", "-1", "3", "1/3", "-2/3", "1/0", "1.5", "5 ", "")

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-40, 40)
    | st.floats(-40, 40)
    | st.just(float("nan"))
    | st.sampled_from(WORDS)
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(FIELDS), kids, max_size=4),
    max_leaves=24,
)
problems = st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS)}, optional={name: json_values for name in FIELDS[1:]}
)


def _paths(x, prefix=()):
    yield prefix
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_golden(draw):
    problem = json.loads(json.dumps(draw(st.sampled_from(PROBLEMS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(problem))))
        value = draw(json_values)
        if path:
            reduce(getitem, path[:-1], problem)[path[-1]] = value
        else:
            problem = value
    return problem


@st.composite
def golden_with_object(draw):
    # where a golden problem has an array: a JSON object keyed by the array's
    # entries (strings as they are, anything else as its JSON text), so that
    # iterating over it gives the entries or their text back, or {} or "",
    # which iterate as no entries at all
    problem = json.loads(json.dumps(draw(st.sampled_from(PROBLEMS))))
    path = draw(st.sampled_from([p for p in _paths(problem) if isinstance(reduce(getitem, p, problem), list)]))
    array = reduce(getitem, path, problem)
    keyed = {x if isinstance(x, str) else json.dumps(x): draw(json_values) for x in array}
    reduce(getitem, path[:-1], problem)[path[-1]] = draw(st.sampled_from((keyed, {}, "")))
    return problem


@settings(max_examples=200, deadline=None)
@given(json_values | problems | mutated_golden())
def test_readers_raise_only_gaugecert_errors(data):
    for read in (run_problem, read_ce_problem):
        try:
            read(data)
        except GaugeCertError:
            pass


@settings(max_examples=200, deadline=None)
@given(golden_with_object())
def test_object_in_place_of_array_is_refused(data):
    for read in (run_problem, read_ce_problem):
        with pytest.raises(GaugeCertError):
            read(data)
