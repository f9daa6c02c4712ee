"""Golden reports: surgery-config problems in tests/golden/ and the exact
JSON reports that `gaugecert check-fs --problem` printed for them before
the signature code was made division-free.  Each report must stay byte
identical; the call counts pin that each knotted strand's Alexander
polynomial and signatures are computed once."""

import json
from pathlib import Path

import pytest

import gaugecert.cli as cli
import gaugecert.obstruct as obstruct

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = ("figure8_obstructed", "genus2_inconclusive", "trefoil_degenerate")


@pytest.mark.parametrize("name", CASES)
def test_report_byte_identical(capsys, name):
    assert cli.main(["check-fs", "--problem", str(GOLDEN / f"{name}.problem.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.report.json").read_text(encoding="utf-8")


def test_degenerate_report_lines():
    report = json.loads((GOLDEN / "trefoil_degenerate.report.json").read_text(encoding="utf-8"))
    verdicts = {h["name"]: h["verdict"] for h in report["hypotheses"]}
    assert verdicts["nondegenerate(trefoil at 6/-1)"] == "fail"
    assert verdicts["rho transfer"] == "fail"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("figure8_obstructed", {"lt_signature": 2, "alexander_from_seifert": 1, "nondegenerate_at": 1}),
        ("genus2_inconclusive", {"lt_signature": 2, "alexander_from_seifert": 1, "nondegenerate_at": 1}),
        ("trefoil_degenerate", {"lt_signature": 0, "alexander_from_seifert": 1, "nondegenerate_at": 1}),
    ],
)
def test_knotted_strand_call_counts(monkeypatch, name, expected):
    calls = dict.fromkeys(expected, 0)

    def counting(fname, fn):
        def wrapper(*args):
            calls[fname] += 1
            return fn(*args)

        return wrapper

    for fname in expected:
        monkeypatch.setattr(obstruct, fname, counting(fname, getattr(obstruct, fname)))
    obstruct.run_problem(json.loads((GOLDEN / f"{name}.problem.json").read_text(encoding="utf-8")))
    assert calls == expected
