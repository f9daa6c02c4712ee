"""Golden reports: CLI invocations and the exact bytes they printed, kept
in tests/golden/.  The three surgery-config JSON reports were recorded
before the signature code was made division-free; the text reports, the
Seifert, family, C(e), plumbing, rho-transfer and selftest outputs before
every exact determinant was routed through one integer elimination; the
README examples and the transfers at a = 61 and a = 31 before the cos/sin
table of the pivot signs was built from integers alone; the rank-6 C(e)
report before the enumeration searched one sign per class; the remaining
README examples and the Inconclusive Sigma(2,3,7) report before the C(e)
class map was made one pass; the degenerate genus-2 and the genus-3
surgery configurations before the signatures were read from one integer
polynomial; the scale-6 C(e) report before every form was validated by one
integer route; the family reports with d = 37 > pq and with d = 1 before
check-family decided its rationals by cross-multiplying integers; the
surgery configuration with a failing compactness margin before check-fs
decided its window and rank-1 lines without lattice or tau-hat objects.  Each
output must stay byte identical; the call counts pin
that each knotted strand's signature, which also decides its
nondegeneracy, and each strand's cotangent sum are computed once, that
the knotted reports build no element of Z[zeta_a], and that a check-fs
report is built once, from one Strand per strand.  The tau-bound reports
cover each Seifert branch (d > a and d = 1), the text form, and the
least denominator and lens order."""

import json
from pathlib import Path

import pytest

import gaugecert.cli as cli
import gaugecert.lattice as lattice
import gaugecert.lens as lens
import gaugecert.obstruct as obstruct
from gaugecert import CycloElement, SeifertData

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = (
    "figure8_obstructed",
    "genus2_inconclusive",
    "trefoil_degenerate",
    # the (2,5) torus knot at a = 10: its Alexander polynomial is Phi_10
    "genus2_degenerate",
    # a genus-3 knotted strand, nondegenerate at 5/-1
    "genus3_nondegenerate",
    # a user denominator of 10^6 puts tau_hat = 1/3000000 below p_1 = 1/66
    "fs_window_fails",
)
GENUS2 = "[[-2,1,0,0],[0,-1,0,1],[0,0,-1,1],[0,1,0,-2]]"
# a genus-4 transfer at a = 31; its signs are certified at the first precision, and
# test_knots.py drives the precision doubling directly
GENUS4 = (
    "[[2,1,0,2,-2,1,-1,-2],[0,-1,-2,0,1,-1,1,2],[0,-2,-2,3,-1,-2,-1,1],[2,0,2,0,-1,1,-1,-2],"
    "[-2,1,-1,-1,-1,3,2,1],[1,-1,-2,1,2,-1,-1,-2],[-1,1,-1,-1,2,-1,-2,0],[-2,2,1,-2,1,-2,-1,-1]]"
)

# (argv, golden file); paths in argv are relative to tests/golden/
REPORTS = [
    *(pytest.param(["check-fs", "--problem", f"{n}.problem.json"], f"{n}.report.json", id=n) for n in CASES),
    *(
        pytest.param(["--format", "text", "check-fs", "--problem", f"{n}.problem.json"], f"{n}.report.txt", id=f"{n}-text")
        for n in CASES
    ),
    pytest.param(["check-fs", "2,1", "3,1", "5,-4"], "fs_2_3_5.report.json", id="fs-2-3-5"),
    pytest.param(["--format", "text", "check-fs", "2,1", "3,1", "5,-4"], "fs_2_3_5.report.txt", id="fs-2-3-5-text"),
    pytest.param(["check-family", "3", "5", "7", "6,48,342,2400"], "family_3_5_7.report.json", id="family-3-5-7"),
    # d = 37 > pq = 33, so p_1 = d/(pq a_3) is not below 1/a_3, and p_1 < tau_hat fails too
    pytest.param(["check-family", "3", "11", "37", "44"], "family_3_11_37.report.json", id="family-3-11-37"),
    pytest.param(["--format", "text", "check-family", "3", "11", "37", "44"], "family_3_11_37.report.txt",
                 id="family-3-11-37-text"),
    # d = 1: the line p_1 < 1/d prints 1
    pytest.param(["check-family", "3", "5", "1", "2,4,8"], "family_3_5_1.report.json", id="family-3-5-1"),
    pytest.param(["--format", "text", "check-family", "3", "5", "1", "2,4,8"], "family_3_5_1.report.txt",
                 id="family-3-5-1-text"),
    pytest.param(["c-e", "ce_rank4.problem.json"], "ce_rank4.report.json", id="c-e-rank4"),
    # five classes, three with a pinned sign, all with last coordinate 0: where the
    # one-sign-per-class search starts
    pytest.param(["c-e", "ce_rank6.problem.json"], "ce_rank6.report.json", id="c-e-rank6"),
    # "num/den" entries at scale 6 beside a JSON integer; r.e = 4 mod 6 pins every class's
    # sign, one of them with a negative first coordinate
    pytest.param(["c-e", "ce_scale6.problem.json"], "ce_scale6.report.json", id="c-e-scale6"),
    pytest.param(["plumbing", "7", "2"], "plumbing_7_2.report.json", id="plumbing-7-2"),
    pytest.param(["rho-transfer", "3", "1", "--seifert-matrix", GENUS2], "rho_transfer_genus2.report.json",
                 id="rho-transfer-genus2"),
    pytest.param(["selftest"], "selftest.report.json", id="selftest"),
    # the README examples
    pytest.param(["rho-lens", "3", "1", "1"], "rho_lens_3_1_1.report.json", id="rho-lens-3-1-1"),
    pytest.param(["nz-check", "5", "2"], "nz_check_5_2.report.json", id="nz-check-5-2"),
    pytest.param(["r-invariant", "2,1", "3,1", "11,-9"], "r_invariant_2_3_11.report.json", id="r-invariant-2-3-11"),
    pytest.param(["ind-plus", "3,1", "5,-2", "83,6"], "ind_plus_3_5_83.report.json", id="ind-plus-3-5-83"),
    pytest.param(["tau-bound", "--lens", "11", "9"], "tau_bound_lens_11_9.report.json", id="tau-bound-lens-11-9"),
    pytest.param(["tau-bound", "--seifert", "3,1", "5,-2", "83,6"], "tau_bound_seifert_3_5_83.report.json",
                 id="tau-bound-seifert-3-5-83"),
    pytest.param(["tau-bound", "--denominator", "24"], "tau_bound_denominator_24.report.json",
                 id="tau-bound-denominator-24"),
    # d = 53 > a = 15: the Seifert bound is 1/d
    pytest.param(["tau-bound", "--seifert", "3,10", "5,1"], "tau_bound_seifert_3_10_5_1.report.json",
                 id="tau-bound-seifert-3-10-5-1"),
    pytest.param(["--format", "text", "tau-bound", "--seifert", "3,10", "5,1"],
                 "tau_bound_seifert_3_10_5_1.report.txt", id="tau-bound-seifert-3-10-5-1-text"),
    # d = 1: the Seifert bound is 1/a
    pytest.param(["tau-bound", "--seifert", "2,1", "3,1", "5,-4"], "tau_bound_seifert_2_3_5.report.json",
                 id="tau-bound-seifert-2-3-5"),
    pytest.param(["tau-bound", "--denominator", "1"], "tau_bound_denominator_1.report.json",
                 id="tau-bound-denominator-1"),
    pytest.param(["tau-bound", "--lens", "2", "1"], "tau_bound_lens_2_1.report.json", id="tau-bound-lens-2-1"),
    pytest.param(["rho-transfer", "3", "1", "--knot", "figure8"], "rho_transfer_3_1_figure8.report.json",
                 id="rho-transfer-3-1-figure8"),
    # its restriction with modulus 5 filters out the class (3, -1)
    pytest.param(["c-e", "ce_readme.problem.json"], "ce_readme.report.json", id="c-e-readme"),
    # Sigma(2,3,7): Ind+ = R = -1 < 0, so the parity theorem does not apply
    pytest.param(["check-fs", "2,1", "3,-1", "7,-1"], "fs_2_3_7.report.json", id="fs-2-3-7"),
    # knotted transfers whose signs are certified from a cosine beyond a = 3
    pytest.param(["rho-transfer", "61", "20", "--knot", "trefoil"], "rho_transfer_61_20_trefoil.report.json",
                 id="rho-transfer-61-20-trefoil"),
    pytest.param(["rho-transfer", "31", "7", "--seifert-matrix", GENUS4], "rho_transfer_31_7_genus4.report.json",
                 id="rho-transfer-31-7-genus4"),
]


@pytest.mark.parametrize("argv, golden", REPORTS)
def test_report_byte_identical(capsys, monkeypatch, argv, golden):
    monkeypatch.chdir(GOLDEN)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_degenerate_report_lines():
    report = json.loads((GOLDEN / "trefoil_degenerate.report.json").read_text(encoding="utf-8"))
    verdicts = {h["name"]: h["verdict"] for h in report["hypotheses"]}
    assert verdicts["nondegenerate(trefoil at 6/-1)"] == "fail"
    assert verdicts["rho transfer"] == "fail"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("figure8_obstructed", {"lt_signature": 1}),
        ("genus2_inconclusive", {"lt_signature": 1}),
        # the one call raises: the strand is degenerate
        ("trefoil_degenerate", {"lt_signature": 1}),
    ],
)
def test_knotted_strand_call_counts(monkeypatch, name, expected):
    # one signature per knotted strand, which also decides its nondegeneracy line
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
    assert not hasattr(obstruct, "alexander_from_seifert") and not hasattr(obstruct, "nondegenerate_at")


KNOTTED = [
    *(["check-fs", "--problem", f"{n}.problem.json"] for n in CASES),
    ["rho-transfer", "3", "1", "--seifert-matrix", GENUS2],
    ["rho-transfer", "3", "1", "--knot", "figure8"],
    ["rho-transfer", "61", "20", "--knot", "trefoil"],
    ["rho-transfer", "31", "7", "--seifert-matrix", GENUS4],
]


def test_knotted_goldens_use_no_cyclotomic_arithmetic(capsys, monkeypatch):
    # a signature works with integer polynomials at t = 2 cos(2 pi b/a):
    # no element of Z[zeta_a] is built, and every CycloElement operation
    # would build its result
    monkeypatch.chdir(GOLDEN)
    built, signatures = [], []
    monkeypatch.setattr(CycloElement, "__post_init__", lambda self: built.append(self.order))
    lt_signature = obstruct.lt_signature
    monkeypatch.setattr(obstruct, "lt_signature", lambda *args: signatures.append(args) or lt_signature(*args))
    for argv in KNOTTED:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(signatures) == len(KNOTTED) and built == []


def _fs_2_3_5():
    pairs = json.loads((GOLDEN / "fs_2_3_5.report.json").read_text(encoding="utf-8"))["problem"]["pairs"]
    return obstruct.check_fintushel_stern(SeifertData(pairs))


def _figure8_obstructed():
    return obstruct.run_problem(json.loads((GOLDEN / "figure8_obstructed.problem.json").read_text(encoding="utf-8")))


def _family_3_5_7():
    return obstruct.check_sfqhs_family(3, 5, 7, (6, 48, 342, 2400))


# every cotangent sum goes through lens.rho_lens: check-fs computes each
# strand's sum once, in R's trigonometric form, and check-family once per
# strand of the largest n_k, in the same comparison of the two index forms
@pytest.mark.parametrize("check", [_fs_2_3_5, _figure8_obstructed, _family_3_5_7])
def test_cotangent_sum_once_per_strand(monkeypatch, check):
    calls = []
    fn = lens.cot_cot_sin2_sum
    monkeypatch.setattr(lens, "cot_cot_sin2_sum", lambda *args: calls.append(args) or fn(*args))
    check()
    assert len(calls) == 3


# check-family builds one Seifert space, for the largest n_k: each earlier
# member's tau bound is a p_1 < 1/m line the report already decides
def test_one_seifert_space_per_family_report(monkeypatch):
    calls = []
    fn = obstruct.torus_knot_surgery
    monkeypatch.setattr(obstruct, "torus_knot_surgery", lambda *args: calls.append(args) or fn(*args))
    report = _family_3_5_7()
    assert report.conclusion == obstruct.INDEPENDENT
    assert calls == [(3, 5, 7, 2400)]


# check-fs decides its rank-1 lines in integers: once "homology sphere" has
# passed, H^2 is Z with form (-1) and e = 1, so no lattice object is built
def test_check_fs_goldens_build_no_lattice(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    built = []
    for cls in (lattice.GramForm, lattice.CeProblem):
        init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, init=init: built.append(type(self)) or init(self))
    argvs = [p.values[0] for p in REPORTS if "check-fs" in p.values[0]]
    assert len(argvs) == 2 * len(CASES) + 3
    for argv in argvs:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert built == []


# check-fs reads every strand once: one report per check (check_fintushel_stern
# builds no second one), one Strand per strand (a reversed orientation is a sign,
# not a rebuilt strand)
def test_check_fs_goldens_read_each_strand_once(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    built = []
    for cls in (obstruct.ObstructionReport, obstruct.Strand):
        init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, init=init: built.append(type(self)) or init(self))
    reoriented = 0
    for argv in (p.values[0] for p in REPORTS if "check-fs" in p.values[0]):
        if "--problem" in argv:
            problem = json.loads(Path(argv[-1]).read_text(encoding="utf-8"))
            n = len(problem.get("pairs", problem.get("strands")))
        else:
            n = sum("," in arg for arg in argv)
        built.clear()
        assert cli.main(argv) == 0
        reoriented += "orientation reversed" in capsys.readouterr().out
        assert built.count(obstruct.ObstructionReport) == 1, argv
        assert built.count(obstruct.Strand) == n, argv
    assert reoriented == 8
