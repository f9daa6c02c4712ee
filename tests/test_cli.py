"""Command line behaviour: verbs, exit codes, deterministic output, and
problem files, well-formed and malformed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import GOLDEN, REPORTS

BASE = [sys.executable, "-m", "gaugecert.cli"]
SRC = Path(__file__).resolve().parents[1] / "src"


def run(*args, **kw):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, **kw)


def test_rho_lens():
    r = run("rho-lens", "3", "1", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"value": "2/3"}
    r = run("rho-lens", "1000000000039", "3", "5")
    assert r.returncode == 0
    num, den = json.loads(r.stdout)["value"].split("/")
    assert int(den) > 0 and int(num) != 0


def test_r_invariant():
    r = run("r-invariant", "2,1", "3,1", "11,-9")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"R": 1}


def test_ind_plus():
    r = run("ind-plus", "3,1", "5,-2", "83,6")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"ind_plus": 1, "d": 7}


def test_nz_check():
    r = run("nz-check", "5", "2")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["closed_form"] == "-1/5" and out["match"] is True


def test_check_family():
    r = run("check-family", "3", "5", "7", "6,48,342")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["conclusion"] == "LinearlyIndependentFamily"
    names = [h["name"] for h in report["hypotheses"]]
    assert "Ind+ = 1" in names and "reducible count parity" in names


def test_check_fs_text():
    r = run("--format", "text", "check-fs", "2,1", "3,1", "5,-4")
    assert r.returncode == 0
    assert "conclusion: ObstructedPositiveDefinite" in r.stdout


def test_tau_bound():
    r = run("tau-bound", "--lens", "11", "9")
    assert json.loads(r.stdout)["bound"] == "4/11"
    r = run("tau-bound", "--denominator", "24")
    assert json.loads(r.stdout)["bound"] == "1/24"
    r = run("tau-bound", "--seifert", "3,1", "5,-2", "83,6")
    assert json.loads(r.stdout)["bound"] == "1/1245"


def test_plumbing():
    r = run("plumbing", "11", "2")
    out = json.loads(r.stdout)
    assert out["terms"] == [6, 2] and out["negative_definite"] is True
    assert out["det"] == "11"


def test_plumbing_text_reads_definiteness(capsys, monkeypatch):
    # the text form says what the JSON form's negative_definite says
    from gaugecert import cli

    assert cli.main(["--format", "text", "plumbing", "11", "2"]) == 0
    assert capsys.readouterr().out == "11/2 = [6, 2]; negative definite, det = 11\n"
    monkeypatch.setattr(cli, "is_negative_definite", lambda G: False)
    assert cli.main(["--format", "text", "plumbing", "11", "2"]) == 0
    assert capsys.readouterr().out == "11/2 = [6, 2]; not negative definite, det = 11\n"


def test_rho_transfer():
    r = run("rho-transfer", "2", "1", "--knot", "trefoil")
    assert json.loads(r.stdout) == {"value": "-4"}


def test_c_e_problem_file(tmp_path):
    problem = {
        "form": {"rank": 2, "gram": [["-1", "0"], ["0", "-9"]], "scale": 1},
        "e": [3, 1],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    r = run("c-e", str(path))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["count"] == 2 and out["classes"] == [[3, -1], [3, 1]]


def test_check_fs_problem_file(tmp_path):
    problem = {
        "kind": "surgery-config",
        "strands": [
            {"a": 2, "b": 1},
            {"a": 3, "b": -1, "knot": "figure8"},
            {"a": 11, "b": -2},
        ],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    r = run("check-fs", "--problem", str(path))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["conclusion"] == "ObstructedPositiveDefinite"


def test_output_deterministic(tmp_path):
    a = run("check-family", "3", "5", "7", "6,48")
    b = run("check-family", "3", "5", "7", "6,48")
    assert a.stdout == b.stdout
    out = tmp_path / "report.json"
    c = run("--output", str(out), "check-family", "3", "5", "7", "6,48")
    assert c.returncode == 0 and c.stdout == ""
    assert out.read_text(encoding="utf-8") == a.stdout


def test_output_to_bad_path(tmp_path):
    # a directory, and a file whose parent is missing: exit 2 naming the path
    for out in (tmp_path, tmp_path / "missing" / "report.json"):
        r = run("--output", str(out), "rho-lens", "3", "1", "1")
        assert r.returncode == 2 and r.stdout == ""
        assert "Traceback" not in r.stderr and str(out) in r.stderr


FORM = {"rank": 1, "gram": [["-1"]]}
FIGURE8 = {"a": 3, "b": -1, "knot": "figure8", "provenance": "test"}
STRANDS = [{"a": 2, "b": 1}, FIGURE8, {"a": 11, "b": -2}]

# (verb, file contents, field the error must name): non-integers are
# refused, never truncated, and a wrong shape is named, never a traceback
MALFORMED_FILES = [
    ("check-fs", {"kind": "seifert", "pairs": 5}, "'pairs'"),
    ("check-fs", [1, 2], "JSON object"),
    ("check-fs", {"kind": "seifert", "pairs": [[2, 1], [3, 1], [5, -4.9]]}, "'pairs'"),
    ("check-fs", {"kind": "seifert", "pairs": [[2, 1], [3, 1], ["5", "-4"]]}, "'pairs'"),
    ("check-fs", {"kind": "sfqhs-family", "p": 3.9, "q": 5, "d": 7, "n_list": [6, 48]}, "'p'"),
    ("check-fs", {"kind": "sfqhs-family", "p": 3, "q": 5, "d": 7, "n_list": [6.5, 48]}, "'n_list'"),
    ("check-fs", {"kind": "surgery-config",
                  "strands": [STRANDS[0], {**FIGURE8, "cs_denominators": [24.5]}, STRANDS[2]]}, "'strands'"),
    ("c-e", {"form": 5, "e": [1]}, "'form'"),
    ("c-e", [1], "JSON object"),
    ("c-e", {"form": FORM, "e": 5}, "'e'"),
    ("c-e", {"form": FORM, "e": [1.7]}, "'e'"),
    ("c-e", {"form": {**FORM, "scale": 1.5}, "e": [1]}, "'form'"),
    # JSON booleans are not integers, and no reader takes true as 1
    ("check-fs", {"kind": "seifert", "pairs": [[2, True], [3, 1], [5, -4]]}, "'pairs'"),
    ("c-e", {"form": {"rank": 1, "gram": [[False]]}, "e": [1]}, "'form'"),
    # knot names and provenance notes are strings
    ("check-fs", {"kind": "surgery-config",
                  "strands": [STRANDS[0], {**FIGURE8, "knot": {"name": "figure8"}}, STRANDS[2]]}, "'knot'"),
    ("check-fs", {"kind": "surgery-config",
                  "strands": [STRANDS[0], {**FIGURE8, "provenance": {"ref": 1}}, STRANDS[2]]}, "'provenance'"),
    # a catalog knot name with another knot's Seifert matrix
    ("check-fs", {"kind": "surgery-config",
                  "strands": [STRANDS[0], {**FIGURE8, "seifert_matrix": [[-1, 1], [0, -1]]}, STRANDS[2]]}, "'strands'"),
    # a JSON object in place of a gram row, or of the matrix, is not read as its keys
    ("c-e", {"form": {"rank": 1, "gram": [{"-3": 0}]}, "e": [1]}, "'form'"),
    ("c-e", {"form": {"rank": 1, "gram": {"-3": 0}}, "e": [1]}, "'form'"),
    # nor is {} or "" in place of any array read as an empty one
    ("check-fs", {"kind": "surgery-config",
                  "strands": [STRANDS[0], {"a": 3, "b": -1, "seifert_matrix": {}}, STRANDS[2]]}, "'strands'"),
    ("check-fs", {"kind": "surgery-config",
                  "strands": [STRANDS[0], {"a": 3, "b": -1, "seifert_matrix": ""}, STRANDS[2]]}, "'strands'"),
    ("check-fs", {"kind": "surgery-config",
                  "strands": [STRANDS[0], {"a": 3, "b": -1, "seifert_matrix": [{}, []]}, STRANDS[2]]}, "'strands'"),
    ("check-fs", {"kind": "surgery-config",
                  "strands": [STRANDS[0], {**FIGURE8, "cs_denominators": {}}, STRANDS[2]]}, "'strands'"),
    ("check-fs", {"kind": "surgery-config", "strands": {}}, "'strands'"),
    ("check-fs", {"kind": "seifert", "pairs": {}}, "'pairs'"),
    ("check-fs", {"kind": "seifert", "pairs": ""}, "'pairs'"),
    ("check-fs", {"kind": "sfqhs-family", "p": 3, "q": 5, "d": 7, "n_list": {}}, "'n_list'"),
    ("c-e", {"form": FORM, "e": [1], "restrictions": {}}, "'restrictions'"),
    ("c-e", {"form": FORM, "e": [1], "restrictions": [{"modulus": 2, "row": {}}]}, "'restrictions'"),
    ("c-e", {"form": {"rank": 0, "gram": []}, "e": {}}, "'e'"),
    # Chern-Simons denominators are positive integers, refused when the strand
    # is read, also in a report that d = 5 would end before its window
    ("check-fs", {"kind": "surgery-config",
                  "strands": [STRANDS[0], {**FIGURE8, "cs_denominators": [0]}, STRANDS[2]]}, "'strands'"),
    ("check-fs", {"kind": "surgery-config",
                  "strands": [STRANDS[0], {**FIGURE8, "cs_denominators": [-5]}, {"a": 7, "b": -2}]}, "'strands'"),
]


@pytest.mark.parametrize("verb, problem, field", MALFORMED_FILES)
def test_exit_code_malformed_file(tmp_path, verb, problem, field):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    r = run(verb, *(["--problem"] if verb == "check-fs" else []), str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert "Traceback" not in r.stderr and field in r.stderr


def test_exit_code_malformed():
    assert run("rho-lens", "6", "3", "1").returncode == 2          # gcd fail
    assert run("r-invariant", "3,1", "5,-2", "83,6").returncode == 2  # d != 1
    assert run("c-e", "/nonexistent/problem.json").returncode == 2
    assert run("rho-lens", "x", "y", "z").returncode == 2          # argparse
    r = run("rho-transfer", "3", "1", "--seifert-matrix", "5")
    assert r.returncode == 2 and r.stdout == ""
    assert "Traceback" not in r.stderr and "'seifert_matrix'" in r.stderr
    r = run("rho-transfer", "3", "1", "--seifert-matrix", "[[true, false], [true, true]]")
    assert r.returncode == 2 and "'seifert_matrix'" in r.stderr
    # an empty object, string or argument is not the unknot's empty matrix
    for matrix in ("{}", '""', "", "[{}]"):
        r = run("rho-transfer", "3", "1", "--seifert-matrix", matrix)
        assert r.returncode == 2 and r.stdout == ""
        assert "Traceback" not in r.stderr and "'seifert_matrix'" in r.stderr
    r = run("tau-bound", "--denominator", "0")
    assert r.returncode == 2 and "denominator must be a positive integer" in r.stderr
    # p, q < 2 is refused before any report line (T(1, q) is the unknot, no torus
    # knot), by the torus knot's refusal naming p; an even p gets an Inconclusive report
    r = run("check-family", "1", "3", "1", "2,4")
    assert r.returncode == 2 and r.stdout == ""
    assert "Traceback" not in r.stderr and "p = 1" in r.stderr
    # a positional whose only token is "--" is refused, not handed over unconverted
    for argv in (("nz-check", "2", "--", "--"), ("rho-transfer", "2", "--", "--"), ("rho-lens", "3", "1", "--", "--"),
                 ("plumbing", "3", "--", "--"), ("check-family", "3", "5", "7", "--", "--")):
        r = run(*argv)
        assert r.returncode == 2 and r.stdout == ""
        assert "Traceback" not in r.stderr and "got '--'" in r.stderr


def test_conflicting_options_refused(tmp_path, capsys):
    # options that name the same input twice are refused, not silently resolved
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"kind": "seifert", "pairs": [[2, 1], [3, 1], [5, -4]]}), encoding="utf-8")
    for argv, message in (
        (("tau-bound", "--lens", "11", "9", "--denominator", "24"), "not allowed with argument --lens"),
        (("tau-bound",), "one of the arguments --lens --seifert --denominator is required"),
        (("rho-transfer", "3", "1", "--knot", "trefoil", "--seifert-matrix", "[[1, 1], [0, -1]]"),
         "not allowed with argument --knot"),
        (("rho-transfer", "3", "1", "--knot", "figure-eight"), "invalid choice: 'figure-eight'"),
        (("check-fs", "2,1", "3,1", "5,-4", "--problem", str(path)), "not allowed with argument a,b"),
        (("check-fs",), "one of the arguments a,b --problem is required"),
    ):
        r = run(*argv)
        assert r.returncode == 2 and r.stdout == ""
        assert "Traceback" not in r.stderr and message in r.stderr
    # in process, "unknot" can be the very string object argparse would hold
    # as --knot's default, and a default value does not count as given
    from gaugecert import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["rho-transfer", "3", "1", "--knot", "unknot", "--seifert-matrix", "[[1, 1], [0, -1]]"])
    assert exc.value.code == 2 and "not allowed with argument --knot" in capsys.readouterr().err


def test_plumbing_chain_cap():
    # the dense m x m plumbing is refused above MAX_CHAIN_LENGTH terms, before it is built
    from gaugecert.exactnum import MAX_CHAIN_LENGTH, hj_expand

    assert MAX_CHAIN_LENGTH == 1000
    assert len(hj_expand(1001, 1000).terms) == 1000
    for a in ("1002", "1000000000000"):
        r = run("plumbing", a, str(int(a) - 1))
        assert r.returncode == 2 and r.stdout == ""
        assert "Traceback" not in r.stderr and "more than 1000 terms" in r.stderr


def test_knot_order_cap(tmp_path):
    # knotted strands are refused above MAX_KNOT_ORDER, before any cyclotomic table is built
    from gaugecert import KNOT_CATALOG, lt_signature
    from gaugecert.knots import MAX_KNOT_ORDER

    assert MAX_KNOT_ORDER == 1000
    assert lt_signature(KNOT_CATALOG["trefoil"], 997, 1) == 0
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"kind": "surgery-config", "strands": [
        {"a": 2, "b": 1}, {"a": 3, "b": 2}, {"a": 1009, "b": -1177, "knot": "trefoil"}]}), encoding="utf-8")
    for argv in (("rho-transfer", "1001", "1", "--knot", "trefoil"), ("check-fs", "--problem", str(path))):
        r = run(*argv)
        assert r.returncode == 2 and r.stdout == ""
        assert "Traceback" not in r.stderr and "exceeds the limit 1000" in r.stderr
    assert run("rho-transfer", "1001", "1").returncode == 0  # an unknotted strand builds no table


def test_seifert_matrix_size_cap(tmp_path):
    # a Seifert matrix larger than MAX_SEIFERT_SIZE = 20 (genus 10) is refused
    # before its determinant, from the command line and from a problem file
    n = 22
    matrix = [[-int(i == j) + int(j == i + 1 and i % 2 == 0) for j in range(n)] for i in range(n)]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"kind": "surgery-config", "strands": [
        {"a": 2, "b": 1}, {"a": 3, "b": 1}, {"a": 7, "b": -6, "seifert_matrix": matrix}]}), encoding="utf-8")
    for argv, field in ((("rho-transfer", "7", "1", "--seifert-matrix", json.dumps(matrix)), "'seifert_matrix'"),
                        (("check-fs", "--problem", str(path)), "'strands'")):
        r = run(*argv)
        assert r.returncode == 2 and r.stdout == ""
        assert "Traceback" not in r.stderr and field in r.stderr
        assert "Seifert matrix of size 22 exceeds the limit 20" in r.stderr


def _identity4_problem(tmp_path, e):
    gram = [[-int(i == j) for j in range(4)] for i in range(4)]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"form": {"rank": 4, "gram": gram}, "e": e}), encoding="utf-8")
    return path


def test_c_e_node_cap(tmp_path):
    # the enumeration is refused once it visits more than MAX_CE_NODES nodes;
    # the rank-4 identity form at e = (300, 0, 0, 0) needs 7,104,312
    from gaugecert.lattice import MAX_CE_NODES

    assert MAX_CE_NODES == 10**6
    r = run("c-e", str(_identity4_problem(tmp_path, [300, 0, 0, 0])))
    assert r.returncode == 2 and r.stdout == ""
    assert "Traceback" not in r.stderr and "limit of 1000000 Fincke-Pohst nodes" in r.stderr


def test_c_e_under_node_cap(tmp_path):
    # at e = (100, 0, 0, 0) the same form needs 265,628 nodes, within the cap,
    # and has the 9,372 classes an uncapped enumeration finds
    r = run("c-e", str(_identity4_problem(tmp_path, [100, 0, 0, 0])))
    assert r.returncode == 0 and r.stderr == ""
    report = json.loads(r.stdout)
    assert report["count"] == len(report["classes"]) == 9372


def test_c_e_rank_cap(tmp_path):
    # a form above MAX_CE_RANK is refused before its cubic elimination
    n = 201
    gram = [[-int(i == j) for j in range(n)] for i in range(n)]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"form": {"rank": n, "gram": gram}, "e": [1] + [0] * (n - 1)}), encoding="utf-8")
    r = run("c-e", str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert "Traceback" not in r.stderr and "C(e) form of rank 201 exceeds the limit 200" in r.stderr


def test_selftest_grid_cap(monkeypatch, capsys):
    # --nz-max above MAX_NZ_GRID is refused before the first cotangent sum
    from gaugecert import cli

    assert cli.MAX_NZ_GRID == 500
    monkeypatch.setattr(cli, "cot_cot_sin2_sum", lambda *args: pytest.fail("identity grid started"))
    for value in ("501", "1000000000000"):
        assert cli.main(["selftest", "--nz-max", value]) == 2
        err = capsys.readouterr().err
        assert f"--nz-max {value} exceeds the limit 500" in err and "Traceback" not in err


def test_exit_code_degenerate_transfer():
    assert run("rho-transfer", "6", "1", "--knot", "trefoil").returncode == 2


def test_selftest():
    r = run("selftest", "--nz-max", "25")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["ok"] is True and out["checked"]["nz_identity_pairs"] > 0


def test_selftest_optimized():
    # -O strips asserts; the internal checks must not depend on them
    r = subprocess.run([sys.executable, "-O", "-m", "gaugecert.cli", "selftest"], capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True


def test_check_fs_knotted_optimized():
    # the signature checks raise instead of asserting, so -O changes nothing
    problem = str(GOLDEN / "genus2_inconclusive.problem.json")
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "gaugecert.cli", "check-fs", "--problem", problem],
                       capture_output=True)
        for flags in ((), ("-O",))
    )
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout


@pytest.mark.parametrize("argv, golden", REPORTS)
def test_c_e_optimized(argv, golden):
    # every check raises instead of asserting, so -O prints every golden report byte for byte
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    r = subprocess.run([sys.executable, "-O", "-m", "gaugecert.cli", *argv], capture_output=True, cwd=GOLDEN, env=env)
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / golden).read_bytes()


STDLIB_ONLY = """
import contextlib, io, sys
before = set(sys.modules)  # what the interpreter's own startup loaded
import gaugecert, gaugecert.cli
from gaugecert import KNOT_CATALOG, lt_signature
assert lt_signature(KNOT_CATALOG["trefoil"], 61, 20) == -2
with contextlib.redirect_stdout(io.StringIO()):
    assert gaugecert.cli.main(["check-fs", "2,1", "3,1", "5,-4"]) == 0
print(sorted({m.split(".")[0] for m in set(sys.modules) - before} - sys.stdlib_module_names - {"gaugecert"}))
"""


def test_library_loads_only_the_standard_library():
    # the package has no runtime dependencies; mpmath and hypothesis serve the tests only
    r = subprocess.run([sys.executable, "-c", STDLIB_ONLY], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_exit_code_internal_consistency(monkeypatch):
    # a forced disagreement between the two exact paths must map to exit 3
    from fractions import Fraction

    import gaugecert.cli as cli

    monkeypatch.setattr(cli, "nz_closed_form", lambda a, c: Fraction(0))
    assert cli.main(["nz-check", "5", "2"]) == 3
