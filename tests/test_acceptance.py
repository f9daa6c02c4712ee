"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in captured output).  Exact arithmetic means zero
tolerance unless a tolerance is stated in the criterion itself.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction
from math import gcd

import mpmath

from gaugecert import (
    CeProblem,
    GramForm,
    KNOT_CATALOG,
    LensSpace,
    SeifertData,
    Strand,
    check_sfqhs_family,
    check_surgery_config,
    cot_cot_sin2_sum,
    d_invariant,
    detect_orthogonal_split,
    enumerate_C_e,
    enumerate_C_e_bruteforce,
    gram_determinant,
    hj_expand,
    ind_plus_seifert_qhs,
    is_negative_definite,
    lt_signature,
    nz_closed_form,
    plumbing_gram,
    r_invariant,
    rho_lens,
    torus_knot_surgery,
)

from oracles import crt_solve, float_oracle_sum, pairing


def _announce(number: int, description: str, started: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.time() - started:.1f}s): {description}")


def test_criterion_1_neumann_zagier_identity():
    started = time.time()
    checked = 0
    for a in range(2, 201):
        for c in range(1, a):
            if gcd(a, c) == 1:
                assert Fraction(2, a) * cot_cot_sin2_sum(a, c, 1) == nz_closed_form(a, c), (a, c)
                checked += 1
    assert checked == 12231
    assert time.time() - started < 60
    _announce(1, f"closed-form identity on all {checked} coprime pairs with a <= 200", started)


def _coprime_triples(product_bound: int):
    for a1 in range(2, 13):
        for a2 in range(a1 + 1, product_bound // a1 + 1):
            if gcd(a1, a2) != 1:
                continue
            for a3 in range(a2 + 1, product_bound // (a1 * a2) + 1):
                if gcd(a3, a1) == 1 and gcd(a3, a2) == 1:
                    yield a1, a2, a3


def test_criterion_2_index_form_agreement():
    # both index forms are recomputed and compared inside every call;
    # a disagreement raises ClosedFormMismatch and fails the test
    started = time.time()
    checked = 0
    for a1, a2, a3 in _coprime_triples(2000):
        for d in (1, 3):
            if gcd(d, a1 * a2 * a3) != 1:
                continue
            bs = crt_solve((a1, a2, a3), d)
            S = SeifertData(tuple(zip((a1, a2, a3), bs)))
            assert d_invariant(S) == d
            ind_plus_seifert_qhs(S)
            checked += 1
    for p in (2, 3, 5, 7):
        for q in (2, 3, 5, 7):
            if p >= q or gcd(p, q) != 1:
                continue
            for d in (1, 3, 7, 11):
                for n in range(1, 21):
                    if gcd(d, n) != 1 or p * q * n - d <= n:
                        continue
                    S = torus_knot_surgery(p, q, d, n)
                    assert d_invariant(S) == d
                    assert ind_plus_seifert_qhs(S) == 1
                    checked += 1
    _announce(2, f"trigonometric = closed index form on {checked} Seifert data sets", started)


def test_criterion_3_r_values():
    started = time.time()
    assert r_invariant(SeifertData(((2, 1), (3, 1), (5, -4)))) == 1
    assert r_invariant(SeifertData(((2, 1), (3, 1), (11, -9)))) == 1
    assert r_invariant(SeifertData(((2, 1), (3, -1), (7, -1)))) == -1
    positive = 0
    for p in range(2, 8):
        for q in range(p + 1, 8):
            if gcd(p, q) != 1:
                continue
            for k in range(1, 11):
                a3 = p * q * k - 1
                bs = crt_solve((p, q, a3), 1)
                assert r_invariant(SeifertData(tuple(zip((p, q, a3), bs)))) > 0
                positive += 1
    _announce(3, f"R(2,3,5) = R(2,3,11) = 1, R(2,3,7) = -1, and {positive} family values positive", started)


def test_criterion_4_sfqhs_family_end_to_end():
    started = time.time()
    report = check_sfqhs_family(3, 5, 7, (6, 48, 342, 2400))
    assert report.conclusion == "LinearlyIndependentFamily"
    assert report.line("Ind+ = 1").value == "1"
    assert report.line("p_1").value == str(Fraction(7, 15 * (15 * 2400 - 7)))
    for line in report.hypotheses:
        if line.name.startswith("p_1 <"):
            assert line.verdict == "pass", line
    assert report.line("reducible restriction class").value == "((1, 0, 0),)"
    assert report.line("reducible count parity").value == "odd"
    assert time.time() - started < 30
    _announce(4, "(3,5,7) family with n = 7^k - 1, k <= 4: independent, witness k = 1", started)


def test_criterion_5_surgery_pipeline():
    started = time.time()
    # Levine-Tristram signatures of the figure-eight knot vanish
    for a, b in ((3, 1), (3, 2), (7, 2), (24, 5)):
        assert lt_signature(KNOT_CATALOG["figure8"], a, b) == 0
    report = check_surgery_config(
        (Strand(2, 1), Strand(3, -1, knot="figure8"), Strand(11, -2))
    )
    assert report.conclusion == "ObstructedPositiveDefinite"
    assert report.line("Ind+").value == "1"
    assert report.line("p_1").value == "1/66"
    margin = Fraction(1, 24) - Fraction(1, 66)
    assert margin == Fraction(7, 264) > 0
    assert report.line("0 < p_1 < tau_hat <= 4").value == str(margin)
    _announce(5, "figure-eight configuration: Ind+ = 1, margin 1/24 - 1/66 = 7/264 > 0", started)


def test_criterion_6_ce_enumeration():
    started = time.time()
    rng = random.Random(20260810)
    compared = 0
    attempts = 0
    while compared < 100 and attempts < 3000:
        attempts += 1
        n = rng.randint(1, 4)
        L = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            L[i][i] = rng.choice((1, 2))
        rows = [[-sum(L[k][i] * L[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        G = GramForm(n, tuple(tuple(r) for r in rows))
        if not is_negative_definite(G):
            continue
        e = tuple(rng.randint(-2, 2) for _ in range(n))
        if -pairing(G, e, e) > 20:
            continue
        P = CeProblem(G, e)
        assert enumerate_C_e(P) == enumerate_C_e_bruteforce(P)
        compared += 1
        if detect_orthogonal_split(G, e):
            assert len(enumerate_C_e(P)) == 1
    assert compared >= 100
    # orthogonally split instances always give singletons
    for _ in range(20):
        w = -rng.randint(1, 9)
        G = GramForm(2, ((-1, 0), (0, w)))
        e = (rng.choice((1, -1)), 0)
        assert detect_orthogonal_split(G, e)
        assert len(enumerate_C_e(CeProblem(G, e))) == 1
    classes = enumerate_C_e(CeProblem(GramForm(2, ((-1, 0), (0, -9))), (3, 1)))
    assert classes == ((3, -1), (3, 1))
    _announce(6, f"{compared} randomized instances match brute force; split => singleton; "
                 "diag(-1,-9) instance has exactly 2 classes", started)


def test_criterion_7_plumbing_forms():
    started = time.time()
    checked = 0
    for a in range(2, 501):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            G = plumbing_gram(hj_expand(a, b))
            assert is_negative_definite(G), (a, b)
            assert abs(gram_determinant(G)) == a, (a, b)
            checked += 1
    _announce(7, f"{checked} plumbing forms negative definite with |det| = a, a <= 500", started)


def test_criterion_8_oracle_agreement():
    started = time.time()
    rng = random.Random(8)
    tol = 2.0**-64
    checked = 0
    with mpmath.workprec(256):
        for a in range(2, 61):
            for b in range(1, a):
                if gcd(a, b) != 1:
                    continue
                ls = {0, 1, 2, b, a - 1, a // 2, rng.randrange(a)}
                for l in ls:
                    exact = rho_lens(LensSpace(a, b), l)
                    approx = float_oracle_sum(a, b, l)
                    err = abs(approx - mpmath.mpf(exact.numerator) / exact.denominator)
                    assert err < tol, (a, b, l)
                    checked += 1
    _announce(8, f"oracle within 2^-64 of exact values on {checked} evaluations, a <= 60", started)
