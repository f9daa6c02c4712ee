"""Foundation tests: cyclotomic arithmetic, the sum engine, CRT solving,
Hirzebruch-Jung expansions, and the floating oracle."""

import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gaugecert import (
    BadParameters,
    CycloElement,
    InternalCheckError,
    NoSolution,
    cot_cot_sin2_sum,
    cyclotomic_poly,
    hj_expand,
)
from gaugecert.exactnum import _sawtooth_convolution, continuants, euler_phi, inverse_mod, poly_divmod, ratio_str
from gaugecert.lattice import _crt3

from oracles import (
    ORACLE_PREC_ENV,
    NonRational,
    crt_solve,
    cyclo_make_cot_cot_sin2,
    float_oracle_sum,
    rational_extract,
    sawtooth_convolution,
    sawtooth_sum,
)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and field structure
# ---------------------------------------------------------------------------

def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_prime():
    for p in (5, 7, 11, 13):
        assert cyclotomic_poly(p) == (1,) * p


def test_cyclotomic_degree_matches_phi():
    for a in range(1, 40):
        assert len(cyclotomic_poly(a)) == euler_phi(a) + 1


def test_zeta_relation():
    # 1 + zeta + ... + zeta^(p-1) = 0 for prime p
    z = CycloElement.zero(5)
    for k in range(5):
        z = z + CycloElement.zeta(5, k)
    assert z.is_zero()


def test_field_axioms_randomized():
    rng = random.Random(7)
    for a in (5, 8, 9, 12):
        n = euler_phi(a)
        def rand_elt():
            return CycloElement(
                a, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
            )
        one = CycloElement.from_rational(a, 1)
        for _ in range(8):
            x, y, z = rand_elt(), rand_elt(), rand_elt()
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            if not x.is_zero():
                assert x * x.inverse() == one


def test_inverse_by_the_norm():
    # 1/x = (product of the other Galois images) / N(x), up to a = 61
    rng = random.Random(61)
    for a in (2, 3, 7, 12, 15, 30, 61):
        one = CycloElement.from_rational(a, 1)
        for _ in range(3):
            x = CycloElement(a, tuple(rng.randint(-3, 3) for _ in range(euler_phi(a))))
            if not x.is_zero():
                assert x * x.inverse() == one
    with pytest.raises(ZeroDivisionError):
        CycloElement.zero(7).inverse()


def _run_optimized(code: str) -> str:
    # python -O strips asserts, so what such a run prints holds without them
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_inverse_checks_the_norm_under_O():
    # a norm that is not rational is an internal failure, also under -O
    out = _run_optimized(
        "from gaugecert import CycloElement, InternalCheckError\n"
        "CycloElement._galois = lambda self, k: self  # every image is x: N = x^phi, not rational\n"
        "try:\n"
        "    CycloElement.zeta(7, 1).inverse()\n"
        "except InternalCheckError:\n"
        "    print('raised')\n"
    )
    assert out == "raised\n"


def test_inverse_mod_and_crt():
    # against the definitions: x u = 1 mod m, and each residue met mod its modulus
    for m in range(1, 40):
        for x in range(-m, 2 * m):
            if gcd(x, m) == 1:
                u = inverse_mod(x, m)
                assert 0 <= u < m and (x * u - 1) % m == 0
            else:
                with pytest.raises(NoSolution, match=f"{x} is not invertible mod {m}"):
                    inverse_mod(x, m)
    rng = random.Random(438)
    for _ in range(300):
        moduli = rng.sample((1, 3, 5, 7, 11, 13, 16, 17), 3)
        residues = tuple((rng.randrange(n), n) for n in moduli)
        x = _crt3(*residues)
        assert 0 <= x < moduli[0] * moduli[1] * moduli[2]
        assert all((x - r) % n == 0 for r, n in residues)
    with pytest.raises(InternalCheckError, match="CRT moduli 15 and 9 are not coprime"):
        _crt3((1, 3), (2, 5), (4, 9))


def test_inverse_mod_and_crt_refuse_under_O():
    out = _run_optimized(
        "from gaugecert import InternalCheckError, NoSolution\n"
        "from gaugecert.exactnum import inverse_mod\n"
        "from gaugecert.lattice import _crt3\n"
        "print(inverse_mod(3, 7), _crt3((1, 3), (4, 5), (6, 7)))\n"
        "for call, exc in ((lambda: inverse_mod(6, 9), NoSolution), (lambda: _crt3((1, 3), (2, 6)), InternalCheckError)):\n"
        "    try:\n"
        "        print('accepted', call())\n"
        "    except exc as err:\n"
        "        print(err)\n"
    )
    assert out == "5 34\n6 is not invertible mod 9\nCRT moduli 3 and 6 are not coprime\n"


def test_poly_divmod():
    # (t^2 + 1)(t^3 - 2) + 3t - 1 by t^2 + 1, and a dividend below the divisor's degree
    assert poly_divmod([-3, 3, -2, 1, 0, 1], [1, 0, 1]) == ([-2, 0, 0, 1], [-1, 3])
    assert poly_divmod([4], [1, 0, 1]) == ([], [4])
    with pytest.raises(InternalCheckError, match="not monic"):
        poly_divmod([1, 2, 3], [1, 2])


def test_public_preconditions_hold_under_O():
    # each call broke a documented precondition that an assert used to guard
    out = _run_optimized(
        "from gaugecert import BadParameters, CycloElement, LaurentPoly, cyclotomic_poly\n"
        "from gaugecert.matutil import det_int\n"
        "calls = (lambda: det_int([[1, 2, 3], [4, 5, 6]]), lambda: LaurentPoly(((1, 2), (1, 3))),\n"
        "         lambda: CycloElement(5, (1, 2)), lambda: cyclotomic_poly(0))\n"
        "for call in calls:\n"
        "    try:\n"
        "        print('accepted', call())\n"
        "    except BadParameters:\n"
        "        print('refused')\n"
    )
    assert out == "refused\n" * 4


def test_galois_and_conjugation():
    x = CycloElement.zeta(7, 1) + CycloElement.zeta(7, 2).scale(3)
    assert x.conjugate().conjugate() == x
    # conjugation fixes rational elements
    r = CycloElement.from_rational(7, Fraction(5, 3))
    assert r.conjugate() == r
    # real elements are conjugation invariant: zeta + zeta^-1
    real = CycloElement.zeta(7, 1) + CycloElement.zeta(7, -1)
    assert real.conjugate() == real


# ---------------------------------------------------------------------------
# cotangent summands
# ---------------------------------------------------------------------------

def test_cot_cot_sin2_term_examples():
    # cot^2(pi/3) sin^2(pi/3) = (1/3)(3/4) = 1/4
    assert rational_extract(cyclo_make_cot_cot_sin2(3, 1, 1, 1)) == Fraction(1, 4)
    # cot(pi/2) = 0
    assert cyclo_make_cot_cot_sin2(2, 1, 1, 1).is_zero()
    # sin^2 factor vanishes for l = 0 mod a
    assert cyclo_make_cot_cot_sin2(7, 2, 3, 7).is_zero()
    assert cyclo_make_cot_cot_sin2(5, 1, 2, 10).is_zero()


def test_cot_cot_sin2_term_errors():
    with pytest.raises(BadParameters):
        cyclo_make_cot_cot_sin2(5, 0, 1, 1)
    with pytest.raises(BadParameters):
        cyclo_make_cot_cot_sin2(5, 5, 1, 1)
    with pytest.raises(BadParameters):
        cyclo_make_cot_cot_sin2(6, 1, 3, 1)


def test_rational_extract():
    assert rational_extract(CycloElement.from_rational(9, Fraction(7, 3))) == Fraction(7, 3)
    z = CycloElement.zero(5)
    for k in range(1, 5):
        z = z + CycloElement.zeta(5, k)
    assert rational_extract(z) == -1
    with pytest.raises(NonRational):
        rational_extract(CycloElement.zeta(5, 1))


def test_term_sum_matches_engine():
    # the per-term cyclotomic route and the convolution engine are
    # independent exact paths; they must agree term-sum for term-sum
    for a in range(2, 25):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            for l in (1, b, a - 1):
                total = CycloElement.zero(a)
                for k in range(1, a):
                    total = total + cyclo_make_cot_cot_sin2(a, k, b, l)
                assert rational_extract(total) == cot_cot_sin2_sum(a, b, l)


def test_engine_trivial_cases():
    assert cot_cot_sin2_sum(2, 1, 1) == 0
    assert cot_cot_sin2_sum(9, 2, 0) == 0
    with pytest.raises(BadParameters):
        cot_cot_sin2_sum(6, 2, 1)


def test_engine_matches_sawtooth_oracle():
    # the O(log a) floor-sum route against the direct O(a) sawtooth sum,
    # for the convolution values E(m) and for the whole sum
    rng = random.Random(17)
    checked = 0
    while checked < 300:
        a = rng.randint(2, 2000)
        b = rng.randint(-3 * a, 3 * a)
        if gcd(a, b) != 1:
            continue
        l = rng.choice([rng.randint(-3 * a, -1), rng.randint(a, 3 * a)])
        c = pow(b, -1, a)
        for m in (0, l):
            assert _sawtooth_convolution(a, c, m) == sawtooth_convolution(a, c, m), (a, b, m)
        assert cot_cot_sin2_sum(a, b, l) == sawtooth_sum(a, b, l), (a, b, l)
        checked += 1
    for a, b, l in ((100003, 3, 5), (300007, -7, 300010)):
        assert cot_cot_sin2_sum(a, b, l) == sawtooth_sum(a, b, l), (a, b, l)


def test_engine_large_order_closed_form():
    # Neumann-Zagier: (2/a) S(a, c, 1) = 2 c*/a - 1 with c c* = -1 mod a
    from gaugecert import nz_closed_form

    for a, c in ((10**12 + 39, 3), (10**12 + 39, -10**6), (2**89 - 1, 5**20)):
        assert Fraction(2, a) * cot_cot_sin2_sum(a, c, 1) == nz_closed_form(a, c)


def test_engine_evenness_check(monkeypatch):
    import gaugecert.exactnum as ex

    # a memo entry for (7, 2, 3) would answer without reaching the kernel
    ex._cot_cot_sin2_sum.cache_clear()
    monkeypatch.setattr(ex, "_sawtooth_convolution", lambda a, c, m: m)
    with pytest.raises(InternalCheckError):
        ex.cot_cot_sin2_sum(7, 2, 3)
    assert ex._cot_cot_sin2_sum.cache_info().currsize == 0  # a failed check leaves no entry


# ---------------------------------------------------------------------------
# the memo of cotangent sums
# ---------------------------------------------------------------------------

def test_memo_is_keyed_on_reduced_arguments():
    from gaugecert.exactnum import _cot_cot_sin2_sum as memo

    memo.cache_clear()
    a, b, l = 101, 7, 30
    values = {cot_cot_sin2_sum(*args) for args in ((a, b, l), (a, b + 3 * a, l - 2 * a), (a, b - a, l + a))}
    info = memo.cache_info()
    assert values == {sawtooth_sum(a, b, l)}
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)


def test_memo_is_bounded_and_recomputes_what_it_evicted():
    from gaugecert.exactnum import _cot_cot_sin2_sum as memo

    memo.cache_clear()
    rng = random.Random(29)
    keys = set()
    while len(keys) < 1500:
        a = rng.randint(2, 400)
        b, l = rng.randrange(1, a), rng.randrange(1, a)
        if gcd(a, b) == 1:
            keys.add((a, b, l))
    keys = sorted(keys)
    maxsize = memo.cache_info().maxsize
    assert maxsize == 1024
    expected = {}
    for i, key in enumerate(keys):
        expected[key] = cot_cot_sin2_sum(*key)
        assert memo.cache_info().currsize == min(i + 1, maxsize)
    # the last keys are warm, the first were evicted and are computed again
    warm, evicted = keys[-100:], keys[:100]
    hits = memo.cache_info().hits
    for key in warm:
        assert cot_cot_sin2_sum(*key) == expected[key]
    assert memo.cache_info().hits == hits + len(warm)
    misses = memo.cache_info().misses
    for key in evicted:
        assert cot_cot_sin2_sum(*key) == expected[key]
    assert memo.cache_info().misses == misses + len(evicted)
    assert memo.cache_info().currsize == maxsize
    for key in rng.sample(keys, 60) + warm[:20] + evicted[:20]:
        assert expected[key] == sawtooth_sum(*key), key


def test_memo_never_serves_a_refused_call():
    from gaugecert.exactnum import _cot_cot_sin2_sum as memo

    memo.cache_clear()
    for _ in range(2):
        for a, b, l in ((6, 2, 1), (6, 8, 7), (15, 5, 4), (0, 1, 1), (-3, 1, 1)):
            with pytest.raises(BadParameters):
                cot_cot_sin2_sum(a, b, l)
    # neither do the zero cases reach it: a = 1, and l = 0 mod a
    assert cot_cot_sin2_sum(1, 0, 5) == cot_cot_sin2_sum(9, 2, 18) == 0
    assert memo.cache_info().currsize == memo.cache_info().misses == memo.cache_info().hits == 0


# ---------------------------------------------------------------------------
# crt_solve
# ---------------------------------------------------------------------------

def _check_identity(moduli, d, bs):
    a = 1
    for m in moduli:
        a *= m
    assert sum(Fraction(b, m) for b, m in zip(bs, moduli)) * a == d
    for b, m in zip(bs, moduli):
        assert gcd(b, m) == 1 or m == 1


def test_crt_solve_examples():
    bs = crt_solve((2, 3, 5), 1)
    assert bs == (1, 1, -4)
    _check_identity((2, 3, 5), 1, bs)
    bs = crt_solve((2, 3, 11), 1)
    assert bs == (1, 1, -9)
    _check_identity((2, 3, 11), 1, bs)
    bs = crt_solve((3, 5, 83), 7)
    _check_identity((3, 5, 83), 7, bs)


def test_crt_solve_normalization():
    bs = crt_solve((3, 5, 83), 7)
    assert all(0 < b < m for b, m in zip(bs[:-1], (3, 5)))


def test_crt_solve_errors():
    with pytest.raises(NoSolution):
        crt_solve((2, 4, 5), 1)
    with pytest.raises(NoSolution):
        crt_solve((3, 5), 5)


def test_crt_solve_identity_grid():
    rng = random.Random(11)
    moduli_pool = [(2, 3, 5), (2, 3, 7), (3, 5, 7), (2, 5, 9), (3, 4, 5, 7), (5, 7, 11)]
    for moduli in moduli_pool:
        a = 1
        for m in moduli:
            a *= m
        for _ in range(10):
            d = rng.randint(1, 40)
            if gcd(d, a) != 1:
                continue
            _check_identity(moduli, d, crt_solve(moduli, d))


# ---------------------------------------------------------------------------
# Hirzebruch-Jung expansions
# ---------------------------------------------------------------------------

def test_hj_examples():
    assert hj_expand(3, 1).terms == (3,)
    assert hj_expand(7, 2).terms == (4, 2)
    assert hj_expand(11, 2).terms == (6, 2)


def _hj_value(terms) -> Fraction:
    # c_1 - 1/(c_2 - 1/(... - 1/c_m)), evaluated from the innermost term out
    v = Fraction(terms[-1])
    for c in reversed(terms[:-1]):
        v = c - 1 / v
    return v


def test_hj_roundtrip():
    for a in range(2, 121):
        for b in range(1, a):
            if gcd(a, b) == 1:
                exp = hj_expand(a, b)
                assert all(c >= 2 for c in exp.terms)
                assert _hj_value(exp.terms) == Fraction(a, b)
                assert continuants(exp.terms[::-1], [1] * (len(exp.terms) - 1))[-1] == a


def test_continuants_are_tridiagonal_minors():
    # D_k = d_k D_(k-1) - t_k^2 D_(k-2), against the integer determinants
    from gaugecert.matutil import det_int

    rng = random.Random(11)
    for m in range(1, 7):
        diag = [rng.randint(-5, 5) for _ in range(m)]
        off = [rng.randint(-3, 3) for _ in range(m - 1)]
        rows = [[diag[i] if i == j else off[min(i, j)] if abs(i - j) == 1 else 0 for j in range(m)] for i in range(m)]
        assert continuants(diag, off) == [det_int([row[:k] for row in rows[:k]]) for k in range(1, m + 1)]


def test_hj_expand_checks_continuants(monkeypatch):
    # the cross-check raises rather than asserts, so python -O keeps it
    import gaugecert.exactnum as ex

    monkeypatch.setattr(ex, "continuants", lambda diag, off: [2, 8])
    with pytest.raises(InternalCheckError, match="7/2"):
        hj_expand(7, 2)


def test_hj_errors():
    with pytest.raises(BadParameters):
        hj_expand(6, 3)
    with pytest.raises(BadParameters):
        hj_expand(5, 5)


def test_hj_expansion_must_evaluate_to_a_over_b():
    # [2, 2] is 3/2, whose plumbing has determinant 3, not 7
    from gaugecert.exactnum import HJExpansion

    assert HJExpansion(7, 2, (4, 2)) == hj_expand(7, 2)
    for terms in ((2, 2), (4,), (), (4, 2, 2)):
        with pytest.raises(BadParameters, match="do not evaluate to 7/2"):
            HJExpansion(7, 2, terms)


# ---------------------------------------------------------------------------
# float oracle
# ---------------------------------------------------------------------------

def _oracle_close(value, exact, tol=2.0**-64):
    import mpmath

    with mpmath.workprec(256):
        return abs(value - mpmath.mpf(exact.numerator) / exact.denominator) < tol


def test_oracle_spot_values():
    assert _oracle_close(float_oracle_sum(3, 1, 1), Fraction(2, 3), 2.0**-100)
    assert _oracle_close(float_oracle_sum(2, 1, 1), Fraction(0), 2.0**-100)
    assert _oracle_close(float_oracle_sum(5, 1, 1), Fraction(6, 5), 2.0**-100)


def test_oracle_vs_exact_random():
    rng = random.Random(13)
    for _ in range(60):
        a = rng.randint(2, 60)
        b = rng.choice([x for x in range(1, a) if gcd(x, a) == 1])
        l = rng.randint(0, a - 1)
        exact = Fraction(4, a) * cot_cot_sin2_sum(a, b, l)
        assert _oracle_close(float_oracle_sum(a, b, l), exact)


def test_oracle_precision_env(monkeypatch):
    monkeypatch.setenv(ORACLE_PREC_ENV, "192")
    assert _oracle_close(float_oracle_sum(7, 2, 3), Fraction(4, 7) * cot_cot_sin2_sum(7, 2, 3))
    # values below 128 bits are clamped up to the documented minimum
    monkeypatch.setenv(ORACLE_PREC_ENV, "16")
    assert _oracle_close(float_oracle_sum(3, 1, 1), Fraction(2, 3), 2.0**-100)


# ---------------------------------------------------------------------------
# printing rationals from integers
# ---------------------------------------------------------------------------

@given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
@example(0, 1)
@example(0, 7)
@example(-6, 4)
@example(12, 4)
@example(-10**30, 10**30)
def test_ratio_str_prints_as_fraction(n, d):
    # check-fs prints p_1, its tau bounds and its margin from integer pairs
    assert ratio_str(n, d) == str(Fraction(n, d))
