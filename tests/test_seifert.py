"""Seifert data bookkeeping: the d invariant, torus-knot surgery data,
holonomy, and the Z/2 cohomology condition."""

import subprocess
import sys
from math import gcd

import pytest

from gaugecert import (
    BadParameters,
    InternalCheckError,
    SeifertData,
    check_h1_z2,
    d_invariant,
    meridian_holonomy,
    torus_knot_surgery,
)


def test_d_invariant_examples():
    assert d_invariant(SeifertData(((2, 1), (3, 1), (5, -4)))) == 1
    assert d_invariant(SeifertData(((3, 1), (5, -2), (83, 6)))) == 7
    assert d_invariant(SeifertData(((2, 1), (3, -1), (7, -1)))) == 1


def test_validation():
    with pytest.raises(BadParameters):
        SeifertData(((4, 2),))
    with pytest.raises(BadParameters):
        SeifertData(((0, 1),))
    with pytest.raises(BadParameters, match="^b_i must be an int, not float"):
        SeifertData(((2, 1), (3, 1), (5, -4.9)))  # refused, not truncated to (5, -4)


def test_reversal():
    S = SeifertData(((2, 1), (3, -1)))
    assert d_invariant(S.reversed()) == -d_invariant(S)
    assert S.reversed().reversed() == S


def test_torus_knot_surgery_examples():
    assert torus_knot_surgery(3, 5, 7, 6).pairs == ((3, 1), (5, -2), (83, 6))
    # d-invariant is 1 for the (2, 3) family regardless of n
    for k in (1, 2, 5):
        S = torus_knot_surgery(2, 3, 1, k)
        assert S.pairs[2] == (6 * k - 1, k)
        assert d_invariant(S) == 1
    with pytest.raises(BadParameters):
        torus_knot_surgery(3, 5, 7, 0)
    with pytest.raises(BadParameters):
        torus_knot_surgery(3, 5, 7, -2)
    with pytest.raises(BadParameters):
        torus_knot_surgery(4, 6, 1, 3)


def test_torus_knot_surgery_d_check(monkeypatch):
    import gaugecert.seifert as seifert

    monkeypatch.setattr(seifert, "d_invariant", lambda S: 0)
    with pytest.raises(InternalCheckError):
        torus_knot_surgery(3, 5, 7, 6)


def test_torus_knot_surgery_bezout_check_under_O():
    # a wrong inverse breaks p s + r q = -1; the check must fire before the
    # later d check, also under python -O, which strips asserts
    code = (
        "import gaugecert.seifert as seifert\n"
        "seifert.inverse_mod = lambda x, m: 0\n"
        "try:\n"
        "    seifert.torus_knot_surgery(3, 5, 7, 6)\n"
        "except seifert.InternalCheckError as exc:\n"
        "    print(exc)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("p s + r q = ")
    assert ", not -1, at (p, q, r) = (3, 5, 0)" in r.stdout


def test_torus_knot_surgery_d_grid():
    for p in range(2, 12):
        for q in range(p + 1, 12):
            if gcd(p, q) != 1:
                continue
            for d in range(1, 14):
                for n in range(1, 51, 7):
                    if gcd(d, n) == 1 and p * q * n - d > n:
                        assert d_invariant(torus_knot_surgery(p, q, d, n)) == d


def test_meridian_holonomy():
    assert meridian_holonomy(3, 1) == 2
    assert meridian_holonomy(83, 6) == 77
    assert meridian_holonomy(2, 1) == 1
    for a in range(2, 40):
        for b in range(1, a):
            if gcd(a, b) == 1:
                assert gcd(meridian_holonomy(a, b), a) == 1


def test_check_h1_z2():
    assert check_h1_z2(SeifertData(((2, 1), (3, 1), (5, -4))))
    assert not check_h1_z2(SeifertData(((2, 1), (4, 1), (5, 2))))
    assert check_h1_z2(SeifertData(((3, 1), (5, -2), (83, 6))))
