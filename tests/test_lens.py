"""Lens space invariants: rho values, the closed-form identity, symmetry
and reindexing properties, Chern-Simons value sets."""

from fractions import Fraction
from math import gcd

import pytest

from gaugecert import (
    BadParameters,
    LensSpace,
    cot_cot_sin2_sum,
    lens_bound,
    nz_closed_form,
    rho_lens,
)


def test_lens_normalization():
    L = LensSpace(11, -2)
    assert (L.a, L.b) == (11, 9)
    assert LensSpace(5, 7).b == 2
    with pytest.raises(BadParameters):
        LensSpace(6, 3)
    with pytest.raises(BadParameters):
        LensSpace(1, 1)


def test_rho_examples():
    assert rho_lens(LensSpace(3, 1), 1) == Fraction(2, 3)
    assert rho_lens(LensSpace(2, 1), 1) == 0
    assert rho_lens(LensSpace(7, 3), 0) == 0
    assert rho_lens(LensSpace(5, 1), 1) == Fraction(6, 5)


def test_rho_symmetry_in_l():
    for a in range(2, 61):
        for b in range(1, a):
            if gcd(a, b) == 1:
                L = LensSpace(a, b)
                for l in (1, 2, a // 2):
                    assert rho_lens(L, l) == rho_lens(L, a - l)


def test_rho_reindexing_identity():
    # rho(L(a,b), l=b) = 2(a - 2b)/a with b normalized into (0, a)
    for a in range(2, 101):
        for b in range(1, a):
            if gcd(a, b) == 1:
                assert rho_lens(LensSpace(a, b), b) == Fraction(2 * (a - 2 * b), a)


def test_nz_examples():
    assert nz_closed_form(5, 2) == Fraction(-1, 5)
    assert nz_closed_form(3, 1) == Fraction(1, 3)
    for a in range(3, 40):
        assert nz_closed_form(a, a - 1) == Fraction(2, a) - 1


def test_nz_identity_small_grid():
    # the full a <= 200 grid is in the acceptance suite
    for a in range(2, 61):
        for c in range(1, a):
            if gcd(a, c) == 1:
                exact = Fraction(2, a) * cot_cot_sin2_sum(a, c, 1)
                assert exact == nz_closed_form(a, c)


def test_cs_values():
    # Chern-Simons values on L(a, b) mod 4 lie in (4/a)Z, so tau >= 4/a
    assert lens_bound(LensSpace(2, 1).a) == (4, 2)
    assert lens_bound(LensSpace(11, -2).a) == (4, 11)
    assert lens_bound(LensSpace(3, 1).a) == (4, 3)
    assert lens_bound(LensSpace(7, 2).a) == (4, 7)
