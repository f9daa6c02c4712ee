"""Index formulas: the general boundary-sum expression (an oracle in the
tests) against R, K coefficients, and the two (always cross-checked)
Seifert forms."""

import random
from fractions import Fraction
from math import gcd

import pytest

from gaugecert import (
    Degenerate,
    LensSpace,
    NotHomologySphere,
    SeifertData,
    d_invariant,
    ind_plus_seifert_qhs,
    k_coefficients,
    meridian_holonomy,
    r_invariant,
    rho_lens,
    torus_knot_surgery,
)

from oracles import crt_solve, ind_plus_general


def test_ind_plus_general_sigma_2_3_11():
    # boundary rho values assembled from the lens transfers; the strand
    # over (a, b) contributes the reverse of the -a/b surgery piece
    def strand_rho(a, b):
        return -rho_lens(LensSpace(a, b), meridian_holonomy(a, b % a))

    pairs = ((2, 1), (3, 1), (11, -9))
    terms = [(1, strand_rho(a, b)) for a, b in pairs]
    assert ind_plus_general(Fraction(1, 66), terms) == 1 == r_invariant(SeifertData(pairs))


def test_k_coefficients():
    assert k_coefficients(SeifertData(((2, 1), (3, 1), (5, -4)))) == (0, 0, 1)
    assert k_coefficients(SeifertData(((3, 1), (5, -2), (83, 6)))) == (0, 1, 0)
    assert k_coefficients(SeifertData(((2, 1), (3, -1), (7, -1)))) == (0, 1, 1)
    with pytest.raises(Degenerate):
        k_coefficients(SeifertData(((1, 1), (2, 1))))


def test_k_coefficient_window():
    rng = random.Random(3)
    for _ in range(50):
        a = rng.randint(2, 120)
        b = rng.choice([x for x in range(-3 * a, 3 * a) if gcd(x, a) == 1])
        (k,) = k_coefficients(SeifertData(((a, b),)))
        assert 0 < b + k * a < a


def test_r_invariant_values():
    assert r_invariant(SeifertData(((2, 1), (3, 1), (5, -4)))) == 1
    assert r_invariant(SeifertData(((2, 1), (3, 1), (11, -9)))) == 1
    assert r_invariant(SeifertData(((2, 1), (3, -1), (7, -1)))) == -1
    with pytest.raises(NotHomologySphere):
        r_invariant(SeifertData(((3, 1), (5, -2), (83, 6))))


def test_ind_plus_seifert_examples():
    assert ind_plus_seifert_qhs(SeifertData(((3, 1), (5, -2), (83, 6)))) == 1
    assert ind_plus_seifert_qhs(SeifertData(((2, 1), (3, 1), (5, -4)))) == 1
    with pytest.raises(NotHomologySphere):
        ind_plus_seifert_qhs(SeifertData(((2, 1), (3, 1), (5, -4))).reversed())


def test_torus_surgery_index_is_one():
    for p, q in ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7)):
        for d in (1, 3, 7, 11):
            for n in (1, 2, 3, 6, 10):
                if gcd(d, n) == 1 and p * q * n - d > n:
                    assert ind_plus_seifert_qhs(torus_knot_surgery(p, q, d, n)) == 1


def test_b_choice_invariance():
    # any coefficient vector with the same d gives the same index
    for moduli, d in (((2, 3, 5), 1), ((3, 5, 7), 4), ((2, 5, 9), 7), ((3, 5, 83), 7)):
        base = crt_solve(moduli, d)
        S0 = SeifertData(tuple(zip(moduli, base)))
        ref = ind_plus_seifert_qhs(S0)
        for i in range(len(moduli)):
            for j in range(len(moduli)):
                if i == j:
                    continue
                variant = list(base)
                variant[i] += moduli[i]
                variant[j] -= moduli[j]
                S = SeifertData(tuple(zip(moduli, variant)))
                assert d_invariant(S) == d
                assert ind_plus_seifert_qhs(S) == ref


def test_furuta_family_positive():
    # R(p, q, pqk - 1) > 0; full grid in the acceptance suite
    for p, q in ((2, 3), (3, 5), (2, 7)):
        for k in (1, 2, 3):
            a3 = p * q * k - 1
            bs = crt_solve((p, q, a3), 1)
            assert r_invariant(SeifertData(tuple(zip((p, q, a3), bs)))) > 0
