"""tau lower bounds as integer pairs, the range the tau-bound verb checks on
them, and the Chern-Simons values of Brieskorn spheres behind the Seifert
rule, against Brieskorn's signature count."""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

import gaugecert.cli as cli
from gaugecert import (
    BadParameters,
    HypothesisFailed,
    LensSpace,
    SeifertData,
    d_invariant,
    denominator_bound,
    lens_bound,
    seifert_bound,
)
from gaugecert.exactnum import ratio_str

from oracles import brieskorn_cs, brieskorn_signature, crt_solve, flat_su2_reps


def test_denominator_bounds():
    assert denominator_bound(66) == (1, 66)
    assert denominator_bound(1) == (1, 1)
    assert denominator_bound(24) == (1, 24)
    for k in (0, -3):
        with pytest.raises(BadParameters, match="denominator must be a positive integer"):
            denominator_bound(k)


def test_lens_bounds():
    assert lens_bound(LensSpace(2, 1).a) == (4, 2)
    assert lens_bound(LensSpace(11, 9).a) == (4, 11)
    assert lens_bound(LensSpace(3, 1).a) == (4, 3)
    for a in (1, 0, -5):
        with pytest.raises(BadParameters, match="at least 2"):
            lens_bound(a)


def test_seifert_bounds():
    S = SeifertData(((3, 1), (5, -2), (83, 6)))  # a = 1245, d = 7
    assert seifert_bound(S.a_product, d_invariant(S)) == (1, 1245)
    S235 = SeifertData(((2, 1), (3, 1), (5, -4)))  # a = 30, d = 1
    assert seifert_bound(S235.a_product, d_invariant(S235)) == (1, 30)
    S = SeifertData(((3, 10), (5, 1)))  # a = 15, d = 53 > a
    assert seifert_bound(S.a_product, d_invariant(S)) == (1, 53)
    for d in (8, 0, -1, -7):  # d = 8 is (3,1), (5,1); even or not positive
        with pytest.raises(HypothesisFailed, match=f"need d odd and positive, got d = {d}"):
            seifert_bound(15, d)
    with pytest.raises(BadParameters):
        seifert_bound(0, 1)


def test_bound_range_invariant(capsys, monkeypatch):
    # each rule refuses the integers that would put its bound outside (0, 4],
    # so a pair outside it is an internal failure of the verb (exit status 3)
    for num, den in ((5, 1), (0, 1), (-1, 3), (17, 4)):
        monkeypatch.setattr(cli, "denominator_bound", lambda k, pair=(num, den): pair)
        assert cli.main(["tau-bound", "--denominator", "7"]) == 3
        assert "outside (0, 4]" in capsys.readouterr().err
    monkeypatch.setattr(cli, "denominator_bound", lambda k: (4, 1))
    assert cli.main(["--format", "text", "tau-bound", "--denominator", "7"]) == 0
    assert capsys.readouterr().out == "tau >= 4 (denominator 7)\n"


# a float's value is not the one written (0.1 is 3602879701896397/2^55), and
# a bool is not a number
NOT_EXACT = [0.1, 0.5, True, False, "1/2", None]


@pytest.mark.parametrize("value", NOT_EXACT)
def test_exact_values_only(value):
    calls = [
        (denominator_bound, "denominator"),
        (lens_bound, "a"),
        (lambda x: seifert_bound(x, 1), "a"),
        (lambda x: seifert_bound(15, x), "d"),
    ]
    for call, name in calls:
        with pytest.raises(BadParameters, match=f"^{name} must be an int, not {type(value).__name__}$"):
            call(value)


def test_exact_values_kept():
    # the pairs hold the ints given, and the verb prints them as their Fraction
    big = 10**30 + 1
    assert denominator_bound(big)[1] is big
    assert lens_bound(big)[1] is big
    assert seifert_bound(big, 3)[1] is big and seifert_bound(3, big)[1] is big
    for pair in (denominator_bound(24), lens_bound(2), lens_bound(12), seifert_bound(15, 53)):
        assert all(type(x) is int for x in pair)
        assert ratio_str(*pair) == str(Fraction(*pair))


def test_sfqhs_inequality_suite():
    # for hypothesis-passing family data, p_1 is strictly below every
    # member of the displayed minimum set
    cases = [(3, 5, 7, (6, 48, 342)), (3, 5, 1, (2, 4, 8)), (3, 7, 5, (2, 10, 52)), (5, 7, 3, (2, 8, 26))]
    for p, q, d, ns in cases:
        pq = p * q
        n_last = ns[-1]
        p1 = Fraction(d, pq * (pq * n_last - d))
        assert p1 < Fraction(1, d)
        assert p1 < Fraction(1, p)
        assert p1 < Fraction(1, q)
        for n_i in ns[:-1]:
            assert p1 < Fraction(*seifert_bound(pq * (pq * n_i - d), d))


# pairwise coprime triples 2 <= a1 < a2 < a3 <= 13, and two larger ones
TRIPLES = [t for t in combinations(range(2, 14), 3) if all(gcd(x, y) == 1 for x, y in combinations(t, 2))]
TRIPLES += [(2, 3, 25), (13, 17, 19)]


def test_flat_reps_count_matches_signature():
    # Fintushel-Stern: every representation is nondegenerate, so Casson's
    # invariant is -#R*/2, and it is sigma/8 of the Milnor fiber
    assert len(TRIPLES) > 60
    for t in TRIPLES:
        sigma = brieskorn_signature(*t)
        assert sigma % 8 == 0 and len(flat_su2_reps(*t)) == -sigma // 4, t
    assert brieskorn_signature(2, 3, 5) == -8 and len(flat_su2_reps(13, 17, 19)) == 346


def test_brieskorn_known_values():
    assert sorted(cs for _, cs in flat_su2_reps(2, 3, 5)) == [Fraction(-49, 120), Fraction(-1, 120)]
    assert sorted(cs for _, cs in flat_su2_reps(2, 3, 7)) == [Fraction(-121, 168), Fraction(-25, 168)]


def test_cs_denominator_divides_a():
    # 4 cs, the library's mod-4 normalization, has denominator dividing
    # a = a1 a2 a3: the d = 1 claim behind tau >= 1/a
    for t in TRIPLES:
        a = t[0] * t[1] * t[2]
        S = SeifertData(tuple(zip(t, crt_solve(t))))
        assert d_invariant(S) == 1 and seifert_bound(S.a_product, 1) == (1, a)
        for _, cs in flat_su2_reps(*t):
            assert a % (4 * cs).denominator == 0, (t, cs)


def test_cs_value_independent_of_signs():
    # flipping term j of e = sum +-t_i changes e^2 by -4 t_j sum_{i != j} t_i,
    # and a divides each t_i t_j, so e^2 mod 4a is unchanged
    for t in TRIPLES[:20] + TRIPLES[-2:]:
        for l, cs in flat_su2_reps(*t):
            assert {brieskorn_cs(t, l, signs) for signs in product((1, -1), repeat=3)} == {cs}, (t, l)

