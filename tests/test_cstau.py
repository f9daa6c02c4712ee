"""tau lower bounds and the exact values they take."""

from fractions import Fraction

import pytest

from gaugecert import (
    BadParameters,
    HypothesisFailed,
    LensSpace,
    SeifertData,
    TauBound,
    tau_lower_from_denominator,
    tau_lower_lens,
    tau_lower_seifert,
)


def test_denominator_bounds():
    assert tau_lower_from_denominator(66).value == Fraction(1, 66)
    assert tau_lower_from_denominator(1).value == 1
    assert tau_lower_from_denominator(24).value == Fraction(1, 24)
    with pytest.raises(BadParameters):
        tau_lower_from_denominator(0)


def test_lens_bounds():
    assert tau_lower_lens(LensSpace(2, 1)).value == 2
    assert tau_lower_lens(LensSpace(11, 9)).value == Fraction(4, 11)
    assert tau_lower_lens(LensSpace(3, 1)).value == Fraction(4, 3)


def test_seifert_bounds():
    S = SeifertData(((3, 1), (5, -2), (83, 6)))  # a = 1245, d = 7
    assert tau_lower_seifert(S).value == Fraction(1, 1245)
    S235 = SeifertData(((2, 1), (3, 1), (5, -4)))  # a = 30, d = 1
    assert tau_lower_seifert(S235).value == Fraction(1, 30)
    with pytest.raises(HypothesisFailed):
        tau_lower_seifert(SeifertData(((3, 1), (5, 1))))  # d = 8 even


def test_bound_range_invariant():
    with pytest.raises(BadParameters):
        TauBound(Fraction(5))
    with pytest.raises(BadParameters):
        TauBound(Fraction(0))
    assert TauBound(4).value == 4
    # a bound is only ever a lower bound, so its value is all it holds
    with pytest.raises(TypeError):
        TauBound(Fraction(1, 3), kind="exact")


# a float's value is not the one written (0.1 is 3602879701896397/2^55), and
# a bool is not a number
NOT_EXACT = [0.1, 0.5, True, False, "1/2", None]


@pytest.mark.parametrize("value", NOT_EXACT)
def test_exact_values_only(value):
    with pytest.raises(BadParameters, match="tau bound must be an int or a Fraction"):
        TauBound(value)


def test_exact_values_kept():
    third = Fraction(1, 3)
    assert TauBound(third).value is third
    assert TauBound(2).value == 2 and type(TauBound(2).value) is Fraction


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
            assert p1 < Fraction(1, pq * (pq * n_i - d))
