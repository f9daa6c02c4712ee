"""Index formulas for the deformation operator of an adapted bundle.

The general count, for a bundle over a 4-manifold X with b^+(X) = 0 and
non-degenerate flat limits alpha_i on its rational-homology-sphere
boundary pieces, is

    ind_plus = 2 p_1 - 3 + (1/2) sum over nontrivial alpha_i of (3 - h_i - rho_i).

This module never touches geometry and evaluates only the Seifert fibered
case below; a surgery configuration reads its index as R plus the strands'
signatures (see :mod:`gaugecert.obstruct` for the surgery transfer rule),
and the tests evaluate the general count from the transferred rho values
and compare it with R.

For the Seifert fibered case with pairs (a_i, b_i) and d > 0, the index of
the canonical reducible bundle has two expressions that must agree:

  trigonometric:  2d/a - 3 + n
                  + sum_i (2/a_i) sum_k cot(pi k/a_i) cot(pi k b_i/a_i)
                                        sin^2(pi k b_i/a_i)

  closed form:    2n - 3 - 2 sum_i K_i,   0 < b_i + K_i a_i < a_i.

:func:`r_invariant` and :func:`ind_plus_seifert_qhs` evaluate and compare
both; a disagreement raises :class:`ClosedFormMismatch` and means an
arithmetic bug, so the reduction is a permanent self-test rather than a
one-time proof.  For d = 1 this integer is the classical definite-bounding
obstruction R(a_1, ..., a_n).  Each strand's trigonometric term is the
lens rho invariant rho(L(a_i, b_i), b_i)/2, read once per strand as an
integer num/den of the pair S has checked (no LensSpace or Fraction), from
the one cotangent sum that a process computes and checks once while it
stays in the memo behind :func:`gaugecert.exactnum.cot_cot_sin2_sum`.  Each
such rho lies in (2/a_i^2) Z, so the forms are compared as an integer
identity, times 2A^2 (A = a_1...a_n), which a rho outside (1/A^2) Z fails.
check-fs reads its Ind+ as one :func:`r_invariant` call plus the strands'
signatures, so the two forms are compared here, on every call, and nowhere else.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ClosedFormMismatch, Degenerate, NotHomologySphere
from .lens import rho_lens_parts
from .seifert import SeifertData, d_invariant

__all__ = [
    "ind_plus_seifert_qhs",
    "index_closed_form",
    "k_coefficients",
    "r_invariant",
]


def k_coefficients(S: SeifertData) -> tuple[int, ...]:
    """The unique integers K_i with 0 < b_i + K_i a_i < a_i.

    Strands with a_i = 1 admit no such K and must be normalized away
    before calling; they raise :class:`Degenerate`.
    """
    out = []
    for a, b in S.pairs:
        if a == 1:
            raise Degenerate("strand with multiplicity 1 has no K coefficient")
        res = b % a  # in (0, a) since gcd(a, b) = 1 and a >= 2
        out.append((res - b) // a)
    return tuple(out)


def index_closed_form(S: SeifertData) -> int:
    """2n - 3 - 2 sum K_i: the closed form of the index, and R(a_1, ..., a_n)
    when d = 1.  Every a_i must be at least 2 (see :func:`k_coefficients`)."""
    return 2 * S.n - 3 - 2 * sum(k_coefficients(S))


def _ind_plus_both_forms(S: SeifertData, d: int) -> int:
    closed = index_closed_form(S)
    # twice the trigonometric form, so that each strand adds its lens rho as
    # is, times A^2: an integer when every rho's denominator divides A^2
    A, A2 = S.a_product, S.a_product ** 2
    rhos = [rho_lens_parts(a, b, b) for a, b in S.pairs]
    twice_trig = 4 * d * A + 2 * (S.n - 3) * A2 + sum(num * A2 // den for num, den in rhos)
    if any(num * A2 % den for num, den in rhos) or twice_trig != 2 * closed * A2:
        trig = (Fraction(4 * d, A) + 2 * (S.n - 3) + sum(Fraction(num, den) for num, den in rhos)) / 2
        raise ClosedFormMismatch(f"index transfer mismatch for {S}: trig {trig} vs closed {closed}")
    return closed


def r_invariant(S: SeifertData) -> int:
    """The definite-bounding obstruction R(a_1, ..., a_n) of an integer
    homology sphere: 2n - 3 - 2 sum K_i, compared on every call with the
    exact trigonometric form, whose sums come from a memo once computed."""
    d = d_invariant(S)
    if d != 1:
        raise NotHomologySphere(f"{S} has d = {d}, need d = 1")
    return _ind_plus_both_forms(S, 1)


def ind_plus_seifert_qhs(S: SeifertData) -> int:
    """Index of the canonical reducible bundle over the mapping-cylinder
    4-manifold of a Seifert rational homology sphere with d > 0; equals
    2n - 3 - 2 sum K_i, with the trigonometric form asserted equal."""
    d = d_invariant(S)
    if d <= 0:
        raise NotHomologySphere(f"{S} has d = {d}, need d > 0")
    return _ind_plus_both_forms(S, d)
