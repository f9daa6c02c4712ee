"""One integer-input rule for the public API: every integer argument of a
public constructor or function is an int that is not a bool, read in by
:func:`gaugecert.exactnum.exact_int`.  ``True``, ``1.0`` and ``1.5`` in
place of each one raise :class:`BadParameters` naming the argument; none is
read as 1 or cut down to an integer.

Each case first makes the call with a valid value, so that a memo keyed on
it (``True == 1`` and they hash alike) cannot answer the bad call without
its check.
"""

import re
from fractions import Fraction

import pytest

from gaugecert import (
    KNOT_CATALOG,
    BadParameters,
    CeProblem,
    CycloElement,
    GramForm,
    HJExpansion,
    LaurentPoly,
    LensSpace,
    Restriction,
    SeifertData,
    SeifertMatrix,
    Strand,
    check_sfqhs_family,
    cot_cot_sin2_sum,
    cyclotomic_poly,
    denominator_bound,
    detect_orthogonal_split,
    hj_expand,
    lens_bound,
    lt_signature,
    meridian_holonomy,
    nondegenerate_at,
    nz_closed_form,
    rho_lens,
    seifert_bound,
    sfqhs_reducible_count,
    torus_knot_surgery,
)
from gaugecert.exactnum import euler_phi
from gaugecert.matutil import det_int

G = GramForm(1, ((-1,),))
L = LensSpace(5, 2)
V = KNOT_CATALOG["trefoil"]
P = LaurentPoly(((-1, 1), (0, -1), (1, 1)))
FAMILY = (3, 5, 7, (6, 48))
TORUS = (3, 5, 7, 6)


def _put(args, i, x):
    return (*args[:i], x, *args[i + 1 :])


# id: (the call with the integer argument x, a valid x, how the refusal begins)
CASES = {
    "SeifertData a_i": (lambda x: SeifertData(((2, 1), (3, 1), (x, -4))), 5, "a_i"),
    "SeifertData b_i": (lambda x: SeifertData(((2, x), (3, 1), (5, -4))), 1, "b_i"),
    "GramForm rank": (lambda x: GramForm(x, ((-1,),)), 1, "rank"),
    "GramForm scale": (lambda x: GramForm(1, ((-1,),), scale=x), 1, "scale"),
    "GramForm entry": (lambda x: GramForm(1, ((x,),)), 1, "gram entry"),
    "GramForm entry, scale 2": (lambda x: GramForm(1, ((x,),), scale=2), 1, "gram entry"),
    "Restriction modulus": (lambda x: Restriction(x, (1,)), 5, "modulus"),
    "Restriction row": (lambda x: Restriction(5, (x,)), 1, "row entry"),
    "CeProblem e": (lambda x: CeProblem(G, (x,)), 1, "e entry"),
    "detect_orthogonal_split e": (lambda x: detect_orthogonal_split(G, (x,)), 1, "e entry"),
    "SeifertMatrix entry": (lambda x: SeifertMatrix(((-1, x), (0, -1))), 1, "Seifert matrix entry"),
    "Strand a": (lambda x: Strand(x, 2), 3, "a"),
    "Strand b": (lambda x: Strand(3, x), 1, "b"),
    "Strand cs_denominators": (
        lambda x: Strand(3, -1, "figure8", cs_denominators=(24, x), provenance="fixture"),
        1,
        "strand 3/-1: Chern-Simons denominator",
    ),
    **{
        f"check_sfqhs_family {name}": (lambda x, i=i: check_sfqhs_family(*_put(FAMILY, i, x)), FAMILY[i], name)
        for i, name in enumerate("pqd")
    },
    "check_sfqhs_family n_list": (lambda x: check_sfqhs_family(3, 5, 7, (6, x)), 48, "n_list entry"),
    "LensSpace a": (lambda x: LensSpace(x, 2), 5, "a"),
    "LensSpace b": (lambda x: LensSpace(5, x), 1, "b"),
    "rho_lens l": (lambda x: rho_lens(L, x), 1, "l"),
    "nz_closed_form a": (lambda x: nz_closed_form(x, 2), 5, "a"),
    "nz_closed_form c": (lambda x: nz_closed_form(5, x), 1, "c"),
    "meridian_holonomy a": (lambda x: meridian_holonomy(x, 2), 5, "a"),
    "meridian_holonomy b": (lambda x: meridian_holonomy(5, x), 1, "b"),
    **{
        f"torus_knot_surgery {name}": (lambda x, i=i: torus_knot_surgery(*_put(TORUS, i, x)), TORUS[i], name)
        for i, name in enumerate("pqdn")
    },
    "hj_expand a": (lambda x: hj_expand(x, 2), 7, "a"),
    "hj_expand b": (lambda x: hj_expand(7, x), 1, "b"),
    "HJExpansion a": (lambda x: HJExpansion(x, 1, (7,)), 7, "a"),
    "HJExpansion b": (lambda x: HJExpansion(7, x, (7,)), 1, "b"),
    "HJExpansion terms": (lambda x: HJExpansion(7, 2, (4, x)), 2, "terms entry"),
    "cot_cot_sin2_sum a": (lambda x: cot_cot_sin2_sum(x, 2, 1), 5, "a"),
    "cot_cot_sin2_sum b": (lambda x: cot_cot_sin2_sum(5, x, 2), 1, "b"),
    "cot_cot_sin2_sum l": (lambda x: cot_cot_sin2_sum(5, 2, x), 1, "l"),
    "cyclotomic_poly": (cyclotomic_poly, 1, "cyclotomic order"),
    "euler_phi": (euler_phi, 1, "a"),
    "CycloElement.zeta exponent": (lambda x: CycloElement.zeta(5, x), 1, "exponent"),
    "lt_signature a": (lambda x: lt_signature(V, x, 1), 5, "a"),
    "lt_signature b": (lambda x: lt_signature(V, 5, x), 1, "b"),
    "nondegenerate_at a": (lambda x: nondegenerate_at(P, x, 1), 5, "a"),
    "nondegenerate_at b": (lambda x: nondegenerate_at(P, 5, x), 1, "b"),
    "denominator_bound": (denominator_bound, 1, "denominator"),
    "lens_bound": (lens_bound, 5, "a"),
    "seifert_bound a": (lambda x: seifert_bound(x, 7), 1245, "a"),
    "seifert_bound d": (lambda x: seifert_bound(1245, x), 7, "d"),
    **{
        f"sfqhs_reducible_count {name}": (
            lambda x, i=i: sfqhs_reducible_count(*_put((3, 5, 7, 48), i, x)),
            (3, 5, 7, 48)[i],
            name,
        )
        for i, name in enumerate(("p", "q", "d", "n_last"))
    },
    "LaurentPoly exponent": (lambda x: LaurentPoly(((x, 2),)), 1, "exponent"),
    "LaurentPoly coefficient": (lambda x: LaurentPoly(((0, x),)), 1, "coefficient"),
    "det_int": (lambda x: det_int([[x]]), 1, "matrix"),
}


@pytest.mark.parametrize("bad", [True, 1.0, 1.5], ids=["True", "1.0", "1.5"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_integer_arguments_refuse_bools_and_floats(case, bad):
    call, valid, name = CASES[case]
    call(valid)
    with pytest.raises(BadParameters, match=f"^{re.escape(name)} must be"):
        call(bad)


# rational arguments take an int (kept as an int, so Z[zeta_a] stays integral)
# or a Fraction; True is not 1, and 0.1 is not the rational written
RATIONAL_CASES = {
    "CycloElement.from_rational": (lambda x: CycloElement.from_rational(5, x), "rational value"),
    "CycloElement.scale": (lambda x: CycloElement.zeta(5).scale(x), "scale factor"),
}


@pytest.mark.parametrize("bad", [True, 0.1, 1.5], ids=["True", "0.1", "1.5"])
@pytest.mark.parametrize("case", sorted(RATIONAL_CASES))
def test_rational_arguments_refuse_bools_and_floats(case, bad):
    call, name = RATIONAL_CASES[case]
    assert all(type(c) is int for c in call(3).coeffs)
    assert Fraction(1, 3) in call(Fraction(1, 3)).coeffs
    with pytest.raises(BadParameters, match=f"^{re.escape(name)} must be"):
        call(bad)
