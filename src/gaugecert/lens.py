"""Lens space invariants.

Conventions.  L(a, b) is the oriented lens space obtained by -a/b surgery
on the unknot, a >= 2, gcd(a, b) = 1, with b normalized into (0, a) at
construction (inputs like L(11, -2) are accepted and normalized, here to
L(11, 9); callers that need traceability record the raw input themselves).
The meridian mu of the unknot generates pi_1 = Z/a.

For the flat SO(2) connection beta sending mu to the rotation by angle
2 pi l / a, the Atiyah-Patodi-Singer rho invariant is the exact rational

    rho(L(a,b), l) = (4/a) sum_{k=1}^{a-1} cot(pi k/a) cot(pi k b/a)
                                           sin^2(pi k l/a),

and rho of the reducible SO(3) connection beta (+) trivial equals rho of
its SO(2) part, so only the SO(2) computation is exposed.  It is built as
one Fraction from the numerator and denominator of the sum, which lies in
(1/2a) Z, so rho lies in (2/a^2) Z.

The Neumann-Zagier identity evaluates the l = 1 specialization in closed
form:  (2/a) sum_k cot(pi k c/a) cot(pi k/a) sin^2(pi k/a) = 2 c*/a - 1
where 0 < c* < a and c c* = -1 mod a.

Chern-Simons invariants of flat connections on L(a, b), taken mod 4, all
lie in (4/a) Z, giving the compactness bound tau(L(a,b)) >= 4/a
(:func:`gaugecert.cstau.lens_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import BadParameters, InternalCheckError
from .exactnum import cot_cot_sin2_sum, exact_int, inverse_mod

__all__ = ["LensSpace", "nz_closed_form", "rho_lens", "rho_lens_parts"]


@dataclass(frozen=True)
class LensSpace:
    """L(a, b) = -a/b surgery on the unknot; b stored in (0, a)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if exact_int(self.a, "a") < 2:
            raise BadParameters("lens space order a must be at least 2")
        if gcd(self.a, exact_int(self.b, "b")) != 1:
            raise BadParameters(f"gcd({self.a}, {self.b}) != 1")
        object.__setattr__(self, "b", self.b % self.a)

    def __str__(self) -> str:
        return f"L({self.a},{self.b})"


def rho_lens(L: LensSpace, l: int) -> Fraction:
    """Exact rho invariant of the flat SO(2) connection with holonomy
    mu -> exp(2 pi i l / a) on L(a, b); l is an int, reduced mod a."""
    return Fraction(*rho_lens_parts(L.a, L.b, l))


def rho_lens_parts(a: int, b: int, l: int) -> tuple[int, int]:
    """rho(L(a, b), l) as (num, den), den > 0, not reduced, for a checked pair (a, b)."""
    s = cot_cot_sin2_sum(a, b, l)
    return 4 * s.numerator, a * s.denominator


def nz_closed_form(a: int, c: int) -> Fraction:
    """2 c*/a - 1 for the unique 0 < c* < a with c c* = -1 mod a.

    Equals (2/a) sum_{k=1}^{a-1} cot(pi k c/a) cot(pi k/a) sin^2(pi k/a)
    for gcd(a, c) = 1; the agreement with the exact sum is part of the
    acceptance suite.
    """
    if exact_int(a, "a") < 2:
        raise BadParameters("need a >= 2")
    if gcd(a, exact_int(c, "c")) != 1:
        raise BadParameters(f"gcd({a}, {c}) != 1")
    cstar = (-inverse_mod(c % a, a)) % a
    if not 0 < cstar < a or (c * cstar) % a != a - 1:
        raise InternalCheckError(f"c* = {cstar} is not -1/{c} mod {a} in (0, {a})")
    return Fraction(2 * cstar - a, a)
