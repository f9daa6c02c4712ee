"""Chern-Simons denominator arithmetic and the compactness margin.

tau(Y, alpha) is the minimal relative Chern-Simons value mod 4, in (0, 4],
over flat connections on Y; tau-hat is the minimum over boundary
components and controls compactness of the instanton moduli space through
the strict inequality p_1 < tau-hat.  tau is never computed exactly here
-- that would require enumerating the flat moduli space -- only bounded
below, and every bound is labeled as such:

* if all flat-connection Chern-Simons values on a component are rationals
  with denominator dividing k, then tau >= 1/k (fractional-part bound);
* on a lens space L(a, b) every value mod 4 lies in (4/a) Z, so
  tau >= 4/a;
* on a Seifert rational homology sphere with d odd and positive,
  irreducible flat connections have denominator a = a_1...a_n and
  reducible ones denominator d, so tau >= min(1/a, 1/d) = 1/max(a, d),
  one Fraction after a minimum taken in integers.

Components that are neither lens spaces nor Seifert fibered (for example
surgeries on genuinely knotted strands) need a user-supplied
:class:`CsDenominatorProfile` with a provenance string; the bound is then
1/lcm over the guaranteed denominators.  A bound or a charge p_1 is an
int that is not a bool, or a Fraction kept as given; anything else, a
float or a bool, raises :class:`BadParameters`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BadParameters, EmptyBoundary, HypothesisFailed, NegativeCharge
from .exactnum import exact_rational
from .lens import LensSpace
from .seifert import SeifertData, d_invariant

__all__ = [
    "CsDenominatorProfile",
    "TauBound",
    "compactness_margin",
    "tau_hat",
    "tau_lower_from_denominator",
    "tau_lower_from_profile",
    "tau_lower_lens",
    "tau_lower_seifert",
]


@dataclass(frozen=True)
class TauBound:
    """A certified lower bound for tau, always in (0, 4]."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", exact_rational(self.value, "tau bound"))
        if not 0 < self.value.numerator <= 4 * self.value.denominator:
            raise BadParameters(f"tau bound {self.value} outside (0, 4]")


@dataclass(frozen=True)
class CsDenominatorProfile:
    """Guaranteed denominators of flat-connection Chern-Simons values on one
    boundary component: every value is a rational whose denominator divides
    some member of ``guaranteed_denominators``.

    Every profile carries a provenance string saying where the
    denominators come from; that string is copied verbatim into reports.
    """

    component: str
    guaranteed_denominators: frozenset[int]
    provenance: str

    def __post_init__(self) -> None:
        denoms = frozenset(map(operator.index, self.guaranteed_denominators))
        if not denoms or any(k < 1 for k in denoms):
            raise BadParameters("denominators must be positive integers")
        if not self.provenance:
            raise BadParameters("denominator profiles require a provenance string")
        object.__setattr__(self, "guaranteed_denominators", denoms)


def tau_lower_from_denominator(k: int) -> TauBound:
    """tau >= 1/k when all relevant Chern-Simons values have denominator
    dividing k (differences of such values have fractional part 0 or >= 1/k,
    and the relative value of a non-flat-cobordant pair is nonzero mod 1)."""
    if k < 1:
        raise BadParameters("denominator must be a positive integer")
    return TauBound(Fraction(1, k))


def tau_lower_from_profile(profile: CsDenominatorProfile) -> TauBound:
    """tau >= 1/lcm of the guaranteed denominators (differences of fractions
    with denominators k1, k2 have denominator dividing lcm(k1, k2))."""
    return tau_lower_from_denominator(lcm(*profile.guaranteed_denominators))


def tau_lower_lens(L: LensSpace) -> TauBound:
    """tau(L(a, b)) >= 4/a: Chern-Simons values mod 4 lie in (4/a) Z."""
    return TauBound(Fraction(4, L.a))


def tau_lower_seifert(S: SeifertData) -> TauBound:
    """tau >= min(1/a, 1/d) for a Seifert rational homology sphere with
    d odd and positive (irreducible denominators divide a = a_1...a_n,
    reducible ones divide d)."""
    d = d_invariant(S)
    if d <= 0 or d % 2 == 0:
        raise HypothesisFailed(f"need d odd and positive, got d = {d}")
    return TauBound(Fraction(1, max(S.a_product, d)))


def tau_hat(bounds: list[TauBound] | tuple[TauBound, ...]) -> TauBound:
    """tau-hat >= min of the per-component bounds; monotone under adding
    components."""
    if not bounds:
        raise EmptyBoundary("tau-hat over an empty boundary")
    return TauBound(min(b.value for b in bounds))


def compactness_margin(p1: Fraction, tau: TauBound) -> Fraction:
    """tau.value - p1.  A strictly positive margin certifies the
    compactness hypothesis 0 <= p_1 < tau-hat; zero or negative does not."""
    p1 = exact_rational(p1, "p_1")
    if p1.numerator < 0:
        raise NegativeCharge(f"p_1 = {p1} < 0")
    return tau.value - p1
