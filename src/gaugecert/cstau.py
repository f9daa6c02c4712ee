"""Chern-Simons denominator arithmetic.

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

A surgery on a genuinely knotted strand is neither: its denominators come
from the strand (user-supplied, with a provenance string, or from
:data:`gaugecert.obstruct.CS_DENOMINATOR_CATALOG`), and its bound is
1/lcm of them and a.  The 1/k and 4/a rules are written once, as integer
pairs (:func:`denominator_bound`, :func:`lens_bound`) that check-fs reads
with no object; the tau-bound verb wraps them in a :class:`TauBound`, which
takes an int that is not a bool or a Fraction and refuses anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, HypothesisFailed
from .exactnum import exact_int, exact_rational
from .lens import LensSpace
from .seifert import SeifertData, d_invariant

__all__ = [
    "TauBound",
    "tau_lower_from_denominator",
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


def denominator_bound(k: int) -> tuple[int, int]:
    """tau >= 1/k, as (1, k), when all relevant Chern-Simons values have denominator
    dividing k (differences of such values have fractional part 0 or >= 1/k,
    and the relative value of a non-flat-cobordant pair is nonzero mod 1)."""
    return 1, k


def lens_bound(a: int) -> tuple[int, int]:
    """tau(L(a, b)) >= 4/a, as (4, a): Chern-Simons values mod 4 lie in (4/a) Z."""
    return 4, a


def tau_lower_from_denominator(k: int) -> TauBound:
    """The bound 1/k of :func:`denominator_bound`, for an int k >= 1."""
    if exact_int(k, "denominator") < 1:
        raise BadParameters("denominator must be a positive integer")
    return TauBound(Fraction(*denominator_bound(k)))


def tau_lower_lens(L: LensSpace) -> TauBound:
    """The bound 4/a of :func:`lens_bound` for L = L(a, b)."""
    return TauBound(Fraction(*lens_bound(L.a)))


def tau_lower_seifert(S: SeifertData) -> TauBound:
    """tau >= min(1/a, 1/d) for a Seifert rational homology sphere with
    d odd and positive (irreducible denominators divide a = a_1...a_n,
    reducible ones divide d)."""
    d = d_invariant(S)
    if d <= 0 or d % 2 == 0:
        raise HypothesisFailed(f"need d odd and positive, got d = {d}")
    return TauBound(Fraction(1, max(S.a_product, d)))
