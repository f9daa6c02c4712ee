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
  reducible ones denominator d, so tau >= min(1/a, 1/d) = 1/max(a, d).

A surgery on a genuinely knotted strand is neither: its denominators come
from the strand (user-supplied, with a provenance string, or from
:data:`gaugecert.obstruct.CS_DENOMINATOR_CATALOG`), and its bound is
1/lcm of them and a.  Each rule is written once, as an integer pair
(num, den) read from ints by :func:`gaugecert.exactnum.exact_int`:
:func:`denominator_bound`, :func:`lens_bound` and :func:`seifert_bound`.
Each refuses the integers that would put its bound outside (0, 4];
check-fs, check-family and the tau-bound verb read the pairs with no
object, and the verb prints one with :func:`gaugecert.exactnum.ratio_str`.
"""

from __future__ import annotations

from .errors import BadParameters, HypothesisFailed
from .exactnum import exact_int

__all__ = ["denominator_bound", "lens_bound", "seifert_bound"]


def denominator_bound(k: int) -> tuple[int, int]:
    """tau >= 1/k, as (1, k), when all relevant Chern-Simons values have denominator
    dividing k (differences of such values have fractional part 0 or >= 1/k,
    and the relative value of a non-flat-cobordant pair is nonzero mod 1)."""
    if exact_int(k, "denominator") < 1:
        raise BadParameters("denominator must be a positive integer")
    return 1, k


def lens_bound(a: int) -> tuple[int, int]:
    """tau(L(a, b)) >= 4/a, as (4, a): Chern-Simons values mod 4 lie in (4/a) Z."""
    if exact_int(a, "a") < 2:
        raise BadParameters("lens space order a must be at least 2")
    return 4, a


def seifert_bound(a: int, d: int) -> tuple[int, int]:
    """tau >= min(1/a, 1/d), as (1, max(a, d)), for a Seifert rational homology
    sphere with a = a_1...a_n and d odd and positive (irreducible denominators
    divide a, reducible ones divide d)."""
    if exact_int(a, "a") < 1:
        raise BadParameters("Seifert order a = a_1...a_n must be a positive integer")
    if exact_int(d, "d") <= 0 or d % 2 == 0:
        raise HypothesisFailed(f"need d odd and positive, got d = {d}")
    return 1, max(a, d)
