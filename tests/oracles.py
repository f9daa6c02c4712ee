"""Independent oracles for the exact cotangent sums and determinants, used
only by the tests.

The library evaluates

    S(a, b, l) = sum_{k=1}^{a-1} cot(pi k/a) cot(pi k b/a) sin^2(pi k l/a)

by a floor-sum recursion (:func:`gaugecert.cot_cot_sin2_sum`).  The routes
here share none of that code:

* :func:`sawtooth_convolution` -- the O(a) integer sum E(m) that the
  recursion evaluates in O(log a), term by term;
* :func:`cyclo_make_cot_cot_sin2` and :func:`rational_extract` -- each
  summand exactly in Q(zeta_a), from integer products in Z[zeta_a] and
  the field inverses 1/(zeta^m - 1), each computed once per (a, m);
* :func:`float_oracle_sum` -- the sum in mpmath floating point.

:func:`leibniz_det` is the oracle for the exact determinants
(:func:`gaugecert.matutil.det_int`, the leading minors and the Alexander
polynomial): the permutation expansion over Z[t], which shares nothing
with the library's fraction-free elimination.
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import mpmath

from gaugecert import BadParameters, CycloElement, NonRational


def sawtooth_convolution(a: int, c: int, m: int) -> int:
    """E(m) = sum_{n=1}^{a-1} s(n) s(c (m - n)), s(x) = 2 (x mod a) - a,
    s(x) = 0 when a | x; then S(a, b, l) = (E(l) - E(0)) / (2a) with
    c = b^(-1) mod a."""

    def s(x: int) -> int:
        x %= a
        return 2 * x - a if x else 0

    return sum(s(n) * s(c * (m - n)) for n in range(1, a))


def sawtooth_sum(a: int, b: int, l: int) -> Fraction:
    """S(a, b, l) in O(a) integer steps; requires a >= 2 and gcd(b, a) = 1."""
    c = pow(b, -1, a)
    return Fraction(sawtooth_convolution(a, c, l) - sawtooth_convolution(a, c, 0), 2 * a)


@functools.lru_cache(maxsize=None)
def _inverse_zeta_minus_one(a: int, m: int) -> tuple[CycloElement, int]:
    # 1/(zeta_a^m - 1) as (an element of Z[zeta_a], a positive integer denominator)
    inv = (CycloElement.zeta(a, m) - CycloElement.from_rational(a, 1)).inverse()
    den = lcm(*(Fraction(c).denominator for c in inv.coeffs))
    return CycloElement(a, tuple((c * den).numerator for c in inv.coeffs)), den


def cyclo_make_cot_cot_sin2(a: int, k: int, b: int, l: int) -> CycloElement:
    """The summand cot(pi k/a) cot(pi k b/a) sin^2(pi k l/a) in Q(zeta_a).

    Uses cot(pi m/a) = i (zeta^m + 1)/(zeta^m - 1) and
    sin^2(theta) = (2 - zeta^m - zeta^(-m))/4 for theta = pi m/a, so the
    product is

        -(zeta^k + 1)(zeta^(kb) + 1)(2 - zeta^(kl) - zeta^(-kl))
        / (4 (zeta^k - 1)(zeta^(kb) - 1)),

    the two factors of i cancelling into the leading sign.  The two
    inverses come from :func:`_inverse_zeta_minus_one`, so the numerator
    is an integer product and only the final scaling is rational.
    """
    if a < 2:
        raise BadParameters("order a must be at least 2")
    if k % a == 0:
        raise BadParameters("cot(pi k/a) has a pole at k = 0 mod a")
    if gcd(b, a) != 1:
        raise BadParameters(f"b = {b} is not coprime to a = {a}")
    one = CycloElement.from_rational(a, 1)
    two = CycloElement.from_rational(a, 2)
    zk = CycloElement.zeta(a, k)
    zkb = CycloElement.zeta(a, k * b)
    zkl = CycloElement.zeta(a, k * l)
    zkl_inv = CycloElement.zeta(a, -k * l)
    inv_k, den_k = _inverse_zeta_minus_one(a, k % a)
    inv_kb, den_kb = _inverse_zeta_minus_one(a, k * b % a)
    num = -((zk + one) * (zkb + one) * (two - zkl - zkl_inv) * inv_k * inv_kb)
    return num.scale(Fraction(1, 4 * den_k * den_kb))


def rational_extract(x: CycloElement) -> Fraction:
    """The value of x as a rational number.

    Raises :class:`NonRational` if any non-constant coefficient of the
    canonical representation is nonzero.  For the full cotangent sums that
    would indicate an arithmetic bug (they are Galois invariant).
    """
    if not x.is_rational():
        raise NonRational(f"cyclotomic element of order {x.order} is not rational: {x.coeffs}")
    return x.coeffs[0] if x.coeffs else Fraction(0)


#: Environment variable overriding the oracle's working precision in bits.
ORACLE_PREC_ENV = "GAUGECERT_ORACLE_BITS"


def float_oracle_sum(a: int, b: int, l: int, prec_bits: int | None = None) -> mpmath.mpf:
    """(4/a) sum_{k=1}^{a-1} cot(pi k/a) cot(pi k b/a) sin^2(pi k l/a), in
    floating point with at least a 128-bit mantissa.

    Error bound: every factor is computed to the working precision p, each
    summand has magnitude at most (a/2)^2, and there are a - 1 summands, so
    the absolute error is below a^3 * 2^(3-p).  At the default p = 128 and
    a <= 60 this is under 2^(-107), far inside the 2^(-64) tolerance the
    exact path is tested against.
    """
    if prec_bits is None:
        prec_bits = int(os.environ.get(ORACLE_PREC_ENV, "128"))
    prec_bits = max(prec_bits, 128)
    if gcd(b, a) != 1:
        raise BadParameters(f"b = {b} is not coprime to a = {a}")
    with mpmath.workprec(prec_bits):
        pi_a = mpmath.pi / a
        total = mpmath.mpf(0)
        for k in range(1, a):
            total += mpmath.cot(pi_a * k) * mpmath.cot(pi_a * ((k * b) % a)) * mpmath.sin(pi_a * ((k * l) % a)) ** 2
        return 4 * total / a


def leibniz_det(m) -> dict[int, int]:
    """det(m) by the permutation expansion, for a square matrix whose
    entries are integers or integer polynomials in t given as {exponent:
    coefficient} dicts; returns the determinant as such a dict, zero
    coefficients dropped.  O(n! n), for small n only."""
    n = len(m)
    total: dict[int, int] = {}
    for perm in permutations(range(n)):
        prod = {0: (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))}
        for i, j in enumerate(perm):
            entry = m[i][j] if isinstance(m[i][j], dict) else {0: m[i][j]}
            nxt: dict[int, int] = {}
            for e1, c1 in prod.items():
                for e2, c2 in entry.items():
                    nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
            prod = nxt
        for e, c in prod.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}
