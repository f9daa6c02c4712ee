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

A value of the Q(zeta_a) route that is not rational raises
:class:`NonRational`, an internal-check failure of the tests' own.

:func:`flat_su2_reps` enumerates the irreducible flat SU(2) connections
of a Brieskorn sphere with their Chern-Simons values
(:func:`brieskorn_cs`), and :func:`brieskorn_signature` counts the
signature of its Milnor fiber; both are integer-only, share no code, and
check each other through Casson's invariant, #R* = -sigma/4.

:func:`leibniz_det` is the oracle for the exact determinants
(:func:`gaugecert.matutil.det_int`, the leading minors and the Alexander
polynomial): the permutation expansion over Z[t], which shares nothing
with the library's fraction-free elimination.

The remaining helpers build test inputs and read results; the library
itself never calls them: :func:`crt_solve` (Seifert data with a given
d), :func:`ind_plus_general` (the general index from boundary rho
values), :func:`alexander_torus` (torus-knot Alexander polynomials),
:func:`as_dict` (a Laurent polynomial as a dict) and :func:`pairing`
(x . y of a :class:`~gaugecert.GramForm`).
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm, prod
from typing import Sequence

import mpmath

from gaugecert import (
    BadParameters,
    CycloElement,
    GramForm,
    InternalCheckError,
    LaurentPoly,
    NoSolution,
)
from gaugecert.exactnum import inverse_mod, poly_divmod


class NonRational(InternalCheckError):
    """A cyclotomic value expected to be rational had nonzero higher coefficients."""


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


def ind_plus_general(p1: Fraction, terms) -> Fraction:
    """2 p_1 - 3 + (1/2) sum (3 - h - rho) over the nontrivial boundary
    limits, given as (h, rho) pairs: the general index for b^+(X) = 0."""
    return 2 * p1 - 3 + sum(Fraction(3 - h - rho, 2) for h, rho in terms)


def crt_solve(moduli: Sequence[int], target: int = 1) -> tuple[int, ...]:
    """Integers b_i with gcd(b_i, a_i) = 1 and (a_1...a_n) sum b_i/a_i = d.

    Reducing the defining identity mod a_i forces b_i mod a_i; we take the
    representative in (0, a_i) for i < n and solve exactly for the last
    coefficient, so the output is deterministic.  Requires the moduli to be
    pairwise coprime and gcd(d, a_1...a_n) = 1.
    """
    moduli = tuple(int(m) for m in moduli)
    if not moduli:
        raise NoSolution("at least one modulus is required")
    if any(m < 1 for m in moduli):
        raise NoSolution("moduli must be positive")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if gcd(moduli[i], moduli[j]) != 1:
                raise NoSolution(f"moduli {moduli[i]} and {moduli[j]} are not coprime")
    a = 1
    for m in moduli:
        a *= m
    d = int(target)
    if gcd(d, a) != 1:
        raise NoSolution(f"target {d} is not coprime to product {a}")
    out: list[int] = []
    partial = 0  # sum of b_i * (a / a_i) so far
    for i, m in enumerate(moduli[:-1]):
        cof = a // m
        if m == 1:
            b = 0
        else:
            b = (d * inverse_mod(cof % m, m)) % m
            if not 0 < b < m:
                raise InternalCheckError(f"coefficient {b} for modulus {m} is not in (0, {m})")
        out.append(b)
        partial += b * cof
    last = moduli[-1]
    cof = a // last
    num = d - partial
    if num % cof:
        raise InternalCheckError(f"last coefficient {num}/{cof} is not an integer")
    out.append(num // cof)
    if gcd(out[-1], last) != 1:
        raise InternalCheckError(f"last coefficient {out[-1]} is not coprime to modulus {last}")
    return tuple(out)


def alexander_torus(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial (t^pq - 1)(t - 1)/((t^p - 1)(t^q - 1)) of the
    (p, q) torus knot, by exact division, normalized symmetric about t^0."""
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise BadParameters("need coprime p, q >= 2")
    quo = [0] * (p * q + 2)  # (t^pq - 1)(t - 1), low to high
    quo[0], quo[1], quo[p * q], quo[p * q + 1] = 1, -1, -1, 1
    for m in (p, q):
        quo, rem = poly_divmod(quo, [-1] + [0] * (m - 1) + [1])  # by t^m - 1
        if any(rem):
            raise InternalCheckError(f"t^{m} - 1 does not divide the torus knot numerator")
    return LaurentPoly(tuple(enumerate(quo))).symmetrized()


def as_dict(poly: LaurentPoly) -> dict[int, int]:
    """The polynomial as {exponent: coefficient}, zero coefficients dropped."""
    return dict(poly.terms)


def pairing(G: GramForm, x, y) -> Fraction:
    """x . y for the form G: x . (rows y) over its integer rows, divided by the scale."""
    return Fraction(sum(xi * r * yj for xi, row in zip(x, G.rows) for r, yj in zip(row, y)), G.scale)


def flat_su2_reps(a1: int, a2: int, a3: int) -> list[tuple[tuple[int, int, int], Fraction]]:
    """The irreducible flat SU(2) connections on the Brieskorn sphere
    Sigma(a1, a2, a3), pairwise coprime a_i >= 2, each as ((l1, l2, l3), cs)
    with cs its Chern-Simons value in (-1, 0], in integers only.

    pi_1 = <x_i, h | h central, x_i^a_i h^b_i = 1, x1 x2 x3 = 1> with
    sum b_i a/a_i = 1, a = a1 a2 a3 (Fintushel-Stern, Proc. LMS 61, 1990).
    A representation sends h to eps = +-1 and x_i to a conjugate of
    exp(i pi l_i/a_i), 0 < l_i < a_i, (-1)^l_i = eps^b_i; one class exists
    iff the spherical triangle inequalities hold strictly, which times a/pi
    read |t1 - t2| < t3 < min(t1 + t2, 2a - t1 - t2) for t_i = l_i a/a_i.
    Its value is -e^2/(4a) mod 1 for e = t1 + t2 + t3 (:func:`brieskorn_cs`).
    """
    moduli = (a1, a2, a3)
    a = a1 * a2 * a3
    b = crt_solve(moduli)
    reps = []
    for eps in (1, -1):
        # l_i is even, or has the parity of b_i when h goes to -1
        ranges = [range(2 if eps == 1 or bi % 2 == 0 else 1, ai, 2) for ai, bi in zip(moduli, b)]
        for l in product(*ranges):
            t1, t2, t3 = (li * (a // ai) for li, ai in zip(l, moduli))
            if abs(t1 - t2) < t3 < min(t1 + t2, 2 * a - t1 - t2):
                reps.append((l, brieskorn_cs(moduli, l)))
    return reps


def brieskorn_cs(moduli: Sequence[int], l: Sequence[int], signs: Sequence[int] = (1, 1, 1)) -> Fraction:
    """-e^2/(4a) mod 1, in (-1, 0], for e = sum signs_i l_i a/a_i and a the
    product of the moduli: the Chern-Simons value of the connection l."""
    a = prod(moduli)
    e = sum(si * li * (a // ai) for si, li, ai in zip(signs, l, moduli))
    return Fraction(-(e * e % (4 * a)), 4 * a)


def brieskorn_signature(p: int, q: int, r: int) -> int:
    """The signature of the Milnor fiber of x^p + y^q + z^r (Brieskorn,
    Invent. Math. 2, 1966): the count of 0 < i < p, 0 < j < q, 0 < k < r
    with i/p + j/q + k/r in (0, 1) mod 2, minus the count with it in (1, 2)
    mod 2.  Times a = pqr the sum is an integer s, never a multiple of a
    for pairwise coprime p, q, r, and s mod 2a < a decides the sign."""
    a = p * q * r
    return sum(
        1 if (i * q * r + j * p * r + k * p * q) % (2 * a) < a else -1
        for i in range(1, p)
        for j in range(1, q)
        for k in range(1, r)
    )
