"""Exact arithmetic foundation.

Rationals are :class:`fractions.Fraction` (lowest terms, positive
denominator) or integer num/den pairs, printed by :func:`ratio_str`.
Every integer input is read in by :func:`exact_int` and every rational one by
:func:`exact_rational`; a float or bool raises :class:`BadParameters` naming
the argument.  This module gives:

* division with remainder by a monic integer polynomial
  (:func:`poly_divmod`), which builds the cyclotomic polynomials and
  makes the exact zero tests of the knot module;
* exact arithmetic in the cyclotomic field Q(zeta_a), with elements
  represented in the power basis 1, zeta, ..., zeta^(phi(a)-1) modulo the
  a-th cyclotomic polynomial (:class:`CycloElement`); elements with integer
  coefficients stay in the ring Z[zeta_a] under every ring operation (no
  library code builds one; the tests' reference routes do);
* exact evaluation of the cotangent sums

      sum_{k=1}^{a-1} cot(pi k/a) cot(pi k b/a) sin^2(pi k l/a)

  in O(log a) integer steps, by finite Fourier duality with a sawtooth
  convolution and a Euclid-style floor-sum recursion
  (:func:`cot_cot_sin2_sum`);
* Hirzebruch-Jung (minus-sign) continued fractions (:func:`hj_expand`).

The independent oracles for the cotangent sums (the direct O(a) sawtooth
sum, the term-by-term evaluation in Q(zeta_a) and an mpmath float sum)
live with the tests, not here.

Everything here is immutable and side-effect free.  The only shared state
is the memo tables, each a ``functools.lru_cache`` and therefore safe to
share between threads: those of the cyclotomic polynomials and their power
tables, and the last 1024 cotangent sums, so that a process computes and
checks each distinct reduced sum once while it stays in that memo.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import BadParameters, InternalCheckError, NoSolution

__all__ = [
    "CycloElement",
    "HJExpansion",
    "cot_cot_sin2_sum",
    "cyclotomic_poly",
    "euler_phi",
    "hj_expand",
]


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

def inverse_mod(x: int, m: int) -> int:
    try:
        return pow(x, -1, m)
    except ValueError:
        raise NoSolution(f"{x} is not invertible mod {m}") from None


def exact_int(value, name: str) -> int:
    """value itself if its type is int: not a bool, a float or another int subclass."""
    if type(value) is int:
        return value
    raise BadParameters(f"{name} must be an int, not {type(value).__name__}")


def exact_rational(value, name: str) -> Fraction:
    """value as a Fraction: a Fraction as is, or an int that is not a bool."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise BadParameters(f"{name} must be an int or a Fraction, not {type(value).__name__}")


def ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for ints n and d >= 1, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def euler_phi(a: int) -> int:
    if exact_int(a, "a") < 1:
        raise BadParameters(f"euler_phi needs a >= 1, got {a}")
    result = a
    n, p = a, 2
    while p * p <= n:
        if n % p == 0:
            result -= result // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _divisors(a: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= a:
        if a % d == 0:
            small.append(d)
            if d != a // d:
                large.append(a // d)
        d += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the power basis of Q(zeta_a)
# ---------------------------------------------------------------------------

def poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder (low to high) of integer polynomials, den monic."""
    if den[-1] != 1:
        raise InternalCheckError(f"polynomial division by {tuple(den)}, which is not monic")
    rem = list(num)
    quo = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + len(den) - 1]
        if c:
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    return quo, rem[: len(den) - 1]


@functools.lru_cache(maxsize=None, typed=True)
def cyclotomic_poly(a: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the a-th cyclotomic polynomial Phi_a.

    Computed by exact division of x^a - 1 by the Phi_m for proper divisors
    m of a; memoized by type and value, so that True is not read as 1.
    """
    if exact_int(a, "cyclotomic order") < 1:
        raise BadParameters(f"cyclotomic order must be >= 1, got {a}")
    poly = [-1] + [0] * (a - 1) + [1]  # x^a - 1
    for m in _divisors(a):
        if m < a:
            poly, rem = poly_divmod(poly, cyclotomic_poly(m))
            if any(rem):
                raise InternalCheckError(f"x^{a} - 1 is not divisible by Phi_{m}")
    if len(poly) != euler_phi(a) + 1 or poly[-1] != 1:
        raise InternalCheckError(f"Phi_{a} = {tuple(poly)} is not monic of degree phi({a})")
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _zeta_power_table(a: int) -> tuple[tuple[int, ...], ...]:
    # table[m] = integer coefficients of x^m reduced mod Phi_a, for m < a;
    # x^a = 1 mod Phi_a, so x^m reads table[m % a]
    phi = cyclotomic_poly(a)
    n = len(phi) - 1
    table = []
    cur = [1] + [0] * (n - 1)
    for _ in range(a):
        table.append(tuple(cur))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for j in range(n):
                cur[j] -= lead * phi[j]
    return tuple(table)


@dataclass(frozen=True)
class CycloElement:
    """An element of Q(zeta_a), zeta_a = exp(2 pi i / a).

    ``coeffs`` has length phi(order) and lists the coordinates in the power
    basis 1, zeta, ..., zeta^(phi(a)-1); the representation is canonical,
    so equality of elements is equality of coefficient tuples.

    Coefficients are ``int`` or :class:`~fractions.Fraction`.  Integer
    coefficients mean the element lies in the ring Z[zeta_a], and the ring
    operations (``zeta``, ``from_rational`` of an int, ``scale`` by an int,
    ``+``, ``-``, ``*``, ``conjugate``) keep them integers; only
    :meth:`inverse` leaves Z[zeta_a] for Q(zeta_a), and it is itself ring
    arithmetic: a product of Galois images divided by one rational norm.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # cyclotomic_poly refuses an order below 1
        if len(self.coeffs) != len(cyclotomic_poly(self.order)) - 1:
            raise BadParameters(f"an element of Q(zeta_{self.order}) needs phi({self.order}) coefficients")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "CycloElement":
        return CycloElement(order, (0,) * (len(cyclotomic_poly(order)) - 1))

    @staticmethod
    def from_rational(order: int, value) -> "CycloElement":
        c = [0] * (len(cyclotomic_poly(order)) - 1)
        c[0] = value if type(value) is int else exact_rational(value, "rational value")
        return CycloElement(order, tuple(c))

    @staticmethod
    def zeta(order: int, exponent: int = 1) -> "CycloElement":
        table = _zeta_power_table(order)
        return CycloElement(order, table[exact_int(exponent, "exponent") % order])

    # -- ring / field operations -------------------------------------------

    def _check(self, other: "CycloElement") -> None:
        if self.order != other.order:
            raise ValueError("cyclotomic orders differ")

    def __add__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(self.order, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(self.order, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.order, tuple(-x for x in self.coeffs))

    def scale(self, r) -> "CycloElement":
        r = r if type(r) is int else exact_rational(r, "scale factor")
        return CycloElement(self.order, tuple(r * x for x in self.coeffs))

    def __mul__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        n = len(self.coeffs)
        prod = [0] * (2 * n - 1)
        ys = [(j, y) for j, y in enumerate(other.coeffs) if y]
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in ys:
                    prod[i + j] += x * y
        a = self.order
        table = _zeta_power_table(a)
        out = list(prod[:n])
        for m in range(n, len(prod)):
            c = prod[m]
            if c:
                for j, t in enumerate(table[m % a]):
                    if t:
                        out[j] += c * t
        return CycloElement(self.order, tuple(out))

    def inverse(self) -> "CycloElement":
        """Field inverse 1/x = c / N(x): c is the product of the Galois
        images sigma_k(x) over 1 < k < a, gcd(k, a) = 1, and the norm
        N(x) = x c, the product of all of them, is a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        a = self.order
        c = CycloElement.from_rational(a, 1)
        for k in range(2, a):
            if gcd(k, a) == 1:
                c = c * self._galois(k)
        norm = self * c
        if norm.is_zero() or not norm.is_rational():
            raise InternalCheckError(f"norm of a nonzero element of Q(zeta_{a}) is not a nonzero rational")
        return c.scale(1 / Fraction(norm.coeffs[0]))

    def _galois(self, k: int) -> "CycloElement":
        # the automorphism zeta -> zeta^k, gcd(k, a) = 1
        a = self.order
        table = _zeta_power_table(a)
        out = [0] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, u in enumerate(table[i * k % a]):
                    if u:
                        out[j] += c * u
        return CycloElement(a, tuple(out))

    def conjugate(self) -> "CycloElement":
        """Complex conjugation zeta -> zeta^(-1), a Galois automorphism."""
        return self._galois(-1)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])


# ---------------------------------------------------------------------------
# exact cotangent sums
# ---------------------------------------------------------------------------

def _floor_sums(p: int, q: int, r: int, n: int) -> tuple[int, int, int]:
    """(sum f_i, sum i f_i, sum f_i^2) over i = 0..n, f_i = floor((p i + q)/r),
    for p, q, n >= 0 and r >= 1, in O(log r) steps.

    Each level first splits off the integer parts p // r and q // r, then
    counts lattice points under the line the other way round, which swaps
    the roles of p and r as in Euclid's algorithm; the levels are recorded
    on the way down and combined on the way back up.
    """
    levels = []
    while True:
        qp, p = divmod(p, r)
        qq, q = divmod(q, r)
        m = (p * n + q) // r  # the largest reduced floor
        levels.append((n, qp, qq, m))
        if m == 0:
            break
        p, q, r, n = r, r - q - 1, p, m - 1
    f = g = h = 0
    for n, qp, qq, m in reversed(levels):
        if m:
            f, g, h = n * m - f, (m * n * (n + 1) - h - f) // 2, n * m * m - 2 * g - f
        s1 = n * (n + 1) // 2
        s2 = s1 * (2 * n + 1) // 3
        f, g, h = (
            f + qp * s1 + qq * (n + 1),
            g + qp * s2 + qq * s1,
            h + 2 * qq * f + 2 * qp * g + qp * qp * s2 + qq * qq * (n + 1) + 2 * qp * qq * s1,
        )
    return f, g, h


def _sawtooth_convolution(a: int, c: int, m: int) -> int:
    """E(m) = sum_{n=1}^{a-1} s(n) s(c (m - n)), s(x) = 2 (x mod a) - a and
    s(x) = 0 when a | x.

    With c' = -c mod a and u = c m mod a, the residue of c (m - n) is
    y_n = c' n + u - a floor((c' n + u)/a).  For n = 1..a-1 it takes every
    residue except u, and it is 0 only at n = m mod a.  Expanding
    (2n - a)(2 y_n - a) leaves closed forms and the single floor sum
    sum_{n<a} n floor((c' n + u)/a).
    """
    m %= a
    cp = -c % a
    u = c * m % a
    g = _floor_sums(cp, u, a, a - 1)[1]
    out = 2 * cp * (a - 1) * a * (2 * a - 1) // 3 - a * a * (a - 1) + 2 * a * a * u - 4 * a * g
    if m:
        out += a * (2 * m - a)  # at n = m the true term is s(n) s(0) = 0, not -a s(n)
    return out


def cot_cot_sin2_sum(a: int, b: int, l: int) -> Fraction:
    """Exactly sum_{k=1}^{a-1} cot(pi k/a) cot(pi k b/a) sin^2(pi k l/a).

    By finite Fourier duality, cot(pi k/a) = (i/a) sum_n s(n) zeta^(kn)
    for k != 0 mod a, with the sawtooth s(x) = 2 (x mod a) - a (s = 0 when
    a | x).  The cot-cot product is then the transform of a cyclic
    convolution, the sin^2 factor picks two of its values, and

        S = (E(l) - E(0)) / (2a),   E(m) = sum_{n=1}^{a-1} s(n) s(c (m - n)),

    with c = b^(-1) mod a.  Each E(m) is a Dedekind-Rademacher sum,
    reduced to one floor sum and computed in O(log a) integer steps by a
    recursion that runs like Euclid's algorithm (Rademacher-Grosswald,
    *Dedekind Sums*, 1972; Knuth, TAOCP vol. 2, 3.3.3).  E is even because
    s is odd; E(a - l), a different floor sum, is computed with each sum
    and must equal E(l), else :class:`InternalCheckError` is raised.

    Requires gcd(b, a) = 1; l is reduced mod a and the sum is 0 for
    l = 0 mod a.  The arguments are checked on every call, and the last
    1024 checked sums are kept, keyed on (a, b mod a, l mod a).  The tests
    check this route against three independent oracles: the direct O(a)
    sum for E(m), the term-by-term evaluation in Q(zeta_a), and an mpmath
    float sum.
    """
    if exact_int(a, "a") < 1:
        raise BadParameters("a must be positive")
    b = exact_int(b, "b") % a
    l = exact_int(l, "l") % a
    if a == 1 or l == 0:
        return Fraction(0)
    if gcd(b, a) != 1:
        raise BadParameters(f"b = {b} is not coprime to a = {a}")
    return _cot_cot_sin2_sum(a, b, l)


@functools.lru_cache(maxsize=1024)
def _cot_cot_sin2_sum(a: int, b: int, l: int) -> Fraction:
    # the sum for 0 < b, l < a with gcd(b, a) = 1; only checked values are kept
    c = inverse_mod(b, a)
    e_l = _sawtooth_convolution(a, c, l)
    if e_l != _sawtooth_convolution(a, c, a - l):
        raise InternalCheckError(f"sawtooth convolution not even at a = {a}, b = {b}, l = {l}")
    return Fraction(e_l - _sawtooth_convolution(a, c, 0), 2 * a)


# ---------------------------------------------------------------------------
# Hirzebruch-Jung continued fractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HJExpansion:
    """Minus-sign continued fraction a/b = c_1 - 1/(c_2 - 1/(... - 1/c_m)).

    All terms are >= 2, which is the normal form whose associated plumbing
    is negative definite, and they must evaluate to a/b: the trailing minors
    K_k = c_k K_(k+1) - K_(k+2) of the (positive) plumbing matrix end in
    a/b = K_1 / K_2.
    """

    a: int
    b: int
    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (0 < exact_int(self.b, "b") < exact_int(self.a, "a") and gcd(self.a, self.b) == 1):
            raise BadParameters(f"need 0 < b < a with gcd(a, b) = 1, got {self.a}/{self.b}")
        if any(exact_int(c, "terms entry") < 2 for c in self.terms):
            raise BadParameters("Hirzebruch-Jung terms must be >= 2")
        if (1, *continuants(self.terms[::-1], [1] * (len(self.terms) - 1)))[-2:] != (self.b, self.a):
            raise BadParameters(f"Hirzebruch-Jung terms {list(self.terms)} do not evaluate to {self.a}/{self.b}")


def continuants(diag: Sequence[int], off: Sequence[int]) -> list[int]:
    """Leading principal minors D_1, ..., D_m of the symmetric tridiagonal
    matrix with diagonal d_1, ..., d_m and subdiagonal t_2, ..., t_m, by the
    continuant recurrence D_k = d_k D_(k-1) - t_k^2 D_(k-2) (D_0 = 1)."""
    out = []
    prev2, prev1 = 0, 1
    for d, t in zip(diag, (0, *off)):
        prev2, prev1 = prev1, d * prev1 - t * t * prev2
        out.append(prev1)
    return out


#: Most terms an expansion may have: its plumbing is a dense m x m matrix,
#: and the report of the all-2 chain at m = 1000 took 0.95 s and 109 MB.
MAX_CHAIN_LENGTH = 1000


def hj_expand(a: int, b: int) -> HJExpansion:
    """Hirzebruch-Jung expansion of a/b for 0 < b < a, gcd(a, b) = 1, with
    at most :data:`MAX_CHAIN_LENGTH` terms."""
    if not (0 < exact_int(b, "b") < exact_int(a, "a")):
        raise BadParameters("need 0 < b < a")
    if gcd(a, b) != 1:
        raise BadParameters(f"gcd({a}, {b}) != 1")
    a0, b0 = a, b
    terms = []
    while True:
        c = -(-a0 // b0)  # ceil
        terms.append(c)
        if len(terms) > MAX_CHAIN_LENGTH:
            raise BadParameters(f"the expansion of {a}/{b} has more than {MAX_CHAIN_LENGTH} terms")
        r = c * b0 - a0
        if r == 0:
            break
        a0, b0 = b0, r
    # the terms are >= 2 and 0 < b < a, so only the evaluation can fail
    try:
        return HJExpansion(a, b, tuple(terms))
    except BadParameters as exc:
        raise InternalCheckError(f"Hirzebruch-Jung expansion {terms} does not evaluate to {a}/{b}") from exc
