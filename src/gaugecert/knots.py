"""Knot-theoretic inputs: Alexander polynomials and Levine-Tristram signatures.

Two pieces of knot theory feed the obstruction pipeline, both read from
one integer polynomial of a Seifert matrix V (square integer, V - V^T
unimodular): the Levine-Tristram signature of (1 - omega) V +
(1 - conj omega) V^T at omega = zeta_a^(-b) (Levine, *Comment. Math.
Helv.* 44, 1969), which corrects rho under the flat cobordism to a lens
space, and the nondegeneracy of the flat connection on a/b surgery, which
holds iff that form is nonsingular, i.e. iff the Alexander polynomial
does not vanish at exp(2 pi i b/a).

With S = V + V^T, A = V^T - V and omega = e^(i theta), the form is
(1 - cos theta)(S + i s A), s = cot(theta/2).  The characteristic
polynomial of S + i s A is C(lambda, i s), C(lambda, sigma) =
det(lambda I - S - sigma A), which is even in sigma: its coefficients
c_j are polynomials in u = s^2 = cot^2(pi b/a).  It is real-rooted, so
Descartes' rule of signs is exact (Basu, Pollack and Roy, *Algorithms in
Real Algebraic Geometry*, ch. 2): the signature is V(c) - V(c(-lambda)),
V counting sign changes, and the form is singular iff c_0(u) = 0.  At
u = X/Y, X = 2 + zeta^b + zeta^(-b), Y = 2 - zeta^b - zeta^(-b) > 0, each
Y^g c_j(u) is an integer combination of X^k Y^(g-k) in Z[zeta_a], tested
for zero exactly and otherwise signed at adaptive precision from integer
bounds on cos and sin (Machin's pi and the exponential series, with a
proved error below 2 units): no floating point and no third-party code.
A singular form raises :class:`~gaugecert.errors.SingularPivot`, for the
caller to handle.  :func:`alexander_from_seifert` and
:func:`nondegenerate_at` remain public as the reference route to the
same nondegeneracy; no report reads them.

No knot diagrams are processed here; Seifert matrices are given directly
(as JSON integer arrays in problem files) or looked up in the small
built-in catalog (unknot, trefoil, figure8).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import BadParameters, InternalCheckError, SingularPivot
from .exactnum import CycloElement, _poly_div_exact, euler_phi
from .matutil import det_int

__all__ = [
    "KNOT_CATALOG",
    "LaurentPoly",
    "SeifertMatrix",
    "alexander_from_seifert",
    "alexander_torus",
    "evaluate_at_root",
    "lt_signature",
    "nondegenerate_at",
]


# ---------------------------------------------------------------------------
# Laurent polynomials over Z
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentPoly:
    """Finitely supported integer Laurent polynomial, stored as sorted
    (exponent, coefficient) pairs with zero coefficients dropped.

    Genuine Alexander polynomials are symmetric up to units; this is a
    convention of the inputs, not enforced here.
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        clean = tuple(sorted((int(e), int(c)) for e, c in self.terms if c != 0))
        if len({e for e, _ in clean}) != len(clean):
            raise BadParameters("repeated exponents")
        object.__setattr__(self, "terms", clean)

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(tuple((e + k, c) for e, c in self.terms))

    def symmetrized(self) -> "LaurentPoly":
        """Recentre so the support is symmetric about 0 (degree span must be even)."""
        if not self.terms:
            return self
        lo, hi = self.terms[0][0], self.terms[-1][0]
        if (lo + hi) % 2:
            raise BadParameters("cannot symmetrize odd-span polynomial")
        return self.shift(-(lo + hi) // 2)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*t^{e}" for e, c in self.terms)


def alexander_torus(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial (t^pq - 1)(t - 1)/((t^p - 1)(t^q - 1)) of the
    (p, q) torus knot, by exact division, normalized symmetric about t^0."""
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise BadParameters("need coprime p, q >= 2")
    quo = [0] * (p * q + 2)  # (t^pq - 1)(t - 1), low to high
    quo[0], quo[1], quo[p * q], quo[p * q + 1] = 1, -1, -1, 1
    for m in (p, q):
        quo = _poly_div_exact(quo, [-1] + [0] * (m - 1) + [1])  # by t^m - 1
    return LaurentPoly(tuple(enumerate(quo))).symmetrized()


def _kronecker_det(n: int, terms: dict[int, Sequence[Sequence[int]]]) -> list[int]:
    """Coefficients of det(sum_k x^k M_k), low to high, for n x n integer
    matrices M_k: n p + 1 of them for p the largest power k.

    One integer determinant (Kronecker substitution, von zur Gathen and
    Gerhard, *Modern Computer Algebra*, 8.4): expanding over permutations,
    every coefficient is at most B = prod_i sum_(j, k) |(M_k)_ij| in
    absolute value, so the determinant at x = N = 2B + 1 holds them as its
    balanced base-N digits.  A remainder past the last digit raises
    :class:`InternalCheckError`.
    """
    bound = 1
    for i in range(n):
        bound *= sum(abs(M[i][j]) for M in terms.values() for j in range(n))
    base = 2 * bound + 1
    powers = [(base**k, M) for k, M in terms.items()]
    value = det_int([[sum(x * M[i][j] for x, M in powers) for j in range(n)] for i in range(n)])
    digits = []
    for _ in range(n * max(terms) + 1):
        digit = (value + bound) % base - bound
        digits.append(digit)
        value = (value - digit) // base
    if value:
        raise InternalCheckError("Kronecker substitution left a remainder past the last coefficient")
    return digits


def alexander_from_seifert(V: "SeifertMatrix") -> LaurentPoly:
    """det(t^(1/2) V - t^(-1/2) V^T), the symmetrized Alexander polynomial.

    Computed as det(t V - V^T), one Kronecker determinant, and then
    recentred.
    """
    vt = [[-x for x in row] for row in V.transpose()]
    poly = LaurentPoly(tuple(enumerate(_kronecker_det(V.size, {0: vt, 1: V.rows}))))
    if poly.terms and poly.terms[-1][1] < 0:
        poly = LaurentPoly(tuple((e, -c) for e, c in poly.terms))
    return poly.symmetrized()


#: Largest cyclotomic order a of a knotted strand: its tables grow as a^2,
#: and rho-transfer at a = 997 on the trefoil took 0.2 s and 24 MB (2 CPU x86_64).
MAX_KNOT_ORDER = 1000


def _check_order(a: int) -> None:
    if a > MAX_KNOT_ORDER:
        raise BadParameters(f"cyclotomic order {a} of a knotted strand exceeds the limit {MAX_KNOT_ORDER}")


def evaluate_at_root(poly: LaurentPoly, a: int, b: int) -> CycloElement:
    """Exact value of the polynomial at zeta_a^b, as an element of Z[zeta_a];
    a is at most :data:`MAX_KNOT_ORDER`."""
    _check_order(a)
    out = CycloElement.zero(a)
    for e, c in poly.terms:
        out = out + CycloElement.zeta(a, b * e).scale(c)
    return out


def nondegenerate_at(poly: LaurentPoly, a: int, b: int) -> bool:
    """True iff poly(exp(2 pi i b/a)) != 0, decided exactly in Z[zeta_a]."""
    if gcd(a, b) != 1:
        raise BadParameters(f"gcd({a}, {b}) != 1")
    return not evaluate_at_root(poly, a, b).is_zero()


# ---------------------------------------------------------------------------
# Seifert matrices and Levine-Tristram signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer matrix V with det(V - V^T) = 1 (the intersection
    pairing condition; forces even size).  The empty matrix is the unknot."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(operator.index, row)) for row in self.rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise BadParameters("Seifert matrix must be square")
        skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
        if det_int(skew) != 1:
            raise BadParameters("V - V^T must be unimodular (skew, determinant 1)")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def transpose(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row[i] for row in self.rows) for i in range(self.size))


#: Built-in knots: name -> Seifert matrix.  Trefoil is the right-handed one.
KNOT_CATALOG: dict[str, SeifertMatrix] = {
    "unknot": SeifertMatrix(()),
    "trefoil": SeifertMatrix(((-1, 1), (0, -1))),
    "figure8": SeifertMatrix(((1, 1), (0, -1))),
}


_MAX_SIGN_PREC = 1 << 14


@functools.lru_cache(maxsize=256)
def _unit_circle_table(a: int, prec: int) -> tuple[tuple[int, int], ...]:
    """Pairs (u_i, v_i), i < phi(a), each within 2 of 2^prec (cos, sin)(2 pi i/a).

    Integers only, at w = prec + 32 bits: pi = 16 atan(1/5) - 4 atan(1/239)
    (Machin) by the alternating series, then exp(i t) by its series at
    t = 2 pi min(i, a - i)/a in [0, pi] (sin flips sign when 2i > a).  In
    units of 2^-w, each floor and each truncated tail is off by less than 1,
    so pi is off by less than 4w + 40 and t by less than 4w + 41; exp sums
    fewer than w terms, and an error in t or in one term moves the sum by at
    most e^pi < 2^5 times as much: in all below 2^5 (5w + 42) < 2^31 while
    prec <= _MAX_SIGN_PREC.  The shift down by 32 bits leaves less than 3/2.
    """
    w = prec + 32

    def atan_inv(x: int) -> int:  # 2^w atan(1/x); each term is one exact floor
        total, power, k = 0, (1 << w) // x, 0
        while power:
            total, power, k = total + (-1) ** k * (power // (2 * k + 1)), power // (x * x), k + 1
        return total

    pi = 16 * atan_inv(5) - 4 * atan_inv(239)
    table = []
    for i in range(euler_phi(a)):
        t = 2 * pi * min(i, a - i) // a
        parts, term, n = [0, 0], 1 << w, 0  # term = 2^w t^n/n!
        while term:
            parts[n % 2] += (-1) ** (n // 2) * term
            n += 1
            term = term * t // (n << w)
        table.append((parts[0] >> 32, (parts[1] >> 32) * (-1 if 2 * i > a else 1)))
    return tuple(table)


def _certified_sign(x: CycloElement) -> int:
    """Sign of an exactly-nonzero real element of Z[zeta_a], such as a
    coefficient of the characteristic polynomial at u = cot^2(pi b/a).

    With the table at precision prec, sum c_i u_i and sum c_i v_i lie
    within r = 2 sum |c_i| of 2^prec times the real and imaginary parts of
    sum c_i zeta^i.  The precision doubles until |sum c_i u_i| > r, which
    certifies the sign; this terminates because the exact value is
    nonzero.  |sum c_i v_i| must stay below r.  Each failed condition
    raises :class:`InternalCheckError`.
    """
    if x.is_zero():
        raise InternalCheckError("sign of an exactly zero coefficient requested")
    r = 2 * sum(map(abs, x.coeffs))
    prec = 64
    while prec <= _MAX_SIGN_PREC:
        re = im = 0
        for c, (u, v) in zip(x.coeffs, _unit_circle_table(x.order, prec)):
            re += c * u
            im += c * v
        if abs(im) >= r:
            raise InternalCheckError("coefficient is not real")
        if abs(re) > r:
            return 1 if re > 0 else -1
        prec *= 2
    raise InternalCheckError(
        f"sign of a nonzero coefficient not separable at {_MAX_SIGN_PREC} bits of precision"
    )


def _sign_at(coeffs: Sequence[int], powers: Sequence[CycloElement]) -> int:
    # sign of the real element sum_m coeffs[m] powers[m] of Z[zeta_a]: 0 when
    # every coefficient is 0 or the sum is exactly 0, else certified
    if not any(coeffs):
        return 0
    x = functools.reduce(operator.add, (p.scale(c) for c, p in zip(coeffs, powers) if c))
    return 0 if x.is_zero() else _certified_sign(x)


def _sign_changes(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(x != y for x, y in zip(nonzero, nonzero[1:]))


def lt_signature(V: SeifertMatrix, a: int, b: int) -> int:
    """Levine-Tristram signature of V at omega = zeta_a^(-b): the signature
    of (1 - omega) V + (1 - conj omega) V^T, exactly, by Descartes' rule.
    Needs 2 <= a <= :data:`MAX_KNOT_ORDER`.  Raises :class:`SingularPivot`
    when the form is singular (omega is a root of the Alexander
    polynomial), and :class:`InternalCheckError` when C(lambda, sigma) is
    not even in sigma or the root count is not n.
    """
    if a < 2:
        raise BadParameters("need a >= 2")
    _check_order(a)
    if b % a == 0:
        raise BadParameters("omega = 1 is excluded")
    n = V.size
    if n == 0:
        return 0
    vt = V.transpose()
    minus_s = [[-x - y for x, y in zip(row, col)] for row, col in zip(V.rows, vt)]
    minus_a = [[x - y for x, y in zip(row, col)] for row, col in zip(V.rows, vt)]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    # digit (n + 1) j + k of C(lambda, sigma) = det(lambda I - S - sigma A) is
    # the coefficient of lambda^j sigma^k
    digits = _kronecker_det(n, {0: minus_s, 1: minus_a, n + 1: eye})
    rows = [digits[(n + 1) * j : (n + 1) * (j + 1)] for j in range(n + 1)]
    if any(any(row[1::2]) for row in rows):
        raise InternalCheckError("det(lambda I - S - sigma A) is not even in sigma")
    # Y^g c_j(X/Y) = sum_m e_(j, 2m) (-X)^m Y^(g - m), g = n/2
    one = CycloElement.from_rational(a, 1)
    two_cos = CycloElement.zeta(a, b) + CycloElement.zeta(a, -b)
    minus_x, y = -(one.scale(2) + two_cos), one.scale(2) - two_cos
    x_pows, y_pows = [one], [one]
    for _ in range(n // 2):
        x_pows.append(x_pows[-1] * minus_x)
        y_pows.append(y_pows[-1] * y)
    powers = [p * q for p, q in zip(x_pows, reversed(y_pows))]
    signs = [_sign_at(row[::2], powers) for row in rows]
    if not signs[0]:
        raise SingularPivot(f"Hermitian form at omega = zeta_{a}^(-{b}) is singular")
    pos, neg = _sign_changes(signs), _sign_changes([s * (-1) ** j for j, s in enumerate(signs)])
    if pos + neg != n:
        raise InternalCheckError(
            f"Descartes' rule counts {pos} positive and {neg} negative roots of a real-rooted "
            f"characteristic polynomial of degree {n}"
        )
    return pos - neg
