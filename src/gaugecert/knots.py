"""Knot-theoretic inputs: Alexander polynomials and Levine-Tristram signatures.

Only two pieces of knot theory feed the obstruction pipeline, both taken
from a Seifert matrix V (square integer, V - V^T unimodular):

* nondegeneracy of the flat connection on a/b surgery, which holds iff
  the Alexander polynomial does not vanish at exp(2 pi i b/a); evaluation
  is exact, in Z[zeta_a].  The polynomial det(t V - V^T) is one integer
  determinant: its coefficients are bounded by
  B = prod_i sum_j (|V_ij| + |V_ji|), so det((2B + 1) V - V^T) holds them
  as balanced base-(2B + 1) digits (Kronecker substitution);
* the Levine-Tristram signature sigma_omega = sign((1-omega) V +
  (1-conj omega) V^T) at omega = zeta_a^(-b), which corrects rho under the
  flat cobordism to a lens space.

The signature is computed in the ring Z[zeta_a] by division-free
Hermitian elimination (Bareiss's fraction-free elimination, *Math. Comp.*
22, 1968, without the exact division by the previous pivot): every entry
stays an integer combination of powers of zeta, and a diagonal pivot p
scales the remaining block by the real number p (a zero diagonal is first
made 2 u conj u > 0 by a congruence with an off-diagonal entry u), so the
signature is tracked through the signs of the pivots alone.  The sign
of each (exactly nonzero, real) pivot is certified at adaptive precision
from integer bounds on cos and sin (Machin's pi and the exponential
series, with a proved error below 2 units), so no floating point
and no third-party code is involved.  If the
form is singular -- equivalently, omega is a root of the Alexander
polynomial -- :class:`~gaugecert.errors.SingularPivot` is raised; that
degenerate case must be handled by the caller, never silently signed.

No knot diagrams are processed here; Seifert matrices are given directly
(as JSON integer arrays in problem files) or looked up in the small
built-in catalog (unknot, trefoil, figure8).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import gcd

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


def alexander_from_seifert(V: "SeifertMatrix") -> LaurentPoly:
    """det(t^(1/2) V - t^(-1/2) V^T), the symmetrized Alexander polynomial.

    Computed as det(t V - V^T) and then recentred, by one integer
    determinant (Kronecker substitution): expanding the determinant over
    permutations, every coefficient of det(t V - V^T) is at most
    B = prod_i sum_j (|V_ij| + |V_ji|) in absolute value, so the integer
    det(N V - V^T) at N = 2B + 1 has the coefficients as its balanced
    base-N digits.
    """
    n = V.size
    bound = 1
    for i in range(n):
        bound *= sum(abs(V.rows[i][j]) + abs(V.rows[j][i]) for j in range(n))
    base = 2 * bound + 1
    value = det_int([[base * V.rows[i][j] - V.rows[j][i] for j in range(n)] for i in range(n)])
    coeffs = []
    while value:
        digit = (value + bound) % base - bound
        coeffs.append(digit)
        value = (value - digit) // base
    poly = LaurentPoly(tuple(enumerate(coeffs)))
    if poly.terms and poly.terms[-1][1] < 0:
        poly = LaurentPoly(tuple((e, -c) for e, c in poly.terms))
    return poly.symmetrized()


#: Largest cyclotomic order a of a knotted strand: its tables grow as a^2,
#: and rho-transfer at a = 997 on the trefoil took 0.5 s and 28 MB.
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
    """Sign of an exactly-nonzero real element of Z[zeta_a].

    With the table at precision prec, sum c_i u_i and sum c_i v_i lie
    within r = 2 sum |c_i| of 2^prec times the real and imaginary parts of
    sum c_i zeta^i.  The precision doubles until |sum c_i u_i| > r, which
    certifies the sign; this terminates because the exact value is
    nonzero.  |sum c_i v_i| must stay below r.  Each failed condition
    raises :class:`InternalCheckError`.
    """
    if x.is_zero():
        raise InternalCheckError("sign of an exactly zero pivot requested")
    r = 2 * sum(map(abs, x.coeffs))
    prec = 64
    while prec <= _MAX_SIGN_PREC:
        re = im = 0
        for c, (u, v) in zip(x.coeffs, _unit_circle_table(x.order, prec)):
            re += c * u
            im += c * v
        if abs(im) >= r:
            raise InternalCheckError("pivot is not real")
        if abs(re) > r:
            return 1 if re > 0 else -1
        prec *= 2
    raise InternalCheckError(
        f"sign of a nonzero pivot not separable at {_MAX_SIGN_PREC} bits of precision"
    )


def _congruence_step(h: list[list[CycloElement]], i0: int, j0: int) -> list[list[CycloElement]]:
    # P h P^* for P = I + u E_(i0 j0), u = h_(i0 j0), h_(i0 i0) = h_(j0 j0) = 0
    u = h[i0][j0]
    uc = u.conjugate()
    h = [list(row) for row in h]
    h[i0] = [x + u * y for x, y in zip(h[i0], h[j0])]
    for row in h:
        row[i0] = row[i0] + uc * row[j0]
    return h


def _hermitian_signature(h: list[list[CycloElement]]) -> int:
    """Signature of an exact Hermitian matrix over Z[zeta_a], without division.

    A nonzero diagonal pivot p is real, and p times the Schur complement is
    p h_ij - h_ip h_pj, Hermitian with integer coefficients; its signature
    is sign(p) times that of the complement, so sig = s + s * sig(rest)
    with s = sign(p).  If every diagonal entry is exactly zero but some
    off-diagonal entry u = h_(i0 j0) is not, the congruence
    e_(i0) -> e_(i0) + conj(u) e_(j0) (row i0 += u row j0, then column
    i0 += conj(u) column j0) keeps the signature and makes
    h_(i0 i0) = 2 u conj(u) > 0, a diagonal pivot whose sign needs no
    certificate.  A remaining block that is identically zero means the form
    is singular.
    """
    sig, sign = 0, 1  # sig(h) = sig + sign * sig(current block)
    while h:
        n = len(h)
        piv = next((i for i in range(n) if not h[i][i].is_zero()), None)
        if piv is None:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if not h[i][j].is_zero()]
            if not pairs:
                raise SingularPivot("Hermitian form is singular (zero block)")
            piv, j0 = pairs[0]
            h = _congruence_step(h, piv, j0)
            s = 1  # the pivot 2 u conj(u), u != 0, is positive by construction
        else:
            s = _certified_sign(h[piv][piv])
        p = h[piv][piv]
        sig += sign * s
        sign *= s
        rest = [i for i in range(n) if i != piv]
        h = [[p * h[i][j] - h[i][piv] * h[piv][j] for j in rest] for i in rest]
    return sig


def lt_signature(V: SeifertMatrix, a: int, b: int) -> int:
    """Levine-Tristram signature of V at omega = zeta_a^(-b):
    the signature of (1 - omega) V + (1 - conj omega) V^T.

    Deterministic and exact: pivots are exact elements of Z[zeta_a] and
    their signs are certified by adaptive-precision integer bounds.  Needs
    2 <= a <= :data:`MAX_KNOT_ORDER`.  Raises
    :class:`SingularPivot` when the form is singular, i.e. when omega is a
    root of the Alexander polynomial.
    """
    if a < 2:
        raise BadParameters("need a >= 2")
    _check_order(a)
    if b % a == 0:
        raise BadParameters("omega = 1 is excluded")
    n = V.size
    if n == 0:
        return 0
    one = CycloElement.from_rational(a, 1)
    w = CycloElement.zeta(a, -b)
    f, fc = one - w, one - w.conjugate()
    vt = V.transpose()
    h = [
        [f.scale(V.rows[i][j]) + fc.scale(vt[i][j]) for j in range(n)]
        for i in range(n)
    ]
    return _hermitian_signature(h)
