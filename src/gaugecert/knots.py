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
u = X/Y, X = 2 + t, Y = 2 - t > 0 for the real number t = 2 cos(2 pi b/a),
each Y^g c_j(u) is an integer polynomial P_j(t) of degree at most the
genus g.  With a/b in lowest terms, t has degree phi(a)/2 over Q, so a
nonzero P_j can vanish at t only when g >= phi(a)/2, and then exactly
when the minimal polynomial Psi_a of t divides it.  Otherwise P_j(t) is
signed at adaptive precision from one integer cosine (Machin's pi and
the exponential series, with a proved error below 2 units) and an
explicit bound on the Horner error: no floating point, no Z[zeta_a]
arithmetic and no third-party code.  A singular form raises
:class:`~gaugecert.errors.SingularPivot`, for the caller to handle.
:func:`alexander_from_seifert` and :func:`nondegenerate_at` remain
public as the reference route to the same nondegeneracy: for b prime to
a, the Alexander polynomial vanishes at exp(2 pi i b/a) iff the
cyclotomic polynomial Phi_a divides it, one remainder by the same
division that tests P_j against Psi_a.  No report reads them.

No knot diagrams are processed here; Seifert matrices are given directly
(as JSON integer arrays in problem files) or looked up in the small
built-in catalog (unknot, trefoil, figure8).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import BadParameters, InternalCheckError, SingularPivot
from .exactnum import cyclotomic_poly, euler_phi, exact_int, poly_divmod
from .matutil import det_int

__all__ = [
    "KNOT_CATALOG",
    "LaurentPoly",
    "SeifertMatrix",
    "alexander_from_seifert",
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
        terms = [(exact_int(e, "exponent"), exact_int(c, "coefficient")) for e, c in self.terms]
        clean = tuple(sorted(t for t in terms if t[1]))
        if len({e for e, _ in clean}) != len(clean):
            raise BadParameters("repeated exponents")
        object.__setattr__(self, "terms", clean)

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


#: Largest cyclotomic order a of a knotted strand.  A signature reads one
#: cosine, so rho-transfer at a = 997 on the trefoil took 0.13 s and 17 MB,
#: as long as the CLI's start (2 CPU x86_64); the limit bounds Phi_a, the
#: divisor of the reference route, whose exact division out of x^a - 1 grows
#: about as a^2: 34 ms at a = 840, 1.4 s at a = 5040 (cold cache).
MAX_KNOT_ORDER = 1000

#: Largest size 2g of a Seifert matrix.  A signature's Kronecker determinant
#: grows about threefold per genus: genus 10 took about 2 s (2 CPU x86_64).
MAX_SEIFERT_SIZE = 20


def _check_order(a: int) -> None:
    if a > MAX_KNOT_ORDER:
        raise BadParameters(f"cyclotomic order {a} of a knotted strand exceeds the limit {MAX_KNOT_ORDER}")


def nondegenerate_at(poly: LaurentPoly, a: int, b: int) -> bool:
    """True iff poly(exp(2 pi i b/a)) != 0, decided exactly: with
    gcd(a, b) = 1 the point is a primitive a-th root of unity, whose minimal
    polynomial is Phi_a, so this holds iff Phi_a does not divide
    t^(-lo) poly, lo the lowest exponent.  a is at most
    :data:`MAX_KNOT_ORDER`."""
    if gcd(exact_int(a, "a"), exact_int(b, "b")) != 1:
        raise BadParameters(f"gcd({a}, {b}) != 1")
    _check_order(a)
    terms = dict(poly.terms)
    span = range(min(terms, default=0), max(terms, default=-1) + 1)
    return any(poly_divmod([terms.get(e, 0) for e in span], cyclotomic_poly(a))[1])


# ---------------------------------------------------------------------------
# Seifert matrices and Levine-Tristram signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer matrix V with det(V - V^T) = 1 (the intersection
    pairing condition; forces even size), of size at most
    :data:`MAX_SEIFERT_SIZE`.  The empty matrix is the unknot."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(exact_int(x, "Seifert matrix entry") for x in row) for row in self.rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise BadParameters("Seifert matrix must be square")
        if n > MAX_SEIFERT_SIZE:
            raise BadParameters(f"Seifert matrix of size {n} exceeds the limit {MAX_SEIFERT_SIZE}")
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


@functools.lru_cache(maxsize=1024)
def _cos_scaled(a: int, b: int, prec: int) -> int:
    """An integer within 2 of 2^prec cos(2 pi b/a).

    Integers only, at w = prec + 32 bits: pi = 16 atan(1/5) - 4 atan(1/239)
    (Machin) by the alternating series, then the even part of the
    exponential series at x = 2 pi min(i, a - i)/a in [0, pi], i = b mod a.
    In units of 2^-w, each floor and each truncated tail is off by less
    than 1, so pi is off by less than 4w + 40 and x by less than 4w + 41;
    the series has fewer than w terms, and an error in x or in one term
    moves the sum by at most e^pi < 2^5 times as much: in all below
    2^5 (5w + 42) < 2^31 while prec <= _MAX_SIGN_PREC.  The shift down by
    32 bits leaves less than 3/2.
    """
    w = prec + 32

    def atan_inv(x: int) -> int:  # 2^w atan(1/x); each term is one exact floor
        total, power, k = 0, (1 << w) // x, 0
        while power:
            total, power, k = total + (-1) ** k * (power // (2 * k + 1)), power // (x * x), k + 1
        return total

    pi = 16 * atan_inv(5) - 4 * atan_inv(239)
    b %= a
    x = 2 * pi * min(b, a - b) // a
    total, term, n = 0, 1 << w, 0  # term = 2^w x^n/n!
    while term:
        if n % 2 == 0:
            total += (-1) ** (n // 2) * term
        n += 1
        term = term * x // (n << w)
    return total >> 32


@functools.lru_cache(maxsize=None)
def _real_cyclotomic(a: int) -> tuple[int, ...]:
    """Coefficients (low to high) of Psi_a, the minimal polynomial of
    2 cos(2 pi/a) over Q, of degree phi(a)/2 (degree 1 for a <= 2).

    For a >= 3, Phi_a is palindromic of degree 2d, d = phi(a)/2, and
    Phi_a(z) = z^d Psi_a(z + 1/z): z^-d Phi_a(z) = f_d + sum_k f_(d+k)
    (z^k + z^-k), and z^k + z^-k = D_k(x) at x = z + 1/z, with D_0 = 2,
    D_1 = x and D_(k+1) = x D_k - D_(k-1).
    """
    if a <= 2:
        return (-2, 1) if a == 1 else (2, 1)
    phi = cyclotomic_poly(a)
    d = (len(phi) - 1) // 2
    psi = [phi[d]] + [0] * d
    prev, cur = [2], [0, 1]
    for k in range(1, d + 1):
        psi = [p + phi[d + k] * c for p, c in zip(psi, cur + [0] * (d + 1 - len(cur)))]
        prev, cur = cur, [x - y for x, y in zip([0] + cur, prev + [0, 0])]
    return tuple(psi)


@functools.lru_cache(maxsize=None)
def _descartes_basis(g: int) -> tuple[tuple[int, ...], ...]:
    # (-X)^m Y^(g - m), m = 0..g, as integer polynomials in t (low to high):
    # products of the factors c - t with c = -2 (-X) and c = 2 (Y)
    basis = []
    for m in range(g + 1):
        poly = [1]
        for c in [-2] * m + [2] * (g - m):
            poly = [c * x - y for x, y in zip(poly + [0], [0] + poly)]
        basis.append(tuple(poly))
    return tuple(basis)


def _certified_sign(p: Sequence[int], a: int, b: int) -> int:
    """Sign of p(t), t = 2 cos(2 pi b/a), for an integer polynomial p (low
    to high) with p(t) != 0, such as Y^g c_j(X/Y) for a coefficient c_j
    of the characteristic polynomial.

    At precision prec, T = 2 _cos_scaled(a, b, prec) is within 4 of
    tau = 2^prec t, so with g = deg p the integer
    Q = sum_k p_k T^k 2^(prec (g - k)) (by Horner) lies within
    r = sum_k |p_k| k 4 (2^(prec + 1) + 4)^(k - 1) 2^(prec (g - k)) of
    2^(prec g) p(t), since |T^k - tau^k| <= k |T - tau| max(|T|, |tau|)^(k - 1).
    The precision doubles until |Q| > r, which certifies the sign; this
    terminates because p(t) != 0.  Each failed condition raises
    :class:`InternalCheckError`.
    """
    if not any(p):
        raise InternalCheckError("sign of an identically zero coefficient requested")
    g = len(p) - 1
    prec = 64
    while prec <= _MAX_SIGN_PREC:
        T, top = 2 * _cos_scaled(a, b, prec), (1 << (prec + 1)) + 4
        q = r = 0
        for k in range(g, -1, -1):
            q = q * T + (p[k] << (prec * (g - k)))
            if k:
                r += abs(p[k]) * k * 4 * top ** (k - 1) << (prec * (g - k))
        if abs(q) > r:
            return 1 if q > 0 else -1
        prec *= 2
    raise InternalCheckError(
        f"sign of a nonzero coefficient not separable at {_MAX_SIGN_PREC} bits of precision"
    )


def _sign_at(p: Sequence[int], a: int, b: int, psi: Sequence[int] | None) -> int:
    # sign of the integer polynomial p at t = 2 cos(2 pi b/a), gcd(a, b) = 1:
    # 0 when p is identically zero or vanishes at t, else certified.  A
    # nonzero p vanishes at t iff psi, the minimal polynomial of t, divides
    # it; psi is None when deg p is below its degree, so p(t) != 0
    if not any(p):
        return 0
    if psi and not any(poly_divmod(p, psi)[1]):
        return 0
    return _certified_sign(p, a, b)


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
    if exact_int(a, "a") < 2:
        raise BadParameters("need a >= 2")
    _check_order(a)
    if exact_int(b, "b") % a == 0:
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
    # Y^g c_j(X/Y) = sum_m e_(j, 2m) (-X)^m Y^(g - m), g = n/2, is an integer
    # polynomial in t = 2 cos(2 pi b/a), X = 2 + t and Y = 2 - t > 0; with
    # a/b in lowest terms, t has degree phi(a)/2 over Q (1 for a = 2)
    d = gcd(a, b)
    order, step = a // d, min(b % a, -b % a) // d
    psi = _real_cyclotomic(order) if n >= euler_phi(order) else None
    basis = _descartes_basis(n // 2)
    signs = [
        _sign_at([sum(e * p[k] for e, p in zip(row[::2], basis)) for k in range(n // 2 + 1)], order, step, psi)
        for row in rows
    ]
    if not signs[0]:
        raise SingularPivot(f"Hermitian form at omega = zeta_{a}^(-{b}) is singular")
    pos, neg = _sign_changes(signs), _sign_changes([s * (-1) ** j for j, s in enumerate(signs)])
    if pos + neg != n:
        raise InternalCheckError(
            f"Descartes' rule counts {pos} positive and {neg} negative roots of a real-rooted "
            f"characteristic polynomial of degree {n}"
        )
    return pos - neg
