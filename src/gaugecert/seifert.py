"""Seifert data bookkeeping.

A Seifert fibered rational homology sphere fibering over S^2 is described
by an ordered list of coprime pairs (a_i, b_i) with a_i >= 1; we write
S(0; (a_1,b_1), ..., (a_n,b_n)).  The surgery-diagram invariant

    d = (a_1 ... a_n) sum_i b_i / a_i

is an integer; |d| is the order of H_1 and the manifold is an integer
homology sphere exactly when d = +-1.  Data is conventionally oriented so
that d > 0 (the orientation for which the associated mapping-cylinder
4-manifold is negative definite); :meth:`SeifertData.reversed` flips all
b_i.  The vanishing of H^1 of that 4-manifold with Z/2 coefficients is
equivalent to at most one a_i being even, which is checked by
:func:`check_h1_z2` rather than enforced at construction.

Surgery on a torus knot: for coprime p, q and d, n with pq n - d > n > 0,
-d/n surgery on the (p, -q) torus knot is the Seifert manifold
S(0; (p, r), (q, s), (pq n - d, n)) where p s + r q = -1; we pick the
minimal-|r| solution (ties broken towards positive r) so output is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import BadParameters, InternalCheckError
from .exactnum import exact_int, inverse_mod

__all__ = [
    "SeifertData",
    "check_h1_z2",
    "d_invariant",
    "meridian_holonomy",
    "torus_knot_surgery",
]


@dataclass(frozen=True)
class SeifertData:
    """Ordered Seifert pairs (a_i, b_i), gcd(a_i, b_i) = 1, a_i >= 1."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple((exact_int(a, "a_i"), exact_int(b, "b_i")) for a, b in self.pairs)
        for a, b in pairs:
            if a < 1:
                raise BadParameters(f"multiplicity {a} must be positive")
            if gcd(a, b) != 1:
                raise BadParameters(f"gcd({a}, {b}) != 1")
        object.__setattr__(self, "pairs", pairs)

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def a_product(self) -> int:
        out = 1
        for a, _ in self.pairs:
            out *= a
        return out

    def reversed(self) -> "SeifertData":
        """Orientation reversal: flips the sign of every b_i (and of d)."""
        return SeifertData(tuple((a, -b) for a, b in self.pairs))

    def __str__(self) -> str:
        inner = ",".join(f"({a},{b})" for a, b in self.pairs)
        return f"S(0;{inner})"


def d_invariant(S: SeifertData) -> int:
    """d = (a_1...a_n) sum_i b_i/a_i, exactly (each a/a_i is integral)."""
    a = S.a_product
    return sum(b * (a // ai) for ai, b in S.pairs)


def check_h1_z2(S: SeifertData) -> bool:
    """True iff at most one a_i is even (H^1 of the mapping-cylinder
    4-manifold with Z/2 coefficients vanishes)."""
    return sum(1 for a, _ in S.pairs if a % 2 == 0) <= 1


def meridian_holonomy(a: int, b: int) -> int:
    """Holonomy exponent of the meridian under the linking form: the flat
    SO(2) connection determined by the surgery strand sends the meridian to
    exp(2 pi i l / a) with l = -b mod a, normalized into [1, a-1]."""
    if exact_int(a, "a") < 1 or gcd(a, exact_int(b, "b")) != 1:
        raise BadParameters(f"need a >= 1 and gcd(a, b) = 1, got ({a}, {b})")
    return (-b) % a


def _min_abs_solution(p: int, q: int) -> tuple[int, int]:
    # minimal |r| with p s + r q = -1; ties (only possible 2|r|=p) go to r > 0
    r0 = (-inverse_mod(q % p, p)) % p if p > 1 else 0
    candidates = [r0, r0 - p]
    r = min(candidates, key=lambda x: (abs(x), -x))
    s = (-1 - r * q) // p
    if p * s + r * q != -1:
        raise InternalCheckError(f"p s + r q = {p * s + r * q}, not -1, at (p, q, r) = ({p}, {q}, {r})")
    return r, s


def torus_knot_surgery(p: int, q: int, d: int, n: int) -> SeifertData:
    """Seifert data ((p, r), (q, s), (pq n - d, n)) of -d/n surgery on the
    (p, -q) torus knot, with p s + r q = -1 and minimal |r|.

    Requires gcd(p, q) = 1, gcd(d, n) = 1 and pq n - d > n > 0; the
    d-invariant of the output is d.
    """
    p, q, d, n = map(exact_int, (p, q, d, n), ("p", "q", "d", "n"))
    if p < 2 or q < 2:
        raise BadParameters(f"torus knot parameters p and q must be at least 2, got p = {p}, q = {q}")
    if gcd(p, q) != 1:
        raise BadParameters(f"gcd({p}, {q}) != 1")
    if n <= 0 or p * q * n - d <= n:
        raise BadParameters(f"need pq n - d > n > 0, got pq n - d = {p * q * n - d}, n = {n}")
    if gcd(d, n) != 1:
        raise BadParameters(f"gcd({d}, {n}) != 1")
    r, s = _min_abs_solution(p, q)
    out = SeifertData(((p, r), (q, s), (p * q * n - d, n)))
    d_out = d_invariant(out)
    if d_out != d:
        raise InternalCheckError(f"surgery data {out} has d = {d_out}, expected {d}")
    return out
