"""Intersection form arithmetic and the count of reducible instantons.

The extended intersection form of a 4-manifold whose boundary is a union
of rational homology spheres takes values in (1/d) Z; it is modeled by
:class:`GramForm`, a symmetric rational matrix that becomes integral after
multiplying by the scale d.  Torsion classes are not modeled on the
lattice; where the argument needs them (the parity step of
:func:`sfqhs_reducible_count`) the caller decides that the relative
torsion is odd, and records its provenance, before it asks for the count.

For a class e in a negative definite lattice the set that counts
reducible instantons is

    C(e) = { e' | e'.e' = e.e,  e' = e mod 2,  each boundary restriction
             of e' equals that of e up to sign } / +-1 .

:func:`enumerate_C_e` enumerates it completely by a Fincke-Pohst
recursion in integers only, over the fraction-free (Bareiss) rows of the
integer matrix -scale * gram that every form keeps; :class:`CeProblem`
eliminates once, and that elimination both decides definiteness and
drives the search.  The search visits one vector of each pair {x, -x},
steps each level by two through the x_i = e_i mod 2 (the congruence of
C(e), coordinate by coordinate), and carries each level's centres down,
updating them by one term per level; Fractions appear only where a form
is read in and where a pairing is reported.
:func:`enumerate_C_e_bruteforce` is an independent box-scan oracle used
by the test suite and the self-test command, with the
coordinate box computed exactly from the diagonal of the inverse form.
Both map each candidate to its class in one pass: the mod-2 test, then
r.x once per restriction r, compared with r.e (kept by :class:`CeProblem`),
from which the up-to-sign filter and the sign that restricts to e on the
nose are both read.  A class is reported by that pinned sign when exactly
one sign restricts on the nose, else with its first nonzero coordinate
positive; output is sorted.

:func:`detect_orthogonal_split` decides whether the lattice is generated
by e together with the integer orthogonal complement of e, by one gcd:
with v = scale * (G e), it is iff |v . e| = gcd(v).  When it is, C(e) is
a single point.  Forms of rank above :data:`MAX_CE_RANK` are refused
before their elimination.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from .errors import BadParameters, HypothesisFailed, InternalCheckError, NotDefinite
from .exactnum import HJExpansion, continuants, exact_int, exact_rational
from .matutil import bareiss_leading_minors, bareiss_rows, det_int

__all__ = [
    "CeProblem",
    "GramForm",
    "ReducibleCountVerdict",
    "Restriction",
    "detect_orthogonal_split",
    "enumerate_C_e",
    "enumerate_C_e_bruteforce",
    "gram_determinant",
    "is_negative_definite",
    "plumbing_gram",
    "sfqhs_reducible_count",
]


# ---------------------------------------------------------------------------
# Gram forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramForm:
    """Symmetric rational pairing with values in (1/scale) Z.

    The entries ``gram`` are ints or Fractions (a float or bool is refused), and
    scale * gram must be a symmetric integer matrix: only that is kept, as
    ``rows``, which all arithmetic on the form reads.  Whether ``rows`` is
    tridiagonal, and then its leading minors, are found once per form.
    """

    rank: int
    gram: InitVar[tuple[tuple[Fraction, ...], ...]]
    scale: int = 1
    rows: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self, gram) -> None:
        object.__setattr__(self, "rank", exact_int(self.rank, "rank"))
        scale = exact_int(self.scale, "scale")
        object.__setattr__(self, "scale", scale)
        if scale < 1:
            raise BadParameters("scale must be a positive integer")
        if len(gram) != self.rank or any(len(row) != self.rank for row in gram):
            raise BadParameters("gram matrix shape does not match rank")
        gram = tuple(map(tuple, gram))
        if scale == 1 and all(set(map(type, row)) <= {int} for row in gram):
            rows = gram
        else:
            gram = tuple(tuple(x if type(x) is int else exact_rational(x, "gram entry") for x in row) for row in gram)
            # scale * x is an integer iff the reduced denominator of x divides scale
            if any(scale % x.denominator for row in gram for x in row):
                raise BadParameters("scale * gram must be integral")
            rows = tuple(tuple(scale // x.denominator * x.numerator for x in row) for row in gram)
        # scale >= 1, so the rational matrix is symmetric iff the integer one is
        if rows != tuple(zip(*rows)):
            raise BadParameters("gram matrix must be symmetric")
        object.__setattr__(self, "rows", rows)

    @functools.cached_property
    def _tridiagonal_minors(self) -> list[int] | None:
        # leading minors of a tridiagonal ``rows`` by the continuant recurrence, else None
        rows = self.rows
        if not _is_tridiagonal(rows):
            return None
        return continuants([row[k] for k, row in enumerate(rows)], [rows[k][k - 1] for k in range(1, len(rows))])


def _pair(rows, x, y) -> int:
    # x . (rows y) for integer vectors
    return sum(xi * sum(r * yj for r, yj in zip(row, y) if yj) for xi, row in zip(x, rows) if xi)


def _is_tridiagonal(g) -> bool:
    # slice-based so large sparse rows are scanned at C speed
    return all(
        not any(row[: max(i - 1, 0)]) and not any(row[i + 2 :])
        for i, row in enumerate(g)
    )


def is_negative_definite(G: GramForm) -> bool:
    """Exact leading-principal-minor test on the integer matrix scale *
    gram: the k-th minor must have sign (-1)^k for every k; rank deficiency
    (a zero minor) is rejected."""
    if G.rank == 0:
        return True
    minors = G._tridiagonal_minors or bareiss_leading_minors(G.rows)
    return all((m < 0) if k % 2 else (m > 0) for k, m in enumerate(minors, start=1))


def gram_determinant(G: GramForm) -> Fraction:
    """Exact determinant of the gram matrix."""
    if G.rank == 0:
        return Fraction(1)
    minors = G._tridiagonal_minors
    det = det_int(G.rows) if minors is None else minors[-1]
    return Fraction(det, G.scale**G.rank)


def plumbing_gram(h: HJExpansion) -> GramForm:
    """Intersection form of the linear plumbing of disk bundles over S^2
    along the expansion a/b = [c_1, ..., c_m]: tridiagonal with diagonal
    -c_i and off-diagonal 1.  Negative definite with |det| = a."""
    m = len(h.terms)
    rows = []
    for i, c in enumerate(h.terms):
        row = [0] * m
        row[i] = -c
        if i > 0:
            row[i - 1] = 1
        if i + 1 < m:
            row[i + 1] = 1
        rows.append(tuple(row))
    return GramForm(rank=m, gram=tuple(rows))


# ---------------------------------------------------------------------------
# C(e) enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Restriction:
    """Boundary restriction: a class x restricts to (row . x) mod modulus."""

    modulus: int
    row: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", exact_int(self.modulus, "modulus"))
        if self.modulus < 1:
            raise BadParameters("restriction modulus must be positive")
        object.__setattr__(self, "row", tuple(exact_int(x, "row entry") for x in self.row))


#: Largest rank of a C(e) form: its elimination is cubic in the rank and
#: runs before any Fincke-Pohst node is counted.  Rank 200 took 0.3 s and
#: rank 400 took 3.5 s on dense forms (2 CPU x86_64).
MAX_CE_RANK = 200


@dataclass(frozen=True)
class CeProblem:
    """A C(e) problem on a negative definite form of rank at most
    :data:`MAX_CE_RANK`.  Definiteness is read off the swap-free Bareiss
    elimination of -scale * gram (every leading minor positive, a zero
    pivot refused), and the eliminated rows are kept for
    :func:`enumerate_C_e`, so each problem is eliminated once; so is r.e
    for each restriction r, which every candidate's class map reads."""

    form: GramForm
    e: tuple[int, ...]
    restrictions: tuple[Restriction, ...] = ()
    _bareiss: list[list[int]] = field(init=False, repr=False, compare=False)
    _r_e: tuple[int, ...] = field(init=False, repr=False, compare=False)  # r.e per restriction

    def __post_init__(self) -> None:
        if self.form.rank > MAX_CE_RANK:
            raise BadParameters(f"C(e) form of rank {self.form.rank} exceeds the limit {MAX_CE_RANK}")
        object.__setattr__(self, "e", tuple(exact_int(x, "e entry") for x in self.e))
        object.__setattr__(self, "restrictions", tuple(self.restrictions))
        if len(self.e) != self.form.rank:
            raise BadParameters("class length does not match form rank")
        for r in self.restrictions:
            if len(r.row) != self.form.rank:
                raise BadParameters("restriction row length does not match form rank")
        b = bareiss_rows([[-v for v in row] for row in self.form.rows])
        if any(b[i][i] <= 0 for i in range(self.form.rank)):
            raise NotDefinite("C(e) requires a negative definite form")
        object.__setattr__(self, "_bareiss", b)
        object.__setattr__(self, "_r_e", tuple(sum(c * ei for c, ei in zip(r.row, self.e)) for r in self.restrictions))


def _class_of(P: CeProblem, x: tuple[int, ...]) -> tuple[int, ...] | None:
    """The reported representative of the class {x, -x}, or None if x fails
    a filter: x = e mod 2, and r.x = +-r.e mod the modulus of each
    restriction r.  If exactly one of x, -x restricts to e on the nose, that
    sign is pinned; otherwise the first nonzero coordinate is positive."""
    if any((xi - ei) % 2 for xi, ei in zip(x, P.e)):
        return None
    plus = minus = True  # x, respectively -x, restricts to e on the nose
    for r, re in zip(P.restrictions, P._r_e):
        rx = sum(c * xi for c, xi in zip(r.row, x))
        same, flipped = (rx - re) % r.modulus == 0, (rx + re) % r.modulus == 0
        if not (same or flipped):
            return None
        plus, minus = plus and same, minus and flipped
    if plus == minus:
        plus = next((v > 0 for v in x if v), True)
    return x if plus else tuple(-v for v in x)


#: Most Fincke-Pohst nodes (the root and each coordinate value tried at
#: any level, leaves included) one C(e) enumeration may visit: the rank-4
#: identity form needs 265,628 (0.2 s) at e = (100, 0, 0, 0), and 7.1
#: million (about 4 s) at e = (300, 0, 0, 0) (2 CPU x86_64).
MAX_CE_NODES = 10**6


def enumerate_C_e(P: CeProblem) -> tuple[tuple[int, ...], ...]:
    """Complete enumeration of C(e), one representative per sign class,
    sorted.  Representatives are sign-canonical (first nonzero coordinate
    positive) except where the restriction data pins the sign, in which
    case the pinned sign is reported.

    Fincke-Pohst (Math. Comp. 44, 1985) in integers: for A = -scale * gram
    with Bareiss rows b_ij and leading minors D_i (D_0 = 1, b_ii = D_(i+1)),
    kept by :class:`CeProblem`,
    x.Ax = sum_i y_i^2 / (D_i D_(i+1)), y_i = D_(i+1) x_i + N_i with centre
    N_i = sum_(j>i) b_ij x_j.  Level i admits the x_i with y_i^2 <= D_i W_i
    (one isqrt), W_i being the budget left times D_(i+1).  Of these it tries
    only the x_i = e_i mod 2 (e mod 2 is w_2 of the bundle, so the
    congruence holds coordinate by coordinate), stepping by two from the
    lower end rounded up to that parity, and passes down
    the exact quotient W_(i-1) = (D_i W_i - y_i^2) / D_(i+1) and the partial
    centres c_k = sum_(j>=i) b_kj x_j, k < i, each updated by b_ki x_i
    (Schnorr-Euchner, Math. Programming 66, 1994), so no centre is summed
    afresh.  The leaf needs y_0^2 = W_0, so only y_0 = +-isqrt(W_0) is tried,
    and a root whose x_0 = (y_0 - N_0) / D_1 has the parity of e_0 goes
    through the one-pass class map, which applies the mod-2 and restriction
    filters and picks the representative.

    Both filters and the representative depend only on the class {x, -x},
    so one sign per class is searched: the x whose last nonzero coordinate
    is positive, that is x_i >= 0 at every level whose higher coordinates
    are all zero (the zero vector is found once).  Both signs of a class
    have the same parity, so the two rules combine: while free, a level
    tries 0, 2, 4, ... or 1, 3, 5, ... by the parity of e_i.  A node is
    counted when it is tried, and more than :data:`MAX_CE_NODES` nodes
    raise :class:`BadParameters`.
    """
    n = P.form.rank
    budget = -_pair(P.form.rows, P.e, P.e)  # scale * target
    if budget < 0:
        raise InternalCheckError(f"a negative definite form gave e.e = {-budget}/{P.form.scale} > 0")
    if n == 0:
        return ((),)
    b, e = P._bareiss, P.e
    D = [1] + [b[i][i] for i in range(n)]  # all positive: CeProblem checked definiteness
    cols = [[b[k][i] for k in range(i)] for i in range(n)]  # b_ki, k < i
    found: set[tuple[int, ...]] = set()
    x = [0] * n
    nodes = 0

    def visit(k: int) -> None:
        nonlocal nodes
        nodes += k
        if nodes > MAX_CE_NODES:
            raise BadParameters(f"C(e) enumeration exceeds the limit of {MAX_CE_NODES} Fincke-Pohst nodes")

    def leaf(w: int, N: int, free: bool) -> None:
        s = isqrt(w)  # D_0 = 1; while free N = 0 and +s is the sign searched
        for y in ((s,) if free else {s, -s}) if s * s == w else ():
            m, rem = divmod(y - N, D[1])
            if not rem and (m - e[0]) % 2 == 0 and (rep := _class_of(P, (m, *x[1:]))) is not None:
                found.add(rep)

    def descend(i: int, w: int, c: list[int], free: bool) -> None:
        # c[k] = sum_(j>i) b_kj x_j for k <= i; free while x_j = 0 for all j > i
        d, N, r2 = D[i + 1], c[i], D[i] * w
        s = isqrt(r2)
        lo, hi = 0 if free else -((s + N) // d), (s - N) // d
        lo += (lo - e[i]) % 2  # x_i = e_i mod 2
        visit((hi - lo) // 2 + 1)  # >= 0: hi >= lo - 2, the real interval having length 2s/d
        col = cols[i]
        for m in range(lo, hi + 1, 2):
            x[i] = m
            y = d * m + N
            w_next, rem = divmod(r2 - y * y, d)
            if rem:
                raise InternalCheckError(f"inexact Fincke-Pohst budget at level {i}")
            if i == 1:
                leaf(w_next, c[0] + col[0] * m, free and not m)
            else:
                descend(i - 1, w_next, [ck + bk * m for ck, bk in zip(c, col)], free and not m)
        x[i] = 0

    visit(1)  # the root; each node counts its children as it finds their interval
    if n == 1:
        leaf(D[1] * budget, 0, True)
    else:
        descend(n - 1, D[n] * budget, [0] * n, True)
    return tuple(sorted(found))


def enumerate_C_e_bruteforce(P: CeProblem) -> tuple[tuple[int, ...], ...]:
    """Independent oracle: scan the full coordinate box |x_i| <= bound_i,
    bound_i = floor(sqrt(target * (A^-1)_ii)) for A = -gram (any solution
    obeys x_i^2 <= target * (A^-1)_ii), and filter.  With the integer
    matrix M = scale * A, (A^-1)_ii = scale * det(M_ii) / det(M), M_ii
    being M without row and column i.

    Exponential in the rank; for cross-checking small instances only.
    """
    n = P.form.rank
    norm = _pair(P.form.rows, P.e, P.e)  # -scale * target
    if n == 0:
        return ((),)
    m = [[-x for x in row] for row in P.form.rows]
    det = det_int(m)  # positive: CeProblem checked definiteness
    bounds = []
    for i in range(n):
        minor = [row[:i] + row[i + 1 :] for k, row in enumerate(m) if k != i]
        bounds.append(isqrt(-norm * det_int(minor) // det))
    found: set[tuple[int, ...]] = set()

    def scan(i: int, partial: list[int]) -> None:
        if i == n:
            cand = tuple(partial)
            if _pair(P.form.rows, cand, cand) == norm and (rep := _class_of(P, cand)) is not None:
                found.add(rep)
            return
        for v in range(-bounds[i], bounds[i] + 1):
            scan(i + 1, partial + [v])

    scan(0, [])
    return tuple(sorted(found))


def detect_orthogonal_split(G: GramForm, e) -> bool:
    """True iff the integer lattice is generated by e together with the
    integer orthogonal complement of e, decided exactly over Z.

    With v = scale * (G e) (an integer vector), x -> (v / gcd(v)) . x maps
    Z^n onto Z with kernel the complement of e, so the split holds iff e
    maps to +-1, that is |v . e| = gcd(v).  When it holds, C(e) is a
    single point.
    """
    if not is_negative_definite(G):
        raise NotDefinite("orthogonal split test requires a negative definite form")
    e = tuple(exact_int(x, "e entry") for x in e)
    if len(e) != G.rank:
        raise BadParameters("class length does not match form rank")
    if all(x == 0 for x in e):
        return True
    v = [sum(g * ej for g, ej in zip(row, e)) for row in G.rows]
    return abs(sum(vi * ei for vi, ei in zip(v, e))) == gcd(*v)


# ---------------------------------------------------------------------------
# the surgery-family Diophantine count
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducibleCountVerdict:
    """Outcome of the exhaustive reducible-count check.

    ``solutions`` lists all (k, l2, l3) with k in [0, a), k = 1 mod p,
    k = +-1 mod q and mod (pq n - d), satisfying d^2 = l3 a + (d k + a l2)^2
    with l3 >= 0.  The intended conclusion holds iff the only solution is
    (1, 0, 0); the number of reducibles then equals the order of the
    (odd) relative torsion group, recorded as a parity only.
    """

    solutions: tuple[tuple[int, int, int], ...]

    @property
    def unique_witness(self) -> bool:
        return self.solutions == ((1, 0, 0),)

    @property
    def count_parity(self) -> str:
        return "odd" if self.unique_witness else "unknown"


def sfqhs_reducible_count(p: int, q: int, d: int, n_last: int) -> ReducibleCountVerdict:
    """Exhaustively verify that the restriction class of a reducible bundle
    in the surgery-family argument is pinned to k = 1.

    Searches all k in [0, a) with k = 1 mod p, k = +-1 mod q and
    k = +-1 mod (pq n - d), where a = pq (pq n - d), and all l2 with
    |d k + a l2| <= d (sufficient: any solution of
    d^2 = l3 a + (d k + a l2)^2 with l3 >= 0 has |d k + a l2| <= d), that
    is -((d + d k) // a) <= l2 <= (d - d k) // a in integer floor division,
    and reports every solution.  Requires a > d^2 and p, q, d pairwise coprime, odd
    and positive; the caller has decided that the relative torsion is odd.
    """
    p, q, d, n_last = map(exact_int, (p, q, d, n_last), ("p", "q", "d", "n_last"))
    if min(p, q, d) < 1 or p % 2 == 0 or q % 2 == 0 or d % 2 == 0:
        raise HypothesisFailed("p, q, d must be positive and odd")
    if gcd(p, q) != 1 or gcd(p, d) != 1 or gcd(q, d) != 1:
        raise HypothesisFailed("p, q, d must be pairwise coprime")
    a3 = p * q * n_last - d
    if a3 <= 0:
        raise HypothesisFailed("pq n - d must be positive")
    a = p * q * a3
    if a <= d * d:
        raise HypothesisFailed(f"need a = pq(pq n - d) = {a} > d^2 = {d * d}")
    solutions = []
    for eps_q in (1, -1):
        for eps_3 in (1, -1):
            k = _crt3((1, p), (eps_q % q, q), (eps_3 % a3, a3))
            for l2 in range(-((d + d * k) // a), (d - d * k) // a + 1):
                m = d * k + a * l2
                rem = d * d - m * m
                if rem >= 0 and rem % a == 0:
                    solutions.append((k, l2, rem // a))
    return ReducibleCountVerdict(solutions=tuple(sorted(set(solutions))))


def _crt3(*residues: tuple[int, int]) -> int:
    x, m = 0, 1
    for r, n in residues:
        if gcd(m, n) != 1:
            raise InternalCheckError(f"CRT moduli {m} and {n} are not coprime")
        x = (x + (r - x) * pow(m, -1, n) % n * m) % (m * n)
        m *= n
    return x
