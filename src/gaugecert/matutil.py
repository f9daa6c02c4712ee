"""The exact integer matrix elimination shared by the knot and lattice modules.

Every exact determinant in the package comes from the one fraction-free
elimination here: leading minors for definiteness, Gram determinants,
the diagonal of an inverse form (as ratios of minors), the integer rows
that drive the C(e) enumeration and, by Kronecker substitution, the
Alexander polynomial and the characteristic polynomial of the
Levine-Tristram signatures.  The orthogonal split test needs no matrix:
it is one gcd (:func:`gaugecert.lattice.detect_orthogonal_split`).
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadParameters

__all__ = ["bareiss_leading_minors", "bareiss_rows", "det_int"]


def _bareiss(rows: Sequence[Sequence[int]], swap_rows: bool) -> tuple[list[int], list[list[int]]]:
    # Fraction-free (Bareiss) elimination, Math. Comp. 22 (1968): after step
    # k the pivot is the (k+1)-th leading principal minor of the row-swapped
    # matrix, and every division by the previous pivot is exact.  Returns
    # those minors, signed by the row swaps made so far, and the eliminated
    # matrix, whose row k is final from column k on; after a zero pivot (no
    # nonzero entry to swap up) the minors are padded with zeros.
    m = [list(row) for row in rows]
    r = len(m)
    # one C-speed type test per row, not a call per entry
    if any(len(row) != r or not set(map(type, row)) <= {int} for row in m):
        raise BadParameters("matrix must be square, with int entries")
    minors: list[int] = []
    sign = prev = 1
    for k in range(r):
        if m[k][k] == 0 and swap_rows:
            swap = next((i for i in range(k + 1, r) if m[i][k]), k)
            if swap != k:
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
        pivot = m[k][k]
        minors.append(sign * pivot)
        if pivot == 0:
            return minors + [0] * (r - k - 1), m
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return minors, m


def bareiss_leading_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Leading principal minors D_1, ..., D_r of a square integer matrix.

    Stops early and pads with zeros once a zero pivot is hit (any later
    leading minor reported as 0 may be inaccurate, but a zero pivot already
    rules out definiteness, which is all callers use this for).
    """
    return _bareiss(rows, swap_rows=False)[0]


def bareiss_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Rows of the swap-free elimination of a square integer matrix with
    nonzero leading minors D_i (D_0 = 1): from column i on, row i holds
    b_ij = D_i u_ij for the Gaussian upper factor u, so b_ii = D_(i+1)."""
    return _bareiss(rows, swap_rows=False)[1]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss with row swaps)."""
    return _bareiss(rows, swap_rows=True)[0][-1] if rows else 1
