"""The one fraction-free integer elimination (det_int, leading minors, rows)
against the permutation expansion, on matrices whose pivots vanish."""

import random

from gaugecert.matutil import bareiss_leading_minors, bareiss_rows, det_int
from oracles import leibniz_det


def _det(m) -> int:
    return leibniz_det(m).get(0, 0)


def _random_matrix(rng, n):
    # mostly zeros, so leading pivots vanish often; entries of either sign
    return [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]


def _random_skew(rng, n):
    # zero diagonal: the first leading minor is always 0
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = rng.randint(-5, 5)
            m[j][i] = -m[i][j]
    return m


def _cases():
    rng = random.Random(1968)
    return [_random_matrix(rng, rng.randint(1, 6)) for _ in range(300)] + [
        _random_skew(rng, rng.randint(1, 6)) for _ in range(100)
    ]


def test_det_int_against_leibniz():
    swapped = 0
    for m in _cases():
        det = _det(m)
        assert det_int(m) == det, m
        swapped += m[0][0] == 0 and det != 0
    assert swapped >= 50  # a row swap was needed for a nonzero determinant
    assert det_int([]) == 1


def test_leading_minors_against_leibniz():
    zero_before_last = 0
    for m in _cases():
        n = len(m)
        minors = bareiss_leading_minors(m)
        assert len(minors) == n
        expected = [_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        # exact up to and including the first zero pivot, zero-padded after it
        first_zero = next((k for k, d in enumerate(expected) if d == 0), n)
        assert minors[: first_zero + 1] == expected[: first_zero + 1], m
        assert all(d == 0 for d in minors[first_zero + 1 :]), m
        zero_before_last += first_zero < n - 1
    assert zero_before_last >= 100
    assert bareiss_leading_minors([]) == []


def test_bareiss_rows_against_leibniz():
    # from column i on, row i is the minor on rows 0..i and columns 0..i-1, j
    rng = random.Random(1985)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if any(_det([row[:k] for row in m[:k]]) == 0 for k in range(1, n + 1)):
            continue
        b = bareiss_rows(m)
        for i in range(n):
            for j in range(i, n):
                assert b[i][j] == _det([row[:i] + [row[j]] for row in m[: i + 1]]), m
        checked += n > 2
    assert checked >= 50

