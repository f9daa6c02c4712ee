"""Alexander polynomials, nondegeneracy at roots of unity, and
Levine-Tristram signatures."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from math import gcd

import mpmath
import pytest
from oracles import leibniz_det

import gaugecert.knots as knots
from gaugecert.exactnum import euler_phi
from gaugecert import (
    BadParameters,
    CycloElement,
    InternalCheckError,
    KNOT_CATALOG,
    LaurentPoly,
    SeifertMatrix,
    SingularPivot,
    alexander_from_seifert,
    alexander_torus,
    lt_signature,
    nondegenerate_at,
)


def test_alexander_torus_examples():
    assert alexander_torus(2, 3).as_dict() == {-1: 1, 0: -1, 1: 1}
    assert alexander_torus(2, 5).as_dict() == {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}
    # Alexander polynomial at t = 1 is a unit
    for p, q in ((2, 3), (3, 5), (2, 7), (4, 5)):
        assert sum(c for _, c in alexander_torus(p, q).terms) in (1, -1)
    with pytest.raises(BadParameters):
        alexander_torus(2, 4)


def test_alexander_from_seifert_matches_catalog():
    assert alexander_from_seifert(KNOT_CATALOG["trefoil"]) == alexander_torus(2, 3)
    assert alexander_from_seifert(KNOT_CATALOG["figure8"]).as_dict() == {-1: 1, 0: -3, 1: 1}
    assert alexander_from_seifert(KNOT_CATALOG["unknot"]).as_dict() == {0: 1}


def _random_unimodular_seifert(rng, genus, magnitude):
    # V = P A P^T + S: A has blocks [[0, 1], [0, 0]], so V - V^T = P J P^T
    # with det 1 for any unimodular P; S is symmetric with entries up to
    # magnitude
    n = 2 * genus
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        P[i] = [x + c * y for x, y in zip(P[i], P[j])]
    A = [[int(j == i + 1 and i % 2 == 0) for j in range(n)] for i in range(n)]
    V = [[sum(P[i][k] * A[k][l] * P[j][l] for k in range(n) for l in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = rng.randint(-magnitude, magnitude)
            V[i][j] += s
            if j != i:
                V[j][i] += s
    return SeifertMatrix(tuple(map(tuple, V)))


def test_alexander_from_seifert_against_leibniz():
    # det(t V - V^T) by the permutation expansion over Z[t], with the
    # library's normalization (positive leading coefficient, support
    # centred on 0); the Kronecker substitution relies on the coefficient
    # bound B = prod_i sum_j (|V_ij| + |V_ji|), checked here too
    rng = random.Random(1968)
    large = 0
    for k in range(540):
        genus = (1, 2, 2, 3)[k % 4]
        magnitude = (2, 10, 1000)[k % 3]
        V = _random_unimodular_seifert(rng, genus, magnitude)
        n, rows = V.size, V.rows
        det = leibniz_det([[{1: rows[i][j], 0: -rows[j][i]} for j in range(n)] for i in range(n)])
        bound = 1
        for i in range(n):
            bound *= sum(abs(rows[i][j]) + abs(rows[j][i]) for j in range(n))
        assert max(map(abs, det.values())) <= bound
        sign = 1 if det[max(det)] > 0 else -1
        centre = (min(det) + max(det)) // 2
        assert alexander_from_seifert(V).as_dict() == {e - centre: sign * c for e, c in det.items()}, rows
        assert sum(det.values()) == 1  # det(V - V^T)
        large += max(abs(x) for row in rows for x in row) >= 500
    assert large >= 100


def test_nondegenerate_examples():
    fig8 = alexander_from_seifert(KNOT_CATALOG["figure8"])
    for a, b in ((2, 1), (3, 1), (5, 2), (24, 7), (13, 5)):
        assert nondegenerate_at(fig8, a, b)
    trefoil = alexander_torus(2, 3)
    assert not nondegenerate_at(trefoil, 6, 1)
    assert nondegenerate_at(trefoil, 5, 1)
    one = LaurentPoly(((0, 1),))
    assert nondegenerate_at(one, 17, 3)


def test_torus_knot_root_description():
    # roots of the (p, q) torus knot polynomial are exactly the pq-th roots
    # of unity that are neither p-th nor q-th roots; zeta_a^b has order a
    for p, q in ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7), (2, 11), (3, 11)):
        poly = alexander_torus(p, q)
        for a in range(1, p * q + 1):
            expected_degenerate = (p * q) % a == 0 and p % a != 0 and q % a != 0
            for b in (1, a - 1):
                if a >= 1 and gcd(a, max(b, 1)) == 1 and b >= 1:
                    assert nondegenerate_at(poly, a, b) != expected_degenerate


def test_seifert_matrix_validation():
    with pytest.raises(BadParameters):
        SeifertMatrix(((1, 0), (0, 1)))  # V - V^T = 0, not unimodular
    with pytest.raises(BadParameters):
        SeifertMatrix(((1, 2), (3,)))
    with pytest.raises(TypeError):  # refused, not truncated to the trefoil
        SeifertMatrix(((-1.5, 1), (0, -1)))
    assert SeifertMatrix(()).size == 0


def test_lt_signature_examples():
    assert lt_signature(KNOT_CATALOG["figure8"], 3, 1) == 0
    assert lt_signature(KNOT_CATALOG["figure8"], 97, 13) == 0
    assert lt_signature(KNOT_CATALOG["trefoil"], 2, 1) == -2
    assert lt_signature(KNOT_CATALOG["unknot"], 5, 2) == 0


def test_lt_signature_conjugation_symmetry_and_bound():
    rng = random.Random(23)
    mats = [KNOT_CATALOG["trefoil"], KNOT_CATALOG["figure8"]]
    # genus-2 example: Seifert matrix of the (2, 5) torus knot
    t25 = SeifertMatrix(((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1), (0, 0, 0, -1)))
    mats.append(t25)
    for V in mats:
        for _ in range(12):
            a = rng.randint(2, 40)
            b = rng.choice([x for x in range(1, a) if gcd(x, a) == 1])
            try:
                s = lt_signature(V, a, b)
            except SingularPivot:
                continue
            assert s == lt_signature(V, a, a - b)
            assert abs(s) <= V.size


def test_lt_signature_torus_25():
    # (2,5) torus knot: signature -4 at omega = -1
    t25 = SeifertMatrix(((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1), (0, 0, 0, -1)))
    assert lt_signature(t25, 2, 1) == -4


def test_singular_pivot():
    with pytest.raises(SingularPivot):
        lt_signature(KNOT_CATALOG["trefoil"], 6, 1)
    with pytest.raises(BadParameters):
        lt_signature(KNOT_CATALOG["trefoil"], 5, 5)


def _random_seifert_matrix(rng, genus, zero_diagonal=False):
    # V = S + U0 with S symmetric and U0 carrying 1s at (2i, 2i+1), so
    # V - V^T is the standard symplectic form
    n = 2 * genus
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if zero_diagonal else i, n):
            S[i][j] = S[j][i] = rng.randint(-2, 2)
    for g in range(genus):
        S[2 * g][2 * g + 1] += 1
    return SeifertMatrix(tuple(tuple(row) for row in S))


_EIG = mpmath.MPContext()


def _eigen_signature(V, a, b):
    """Signature from mpmath eigenvalues, or None when an eigenvalue is
    numerically too close to 0 (near the degenerate locus)."""
    w = _EIG.expjpi(_EIG.mpf(-2 * b) / a)
    arr = _EIG.matrix(V.rows)
    H = (1 - w) * arr + (1 - _EIG.conj(w)) * arr.T
    eigs = _EIG.eighe(H, eigvals_only=True)
    if min(abs(e) for e in eigs) < 1e-8:
        return None
    return sum(1 if e > 0 else -1 for e in eigs)


def _random_point(rng, a_max):
    a = rng.randint(3, a_max)
    return a, rng.choice([x for x in range(1, a) if gcd(x, a) == 1])


def test_lt_signature_against_eigenvalue_oracle():
    # numeric cross-check of the exact Hermitian elimination
    rng = random.Random(41)
    for _ in range(40):
        V = _random_seifert_matrix(rng, rng.randint(1, 3))
        a = rng.randint(2, 24)
        b = rng.choice([x for x in range(1, a) if gcd(x, a) == 1])
        expected = _eigen_signature(V, a, b)
        if expected is None:
            continue
        assert lt_signature(V, a, b) == expected


def _negative_first_pivot(rng):
    V = _random_seifert_matrix(rng, rng.randint(1, 3))
    rows = [list(row) for row in V.rows]
    rows[0][0] = -rng.randint(1, 2)  # h_00 = V_00 |1 - omega|^2 < 0
    return SeifertMatrix(tuple(map(tuple, rows)))


@pytest.mark.parametrize(
    "case, count, make, a_max",
    [
        # all h_ii = V_ii |1 - omega|^2 vanish: the congruence step at the top
        ("zero diagonal", 150, lambda rng: _random_seifert_matrix(rng, rng.randint(2, 3), True), 30),
        ("negative first pivot", 40, _negative_first_pivot, 30),
        ("genus 4", 15, lambda rng: _random_seifert_matrix(rng, 4), 61),
    ],
    ids=["zero-diagonal", "negative-first-pivot", "genus-4"],
)
def test_lt_signature_branches_against_eigenvalue_oracle(monkeypatch, case, count, make, a_max):
    # each elimination branch, checked against mpmath eigenvalues; the
    # pivot signs and the congruence steps are recorded to show which branch ran
    signs, steps = [], []
    certify, congruence = knots._certified_sign, knots._congruence_step

    def spy(x):
        signs.append(certify(x))
        return signs[-1]

    def step_spy(h, i0, j0):
        steps.append((i0, j0))
        return congruence(h, i0, j0)

    monkeypatch.setattr(knots, "_certified_sign", spy)
    monkeypatch.setattr(knots, "_congruence_step", step_spy)
    rng = random.Random(47)
    taken = compared = 0
    for _ in range(count):
        V = make(rng)
        a, b = _random_point(rng, a_max)
        expected = _eigen_signature(V, a, b)
        if expected is None:
            continue
        signs.clear()
        steps.clear()
        assert lt_signature(V, a, b) == expected, (case, V.rows, a, b)
        compared += 1
        # every row is eliminated by one diagonal pivot: its sign is certified, or, after a
        # congruence step, positive by construction and not certified
        assert len(signs) + len(steps) == V.size
        if case == "zero diagonal":
            taken += bool(steps)
        elif case == "negative first pivot":
            taken += signs[0] == -1
        else:
            taken += V.size == 8
    assert compared >= count // 2
    assert taken >= 1


def test_unit_circle_table_against_mpmath():
    # the integer table keeps the bound its docstring proves: within 2 units of 2^prec (cos, sin)
    ref = mpmath.MPContext()
    cases = [(a, prec) for a in range(2, 101) for prec in (64, 256)]
    cases += [(a, 1024) for a in (7, 61, 997)] + [(7, 4096)]
    for a, prec in cases:
        table = knots._unit_circle_table(a, prec)
        assert len(table) == euler_phi(a)
        ref.prec = prec + 64
        for i, (u, v) in enumerate(table):
            angle = 2 * ref.pi * i / a
            assert abs(u - ref.ldexp(ref.cos(angle), prec)) < 2, (a, prec, i)
            assert abs(v - ref.ldexp(ref.sin(angle), prec)) < 2, (a, prec, i)


def test_certified_sign_checks(monkeypatch):
    # the checks raise InternalCheckError rather than assert, so they hold under -O
    real = CycloElement.zeta(7, 1) + CycloElement.zeta(7, -1)
    assert knots._certified_sign(real) == 1
    with pytest.raises(InternalCheckError, match="zero"):
        knots._certified_sign(CycloElement.zero(7))
    with pytest.raises(InternalCheckError, match="not real"):
        knots._certified_sign(CycloElement.zeta(5, 1))
    monkeypatch.setattr(knots, "_MAX_SIGN_PREC", 32)
    with pytest.raises(InternalCheckError, match="not separable"):
        knots._certified_sign(real)
    with pytest.raises(InternalCheckError):
        lt_signature(KNOT_CATALOG["trefoil"], 5, 1)


def test_sign_certification_leaves_mpmath_state():
    iv_prec, mp_prec = mpmath.iv.prec, mpmath.mp.prec
    try:
        mpmath.iv.prec, mpmath.mp.prec = 29, 31
        assert lt_signature(KNOT_CATALOG["trefoil"], 61, 20) == -2
        assert (mpmath.iv.prec, mpmath.mp.prec) == (29, 31)
        with pytest.raises(SingularPivot):
            lt_signature(KNOT_CATALOG["trefoil"], 6, 1)
        assert (mpmath.iv.prec, mpmath.mp.prec) == (29, 31)
    finally:
        mpmath.iv.prec, mpmath.mp.prec = iv_prec, mp_prec


def test_lt_signature_threads():
    rng = random.Random(53)
    cases = []
    for _ in range(24):
        V = _random_seifert_matrix(rng, rng.randint(1, 3))
        cases.append((V, *_random_point(rng, 61)))

    def signature(case):
        try:
            return lt_signature(*case)
        except SingularPivot:
            return None

    knots._unit_circle_table.cache_clear()
    serial = [signature(case) for case in cases]
    knots._unit_circle_table.cache_clear()
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(signature, cases, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)
