"""Alexander polynomials, nondegeneracy at roots of unity, and
Levine-Tristram signatures."""

import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from math import comb, gcd

import mpmath
import pytest
from oracles import alexander_torus, as_dict, leibniz_det

import gaugecert.knots as knots
from gaugecert.exactnum import CycloElement, cyclotomic_poly, euler_phi
from gaugecert import (
    BadParameters,
    InternalCheckError,
    KNOT_CATALOG,
    LaurentPoly,
    SeifertMatrix,
    SingularPivot,
    alexander_from_seifert,
    lt_signature,
    nondegenerate_at,
)


def test_alexander_torus_examples():
    assert as_dict(alexander_torus(2, 3)) == {-1: 1, 0: -1, 1: 1}
    assert as_dict(alexander_torus(2, 5)) == {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}
    # Alexander polynomial at t = 1 is a unit
    for p, q in ((2, 3), (3, 5), (2, 7), (4, 5)):
        assert sum(c for _, c in alexander_torus(p, q).terms) in (1, -1)
    with pytest.raises(BadParameters):
        alexander_torus(2, 4)


def test_alexander_from_seifert_matches_catalog():
    assert alexander_from_seifert(KNOT_CATALOG["trefoil"]) == alexander_torus(2, 3)
    assert as_dict(alexander_from_seifert(KNOT_CATALOG["figure8"])) == {-1: 1, 0: -3, 1: 1}
    assert as_dict(alexander_from_seifert(KNOT_CATALOG["unknot"])) == {0: 1}


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
        assert as_dict(alexander_from_seifert(V)) == {e - centre: sign * c for e, c in det.items()}, rows
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


def _value_in_cyclotomic_ring(poly, a, b):
    # poly(zeta_a^b) as an element of Z[zeta_a], term by term
    out = CycloElement.zero(a)
    for e, c in poly.terms:
        out = out + CycloElement.zeta(a, b * e).scale(c)
    return out


def test_nondegenerate_matches_cyclotomic_evaluation():
    # the remainder by Phi_a against evaluation at zeta_a^b in Z[zeta_a], at
    # every coprime (a, b) with a <= 40; factors Phi_m make zeros common
    rng = random.Random(4040)
    polys = [alexander_from_seifert(V) for V in KNOT_CATALOG.values()]
    polys += [alexander_from_seifert(_random_seifert_matrix(rng, rng.randint(1, 2), magnitude=1)) for _ in range(6)]
    for _ in range(8):
        coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
        for m in rng.sample(range(1, 41), 2):
            phi = cyclotomic_poly(m)
            coeffs = [sum(coeffs[i] * phi[k - i] for i in range(len(coeffs)) if 0 <= k - i < len(phi))
                      for k in range(len(coeffs) + len(phi) - 1)]
        polys.append(LaurentPoly(tuple(enumerate(coeffs))).shift(-rng.randint(0, 5)))
    degenerate = 0
    for poly in polys:
        for a in range(1, 41):
            for b in range(a):
                if gcd(a, b) == 1:
                    nondeg = nondegenerate_at(poly, a, b)
                    assert nondeg == (not _value_in_cyclotomic_ring(poly, a, b).is_zero()), (poly, a, b)
                    degenerate += not nondeg
    assert degenerate >= 100


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
    with pytest.raises(BadParameters, match="^Seifert matrix entry must be an int, not float"):
        SeifertMatrix(((-1.5, 1), (0, -1)))  # refused, not truncated to the trefoil
    assert SeifertMatrix(()).size == 0


def _trefoil_sum(genus):
    # block sum of genus trefoil matrices: V - V^T is unimodular at every size
    n = 2 * genus
    return [[-int(i == j) + int(j == i + 1 and i % 2 == 0) for j in range(n)] for i in range(n)]


def test_seifert_matrix_size_cap(monkeypatch):
    # refused before the unimodularity determinant; genus 10 is still accepted
    assert knots.MAX_SEIFERT_SIZE == 20
    assert SeifertMatrix(_trefoil_sum(10)).size == 20
    assert lt_signature(SeifertMatrix(_trefoil_sum(10)), 2, 1) == -20
    monkeypatch.setattr(knots, "det_int", lambda m: pytest.fail("det_int called on an oversized matrix"))
    with pytest.raises(BadParameters, match="size 22 exceeds the limit 20"):
        SeifertMatrix(_trefoil_sum(11))


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


def _random_seifert_matrix(rng, genus, zero_diagonal=False, magnitude=2):
    # V = S + U0 with S symmetric and U0 carrying 1s at (2i, 2i+1), so
    # V - V^T is the standard symplectic form
    n = 2 * genus
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if zero_diagonal else i, n):
            S[i][j] = S[j][i] = rng.randint(-magnitude, magnitude)
    for g in range(genus):
        S[2 * g][2 * g + 1] += 1
    return SeifertMatrix(tuple(tuple(row) for row in S))


def _coprime_points(a_lo, a_hi):
    return [(a, b) for a in range(a_lo, a_hi + 1) for b in range(1, a) if gcd(a, b) == 1]


def test_singular_exactly_where_alexander_vanishes():
    # the Hermitian form at omega = zeta_a^(-b) is singular iff the Alexander
    # polynomial, the reference route, vanishes at exp(2 pi i b/a); entries
    # in [-1, 1] make cyclotomic factors, and so degenerate points, common
    cases = [(V, a, b) for V in KNOT_CATALOG.values() for a, b in _coprime_points(2, 39)]
    rng = random.Random(1969)
    points = _coprime_points(2, 12)
    for _ in range(300):
        V = _random_seifert_matrix(rng, rng.randint(1, 3), rng.random() < 0.5, magnitude=1)
        cases += [(V, a, b) for a, b in points]
    degenerate = 0
    for V, a, b in cases:
        nondeg = nondegenerate_at(alexander_from_seifert(V), a, b)
        try:
            lt_signature(V, a, b)
            singular = False
        except SingularPivot:
            singular = True
        assert singular != nondeg, (V.rows, a, b)
        degenerate += singular
    assert degenerate >= 20


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
    # numeric cross-check of the exact signs and Descartes' rule
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


def _connected_sum(rng):
    # V_1 + ... + V_k block diagonal, genus-1 blocks with entries in [-1, 1]:
    # C is the product of the blocks' quadratics, and at a <= 6, where
    # u = cot^2(pi b/a) is rational, a coefficient that is not identically
    # zero sometimes vanishes exactly
    blocks = [_random_seifert_matrix(rng, 1, magnitude=1).rows for _ in range(rng.randint(2, 3))]
    n = 2 * len(blocks)
    rows = [[0] * n for _ in range(n)]
    for k, block in enumerate(blocks):
        for i in range(2):
            rows[2 * k + i][2 * k : 2 * k + 2] = block[i]
    return SeifertMatrix(tuple(map(tuple, rows)))


BRANCHES = ("identically zero", "exact zero", "certified")


@pytest.mark.parametrize(
    "case, count, make, a_max, branch",
    [
        # h_ii = V_ii |1 - omega|^2 all vanish, so trace S = 0 and the
        # coefficient of lambda^(n - 1) is identically zero
        ("zero diagonal", 150, lambda rng: _random_seifert_matrix(rng, rng.randint(2, 3), True), 30, BRANCHES[0]),
        ("negative first pivot", 40, _negative_first_pivot, 30, BRANCHES[2]),
        ("genus 4", 15, lambda rng: _random_seifert_matrix(rng, 4), 61, BRANCHES[2]),
        ("connected sum", 80, _connected_sum, 6, BRANCHES[1]),
    ],
    ids=["zero-diagonal", "negative-first-pivot", "genus-4", "connected-sum"],
)
def test_lt_signature_branches_against_eigenvalue_oracle(monkeypatch, case, count, make, a_max, branch):
    # each branch of a coefficient's sign, checked against mpmath
    # eigenvalues: a coefficient polynomial P_j that is identically zero,
    # one that is not but vanishes exactly at t = 2 cos(2 pi b/a), and a
    # certified sign; each family must take its branch at least once
    signs, branches = [], []
    certify, sign_at = knots._certified_sign, knots._sign_at

    def spy(p, a, b):
        signs.append(certify(p, a, b))
        return signs[-1]

    def branch_spy(p, a, b, psi):
        sign = sign_at(p, a, b, psi)
        branches.append(BRANCHES[0] if not any(p) else BRANCHES[1] if not sign else BRANCHES[2])
        return sign

    monkeypatch.setattr(knots, "_certified_sign", spy)
    monkeypatch.setattr(knots, "_sign_at", branch_spy)
    rng = random.Random(47)
    taken = compared = 0
    for _ in range(count):
        V = make(rng)
        a, b = _random_point(rng, a_max)
        expected = _eigen_signature(V, a, b)
        if expected is None:
            continue
        signs.clear()
        branches.clear()
        assert lt_signature(V, a, b) == expected, (case, V.rows, a, b)
        compared += 1
        # each of the n + 1 coefficients takes one branch, and only a
        # certified one reads the cosine
        assert len(branches) == V.size + 1
        assert branches.count(BRANCHES[2]) == len(signs)
        taken += branch in branches
    assert compared >= count // 2
    assert taken >= 1


def test_cosine_against_mpmath():
    # the single-angle cosine keeps the bound its docstring proves: within
    # 2 units of 2^prec cos(2 pi b/a), for every b < a
    ref = mpmath.MPContext()
    cases = [(a, prec) for a in range(2, 101) for prec in (64, 256)]
    cases += [(a, 1024) for a in (7, 61, 997)] + [(7, 4096)]
    for a, prec in cases:
        ref.prec = prec + 64
        for b in range(a):
            exact = ref.ldexp(ref.cos(2 * ref.pi * b / a), prec)
            assert abs(knots._cos_scaled(a, b, prec) - exact) < 2, (a, prec, b)


def _at_z_plus_inverse(psi):
    # z^d psi(z + 1/z), d = deg psi, low to high: z^d (z + 1/z)^k = sum_i C(k, i) z^(d + k - 2i)
    d = len(psi) - 1
    out = [0] * (2 * d + 1)
    for k, c in enumerate(psi):
        for i in range(k + 1):
            out[d + k - 2 * i] += c * comb(k, i)
    return out


def test_real_cyclotomic_against_cyclotomic_poly():
    for a in range(3, 301):
        assert tuple(_at_z_plus_inverse(knots._real_cyclotomic(a))) == cyclotomic_poly(a), a
    # 2 cos(2 pi/a) = +-2 for a <= 2, where z Psi_a(z + 1/z) = Phi_a(z)^2
    for a in (1, 2):
        c0, c1 = cyclotomic_poly(a)
        assert _at_z_plus_inverse(knots._real_cyclotomic(a)) == [c0 * c0, 2 * c0 * c1, c1 * c1]


def test_real_cyclotomic_vanishes_at_the_conjugates():
    # Psi_a has degree phi(a)/2 (1 for a <= 2) and vanishes at every 2 cos(2 pi k/a), gcd(k, a) = 1
    ref = mpmath.MPContext()
    ref.prec = 256
    for a in range(1, 61):
        psi = knots._real_cyclotomic(a)
        assert len(psi) - 1 == max(1, euler_phi(a) // 2) and psi[-1] == 1
        for k in range(1, a + 1):
            if gcd(k, a) == 1:
                value = ref.polyval(psi[::-1], 2 * ref.cos(2 * ref.pi * k / a))
                assert abs(value) < ref.mpf(2) ** -200, (a, k)


def test_lt_signature_at_reduced_angles(monkeypatch):
    # zeta_a^(-b) = zeta_(a/g)^(-b/g) for g = gcd(a, b): the same signature,
    # or singular at both; this covers omega = -1 (a/g = 2) and points where
    # the genus reaches phi(a/g)/2, so that the exact zero test reduces
    # modulo Psi_(a/g); the catalog knots are also compared with mpmath
    reduced, sign_at = [], knots._sign_at

    def spy(p, a, b, psi):
        reduced.append(psi is not None and any(p))
        return sign_at(p, a, b, psi)

    monkeypatch.setattr(knots, "_sign_at", spy)
    rng = random.Random(59)
    mats = [(V, V.size > 0) for V in KNOT_CATALOG.values()]
    mats += [(_random_seifert_matrix(rng, rng.randint(1, 3), magnitude=1), False) for _ in range(30)]
    omega_minus_one = remainders = singular = 0
    for V, eigen in mats:
        for a in range(4, 25):
            for b in range(2, a):
                g = gcd(a, b)
                if g == 1:
                    continue
                reduced.clear()
                try:
                    expected = lt_signature(V, a // g, b // g)
                except SingularPivot:
                    expected = None
                try:
                    got = lt_signature(V, a, b)
                except SingularPivot:
                    got = None
                assert got == expected, (V.rows, a, b)
                if eigen and expected is not None and (oracle := _eigen_signature(V, a, b)) is not None:
                    assert got == oracle, (V.rows, a, b)
                omega_minus_one += a == 2 * b and V.size > 0
                remainders += any(reduced)
                singular += got is None
    assert omega_minus_one >= 100 and remainders >= 1000 and singular >= 10


def test_certified_sign_doubles_the_precision(monkeypatch):
    # F_k t - F_(k-1) at t = 2 cos(2 pi/5) = (sqrt 5 - 1)/2 has coefficients
    # near F_k but a value near 1/F_k, so its sign needs about 2 log2 F_k
    # bits: the precision doubles past 64
    precs = []
    cos = knots._cos_scaled
    monkeypatch.setattr(knots, "_cos_scaled", lambda a, b, prec: precs.append(prec) or cos(a, b, prec))
    fib = [0, 1]
    while len(fib) < 200:
        fib.append(fib[-1] + fib[-2])
    for k in (10, 60, 120, 199):
        # sign of F_k sqrt 5 - (2 F_(k-1) + F_k), compared in integers
        expected = 1 if 5 * fib[k] ** 2 > (2 * fib[k - 1] + fib[k]) ** 2 else -1
        assert knots._certified_sign([-fib[k - 1], fib[k]], 5, 1) == expected == (-1) ** (k + 1)
    assert max(precs) == 512


def test_certified_sign_checks(monkeypatch):
    # the checks raise InternalCheckError rather than assert, so they hold
    # under -O; a coefficient is an integer polynomial at a real point, so
    # there is no imaginary part left to check
    assert knots._certified_sign([0, 1], 7, 1) == 1  # 2 cos(2 pi/7) > 0
    with pytest.raises(InternalCheckError, match="zero"):
        knots._certified_sign([0, 0], 7, 1)
    monkeypatch.setattr(knots, "_MAX_SIGN_PREC", 32)
    with pytest.raises(InternalCheckError, match="not separable"):
        knots._certified_sign([0, 1], 7, 1)
    with pytest.raises(InternalCheckError):
        lt_signature(KNOT_CATALOG["trefoil"], 5, 1)


def _run_optimized(code: str) -> str:
    # python -O strips asserts, so what such a run prints holds without them
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_polynomial_checks_under_O():
    # digits (n + 1) j + k of the trefoil's C(lambda, sigma), n = 2: lambda^2 + 1
    # has no real root, so Descartes' rule counts no root of the degree-2
    # polynomial; a digit at an odd power of sigma breaks the evenness of C
    out = _run_optimized(
        "import gaugecert.knots as knots\n"
        "from gaugecert import InternalCheckError, Strand, check_surgery_config\n"
        "strands = (Strand(2, 1), Strand(3, 1), Strand(7, -6, knot='trefoil'))\n"
        "for digits in ([1, 0, 0, 0, 0, 0, 1], [1, 1, 0, 0, 0, 0, 1]):\n"
        "    knots._kronecker_det = lambda n, terms: digits\n"
        "    try:\n"
        "        check_surgery_config(strands)\n"
        "    except InternalCheckError as exc:\n"
        "        print(exc)\n"
    )
    assert out.splitlines() == [
        "Descartes' rule counts 0 positive and 0 negative roots of a real-rooted characteristic polynomial of degree 2",
        "det(lambda I - S - sigma A) is not even in sigma",
    ]


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

    caches = (knots._cos_scaled, knots._real_cyclotomic, knots._descartes_basis)
    for cache in caches:
        cache.cache_clear()
    serial = [signature(case) for case in cases]
    for cache in caches:
        cache.cache_clear()
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(signature, cases, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)
