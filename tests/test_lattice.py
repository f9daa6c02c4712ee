"""Lattice arithmetic: definiteness, plumbing forms, C(e) enumeration and
its brute-force oracle, the orthogonal split rule, and the family count."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import floor, gcd, isqrt

import pytest

from gaugecert import (
    BadParameters,
    CeProblem,
    GramForm,
    HypothesisFailed,
    NotDefinite,
    Restriction,
    detect_orthogonal_split,
    enumerate_C_e,
    enumerate_C_e_bruteforce,
    gram_determinant,
    hj_expand,
    is_negative_definite,
    plumbing_gram,
    sfqhs_reducible_count,
)

from oracles import pairing


def _diag(*entries):
    n = len(entries)
    return GramForm(n, tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))


def test_definiteness():
    assert is_negative_definite(_diag(-1, -1))
    assert not is_negative_definite(_diag(-1, 1))
    assert not is_negative_definite(_diag(-1, 0))
    assert is_negative_definite(plumbing_gram(hj_expand(7, 2)))
    assert is_negative_definite(GramForm(0, ()))


def test_plumbing_form_scanned_once(monkeypatch):
    # definiteness and the determinant read one tridiagonality scan per form
    import gaugecert.lattice as lattice

    calls = []
    scan = lattice._is_tridiagonal
    monkeypatch.setattr(lattice, "_is_tridiagonal", lambda rows: calls.append(rows) or scan(rows))
    pairs = [(a, b) for a in range(2, 40) for b in range(1, a) if gcd(a, b) == 1]
    for a, b in pairs:
        G = plumbing_gram(hj_expand(a, b))
        assert is_negative_definite(G) and abs(gram_determinant(G)) == a
    assert len(calls) == len(pairs)
    dense = GramForm(3, ((-2, 1, 1), (1, -2, 0), (1, 0, -2)))
    assert is_negative_definite(dense) and gram_determinant(dense) == -4
    assert len(calls) == len(pairs) + 1


def test_gram_validation():
    with pytest.raises(BadParameters):
        GramForm(2, ((0, 1), (2, 0)))
    with pytest.raises(BadParameters):
        GramForm(1, ((Fraction(1, 3),),), scale=2)
    G = GramForm(1, ((Fraction(-1, 3),),), scale=3)
    assert G.rows == ((-1,),)
    with pytest.raises(BadParameters, match="^scale must be an int"):
        GramForm(1, ((-1,),), scale=1.5)
    with pytest.raises(TypeError):  # every form is validated: there is no switch
        GramForm(1, ((-1,),), check=False)
    assert GramForm(2, [[-2, 1], [1, -2]]) == GramForm(2, ((-2, 1), (1, -2)))
    with pytest.raises(BadParameters, match="^e entry must be an int"):
        CeProblem(_diag(-1), (1.7,))
    with pytest.raises(BadParameters, match="^row entry must be an int"):
        Restriction(5, ("1",))


def _gram_by_definition(rank, gram, scale):
    # symmetry and integrality of scale * gram, entry pair by entry pair (i <= j)
    g = tuple(tuple(x if type(x) is int else Fraction(x) for x in row) for row in gram)
    for i in range(rank):
        for j in range(i, rank):
            if g[i][j] != g[j][i] or (scale * g[i][j]).denominator != 1:
                raise BadParameters("not a symmetric form in (1/scale) Z")
    return g, tuple(tuple(int(scale * x) for x in row) for row in g)


def test_gram_validation_matches_definition():
    rng = random.Random(41)
    seen = Counter()
    for _ in range(3000):
        rank, scale = rng.randint(0, 5), rng.randint(1, 6)
        # an entry is an int, or a Fraction whose denominator divides scale unless
        # the draw makes it non-integral
        integral = rng.random() < 0.7

        def entry():
            if rng.random() < 0.4:
                return rng.randint(-9, 9)
            d = rng.choice([k for k in range(1, 7) if scale % k == 0] if integral else range(1, 8))
            return Fraction(rng.randint(-20, 20), d)

        rows = [[entry() for _ in range(rank)] for _ in range(rank)]
        if rng.random() < 0.7:
            for i in range(rank):
                for j in range(i):
                    rows[i][j] = rows[j][i]
        gram = tuple(map(tuple, rows))
        entries = [x for row in gram for x in row]
        seen[gram == tuple(zip(*gram)), all((scale * x).denominator == 1 for x in entries)] += 1
        seen["mixed"] += {int, Fraction} <= set(map(type, entries))
        try:
            expected = _gram_by_definition(rank, gram, scale)
        except BadParameters:
            expected = None
        if expected is None:
            with pytest.raises(BadParameters):
                GramForm(rank, gram, scale)
            continue
        G = GramForm(rank, gram, scale)
        # the form is kept as scale * gram, in ints, and rows / scale gives each entry back
        assert (G.rows, G.scale) == (expected[1], scale)
        assert tuple(tuple(Fraction(x, G.scale) for x in row) for row in G.rows) == expected[0]
        assert all(type(x) is int for row in G.rows for x in row)
    # symmetric or not, integral or not, and int entries mixed with Fractions
    assert len(seen) == 5 and min(seen.values()) > 150, seen


def test_plumbing_examples():
    g3 = plumbing_gram(hj_expand(3, 1))
    assert (g3.rows, g3.scale) == (((-3,),), 1)
    assert gram_determinant(g3) == -3
    g72 = plumbing_gram(hj_expand(7, 2))
    assert (g72.rows, g72.scale) == (((-4, 1), (1, -2)), 1)
    assert gram_determinant(g72) == 7
    assert abs(gram_determinant(plumbing_gram(hj_expand(11, 2)))) == 11


def test_ce_examples():
    assert enumerate_C_e(CeProblem(_diag(-1, -1), (1, 0))) == ((1, 0),)
    classes = enumerate_C_e(CeProblem(_diag(-1, -9), (3, 1)))
    assert classes == ((3, -1), (3, 1))
    with pytest.raises(NotDefinite):
        CeProblem(_diag(-1, 1), (1, 0))
    with pytest.raises(NotDefinite):  # singular: the second pivot is zero
        CeProblem(GramForm(2, ((-1, 1), (1, -1))), (1, 1))


def test_ce_zero_class():
    assert enumerate_C_e(CeProblem(_diag(-2, -3), (0, 0))) == ((0, 0),)


def test_ce_restriction_pins_sign():
    classes = enumerate_C_e(CeProblem(_diag(-1, -9), (3, 1), (Restriction(5, (1, 2)),)))
    assert classes == ((3, 1),)
    # when only the negative sign of a class restricts on the nose, the
    # pinned (non-canonical) representative is reported
    P = CeProblem(_diag(-1, -9), (-3, 1), (Restriction(7, (1, 2)),))
    assert enumerate_C_e(P) == ((-3, 1),)
    assert enumerate_C_e_bruteforce(P) == ((-3, 1),)


def _random_negdef(rng, max_rank=4):
    # L^T L - style construction guarantees negative definiteness
    while True:
        n = rng.randint(1, max_rank)
        L = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            L[i][i] = rng.choice((1, 2))
        a = [[-sum(L[k][i] * L[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        G = GramForm(n, tuple(tuple(row) for row in a))
        if is_negative_definite(G):
            return G


_G5 = GramForm(5, ((-3, 1, 0, 0, 1), (1, -4, 1, 0, 0), (0, 1, -3, 1, 0), (0, 0, 1, -5, 1), (1, 0, 0, 1, -4)))


def _problem(rng, G, e):
    # one restriction 40% of the time
    restrictions = ()
    if rng.random() < 0.4:
        restrictions = (
            Restriction(rng.randint(2, 6), tuple(rng.randint(-2, 2) for _ in range(G.rank))),
        )
    return CeProblem(G, e, restrictions)


def _randomized_problems(rng):
    for _ in range(60):
        G = _random_negdef(rng)
        e = tuple(rng.randint(-2, 2) for _ in range(G.rank))
        if -pairing(G, e, e) > 20:
            continue
        yield _problem(rng, G, e)
    # the search takes one sign per class, the one whose last nonzero
    # coordinate is positive: e = 0, and e with trailing zero coordinates
    for _ in range(30):
        G = _random_negdef(rng)
        yield _problem(rng, G, (0,) * G.rank)
        k = rng.randint(1, G.rank)
        e = tuple(rng.randint(-2, 2) if i < k - 1 else 0 for i in range(G.rank))
        if -pairing(G, e, e) <= 20:
            yield _problem(rng, G, e)


def test_enumeration_matches_bruteforce_randomized():
    rng = random.Random(97)
    for P in _randomized_problems(rng):
        assert enumerate_C_e(P) == enumerate_C_e_bruteforce(P)
    # at rank 5, a restriction with odd modulus m and r.e != 0 mod m pins the
    # sign of e; e is reported as given although its first nonzero entry is negative
    pinned = 0
    for _ in range(12):
        e = (-rng.randint(1, 2), *(rng.randint(-1, 1) for _ in range(3)), 0)
        m = rng.choice((3, 5, 7))
        row = tuple(rng.randint(-2, 2) for _ in range(5))
        if sum(c * v for c, v in zip(row, e)) % m == 0:
            continue
        P = CeProblem(_G5, e, (Restriction(m, row),))
        classes = enumerate_C_e(P)
        assert classes == enumerate_C_e_bruteforce(P) and e in classes
        pinned += 1
    assert pinned >= 6


def _ce_by_definition(G, e, restrictions):
    """C(e) from its definition, sharing no code with the library: a box scan
    over |x_i| <= sqrt(t (A^-1)_ii), A = -gram, t = -e.e (Cauchy-Schwarz in
    the A inner product), keeping the x with x.x = e.e, x = e mod 2 and each
    r.x = +-r.e mod m.  Each class {x, -x} is reported by the one sign that
    restricts to e on the nose when exactly one does, else with its first
    nonzero coordinate positive.  Returns the sorted classes and a count of
    how each one's sign was chosen."""
    n = G.rank
    A = [[-Fraction(v, G.scale) for v in row] for row in G.rows]
    S = [[int(G.scale * v) for v in row] for row in A]  # scale * A, integral

    def norm(x):  # scale * x.Ax
        return sum(x[i] * S[i][j] * x[j] for i in range(n) for j in range(n))

    M = [A[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):  # Gauss-Jordan; every pivot is positive on a definite form
        M[i] = [v / M[i][i] for v in M[i]]
        for k in range(n):
            if k != i:
                M[k] = [u - M[k][i] * v for u, v in zip(M[k], M[i])]
    t = norm(e)
    bounds = [isqrt(floor(t * M[i][n + i] / G.scale)) for i in range(n)]

    classes, kinds = set(), Counter()
    for x in product(*(range(-b, b + 1) for b in bounds)):
        if norm(x) != t or any((xi - ei) % 2 for xi, ei in zip(x, e)):
            continue
        # (r.x - r.e, r.x + r.e) mod m: x, respectively -x, restricts to e on the nose when 0
        diffs = [(sum(c * (xi - ei) for c, xi, ei in zip(row, x, e)) % m,
                  sum(c * (xi + ei) for c, xi, ei in zip(row, x, e)) % m) for m, row in restrictions]
        if any(u and v for u, v in diffs):
            continue
        x_on_nose, neg_on_nose = all(not u for u, _ in diffs), all(not v for _, v in diffs)
        neg = tuple(-v for v in x)
        if x_on_nose != neg_on_nose:
            rep, kind = (x if x_on_nose else neg), "pinned"
        else:
            rep, kind = (neg if any(x) and next(v for v in x if v) < 0 else x), ("both" if x_on_nose else "neither")
        if rep not in classes:
            classes.add(rep)
            kinds[kind] += 1
    return tuple(sorted(classes)), kinds


def test_class_map_matches_definition():
    # seeded random problems: rank 1-3, one or two restrictions, moduli 2-7
    rng = random.Random(2024)
    kinds = Counter()
    for _ in range(1000):
        n = rng.randint(1, 3)
        # A = L^T L with L unit-or-2 lower triangular: positive definite
        L = [[rng.randint(-1, 1) if j < i else rng.choice((1, 2)) * (i == j) for j in range(n)] for i in range(n)]
        A = [[sum(L[k][i] * L[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        scale = rng.choice((1, 2))
        G = GramForm(n, tuple(tuple(Fraction(-v, scale) for v in row) for row in A), scale)
        e = tuple(rng.randint(-3, 3) for _ in range(n))
        if -scale * pairing(G, e, e) > 40:
            continue
        restrictions = [(rng.randint(2, 7), tuple(rng.randint(-2, 2) for _ in range(n))) for _ in range(rng.randint(1, 2))]
        expected, k = _ce_by_definition(G, e, restrictions)
        assert enumerate_C_e(CeProblem(G, e, tuple(Restriction(m, row) for m, row in restrictions))) == expected
        kinds += k
    # every rule of the sign choice is exercised: one sign pinned, both signs
    # on the nose, neither on the nose (each restriction met, some only up to sign)
    assert min(kinds["pinned"], kinds["both"], kinds["neither"]) >= 10, kinds


def _scaled_problems(scale):
    # (form, problem) pairs; the problem is None where -scale * e.e > 20
    rng = random.Random(300 + scale)
    for _ in range(60):
        M = _random_negdef(rng).rows
        G = GramForm(len(M), tuple(tuple(Fraction(v, scale) for v in row) for row in M), scale)
        e = tuple(rng.randint(-2, 2) for _ in range(G.rank))
        yield G, (None if -scale * pairing(G, e, e) > 20 else _problem(rng, G, e))


def _workload_form(rng, rank):
    # shaped like the benchmark's lattice inputs: the diagonal -4 ... -10 spread
    # evenly and shuffled, each pair off the diagonal +-1 with probability 1.5 / rank
    while True:
        diag = [round(4 + 6 * k / (rank - 1)) for k in range(rank)]
        rng.shuffle(diag)
        A = [[-diag[i] * (i == j) for j in range(rank)] for i in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                if rng.random() < 1.5 / rank:
                    A[i][j] = A[j][i] = rng.choice((1, -1))
        G = GramForm(rank, tuple(map(tuple, A)))
        if is_negative_definite(G):
            return G


def test_workload_shaped_forms_match_definition():
    # ranks 4 and 5.  Above the highest odd e_i the search passes x_j = 0, so
    # that level is free and its lower end 0 rounds up to 1; e = (1, 0, ..., 0),
    # (0, ..., 0, 1) and a unit vector at a random place take this to the leaf,
    # to the top level and in between
    rng = random.Random(415)
    kinds, odd = Counter(), 0
    for _ in range(80):
        G = _workload_form(rng, rng.choice((4, 5)))
        n = G.rank
        units = {0, n - 1, rng.randrange(n)}
        es = [tuple(int(i == k) for i in range(n)) for k in sorted(units)]
        es += [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2)]
        for e in es:
            if -pairing(G, e, e) > 60:  # the benchmark draws -e.e in 10 ... 60
                continue
            restrictions = []
            if rng.random() < 0.5:
                restrictions = [(rng.choice((3, 5, 7)), tuple(rng.randint(-1, 2) for _ in range(n)))]
            expected, k = _ce_by_definition(G, e, restrictions)
            assert enumerate_C_e(CeProblem(G, e, tuple(Restriction(m, row) for m, row in restrictions))) == expected
            kinds += k
            odd += any(v % 2 for v in e)
    assert sum(kinds.values()) > 400 and odd > 200, (kinds, odd)


@pytest.mark.parametrize("scale", [2, 3, 6])
def test_enumeration_matches_bruteforce_scaled(scale):
    # -(L^T L) / scale: entries in (1/scale) Z, so the budget divisions run
    # against leading minors of scale * gram
    fractional = 0
    for G, P in _scaled_problems(scale):
        fractional += any(x % G.scale for row in G.rows for x in row)
        if P is not None:
            assert enumerate_C_e(P) == enumerate_C_e_bruteforce(P)
    assert fractional > 40


def test_class_map_sees_only_x_congruent_to_e(monkeypatch):
    # each level steps through x_i = e_i mod 2 and the leaf drops a root of
    # the wrong parity, so every candidate reaching the class map has x = e mod 2
    import gaugecert.lattice as lattice

    seen = []
    class_of = lattice._class_of

    def spy(P, x):
        assert all((xi - ei) % 2 == 0 for xi, ei in zip(x, P.e)), (P, x)
        seen.append(x)
        return class_of(P, x)

    monkeypatch.setattr(lattice, "_class_of", spy)
    problems = list(_randomized_problems(random.Random(97)))
    problems += [P for scale in (2, 3, 6) for _, P in _scaled_problems(scale) if P is not None]
    odd = sum(any(v % 2 for v in P.e) for P in problems)
    found = sum(len(enumerate_C_e(P)) for P in problems)
    assert len(seen) >= found > 200 and odd > 60, (len(seen), found, odd)


@pytest.mark.parametrize("d, a", [(1, 6), (7, 3), (5, 30), (31, 2), (1, 1)])
def test_rank1_scaled_form(d, a):
    # the form (-d/a) at scale a that the surgery-configuration checker enumerates
    G = GramForm(1, ((Fraction(-d, a),),), scale=a)
    assert is_negative_definite(G) and gram_determinant(G) == Fraction(-d, a)
    assert detect_orthogonal_split(G, (1,))
    for e in ((1,), (3,)):
        P = CeProblem(G, e)
        assert enumerate_C_e(P) == enumerate_C_e_bruteforce(P) == (e,)


@pytest.mark.parametrize("G, e, nodes, classes", [
    (_diag(-1, -1, -1, -1), (100, 0, 0, 0), 265_628, 9372),
    # rank 1 at scale 3: the root is the only node, the leaf reads x_0 off isqrt
    (GramForm(1, ((Fraction(-7, 3),),), scale=3), (11,), 1, 1),
    (GramForm(3, ((Fraction(-7, 6), Fraction(1, 6), 0), (Fraction(1, 6), Fraction(-5, 6), Fraction(1, 6)),
                  (0, Fraction(1, 6), Fraction(-3, 2))), scale=6), (6, 4, -2), 26, 3),
    # odd e_i, the top one at a level that is free
    (_G5, (3, 0, 2, -1, 3), 107, 29),
])
def test_ce_node_count(monkeypatch, G, e, nodes, classes):
    # a node is counted when it is tried, and only the x_i = e_i mod 2 are tried
    import gaugecert.lattice as lattice

    P = CeProblem(G, e)
    monkeypatch.setattr(lattice, "MAX_CE_NODES", nodes)
    assert len(enumerate_C_e(P)) == classes
    monkeypatch.setattr(lattice, "MAX_CE_NODES", nodes - 1)
    with pytest.raises(BadParameters, match=f"limit of {nodes - 1} Fincke-Pohst nodes"):
        enumerate_C_e(P)


def test_split_implies_singleton():
    rng = random.Random(5)
    for _ in range(40):
        G = _random_negdef(rng, max_rank=3)
        e = tuple(rng.randint(-3, 3) for _ in range(G.rank))
        if detect_orthogonal_split(G, e) and -pairing(G, e, e) <= 30:
            assert len(enumerate_C_e(CeProblem(G, e))) == 1


def test_split_examples():
    assert detect_orthogonal_split(_diag(-1, -1, -2), (1, 0, 0))
    assert not detect_orthogonal_split(_diag(-1, -9), (3, 1))
    assert detect_orthogonal_split(GramForm(1, ((-5,),)), (1,))
    assert detect_orthogonal_split(_diag(-2, -2), (0, 0))
    with pytest.raises(NotDefinite):
        detect_orthogonal_split(_diag(-1, 1), (1, 0))
    with pytest.raises(BadParameters, match="^e entry must be an int"):
        detect_orthogonal_split(_diag(-1, -9), (3, 1.5))


def _splits_by_definition(G, e):
    # every standard basis vector u is t e + k with t an integer and
    # k . e = 0, so t = (u . e) / (e . e); e = 0 splits trivially
    ee = pairing(G, e, e)
    units = [[int(i == j) for j in range(G.rank)] for i in range(G.rank)]
    return ee == 0 or all((pairing(G, u, e) / ee).denominator == 1 for u in units)


def test_split_matches_definition():
    # scaled forms and non-primitive classes; both verdicts occur often
    rng = random.Random(347)
    seen = Counter()
    for _ in range(2000):
        scale = rng.choice((1, 2, 3, 6))
        M = _random_negdef(rng, max_rank=5).rows
        G = GramForm(len(M), tuple(tuple(Fraction(v, scale) for v in row) for row in M), scale)
        if rng.random() < 0.4:
            e = [0] * G.rank
            e[rng.randrange(G.rank)] = rng.choice((1, -1))
        else:
            e = [rng.randint(-3, 3) for _ in range(G.rank)]
        e = tuple(rng.choice((1, 1, 2, 3)) * x for x in e)
        split = detect_orthogonal_split(G, e)
        assert split == _splits_by_definition(G, e), (M, scale, e)
        seen[split, scale > 1, gcd(*e) > 1] += 1
    assert seen[True, True, False] >= 100 and seen[False, True, False] >= 100, seen
    assert seen[False, True, True] >= 100 and seen[True, False, True] == 0, seen


def test_ce_rank_cap(monkeypatch):
    # refused before the elimination, which is cubic in the rank
    import gaugecert.lattice as lattice

    assert lattice.MAX_CE_RANK == 200
    cap = lattice.MAX_CE_RANK
    assert len(CeProblem(_diag(*[-1] * cap), (1,) + (0,) * (cap - 1))._bareiss) == cap
    monkeypatch.setattr(lattice, "bareiss_rows", lambda rows: pytest.fail("eliminated an oversized form"))
    with pytest.raises(BadParameters, match="rank 201 exceeds the limit 200"):
        CeProblem(_diag(*[-1] * (cap + 1)), (1,) + (0,) * cap)


def test_plumbing_split_with_unimodular_block():
    # diag(-1) block orthogonal to a plumbing: e the unimodular generator
    G = _diag(-1, -2, -3)
    assert detect_orthogonal_split(G, (1, 0, 0))
    assert len(enumerate_C_e(CeProblem(G, (1, 0, 0)))) == 1


def test_reducible_count():
    v = sfqhs_reducible_count(3, 5, 7, 6)
    assert v.solutions == ((1, 0, 0),)
    assert v.unique_witness and v.count_parity == "odd"
    v48 = sfqhs_reducible_count(3, 5, 7, 48)
    assert v48.unique_witness
    # stability: a scan over every k < a that meets the congruences and a
    # wider l2 window (|d k + a l2| <= d forces -d <= l2 <= 0) finds the same
    p, q, d = 3, 5, 7
    for n, verdict in ((6, v), (48, v48)):
        a3 = p * q * n - d
        a = p * q * a3
        wide = tuple(
            (k, l2, (d * d - (d * k + a * l2) ** 2) // a)
            for k in range(a)
            if k % p == 1 and k % q in (1, q - 1) and k % a3 in (1, a3 - 1)
            for l2 in range(-d - 3, 4)
            if (d * k + a * l2) ** 2 <= d * d and (d * d - (d * k + a * l2) ** 2) % a == 0
        )
        assert wide == verdict.solutions


def test_reducible_count_guards():
    with pytest.raises(HypothesisFailed):
        sfqhs_reducible_count(3, 5, 7, 0)
    with pytest.raises(HypothesisFailed):
        sfqhs_reducible_count(3, 5, 6, 10)
    with pytest.raises(HypothesisFailed):
        sfqhs_reducible_count(3, 9, 7, 6)
    # a <= d^2 guard: d large relative to pq n - d
    with pytest.raises(HypothesisFailed):
        sfqhs_reducible_count(3, 5, 17, 2)


def test_reducible_count_grid():
    for p, q, d in ((3, 5, 7), (3, 5, 1), (3, 7, 5), (5, 7, 3), (3, 5, 11)):
        for n in (2, 4, 6, 10):
            if gcd(d, n) != 1:
                continue
            a = p * q * (p * q * n - d)
            if a <= d * d:
                continue
            assert sfqhs_reducible_count(p, q, d, n).unique_witness
