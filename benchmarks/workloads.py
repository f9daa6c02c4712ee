"""Seeded workload generators and output validators for the gaugecert benchmark.

Nothing here imports gaugecert: inputs are built, and outputs checked, with
the benchmark's own arithmetic (integers, fractions, mpmath, numpy), so a
fast but wrong library result cannot validate itself.

Every generator yields plain JSON-able dicts.  Input ``i`` of a workload is
a function of (workload, seed, i) only.  The size that dominates an
operation's cost (the last modulus a_3, the knotted strand's order and
genus, the lattice rank and norm, the number of fibers) follows a fixed
low-discrepancy schedule, so every prefix of the run covers the size range
evenly and the latency quantiles do not depend on which sizes a seed
happened to draw; everything else is drawn from the seeded generator.
Class mixes (fibers, ranks) are weighted so that the median and the 90th
percentile fall inside a class, not on the step between two.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor, gcd, isqrt

import mpmath

WORKLOADS = ("family", "knotted", "lattice", "seifert-grid")

OBSTRUCTED = "ObstructedPositiveDefinite"
INDEPENDENT = "LinearlyIndependentFamily"
INCONCLUSIVE = "Inconclusive"

# additive recurrences with good equidistribution (golden ratio; plastic number for 2-D)
_GOLDEN = 0.6180339887498949
_R2 = (0.7548776662466927, 0.5698402909980532)

# private mpmath context: the library's own mpmath state is never touched
_MP = mpmath.MPContext()
_MP.dps = 50


def inputs(workload: str, seed: int):
    """Endless, deterministic stream of inputs for one workload and seed."""
    rng = random.Random(f"gaugecert-bench:{workload}:{seed}")
    make = _GENERATORS[workload]
    i = 0
    while True:
        u = ((0.5 + i * _R2[0]) % 1.0, (0.5 + i * _R2[1]) % 1.0)
        g = (0.5 + i * _GOLDEN) % 1.0
        yield make(rng, i, g, u)
        i += 1


def _log_spread(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _class_spread(classes, u: float) -> float:
    start = 0.0
    for lo, hi, upto in classes:
        if u < upto:
            return _log_spread(lo, hi, (u - start) / (upto - start))
        start = upto
    raise ValueError(u)


def _inv(x: int, m: int) -> int:
    return pow(x, -1, m) if m > 1 else 0


def _k_sum(pairs) -> int:
    # K_i with 0 < b_i + K_i a_i < a_i
    return sum(-(b // a) for a, b in pairs)


def _d(pairs) -> int:
    total = 1
    for a, _ in pairs:
        total *= a
    return sum(b * (total // a) for a, b in pairs)


def _solve_b(moduli, rng) -> list[int]:
    """b_i with (a_1...a_n) sum b_i/a_i = 1 for pairwise coprime moduli."""
    prod = 1
    for a in moduli:
        prod *= a
    bs = []
    partial = 0
    for a in moduli[:-1]:
        cof = prod // a
        b = _inv(cof % a, a) - a * rng.randint(0, 1)
        bs.append(b)
        partial += b * cof
    last = moduli[-1]
    rest = 1 - partial
    assert rest % (prod // last) == 0
    bs.append(rest // (prod // last))
    return bs


# ---------------------------------------------------------------------------
# family: check_sfqhs_family on valid torus-knot surgery families
# ---------------------------------------------------------------------------

FAMILY_PRIMES = (3, 5, 7, 11, 13)
# (lo, hi, cumulative share) of a_3, log-uniform within each class: the median and
# the 90th percentile fall among the many small families, while the few large
# ones carry most of the O(a^2) time
FAMILY_A3 = ((2_000, 8_000, 0.93), (8_000, 40_000, 1.0))


def _family(rng, i, g, u):
    p, q = rng.sample(FAMILY_PRIMES, 2)
    pq = p * q
    d = rng.choice([x for x in range(1, 16, 2) if gcd(x, pq) == 1])
    target = _class_spread(FAMILY_A3, g)
    n = max(2, round((target + d) / pq))
    n += n % 2
    while gcd(n, d) != 1:
        n += 2
    chain = [n]
    length = rng.randint(2, 4)
    while len(chain) < length:
        # spacing rule n_k > d n_i - d(d-1)/pq, tightest for consecutive members
        upper = Fraction(chain[-1] * pq + d * (d - 1), pq * d)
        evens = [m for m in range(max(2, floor(upper / 2)) // 2 * 2, floor(upper) + 1, 2)
                 if 2 <= m < upper and gcd(m, d) == 1]
        if not evens:
            break
        chain.append(rng.choice(evens))
    return {"p": p, "q": q, "d": d, "n_list": sorted(chain)}


def _torus_pairs(p, q, d, n):
    r0 = (-_inv(q % p, p)) % p
    r = min((r0, r0 - p), key=lambda x: (abs(x), -x))
    s = (-1 - r * q) // p
    return ((p, r), (q, s), (p * q * n - d, n))


def _check_family(inp, summary) -> str | None:
    conclusion, ind, p1 = summary
    p, q, d, n_list = inp["p"], inp["q"], inp["d"], inp["n_list"]
    pairs = _torus_pairs(p, q, d, n_list[-1])
    if _d(pairs) != d:
        return "benchmark Seifert data has wrong d"
    want_ind = 2 * len(pairs) - 3 - 2 * _k_sum(pairs)
    want_p1 = Fraction(d, p * q * pairs[2][0])
    if ind != str(want_ind):
        return f"Ind+ {ind} != {want_ind}"
    if p1 != str(want_p1):
        return f"p_1 {p1} != {want_p1}"
    if conclusion != INDEPENDENT:
        return f"conclusion {conclusion}"
    return None


# ---------------------------------------------------------------------------
# knotted: run_problem on surgery configurations with one knotted strand
# ---------------------------------------------------------------------------

KNOT_A = {1: (7, 61), 2: (7, 19)}
UNKNOT_A = (2, 3, 5, 7, 11, 13, 17, 19, 23)
CS_DENOMINATORS = (8, 12, 24, 120)


def _hermitian(V, omega):
    n = len(V)
    f, fc = 1 - omega, 1 - _MP.conj(omega)
    return _MP.matrix([[f * V[i][j] + fc * V[j][i] for j in range(n)] for i in range(n)])


def _alexander_at(V, t):
    n = len(V)
    return _MP.det(_MP.matrix([[t * V[i][j] - V[j][i] for j in range(n)] for i in range(n)]))


def _root(a, b):
    return _MP.expjpi(_MP.mpf(2 * b) / a)


def _seifert_matrix(rng, genus):
    n = 2 * genus
    V = [[0] * n for _ in range(n)]
    for k in range(genus):
        V[2 * k][2 * k + 1] = 1  # J_g: V - V^T is a block sum of [[0,1],[-1,0]]
    for i in range(n):
        V[i][i] += rng.randint(-1, 1)
        for j in range(i + 1, n):
            s = rng.choice((0, 0, 1, -1))
            V[i][j] += s
            V[j][i] += s
    return V


def _knotted(rng, i, g, u):
    genus = 2 if i % 5 == 4 else 1
    a_knot = round(_log_spread(*KNOT_A[genus], g))
    others = []
    for a in rng.sample(UNKNOT_A, len(UNKNOT_A)):
        if gcd(a, a_knot) == 1 and all(gcd(a, x) == 1 for x in others):
            if a % 2 == 0 and (a_knot % 2 == 0 or any(x % 2 == 0 for x in others)):
                continue
            others.append(a)
        if len(others) == 2:
            break
    moduli = others + [a_knot]
    rng.shuffle(moduli)
    bs = _solve_b(moduli, rng)
    if rng.random() < 0.5:
        bs = [-b for b in bs]
    b_knot = bs[moduli.index(a_knot)]
    while True:
        V = _seifert_matrix(rng, genus)
        if abs(_alexander_at(V, _root(a_knot, b_knot))) > 1e-20:
            break
    strands = []
    for a, b in zip(moduli, bs):
        strand = {"a": a, "b": b}
        if a == a_knot:
            strand.update(
                seifert_matrix=V,
                cs_denominators=[rng.choice(CS_DENOMINATORS)],
                provenance="synthetic benchmark input",
            )
        strands.append(strand)
    return {"kind": "surgery-config", "strands": strands}


def _signature(V, a, b) -> int:
    """Levine-Tristram signature at zeta_a^(-b), by counting eigenvalue signs."""
    eig, _ = _MP.eighe(_hermitian(V, _root(a, -b)))
    if min(abs(x) for x in eig) < 1e-30:
        raise ArithmeticError("singular Hermitian form")
    return sum(1 if x > 0 else -1 for x in eig)


def _check_knotted(inp, summary) -> str | None:
    conclusion, ind = summary
    strands = inp["strands"]
    pairs = [(s["a"], s["b"]) for s in strands]
    d = _d(pairs)
    if abs(d) != 1:
        return f"benchmark input has d = {d}"
    if d < 0:
        pairs = [(a, -b) for a, b in pairs]
    r_value = 2 * len(pairs) - 3 - 2 * _k_sum(pairs)
    sig = sum(_signature(s["seifert_matrix"], a, b % a)
              for s, (a, b) in zip(strands, pairs) if "seifert_matrix" in s)
    if ind != str(r_value + sig):
        return f"Ind+ {ind} != R + sigma = {r_value} + {sig}"
    prod = 1
    for a, _ in pairs:
        prod *= a
    taus = []
    for s in strands:
        if "seifert_matrix" in s:
            k = s["a"]
            for c in s["cs_denominators"]:
                k = k * c // gcd(k, c)
            taus.append(Fraction(1, k))
        else:
            taus.append(Fraction(4, s["a"]))
    h1 = sum(a % 2 == 0 for a, _ in pairs) <= 1
    obstructed = r_value + sig > 0 and h1 and min(taus) > Fraction(1, prod)
    want = OBSTRUCTED if obstructed else INCONCLUSIVE
    if conclusion != want:
        return f"conclusion {conclusion} != {want}"
    return None


# ---------------------------------------------------------------------------
# lattice: CeProblem construction plus enumerate_C_e
# ---------------------------------------------------------------------------

LATTICE_RANKS = ((3, 0.3), (4, 0.7), (5, 0.8), (6, 1.0))  # (rank, cumulative share)
LATTICE_NORM = (10, 60)
LATTICE_DIAGONAL = (4, 10)  # -gram_ii spread evenly over this range: 0.6-400 ms problems
RESTRICTION_MODULI = (3, 5, 7)
BOX_SCAN_MAX_RANK = 4


def _leading_minors_ok(gram) -> bool:
    """Negative definiteness of -A by exact Gaussian elimination on A = -gram."""
    a = [[Fraction(-x) for x in row] for row in gram]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def _norm(gram, x) -> int:
    return sum(gram[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))


def _lattice(rng, i, g, u):
    rank = next(r for r, upto in LATTICE_RANKS if u[0] < upto)
    lo, hi = LATTICE_NORM
    target = lo + (hi - lo) * u[1]
    while True:
        gram = [[0] * rank for _ in range(rank)]
        # the diagonal's multiset is fixed per rank (only its order is drawn), so the
        # determinant, and with it the number of lattice points, varies little
        lo_c, hi_c = LATTICE_DIAGONAL
        diag = [round(lo_c + (hi_c - lo_c) * k / (rank - 1)) for k in range(rank)]
        rng.shuffle(diag)
        for k in range(rank):
            gram[k][k] = -diag[k]
        for k in range(rank):
            for j in range(k + 1, rank):
                if rng.random() < 1.5 / rank:
                    gram[k][j] = gram[j][k] = rng.choice((1, -1))
        if _leading_minors_ok(gram):
            break
    best = None
    for _ in range(200):
        e = [rng.randint(-2, 2) for _ in range(rank)]
        t = -_norm(gram, e)
        if best is None or abs(t - target) < abs(best[1] - target):
            best = (e, t)
        if abs(t - target) <= 2:
            break
    e = best[0]
    restrictions = []
    if i % 2:
        row = [0] * rank
        while not any(row):
            row = [rng.randint(-1, 2) for _ in range(rank)]
        restrictions.append({"modulus": rng.choice(RESTRICTION_MODULI), "row": row})
    return {"rank": rank, "gram": gram, "e": e, "restrictions": restrictions}


def _restricts(inp, x, sign_free: bool) -> bool:
    e = inp["e"]
    for r in inp["restrictions"]:
        rx = sum(c * v for c, v in zip(r["row"], x))
        re = sum(c * v for c, v in zip(r["row"], e))
        if (rx - re) % r["modulus"] and (not sign_free or (rx + re) % r["modulus"]):
            return False
    return True


def _representative(inp, x):
    neg = tuple(-v for v in x)
    sx, sn = _restricts(inp, x, False), _restricts(inp, neg, False)
    if sx != sn:
        return x if sx else neg
    first = next((v for v in x if v), 0)
    return neg if first < 0 else x


def _box_scan(inp) -> set:
    import numpy as np

    gram, e = inp["gram"], inp["e"]
    n = len(e)
    target = _norm(gram, e)
    # x_i^2 <= t (A^-1)_ii for A = -gram, with the inverse diagonal taken exactly
    a = [[Fraction(-x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(gram)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    bounds = []
    for i in range(n):
        y = -target * a[i][n + i]
        bounds.append(isqrt(y.numerator * y.denominator) // y.denominator)
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    G = np.array(gram, dtype=np.int64)
    norms = np.einsum("ki,ij,kj->k", pts, G, pts)
    keep = pts[(norms == target) & np.all((pts - np.array(e)) % 2 == 0, axis=1)]
    return {
        _representative(inp, tuple(int(v) for v in x))
        for x in keep
        if _restricts(inp, tuple(int(v) for v in x), True)
    }


def _check_lattice(inp, summary) -> str | None:
    classes = [tuple(c) for c in summary]
    gram, e = inp["gram"], inp["e"]
    target = _norm(gram, e)
    if classes != sorted(set(classes)):
        return "classes not sorted and distinct"
    seen = set()
    for x in classes:
        if _norm(gram, x) != target:
            return f"{x} has the wrong norm"
        if any((v - w) % 2 for v, w in zip(x, e)):
            return f"{x} has the wrong parity"
        if not _restricts(inp, x, True):
            return f"{x} has the wrong restriction"
        if _representative(inp, x) != x:
            return f"{x} is not its class representative"
        if tuple(-v for v in x) in seen:
            return f"{x} listed with both signs"
        seen.add(x)
    if len(e) <= BOX_SCAN_MAX_RANK and set(classes) != _box_scan(inp):
        return "classes differ from the box scan"
    return None


# ---------------------------------------------------------------------------
# seifert-grid: check_fintushel_stern on integer homology spheres
# ---------------------------------------------------------------------------

GRID_A_MAX = 60
GRID_THREE_FIBERS = 0.7  # share of 3-fiber spheres; the rest have 4


def _seifert_grid(rng, i, g, u):
    fibers = 3 if g < GRID_THREE_FIBERS else 4
    moduli: list[int] = []
    while len(moduli) < fibers:
        a = rng.randint(2, GRID_A_MAX)
        if a % 2 == 0 and any(x % 2 == 0 for x in moduli):
            continue
        if all(gcd(a, x) == 1 for x in moduli):
            moduli.append(a)
    bs = _solve_b(moduli, rng)
    if rng.random() < 0.25:
        bs = [-b for b in bs]
    return {"pairs": [[a, b] for a, b in zip(moduli, bs)]}


def _check_seifert_grid(inp, summary) -> str | None:
    conclusion, ind = summary
    pairs = [tuple(p) for p in inp["pairs"]]
    d = _d(pairs)
    if d < 0:
        pairs = [(a, -b) for a, b in pairs]
    r_value = 2 * len(pairs) - 3 - 2 * _k_sum(pairs)
    if ind != str(r_value):
        return f"Ind+ {ind} != R = {r_value}"
    h1 = sum(a % 2 == 0 for a, _ in pairs) <= 1
    want = OBSTRUCTED if r_value > 0 and h1 else INCONCLUSIVE
    if conclusion != want:
        return f"conclusion {conclusion} != {want}"
    return None


_GENERATORS = {
    "family": _family,
    "knotted": _knotted,
    "lattice": _lattice,
    "seifert-grid": _seifert_grid,
}

_CHECKS = {
    "family": _check_family,
    "knotted": _check_knotted,
    "lattice": _check_lattice,
    "seifert-grid": _check_seifert_grid,
}


def check(workload: str, inp: dict, summary) -> str | None:
    """None when the summarized output is right for the input, else why not."""
    if summary is None:
        return "no output"
    try:
        return _CHECKS[workload](inp, summary)
    except (ArithmeticError, KeyError, ValueError, TypeError) as exc:
        return f"validation error: {exc!r}"
