"""Assembly of the obstruction certificates.

Two checkers are provided, each returning an :class:`ObstructionReport`
whose hypothesis lines record every machine-verified condition with its
exact computed value:

* :func:`check_fintushel_stern` / :func:`check_surgery_config`: a Seifert
  fibered integer homology sphere (or, more generally, the homology sphere
  obtained from a strand configuration where meridian strands may carry
  knots) cannot bound a positive definite 4-manifold B with
  H_1(B; Z/2) = 0;
* :func:`check_sfqhs_family`: the rational homology spheres obtained from
  a surgery family on a torus knot are linearly independent in the Z/2
  homology cobordism group.

The tool certifies hypotheses, not theorems: the analytic input (that the
stated numeric hypotheses force the count of reducible instantons to be
even and greater than 1, contradicting the computed odd count) is trusted
as proven; a report's conclusion says exactly which numeric hypotheses
were verified, and every user-supplied datum carries a provenance note.

Orientation bookkeeping.  Strand data is normalized so that d > 0 (the
orientation making the trace 4-manifold negative definite); an input with
d < 0 is noted in the report and each strand is read at b = -b_i, a sign
carried through the strand loop, not rebuilt.  With that orientation the
boundary piece over a strand (a, b) is the reverse of the -a/b surgery on
its knot, so its rho invariant is minus the value transferred from the
lens space L(a, b mod a):

    rho_i = -( rho(L(a, b), l = -b mod a) + sigma(a, b) + sigma(a, a-b) ),

where the sigmas are Levine-Tristram signatures of the strand knot (zero
for unknots); the two are equal, so sigma(a, b) is computed and doubled.
For unknotted strands this equals rho(L(a, -b mod a)) at the meridian
holonomy, which reproduces the Seifert index formula.  In Ind+ each rho_i
enters with weight -1/2, so Ind+ = R + sum of signatures: one call of
:func:`gaugecert.index.r_invariant` compares R's trigonometric form (each
strand's cotangent sum read once) with its closed form 2n - 3 - 2 sum K_i,
and a wrong sum raises an "index transfer mismatch" (exit status 3).  Each
knotted strand's signature is computed once: its Hermitian form is
singular exactly where the Alexander polynomial vanishes, so whether it
raised :class:`SingularPivot` is the strand's nondegeneracy line.

Window and reducible count, in integers.  p_1 = d/a, each strand's tau
bound (cstau's 4/a for a lens strand, 1/lcm of a and its Chern-Simons
denominators for a knotted one) and the margin are num/den pairs, tau-hat
is the least bound by cross-multiplication, and each prints as its
Fraction would.  The rank-1 lines run only once "homology sphere" has
passed with d > 0, so d = 1: H^2 of the capped manifold is Z with form
(-1) and e = 1, which is primitive, so the lattice splits and C(e) is the
single class {1, -1}.  check-fs builds one report and no lattice object.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from math import gcd, isqrt, lcm

from . import lattice  # the C(e) reader's classes; the checkers build no lattice object
from .cstau import denominator_bound, lens_bound, seifert_bound
from .errors import BadParameters, Degenerate, InternalCheckError, SingularPivot
from .exactnum import exact_int, ratio_str
from .index import ind_plus_seifert_qhs, r_invariant
from .knots import KNOT_CATALOG, SeifertMatrix, lt_signature
from .lattice import sfqhs_reducible_count
from .lens import LensSpace, rho_lens
from .seifert import SeifertData, check_h1_z2, d_invariant, meridian_holonomy, torus_knot_surgery

__all__ = [
    "CS_DENOMINATOR_CATALOG",
    "HypothesisLine",
    "ObstructionReport",
    "Strand",
    "check_fintushel_stern",
    "check_sfqhs_family",
    "check_surgery_config",
    "read_ce_problem",
    "render_text",
    "report_to_json_dict",
    "rho_transfer_surgery",
    "run_problem",
]

OBSTRUCTED = "ObstructedPositiveDefinite"
INDEPENDENT = "LinearlyIndependentFamily"
INCONCLUSIVE = "Inconclusive"

PASS, FAIL = "pass", "fail"


@dataclass(frozen=True)
class HypothesisLine:
    """One verified condition: a name, the defining formula, the exact
    computed value (rendered as a string; rationals as num/den), and a
    pass/fail verdict."""

    name: str
    formula: str
    value: str
    verdict: str


@dataclass(frozen=True)
class ObstructionReport:
    problem: dict
    hypotheses: tuple[HypothesisLine, ...]
    conclusion: str
    provenance: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if self.conclusion != INCONCLUSIVE and not self.all_pass:
            raise InternalCheckError("report invariant violated: definite conclusion with failing hypothesis")

    @property
    def all_pass(self) -> bool:
        return all(line.verdict == PASS for line in self.hypotheses)

    def line(self, name: str) -> HypothesisLine:
        for hyp in self.hypotheses:
            if hyp.name == name:
                return hyp
        raise KeyError(name)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class _Lines:
    """Accumulates hypothesis lines; a definite conclusion needs all_pass."""

    def __init__(self) -> None:
        self.lines: list[HypothesisLine] = []

    def add(self, name: str, formula: str, value, ok: bool) -> bool:
        self.lines.append(HypothesisLine(name, formula, _fmt(value), PASS if ok else FAIL))
        return ok

    @property
    def all_pass(self) -> bool:
        return all(line.verdict == PASS for line in self.lines)


# ---------------------------------------------------------------------------
# strands and the rho transfer
# ---------------------------------------------------------------------------

#: Shipped Chern-Simons denominators for knotted surgery pieces, keyed by
#: (knot name, a, b mod a) for the -a/b surgery.  Values are (denominators
#: of the irreducible flat connections, provenance).
CS_DENOMINATOR_CATALOG: dict[tuple[str, int, int], tuple[frozenset[int], str]] = {
    ("figure8", 3, 1): (
        frozenset({24}),
        "figure-eight knot, -3-surgery: the two irreducible flat SO(3) "
        "connections have Chern-Simons invariants with denominator 24 "
        "(external holonomy computation)",
    ),
}


@dataclass(frozen=True)
class Strand:
    """One meridian strand: surgery coefficient a/b with a > 0, an optional
    knot (catalog name or explicit Seifert matrix; unknot by default), and,
    on a knotted strand only, optional user-supplied Chern-Simons
    denominators for the irreducible flat connections on the surgered
    piece, with a mandatory non-empty provenance."""

    a: int
    b: int
    knot: str = "unknot"
    seifert_matrix: SeifertMatrix | None = None
    cs_denominators: frozenset[int] = frozenset()
    provenance: str = ""

    def __post_init__(self) -> None:
        if exact_int(self.a, "a") < 1 or gcd(self.a, exact_int(self.b, "b")) != 1:
            raise Degenerate(f"strand ({self.a}, {self.b}) is not a coprime pair with a >= 1")
        if self.seifert_matrix is None:
            if self.knot not in KNOT_CATALOG:
                raise Degenerate(f"unknown knot {self.knot!r}; supply a Seifert matrix")
            object.__setattr__(self, "seifert_matrix", KNOT_CATALOG[self.knot])
        elif self.knot == "unknot" and self.seifert_matrix.size > 0:
            object.__setattr__(self, "knot", "custom")
        elif self.knot in KNOT_CATALOG and KNOT_CATALOG[self.knot] != self.seifert_matrix:
            raise Degenerate(f"knot {self.knot!r} is given with a Seifert matrix that is not its own")
        strand = f"strand {self.a}/{self.b}"
        denoms = frozenset(exact_int(k, f"{strand}: Chern-Simons denominator") for k in self.cs_denominators)
        if min(denoms, default=1) < 1:
            raise BadParameters(f"{strand}: Chern-Simons denominators must be positive integers")
        if denoms and not (self.knotted and self.provenance):
            raise BadParameters(f"{strand}: Chern-Simons denominators need a knotted strand and a provenance")
        object.__setattr__(self, "cs_denominators", denoms)

    @property
    def knotted(self) -> bool:
        return self.seifert_matrix.size > 0


def rho_transfer_surgery(L: LensSpace, V: SeifertMatrix) -> Fraction:
    """rho of the -a/b surgery on the knot with Seifert matrix V, carried
    by a flat cobordism to the lens space L = L(a, b):

        rho(L, l = -b mod a) + sigma(a, b) + sigma(a, a - b),

    the two signature terms being Levine-Tristram signatures at conjugate
    points (so the correction is twice the signature).  Raises
    :class:`Degenerate` when the flat connection is degenerate, i.e. when
    the Alexander polynomial vanishes at the holonomy root of unity.
    """
    return 2 * _signature(V, L.a, L.b) + rho_lens(L, meridian_holonomy(L.a, L.b))


def _signature(V: SeifertMatrix, a: int, b: int) -> int:
    # sigma(a, b) = sigma(a, a - b), 0 for the unknot; the form is singular
    # exactly when the Alexander polynomial vanishes at exp(2 pi i b/a)
    if not V.size:
        return 0
    try:
        return lt_signature(V, a, b)
    except SingularPivot as exc:
        raise Degenerate(
            f"Alexander polynomial vanishes at exp(2 pi i {b}/{a}); flat connection degenerate"
        ) from exc


def _strand_tau_bound(strand: Strand, b: int, lines: _Lines, provenance: list[str]) -> tuple[int, int] | None:
    # the tau line of the strand, oriented to b; its printed bound as (num, den), or None when unknown
    a = strand.a
    if not strand.knotted:
        bound = lens_bound(a)
        formula = f"tau >= 4/{a} (lens Chern-Simons values mod 4 lie in (4/{a})Z)"
        lines.add(f"tau(L({a},{-b % a}))", formula, ratio_str(*bound), True)
        return bound
    denoms, prov = strand.cs_denominators, strand.provenance
    if not denoms:
        denoms, prov = CS_DENOMINATOR_CATALOG.get((strand.knot, a, b % a), (denoms, prov))
    if not denoms:
        formula = "Chern-Simons denominators of irreducible flat connections required"
        lines.add(f"tau(strand {a}/{b})", formula, "unknown", False)
        return None
    denoms = denoms | {a}  # reducibles transfer to the lens space, denominator a
    provenance.append(f"strand {a}/{b} ({strand.knot}): {prov}")
    # differences of values with denominators k1, k2 have denominator dividing lcm(k1, k2)
    bound = denominator_bound(lcm(*denoms))
    lines.add(
        f"tau(surgery {a}/{b} on {strand.knot})",
        f"tau >= 1/lcm{tuple(sorted(denoms))} (fractional-part bound on relative Chern-Simons values)",
        ratio_str(*bound),
        True,
    )
    return bound


# ---------------------------------------------------------------------------
# the definite-bounding checker
# ---------------------------------------------------------------------------

def check_surgery_config(strands: tuple[Strand, ...] | list[Strand]) -> ObstructionReport:
    """Certify that the homology sphere of a strand configuration bounds no
    positive definite 4-manifold with vanishing first Z/2 homology.

    Verifies: d = 1 (after orienting so d > 0, which is recorded), at most
    one multiplicity even, nondegeneracy of every strand connection, the
    index value Ind+ = R + sum of signatures (R's two forms compared),
    the strict window 0 < p_1 < tau-hat <= 4, and the singleton count of
    reducibles; the contradiction with the required even count greater
    than 1 then yields the conclusion.
    """
    strands = tuple(strands)
    problem = {"kind": "surgery-config", "strands": [_strand_json(s) for s in strands]}
    return _check_strands(problem, SeifertData(tuple((s.a, s.b) for s in strands)), strands)


def check_fintushel_stern(S: SeifertData) -> ObstructionReport:
    """Definite-bounding obstruction for a Seifert fibered integer homology
    sphere: all strands unknotted, hypotheses as in
    :func:`check_surgery_config`, conclusion driven by R = Ind+ > 0."""
    problem = {"kind": "seifert", "pairs": [[a, b] for a, b in S.pairs]}
    return _check_strands(problem, S, tuple(Strand(a, b) for a, b in S.pairs))


def _check_strands(problem: dict, S: SeifertData, strands: tuple[Strand, ...]) -> ObstructionReport:
    # the report of both checkers; S holds the strands' pairs as given
    lines = _Lines()
    provenance: list[str] = []

    d, sign = d_invariant(S), 1
    if d < 0:
        provenance.append(f"orientation reversed (input had d = {d}); all b_i flipped")
        S, d, sign = S.reversed(), -d, -1
    a = S.a_product

    ok = lines.add("homology sphere", "d = (a_1...a_n) sum b_i/a_i; need |d| = 1", d, abs(d) == 1)
    multiplicities = all(ai >= 2 for ai, _ in S.pairs)
    formula = "every a_i >= 2 (multiplicity-1 strands must be normalized away)"
    ok &= lines.add("strand multiplicities", formula, multiplicities, multiplicities)
    h1_ok = check_h1_z2(S)
    lines.add("H^1(X; Z/2) = 0", "at most one a_i is even", h1_ok, h1_ok)
    if not ok:
        return ObstructionReport(problem, lines.lines, INCONCLUSIVE, tuple(provenance))

    # nondegeneracy and signature, strand by strand, at the oriented b =
    # sign * s.b: a knotted strand is degenerate exactly when its signature raises
    sigmas, degenerate = [], None
    for s in strands:
        b, ok_s = sign * s.b, True
        try:
            sigmas.append(_signature(s.seifert_matrix, s.a, b % s.a))
        except Degenerate as exc:
            degenerate, ok_s = degenerate or exc, False
        if s.knotted:
            name = f"nondegenerate({s.knot} at {s.a}/{b})"
            formula = f"Alexander polynomial nonzero at exp(2 pi i {b % s.a}/{s.a})"
        else:
            name, formula = f"nondegenerate(lens strand {s.a}/{b})", "lens space flat connections are nondegenerate"
        lines.add(name, formula, ok_s, ok_s)
    if degenerate is not None:
        lines.add("rho transfer", "rho via flat cobordism to the lens space", str(degenerate), False)
        return ObstructionReport(problem, lines.lines, INCONCLUSIVE, tuple(provenance))

    # each knotted strand shifts the index by its Levine-Tristram signature:
    # rho_i = -(rho_lens + 2 sigma_i) enters Ind+ with weight -1/2, and R
    # compares its trigonometric form with its closed form
    ind = r_invariant(S) + sum(sigmas)
    lines.add("Ind+", "2 p_1 - 3 + (1/2) sum (3 - h_i - rho_i) = R + sum of signatures", ind, True)
    lines.add("Ind+ >= 0", "index hypothesis of the parity theorem", ind >= 0, ind >= 0)
    lines.add("Ind+ > 0", "positivity threshold of the definite-bounding obstruction", ind > 0, ind > 0)

    # compactness window in integers, p_1 = d/a with a > 0: tau-hat = tn/td
    # is the least of the printed strand bounds, found by cross-multiplying
    lines.add("p_1", "p_1 = -e.e = d/(a_1...a_n)", ratio_str(d, a), 0 < d)
    bounds = [_strand_tau_bound(s, sign * s.b, lines, provenance) for s in strands]
    if None not in bounds:
        tn, td = min(bounds, key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
        margin = tn * a - d * td  # (tau_hat - p_1) td a
        lines.add(
            "0 < p_1 < tau_hat <= 4",
            f"compactness margin tau_hat - p_1 with tau_hat >= {ratio_str(tn, td)}",
            ratio_str(margin, td * a),
            margin > 0 and tn <= 4 * td,
        )

    # reducible count over the capped manifold.  "homology sphere" passed
    # with d > 0, so d = 1: H^2 is Z with form (-d) and e = 1.  It splits as
    # span(e) + complement iff e is primitive (|v.e| = gcd(v) for v = -d e),
    # and C(e), one sign per class, is the odd x >= 0 (x = e mod 2) with
    # -d x^2 = e.e = -d, that is x^2 = 1 = d
    e = 1
    split = gcd(e) == 1
    count = sum(x * x == d for x in range(1, isqrt(d) + 1, 2))
    lines.add(
        "orthogonal split",
        "H^2 splits as span(e) + complement (capping piece contributes no new classes: "
        "the capped boundary is a homology sphere)",
        split,
        split,
    )
    lines.add("reducible count |C(e)|", "complete enumeration in the split lattice", count, count == 1)
    lines.add(
        "parity contradiction",
        "computed count is odd (= 1) but a positive definite cap forces an even count > 1",
        count % 2 == 1,
        count % 2 == 1,
    )

    conclusion = OBSTRUCTED if lines.all_pass else INCONCLUSIVE
    return ObstructionReport(problem, lines.lines, conclusion, tuple(provenance))


# ---------------------------------------------------------------------------
# the surgery-family checker
# ---------------------------------------------------------------------------

def check_sfqhs_family(p: int, q: int, d: int, n_list) -> ObstructionReport:
    """Certify linear independence, in the Z/2 homology cobordism group, of
    the rational homology spheres obtained by -d/n_k surgery on the
    left-handed (p, q) torus knot.

    Nothing is assumed: every arithmetic hypothesis becomes a report line
    (pairwise coprimality and oddness; n_k even, strictly increasing,
    coprime to d; the spacing and base-size inequalities), and for the
    largest n the index is computed by both Seifert index forms, the
    Pontryagin charge and all strict compactness comparisons p_1 < 1/m are
    evaluated exactly, and the reducible count is pinned to the single
    witness k = 1 with odd parity.  tau-hat is the least of those 1/m other
    than 1/d, which never binds, so only the largest n is built as a
    Seifert space.
    """
    p, q, d = exact_int(p, "p"), exact_int(q, "q"), exact_int(d, "d")
    n_list = tuple(exact_int(n, "n_list entry") for n in n_list)
    problem = {"kind": "sfqhs-family", "p": p, "q": q, "d": d, "n_list": list(n_list)}
    lines = _Lines()
    provenance: list[str] = []

    coprime = gcd(p, q) == gcd(p, d) == gcd(q, d) == 1
    positive_odd = min(p, q, d) >= 1 and p % 2 == q % 2 == d % 2 == 1
    ok = lines.add("parameters coprime", "p, q, d pairwise coprime", coprime, coprime)
    ok &= lines.add("parameters positive odd", "p, q, d positive and odd", positive_odd, positive_odd)
    ok &= lines.add("n_list nonempty", "at least one surgery coefficient", bool(n_list), bool(n_list))
    if not ok:
        return ObstructionReport(problem, lines.lines, INCONCLUSIVE, tuple(provenance))

    even = all(n % 2 == 0 for n in n_list)
    increasing = all(x < y for x, y in zip(n_list, n_list[1:]))
    coprime_d = all(gcd(d, n) == 1 for n in n_list)
    lines.add("n_k even", "every n_k is even", even, even)
    lines.add("n_k increasing", "n_1 < n_2 < ...", increasing, increasing)
    lines.add("gcd(d, n_k) = 1", "every n_k coprime to d", coprime_d, coprime_d)

    pq = p * q
    # d >= 1, so n_k > d n_i - d(d-1)/pq for all i < k iff it holds for the
    # largest n_i with i < k; both sides times pq, in integers
    spacing = all(pq * (n - d * top) + d * (d - 1) > 0 for top, n in zip(accumulate(n_list, max), n_list[1:]))
    lines.add("spacing", "n_k > d n_i - d(d-1)/pq for all k > i", spacing, spacing)
    # (d/pq) max{1 + d/pq, 1 + 1/p, 1 + 1/q} = d (pq + max{d, q, p}) / (pq)^2
    base = d * (pq + max(d, p, q))
    lines.add(
        "base size",
        "n_1 > (d/pq) max{1 + d/pq, 1 + 1/p, 1 + 1/q}",
        f"{n_list[0]} > {Fraction(base, pq * pq)}",
        n_list[0] * pq * pq > base,
    )

    n_last = n_list[-1]
    a3 = pq * n_last - d
    valid_surgery = all(pq * n - d > n > 0 for n in n_list)
    lines.add("surgery valid", "pq n_k - d > n_k > 0 for every k", valid_surgery, valid_surgery)
    if not lines.all_pass:
        return ObstructionReport(problem, lines.lines, INCONCLUSIVE, tuple(provenance))

    S = torus_knot_surgery(p, q, d, n_last)
    provenance.append(f"Seifert data for n_N = {n_last}: {S} (minimal-|r| solution of ps + rq = -1)")
    provenance.append(
        "negative definite caps for the repeated family members are geometric input, "
        "not computed: plumbings along the continued-fraction expansions of the lens "
        "space slopes, glued to the trace 4-manifold"
    )
    ind = ind_plus_seifert_qhs(S)
    lines.add("Ind+ = 1", "both Seifert index forms, 2n - 3 - 2 sum K_i", ind, ind == 1)

    a = pq * a3
    p1 = Fraction(d, a)
    lines.add("p_1", "p_1 = d/(pq(pq n_N - d))", p1, d * a > 0)

    # compactness comparisons, exactly as displayed in the minimum set:
    # with a, m > 0, p_1 = d/a < 1/m iff d m < a
    comparisons = [("p_1 < 1/d", d), ("p_1 < 1/p", p), ("p_1 < 1/q", q), (f"p_1 < 1/{a3}", a3)]
    # member n_i bounds tau by its Seifert bound 1/max(pq(pq n_i - d), d), and
    # "surgery valid" gives pq(pq n_i - d) > pq n_i > d, so the bound is 1/(pq(pq n_i - d))
    for i, n_i in enumerate(n_list[:-1], 1):
        comparisons.append((f"p_1 < 1/(pq(pq n_{i} - d))", seifert_bound(pq * (pq * n_i - d), d)[1]))
    formula = f"exact comparison, p_1 = {p1}"
    for name, m in comparisons:
        lines.add(name, formula, f"1/{m}" if m > 1 else "1", d * m < a)

    # tau_hat >= 1/top, the least of those bounds but 1/d
    top = max(m for _, m in comparisons[1:])
    margin = Fraction(a - d * top, a * top)
    lines.add("p_1 < tau_hat", f"margin tau_hat - p_1 with tau_hat >= {Fraction(1, top)}", margin, d * top < a)

    # p, q and d are odd, or the report ended at "parameters positive odd"
    torsion_odd = all((pq * n_i - d) % 2 == 1 for n_i in n_list)
    lines.add("boundary Z/2 homology spheres", "p, q, d and every pq n_i - d odd", torsion_odd, torsion_odd)
    if torsion_odd:
        provenance.append(
            "odd torsion of the relative second cohomology derived from: boundary "
            "components are Z/2 homology spheres (p, q, d, pq n_i - d all odd)"
        )
        verdict = sfqhs_reducible_count(p, q, d, n_last)
        lines.add(
            "reducible restriction class",
            "d^2 = l3 a + (d k + a l2)^2 forces (k, l2, l3) = (1, 0, 0)",
            str(verdict.solutions),
            verdict.unique_witness,
        )
        lines.add(
            "reducible count parity",
            "count = order of odd torsion group; parity",
            verdict.count_parity,
            verdict.count_parity == "odd",
        )

    conclusion = INDEPENDENT if lines.all_pass else INCONCLUSIVE
    return ObstructionReport(problem, lines.lines, conclusion, tuple(provenance))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _strand_json(s: Strand) -> dict:
    out: dict = {"a": s.a, "b": s.b, "knot": s.knot}
    if s.knot not in KNOT_CATALOG:
        out["seifert_matrix"] = [list(row) for row in s.seifert_matrix.rows]
    if s.cs_denominators:
        out["cs_denominators"] = sorted(s.cs_denominators)
        out["provenance"] = s.provenance
    return out


def _strand_from_json(data: dict) -> Strand:
    matrix = _seifert_matrix(data["seifert_matrix"]) if "seifert_matrix" in data else None
    for key in ("knot", "provenance"):
        if not isinstance(data.get(key, ""), str):
            raise TypeError(f"{key!r} must be a string, not {type(data[key]).__name__}")
    return Strand(
        a=data["a"], b=data["b"],
        knot=data.get("knot", "unknot"),
        seifert_matrix=matrix,
        cs_denominators=_array(data.get("cs_denominators", []), "cs_denominators"),
        provenance=data.get("provenance", ""),
    )


def report_to_json_dict(report: ObstructionReport) -> dict:
    return {
        "problem": report.problem,
        "hypotheses": [
            {"name": h.name, "formula": h.formula, "value": h.value, "verdict": h.verdict}
            for h in report.hypotheses
        ],
        "conclusion": report.conclusion,
        "provenance": list(report.provenance),
    }


def render_text(report: ObstructionReport) -> str:
    """Human-readable rendering; symbols (p_1, tau_hat, Ind+, R) match the
    JSON line names so reports can be checked line by line."""
    out = [f"problem: {json.dumps(report.problem, sort_keys=True)}"]
    width = max((len(h.name) for h in report.hypotheses), default=0)
    for h in report.hypotheses:
        out.append(f"  [{h.verdict:4}] {h.name:<{width}}  = {h.value}   ({h.formula})")
    for note in report.provenance:
        out.append(f"  note: {note}")
    out.append(f"conclusion: {report.conclusion}")
    return "\n".join(out) + "\n"


def _rational(x):
    # a gram entry: a "num/den" string as a Fraction, else as is for GramForm to check
    return Fraction(x) if isinstance(x, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", x) else x


def _array(value, name: str, rows: bool = False) -> list:
    # value, which must be a JSON array, and with rows=True each of its
    # entries too: a JSON object or string in its place would be read as
    # its keys or characters, and {} or "" as no entries at all
    if not isinstance(value, list) or rows and not all(isinstance(row, list) for row in value):
        raise TypeError(f"{name} must be a JSON array{' of arrays' if rows else ''}")
    return value


def _seifert_matrix(value) -> SeifertMatrix:
    return SeifertMatrix(_array(value, "seifert_matrix", rows=True))


def _field(data: dict, name: str, parse):
    # parse(data[name]); a top level that is not an object, or a missing or
    # malformed field, raises BadParameters naming it
    if not isinstance(data, dict):
        raise BadParameters(f"the input must be a JSON object, not {type(data).__name__}")
    if name not in data:
        raise BadParameters(f"field {name!r} is missing")
    try:
        return parse(data[name])
    except (TypeError, ValueError, AttributeError, KeyError, ZeroDivisionError) as exc:
        detail = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise BadParameters(f"field {name!r} is malformed: {detail}") from exc


def run_problem(data: dict) -> ObstructionReport:
    """Dispatch a problem description (parsed JSON) to the right checker.

    Integer fields must be JSON integers, and array fields JSON arrays
    (``{}`` or ``""`` is not an empty one).  A problem that is not a JSON
    object, or a missing or malformed field, raises :class:`BadParameters`
    naming it."""
    kind = _field(data, "kind", lambda v: v)
    if kind == "seifert":
        return check_fintushel_stern(_field(data, "pairs", lambda v: SeifertData(_array(v, "pairs", rows=True))))
    if kind == "surgery-config":
        strands = _field(data, "strands", lambda v: tuple(map(_strand_from_json, _array(v, "strands"))))
        return check_surgery_config(strands)
    if kind == "sfqhs-family":
        p, q, d = (_field(data, name, lambda v: exact_int(v, name)) for name in "pqd")
        n_list = _field(data, "n_list", lambda v: tuple(exact_int(n, "n_list entry") for n in _array(v, "n_list")))
        return check_sfqhs_family(p, q, d, n_list)
    raise BadParameters(f"unknown problem kind {kind!r}")


def _gram_form(data: dict) -> lattice.GramForm:
    gram = _array(data["gram"], "gram", rows=True)
    return lattice.GramForm(data["rank"], tuple(tuple(map(_rational, row)) for row in gram), data.get("scale", 1))


def read_ce_problem(data: dict) -> lattice.CeProblem:
    """A C(e) problem from its description (parsed JSON: ``form``, ``e`` and
    optional ``restrictions``); errors are raised as by :func:`run_problem`."""
    form = _field(data, "form", _gram_form)
    e = _field(data, "e", lambda v: tuple(exact_int(x, "e entry") for x in _array(v, "e")))
    restrictions = ()
    if "restrictions" in data:
        restrictions = _field(data, "restrictions", lambda v: tuple(
            lattice.Restriction(r["modulus"], _array(r["row"], "row")) for r in _array(v, "restrictions")))
    return lattice.CeProblem(form, e, restrictions)
