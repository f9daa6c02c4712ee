"""Report assembly: the definite-bounding checker, the family checker, the
rho transfer, determinism, JSON serialization and the problem reader."""

import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from gaugecert import (
    BadParameters,
    Degenerate,
    InternalCheckError,
    KNOT_CATALOG,
    LensSpace,
    ObstructionReport,
    SeifertData,
    SeifertMatrix,
    Strand,
    check_fintushel_stern,
    check_sfqhs_family,
    check_surgery_config,
    meridian_holonomy,
    render_text,
    report_to_json_dict,
    rho_lens,
    rho_transfer_surgery,
    run_problem,
)
from gaugecert.obstruct import HypothesisLine, INCONCLUSIVE, INDEPENDENT, OBSTRUCTED

from oracles import crt_solve


# ---------------------------------------------------------------------------
# rho transfer
# ---------------------------------------------------------------------------

def test_rho_transfer_examples():
    # figure-eight on (3, 1): signatures vanish, pure lens value
    val = rho_transfer_surgery(LensSpace(3, 1), KNOT_CATALOG["figure8"])
    assert val == rho_lens(LensSpace(3, 1), 2) == Fraction(2, 3)
    # unknot reduces to the plain lens value
    for a, b in ((5, 2), (11, 9), (7, 3)):
        L = LensSpace(a, b)
        assert rho_transfer_surgery(L, KNOT_CATALOG["unknot"]) == rho_lens(L, meridian_holonomy(a, b))
    # trefoil on (2, 1): 0 + 2 * (-2)
    assert rho_transfer_surgery(LensSpace(2, 1), KNOT_CATALOG["trefoil"]) == -4


def test_rho_transfer_degenerate():
    with pytest.raises(Degenerate):
        rho_transfer_surgery(LensSpace(6, 1), KNOT_CATALOG["trefoil"])


# ---------------------------------------------------------------------------
# definite-bounding reports
# ---------------------------------------------------------------------------

def test_fs_obstructed():
    r = check_fintushel_stern(SeifertData(((2, 1), (3, 1), (5, -4))))
    assert r.conclusion == OBSTRUCTED
    assert r.line("Ind+").value == "1"
    assert r.line("p_1").value == "1/30"
    assert r.line("reducible count |C(e)|").value == "1"


def test_fs_inconclusive_negative_index():
    r = check_fintushel_stern(SeifertData(((2, 1), (3, -1), (7, -1))))
    assert r.conclusion == INCONCLUSIVE
    assert r.line("Ind+").value == "-1"
    assert r.line("Ind+ >= 0").verdict == "fail"
    assert r.line("Ind+ > 0").verdict == "fail"
    # everything else still reported
    assert r.line("p_1").verdict == "pass"


def test_fs_not_homology_sphere():
    r = check_fintushel_stern(SeifertData(((3, 1), (5, -2), (83, 6))))
    assert r.conclusion == INCONCLUSIVE
    assert r.line("homology sphere").verdict == "fail"


def test_fs_two_even_multiplicities():
    r = check_fintushel_stern(SeifertData(((2, 1), (4, 1), (8, 1), (3, -2))))
    assert r.conclusion == INCONCLUSIVE


def test_surgery_config_figure8():
    strands = (Strand(2, 1), Strand(3, -1, knot="figure8"), Strand(11, -2))
    r = check_surgery_config(strands)
    assert r.conclusion == OBSTRUCTED
    assert r.line("Ind+").value == "1"
    assert r.line("p_1").value == "1/66"
    assert r.line("0 < p_1 < tau_hat <= 4").value == str(Fraction(1, 24) - Fraction(1, 66))
    assert any("orientation reversed" in note for note in r.provenance)
    assert any("denominator 24" in note for note in r.provenance)


def test_surgery_config_descartes_count_check(monkeypatch):
    # the trefoil's C(lambda, sigma) replaced by lambda^2 + 1 (digit (n + 1) j + k
    # holds the coefficient of lambda^j sigma^k, n = 2): a characteristic
    # polynomial with no real root is an internal failure, not a signature
    import gaugecert.knots as knots

    monkeypatch.setattr(knots, "_kronecker_det", lambda n, terms: [1, 0, 0, 0, 0, 0, 1])
    strands = (Strand(2, 1), Strand(3, 1), Strand(7, -6, knot="trefoil"))
    with pytest.raises(InternalCheckError, match="Descartes' rule counts 0 positive and 0 negative"):
        check_surgery_config(strands)


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_fintushel_stern(SeifertData(((2, 1), (3, 1), (5, -4)))),
        lambda: check_surgery_config((Strand(2, 1), Strand(3, -1, knot="figure8"), Strand(11, -2))),
        # A = 70 is prime to 3, so a sum off by 1/3 gives a rho outside (1/A^2) Z
        lambda: check_fintushel_stern(SeifertData(((2, 1), (5, -1), (7, -2)))),
    ],
    ids=["fs_2_3_5", "figure8_obstructed", "fs_2_5_7"],
)
def test_wrong_cotangent_sum_is_a_transfer_mismatch(monkeypatch, check):
    # the transferred Ind+ is checked against R's closed form, so a cotangent
    # sum that is off by one, or by 1/3, whose denominator need not divide
    # a_i^2, or by 10^-9, which rounding to (1/A^2) Z would lose, cannot
    # reach a report
    import gaugecert.lens as lens

    true_sum = lens.cot_cot_sin2_sum
    check()  # the true sums pass the comparison
    for off in (1, Fraction(1, 3), Fraction(1, 10**9)):
        monkeypatch.setattr(lens, "cot_cot_sin2_sum", lambda a, b, l, off=off: true_sum(a, b, l) + off)
        with pytest.raises(InternalCheckError, match="index transfer mismatch"):
            check()


def test_surgery_config_unknown_knot_inconclusive():
    # a knotted strand with no Chern-Simons profile cannot be certified
    strands = (Strand(2, 1), Strand(3, -1, knot="trefoil"), Strand(11, -2))
    r = check_surgery_config(strands)
    assert r.conclusion == INCONCLUSIVE
    assert any(line.verdict == "fail" and "tau" in line.name for line in r.hypotheses)


def test_surgery_config_user_profile():
    strands = (
        Strand(2, 1),
        Strand(3, -1, knot="trefoil", cs_denominators=frozenset({48}), provenance="test fixture"),
        Strand(11, -2),
    )
    r = check_surgery_config(strands)
    # the trefoil signature (-2 at this holonomy) shifts Ind+ = R + sigma
    assert r.line("Ind+").value == "-1"
    assert r.conclusion == INCONCLUSIVE
    assert any("test fixture" in note for note in r.provenance)


def test_fs_window_lines_match_definition():
    # every tau(...) line and the 0 < p_1 < tau_hat <= 4 line against Fraction
    # arithmetic, on d = +-1 configurations of lens strands and catalog knots,
    # some with user denominators; no a = 6, where the trefoil is degenerate
    rng = random.Random(21)
    verdicts = []
    for _ in range(400):
        moduli = []
        for _ in range(rng.randint(2, 4)):
            moduli.append(rng.choice([m for m in range(2, 30) if m != 6 and all(gcd(m, x) == 1 for x in moduli)]))
        bs = list(crt_solve(moduli, rng.choice((1, -1))))
        i, j = rng.sample(range(len(moduli)), 2)
        k = rng.randint(-2, 2)
        bs[i], bs[j] = bs[i] + k * moduli[i], bs[j] - k * moduli[j]
        strands = []
        for a, b in zip(moduli, bs):
            knot = rng.choice(("unknot", "unknot", "trefoil", "figure8"))
            denoms = frozenset(rng.sample((8, 12, 24, 120, 10**6), rng.randint(1, 2))) if rng.random() < 0.6 else ()
            denoms = denoms if knot != "unknot" else ()  # drawn for every strand, so the stream is unchanged
            strands.append(Strand(a, b, knot, cs_denominators=denoms, provenance="fixture" if denoms else ""))
        r = check_surgery_config(strands)
        names = [h.name for h in r.hypotheses]
        if "p_1" not in names:
            continue
        A, d = 1, 0
        for a, b in zip(moduli, bs):
            A, d = A * a, d * a + b * A
        p1 = Fraction(1, A)
        expected, bounds = [], []
        for s in strands:
            a, b = s.a, s.b * d  # d = +-1 orients the configuration
            if s.knot == "unknot":
                tau = Fraction(4, a)
                formula = f"tau >= 4/{a} (lens Chern-Simons values mod 4 lie in (4/{a})Z)"
                expected.append((f"tau(L({a},{-b % a}))", formula, str(tau), "pass"))
            else:
                denoms = set(s.cs_denominators) or ({24} if (s.knot, a, b % a) == ("figure8", 3, 1) else set())
                if not denoms:
                    formula = "Chern-Simons denominators of irreducible flat connections required"
                    expected.append((f"tau(strand {a}/{b})", formula, "unknown", "fail"))
                    continue
                denoms.add(a)
                tau = Fraction(1, lcm(*denoms))
                formula = f"tau >= 1/lcm{tuple(sorted(denoms))} (fractional-part bound on relative Chern-Simons values)"
                expected.append((f"tau(surgery {a}/{b} on {s.knot})", formula, str(tau), "pass"))
            bounds.append(tau)
        window = [(h.name, h.formula, h.value, h.verdict) for h in r.hypotheses if h.name.startswith("tau(")]
        assert window == expected, [(s.a, s.b, s.knot, s.cs_denominators) for s in strands]
        if len(bounds) < len(strands):
            assert "0 < p_1 < tau_hat <= 4" not in names and r.conclusion == INCONCLUSIVE
            continue
        tau_hat = min(bounds)
        line = r.line("0 < p_1 < tau_hat <= 4")
        formula = f"compactness margin tau_hat - p_1 with tau_hat >= {tau_hat}"
        assert (line.value, line.formula) == (str(tau_hat - p1), formula)
        assert line.verdict == ("pass" if 0 < p1 < tau_hat <= 4 else "fail")
        verdicts.append(line.verdict)
    assert min(verdicts.count("pass"), verdicts.count("fail")) >= 50


def test_fs_window_is_strict():
    # tau_hat = 1/lcm(5, 6) = p_1 = 1/30: a zero margin fails
    knotted = Strand(5, -4, "figure8", cs_denominators=frozenset({6}), provenance="fixture")
    r = check_surgery_config((Strand(2, 1), Strand(3, 1), knotted))
    line = r.line("0 < p_1 < tau_hat <= 4")
    assert (line.value, line.verdict) == ("0", "fail")
    assert line.formula == "compactness margin tau_hat - p_1 with tau_hat >= 1/30"
    assert r.conclusion == INCONCLUSIVE


# ---------------------------------------------------------------------------
# family reports
# ---------------------------------------------------------------------------

def test_family_main_example():
    r = check_sfqhs_family(3, 5, 7, (6, 48, 342, 2400))
    assert r.conclusion == INDEPENDENT
    assert r.line("Ind+ = 1").value == "1"
    n_last = 2400
    assert r.line("p_1").value == str(Fraction(7, 15 * (15 * n_last - 7)))
    assert r.line("reducible restriction class").value == "((1, 0, 0),)"
    assert r.line("reducible count parity").value == "odd"


def test_family_large_orders():
    # a_3 = 15 (7^8 - 1) - 7, about 8.6e7: the cotangent sums in the index
    # check are evaluated exactly at this order
    r = check_sfqhs_family(3, 5, 7, [7**k - 1 for k in range(1, 9)])
    assert r.conclusion == INDEPENDENT


def test_family_guards():
    assert check_sfqhs_family(3, 5, 7, (6, 47, 342)).conclusion == INCONCLUSIVE
    assert check_sfqhs_family(3, 5, 9, (6, 48)).conclusion == INCONCLUSIVE
    assert check_sfqhs_family(3, 5, 7, (48, 6)).conclusion == INCONCLUSIVE
    assert check_sfqhs_family(3, 5, 7, (14, 48)).conclusion == INCONCLUSIVE  # gcd(7, 14) > 1
    assert check_sfqhs_family(3, 5, 7, ()).conclusion == INCONCLUSIVE


def test_family_spacing_guard():
    # second coefficient violates n_k > d n_i - d(d-1)/pq
    r = check_sfqhs_family(3, 5, 7, (6, 8))
    assert r.conclusion == INCONCLUSIVE
    assert r.line("spacing").verdict == "fail"


def test_family_spacing_matches_pairwise_definition():
    # the running-maximum line against every pair i < k, on lists in any order
    rng = random.Random(446)
    verdicts = []
    for _ in range(400):
        p, q, d = rng.choice(((3, 5, 7), (3, 5, 1), (5, 7, 3), (3, 7, 11), (1, 1, 9)))
        n_list = [rng.randint(-20, 60)]
        for _ in range(rng.randint(0, 5)):
            step = rng.choice((d * max(n_list), n_list[-1], rng.randint(-20, 60)))
            n_list.append(step + rng.randint(-2, 2))
        if rng.random() < 0.3:
            rng.shuffle(n_list)
        pairwise = all(
            Fraction(n_list[k]) > d * n_list[i] - Fraction(d * (d - 1), p * q)
            for k in range(len(n_list))
            for i in range(k)
        )
        assert check_sfqhs_family(p, q, d, n_list).line("spacing").value == str(pairwise).lower(), (p, q, d, n_list)
        verdicts.append(pairwise)
    assert min(verdicts.count(True), verdicts.count(False)) >= 100


def test_family_window_lines_match_definition():
    # base size, every p_1 < ... line and p_1 < tau_hat against Fraction
    # arithmetic, on families with d = 1, d < pq and d > pq
    rng = random.Random(19)
    a3_verdicts = []
    for _ in range(400):
        p, q = rng.sample((3, 5, 7, 11, 13), 2)
        pq = p * q
        small = (1, 1, 3, 5, 7, 9, 11, 13, 17)
        d = rng.choice([x for x in (small if rng.random() < 0.5 else range(pq, 4 * pq, 2)) if gcd(x, pq) == 1])
        n_list = []
        for _ in range(rng.randint(1, 4)):
            n = d * n_list[-1] + 2 * rng.randint(0, 4) if n_list else 2 * rng.randint(1, 1 + 2 * d * d // pq**2)
            while gcd(n, d) > 1:
                n += 2
            n_list.append(n)
        r = check_sfqhs_family(p, q, d, n_list)
        base = Fraction(d, pq) * max(1 + Fraction(d, pq), 1 + Fraction(1, p), 1 + Fraction(1, q))
        names = [h.name for h in r.hypotheses]
        if "base size" in names:
            line = r.line("base size")
            assert (line.value, line.verdict) == (f"{n_list[0]} > {base}", "pass" if n_list[0] > base else "fail")
        if "p_1" not in names:
            continue
        a3 = pq * n_list[-1] - d
        p1 = Fraction(d, pq * a3)
        rhs = {"p_1 < 1/d": Fraction(1, d), "p_1 < 1/p": Fraction(1, p), "p_1 < 1/q": Fraction(1, q),
               f"p_1 < 1/{a3}": Fraction(1, a3)}
        for i, n_i in enumerate(n_list[:-1], 1):
            rhs[f"p_1 < 1/(pq(pq n_{i} - d))"] = Fraction(1, pq * (pq * n_i - d))
        window = [h for h in r.hypotheses if h.name.startswith("p_1 < 1/")]
        assert [h.name for h in window] == list(rhs)
        for h in window:
            assert (h.value, h.formula) == (str(rhs[h.name]), f"exact comparison, p_1 = {p1}")
            assert h.verdict == ("pass" if p1 < rhs[h.name] else "fail")
        tau = min(Fraction(1, p), Fraction(1, q), Fraction(1, a3),
                  *(min(Fraction(1, pq * (pq * n_i - d)), Fraction(1, d)) for n_i in n_list[:-1]))
        line = r.line("p_1 < tau_hat")
        assert (line.value, line.formula) == (str(tau - p1), f"margin tau_hat - p_1 with tau_hat >= {tau}")
        assert line.verdict == ("pass" if p1 < tau else "fail")
        # p_1 = d/(pq a_3) < 1/a_3 exactly when d < pq
        assert r.line(f"p_1 < 1/{a3}").verdict == ("pass" if d < pq else "fail")
        a3_verdicts.append(d < pq)
    assert min(a3_verdicts.count(True), a3_verdicts.count(False)) >= 100


@pytest.mark.parametrize("args, name", [
    ((True, 5, 7, (6, 48)), "p"),
    ((3, True, 7, (6, 48)), "q"),
    ((3, 5, True, (6, 48)), "d"),
    ((3, 5, 7, (6, True)), "n_list"),
])
def test_family_refuses_booleans(args, name):
    # gcd reads True as 1; run_problem and the CLI refuse them too
    with pytest.raises(BadParameters, match=f"^{name} "):
        check_sfqhs_family(*args)


def test_family_fs_consistency_d1():
    # d = 1 family members are integer homology spheres; the same instances
    # must pass the definite-bounding checker via R > 0
    r = check_sfqhs_family(3, 5, 1, (2, 4, 8))
    assert r.conclusion == INDEPENDENT
    from gaugecert import torus_knot_surgery

    for n in (2, 4, 8):
        fs = check_fintushel_stern(torus_knot_surgery(3, 5, 1, n))
        assert fs.conclusion == OBSTRUCTED


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_report_soundness_invariant():
    with pytest.raises(InternalCheckError):
        ObstructionReport(
            problem={"kind": "seifert"},
            hypotheses=(HypothesisLine("x", "f", "0", "fail"),),
            conclusion=OBSTRUCTED,
        )


def test_report_determinism_and_roundtrip():
    a = check_fintushel_stern(SeifertData(((2, 1), (3, 1), (11, -9))))
    b = check_fintushel_stern(SeifertData(((2, 1), (3, 1), (11, -9))))
    assert a == b
    assert render_text(a) == render_text(b)
    dumped = json.dumps(report_to_json_dict(a), sort_keys=True)
    assert json.dumps(report_to_json_dict(b), sort_keys=True) == dumped


def test_run_problem_dispatch():
    r = run_problem({"kind": "seifert", "pairs": [[2, 1], [3, 1], [5, -4]]})
    assert r.conclusion == OBSTRUCTED
    r = run_problem(
        {
            "kind": "surgery-config",
            "strands": [
                {"a": 2, "b": 1},
                {"a": 3, "b": -1, "knot": "figure8"},
                {"a": 11, "b": -2},
            ],
        }
    )
    assert r.conclusion == OBSTRUCTED
    r = run_problem({"kind": "sfqhs-family", "p": 3, "q": 5, "d": 7, "n_list": [6, 48]})
    assert r.conclusion == INDEPENDENT
    with pytest.raises(ValueError):
        run_problem({"kind": "nonsense"})
    with pytest.raises(BadParameters, match="'n_list'"):
        run_problem({"kind": "sfqhs-family", "p": 3, "q": 5, "d": 7, "n_list": [6.5, 48]})


def test_degenerate_strand_reports_failed_hypothesis():
    # trefoil with order-6 holonomy: Alexander polynomial vanishes there, so
    # no index is asserted; the report fails the nondegeneracy line instead
    strands = (Strand(6, 5, knot="trefoil"), Strand(5, 3), Strand(7, -10))
    r = check_surgery_config(strands)
    assert r.conclusion == INCONCLUSIVE
    assert r.line("nondegenerate(trefoil at 6/5)").verdict == "fail"
    with pytest.raises(KeyError):
        r.line("Ind+")


def test_strand_names_its_knot_once():
    # a catalog name with another knot's matrix would compute with the matrix
    # but take the name's Chern-Simons denominators and echo only the name
    with pytest.raises(Degenerate, match="'figure8'"):
        Strand(3, -1, knot="figure8", seifert_matrix=KNOT_CATALOG["trefoil"])
    assert Strand(3, -1, knot="figure8", seifert_matrix=KNOT_CATALOG["figure8"]) == Strand(3, -1, knot="figure8")
    assert Strand(3, -1, seifert_matrix=KNOT_CATALOG["trefoil"]).knot == "custom"
    assert Strand(3, -1, knot="mine", seifert_matrix=KNOT_CATALOG["trefoil"]).knot == "mine"


@pytest.mark.parametrize("denoms", [{0}, {-5}, {24, 0}, {True}])
def test_strand_refuses_bad_denominators(denoms):
    # refused when the strand is built, not when a report reaches its window;
    # True is not read as 1
    message = "denominator must be an int, not bool" if bool in map(type, denoms) else "denominators must be positive"
    with pytest.raises(BadParameters, match=f"^strand 3/-1: Chern-Simons {message}"):
        Strand(3, -1, knot="figure8", cs_denominators=frozenset(denoms), provenance="fixture")


@pytest.mark.parametrize("strand", [
    dict(a=3, b=-1, knot="figure8"),  # no provenance
    dict(a=3, b=-1, knot="figure8", provenance=""),
    dict(a=11, b=-2, provenance="fixture"),  # a lens strand's bound 4/a reads no denominator
    dict(a=11, b=-2, knot="mine", seifert_matrix=SeifertMatrix(()), provenance="fixture"),
])
def test_strand_denominators_need_a_knot_and_a_provenance(strand):
    with pytest.raises(BadParameters, match="Chern-Simons denominators need a knotted strand and a provenance"):
        Strand(cs_denominators=frozenset({7}), **strand)
    assert Strand(**strand).cs_denominators == frozenset()


def test_custom_seifert_matrix_strand():
    strands = (
        Strand(2, 1),
        Strand(3, -1, seifert_matrix=KNOT_CATALOG["figure8"], cs_denominators=frozenset({24}),
               provenance="explicit matrix fixture"),
        Strand(11, -2),
    )
    r = check_surgery_config(strands)
    assert r.conclusion == OBSTRUCTED
    assert r.line("Ind+").value == "1"
