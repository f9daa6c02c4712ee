"""Command line front end.

Every verb computes with exact arithmetic and emits a deterministic JSON
object (rationals serialized as "num/den" strings) or, with
``--format text``, a line-oriented rendering; reports carry their verdict
in the output, so the exit status only reflects whether the computation
ran:

    0   computed (whatever the mathematical verdict)
    2   malformed input
    3   internal consistency failure (e.g. the two index forms disagreed)

Examples::

    gaugecert rho-lens 3 1 1
    gaugecert r-invariant 2,1 3,1 11,-9
    gaugecert check-family 3 5 7 6,48,342
    gaugecert check-fs 2,1 3,1 5,-4 --format text
    gaugecert selftest
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd

from . import __version__
from .errors import GaugeCertError, InternalCheckError
from .exactnum import cot_cot_sin2_sum, hj_expand, ratio_str
from .index import ind_plus_seifert_qhs, r_invariant
from .knots import KNOT_CATALOG
from .lattice import (
    CeProblem,
    GramForm,
    enumerate_C_e,
    enumerate_C_e_bruteforce,
    gram_determinant,
    is_negative_definite,
    plumbing_gram,
)
from .lens import LensSpace, nz_closed_form, rho_lens
from .cstau import denominator_bound, lens_bound, seifert_bound
from .obstruct import (
    _field,
    _seifert_matrix,
    check_fintushel_stern,
    check_sfqhs_family,
    read_ce_problem,
    render_text,
    report_to_json_dict,
    rho_transfer_surgery,
    run_problem,
)
from .seifert import SeifertData, d_invariant, torus_knot_surgery


def _pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _emit(args, payload: dict, text: str) -> None:
    out = text if args.format == "text" else json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _cmd_rho_lens(args) -> tuple[dict, str]:
    value = rho_lens(LensSpace(args.a, args.b), args.l)
    return {"value": str(value)}, f"rho(L({args.a},{args.b}), l={args.l}) = {value}\n"


def _nz_identity(a: int, c: int) -> Fraction:
    # the Neumann-Zagier closed form, checked against the exact cotangent sum
    closed = nz_closed_form(a, c)
    if Fraction(2, a) * cot_cot_sin2_sum(a, c, 1) != closed:
        raise InternalCheckError(f"Neumann-Zagier identity fails at (a, c) = ({a}, {c})")
    return closed


def _cmd_nz_check(args) -> tuple[dict, str]:
    closed = _nz_identity(args.a, args.c)
    payload = {"a": args.a, "c": args.c, "closed_form": str(closed), "exact_sum": str(closed), "match": True}
    return payload, f"(a, c) = ({args.a},{args.c}): sum = closed form = {closed}\n"


def _cmd_r_invariant(args) -> tuple[dict, str]:
    value = r_invariant(SeifertData(tuple(args.pairs)))
    return {"R": value}, f"R = {value}\n"


def _cmd_ind_plus(args) -> tuple[dict, str]:
    S = SeifertData(tuple(args.pairs))
    value = ind_plus_seifert_qhs(S)
    d = d_invariant(S)
    return {"ind_plus": value, "d": d}, f"Ind+ = {value} (d = {d})\n"


def _cmd_tau_bound(args) -> tuple[dict, str]:
    if args.lens:
        (num, den), source = lens_bound(LensSpace(*args.lens).a), f"lens L({args.lens[0]},{args.lens[1]})"
    elif args.seifert:
        S = SeifertData(tuple(args.seifert))
        (num, den), source = seifert_bound(S.a_product, d_invariant(S)), "seifert"
    else:
        (num, den), source = denominator_bound(args.denominator), f"denominator {args.denominator}"
    # each rule refuses the integers that would put its bound outside (0, 4]
    if not 0 < num <= 4 * den:
        raise InternalCheckError(f"tau bound {num}/{den} outside (0, 4]")
    bound = ratio_str(num, den)
    return {"bound": bound, "kind": "lower-bound", "source": source}, f"tau >= {bound} ({source})\n"


def _cmd_plumbing(args) -> tuple[dict, str]:
    exp = hj_expand(args.a, args.b)
    G = plumbing_gram(exp)
    det, definite = gram_determinant(G), is_negative_definite(G)
    payload = {
        "a": args.a,
        "b": args.b,
        "terms": list(exp.terms),
        "gram": [list(row) for row in G.rows],
        "negative_definite": definite,
        "det": str(det),
    }
    text = f"{args.a}/{args.b} = {list(exp.terms)}; {'' if definite else 'not '}negative definite, det = {det}\n"
    return payload, text


def _cmd_c_e(args) -> tuple[dict, str]:
    with open(args.problem, encoding="utf-8") as fh:
        classes = enumerate_C_e(read_ce_problem(json.load(fh)))
    payload = {"classes": [list(c) for c in classes], "count": len(classes)}
    return payload, "".join(f"{list(c)}\n" for c in classes) + f"count = {len(classes)}\n"


def _cmd_check_fs(args) -> tuple[dict, str]:
    if args.problem:
        with open(args.problem, encoding="utf-8") as fh:
            report = run_problem(json.load(fh))
    else:
        report = check_fintushel_stern(SeifertData(tuple(args.pairs)))
    return report_to_json_dict(report), render_text(report)


def _cmd_check_family(args) -> tuple[dict, str]:
    report = check_sfqhs_family(args.p, args.q, args.d, args.n_list)
    return report_to_json_dict(report), render_text(report)


def _cmd_rho_transfer(args) -> tuple[dict, str]:
    if args.seifert_matrix is not None:
        matrix = _field(vars(args), "seifert_matrix", lambda v: _seifert_matrix(json.loads(v)))
    else:
        matrix = KNOT_CATALOG[args.knot or "unknot"]
    value = rho_transfer_surgery(LensSpace(args.a, args.b), matrix)
    return {"value": str(value)}, f"rho = {value}\n"


#: Largest ``selftest --nz-max``: the identity grid has about 3 A^2/pi^2
#: coprime pairs, and 500 took 3.2 s, 1000 took 12.6 s (2 CPU x86_64).
MAX_NZ_GRID = 500


def _cmd_selftest(args) -> tuple[dict, str]:
    if args.nz_max > MAX_NZ_GRID:
        raise GaugeCertError(f"--nz-max {args.nz_max} exceeds the limit {MAX_NZ_GRID}")
    checked = {}

    # Neumann-Zagier identity grid
    n = 0
    for a in range(2, args.nz_max + 1):
        for c in range(1, a):
            if gcd(a, c) == 1:
                _nz_identity(a, c)
                n += 1
    checked["nz_identity_pairs"] = n

    # index formula agreement grid (both forms are compared inside)
    n = 0
    for p, q in ((2, 3), (2, 5), (3, 5), (3, 7)):
        for d in (1, 3, 7):
            for nn in range(1, 8):
                if gcd(d, nn) == 1 and p * q * nn - d > nn:
                    ind_plus_seifert_qhs(torus_knot_surgery(p, q, d, nn))
                    n += 1
    checked["index_form_instances"] = n

    # C(e) enumeration against brute force
    import random

    rng = random.Random(20240 + args.nz_max)
    n = 0
    for _ in range(25):
        rank = rng.randint(1, 3)
        diag = [-rng.randint(1, 6) for _ in range(rank)]
        rows = [[diag[i] if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i in range(rank - 1):
            rows[i][i + 1] = rows[i + 1][i] = rng.randint(-1, 1)
        G = GramForm(rank, tuple(tuple(r) for r in rows))
        if not is_negative_definite(G):
            continue
        e = tuple(rng.randint(-2, 2) for _ in range(rank))
        problem = CeProblem(G, e)
        if enumerate_C_e(problem) != enumerate_C_e_bruteforce(problem):
            raise InternalCheckError(f"C(e) enumeration mismatch for {rows}, e = {e}")
        n += 1
    checked["c_e_instances"] = n

    payload = {"ok": True, "checked": checked}
    text = "".join(f"{k}: {v}\n" for k, v in sorted(checked.items())) + "selftest ok\n"
    return payload, text


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugecert",
        description="exact-arithmetic obstruction certificates for Seifert fibered spaces",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("rho-lens", help="exact rho invariant of a lens space")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(handler=_cmd_rho_lens)

    p = sub.add_parser("nz-check", help="verify the cotangent-sum closed form at (a, c)")
    p.add_argument("a", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(handler=_cmd_nz_check)

    p = sub.add_parser("r-invariant", help="definite-bounding obstruction R of Seifert pairs")
    p.add_argument("pairs", type=_pair, nargs="+", metavar="a,b")
    p.set_defaults(handler=_cmd_r_invariant)

    p = sub.add_parser("ind-plus", help="index of the reducible bundle (d > 0)")
    p.add_argument("pairs", type=_pair, nargs="+", metavar="a,b")
    p.set_defaults(handler=_cmd_ind_plus)

    p = sub.add_parser("tau-bound", help="certified lower bound for tau")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lens", type=int, nargs=2, metavar=("A", "B"))
    source.add_argument("--seifert", type=_pair, nargs="+", metavar="a,b")
    source.add_argument("--denominator", type=int)
    p.set_defaults(handler=_cmd_tau_bound)

    p = sub.add_parser("plumbing", help="Hirzebruch-Jung expansion and plumbing form of a/b")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(handler=_cmd_plumbing)

    p = sub.add_parser("c-e", help="enumerate C(e) from a JSON problem file")
    p.add_argument("problem", metavar="FILE")
    p.set_defaults(handler=_cmd_c_e)

    p = sub.add_parser("check-fs", help="definite-bounding obstruction report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("pairs", type=_pair, nargs="*", default=(), metavar="a,b")
    source.add_argument("--problem", metavar="FILE", help="JSON problem file (seifert / surgery-config)")
    p.set_defaults(handler=_cmd_check_fs)

    p = sub.add_parser("check-family", help="surgery-family linear independence report")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("d", type=int)
    p.add_argument("n_list", type=_int_list, metavar="n1,n2,...")
    p.set_defaults(handler=_cmd_check_family)

    p = sub.add_parser("rho-transfer", help="rho of -a/b surgery on a knot, via the lens transfer")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    knot = p.add_mutually_exclusive_group()
    # no default: argparse counts an option whose value is its default
    # object as absent, so "--knot unknot" could slip past the group
    knot.add_argument("--knot", choices=sorted(KNOT_CATALOG), help="default: unknot")
    knot.add_argument("--seifert-matrix", metavar="JSON", help="explicit matrix, e.g. '[[1,1],[0,-1]]'")
    p.set_defaults(handler=_cmd_rho_transfer)

    p = sub.add_parser("selftest", help="run the built-in identity and enumeration cross-checks")
    p.add_argument("--nz-max", type=int, default=60, metavar="A", help="upper bound for the identity grid")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # CPython 3.11 argparse hands a positional whose only token is "--" over
    # as [] without applying its type; no argument has [] as a value otherwise
    missing = [name for name, value in vars(args).items() if value == []]
    if missing:
        parser.error(f"argument {missing[0]}: expected a value, got '--'")
    try:
        payload, text = args.handler(args)
        _emit(args, payload, text)
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (GaugeCertError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
