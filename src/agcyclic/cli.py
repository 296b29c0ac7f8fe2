"""Command-line frontend.

Subcommands: field, orbit, construct, verify, canonical, equiv, fixedfield,
example (frobenius | roots-of-unity | artin-schreier), selftest.

Exit codes: 0 success / all requested checks hold; 1 a verification failed;
2 usage or validation error; 3 an enumeration budget was exhausted
(UNDECIDED).  Output is deterministic: identical invocations print identical
bytes (there is no randomness and no timestamps).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from .construction import (
    OrbitCodeSpec,
    artin_schreier_code,
    canonicalize,
    construct_ag_code,
    construct_orbit_code,
    frobenius_code,
    roots_of_unity_code,
    verify_cyclic_construction,
)
from .fixedfield import fiber_decomposition, invariant_generator, splitting_report
from .gf import GF, parse_field_spec, primitive_element
from .lincode import (
    DEFAULT_CODEWORD_BUDGET,
    DEFAULT_PERMUTATION_BUDGET,
    BudgetExceededError,
    LinearCode,
    min_weight,
    monomial_equivalence,
)
from .pgl2 import INF, MobiusMap, is_infinite, parse_point
from .rfield import divisor_from_string, place_from_string, place_of_point


def _field_from_args(args) -> GF:
    modulus = None
    if getattr(args, "modulus", None):
        modulus = [int(c) for c in args.modulus.split(",")]
    return parse_field_spec(args.q, modulus)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _point_str(t) -> str:
    return "inf" if is_infinite(t) else str(t)


def _code_payload(code: LinearCode, budget: int) -> dict:
    payload = {
        "n": code.n,
        "k": code.dimension(),
        "generator": [[str(code.field.from_value(int(v))) for v in row] for row in code.generator],
    }
    try:
        counts = code.weight_enumerator(budget).counts
        payload["d"] = min_weight(counts)
        payload["weight_enumerator"] = list(counts)
    except BudgetExceededError:
        payload["d"] = None
        payload["weight_enumerator"] = None
    return payload


def _code_lines(payload: dict) -> list[str]:
    lines = [f"n = {payload['n']}, k = {payload['k']}, d = {payload['d']}"]
    lines += [",".join(row) for row in payload["generator"]]
    return lines


def _report_payload(report) -> dict:
    return {
        "n": report.n,
        "m": report.m,
        "isotropy": report.isotropy,
        "dimension": report.dimension,
        "distance": report.distance,
        "full_space": report.full_space,
        "flags": {name: flag for name, flag in report.flag_items()},
        "all_ok": report.all_ok,
    }


def _report_lines(report) -> list[str]:
    lines = [
        f"n = {report.n}, m = {report.m}, isotropy = {report.isotropy}, "
        f"k = {report.dimension}, d = {report.distance}"
    ]
    for name, flag in report.flag_items():
        shown = "n/a" if flag is None else str(flag).lower()
        lines.append(f"{name}: {shown}")
    lines.append(f"all_ok: {str(report.all_ok).lower()}")
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_field(args) -> int:
    field = _field_from_args(args)
    payload = {
        "p": field.p,
        "m": field.m,
        "q": field.q,
        "modulus": list(field.modulus),
        "primitive_element": str(primitive_element(field)),
        "elements": [str(e) for e in field.elements()],
    }
    lines = [
        f"GF({field.p}^{field.m}) = GF({field.q}), modulus coefficients {list(field.modulus)}",
        f"primitive element: {payload['primitive_element']}",
        "elements: " + ", ".join(payload["elements"]),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_orbit(args) -> int:
    field = _field_from_args(args)
    matrix = MobiusMap.from_string(field, args.matrix)
    alpha = parse_point(field, args.alpha)
    orb = matrix.orbit(alpha)
    payload = {
        "matrix": str(matrix),
        "order": matrix.order(),
        "alpha": _point_str(alpha),
        "orbit": [_point_str(t) for t in orb],
        "length": len(orb),
        "isotropy": matrix.isotropy_order(alpha),
    }
    _emit(args, payload, [", ".join(payload["orbit"])])
    return 0


def _cmd_construct(args) -> int:
    field = _field_from_args(args)
    matrix = MobiusMap.from_string(field, args.matrix)
    alpha = parse_point(field, args.alpha)
    if args.G is not None:
        G = divisor_from_string(field, args.G)
        D = [place_of_point(field, t) for t in matrix.orbit(alpha)]
        code = construct_ag_code(D, G)
        report = verify_cyclic_construction(matrix, D, G, args.budget_codewords)
    else:
        if args.beta is None or args.r is None:
            raise ValueError("construct needs either --G or both --beta and --r")
        beta = parse_point(field, args.beta)
        spec = OrbitCodeSpec(matrix, alpha, beta, args.r)
        code = construct_orbit_code(spec, pole_basis=args.pole_basis)
        report = verify_cyclic_construction(matrix, spec.places, spec.divisor, args.budget_codewords)
    payload = _code_payload(code, args.budget_codewords)
    payload["cyclic"] = report.code_cyclic
    payload["report"] = _report_payload(report)
    lines = _code_lines(payload) + [f"cyclic: {str(report.code_cyclic).lower()}"]
    _emit(args, payload, lines)
    return 0 if report.all_ok else 1


def _cmd_verify(args) -> int:
    field = _field_from_args(args)
    matrix = MobiusMap.from_string(field, args.matrix)
    D = [place_from_string(field, s) for s in args.places.split(",")]
    G = divisor_from_string(field, args.G)
    report = verify_cyclic_construction(matrix, D, G, args.budget_codewords)
    _emit(args, _report_payload(report), _report_lines(report))
    return 0 if report.all_ok else 1


def _cmd_canonical(args) -> int:
    field = _field_from_args(args)
    matrix = MobiusMap.from_string(field, args.matrix)
    alpha = parse_point(field, args.alpha)
    beta = parse_point(field, args.beta)
    spec = OrbitCodeSpec(matrix, alpha, beta, args.r)
    result = canonicalize(spec)
    payload = {
        "canonical": {
            "matrix": str(result.spec.matrix),
            "alpha": _point_str(result.spec.alpha),
            "beta": _point_str(result.spec.beta),
            "r": result.spec.r,
        },
        "relation": result.relation,
        "witness": [[int(v) for v in row] for row in result.witness],
    }
    lines = [
        f"canonical matrix: {result.spec.matrix}",
        f"canonical seed: {_point_str(result.spec.alpha)}, pole: {_point_str(result.spec.beta)}, r = {result.spec.r}",
        f"relation: {result.relation}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_equiv(args) -> int:
    field = _field_from_args(args)

    def parse_gen(text: str) -> LinearCode:
        rows = [[field.parse(e) for e in row.split(",")] for row in text.split(";")]
        return LinearCode(field, rows)

    c1, c2 = parse_gen(args.gen1), parse_gen(args.gen2)
    verdict = monomial_equivalence(c1, c2, args.budget_codewords, args.budget_perms)
    payload = {
        "status": verdict.status,
        "reason": verdict.reason,
        "witness": None
        if verdict.witness is None
        else [[str(field.from_value(int(v))) for v in row] for row in verdict.witness],
    }
    lines = [f"{verdict.status}" + (f" ({verdict.reason})" if verdict.reason else "")]
    if payload["witness"] is not None:
        lines += [",".join(row) for row in payload["witness"]]
    _emit(args, payload, lines)
    if verdict.status == "EQUIVALENT":
        return 0
    if verdict.status == "INEQUIVALENT":
        return 1
    return 3


def _cmd_fixedfield(args) -> int:
    field = _field_from_args(args)
    matrix = MobiusMap.from_string(field, args.matrix)
    gen = invariant_generator(matrix)
    fibers = []
    points = [field.from_value(v) for v in range(field.q)] + [INF]
    for t in points:
        decomposition = fiber_decomposition(gen, t)
        fibers.append(
            {
                "t": _point_str(t),
                "places": [{"place": str(p), "e": e, "f": p.degree} for p, e in decomposition],
            }
        )
    payload = {
        "z": str(gen.z),
        "method": gen.method,
        "m": gen.m,
        "fibers": fibers,
    }
    lines = [f"z = {gen.z}   (degree {gen.m}, via {gen.method})"]
    for entry in fibers:
        parts = ", ".join(f"{d['place']} (e={d['e']}, f={d['f']})" for d in entry["places"])
        lines.append(f"fiber over {entry['t']}: {parts}")
    ok = True
    if args.alpha is not None:
        alpha = parse_point(field, args.alpha)
        report = splitting_report(matrix, alpha)
        payload["orbit"] = [_point_str(t) for t in report.orbit]
        payload["orbit_value"] = _point_str(report.value)
        payload["orbit_checks"] = {
            "constant_on_orbit": report.constant_on_orbit,
            "fiber_matches_orbit": report.fiber_matches_orbit,
            "ramification_uniform": report.ramification_uniform,
        }
        lines.append(
            f"orbit of {args.alpha}: " + ", ".join(payload["orbit"]) + f" over t = {payload['orbit_value']}"
        )
        lines.append(f"orbit checks all_ok: {str(report.all_ok).lower()}")
        ok = report.all_ok
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_example(args) -> int:
    if args.kind == "frobenius":
        code, report = frobenius_code(args.p, args.m, args.r, args.s)
    elif args.kind == "roots-of-unity":
        field = _field_from_args(args)
        code, report = roots_of_unity_code(field, args.n, args.r, args.s)
    else:
        field = _field_from_args(args)
        code, report = artin_schreier_code(field, args.s)
    payload = _code_payload(code, args.budget_codewords)
    payload["cyclic"] = report.code_cyclic
    payload["report"] = _report_payload(report)
    lines = _code_lines(payload) + [f"cyclic: {str(report.code_cyclic).lower()}"]
    _emit(args, payload, lines)
    return 0 if report.all_ok else 1


def _cmd_selftest(args) -> int:
    results = acceptance.run_all()
    payload = {
        "criteria": [
            {
                "number": r.number,
                "title": r.title,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} criterion {r.number}: {r.title} ({r.detail})"
        for r in results
    ]
    lines.append("all passed" if payload["all_passed"] else "FAILURES PRESENT")
    _emit(args, payload, lines)
    return 0 if payload["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--budget-codewords",
        type=int,
        default=DEFAULT_CODEWORD_BUDGET,
        help="max codewords for exhaustive enumeration",
    )
    common.add_argument(
        "--budget-perms",
        type=int,
        default=DEFAULT_PERMUTATION_BUDGET,
        help="max column permutations for equivalence search",
    )
    fieldopts = argparse.ArgumentParser(add_help=False)
    fieldopts.add_argument("--q", required=True, help="field spec, e.g. 7 or 2^2")
    fieldopts.add_argument("--modulus", help="ascending modulus coefficients c0,c1,...,cm")

    parser = argparse.ArgumentParser(
        prog="agcyclic",
        description="cyclic evaluation codes on the projective line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", parents=[common, fieldopts], help="describe a finite field")
    p.set_defaults(fn=_cmd_field)

    p = sub.add_parser("orbit", parents=[common, fieldopts], help="orbit of a point")
    p.add_argument("--matrix", required=True, help="matrix a,b;c,d")
    p.add_argument("--alpha", required=True, help="seed point (element or inf)")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("construct", parents=[common, fieldopts], help="build an orbit code")
    p.add_argument("--matrix", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", help="fixed point carrying the pole divisor")
    p.add_argument("--r", type=int, help="pole order at beta")
    p.add_argument("--G", help="explicit invariant divisor, e.g. '1*poly:b,b,1'")
    p.add_argument(
        "--pole-basis",
        action="store_true",
        help="evaluate the basis 1, 1/(x-beta), ..., 1/(x-beta)^r (finite beta)",
    )
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", parents=[common, fieldopts], help="verify cyclicity flags")
    p.add_argument("--matrix", required=True)
    p.add_argument("--places", required=True, help="comma-separated rational places in order")
    p.add_argument("--G", required=True, help="divisor string, e.g. '2*a=0 + 1*inf'")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("canonical", parents=[common, fieldopts], help="canonicalize a spec")
    p.add_argument("--matrix", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=_cmd_canonical)

    p = sub.add_parser("equiv", parents=[common, fieldopts], help="monomial equivalence of two codes")
    p.add_argument("--gen1", required=True, help="rows 'e,e,e;e,e,e'")
    p.add_argument("--gen2", required=True)
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("fixedfield", parents=[common, fieldopts], help="invariant generator and fibers")
    p.add_argument("--matrix", required=True)
    p.add_argument("--alpha", help="optional seed for an orbit splitting report")
    p.set_defaults(fn=_cmd_fixedfield)

    p = sub.add_parser("example", parents=[common], help="classical constructions")
    kind = p.add_subparsers(dest="kind", required=True)
    pf = kind.add_parser("frobenius", parents=[common])
    pf.add_argument("--p", type=int, required=True)
    pf.add_argument("--m", type=int, required=True)
    pf.add_argument("--r", type=int, required=True)
    pf.add_argument("--s", type=int, required=True)
    pf.set_defaults(fn=_cmd_example, kind="frobenius")
    pr = kind.add_parser("roots-of-unity", parents=[common, fieldopts])
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--r", type=int, required=True)
    pr.add_argument("--s", type=int, required=True)
    pr.set_defaults(fn=_cmd_example, kind="roots-of-unity")
    pa = kind.add_parser("artin-schreier", parents=[common, fieldopts])
    pa.add_argument("--s", type=int, required=True)
    pa.set_defaults(fn=_cmd_example, kind="artin-schreier")

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance suite")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
