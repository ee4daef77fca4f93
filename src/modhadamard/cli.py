"""Command line front end.

Exit codes follow the decision convention: 0 = exists / verified,
1 = does not exist / verification failed, 2 = unknown or inconclusive,
10 = usage error, 11 = runtime error (bad file, limit exceeded, failed
self-check, any other crash).
"""

import argparse
import json
import os
import sys
from functools import cache

from . import search as search_mod
from .constructions import (
    MaterializeError,
    _jint,
    check_constraints_1_to_4,
    family10_params,
    family11_params,
    materialize,
    plan,
    recipe_to_json,
)
from .existence import NotApplicable, decide, gate_walk, small_case_test, verdict_to_json
from .matrices import (
    DesignParams,
    SignMatrix,
    format_matrix_text,
    format_rows,
    parse_matrix_text,
    verify_design,
    verify_mh,
)
from .numtheory import condition1_search, is_prime

EXIT_EXISTS = 0
EXIT_NOT_EXISTS = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 10
EXIT_ERROR = 11

DEFAULT_Q_LIMIT = 3000
DEFAULT_D_LIMIT = 400


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _cap(args, attr, default=None):
    """The flag if given, else MODHADAMARD_<ATTR> if set, else default;
    tested against None, so an explicit 0 reaches the positivity check."""
    value = getattr(args, attr)
    if value is None:
        raw = os.environ.get("MODHADAMARD_" + attr.upper(), "").strip()
        value = int(raw) if raw else default
    if value is not None and value <= 0:
        raise ValueError("caps must be positive")
    return value


def _emit(payload):
    print(json.dumps(payload, sort_keys=True))


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_decide(args):
    v = decide(args.n, args.m)
    if args.format == "json":
        _emit(verdict_to_json(v))
    else:
        line = "MH(%d, %d): %s" % (args.n, args.m, v.status)
        if v.reason:
            line += " (%s)" % v.reason
        print(line)
        if v.threshold_note:
            print("  threshold: %s" % v.threshold_note)
        if v.conjecture_prediction is not None:
            print(
                "  conjecture predicts: %s"
                % ("exists" if v.conjecture_prediction else "does not exist")
            )
        if v.certificate is not None:
            print("  recipe: %s" % json.dumps(recipe_to_json(v.certificate), sort_keys=True))
    return {"Exists": EXIT_EXISTS, "NotExists": EXIT_NOT_EXISTS}.get(
        v.status, EXIT_UNKNOWN
    )


def _cmd_construct(args):
    materialize_cap = _cap(args, "materialize_cap")
    recipe = plan(args.n, args.m)
    if recipe is None:
        if args.format == "json":
            _emit({"m": args.m, "n": _jint(args.n), "recipe": None})
        else:
            print("no construction known for MH(%d, %d)" % (args.n, args.m))
        return EXIT_UNKNOWN
    mat = None
    note = None
    try:
        mat = materialize(recipe, materialize_cap)
    except MaterializeError as exc:
        note = str(exc)
    if args.format == "json":
        payload = {
            "m": args.m,
            "n": _jint(args.n),
            "recipe": recipe_to_json(recipe),
            "materialized": mat is not None,
        }
        if mat is not None:
            payload["matrix"] = format_rows(mat)
        if note:
            payload["note"] = note
        _emit(payload)
    elif mat is not None:
        sys.stdout.write(format_matrix_text(mat, args.m))
    else:
        print(json.dumps(recipe_to_json(recipe), sort_keys=True))
        print("note: %s" % note, file=sys.stderr)
    return EXIT_EXISTS


def _cmd_verify(args):
    obj, meta = parse_matrix_text(_read_input(args.file))
    if isinstance(obj, SignMatrix):
        if args.command == "verify-design":
            raise ValueError("input is not a design file (need a 'v k lambda m' header)")
        m = meta if args.m is None else args.m
        report = verify_mh(obj, m)
        ok = report.verdict
        payload = {"kind": "matrix", "m": m, "n": obj.n, "verified": ok}
    else:
        if args.m is not None:
            meta = DesignParams(meta.v, meta.k, meta.lam, args.m)
        ok = verify_design(obj, meta)
        payload = {
            "kind": "design",
            "lambda": meta.lam,
            "k": meta.k,
            "m": meta.modulus,
            "v": meta.v,
            "verified": ok,
        }
    if args.format == "json":
        _emit(payload)
    else:
        print("%s: %s" % (payload["kind"], "PASS" if ok else "FAIL"))
    return EXIT_EXISTS if ok else EXIT_NOT_EXISTS


def _cmd_search(args):
    problem = search_mod.SearchProblem(args.n, args.m, args.mode, args.goal)
    outcome = search_mod.run(problem)  # run verifies any witness it returns
    if args.format == "json":
        payload = {
            "candidate_row_count": outcome.candidate_row_count,
            "exhausted": outcome.exhausted,
            "found": None if outcome.found is None else format_rows(outcome.found),
            "goal": args.goal,
            "log": outcome.log,
            "m": args.m,
            "mode": args.mode,
            "n": args.n,
            "nodes_visited": outcome.nodes_visited,
            "solutions": outcome.solutions,
        }
        _emit(payload)
    else:
        print(
            "search MH(%d, %d) %s/%s: %d candidates, %d nodes"
            % (
                args.n,
                args.m,
                args.mode,
                args.goal,
                outcome.candidate_row_count,
                outcome.nodes_visited,
            )
        )
        if args.goal == "count":
            print("solutions: %d" % outcome.solutions)
        if outcome.found is not None:
            sys.stdout.write(format_matrix_text(outcome.found, args.m))
        elif outcome.exhausted:
            print("exhausted: no matrix exists")
    if outcome.found is not None or outcome.solutions:
        return EXIT_EXISTS
    return EXIT_NOT_EXISTS if outcome.exhausted else EXIT_UNKNOWN


def _cmd_nonexist(args):
    findings = {}
    for step, finding in gate_walk(args.n, args.m):
        if step == "Constructed":  # the last step, and no gate
            break
        if finding or step not in findings:  # at most one GcdBound half fires
            findings[step] = finding
    established = any(findings.values())  # exactly when decide says NotExists
    # the paper's Delta test, shown for information: decide does not consult it
    try:
        report = small_case_test(args.n, args.m)
    except NotApplicable as exc:
        report = str(exc)
    if args.format == "json":
        payload = {
            "established": established,
            "gcd_bound": findings["GcdBound"],
            "m": args.m,
            "n": args.n,
            "quadratic_residue": findings["QuadNonResidue"],
            "small_even": findings["SmallEvenRealHadamard"],
            "switching": findings["Switching"],
        }
        if isinstance(report, str):
            payload["delta_test"] = {"applicable": False, "why": report}
        else:
            payload["delta_test"] = {
                "Delta": _jint(report.Delta),
                "admissible": report.admissible,
                "applicable": True,
                "d_minus": None if report.d_minus is None else str(report.d_minus),
                "d_plus": None if report.d_plus is None else str(report.d_plus),
                "sqrt_Delta": None
                if report.sqrt_Delta is None
                else _jint(report.sqrt_Delta),
            }
            if report.row_profile is not None:
                alpha, beta, a, offset = report.row_profile
                payload["delta_test"]["row_profile"] = {
                    "a": str(a),
                    "alpha_count": alpha,
                    "b_minus_c_offset": str(offset),
                    "beta_count": beta,
                }
        _emit(payload)
    else:
        print("nonexistence tests for MH(%d, %d):" % (args.n, args.m))
        print("  gcd bound: %s" % (findings["GcdBound"] or "no obstruction"))
        print("  quadratic residue: %s" % (findings["QuadNonResidue"] or "no obstruction"))
        print(
            "  small even reduction: %s"
            % (findings["SmallEvenRealHadamard"] or "no conclusion")
        )
        print("  switching: %s" % (findings["Switching"] or "no obstruction"))
        if isinstance(report, str):
            print("  Delta test: not applicable (%s)" % report)
        else:
            word = "admissible" if report.admissible else "inadmissible"
            if report.sqrt_Delta is None:
                print("  Delta = %d (not a perfect square): %s" % (report.Delta, word))
            else:
                print(
                    "  Delta = %d = %d^2, d+ = %s, d- = %s: %s"
                    % (report.Delta, report.sqrt_Delta, report.d_plus, report.d_minus, word)
                )
        print("established: %s" % ("yes" if established else "no"))
    return EXIT_NOT_EXISTS if established else EXIT_UNKNOWN


def _cmd_condition1(args):
    q_limit = _cap(args, "q_limit", DEFAULT_Q_LIMIT)
    d_limit = _cap(args, "d_limit", DEFAULT_D_LIMIT)
    p = args.p
    prime, _ = is_prime(p)
    if not prime or p == 2:
        raise ValueError("p must be an odd prime")
    if args.delta is not None and not 1 <= args.delta < p:
        raise ValueError("delta must lie in [1, p-1]")
    deltas = [args.delta] if args.delta is not None else list(range(1, p))
    rows = []
    missing = []
    for delta in deltas:
        witness = condition1_search(p, delta, q_limit, d_limit)
        if witness is None:
            missing.append(delta)
            continue
        rows.append(witness)  # condition1_search returns verified witnesses
    if args.format == "json":
        _emit(
            {
                "d_limit": d_limit,
                "missing": missing,
                "p": p,
                "q_limit": q_limit,
                "rows": [
                    {
                        "d": w.d,
                        "delta": w.delta,
                        "probabilistic": w.probabilistic,
                        "q": w.q,
                        "r": _jint(w.r),
                        "r_base": _jint(w.r_base),
                        "r_exponent": w.r_exponent,
                    }
                    for w in rows
                ],
            }
        )
    else:
        print("condition-1 witnesses for p = %d (q <= %d, d <= %d):" % (p, q_limit, d_limit))
        print("  delta     q     d  r")
        for w in rows:
            digits = len(str(w.r))
            shown = str(w.r) if digits <= 20 else "<%d digits>" % digits
            star = " (probabilistic)" if w.probabilistic else ""
            print("  %5d %5d %5d  %s%s" % (w.delta, w.q, w.d, shown, star))
        for delta in missing:
            print("  %5d  not found within limits" % delta)
    return EXIT_EXISTS if not missing else EXIT_UNKNOWN


def _cmd_design_params(args):
    if args.p is None and (args.n is not None or args.parity):
        raise ValueError("--n and --parity apply only with --p")
    if args.p is not None and args.n is None:
        raise ValueError("--p needs --n for the final residue condition")
    vals = args.values
    if args.family == "10":
        if len(vals) != 3:
            raise ValueError("family 10 needs three arguments: q d e")
        params = family10_params(*vals)
        payload = {
            "e": params.e,
            "family": "10",
            "k": _jint(params.k),
            "lambda": _jint(params.lam),
            "q": params.q,
            "r": _jint(params.r),
            "r_is_prime_power": params.r_is_prime_power,
            "repunit_degree": params.d,
            "v": _jint(params.v),
        }
    else:
        if len(vals) != 2:
            raise ValueError("family 11 needs two arguments: q e")
        params = family11_params(*vals)
        payload = {
            "e": params.e,
            "family": "11",
            "k": _jint(params.k),
            "lambda": _jint(params.lam),
            "q": params.q,
            "v": _jint(params.v),
        }
    if args.p is not None:
        parity = tuple(args.parity) if args.parity else (4, 3)
        payload["constraints"] = check_constraints_1_to_4(params, args.p, args.n, parity)
    if args.format == "json":
        _emit(payload)
    else:
        for key in sorted(payload):
            if key == "constraints":
                checks = payload[key]
                line = ", ".join(
                    "%s=%s" % (name, "ok" if checks[name] else "FAIL") for name in checks
                )
                print("constraints: %s" % line)
            else:
                print("%s: %s" % (key, payload[key]))
    return EXIT_EXISTS


@cache  # built once per process; parse_args fills a new namespace per call
def _build_parser():
    parser = _Parser(prog="modhadamard", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("decide", parents=[common], help="existence verdict for MH(n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("construct", parents=[common], help="build a matrix or recipe")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--materialize-cap", type=int, dest="materialize_cap")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", parents=[common], help="check a matrix or design file")
    p.add_argument("file")
    p.add_argument("m", type=int, nargs="?")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-design", parents=[common], help="check a design file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify, m=None)

    p = sub.add_parser("search", parents=[common], help="exhaustive search oracle")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--mode", choices=("generic", "restricted"), default="generic")
    p.add_argument("--goal", choices=("first", "count", "exhaust"), default="first")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("nonexist", parents=[common], help="run the nonexistence tests")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_nonexist)

    p = sub.add_parser("condition1", parents=[common], help="find repunit witnesses")
    p.add_argument("p", type=int)
    p.add_argument("delta", type=int, nargs="?")
    p.add_argument("--q-limit", type=int, dest="q_limit")
    p.add_argument("--d-limit", type=int, dest="d_limit")
    p.set_defaults(func=_cmd_condition1)

    p = sub.add_parser(
        "design-params", parents=[common], help="parameter families for companion designs"
    )
    p.add_argument("family", choices=("10", "11"))
    p.add_argument("values", type=int, nargs="+")
    p.add_argument("--p", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--parity", type=int, nargs=2)
    p.set_defaults(func=_cmd_design_params)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every domain error is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # a crash, or a failed self-check (a witness or certificate that
        # does not verify), is a fault of the program, not a "does not
        # exist" (1); the traceback says where it happened (imported here,
        # as only a crash needs it and it is slow to load)
        import traceback

        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
