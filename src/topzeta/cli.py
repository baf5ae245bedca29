"""Command-line front end.

Subcommands: principalize, zeta, poles, classify, verify, family, realize.
Identical inputs and flags produce byte-identical output.  Exit codes:
0 success, 2 input error, 3 unsupported input (non-rational centers, budget),
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial

from . import errors
from .criterion import classify, cross_check
from .diagram import (
    IntersectionDiagram,
    export_dot,
    export_json,
    load_json,
    validate_all,
)
from .family import admissible, build, expected_chain, realize_pole
from .generic import certify_generic
from .poly import BiPoly, frac_str, parse_poly, poly_to_str
from .principalize import principalize, verify_minimality
from .zeta import ZetaReport, pole_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4

_INPUT_ERRORS = (
    errors.ParseError,
    errors.DegreeCapExceeded,
    errors.SupportMissesOrigin,
    errors.AllZero,
    errors.ParameterOrder,
    errors.OutOfRange,
    errors.MalformedDiagram,
    errors.NotACandidate,
)
_UNSUPPORTED_ERRORS = (
    errors.CenterNotRational,
    errors.StepBudgetExceeded,
    errors.RetriesExhausted,
)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise errors.OutOfRange(f"not a rational number: {text!r}") from exc


def _read_text(path: str, refusal) -> str:
    """Contents of an input file; an unreadable one raises the given input
    error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise refusal(f"cannot read {path}: {reason}") from exc


def _read_gens(args) -> list[BiPoly]:
    texts = list(args.generators)
    for path in getattr(args, "gens_file", None) or []:
        text = _read_text(path, partial(errors.ParseError, position=0))
        texts.extend(line.strip() for line in text.split("\n")
                     if line.strip() and not line.startswith("#"))
    if not texts:
        raise errors.AllZero("no generators given")
    return [parse_poly(t) for t in texts]


def _principalization_lines(result) -> list[str]:
    lines = ["principalization log:"]
    for ev in result.log:
        through = ",".join(ev.divisors_through) or "origin"
        lines.append(
            f"  step {ev.step}: blow up ({frac_str(ev.center[0])}, "
            f"{frac_str(ev.center[1])}) on {through} -> {ev.new_divisor} "
            f"(N={ev.N}, nu={ev.nu})")
    if not result.log:
        lines.append("  identity: total transform already normal crossings")
    lines.append("components:")
    for v in result.diagram.vertices:
        lines.append(f"  {v.ident} ({v.N},{v.nu}) [{v.kind}]")
    edges = sorted(sorted(e) for e in result.diagram.edges)
    lines.append("edges: " + ("; ".join("--".join(e) for e in edges) or "none"))
    return lines


def cmd_principalize(args) -> int:
    result = principalize(_read_gens(args), max_steps=args.max_blowups)
    if args.dot:
        sys.stdout.write(export_dot(result.diagram))
    elif args.json:
        payload = {
            "log": [
                {
                    "step": ev.step,
                    "center": [frac_str(ev.center[0]), frac_str(ev.center[1])],
                    "through": list(ev.divisors_through),
                    "divisor": ev.new_divisor,
                    "N": ev.N,
                    "nu": ev.nu,
                }
                for ev in result.log
            ],
            "diagram": json.loads(export_json(result.diagram)),
        }
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_principalization_lines(result)))
    if args.check:
        report = verify_minimality(result)
        if not report.passed:
            raise errors.InternalInvariantError("; ".join(report.failures))
    return EXIT_OK


def _zeta_lines(report) -> list[str]:
    lines = [f"Z = {report.zeta}", "terms:"]
    for chi, factors in report.terms:
        fac = "".join(
            f"1/({nu}+s)" if N == 1 else f"1/({nu}+{N}s)"
            for nu, N in factors)
        lines.append(f"  {chi} * {fac}")
    lines.append("candidates: " +
                 ", ".join(frac_str(c) for c in report.candidate_poles))
    return lines


def cmd_zeta(args) -> int:
    result = principalize(_read_gens(args), max_steps=args.max_blowups)
    report = pole_report(result.diagram)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print("\n".join(_zeta_lines(report)))
    if args.check:
        _run_checks(result.diagram, report)
    return EXIT_OK


def cmd_poles(args) -> int:
    result = principalize(_read_gens(args), max_steps=args.max_blowups)
    report = pole_report(result.diagram)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for p in report.poles:
            print(f"{frac_str(p.location)} (order {p.order})")
    if args.check:
        _run_checks(result.diagram, report)
    return EXIT_OK


def cmd_classify(args) -> int:
    result = principalize(_read_gens(args), max_steps=args.max_blowups)
    diagram = result.diagram
    report = pole_report(diagram)
    payload = []
    for s0 in report.candidate_poles:
        verdict = classify(diagram, s0)
        payload.append({
            "s": frac_str(s0),
            "pole": verdict.is_pole,
            "conditions": [
                {"condition": h.condition, "witness": h.witness}
                for h in verdict.hits
            ],
        })
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for entry in payload:
            if entry["pole"]:
                conds = ", ".join(
                    f"cond{c['condition']}[{c['witness']}]"
                    for c in entry["conditions"])
                print(f"{entry['s']}: pole via {conds}")
            else:
                print(f"{entry['s']}: no pole")
    if args.check:
        _run_checks(diagram, report)
    return EXIT_OK


def _run_checks(diagram: IntersectionDiagram, report: ZetaReport) -> None:
    chk = cross_check(diagram, report)
    if not chk.passed:
        raise errors.InternalInvariantError(chk.detail)
    bad = [r for r in validate_all(diagram) if not r.passed]
    if bad:
        raise errors.InternalInvariantError(
            "; ".join(f"{r.name}: {', '.join(r.failures)}" for r in bad))


def cmd_verify(args) -> int:
    if args.diagram_json:
        diagram = load_json(
            _read_text(args.diagram_json, errors.MalformedDiagram))
        reports = validate_all(diagram)
        ok = all(r.passed for r in reports)
        for r in reports:
            status = "pass" if r.passed else "FAIL " + "; ".join(r.failures)
            print(f"{r.name}: {status}")
        return EXIT_OK if ok else EXIT_INPUT

    gens = _read_gens(args)
    result = principalize(gens, max_steps=args.max_blowups)
    diagram = result.diagram
    reports = validate_all(diagram)
    ok = all(r.passed for r in reports)
    for r in reports:
        status = "pass" if r.passed else "FAIL " + "; ".join(r.failures)
        print(f"{r.name}: {status}")

    chk = cross_check(diagram, pole_report(diagram))
    print(f"criterion-vs-zeta: {'pass' if chk.passed else 'FAIL ' + chk.detail}")
    ok = ok and chk.passed

    minim = verify_minimality(result)
    print(f"minimality: {'pass' if minim.passed else 'FAIL'}")
    ok = ok and minim.passed

    if len(gens) >= 2:
        report = certify_generic(result, seed=args.seed)
        print("lambda: (" + ", ".join(frac_str(c) for c in report.lam)
              + f"), retries {report.retries}")
        table = report.n_table()
        if table:
            print("crossings with generic member: " + ", ".join(
                f"{d}:{n}" for d, n in sorted(table.items())))
        bad = [d for d, c in report.per_divisor.items()
               if not c.min_property_ok]
        print(f"min-property: {'pass' if not bad else 'FAIL ' + str(bad)}")
        print("numerical-data relations: pass")
        ok = ok and not bad
    return EXIT_OK if ok else EXIT_INPUT


def cmd_family(args) -> int:
    gens = build(args.a, args.b)
    print("generators: " + ", ".join(poly_to_str(g) for g in gens))
    chain = expected_chain(args.a, args.b)
    print("expected chain: " + " - ".join(f"({N},{nu})" for N, nu in chain))
    result = principalize(gens)
    got = [(v.N, v.nu) for v in result.diagram.exceptional()]
    if got != chain:
        raise errors.InternalInvariantError(
            f"engine chain {got} differs from prediction {chain}")
    report = pole_report(result.diagram)
    print("poles: " + ", ".join(
        f"{frac_str(p.location)} (order {p.order})" for p in report.poles))
    return EXIT_OK


def cmd_realize(args) -> int:
    s0 = _parse_fraction(args.s0)
    if not admissible(s0):
        print(f"{frac_str(s0)} is out of range")
        return EXIT_INPUT
    a, b = realize_pole(s0)
    print(f"(a,b)=({a},{b}); verified pole {frac_str(s0)}")
    return EXIT_OK


COMMANDS = {
    "principalize": cmd_principalize,
    "zeta": cmd_zeta,
    "poles": cmd_poles,
    "classify": cmd_classify,
    "verify": cmd_verify,
}


def _add_common(sub, gens: bool = True):
    if gens:
        sub.add_argument("generators", nargs="*",
                         help="generator polynomials in x, y")
        sub.add_argument("--gens-file", action="append",
                         help="file with one generator per line; repeatable "
                              "for batch processing")
    sub.add_argument("--json", action="store_true", help="JSON output")
    sub.add_argument("--check", action="store_true",
                     help="run cross-checks and validators")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-blowups", type=int, default=512)
    sub.add_argument("--jobs", type=int, default=1,
                     help="parallel runs for multi-file batch input")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zp",
        description="Principalization and local topological zeta functions "
                    "of ideals in two variables over the origin.")
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("principalize", help="run the blow-up engine")
    _add_common(p)
    p.add_argument("--dot", action="store_true", help="DOT diagram output")
    p.set_defaults(func=cmd_principalize)

    p = subs.add_parser("zeta", help="local topological zeta function")
    _add_common(p)
    p.set_defaults(func=cmd_zeta)

    p = subs.add_parser("poles", help="pole table")
    _add_common(p)
    p.set_defaults(func=cmd_poles)

    p = subs.add_parser("classify", help="five-condition pole criterion")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("verify", help="relation and structure suites")
    _add_common(p)
    p.add_argument("--diagram-json", help="validate a serialized diagram")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("family", help="chain family (x^b*y, x^a + y^(b+1))")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=cmd_family)

    p = subs.add_parser("realize", help="find (a, b) realizing a pole")
    p.add_argument("s0", help="target pole, e.g. -3/5")
    p.set_defaults(func=cmd_realize)
    return ap


def _guarded(run, args, err) -> int:
    """Run one command; a refusal prints its prefixed line to err and
    returns its documented exit code."""
    try:
        return run(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except _UNSUPPORTED_ERRORS as exc:
        print(f"unsupported: {exc}", file=err)
        return EXIT_UNSUPPORTED
    except errors.InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=err)
        return EXIT_INTERNAL


def _batch_worker(command: str, options: dict, path: str) -> tuple[int, str]:
    """One isolated run, output and refusal captured together; safe in a
    worker process."""
    args = argparse.Namespace(**options)
    args.gens_file = [path]
    args.generators = []
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = _guarded(COMMANDS[command], args, buf)
    return code, buf.getvalue()


def _invoke(args) -> int:
    """One run, or a batch of isolated runs when several files are given."""
    files = getattr(args, "gens_file", None) or []
    if len(files) <= 1 or args.generators:
        return args.func(args)

    options = {k: v for k, v in vars(args).items() if k != "func"}
    if args.jobs > 1:
        with ProcessPoolExecutor(
                max_workers=min(args.jobs, len(files))) as pool:
            outcomes = list(pool.map(
                _batch_worker, [args.command] * len(files),
                [options] * len(files), files))
    else:
        outcomes = [_batch_worker(args.command, options, f) for f in files]
    worst = EXIT_OK
    for path, (code, text) in zip(files, outcomes):
        print(f"== {path} ==")
        sys.stdout.write(text)
        worst = max(worst, code)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    return _guarded(_invoke, args, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
