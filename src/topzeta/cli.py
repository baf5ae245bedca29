"""Command-line front end.

Subcommands: principalize, zeta, poles, classify, verify, family, realize.
Identical inputs and flags produce byte-identical output.  Exit codes:
0 success, 2 input error, 3 unsupported input (non-rational centers, budget),
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache, partial

from . import errors
from .criterion import classify, cross_check
from .diagram import (diagram_payload, export_dot, json_text, load_json,
                      validate_all)
from .family import admissible, build, expected_chain, realize_pole
from .generic import certify_generic
from .poly import BiPoly, frac_str, parse_poly, poly_to_str
from .principalize import DEFAULT_MAX_STEPS, principalize, verify_minimality
from .zeta import pole_report

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
    for path in args.gens_file or []:
        text = _read_text(path, partial(errors.ParseError, position=0))
        lines = (line.strip() for line in text.split("\n"))
        texts.extend(line for line in lines
                     if line and not line.startswith("#"))
    if not texts:
        raise errors.AllZero("no generators given")
    return [parse_poly(t) for t in texts]


# --- views: (result, report, as_json) -> JSON payload or text lines ---------

def _principalization_view(result, _report, as_json):
    if as_json:
        return {"log": [{"step": ev.step,
                         "center": [frac_str(c) for c in ev.center],
                         "through": ev.divisors_through,
                         "divisor": ev.new_divisor, "N": ev.N, "nu": ev.nu}
                        for ev in result.log],
                "diagram": diagram_payload(result.diagram)}
    lines = ["principalization log:"]
    for ev in result.log:
        cx, cy = map(frac_str, ev.center)
        through = ",".join(ev.divisors_through) or "origin"
        lines.append(
            f"  step {ev.step}: blow up ({cx}, {cy}) on "
            f"{through} -> {ev.new_divisor} (N={ev.N}, nu={ev.nu})")
    if not result.log:
        lines.append("  identity: total transform already normal crossings")
    lines.append("components:")
    for v in result.diagram.vertices:
        lines.append(f"  {v.ident} ({v.N},{v.nu}) [{v.kind}]")
    edges = sorted(sorted(e) for e in result.diagram.edges)
    lines.append("edges: " + ("; ".join("--".join(e) for e in edges) or "none"))
    return lines


def _zeta_view(_result, report, as_json):
    if as_json:
        return report.to_json_dict()
    lines = [f"Z = {report.zeta}", "terms:"]
    for chi, factors in report.terms:
        fac = "".join(
            f"1/({nu}+s)" if N == 1 else f"1/({nu}+{N}s)"
            for nu, N in factors)
        lines.append(f"  {chi} * {fac}")
    lines.append("candidates: " +
                 ", ".join(frac_str(c) for c in report.candidate_poles))
    return lines


def _poles_view(_result, report, as_json):
    if as_json:
        return report.to_json_dict()
    return [f"{frac_str(p.location)} (order {p.order})" for p in report.poles]


def _classify_view(result, report, as_json):
    out = []
    for s0 in report.candidate_poles:
        verdict = classify(result.diagram, s0)
        s = frac_str(s0)
        if as_json:
            out.append({"s": s, "pole": verdict.is_pole, "conditions": [
                {"condition": h.condition, "witness": h.witness}
                for h in verdict.hits]})
        elif verdict.is_pole:
            out.append(f"{s}: pole via " + ", ".join(
                f"cond{h.condition}[{h.witness}]" for h in verdict.hits))
        else:
            out.append(f"{s}: no pole")
    return out


# --- --check steps: raise InternalInvariantError on a failed check ----------

def _check_minimality(result, _report) -> None:
    minim = verify_minimality(result)
    if not minim.passed:
        raise errors.InternalInvariantError("; ".join(minim.failures))


def _check_report(result, report) -> None:
    chk = cross_check(result.diagram, report)
    if not chk.passed:
        raise errors.InternalInvariantError(chk.detail)
    bad = [r for r in validate_all(result.diagram) if not r.passed]
    if bad:
        raise errors.InternalInvariantError(
            "; ".join(f"{r.name}: {', '.join(r.failures)}" for r in bad))


#: Subcommands that print a view: help text, view and --check step.
VIEWS = {
    "principalize": ("run the blow-up engine", _principalization_view,
                     _check_minimality),
    "zeta": ("local topological zeta function", _zeta_view, _check_report),
    "poles": ("pole table", _poles_view, _check_report),
    "classify": ("five-condition pole criterion", _classify_view,
                 _check_report),
}


def _print_validators(diagram) -> bool:
    reports = validate_all(diagram)
    for r in reports:
        status = "pass" if r.passed else "FAIL " + "; ".join(r.failures)
        print(f"{r.name}: {status}")
    return all(r.passed for r in reports)


def _print_suites(result, report, seed: int) -> bool:
    ok = _print_validators(result.diagram)
    chk = cross_check(result.diagram, report)
    print(f"criterion-vs-zeta: {'pass' if chk.passed else 'FAIL ' + chk.detail}")
    minim = verify_minimality(result)
    print(f"minimality: {'pass' if minim.passed else 'FAIL'}")
    ok = ok and chk.passed and minim.passed
    # count the generators the run kept: initial_state drops zero ones
    if len(result.gens) >= 2:
        generic = certify_generic(result, seed=seed)
        print("lambda: (" + ", ".join(frac_str(c) for c in generic.lam)
              + f"), retries {generic.retries}")
        table = generic.n_table()
        if table:
            print("crossings with generic member: " + ", ".join(
                f"{d}:{n}" for d, n in sorted(table.items())))
        # certify_generic returns only a sample that passed both checks
        print("min-property: pass")
        print("numerical-data relations: pass")
    return ok


def _run(args) -> int:
    """The generator subcommands: read and principalize, build the pole
    report once (principalize needs none), then print a view or the
    verify suites."""
    if args.command == "verify" and args.diagram_json:
        diagram = load_json(
            _read_text(args.diagram_json, errors.MalformedDiagram))
        return EXIT_OK if _print_validators(diagram) else EXIT_INPUT
    gens = _read_gens(args)
    result = principalize(gens, max_steps=DEFAULT_MAX_STEPS
                          if args.max_blowups is None else args.max_blowups)
    report = None if args.command == "principalize" else pole_report(
        result.diagram)
    if args.command == "verify":
        ok = _print_suites(result, report, args.seed or 0)
        return EXIT_OK if ok else EXIT_INPUT
    _, view, check = VIEWS[args.command]
    if getattr(args, "dot", False):
        sys.stdout.write(export_dot(result.diagram))
    else:
        out = view(result, report, args.json)
        sys.stdout.write(json_text(out) + "\n" if args.json else
                         "".join(line + "\n" for line in out))
    if args.check:
        check(result, report)
    return EXIT_OK


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


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


@cache
def build_parser() -> argparse.ArgumentParser:
    """The zp parser, built once per process and shared by every caller,
    which must not modify it; each flag is declared only on the
    subcommands that read it."""
    ap = argparse.ArgumentParser(
        prog="zp",
        description="Principalization and local topological zeta functions "
                    "of ideals in two variables over the origin.")
    subs = ap.add_subparsers(dest="command", required=True)
    helps = {name: entry[0] for name, entry in VIEWS.items()}
    helps["verify"] = "relation and structure suites"
    for name, help_text in helps.items():
        p = subs.add_parser(name, help=help_text)
        p.set_defaults(func=_run)
        p.add_argument("generators", nargs="*",
                       help="generator polynomials in x, y")
        p.add_argument("--gens-file", action="append",
                       help="file with one generator per line (blank and "
                            "# lines skipped); repeatable for batch "
                            "processing")
        # None marks a flag not given; verify --diagram-json refuses these
        p.add_argument("--max-blowups", type=_int_at_least(0),
                       help=f"blow-up budget (default {DEFAULT_MAX_STEPS})")
        p.add_argument("--jobs", type=_int_at_least(1),
                       help="parallel runs for multi-file batch input "
                            "(default 1)")
        if name == "verify":
            p.add_argument("--seed", type=int,
                           help="generic-member sampling seed (default 0)")
            p.add_argument("--diagram-json",
                           help="validate a serialized diagram instead")
            continue
        output = p.add_mutually_exclusive_group()
        output.add_argument("--json", action="store_true", help="JSON output")
        if name == "principalize":
            output.add_argument("--dot", action="store_true",
                                help="DOT diagram output")
        p.add_argument("--check", action="store_true",
                       help="replay the blow-up log" if name == "principalize"
                       else "run cross-checks and validators")

    p = subs.add_parser("family", help="chain family (x^b*y, x^a + y^(b+1))")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=cmd_family)

    p = subs.add_parser("realize", help="find (a, b) realizing a pole")
    p.add_argument("s0", help="target pole, e.g. -3/5")
    # "-" or "-." and a digit is the value, not an option: argparse's private
    # pattern, pinned by the test_realize_*_without_separator tests
    p._negative_number_matcher = re.compile(r"^-\.?\d")
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


def _batch_worker(options: dict, path: str) -> tuple[int, str]:
    """One isolated run, output and refusal captured together; safe in a
    worker process."""
    args = argparse.Namespace(**options)
    args.gens_file = [path]
    args.generators = []
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = _guarded(_run, args, buf)
    return code, buf.getvalue()


def _invoke(args) -> int:
    """One run, or a batch of isolated runs when several files are given."""
    files = getattr(args, "gens_file", None) or []
    if len(files) <= 1:
        return args.func(args)

    options = {k: v for k, v in vars(args).items() if k != "func"}
    if (args.jobs or 1) > 1:
        # only a parallel batch pays for loading multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=min(args.jobs, len(files))) as pool:
            outcomes = list(pool.map(
                _batch_worker, [options] * len(files), files))
    else:
        outcomes = [_batch_worker(options, f) for f in files]
    worst = EXIT_OK
    for path, (code, text) in zip(files, outcomes):
        print(f"== {path} ==")
        sys.stdout.write(text)
        worst = max(worst, code)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if getattr(args, "generators", None) and len(args.gens_file or []) > 1:
        parser.error("generators take at most one --gens-file; several "
                     "files form a batch")
    if getattr(args, "diagram_json", None):
        if args.generators or args.gens_file:
            parser.error("--diagram-json takes no generators or --gens-file")
        given = [flag for flag, value in (
            ("--seed", args.seed), ("--max-blowups", args.max_blowups),
            ("--jobs", args.jobs)) if value is not None]
        if given:
            parser.error(f"--diagram-json takes no {', '.join(given)}")
    return _guarded(_invoke, args, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
