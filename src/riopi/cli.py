"""Command-line front door for expansions, transforms, Somos fitting,
B-sequences, production matrices, and regression against embedded data.

Exit codes: 0 success, 1 usage, 2 computation error, 3 verification
failure.  All rational input/output is exact: parameters are integers or
'p/q' literals (no decimals), and JSON writes every computed value as a
decimal string.  The one JSON number is the payload's ``order``, the
truncation order as an integer (null for ``verify`` and ``somos --terms``,
which take no ``--order``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import random
import re
import sys
from fractions import Fraction

from . import knowndata
from .elliptic import b_from_curve, curve_somos_check
from .family import FamilyParams
from .hankel import HankelTransform, InsufficientTerms, hankel_transform
from .riordan import NoBSequence, OutOfOrder, b_extract, bell
from .series import Series, SeriesError, rational
from .somos import (NoSomosFit, SomosParams, Underdetermined, _check_ints, conjecture_family,
                    somos4_fit)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

# The largest --order accepted.  pipeline(-3, N) in a fresh process takes
# 0.0003 s of process time at 128, 0.0005 s at 256, 0.0011 s at 512 and
# 0.0029 s at 1024, and pipeline(-11/2, N) 0.0004 / 0.0009 / 0.0026 /
# 0.0105 s (Python 3.11 on a shared 2-vCPU Xeon; best of five in each of
# three runs, caches cleared): 1.8-4.1x per doubling.  The g build
# expands g's root once, O(N) products of ints (the linear recurrence of
# series._root_ints), and the rational-B certificate compares g with the
# ints that build left in series._root_ints's slot, one cross-multiplied
# pair per term: at 1024, 1.9 ms and 0.8 ms for -3, and 3.5 ms and 6.7 ms
# for -11/2, whose long coefficients make the compare the larger.  A g the
# certificate does not take falls back to O(N^3) routes (the walk over
# the powers of g, or the triangle of a_and_z); the cap bounds those, and
# one past the index range would overflow in Series.
# The hankel and somos commands read the transform off their subject's
# equation (the H-fraction of hankel.py): `hankel family 1/2 -2/3 5/3`
# took 0.004 / 0.007 / 0.051 / 1.2 s of process time at --order 64 / 128 /
# 256 / 512, `hankel curvef -11/2` 0.005 / 0.012 / 0.16 / 4.1-4.9 s and
# `hankel family 2 -2 3` 0.004 / 0.005 / 0.016 / 0.26 s (same host, in
# one fresh process each, best of three, four runs at 512 for curvef and
# two for the others), and at the cap the transforms alone
# (root_transform, no Fraction built) took 23 s, 126 s and 7.1 s.  From
# 256 on each doubling costs 16-33x, mostly in gcds of the rationals each
# step keeps (values of O(N^2) bits); the cap is shared all the same, and
# such an order is the caller's choice.
MAX_ORDER = 1024
DEFAULT_ORDER = 32
# `verify conjecture` checks each random family member's Hankel transforms
# to this order, and each random curve's Somos-4 fit to the curve one.
CONJECTURE_ORDER = 28
CURVE_SOMOS_ORDER = 20

_SUBJECTS = sorted(kind for kind, gen in knowndata.GENERATORS.items()
                   if gen.somos_offset is not None)

_NEGATIVE_RE = re.compile(r"^-\d")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _parse_optional(self, arg_string):
        # argparse takes only -<digits> for a negative number and reads
        # -11/2 as an unknown option.  No option here starts with a digit,
        # so a dash-digit argument is a value: a negative p/q parameter.
        if _NEGATIVE_RE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def parse_args(self, args=None, namespace=None):
        # argparse fills the nargs="*" params (empty) before the first
        # option, so parameters given after an option come back as
        # leftovers; they belong at the end of params.  A "--" among the
        # leftovers ends the options, as in POSIX: every argument after it
        # is a parameter.  Anything before it shaped like an option, or any
        # leftover of a command without params, is still an error.
        args, extras = self.parse_known_args(args, namespace)
        if extras and hasattr(args, "params"):
            end = extras.index("--") if "--" in extras else len(extras)
            if not any(e.startswith("-") and not _NEGATIVE_RE.match(e)
                       for e in extras[:end]):
                args.params = args.params + extras[:end] + extras[end + 1:]
                return args
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return args


def parse_rational(text: str) -> Fraction:
    # Python refuses to read an int of more digits than its limit (4300 by
    # default); say so in riopi's terms rather than Python's
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    digits = max(map(len, re.findall(r"\d+", text)), default=0)
    if limit and digits > limit:
        raise UsageError(f"literal {text[:12]}... has an integer of {digits} digits; "
                         f"at most {limit} digits are read")
    try:
        return rational(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _int_at_least(low: int, most: int | None = None):
    """argparse type: an int no smaller than ``low`` (nor larger than ``most``)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value
    return parse


def _params(args) -> tuple[Fraction, ...]:
    """The subject's parameters."""
    want = knowndata.GENERATORS[args.subject].arity
    if len(args.params) != want:
        raise UsageError(
            f"subject {args.subject!r} takes {want} parameter(s), got {len(args.params)}")
    return tuple(parse_rational(p) for p in args.params)


def _subject(args) -> tuple[tuple[Fraction, ...], Series]:
    """The subject's parameters and its series at --order."""
    params = _params(args)
    return params, knowndata.GENERATORS[args.subject].build(params, args.order)


def _transform(args) -> HankelTransform:
    """The subject's Hankel transform at --order, read off its equation."""
    equation = knowndata.GENERATORS[args.subject].equation(_params(args))
    return hankel_transform(equation, args.order)


@contextlib.contextmanager
def _any_length():
    """Write exact values of any length inside this block.

    Python (from 3.10.7) limits int -> str conversion to 4300 digits by
    default, and exact values pass that well inside the --order cap (h_88
    of companion -11/2 1/3 2/7 has more).  The limit is lifted while the
    values are written and put back after, for callers that run ``main``
    in-process; parameters are read under it, so an over-long literal
    stays a usage error.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _strs(values) -> list[str]:
    """Exact values as decimal strings, of any length."""
    with _any_length():
        return [str(v) for v in values]


def _emit(args, payload: dict, plain_lines: list[str], csv_rows: list[tuple]) -> None:
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        elif args.format == "csv":
            # quotes a field only where it needs it (a verify label has commas)
            csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows)
        else:
            print("\n".join(plain_lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``riopi verify paper | head -1``):
        # drop the rest quietly and let the command return its exit code.
        # stdout now points at devnull, so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _payload(args, values: list[str], report: dict) -> dict:
    return {
        "subject": getattr(args, "subject", None) or args.command,
        "params": [str(parse_rational(p)) for p in getattr(args, "params", [])],
        "order": args.order,
        "values": values,
        "report": report,
    }


# -- subcommands -------------------------------------------------------------


def cmd_expand(args) -> int:
    _, g = _subject(args)
    values = _strs(g)
    _emit(args, _payload(args, values, {}),
          [" ".join(values)],
          [("n", "value"), *enumerate(values)])
    return EXIT_OK


def cmd_hankel(args) -> int:
    transform = _transform(args)
    offset = args.offset or 0
    if offset >= len(transform.values):
        raise UsageError(f"--offset {offset} leaves none of the "
                         f"{len(transform.values)} transform values")
    values = _strs(transform.values[offset:])
    report = {"offset": str(offset), "source_length": str(transform.source_length)}
    _emit(args, _payload(args, values, report),
          [" ".join(values)],
          [("n", "value"), *enumerate(values, offset)])
    return EXIT_OK


def cmd_somos(args) -> int:
    if args.terms is not None:
        if args.subject:
            raise UsageError("give either a subject or --terms, not both")
        if args.order is not None:
            raise UsageError("--terms takes no --order: the terms are given")
        terms = [parse_rational(t) for t in args.terms.split(",")]
        offset = args.offset or 0
        terms = terms[offset:]
    else:
        if not args.subject:
            raise UsageError("somos needs a subject or --terms")
        if args.order is None:
            args.order = DEFAULT_ORDER
        transform = _transform(args)
        default = knowndata.GENERATORS[args.subject].somos_offset
        offset = default if args.offset is None else args.offset
        terms = list(transform.values[offset:])
    if len(terms) < 6:
        raise UsageError(f"somos needs at least 6 terms after offset {offset}, "
                         f"got {len(terms)}")
    # somos4_fit raises NoSomosFit unless every checked index passes
    report_data = somos4_fit(terms)
    alpha, beta = _strs([report_data.params.alpha, report_data.params.beta])
    report = {
        "alpha": alpha,
        "beta": beta,
        "checked_from": str(report_data.start),
        "checked_to": str(report_data.end),
        "failures": [],
        "degenerate": report_data.degenerate,
        "ok": report_data.ok,
    }
    values = _strs(terms)
    plain = [f"alpha={report['alpha']} beta={report['beta']}",
             f"checked n={report_data.start}..{report_data.end}: "
             f"{report_data.end - report_data.start + 1} pass"]
    csv_rows = [("key", "value"), ("alpha", report["alpha"]), ("beta", report["beta"]),
                ("checked_from", report["checked_from"]),
                ("checked_to", report["checked_to"])]
    _emit(args, _payload(args, values, report), plain, csv_rows)
    return EXIT_OK


def cmd_bseq(args) -> int:
    params, g = _subject(args)
    b = b_extract(g)
    values = _strs(b.values)
    report: dict = {"certified": str(b.certified)}
    plain = [" ".join(values)]
    if args.subject == "curve":
        closed = b_from_curve(params[0], terms=max(b.certified, 1))
        match = closed.prefix.values[:b.certified] == b.values
        with _any_length():
            report["closed_form"] = closed.closed_form()
        report["closed_form_match"] = match
        plain.append(f"closed form: {report['closed_form']}")
        plain.append(f"match: {'yes' if match else 'NO'}")
    _emit(args, _payload(args, values, report), plain,
          [("n", "value"), *enumerate(values)])
    return EXIT_OK


def cmd_prodmat(args) -> int:
    _, g = _subject(args)
    matrix = bell(g).production_matrix(args.order - 2)
    rows = [_strs(row) for row in matrix.rows]
    report = {"rows": rows, "size": str(matrix.size)}
    _emit(args, _payload(args, [], report),
          [" ".join(row) for row in rows],
          [("row", "col", "value")] + [(i, j, v) for i, row in enumerate(rows)
                                       for j, v in enumerate(row)])
    return EXIT_OK


# -- verify ------------------------------------------------------------------


def _check(label: str, ok: bool, expected="", got="") -> dict:
    entry = {"label": label, "ok": ok}
    if not ok:
        entry["expected"] = str(expected)
        entry["got"] = str(got)
    return entry


def run_paper_suite() -> list[dict]:
    checks, somos_checks = [], []
    sources = knowndata.build_sources(knowndata.KNOWN_SEQUENCES)
    for entry in knowndata.KNOWN_SEQUENCES:
        got = nums, dens = knowndata.computed_values(entry, sources)
        prefix = entry.prefix
        if len(nums) == len(prefix) and all(n == v * d for n, v, d in zip(nums, prefix, dens)):
            checks.append(_check(entry.label, True))
        else:  # only a failing row prints its values, so only it builds the strings
            checks.append(_check(entry.label, False, [str(v) for v in prefix],
                                 [str(Fraction(n, d)) for n, d in zip(nums, dens)]))
        if entry.somos:
            alpha, beta = entry.somos
            report = _check_ints(*knowndata.somos_terms(entry, got),
                                 SomosParams(Fraction(alpha), Fraction(beta)))
            somos_checks.append(_check(f"somos({alpha},{beta}) {entry.label}",
                                       not report.failures, "no failures",
                                       f"failures at {list(report.failures)}"))
    return checks + somos_checks


def run_conjecture_suite(seed: int, trials: int) -> list[dict]:
    rng = random.Random(seed)
    checks = []
    for _ in range(trials):
        while True:
            a, b, c = (rng.randint(-3, 3) for _ in range(3))
            if a * b + c != 0:
                break
        report = conjecture_family(FamilyParams.of(a, b, c), CONJECTURE_ORDER)
        checks.append(_check(
            f"conjecture family({a},{b},{c})", report.ok, _product_form(report.params),
            f"family failures {list(report.family.failures)}, "
            f"companion failures {list(report.companion.failures)}"))
    for _ in range(max(1, trials // 3)):
        a = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        report = curve_somos_check(a, order=CURVE_SOMOS_ORDER)
        checks.append(_check(f"curve somos a={a}", not report.failures,
                             _product_form(report.params), f"failures {list(report.failures)}"))
    return checks


def _product_form(params: SomosParams) -> str:
    return f"({params.alpha}, {params.beta}) product form"


def cmd_verify(args) -> int:
    checks: list[dict] = []
    if args.suite in ("paper", "all"):
        checks += run_paper_suite()
    if args.suite in ("conjecture", "all"):
        checks += run_conjecture_suite(args.seed, args.trials)
    failed = [c for c in checks if not c["ok"]]
    report = {"suite": args.suite, "checks": checks,
              "passed": str(len(checks) - len(failed)), "failed": str(len(failed))}
    plain = []
    for c in checks:
        if c["ok"]:
            plain.append(f"ok   {c['label']}")
        else:
            plain.append(f"FAIL {c['label']}")
            plain.append(f"  expected: {c['expected']}")
            plain.append(f"  got:      {c['got']}")
    plain.append(f"{len(checks) - len(failed)} passed, {len(failed)} failed")
    csv_rows = [("label", "ok")] + [(c["label"], str(c["ok"]).lower()) for c in checks]
    _emit(args, _payload(args, [], report), plain, csv_rows)
    return EXIT_VERIFY if failed else EXIT_OK


# -- parser ------------------------------------------------------------------


def _add_common(sub, offset=False):
    sub.add_argument("--order", type=_int_at_least(4, MAX_ORDER), default=DEFAULT_ORDER,
                     help=f"truncation order, 4 to {MAX_ORDER} (default {DEFAULT_ORDER})")
    _add_format(sub)
    if offset:
        sub.add_argument("--offset", type=_int_at_least(0), default=None,
                         help="drop this many leading transform values")


def _add_format(sub):
    sub.add_argument("--format", choices=("plain", "json", "csv"), default="plain")


def _add_subject_command(commands, name: str, help_text: str, func, offset=False):
    sub = commands.add_parser(name, help=help_text)
    sub.add_argument("subject", choices=_SUBJECTS)
    sub.add_argument("params", nargs="*")
    _add_common(sub, offset=offset)
    sub.set_defaults(func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The riopi parser, built once per process: ``main`` parses each call
    into a fresh namespace, and parsing leaves no state in the parser, so
    in-process callers (tests, the benchmark) do not rebuild the argparse
    tree on every call.  A fresh ``python -m riopi`` builds it once either
    way."""
    parser = _Parser(prog="riopi",
                     description="Exact Riordan pseudo-involution toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    _add_subject_command(commands, "expand", "print a subject's sequence", cmd_expand)
    _add_subject_command(commands, "hankel", "Hankel transform of a subject", cmd_hankel,
                         offset=True)
    somos = commands.add_parser("somos", help="fit and verify a Somos-4 recurrence")
    somos.add_argument("subject", nargs="?", choices=_SUBJECTS)
    somos.add_argument("params", nargs="*")
    somos.add_argument("--terms", help="comma-separated explicit term list")
    _add_common(somos, offset=True)
    # an explicit term list is not truncated, so --order is left unset to
    # tell it apart; subject runs take the default
    somos.set_defaults(func=cmd_somos, order=None)
    _add_subject_command(commands, "bseq", "certified B-sequence of a subject", cmd_bseq)
    _add_subject_command(commands, "prodmat", "production matrix of a subject", cmd_prodmat)

    verify = commands.add_parser("verify", help="regression and conjecture suites")
    verify.add_argument("suite", choices=("paper", "conjecture", "all"),
                        help="'paper' diffs embedded golden data, 'conjecture' "
                             "runs seeded randomized Somos checks")
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--trials", type=_int_at_least(1), default=30)
    _add_format(verify)
    # the suites run at their own fixed orders
    verify.set_defaults(func=cmd_verify, order=None)
    return parser


def main(argv=None) -> int:
    """Run one riopi command and return its exit code.  Every call parses
    with the one parser ``build_parser`` keeps for the process."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SeriesError, OutOfOrder, NoBSequence, InsufficientTerms,
            Underdetermined, NoSomosFit) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
