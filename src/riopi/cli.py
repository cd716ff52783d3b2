"""Command-line front door for expansions, transforms, Somos fitting,
B-sequences, production matrices, and regression against embedded data.

Exit codes: 0 success, 1 usage, 2 computation error, 3 verification
failure.  All rational input/output is exact: parameters are integers or
'p/q' literals (no decimals), and JSON serializes every numeric value as
a decimal string.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from . import knowndata
from .elliptic import b_from_curve, curve_somos_check, pipeline
from .family import FamilyParams, narayana
from .hankel import InsufficientTerms, hankel_transform
from .riordan import NoBSequence, OutOfOrder, b_extract, bell
from .series import Series, SeriesError
from .somos import (NoSomosFit, SomosParams, Underdetermined, conjecture_family,
                    somos4_check, somos4_fit)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

_SUBJECT_ARITY = {"family": 3, "ad": 2, "companion": 3, "curve": 1, "curvef": 1}
_SUBJECT_KIND = {"family": "family", "ad": "ad", "companion": "companion",
                 "curve": "curve_g", "curvef": "curve_f"}
# Where the printed Somos tails start in each subject's Hankel transform.
_SOMOS_OFFSET = {"family": 2, "ad": 2, "curve": 2, "companion": 0, "curvef": 0}

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise UsageError(f"malformed rational {text!r}: use an integer or p/q")
    return Fraction(text)


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _subject_params(args) -> list[Fraction]:
    want = _SUBJECT_ARITY[args.subject]
    if len(args.params) != want:
        raise UsageError(
            f"subject {args.subject!r} takes {want} parameter(s), got {len(args.params)}")
    return [parse_rational(p) for p in args.params]


def _subject_sequence(subject: str, params, order: int):
    return knowndata.base_sequence(_SUBJECT_KIND[subject], tuple(params), order)


def _q(value: Fraction) -> str:
    return str(value)


def _emit(args, payload: dict, plain_lines: list[str], csv_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("\n".join(csv_lines))
    else:
        print("\n".join(plain_lines))


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
    params = _subject_params(args)
    seq = _subject_sequence(args.subject, params, args.order)
    values = [_q(v) for v in seq]
    _emit(args, _payload(args, values, {}),
          [" ".join(values)],
          ["n,value"] + [f"{n},{v}" for n, v in enumerate(values)])
    return EXIT_OK


def cmd_hankel(args) -> int:
    params = _subject_params(args)
    offset = args.offset or 0
    seq = _subject_sequence(args.subject, params, args.order)
    transform = hankel_transform(seq)
    values = [_q(v) for v in transform.values[offset:]]
    report = {"offset": str(offset), "source_length": str(transform.source_length)}
    _emit(args, _payload(args, values, report),
          [" ".join(values)],
          ["n,value"] + [f"{n + offset},{v}" for n, v in enumerate(values)])
    return EXIT_OK


def cmd_somos(args) -> int:
    if args.terms:
        if args.subject:
            raise UsageError("give either a subject or --terms, not both")
        terms = [parse_rational(t) for t in args.terms.split(",")]
        offset = args.offset or 0
        terms = terms[offset:]
        label = "terms"
    else:
        if not args.subject:
            raise UsageError("somos needs a subject or --terms")
        params = _subject_params(args)
        seq = _subject_sequence(args.subject, params, args.order)
        offset = args.offset if args.offset is not None else _SOMOS_OFFSET[args.subject]
        terms = list(hankel_transform(seq).values[offset:])
        label = f"hankel[{offset}:] of {args.subject}"
    fitted = somos4_fit(terms)
    report_data = somos4_check(terms, fitted, label=label)
    checked = list(range(report_data.start, report_data.end + 1))
    report = {
        "alpha": _q(fitted.alpha),
        "beta": _q(fitted.beta),
        "checked_from": str(report_data.start),
        "checked_to": str(report_data.end),
        "failures": [str(n) for n in report_data.failures],
        "degenerate": report_data.degenerate,
        "ok": report_data.ok,
    }
    values = [_q(v) for v in terms]
    plain = [f"alpha={report['alpha']} beta={report['beta']}"]
    for n in checked:
        plain.append(f"n={n} {'fail' if n in report_data.failures else 'pass'}")
    plain.append(f"checked n={report_data.start}..{report_data.end}: "
                 f"{len(checked) - len(report_data.failures)} pass, "
                 f"{len(report_data.failures)} fail")
    csv_lines = ["key,value", f"alpha,{report['alpha']}", f"beta,{report['beta']}"]
    csv_lines += [f"n={n},{'fail' if n in report_data.failures else 'pass'}" for n in checked]
    _emit(args, _payload(args, values, report), plain, csv_lines)
    return EXIT_OK


def cmd_bseq(args) -> int:
    params = _subject_params(args)
    seq = _subject_sequence(args.subject, params, args.order)
    g = Series(seq)
    b = b_extract(g)
    values = [_q(v) for v in b.values]
    report: dict = {"certified": str(b.certified)}
    plain = [" ".join(values)]
    if args.subject == "curve":
        closed = b_from_curve(params[0], terms=max(b.certified, 1))
        match = closed.prefix.values[:b.certified] == b.values
        report["closed_form"] = closed.closed_form()
        report["closed_form_match"] = match
        plain.append(f"closed form: {closed.closed_form()}")
        plain.append(f"match: {'yes' if match else 'NO'}")
    _emit(args, _payload(args, values, report), plain,
          ["n,value"] + [f"{n},{v}" for n, v in enumerate(values)])
    return EXIT_OK


def cmd_prodmat(args) -> int:
    params = _subject_params(args)
    seq = _subject_sequence(args.subject, params, args.order)
    matrix = bell(Series(seq)).production_matrix(args.order - 2)
    rows = [[_q(v) for v in row] for row in matrix.rows]
    report = {"rows": rows, "size": str(matrix.size)}
    _emit(args, _payload(args, [], report),
          [" ".join(row) for row in rows],
          ["row,col,value"] + [f"{i},{j},{v}" for i, row in enumerate(rows)
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
    checks = []
    by_label = {}
    for entry in knowndata.KNOWN_SEQUENCES:
        expected = [Fraction(v) for v in entry.prefix]
        got = knowndata.computed_values(entry)
        by_label[entry.label] = got
        checks.append(_check(entry.label, got == expected,
                             [str(v) for v in expected], [str(v) for v in got]))
    for label, offset, (alpha, beta) in knowndata.SOMOS_CLAIMS:
        terms = by_label[label][offset:]
        report = somos4_check(terms, SomosParams(Fraction(alpha), Fraction(beta)))
        checks.append(_check(f"somos({alpha},{beta}) {label}", not report.failures,
                             "no failures", f"failures at {list(report.failures)}"))
    trace = pipeline("-3", 11)
    triangle = bell(trace.g).triangle(8).integers()
    checks.append(_check("triangle curve(-3) 8x8",
                         tuple(tuple(r) for r in triangle) == knowndata.TRIANGLE_CURVE_A_MINUS3,
                         knowndata.TRIANGLE_CURVE_A_MINUS3, triangle))
    prodmat = bell(trace.g).production_matrix(7).integers()
    checks.append(_check("production matrix curve(-3) 7x7",
                         tuple(tuple(r) for r in prodmat) == knowndata.PRODMAT_CURVE_A_MINUS3,
                         knowndata.PRODMAT_CURVE_A_MINUS3, prodmat))
    got_narayana = tuple(tuple(int(narayana(n, k)) for k in range(n + 1))
                         for n in range(len(knowndata.NARAYANA_ROWS)))
    checks.append(_check("narayana triangle rows", got_narayana == knowndata.NARAYANA_ROWS,
                         knowndata.NARAYANA_ROWS, got_narayana))
    from .family import binomial
    size = len(knowndata.BINOMIAL_NARAYANA_PRODUCT)
    product = tuple(tuple(int(sum(binomial(n, j) * narayana(j, k) for j in range(k, n + 1)))
                          for k in range(n + 1)) for n in range(size))
    checks.append(_check("binomial*narayana product rows",
                         product == knowndata.BINOMIAL_NARAYANA_PRODUCT,
                         knowndata.BINOMIAL_NARAYANA_PRODUCT, product))
    for a_text, row in knowndata.CURVE_B_TABLE:
        got = b_from_curve(a_text, terms=len(row)).prefix.values
        expected = tuple(Fraction(v) for v in row)
        checks.append(_check(f"curve b-table a={a_text}", got == expected, row, got))
    return checks


def run_conjecture_suite(seed: int, trials: int, order: int = 28) -> list[dict]:
    rng = random.Random(seed)
    checks = []
    for _ in range(trials):
        while True:
            a, b, c = (rng.randint(-3, 3) for _ in range(3))
            if a * b + c != 0:
                break
        report = conjecture_family(FamilyParams.of(a, b, c), order)
        checks.append(_check(
            f"conjecture family({a},{b},{c})", report.ok,
            "somos product form over all checkable indices",
            f"family failures {list(report.family.failures)}, "
            f"companion failures {list(report.companion.failures)}"))
    for _ in range(max(1, trials // 3)):
        a = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        report = curve_somos_check(a, order=20)
        checks.append(_check(f"curve somos a={a}", not report.failures,
                             "(1, 1-a) product form", f"failures {list(report.failures)}"))
    return checks


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
    csv_lines = ["label,ok"] + [f"{c['label']},{str(c['ok']).lower()}" for c in checks]
    _emit(args, _payload(args, [], report), plain, csv_lines)
    return EXIT_VERIFY if failed else EXIT_OK


# -- parser ------------------------------------------------------------------


def _add_common(sub, offset=False):
    sub.add_argument("--order", type=int, default=32,
                     help="truncation order (default 32)")
    sub.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    if offset:
        sub.add_argument("--offset", type=_int_at_least(0), default=None,
                         help="drop this many leading transform values")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riopi",
                     description="Exact Riordan pseudo-involution toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    subjects = sorted(_SUBJECT_ARITY)
    expand = commands.add_parser("expand", help="print a subject's sequence")
    expand.add_argument("subject", choices=subjects)
    expand.add_argument("params", nargs="*")
    _add_common(expand)
    expand.set_defaults(func=cmd_expand)

    hank = commands.add_parser("hankel", help="Hankel transform of a subject")
    hank.add_argument("subject", choices=subjects)
    hank.add_argument("params", nargs="*")
    _add_common(hank, offset=True)
    hank.set_defaults(func=cmd_hankel)

    somos = commands.add_parser("somos", help="fit and verify a Somos-4 recurrence")
    somos.add_argument("subject", nargs="?", choices=subjects)
    somos.add_argument("params", nargs="*")
    somos.add_argument("--terms", help="comma-separated explicit term list")
    _add_common(somos, offset=True)
    somos.set_defaults(func=cmd_somos)

    bseq = commands.add_parser("bseq", help="certified B-sequence of a subject")
    bseq.add_argument("subject", choices=subjects)
    bseq.add_argument("params", nargs="*")
    _add_common(bseq)
    bseq.set_defaults(func=cmd_bseq)

    prodmat = commands.add_parser("prodmat", help="production matrix of a subject")
    prodmat.add_argument("subject", choices=subjects)
    prodmat.add_argument("params", nargs="*")
    _add_common(prodmat)
    prodmat.set_defaults(func=cmd_prodmat)

    verify = commands.add_parser("verify", help="regression and conjecture suites")
    verify.add_argument("suite", choices=("paper", "conjecture", "all"),
                        help="'paper' diffs embedded golden data, 'conjecture' "
                             "runs seeded randomized Somos checks")
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--trials", type=_int_at_least(1), default=30)
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.order < 4:
        print("error: --order must be at least 4", file=sys.stderr)
        return EXIT_USAGE
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
