import csv
import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import riopi
from riopi import cli, elliptic, knowndata, somos
from riopi.cli import MAX_ORDER, main
from riopi.series import Series, _quadratic_root

from conftest import rand_fraction
from knowndata_oracle import fraction_values


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def spy_builds(monkeypatch):
    """Record each generator build as (kind, params) and each
    ``elliptic.pipeline`` call as (curve, order), wherever it is called from."""
    builds, pipelines = [], []
    for kind, generator in knowndata.GENERATORS.items():
        def spy(params, order, kind=kind, build=generator.build):
            builds.append((kind, tuple(params)))
            return build(params, order)
        monkeypatch.setitem(knowndata.GENERATORS, kind, generator._replace(build=spy))
    original = elliptic.pipeline

    def pipeline(curve, order):
        pipelines.append((str(curve), order))
        return original(curve, order)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "riopi" and getattr(module, "pipeline", None) is original:
            monkeypatch.setattr(module, "pipeline", pipeline)
    return builds, pipelines


def labels(out: str) -> dict[str, str]:
    """Each check label of a plain verify report, with its ok/FAIL verdict."""
    return {line[5:]: line[:4].strip() for line in out.splitlines()
            if line.startswith(("ok   ", "FAIL "))}


class TestExpand:
    def test_family(self, capsys):
        code, out, _ = run(capsys, "expand", "family", "2", "-1", "1", "--order", "11")
        assert code == 0
        assert out.strip() == "1 2 4 9 22 57 154 429 1223 3550 10455"

    def test_curve(self, capsys):
        code, out, _ = run(capsys, "expand", "curve", "-3", "--order", "6")
        assert code == 0
        assert out.strip() == "1 5 25 124 610 2979"

    def test_degenerate(self, capsys):
        code, out, _ = run(capsys, "expand", "family", "0", "0", "0", "--order", "5")
        assert code == 0
        assert out.strip() == "1 0 0 0 0"

    def test_rational_output_uses_slash(self, capsys):
        code, out, _ = run(capsys, "expand", "family", "1/2", "0", "0", "--order", "4")
        assert code == 0
        assert out.strip() == "1 1/2 1/4 1/8"


def _int_digit_limit():
    """Python's int <-> str digit limit, or None where it has none (< 3.10.7)."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


class TestLongValues:
    """Exact values past Python's default int -> str limit of 4300 digits
    print in full, and main puts the limit back when it returns."""

    def test_printed_values_parse_back(self, capsys):
        rng = random.Random(26)
        p, q = (rng.randrange(10 ** 199, 10 ** 200) for _ in range(2))
        limit = _int_digit_limit()
        code, out, err = run(capsys, "expand", "family", f"{p}/{q}", "1", "1", "--order", "40")
        assert (code, err) == (0, "")
        assert _int_digit_limit() == limit
        printed = out.split()
        assert max(map(len, printed)) > 4300
        want = riopi.g_family(riopi.FamilyParams.of(Fraction(p, q), 1, 1), 40)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            assert [Fraction(v) for v in printed] == list(want.coeffs)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_closed_form_of_a_long_curve(self, capsys):
        # the closed form's c = -(a^2 - 3a + 1) of a 3000-digit curve has
        # about 6000 digits
        a = "7" * 3000
        limit = _int_digit_limit()
        code, out, err = run(capsys, "bseq", "curve", a, "--order", "6", "--format", "json")
        assert (code, err) == (0, "")
        assert _int_digit_limit() == limit
        report = json.loads(out)["report"]
        assert report["closed_form_match"] is True
        m = elliptic.family_params_from_curve(a)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            want = f"({m.a} + {-m.c}*x)/(1 + {m.b}*x)"
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert report["closed_form"] == want and len(want) > 6000

    @pytest.mark.skipif(_int_digit_limit() is None, reason="no int <-> str digit limit")
    def test_literal_past_the_limit_is_a_usage_error(self, capsys):
        # parameters are read under Python's limit; a literal past it is a
        # usage error in riopi's words, naming its digits and the limit
        limit = _int_digit_limit()
        for literal, shown, digits in (("7" * (limit + 1), "7" * 12, limit + 1),
                                       ("1/" + "3" * (limit + 100), "1/" + "3" * 10, limit + 100)):
            code, out, err = run(capsys, "expand", "family", literal, "1", "1", "--order", "4")
            assert (code, out) == (1, "")
            assert err == (f"usage error: literal {shown}... has an integer of {digits} digits; "
                           f"at most {limit} digits are read\n")
            assert _int_digit_limit() == limit


class TestGenerators:
    def test_equations_name_the_built_roots(self, rng):
        # every subject has an equation, and each kind's equation is that of
        # the root its build expands, so a transform read off the equation
        # is the transform of the subject's series
        assert all(knowndata.GENERATORS[kind].equation for kind in cli._SUBJECTS)
        for kind, gen in knowndata.GENERATORS.items():
            if gen.equation is None:
                continue
            for _ in range(6):
                params = tuple(rand_fraction(rng) for _ in range(gen.arity))
                assert _quadratic_root(gen.equation(params), 24) == gen.build(params, 24), \
                    (kind, params)


class TestHankel:
    def test_family(self, capsys):
        code, out, _ = run(capsys, "hankel", "family", "-1", "-2", "-1", "--order", "21")
        assert code == 0
        assert out.strip() == "1 0 -1 -1 -2 -1 7 16 57 113 -670"

    def test_companion(self, capsys):
        code, out, _ = run(capsys, "hankel", "companion", "-1", "-2", "-1", "--order", "19")
        assert code == 0
        assert out.strip() == "1 2 1 -7 -16 -57 -113 670 3983 23647"

    def test_constant_ones_via_offset(self, capsys):
        code, out, _ = run(capsys, "hankel", "family", "1", "1", "-1", "--order", "9",
                           "--offset", "0")
        assert code == 0
        # 1/(1-x) member: all-ones sequence has rank-1 Hankel matrices
        assert out.strip() == "1 0 0 0 0"


class TestSomos:
    def test_explicit_terms(self, capsys):
        code, out, _ = run(capsys, "somos", "--terms=-1,-1,-2,-3,5,28,67,411,506")
        assert code == 0
        # somos4_fit raises on any failure, so a report is all passes
        assert out.splitlines() == ["alpha=1 beta=-2", "checked n=4..8: 5 pass"]

    def test_companion_subject(self, capsys):
        code, out, _ = run(capsys, "somos", "companion", "-1", "1", "2", "--order", "21")
        assert code == 0
        assert "alpha=1 beta=1" in out

    def test_curvef_subject(self, capsys):
        code, out, _ = run(capsys, "somos", "curvef", "-3", "--order", "16")
        assert code == 0
        assert "alpha=1 beta=4" in out

    def test_curve_subject_uses_tail(self, capsys):
        code, out, _ = run(capsys, "somos", "curve", "-3", "--order", "18")
        assert code == 0
        assert "alpha=1 beta=4" in out

    def test_underdetermined_is_computation_error(self, capsys):
        code, _, err = run(capsys, "somos", "--terms=1,1,1,1,1,1")
        assert code == 2
        assert "Underdetermined" in err

    @pytest.mark.parametrize("argv", [("--terms=-1,-1,-2,-3,5,28,67,411,506",),
                                      ("curvef", "-3", "--order", "16")])
    def test_fit_checked_once(self, capsys, monkeypatch, argv):
        # somos4_fit returns its passing check; the command does not rerun
        # it, nor the int kernel that verify's Somos claims call
        calls = []

        def counted(check):
            def wrapped(*args):
                calls.append(args)
                return check(*args)
            return wrapped

        monkeypatch.setattr(somos, "somos4_check", counted(somos.somos4_check))
        monkeypatch.setattr(cli, "_check_ints", counted(cli._check_ints))
        code, _, _ = run(capsys, "somos", *argv)
        assert code == 0
        assert len(calls) == 1

    def test_subject_and_terms_conflict(self, capsys):
        code, _, err = run(capsys, "somos", "family", "1", "0", "-1", "--terms=1,2,3")
        assert code == 1

    def test_empty_terms_are_given(self, capsys):
        # an empty --terms is a term list: it conflicts with a subject, and
        # on its own it is one malformed term
        code, out, err = run(capsys, "somos", "family", "2", "-2", "3", "--terms", "")
        assert (code, out) == (1, "")
        assert "give either a subject or --terms, not both" in err
        code, out, err = run(capsys, "somos", "--terms", "")
        assert (code, out) == (1, "")
        assert "malformed rational ''" in err

    def test_subjects_are_the_kinds_with_an_offset(self):
        assert cli._SUBJECTS == ["ad", "companion", "curve", "curvef", "family"]

    @pytest.mark.parametrize("subject, offset, fit", [
        (("family", "2", "-2", "3"), 2, ("1", "-2")),
        (("ad", "1", "2"), 2, ("4", "0")),
        (("curve", "-3"), 2, ("1", "4")),
        (("companion", "-1", "1", "2"), 0, ("1", "1")),
        (("curvef", "-11/2"), 0, ("1", "13/2")),
    ])
    def test_default_offset(self, capsys, subject, offset, fit):
        # the default run is the run at the subject's printed offset; the
        # values are the terms after it, so another offset prints others
        code, out, _ = run(capsys, "somos", *subject, "--format", "json")
        assert code == 0
        assert run(capsys, "somos", *subject, "--offset", str(offset),
                   "--format", "json") == (0, out, "")
        report = json.loads(out)["report"]
        assert (report["alpha"], report["beta"]) == fit

    def test_terms_take_no_order(self, capsys):
        # an explicit term list is not truncated, so no order is reported
        terms = "--terms=1,1,-1,1,2,-1,-3,-5"
        code, out, err = run(capsys, "somos", terms, "--order", "50", "--format", "json")
        assert (code, out) == (1, "")
        assert "--terms takes no --order" in err
        code, out, _ = run(capsys, "somos", terms, "--format", "json")
        assert code == 0 and json.loads(out)["order"] is None
        code, out, _ = run(capsys, "somos", "curve", "-3", "--format", "json")
        assert code == 0 and json.loads(out)["order"] == 32


class TestBseq:
    def test_family(self, capsys):
        code, out, _ = run(capsys, "bseq", "family", "1", "0", "-1", "--order", "14")
        assert code == 0
        assert out.strip() == "1 1 0 0 0 0"

    def test_curve_with_closed_form(self, capsys):
        code, out, _ = run(capsys, "bseq", "curve", "-3", "--order", "12")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "5 -1 4 -16 64"
        assert lines[1] == "closed form: (5 + 19*x)/(1 + 4*x)"
        assert lines[2] == "match: yes"

    def test_non_involutory_subject(self, capsys):
        code, _, err = run(capsys, "bseq", "companion", "-1", "1", "2", "--order", "12")
        assert code == 2
        assert "NoBSequence" in err


class TestProdmat:
    def test_curve_fragment(self, capsys):
        code, out, _ = run(capsys, "prodmat", "curve", "-3", "--order", "9")
        assert code == 0
        assert out.strip().splitlines() == [
            "5 1 0 0 0 0 0",
            "0 5 1 0 0 0 0",
            "-1 0 5 1 0 0 0",
            "5 -1 0 5 1 0 0",
            "-21 5 -1 0 5 1 0",
            "84 -21 5 -1 0 5 1",
            "-326 84 -21 5 -1 0 5",
        ]


class TestFormats:
    def test_json_schema_and_round_trip(self, capsys):
        code, out, _ = run(capsys, "expand", "curve", "-3", "--order", "11",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["subject"] == "curve"
        assert payload["params"] == ["-3"]
        assert payload["order"] == 11
        # integers arrive as decimal strings, never floats
        assert payload["values"][9] == "1605334"
        assert all(isinstance(v, str) for v in payload["values"])
        assert json.dumps(payload, indent=2) == out.strip()

    def test_json_somos_report(self, capsys):
        code, out, _ = run(capsys, "somos", "family", "2", "-2", "3", "--order", "21",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["report"]["alpha"] == "1"
        assert payload["report"]["beta"] == "-2"
        assert payload["report"]["ok"] is True
        assert payload["report"]["failures"] == []

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "expand", "family", "1", "-1", "0", "--order", "5",
                           "--format", "csv")
        assert code == 0
        assert out.strip().splitlines() == ["n,value", "0,1", "1,1", "2,1", "3,2", "4,4"]

    def test_csv_somos_report(self, capsys):
        code, out, _ = run(capsys, "somos", "--terms=-1,-1,-2,-3,5,28,67,411,506",
                           "--format", "csv")
        assert code == 0
        assert out.strip().splitlines() == [
            "key,value", "alpha,1", "beta,-2", "checked_from,4", "checked_to,8"]

    def test_csv_rows_parse_back(self, capsys):
        # verify labels hold commas and spaces; each row must still parse
        # to as many fields as the header has
        for argv in (("verify", "all", "--trials", "3"),
                     ("somos", "family", "2", "-2", "3", "--order", "21"),
                     ("prodmat", "curve", "-3", "--order", "6")):
            code, out, _ = run(capsys, *argv, "--format", "csv")
            assert code == 0
            rows = list(csv.reader(out.splitlines()))
            assert len(rows) > 3 and {len(r) for r in rows} == {len(rows[0])}, argv
            if argv[0] == "verify":
                labels = [r[0] for r in rows]
                assert "conjecture family(-2,1,3)" in labels and "g(2,-2,3)" in labels

    def test_reproducible(self, capsys):
        _, first, _ = run(capsys, "verify", "paper", "--format", "json")
        _, second, _ = run(capsys, "verify", "paper", "--format", "json")
        assert first == second


class TestUsage:
    def test_decimal_rational_rejected(self, capsys):
        code, _, err = run(capsys, "expand", "family", "1.5", "0", "0")
        assert code == 1
        assert "malformed rational" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "expand", "family", "1", "2")
        assert code == 1

    def test_unknown_subject(self, capsys):
        code, _, _ = run(capsys, "expand", "foo", "1")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "nonsense")
        assert code == 1

    def test_order_minimum(self, capsys):
        code, _, err = run(capsys, "expand", "family", "1", "0", "0", "--order", "3")
        assert code == 1
        assert "--order: must be at least 4" in err

    def test_order_maximum(self, capsys):
        code, out, _ = run(capsys, "expand", "family", "1", "0", "0",
                           "--order", str(MAX_ORDER), "--format", "json")
        assert code == 0 and json.loads(out)["order"] == MAX_ORDER
        for order in (str(MAX_ORDER + 1), "99999999999999999999999"):
            code, out, err = run(capsys, "expand", "family", "1", "2", "3", "--order", order)
            assert code == 1, order
            assert out == ""
            assert f"--order: must be at most {MAX_ORDER}, got {order}" in err
            assert "Traceback" not in err

    def test_help_shows_order_bound(self, capsys):
        code, out, _ = run(capsys, "expand", "--help")
        assert code == 0 and f"4 to {MAX_ORDER}" in out

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_trials_below_one_rejected(self, capsys):
        for trials in ("-2", "0"):
            code, out, err = run(capsys, "verify", "conjecture", "--trials", trials)
            assert code == 1
            assert "passed" not in out
            assert "--trials: must be at least 1" in err

    def test_negative_offset_rejected(self, capsys):
        for argv in (("hankel", "family", "1", "1", "1", "--offset", "-3"),
                     ("somos", "family", "1", "1", "1", "--offset", "-1"),
                     ("somos", "--terms=1,2,3,4,5,6,7,8,9", "--offset", "-2")):
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            assert "--offset: must be at least 0" in err

    def test_offset_past_hankel_transform_rejected(self, capsys):
        # order 9 gives 5 transform values: offset 4 leaves one, 5 leaves none
        code, out, _ = run(capsys, "hankel", "family", "1", "1", "1", "--order", "9",
                           "--offset", "4")
        assert code == 0 and out.strip() == "64"
        for offset in ("5", "99"):
            code, out, err = run(capsys, "hankel", "family", "1", "1", "1", "--order", "9",
                                 "--offset", offset)
            assert code == 1, offset
            assert out == ""
            assert f"--offset {offset} leaves none of the 5 transform values" in err

    def test_somos_needs_six_terms_after_offset(self, capsys):
        for argv in (("somos", "--terms=1,2,3"),
                     ("somos", "--terms=1,1,1,1,1,1,1", "--offset", "5"),
                     ("somos", "family", "1", "1", "1", "--order", "9", "--offset", "0")):
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            assert "somos needs at least 6 terms after offset" in err
        # six terms left is enough to reach the fit
        code, _, err = run(capsys, "somos", "--terms=1,1,1,1,1,1,1", "--offset", "1")
        assert code == 2
        assert "Underdetermined" in err


class TestNegativeRationalParams:
    # argparse alone reads only -<digits> as a negative number, so -11/2
    # used to exit 1 as an unrecognized option.
    def both_placements(self, capsys, command, subject, params, *options):
        before = run(capsys, command, subject, *params, *options)
        after = run(capsys, command, *options, subject, *params)
        assert before == after, (command, params)
        code, out, err = before
        assert code == 0, (command, params, err)
        return out.strip().splitlines()

    def test_expand(self, capsys):
        lines = self.both_placements(capsys, "expand", "curve", ["-11/2"], "--order", "5")
        # g = 1 + (2-a)x + (2-a)^2 x^2 + ...
        assert lines == ["1 15/2 225/4 3367/8 50265/16"]
        lines = self.both_placements(capsys, "expand", "family", ["1/2", "-1/3", "0"],
                                     "--order", "4", "--format", "json")
        assert json.loads("\n".join(lines))["params"] == ["1/2", "-1/3", "0"]

    def test_hankel(self, capsys):
        # h_2 = -(ab+c)^2 and h_3 = -(ab+c)^4 with ab+c = -5/3
        lines = self.both_placements(capsys, "hankel", "family", ["-1/2", "2", "-2/3"],
                                     "--order", "7")
        assert lines == ["1 0 -25/9 -625/81"]

    def test_somos(self, capsys):
        # the curve's transform tail is Somos-4 with (alpha, beta) = (1, 1-a)
        lines = self.both_placements(capsys, "somos", "curve", ["-11/2"], "--order", "18")
        assert lines == ["alpha=1 beta=13/2", "checked n=4..6: 3 pass"]
        lines = self.both_placements(capsys, "somos", "family", ["1/2", "-1/3", "-2"],
                                     "--order", "21")
        assert lines == ["alpha=169/36 beta=-169/108", "checked n=4..8: 5 pass"]

    def test_bseq(self, capsys):
        lines = self.both_placements(capsys, "bseq", "curve", ["-11/2"], "--order", "12")
        assert lines[0].split()[0] == "15/2"
        assert lines[-1] == "match: yes"

    def test_prodmat(self, capsys):
        lines = self.both_placements(capsys, "prodmat", "curve", ["-11/2"], "--order", "7")
        assert lines[0] == "15/2 1 0 0 0"
        assert len(lines) == 5

    def test_negative_term_list(self, capsys):
        code, out, _ = run(capsys, "somos", "--terms", "-1,-1,-2,-3,5,28,67,411,506")
        assert code == 0
        assert "alpha=1 beta=-2" in out

    def test_bad_input_still_rejected(self, capsys):
        code, _, err = run(capsys, "expand", "curve", "-11/2", "--ordr", "5")
        assert code == 1
        assert "unrecognized arguments: --ordr" in err
        for bad in ("-1.5", "-1/0", "-3x"):
            code, _, err = run(capsys, "expand", "curve", bad)
            assert code == 1, bad
            assert "malformed rational" in err


class TestParamsAfterOptions:
    # argparse fills the nargs="*" params (empty) before the first option,
    # so parameters after an option reach the parser as leftovers.
    @pytest.mark.parametrize("command,subject,params,options", [
        ("expand", "family", ["1/2", "-1/3", "0"], ["--order", "6"]),
        ("hankel", "curve", ["3"], ["--order", "9"]),
        ("hankel", "family", ["-1/2", "2", "-2/3"], ["--order", "7", "--offset", "1"]),
        ("somos", "curve", ["-11/2"], ["--order", "18"]),
        ("bseq", "curve", ["-11/2"], ["--order", "12"]),
        ("prodmat", "curve", ["-3"], ["--order", "7", "--format", "json"]),
    ])
    def test_params_after_options(self, capsys, command, subject, params, options):
        expected = run(capsys, command, subject, *params, *options)
        assert expected[0] == 0, expected[2]
        placements = [[subject, *options, *params],
                      [subject, *params[:1], *options, *params[1:]],
                      [subject, *options[:2], *params, *options[2:]]]
        for argv in placements:
            assert run(capsys, command, *argv) == expected, argv

    def test_printed_example(self, capsys):
        code, out, _ = run(capsys, "hankel", "curve", "--order", "9", "3")
        assert code == 0
        assert out.strip() == "1 0 -1 -1 -2"

    def test_misspelt_option_still_rejected(self, capsys):
        for argv in (["hankel", "curve", "--order", "9", "--ordr", "3"],
                     ["expand", "curve", "--ordr", "9", "3"],
                     ["somos", "curve", "--order", "18", "-11/2", "--ofset", "2"],
                     ["expand", "curve", "--ordr", "5", "--", "-11/2"],
                     ["hankel", "curve", "--order", "9", "--ofset", "1", "--", "3"]):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert "unrecognized arguments" in err

    def test_stray_argument_after_verify_rejected(self, capsys):
        for argv in (["verify", "paper", "3"],
                     ["verify", "paper", "--seed", "2", "extra"],
                     ["verify", "conjecture", "--trials", "1", "-1/2"],
                     # the suites run at fixed orders: no --order to ignore
                     ["verify", "paper", "--order", "40"],
                     ["verify", "conjecture", "--trials", "1", "--order", "999"]):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert "unrecognized arguments" in err

    def test_too_many_params_after_options(self, capsys):
        code, _, err = run(capsys, "expand", "curve", "3", "--order", "5", "4")
        assert code == 1
        assert "takes 1 parameter(s), got 2" in err

    def test_double_dash_ends_options(self, capsys):
        # argparse hands a "--" after an option back among the leftovers
        code, out, err = run(capsys, "expand", "curve", "--order", "5", "--", "-11/2")
        assert code == 0, err
        assert out.strip() == "1 15/2 225/4 3367/8 50265/16"
        code, out, err = run(capsys, "hankel", "curve", "--order", "9", "--", "3")
        assert code == 0, err
        assert out.strip() == "1 0 -1 -1 -2"
        code, out, err = run(capsys, "expand", "family", "1/2", "--order", "4",
                             "-1/3", "--", "0")
        assert code == 0, err
        assert out == run(capsys, "expand", "family", "1/2", "-1/3", "0", "--order", "4")[1]

    def test_everything_after_double_dash_is_a_parameter(self, capsys):
        code, out, err = run(capsys, "expand", "curve", "--", "-11/2", "--order", "5")
        assert code == 1
        assert out == ""
        assert "usage error: subject 'curve' takes 1 parameter(s), got 3" in err


class TestParserCache:
    # one parser per process: a call leaves nothing in it for the next
    SEQUENCE = [
        (("expand", "family", "2", "-2", "3", "--order", "8"), 0),
        (("hankel", "curvef", "3", "--order", "9", "--offset", "1"), 0),
        # a subject run sets its namespace's order to the default; --terms
        # after it must still find order unset
        (("somos", "curvef", "-3", "--order", "16"), 0),
        (("somos", "family", "2", "-2", "3", "--format", "json"), 0),
        (("somos", "--terms", "-1,-1,-2,-3,5,28,67,411,506"), 0),
        (("somos", "--terms", "1,1,-1,1,2,-1,-3,-5", "--order", "50"), 1),
        (("bseq", "curve", "-3", "--order", "9", "--format", "csv"), 0),
        (("prodmat", "curve", "-3", "--order", "9"), 0),
        (("expand", "curve", "1.5"), 1),
        (("expand", "curve", "--order", "5", "-11/2"), 0),
        (("hankel", "curve", "--order", "9", "3"), 0),
        (("expand", "curve", "3", "--order", "3"), 1),
        (("bogus",), 1),
        (("verify", "paper", "--format", "csv"), 0),
        (("verify", "conjecture", "--seed", "3", "--trials", "2"), 0),
        (("verify", "all", "--trials", "1", "--format", "json"), 0),
        (("expand", "family", "2", "-2", "3"), 0),
        (("--help",), 0),
    ]

    def test_calls_match_a_fresh_parser(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        cached = [run(capsys, *argv) for argv, _ in self.SEQUENCE]
        assert [code for code, _, _ in cached] == [code for _, code in self.SEQUENCE]
        assert cli.build_parser() is cli.build_parser()
        # build_parser unwrapped builds a new parser on every call
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv, _ in self.SEQUENCE]
        for (argv, _), got, want in zip(self.SEQUENCE, cached, fresh):
            assert got == want, argv


class TestEntryPoint:
    env = dict(os.environ, PYTHONPATH=str(Path(riopi.__file__).resolve().parents[1]))

    def test_python_m_riopi(self):
        def riopi_m(*argv):
            return subprocess.run([sys.executable, "-m", "riopi", *argv], env=self.env,
                                  capture_output=True, text=True, timeout=120)

        done = riopi_m("expand", "curve", "-11/2", "--order", "5")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1 15/2 225/4 3367/8 50265/16"
        assert riopi_m("expand", "curve", "-3", "--ordr", "5").returncode == 1

    def test_closed_stdout_stops_quietly(self):
        # about 110 kB of CSV, more than a pipe holds, so the writer is still
        # writing when its reader goes away after the first line
        proc = subprocess.Popen(
            [sys.executable, "-m", "riopi", "expand", "family", "1/2", "-2/3", "5/3",
             "--order", "400", "--format", "csv"],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "n,value\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert "Traceback" not in err and "Exception ignored" not in err and err == ""


class TestVerify:
    def test_paper_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "paper")
        assert code == 0
        assert "0 failed" in out
        assert "FAIL" not in out

    def test_no_run_reaches_bareiss(self, capsys, monkeypatch):
        # every Hankel transform of verify, hankel and somos is read off its
        # subject's equation; Bareiss serves only terms
        def refuse(rows):
            raise AssertionError("a CLI run eliminated a Hankel matrix")

        monkeypatch.setattr("riopi.hankel._leading_minors", refuse)
        code, out, _ = run(capsys, "verify", "all", "--trials", "2")
        assert code == 0 and "0 failed" in out
        subjects = {"ad": ("1", "2"), "companion": ("-11/2", "1/3", "2/7"),
                    "curve": ("-3",), "curvef": ("-11/2",), "family": ("1/2", "-2/3", "5/3")}
        assert sorted(subjects) == cli._SUBJECTS
        for kind, params in subjects.items():
            for command in ("hankel", "somos"):
                code, _, err = run(capsys, command, kind, *params)
                assert (code, err) == (0, ""), (command, kind)

    def test_conjecture_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "conjecture", "--seed", "1", "--trials", "3")
        assert code == 0
        assert "0 failed" in out

    def test_json_order_is_null(self, capsys):
        code, out, _ = run(capsys, "verify", "paper", "--format", "json")
        assert code == 0
        assert json.loads(out)["order"] is None

    def test_conjecture_seed_determinism(self, capsys):
        _, first, _ = run(capsys, "verify", "conjecture", "--seed", "7", "--trials", "2")
        _, second, _ = run(capsys, "verify", "conjecture", "--seed", "7", "--trials", "2")
        assert first == second

    def test_corrupted_prefix_detected(self, capsys, monkeypatch):
        # harness self-test: break one embedded value, expect a diff + exit 3
        corrupted = []
        for entry in knowndata.KNOWN_SEQUENCES:
            if entry.label == "A105633":
                bad = entry.prefix[:-1] + (entry.prefix[-1] + 1,)
                entry = dataclasses.replace(entry, prefix=bad)
            corrupted.append(entry)
        monkeypatch.setattr(knowndata, "KNOWN_SEQUENCES", tuple(corrupted))
        code, out, _ = run(capsys, "verify", "paper")
        assert code == 3
        assert "FAIL A105633" in out
        assert "expected:" in out and "got:" in out

    def test_failing_somos_checks_name_their_parameters(self, capsys, monkeypatch):
        # a failing conjecture or curve check prints the (alpha, beta) it
        # checked: ((ab+c)^2, b(ab+c)^2) for a member, (1, 1-a) for a curve
        def failing(check):
            def wrapped(*args, **kwargs):
                report = check(*args, **kwargs)
                if isinstance(report, somos.ConjectureReport):
                    return dataclasses.replace(
                        report, family=dataclasses.replace(report.family, failures=(7,)))
                return dataclasses.replace(report, failures=(7,))
            return wrapped

        monkeypatch.setattr(cli, "conjecture_family", failing(cli.conjecture_family))
        monkeypatch.setattr(cli, "curve_somos_check", failing(cli.curve_somos_check))
        code, out, _ = run(capsys, "verify", "conjecture", "--seed", "4", "--trials", "6",
                           "--format", "json")
        checks = json.loads(out)["report"]["checks"]
        assert code == 3 and not any(c["ok"] for c in checks)
        curves = 0
        for check in checks:
            label, expected = check["label"], check["expected"]
            if label.startswith("curve somos a="):
                a = Fraction(label.removeprefix("curve somos a="))
                assert expected == f"(1, {1 - a}) product form"
                curves += 1
            else:
                a, b, c = (int(v) for v in
                           label.removeprefix("conjecture family(")[:-1].split(","))
                k = a * b + c
                assert expected == f"({k * k}, {b * k * k}) product form"
        assert curves == 2 and len(checks) == 8

    def test_one_build_per_source(self, capsys, monkeypatch):
        # a pass builds each (kind, params) whose series an entry reads once,
        # and runs one pipeline per curve; Hankel entries read equations
        builds, pipelines = spy_builds(monkeypatch)
        code, out, _ = run(capsys, "verify", "paper")
        assert code == 0 and "0 failed" in out
        assert sorted(curve for curve, _ in pipelines) == ["-3", "0", "2"]
        wanted = {(entry.kind, entry.params) for entry in knowndata.KNOWN_SEQUENCES
                  if not entry.transform.startswith("hankel")}
        assert sorted(builds) == sorted(wanted) and len(builds) == 29

    def test_shared_source_isolates_failures(self, capsys, monkeypatch):
        # A050512 shares curve(2)'s series with four other entries; only it fails
        _, clean, _ = run(capsys, "verify", "paper")
        corrupted = []
        for entry in knowndata.KNOWN_SEQUENCES:
            if entry.label == "A050512":
                bad = entry.prefix[:-1] + (entry.prefix[-1] + 1,)
                entry = dataclasses.replace(entry, prefix=bad)
            corrupted.append(entry)
        monkeypatch.setattr(knowndata, "KNOWN_SEQUENCES", tuple(corrupted))
        code, out, _ = run(capsys, "verify", "paper")
        assert code == 3
        assert "FAIL A050512" in out
        want = {label: "ok" for label in labels(clean)} | {"A050512": "FAIL"}
        assert labels(out) == want

    def test_source_length_follows_current_table(self, capsys, monkeypatch):
        # without the two entries that read curve(2) furthest, its series is
        # built only as long as the longest remaining entry, curve-g(2)
        dropped = {"hankel(curve-g(2))", "A050512"}
        entries = tuple(e for e in knowndata.KNOWN_SEQUENCES if e.label not in dropped)
        monkeypatch.setattr(knowndata, "KNOWN_SEQUENCES", entries)
        _, pipelines = spy_builds(monkeypatch)
        code, out, _ = run(capsys, "verify", "paper")
        assert code == 0 and "0 failed" in out
        longest = next(e for e in entries if e.label == "curve-g(2)")
        assert [order for curve, order in pipelines if curve == "2"] == [len(longest.prefix)]

    @pytest.mark.parametrize("label", [e.label for e in knowndata.KNOWN_SEQUENCES])
    def test_dropped_entry_loses_only_its_checks(self, capsys, monkeypatch, label):
        # every check that reads a generator is a row of the table, so a
        # table without one row still runs, minus that row and its claim
        _, clean, _ = run(capsys, "verify", "paper")
        entry = next(e for e in knowndata.KNOWN_SEQUENCES if e.label == label)
        lost = {label}
        if entry.somos:
            lost.add("somos({},{}) {}".format(*entry.somos, label))
        monkeypatch.setattr(knowndata, "KNOWN_SEQUENCES",
                            tuple(e for e in knowndata.KNOWN_SEQUENCES if e is not entry))
        code, out, err = run(capsys, "verify", "paper")
        assert (code, err) == (0, "")
        want = {k: v for k, v in labels(clean).items() if k not in lost}
        assert labels(out) == want and len(want) == len(labels(clean)) - len(lost)


class TestGoldenInts:
    # verify compares each row on the int pairs its source holds

    def test_pairs_equal_the_fraction_oracle(self):
        sources = knowndata.build_sources(knowndata.KNOWN_SEQUENCES)
        for entry in knowndata.KNOWN_SEQUENCES:
            nums, dens = knowndata.computed_values(entry, sources)
            assert len(nums) == len(dens) == len(entry.prefix), entry.label
            assert all(d > 0 for d in dens), entry.label
            assert all(type(v) is int for v in (*nums, *dens)), entry.label
            got = [Fraction(n, d) for n, d in zip(nums, dens)]
            assert got == fraction_values(entry, sources) == list(entry.prefix), entry.label

    def test_non_integral_value_fails_its_row(self, capsys, monkeypatch):
        # Catalan's series halved: its numerators over 2 are the printed
        # prefix, yet A000108 fails, with the strings the Fraction route
        # printed, and every other row still passes
        _, clean, _ = run(capsys, "verify", "paper")
        catalan = knowndata.GENERATORS["catalan"]
        monkeypatch.setitem(knowndata.GENERATORS, "catalan", catalan._replace(
            build=lambda p, n: Series([Fraction(v, 2) for v in (1, 1, 2, 5, 14, 42)], n)))
        code, out, _ = run(capsys, "verify", "paper")
        assert code == 3
        entry = knowndata.KNOWN_SEQUENCES[0]
        assert entry.label == "A000108"
        sources = knowndata.build_sources([entry])
        expected = str([str(v) for v in entry.prefix])
        got = str([str(v) for v in fraction_values(entry, sources)])
        assert "'1/2'" in got
        assert f"FAIL A000108\n  expected: {expected}\n  got:      {got}\n" in out
        assert labels(out) == labels(clean) | {"A000108": "FAIL"}

    def test_verify_all_twice_in_one_process(self, capsys):
        first = run(capsys, "verify", "all", "--format", "json")
        second = run(capsys, "verify", "all", "--format", "json")
        assert first == second
        report = json.loads(first[1])["report"]
        assert (first[0], report["passed"], report["failed"]) == (0, "106", "0")
