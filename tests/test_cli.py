import dataclasses
import json

from riopi import knowndata
from riopi.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        assert "alpha=1 beta=-2" in out
        assert "fail" not in out.replace("0 fail", "")

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

    def test_subject_and_terms_conflict(self, capsys):
        code, _, err = run(capsys, "somos", "family", "1", "0", "-1", "--terms=1,2,3")
        assert code == 1


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


class TestVerify:
    def test_paper_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "paper")
        assert code == 0
        assert "0 failed" in out
        assert "FAIL" not in out

    def test_conjecture_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "conjecture", "--seed", "1", "--trials", "3")
        assert code == 0
        assert "0 failed" in out

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
