from fractions import Fraction

import pytest

import riopi.elliptic
from riopi.elliptic import (
    b_from_curve,
    curve_branch,
    curve_somos_check,
    f_from_curve,
    family_params_from_curve,
    pipeline,
)
from riopi.family import FamilyParams, companion, g_family
from riopi.hankel import hankel_transform
from riopi.riordan import b_extract, is_pseudo_involution
from riopi.series import Series, cf_eval

import composition_oracle
import riordan_oracle
from conftest import rand_fraction


class TestBranch:
    def test_printed_branches(self):
        assert curve_branch(3, 6).integers() == [0, 1, -2, 1, 3, -7]
        assert curve_branch(2, 5).integers() == [0, 1, -1, -1, 1]

    def test_symbolic_leading_terms(self, rng):
        for _ in range(6):
            a = rand_fraction(rng)
            y = curve_branch(a, 4)
            assert list(y.coeffs) == [0, 1, 1 - a, 1 - 3 * a + a * a]

    def test_branch_solves_the_curve(self, rng):
        # y^2 - a*x*y - y = x^3 - x termwise
        for a in (Fraction(3), Fraction(-2), Fraction(1, 2)):
            y = curve_branch(a, 12)
            x = Series.x(12)
            lhs = y * y - a * x * y - y
            rhs = Series([0, -1, 0, 1], 12)
            assert lhs.coeffs == rhs.coeffs


class TestPipeline:
    def test_a3_reaches_family_member(self):
        trace = pipeline(3, 16)
        walk = composition_oracle.pipeline_stages(3, 16)[-1]
        assert trace.g.coeffs == walk == g_family(FamilyParams.of(-1, -2, -1), 16).coeffs
        assert trace.g.integers()[:11] == [1, -1, 1, -2, 4, -9, 21, -50, 122, -302, 758]

    def test_a2_printed_sequence(self):
        got = pipeline(2, 16).g.integers()
        assert got == [1, 0, 0, -1, 0, -1, 2, -1, 5, -6, 9, -22, 28, -57, 104, -163]
        walk = composition_oracle.pipeline_stages(2, 16)[-1]
        assert pipeline(2, 16).g.coeffs == walk == g_family(FamilyParams.of(0, -1, 1), 16).coeffs

    def test_a_minus3_printed_sequence(self):
        got = pipeline(-3, 11).g.integers()
        assert got == [1, 5, 25, 124, 610, 2979, 14457, 69784, 335330, 1605334, 7662014]

    def test_trace_stage_relations(self, rng):
        params = [Fraction(3), Fraction(1), Fraction(-3), Fraction(5, 2), Fraction(-11, 2)]
        params += [rand_fraction(rng) for _ in range(5)]
        for a in params:
            branch, stripped, fraction, reverted, f, _ = (
                Series(c) for c in composition_oracle.pipeline_stages(a, 12))
            # branch y = x + O(x^2) drops its first two terms to make the stripped stage
            assert branch[1] == 1
            assert (branch - Series.x(12)).unshift(2).coeffs == stripped.coeffs[:10]
            # stripped recombines into the fraction stage, which collapses to
            # 1/(1 - y) = 2/(1 - a*x + sqrt(1 + 2(a-2)x + a^2 x^2 + 4x^3))
            rebuilt = 1 / (Series([1, -1], 12) - stripped.shift(2).truncate(12))
            assert rebuilt == fraction
            radicand = Series([1, 2 * (a - 2), a * a, 4], 12)
            assert fraction == 2 / (Series([1, -a], 12) + radicand.sqrt())
            # the reverted stage really is the reversion of x * fraction
            assert reverted.valuation() == 1
            assert fraction.shift(1).truncate(12).revert().coeffs == reverted.coeffs[:12]
            assert f == f_from_curve(a, 12)

    def test_rejects_order_below_one(self):
        for a in (Fraction(1), Fraction(3), Fraction(-11, 2)):
            for order in (0, -1):
                for stage in (pipeline, f_from_curve):
                    with pytest.raises(ValueError, match="^order must be at least 1$"):
                        stage(a, order)

    def test_never_builds_the_branch(self, rng, monkeypatch):
        cases = [(Fraction(1), 14), (Fraction(-3), 11), (Fraction(-11, 2), 30)]
        cases += [(rand_fraction(rng), rng.randint(1, 30)) for _ in range(3)]
        want = [pipeline(a, n) for a, n in cases]

        def refuse(*args):
            raise AssertionError("pipeline must not solve for the branch")

        monkeypatch.setattr(riopi.elliptic, "curve_branch", refuse)
        for (a, n), trace in zip(cases, want):
            assert pipeline(a, n) == trace

    def test_pipeline_output_is_always_involutory(self, rng):
        for _ in range(5):
            a = rand_fraction(rng)
            assert is_pseudo_involution(pipeline(a, 10).g)

    def test_a1_degenerate_assembly_denominator(self):
        # at a = 1 the paper's h divides by a valuation-2 series; this pins
        # pipeline's g to the paper's walk and the walk to the b = 0 member
        trace = pipeline(1, 14)
        walk = composition_oracle.pipeline_stages(1, 14)[-1]
        assert trace.g.coeffs == walk == g_family(FamilyParams.of(1, 0, 1), 14).coeffs


class TestIntermediateF:
    def test_printed_expansions(self):
        assert f_from_curve(0, 15).integers() == [
            1, 0, 1, -1, 1, -1, 0, 0, 0, -2, 4, -4, -1, 11, -16]
        assert f_from_curve(3, 14).integers() == [
            1, 0, 1, -1, 4, -10, 30, -84, 237, -653, 1771, -4699, 12173, -30625]

    def test_unit_constant_term(self, rng):
        for _ in range(6):
            assert f_from_curve(rand_fraction(rng), 8)[0] == 1

    def test_agrees_with_pipeline(self, rng):
        # f_from_curve is the walk's f stage, and pipeline's g its last stage
        for a in (Fraction(1), Fraction(-2), Fraction(2, 3)):
            stages = composition_oracle.pipeline_stages(a, 14)
            assert f_from_curve(a, 14).coeffs == stages[-2]
            assert pipeline(a, 14).g.coeffs == stages[-1]


class TestBSequence:
    def test_a_minus3(self):
        cb = b_from_curve(-3, terms=5)
        assert cb.numerator == (5, 19)
        assert cb.denominator == (1, 4)
        assert list(cb.prefix.values) == [5, -1, 4, -16, 64]

    def test_rejects_no_terms(self):
        for terms in (0, -1):
            with pytest.raises(ValueError, match="^terms must be at least 1$"):
                b_from_curve(-3, terms=terms)

    def test_table_rows(self):
        table = {
            0: [2, -1, 1, -1, 1, -1],
            1: [1, -1, 0, 0, 0],
            2: [0, -1, -1, -1],
            3: [-1, -1, -2, -4, -8],
            4: [-2, -1, -3, -9, -27],
            5: [-3, -1, -4, -16],
        }
        for a, row in table.items():
            assert list(b_from_curve(a, terms=len(row)).prefix.values) == row

    def test_general_shape(self, rng):
        # 2-a, -1, then -(a-1)^(n-1)
        for _ in range(5):
            a = rand_fraction(rng)
            values = b_from_curve(a, terms=8).prefix.values
            assert values[0] == 2 - a
            assert all(values[n] == -((a - 1) ** (n - 1)) for n in range(1, 8))

    def test_matches_extraction_from_pipeline(self, rng):
        # the closed form must hold on the paper's g by the Horner route,
        # which shares no code with the read-off
        for a in (Fraction(-3), Fraction(4), Fraction(1, 2)):
            g = pipeline(a, 17).g
            assert g.coeffs == composition_oracle.pipeline_stages(a, 17)[-1]
            extracted = b_extract(g)
            closed = b_from_curve(a, terms=extracted.certified)
            assert extracted.values == closed.prefix.values
            assert riordan_oracle.b_identity_mismatch(g, closed.prefix.values) is None


class TestFamilyCoordinates:
    @pytest.mark.parametrize("a,expected", [
        (2, (0, -1, 1)),
        (3, (-1, -2, -1)),
        (0, (2, 1, -1)),
    ])
    def test_known_points(self, a, expected):
        p = family_params_from_curve(a)
        assert (p.a, p.b, p.c) == tuple(Fraction(v) for v in expected)

    def test_pipeline_equals_family_member(self, rng):
        for _ in range(20):
            a = rand_fraction(rng)
            params = family_params_from_curve(a)
            walk = composition_oracle.pipeline_stages(a, 24)[-1]
            assert pipeline(a, 24).g.coeffs == walk == g_family(params, 24).coeffs

    def test_curve_weight_is_always_one(self, rng):
        # (2-a)(1-a) - (a^2 - 3a + 1) = 1, so alpha = (ab+c)^2 = 1
        for _ in range(8):
            a = rand_fraction(rng)
            assert family_params_from_curve(a).somos_weight == 1

    def test_closing_continued_fraction(self, rng):
        for _ in range(5):
            a = rand_fraction(rng, 3)
            alpha = Series([1, a - 2, a - 1], 16)
            beta = Series([0, 0, a - 1, 1 - 3 * a + a * a], 16)
            assert cf_eval([(alpha, beta)], 16).coeffs == pipeline(a, 16).g.coeffs


class TestCurveHankel:
    def test_g_hankel_prefix(self, rng):
        for _ in range(4):
            a = rand_fraction(rng, 3)
            h = hankel_transform(pipeline(a, 13).g.coeffs).values
            assert h[:6] == (1, 0, -1, -1, 1 - a, -a * a + 3 * a - 1)

    def test_f_hankel_prefix(self, rng):
        for _ in range(4):
            a = rand_fraction(rng, 3)
            h = hankel_transform(f_from_curve(a, 13).coeffs).values
            assert h[:5] == (1, 1, a - 1, a * a - 3 * a + 1,
                             -a ** 3 + 4 * a * a - 6 * a + 2)

    def test_f_hankel_is_the_member_transform_shifted(self, rng):
        # identity (iii): h(f)_(n+1) = h(companion(m))_n for the curve's
        # member m, and h(f)_n = -h(g)_(n+2) for n >= 1
        curves = [Fraction(1), Fraction(-3)] + [rand_fraction(rng, 6, (1, 2, 3, 7))
                                                for _ in range(38)]
        for a in curves:
            h_f = hankel_transform(f_from_curve(a, 25)).values
            h_comp = hankel_transform(companion(family_params_from_curve(a), 25)).values
            h_g = hankel_transform(pipeline(a, 25).g).values
            assert h_f[1:] == h_comp[:-1], a
            assert h_f[1:-2] == tuple(-v for v in h_g[3:]), a
        assert sum(a.denominator > 1 for a in curves) >= 15

    def test_somos_check_printed_cases(self):
        rep = curve_somos_check(-3, 16)
        assert rep.ok and rep.params.beta == 4
        rep = curve_somos_check(0, 16)
        assert rep.ok and rep.params.beta == 1

    def test_a1_is_degenerate(self):
        rep = curve_somos_check(1, 16)
        assert rep.ok
        assert rep.params == type(rep.params)(Fraction(1), Fraction(0))
        assert rep.degenerate

    def test_a0_transform_is_printed_divisibility_sequence(self):
        values = hankel_transform(f_from_curve(0, 16).coeffs).values
        assert list(values)[:8] == [1, 1, -1, 1, 2, -1, -3, -5]


class TestMoebiusStage:
    # pipeline takes f in closed form and g as the curve's family member;
    # these tests pin both to the paper's walk, which reaches f from the
    # curve's branch by reverting the fraction stage, forms h from f and
    # applies the Riordan array (1/(1+cx), -x/(1+cx)), c = a-1, to h by the
    # fundamental theorem (a Horner composition).
    def test_every_stage_equals_ftra_oracle(self, rng):
        params = [Fraction(1), Fraction(2), Fraction(-3), Fraction(-11, 2)]
        params += [rand_fraction(rng, 12, (1, 2, 3, 5, 7)) for _ in range(98)]
        for a in params:
            order = rng.randint(1, 50)
            f, g = f_from_curve(a, order), pipeline(a, order).g
            assert f.order == g.order == order
            assert (f.coeffs, g.coeffs) == \
                composition_oracle.pipeline_stages(a, order)[-2:], (a, order)

    def test_stage_never_composes(self, rng, monkeypatch):
        cases = [(Fraction(-11, 2), 40), (Fraction(1), 20), (Fraction(2), 9)]
        cases += [(rand_fraction(rng), rng.randint(1, 30)) for _ in range(5)]
        want = [pipeline(a, n) for a, n in cases]

        def refuse(*args):
            raise AssertionError("the pipeline must not revert, compose or divide")

        # the certificate runs as well: it reads B off g, and composes and
        # divides nothing
        monkeypatch.setattr(Series, "revert", refuse)
        monkeypatch.setattr(Series, "compose", refuse)
        monkeypatch.setattr(Series, "_divide", refuse)
        for (a, n), trace in zip(cases, want):
            assert pipeline(a, n) == trace
