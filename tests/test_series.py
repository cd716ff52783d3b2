import math
from fractions import Fraction

import pytest

from riopi.series import (
    CompositionConstantTerm,
    DivisionByHigherValuation,
    NonConvergent,
    NotRevertible,
    Series,
    SqrtConstantTerm,
    catalan,
    cf_eval,
)

from conftest import rand_series_coeffs


def catalan_oracle(n):
    # independent of the series module
    return Fraction(math.comb(2 * n, n), n + 1)


def geometric(order):
    return 1 / Series([1, -1], order)


class TestConstruction:
    def test_poly_constructor_pads_and_truncates(self):
        s = Series([1, 2], 5)
        assert s.coeffs == (1, 2, 0, 0, 0)
        assert Series([1, 2, 3], 2).coeffs == (1, 2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Series([0.5], 3)

    def test_truncate_rejects_order_below_one(self):
        s = Series([1, 2, 3])
        for order in (0, -1, -3):
            with pytest.raises(ValueError, match="^order must be at least 1$"):
                s.truncate(order)
        with pytest.raises(ValueError, match="^cannot extend order 3 to 4$"):
            s.truncate(4)
        assert s.truncate(1).coeffs == (1,)

    def test_valuation(self):
        assert Series([0, 0, 3], 5).valuation() == 2
        assert Series.zero(4).valuation() == 4
        assert Series([7], 3).valuation() == 0


class TestRingOps:
    def test_add_cancellation(self):
        s = Series([1, 1], 6) + Series([1, -1], 6)
        assert s.coeffs == (2, 0, 0, 0, 0, 0)

    def test_add_identity(self):
        c = catalan(8)
        assert (c + Series.zero(8)).coeffs == c.coeffs

    def test_add_catalan_doubles(self):
        doubled = catalan(10) + catalan(10)
        assert [doubled[n] for n in range(10)] == [2 * catalan_oracle(n) for n in range(10)]

    def test_min_order_propagates(self):
        assert (Series([1], 9) + Series([1], 5)).order == 5
        assert (Series([1, 1], 9) * Series([1], 7)).order == 7

    def test_mul(self):
        assert (Series([1, 1], 6) * Series([1, -1], 6)).coeffs == (1, 0, -1, 0, 0, 0)
        shifted = Series.x(8) * catalan(8)
        assert shifted.integers() == [0, 1, 1, 2, 5, 14, 42, 132]

    def test_mul_identity(self):
        c = catalan(9)
        assert (c * Series.one(9)).coeffs == c.coeffs

    def test_scalar_mixing(self):
        s = 2 * Series([1, 1], 4) - 1
        assert s.coeffs == (1, 2, 0, 0)
        assert (s / 2).coeffs == (Fraction(1, 2), 1, 0, 0)


class TestDivision:
    def test_polynomial_quotient(self):
        q = Series([1, 0, -1], 6) / Series([1, -1], 6)
        assert q.coeffs == (1, 1, 0, 0, 0, 0)

    def test_geometric(self):
        assert geometric(7).integers() == [1] * 7

    def test_catalan_shift_identity(self):
        # c(x) = 1 + x*c(x)^2 makes (c-1)/x the shifted Catalan sequence
        q = (catalan(9) - 1) / Series.x(9)
        assert [q[n] for n in range(8)] == [catalan_oracle(n + 1) for n in range(8)]

    def test_order_drops_by_divisor_valuation(self):
        q = Series([0, 0, 1, 1], 10) / Series([0, 0, 1], 10)
        assert q.order == 8
        assert q.coeffs[:2] == (1, 1)

    def test_div_undoes_mul(self, rng):
        for _ in range(12):
            s = Series(rand_series_coeffs(rng, 9))
            t = Series([1] + rand_series_coeffs(rng, 8))
            assert ((s * t) / t).coeffs == s.coeffs

    def test_higher_valuation_divisor_rejected(self):
        with pytest.raises(DivisionByHigherValuation):
            Series([1, 1], 5) / Series([0, 1], 5)
        with pytest.raises(DivisionByHigherValuation):
            Series([1], 5) / Series.zero(5)


class TestCompose:
    def test_mobius_pair(self):
        outer = geometric(8)
        inner = Series.x(8) / Series([1, 1], 8)
        assert outer.compose(inner).coeffs == (1, 1, 0, 0, 0, 0, 0, 0)

    def test_compose_with_zero(self):
        assert catalan(6).compose(Series.zero(6)).coeffs == (1, 0, 0, 0, 0, 0)

    def test_compose_with_x_is_identity(self):
        c = catalan(7)
        assert c.compose(Series.x(7)).coeffs == c.coeffs

    def test_constant_term_rejected(self):
        with pytest.raises(CompositionConstantTerm):
            catalan(5).compose(Series.one(5))

    def test_inner_valuation_at_least_order_gives_constant(self):
        outer = Series([3, 1, 4, 1, 5, 9], 6)
        for inner in (Series([0] * 6 + [1], 8), Series([0] * 7 + [2], 9),
                      Series([0, 0, 0, 1], 3)):
            got = outer.compose(inner)
            assert got.coeffs == (3,) + (0,) * (got.order - 1)
            assert got.order == min(outer.order, inner.order)

    def test_horner_stops_at_inner_valuation(self, monkeypatch):
        # inner^k vanishes at order n once k*v >= n, so compose performs
        # exactly (n-1)//v series-by-series products.
        products = []
        original = Series.__mul__

        def counting(self, other):
            if isinstance(other, Series):
                products.append(other.order)
            return original(self, other)

        monkeypatch.setattr(Series, "__mul__", counting)
        outer = catalan(40)
        for n in (1, 2, 7, 24, 40):
            for v in range(1, 6):
                products.clear()
                outer.compose(Series([0] * v + [1, 1], n))
                assert len(products) == (n - 1) // v, (n, v)


class TestKernelErrors:
    def test_typed_errors_and_messages(self):
        s = Series([1, 2, 3], 5)
        with pytest.raises(DivisionByHigherValuation, match="^division by a zero series$"):
            s / Series.zero(5)
        with pytest.raises(DivisionByHigherValuation, match="^division by a zero series$"):
            1 / Series.zero(5)
        with pytest.raises(DivisionByHigherValuation,
                           match="^divisor valuation 2 exceeds dividend valuation 1$"):
            Series([0, 1], 5) / Series([0, 0, 1], 5)
        with pytest.raises(ZeroDivisionError, match="^division by zero scalar$"):
            s / 0
        with pytest.raises(ZeroDivisionError, match="^division by zero scalar$"):
            s / Fraction(0)
        for head in (0, -1, 2, Fraction(1, 2)):
            with pytest.raises(SqrtConstantTerm, match="^square root requires constant term 1$"):
                Series([head, 1], 4).sqrt()
        with pytest.raises(CompositionConstantTerm,
                           match="^inner series must have zero constant term$"):
            catalan(5).compose(Series([Fraction(-1, 3), 1], 5))


class TestRevert:
    def test_standard_pair(self):
        f = Series.x(9) / Series([1, -1], 9)
        expected = Series.x(9) / Series([1, 1], 9)
        assert f.revert().coeffs == expected.coeffs

    def test_revert_x(self):
        assert Series.x(6).revert().coeffs == Series.x(6).coeffs

    def test_round_trips_random(self, rng):
        x = Series.x(10)
        for _ in range(10):
            f = Series([0, rng.choice([1, -1, 2])] + rand_series_coeffs(rng, 8))
            fbar = f.revert()
            assert f.compose(fbar).coeffs == x.coeffs
            assert fbar.compose(f).coeffs == x.coeffs

    def test_not_revertible(self):
        with pytest.raises(NotRevertible):
            Series([1, 1], 5).revert()
        with pytest.raises(NotRevertible):
            Series([0, 0, 1], 5).revert()


class TestSqrt:
    def test_perfect_square(self):
        assert Series([1, 2, 1], 6).sqrt().coeffs == (1, 1, 0, 0, 0, 0)

    def test_sqrt_squares_back(self, rng):
        for _ in range(10):
            s = Series([1] + rand_series_coeffs(rng, 8))
            r = s.sqrt()
            assert (r * r).coeffs == s.coeffs
            assert r[0] == 1

    def test_one_minus_4x(self):
        r = Series([1, -4], 8).sqrt()
        assert (r * r).coeffs == Series([1, -4], 8).coeffs
        assert r.integers()[:4] == [1, -2, -2, -4]

    def test_catalan_from_sqrt(self):
        c = (1 - Series([1, -4], 13).sqrt()) / Series([0, 2], 13)
        assert c.integers()[:6] == [1, 1, 2, 5, 14, 42]
        assert c.coeffs == catalan(12).coeffs

    def test_constant_term_must_be_one(self):
        with pytest.raises(SqrtConstantTerm):
            Series([4], 4).sqrt()


class TestCatalan:
    def test_prefix(self):
        assert catalan(6).integers() == [1, 1, 2, 5, 14, 42]

    def test_against_oracle(self):
        c = catalan(20)
        assert [c[n] for n in range(20)] == [catalan_oracle(n) for n in range(20)]

    def test_functional_equation(self):
        # c = 1 + x*c^2
        c = catalan(16)
        assert (1 + Series.x(16) * c * c).coeffs == c.coeffs


class TestContinuedFraction:
    def test_catalan_cf(self):
        got = cf_eval([(Series.one(10), Series.x(10))], 10)
        assert got.coeffs == catalan(10).coeffs

    def test_rna_sequence(self):
        # period-1 levels for the (1, -1, 0) family member
        alpha = Series([1, -1, 1], 9)
        beta = Series([0, 0, 1], 9)
        assert cf_eval([(alpha, beta)], 9).integers() == [1, 1, 1, 2, 4, 8, 17, 37, 82]

    def test_period_two(self):
        # alternating levels produce the prepended variant of a family member
        levels = [(Series([1, -1], 8), Series([0, 0, 1], 8)),
                  (Series.one(8), Series.x(8))]
        assert cf_eval(levels, 8).integers() == [1, 1, 2, 4, 9, 22, 57, 154]

    def test_zero_valuation_beta_rejected(self):
        with pytest.raises(NonConvergent):
            cf_eval([(Series.one(6), Series.one(6))], 6)

    def test_alpha_needs_unit_constant(self):
        with pytest.raises(ValueError):
            cf_eval([(Series([2], 6), Series.x(6))], 6)


class TestEquality:
    def test_common_prefix_semantics(self):
        assert Series([1, 2], 2) == Series([1, 2, 3], 3)
        assert Series([1, 2], 2) != Series([1, 3], 2)

    def test_shift_unshift(self):
        s = Series([1, 2, 3], 3)
        assert s.shift(2).coeffs == (0, 0, 1, 2, 3)
        assert s.shift(2).unshift(2).coeffs == s.coeffs
        with pytest.raises(DivisionByHigherValuation):
            s.unshift(1)
