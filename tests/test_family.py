from fractions import Fraction

import pytest

from riopi.family import (
    FamilyParams,
    binomial,
    binomial_transform,
    companion,
    g_ad,
    g_family,
    narayana,
)
from riopi.hankel import hankel_transform
from riopi.riordan import a_from_g, is_pseudo_involution
from riopi.series import Series

import composition_oracle
from conftest import rand_fraction
from family_oracle import (
    a_family,
    binomial_transform_sum,
    companion_cf,
    g_family_cf,
    g_recurrence_c0,
    sum_ab,
    sum_ab_alt,
    sum_abc,
    sum_ad,
)


def params_of(rng, span=3):
    return FamilyParams.of(*(rand_fraction(rng, span) for _ in range(3)))


def shaped_members(rng, count):
    """Seeded integer and p/q members (denominators 2, 3, 7): about a
    quarter with b = 0 and a quarter with ab + c = 0."""
    members = []
    for _ in range(count):
        a, b, c = (rand_fraction(rng, 3, (1, 1, 2, 3, 7)) for _ in range(3))
        shape = rng.randrange(4)
        if shape == 0:
            b = 0
        elif shape == 1:
            c = -a * b
        members.append(FamilyParams.of(a, b, c))
    return members


class TestExpansions:
    @pytest.mark.parametrize("abc,expected", [
        ((2, -1, 1), [1, 2, 4, 9, 22, 57, 154, 429, 1223, 3550, 10455]),
        ((2, -2, 3), [1, 2, 4, 9, 22, 58, 162, 472, 1418, 4357, 13618]),
        ((-1, 2, 1), [1, -1, 1, 0, -2, 3, 1, -12, 20, 4, -84]),
        ((-1, -2, -1), [1, -1, 1, -2, 4, -9, 21, -50, 122, -302, 758]),
        ((0, 0, 0), [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ])
    def test_g_family_prefixes(self, abc, expected):
        assert g_family(FamilyParams.of(*abc), 11).integers() == expected

    @pytest.mark.parametrize("ad,expected", [
        ((1, 1), [1, 1, 1, 2, 4, 7, 13, 26, 52, 104, 212]),
        ((1, 2), [1, 1, 1, 3, 7, 13, 29, 71, 163, 377, 913]),
        ((2, 1), [1, 2, 4, 9, 22, 56, 146, 388, 1048, 2869, 7942]),
        ((0, 0), [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ])
    def test_g_ad_prefixes(self, ad, expected):
        assert g_ad(*ad, 11).integers() == expected

    def test_ad_embeds_in_family(self, rng):
        for _ in range(6):
            a, d = rand_fraction(rng), rand_fraction(rng)
            assert (g_ad(a, d, 12).coeffs
                    == g_family(FamilyParams.from_ad(a, d), 12).coeffs)

    def test_leading_symbolic_terms(self, rng):
        for _ in range(6):
            p = params_of(rng)
            a, b, c = p.a, p.b, p.c
            g = g_family(p, 6)
            assert list(g.coeffs) == [
                1, a, a * a, a ** 3 - a * b - c, a ** 4 - 3 * a * a * b - 3 * a * c,
                a ** 5 - 6 * a ** 3 * b - 6 * a * a * c + a * b * b + b * c]


class TestContinuedFractions:
    @pytest.mark.parametrize("abc,expected", [
        ((1, -1, 0), [1, 1, 1, 2, 4, 8, 17, 37, 82]),
        ((2, -1, 0), [1, 2, 4, 10, 28, 82, 248, 770, 2440]),
        ((1, 0, -1), [1, 1, 1, 2, 4, 7, 13, 26, 52]),
    ])
    def test_printed_cf_expansions(self, abc, expected):
        assert g_family_cf(FamilyParams.of(*abc), 9).integers() == expected

    def test_cf_matches_closed_form(self, rng):
        for _ in range(20):
            p = params_of(rng)
            assert g_family_cf(p, 24).coeffs == g_family(p, 24).coeffs

    def test_b_over_one_minus_bx_sign_convention(self, rng):
        # the B = a/(1-bx) fraction, with levels 1-ax+bx^2 and b*x^2
        # literally as printed, is the (a, -b, 0) member
        from riopi.series import cf_eval
        for _ in range(6):
            a, b = rand_fraction(rng), rand_fraction(rng)
            alpha = Series([1, -a, b], 14)
            beta = Series([0, 0, b], 14)
            got = cf_eval([(alpha, beta)], 14)
            assert got.coeffs == g_family(FamilyParams.of(a, -b, 0), 14).coeffs


class TestRecurrence:
    @pytest.mark.parametrize("ab,expected", [
        ((1, -1), [1, 1, 1, 2, 4, 8, 17, 37, 82]),
        ((2, -1), [1, 2, 4, 10, 28, 82, 248, 770, 2440]),
    ])
    def test_printed(self, ab, expected):
        assert g_recurrence_c0(*ab, 9).integers() == expected

    def test_b_zero_degenerates_to_powers(self, rng):
        a = rand_fraction(rng)
        got = g_recurrence_c0(a, 0, 9)
        assert list(got.coeffs) == [a ** n for n in range(9)]

    def test_matches_family(self, rng):
        for _ in range(8):
            a, b = rand_fraction(rng), rand_fraction(rng)
            assert (g_recurrence_c0(a, b, 16).coeffs
                    == g_family(FamilyParams.of(a, b, 0), 16).coeffs)


class TestSumOracles:
    def test_sum_ad_values(self):
        assert sum_ad(0, 1, 1) == 1
        assert sum_ad(6, 1, 1) == 13
        assert sum_ad(10, 2, 1) == 7942

    def test_sum_ab_values(self):
        assert sum_ab(0, 1, -1) == 1
        assert sum_ab(8, 1, -1) == 82
        assert sum_ab(5, 2, -1) == 82

    def test_sum_abc_values(self):
        assert sum_abc(0, FamilyParams.of(2, -1, 1)) == 1
        assert sum_abc(10, FamilyParams.of(2, -1, 1)) == 10455
        assert sum_abc(5, FamilyParams.of(-1, 2, 1)) == 3

    def test_sum_ad_matches_series(self, rng):
        for _ in range(6):
            a, d = rand_fraction(rng, 3), rand_fraction(rng, 3)
            g = g_ad(a, d, 15)
            assert all(sum_ad(n, a, d) == g[n] for n in range(15))

    def test_both_sum_ab_forms_match_series(self, rng):
        for _ in range(6):
            a, b = rand_fraction(rng, 3), rand_fraction(rng, 3)
            g = g_family(FamilyParams.of(a, b, 0), 15)
            for n in range(15):
                j_form = sum_ab(n, a, b)
                i_form = sum_ab_alt(n, a, b)
                assert j_form == i_form == g[n]

    def test_sum_abc_matches_series(self, rng):
        for _ in range(6):
            p = params_of(rng)
            g = g_family(p, 13)
            assert all(sum_abc(n, p) == g[n] for n in range(13))

    def test_aeration_matrix_identity(self, rng):
        # the printed matrix writing g_n as polynomials in a with d-weights
        def m(d):
            return [
                [1, 0, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 0, 0],
                [d, 0, 0, 1, 0, 0, 0, 0],
                [0, 3 * d, 0, 0, 1, 0, 0, 0],
                [0, 0, 6 * d, 0, 0, 1, 0, 0],
                [2 * d * d, 0, 0, 10 * d, 0, 0, 1, 0],
                [0, 10 * d * d, 0, 0, 15 * d, 0, 0, 1],
            ]
        for _ in range(4):
            a, d = rand_fraction(rng, 3), rand_fraction(rng, 3)
            g = g_ad(a, d, 8)
            powers = [a ** k for k in range(8)]
            for n, row in enumerate(m(d)):
                assert g[n] == sum(row[k] * powers[k] for k in range(8))


class TestCompanion:
    @pytest.mark.parametrize("abc,expected", [
        ((-1, 1, 2), [1, 1, 0, 0, 2, 3, 1, 2, 11, 17, 12]),
        ((-1, -1, -2), [1, 1, 2, 2, 2, -1, -7, -20, -37, -53, -40, 49, 301]),
        ((-1, -2, -1), [1, 1, 3, 6, 14, 33, 79, 194, 482, 1214, 3090, 7936, 20544]),
        ((1, 2, -1), [1, -1, -1, 4, -4, -5, 23, -28, -28, 164, -232, -166]),
    ])
    def test_printed_expansions(self, abc, expected):
        p = FamilyParams.of(*abc)
        assert companion(p, len(expected)).integers() == expected

    def test_cf_agrees(self, rng):
        for _ in range(8):
            p = params_of(rng)
            assert companion_cf(p, 16).coeffs == companion(p, 16).coeffs

    def test_leading_symbolic_terms(self, rng):
        for _ in range(6):
            p = params_of(rng)
            a, b, c = p.a, p.b, p.c
            got = companion(p, 4)
            assert list(got.coeffs) == [1, -a, a * a - b, -a ** 3 + 3 * a * b + c]

    def test_relates_to_a_family(self, rng):
        # A(x) = 1 + a*x - (ab+c) * x^3 * companion(x)
        for _ in range(5):
            p = params_of(rng)
            comp = companion(p, 16)
            expected = Series([1, p.a], 16) - p.somos_weight * comp.shift(3).truncate(16)
            assert a_family(p, 16).coeffs == expected.coeffs

    def test_a_from_g_is_the_companion_form(self, rng):
        # identity (i) on the library's own builds: 1/g(-x) = 1 + a*x
        # - (ab+c) * x^3 * companion(x), ab + c = 0 included
        members = shaped_members(rng, 120)
        for p in members:
            tail = companion(p, 24).shift(3).truncate(24)
            expected = Series([1, p.a], 24) - p.somos_weight * tail
            assert a_from_g(g_family(p, 24)) == expected, p
        assert sum(p.somos_weight == 0 for p in members) >= 20
        assert sum(p.b == 0 for p in members) >= 20
        assert sum(any(v.denominator > 1 for v in (p.a, p.b, p.c)) for p in members) >= 60

    def test_companion_hankel_is_the_family_tail_rescaled(self, rng):
        # identity (ii), k = ab + c != 0: h(companion)_n = -h(g)_(n+3) / k^(2n+4);
        # with (i), the A-tail from a_3, -k * companion, has h_n = (-k)^(n+1) * h(companion)_n
        members = [p for p in shaped_members(rng, 120) if p.somos_weight != 0]
        for p in members:
            k = p.somos_weight
            h_comp = hankel_transform(companion(p, 27)).values
            h_g = hankel_transform(g_family(p, 27)).values
            assert h_comp[:-3] == tuple(-h_g[n + 3] / k ** (2 * n + 4)
                                        for n in range(len(h_g) - 3)), p
            a_tail = a_from_g(g_family(p, 30)).coeffs[3:]
            assert hankel_transform(a_tail).values == tuple(
                (-k) ** (n + 1) * v for n, v in enumerate(h_comp)), p
        assert len(members) >= 60 and sum(p.b == 0 for p in members) >= 20


class TestBinomialTransform:
    def test_inverse_of_family_member(self):
        g = g_family(FamilyParams.of(2, -1, 1), 12)
        got = binomial_transform(g.coeffs, c=-1)
        assert got == [1, 1, 1, 2, 3, 6, 11, 22, 44, 90, 187, 392]

    def test_zero_fixed_point(self):
        assert binomial_transform([0] * 6) == [0] * 6

    def test_involution_pair(self, rng):
        seq = [rand_fraction(rng) for _ in range(10)]
        assert binomial_transform(binomial_transform(seq), c=-1) == seq
        assert binomial_transform(binomial_transform(seq, c=-1)) == seq

    def test_matches_sum_oracle(self, rng):
        # the difference table against the term-by-term double sum, on p/q
        # sequences of every length 0-40 and c = 1, -1 or a random p/q
        for length in range(41):
            seq = [rand_fraction(rng, 9, (1, 2, 3, 5, 7)) for _ in range(length)]
            c = rng.choice([1, -1, rand_fraction(rng, 9, (2, 3, 5, 7))])
            got = binomial_transform(seq, c)
            assert got == binomial_transform_sum(seq, c), (seq, c)
            assert all(type(t) is Fraction for t in got)


class TestNarayana:
    def test_row_six(self):
        assert [narayana(6, k) for k in range(7)] == [0, 1, 15, 50, 50, 15, 1]

    def test_entries_are_ints(self):
        # the closed form's division is exact: Narayana numbers are integers
        for n in range(40):
            for k in range(n + 1):
                got = narayana(n, k)
                assert type(got) is int
                assert got == Fraction(binomial(n, k) * binomial(n - 1, n - k), n - k + 1)

    def test_corner(self):
        assert narayana(0, 0) == 1
        assert narayana(4, 2) == 6

    def test_printed_triangle(self):
        rows = [
            (1,),
            (0, 1),
            (0, 1, 1),
            (0, 1, 3, 1),
            (0, 1, 6, 6, 1),
            (0, 1, 10, 20, 10, 1),
            (0, 1, 15, 50, 50, 15, 1),
        ]
        for n, row in enumerate(rows):
            assert tuple(narayana(n, k) for k in range(n + 1)) == row

    def test_diagonal_sum_identity(self):
        # sum_{k <= n/2} sum_j binom(n-k, j) N(j, k) gives the prepended-1
        # variant of the (2, -1, 1) member
        g = g_family(FamilyParams.of(2, -1, 1), 16)
        target = [Fraction(1)] + list(g.coeffs)
        for n in range(17):
            total = sum(binomial(n - k, j) * narayana(j, k)
                        for k in range(n // 2 + 1)
                        for j in range(k, n - k + 1))
            assert total == target[n]

    def test_bounds(self):
        with pytest.raises(ValueError):
            narayana(3, 4)
        with pytest.raises(ValueError):
            narayana(3, -1)


class TestBinomialHelper:
    def test_small_values(self):
        assert binomial(5, 2) == 10
        assert binomial(5, 0) == 1
        assert binomial(5, 6) == 0
        assert binomial(5, -1) == 0

    def test_negative_upper_index(self):
        assert binomial(-1, 0) == 1
        assert binomial(-1, 1) == -1
        assert binomial(-2, 3) == -4


class TestFourWayAgreement:
    def test_family_routes_agree(self, rng):
        for _ in range(20):
            p = params_of(rng)
            g = g_family(p, 24)
            assert g_family_cf(p, 24).coeffs == g.coeffs
            assert all(sum_abc(n, p) == g[n] for n in range(13))
            if p.c == 0:
                assert g_recurrence_c0(p.a, p.b, 24).coeffs == g.coeffs

    def test_every_member_is_a_pseudo_involution(self, rng):
        for _ in range(6):
            p = params_of(rng)
            assert is_pseudo_involution(g_family(p, 12))


class TestCatalanClosedForm:
    # The builds solve num*g^2 - den*g + 1 = 0; the oracle substitutes
    # into the Catalan series by Horner composition.
    def test_equals_horner_composition_oracle(self, rng):
        dens = (1, 1, 2, 3, 5, 7)
        for i in range(200):
            # every fifth member has b = 0 or c = 0
            a, b, c = (rand_fraction(rng, 9, dens) for _ in range(3))
            if i % 5 == 0:
                b, c = (b, Fraction(0)) if i % 10 else (Fraction(0), c)
            p = FamilyParams(a, b, c)
            order = rng.randint(1, 45)
            for build, oracle in ((g_family, composition_oracle.g_family),
                                  (companion, composition_oracle.companion),
                                  (a_family, composition_oracle.a_family)):
                got, want = build(p, order), oracle(p, order)
                assert got.order == order
                assert got == want, (build.__name__, p, order)
                assert all(type(v) is Fraction for v in got)
            assert g_ad(a, c, order) == composition_oracle.g_ad(a, c, order), (a, c, order)

    def test_builds_never_compose(self, rng, monkeypatch):
        cases = [(params_of(rng), rng.randint(1, 40)) for _ in range(12)]
        want = [(g_family(p, n), companion(p, n), a_family(p, n), g_ad(p.a, p.c, n))
                for p, n in cases]

        def no_compose(self, inner):
            raise AssertionError("the family builds must not compose")

        monkeypatch.setattr(Series, "compose", no_compose)
        with pytest.raises(AssertionError):
            Series([1, 1]).compose(Series([0, 1]))
        for (p, n), expected in zip(cases, want):
            assert (g_family(p, n), companion(p, n), a_family(p, n),
                    g_ad(p.a, p.c, n)) == expected
