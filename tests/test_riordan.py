import math
from dataclasses import replace
from fractions import Fraction

import pytest

import riordan_oracle as oracle

from riopi.elliptic import pipeline
from riopi.family import FamilyParams, a_family, g_ad, g_family
from riopi.riordan import (
    NoBSequence,
    OutOfOrder,
    ProductionMatrix,
    RiordanArray,
    SelfCheckError,
    _b_identity_mismatch,
    a_from_b,
    a_from_g,
    b_extract,
    bell,
    is_pseudo_involution,
)
from riopi.series import Series, catalan

from conftest import rand_fraction


def pascal(order=12):
    g = 1 / Series([1, -1], order)
    return RiordanArray(g, Series.x(order) / Series([1, -1], order))


def identity_array(order=12):
    return RiordanArray(Series.one(order), Series.x(order))


def dense(array, size):
    tri = array.triangle(size)
    return [[tri[n][k] if k <= n else Fraction(0) for k in range(size)]
            for n in range(size)]


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def random_member(rng, order=10):
    return bell(g_family(FamilyParams.of(*(rand_fraction(rng, 2) for _ in range(3))), order))


def rand_nonzero(rng):
    q = Fraction(0)
    while not q:
        q = rand_fraction(rng, 3)
    return q


def perturbed(g, i, delta):
    coeffs = list(g.coeffs)
    coeffs[i] += delta
    return Series(coeffs)


def family_cases(rng, cases, lo, hi):
    """Random p/q family members of order lo..hi; about half are perturbed
    at one coefficient past the first, half of those at the last."""
    for _ in range(cases):
        order = rng.randint(lo, hi)
        g = g_family(FamilyParams.of(*(rand_fraction(rng, 3) for _ in range(3))), order)
        if order > 1 and rng.random() < 0.5:
            i = order - 1 if rng.random() < 0.5 else rng.randint(1, order - 1)
            g = perturbed(g, i, rand_nonzero(rng))
        yield g


def b_expansion_oracle(a, b, c, terms):
    # (a - c*x)/(1 + b*x) expands to a, then -(ab+c)(-b)^(n-1)
    k = a * b + c
    return [a] + [-(k) * (-b) ** (n - 1) for n in range(1, terms)]


class TestEntry:
    def test_pascal_is_binomial(self):
        p = pascal()
        for n in range(8):
            for k in range(n + 1):
                assert p.entry(n, k) == math.comb(n, k)

    def test_brute_force_expansion_oracle(self):
        # expand g*f^2 by hand for the binomial example
        p = pascal()
        g, f = p.g, p.f
        col2 = g * f * f
        assert p.entry(4, 2) == col2[4] == 6

    def test_bell_diagonal(self):
        arr = bell(g_family(FamilyParams.of(2, -1, 1), 10))
        assert all(arr.entry(n, n) == 1 for n in range(10))

    def test_above_diagonal_zero(self):
        assert pascal().entry(3, 5) == 0

    def test_curve_triangle_entries(self):
        g = pipeline(-3, 8).g
        arr = bell(g)
        assert arr.entry(3, 0) == 124
        assert arr.entry(4, 1) == 498

    def test_out_of_order(self):
        with pytest.raises(OutOfOrder):
            pascal(6).entry(7, 0)


class TestGroupOps:
    def test_multiply_identity(self):
        p = pascal()
        q = p.multiply(identity_array())
        assert q.g.coeffs == p.g.coeffs and q.f.coeffs == p.f.coeffs

    def test_pascal_squared(self):
        sq = pascal().multiply(pascal())
        expected_g = 1 / Series([1, -2], 12)
        expected_f = Series.x(12) / Series([1, -2], 12)
        assert sq.g.coeffs == expected_g.coeffs
        assert sq.f.coeffs[:12] == expected_f.coeffs

    def test_matrix_product_oracle(self, rng):
        for _ in range(5):
            r = random_member(rng)
            s = random_member(rng)
            product = r.multiply(s)
            assert dense(product, 8) == matmul(dense(r, 8), dense(s, 8))

    def test_associativity(self, rng):
        for _ in range(4):
            r, s, t = (random_member(rng) for _ in range(3))
            left = dense(r.multiply(s).multiply(t), 10)
            right = dense(r.multiply(s.multiply(t)), 10)
            assert left == right

    def test_inverse_identity(self):
        inv = identity_array().inverse()
        assert inv.g.coeffs == Series.one(12).coeffs
        assert inv.f.coeffs == Series.x(12).coeffs

    def test_pascal_inverse(self):
        inv = pascal().inverse()
        assert inv.g.coeffs == (1 / Series([1, 1], 12)).coeffs
        assert inv.f.coeffs[:11] == (Series.x(12) / Series([1, 1], 12)).coeffs[:11]

    def test_inverse_antihomomorphism(self, rng):
        for _ in range(3):
            r = random_member(rng)
            s = random_member(rng)
            left = r.multiply(s).inverse()
            right = s.inverse().multiply(r.inverse())
            assert left.g == right.g and left.f == right.f

    def test_signed_bell_array_is_involution(self):
        g = g_family(FamilyParams.of(1, 1, 0), 10)
        signed = RiordanArray(g, -(g.shift(1)))
        sq = dense(signed.multiply(signed), 9)
        assert sq == [[1 if i == j else 0 for j in range(9)] for i in range(9)]


class TestFTRA:
    def test_identity_action(self):
        h = catalan(12)
        assert identity_array().ftra_apply(h).coeffs == h.coeffs

    def test_catalan_route_to_ad_member(self):
        # (1/(1-ax), d*x^3/(1-ax)^2) applied to c(x) is the a+dx member;
        # note the inner f has valuation 3, legal for FTRA use only.
        for a, d in [(1, 1), (2, 1), (1, 2)]:
            den = Series([1, -a], 14)
            arr = RiordanArray(1 / den, Series([0, 0, 0, d], 14) / (den * den))
            got = arr.ftra_apply(catalan(14))
            assert got.coeffs == g_ad(a, d, 14).coeffs

    def test_curve_assembly_step(self):
        # the final stage of the a=3 curve walkthrough lands on g(-1,-2,-1)
        from riopi.elliptic import f_from_curve
        f = f_from_curve(3, 20)
        num = f * Series([1, 2], 20) - 1
        den = (f * Series([2, 3], 20)).shift(1)
        h = num / den
        outer_g = 1 / Series([1, 2], 19)
        arr = RiordanArray(outer_g, -(outer_g.shift(1)))
        got = arr.ftra_apply(h)
        assert got.coeffs[:18] == g_family(FamilyParams.of(-1, -2, -1), 18).coeffs


class TestProduction:
    def test_pascal_a_and_z(self):
        data = pascal().a_and_z()
        assert data.a[:4] == (1, 1, 0, 0)
        assert data.z[:4] == (1, 0, 0, 0)

    def test_identity_a_and_z(self):
        data = identity_array().a_and_z()
        assert data.a[:4] == (1, 0, 0, 0)
        assert data.z[:4] == (0, 0, 0, 0)

    def test_identity_production_matrix(self):
        p = identity_array().production_matrix(5)
        expected = [[1 if j == i + 1 else 0 for j in range(5)] for i in range(5)]
        assert p.integers() == expected

    def test_curve_production_fragment(self):
        g = pipeline(-3, 9).g
        rows = bell(g).production_matrix(5).integers()
        assert rows == [[5, 1, 0, 0, 0],
                        [0, 5, 1, 0, 0],
                        [-1, 0, 5, 1, 0],
                        [5, -1, 0, 5, 1],
                        [-21, 5, -1, 0, 5]]

    def test_bell_first_row(self, rng):
        # first production row of a Bell array is (g_1, 1)
        for _ in range(4):
            g = g_family(FamilyParams.of(*(rand_fraction(rng, 2) for _ in range(3))), 9)
            row = bell(g).production_matrix(3)[0]
            assert row[0] == g[1] and row[1] == 1

    def test_dense_cross_check_runs(self, rng):
        for _ in range(3):
            arr = random_member(rng)
            assert arr.production_matrix(6).rows == oracle.production_dense(arr, 6)

    def test_matches_dense_oracle_at_every_size(self, rng):
        arrays = [pascal(), identity_array(), random_member(rng)]
        arrays += [bell(g) for g in family_cases(rng, 8, 3, 14)]
        for _ in range(3):  # not Bell: f is not x*g
            order = rng.randint(3, 12)
            arrays.append(RiordanArray(
                Series([1] + [rand_fraction(rng) for _ in range(order - 1)]),
                Series([0, rand_nonzero(rng)] + [rand_fraction(rng) for _ in range(order - 2)])))
        for arr in arrays:
            for size in range(1, arr.order):
                assert arr.production_matrix(size).rows == oracle.production_dense(arr, size), \
                    (arr, size)

    def test_tampered_a_and_z_raises(self, rng, monkeypatch):
        for arr in (pascal(8), random_member(rng, 8)):
            data = arr.a_and_z()
            size = arr.order - 2
            for name in ("z", "a"):
                for i in range(size):
                    seq = list(getattr(data, name))
                    seq[i] += rand_nonzero(rng)
                    tampered = replace(data, **{name: tuple(seq)})
                    monkeypatch.setattr(RiordanArray, "a_and_z", lambda self, t=tampered: t)
                    with pytest.raises(SelfCheckError):
                        arr.production_matrix(size)

    def test_matrix_view_of_z_and_a(self):
        p = ProductionMatrix(z=(Fraction(1, 2), Fraction(0), Fraction(3)),
                             a=(Fraction(1), Fraction(2), Fraction(5)))
        assert p.size == 3
        assert p.rows == ((Fraction(1, 2), 1, 0), (0, 2, 1), (3, 5, 2))
        assert p[-1] == p[2] == (3, 5, 2)
        with pytest.raises(IndexError):
            p[3]
        with pytest.raises(ValueError, match="non-integer matrix entry"):
            p.integers()
        # a size-1 matrix shows only z[0]
        assert ProductionMatrix(z=(Fraction(3),), a=(Fraction(1, 2),)).integers() == [[3]]

    def test_matrix_round_trips_to_z_and_a(self, rng):
        # column 0 is the Z-sequence and column 1 the A-sequence
        for _ in range(3):
            arr = random_member(rng)
            data = arr.a_and_z()
            p = arr.production_matrix(6)
            assert tuple(p[i][0] for i in range(6)) == data.z[:6]
            assert tuple(p[i][1] for i in range(6)) == data.a[:6]
            assert p[0][1] == data.a[0] != 0


class TestBell:
    def test_is_bell(self):
        c = catalan(10)
        assert bell(c).is_bell()
        assert pascal().is_bell()  # f = x/(1-x) is x*g
        assert not RiordanArray(1 / Series([1, -1], 10), Series.x(10)).is_bell()

    def test_family_members_are_bell(self, rng):
        for _ in range(4):
            assert random_member(rng).is_bell()


class TestPseudoInvolution:
    def test_trivial(self):
        assert is_pseudo_involution(Series.one(8), 8)

    def test_family_member(self):
        g = g_family(FamilyParams.of(2, -1, 1), 16)
        assert is_pseudo_involution(g, 12)

    def test_catalan_decided_by_matrix_oracle(self):
        c = catalan(12)
        want = oracle.signed_square_is_identity(c, 12)
        assert is_pseudo_involution(c, 12) == want
        assert want is False

    def test_verdicts_match_signed_square_oracle(self, rng):
        verdicts = set()
        for case, g in enumerate(family_cases(rng, 80, 1, 20)):
            size = g.order if case % 2 else rng.randint(1, g.order)
            want = oracle.signed_square_is_identity(g, size)
            assert is_pseudo_involution(g, size) == want, (g, size)
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_last_coefficient_perturbation(self):
        # only the last (even) coefficient is off: the reversion guard must
        # look through x^size to agree with the square
        g = perturbed(g_ad(1, 1, 7), 6, 1)
        assert oracle.signed_square_is_identity(g, 7) is False
        assert is_pseudo_involution(g, 7) is False
        assert is_pseudo_involution(g, 6) is True

    def test_guard_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(Series, "revert", lambda self: -self)
        with pytest.raises(SelfCheckError, match="square and reversion tests disagree"):
            is_pseudo_involution(g_ad(1, 1, 8), 8)

    def test_prop6_steps_hold_for_family(self, rng):
        # Rev(-xg) = -xg and g * g(-xg) = 1, each on its own
        for _ in range(4):
            g = g_family(FamilyParams.of(*(rand_fraction(rng, 2) for _ in range(3))), 12)
            mxg = -(g.shift(1))
            assert mxg.revert().coeffs[:12] == mxg.coeffs[:12]
            assert (g * g.compose(mxg)).coeffs == Series.one(12).coeffs

    def test_truncation_ladder(self):
        g = g_family(FamilyParams.of(-1, -2, -1), 24)
        for size in (8, 16, 24):
            assert is_pseudo_involution(g, size)


class TestBExtract:
    def test_ad_member(self):
        b = b_extract(g_ad(1, 1, 16))
        assert list(b.values) == [1, 1, 0, 0, 0, 0, 0]

    def test_against_rational_expansion_oracle(self):
        a, bb, c = Fraction(2), Fraction(-1), Fraction(1)
        got = b_extract(g_family(FamilyParams.of(a, bb, c), 16))
        assert list(got.values) == b_expansion_oracle(a, bb, c, got.certified)

    def test_curve_b_sequence(self):
        g = pipeline(-3, 16).g
        b = b_extract(g)
        assert list(b.values)[:5] == [5, -1, 4, -16, 64]
        expansion = Series([5, 19], 16) / Series([1, 4], 16)
        assert b.values == expansion.coeffs[:b.certified]

    def test_certified_length(self):
        assert b_extract(g_ad(1, 1, 24)).certified == 11
        assert b_extract(g_ad(1, 1, 25)).certified == 12

    def test_non_involution_rejected(self):
        with pytest.raises(NoBSequence):
            b_extract(Series([1, 1, 1], 10))
        with pytest.raises(NoBSequence):
            b_extract(perturbed(g_ad(1, 1, 7), 6, 1))

    def test_short_series_certify_nothing(self):
        assert b_extract(Series.one(1)).values == ()
        assert b_extract(g_ad(1, 1, 2)).values == ()
        assert b_extract(g_ad(1, 1, 3)).values == (1,)

    def test_identity_agrees_with_recurrence_oracle(self, rng):
        verdicts = set()
        for _ in range(60):
            a, bb, c = (rand_fraction(rng, 3) for _ in range(3))
            order = rng.randint(3, 18)
            g = g_family(FamilyParams.of(a, bb, c), order)
            terms = rng.randint(1, (order - 1) // 2)
            b = b_expansion_oracle(a, bb, c, terms)
            if rng.random() < 0.6:  # tamper b, often its last certified term
                i = terms - 1 if rng.random() < 0.5 else rng.randrange(terms)
                b[i] += rand_nonzero(rng)
            if rng.random() < 0.3:
                g = perturbed(g, rng.randint(1, order - 1), rand_nonzero(rng))
            want = oracle.b_recurrence_holds(g, b)
            assert (_b_identity_mismatch(g, tuple(b)) is None) == want, (g, b)
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_random_family_oracle(self, rng):
        for _ in range(8):
            a, bb, c = (rand_fraction(rng, 2) for _ in range(3))
            got = b_extract(g_family(FamilyParams.of(a, bb, c), 17))
            assert list(got.values) == b_expansion_oracle(a, bb, c, got.certified)


class TestASequence:
    def test_a_from_b_zero(self):
        assert a_from_b(Series.zero(12), 12).coeffs == Series.one(12).coeffs

    def test_a_from_b_matches_closed_form(self):
        p = FamilyParams.of(1, -1, 0)
        b = Series([1, 0], 24) / Series([1, -1], 24)  # (a - c*x)/(1 + b*x)
        assert a_from_b(b, 24).coeffs == a_family(p, 24).coeffs

    def test_round_trip_through_g(self):
        b = Series([2, -1], 20) / Series([1, 1], 20)
        a = a_from_b(b, 20)
        g = 1 / Series([(-1) ** n * c for n, c in enumerate(a.coeffs)])
        recovered = b_extract(g)
        assert recovered.values == b.coeffs[:recovered.certified]

    def test_a_from_g_trivial(self):
        assert a_from_g(Series.one(8)).coeffs == Series.one(8).coeffs

    def test_a_from_g_cross_checks(self):
        g = g_family(FamilyParams.of(1, 1, 0), 14)
        via_array = bell(g).a_and_z().a
        direct = a_from_g(g)
        assert direct.coeffs[:len(via_array)] == via_array

    def test_a_from_g_matches_closed_form(self):
        p = FamilyParams.of(2, -2, 3)
        assert a_from_g(g_family(p, 20)).coeffs == a_family(p, 20).coeffs

    def test_family_a_equals_one_plus_x_z(self, rng):
        for _ in range(4):
            g = g_family(FamilyParams.of(*(rand_fraction(rng, 2) for _ in range(3))), 12)
            data = bell(g).a_and_z()
            assert data.a[0] == 1
            assert data.a[1:] == data.z[:len(data.a) - 1]
