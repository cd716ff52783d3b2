import hashlib
import math
import random
from fractions import Fraction

import pytest

import riordan_oracle as oracle

from riopi.elliptic import f_from_curve, family_params_from_curve, pipeline
from riopi.family import FamilyParams, companion, g_ad, g_family
import riopi.riordan
from riopi.riordan import (
    NoBSequence,
    OutOfOrder,
    ProductionMatrix,
    RiordanArray,
    TriangularMatrix,
    _b_read_off,
    _read_off,
    _walk,
    a_from_g,
    b_extract,
    bell,
    is_pseudo_involution,
)
from riopi import series
from riopi.series import NotRevertible, Series, catalan

from conftest import rand_fraction
from family_oracle import a_family


def pascal(order=12):
    return bell(1 / Series([1, -1], order))  # f = x/(1-x)


def identity_array(order=12):
    return bell(Series.one(order))


def dense(array, size):
    tri = oracle.triangle(array.g, array.f, size)
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


def non_bell(rng, order):
    """A random pair (g, f) of order >= 2 with f'(0) != 0 whose f is
    almost surely not x*g."""
    return oracle.Pair(
        Series([1] + [rand_fraction(rng) for _ in range(order - 1)]),
        Series([0, rand_nonzero(rng)] + [rand_fraction(rng) for _ in range(order - 2)]))


def perturbed(g, i, delta):
    coeffs = list(g.coeffs)
    coeffs[i] += delta
    return Series(coeffs)


def family_cases(rng, cases, lo, hi):
    """Pairs (params, g) of random p/q family members g of order lo..hi;
    about half of the g are perturbed at one coefficient past the first,
    half of those at the last."""
    for _ in range(cases):
        order = rng.randint(lo, hi)
        p = FamilyParams.of(*(rand_fraction(rng, 3) for _ in range(3)))
        g = g_family(p, order)
        if order > 1 and rng.random() < 0.5:
            i = order - 1 if rng.random() < 0.5 else rng.randint(1, order - 1)
            g = perturbed(g, i, rand_nonzero(rng))
        yield p, g


def sweep_cases(rng, cases):
    """Pairs (g, size), size random in 1..order: p/q family members of
    order 1..26 perturbed at up to two coefficients past the first (half
    the time at the last), and one case in four a random g with g0 = 1."""
    for case in range(cases):
        order = rng.randint(1, 26)
        if case % 4 == 3:
            g = Series([1] + [rand_fraction(rng, 3) for _ in range(order - 1)])
        else:
            g = g_family(FamilyParams.of(*(rand_fraction(rng, 3) for _ in range(3))), order)
            for _ in range(rng.randint(0, 2) if order > 1 else 0):
                i = order - 1 if rng.random() < 0.5 else rng.randint(1, order - 1)
                g = perturbed(g, i, rand_nonzero(rng))
        yield g, rng.randint(1, order)


def table_cases() -> dict[str, list[Series]]:
    """Seeded Bell arrays for the pinned digests, by group: integer and p/q
    arrays that are no pseudo-involutions (but by chance at small orders)
    at orders 2-40, and two that are."""
    rng = random.Random(11)
    orders = (2, 5, 16, 31, 40)

    def params(pq):
        return FamilyParams.of(*(rand_fraction(rng, 3) if pq else rng.randint(-3, 3)
                                 for _ in range(3)))

    return {
        "companion": [companion(params(pq), n) for n in orders for pq in (False, True)],
        "curvef": [f_from_curve(a, n) for n in orders
                   for a in (rng.randint(-6, 6), rand_fraction(rng, 6, (2, 3, 5)))],
        "perturbed": [perturbed(g_family(params(pq), n), rng.randint(1, n - 1),
                                rand_nonzero(rng) if pq else rng.choice((-2, -1, 1, 2)))
                      for n in orders for pq in (False, True)],
        "involution": [pipeline(Fraction(-11, 2), 40).g, g_family(FamilyParams.of(2, -1, 1), 33)],
    }


def digest(tables) -> str:
    """sha256 of tables of exact rows, each value written as str."""
    text = "\n\n".join("\n".join(" ".join(map(str, row)) for row in t) for t in tables)
    return hashlib.sha256(text.encode()).hexdigest()


def b_expansion_oracle(a, b, c, terms):
    # (a - c*x)/(1 + b*x) expands to a, then -(ab+c)(-b)^(n-1)
    k = a * b + c
    return [a] + [-(k) * (-b) ** (n - 1) for n in range(1, terms)]


class TestEntry:
    # an entry is read off the triangle through its row
    def test_pascal_is_binomial(self):
        p = pascal()
        for n in range(8):
            for k in range(n + 1):
                assert p.triangle(n + 1)[n][k] == math.comb(n, k)

    def test_brute_force_expansion_oracle(self):
        # expand g*f^2 by hand for the binomial example
        p = pascal()
        g, f = p.g, p.f
        col2 = g * f * f
        assert p.triangle(5)[4][2] == oracle.entry(p, 4, 2) == col2[4] == 6

    def test_bell_diagonal(self):
        arr = bell(g_family(FamilyParams.of(2, -1, 1), 10))
        assert all(arr.triangle(n + 1)[n][n] == 1 for n in range(10))

    def test_above_diagonal_zero(self):
        # the staircase row n holds columns 0..n; the entry above is zero
        assert len(pascal().triangle(4)[3]) == 4
        assert oracle.entry(pascal(), 3, 5) == 0

    def test_curve_triangle_entries(self):
        g = pipeline(-3, 8).g
        arr = bell(g)
        assert arr.triangle(4)[3][0] == 124
        assert arr.triangle(5)[4][1] == 498

    def test_out_of_order(self):
        with pytest.raises(OutOfOrder):
            pascal(6).triangle(7)

    def test_triangle_is_a_value(self):
        # int rows over one denominator, in lowest terms: the triangle equals
        # the matrix built from its own Fraction rows, and rows and m[n]
        # build Fractions on read
        for g in [g for group in table_cases().values() for g in group]:
            for size in {1, g.order // 2 + 1, g.order}:
                t = bell(g).triangle(size)
                same = TriangularMatrix(t.rows)
                assert same == t and hash(same) == hash(t) and repr(same) == repr(t), g
        t = bell(g_family(FamilyParams.of(Fraction(1, 2), -2, 3), 7)).triangle(7)
        assert all(type(v) is Fraction for row in t.rows for v in row)
        assert tuple(t[n] for n in range(-7, 7)) == t.rows * 2 and t[2:4] == t.rows[2:4]
        assert t.size == 7 and [len(row) for row in t.rows] == list(range(1, 8))
        assert t != TriangularMatrix(t.rows[:-1]) and t != bell(g_family(
            FamilyParams.of(Fraction(1, 3), -2, 3), 7)).triangle(7)
        with pytest.raises(ValueError, match="non-integer matrix entry"):
            t.integers()
        assert TriangularMatrix([[1], [Fraction(4, 2), 3]]).integers() == [[1], [2, 3]]
        assert TriangularMatrix(()).rows == ()


class TestGroupOps:
    def test_multiply_identity(self):
        p = pascal()
        q = oracle.multiply(p, identity_array())
        assert q.g.coeffs == p.g.coeffs and q.f.coeffs == p.f.coeffs

    def test_pascal_squared(self):
        sq = oracle.multiply(pascal(), pascal())
        expected_g = 1 / Series([1, -2], 12)
        expected_f = Series.x(12) / Series([1, -2], 12)
        assert sq.g.coeffs == expected_g.coeffs
        assert sq.f.coeffs[:12] == expected_f.coeffs

    def test_matrix_product_oracle(self, rng):
        for _ in range(5):
            r = random_member(rng)
            s = random_member(rng)
            product = oracle.multiply(r, s)
            assert dense(product, 8) == matmul(dense(r, 8), dense(s, 8))

    def test_associativity(self, rng):
        for _ in range(4):
            r, s, t = (random_member(rng) for _ in range(3))
            left = dense(oracle.multiply(oracle.multiply(r, s), t), 10)
            right = dense(oracle.multiply(r, oracle.multiply(s, t)), 10)
            assert left == right

    def test_inverse_identity(self):
        inv = oracle.inverse(identity_array())
        assert inv.g.coeffs == Series.one(12).coeffs
        assert inv.f.coeffs == Series.x(13).coeffs  # f = x*g knows one term more than g

    def test_pascal_inverse(self):
        inv = oracle.inverse(pascal())
        assert inv.g.coeffs == (1 / Series([1, 1], 12)).coeffs
        assert inv.f.coeffs[:11] == (Series.x(12) / Series([1, 1], 12)).coeffs[:11]

    def test_inverse_antihomomorphism(self, rng):
        for _ in range(3):
            r = random_member(rng)
            s = random_member(rng)
            left = oracle.inverse(oracle.multiply(r, s))
            right = oracle.multiply(oracle.inverse(s), oracle.inverse(r))
            assert left.g == right.g and left.f == right.f

    def test_signed_bell_array_is_involution(self):
        g = g_family(FamilyParams.of(1, 1, 0), 10)
        signed = oracle.Pair(g, -(g.shift(1)))
        sq = dense(oracle.multiply(signed, signed), 9)
        assert sq == [[1 if i == j else 0 for j in range(9)] for i in range(9)]


class TestFTRA:
    def test_identity_action(self):
        h = catalan(12)
        assert oracle.ftra_apply(identity_array(), h).coeffs == h.coeffs

    def test_catalan_route_to_ad_member(self):
        # (1/(1-ax), d*x^3/(1-ax)^2) applied to c(x) is the a+dx member;
        # note the inner f has valuation 3, legal for FTRA use only.
        for a, d in [(1, 1), (2, 1), (1, 2)]:
            den = Series([1, -a], 14)
            arr = oracle.Pair(1 / den, Series([0, 0, 0, d], 14) / (den * den))
            got = oracle.ftra_apply(arr, catalan(14))
            assert got.coeffs == g_ad(a, d, 14).coeffs

    def test_curve_assembly_step(self):
        # the final stage of the a=3 curve walkthrough lands on g(-1,-2,-1)
        from riopi.elliptic import f_from_curve
        f = f_from_curve(3, 20)
        num = f * Series([1, 2], 20) - 1
        den = (f * Series([2, 3], 20)).shift(1)
        h = num / den
        outer_g = 1 / Series([1, 2], 19)
        arr = oracle.Pair(outer_g, -(outer_g.shift(1)))
        got = oracle.ftra_apply(arr, h)
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
        # pseudo-involutions take the read-off route; arrays that are none
        # (curvef, a family g perturbed at its last term) take a_and_z, and
        # a perturbed g hands over between the routes as the size reaches
        # its perturbed term
        arrays = [pascal(), identity_array(), random_member(rng)]
        arrays += [bell(g) for _, g in family_cases(rng, 8, 3, 14)]
        arrays += [bell(pipeline(rand_fraction(rng, 12, (2, 3, 5, 7)), rng.randint(3, 14)).g)
                   for _ in range(4)]
        arrays += [bell(f_from_curve(3, n)) for n in (3, 8, 13)]
        for order in (5, 8, 11, 14):
            bad = perturbed(random_member(rng, order).g, order - 1, rand_nonzero(rng))
            # the read-off never reads an odd last term; an even one fails it
            assert is_pseudo_involution(bad.truncate(order - 1))
            assert is_pseudo_involution(bad) == (order % 2 == 0)
            arrays.append(bell(bad))
        for arr in arrays:
            for size in range(1, arr.order):
                assert arr.production_matrix(size).rows == oracle.production_dense(arr, size), \
                    (arr, size)

    def test_general_route_neither_reverts_nor_composes(self, rng, monkeypatch):
        # arrays that are no pseudo-involution from some size on take
        # a_and_z's row recurrence
        arrays = [bell(f_from_curve(a, 12)) for a in (3, Fraction(-11, 2))]
        for order in (6, 9, 13):
            g = random_member(rng, order).g
            arrays.append(bell(perturbed(g, rng.randint(1, order - 1), rand_nonzero(rng))))
        want = [[oracle.production_dense(arr, size) for size in range(1, arr.order)]
                for arr in arrays]
        b = Series([2, -1], 20) / Series([1, 1], 20)
        want_a = oracle.a_from_b_fixed_point(b, 20)

        def refuse(*args):
            raise AssertionError("the general route must not revert, compose or run Horner")

        monkeypatch.setattr(Series, "revert", refuse)
        monkeypatch.setattr(Series, "compose", refuse)
        monkeypatch.setattr(series, "_horner", refuse)
        for arr, matrices in zip(arrays, want):
            assert [arr.production_matrix(size).rows for size in range(1, arr.order)] == matrices
        assert oracle.a_from_b(b, 20) == want_a
        with pytest.raises(NotRevertible):
            bell(Series.one(1)).a_and_z()
        assert bell(Series([1, 2])).a_and_z().rows == ((2,),)

    def test_involution_route_neither_reverts_nor_composes(self, rng, monkeypatch):
        arrays = [pascal(), identity_array(), bell(pipeline(Fraction(-11, 2), 40).g)]
        arrays += [random_member(rng, 14) for _ in range(3)]
        want = [[arr.production_matrix(size) for size in range(1, arr.order)]
                for arr in arrays]

        def refuse(*args):
            raise AssertionError("the read-off route must not revert or compose")

        monkeypatch.setattr(Series, "revert", refuse)
        monkeypatch.setattr(Series, "compose", refuse)
        monkeypatch.setattr(RiordanArray, "a_and_z", refuse)
        for arr, matrices in zip(arrays, want):
            assert [arr.production_matrix(size) for size in range(1, arr.order)] == matrices
            assert arr.production_matrix() == matrices[-2]
        with pytest.raises(AssertionError):
            bell(f_from_curve(3, 8)).production_matrix()

    def test_bell_arrays_off_the_involutions_match_the_oracles(self, rng):
        # companions, curvef, members changed at one term and random g's
        # are no pseudo-involutions (but by chance at small sizes), so
        # a_and_z solves their A by column 1 alone and reads Z as its tail
        gs = []
        for _ in range(6):
            order = rng.randint(2, 24)
            p = FamilyParams.of(*(rand_fraction(rng, 3) for _ in range(3)))
            gs.append(companion(p, order))
            gs.append(perturbed(g_family(p, order), rng.randint(1, order - 1), rand_nonzero(rng)))
            gs.append(f_from_curve(rand_fraction(rng, 6, (1, 2, 3)), rng.randint(2, 24)))
            gs.append(Series([1] + [rand_fraction(rng, 3) for _ in range(rng.randint(1, 23))]))
        assert sum(not is_pseudo_involution(g) for g in gs) >= 20
        for g in gs:
            arr = bell(g)
            got = arr.a_and_z()
            want_z, want_a = oracle.a_and_z_by_reversion(arr)
            assert (got.a, got.z) == (want_a, want_z), g
            for size in range(1, g.order):
                assert arr.production_matrix(size).rows == oracle.production_dense(arr, size), \
                    (g, size)

    def test_matrix_view_of_z_and_a(self):
        # A's size + 1 terms make the matrix: Z = (A - 1)/x in column 0
        p = ProductionMatrix((1, Fraction(1, 2), 0, 3))
        assert p.size == 3
        assert (p.a, p.z) == ((1, Fraction(1, 2), 0), (Fraction(1, 2), 0, 3))
        assert p.rows == ((Fraction(1, 2), 1, 0), (0, Fraction(1, 2), 1), (3, 0, Fraction(1, 2)))
        assert p[-1] == p[2] == (3, 0, Fraction(1, 2))
        with pytest.raises(IndexError):
            p[3]
        with pytest.raises(ValueError, match="non-integer matrix entry"):
            p.integers()
        # a size-1 matrix shows only z[0] = a[1]; one term makes no rows
        assert ProductionMatrix((Fraction(1, 2), 3)).integers() == [[3]]
        assert ProductionMatrix([Fraction(1, 2)]).rows == ()
        with pytest.raises(ValueError, match="A needs at least one term"):
            ProductionMatrix(())
        # a matrix read off a pseudo-involution shows the same rows by index,
        # and is the matrix of its A's terms
        q = bell(pipeline(Fraction(-11, 2), 9).g).production_matrix(6)
        assert tuple(q[i] for i in range(-6, 6)) == q.rows * 2
        same = ProductionMatrix(q.a + q.z[-1:])
        assert same == q and hash(same) == hash(q) and repr(same) == repr(q)
        assert same != ProductionMatrix(q.a + (q.z[-1] + 1,)) and same != p

    def test_matrix_round_trips_to_z_and_a(self, rng):
        # column 0 is the Z-sequence and column 1 the A-sequence
        for _ in range(3):
            arr = random_member(rng)
            data = arr.a_and_z()
            p = arr.production_matrix(6)
            assert tuple(p[i][0] for i in range(6)) == data.z[:6]
            assert tuple(p[i][1] for i in range(6)) == data.a[:6]
            assert p[0][1] == data.a[0] != 0


# sha256 of triangle(order) and triangle(order // 2 + 1) rows, and of
# a_and_z's (a, z), per group of table_cases: outputs that reading the table
# of powers must leave bit-identical
TABLE_PINS = {
    "companion": ("78e4aaa0e40523bf4d4a5767147ab0bc896f3bff33b9f53e05828a465823b687",
                  "c1b6b1d81eb7276a51db2acc57d70bcca3033549e0659616a50b0a4273c67d4d"),
    "curvef": ("8086eb9dcce3ca96663a57bdd33614aa39c1989097e1b7c7d235fced8d711514",
               "745f8904f69737f71766913bfc776c6a44a1b4a6234aec0e19486693255523f7"),
    "perturbed": ("481fcee6a2abbe6d118f27efd8baa361b8b5f811295e00ca9bcf3b807354a366",
                  "c6b687d38ef46eea8c5f0c8cbfd5a23a2bce4269c3d70cdf250dccad48afa278"),
    "involution": ("426ec5240516091cddfe6340bb0a93488640b463d04e557d6f6bc62c466d910c",
                   "84801fcfda75704d378834094a13965eb92a0da9c44d75a9b105f6281c31b0b7"),
}


class TestPowers:
    # triangle, a_and_z and the B-sequence walk read one table of powers of g

    @pytest.mark.parametrize("group", sorted(TABLE_PINS))
    def test_pinned_digests(self, group):
        arrays = [bell(g) for g in table_cases()[group]]
        triangles = [arr.triangle(arr.order).rows + arr.triangle(arr.order // 2 + 1).rows
                     for arr in arrays]
        productions = [(p.a, p.z) for p in (arr.a_and_z() for arr in arrays)]
        assert (digest(triangles), digest(productions)) == TABLE_PINS[group]

    def test_rows_are_repeated_products(self, rng):
        # the triangle's widths n, n-1, ..., 1, the walk's 2c, 2c-2, ..., 2
        # and a_and_z's n, n, n-2, ..., 2
        gs = [g for group in table_cases().values() for g in group[-4:]]
        gs += [Series([1] + [rand_fraction(rng, 3) for _ in range(n - 1)]) for n in (1, 2, 7)]
        for g in gs:
            n = g.order
            for widths in (range(n, 0, -1), range(n - n % 2, 0, -2),
                           [n, n, *range(n - 2, 1, -1)]):
                if not widths or min(widths) < 1:
                    continue
                q, m = riopi.riordan._powers(g, widths)
                assert len(q) == len(widths)
                power, dens = Series.one(n), []
                for row, w in zip(q, widths):
                    power = power * g
                    assert [Fraction(v, m) for v in row] == list(power.truncate(w).coeffs), \
                        (g, widths)
                    dens.append(power.truncate(w)._den)
                assert m == math.lcm(*dens)

    def test_a_and_z_builds_no_triangle(self, monkeypatch):
        arrays = [bell(g) for gs in table_cases().values() for g in gs if g.order > 1]
        want = [oracle.a_and_z_by_reversion(arr) for arr in arrays]

        def refuse(*args):
            raise AssertionError("a_and_z reads the table of powers, not the triangle")

        monkeypatch.setattr(RiordanArray, "triangle", refuse)
        monkeypatch.setattr(ProductionMatrix, "__init__", refuse)
        for arr, (want_z, want_a) in zip(arrays, want):
            got = arr.a_and_z()
            assert (got.z, got.a) == (want_z, want_a), arr


class TestBell:
    def test_array_is_g_and_x_times_g(self, rng):
        for g in (catalan(10), Series.one(1), random_member(rng).g):
            arr = bell(g)
            assert type(arr) is RiordanArray and arr.g is g and arr.order == g.order
            assert arr.f == g.shift(1) and arr.f.order == g.order + 1
            assert all(row[-1] == 1 for row in arr.triangle(g.order).rows)
        with pytest.raises(ValueError, match="constant term 1"):
            RiordanArray(Series([2, 1]))


class TestPseudoInvolution:
    def test_trivial(self):
        assert is_pseudo_involution(Series.one(8))

    def test_family_member(self):
        g = g_family(FamilyParams.of(2, -1, 1), 16)
        assert is_pseudo_involution(g.truncate(12))

    def test_catalan_decided_by_matrix_oracle(self):
        c = catalan(12)
        want = oracle.signed_square_is_identity(c, 12)
        assert is_pseudo_involution(c) == want
        assert want is False

    def test_verdicts_match_signed_square_oracle(self, rng):
        verdicts = set()
        for case, (_, g) in enumerate(family_cases(rng, 80, 1, 20)):
            size = g.order if case % 2 else rng.randint(1, g.order)
            want = oracle.signed_square_is_identity(g, size)
            assert is_pseudo_involution(g.truncate(size)) == want, (g, size)
            assert oracle.reversion_fixed_point(g, size) == want, (g, size)
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_last_coefficient_perturbation(self):
        # only the last (even) coefficient is off: the square must look
        # through x^size, and so must the reversion route
        g = perturbed(g_ad(1, 1, 7), 6, 1)
        assert oracle.signed_square_is_identity(g, 7) is False
        assert oracle.reversion_fixed_point(g, 7) is False
        assert is_pseudo_involution(g) is False
        assert oracle.reversion_fixed_point(g, 6) is True
        assert is_pseudo_involution(g.truncate(6)) is True

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
            assert is_pseudo_involution(g.truncate(size))


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

    def test_rejects_exactly_where_signed_square_oracle_does(self, rng):
        # b_extract runs no separate involution test: its B identity must
        # decide the same question at g.order
        verdicts = set()
        for p, g in family_cases(rng, 80, 1, 22):
            want = oracle.signed_square_is_identity(g, g.order)
            if not want:
                with pytest.raises(NoBSequence, match="not a pseudo-involution"):
                    b_extract(g)
            else:
                got = b_extract(g)
                assert got.certified == (g.order - 1) // 2
                if g == g_family(p, g.order):
                    want_b = b_expansion_oracle(p.a, p.b, p.c, got.certified)
                    assert list(got.values) == want_b[:got.certified]
                elif got.certified:
                    assert oracle.b_recurrence_holds(g, got.values), g
            verdicts.add(want)
        assert verdicts == {True, False}

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
            assert (oracle.b_identity_mismatch(g, tuple(b)) is None) == want, (g, b)
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_random_family_oracle(self, rng):
        for _ in range(8):
            a, bb, c = (rand_fraction(rng, 2) for _ in range(3))
            got = b_extract(g_family(FamilyParams.of(a, bb, c), 17))
            assert list(got.values) == b_expansion_oracle(a, bb, c, got.certified)


class TestReadOff:
    # one read-off decides the involution verdict and gives B; the
    # composition g*g(-x*g) and the Horner evaluation of the B identity
    # are the oracles it replaced
    def test_sweep_matches_composition_and_horner_oracles(self, rng):
        verdicts = set()
        for g, size in sweep_cases(rng, 1000):
            want = oracle.composition_square_is_identity(g, size)
            assert oracle.signed_square_is_identity(g, size) == want, (g, size)
            assert is_pseudo_involution(g.truncate(size)) == want, (g, size)
            head = g.truncate(size)
            b, n, _ = _b_read_off(head)
            if want:
                got = b_extract(head)
                assert got == b and got.certified == (size - 1) // 2
                if got.certified:
                    assert oracle.b_identity_mismatch(head, got.values) is None, (g, size)
            else:
                with pytest.raises(NoBSequence, match=rf"fails at x\^{n}$"):
                    b_extract(head)
                assert n % 2 == 0 and oracle.b_identity_mismatch(head, b.values) == n, \
                    (g, size)
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_decided_without_composing(self, monkeypatch):
        g = pipeline(Fraction(-11, 2), 24).g
        bad = perturbed(g, 20, 1)
        want = b_extract(g)

        def no_compose(self, inner):
            raise AssertionError("the read-off must not compose")

        monkeypatch.setattr(Series, "compose", no_compose)
        _read_off.cache_clear()  # g's read-off must run again under the patch
        with pytest.raises(AssertionError):
            Series([1, 1]).compose(Series([0, 1]))
        assert is_pseudo_involution(g) and not is_pseudo_involution(bad)
        assert b_extract(g) == want
        with pytest.raises(NoBSequence, match=r"fails at x\^20$"):
            b_extract(bad)
        assert pipeline(Fraction(-11, 2), 24).g == g


def memo_counts():
    info = _read_off.cache_info()
    return info.misses, info.hits


class TestReadOffMemo:
    # the last read-off is remembered, keyed on the values of g mod x^(2c+1)
    def test_one_entry(self):
        assert _read_off.cache_info().maxsize == 1

    @pytest.mark.parametrize("a", [Fraction(-3), Fraction(-11, 2)])
    def test_one_read_off_per_curve_parameter(self, a):
        _read_off.cache_clear()
        g = pipeline(a, 40).g
        b = b_extract(g)
        p = bell(g).production_matrix()
        assert memo_counts() == (1, 2)
        head = g.truncate(39)
        assert (b, None) == _read_off.__wrapped__(head._nums, head._den)[:2]
        assert p == bell(head).a_and_z()
        # the CLI rebuilds g from its values
        assert b_extract(Series(g.coeffs)) is b
        assert memo_counts() == (1, 3)

    def test_consecutive_pipelines_on_one_prefix(self):
        # as in `verify`: curve-g(2) at order 21 twice, then orders 11 and 12 (c = 5)
        _read_off.cache_clear()
        assert pipeline(2, 21).g == pipeline(2, 21).g
        assert pipeline(2, 12).g.truncate(11) == pipeline(2, 11).g
        assert memo_counts() == (2, 2)

    def test_orders_2c_plus_1_and_2c_plus_2_share_an_entry(self):
        for c in (1, 4, 9):
            g = g_family(FamilyParams.of(Fraction(1, 2), -2, Fraction(5, 3)), 2 * c + 2)
            _read_off.cache_clear()
            b = b_extract(g)
            assert b_extract(g.truncate(2 * c + 1)) is b and b.certified == c
            assert is_pseudo_involution(g) and is_pseudo_involution(g.truncate(2 * c + 1))
            assert memo_counts() == (1, 3)

    def test_change_in_a_read_coefficient_misses(self):
        c = 9
        g = g_family(FamilyParams.of(2, -1, 1), 2 * c + 1)
        want = b_extract(g)
        for i in (2 * c, 2 * c - 1):  # the last checked and the last B term
            bad = perturbed(g, i, Fraction(1, 3))
            misses, hits = memo_counts()
            assert not is_pseudo_involution(bad)
            with pytest.raises(NoBSequence, match=rf"fails at x\^{2 * c}$"):
                b_extract(bad)
            assert memo_counts() == (misses + 1, hits + 1)
            assert b_extract(g) == want
            assert memo_counts() == (misses + 2, hits + 1)

    def test_same_message_on_a_hit_and_a_miss(self):
        bad = perturbed(g_ad(1, 1, 13), 8, 1)
        messages = []
        _read_off.cache_clear()
        for _ in range(2):
            with pytest.raises(NoBSequence) as err:
                b_extract(bad)
            messages.append(str(err.value))
        assert memo_counts() == (1, 1)
        assert messages[0] == messages[1] and messages[0].endswith("fails at x^8")

    def test_alternating_two_series(self):
        good = g_family(FamilyParams.of(-1, Fraction(2, 3), 3), 21)
        bad = perturbed(good, 12, -2)
        cases = [(g, _read_off.__wrapped__(g._nums, g._den)) for g in (good, bad)]
        assert cases[0][1][1] is None and cases[1][1][1] == 12
        misses, hits = memo_counts()
        for _ in range(3):
            for g, want in cases:
                assert _b_read_off(g) == want
        assert memo_counts() == (misses + 6, hits)


def g_of_b(b, order):
    """The pseudo-involution g = 1/A(-x) whose B-sequence starts with b."""
    a = oracle.a_from_b(Series(b, order), order)
    return 1 / Series([(-1) ** n * c for n, c in enumerate(a.coeffs)])


def degree_1_1(b):
    """Do the terms b expand some (a - cx)/(1 + bx): b_k = b_(k-1)*r for
    k >= 2, with r = b_2/b_1, or b_k = 0 for k >= 1?"""
    if len(b) < 3:
        return True
    if not b[1]:
        return not any(b[1:])
    return all(b[k] * b[1] == b[k - 1] * b[2] for k in range(2, len(b)))


def full_walks(monkeypatch):
    """Count the walks over more than the first seven terms."""
    lengths = []

    def counted(gs, d):
        if len(gs) > 7:
            lengths.append(len(gs))
        return _walk(gs, d)

    monkeypatch.setattr(riopi.riordan, "_walk", counted)
    return lengths


class TestRationalB:
    # the read-off certifies a B of degree (1, 1) by the member's quadratic
    # and falls back to the walk over the table of powers; both must give
    # the same failing n and the same BSequence, whose equality compares
    # its ints and its denominator
    def assert_same(self, g):
        head = g.truncate(2 * ((g.order - 1) // 2) + 1)
        *got, _ = _read_off.__wrapped__(head._nums, head._den)
        assert tuple(got) == _walk(head._nums, head._den), g
        return got

    def test_members_take_the_certificate(self, rng, monkeypatch):
        walks = full_walks(monkeypatch)
        half, third = Fraction(1, 2), Fraction(1, 3)
        params = [FamilyParams.of(*p) for p in [
            (2, -1, 1), (1, 0, 3), (half, 0, -third),  # b = 0
            (2, 3, -6), (-half, 4, 2), (1, 0, 0), (0, 0, 0),  # ab + c = 0
            (0, -2, 5), (0, third, -5 * half)]]  # a = 0
        for _ in range(40):
            a, b, c = (rand_fraction(rng, 3) for _ in range(3))
            params += [FamilyParams.of(a, b, c), FamilyParams.of(a, b, -a * b),
                       FamilyParams.of(a, 0, c), FamilyParams.of(0, b, c)]
        for p in params:
            order = rng.randint(1, 60)
            b, n = self.assert_same(g_family(p, order))
            assert n is None
            assert list(b.values) == b_expansion_oracle(p.a, p.b, p.c, b.certified)[:b.certified]
        assert walks == []

    def test_curves_take_the_certificate(self, rng, monkeypatch):
        walks = full_walks(monkeypatch)
        params = [Fraction(1), Fraction(2), Fraction(-3), Fraction(-11, 2)]
        params += [rand_fraction(rng, 12, (1, 2, 3, 5, 7)) for _ in range(30)]
        for a in params:
            b, n = self.assert_same(pipeline(a, rng.randint(1, 60)).g)
            assert n is None
        assert walks == []

    def test_other_b_falls_back_to_the_walk(self, rng, monkeypatch):
        walks = full_walks(monkeypatch)
        bs = [[1, 0, 2, 1], [Fraction(1, 2), 0, Fraction(-3, 4)],  # b_1 = 0 != b_2
              [1] * 30]  # 1/(1 - x), of degree (0, 1) and so (1, 1)
        while len(bs) < 23:
            b = [rand_fraction(rng, 3) for _ in range(rng.randint(4, 8))]
            if not degree_1_1(b[:4]):
                bs.append(b)
        fell_back = 0
        for b in bs:
            order = rng.randint(9, max(9, 2 * len(b) + 1))
            got, n = self.assert_same(g_of_b(b, order))
            assert n is None
            assert list(got.values) == (list(b) + [0] * order)[:got.certified]
            assert len(walks) == (not degree_1_1(got.values)), b
            fell_back += len(walks)
            del walks[:]
        assert fell_back == len(bs) - 1  # 1/(1 - x) is of degree (1, 1)

    def test_perturbed_members_name_the_same_failure(self, rng, monkeypatch):
        walks = full_walks(monkeypatch)
        failures = []
        for _ in range(60):
            c = rng.randint(4, 25)
            p = FamilyParams.of(*(rand_fraction(rng, 3) for _ in range(3)))
            g = perturbed(g_family(p, 2 * c + 1), rng.randint(7, 2 * c), rand_nonzero(rng))
            failures.append(self.assert_same(g)[1])
        # every case walks; a change at the last odd index may leave g a
        # pseudo-involution, of another B
        assert len(walks) == len(failures)
        assert all(n is None or n >= 7 for n in failures)
        assert sum(n is not None for n in failures) > 50

    def test_prefix_failure_needs_no_full_walk(self, monkeypatch):
        walks = full_walks(monkeypatch)
        g = perturbed(g_family(FamilyParams.of(2, -1, 1), 41), 4, 1)
        assert self.assert_same(g)[1] == 4
        assert walks == [] and self.assert_same(catalan(41))[1] == 2

    def test_order_201_member_never_walks(self, monkeypatch):
        p = FamilyParams.of(Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3))
        g = g_family(p, 201)
        walks = full_walks(monkeypatch)
        _read_off.cache_clear()
        assert is_pseudo_involution(g)
        b = b_extract(g)
        assert b.certified == 100
        assert list(b.values) == b_expansion_oracle(p.a, p.b, p.c, 100)
        assert walks == []

    def test_deep_members_and_perturbations_match_the_walk(self, rng, monkeypatch):
        # the certificate compares g with the member's root: members and
        # members changed at one read coefficient, at orders up to 129,
        # give the walk's B and first failing n
        walks = full_walks(monkeypatch)
        failures = []
        for case in range(32):
            a, b, c = (rand_fraction(rng, 6, (1, 2, 3, 7)) for _ in range(3))
            p = FamilyParams.of(*[(a, b, c), (a, 0, c), (a, b, -a * b), (a, b, c)][case % 4])
            order = rng.choice((65, 96, 128, 129))
            g = g_family(p, order)
            if case & 4:
                g = perturbed(g, rng.randint(7, 2 * ((order - 1) // 2)), rand_nonzero(rng))
                failures.append(self.assert_same(g)[1])
            else:
                b_seq, n = self.assert_same(g)
                assert n is None and b_seq.certified == (order - 1) // 2
        assert len(walks) == len(failures)
        assert all(n is None or n >= 7 for n in failures)
        assert sum(n is not None for n in failures) >= 14


class TestMemberA:
    # production_matrix reads A = 1/g(-x) of a certified member off g's own
    # ints, as 1/g = den - num*g, its last term at even g.order from g itself
    def members(self, rng):
        half, third = Fraction(1, 2), Fraction(1, 3)
        ps = [FamilyParams.of(half, -2 * third, 5 * third), FamilyParams.of(2, -1, 1),
              FamilyParams.of(-3, 0, half), FamilyParams.of(half, 4, -2),
              FamilyParams.of(3 * half, 0, 0)]  # b = c = 0: the linear record, p2 = (0,)
        ps += [FamilyParams.of(*(rand_fraction(rng, 5, (1, 2, 3, 7)) for _ in range(3)))
               for _ in range(4)]
        return ps + [family_params_from_curve(a) for a in (-3, Fraction(-11, 2))]

    def assert_a(self, g, size):
        got = bell(g).production_matrix(size)
        want = a_from_g(g.truncate(size + 1))
        assert (got._a, got._a_den) == (want._nums, want._den), (g, size)

    def test_matches_a_from_g_at_both_parities(self, rng, monkeypatch):
        walks = full_walks(monkeypatch)
        for p in self.members(rng):
            g = g_family(p, 258)
            for size in (8, 9, rng.randint(10, 60), 127, 128, 256, 257):
                g_size = g.truncate(size + 1)
                self.assert_a(g_size, size)
                if size & 1:
                    # g's last term is not read off, but A's last term,
                    # Z's last, reads it
                    bad = perturbed(g_size, size, rand_nonzero(rng))
                    self.assert_a(bad, size)
                    assert bell(bad).production_matrix(size).z[-1] != \
                        bell(g_size).production_matrix(size).z[-1]
        assert walks == []

    def test_no_series_division(self, monkeypatch):
        # the member route divides no Series: with Series._divide patched
        # to raise, member and curve g's give a_from_g's A at odd and even
        # sizes
        gs = [g_family(FamilyParams.of(Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)), 42),
              g_family(FamilyParams.of(2, -1, 1), 42),
              pipeline(-3, 42).g, pipeline(Fraction(-11, 2), 42).g]
        sizes = (9, 10, 40, 41)
        want = [[a_from_g(g.truncate(size + 1)) for size in sizes] for g in gs]

        def no_divide(self, other):
            raise AssertionError("Series division")

        monkeypatch.setattr(Series, "_divide", no_divide)
        _read_off.cache_clear()
        with pytest.raises(AssertionError):
            a_from_g(gs[0])
        for g, row in zip(gs, want):
            for size, a in zip(sizes, row):
                p = bell(g).production_matrix(size)
                assert (p._a, p._a_den) == (a._nums, a._den), (g, size)


def expansions(monkeypatch):
    """Count the root expansions the slot of ``series._root_ints`` does not
    answer, from an empty slot and no remembered read-off."""
    calls = []
    expand = series._expand_root

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(series, "_expand_root", counted)
    monkeypatch.setattr(series, "_last_root", ((), ()))
    _read_off.cache_clear()
    return calls


class TestRootSlot:
    # series._root_ints keeps the last root it expanded, so pipeline's
    # certificate reads the ints g was built from and production_matrix
    # reads A off g: one expansion per curve parameter, and no answer that
    # depends on what the slot holds
    def curves(self, rng):
        return [Fraction(-3), Fraction(1), Fraction(-11, 2), Fraction(5, 2)] + \
            [Fraction(rng.randint(-6, 6)) for _ in range(3)] + \
            [rand_fraction(rng, 12, (2, 3, 5, 7)) for _ in range(5)]

    def test_one_expansion_per_curve_parameter(self, rng, monkeypatch):
        calls = expansions(monkeypatch)
        for a in self.curves(rng):
            monkeypatch.setattr(series, "_last_root", ((), ()))
            _read_off.cache_clear()
            del calls[:]
            g = pipeline(a, 40).g
            b_extract(g)
            bell(g).production_matrix()
            assert len(calls) == 1, a

    def test_perturbed_g_reads_the_same_warm_and_cold(self, rng, monkeypatch):
        # g differs from its twin at one n in [7, 2c], so B's head and the
        # member stay the twin's; with b_1 = -(ab + c) != 0 the member's
        # record is the one the twin was built from (b_1 = 0 takes the
        # linear record, and a miss)
        walks = full_walks(monkeypatch)
        calls = expansions(monkeypatch)
        ps = [FamilyParams.of(*(rand_fraction(rng, 5, (1, 2, 3, 7)) for _ in range(3)))
              for _ in range(16)]
        ps = [p for p in ps if p.somos_weight] + \
            [family_params_from_curve(a) for a in self.curves(rng)]
        failures = []
        for p in ps:
            order = rng.randint(9, 129)
            c = (order - 1) // 2
            twin = g_family(p, order)  # warms the slot
            g = perturbed(twin, rng.randint(7, 2 * c), rand_nonzero(rng)).truncate(2 * c + 1)
            del calls[:]
            warm = _read_off.__wrapped__(g._nums, g._den)
            assert calls == [], p  # the certificate read the slot
            monkeypatch.setattr(series, "_last_root", ((), ()))
            cold = _read_off.__wrapped__(g._nums, g._den)
            assert len(calls) == 1 and warm == cold, p
            assert warm[1] == _walk(g._nums, g._den)[1], p
            failures.append(warm[1])
        # every case walks, warm and cold; a change at the last odd index
        # may leave g a pseudo-involution, of another B
        assert len(walks) == 2 * len(ps)
        assert all(n is None or n >= 7 for n in failures)
        assert sum(n is not None for n in failures) > len(ps) // 2

    def test_other_records_and_longer_requests_expand_afresh(self, monkeypatch):
        cold = series._expand_root
        calls = expansions(monkeypatch)
        # curvef 3's record: p2(0) != 0, so both pivots name a root
        p2, p1, p0 = [1, 2, -1, -2], [-1, -1], [0, -1]
        held = series._root_ints(p2, p1, p0, 1, 20)
        assert held == tuple(cold(p2, p1, p0, 1, 20)) and len(calls) == 1
        others = [(p2, p1, p0, -1, 20),  # the same record, the root y0 = 0
                  (p2, [-c for c in p1], p0, -1, 20),  # the same discriminant, the root -y
                  (p2, p1, p0, 1, 25)]  # longer than the slot holds
        for args in others:
            monkeypatch.setattr(series, "_last_root", ((), ()))
            assert series._root_ints(p2, p1, p0, 1, 20) == held  # warms the slot
            del calls[:]
            assert series._root_ints(*args) == tuple(cold(*args)), args
            assert len(calls) == 1, args
        # the held ints would have been wrong for both other roots
        assert all(tuple(cold(*args)) != held for args in others[:2])
        # a shorter request on the held record reads its prefix
        del calls[:]
        assert series._root_ints(p2, p1, p0, 1, 12) == held[:12]
        assert calls == []


class TestASequence:
    def test_a_from_b_zero(self):
        assert oracle.a_from_b(Series.zero(12), 12).coeffs == Series.one(12).coeffs

    def test_a_from_b_matches_closed_form(self):
        p = FamilyParams.of(1, -1, 0)
        b = Series([1, 0], 24) / Series([1, -1], 24)  # (a - c*x)/(1 + b*x)
        assert oracle.a_from_b(b, 24).coeffs == a_family(p, 24).coeffs

    def test_round_trip_through_g(self):
        b = Series([2, -1], 20) / Series([1, 1], 20)
        a = oracle.a_from_b(b, 20)
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
        arrays = [bell(catalan(10)), pascal()]
        arrays += [bell(g_family(FamilyParams.of(*(rand_fraction(rng, 2) for _ in range(3))), 12))
                   for _ in range(4)]
        for arr in arrays:
            data = arr.a_and_z()
            assert data.a[0] == 1
            assert data.a[1:] == data.z[:len(data.a) - 1]

    def test_sweep_matches_reversion_and_fixed_point_oracles(self, rng):
        # the row recurrences of a_and_z and the a_from_b oracle against
        # the formulas they replaced: A = x/fbar, Z = (1 - 1/g(fbar))/fbar,
        # and the fixed point of A = 1 + x*B(x^2/A)
        for order in range(1, 21):
            params = [FamilyParams.of(*(rng.randint(-3, 3) for _ in range(3))),
                      FamilyParams.of(*(rand_fraction(rng, 3) for _ in range(3)))]
            arrays = [bell(g_family(p, order)) for p in params]
            arrays.append(bell(f_from_curve(rand_fraction(rng, 6, (1, 2, 3)), order)))
            if order > 1:
                # a pair that is not Bell has a Z of its own: the oracles'
                # row recurrence against their reversion and dense routes
                pair = non_bell(rng, order)
                z_and_a = oracle.z_and_a_by_rows(pair)
                assert z_and_a == oracle.a_and_z_by_reversion(pair), pair
                columns = list(zip(*oracle.production_dense(pair, order - 1)))
                assert columns[:2] == list(z_and_a)[:len(columns)], pair
            for arr in arrays:
                if order == 1:
                    with pytest.raises(NotRevertible):
                        arr.a_and_z()
                    continue
                got = arr.a_and_z()
                assert (got.z, got.a) == oracle.a_and_z_by_reversion(arr) == \
                    oracle.z_and_a_by_rows(arr), arr
            bs = [Series(b_expansion_oracle(p.a, p.b, p.c, order // 2 + 1)) for p in params]
            bs.append(Series([rand_fraction(rng, 3) for _ in range(order // 2 + 1)]))
            for b in bs:
                want = oracle.a_from_b_fixed_point(b, order)
                assert oracle.a_from_b(b, order) == want, (b, order)
