import random
from fractions import Fraction

import pytest

from riopi.family import FamilyParams, companion, g_ad, g_family
import riopi.hankel
from riopi.hankel import (InsufficientTerms, _leading_minors, _rescaling, _swap_minors,
                          hankel_det, hankel_transform)

from conftest import rand_fraction
from hankel_oracle import gauss_det, hankel_matrix, per_n_det


def cofactor_det(matrix):
    """Textbook Laplace expansion; the independent oracle."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * cofactor_det(minor)
    return total


def leading_cofactor_minors(matrix):
    return [cofactor_det([row[:k + 1] for row in matrix[:k + 1]])
            for k in range(len(matrix))]


class TestDeterminant:
    def test_matches_cofactor_oracle(self, rng):
        for _ in range(6):
            seq = [rand_fraction(rng) for _ in range(11)]
            for n in range(6):
                assert hankel_det(seq, n) == cofactor_det(hankel_matrix(seq, n))

    def test_pivoting_path_with_interior_zeros(self, rng):
        # leading zeros force row swaps inside the elimination
        for head in ([0, 0, 1], [0, 1, 0], [1, 0, 0]):
            seq = head + [rand_fraction(rng) for _ in range(8)]
            for n in range(5):
                assert hankel_det(seq, n) == cofactor_det(hankel_matrix(seq, n))

    def test_singular(self):
        seq = [1] + [0] * 8
        assert hankel_det(seq, 0) == 1
        assert hankel_det(seq, 1) == 0

    def test_rational_input_rescaling(self, rng):
        seq = [Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7), 2, Fraction(3, 2),
               Fraction(1, 6), Fraction(-5, 4)]
        for n in range(4):
            assert hankel_det(seq, n) == cofactor_det(hankel_matrix(seq, n))

    def test_insufficient_terms(self):
        with pytest.raises(InsufficientTerms):
            hankel_det([1, 2], 1)

    def test_negative_index_rejected(self):
        for n in (-1, -2):
            with pytest.raises(ValueError, match="needs n >= 0"):
                hankel_det([1, 2, 3], n)

    def test_elimination_transpose_invariance(self, rng):
        # the constructed Hankel matrix is symmetric, so transposing it is
        # free; check the row-swap fallback on non-symmetric transposes,
        # zero-dense so that rows are swapped in
        for _ in range(40):
            m = [[rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(5)] for _ in range(5)]
            t = [[m[j][i] for j in range(5)] for i in range(5)]
            minors = _swap_minors([row[:] for row in m])
            assert minors == _swap_minors([row[:] for row in t])
            assert minors == leading_cofactor_minors(m)
        seq = [rand_fraction(rng) for _ in range(9)]
        matrix = hankel_matrix(seq, 3)
        assert matrix == [[matrix[j][i] for j in range(4)] for i in range(4)]


class TestTransform:
    def test_all_ones(self):
        values = hankel_transform([1] * 9).values
        assert list(values) == [1, 0, 0, 0, 0]

    def test_source_accounting(self):
        t = hankel_transform(list(range(1, 12)))
        assert t.source_length == 11
        assert len(t.values) == 6

    def test_ad_pattern_at_d(self, rng):
        # transform of the B = a + d*x member: 1, 0, -d^2, -d^4, 0, d^10, ...
        for a, d in [(1, 1), (2, 3), (Fraction(1, 2), 2)]:
            seq = g_ad(a, d, 23).coeffs
            got = hankel_transform(seq).values
            d = Fraction(d)
            expected = (1, 0, -d ** 2, -d ** 4, 0, d ** 10, d ** 14, 0,
                        -d ** 24, -d ** 30, 0)
            assert got[:11] == expected

    def test_printed_family_transforms(self):
        cases = [
            ((2, -2, 3), [1, 0, -1, -1, -2, -3, 5, 28, 67, 411, 506]),
            ((-1, 2, 1), [1, 0, -1, -1, 2, -1, -9, 16, 73, 145, -1442]),
            ((-1, -2, -1), [1, 0, -1, -1, -2, -1, 7, 16, 57, 113, -670]),
        ]
        for params, expected in cases:
            seq = g_family(FamilyParams.of(*params), 21).coeffs
            assert list(hankel_transform(seq).values) == expected

    def test_printed_companion_transform(self):
        seq = companion(FamilyParams.of(1, 2, -1), 19).coeffs
        assert list(hankel_transform(seq).values) == [
            1, -2, 1, 9, -16, -73, -145, 1442, 3951, -49121]

    def test_c0_monomial_pattern(self, rng):
        # 1, 0, -a^2 b^2, -a^4 b^4, a^6 b^7, 0, -a^12 b^15, a^16 b^20, a^20 b^26, 0, -a^30 b^40
        for _ in range(3):
            a = rand_fraction(rng, span=3)
            b = rand_fraction(rng, span=3)
            got = hankel_transform(g_family(FamilyParams.of(a, b, 0), 23).coeffs).values
            expected = (1, 0, -a ** 2 * b ** 2, -a ** 4 * b ** 4, a ** 6 * b ** 7, 0,
                        -a ** 12 * b ** 15, a ** 16 * b ** 20, a ** 20 * b ** 26, 0,
                        -a ** 30 * b ** 40)
            assert got[:11] == expected

    def test_family_leading_symbols(self, rng):
        # h_2 = -(ab+c)^2 and h_3 = -(ab+c)^4
        for _ in range(5):
            a, b, c = (rand_fraction(rng) for _ in range(3))
            k = a * b + c
            got = hankel_transform(g_family(FamilyParams.of(a, b, c), 9).coeffs).values
            assert got[:4] == (1, 0, -k ** 2, -k ** 4)

    def test_companion_leading_symbols(self, rng):
        # 1, -b, -abc - c^2, then the printed degree-6 polynomial
        for _ in range(5):
            a, b, c = (rand_fraction(rng) for _ in range(3))
            got = hankel_transform(companion(FamilyParams.of(a, b, c), 9).coeffs).values
            h3 = (-a ** 3 * b ** 3 * c + a ** 2 * b ** 2 * (b ** 3 - 3 * c ** 2)
                  + a * b * c * (2 * b ** 3 - 3 * c ** 2) + c ** 2 * (b ** 3 - c ** 2))
            assert got[:4] == (1, -b, -a * b * c - c * c, h3)


class TestZeroPivots:
    """One elimination yields every h_n, across row swaps at zero pivots."""

    def test_family_h1_zero_then_nonzero_minors(self):
        seq = g_family(FamilyParams.of(2, -2, 3), 21).coeffs
        values = hankel_transform(seq).values
        assert values[1] == 0 and all(values[2:])
        assert list(values) == [per_n_det(seq, n) for n in range(11)]

    def test_long_swap_gives_a_run_of_zero_minors(self):
        # column 0 is zero down to row 4: h_0..h_3 vanish while that swap
        # is open, and h_4 is the anti-diagonal determinant 1
        seq = [0, 0, 0, 0, 1, 5, -3, 2, 7, Fraction(1, 2), -4]
        values = hankel_transform(seq).values
        assert values[:5] == (0, 0, 0, 0, 1)
        assert list(values) == [per_n_det(seq, n) for n in range(6)]

    def test_nested_open_swaps(self):
        # step 0 swaps in row 3; step 1 swaps in row 2 while that is open
        assert hankel_transform([0, 0, 0, 2, 0, 0, 0]).values == (0, 0, 0, 16)
        seq = [0, 0, 0, 2, 0, 0, 0, 3, -1, Fraction(2, 3), 5]
        assert list(hankel_transform(seq).values) == [per_n_det(seq, n) for n in range(6)]

    def test_nested_swap_reaching_further(self, rng):
        # step 0 swaps in row 2, then column 1 is zero down to row 3, so a
        # second swap reaches past the first (a random search of Hankel
        # patterns found none, so the row-swap fallback is checked on this
        # matrix)
        def nz():
            return rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(10):
            m = [[0, 0, nz(), nz()],
                 [0, 0, nz(), nz()],
                 [nz(), nz(), nz(), nz()],
                 [0, nz(), nz(), nz()]]
            minors = _swap_minors([row[:] for row in m])
            assert minors[:3] == [0, 0, 0]
            assert minors == leading_cofactor_minors(m)

    def test_column_without_pivot_zeroes_the_rest(self):
        # rank 1 and rank 2: column 1 (column 2) has no nonzero entry left
        assert hankel_transform([3 * 2 ** k for k in range(11)]).values == (3, 0, 0, 0, 0, 0)
        seq = [2 ** k + (-1) ** k for k in range(11)]
        values = hankel_transform(seq).values
        assert values[2:] == (0, 0, 0, 0) and values[1] != 0
        # the same in the row-swap fallback while a swap is still open
        assert _swap_minors([[0, 0, 1], [0, 0, 2], [1, 5, 0]]) == [0, 0, 0]

    def test_zero_and_short_sequences(self):
        assert hankel_transform([0] * 9).values == (0,) * 5
        assert hankel_transform([0]).values == (0,)
        assert hankel_transform([Fraction(-2, 3)]).values == (Fraction(-2, 3),)
        assert hankel_transform([5, 7]).values == (5,)
        assert hankel_transform([0, Fraction(7, 2)]).values == (0,)
        assert hankel_det([Fraction(1, 2)], 0) == Fraction(1, 2)

    def test_det_is_last_value_of_the_transform(self, rng):
        for _ in range(30):
            seq = [rng.choice((0, rand_fraction(rng))) for _ in range(rng.randint(1, 15))]
            for n in range((len(seq) - 1) // 2 + 1):
                det = hankel_det(seq, n)
                assert det == hankel_transform(seq[:2 * n + 1]).values[n]
                assert det == per_n_det(seq, n)


def random_sequence(rng, length):
    """p/q terms; about half the sequences are shaped to force zero pivots."""
    seq = [rand_fraction(rng, span=5, dens=(1, 1, 2, 3, 5)) for _ in range(length)]
    shape = rng.randrange(8)
    if shape == 0:  # leading zeros: column 0 is zero down to row z
        z = rng.randint(1, length)
        seq[:z] = [Fraction(0)] * z
    elif shape == 1:  # a zero block inside
        i = rng.randrange(length)
        j = rng.randint(i + 1, length)
        seq[i:j] = [Fraction(0)] * (j - i)
    elif shape == 2:  # sparse
        seq = [v if rng.randrange(3) == 0 else Fraction(0) for v in seq]
    elif shape == 3 and length > 2 and seq[0]:  # h_1 = s0*s2 - s1^2 = 0
        seq[2] = seq[1] ** 2 / seq[0]
    return seq


class TestTransformProperties:
    def test_equals_per_n_and_fraction_gauss_oracles(self, rng):
        forced = 0
        cases = 600
        for _ in range(cases):
            seq = random_sequence(rng, rng.randint(1, 25))
            values = list(hankel_transform(seq).values)
            dets = range(len(values))
            assert values == [per_n_det(seq, n) for n in dets], seq
            assert values == [gauss_det(hankel_matrix(seq, n)) for n in dets], seq
            # a zero minor before the last one is a zero pivot on the way
            forced += 0 in values[:-1]
        assert forced * 5 >= cases * 2


def rescaled_member(rng, make, dens=(2, 3, 5, 7)):
    """A p/q family or companion member, parameters over ``dens``."""
    while True:
        params = FamilyParams.of(*(Fraction(rng.randint(-9, 9), rng.choice(dens))
                                   for _ in range(3)))
        if params.somos_weight:
            return list(make(params, rng.randint(1, 45)).coeffs)


def rescaling(seq):
    """(lam, scale) as hankel_transform picks them for seq."""
    top = (len(seq) - 1) // 2
    return _rescaling(seq[:2 * top + 1], top)


def assert_matches_oracles(seq):
    """Check the transform against both oracles; return the lam it used."""
    values = list(hankel_transform(seq).values)
    dets = range(len(values))
    assert values == [per_n_det(seq, n) for n in dets], seq
    assert values == [gauss_det(hankel_matrix(seq, n)) for n in dets], seq
    return rescaling(seq)[0]


# hankel_scan's p/q pool: every p/q with q in {2, 3}, |p/q| <= 3, q not dividing p
SCAN_POOL = sorted({Fraction(p, q) for q in (2, 3) for p in range(-3 * q, 3 * q + 1) if p % q})


class TestRescaledRoute:
    """Bareiss over s_k * lam**k * scale, with lam > 1 only where it pays."""

    def test_pq_members_match_oracles(self, rng):
        rescaled = 0
        for make in (g_family, companion):
            for _ in range(12):
                rescaled += assert_matches_oracles(rescaled_member(rng, make)) > 1
        assert rescaled >= 12

    def test_constant_denominator(self, rng):
        for den in (2, 6, 1024):
            seq = [Fraction(rng.randint(-9, 9), den) for _ in range(rng.randint(1, 25))]
            assert assert_matches_oracles(seq) == 1

    def test_single_large_denominator(self, rng):
        for _ in range(4):
            seq = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(3, 25))]
            seq[rng.randrange(len(seq))] = Fraction(rng.randint(1, 9), 3 ** 40)
            assert_matches_oracles(seq)

    def test_denominator_on_s0(self, rng):
        rescaled = 0
        for make in (g_family, companion):
            for _ in range(3):
                seq = rescaled_member(rng, make)
                seq[0] = Fraction(rng.randint(1, 9), rng.choice((3, 4, 35)))
                lam = assert_matches_oracles(seq)
                if lam > 1:
                    # lam clears every term but s_0, so scale is s_0's denominator
                    assert rescaling(seq)[1] == seq[0].denominator
                    rescaled += 1
        assert rescaled >= 3

    def test_geometric_denominators_with_zero_pivots(self, rng):
        # random_sequence's zero shapes over s_k / mu**k: the shapes survive
        # the scaling (h_1 = 0 is homogeneous), and lam recovers mu
        forced = rescaled = 0
        for _ in range(60):
            mu = rng.choice((2, 3, 6, 10))
            seq = [v / mu ** k for k, v in enumerate(random_sequence(rng, rng.randint(1, 25)))]
            rescaled += assert_matches_oracles(seq) > 1
            forced += 0 in hankel_transform(seq).values[:-1]
        assert forced >= 20 and rescaled >= 20

    def test_scan_pool_members_take_lam(self):
        # hankel_scan's p/q members at its order 40: after the rescaling no
        # denominator is left
        rng = random.Random(7)
        for make in (g_family, companion):
            for _ in range(15):
                params = FamilyParams.of(*(rng.choice(SCAN_POOL) for _ in range(3)))
                seq = make(params, 40).coeffs
                lam, scale = rescaling(seq)
                assert lam > 1 and scale == 1, params
                assert all((t * lam ** k).denominator == 1 for k, t in enumerate(seq))

    def test_printed_lams(self):
        for params, lam in (((Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)), 6),
                            ((Fraction(-11, 2), Fraction(1, 3), Fraction(2, 7)), 42)):
            seq = g_family(FamilyParams.of(*params), 81).coeffs
            assert rescaling(seq) == (lam, 1)

    def test_integer_input_skips_lam(self, rng):
        for _ in range(10):
            seq = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 41))]
            assert rescaling(seq) == (1, 1)
        seq = g_family(FamilyParams.of(2, -2, 3), 41).coeffs
        assert rescaling(seq) == (1, 1)

    def test_lam_declined_where_it_does_not_pay(self):
        # all denominators 1024, or one 3**40 at index 1: lam would be
        # 1024 or 3**40 and add more bits than it takes off
        seq = [Fraction(k % 7 - 3, 1024) for k in range(81)]
        assert rescaling(seq) == (1, 1024)
        seq = [Fraction(k % 7 - 3) for k in range(81)]
        seq[1] = Fraction(1, 3 ** 40)
        assert rescaling(seq) == (1, 3 ** 40)


def triangle(ints, n):
    """Upper triangle of the (n+1)x(n+1) Hankel matrix of ints[0..2n]."""
    return [list(ints[2 * i:i + n + 1]) for i in range(n + 1)]


@pytest.fixture
def fallback(monkeypatch):
    """The number of rows each hand-over to _swap_minors passes on."""
    entered = []
    swap = riopi.hankel._swap_minors

    def spy(rows, prev=1):
        entered.append(len(rows))
        return swap(rows, prev)
    monkeypatch.setattr(riopi.hankel, "_swap_minors", spy)
    return entered


def branches(minors, fallback_rows):
    """The steps of one symmetric elimination: pivot, block or fallback.

    Before the fallback the pivot of step k is h_k, and a zero pivot takes
    a 2x2 block exactly when h_(k+1) = -b**2 / h_(k-1) is nonzero.
    """
    n = len(minors)
    stop = n - fallback_rows if fallback_rows is not None else n
    steps, k = {}, 0
    while k < stop:
        if minors[k]:
            steps[k], k = "pivot", k + 1
        elif k + 1 < n:
            assert minors[k + 1], minors
            steps[k], k = "block", k + 2
        else:
            k += 1
    if fallback_rows is not None:
        steps[stop] = "fallback"
    return steps


def zero_dense(rng, length, dens=(1,)):
    """Mostly zero terms over dens, so that zero pivots and zero blocks occur."""
    return [Fraction(rng.choice((0, 0, 0, rng.randint(-4, 4))), rng.choice(dens))
            for _ in range(length)]


class TestSymmetricElimination:
    """The upper-triangle elimination against per-n Bareiss and cofactors,
    with every branch reached: nonzero pivot, 2x2 block, row-swap fallback."""

    @staticmethod
    def run(fallback, ints):
        """Minors and branches of the symmetric elimination of int ints."""
        fallback.clear()
        n = (len(ints) - 1) // 2
        minors = _leading_minors(triangle(ints, n))
        assert len(fallback) <= 1
        return minors, branches(minors, fallback[0] if fallback else None)

    def test_integer_sweep(self, rng, fallback):
        seen = {"pivot": 0, "block": 0, "fallback": 0, "late fallback": 0}
        for _ in range(400):
            ints = [int(t) for t in zero_dense(rng, 2 * rng.randint(0, 7) + 1)]
            minors, steps = self.run(fallback, ints)
            n = len(minors) - 1
            assert minors == [per_n_det(ints, k) for k in range(n + 1)], ints
            if n <= 4:
                assert minors == leading_cofactor_minors(hankel_matrix(ints, n)), ints
            for k, branch in steps.items():
                seen[branch] += 1
                seen["late fallback"] += branch == "fallback" and k > 0
        assert min(seen.values()) >= 10, seen

    def test_pq_sweep(self, rng, fallback):
        seen = set()
        for _ in range(300):
            mu = rng.choice((1, 2, 3, 6))
            seq = [t / mu ** k for k, t in
                   enumerate(zero_dense(rng, rng.randint(1, 17), dens=(1, 2, 3, 5)))]
            fallback.clear()
            values = list(hankel_transform(seq).values)
            assert values == [per_n_det(seq, n) for n in range(len(values))], seq
            seen.update(branches(values, fallback[0] if fallback else None).values())
        assert seen == {"pivot", "block", "fallback"}

    def test_pinned_late_fallback(self, fallback):
        # after step 0, entries (1,1) = s2 - s1**2 and (1,2) = s3 - s1*s2 are
        # both 0: the 2x2 block at step 1 is zero, so rows 1.. go to the
        # row-swap loop, continuing from the pivot 1 of step 0
        ints = [1, 0, 0, 0, 0, 3, 1, 2, 5]
        minors, steps = self.run(fallback, ints)
        assert steps == {0: "pivot", 1: "fallback"}
        assert minors == [per_n_det(ints, n) for n in range(5)]
        assert minors == leading_cofactor_minors(hankel_matrix(ints, 4))
        # a block first, then a zero block at step 2
        ints = [0, 1, 0, 0, 0, 0, 0, 7, 2]
        minors, steps = self.run(fallback, ints)
        assert steps == {0: "block", 2: "fallback"}
        assert minors == leading_cofactor_minors(hankel_matrix(ints, 4))

    def test_pinned_fallback_from_step_0(self, fallback):
        minors, steps = self.run(fallback, [0, 0, 0, 2, 0, 0, 0])
        assert steps == {0: "fallback"} and minors == [0, 0, 0, 16]

    def test_scan_members_take_only_blocks(self, fallback):
        # isolated zeros every 6th / 4th index: many 2x2 blocks in one
        # elimination, never the fallback
        for make, params, zeros in ((g_family, (1, 3, 3), [1, 7, 13, 19, 25, 31]),
                                    (companion, (3, -1, 0), [2, 6, 10, 14, 18, 22, 26, 30])):
            ints = [int(t) for t in make(FamilyParams.of(*params), 65).coeffs]
            minors, steps = self.run(fallback, ints)
            assert [k for k, branch in steps.items() if branch == "block"] == zeros
            assert "fallback" not in steps.values()
            assert minors == [per_n_det(ints, n) for n in range(33)]
