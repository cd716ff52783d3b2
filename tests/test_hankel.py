import hashlib
import math
from fractions import Fraction
from itertools import islice

import pytest

import riopi.hankel
from riopi.elliptic import f_equation, f_from_curve
from riopi.family import (FamilyParams, companion, companion_equation, equation, g_ad,
                          g_family)
from riopi.hankel import (InsufficientTerms, _h_fraction, _leading_minors, hankel_det,
                          hankel_transform, root_transform)
from riopi.knowndata import GENERATORS
from riopi.series import Quadratic, Series, _quadratic_root

from conftest import rand_fraction
from hankel_oracle import bareiss_det, division_values, gauss_det, hankel_matrix, per_n_det


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


def upper(matrix):
    """The stored form of a symmetric matrix: row i from column i on."""
    return [row[i:] for i, row in enumerate(matrix)]


def branches(matrix):
    """The steps of the symmetric elimination of an int matrix, from minors.

    Before step k the k rows in done are eliminated.  The first row q
    left takes a pivot if the minor on rows done + [q] is nonzero.  If not,
    it takes a 2x2 block with the first row r left whose minor on rows
    done + [q], columns done + [r] is nonzero: an adjacent block if r is
    the next row left, a far block if not.  With no such r it stops.
    Returns {k: (branch, the rows it takes)}.
    """
    def minor(rows, cols):
        return bareiss_det([[matrix[i][j] for j in cols] for i in rows])

    left, done, steps = list(range(len(matrix))), [], {}
    while left:
        q, k = left[0], len(done)
        if minor(done + [q], done + [q]):
            steps[k] = ("pivot", (q,))
            done.append(left.pop(0))
            continue
        at = next((i for i in range(1, len(left))
                   if minor(done + [q], done + [left[i]])), None)
        if at is None:
            steps[k] = ("stop", (q,))
            break
        r = left.pop(at)
        left.pop(0)
        steps[k] = ("adjacent block" if at == 1 else "far block", (q, r))
        done += [q, r]
    return steps


def kinds(steps):
    """The branch of each step in ``branches``' result."""
    return {k: branch for k, (branch, _) in steps.items()}


class TestDeterminant:
    def test_matches_cofactor_oracle(self, rng):
        for _ in range(6):
            seq = [rand_fraction(rng) for _ in range(11)]
            for n in range(6):
                assert hankel_det(seq, n) == cofactor_det(hankel_matrix(seq, n))

    def test_pivoting_path_with_interior_zeros(self, rng):
        # leading zeros force 2x2 blocks inside the elimination
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
        # the constructed Hankel matrix is symmetric, so the elimination
        # keeps only its upper triangle (TestSymmetricElimination checks
        # that triangle route on zero-dense symmetric matrices)
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
    """One elimination yields every h_n, across 2x2 blocks at zero pivots."""

    def test_family_h1_zero_then_nonzero_minors(self):
        seq = g_family(FamilyParams.of(2, -2, 3), 21).coeffs
        values = hankel_transform(seq).values
        assert values[1] == 0 and all(values[2:])
        assert list(values) == [per_n_det(seq, n) for n in range(11)]

    def test_long_swap_gives_a_run_of_zero_minors(self):
        # row 0 is zero up to column 4: h_0..h_3 vanish while the far
        # block over rows 0 and 4 is open, and h_4 is the anti-diagonal
        # determinant 1
        seq = [0, 0, 0, 0, 1, 5, -3, 2, 7, Fraction(1, 2), -4]
        values = hankel_transform(seq).values
        assert values[:5] == (0, 0, 0, 0, 1)
        assert branches(hankel_matrix(seq[:9], 4))[0] == ("far block", (0, 4))
        assert list(values) == [per_n_det(seq, n) for n in range(6)]

    def test_nested_open_swaps(self):
        # step 0 takes a far block over rows 0 and 3; step 2 a block over
        # rows 1 and 2 while that is open
        assert hankel_transform([0, 0, 0, 2, 0, 0, 0]).values == (0, 0, 0, 16)
        assert branches(hankel_matrix([0, 0, 0, 2, 0, 0, 0], 3)) == {
            0: ("far block", (0, 3)), 2: ("adjacent block", (1, 2))}
        seq = [0, 0, 0, 2, 0, 0, 0, 3, -1, Fraction(2, 3), 5]
        assert list(hankel_transform(seq).values) == [per_n_det(seq, n) for n in range(6)]

    def test_nested_swap_reaching_further(self, rng):
        # step 0 takes a far block over rows 0 and 2; then row 1 is zero
        # but for column 3, so the next block reaches past the first (a
        # random search of Hankel patterns found none, so the elimination
        # is checked on this symmetric matrix)
        def nz():
            return rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(10):
            p, q, e, s, t, w, z = (nz() for _ in range(7))
            if p * s == q * e:
                continue
            m = [[0, 0, p, q],
                 [0, 0, e, s],
                 [p, e, t, w],
                 [q, s, w, z]]
            minors = _leading_minors(upper(m))
            assert minors[:3] == [0, 0, 0] and minors[3]
            assert minors == leading_cofactor_minors(m)
            assert branches(m) == {0: ("far block", (0, 2)), 2: ("adjacent block", (1, 3))}

    def test_column_without_pivot_zeroes_the_rest(self):
        # rank 1 and rank 2: column 1 (column 2) has no nonzero entry left
        assert hankel_transform([3 * 2 ** k for k in range(11)]).values == (3, 0, 0, 0, 0, 0)
        seq = [2 ** k + (-1) ** k for k in range(11)]
        values = hankel_transform(seq).values
        assert values[2:] == (0, 0, 0, 0) and values[1] != 0
        # a zero row while a far block is open: after the block over rows
        # 0 and 2, row 1 has no nonzero entry left
        m = [[0, 0, 1, 0], [0, 0, 2, 0], [1, 2, 5, 3], [0, 0, 3, 7]]
        assert _leading_minors(upper(m)) == [0, 0, 0, 0] == leading_cofactor_minors(m)
        assert branches(m) == {0: ("far block", (0, 2)), 2: ("stop", (1,))}

    def test_degenerate_members_stop_at_a_zero_row(self, rng):
        # ab + c = 0: the family member is 1/(1 - ax), a rank-1 Hankel
        # matrix, and the companion 1/(1 + ax + bx^2) has rank 2; these are
        # the family inputs whose elimination stops at a row with no
        # nonzero entry
        for dens in ((1,), (1, 2, 3, 5)):
            for _ in range(6):
                a, b = rand_fraction(rng, dens=dens), rand_fraction(rng, dens=dens)
                params = FamilyParams.of(a, b, -a * b)
                order = rng.randint(5, 25)
                top = (order - 1) // 2
                g = g_family(params, order).coeffs
                assert list(g) == [a ** k for k in range(order)]
                assert hankel_transform(g).values == (1,) + (0,) * top
                comp = [Fraction(1), -a]
                while len(comp) < order:
                    comp.append(-a * comp[-1] - b * comp[-2])
                assert list(companion(params, order).coeffs) == comp
                assert hankel_transform(comp).values == (1, -b) + (0,) * (top - 1)
                if dens == (1,):
                    assert kinds(branches(hankel_matrix(g, top)))[1] == "stop"
                    if b:
                        assert kinds(branches(hankel_matrix(comp, top)))[2] == "stop"

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


def pq_member(rng, make, dens=(2, 3, 5, 7)):
    """A p/q family or companion member, parameters over ``dens``."""
    while True:
        params = FamilyParams.of(*(Fraction(rng.randint(-9, 9), rng.choice(dens))
                                   for _ in range(3)))
        if params.somos_weight:
            return list(make(params, rng.randint(1, 45)).coeffs)


def assert_matches_oracles(seq):
    """Check the transform against the per-n and Fraction Gauss oracles."""
    values = list(hankel_transform(seq).values)
    dets = range(len(values))
    assert values == [per_n_det(seq, n) for n in dets], seq
    assert values == [gauss_det(hankel_matrix(seq, n)) for n in dets], seq


class TestRescaledRoute:
    """Bareiss on the ints of p/q terms over one denominator den, each
    minor divided by den**(n+1)."""

    def test_pq_members_match_oracles(self, rng):
        for make in (g_family, companion):
            for _ in range(12):
                assert_matches_oracles(pq_member(rng, make))

    def test_constant_denominator(self, rng):
        # den = 1 is integer input, whose minors are the values themselves
        for den in (1, 2, 6, 1024):
            seq = [Fraction(rng.randint(-9, 9), den) for _ in range(rng.randint(1, 25))]
            assert_matches_oracles(seq)

    def test_single_large_denominator(self, rng):
        for _ in range(4):
            seq = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(3, 25))]
            seq[rng.randrange(len(seq))] = Fraction(rng.randint(1, 9), 3 ** 40)
            assert_matches_oracles(seq)

    def test_denominator_on_s0(self, rng):
        for make in (g_family, companion):
            for _ in range(3):
                seq = pq_member(rng, make)
                seq[0] = Fraction(rng.randint(1, 9), rng.choice((3, 4, 35)))
                assert_matches_oracles(seq)

    def test_geometric_denominators_with_zero_pivots(self, rng):
        # random_sequence's zero shapes over s_k / mu**k: the shapes survive
        # the scaling (h_1 = 0 is homogeneous)
        forced = 0
        for _ in range(60):
            mu = rng.choice((2, 3, 6, 10))
            seq = [v / mu ** k for k, v in enumerate(random_sequence(rng, rng.randint(1, 25)))]
            assert_matches_oracles(seq)
            forced += 0 in hankel_transform(seq).values[:-1]
        assert forced >= 20

    def test_printed_pq_members(self):
        for params in ((Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)),
                       (Fraction(-11, 2), Fraction(1, 3), Fraction(2, 7))):
            g = g_family(FamilyParams.of(*params), 81)
            assert hankel_transform(g) == hankel_transform(g.coeffs)

    def test_integer_input_skips_lam(self, rng, monkeypatch):
        # den = 1: Bareiss runs on the terms themselves, with nothing scaled
        eliminated = record_eliminations(monkeypatch)
        for _ in range(10):
            seq = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 41))]
            assert_matches_oracles(seq)
            top = (len(seq) - 1) // 2
            assert eliminated[-1] == triangle([int(t) for t in seq], top), seq
        seq = g_family(FamilyParams.of(2, -2, 3), 41).coeffs
        assert hankel_transform(Series(seq)) == hankel_transform(seq)
        assert eliminated[-1] == triangle([int(t) for t in seq], 20)

    def test_lam_declined_where_it_does_not_pay(self, monkeypatch):
        # all denominators 1024, or one 3**40 at index 1: Bareiss runs on
        # the numerators over that one denominator, with no k-dependent factor
        eliminated = record_eliminations(monkeypatch)
        seq = [Fraction(k % 7 - 3, 1024) for k in range(81)]
        assert hankel_transform(Series(seq)) == hankel_transform(seq)
        assert eliminated[-1] == triangle([k % 7 - 3 for k in range(81)], 40)
        seq = [Fraction(k % 7 - 3) for k in range(81)]
        seq[1] = Fraction(1, 3 ** 40)
        assert hankel_transform(Series(seq)) == hankel_transform(seq)
        assert eliminated[-1] == triangle([int(t * 3 ** 40) for t in seq], 40)


def record_eliminations(monkeypatch):
    """Patch hankel's Bareiss to log the rows of each elimination it runs."""
    eliminated = []

    def recording(rows):
        eliminated.append([list(row) for row in rows])
        return _leading_minors(rows)

    monkeypatch.setattr("riopi.hankel._leading_minors", recording)
    return eliminated


class TestSeriesInput:
    """A Series is read as its own ints over one denominator: the same
    transform as its Fraction coefficients."""

    def test_series_equals_its_coefficients(self, rng):
        for i in range(60):
            if i % 3:
                s = Series(pq_member(rng, (g_family, companion)[i % 2]))
            else:
                s = Series(random_sequence(rng, rng.randint(1, 25)))
            assert hankel_transform(s) == hankel_transform(s.coeffs), s.coeffs

    def test_unread_last_term_leaves_the_ints(self, rng, monkeypatch):
        # an even-order Series whose last term brings a new large
        # denominator: the transform reads only its odd prefix, and
        # Bareiss runs on that prefix's own ints
        eliminated = record_eliminations(monkeypatch)
        for make in (g_family, companion):
            for _ in range(4):
                seq = pq_member(rng, make)
                if len(seq) % 2 == 0:
                    seq.pop()
                prefix = Series(seq)
                s = Series(seq + [Fraction(rng.randint(1, 9), 11 ** 60)])
                want = hankel_transform(prefix).values
                assert hankel_transform(s).values == want == hankel_transform(s.coeffs).values
                assert eliminated[-3] == eliminated[-2] == eliminated[-1]
                assert_matches_oracles(list(s.coeffs))

    def test_hankel_det_takes_either(self, rng):
        for _ in range(20):
            s = Series(random_sequence(rng, rng.randint(1, 15)))
            for n in range((s.order - 1) // 2 + 1):
                want = per_n_det(s.coeffs, n)
                assert hankel_det(s, n) == want
                assert hankel_det(s.coeffs, n) == want


def triangle(ints, n):
    """Upper triangle of the (n+1)x(n+1) Hankel matrix of ints[0..2n]."""
    return [list(ints[2 * i:i + n + 1]) for i in range(n + 1)]


def zero_dense(rng, length, dens=(1,)):
    """Mostly zero terms over dens, so that zero pivots and zero blocks occur."""
    return [Fraction(rng.choice((0, 0, 0, rng.randint(-4, 4))), rng.choice(dens))
            for _ in range(length)]


class TestSymmetricElimination:
    """The upper-triangle elimination against per-n Bareiss and cofactors,
    with every branch reached: nonzero pivot, adjacent 2x2 block, far 2x2
    block, and the stop at a row with no nonzero entry."""

    @staticmethod
    def run(ints):
        """Minors and steps of the symmetric elimination of int ints."""
        n = (len(ints) - 1) // 2
        minors = _leading_minors(triangle(ints, n))
        return minors, branches(hankel_matrix(ints, n))

    def test_integer_sweep(self, rng):
        seen = dict.fromkeys(("pivot", "adjacent block", "far block", "late far block",
                              "stop", "stop with rows left"), 0)
        for _ in range(400):
            ints = [int(t) for t in zero_dense(rng, 2 * rng.randint(0, 7) + 1)]
            minors, steps = self.run(ints)
            n = len(minors) - 1
            assert minors == [per_n_det(ints, k) for k in range(n + 1)], ints
            if n <= 4:
                assert minors == leading_cofactor_minors(hankel_matrix(ints, n)), ints
            for k, (branch, rows) in steps.items():
                seen[branch] += 1
                seen["late far block"] += branch == "far block" and k > 0
                seen["stop with rows left"] += branch == "stop" and rows[0] < n
        assert min(seen.values()) >= 10, seen

    def test_pq_sweep(self, rng):
        seen = set()
        for _ in range(300):
            mu = rng.choice((1, 2, 3, 6))
            seq = [t / mu ** k for k, t in
                   enumerate(zero_dense(rng, rng.randint(1, 17), dens=(1, 2, 3, 5)))]
            values = list(hankel_transform(seq).values)
            assert values == [per_n_det(seq, n) for n in range(len(values))], seq
            # a nonzero constant factor on every term, or mu**k on term k, keeps
            # each minor zero or nonzero, so the lcm-scaled ints take the same steps
            scale = math.lcm(*[t.denominator for t in seq])
            seen.update(kinds(branches(hankel_matrix([int(t * scale) for t in seq],
                                                     len(values) - 1))).values())
        assert seen == {"pivot", "adjacent block", "far block", "stop"}

    def test_symmetric_zero_dense_matrices(self, rng):
        # symmetric int matrices beyond the Hankel pattern: far blocks,
        # blocks opened while another is open that reach past it, and
        # zero rows while a block is open
        seen = dict.fromkeys(("far block", "nested reaching further", "stop while open"), 0)
        for _ in range(500):
            n = rng.randint(3, 6)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.choice((0, 0, 0, rng.randint(-5, 5)))
            assert _leading_minors(upper(m)) == leading_cofactor_minors(m), m
            reach = -1
            for k, (branch, rows) in sorted(branches(m).items()):
                seen["far block"] += branch == "far block"
                seen["stop while open"] += branch == "stop" and reach >= k
                seen["nested reaching further"] += len(rows) == 2 and k <= reach < rows[1]
                reach = max(reach, *rows)
        assert min(seen.values()) >= 10, seen

    def test_pinned_late_far_block(self):
        # after step 0, entries (1,1) = s2 - s1**2, (1,2) = s3 - s1*s2 and
        # (1,3) are 0 and (1,4) = s5 is not: a far block over rows 1 and 4
        # from the pivot 1 of step 0
        ints = [1, 0, 0, 0, 0, 3, 1, 2, 5]
        minors, steps = self.run(ints)
        assert steps == {0: ("pivot", (0,)), 1: ("far block", (1, 4)),
                         3: ("adjacent block", (2, 3))}
        assert minors == [per_n_det(ints, n) for n in range(5)]
        assert minors == leading_cofactor_minors(hankel_matrix(ints, 4))
        # an adjacent block first, then at step 2 a row with no nonzero
        # entry left: h_2 .. h_4 are 0
        ints = [0, 1, 0, 0, 0, 0, 0, 7, 2]
        minors, steps = self.run(ints)
        assert kinds(steps) == {0: "adjacent block", 2: "stop"}
        assert minors == [0, -1, 0, 0, 0] == leading_cofactor_minors(hankel_matrix(ints, 4))

    def test_pinned_far_block_from_step_0(self):
        minors, steps = self.run([0, 0, 0, 2, 0, 0, 0])
        assert kinds(steps) == {0: "far block", 2: "adjacent block"}
        assert minors == [0, 0, 0, 16]

    def test_scan_members_take_only_blocks(self):
        # isolated zeros every 6th / 4th index: many adjacent 2x2 blocks in
        # one elimination, never a far block or a stop
        for make, params, zeros in ((g_family, (1, 3, 3), [1, 7, 13, 19, 25, 31]),
                                    (companion, (3, -1, 0), [2, 6, 10, 14, 18, 22, 26, 30])):
            ints = [int(t) for t in make(FamilyParams.of(*params), 65).coeffs]
            minors, steps = self.run(ints)
            assert [k for k, branch in kinds(steps).items() if branch != "pivot"] == zeros
            assert set(kinds(steps).values()) == {"pivot", "adjacent block"}
            assert minors == [per_n_det(ints, n) for n in range(33)]


class TestRootTransform:
    """root_transform reads the transform off the H-fraction of a root's
    quadratic; Bareiss on the expanded root is the oracle."""

    ORDERS = (1, 2, 3, 4, 5, 17, 41)

    @staticmethod
    def bareiss(build, arg, order):
        return hankel_transform(build(arg, order))

    def test_family_members_and_companions(self, rng):
        # integer and p/q members; b = 0 in every eighth, ab + c = 0 (the
        # fraction ends) in the next, and a = 1 in the one after that
        for i in range(160):
            ints = i % 2 == 0
            a, b, c = (Fraction(rng.randint(-4, 4)) if ints else rand_fraction(rng)
                       for _ in range(3))
            if i % 8 == 0:
                b = Fraction(0)
            elif i % 8 == 1:
                c = -a * b
            elif i % 8 == 2:
                a = Fraction(1)
            p = FamilyParams(a, b, c)
            for order in self.ORDERS:
                assert root_transform(equation(p), order) == self.bareiss(g_family, p, order), \
                    (p, order)
                assert (root_transform(companion_equation(p), order)
                        == self.bareiss(companion, p, order)), (p, order)

    def test_ci_members(self):
        # the rank-1 and rank-2 members of the degenerate smoke runs, and
        # the members whose transforms have a zero every 6th and 4th index
        for eq, build, p, order in (
                (equation, g_family, FamilyParams.of(1, -1, 1), 33),
                (companion_equation, companion, FamilyParams.of(2, -3, 6), 33),
                (equation, g_family, FamilyParams.of(1, 3, 3), 64),
                (companion_equation, companion, FamilyParams.of(3, -1, 0), 64)):
            got = root_transform(eq(p), order)
            assert got == self.bareiss(build, p, order), (build.__name__, p)
            # the fraction ends at ab + c = 0; the others have zero blocks
            assert not any(got.values[2:]) if p.somos_weight == 0 else 0 in got.values[2:]

    def test_curvef_curves(self, rng):
        curves = [Fraction(a) for a in range(-10, 12)]
        curves += [rand_fraction(rng, span=12, dens=(2, 3, 5, 7)) for _ in range(22)]
        assert len(curves) == 44
        for a in curves:
            for order in (1, 4, 17, 39):
                assert (root_transform(f_equation(a), order)
                        == self.bareiss(f_from_curve, a, order)), (a, order)

    def test_zero_blocks_inside_runs(self):
        # runs of k = 0 steps that end in a zero block inside the map (a
        # zero every 6th and 4th index on 1 3 3 and 3 -1 0) or at its entry
        # (b = 0): the map takes each zero block in its closed step
        for eq, build, p, ks in (
                (equation, g_family, (1, 3, 3), "0100001"),
                (companion_equation, companion, (1, 3, 3), "000010000"),
                (equation, g_family, (3, -1, 0), "010010"),
                (companion_equation, companion, (3, -1, 0), "001001"),
                (equation, g_family, (2, 0, -3), "010101"),
                (companion_equation, companion, (-1, 0, 1), "010101"),
                (equation, g_family, (Fraction(1, 2), 0, Fraction(5, 3)), "010101")):
            orders = (64, 128) if all(isinstance(v, int) for v in p) else (64,)
            p = FamilyParams.of(*p)
            assert "".join(str(step[0]) for _, step in zip(ks, _h_fraction(eq(p)))) == ks, p
            for order in orders:
                assert root_transform(eq(p), order) == self.bareiss(build, p, order), \
                    (build.__name__, p, order)

    def test_every_entry_reads_the_constants_of_d(self, monkeypatch):
        # the map's C and K, read off the record's ints at either entry
        # (shape A for the family and its companion, shape B for curvef),
        # are the constants of the record's D = p1^2 - 4*p2*p0.  The map is
        # entered once and runs to the end of the fraction: each of its
        # zero blocks yields -K/2 at k = 1 and again at the k = 0 step
        # after it
        entries, enter = [], riopi.hankel._map

        def spy(*args):
            entries.append(args)
            return enter(*args)

        monkeypatch.setattr(riopi.hankel, "_map", spy)
        for eq in (equation(FamilyParams.of(1, 3, 3)), companion_equation(FamilyParams.of(3, -1, 0)),
                   equation(FamilyParams.of(Fraction(-2, 3), 0, Fraction(1, 2))),
                   companion_equation(FamilyParams.of(Fraction(1, 2), Fraction(-2, 3), 0)),
                   f_equation(1)):
            entries.clear()
            steps = list(islice(_h_fraction(eq), 64))
            p2, p1, p0 = ([Fraction(c) for c in p] for p in (eq.p2, eq.p1, eq.p0))
            d = [0] * 5
            for i, u in enumerate(p1):
                for j, w in enumerate(p1):
                    d[i + j] += u * w
            for i, u in enumerate(p2):
                for j, w in enumerate(p0):
                    d[i + j] -= 4 * u * w
            assert d[0] == 1
            c0 = d[2] / 2 - d[1] ** 2 / 8
            half_c, half_k = (d[2] - 3 * d[1] ** 2 / 8) / 2, (d[3] - d[1] * c0) / 4
            assert len(entries) == 1, eq
            _, cn, cd, kn, kd, *_ = entries[0]
            assert (Fraction(cn, cd), Fraction(kn, kd)) == (half_c, half_k), eq
            v = -half_k
            blocks = [j for j in range(len(steps) - 1) if steps[j][0]]
            assert len(blocks) >= 5, eq
            for j in blocks:
                assert steps[j:j + 2] == [(1, v.numerator, v.denominator),
                                          (0, v.numerator, v.denominator)], (eq, j)

    # sha256 of " ".join(map(str, values)), first 16 hex digits, at orders
    # 64 and 128: the values the H-fraction gave when a general int step
    # took each zero block itself
    PINNED = (
        (equation, (1, 3, 3), "dac84f353c7155fa", "3b5ecf196b665dda"),
        (companion_equation, (1, 3, 3), "e0ed73b8199dbec7", "c63045b901205903"),
        (equation, (3, -1, 0), "da0f4bdc529ddc3c", "01aa40ce8179d8a4"),
        (companion_equation, (3, -1, 0), "cc159c50b019131a", "31cc52ebc739ed47"),
        (equation, (2, 0, -3), "66807b9717a57016", "d05ebbf581b53e4b"),
        (companion_equation, (-1, 0, 1), "73149866296e162c", "c815ac393e57b813"),
        (equation, (Fraction(1, 2), 0, Fraction(5, 3)), "87ba8bb348ed60b1", "35a0022cd41c0e47"),
        (equation, (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)),
         "fc7dd70ef83a35f6", "86fe6c0990699194"),
        (companion_equation, (Fraction(-11, 2), Fraction(1, 3), Fraction(2, 7)),
         "9abed1facd23ffa0", "339e309e635e5281"),
        (lambda p: f_equation(p.a), (1,), "195746278e6f75ff", "9e45bc68179abdb5"),
        (lambda p: f_equation(p.a), (Fraction(-11, 2),), "92d3bc3a2758baa6", "c4b68d9385ea151a"),
    )

    def test_production_records_never_fall_back(self, rng, monkeypatch):
        # every equation kind the library builds enters the map (shape A or
        # B), so root_transform never expands its root for Bareiss; and the
        # pinned values hold on that route
        def refuse(eq, order):
            raise AssertionError(f"{eq} fell back to Bareiss")

        monkeypatch.setattr(riopi.hankel, "_quadratic_root", refuse)
        for kind, gen in GENERATORS.items():
            if gen.equation is None:
                continue
            for i in range(6):
                params = tuple(Fraction(rng.randint(-6, 6)) if i % 2 else
                               rand_fraction(rng, span=9, dens=(1, 2, 3, 7))
                               for _ in range(gen.arity))
                for order in (1, 2, 3, 4, 5, 9, 16, 33, 64, 128):
                    root_transform(gen.equation(params), order)
        for eq, p, *digests in self.PINNED:
            p = FamilyParams.of(*p, *[0] * (3 - len(p)))
            for order, digest in zip((64, 128), digests):
                values = root_transform(eq(p), order).values
                got = hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest()[:16]
                assert got == digest, (eq, p, order)

    def test_curvef_division_values(self):
        # h_n of f on E_a: y^2 - axy - y = x^3 - x is (-1)^n psi_(n+1), the
        # division values at (0, 0), far past the orders Bareiss reaches
        for a in (Fraction(-3), Fraction(3), Fraction(5), Fraction(-11, 2)):
            psi = division_values(a, 102)
            values = hankel_transform(f_equation(a), 201).values
            assert list(values) == [(-1) ** n * psi[n + 1] for n in range(101)], a

    def test_zero_blocks_and_first_steps(self):
        # zero blocks of length 1 on the map, and records that take neither
        # entry (None): zero blocks of length 2 and 3 (deg D > 4), roots
        # with y0 = 0 (first step with k > 0), p2(0) != 0 with p0(0) != 0,
        # a polynomial root whose fraction ends, and the zero root
        cases = {
            Quadratic((0,), (1, 0, 0, -1), (-1,), 1): None,
            Quadratic((0, 0, 0, -1), (1,), (-1,), 1): [0, 1, 0, 1, 0, 1],
            Quadratic((0, 0, 0, 0, -1), (1, 0, -1), (-1,), 1): None,
            Quadratic((0,), (1,), (0, 0, 0, -1, 0, 0, 2), 0): None,
            Quadratic((1,), (-1,), (0, 0, 1), 0): None,
            Quadratic((2, 1), (-1, 3), (0, 0, 0, 1, Fraction(1, 2)), 0): None,
            Quadratic((1,), (-1,), (0,), 1): None,
            Quadratic((0,), (1,), (0,), 0): None,
        }
        for eq, blocks in cases.items():
            steps = _h_fraction(eq)
            assert (steps if blocks is None
                    else [step[0] for _, step in zip(range(6), steps)]) == blocks, eq
            for order in range(1, 40):
                want = hankel_transform(_quadratic_root(eq, order))
                assert root_transform(eq, order) == want, (eq, order)

    def test_random_quadratics(self, rng):
        # random records of every shape the pivot rule allows: those outside
        # both entries to the map take Bareiss
        def poly(constant):
            return tuple([constant] + [rng.choice((0, rand_fraction(rng)))
                                       for _ in range(rng.randint(0, 3))])
        for _ in range(150):
            y0, c2, pivot = rng.choice((-1, 0, 0, 1, 2)), rng.randint(-2, 2), rng.choice((1, -1))
            c1 = pivot - 2 * c2 * y0
            eq = Quadratic(poly(c2), poly(c1), poly(-c2 * y0 * y0 - c1 * y0), y0)
            for order in (1, 2, 6, 13, 20):
                want = hankel_transform(_quadratic_root(eq, order))
                assert root_transform(eq, order) == want, (eq, order)

    def test_shape_b_records(self, rng):
        # p2(0) = +-1 with y0 = -+1 (pivot -1) or y0 = +-1 (pivot 1, as
        # curvef), and p0 = c*x for p/q c of both signs: step 0 yields y0,
        # step 1 the zero-block tail's -K/2 scaled, then the map
        def poly(constant, degree):
            return (constant,) + tuple(rng.choice((0, rand_fraction(rng, dens=(1, 2, 3, 7))))
                                       for _ in range(rng.randint(0, degree)))
        taken = 0
        for i in range(40):
            c2, y0 = rng.choice((1, -1)), rng.choice((1, -1))
            c = rand_fraction(rng, span=5, dens=(2, 3, 5)) or Fraction(1, 2)
            c = abs(c) if i % 2 else -abs(c)
            eq = Quadratic(poly(c2, 3), poly(-c2 * y0, 2), (0, c), y0)
            steps = _h_fraction(eq)
            if steps is not None:
                taken += 1
                assert next(steps) == (0, y0, 1), eq
            for order in range(1, 41):
                want = hankel_transform(_quadratic_root(eq, order))
                assert root_transform(eq, order) == want, (eq, order)
        assert taken >= 35

    def test_shape_a_records_off_y0_one(self, rng):
        # shape A with y0 not in {0, 1}: step 0 yields y0 = -b0/a0
        for i in range(30):
            y0, pivot = rng.choice((-3, -2, -1, 2, 3)), rng.choice((1, -1))
            eq = Quadratic((0, 0, rand_fraction(rng), rand_fraction(rng)),
                           (pivot, rand_fraction(rng), rand_fraction(rng)),
                           (-pivot * y0, rand_fraction(rng)), y0)
            assert next(_h_fraction(eq)) == (0, y0, 1), eq
            for order in range(1, 41):
                want = hankel_transform(_quadratic_root(eq, order))
                assert root_transform(eq, order) == want, (eq, order)

    def test_fallback_shapes_take_bareiss(self):
        # records with neither entry: y0 = 0, val(p2) = 1, deg D > 4 (from
        # each of p2, p1 and p0), p2(0) != 0 with p0(0) != 0, and shape B
        # with K = 0 (p2 = 1 - 2x^2, p1 = 1, p0 = x)
        for eq in (Quadratic((0, 0, 1), (1, 2), (0, Fraction(1, 3)), 0),
                   Quadratic((0, 1, -1), (-1, Fraction(1, 2)), (2, 1), 2),
                   Quadratic((0, 0, 1, 0, Fraction(-1, 2)), (1, 1), (-1,), 1),
                   Quadratic((0, 0, 1), (1, 0, 0, 2), (-1, 3), 1),
                   Quadratic((0, 0, -1), (-1, 1), (1, 0, Fraction(2, 3)), 1),
                   Quadratic((1, 2), (-3, 1), (2, -1), 1),
                   Quadratic((1, 0, -2), (1,), (0, 1), -1)):
            assert _h_fraction(eq) is None, eq
            for order in range(1, 41):
                want = hankel_transform(_quadratic_root(eq, order))
                assert root_transform(eq, order) == want, (eq, order)

    def test_hankel_transform_takes_a_quadratic(self, rng):
        # hankel_transform sends a Quadratic down the H-fraction, with its
        # order, and terms down Bareiss, without one
        for _ in range(20):
            p = FamilyParams(*(rand_fraction(rng) for _ in range(3)))
            for order in (1, 24):
                assert hankel_transform(equation(p), order) == root_transform(equation(p), order)
        with pytest.raises(TypeError, match="needs an order"):
            hankel_transform(equation(FamilyParams.of(1, 2, 3)))
        with pytest.raises(TypeError, match="own order"):
            hankel_transform([1, 2, 3], 3)

    def test_rejects(self):
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            root_transform(equation(FamilyParams.of(1, 2, 3)), 0)
        with pytest.raises(ValueError, match="pivot"):
            root_transform(Quadratic((1,), (0,), (-1,), 1), 8)
        with pytest.raises(ValueError, match="^p0 is empty"):
            hankel_transform(Quadratic((0,), (1,), (), 0), 5)
        # the record is read as ints: floats stay TypeError, a decimal string
        # ValueError, and a 'p/q' string reads as its Fraction
        for eq in (Quadratic((0,), (-1, 0.5), (1,), 1), Quadratic((0,), (-1,), (1,), 1.0)):
            with pytest.raises(TypeError, match="^not an exact rational"):
                root_transform(eq, 8)
        with pytest.raises(ValueError, match="^malformed rational '0.5'"):
            root_transform(Quadratic((0,), (-1, '0.5'), (1,), 1), 8)
        fractions = equation(FamilyParams.of('1/2', '-2/3', '5/3'))
        strings = Quadratic((0, 0, '2/3', '-5/3'), (-1, '1/2', '-2/3'), (1,), Fraction(1))
        assert fractions.p2[2:] == (Fraction(2, 3), Fraction(-5, 3))
        for order in (9, 40):
            want, got = root_transform(fractions, order), root_transform(strings, order)
            assert (got.nums, got.dens) == (want.nums, want.dens)
