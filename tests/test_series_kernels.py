"""The integer Series kernels against the Fraction oracle, on seeded
random p/q series: orders 1..40, operands of different orders, divisor
valuations 0..3, zero and large coefficients; and the quadratic-root
kernel against the square-root forms of the series it builds and against
a running self-convolution, on random records."""

import random
from fractions import Fraction

import pytest

import composition_oracle
import family_oracle
import series_oracle as oracle
from riopi.elliptic import curve_branch, f_from_curve
from riopi.family import FamilyParams, companion, g_family
from riopi.series import Quadratic, Series, _quadratic_root

CASES = 200


def rand_coeff(rng: random.Random) -> Fraction:
    r = rng.random()
    if r < 0.25:
        return Fraction(0)
    span = 9 if r < 0.85 else 10 ** 12
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3, 4, 6, 7, 25)))


def rand_nonzero(rng: random.Random) -> Fraction:
    c = Fraction(0)
    while not c:
        c = rand_coeff(rng)
    return c


def rand_series(rng: random.Random, order: int, valuation: int = 0,
                lead=None) -> Series:
    """Series of ``order`` terms: ``valuation`` zeros, a nonzero (or given)
    leading term when order allows, then random coefficients."""
    head = [Fraction(0)] * valuation
    if len(head) < order:
        head.append(rand_nonzero(rng) if lead is None else Fraction(lead))
    return Series(head + [rand_coeff(rng) for _ in range(order - len(head))], order)


def assert_kernel(got: Series, want: tuple, case) -> None:
    assert got.coeffs == want, case
    assert all(type(c) is Fraction for c in got.coeffs), case


def test_mul_matches_oracle():
    rng = random.Random(101)
    for case in range(CASES):
        s = rand_series(rng, rng.randint(1, 40), rng.randint(0, 3))
        t = rand_series(rng, rng.randint(1, 40), rng.randint(0, 3))
        assert_kernel(s * t, oracle.mul(s, t), (case, s, t))


def test_divide_matches_oracle():
    rng = random.Random(102)
    for case in range(CASES):
        v = rng.randint(0, 3)
        s = rand_series(rng, rng.randint(v + 1, 40), v + rng.choice((0, 0, 1)))
        t = rand_series(rng, rng.randint(v + 1, 40), v)
        assert_kernel(s / t, oracle.divide(s, t), (case, s, t))


def test_reciprocal_matches_oracle():
    rng = random.Random(103)
    for case in range(CASES):
        t = rand_series(rng, rng.randint(1, 40))
        q = rand_nonzero(rng)
        assert_kernel(q / t, oracle.divide(Series.constant(q, t.order), t), (case, q, t))


def test_sqrt_matches_oracle():
    rng = random.Random(104)
    for case in range(CASES):
        s = rand_series(rng, rng.randint(1, 40), lead=1)
        assert_kernel(s.sqrt(), oracle.sqrt(s), (case, s))


def test_compose_matches_oracle():
    rng = random.Random(105)
    for case in range(CASES):
        outer = rand_series(rng, rng.randint(1, 40))
        inner = rand_series(rng, rng.randint(1, 40), rng.randint(1, 6))
        assert_kernel(outer.compose(inner), oracle.compose(outer, inner),
                      (case, outer, inner))


def test_quotient_times_divisor_is_dividend():
    rng = random.Random(106)
    for case in range(CASES):
        v = rng.randint(0, 3)
        a = rand_series(rng, rng.randint(v + 1, 40), v)
        b = rand_series(rng, rng.randint(v + 1, 40), v)
        product = (a / b) * b
        assert product.coeffs == a.coeffs[:product.order], (case, a, b)


def test_sqrt_squared_is_series():
    rng = random.Random(107)
    for case in range(CASES):
        s = rand_series(rng, rng.randint(1, 40), lead=1)
        r = s.sqrt()
        assert (r * r).coeffs == s.coeffs, (case, s)


def test_revert_twice_is_identity():
    rng = random.Random(108)
    for case in range(CASES // 4):
        f = rand_series(rng, rng.randint(2, 30), 1)
        assert f.revert().revert().coeffs == f.coeffs, (case, f)


# The quadratic-root kernel against the square-root closed forms of the four
# series it builds.  Orders 1-4 reach every start-up index of its recurrence,
# and 40 and 64 the orders the CLI and the benchmark use.
QUADRATIC_ORDERS = (1, 2, 3, 4, 40, 64)
QUADRATIC_DENS = (1, 2, 3, 7, 12)


def quadratic_cases(rng: random.Random):
    """(build, oracle, argument, order) cases: p/q and integer parameters,
    b = 0 and ab + c = 0 members, a = 1 curves and plain-int parameters."""
    families = ((g_family, family_oracle.g_family_sqrt),
                (companion, family_oracle.companion_sqrt))
    curves = ((curve_branch, composition_oracle.curve_branch_sqrt),
              (f_from_curve, composition_oracle.f_from_curve_sqrt))
    for order in QUADRATIC_ORDERS:
        members = [FamilyParams(*(rng.randint(-9, 9) for _ in range(3)))]
        a_values = [1, Fraction(1)]
        for den in QUADRATIC_DENS:
            a, b, c = (Fraction(rng.randint(-9, 9), den) for _ in range(3))
            members += [FamilyParams(a, b, c), FamilyParams(a, Fraction(0), c),
                        FamilyParams(a, b, -a * b)]
            a_values.append(a)
        for build, oracle in families:
            for p in members:
                yield build, oracle, p, order
        for build, oracle in curves:
            for a in a_values:
                yield build, oracle, a, order


def test_quadratic_root_matches_sqrt_oracles():
    rng = random.Random(109)
    for build, oracle, arg, order in quadratic_cases(rng):
        got, want = build(arg, order), oracle(arg, order)
        case = (build.__name__, arg, order)
        assert (got._nums, got._den) == (want._nums, want._den), case


def test_quadratic_root_matches_sqrt_oracles_at_depth():
    # the recurrence at orders past the CLI default, on both p2 shapes: a
    # p2 of valuation 2 or 3 (members, companion) and p2(0) != 0 (curves)
    third = Fraction(1, 3)
    member = FamilyParams.of(Fraction(1, 2), -2 * third, 5 * third)
    cases = ((g_family, family_oracle.g_family_sqrt, member),
             (g_family, family_oracle.g_family_sqrt, FamilyParams.of(2, 0, -3)),
             (companion, family_oracle.companion_sqrt,
              FamilyParams.of(Fraction(-11, 2), third, Fraction(2, 7))),
             (curve_branch, composition_oracle.curve_branch_sqrt, Fraction(-11, 2)),
             (f_from_curve, composition_oracle.f_from_curve_sqrt, Fraction(-11, 2)),
             (f_from_curve, composition_oracle.f_from_curve_sqrt, -3))
    for build, oracle, arg in cases:
        for order in (128, 257):
            got, want = build(arg, order), oracle(arg, order)
            assert (got._nums, got._den) == (want._nums, want._den), (build.__name__, arg, order)


QUADRATIC_SHAPES = ("p2(0) != 0", "val(p2) >= 2", "p2 = 0", "y0 = 0")


def random_quadratic(rng: random.Random, shape: str, pq: bool) -> Quadratic:
    """A record of ``shape`` whose pivot is +-1, with integer or p/q tails."""
    dens = (1, 2, 3, 7, 12) if pq else (1,)

    def tail(terms):
        return [rng.choice((0, Fraction(rng.randint(-9, 9), rng.choice(dens))))
                for _ in range(terms)]

    pivot = rng.choice((1, -1))
    y0 = 0 if shape == "y0 = 0" else rng.randint(-2, 2)
    if shape == "p2(0) != 0":
        c2 = rng.choice((-2, -1, 1, 2, 3))
        p2 = [c2] + tail(rng.randint(0, 3))
    elif shape == "val(p2) >= 2":
        c2 = 0
        p2 = [0] * rng.randint(2, 3) + [Fraction(rng.choice((-5, -1, 1, 4)), rng.choice(dens))]
        p2 += tail(rng.randint(0, 2))
    elif shape == "p2 = 0":
        c2 = 0
        p2 = [0] * rng.randint(1, 3)
    else:
        c2 = rng.randint(-2, 2)
        p2 = [c2] + tail(rng.randint(0, 3))
    c1 = pivot - 2 * c2 * y0
    c0 = -c2 * y0 * y0 - c1 * y0
    return Quadratic(tuple(p2), tuple([c1] + tail(rng.randint(0, 3))),
                     tuple([c0] + tail(rng.randint(0, 4))), y0)


def test_quadratic_root_matches_convolution_oracle():
    # the linear recurrence of sqrt(D) against the running self-convolution
    # of Y^2, on seeded records of every shape, integer and p/q
    rng = random.Random(110)
    for case in range(400):
        eq = random_quadratic(rng, QUADRATIC_SHAPES[case % 4], bool(case & 4))
        order = rng.choice((1, 2, 3, 5, rng.randint(6, 60), 128)) if case % 16 else 257
        assert_kernel(_quadratic_root(eq, order), oracle.quadratic_root(eq, order), (eq, order))


def test_quadratic_root_rejects():
    for build, arg in ((g_family, FamilyParams(1, 2, 3)), (companion, FamilyParams.of(1, 2, 3)),
                       (curve_branch, Fraction(-11, 2)), (f_from_curve, 1)):
        for order in (0, -1):
            with pytest.raises(ValueError, match="^order must be at least 1$"):
                build(arg, order)
    # y^2 - 1 = 0 at y0 = 1, and y^2 + y - 2 = 0 at y0 = 1: pivots 2 and 3
    for p1, p0 in (((0,), (-1,)), ((1,), (-2,))):
        with pytest.raises(ValueError, match="pivot"):
            _quadratic_root(Quadratic((1,), p1, p0, 1), 8)
    with pytest.raises(ValueError, match="no root"):
        _quadratic_root(Quadratic((0,), (-1,), (2,), 1), 8)
    with pytest.raises(ValueError, match="integers"):
        _quadratic_root(Quadratic((0,), (-1,), (Fraction(1, 2),), Fraction(1, 2)), 8)
    for eq, name in ((Quadratic((), (1,), (0,), 0), "p2"), (Quadratic((0,), (), (0,), 0), "p1"),
                     (Quadratic((0,), (1,), (), 0), "p0")):
        with pytest.raises(ValueError, match=f"^{name} is empty"):
            _quadratic_root(eq, 5)
    # the record is read as ints: floats stay TypeError, a decimal string
    # ValueError, and a 'p/q' string reads as its Fraction
    for eq in (Quadratic((0,), (-1, 0.5), (1,), 1), Quadratic((0,), (-1,), (1,), 1.0)):
        with pytest.raises(TypeError, match="^not an exact rational"):
            _quadratic_root(eq, 8)
    with pytest.raises(ValueError, match="^malformed rational '0.5'"):
        _quadratic_root(Quadratic((0,), (-1, '0.5'), (1,), 1), 8)
    fractions = Quadratic((0, 0, Fraction(2, 3), Fraction(-5, 3)), (-1, Fraction(1, 2), Fraction(-2, 3)),
                          (1,), 1)
    strings = Quadratic((0, 0, '2/3', '-5/3'), (-1, '1/2', '-2/3'), (1,), Fraction(1))
    assert _quadratic_root(strings, 16) == _quadratic_root(fractions, 16)
