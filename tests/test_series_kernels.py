"""The integer Series kernels against the Fraction oracle, on seeded
random p/q series: orders 1..40, operands of different orders, divisor
valuations 0..3, zero and large coefficients; and the quadratic-root
kernel against the square-root forms of the series it builds."""

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
