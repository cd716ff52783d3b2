"""The integer Series kernels against the Fraction oracle, on seeded
random p/q series: orders 1..40, operands of different orders, divisor
valuations 0..3, zero and large coefficients."""

import random
from fractions import Fraction

import series_oracle as oracle
from riopi.series import Series

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
