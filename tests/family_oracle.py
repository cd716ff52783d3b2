"""The paper's other printed routes to the (a, b, c) family, as test oracles.

``riopi.family`` builds every member, and the companion, as the root of the
quadratic num*g^2 - den*g + 1 = 0 that (1/den)*c(num/den^2) solves.  The
square-root closed form 2/(den + sqrt(den^2 - 4*num)) of that root is
``catalan_quotient`` here.  The paper also prints each member as a period-1
continued fraction, as a quadratic recurrence when c = 0, and as single,
double and triple sums; those routes live here so the tests can check the
build against every printed formula.  ``a_family`` is the A-series of
the family's Bell array, compared with ``a_from_g`` and with
``riordan_oracle.a_from_b``.
``binomial_transform_sum`` is the term-by-term double sum that
``binomial_transform``'s integer difference table replaces.
"""

import math
from fractions import Fraction

from riopi.family import binomial
from riopi.series import Series, cf_eval, rational


def catalan_quotient(den: Series, num: Series) -> Series:
    """(1/den) * c(num/den^2) for the Catalan series c, as
    2 / (den + sqrt(den^2 - 4*num)); needs den(0) = 1 and num(0) = 0."""
    return 2 / (den + (den * den - 4 * num).sqrt())


def g_family_sqrt(p, order: int) -> Series:
    """Family member by its square-root closed form."""
    return catalan_quotient(Series([1, -p.a, -p.b], order), Series([0, 0, -p.b, -p.c], order))


def companion_sqrt(p, order: int) -> Series:
    """Companion series by its square-root closed form."""
    return catalan_quotient(Series([1, p.a, p.b], order),
                            Series([0, 0, 0, p.somos_weight], order))


def a_family(p, order: int) -> Series:
    """A-sequence generating function, as its Catalan closed form."""
    k = p.somos_weight
    den = Series([1, p.a, p.b], order)
    num = Series([0, 0, 0, k], order)
    head = Series([1, p.a], order)
    return head - num * catalan_quotient(den, num)


def g_family_cf(p, order: int) -> Series:
    """Family member from its period-1 continued fraction."""
    alpha = Series([1, -p.a, -p.b], order)
    beta = Series([0, 0, -p.b, -p.c], order)
    return cf_eval([(alpha, beta)], order)


def companion_cf(p, order: int) -> Series:
    """Companion series from its period-1 continued fraction."""
    alpha = Series([1, p.a, p.b], order)
    beta = Series([0, 0, 0, p.somos_weight], order)
    return cf_eval([(alpha, beta)], order)


def binomial_transform_sum(seq, c=1) -> list[Fraction]:
    """t_n = sum_k binom(n, k) * c^(n-k) * s_k, term by term over Fraction."""
    terms = [rational(v) for v in seq]
    c = rational(c)
    out = []
    for n in range(len(terms)):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += Fraction(math.comb(n, k)) * c ** (n - k) * terms[k]
        out.append(acc)
    return out


def g_recurrence_c0(a, b, order: int) -> Series:
    """c = 0 members by the quadratic recurrence
    g_n = a*g_{n-1} + b*g_{n-2} - b * sum g_k g_{n-2-k}."""
    a, b = rational(a), rational(b)
    g = [Fraction(1)]
    if order > 1:
        g.append(a)
    for n in range(2, order):
        conv = sum(g[k] * g[n - 2 - k] for k in range(n - 1))
        g.append(a * g[n - 1] + b * g[n - 2] - b * conv)
    return Series(g)


def sum_ad(n: int, a, d) -> Fraction:
    """Closed sum for the B = a + d*x member:
    sum_k binom(n-k, n-3k) d^k a^(n-3k) C_k."""
    a, d = rational(a), rational(d)
    total = Fraction(0)
    for k in range(n // 3 + 1):
        ck = Fraction(math.comb(2 * k, k), k + 1)
        total += binomial(n - k, n - 3 * k) * d ** k * a ** (n - 3 * k) * ck
    return total


def sum_ab(n: int, a, b) -> Fraction:
    """First printed double sum for c = 0 members (j-indexed form)."""
    a, b = rational(a), rational(b)
    total = Fraction(0)
    for k in range(n // 2 + 1):
        inner = Fraction(0)
        for j in range(n - 2 * k + 1):
            w = binomial(2 * k + j, j) * binomial(j, n - 2 * k - j)
            if w == 0:
                continue  # also keeps a, b exponents nonnegative
            inner += w * b ** (n - 2 * k - j) * a ** (2 * j + 2 * k - n)
        ck = Fraction(math.comb(2 * k, k), k + 1)
        total += inner * (-b) ** k * ck
    return total


def sum_ab_alt(n: int, a, b) -> Fraction:
    """Second printed double sum (i-indexed form); must equal sum_ab."""
    a, b = rational(a), rational(b)
    total = Fraction(0)
    for k in range(n // 2 + 1):
        inner = Fraction(0)
        for i in range(n - 2 * k + 1):
            w = binomial(n - i, 2 * k) * binomial(n - 2 * k - i, i)
            if w == 0:
                continue
            inner += w * b ** i * a ** (n - 2 * k - 2 * i)
        ck = Fraction(math.comb(2 * k, k), k + 1)
        total += inner * (-b) ** k * ck
    return total


def sum_abc(n: int, p) -> Fraction:
    """Triple sum for the general member."""
    total = Fraction(0)
    for k in range(n // 2 + 1):
        outer = Fraction(0)
        for i in range(k + 1):
            ki = binomial(k, i)
            if ki == 0 or n - 2 * k - i < 0:
                continue
            inner = Fraction(0)
            for m in range(n - 2 * k - i + 1):
                w = (binomial(n - i - m, n - 2 * k - i - m)
                     * binomial(n - 2 * k - i - m, m))
                if w == 0:
                    continue
                inner += w * p.b ** m * p.a ** (n - 2 * k - 2 * m - i)
            outer += ki * p.c ** i * p.b ** (k - i) * inner
        ck = Fraction(math.comb(2 * k, k), k + 1)
        total += outer * (-1) ** k * ck
    return total
