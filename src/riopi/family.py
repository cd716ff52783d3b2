"""The three-parameter involutory family and its companion.

The family member for parameters (a, b, c) is the generating function

    g(x) = 1/(1 - a*x - b*x^2) * c(-x^2*(b + c*x) / (1 - a*x - b*x^2)^2)

whose Bell array is a pseudo-involution with B-sequence generating
function (a - c*x)/(1 + b*x).  With c(u) = 2/(1 + sqrt(1 - 4u)) the
Catalan series, every such member (and the companion, and the A-series)
is a quadratic closed form (1/den)*c(num/den^2) = 2/(den + sqrt(den^2 -
4*num)): one product, one square root and one division, O(n^2).
Everything printed about the family -- continued fractions, quadratic
recurrence, single/double/triple sums -- is implemented as an
independent route so the pieces can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import Series, cf_eval, rational


@dataclass(frozen=True)
class FamilyParams:
    a: Fraction
    b: Fraction
    c: Fraction

    @classmethod
    def of(cls, a, b, c) -> "FamilyParams":
        return cls(rational(a), rational(b), rational(c))

    @classmethod
    def from_ad(cls, a, d) -> "FamilyParams":
        """B = a + d*x sits inside the family as b = 0, c = -d."""
        return cls(rational(a), Fraction(0), -rational(d))

    @property
    def somos_weight(self) -> Fraction:
        return self.a * self.b + self.c


def binomial(n: int, k: int) -> int:
    """binom(n, k), zero for k < 0, with the negative-n extension
    binom(-m, k) = (-1)^k binom(m+k-1, k)."""
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1) ** k * math.comb(k - n - 1, k)


def _catalan_quotient(den: Series, num: Series) -> Series:
    """(1/den) * c(num/den^2) for the Catalan series c, as
    2 / (den + sqrt(den^2 - 4*num)); needs den(0) = 1 and num(0) = 0."""
    return 2 / (den + (den * den - 4 * num).sqrt())


def g_family(p: FamilyParams, order: int) -> Series:
    """Involutory generating function of the family member."""
    den = Series([1, -p.a, -p.b], order)
    num = Series([0, 0, -p.b, -p.c], order)
    return _catalan_quotient(den, num)


def a_family(p: FamilyParams, order: int) -> Series:
    """A-sequence generating function, as its Catalan closed form."""
    k = p.somos_weight
    den = Series([1, p.a, p.b], order)
    num = Series([0, 0, 0, k], order)
    head = Series([1, p.a], order)
    return head - num * _catalan_quotient(den, num)


def g_family_cf(p: FamilyParams, order: int) -> Series:
    """Same series from its period-1 continued fraction."""
    alpha = Series([1, -p.a, -p.b], order)
    beta = Series([0, 0, -p.b, -p.c], order)
    return cf_eval([(alpha, beta)], order)


def g_ad(a, d, order: int) -> Series:
    """B = a + d*x specialization, 1/(1-ax) * c(d*x^3/(1-ax)^2)."""
    a, d = rational(a), rational(d)
    den = Series([1, -a], order)
    num = Series([0, 0, 0, d], order)
    return _catalan_quotient(den, num)


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


def sum_abc(n: int, p: FamilyParams) -> Fraction:
    """Triple sum for the general member; independent oracle for g_family."""
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


def companion(p: FamilyParams, order: int) -> Series:
    """Companion series 1/(1+ax+bx^2) * c((ab+c)x^3/(1+ax+bx^2)^2); its
    Hankel transform carries the same Somos-4 structure as the family's."""
    k = p.somos_weight
    den = Series([1, p.a, p.b], order)
    num = Series([0, 0, 0, k], order)
    return _catalan_quotient(den, num)


def companion_cf(p: FamilyParams, order: int) -> Series:
    """Companion series from its period-1 continued fraction."""
    alpha = Series([1, p.a, p.b], order)
    beta = Series([0, 0, 0, p.somos_weight], order)
    return cf_eval([(alpha, beta)], order)


def binomial_transform(seq, inverse: bool = False) -> list[Fraction]:
    """t_n = sum_k binom(n,k) s_k, or the (-1)^(n-k) weighted inverse."""
    terms = [rational(v) for v in seq]
    out = []
    for n in range(len(terms)):
        acc = Fraction(0)
        for k in range(n + 1):
            w = Fraction(math.comb(n, k))
            if inverse:
                w *= (-1) ** (n - k)
            acc += w * terms[k]
        out.append(acc)
    return out


def narayana(n: int, k: int) -> Fraction:
    """Narayana triangle entry binom(n,k) * binom(n-1, n-k) / (n - k + 1)."""
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    return Fraction(binomial(n, k) * binomial(n - 1, n - k), n - k + 1)
