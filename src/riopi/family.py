"""The three-parameter involutory family and its companion.

The family member for parameters (a, b, c) is the generating function

    g(x) = 1/(1 - a*x - b*x^2) * c(-x^2*(b + c*x) / (1 - a*x - b*x^2)^2)

whose Bell array is a pseudo-involution with B-sequence generating
function (a - c*x)/(1 + b*x).  The Catalan series c(u) is the root
c(0) = 1 of u*c^2 - c + 1 = 0, so every member and the companion,
g = (1/den)*c(num/den^2), is the root g(0) = 1 of the quadratic

    num*g^2 - den*g + 1 = 0,

built term by term over ints by ``series._quadratic_root``: the linear
recurrence of sqrt(den^2 - 4*num), O(n) products of ints, with no square
root of a series and no series division.  The paper's other printed
routes -- continued fractions, the c = 0 quadratic recurrence, the
single/double/triple sums, the closed form 2/(den + sqrt(den^2 - 4*num))
-- are test oracles in tests/family_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import Quadratic, Series, _packed, _quadratic_root, rational

# Where the Somos-4 tail of a member's Hankel transform starts: the paper
# prints the family transforms from index 2 on (h_1 = g_2 - g_1^2 = 0 for
# every member).  ``conjecture_family`` and the family, ad and curve kinds
# of ``knowndata.GENERATORS`` read it here.
SOMOS_OFFSET = 2


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


def equation(p: FamilyParams) -> Quadratic:
    """The member's quadratic num*g^2 - den*g + 1 = 0 with g(0) = 1, where
    den = 1 - ax - bx^2 and num = -bx^2 - cx^3."""
    return Quadratic((0, 0, -p.b, -p.c), (-1, p.a, p.b), (1,), 1)


def g_family(p: FamilyParams, order: int) -> Series:
    """Involutory generating function of the family member: the root of
    ``equation(p)``."""
    return _quadratic_root(equation(p), order)


def g_ad(a, d, order: int) -> Series:
    """B = a + d*x specialization, 1/(1-ax) * c(d*x^3/(1-ax)^2)."""
    return g_family(FamilyParams.from_ad(a, d), order)


def companion_equation(p: FamilyParams) -> Quadratic:
    """The companion's quadratic num*g^2 - den*g + 1 = 0 with g(0) = 1, where
    den = 1 + ax + bx^2 and num = (ab+c)x^3."""
    return Quadratic((0, 0, 0, p.somos_weight), (-1, -p.a, -p.b), (1,), 1)


def companion(p: FamilyParams, order: int) -> Series:
    """Companion series 1/(1+ax+bx^2) * c((ab+c)x^3/(1+ax+bx^2)^2): the root
    of ``companion_equation(p)``.  With k = ab + c and h the Hankel
    transform, it ties the member's A-sequence and transform together
    (tests check both):

        1/g(-x) = 1 + ax - k*x^3*companion(x),
        h(companion)_n = -h(g)_(n+3) / k^(2n+4)   (k != 0),

    so its transform carries the same Somos-4 structure as the family's."""
    return _quadratic_root(companion_equation(p), order)


def binomial_transform(seq, c=1) -> list[Fraction]:
    """t_m = sum_k binom(m, k) * c^(m-k) * s_k, the array (1/(1-cx), x/(1-cx))
    acting on s; c = 1 is the binomial transform and c = -1 its inverse."""
    c = rational(c)
    nums, den = _packed([rational(v) for v in seq])
    return list(map(Fraction, *_binomial_ints(nums, den, c.numerator, c.denominator)))


def _binomial_ints(nums, den: int, p: int, q: int) -> tuple[list[int], list[int]]:
    """``binomial_transform`` of s = nums/den at c = p/q, q > 0, over ints:
    t_m = tops[m]/dens[m] with dens[m] = den*q^m > 0.

    t_m*den*q^m = sum_k binom(m, k) * p^(m-k) * (nums_k*q^k) is entry 0 of
    the difference table row_(j+1)[i] = p*row_j[i] + row_j[i+1] started
    from nums_k*q^k.
    """
    row = [s * q ** k for k, s in enumerate(nums)]
    tops, dens = [], []
    for m in range(len(nums)):
        tops.append(row[0])
        dens.append(den * q ** m)
        row = [p * u + v for u, v in zip(row, row[1:])]
    return tops, dens


def narayana(n: int, k: int) -> int:
    """Narayana triangle entry binom(n,k) * binom(n-1, n-k) / (n - k + 1),
    an integer."""
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    return binomial(n, k) * binomial(n - 1, n - k) // (n - k + 1)
