"""Horner-composition and square-root routes replaced by the family and
pipeline builds.

``riopi.family`` builds every member as the root of a quadratic; the
functions here build the same series as (1/den) * c(num/den^2) with c the
Catalan series, substituted by ``Series.compose``.  ``curve_branch_sqrt``
and ``f_from_curve_sqrt`` are the square-root closed forms of the curve
branch and of f, which ``riopi.elliptic`` builds as roots of quadratics
too.  ``pipeline_stages`` runs the curve chain as the paper walks it: the
reverted stage is the Lagrange reversion of x*fraction,
f = 1/(1 - x*reverted), h = (f*(1 + (a-1)x) - 1) / (x*f*((a-1) + ax)),
and the last stage is the fundamental-theorem application of the Riordan
array (1/(1+(a-1)x), -x/(1+(a-1)x)) to h.  ``riopi.elliptic.pipeline``
builds none of these stages: it takes f in closed form and g as the
curve's family member, and this walk is the oracle both are checked
against.
"""

from fractions import Fraction

from riopi.elliptic import curve_branch
from riopi.series import Series, catalan
from riordan_oracle import Pair, ftra_apply


def catalan_quotient(den: Series, num: Series, order: int) -> Series:
    return (1 / den) * catalan(order).compose(num / (den * den))


def g_family(p, order: int) -> Series:
    den = Series([1, -p.a, -p.b], order)
    num = Series([0, 0, -p.b, -p.c], order)
    return catalan_quotient(den, num, order)


def companion(p, order: int) -> Series:
    den = Series([1, p.a, p.b], order)
    num = Series([0, 0, 0, p.somos_weight], order)
    return catalan_quotient(den, num, order)


def a_family(p, order: int) -> Series:
    den = Series([1, p.a, p.b], order)
    num = Series([0, 0, 0, p.somos_weight], order)
    return Series([1, p.a], order) - (num / den) * catalan(order).compose(num / (den * den))


def g_ad(a, d, order: int) -> Series:
    den = Series([1, -Fraction(a)], order)
    num = Series([0, 0, 0, Fraction(d)], order)
    return catalan_quotient(den, num, order)


def curve_branch_sqrt(a, order: int) -> Series:
    """Branch y = ((1 + ax) - sqrt(1 + 2(a-2)x + a^2 x^2 + 4x^3)) / 2."""
    a = Fraction(a)
    root = Series([1, 2 * (a - 2), a * a, 4], order).sqrt()
    return (Series([1, a], order) - root) / 2


def f_from_curve_sqrt(a, order: int) -> Series:
    """f = 2x / (sqrt(1 + 2ax + a^2 x^2 - 4x^3 + 4(1-a)x^4) + (2-a)x - 1).

    The denominator is 2x + O(x^2) for every a, so the division loses
    exactly one order, and the work runs one order longer.
    """
    a = Fraction(a)
    work = order + 1
    radicand = Series([1, 2 * a, a * a, -4, 4 * (1 - a)], work)
    denominator = radicand.sqrt() + Series([-1, 2 - a], work)
    return (Series([0, 2], work) / denominator).truncate(order)


def pipeline_stages(a, order: int) -> tuple:
    """Coefficient tuples of branch, stripped, fraction, reverted, f and g."""
    a = Fraction(a)
    work = order + 6
    y = curve_branch(a, work)
    stripped = (y - Series.x(work)).unshift(2)
    fraction = 1 / (Series([1, -1], work) - stripped.shift(2))
    reverted = fraction.shift(1).revert()
    f = 1 / (1 - reverted.unshift(1).shift(2))
    numerator = f * Series([1, a - 1], f.order) - 1
    denominator = (f * Series([a - 1, a], f.order)).shift(1)
    h = numerator / denominator
    outer_g = 1 / Series([1, a - 1], work)
    g = ftra_apply(Pair(outer_g, -(outer_g.shift(1))), h)
    return tuple(s.truncate(order).coeffs for s in (y, stripped, fraction, reverted, f, g))
