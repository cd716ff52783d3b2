"""From the curve family y^2 - a*x*y - y = x^3 - x to a pseudo-involution.

Each curve lands on one family member, ``family_params_from_curve``:
``pipeline`` builds the curve's g as that member (``family.g_family``)
and certifies it once, by the pseudo-involution test.  The curve's
B-sequence (``b_from_curve``) and Somos-4 parameters
(``curve_somos_check``) come from the same member.  The intermediate f
of the paper's walk is ``f_from_curve``, in the paper's closed form.
The branch y and f are roots of quadratics, and
``series._quadratic_root`` builds both term by term over ints, by the
linear recurrence of the square root of their discriminants, O(n)
products of ints, with no square root of a series and no series
division.  The paper's full walk (solve the
quadratic for the branch with y = x + O(x^2), strip two terms, form a
reciprocal fraction, revert it to reach f, form h from f and apply the
Riordan array (1/(1+cx), -x/(1+cx)), c = a-1, by the fundamental
theorem) is the test oracle ``tests/composition_oracle.pipeline_stages``,
and the square-root forms of y and f are oracles there too.  The Hankel
transform of f is that of the member's companion shifted by one,
h(f)_(n+1) = h(companion)_n, and h(f)_n = -h(g)_(n+2) for n >= 1; tests
cross-check all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .family import FamilyParams, g_family
from .hankel import hankel_transform
from .riordan import BSequence, SelfCheckError, _b_expansion, is_pseudo_involution
from .series import Quadratic, Series, _quadratic_root, rational
from .somos import SomosReport, _check_ints, family_somos_params


@dataclass(frozen=True)
class PipelineTrace:
    """The pseudo-involution g at ``order``: the curve's family member,
    certified once by ``pipeline``."""

    g: Series


def curve_branch(curve, order: int) -> Series:
    """Quadratic branch y with y(0) = 0, y'(0) = 1: the root y(0) = 0 of
    y^2 - (1 + ax)*y + x - x^3 = 0, the curve solved for y."""
    a = rational(curve)
    return _quadratic_root(Quadratic((1,), (-1, -a), (0, 1, 0, -1), 0), order)


def pipeline(curve, order: int) -> PipelineTrace:
    """Build the curve's g and certify it.

    g is the family member
    ``g_family(family_params_from_curve(curve), order)``.  That g is the
    curve's at every order: g = 1 + x*g*B(x^2*g) fixes g term by term from
    its B-sequence, and the B read off the paper's g is ``b_from_curve``'s
    closed form, the member's (a - cx)/(1 + bx).  g is certified once, by
    the pseudo-involution test at ``order``.  The paper's walk through the
    branch, stripped, fraction, reverted and h stages is the test oracle
    ``tests/composition_oracle.pipeline_stages``; its f is
    ``f_from_curve``.
    """
    a = rational(curve)
    if order < 1:
        raise ValueError("order must be at least 1")
    g = g_family(family_params_from_curve(a), order)
    if not is_pseudo_involution(g):
        raise SelfCheckError("pipeline output failed the pseudo-involution test")
    return PipelineTrace(g=g)


def f_equation(curve) -> Quadratic:
    """f's quadratic P*f^2 - L*f - x = 0 with f(0) = 1, where
    P = 1 - (1-a)x - x^2 + (1-a)x^3 and L = 1 - (2-a)x."""
    a = rational(curve)
    return Quadratic((1, a - 1, -1, 1 - a), (-1, 2 - a), (0, -1), 1)


def f_from_curve(curve, order: int) -> Series:
    """Intermediate f of the paper's closed form
    2x / (sqrt(1 + 2ax + a^2 x^2 - 4x^3 + 4(1-a)x^4) + (2-a)x - 1): the
    root of ``f_equation(curve)``."""
    return _quadratic_root(f_equation(curve), order)


@dataclass(frozen=True)
class CurveBSequence:
    """The B-sequence generating function numerator/denominator of the
    curve's family member (see ``b_from_curve``) plus its expansion."""

    numerator: tuple[Fraction, Fraction]
    denominator: tuple[Fraction, Fraction]
    prefix: BSequence

    def closed_form(self) -> str:
        n0, n1 = self.numerator
        d1 = self.denominator[1]
        return f"({n0} + {n1}*x)/(1 + {d1}*x)"


def b_from_curve(curve, terms: int = 12) -> CurveBSequence:
    """Closed-form B-sequence of the curve's pseudo-involution: the
    family's (a - cx)/(1 + bx) at ``family_params_from_curve(curve)``,
    expanded as b_0 = a, b_1 = -c - a*b and b_k = -b*b_(k-1) by
    ``riordan._b_expansion``."""
    if terms < 1:
        raise ValueError("terms must be at least 1")
    m = family_params_from_curve(curve)
    return CurveBSequence(numerator=(m.a, -m.c), denominator=(Fraction(1), m.b),
                          prefix=_b_expansion(m.a, -m.c - m.a * m.b, -m.b, terms))


def family_params_from_curve(curve) -> FamilyParams:
    """Family coordinates (2-a, 1-a, -(a^2-3a+1)) of the curve's member."""
    a = rational(curve)
    return FamilyParams(2 - a, 1 - a, -(a * a - 3 * a + 1))


def curve_somos_check(curve, order: int = 24) -> SomosReport:
    """Check the Hankel transform of f against the Somos-4 parameters of
    the curve's family member, ``family_somos_params``, which are (1, b)
    there since ab + c = 1."""
    h = hankel_transform(f_equation(curve), order)
    return _check_ints(h.nums, h.dens, family_somos_params(family_params_from_curve(curve)))
