"""Somos-4 recurrence verification and parameter fitting.

All checks use the product form

    t[n] * t[n-4] == alpha * t[n-1] * t[n-3] + beta * t[n-2]^2

which is total: the usual division form is undefined whenever t[n-4] is
zero, and the transforms handled here do contain zeros.

The check runs over integers.  Write t[n] = p[n]/q[n] with q[n] > 0, and
alpha = a/d, beta = b/d over d = den(alpha) * den(beta).  Multiplying
both sides by the positive d * q[n]*q[n-4] * q[n-1]*q[n-3] * q[n-2]^2
gives

    p[n]*p[n-4] * d * q[n-1]*q[n-3] * q[n-2]^2
      == (a * p[n-1]*p[n-3] * q[n-2]^2 + b * p[n-2]^2 * q[n-1]*q[n-3])
         * q[n]*q[n-4]

which holds exactly when the product form does.  No Fraction is built
and no gcd taken.  That is one kernel, ``_check_ints(p, q, params)``:
``somos4_check`` splits its terms into p and q for it, and
``conjecture_family``, ``elliptic.curve_somos_check`` and the Somos claims
of ``verify paper`` pass it the int pairs of their Hankel transforms as
they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .family import SOMOS_OFFSET, FamilyParams, companion_equation, equation
from .hankel import hankel_transform
from .series import rational


class Underdetermined(ValueError):
    """Every candidate 2x2 fitting system is singular."""


class NoSomosFit(ValueError):
    """A local fit exists but fails somewhere in the sequence."""


@dataclass(frozen=True)
class SomosParams:
    alpha: Fraction
    beta: Fraction

    @property
    def degenerate(self) -> bool:
        return self.alpha == 0 or self.beta == 0


@dataclass(frozen=True)
class SomosReport:
    params: SomosParams | None
    start: int
    end: int
    failures: tuple[int, ...]
    degenerate: bool = False

    @property
    def ok(self) -> bool:
        return self.params is not None and not self.failures


def somos4_check(terms, params: SomosParams) -> SomosReport:
    """Verify the product form at every index n in 4..len(terms)-1."""
    t = [rational(v) for v in terms]
    return _check_ints([v.numerator for v in t], [v.denominator for v in t], params)


def _check_ints(p, q, params: SomosParams) -> SomosReport:
    """``somos4_check`` of the terms p[n]/q[n], q[n] > 0: the product form
    cross-multiplied by positive denominators (module docstring)."""
    if len(p) < 5:
        raise ValueError("need at least 5 terms to check a Somos-4 relation")
    alpha, beta = params.alpha, params.beta
    d = alpha.denominator * beta.denominator
    a = alpha.numerator * beta.denominator
    b = beta.numerator * alpha.denominator
    failures = []
    for n in range(4, len(p)):
        ld = q[n] * q[n - 4]
        ad = q[n - 1] * q[n - 3]
        bd = q[n - 2] * q[n - 2]
        left = p[n] * p[n - 4] * ad * bd * d
        right = (a * p[n - 1] * p[n - 3] * bd + b * p[n - 2] * p[n - 2] * ad) * ld
        if left != right:
            failures.append(n)
    return SomosReport(params=params, start=4, end=len(p) - 1,
                       failures=tuple(failures), degenerate=params.degenerate)


def somos4_fit(terms) -> SomosReport:
    """Fit (alpha, beta) from the first nonsingular pair of relation rows,
    then insist the whole sequence satisfies the fit.  Returns the passing
    check, whose ``params`` is the fit."""
    t = [rational(v) for v in terms]
    if len(t) < 6:
        raise ValueError("need at least 6 terms to fit Somos-4 parameters")
    rows = [(t[n - 1] * t[n - 3], t[n - 2] ** 2, t[n] * t[n - 4])
            for n in range(4, len(t))]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            det = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
            if det == 0:
                continue
            alpha = (rows[i][2] * rows[j][1] - rows[j][2] * rows[i][1]) / det
            beta = (rows[i][0] * rows[j][2] - rows[j][0] * rows[i][2]) / det
            report = somos4_check(t, SomosParams(alpha, beta))
            if report.failures:
                raise NoSomosFit(
                    f"({alpha}, {beta}) fits rows {i}, {j} but fails at "
                    f"indices {list(report.failures)}")
            return report
    raise Underdetermined("all candidate 2x2 systems are singular")


@dataclass(frozen=True)
class ConjectureReport:
    """The family and companion sub-checks of the Somos-4 conjecture.

    ``degenerate`` means ab + c = 0 only.  It is not ``params.degenerate``
    (alpha or beta zero), which b = 0 makes true too: for (1, 0, 1) that and
    ``family.degenerate`` hold, and ``degenerate`` does not."""

    params: SomosParams
    family: SomosReport
    companion: SomosReport
    degenerate: bool

    @property
    def ok(self) -> bool:
        return not self.family.failures and not self.companion.failures


def family_somos_params(p: FamilyParams) -> SomosParams:
    """The member's Somos-4 parameters ((ab+c)^2, b*(ab+c)^2)."""
    k2 = p.somos_weight ** 2
    return SomosParams(k2, p.b * k2)


def conjecture_family(p: FamilyParams, order: int = 28) -> ConjectureReport:
    """Test that the family Hankel tail (from ``family.SOMOS_OFFSET``, where
    the printed transforms start) and the full companion Hankel transform are
    ``family_somos_params(p)`` Somos-4 sequences.  Both transforms at
    ``order`` are read off the member's quadratics (``hankel_transform`` of
    a ``Quadratic``), and their int pairs go to the check as they are, with
    no Fraction built.  Failures are report data, not errors: this is a
    conjecture check."""
    params = family_somos_params(p)
    fam = hankel_transform(equation(p), order)
    comp = hankel_transform(companion_equation(p), order)
    return ConjectureReport(
        params=params,
        family=_check_ints(fam.nums[SOMOS_OFFSET:], fam.dens[SOMOS_OFFSET:], params),
        companion=_check_ints(comp.nums, comp.dens, params),
        degenerate=(p.somos_weight == 0))
