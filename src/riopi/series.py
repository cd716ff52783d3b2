"""Truncated formal power series over exact rationals.

A Series keeps its first ``order`` coefficients; anything beyond the
truncation is unknown, not zero.  Binary operations truncate to the
shorter operand, so every coefficient a Series reports is exact.  All
values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul


class SeriesError(ValueError):
    """Base class for series arithmetic failures."""


class DivisionByHigherValuation(SeriesError):
    """Divisor vanishes to higher order than the dividend."""


class CompositionConstantTerm(SeriesError):
    """Inner series of a composition has a nonzero constant term."""


class NotRevertible(SeriesError):
    """Series lacks the shape f = f1*x + ... with f1 != 0."""


class SqrtConstantTerm(SeriesError):
    """Square root requires constant term equal to 1."""


class NonConvergent(SeriesError):
    """Continued fraction does not gain accuracy per level."""


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _cleared(coeffs) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator d of ``coeffs``."""
    d = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _append_ratio(nums: list[int], d: int, top: int, den: int) -> tuple[list[int], int]:
    """Append top/(den*d) to ``nums``, ints over the common denominator d.

    d (and every earlier entry) grows by the part of den > 0 that does not
    divide top, so d grows only when the new value needs it.
    """
    g = math.gcd(top, den)
    if g != den:
        grow = den // g
        d *= grow
        nums = [c * grow for c in nums]
    nums.append(top // g)
    return nums, d


def rational(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Series:
    """Coefficients c[0..order-1] of sum c[n]*x^n, exact over Fraction.

    The constructor treats ``coeffs`` as a polynomial: when ``order`` is
    given, missing high coefficients are genuinely zero and are padded,
    while surplus ones are dropped.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [rational(c) for c in coeffs]
        if order is not None:
            if order < 1:
                raise ValueError("order must be at least 1")
            del cs[order:]
            cs.extend([_ZERO] * (order - len(cs)))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        self._coeffs = tuple(cs)

    @classmethod
    def _from_fractions(cls, coeffs) -> "Series":
        """Wrap a nonempty sequence that already holds only Fractions."""
        s = object.__new__(cls)
        s._coeffs = tuple(coeffs)
        return s

    @classmethod
    def constant(cls, value, order: int) -> "Series":
        return cls([rational(value)], order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([_ONE], order)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order)

    @classmethod
    def x(cls, order: int) -> "Series":
        return cls([_ZERO, _ONE], order)

    @property
    def order(self) -> int:
        return len(self._coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> Fraction:
        return self._coeffs[n]

    def __iter__(self):
        return iter(self._coeffs)

    def valuation(self) -> int:
        """Index of the first nonzero coefficient, or order if all retained are zero."""
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return self.order

    def truncate(self, order: int) -> "Series":
        """Keep the first ``order`` coefficients (cannot extend knowledge)."""
        if order < 1:
            raise ValueError("order must be at least 1")
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return Series(self._coeffs[:order])

    def shift(self, k: int = 1) -> "Series":
        """Multiply by x^k; the k new low coefficients are exactly zero."""
        if k < 0:
            return self.unshift(-k)
        return Series._from_fractions((_ZERO,) * k + self._coeffs)

    def unshift(self, k: int = 1) -> "Series":
        """Divide by x^k; requires valuation >= k."""
        if k == 0:
            return self
        if self.valuation() < k:
            raise DivisionByHigherValuation(
                f"valuation {self.valuation()} < {k}, cannot divide by x^{k}")
        if self.order - k < 1:
            raise DivisionByHigherValuation("no coefficients left after shift")
        return Series._from_fractions(self._coeffs[k:])

    def integers(self) -> list[int]:
        """Coefficients as ints; raises if any coefficient is not integral."""
        out = []
        for c in self._coeffs:
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            out.append(c.numerator)
        return out

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        # Equality compares the common retained prefix; callers that care
        # about matching orders must check .order themselves.
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return self._coeffs[:n] == other._coeffs[:n]

    __hash__ = None  # prefix equality is not hash-compatible

    def __repr__(self) -> str:
        show = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"Series([{show}{tail}], order={self.order})"

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _scalar(value):
        if isinstance(value, (int, Fraction)):
            return rational(value)
        return None

    def __add__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series._from_fractions(
                [self._coeffs[i] + other._coeffs[i] for i in range(n)])
        q = self._scalar(other)
        if q is None:
            return NotImplemented
        return Series._from_fractions((self._coeffs[0] + q,) + self._coeffs[1:])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series._from_fractions(
                [self._coeffs[i] - other._coeffs[i] for i in range(n)])
        q = self._scalar(other)
        if q is None:
            return NotImplemented
        return Series._from_fractions((self._coeffs[0] - q,) + self._coeffs[1:])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Series._from_fractions([-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, Series):
            # Schoolbook convolution over the cleared numerators.
            n = min(self.order, other.order)
            a, da = _cleared(self._coeffs[:n])
            b, db = _cleared(other._coeffs[:n])
            rb = b[::-1]
            d = da * db
            return Series._from_fractions(
                [Fraction(sum(map(mul, a[:k + 1], rb[n - 1 - k:])), d) for k in range(n)])
        q = self._scalar(other)
        if q is None:
            return NotImplemented
        return Series._from_fractions([c * q for c in self._coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self._divide(other)
        q = self._scalar(other)
        if q is None:
            return NotImplemented
        if q == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Series._from_fractions([c / q for c in self._coeffs])

    def __rtruediv__(self, other):
        q = self._scalar(other)
        if q is None:
            return NotImplemented
        return Series.constant(q, self.order)._divide(self)

    def _divide(self, other: "Series") -> "Series":
        vt = other.valuation()
        if vt == other.order:
            raise DivisionByHigherValuation("division by a zero series")
        if vt > self.valuation():
            raise DivisionByHigherValuation(
                f"divisor valuation {vt} exceeds dividend valuation {self.valuation()}")
        num = self.unshift(vt) if vt else self
        den = other.unshift(vt) if vt else other
        n = min(num.order, den.order)
        # num/den = (db/da) * (a/b) with a, b the cleared numerators; a/b
        # is kept as ints q over one denominator dq, and
        # (a/b)[k] = (a[k]*dq - sum q[i]*b[k-i]) / (b[0]*dq).
        a, da = _cleared(num._coeffs[:n])
        b, db = _cleared(den._coeffs[:n])
        if b[0] < 0:
            b = [-c for c in b]
            db = -db
        b0 = b[0]
        rb = b[::-1]
        q: list[int] = []
        dq = 1
        for k in range(n):
            top = a[k] * dq - sum(map(mul, q, rb[n - 1 - k:n - 1]))
            q, dq = _append_ratio(q, dq, top, b0)
        d = da * dq
        return Series._from_fractions([Fraction(db * c, d) for c in q])

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers")
        result = Series.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- analytic operations ---------------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` (constant term 0) into self; Horner over series."""
        if inner[0] != 0:
            raise CompositionConstantTerm("inner series must have zero constant term")
        n = min(self.order, inner.order)
        return _horner(self._coeffs[:n], inner.truncate(n))

    def revert(self) -> "Series":
        """Compositional inverse fbar with self(fbar) = x, via Lagrange inversion.

        [x^n] fbar = (1/n) [x^(n-1)] (x/f)^n, so one reciprocal and a
        running product of (x/f) give all coefficients exactly.
        """
        if self.order < 2 or self._coeffs[0] != 0 or self._coeffs[1] == 0:
            raise NotRevertible("need f(0)=0 and f'(0)!=0 with order >= 2")
        n = self.order
        u = Series.one(n - 1) / self.unshift(1)
        out = [_ZERO] * n
        out[1] = u[0]
        p = u
        for m in range(2, n):
            p = p * u
            out[m] = p[m - 1] / m
        return Series._from_fractions(out)

    def sqrt(self) -> "Series":
        """Principal square root (constant term +1) of a series with s(0)=1."""
        if self._coeffs[0] != 1:
            raise SqrtConstantTerm("square root requires constant term 1")
        # r = rs/dr over ints: with t the self-convolution of rs[1..k-1],
        # r[k] = (s[k]*dr^2 - t*ds) / (2*ds*dr^2).
        s, ds = _cleared(self._coeffs)
        rs = [1]
        dr = 1
        for k in range(1, self.order):
            top = s[k] * dr * dr - sum(map(mul, rs[1:k], rs[k - 1:0:-1])) * ds
            rs, dr = _append_ratio(rs, dr, top, 2 * ds * dr)
        return Series._from_fractions([Fraction(c, dr) for c in rs])


def _horner(coeffs, inner: Series) -> Series:
    """Evaluate sum coeffs[k]*inner^k at inner's order; inner(0) must be 0.

    inner^k has valuation k*v >= order once k > (order-1)//v, so only the
    first (order-1)//v + 1 coefficients contribute.
    """
    n = inner.order
    v = inner.valuation()
    if v == n:
        return Series.constant(coeffs[0], n)
    coeffs = coeffs[:(n - 1) // v + 1]
    acc = Series.constant(coeffs[-1], n)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * inner + coeffs[k]
    return acc


def catalan(order: int) -> Series:
    """Catalan number generating function, C_n = binom(2n,n)/(n+1)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return Series([Fraction(math.comb(2 * n, n), n + 1) for n in range(order)])


def cf_eval(levels, order: int) -> Series:
    """Evaluate the continued fraction 1/(a1 - b1/(a2 - b2/...)) exactly.

    ``levels`` is a cyclic list of (alpha, beta) Series pairs; the levels
    repeat forever.  Every alpha needs constant term 1 and every beta
    valuation >= 1, which makes each full cycle of the fixed-point map
    G <- 1/(alpha - beta*G) gain at least one exact coefficient, so at
    most ``order`` cycles are needed.
    """
    if not levels:
        raise ValueError("need at least one (alpha, beta) level")
    prepared = []
    for alpha, beta in levels:
        alpha = alpha.truncate(min(alpha.order, order))
        beta = beta.truncate(min(beta.order, order))
        if alpha.order < order or beta.order < order:
            raise ValueError("levels must be supplied to at least the requested order")
        if alpha[0] != 1:
            raise ValueError("every alpha must have constant term 1")
        if beta.valuation() == 0:
            raise NonConvergent("beta with nonzero constant term cannot converge")
        prepared.append((alpha, beta))
    one = Series.one(order)
    g = one
    for _ in range(order + 1):
        t = g
        for alpha, beta in reversed(prepared):
            t = one / (alpha - beta * t)
        if t.coeffs == g.coeffs:
            return g
        g = t
    raise NonConvergent("continued fraction failed to stabilise")
