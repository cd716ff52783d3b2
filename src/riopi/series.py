"""Truncated formal power series over exact rationals.

A Series keeps its first ``order`` coefficients; anything beyond the
truncation is unknown, not zero.  Binary operations truncate to the
shorter operand, so every coefficient a Series reports is exact.  All
values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
# The one literal syntax for a rational: an integer or p/q, q > 0.
_LITERAL = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


def _packed(values) -> tuple[tuple[int, ...], int]:
    """Rationals as int numerators over their least common denominator.

    The pair is in lowest terms: a prime power that divides the lcm exactly
    divides some denominator exactly, and that numerator is prime to it.
    """
    den = math.lcm(*[c.denominator for c in values])
    return tuple([c.numerator * (den // c.denominator) for c in values]), den


def _lowest(nums, den: int) -> tuple[tuple[int, ...], int]:
    """nums/den (den != 0) with den > 0 and gcd(den, *nums) = 1."""
    # the last terms first: they carry the largest denominators, so the
    # running gcd drops to its final size within a few steps
    g = math.gcd(den, *reversed(nums))
    if den < 0:
        g = -g
    if g != 1:
        return tuple([c // g for c in nums]), den // g
    return tuple(nums), den


def _fractions(nums, den: int) -> tuple[Fraction, ...]:
    """Fresh Fractions nums[i]/den.

    Built from a list: a tuple grown from an iterator is resized, and on
    release it lands on the free list of another size, where it stays.
    """
    if den == 1:
        return tuple([Fraction(c) for c in nums])
    return tuple([Fraction(c, den) for c in nums])


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
    """Coerce ints, Fractions and integer or 'p/q' strings to Fraction.

    Floats are rejected with TypeError, and decimal, exponent or padded
    strings with ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _LITERAL.fullmatch(value):
            raise ValueError(f"malformed rational {value!r}: use an integer or p/q")
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Series:
    """Coefficients c[0..order-1] of sum c[n]*x^n, exact over the rationals.

    The constructor treats ``coeffs`` as a polynomial: when ``order`` is
    given, missing high coefficients are genuinely zero and are padded,
    while surplus ones are dropped.

    Storage is one tuple of int numerators over one positive common
    denominator, in lowest terms, so equal series have equal fields and the
    kernels run on ints.  ``coeffs``, ``[n]`` and iteration build Fractions
    on each read and keep none of them.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs, order: int | None = None):
        cs = [rational(c) for c in coeffs]
        if order is not None:
            if order < 1:
                raise ValueError("order must be at least 1")
            del cs[order:]
            cs.extend([_ZERO] * (order - len(cs)))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        self._nums, self._den = _packed(cs)

    @classmethod
    def _raw(cls, nums, den: int) -> "Series":
        """Wrap a nonempty int tuple over den that is already in lowest terms."""
        s = object.__new__(cls)
        s._nums = nums
        s._den = den
        return s

    @classmethod
    def _reduced(cls, nums, den: int) -> "Series":
        """Series of the ints nums over den != 0, brought to lowest terms."""
        return cls._raw(*_lowest(nums, den))

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
        return len(self._nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return _fractions(self._nums, self._den)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return _fractions(self._nums[n], self._den)
        return Fraction(self._nums[n], self._den)

    def __iter__(self):
        return iter(self.coeffs)

    def valuation(self) -> int:
        """Index of the first nonzero coefficient, or order if all retained are zero."""
        for i, c in enumerate(self._nums):
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
        return Series._reduced(self._nums[:order], self._den)

    def shift(self, k: int = 1) -> "Series":
        """Multiply by x^k; the k new low coefficients are exactly zero."""
        if k < 0:
            return self.unshift(-k)
        return Series._raw((0,) * k + self._nums, self._den)

    def _alternated(self) -> "Series":
        """s(-x): the odd numerators negated, still in lowest terms."""
        return Series._raw(tuple([-c if n & 1 else c for n, c in enumerate(self._nums)]),
                           self._den)

    def unshift(self, k: int = 1) -> "Series":
        """Divide by x^k; requires valuation >= k."""
        if k == 0:
            return self
        if self.valuation() < k:
            raise DivisionByHigherValuation(
                f"valuation {self.valuation()} < {k}, cannot divide by x^{k}")
        if self.order - k < 1:
            raise DivisionByHigherValuation("no coefficients left after shift")
        return Series._raw(self._nums[k:], self._den)

    def integers(self) -> list[int]:
        """Coefficients as ints; raises if any coefficient is not integral."""
        d = self._den
        if d != 1:
            # in lowest terms, some numerator is not a multiple of d
            c = next(Fraction(c, d) for c in self._nums if c % d)
            raise ValueError(f"non-integer coefficient {c}")
        return list(self._nums)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        # Both in lowest terms, so equal values mean equal fields (and orders).
        if not isinstance(other, Series):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    __hash__ = None

    def __repr__(self) -> str:
        show = ", ".join(str(c) for c in self[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"Series([{show}{tail}], order={self.order})"

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _scalar(value):
        if isinstance(value, (int, Fraction)):
            return rational(value)
        return None

    def _plus(self, other, sign: int):
        """self + sign*other for a Series or scalar other, or NotImplemented."""
        da = self._den
        if isinstance(other, Series):
            n = min(self.order, other.order)
            db = other._den
            d = math.lcm(da, db)
            sa, sb = d // da, sign * (d // db)
            return Series._reduced(
                [u * sa + v * sb for u, v in zip(self._nums[:n], other._nums)], d)
        q = self._scalar(other)
        if q is None:
            return NotImplemented
        d = math.lcm(da, q.denominator)
        nums = [c * (d // da) for c in self._nums]
        nums[0] += sign * q.numerator * (d // q.denominator)
        return Series._reduced(nums, d)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Series._raw(tuple([-c for c in self._nums]), self._den)

    def __mul__(self, other):
        if isinstance(other, Series):
            # Schoolbook convolution of the numerators.
            n = min(self.order, other.order)
            a = self._nums[:n]
            rb = other._nums[n - 1::-1]
            return Series._reduced(
                [sum(map(mul, a[:k + 1], rb[n - 1 - k:])) for k in range(n)],
                self._den * other._den)
        q = self._scalar(other)
        if q is None:
            return NotImplemented
        p = q.numerator
        return Series._reduced([c * p for c in self._nums], self._den * q.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self._divide(other)
        q = self._scalar(other)
        if q is None:
            return NotImplemented
        if q == 0:
            raise ZeroDivisionError("division by zero scalar")
        p = q.denominator
        return Series._reduced([c * p for c in self._nums], self._den * q.numerator)

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
        # num/den = (db/da) * (a/b) with a, b the numerators; a/b is kept
        # as ints q over one denominator dq, and
        # (a/b)[k] = (a[k]*dq - sum q[i]*b[k-i]) / (b[0]*dq).
        a, da = num._nums, num._den
        b, db = den._nums[:n], den._den
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
        return Series._reduced([db * c for c in q], da * dq)

    # -- analytic operations ---------------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` (constant term 0) into self; Horner over series."""
        if inner._nums[0]:
            raise CompositionConstantTerm("inner series must have zero constant term")
        n = min(self.order, inner.order)
        return _horner(self[:n], inner.truncate(n))

    def revert(self) -> "Series":
        """Compositional inverse fbar with self(fbar) = x, via Lagrange inversion.

        [x^n] fbar = (1/n) [x^(n-1)] (x/f)^n, so one reciprocal and a
        running product of (x/f) give all coefficients exactly.
        """
        if self.order < 2 or self._nums[0] or not self._nums[1]:
            raise NotRevertible("need f(0)=0 and f'(0)!=0 with order >= 2")
        n = self.order
        u = Series.one(n - 1) / self.unshift(1)
        out = [_ZERO] * n
        out[1] = u[0]
        p = u
        for m in range(2, n):
            p = p * u
            out[m] = p[m - 1] / m
        return Series(out)

    def sqrt(self) -> "Series":
        """Principal square root (constant term +1) of a series with s(0)=1.

        Public API.  No builder in the package calls it: each algebraic
        series is the root of a quadratic, built by ``_quadratic_root``.
        """
        s, ds = self._nums, self._den
        if s[0] != ds:
            raise SqrtConstantTerm("square root requires constant term 1")
        # r = rs/dr over ints: with t the self-convolution of rs[1..k-1],
        # r[k] = (s[k]*dr^2 - t*ds) / (2*ds*dr^2).
        rs = [1]
        dr = 1
        for k in range(1, self.order):
            top = s[k] * dr * dr - sum(map(mul, rs[1:k], rs[k - 1:0:-1])) * ds
            rs, dr = _append_ratio(rs, dr, top, 2 * ds * dr)
        return Series._reduced(rs, dr)


@dataclass(frozen=True)
class Quadratic:
    """The equation p2*y^2 + p1*y + p0 = 0 and its root y with y(0) = y0.

    p2, p1 and p0 are short polynomials, nonempty coefficient lists of
    rationals with integer constant terms; y0 is an integer root of the
    constant terms, and the pivot 2*p2(0)*y0 + p1(0) is +1 or -1, so the
    root is one power series, fixed term by term.  The quadratic alone
    does not name it: f's equation has roots with f(0) = 0 and 1.
    ``_quadratic_root`` expands the root and ``hankel.root_transform``
    reads its Hankel transform off the same record: off its H-fraction
    when the record has one of the two shapes the fixed-discriminant map
    enters (every record the library builds does), else by Bareiss on the
    expanded root.
    """

    p2: tuple
    p1: tuple
    p0: tuple
    y0: int


def _checked(eq: Quadratic) -> tuple[list[list[tuple[int, int]]], int, int]:
    """The polynomials of ``eq`` as int (numerator, denominator) pairs in
    lowest terms, y0 and the pivot, after checking the conditions
    ``Quadratic`` states.  An int is read as it is and any other value
    through ``rational``, which returns a Fraction as it is."""
    for name, p in (("p2", eq.p2), ("p1", eq.p1), ("p0", eq.p0)):
        if not p:
            raise ValueError(f"{name} is empty: each polynomial needs its constant term")
    polys = [[_pair(c) for c in p] for p in (eq.p2, eq.p1, eq.p0)]
    (c2, e2), (c1, e1), (c0, e0) = [p[0] for p in polys]
    y0, e = _pair(eq.y0)
    if e2 != 1 or e1 != 1 or e0 != 1 or e != 1:
        raise ValueError("constant terms and y0 must be integers")
    pivot = 2 * c2 * y0 + c1
    if pivot not in (1, -1):
        raise ValueError(f"pivot 2*p2(0)*y0 + p1(0) is {pivot}, need +1 or -1")
    if c2 * y0 * y0 + c1 * y0 + c0:
        raise ValueError(f"y0 = {y0} is no root of the constant terms")
    return polys, y0, pivot


def _pair(value) -> tuple[int, int]:
    """An exact rational as its (numerator, denominator) in lowest terms."""
    if type(value) is int:
        return value, 1
    value = rational(value)
    return value.numerator, value.denominator


def _quadratic_root(eq: Quadratic, order: int) -> Series:
    """The root of ``eq`` to ``order`` terms.

    The root runs on the integer image Y(t) = y(lam*t), lam an int that
    makes every p_i[j]*lam**j an int (``_image_lam``): Y solves the same
    equation with those coefficients, and ``_root_ints`` expands it.
    Then y_n is Y_n*lam**(order-1-n) over lam**(order-1).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    polys, _, pivot = _checked(eq)
    lam = _image_lam([(j, d) for p in polys for j, (_, d) in enumerate(p)])
    p2, p1, p0 = ([n * lam ** j // d for j, (n, d) in enumerate(p)] for p in polys)
    return Series._raw(*_image_values(_root_ints(p2, p1, p0, pivot, order), lam))


def _image_lam(dens) -> int:
    """An int lam with w | lam**j for every pair (j, w) in ``dens``: the
    lcm of the w at j <= 1, grown by the lcm with a later w (in order of j)
    only where its power does not cover it.  A smaller lam means shorter
    image ints and less to reduce: curve -11/2's member takes lam = 2,
    where the lcm of its denominators is 4."""
    lam = 1
    for j, w in sorted(dens):
        if lam ** j % w:
            lam = math.lcm(lam, w)
    return lam


def _discriminant(p2, p1, p0) -> list:
    """p1^2 - 4*p2*p0 of coefficient lists, as a coefficient list."""
    dd = [0] * (max(2 * len(p1), len(p2) + len(p0)) - 1)
    for i, c in enumerate(p1):
        for j, e in enumerate(p1):
            dd[i + j] += c * e
    for i, c in enumerate(p2):
        for j, e in enumerate(p0):
            dd[i + j] -= 4 * c * e
    return dd


# The last root ``_root_ints`` expanded: ((p2, p1, p0, pivot), its ints).
# One immutable tuple, replaced in a single assignment.
_last_root: tuple = ((), ())


def _root_ints(p2, p1, p0, pivot: int, order: int) -> tuple[int, ...]:
    """Y_0 .. Y_(order-1) of the root of p2*Y^2 + p1*Y + p0 = 0 whose pivot
    2*p2[0]*Y_0 + p1[0] is ``pivot``, +-1, for int coefficient lists.

    The last root expanded (``_expand_root``) is kept in one slot, keyed
    on the record's ints and the pivot.  A request on that record and
    pivot for no more terms than the slot holds reads its prefix; any
    other request expands its root afresh and takes the slot.  So the slot
    hits only when the last root expanded is the same record's: the
    rational-B certificate that ``pipeline`` runs right after building g
    (``riordan._rational_b``, on the member read off B's head: the same
    image ints and pivot) compares g with the ints g was built from.
    """
    global _last_root
    key = (tuple(p2), tuple(p1), tuple(p0), pivot)
    held, ys = _last_root
    if held == key and order <= len(ys):
        return ys[:order]
    ys = tuple(_expand_root(p2, p1, p0, pivot, order))
    _last_root = key, ys
    return ys


def _expand_root(p2, p1, p0, pivot: int, order: int) -> list[int]:
    """``_root_ints`` with no slot: the root's ints by the recurrence below.

    S = 2*p2*Y + p1 squares to D = p1^2 - 4*p2*p0, with S(0) = pivot and
    D(0) = pivot^2 = 1, so 2*D*S' = D'*S: its x^(n-1) coefficient is
    2n*S_n = sum_(i=1..deg D) (3i - 2n)*D_i*S_(n-i), one exact division
    per term, as S is a combination of integral series.  Y is then
    (S - p1)/(2*p2), again one exact division per term by the lowest
    coefficient of 2*p2, or -p0/p1 when p2 = 0, where p1[0] = pivot.
    O(order) products of ints, each of a coefficient by one of the
    equation's fixed ints.
    """
    if not any(p2):
        r1 = [(j, c) for j, c in enumerate(p1) if j and c]
        ys = []
        for n in range(order):
            r = p0[n] if n < len(p0) else 0
            for j, c in r1:
                if j <= n:
                    r += c * ys[n - j]
            ys.append(-pivot * r)
        return ys
    v = next(j for j, c in enumerate(p2) if c)
    ds = [(i, c) for i, c in enumerate(_discriminant(p2, p1, p0)) if i and c]
    ss = [pivot]
    for n in range(1, order + v):
        t = 0
        for i, c in ds:
            if i <= n:
                t += (3 * i - 2 * n) * c * ss[n - i]
        ss.append(t // (2 * n))
    for j, c in enumerate(p1[:len(ss)]):
        ss[j] -= c
    lead = 2 * p2[v]
    r2 = [(j - v, 2 * c) for j, c in enumerate(p2) if j > v and c]
    ys = []
    for n in range(order):
        r = ss[n + v]
        for j, c in r2:
            if j <= n:
                r -= c * ys[n - j]
        ys.append(r // lead)
    return ys


def _image_values(ys: tuple[int, ...], lam: int) -> tuple[tuple[int, ...], int]:
    """The coefficients y_n = ys[n]/lam**n of the root whose integer image
    Y(t) = y(lam*t) has the coefficients ``ys``, as ints over one
    denominator in lowest terms."""
    if lam == 1:
        return ys, 1
    nums = [0] * len(ys)
    scale = 1
    for n in range(len(ys) - 1, -1, -1):
        nums[n] = ys[n] * scale
        scale *= lam
    return _lowest(nums, scale // lam)


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
        if t == g:
            return g
        g = t
    raise NonConvergent("continued fraction failed to stabilise")
