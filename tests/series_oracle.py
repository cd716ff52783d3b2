"""Reference Fraction loops for the Series kernels.

These are the plain ``Fraction`` implementations of truncated product,
quotient, square root and full-length Horner composition, and the running
self-convolution that expands the root of a ``Quadratic``.  They share no
code with ``riopi.series``: every function takes Series (or the record)
and returns the coefficient tuple the kernel must reproduce bit for bit.
"""

import math
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _convolve(a, b) -> list[Fraction]:
    n = min(len(a), len(b))
    out = [_ZERO] * n
    for i in range(n):
        ai = a[i]
        if not ai:
            continue
        for j in range(n - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def mul(s, t) -> tuple[Fraction, ...]:
    return tuple(_convolve(s.coeffs, t.coeffs))


def divide(s, t) -> tuple[Fraction, ...]:
    """s/t after cancelling x^val(t); the caller ensures it is defined."""
    vt = t.valuation()
    a, b = s.coeffs[vt:], t.coeffs[vt:]
    n = min(len(a), len(b))
    inv = _ONE / b[0]
    q = [_ZERO] * n
    for k in range(n):
        acc = a[k]
        for i in range(k):
            qi = q[i]
            if qi:
                acc -= qi * b[k - i]
        q[k] = acc * inv
    return tuple(q)


def sqrt(s) -> tuple[Fraction, ...]:
    """Square root with constant term 1 of a series with s(0) = 1."""
    n = s.order
    r = [_ZERO] * n
    r[0] = _ONE
    for k in range(1, n):
        acc = s.coeffs[k]
        for i in range(1, k):
            acc -= r[i] * r[k - i]
        r[k] = acc / 2
    return tuple(r)


def compose(outer, inner) -> tuple[Fraction, ...]:
    """outer(inner) by Horner over every retained outer coefficient."""
    n = min(outer.order, inner.order)
    b = inner.coeffs[:n]
    acc = [outer.coeffs[n - 1]] + [_ZERO] * (n - 1)
    for k in range(n - 2, -1, -1):
        acc = _convolve(acc, b)
        acc[0] += outer.coeffs[k]
    return tuple(acc)


def quadratic_root(eq, order: int) -> tuple[Fraction, ...]:
    """The root y(0) = eq.y0 of eq.p2*y^2 + eq.p1*y + eq.p0 = 0 to ``order``
    terms, for a record whose pivot 2*p2(0)*y0 + p1(0) is +-1, by a running
    self-convolution.

    The root runs on the integer image Y(t) = y(lam*t), lam the lcm of every
    coefficient denominator: Y solves the same equation with the
    coefficients p_i[j]*lam**j, all ints.  Its t^n coefficient is
    pivot*Y_n + R_n = 0, with R_n the t^n coefficient of
    p2*Y^2 + p1*Y + p0 taken with Y_n = 0, so Y_n = -pivot*R_n.
    """
    polys = [[Fraction(c) for c in p] for p in (eq.p2, eq.p1, eq.p0)]
    y0 = int(eq.y0)
    pivot = int(2 * polys[0][0] * y0 + polys[1][0])
    lam = math.lcm(*[c.denominator for p in polys for c in p])
    t2, t1, t0 = ([(j, (c * lam ** j).numerator) for j, c in enumerate(p) if c]
                  for p in polys)
    t1 = [(j, c) for j, c in t1 if j]   # p1(0)*Y_n is the pivot's share
    t0 = dict(t0)
    ys = [y0]        # Y_0 .. Y_(n-1)
    sq = [y0 * y0]   # [t^m] Y^2 for m < n
    for n in range(1, order):
        # [t^n] Y^2 without its 2*Y_0*Y_n term
        s = sum(ys[i] * ys[n - i] for i in range(1, n))
        sq.append(s)
        r = t0.get(n, 0)
        for j, c in t2:
            if j <= n:
                r += c * sq[n - j]
        for j, c in t1:
            if j <= n:
                r += c * ys[n - j]
        y = -pivot * r
        ys.append(y)
        sq[n] = s + 2 * y0 * y
    return tuple(Fraction(y, lam ** n) for n, y in enumerate(ys))
