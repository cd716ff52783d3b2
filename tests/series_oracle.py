"""Reference Fraction loops for the Series kernels.

These are the plain ``Fraction`` implementations of truncated product,
quotient, square root and full-length Horner composition.  They share no
code with ``riopi.series``: every function takes Series and returns the
coefficient tuple the kernel must reproduce bit for bit.
"""

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
