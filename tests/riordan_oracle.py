"""Reference matrix routes for the Riordan self-checks.

These are the dense ``Fraction`` forms of the three generating-function
identities ``riopi.riordan`` certifies with: the production matrix as
M^-1 * Mbar, the signed Bell matrix square, and the B-sequence recurrence
at every cell of the triangle.  They build their triangles with the plain
convolution of ``series_oracle`` and share no code with ``riopi.riordan``.
"""

from fractions import Fraction

from series_oracle import _convolve

_ZERO = Fraction(0)
_ONE = Fraction(1)


def triangle(g, f, size) -> list[list[Fraction]]:
    """Staircase rows t[n][k] = [x^n] g*f^k for n < size."""
    col = list(g.coeffs[:size])
    fs = f.coeffs[:size]
    rows = [[_ZERO] * (n + 1) for n in range(size)]
    for k in range(size):
        for n in range(k, size):
            rows[n][k] = col[n]
        col = _convolve(col, fs)
    return rows


def production_dense(array, size) -> tuple[tuple[Fraction, ...], ...]:
    """P = M^-1 * Mbar on the size x size truncation, Mbar being M without
    its first row, by forward substitution (M is lower triangular)."""
    tri = triangle(array.g, array.f, size + 1)
    m0 = [tri[i] + [_ZERO] * (size - 1 - i) for i in range(size)]
    m1 = [tri[i + 1][:size] + [_ZERO] * max(0, size - i - 2) for i in range(size)]
    p: list[list[Fraction]] = []
    for r in range(size):
        row = m1[r][:]
        for k in range(r):
            c = m0[r][k]
            if c:
                row = [row[j] - c * p[k][j] for j in range(size)]
        inv = _ONE / m0[r][r]
        p.append([v * inv for v in row])
    return tuple(tuple(r) for r in p)


def signed_square_is_identity(g, size) -> bool:
    """Does the signed Bell triangle of (g, -x*g) square to I at size x size?"""
    tri = triangle(g, g.shift(1), size)
    signed = [[(-1) ** k * tri[n][k] for k in range(n + 1)] for n in range(size)]
    for n in range(size):
        for k in range(n + 1):
            acc = sum((signed[n][j] * signed[j][k] for j in range(k, n + 1)), _ZERO)
            if acc != (1 if n == k else 0):
                return False
    return True


def b_recurrence_holds(g, b) -> bool:
    """t[n+1][k] = t[n][k-1] + sum_j b_j*t[n-j][k+j] in the Bell triangle of
    g, at every cell of its order that the len(b) given terms reach."""
    size = g.order
    tri = triangle(g, g.shift(1), size)
    for n in range(size - 1):
        for k in range(n + 2):
            if (n - k) // 2 >= len(b):
                continue  # needs b entries beyond the given prefix
            rhs = tri[n][k - 1] if k else _ZERO
            for j in range((n - k) // 2 + 1):
                rhs += b[j] * tri[n - j][k + j]
            if tri[n + 1][k] != rhs:
                return False
    return True
