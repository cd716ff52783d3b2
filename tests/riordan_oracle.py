"""Reference matrix routes for the Riordan self-checks.

These are the dense ``Fraction`` forms of the generating-function
identities ``riopi.riordan`` certifies with: the production matrix as
M^-1 * Mbar, the signed Bell matrix square, and the B-sequence recurrence
at every cell of the triangle.  They build their triangles with the plain
convolution of ``series_oracle`` and share no code with ``riopi.riordan``.
The reversion fixed point, the composition g*g(-x*g) and the Horner
evaluation of g = 1 + x*g*B(x^2*g) are series routes to the same
verdicts, the last two the ones ``riopi.riordan`` once ran itself.  So are
the reversion formulas for Z and A and the fixed-point iteration for A
from B, which ``riopi.riordan`` replaced by row recurrences.

The Riordan group product and inverse, the fundamental-theorem action, a
single entry [x^n] g*f^k and ``a_from_b`` (A from B through the Bell
triangle B generates) are second routes to what ``riopi.riordan`` reads
off once; they act by composition and reversion, or by the recurrence,
and the tests hold the library to them.

``riopi.riordan.RiordanArray`` is the Bell array (g, x*g).  The general
array (g, f) is the record ``Pair`` here, with its Z-sequence, which on a
Bell array is (A - 1)/x but in general is a column of its own
(``z_and_a_by_rows``).  Every oracle that takes an array reads only its
``g`` and ``f``, so it takes a ``Pair`` or a ``RiordanArray``.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from riopi.riordan import a_from_g
from riopi.series import Series, _horner
from series_oracle import _convolve

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Pair:
    """A Riordan array (g, f), g(0) = 1 and f(0) = 0, that need not be
    Bell: t[n][k] = [x^n] g*f^k."""

    g: Series
    f: Series

    def __post_init__(self):
        if self.g[0] != 1:
            raise ValueError("g must have constant term 1")
        if self.f[0] != 0:
            raise ValueError("f must have zero constant term")

    @property
    def order(self) -> int:
        return min(self.g.order, self.f.order)


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


def reversion_fixed_point(g, size) -> bool:
    """Is Rev(-x*g) = -x*g mod x^(size+1)?  The same condition as the signed
    square, f(f) = x for f = -x*g, decided through the reversion."""
    mxg = -(g.truncate(size).shift(1))
    return mxg.revert().coeffs == mxg.coeffs


def composition_square_is_identity(g, size) -> bool:
    """Is g*g(-x*g) = 1 mod x^size?  The signed square, by composition."""
    g = g.truncate(size)
    return (g * g.compose(-(g.shift(1)))).coeffs == Series.one(size).coeffs


def b_identity_mismatch(g, b) -> int | None:
    """First n <= 2*len(b) with [x^n] g != [x^n] (1 + x*g*B(x^2*g)), or None.

    b must be nonempty and g of order at least 2*len(b) + 1.  (x^2*g)^k has
    valuation 2k, so the len(b) terms of B fix the right side mod
    x^(2*len(b)+1).
    """
    head = g.truncate(2 * len(b))
    rhs = 1 + (head * _horner(b, head.shift(2).truncate(head.order))).shift(1)
    for n, (want, got) in enumerate(zip(g.coeffs, rhs.coeffs)):
        if want != got:
            return n
    return None


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


def z_and_a_by_rows(array) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(Z, A), order - 1 terms each, read off the triangle by M*P = Mbar
    row by row: columns 0 and 1 are t[n+1][0] = sum_(j<=n) t[n][j]*z_j and
    t[n+1][1] = sum_(j<=n) t[n][j]*a_j, solved with the pivot
    t[n][n] = f'(0)^n, which must not vanish."""
    order = array.order
    t = triangle(array.g, array.f, order)
    z: list[Fraction] = []
    a: list[Fraction] = []
    for n in range(order - 1):
        row, below = t[n], t[n + 1]
        z.append((below[0] - sum(map(mul, z, row))) / row[n])
        a.append((below[1] - sum(map(mul, a, row))) / row[n])
    return tuple(z), tuple(a)


def a_and_z_by_reversion(array) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(Z, A) from A(x) = x/fbar and Z(x) = (1 - 1/g(fbar))/fbar, fbar the
    reversion of f: order - 1 terms each."""
    fbar = array.f.revert()
    a = 1 / fbar.unshift(1)
    z = (1 - 1 / array.g.compose(fbar)) / fbar
    return z.coeffs, a.coeffs[:z.order]


def a_from_b_fixed_point(b, order) -> Series:
    """A with A(0) = 1 and A(x) = 1 + x*B(x^2/A(x)) mod x^order, by iterating
    the map from A = 1: coefficient n of the right side involves only
    coefficients below n of A, so each pass fixes at least one more."""
    x2 = Series([0, 0, 1], order)
    one = Series.one(order)
    a = one
    for _ in range(order + 1):
        # Horner at order-1: B's unseen tail has valuation >= order there,
        # so evaluating with only the supplied coefficients stays exact.
        inner = (x2 / a).truncate(max(order - 1, 1))
        updated = one + _horner(b.coeffs, inner).shift(1).truncate(order)
        if updated.coeffs == a.coeffs:
            return a
        a = updated
    raise AssertionError("A(x) fixed point failed to stabilise")


def entry(array, n, k) -> Fraction:
    """t[n][k] = [x^n] g*f^k by k series products; zero above the diagonal."""
    if k > n:
        return _ZERO
    col = array.g.truncate(n + 1)
    f = array.f.truncate(n + 1)
    for _ in range(k):
        col = col * f
    return col[n]


def multiply(r, s) -> Pair:
    """(g, f) . (u, v) = (g * u(f), v(f))."""
    return Pair(r.g * s.g.compose(r.f), s.f.compose(r.f))


def inverse(r) -> Pair:
    """(g, f)^-1 = (1 / g(fbar), fbar) with fbar the reversion of f."""
    fbar = r.f.revert()
    return Pair(1 / r.g.compose(fbar), fbar)


def ftra_apply(r, h) -> Series:
    """Fundamental theorem: the array acts on h by h -> g * h(f).  f'(0) may
    be zero here, as no reversion is taken."""
    return r.g * h.compose(r.f)


def a_from_b(b, order) -> Series:
    """Unique A with A(0) = 1 solving A(x) = 1 + x*B(x^2 / A(x)).

    That A is 1/g(-x) (``a_from_g``) for the pseudo-involution g whose
    B-sequence is B: g is column 0 of the Bell triangle B generates,
    t[n+1][k] = t[n][k-1] + sum_j b_j*t[n-j][k+j] from t[0][0] = 1.
    Rows below ``order`` read b_j for j <= (order-2)//2 only.
    """
    if b.order < order // 2:
        raise ValueError(f"need B to order {order // 2} for A to order {order}")
    bs = b.coeffs
    t = [[_ONE]]
    for n in range(order - 1):
        t.append([(t[n][k - 1] if k else _ZERO)
                  + sum([bs[j] * t[n - j][k + j] for j in range((n - k) // 2 + 1)])
                  for k in range(n + 2)])
    return a_from_g(Series([row[0] for row in t], order))
