"""Riordan arrays as values: matrices, group operations, production data,
A/Z/B-sequences and the pseudo-involution tests.

A Riordan array is a pair (g, f) with g(0) = 1 and f(0) = 0 acting as the
lower-triangular matrix t[n][k] = [x^n] g*f^k.  The Bell subgroup is the
f = x*g slice; a Bell array whose signed version (g, -x*g) squares to the
identity is a pseudo-involution, and those are exactly the arrays that
admit a B-sequence recurrence along their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import Series, _horner

_ZERO = Fraction(0)


class OutOfOrder(ValueError):
    """Requested matrix data beyond the certified truncation."""


class NoBSequence(ValueError):
    """The array is not a pseudo-involution, so no B-sequence exists."""


class SelfCheckError(RuntimeError):
    """Two supposedly equivalent computations disagreed (truncation bug guard)."""


def _integer_rows(rows) -> list[list[int]]:
    out = []
    for row in rows:
        if any(c.denominator != 1 for c in row):
            raise ValueError("non-integer matrix entry")
        out.append([c.numerator for c in row])
    return out


@dataclass(frozen=True)
class TriangularMatrix:
    """Staircase rows of exact rationals, row n holding columns 0..n."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __getitem__(self, n):
        return self.rows[n]

    @property
    def size(self) -> int:
        return len(self.rows)

    def integers(self) -> list[list[int]]:
        return _integer_rows(self.rows)


@dataclass(frozen=True)
class ProductionData:
    z: tuple[Fraction, ...]
    a: tuple[Fraction, ...]


@dataclass(frozen=True)
class ProductionMatrix:
    """The size x size lower-Hessenberg production matrix, stored as its
    Z- and A-sequences (``size`` terms each): column 0 is Z and column
    j >= 1 is A shifted down j - 1 rows.  Rows are built on demand."""

    z: tuple[Fraction, ...]
    a: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return len(self.z)

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        z, a = self.z, self.a
        size = len(z)
        i = range(size)[i]  # negative rows and IndexError as for a tuple
        band = min(i + 1, size - 1)  # columns 1..band hold a[i], ..., a[i-band+1]
        return (z[i], *[a[i - j] for j in range(band)], *[_ZERO] * (size - 1 - band))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple([self[i] for i in range(self.size)])

    def integers(self) -> list[list[int]]:
        return _integer_rows(self.rows)


@dataclass(frozen=True)
class BSequence:
    values: tuple[Fraction, ...]

    @property
    def certified(self) -> int:
        return len(self.values)


class RiordanArray:
    """Pair (g, f); g needs unit constant term, f zero constant term.

    f'(0) may be zero for arrays used only through the fundamental
    theorem (ftra_apply); group operations that need the compositional
    inverse of f raise NotRevertible on such arrays.
    """

    __slots__ = ("g", "f")

    def __init__(self, g: Series, f: Series):
        if g[0] != 1:
            raise ValueError("g must have constant term 1")
        if f[0] != 0:
            raise ValueError("f must have zero constant term")
        self.g = g
        self.f = f

    @property
    def order(self) -> int:
        return min(self.g.order, self.f.order)

    def __repr__(self):
        return f"RiordanArray(g={self.g!r}, f={self.f!r})"

    # -- matrix realisation ----------------------------------------------

    def entry(self, n: int, k: int) -> Fraction:
        """t[n][k] = [x^n] g*f^k."""
        if n < 0 or k < 0:
            raise OutOfOrder("negative index")
        if n >= self.order:
            raise OutOfOrder(f"row {n} beyond certified order {self.order}")
        if k > n:
            return _ZERO
        col = self.g.truncate(n + 1)
        f = self.f.truncate(n + 1)
        for _ in range(k):
            col = col * f
        return col[n]

    def triangle(self, size: int) -> TriangularMatrix:
        """First ``size`` rows, row n holding columns 0..n."""
        if size < 1 or size > self.order:
            raise OutOfOrder(f"size {size} outside 1..{self.order}")
        g = self.g.truncate(size)
        f = self.f.truncate(size)
        rows = [[_ZERO] * (n + 1) for n in range(size)]
        col = g
        for k in range(size):
            for n in range(k, size):
                rows[n][k] = col[n]
            if k + 1 < size:
                col = col * f
        return TriangularMatrix(tuple(tuple(r) for r in rows))

    # -- group structure ---------------------------------------------------

    def multiply(self, other: "RiordanArray") -> "RiordanArray":
        """(g, f) . (u, v) = (g * u(f), v(f))."""
        return RiordanArray(self.g * other.g.compose(self.f),
                            other.f.compose(self.f))

    __mul__ = multiply

    def inverse(self) -> "RiordanArray":
        """(g, f)^-1 = (1 / g(fbar), fbar) with fbar the reversion of f."""
        fbar = self.f.revert()
        return RiordanArray(1 / self.g.compose(fbar), fbar)

    def ftra_apply(self, h: Series) -> Series:
        """Fundamental theorem: the array acts on h by h -> g * h(f)."""
        return self.g * h.compose(self.f)

    # -- production structure ----------------------------------------------

    def a_and_z(self) -> ProductionData:
        """A(x) = x/fbar and Z(x) = (1 - 1/g(fbar))/fbar as coefficient lists."""
        fbar = self.f.revert()
        a = 1 / fbar.unshift(1)
        w = 1 - 1 / self.g.compose(fbar)
        z = w / fbar
        return ProductionData(z=z.coeffs, a=a.coeffs)

    def production_matrix(self, size: int | None = None) -> ProductionMatrix:
        """Lower-Hessenberg production matrix P with first column the
        Z-sequence and shifted copies of the A-sequence in the other columns.

        Defaults to size order-2 so no edge coefficient of fbar is consumed.
        Z and A are cross-checked against their defining identities
        g = 1 + x*g*Z(f) and f = x*A(f) through x^size, which together say
        M*P = Mbar on the truncation (M the array, Mbar M without its first
        row); disagreement raises SelfCheckError.
        """
        if size is None:
            size = self.order - 2
        if size < 1 or size + 1 > self.order:
            raise OutOfOrder(f"production size {size} outside 1..{self.order - 1}")
        data = self.a_and_z()
        z, a = data.z[:size], data.a[:size]
        g, f = self.g.truncate(size + 1), self.f.truncate(size)
        g_ok = (1 + (g.truncate(size) * _horner(z, f)).shift(1)).coeffs == g.coeffs
        f_ok = _horner(a, f).shift(1).coeffs == self.f.truncate(size + 1).coeffs
        if not (g_ok and f_ok):
            raise SelfCheckError("production matrix (Z, A) fails g = 1 + x*g*Z(f) "
                                 "or f = x*A(f)")
        return ProductionMatrix(z, a)

    def is_bell(self) -> bool:
        """True iff f = x*g over the common order; then A = 1 + x*Z must hold."""
        g, f = self.g, self.f
        top = min(f.order, g.order + 1)
        if any(f[k] != g[k - 1] for k in range(1, top)):
            return False
        if self.order >= 3:
            data = self.a_and_z()
            n = min(len(data.a), len(data.z) + 1)
            if data.a[0] != 1 or any(data.a[k] != data.z[k - 1] for k in range(1, n)):
                raise SelfCheckError("Bell array violating A = 1 + x*Z")
        return True


def bell(g: Series) -> RiordanArray:
    """Bell-subgroup array (g, x*g)."""
    return RiordanArray(g, g.shift(1))


# -- pseudo-involutions ----------------------------------------------------


def is_pseudo_involution(g: Series, size: int | None = None) -> bool:
    """Does (g, -x*g) square to the identity on the size x size truncation?

    The square is (g*g(f), f(f)) with f = -x*g, and f(f) = x*g*g(f), so it
    is the identity exactly when g*g(-x*g) = 1 mod x^size.  The reversion
    fixed point Rev(-x*g) = -x*g through x^size (the same condition on
    f(f) = x) is recomputed alongside as a guard, and the two must agree.
    """
    if g[0] != 1:
        raise ValueError("g must have constant term 1")
    if size is None:
        size = g.order
    if size < 1 or size > g.order:
        raise OutOfOrder(f"size {size} outside 1..{g.order}")
    g = g.truncate(size)
    mxg = -(g.shift(1))
    square_ok = (g * g.compose(mxg)).coeffs == Series.one(size).coeffs
    reversion_ok = mxg.revert().coeffs == mxg.coeffs
    if square_ok != reversion_ok:
        raise SelfCheckError("square and reversion tests disagree")
    return square_ok


def b_extract(g: Series) -> BSequence:
    """B-sequence of the pseudo-involution (g, x*g).

    Column 0 of the recurrence t[n+1][k] = t[n][k-1] + sum_j b_j*t[n-j][k+j]
    gives a triangular system whose pivots t[m][m] are all 1, so each b_m
    is read off without division.  In the Bell triangle
    t[n][k] = [x^(n-k)] g^(k+1), so

        b_m = g[2m+1] - sum_{j<m} b_j * [x^(2m-2j)] g^(j+1)

    An order-N series certifies c = (N-1)//2 entries.  Afterwards the
    generating-function form of the recurrence, g = 1 + x*g*B(x^2*g), is
    verified mod x^(2c+1); since f = x*g, the residual of column k is
    (x*g)^k times that of column 0, so this covers every cell the certified
    prefix can reach.  A failure (impossible for a genuine
    pseudo-involution) raises NoBSequence.
    """
    if g[0] != 1:
        raise ValueError("g must have constant term 1")
    size = g.order
    if not is_pseudo_involution(g, size):
        raise NoBSequence("(g, x*g) is not a pseudo-involution")
    certified = (size - 1) // 2
    if not certified:
        return BSequence(())
    base = g.truncate(2 * certified - 1)
    powers = [base]  # powers[j] = g^(j+1), read up to x^(2m-2j) <= x^(2c-2)
    for _ in range(certified - 1):
        powers.append(powers[-1] * base)
    b: list[Fraction] = []
    for m in range(certified):
        acc = g[2 * m + 1]
        for j in range(m):
            acc -= b[j] * powers[j][2 * m - 2 * j]
        b.append(acc)
    values = tuple(b)
    n = _b_identity_mismatch(g, values)
    if n is not None:
        raise NoBSequence(f"g = 1 + x*g*B(x^2*g) fails at x^{n}")
    return BSequence(values)


def _b_identity_mismatch(g: Series, b: tuple[Fraction, ...]) -> int | None:
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


def a_from_b(b: Series, order: int) -> Series:
    """Unique A with A(0) = 1 solving A(x) = 1 + x*B(x^2 / A(x)).

    Coefficient n of the right side only involves coefficients below n of
    A, so iterating the map from A = 1 locks in at least one further
    coefficient per pass.
    """
    if b.order < order // 2:
        raise ValueError(f"need B to order {order // 2} for A to order {order}")
    x2 = Series([0, 0, 1], order)
    one = Series.one(order)
    a = one
    for _ in range(order + 1):
        # Horner at order-1: B's unseen tail has valuation >= order there,
        # so evaluating with only the supplied coefficients stays exact.
        inner = (x2 / a).truncate(max(order - 1, 1))
        updated = (one + _horner(b.coeffs, inner).shift(1).truncate(order))
        if updated.coeffs == a.coeffs:
            return a
        a = updated
    raise SelfCheckError("A(x) fixed point failed to stabilise")


def a_from_g(g: Series) -> Series:
    """A-sequence generating function 1 / g(-x) of the pseudo-involution."""
    if g[0] != 1:
        raise ValueError("g must have constant term 1")
    alternated = Series([(-1) ** n * c for n, c in enumerate(g.coeffs)])
    return 1 / alternated
