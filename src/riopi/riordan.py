"""Riordan arrays as values: triangles, production matrices, A/Z/B-sequences
and the pseudo-involution test.

A Riordan array is a pair (g, f) with g(0) = 1 and f(0) = 0 acting as the
lower-triangular matrix t[n][k] = [x^n] g*f^k.  The Bell subgroup is the
f = x*g slice; a Bell array whose signed version (g, -x*g) squares to the
identity is a pseudo-involution, and those are exactly the arrays that
admit a B-sequence recurrence along their rows.  One read-off of the
B-sequence decides both: is_pseudo_involution, b_extract and the
production matrix of a Bell array share it, and it runs once per g: the
last read-off is remembered for the next call on the same prefix.

The read-off has two routes.  When g's first B terms fit a B of degree
(1, 1), (a - cx)/(1 + bx) as for every family member and every curve, it
compares g with the root of that member's quadratic
num*g^2 - den*g + 1 = 0, which the linear recurrence of
``series._root_ints`` expands in O(N) products of ints; otherwise it
walks the table of powers g, ..., g^c, O(N^3), and only the walk names
the first failing power of x.  The quadratic is the paper's B identity
g = 1 + x*g*B(x^2*g) times the unit 1 + b*x^2*g, so both routes decide
the same question and give the same terms.  The certified member's
A-sequence 1/g(-x) is the root of a quadratic too, so
``production_matrix`` reads it off the same kernel; on the walk's route
it divides by g(-x) (``a_from_g``).

The group product and inverse, the fundamental-theorem action h -> g*h(f)
and A from B are second routes to these answers, kept as test oracles in
``tests/riordan_oracle.py``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .series import (NotRevertible, Series, _append_ratio, _fractions, _image_lam, _image_values,
                     _lowest, _packed, _root_ints, rational)

_ZERO = Fraction(0)


class OutOfOrder(ValueError):
    """Requested matrix data beyond the certified truncation."""


class NoBSequence(ValueError):
    """The array is not a pseudo-involution, so no B-sequence exists."""


class SelfCheckError(RuntimeError):
    """A computed result failed its certifying identity."""


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


class ProductionMatrix:
    """The size x size lower-Hessenberg production matrix, stored as its
    Z- and A-sequences: column 0 is Z and column j >= 1 is A shifted down
    j - 1 rows.  ``size`` is len(z), and A needs at least ``size`` terms
    (ValueError otherwise) and is kept to its first ``size``.  Each
    sequence is kept as ints over one denominator: ``z``, ``a`` and the
    rows build Fractions on each read.  A matrix read off a
    pseudo-involution keeps only A, with one term more, and reads Z as A's
    tail, z_i = a_(i+1)."""

    __slots__ = ("_z", "_z_den", "_a", "_a_den")

    def __init__(self, z, a):
        if len(a) < len(z):
            raise ValueError(f"A has {len(a)} terms, fewer than the {len(z)} of Z")
        self._z, self._z_den = _packed([rational(v) for v in z])
        self._a, self._a_den = _packed([rational(v) for v in a[:len(self._z)]])

    @classmethod
    def _from_a(cls, a: Series) -> "ProductionMatrix":
        """The matrix with A = ``a`` and Z = (A - 1)/x, of size a.order - 1."""
        p = object.__new__(cls)
        p._z, p._z_den = None, None
        p._a, p._a_den = a._nums, a._den
        return p

    @property
    def size(self) -> int:
        return len(self._a) - 1 if self._z is None else len(self._z)

    @property
    def z(self) -> tuple[Fraction, ...]:
        if self._z is None:
            return _fractions(self._a[1:], self._a_den)
        return _fractions(self._z, self._z_den)

    @property
    def a(self) -> tuple[Fraction, ...]:
        return _fractions(self._a[:self.size], self._a_den)

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        # builds only the Fractions row i shows
        size = self.size
        i = range(size)[i]  # negative rows and IndexError as for a tuple
        if self._z is None:
            z_i = Fraction(self._a[i + 1], self._a_den)
        else:
            z_i = Fraction(self._z[i], self._z_den)
        lo = _band_start(i, size)
        return _row(z_i, _fractions(self._a[lo:i + 1], self._a_den)[::-1], size)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        z, a, size = self.z, self.a, self.size
        return tuple([_row(z[i], a[_band_start(i, size):i + 1][::-1], size)
                      for i in range(size)])

    def integers(self) -> list[list[int]]:
        return _integer_rows(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductionMatrix):
            return NotImplemented
        return (self.z, self.a) == (other.z, other.a)

    def __hash__(self) -> int:
        return hash((self.z, self.a))

    def __repr__(self) -> str:
        return f"ProductionMatrix(z={self.z!r}, a={self.a!r})"


def _band_start(i: int, size: int) -> int:
    """The lowest A index lo in row i: columns 1.. hold a[i], ..., a[lo]."""
    return max(0, i + 2 - size)


def _row(z_i: Fraction, band: tuple[Fraction, ...], size: int) -> tuple[Fraction, ...]:
    """A row: z_i, then the A band a[i], ..., a[lo], then zeros."""
    return (z_i, *band, *[_ZERO] * (size - 1 - len(band)))


class BSequence:
    """The certified B-sequence terms, kept as ints over one denominator;
    ``values`` builds Fractions on each read."""

    __slots__ = ("_nums", "_den")

    def __init__(self, values):
        self._nums, self._den = _packed([rational(v) for v in values])

    @classmethod
    def _from_ints(cls, nums, den: int) -> "BSequence":
        """The terms nums[i]/den."""
        b = object.__new__(cls)
        b._nums, b._den = _lowest(nums, den)
        return b

    @property
    def values(self) -> tuple[Fraction, ...]:
        return _fractions(self._nums, self._den)

    @property
    def certified(self) -> int:
        return len(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BSequence):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        return f"BSequence(values={self.values!r})"


class RiordanArray:
    """Pair (g, f); g needs unit constant term, f zero constant term."""

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

    def triangle(self, size: int) -> TriangularMatrix:
        """First ``size`` rows, row n holding columns 0..n."""
        if size < 1 or size > self.order:
            raise OutOfOrder(f"size {size} outside 1..{self.order}")
        g = self.g.truncate(size)
        f = self.f.truncate(size)
        rows = [[_ZERO] * (n + 1) for n in range(size)]
        col = g
        for k in range(size):
            cs = col.coeffs
            for n in range(k, size):
                rows[n][k] = cs[n]
            if k + 1 < size:
                col = col * f
        return TriangularMatrix(tuple([tuple(r) for r in rows]))

    # -- production structure ----------------------------------------------

    def a_and_z(self) -> ProductionMatrix:
        """Z and A read off the triangle, as a production matrix of size
        order - 1.

        Columns 0 and 1 of M*P = Mbar (M the array, Mbar M without its
        first row) are t[n+1][0] = sum_(j<=n) t[n][j]*z_j and
        t[n+1][1] = sum_(j<=n) t[n][j]*a_j, which are g = 1 + x*g*Z(f)
        and f = x*A(f) at x^(n+1).  The pivot t[n][n] = f'(0)^n gives z_n
        and a_n from the terms before them, so both identities hold by
        construction.  f'(0) = 0 or order < 2 raises NotRevertible.
        """
        order = self.order
        if order < 2 or not self.f[1]:
            raise NotRevertible("need f'(0) != 0 and order >= 2")
        t = self.triangle(order)
        z: list[Fraction] = []
        a: list[Fraction] = []
        for n in range(order - 1):
            row, below = t[n], t[n + 1]
            z.append((below[0] - sum(map(mul, z, row))) / row[n])
            a.append((below[1] - sum(map(mul, a, row))) / row[n])
        return ProductionMatrix(z, a)

    def production_matrix(self, size: int | None = None) -> ProductionMatrix:
        """Lower-Hessenberg production matrix P with first column the
        Z-sequence and shifted copies of the A-sequence in the other columns.

        Defaults to size order-2.  Each route certifies Z and A against
        their defining identities g = 1 + x*g*Z(f) and f = x*A(f) through
        x^size, which together say M*P = Mbar on the truncation (M the
        array, Mbar M without its first row).

        A Bell array (g, x*g) whose g passes the B-sequence read-off at
        order size+1 is a pseudo-involution there: g*g(-x*g) = 1 mod
        x^(size+1).  Its A is 1/g(-x) and Z = (A - 1)/x, and the read-off
        is their only certificate: A(x*g) = 1/g(-x*g) = g is f = x*A(f),
        and as x*g*Z(x*g) = A(x*g) - 1 it is g = 1 + x*g*Z(f) too.  When
        the read-off certified g as a member's root, A is the root of its
        own quadratic (``_member_a``), O(size) products of ints; after the
        walk it is ``a_from_g``, a Series division.  Every other array
        takes Z and A from ``a_and_z`` of its truncation to order size+1,
        which solves both identities row by row.
        """
        if size is None:
            size = self.order - 2
        if size < 1 or size + 1 > self.order:
            raise OutOfOrder(f"production size {size} outside 1..{self.order - 1}")
        if self.is_bell():
            g = self.g.truncate(size + 1)
            _, n, member = _b_read_off(g)
            if n is None:
                return ProductionMatrix._from_a(
                    a_from_g(g) if member is None else _member_a(member, g))
        return RiordanArray(self.g.truncate(size + 1), self.f.truncate(size + 1)).a_and_z()

    def is_bell(self) -> bool:
        """True iff f = x*g over the common order."""
        g, f = self.g, self.f
        top = min(f.order, g.order + 1)
        return top < 2 or f.truncate(top) == g.truncate(top - 1).shift(1)


def bell(g: Series) -> RiordanArray:
    """Bell-subgroup array (g, x*g)."""
    return RiordanArray(g, g.shift(1))


# -- pseudo-involutions ----------------------------------------------------


def is_pseudo_involution(g: Series) -> bool:
    """Does (g, -x*g) square to the identity on the N x N truncation,
    N = g.order?  Truncate g to ask at a smaller size.

    The square is (g*g(f), f(f)) with f = -x*g, and f(f) = x*g*g(f), so it
    is the identity exactly when g*g(-x*g) = 1 mod x^N, which the
    B-sequence read-off of g decides (see _b_read_off).
    """
    if g[0] != 1:
        raise ValueError("g must have constant term 1")
    return _b_read_off(g)[1] is None


def b_extract(g: Series) -> BSequence:
    """B-sequence of the pseudo-involution (g, x*g): the c = (order-1)//2
    terms ``_b_read_off`` certifies.  A g that is no pseudo-involution at
    its order raises NoBSequence naming the first failing power of x."""
    if g[0] != 1:
        raise ValueError("g must have constant term 1")
    b, n, _ = _b_read_off(g)
    if n is not None:
        raise NoBSequence("(g, x*g) is not a pseudo-involution: "
                          f"g = 1 + x*g*B(x^2*g) fails at x^{n}")
    return b


def _b_read_off(g: Series) -> tuple[BSequence, int | None, tuple | None]:
    """B terms read off g, the first n at which g = 1 + x*g*B(x^2*g)
    fails mod x^(2c+1), c = (order-1)//2, or None if it holds, and the
    member whose root g is there (``_member``), or None if the walk
    decided.

    The identity is column 0 of the recurrence
    t[n+1][k] = t[n][k-1] + sum_j b_j*t[n-j][k+j], with
    t[n][k] = [x^(n-k)] g^(k+1); column k's residual is (x*g)^k times
    column 0's.  With s_n = sum_{2k+1<n} b_k * [x^(n-2k-1)] g^(k+1), odd n
    give b_{(n-1)/2} = g_n - s_n (the pivot is 1) and even n are checked,
    g_n = s_n.  On a failure the terms read so far are returned.

    By the paper's theorem the identity holds exactly when
    g*g(-x*g) = 1 mod x^(2c+1).  That settles even orders too: if
    f(f) = x + e*x^m + ... for f = -x*g, then f(f(f)) is
    f + (-1)^m*e*x^m + ... one way round and f - e*x^m + ... the other, so
    g*g(f) - 1 = (f(f) - x)/x first fails at an even power.

    Two routes decide it (``_read_off``): a g whose B has degree (1, 1) is
    certified as the root of its member's quadratic, which is this
    identity times the unit 1 + b*x^2*g, in O(c) products of ints
    (``_rational_b``); any other g, and every g that fails, takes the walk
    over the table of powers above, O(c^3), which alone names the failing
    n.

    Only g_0..g_2c are read, so g is cut to order 2c+1 and the read-off is
    keyed on that prefix's values: the last one is remembered, and the next
    call on the same prefix returns it without reading g again, whoever
    makes it (``b_extract`` and ``production_matrix`` on the g that
    ``pipeline`` just certified, or a second ``pipeline`` on the same curve
    and c).  A hit costs the hash and compare of the prefix: 1.5-9 us for
    curve -3 and 6-80 us for curve -11/2 at orders 40-256, against
    0.06-0.33 ms and 0.07-0.49 ms for the rational-B certificate (Python
    3.11, shared 2-vCPU Xeon, process time, best of five).
    """
    c = (g.order - 1) // 2
    head = g.truncate(2 * c + 1)
    return _read_off(head._nums, head._den)


@functools.lru_cache(maxsize=1)
def _read_off(gs: tuple[int, ...], d: int) -> tuple[BSequence, int | None, tuple | None]:
    """``_b_read_off`` of the series gs/d of odd order 2c+1, plus the
    member it certified: the walk on the first seven terms, then the
    rational-B certificate of ``_rational_b`` when it holds, else the full
    walk, which certifies no member (None)."""
    c = len(gs) // 2
    if c > 3:
        head = _walk(gs[:7], d)
        if head[1] is not None:
            return *head, None  # the full walk reads the same terms and stops there
        member = _member(head[0])
        b = _rational_b(gs, d, head[0], member, c)
        if b is not None:
            return b, None, member
    return *_walk(gs, d), None


def _member(head: BSequence) -> tuple:
    """The member of the only B = (a - cx)/(1 + bx) of degree (1, 1) that
    starts with ``head``'s three terms, as (lam, p2, p1, p0): the int
    coefficients of its quadratic num*g^2 - den*g + 1 = 0 at x = lam*t,
    num = -b*x^2 - c*x^3 and den = 1 - a*x - b*x^2, with lam from
    ``series._image_lam`` as for any root.

    a = b_0, b = -b_2/b_1 and c = -b_1 - a*b = (b_0*b_2 - b_1^2)/b_1 over
    head's denominator e, or b = c = 0 when b_1 = 0.
    """
    (b0, b1, b2), e = head._nums, head._den
    if not b1:
        lam = e // math.gcd(b0, e)
        return lam, (0,), (-1, b0 * lam // e), (1,)
    cn, cd = b0 * b2 - b1 * b1, e * b1
    lam = _image_lam([(1, e // math.gcd(b0, e)), (2, abs(b1) // math.gcd(b2, b1)),
                      (3, abs(cd) // math.gcd(cn, cd))])
    bl = -b2 * lam * lam // b1
    return lam, (0, 0, -bl, -cn * lam ** 3 // cd), (-1, b0 * lam // e, bl), (1,)


def _rational_b(gs: tuple[int, ...], d: int, head: BSequence, member: tuple,
                terms: int) -> BSequence | None:
    """The ``terms`` terms of B = (a - cx)/(1 + bx) if g = gs/d is that
    B's member mod x^(2*terms+1), else None.

    (a, b, c) is the only B of degree (1, 1) that starts with ``head``'s
    three terms (``_member``), and its member is the root g(0) = 1 of
    num*g^2 - den*g + 1 = 0.  That quadratic is
    (1 + b*x^2*g)*(g - 1 - x*g*B(x^2*g)) and 1 + b*x^2*g is a unit, so it
    holds mod x^(2*terms+1) exactly when the walk's identity does with B's
    expansion, and as the walk solves for each b_k with pivot 1, it would
    read off these very terms.  The quadratic's pivot is 1 too, so it
    holds there exactly when g equals its root there: g is compared with
    the root ``series._root_ints`` expands, in O(terms) products of ints.
    """
    lam, p2, p1, p0 = member
    # the root's terms Y_n/lam^n are Y_n*lam^(top-n) over lam^top, and d
    # divides lam^top if g is the root: gs[n]*(lam^top/d) against them
    top = len(gs) - 1
    r, rem = divmod(lam ** top, d)
    if rem:
        return None
    scale = 1
    for c, y in zip(reversed(gs), reversed(_root_ints(p2, p1, p0, -1, len(gs)))):
        if c * r != y * scale:
            return None
        scale *= lam
    (b0, b1, b2), e = head._nums, head._den
    if not b1:
        return BSequence._from_ints([b0] + [0] * (terms - 1), e)
    # b_k = -b*b_(k-1) for k >= 2, so b_k = b_2^(k-1)/(e*b_1^(k-2)) for k >= 1
    top = terms - 1
    return BSequence._from_ints(
        [b0 * b1 ** (top - 2)] + [b2 ** (k - 1) * b1 ** (top - k) for k in range(1, terms)],
        e * b1 ** (top - 2))


def _walk(gs: tuple[int, ...], d: int) -> tuple[BSequence, int | None]:
    """``_b_read_off`` of the series gs/d of odd order 2c+1 by the walk over
    the table of powers g, g^2, ..., g^c."""
    c = len(gs) // 2
    if not c:
        return BSequence(()), None
    base = Series._reduced(gs[:2 * c], d)
    powers = [base]  # powers[k] = g^(k+1), read up to x^(2c-2k-1)
    for k in range(1, c):
        powers.append(powers[-1].truncate(2 * c - 2 * k) * base)
    # Over ints: g = gs/d, the powers over one denominator as q[k]/m, and
    # the terms read so far b_k = bs[k]/e, so s_n = t/(e*m) with
    # t = sum bs[k]*q[k][n-2k-1].
    m = math.lcm(*[p._den for p in powers])
    q = [[v * (m // p._den) for v in p._nums] for p in powers]
    bs: list[int] = []
    e = 1
    for n in range(1, 2 * c + 1):
        t = sum([bs[k] * q[k][n - 2 * k - 1] for k in range(n // 2)])
        if n & 1:
            # b = g_n - s_n = (gs[n]*e*m - t*d) / (d*m*e)
            bs, e = _append_ratio(bs, e, gs[n] * e * m - t * d, d * m)
        elif t * d != gs[n] * e * m:
            return BSequence._from_ints(bs, e), n
    return BSequence._from_ints(bs, e), None


def _member_a(member: tuple, g: Series) -> Series:
    """A = 1/g(-x) of a g that ``_read_off`` certified as the root of
    ``member``'s quadratic p2*g^2 + p1*g + p0 = 0 mod x^(2c+1),
    c = (g.order-1)//2.

    With G = g(-x), dividing p2(-x)*G^2 + p1(-x)*G + p0(-x) = 0 by G^2
    makes A the root A(0) = 1 of p0(-x)*A^2 + p1(-x)*A + p2(-x) = 0, of
    pivot 2*p0(0) + p1(0) = 1, whose image at x = lam*t has member's lam.
    That gives A mod x^(2c+1).  At even g.order, A's last term reads g's
    last, which the read-off did not: it is
    -sum_(i=1..2c+1) (-1)^i*g_i*A_(2c+1-i), from g itself.
    """
    lam, p2, p1, p0 = member
    k = 2 * ((g.order - 1) // 2) + 1
    nums, den = _image_values(
        _root_ints(*[[-c if j & 1 else c for j, c in enumerate(p)] for p in (p0, p1, p2)],
                   1, k), lam)
    if k == g.order:
        return Series._raw(nums, den)
    ga = [-c if i & 1 else c for i, c in enumerate(g._nums[1:], 1)]
    return Series._reduced(*_append_ratio(list(nums), den, -sum(map(mul, ga, reversed(nums))),
                                          g._den))


def a_from_g(g: Series) -> Series:
    """A-sequence generating function 1 / g(-x) of the pseudo-involution."""
    if g[0] != 1:
        raise ValueError("g must have constant term 1")
    return 1 / g._alternated()
