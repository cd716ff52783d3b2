"""Riordan arrays as values: triangles, production matrices, A/Z/B-sequences
and the pseudo-involution test.

riopi's Riordan array is the Bell array (g, x*g) of a g with g(0) = 1: the
lower-triangular matrix t[n][k] = [x^n] g*(x*g)^k = [x^(n-k)] g^(k+1),
whose diagonal is 1.  Its production matrix is its A-sequence: f = x*A(f)
with f = x*g gives A(x*g) = g, and then g = 1 + x*g*Z(f) gives
Z = (A - 1)/x.  The triangle, the A-sequence that ``a_and_z`` solves
for and the B-sequence walk below all read one table of powers of g
(``_powers``): g^(k+1) cut to the terms each reader needs, as int rows
over one denominator.  A Bell array whose signed version (g, -x*g)
squares to the identity is a pseudo-involution, and those are exactly the
arrays that admit a B-sequence recurrence along their rows.  One read-off
of the B-sequence decides both: is_pseudo_involution, b_extract and the
production matrix share it, and it runs once per g: the last read-off is
remembered for the next call on the same prefix.

The read-off has two routes.  When g's first B terms fit a B of degree
(1, 1), (a - cx)/(1 + bx) as for every family member and every curve, it
compares g with the root of that member's quadratic
num*g^2 - den*g + 1 = 0, which the linear recurrence of
``series._root_ints`` expands in O(N) products of ints; otherwise it
walks the table of powers g, ..., g^c, O(N^3), and only the walk names
the first failing power of x.  The quadratic is the paper's B identity
g = 1 + x*g*B(x^2*g) times the unit 1 + b*x^2*g, so both routes decide
the same question and give the same terms.  ``series._root_ints`` keeps
the last root it expanded, so right after ``pipeline``'s build the
certificate compares g with the very ints g was built from: the build
and the certificate expand one root between them.  The
certified member's A-sequence 1/g(-x) is den(-x) - num(-x)*g(-x), as
1/g = den - num*g on that quadratic, so ``production_matrix`` reads it
off g's own ints with no root expanded; on the walk's route it divides by
g(-x) (``a_from_g``).

The general array (g, f), whose Z is a column of its own, lives in
``tests/riordan_oracle.py`` as a test record, beside the group product
and inverse, the fundamental-theorem action h -> g*h(f) and A from B:
second routes to these answers, kept as test oracles.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import islice
from operator import add, mul

from .series import (NotRevertible, Series, _append_ratio, _fractions, _image_lam, _lowest,
                     _packed, _root_ints, rational)

_ZERO = Fraction(0)


class OutOfOrder(ValueError):
    """Requested matrix data beyond the certified truncation."""


class NoBSequence(ValueError):
    """The array is not a pseudo-involution, so no B-sequence exists."""


class SelfCheckError(RuntimeError):
    """A computed result failed its certifying identity."""


class _Exact:
    """A value held in the fields its ``__slots__`` name, as ints over one
    denominator in lowest terms, so equal values have equal fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class TriangularMatrix(_Exact):
    """Staircase rows of exact rationals, row n holding columns 0..n.
    ``TriangularMatrix(rows)`` keeps them as int rows over one
    denominator; ``rows`` and ``m[n]`` build Fractions on each read."""

    __slots__ = ("_rows", "_den")

    def __init__(self, rows):
        rows = [[rational(v) for v in row] for row in rows]
        nums, self._den = _packed([v for row in rows for v in row])
        nums = iter(nums)
        self._rows = tuple([tuple(islice(nums, len(row))) for row in rows])

    @classmethod
    def _from_ints(cls, rows: tuple[tuple[int, ...], ...], den: int) -> "TriangularMatrix":
        """The rows[n][k]/den, in lowest terms as they are given."""
        t = object.__new__(cls)
        t._rows, t._den = rows, den
        return t

    def __getitem__(self, n):
        if isinstance(n, slice):
            return self.rows[n]
        return _fractions(self._rows[n], self._den)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple([_fractions(row, self._den) for row in self._rows])

    @property
    def size(self) -> int:
        return len(self._rows)

    def integers(self) -> list[list[int]]:
        if self._den != 1:  # in lowest terms, so some entry is no integer
            raise ValueError("non-integer matrix entry")
        return [list(row) for row in self._rows]

    def __repr__(self) -> str:
        return f"TriangularMatrix(rows={self.rows!r})"


class ProductionMatrix(_Exact):
    """The size x size lower-Hessenberg production matrix of a Bell array,
    stored as its A-sequence: column j >= 1 is A shifted down j - 1 rows
    and column 0 is Z = (A - 1)/x, read as A's tail, z_i = a_(i+1).
    ``ProductionMatrix(a)`` takes A's first size + 1 terms (ValueError on
    none) and keeps them as ints over one denominator; ``a`` (the first
    ``size`` terms, as column 1 shows them), ``z`` and the rows build
    Fractions on each read."""

    __slots__ = ("_a", "_a_den")

    def __init__(self, a):
        values = [rational(v) for v in a]
        if not values:
            raise ValueError("A needs at least one term")
        self._a, self._a_den = _packed(values)

    @classmethod
    def _from_a(cls, a: Series) -> "ProductionMatrix":
        """The matrix with A = ``a``, of size a.order - 1."""
        p = object.__new__(cls)
        p._a, p._a_den = a._nums, a._den
        return p

    @property
    def size(self) -> int:
        return len(self._a) - 1

    @property
    def z(self) -> tuple[Fraction, ...]:
        return _fractions(self._a[1:], self._a_den)

    @property
    def a(self) -> tuple[Fraction, ...]:
        return _fractions(self._a[:-1], self._a_den)

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        # builds only the Fractions row i shows
        size = self.size
        i = range(size)[i]  # negative rows and IndexError as for a tuple
        lo = _band_start(i, size)
        return _row(Fraction(self._a[i + 1], self._a_den),
                    _fractions(self._a[lo:i + 1], self._a_den)[::-1], size)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        z, a, size = self.z, self.a, self.size
        return tuple([_row(z[i], a[_band_start(i, size):i + 1][::-1], size)
                      for i in range(size)])

    def _int_rows(self) -> list[tuple[int, ...]]:
        """The rows as ints over the denominator ``_a_den``."""
        a, size = self._a, self.size
        return [_row(a[i + 1], a[_band_start(i, size):i + 1][::-1], size, 0)
                for i in range(size)]

    def integers(self) -> list[list[int]]:
        d, rows = self._a_den, self._int_rows()
        if any(v % d for row in rows for v in row):
            raise ValueError("non-integer matrix entry")
        return [[v // d for v in row] for row in rows]

    def __repr__(self) -> str:
        return f"ProductionMatrix({_fractions(self._a, self._a_den)!r})"


def _band_start(i: int, size: int) -> int:
    """The lowest A index lo in row i: columns 1.. hold a[i], ..., a[lo]."""
    return max(0, i + 2 - size)


def _row(z_i, band: tuple, size: int, zero=_ZERO) -> tuple:
    """A row: z_i, then the A band a[i], ..., a[lo], then zeros."""
    return (z_i, *band, *[zero] * (size - 1 - len(band)))


class BSequence(_Exact):
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

    def __repr__(self) -> str:
        return f"BSequence(values={self.values!r})"


def _b_expansion(b0: Fraction, b1: Fraction, ratio: Fraction, terms: int) -> BSequence:
    """The first ``terms`` >= 1 terms of b0 + b1*x/(1 - ratio*x), the
    B = (a - cx)/(1 + bx) of b0 = a, b1 = -c - a*b and ratio = -b:
    b_k = b1*ratio^(k-1) for k >= 1, over ints."""
    (n0, n1), den = _packed([b0, b1])
    p, q = ratio.numerator, ratio.denominator
    top = max(terms - 2, 0)  # b_k = n1*p^(k-1)*q^(terms-1-k) / (den*q^top)
    return BSequence._from_ints(
        [n0 * q ** top] + [n1 * p ** (k - 1) * q ** (terms - 1 - k) for k in range(1, terms)],
        den * q ** top)


def _powers(g: Series, widths) -> tuple[list[list[int]], int]:
    """The table of powers of g: g^(k+1) cut to widths[k] terms, as int
    rows q[k] over one denominator m, for widths that never grow and start
    at most g.order.  Each power is the last one cut to the next width
    times g, so no product works out a term that its row drops."""
    p = g.truncate(widths[0])
    powers = [p]
    for w in widths[1:]:
        p = p.truncate(w) * g
        powers.append(p)
    m = math.lcm(*[p._den for p in powers])
    return [[v * (m // p._den) for v in p._nums] for p in powers], m


class RiordanArray:
    """The Bell array (g, x*g) of a g with unit constant term: t[n][k] is
    [x^n] g*f^k with f = x*g."""

    __slots__ = ("g",)

    def __init__(self, g: Series):
        if g[0] != 1:
            raise ValueError("g must have constant term 1")
        self.g = g

    @property
    def f(self) -> Series:
        return self.g.shift(1)

    @property
    def order(self) -> int:
        return self.g.order

    def __repr__(self):
        return f"RiordanArray(g={self.g!r})"

    # -- matrix realisation ----------------------------------------------

    def triangle(self, size: int) -> TriangularMatrix:
        """First ``size`` rows, row n holding columns 0..n."""
        if size < 1 or size > self.order:
            raise OutOfOrder(f"size {size} outside 1..{self.order}")
        # the table's ints are in lowest terms over m (each power's are over
        # its own denominator), and the triangle reads every one of them
        q, m = _powers(self.g, range(size, 0, -1))
        return TriangularMatrix._from_ints(
            tuple([tuple([q[k][n - k] for k in range(n + 1)]) for n in range(size)]), m)

    # -- production structure ----------------------------------------------

    def a_and_z(self) -> ProductionMatrix:
        """The production matrix of size order - 1, its A read off the
        triangle's entries with no division; order < 2 raises
        NotRevertible.

        Column 1 of M*P = Mbar (M the array, Mbar M without its first row)
        is t[n+1][1] = sum_(j<=n) t[n][j]*a_j, which is f = x*A(f) at
        x^(n+1).  As t[n+1][1] = [x^n] g^2 and the pivot t[n][n] is 1,
        a_n = [x^n] g^2 - sum_(j<n) t[n][j]*a_j, so the identity holds by
        construction.  Column 0 holds with it: A(x*g) = g makes
        Z = (A - 1)/x solve g = 1 + x*g*Z(f), and Z is A's tail.  Both g^2
        and every t[n][j] = [x^(n-j)] g^(j+1) come from one table of
        powers (``_powers``), and the a_n are solved over its ints; no
        triangle is built.
        """
        order = self.order
        if order < 2:
            raise NotRevertible("need order >= 2")
        # t[n][j] = q[j][n-j]/m, [x^n] g^2 = q[1][n]/m and a_j = a[j]/e, so
        # a_n = (q[1][n]*e - sum_(j<n) q[j][n-j]*a[j]) / (m*e)
        q, m = _powers(self.g, [order, order, *range(order - 2, 1, -1)])
        a: list[int] = []
        e = 1
        for n in range(order):
            top = q[1][n] * e - sum([q[j][n - j] * a[j] for j in range(n)])
            a, e = _append_ratio(a, e, top, m)
        return ProductionMatrix._from_a(Series._reduced(a, e))

    def production_matrix(self, size: int | None = None) -> ProductionMatrix:
        """Lower-Hessenberg production matrix P: Z = (A - 1)/x in column 0
        and shifted copies of the A-sequence in the others, A certified
        against A(x*g) = g, which is f = x*A(f) and, through Z,
        g = 1 + x*g*Z(f), through x^size.  Together they say M*P = Mbar on
        the truncation (M the array, Mbar M without its first row).

        Defaults to size order-2.  A g that passes the B-sequence read-off
        at order size+1 is a pseudo-involution there:
        g*g(-x*g) = 1 mod x^(size+1).  Its A is 1/g(-x), and the read-off
        is its only certificate, as A(x*g) = 1/g(-x*g) = g.  When the
        read-off certified g as a member's root, A is read off g's ints
        (``_member_a``), O(size) products of ints; after the walk it is
        ``a_from_g``, a Series division.  Any other g takes A
        from ``a_and_z`` of its truncation to order size+1, which solves
        the identity row by row.
        """
        if size is None:
            size = self.order - 2
        if size < 1 or size + 1 > self.order:
            raise OutOfOrder(f"production size {size} outside 1..{self.order - 1}")
        g = self.g.truncate(size + 1)
        _, n, member = _b_read_off(g)
        if n is not None:
            return RiordanArray(g).a_and_z()
        return ProductionMatrix._from_a(a_from_g(g) if member is None else _member_a(member, g))


def bell(g: Series) -> RiordanArray:
    """The Bell array (g, x*g)."""
    return RiordanArray(g)


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
    and c).  For curves -3, -11/2 and 5/2 a hit, the cut to the prefix
    and its hash and compare, costs 2-9 us at orders 40 and 129 and
    23-51 us at 513, and up to 0.1 ms at 256, where the cut drops g's last
    term and reduces the rest to lowest terms.  A miss runs the rational-B
    certificate of ``_read_off``.  Right after g was built from its
    member's root (as in ``pipeline``), which ``series._root_ints`` still
    holds, it only compares: 0.06-0.07 ms at order 40, 0.08-0.13 ms at
    129 and 0.3-1.1 ms at 513.  On any other g it expands the root too:
    0.10-0.12 ms at 40, 0.22-0.28 ms at 129 and 1.1-2.1 ms at 513
    (Python 3.11, shared 2-vCPU Xeon, process time, best of seven in each
    of three interleaved runs).
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
    That root is read from the slot of the last one expanded when it is
    this record's to at least len(gs) terms, as right after ``pipeline``
    built g from it (the same image ints and pivot -1), so g is compared
    with the very ints it was built from; the comparison itself runs on
    every call, slot or not.
    """
    lam, p2, p1, p0 = member
    scale = 1  # gs[n]/d = Y_n/lam^n exactly when gs[n]*lam^n = Y_n*d
    for c, y in zip(gs, _root_ints(p2, p1, p0, -1, len(gs))):
        if c * scale != y * d:
            return None
        scale *= lam
    b0, b1, b2 = head.values
    return _b_expansion(b0, b1, b2 / b1 if b1 else _ZERO, terms)


def _walk(gs: tuple[int, ...], d: int) -> tuple[BSequence, int | None]:
    """``_b_read_off`` of the series gs/d of odd order 2c+1 by the walk over
    the table of powers g, g^2, ..., g^c."""
    c = len(gs) // 2
    if not c:
        return BSequence(()), None
    # Over ints: g = gs/d, g^(k+1) = q[k]/m read up to x^(2c-2k-1), and
    # the terms read so far b_k = bs[k]/e, so s_n = t/(e*m) with
    # t = sum bs[k]*q[k][n-2k-1].
    q, m = _powers(Series._reduced(gs[:2 * c], d), range(2 * c, 0, -2))
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
    ``member``'s quadratic num*g^2 - den*g + 1 = 0 mod x^(2c+1),
    c = (g.order-1)//2, read off g's own ints.

    Dividing that quadratic by g gives 1/g = den - num*g mod x^(2c+1), so
    A = den(-x) - num(-x)*g(-x) there: per term, one product of g's ints by
    each of num's nonzero ints (two at most, none for the b = c = 0
    member), and no root is expanded.  member holds the ints at x = lam*t,
    p2 = num and p1 = -den there, so num_j = p2[j]/lam^j and
    den_j = -p1[j]/lam^j.  At even g.order, A's last term reads g's last,
    which the read-off did not: it is
    -sum_(i=1..2c+1) (-1)^i*g_i*A_(2c+1-i), from A*g(-x) = 1.
    """
    lam, p2, p1, _ = member
    k = 2 * ((g.order - 1) // 2) + 1
    gs, d = g._nums, g._den
    # over the denominator d*lam^top, A_n is (-1)^(n+1) times
    # p1[n]*lam^(top-n)*d + sum_j p2[j]*lam^(top-j)*gs[n-j]
    top = max(len(p1), len(p2)) - 1
    rs = [c * lam ** (top - j) * d for j, c in enumerate(p1)] + [0] * (k - len(p1))
    for j, c in enumerate(p2):
        if c:
            w = c * lam ** (top - j)
            rs[j:] = map(add, rs[j:], [w * y for y in gs[:k - j]])
    nums = [r if n & 1 else -r for n, r in enumerate(rs)]
    den = d * lam ** top
    if k == g.order:
        return Series._reduced(nums, den)
    ga = [-c if i & 1 else c for i, c in enumerate(gs[1:], 1)]
    return Series._reduced(*_append_ratio(nums, den, -sum(map(mul, ga, reversed(nums))), d))


def a_from_g(g: Series) -> Series:
    """A-sequence generating function 1 / g(-x) of the pseudo-involution."""
    if g[0] != 1:
        raise ValueError("g must have constant term 1")
    return 1 / g._alternated()
