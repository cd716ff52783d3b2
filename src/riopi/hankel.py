"""Exact Hankel-determinant transforms of rational sequences.

Each transform value h_n is the determinant of the (n+1)x(n+1) matrix
with entry (i,j) = s[i+j].  ``hankel_transform`` takes two kinds of
input, and each kind has one route:

- A ``series.Quadratic``, the equation of an algebraic root, with an
  order: the transform is read off the root's H-fraction (below) in O(N)
  steps on rationals, never expanding the root (``root_transform``).
  Every caller that knows the equation of its root passes it:
  ``somos.conjecture_family``, ``elliptic.curve_somos_check``, the CLI's
  ``hankel`` and ``somos`` subjects and the Hankel rows of ``knowndata``.
  A root whose record takes neither entry to the H-fraction's map
  (Entry, below) is expanded and takes Bareiss; no record the library
  builds is one.
- Terms, a plain sequence or a Series: one Bareiss elimination (below).
  Terms carry no equation, so nothing shorter applies to them.  Tests
  check the H-fraction against this route.

Bareiss elimination
-------------------
The Hankel matrices are nested, so one fraction-free (Bareiss)
elimination of the largest yields every h_n as a leading principal
minor.

After step k of Bareiss's elimination, working entry (i, j) is the minor
on rows 0..k, i and columns 0..k, j, and the pivot of step k is h_k.  A
Hankel matrix is symmetric, so every working matrix is too, and only the
upper triangle is kept and updated: half the multiply-divides per step.

Zero pivots are common (h_1 = 0 throughout the family).  At a zero pivot
in step k, let r > k be the first column with b = entry (k, r) nonzero.
One 2x2 block step over rows k and r takes the matrix past both
(Bareiss's two-step elimination, with the symmetric 2x2 pivot of
Bunch-Kaufman).  With u, v the working rows k, r, c = v_r and prev the
last pivot minor (1 at k = 0), Sylvester's identity makes each new entry
the minor bordered by the eliminated rows:

    new_ij = (-b**2 * a_ij + b * (u_i * v_j + u_j * v_i) - c * u_i * u_j)
             / prev**2,

exact because that minor is an integer, and the new pivot minor
-b**2 / prev is nonzero, so the next step divides by it.  On family
members every zero pivot has r = k + 1, so h_k = 0 and
h_(k+1) = -b**2 / prev, or (when ab + c = 0) a row with no nonzero entry.

For r > k + 1 the rows are no longer eliminated in order, but a minor
is unchanged when rows and columns are swapped together, so every pivot
minor is still a principal minor.  Working row k is zero in columns
k..r-1, so h_n = 0 for k <= n < r, and further blocks may reach further
on.  h_n stays 0 until the rows eliminated are 0..n again, and then h_n
is the current pivot minor.  A zero pivot whose row has no nonzero entry
left makes every later h_n 0.

The input is ints over one denominator: a Series's own fields, or a
plain sequence packed to them.  The terms s_0 .. s_(2*top) that the
largest matrix reads are reduced once to nums_k / den in lowest terms,
so an unread last term cannot widen den, and Bareiss runs on the nums_k
themselves: the leading minors of their Hankel matrix are
den**(n+1) * h_n.

Han's H-fraction
----------------
Every power series F has one H-fraction (G.-N. Han, "Hankel continued
fraction and its applications", Adv. Math. 303 (2016))

    F = v_0*x^k_0 / (1 + u_1(x)*x - v_1*x^(k_0+k_1+2) / (1 + u_2(x)*x - ...)),

with v_j != 0 and deg u_j <= k_(j-1).  Let s_j = k_0 + ... + k_(j-1) + j
and H_n = h_(n-1), H_0 = 1.  Han's theorem: the nonzero H_n are exactly

    H_(s_(j+1)) = (-1)^(k_j*(k_j+1)/2) * H_(s_j) * (v_0*...*v_j)^(k_j+1),

and a fraction that ends after step j leaves every later H_n at 0.  A
tail T (F itself first) whose first term is v*x^k gives the next tail T'
by v*x^k/T = E - x^(k+2)*T', E = 1 + u(x)*x the first k + 2 terms of
v*x^k/T.

Tails over one discriminant.  The root y of p2*y^2 + p1*y + p0 = 0 has
S = 2*p2*y + p1 with S^2 = D = p1^2 - 4*p2*p0, S(0) = pivot and D(0) =
pivot^2 = 1.  With sqrt(D) the root of D with constant term 1, P =
-pivot*p1, Q = 2*pivot*p2 and R = 2*pivot*p0, y has van der Poorten's
fixed-discriminant form (A. J. van der Poorten, "Elliptic curves and
continued fractions", J. Integer Seq. 8 (2005))

    T = (P + sqrt(D))/Q = R/(P - sqrt(D)),   P^2 - D = Q*R,

the root of Q*T^2 - 2*P*T + R = 0, and every tail keeps the record's D.
A k = 0 step has v = T(0) and v/T = v*(P - sqrt(D))/R = E - x^2*T', so
T' = (P' + sqrt(D))/Q' with

    P' = E*R/v - P,   Q' = x^2*R/v,

and R' = (P'^2 - D)/Q' = (E^2*R/v - 2*E*P + v*Q)/x^2, a polynomial because
E is v/T to its x term.

Runs of k = 0 steps.  Let D = 1 + D1*x + D2*x^2 + D3*x^3 + D4*x^4.  A
tail with P(0) = -1 has v = -R(0)/2.  After a k = 0 step from a tail
with P(0) = -1, deg P <= 2, deg Q <= 3 and deg R <= 1, the next tail has
the same (when R is constant, the x^4 term of P^2 - D = Q*R keeps
deg R' <= 1), with Q = x^2*(-2 + q3*x), P = -1 - (D1/2)*x + p2*x^2 and
R = rho + rho1*x.  The x^2 and x^3 terms of P^2 - D = Q*R give
rho = p2 + c0 and rho1 = (q3*rho + D1*p2 + D3)/2, with c0 = D2/2 - D1^2/8
the x^2 term of sqrt(D).  The tail is two rationals, rho and
w = rho1/rho - D1/4: it has v = -rho/2 and E = 1 + (D1/4 - w)*x, and its
next tail has

    rho' = 2*w^2 + C - rho,   w' = K/rho' - w,

with C = D2 - 3*D1^2/8 and K = (D3 - D1*c0)/2, the x^3 term of sqrt(D).
C and K are read off D alone, so they are fixed for the whole fraction.
The code keeps v = -rho/2, t = w - K/rho and the fixed C/2 and K/2 as int
pairs in lowest terms; a sum of two of them takes the gcd of their
denominators and then of a divisor of it (Knuth).  A step is one product
and three such sums, written out in ints with no helper call: two gcds on
ints the size of v and w, and the others with the fixed denominators or
a divisor of a denominator.

Zero blocks.  At rho = 0, p2 = rho - c0 = -c0 and rho1 = (D1*p2 + D3)/2
= K, so T = K*x/(P - sqrt(D)): a step with k = 1 and v = -K/2, and K = 0
makes T = 0, the end of the fraction.  With r = w + D1/4 of the tail
before (b1/b0 at entry), Q = x^2*(-2 - 2*r*x).  Then v*x/T =
(sqrt(D) - P)/2, whose first three terms are E = 1 + (D1/2)*x + c0*x^2
= -P, so x^3*T' = (2*E + P - sqrt(D))/2 and

    T' = (P + sqrt(D))/(-2*x^3),   R' = K*(1 + r*x),

on the same P.  T' has v = -K/2 again, now at k = 0, and w = r - D1/4,
the w of the tail before the zero block.  For any tail of the map, the
x^2 term of P' = E*R/v - P gives rho' = 2*w^2 - D1^2/8 + c0 - p2: that is
2*w^2 + C - rho where p2 = rho - c0, and 2*w^2 + C after T', where
p2 = -c0.  In the code's terms a zero block yields -K/2 at k = 1 and at
k = 0, keeps t and goes on with v = -(t^2 + C/2), so the map, once
entered, runs to the end of the fraction.  The values h_n have O(n^2)
bits, and so do rho and w at step n.

Entry.  ``_h_fraction`` reads the record once, as ints q2, q1, q0:
``series._checked`` gives each coefficient as an int pair n/d in lowest
terms, and n*(lam//d), with lam the lcm of the d, is its coefficient in
the polynomials times lam, which changes neither the root, D nor any v.
It enters the map in closed form from one of two shapes, each with
deg q2 <= 3 and deg q1 <= 2, so deg D <= 4.

Shape A: val(q2) >= 2, deg q0 <= 1 and y0 != 0 (the family, ad,
companion and curve records), q2 = x^2*(r0 + r1*x), q1 = a0 + a1*x +
a2*x^2 and q0 = b0 + b1*x.  As p2(0) = 0, a0 is the pivot times the lcm
and b0 = -a0*y0 != 0.  The record is T = R/(P - sqrt(D)) with P =
-q1/a0, Q = 2*q2/a0, R = 2*q0/a0 and D = (q1^2 - 4*q2*q0)/a0^2: D1 =
2*a1/a0, c0 = (a0*a2 - 2*r0*b0)/a0^2, C = (4*a0*a2 - 8*r0*b0 -
a1^2)/(2*a0^2) and K = 2*(a1*r0*b0 - a0*r0*b1 - a0*r1*b0)/a0^3.  Its step
yields v = -b0/a0 = y0, and with r = b1/b0 the next tail is rho = 2*r^2 -
D1*r + a2/a0 + c0 and w = D1/4 - r + K/rho, the map's state read off the
ints with no D built.

Shape B: p2(0) != 0 and p0 = c*x with c != 0 (the curvef record).  Then
y0 != 0 is a root of p2(0)*y^2 + p1(0)*y, so p2(0)*y0 = pivot and p1(0) =
-pivot: P(0) = 1 = sqrt(D)(0) and R = 2*pivot*c*x.  Step 0 yields y0, and
its next tail is (P' + sqrt(D))/Q' with Q' = x^2*R/y0 = 2*p2(0)*c*x^3.
P' = E*R/y0 - P has degree at most 2, and the tail is a power series, so
P' + sqrt(D) = O(x^3): P' = -(sqrt(D) mod x^3) = -1 - (D1/2)*x - c0*x^2
for every such record.  So that tail is mu*Z, with mu = -1/(p2(0)*c) and
Z = (P' + sqrt(D))/(-2*x^3) the tail after a zero block on the same D.
The x^3 and x^4 terms of P'^2 - D are -2*K and c0^2 - D4, so Z has R =
K*(1 + r*x) with r = (D4 - c0^2)/(2*K), and yields -K/2 at k = 0: step 1
yields mu*(-K/2) = K/(2*p2(0)*c).  A tail scaled by mu has its v scaled
by mu and the same next tail, so the map goes on as after a zero block,
from w = r - D1/4 with v = -(w^2 + C/2) and t = -w.  With the ints'
D = (d0 + d1*x + ... + d4*x^4)/d0, d0 = q1(0)^2 is the square of the lcm,
so K/(2*p2(0)*c) = K*d0/(2*q2(0)*q0(1)).  K = 0 takes no entry.

Any other record takes no entry: y0 = 0 (a first step with k > 0),
val(p2) = 1, p2(0) != 0 with p0 not c*x, deg D > 4, or shape B with
K = 0.  ``root_transform`` reads its transform by Bareiss off the
expanded root, in O(N^3) where the map takes O(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .series import (Quadratic, Series, _checked, _discriminant, _lowest, _packed,
                     _quadratic_root, rational)


class InsufficientTerms(ValueError):
    """Not enough sequence terms to form the requested determinant."""


@dataclass(frozen=True)
class HankelTransform:
    """h_0 .. h_top, each h_n = nums[n]/dens[n] in lowest terms with
    dens[n] > 0, as both routes compute them; ``values`` makes them
    Fractions on first read."""

    nums: tuple[int, ...]
    dens: tuple[int, ...]
    source_length: int

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.nums, self.dens))


def _leading_minors(rows: list[list[int]]) -> list[int]:
    """Every leading principal minor of a symmetric int matrix (consumed).

    rows[i] holds the upper triangle of row i: its entries from column i
    on.  Bareiss elimination keeps the matrix symmetric, so a step with
    pivot row u updates only that triangle, a_ij -> (a_ij * u_0 - u_i * u_j)
    / prev.  A zero pivot takes one 2x2 block step over that row and the
    first row r whose entry b = u_r is nonzero (module docstring); its
    entries are minors bordered by the eliminated rows, so the division by
    prev**2 is exact.  h_n is 0 until the rows eliminated are rows 0..n,
    and then it is the last pivot minor prev.  A zero pivot whose row has
    no nonzero entry leaves every later h_n at 0.
    """
    n = len(rows)
    minors = [0] * n
    prev, k, reach = 1, 0, 0
    while rows:
        # k rows are eliminated, reach is the highest row a block took, and
        # rows 0..k-1 are the eliminated ones once k > reach; rows[i] is
        # the i-th row left, from its column i on: row k + i unless
        # k + i <= reach
        u = rows[0]
        pivot = u[0]
        if pivot:
            rows = [[(a * pivot - ui * b) // prev for a, b in zip(rows[i], u[i:])]
                    for i, ui in enumerate(u[1:], 1)]
            prev = pivot
            k += 1
        else:
            r = next((j for j, e in enumerate(u) if e), 0)
            if not r:
                break
            # block over rows 0 and r: u and v drop column r, rows drops row r
            v = [rows[j][r - j] for j in range(r)] + rows[r]
            b, c = u[r], v[r]
            u, v = u[:r] + u[r + 1:], v[:r] + v[r + 1:]
            rows = ([row[:r - i] + row[r - i + 1:] for i, row in enumerate(rows[1:r], 1)]
                    + rows[r + 1:])
            nb2, prev2 = -b * b, prev * prev
            step = []
            for i, row in enumerate(rows, 1):
                ui, vi = u[i], v[i]
                x, y = b * ui, b * vi - c * ui
                step.append([(nb2 * a + x * vj + y * uj) // prev2
                             for a, uj, vj in zip(row, u[i:], v[i:])])
            rows = step
            prev = nb2 // prev
            reach = max(reach, k + r)
            k += 2
        if reach < k:
            minors[k - 1] = prev
    return minors


def _hankel_values(nums, den: int, top: int) -> tuple[list[int], list[int]]:
    """h_0 .. h_top of the terms nums[k]/den, k <= 2*top, from one
    elimination over the window's own ints: h_n = minor_n / den**(n+1),
    as int pairs in lowest terms."""
    window, den = _lowest(nums[: 2 * top + 1], den)
    minors = _leading_minors([list(window[2 * i:i + top + 1]) for i in range(top + 1)])
    hn, hd, power = [], [], 1
    for minor in minors:
        power *= den
        n, d = _reduced(minor, power)
        hn.append(n)
        hd.append(d)
    return hn, hd


def hankel_det(seq, n: int) -> Fraction:
    """Determinant of the (n+1)x(n+1) Hankel matrix built from seq[0..2n]:
    the last value of the Hankel transform of those terms."""
    if n < 0:
        raise ValueError(f"h_n needs n >= 0, got {n}")
    terms = list(seq)
    if len(terms) < 2 * n + 1:
        raise InsufficientTerms(f"h_{n} needs {2 * n + 1} terms, got {len(terms)}")
    return hankel_transform(terms[:2 * n + 1]).values[n]


def hankel_transform(seq, order: int | None = None) -> HankelTransform:
    """The Hankel transform of a root or of terms (module docstring).

    ``seq`` is a ``Quadratic``, whose root's transform at ``order`` is read
    off its H-fraction, or by Bareiss off the expanded root when the record
    takes neither entry to the map (``root_transform``), or terms: a
    Series, whose ints are read as they are, or a sequence of rationals,
    which give all h_n they determine, h_0 .. h_((len-1)//2), and take no
    ``order``.
    """
    if isinstance(seq, Quadratic):
        if order is None:
            raise TypeError("the transform of a root needs an order")
        return root_transform(seq, order)
    if order is not None:
        raise TypeError("terms give their own order")
    if isinstance(seq, Series):
        nums, den = seq._nums, seq._den
    else:
        nums, den = _packed([rational(v) for v in seq])
    if not nums:
        raise InsufficientTerms("need at least one term")
    hn, hd = _hankel_values(nums, den, (len(nums) - 1) // 2)
    return HankelTransform(nums=tuple(hn), dens=tuple(hd), source_length=len(nums))


def _h_fraction(eq: Quadratic):
    """The steps (k_j, vn_j, vd_j) of the H-fraction of the root of ``eq``,
    v_j = vn_j/vd_j in lowest terms with vd_j > 0, until a tail is 0, or
    None when the record takes neither entry to the map (module docstring)."""
    polys, y0, _ = _checked(eq)
    lam = math.lcm(*[d for p in polys for _, d in p])
    # the record's ints, padded so that each shape reads fixed places
    q2, q1, q0 = ([n * (lam // d) for n, d in p] + [0] * 4 for p in polys)
    if not y0 or any(q2[4:] + q1[3:] + q0[2:]):
        return None
    if not any(q2[:2]):
        # shape A: q2 = x^2*(r0 + r1*x), q1 = a0 + a1*x + a2*x^2, q0 = b0 + b1*x
        r0, r1 = q2[2:4]
        a0, a1, a2 = q1[:3]
        b0, b1 = q0[:2]
        m = a0 * a0
        cn, cd = _reduced(4 * a0 * a2 - 8 * r0 * b0 - a1 * a1, 4 * m)
        kn, kd = _reduced(a1 * r0 * b0 - a0 * (r0 * b1 + r1 * b0), m * a0)
        vn, vd = _reduced(a0 * b1 * (a1 * b0 - a0 * b1) - (a0 * a2 - r0 * b0) * b0 * b0,
                          m * b0 * b0)
        tn, td = _reduced(a1 * b0 - 2 * a0 * b1, 2 * a0 * b0)
        return _map([(0, y0, 1)], cn, cd, kn, kd, vn, vd, tn, td)
    # val(p2) = 1 ends here too: y0 != 0 and p2(0) = 0 make p0(0) != 0
    if q0[0] or not q0[1]:
        return None
    # shape B: q0 = c*x and D = (d0 + d1*x + ... + d4*x^4)/d0, with
    # K = kk/(16*d0^3) and c0 = e/(8*d0^2)
    d0, d1, d2, d3, d4 = _discriminant(q2[:4], q1[:3], q0[:2])
    kk = 8 * d0 * d0 * d3 - 4 * d0 * d1 * d2 + d1 ** 3
    if not kk:
        return None
    e = 4 * d0 * d2 - d1 * d1
    cn, cd = _reduced(8 * d0 * d2 - 3 * d1 * d1, 16 * d0 * d0)
    kn, kd = _reduced(kk, 32 * d0 ** 3)
    wn, wd = _reduced(64 * d0 ** 3 * d4 - e * e - 2 * d1 * kk, 8 * d0 * kk)
    vn, vd = _plus(-wn * wn, wd * wd, -cn, cd)
    return _map([(0, y0, 1), (0, *_reduced(kk, 32 * d0 * d0 * q2[0] * q0[1]))],
                cn, cd, kn, kd, vn, vd, -wn, wd)


def _map(lead, cn: int, cd: int, kn: int, kd: int, vn: int, vd: int, tn: int, td: int):
    """The lead steps, then the map's steps from the tail with v = vn/vd
    and t = tn/td over the fixed C/2 = cn/cd and K/2 = kn/kd, all int
    pairs in lowest terms, to the end of the fraction (module docstring).
    A k = 0 step is one product and three sums of such pairs, written out
    in ints: a product of a/b and c/d takes gcd(a, d) and gcd(c, b) out,
    and a sum is ``_plus``'s."""
    gcd = math.gcd
    yield from lead
    while True:
        while vn:
            yield 0, vn, vd
            # w = t + K/rho = t - (K/2)/v
            g1, g2 = gcd(kn, vn), gcd(vd, kd)
            qn, qd = (kn // g1) * (vd // g2), (kd // g2) * (vn // g1)
            if qd < 0:
                qn, qd = -qn, -qd
            g = gcd(td, qd)
            e = td // g
            n = tn * (qd // g) - qn * e
            g2 = gcd(n, g)
            wn, wd = n // g2, e * (qd // g2)
            # rho' = 2*w^2 + C - rho, so v' = -(w^2 + C/2 + v); w^2 is in
            # lowest terms as w is
            sd = wd * wd
            g = gcd(sd, cd)
            e = sd // g
            n = wn * wn * (cd // g) + cn * e
            g2 = gcd(n, g)
            sn, sd = n // g2, e * (cd // g2)
            g = gcd(sd, vd)
            e = sd // g
            n = -sn * (vd // g) - vn * e
            g2 = gcd(n, g)
            vn, vd = n // g2, e * (vd // g2)
            tn, td = -wn, wd
        # a zero block: the tail at rho = 0 and the one after it both start
        # with -K/2, and the next has v = -(t^2 + C/2) with the same t
        if not kn:
            return
        yield 1, -kn, kd
        yield 0, -kn, kd
        vn, vd = _plus(-tn * tn, td * td, -cn, cd)


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms with a positive denominator."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _plus(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad + bn/bd in lowest terms, both terms in lowest terms with
    positive denominators: the content of the sum divides gcd(ad, bd)."""
    g = math.gcd(ad, bd)
    s = ad // g
    n = an * (bd // g) + bn * s
    g2 = math.gcd(n, g)
    return n // g2, s * (bd // g2)


def root_transform(eq: Quadratic, order: int) -> HankelTransform:
    """The Hankel transform of the root of ``eq`` at ``order``, equal to
    ``hankel_transform`` of the root's first ``order`` terms.  A record of
    either entry shape (module docstring) reads it off its H-fraction:
    O(order) steps of the fixed-discriminant map on int pairs, with no
    Series and no Fraction built.  Any other record expands its root and
    takes Bareiss, O(order^3)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    top = (order - 1) // 2
    steps = _h_fraction(eq)
    if steps is None:
        root = _quadratic_root(eq, order)
        hn, hd = _hankel_values(root._nums, root._den, top)
        return HankelTransform(nums=tuple(hn), dens=tuple(hd), source_length=order)
    nums, dens = [0] * (top + 1), [1] * (top + 1)
    # H_(s_(j+1)) = (-1)^(k_j(k_j+1)/2) * H_(s_j) * (v_0...v_j)^(k_j+1) with
    # s_(j+1) = s_j + k_j + 1, and h_n = H_(n+1); H over hd and the running
    # product over pd, both in lowest terms: each product of a/b and c/d
    # takes gcd(a, d) and gcd(c, b) out, and a k = 0 step takes no power
    gcd = math.gcd
    s, h, hd, p, pd = 0, 1, 1, 1, 1
    for k, vn, vd in steps:
        g1, g2 = gcd(p, vd), gcd(vn, pd)
        p, pd = (p // g1) * (vn // g2), (pd // g2) * (vd // g1)
        if k:  # k = 1, a zero block's first step (``_map``)
            an, ad = -p * p, pd * pd
        else:
            an, ad = p, pd
        g1, g2 = gcd(h, ad), gcd(an, hd)
        h, hd = (h // g1) * (an // g2), (hd // g2) * (ad // g1)
        s += k + 1
        if s > top + 1:
            break
        nums[s - 1], dens[s - 1] = h, hd
        if s == top + 1:
            break
    return HankelTransform(nums=tuple(nums), dens=tuple(dens), source_length=order)
