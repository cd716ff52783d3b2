"""Exact Hankel-determinant transforms of rational sequences.

Each transform value h_n is the determinant of the (n+1)x(n+1) matrix
with entry (i,j) = s[i+j].  ``hankel_transform`` takes two kinds of
input, and each kind has one route:

- A ``series.Quadratic``, the equation of an algebraic root, with an
  order: the transform is read off the root's H-fraction (below) in O(N)
  steps on rationals and integer quadratics, never expanding the root
  (``root_transform``).  Every caller that knows the equation of its root
  passes it: ``somos.conjecture_family``, ``elliptic.curve_somos_check``,
  the CLI's ``hankel`` and ``somos`` subjects and the Hankel rows of
  ``knowndata``.
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

and a fraction that ends after step j leaves every later H_n at 0.

Tail step.  Let the tail T (F itself first) have first term v*x^k.  Then
v*x^k/T = E - x^(k+2)*T', E = 1 + u(x)*x its first k + 2 terms and T' the
next tail.  If q2*T^2 + q1*T + q0 = 0, then W = v*x^k/T solves
q0*W^2 + v*q1*x^k*W + v^2*q2*x^(2k) = 0, and putting W = E - x^(k+2)*T'
in it gives T' as a root of

    Q2 = q0*x^(k+2),  Q1 = -(2*q0*E + v*q1*x^k),
    Q0 = (q0*E^2 + v*q1*x^k*E + v^2*q2*x^(2k)) / x^(k+2)

(the same step as Sulanke and Xin's quadratic transformation, Adv. Appl.
Math. 40 (2008)).  Each tail is kept as int lists: the step is scaled to
clear denominators, x^k is removed from all three (below), and one gcd
divides out their content.

No double root.  With c = q1(0) != 0 and val(q2) >= 1, the root T has
val(T) = val(q0) = k and v = -q0_k/c.  Then [x^k]Q1 = -(2*q0_k + c*v) =
-q0_k != 0 and Q1's lower terms vanish, so val(Q1) = k.  The numerator of
Q0 is (E - W)*(q0*(E + W) + v*q1*x^k), of valuation at least 2k + 2, so
x^k divides Q0 too, and Q2 has valuation 2k + 2.  With x^k removed,
Q1(0) != 0 and val(Q2) = k + 2 >= 2: the next tail is again the only
power-series root of its quadratic, and its terms divide only by Q1(0).
The record's own root starts it: its pivot 2*p2(0)*y0 + p1(0) is +-1,
[x^0]Q1 = y0 * pivot when y0 != 0, and when y0 = 0, p1(0) is the pivot
and the argument above holds.  Q0 = 0 means T' = 0, the end of the
fraction: on the family, ab + c = 0.

Leading terms.  As val(q2) >= 2, q2*T^2 = O(x^(2k+2)), so
T = -q0/q1 mod x^(2k+2) and E is one short int division.  Only the
record's own root, whose p2 may have valuation below 2, reads its leading
terms off ``series._quadratic_root``.

Runs of k = 0 steps.  The family's quadratics, and every tail after
them, have the shape q2 = x^2*(r0 + r1*x), q1 = a0 + a1*x + a2*x^2 and
q0 = b0 + b1*x.  The tail step multiplies the discriminant q1^2 - 4*q2*q0
by v^2*x^(2k), and removing x^k divides it by x^(2k), so every tail's
discriminant is the record's D = p1^2 - 4*p2*p0 times a constant square,
and D(0) = pivot^2 = 1.  With D = 1 + D1*x + D2*x^2 + D3*x^3 + ..., a tail
has van der Poorten's fixed-discriminant form (A. J. van der Poorten,
"Elliptic curves and continued fractions", J. Integer Seq. 8 (2005))

    T = (P + sqrt(D))/Q = R/(P - sqrt(D)),   P^2 - D = Q*R,   P(0) = -1,

the root of Q*T^2 - 2*P*T + R = 0.  A k = 0 step has v = T(0) = -R(0)/2
and v/T = v*(P - sqrt(D))/R = E - x^2*T', so T' = (P' + sqrt(D))/Q' with

    P' = E*R/v - P,   Q' = x^2*R/v,

and R' = (P'^2 - D)/Q' = (E^2*R/v - 2*E*P + v*Q)/x^2, a polynomial because
E is v/T to its x term.  So after a k = 0 step from a closed-shape tail,
Q = x^2*(-2 + q3*x), P = -1 - (D1/2)*x + p2*x^2 and R = rho + rho1*x, and
the x^2 and x^3 terms of P^2 - D = Q*R give rho = p2 + c0 and
rho1 = (q3*rho + D1*p2 + D3)/2, with c0 = D2/2 - D1^2/8 the x^2 term of
sqrt(D).  The tail is two rationals, rho and w = rho1/rho - D1/4: it has
v = -rho/2 and E = 1 + (D1/4 - w)*x, and its next tail has

    rho' = 2*w^2 + C - rho,   w' = K/rho' - w,

with C = D2 - 3*D1^2/8 and K = (D3 - D1*c0)/2.  C and K are read off D
alone, so they are fixed for the whole fraction, where the tails' ints
carry a content that grows every step.  The code keeps v = -rho/2,
t = w - K/rho and the fixed C/2 and K/2 as int pairs in lowest terms; a
sum of two of them takes the gcd of their denominators and then of a
divisor of it (Knuth), so a step takes two gcds on ints the size of v and
w and a few with the fixed denominators.

The map is entered from a closed-shape int tail, as T = R/(P - sqrt(D))
with P = -q1/a0, Q = 2*q2/a0, R = 2*q0/a0 and D = (q1^2 - 4*q2*q0)/a0^2:
D1 = 2*a1/a0, c0 = (a0*a2 - 2*r0*b0)/a0^2,
C = (4*a0*a2 - 8*r0*b0 - a1^2)/(2*a0^2) and
K = 2*(a1*r0*b0 - a0*r0*b1 - a0*r1*b0)/a0^3.  Its step yields v = -b0/a0,
and with r = b1/b0 the next tail is rho = 2*r^2 - D1*r + a2/a0 + c0 and
w = D1/4 - r + K/rho.

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
entered, runs to the end of the fraction.  A record whose D has a higher
degree never reaches the closed shape and takes the general step
throughout.  The values h_n have O(n^2) bits, and so do rho and w at
step n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .series import Quadratic, Series, _checked, _lowest, _packed, _quadratic_root, rational


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
    off its H-fraction (``root_transform``), or terms: a Series, whose ints
    are read as they are, or a sequence of rationals, which give all h_n
    they determine, h_0 .. h_((len-1)//2), and take no ``order``.
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


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def _primitive(*polys: list) -> tuple[list[int], ...]:
    """Int polynomials divided by their common content, trailing zeros cut."""
    g = math.gcd(*[c for p in polys for c in p])
    out = []
    for p in polys:
        p = [c // g for c in p]
        while p and not p[-1]:
            p.pop()
        out.append(p)
    return tuple(out)


def _add_scaled(acc: list, scale: int, p: list, shift: int) -> None:
    """acc += scale * x^shift * p, growing acc as needed."""
    acc.extend([0] * (len(p) + shift - len(acc)))
    for j, t in enumerate(p, shift):
        acc[j] += scale * t


def _valuation(p: list) -> int | None:
    return next((i for i, c in enumerate(p) if c), None)


def _tail_step(q2: list, q1: list, q0: list, k: int, u: list, vn: int, vd: int):
    """The quadratic of the tail after T, the root of q2*T^2 + q1*T + q0 = 0
    whose first nonzero term is v*x^k, v = vn/vd, and whose terms
    T_k .. T_(2k+1) are proportional to the ints u (module docstring):
    primitive int lists with x^k removed."""
    # E = u_0/u mod x^(k+2), with E_n = eps_n / u_0^n, over delta = u_0^(k+1)
    u0 = u[0]
    eps = [1]
    for n in range(1, k + 2):
        eps.append(-sum(u[i] * u0 ** (i - 1) * eps[n - i] for i in range(1, n + 1)))
    delta = u0 ** (k + 1)
    e = [t * u0 ** (k + 1 - n) for n, t in enumerate(eps)]
    # Q2, Q1 and Q0 times (vd*delta)^2
    q0e = _poly_mul(q0, e)
    big_q1, big_q0 = [], []
    _add_scaled(big_q1, -2 * vd * vd * delta, q0e, 0)
    _add_scaled(big_q1, -vn * vd * delta * delta, q1, k)
    _add_scaled(big_q0, vd * vd, _poly_mul(q0e, e), 0)
    _add_scaled(big_q0, vn * vd * delta, _poly_mul(q1, e), k)
    _add_scaled(big_q0, vn * vn * delta * delta, q2, 2 * k)
    vv = vd * delta
    return _primitive([0, 0] + [vv * vv * t for t in q0], big_q1[k:], big_q0[2 * k + 2:])


def _h_fraction(eq: Quadratic):
    """(k_j, vn_j, vd_j) for each step of the H-fraction of the root of
    ``eq``, v_j = vn_j/vd_j in lowest terms with vd_j > 0, until a tail is
    0 (module docstring)."""
    polys, y0, _ = _checked(eq)
    lam = math.lcm(*[c.denominator for p in polys for c in p])
    q2, q1, q0 = _primitive(*[[(c * lam).numerator for c in p] for p in polys])
    k = 0 if y0 else _valuation(q0)
    if k is None:
        return
    if any(q2[:2]):
        # q2*T^2 reaches T's terms k .. 2k+1: read them off the series
        lead = _quadratic_root(eq, 2 * k + 2)
        u = lead._nums[k:]
        yield k, *_reduced(u[0], lead._den)
        q2, q1, q0 = _tail_step(q2, q1, q0, k, u, u[0], lead._den)
        k = _valuation(q0)
        if k is None:
            return
    while k or len(q2) > 4 or len(q1) > 3 or len(q0) > 2:
        # T = -q0/q1 mod x^(2k+2), so sigma_n = [x^n]((q0/x^k)/q1) * c^(n+1)
        # over ints, and u_n = -T_(k+n) * c^(k+2)
        c = q1[0]
        yield k, *_reduced(-q0[k], c)
        sigma = []
        for n in range(k + 2):
            t = q0[k + n] * c ** n if k + n < len(q0) else 0
            t -= sum(q1[j] * sigma[n - j] * c ** (j - 1)
                     for j in range(1, min(n, len(q1) - 1) + 1))
            sigma.append(t)
        u = [t * c ** (k + 1 - n) for n, t in enumerate(sigma)]
        q2, q1, q0 = _tail_step(q2, q1, q0, k, u, -q0[k], c)
        k = _valuation(q0)
        if k is None:
            return
    # the rest of the fraction on the map over D, entered at the ints of
    # q2 = x^2*(r0 + r1*x), q1 = a0 + a1*x + a2*x^2, q0 = b0 + b1*x;
    # v = -rho/2, t = w - K/rho (D1/4 - b1/b0 at entry), C/2 and K/2 are int
    # pairs in lowest terms
    r0, r1 = (q2 + [0, 0, 0, 0])[2:4]
    a0, a1, a2 = q1 + [0] * (3 - len(q1))
    b0, b1 = q0 + [0] * (2 - len(q0))
    yield 0, *_reduced(-b0, a0)
    m = a0 * a0
    cn, cd = _reduced(4 * a0 * a2 - 8 * r0 * b0 - a1 * a1, 4 * m)
    kn, kd = _reduced(a1 * r0 * b0 - a0 * (r0 * b1 + r1 * b0), m * a0)
    vn, vd = _reduced(a0 * b1 * (a1 * b0 - a0 * b1) - (a0 * a2 - r0 * b0) * b0 * b0,
                      m * b0 * b0)
    tn, td = _reduced(a1 * b0 - 2 * a0 * b1, 2 * a0 * b0)
    while True:
        while vn:
            yield 0, vn, vd
            # w = t + K/rho; rho' = 2*w^2 + C - rho, so v' = -(w^2 + C/2 + v)
            qn, qd = _times(kn, kd, vd, vn)
            if qd < 0:
                qn, qd = -qn, -qd
            wn, wd = _plus(tn, td, -qn, qd)
            sn, sd = _plus(wn * wn, wd * wd, cn, cd)
            vn, vd = _plus(-sn, sd, -vn, vd)
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


def _times(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad) * (bn/bd) in lowest terms, both factors in lowest terms."""
    g1, g2 = math.gcd(an, bd), math.gcd(bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


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
    ``hankel_transform`` of the root's first ``order`` terms, read off its
    H-fraction (module docstring): O(order) steps on the integer quadratics
    of its tails, with no Series and no Fraction built."""
    if order < 1:
        raise ValueError("order must be at least 1")
    top = (order - 1) // 2
    nums, dens = [0] * (top + 1), [1] * (top + 1)
    # H_(s_(j+1)) = (-1)^(k_j(k_j+1)/2) * H_(s_j) * (v_0...v_j)^(k_j+1) with
    # s_(j+1) = s_j + k_j + 1, and h_n = H_(n+1); H over hd and the running
    # product over pd, both in lowest terms
    s, h, hd, p, pd = 0, 1, 1, 1, 1
    for k, vn, vd in _h_fraction(eq):
        p, pd = _times(p, pd, vn, vd)
        h, hd = _times(h, hd, p ** (k + 1), pd ** (k + 1))
        if (k * (k + 1) // 2) & 1:
            h = -h
        s += k + 1
        if s > top + 1:
            break
        nums[s - 1], dens[s - 1] = h, hd
        if s == top + 1:
            break
    return HankelTransform(nums=tuple(nums), dens=tuple(dens), source_length=order)
