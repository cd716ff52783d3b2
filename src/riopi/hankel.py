"""Exact Hankel-determinant transforms of rational sequences.

Each transform value h_n is the determinant of the (n+1)x(n+1) matrix
with entry (i,j) = s[i+j].  These matrices are nested, so one
fraction-free (Bareiss) elimination of the largest yields every h_n as a
leading principal minor.

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
plain sequence packed to them, nums_k / den with term k in lowest terms
over den_k = den // gcd(nums_k, den).  Bareiss runs over integers:
s'_k = s_k * lam**k * scale = nums_k * lam**k * scale // den.  The
matrix of the s_k * lam**k is D H D with D = diag(lam**i), so
det H'_n = scale**(n+1) * lam**(n(n+1)) * det H_n, exact for any lam.
Integer input takes lam = scale = 1.  Otherwise lam grows term by term:
for k >= 1 it is multiplied by den_k / gcd(den_k, lam**k), so every
s_k * lam**k with k >= 1 is an integer and scale is left to clear den_0.
The denominators of a p/q family member grow geometrically, and lam
stays small: 6 for (1/2, -2/3, 5/3), 42 for (-11/2, 1/3, 2/7).
lam pays only if the bits it takes off scale outweigh what
lam**(n(n+1)) adds to the minors: Bareiss work is weighted toward step
k ~ 0.4 * top, where the saving is about (k+1) * (bits(lcm) - bits(scale)
- k * bits(lam)).  So lam is kept when
5 * (bits(lcm) - bits(scale)) > 2 * top * bits(lam), and otherwise
lam = 1 and scale is the lcm of every den_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import Series, _packed, rational


class InsufficientTerms(ValueError):
    """Not enough sequence terms to form the requested determinant."""


@dataclass(frozen=True)
class HankelTransform:
    values: tuple[Fraction, ...]
    source_length: int


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


def _rescaling(dens: list[int], top: int) -> tuple[int, int]:
    """(lam, scale) such that term k, whose denominator is dens[k], times
    lam**k * scale is an int.

    The choice of lam and its cost rule are in the module docstring.
    """
    lcm = math.lcm(*dens)
    if lcm == 1:
        return 1, 1
    lam = 1
    for k, d in enumerate(dens[1:], 1):
        lam *= d // math.gcd(d, pow(lam, k, d))
    left = dens[0]
    if 5 * (lcm.bit_length() - left.bit_length()) > 2 * top * lam.bit_length():
        return lam, left
    return 1, lcm


def _hankel_values(nums, den: int, top: int) -> list[Fraction]:
    """h_0 .. h_top of the terms nums[k]/den, k <= 2*top, from one elimination."""
    window = nums[: 2 * top + 1]
    # Bareiss runs over the ints s_k * lam**k * scale; rescale after by
    # det H'_n = scale**(n+1) * lam**(n(n+1)) * det H_n.
    lam, scale = _rescaling([den // math.gcd(c, den) for c in window], top)
    ints = []
    factor = scale
    for c in window:
        ints.append(c * factor // den)
        factor *= lam
    minors = _leading_minors([ints[2 * i:i + top + 1] for i in range(top + 1)])
    values = []
    power, step, lam2 = 1, scale, lam * lam
    for minor in minors:
        power *= step
        values.append(Fraction(minor, power))
        step *= lam2
    return values


def hankel_det(seq, n: int) -> Fraction:
    """Determinant of the (n+1)x(n+1) Hankel matrix built from seq[0..2n]:
    the last value of the Hankel transform of those terms."""
    if n < 0:
        raise ValueError(f"h_n needs n >= 0, got {n}")
    terms = list(seq)
    if len(terms) < 2 * n + 1:
        raise InsufficientTerms(f"h_{n} needs {2 * n + 1} terms, got {len(terms)}")
    return hankel_transform(terms[:2 * n + 1]).values[n]


def hankel_transform(seq) -> HankelTransform:
    """All h_n determinable from the given terms: h_0 .. h_((len-1)//2).

    ``seq`` is a Series, whose ints are read as they are, or a sequence
    of rationals.
    """
    if isinstance(seq, Series):
        nums, den = seq._nums, seq._den
    else:
        nums, den = _packed([rational(v) for v in seq])
    if not nums:
        raise InsufficientTerms("need at least one term")
    top = (len(nums) - 1) // 2
    return HankelTransform(values=tuple(_hankel_values(nums, den, top)),
                           source_length=len(nums))
