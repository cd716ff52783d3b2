"""Exact Hankel-determinant transforms of rational sequences.

Each transform value h_n is the determinant of the (n+1)x(n+1) matrix
with entry (i,j) = s[i+j].  These matrices are nested, so one
fraction-free (Bareiss) elimination of the largest yields every h_n as a
leading principal minor.

Zero pivots are common (h_1 = 0 throughout the family).  At a zero pivot
in step k the first row r > k with a nonzero entry in column k is swapped
in.  While that swap is open (k <= n < r), h_n = 0: over the nonsingular
leading block, the eliminated rows k..n have a zero first column.  Once n
is at least every r swapped in so far, the first n+1 rows are rows 0..n
again, so h_n is the pivot of step n times the sign of the swaps.  If
column k has no such row, every h_n with n >= k is 0.

Bareiss runs over integers: s'_k = s_k * lam**k * scale.  The matrix of
the s_k * lam**k is D H D with D = diag(lam**i), so
det H'_n = scale**(n+1) * lam**(n(n+1)) * det H_n, exact for any lam.
Integer input takes lam = scale = 1.  Otherwise lam grows term by term:
for k >= 1 it is multiplied by den(s_k) / gcd(den(s_k), lam**k), so every
s_k * lam**k with k >= 1 is an integer and scale is left to clear s_0's
denominator.  The denominators of a p/q family member grow geometrically,
and lam stays small: 6 for (1/2, -2/3, 5/3), 42 for (-11/2, 1/3, 2/7).
lam pays only if the bits it takes off scale outweigh what
lam**(n(n+1)) adds to the minors: Bareiss work is weighted toward step
k ~ 0.4 * top, where the saving is about (k+1) * (bits(lcm) - bits(scale)
- k * bits(lam)).  So lam is kept when
5 * (bits(lcm) - bits(scale)) > 2 * top * bits(lam), and otherwise
lam = 1 and scale is the lcm of every denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import rational


class InsufficientTerms(ValueError):
    """Not enough sequence terms to form the requested determinant."""


@dataclass(frozen=True)
class HankelTransform:
    values: tuple[Fraction, ...]
    source_length: int


def _leading_minors(rows: list[list[int]]) -> list[int]:
    """Every leading principal minor of a square int matrix (consumed).

    Bareiss elimination with row swaps at zero pivots: after step k every
    working entry is a (k+2)x(k+2) minor over the pivot rows, so the
    division by the previous pivot is exact.
    """
    n = len(rows)
    minors = [0] * n
    sign, prev, reach = 1, 1, 0
    for k in range(n):
        # rows[i] is row k+i of the working matrix, restricted to columns k..
        if rows[0][0] == 0:
            r = next((i for i, row in enumerate(rows) if row[0]), None)
            if r is None:
                break
            rows[0], rows[r] = rows[r], rows[0]
            sign = -sign
            reach = max(reach, k + r)
        pivot = rows[0][0]
        if k >= reach:
            minors[k] = sign * pivot
        tail = rows[0][1:]
        step = []
        for row in rows[1:]:
            head = row[0]
            step.append([(a * pivot - head * b) // prev for a, b in zip(row[1:], tail)])
        rows = step
        prev = pivot
    return minors


def _rescaling(window: list[Fraction], top: int) -> tuple[int, int]:
    """(lam, scale) with every window[k] * lam**k * scale an int.

    The choice of lam and its cost rule are in the module docstring.
    """
    lcm = math.lcm(*[t.denominator for t in window])
    if lcm == 1:
        return 1, 1
    lam = 1
    for k, t in enumerate(window[1:], 1):
        d = t.denominator
        lam *= d // math.gcd(d, pow(lam, k, d))
    left = window[0].denominator
    if 5 * (lcm.bit_length() - left.bit_length()) > 2 * top * lam.bit_length():
        return lam, left
    return 1, lcm


def _hankel_values(terms: list[Fraction], top: int) -> list[Fraction]:
    """h_0 .. h_top of terms[0..2*top], from one elimination."""
    window = terms[: 2 * top + 1]
    # Bareiss runs over the ints s_k * lam**k * scale; rescale after by
    # det H'_n = scale**(n+1) * lam**(n(n+1)) * det H_n.
    lam, scale = _rescaling(window, top)
    ints = []
    factor = scale
    for t in window:
        ints.append(t.numerator * (factor // t.denominator))
        factor *= lam
    minors = _leading_minors([ints[i:i + top + 1] for i in range(top + 1)])
    values = []
    power, step, lam2 = 1, scale, lam * lam
    for minor in minors:
        power *= step
        values.append(Fraction(minor, power))
        step *= lam2
    return values


def hankel_det(seq, n: int) -> Fraction:
    """Determinant of the (n+1)x(n+1) Hankel matrix built from seq[0..2n]."""
    if n < 0:
        raise ValueError(f"h_n needs n >= 0, got {n}")
    terms = [rational(v) for v in seq]
    if len(terms) < 2 * n + 1:
        raise InsufficientTerms(
            f"h_{n} needs {2 * n + 1} terms, got {len(terms)}")
    return _hankel_values(terms, n)[n]


def hankel_transform(seq) -> HankelTransform:
    """All h_n determinable from the given terms: h_0 .. h_((len-1)//2)."""
    terms = [rational(v) for v in seq]
    if not terms:
        raise InsufficientTerms("need at least one term")
    top = (len(terms) - 1) // 2
    return HankelTransform(values=tuple(_hankel_values(terms, top)),
                           source_length=len(terms))
