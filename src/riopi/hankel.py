"""Exact Hankel-determinant transforms of rational sequences.

Each transform value h_n is the determinant of the (n+1)x(n+1) matrix
with entry (i,j) = s[i+j].  Determinants are computed independently by
fraction-free (Bareiss) elimination: every value is its own check, and
interior zeros (h_1 = 0 is common here) cannot poison neighbours the way
they would in a condensation scheme.
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


def _bareiss(m: list[list[int]]) -> int:
    """Integer-preserving elimination with row pivoting.

    After step k every entry is a (k+1)x(k+1) minor of the input (up to
    the row-swap sign), so the division by the previous pivot is exact.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def hankel_det(seq, n: int) -> Fraction:
    """Determinant of the (n+1)x(n+1) Hankel matrix built from seq[0..2n]."""
    terms = [rational(v) for v in seq]
    if len(terms) < 2 * n + 1:
        raise InsufficientTerms(
            f"h_{n} needs {2 * n + 1} terms, got {len(terms)}")
    window = terms[: 2 * n + 1]
    # Clear denominators so Bareiss runs over plain ints; rescale after.
    scale = math.lcm(*[t.denominator for t in window])
    ints = [int(t * scale) for t in window]
    matrix = [[ints[i + j] for j in range(n + 1)] for i in range(n + 1)]
    det = _bareiss(matrix)
    return Fraction(det, scale ** (n + 1))


def hankel_transform(seq) -> HankelTransform:
    """All h_n determinable from the given terms: h_0 .. h_((len-1)//2)."""
    terms = [rational(v) for v in seq]
    if not terms:
        raise InsufficientTerms("need at least one term")
    top = (len(terms) - 1) // 2
    values = tuple([hankel_det(terms, n) for n in range(top + 1)])
    return HankelTransform(values=values, source_length=len(terms))
