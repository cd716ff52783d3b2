"""Second routes to Hankel determinants, used only as test oracles.

``per_n_det`` is the former library route: each h_n from its own
fraction-free (Bareiss) elimination with row pivoting.  ``gauss_det`` is
plain Gaussian elimination over ``Fraction``.  ``division_values`` gives
the Hankel transform of a curve's f by another road: the division values
of its elliptic curve.
"""

import math
from fractions import Fraction


def hankel_matrix(seq, n):
    return [[seq[i + j] for j in range(n + 1)] for i in range(n + 1)]


def bareiss_det(m):
    """Determinant of a square int matrix (consumed), row pivoting."""
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


def per_n_det(seq, n):
    window = [Fraction(v) for v in seq[: 2 * n + 1]]
    scale = math.lcm(*[t.denominator for t in window])
    ints = [int(t * scale) for t in window]
    return Fraction(bareiss_det(hankel_matrix(ints, n)), scale ** (n + 1))


def gauss_det(matrix):
    """Determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        r = next((i for i in range(k, n) if m[i][k]), None)
        if r is None:
            return Fraction(0)
        if r != k:
            m[k], m[r] = m[r], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]
    return det


def division_values(a, count):
    """psi_0 .. psi_(count-1) of P = (0, 0) on y^2 - a*x*y - y = x^3 - x.

    psi_1 = 1, psi_2 = -1, psi_3 = a - 1 and psi_4 = psi_2*((a - 2)(a - 1) - 1),
    then Ward's recurrence psi_(m+2)*psi_(m-2) =
    psi_(m+1)*psi_(m-1)*psi_2^2 - psi_3*psi_1*psi_m^2 (M. Ward, "Memoir on
    elliptic divisibility sequences", Amer. J. Math. 70 (1948)), which
    divides by psi_(m-2): no psi_n in range may be 0.
    """
    a = Fraction(a)
    psi = [Fraction(0), Fraction(1), Fraction(-1), a - 1, -((a - 2) * (a - 1) - 1)]
    for m in range(3, count - 2):
        psi.append((psi[m + 1] * psi[m - 1] * psi[2] ** 2 - psi[3] * psi[1] * psi[m] ** 2)
                   / psi[m - 2])
    return psi[:count]
