"""
Integer exponent matrices and the monomial calculus.

A monomial map sends a tuple of units x to x * A, with (x * A)_j =
prod_i x_i^A[i][j]; the characters go the other way through the transpose,
chi * A^T.  The integer matrices here (products, exact inverses,
permutation matrices) build the exponent matrices Q of the variety
isomorphisms, and fmat_inv inverts matrices over a finite field.
"""

from __future__ import annotations

from fractions import Fraction

from .chars import trivial_char
from .ffield import Field


# -- integer matrices -------------------------------------------------------


def imat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def imat_zero(rows, cols):
    return [[0] * cols for _ in range(rows)]


def imat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def imat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for t in range(inner):
            a = A[i][t]
            if a:
                for j in range(cols):
                    out[i][j] += a * B[t][j]
    return out


def imat_transpose(A):
    return [list(col) for col in zip(*A)]


def imat_inverse(A):
    """Exact inverse of an integer matrix with unit determinant."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    out = [[x for x in row[n:]] for row in M]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("inverse is not integral")
    return [[int(x) for x in row] for row in out]


def perm_matrix(sigma):
    """P with P[i][j] = 1 iff i = sigma(j); right multiplication permutes columns."""
    n = len(sigma)
    P = imat_zero(n, n)
    for j, i in enumerate(sigma):
        P[i][j] = 1
    return P


def compose_perms(s1, s2):
    """(s1 s2)(j) = s1(s2(j)); matches P_{s1} P_{s2} = P_{s1 s2}."""
    return tuple(s1[j] for j in s2)


def invert_perm(sigma):
    inv = [0] * len(sigma)
    for j, i in enumerate(sigma):
        inv[i] = j
    return tuple(inv)


def _gauge_last_matrix(n):
    """Identity with the last column zeroed and -1s along the last row."""
    M = imat_identity(n)
    M[n - 1][n - 1] = 0
    for j in range(n - 1):
        M[n - 1][j] = -1
    return M


# -- field matrices ---------------------------------------------------------


def fmat_inv(fb: Field, A):
    """Exact inverse of a square matrix over the field; raises on singular."""
    n = len(A)
    M = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        M[col], M[pivot] = M[pivot], M[col]
        inv = fb.inv(M[col][col])
        M[col] = [fb.mul(inv, x) for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [fb.sub(x, fb.mul(f, y)) for x, y in zip(M[r], M[col])]
    return [row[n:] for row in M]


# -- the monomial calculus --------------------------------------------------


def monomial_map(fb: Field, xs, A):
    """(x * A)_j = prod_i x_i^A[i][j]; negative exponents require units."""
    if len(xs) != len(A):
        raise ValueError("arity mismatch between point and exponent matrix")
    cols = len(A[0]) if A else 0
    out = []
    for j in range(cols):
        v = 1
        for x, row in zip(xs, A):
            if row[j]:
                v = fb.mul(v, fb.pow(x, row[j]))
        out.append(v)
    return tuple(out)


def char_star(chars, A):
    """(chi * A)_j = prod_i chi_i^A[i][j]; the character-side monomial action."""
    if len(chars) != len(A):
        raise ValueError("arity mismatch between characters and exponent matrix")
    f = chars[0].field
    cols = len(A[0]) if A else 0
    out = []
    for j in range(cols):
        c = trivial_char(f)
        for chi, row in zip(chars, A):
            if row[j]:
                c = c * chi ** row[j]
        out.append(c)
    return tuple(out)
