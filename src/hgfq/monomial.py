"""
Integer exponent matrices and the monomial calculus.

A monomial map sends a tuple of units x to x * A, with (x * A)_j =
prod_i x_i^A[i][j]; the characters go the other way through the transpose,
chi * A^T.  The integer matrices here (products, exact inverses,
permutation matrices) build the exponent matrices Q of the variety
isomorphisms, and fmat_inv inverts matrices over a finite field.  The
lattice helpers tell whether such a map sends the N-th roots and
Artin-Schreier preimages of one point onto those of another, and how it
moves the tau-components of the points between them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def imat_det(A) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss
    elimination); 1 for the empty matrix."""
    n = len(A)
    M = [list(row) for row in A]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            pivot = next((r for r in range(k + 1, n) if M[r][k]), None)
            if pivot is None:
                return 0
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


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


# -- lattices of roots -------------------------------------------------------
# Over ext = F_(q^r) the N-th roots of one unit X are L_0 + (M/N) k in log
# coordinates, M = q^r - 1 and k in (Z/N)^n for n unit slots, and the
# Artin-Schreier preimages of one value are t_0 + e with e in F_q^m.  A map
# x -> (x . Q) * c moves k to k . Q mod N and u -> u . A + r moves e to e . A,
# so these decide whether it sends such a set onto one such set.


def permutes_mod(A, n: int, N: int) -> bool:
    """Whether k -> k . A mod N is a bijection of (Z/N)^n: A is n x n with a
    determinant prime to N.  None stands for the identity."""
    if A is None:
        return True
    return len(A) == n and all(len(row) == n for row in A) and gcd(imat_det(A), N) == 1


def fmat_permutes(fb: Field, A, n: int) -> bool:
    """Whether e -> e . A is a bijection of fb^n.  None stands for the identity."""
    if A is None:
        return True
    if len(A) != n or any(len(row) != n for row in A):
        return False
    try:
        fmat_inv(fb, A)
    except ValueError:
        return False
    return True


def span_mod(gens, N: int, dim: int) -> set:
    """The subgroup of (Z/N)^dim generated by the integer vectors gens."""
    span = {(0,) * dim}
    for g in gens:
        steps, v = [], (0,) * dim
        for _ in range(N):
            steps.append(v)
            v = tuple((a + b) % N for a, b in zip(v, g))
        span = {tuple((a + b) % N for a, b in zip(h, s)) for h in span for s in steps}
    return span


def tau_lattice(src_exps, tgt_exps, Q, n: int, N: int) -> list:
    """The pairs (-E_src . k, -E_tgt . (k . Q)) mod N over k in (Z/N)^n,
    each once, as (a, b) tuples: E_src and E_tgt are the monomials' exponents,
    each a tuple of (slot, e), and Q (None for the identity) acts on the n
    unit slots.  A point whose logs move by (M/N) k moves its tau-components
    (Variety.tau_of) by (M/N) a and its image's by (M/N) b."""
    Q = Q if Q is not None else imat_identity(n)
    gens = []
    for i in range(n):
        a = [-sum(e for s, e in exps if s == i) for exps in src_exps]
        b = [-sum(e * Q[i][s] for s, e in exps) for exps in tgt_exps]
        gens.append(a + b)
    k = len(src_exps)
    return [(p[:k], p[k:]) for p in span_mod(gens, N, k + len(tgt_exps))]


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
