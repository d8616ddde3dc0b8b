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

import itertools
from fractions import Fraction
from functools import lru_cache
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


# -- the exponent matrices of the six symmetry families ------------------


@lru_cache(maxsize=None)
def _gauss_matrices():
    theta0 = [[-1, 0, -1, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0]]
    T = imat_zero(4, 4)
    for i, v in enumerate((1, 1, -1, -1)):
        T[i][3] = v
    return theta0, [T], [imat_inverse(imat_add(theta0, T))], _gauge_last_matrix(4)


@lru_cache(maxsize=None)
def _kummer_matrices():
    theta0 = [[0, 1, 0], [-1, -1, 0], [0, 0, 0]]
    theta = [[0, 1, 1], [-1, -1, -1], [0, 0, -1]]
    T = imat_add(theta, [[-v for v in row] for row in theta0])
    return theta0, [T], [imat_inverse(theta)], _gauge_last_matrix(3)


@lru_cache(maxsize=None)
def _fd_matrices(m: int):
    rows, cols = 2 * m + 2, m + 3
    # rows (x0, x1..xm, y0, y1..ym); cols (u1, u2..u_{m+1}, v1, v2)
    x0, y0 = 0, m + 1
    theta0 = imat_zero(rows, cols)
    theta0[x0][0] = -1
    theta0[x0][m + 1] = -1
    theta0[y0][m + 1] = 1
    for j in range(1, m + 1):
        theta0[y0 + j][j] = -1
    Ts = [imat_zero(rows, cols)]
    for j in range(1, m + 1):
        T = imat_zero(rows, cols)
        T[x0][m + 2] = 1
        T[j][m + 2] = 1
        T[y0][m + 2] = -1
        T[y0 + j][m + 2] = -1
        Ts.append(T)
    rhos = []
    rho0 = imat_zero(cols, rows)
    rho0[0][x0] = -1
    rho0[0][y0] = -1
    for j in range(1, m + 1):
        rho0[j][j] = -1
        rho0[j][y0 + j] = -1
    rho0[m + 1][y0] = 1
    rhos.append(rho0)
    for j in range(1, m + 1):
        rho = imat_zero(cols, rows)
        rho[m + 1][j] = 1
        rho[m + 2][j] = 1
        rhos.append(rho)
    check = imat_zero(rows, rows)
    for T, rho in zip(Ts, rhos):
        check = imat_add(check, imat_mul(imat_add(theta0, T), rho))
    assert check == imat_identity(rows)
    return theta0, Ts, rhos, _gauge_last_matrix(cols)


@lru_cache(maxsize=None)
def _phi1_matrices():
    theta0 = [
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-1, 0, -1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    T1 = imat_zero(5, 4)
    for i, v in enumerate((1, 1, -1, -1, 0)):
        T1[i][3] = v
    T2 = imat_zero(5, 4)
    for i, v in enumerate((1, 0, -1, 0, -1)):
        T2[i][3] = v
    rho0 = [
        [-1, 0, -1, 0, 0],
        [0, -1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    rho1 = imat_zero(4, 5)
    rho1[1][3] = -1
    rho1[2][3] = 1
    rho1[3][3] = -1
    rho2 = imat_zero(4, 5)
    rho2[2][4] = 1
    rho2[3][4] = -1
    Ts = [imat_zero(5, 4), T1, T2]
    rhos = [rho0, rho1, rho2]
    check = imat_zero(5, 5)
    for T, rho in zip(Ts, rhos):
        check = imat_add(check, imat_mul(imat_add(theta0, T), rho))
    assert check == imat_identity(5)
    return theta0, Ts, rhos, _gauge_last_matrix(4)


def _pair_perm_q(sigma):
    """diag(P_sigma, P_sigma): sigma swaps both pairs of unit coordinates."""
    P = perm_matrix(sigma)
    n = len(P)
    Q = imat_zero(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            Q[i][j] = Q[n + i][n + j] = P[i][j]
    return Q


@lru_cache(maxsize=None)
def _fa_matrices(m: int):
    rows, cols = 3 * m + 1, 2 * m + 2
    # rows (x0, x1..xm, y1..ym, z1..zm); cols (u0, u1..um, v0, v1..vm)
    x0 = 0

    def xr(j):
        return j

    def yr(j):
        return m + j

    def zr(j):
        return 2 * m + j

    u0, v0 = 0, m + 1

    def uc(j):
        return j

    def vc(j):
        return m + 1 + j

    theta0 = imat_zero(rows, cols)
    theta0[xr(m)][u0] -= 1
    for j in range(1, m + 1):
        theta0[xr(j)][uc(j)] += 1
        theta0[yr(j)][uc(j)] -= 1
        theta0[xr(m)][uc(j)] -= 1
    theta0[x0][v0] += 1
    theta0[xr(m)][v0] -= 1
    for j in range(1, m + 1):
        theta0[xr(j)][vc(j)] += 1
        theta0[xr(m)][vc(j)] -= 1
    Ts = [imat_zero(rows, cols)]
    for j in range(1, m + 1):
        T = imat_zero(rows, cols)
        T[x0][vc(m)] += 1
        T[xr(j)][vc(m)] -= 1
        T[yr(j)][vc(m)] += 1
        T[zr(j)][vc(m)] -= 1
        Ts.append(T)
    rho0 = imat_zero(cols, rows)
    rho0[v0][x0] = 1
    rho0[u0][x0] = -1
    for j in range(1, m + 1):
        rho0[vc(j)][xr(j)] = 1
        rho0[u0][xr(j)] = -1
        rho0[vc(j)][yr(j)] = 1
        rho0[uc(j)][yr(j)] = -1
        rho0[v0][zr(j)] = 1
        rho0[uc(j)][zr(j)] = -1
    rhos = [rho0]
    for j in range(1, m + 1):
        rho = imat_zero(cols, rows)
        rho[vc(m)][zr(j)] = -1
        rhos.append(rho)
    check = imat_zero(rows, rows)
    for T, rho in zip(Ts, rhos):
        check = imat_add(check, imat_mul(imat_add(theta0, T), rho))
    assert check == imat_identity(rows)
    return theta0, Ts, rhos, _gauge_last_matrix(cols)


def _fa_swaps(m: int):
    """The 2^n column swaps u_j <-> v_j."""
    out = []
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(1, m + 1), size) for size in range(m + 1)
    ):
        sigma = list(range(2 * m + 2))
        for j in subset:
            sigma[j], sigma[m + 1 + j] = sigma[m + 1 + j], sigma[j]
        out.append(tuple(sigma))
    return out



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
