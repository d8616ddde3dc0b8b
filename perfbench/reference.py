"""The benchmark's own exact arithmetic and plain-loop counts, used only by checks.

Nothing here calls hgfq.  Values live in Z[x]/(x^M - 1) with a rational
denominator; equality is decided by reducing the difference modulo the M-th
cyclotomic polynomial as sympy computes it.  Products pack the coefficient
vectors into Python integers (Kronecker substitution), so they stay exact.
Everything is over a prime field F_p, with characters indexed against the
smallest primitive root, as hgfq indexes them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import lcm


class Val:
    """sum(num[i] x^i) / den in Z[x]/(x^M - 1), standing for Q(zeta_M)."""

    __slots__ = ("M", "num", "den")

    def __init__(self, M, num, den=1):
        self.M, self.num, self.den = M, list(num), den

    @staticmethod
    def zeta(M, e, coeff=1):
        v = [0] * M
        v[e % M] = coeff
        return Val(M, v)

    def lift(self, L):
        stride = L // self.M
        v = [0] * L
        for i, c in enumerate(self.num):
            v[i * stride] = c
        return Val(L, v, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return Val(self.M, [c * other for c in self.num], self.den)
        L = lcm(self.M, other.M)
        a, b = self.lift(L).num, other.lift(L).num
        bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                + L.bit_length() + 2)
        prod = _unpack(_pack(a, bits) * _pack(b, bits), 2 * L - 1, bits)
        v = prod[:L]
        for i, c in enumerate(prod[L:]):
            v[i] += c
        return Val(L, v, self.den * other.den)

    def __add__(self, other):
        L = lcm(self.M, other.M)
        a, b = self.lift(L), other.lift(L)
        return Val(L, [x * b.den + y * a.den for x, y in zip(a.num, b.num)], a.den * b.den)

    def scale(self, n, d=1):
        return Val(self.M, [c * n for c in self.num], self.den * d)


def _pack(v, bits):
    x = 0
    for c in reversed(v):
        x = (x << bits) + c
    return x


def _unpack(x, n, bits):
    mask, half, out = (1 << bits) - 1, 1 << (bits - 1), []
    for _ in range(n):
        c = x & mask
        x >>= bits
        if c >= half:
            c -= 1 << bits
            x += 1
        out.append(c)
    return out


def from_json(d) -> Val:
    """A value in hgfq's JSON form {"m", "num", "den"}."""
    return Val(d["m"], d["num"], d["den"])


def equal(a: Val, b: Val) -> bool:
    """a == b in Q(zeta_L), decided with sympy's cyclotomic polynomial."""
    from sympy import Poly, cyclotomic_poly, symbols

    L = lcm(a.M, b.M)
    x, y = a.lift(L), b.lift(L)
    diff = [u * y.den - v * x.den for u, v in zip(x.num, y.num)]
    if not any(diff):
        return True
    t = symbols("t")
    rem = Poly(list(reversed(diff)), t).rem(Poly(cyclotomic_poly(L, t), t))
    return rem.is_zero


# -- characters and sums over a prime field ----------------------------------


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """The smallest generator of F_p^*, by plain search."""
    for g in range(1, p):
        if len({pow(g, k, p) for k in range(p - 1)}) == p - 1:
            return g
    raise ValueError(p)


@lru_cache(maxsize=None)
def dlog(p: int) -> dict:
    g = primitive_root(p)
    return {pow(g, k, p): k for k in range(p - 1)}


def mulchar(p, j, x) -> Val:
    """chi_j(x) in Q(zeta_(p-1)); zero at x = 0."""
    N = p - 1
    if x % p == 0:
        return Val(N, [0] * N)
    return Val.zeta(N, j * dlog(p)[x % p])


def addchar(p, x) -> Val:
    """psi(x) = zeta_p^x."""
    return Val.zeta(p, x)


@lru_cache(maxsize=None)
def gauss(p: int, j: int) -> Val:
    """g(chi_j) = -sum over x != 0 of psi(x) chi_j(x), from the histogram of
    zeta_(pN) exponents."""
    N = p - 1
    M = p * N
    v = [0] * M
    for x, k in dlog(p).items():
        v[(x * N + (j * k % N) * p) % M] -= 1
    return Val(M, v)


def gauss_circ(p, j) -> Val:
    return gauss(p, j).scale(p) if j % (p - 1) == 0 else gauss(p, j)


def inv_gauss(p, j) -> Val:
    """1/g(chi_j) = chi_j(-1) g°(chi_-j) / p (the reflection formula)."""
    return (mulchar(p, j, p - 1) * gauss_circ(p, -j)).scale(1, p)


def inv_gauss_circ(p, j) -> Val:
    inv = inv_gauss(p, j)
    return inv.scale(1, p) if j % (p - 1) == 0 else inv


def jacobi(p, js) -> Val:
    """(-1)^(n-1) sum over unit tuples summing to 1 of prod chi_(j_i)(x_i)."""
    N = p - 1
    n = len(js)
    v = [0] * N
    table = dlog(p)
    for head in itertools.product(range(1, p), repeat=n - 1):
        last = (1 - sum(head)) % p
        if last == 0:
            continue
        e = sum(j * table[x] for j, x in zip(js, head + (last,)))
        v[e % N] += 1
    return Val(N, v).scale((-1) ** (n - 1))


def horn(p, terms, lams) -> Val:
    """A Horn-type sum over nu in (Z/N)^n:

        1/(1-p)^n * sum_nu prod_up (a)_(c.nu) * prod_low 1/(b)°_(c.nu) * prod nu_i(lam_i)

    with (a)_nu = g(a nu)/g(a) and (b)°_nu = g°(b nu)/g°(b).  ``terms`` holds
    (j, c, kind) with kind "up" or "low" and c the integer combination of the
    summed characters."""
    N = p - 1
    n = len(lams)
    total = None
    for nus in itertools.product(range(N), repeat=n):
        t = Val(1, [1])
        for nu, lam in zip(nus, lams):
            t = t * mulchar(p, nu, lam)
        for j, c, kind in terms:
            k = j + sum(ci * nu for ci, nu in zip(c, nus))
            if kind == "up":
                t = t * gauss(p, k) * inv_gauss(p, j)
            else:
                t = t * gauss_circ(p, j) * inv_gauss_circ(p, k)
        total = t if total is None else total + t
    return total.scale(1, (1 - p) ** n)


# -- point counts by plain loops over F_p -------------------------------------


def count_points(p: int, family: str, params: dict) -> int:
    """#X(F_p) for one of hgfq's families, straight from its equations."""
    N = p - 1
    units = range(1, p)
    allp = range(p)

    def pw(x):
        return pow(x, N, p)

    def as_ok(t, z):
        return (pow(t, p, p) - t - pw(z)) % p == 0

    count = 0
    if family == "fermat":
        n = params["n"]
        for xs in itertools.product(units, repeat=n):
            count += sum(pw(x) for x in xs) % p == 1
        return count
    if family == "as":
        return sum(1 for z in units for t in allp if as_ok(t, z))
    if family == "mxn":
        m, n, lam = params["m"], params["n"], params["lam"]
        l = n - m
        for xs in itertools.product(units, repeat=m):
            for ys in itertools.product(units, repeat=m):
                if any((pw(x) + pw(y)) % p != 1 for x, y in zip(xs, ys)):
                    continue
                for zs in itertools.product(units, repeat=l):
                    lhs = (-1) ** n * lam
                    for x in xs:
                        lhs *= pw(x)
                    rhs = 1
                    for v in ys + zs:
                        rhs *= pw(v)
                    if (lhs - rhs) % p:
                        continue
                    for ts in itertools.product(allp, repeat=l):
                        count += all(as_ok(t, z) for t, z in zip(ts, zs))
        return count
    if family in ("fd", "fc"):
        n, lams = params["n"], params["lams"]
        for xs in itertools.product(units, repeat=n + 1):
            for ys in itertools.product(units, repeat=n + 1):
                if family == "fd":
                    ok = all((pw(x) + pw(y)) % p == 1 for x, y in zip(xs, ys)) and all(
                        (lam * pw(xs[0]) * pw(x) - pw(ys[0]) * pw(y)) % p == 0
                        for lam, x, y in zip(lams, xs[1:], ys[1:]))
                else:
                    ok = (sum(map(pw, xs)) % p == 1 and sum(map(pw, ys)) % p == 1
                          and all((lam * pw(xs[0]) * pw(ys[0]) - pw(x) * pw(y)) % p == 0
                                  for lam, x, y in zip(lams, xs[1:], ys[1:])))
                count += ok
        return count
    if family == "fa":
        n, lams = params["n"], params["lams"]
        for xs in itertools.product(units, repeat=n + 1):
            if sum(map(pw, xs)) % p != 1:
                continue
            for ys in itertools.product(units, repeat=n):
                for zs in itertools.product(units, repeat=n):
                    count += all((pw(y) + pw(z)) % p == 1 for y, z in zip(ys, zs)) and all(
                        (lam * pw(xs[0]) * pw(y) - pw(x) * pw(z)) % p == 0
                        for lam, x, y, z in zip(lams, xs[1:], ys, zs))
        return count
    if family == "humbert1":
        l1, l2 = params["lam1"], params["lam2"]
        for x1, x2, y1, y2, z in itertools.product(units, repeat=5):
            if (pw(x1) + pw(y1)) % p != 1 or (pw(x2) + pw(y2)) % p != 1:
                continue
            if (l1 * pw(x1) * pw(x2) - pw(y1) * pw(y2)) % p:
                continue
            if (l2 * pw(x1) - pw(y1) * pw(z)) % p:
                continue
            count += sum(1 for t in allp if as_ok(t, z))
        return count
    if family == "humbert3":
        l1, l2 = params["lam1"], params["lam2"]
        for x, y, z1, z2 in itertools.product(units, repeat=4):
            if (pw(x) + pw(y)) % p != 1 or (l1 * pw(x) - pw(y) * pw(z1)) % p:
                continue
            if (l2 - pw(z1) * pw(z2)) % p:
                continue
            count += (sum(1 for t in allp if as_ok(t, z1))
                      * sum(1 for t in allp if as_ok(t, z2)))
        return count
    if family == "general":
        return _count_general(p, params["parts"], params["z"])
    raise ValueError(family)


def _count_general(p, parts, z):
    """Points (t, u, s) of X(Delta, z) for blocks of size 1 or 2: per block,
    t^N = c_0 and u^p - u = c_1/c_0, where c = s z on the block's columns."""
    if any(size > 2 for size in parts):
        raise ValueError("plain count covers blocks of size 1 and 2")
    N = p - 1
    count = 0
    for s in itertools.product(range(p), repeat=len(z)):
        ways, col = 1, 0
        for size in parts:
            c = [sum(sv * z[r][col + k] for r, sv in enumerate(s)) % p for k in range(size)]
            col += size
            if c[0] == 0:
                ways = 0
                break
            ways *= sum(1 for t in range(1, p) if pow(t, N, p) == c[0])
            if size == 2:
                theta = c[1] * pow(c[0], p - 2, p) % p
                ways *= sum(1 for u in range(p) if (pow(u, p, p) - u - theta) % p == 0)
        count += ways
    return count

