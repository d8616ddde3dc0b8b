"""
Gauss sums, Jacobi sums, and their Pochhammer-style ratios, all exact.

Key identities used internally:
 - g(eta) g°(eta-bar) = eta(-1) q, which yields division-free reciprocals
   1/g(eta) = eta(-1) g°(eta-bar) / q,
 - the product formula j(eta_1..eta_n) = g(eta_1)...g(eta_n)/g°(eta_1...eta_n)
   for not-all-trivial inputs, with (1-(1-q)^n)/q in the all-trivial case.

Jacobi sums of up to three characters are computed by direct enumeration
(and the product formula is cross-checked in tests); longer tuples use the
product formula to avoid a q^(n-1) blowup.  Both give the value over
conductor N = q - 1.  Gauss sums are memoized per
(field, psi, character).

Both enumerations sum exponent histograms: every term is a root of unity,
so a sum is one integer vector indexed by the term's exponent, reduced to
canonical form once.  For g(eta) with eta = chi_j and psi = psi_a over F_q
(q = p^e, N = q - 1) the term at x is zeta_(pN)^(Tr(a x) N + j dlog(x) p);
for a Jacobi sum the term at (x_1..x_n) is zeta_N^(sum j_i dlog(x_i)).
The Gauss-sum histogram is written once, in gauss_histogram: gauss
canonicalizes it, and the Horn evaluator in hgf packs it unreduced (its l1
norm is exactly q - 1, which bounds the packed slot width there).
"""

from __future__ import annotations

from functools import lru_cache

from .chars import AddChar, MulChar, standard_psi
from .cyclo import Cyclo


@lru_cache(maxsize=None)
def gauss(eta: MulChar, psi: AddChar) -> Cyclo:
    """g(eta) = -sum over x in k* of psi(x) eta(x); g(trivial) = 1."""
    hist = gauss_histogram(eta, psi)
    return Cyclo(len(hist), hist)


def gauss_histogram(eta: MulChar, psi: AddChar) -> list[int]:
    """The terms -psi(x) eta(x) of g(eta) counted by exponent of zeta_(pN):
    every entry is <= 0 and their sum is -(q - 1)."""
    if psi.is_trivial():
        raise ValueError("psi must be nontrivial")
    if eta.field != psi.field:
        raise ValueError("characters over different fields")
    f = eta.field
    p, N = f.p, max(f.N, 1)
    M = p * N
    a, jp, dlog = psi.a, eta.j * p, f.dlog
    hist = [0] * M
    for x in f.units():
        hist[(f.trace_to_prime(f.mul(a, x)) * N + jp * dlog[x]) % M] -= 1
    return hist


def gauss_circ(eta: MulChar, psi: AddChar) -> Cyclo:
    """g°(eta) = q^delta(eta) g(eta)."""
    g = gauss(eta, psi)
    return g.scale(eta.field.q) if eta.is_trivial() else g


def gauss_inverse(eta: MulChar, psi: AddChar) -> Cyclo:
    """1/g(eta) = eta(-1) g°(eta-bar) / q, division-free."""
    f = eta.field
    sign = eta.eval(f.neg(1))
    return (sign * gauss_circ(eta.inverse(), psi)) / f.q


def gauss_circ_inverse(eta: MulChar, psi: AddChar) -> Cyclo:
    """1/g°(eta)."""
    inv = gauss_inverse(eta, psi)
    return inv / eta.field.q if eta.is_trivial() else inv


def jacobi_direct(*etas: MulChar) -> Cyclo:
    """(-1)^(n-1) sum over unit tuples with x_1+...+x_n = 1 of prod eta_i(x_i)."""
    n = len(etas)
    if n < 2:
        raise ValueError("need at least two characters")
    f = etas[0].field
    if any(e.field != f for e in etas):
        raise ValueError("characters over different fields")
    N = max(f.N, 1)
    js, dlog, units = [e.j for e in etas], f.dlog, list(f.units())
    sign = 1 if n % 2 else -1
    hist = [0] * N

    def rec(i: int, remaining: int, exp: int):
        if i == n - 1:
            if remaining != 0:
                hist[(exp + js[i] * dlog[remaining]) % N] += sign
            return
        for x in units:
            rec(i + 1, f.sub(remaining, x), exp + js[i] * dlog[x])

    rec(0, 1, 0)
    return Cyclo(N, hist)


def jacobi_product_formula(*etas: MulChar, psi: AddChar | None = None) -> Cyclo:
    """j(eta_1..eta_n) from Gauss sums, over conductor N = q - 1 as
    jacobi_direct gives it: the product lives over p N and is descended
    exactly (Cyclo.descend)."""
    n = len(etas)
    f = etas[0].field
    N = max(f.N, 1)
    if all(e.is_trivial() for e in etas):
        return Cyclo.rational(1 - (1 - f.q) ** n, f.q, N)
    psi = psi or standard_psi(f)
    prod_char = etas[0]
    value = gauss(etas[0], psi)
    for e in etas[1:]:
        value = value * gauss(e, psi)
        prod_char = prod_char * e
    return (value * gauss_circ_inverse(prod_char, psi)).descend(N)


@lru_cache(maxsize=None)
def jacobi(*etas: MulChar) -> Cyclo:
    """The Jacobi sum, exact in Q(zeta_(q-1))."""
    if len(etas) < 2:
        raise ValueError("need at least two characters")
    if len(etas) <= 3:
        return jacobi_direct(*etas)
    return jacobi_product_formula(*etas)


@lru_cache(maxsize=None)
def pochhammer(alpha: MulChar, nu: MulChar, psi: AddChar) -> Cyclo:
    """(alpha)_nu = g(alpha nu)/g(alpha)."""
    return gauss(alpha * nu, psi) * gauss_inverse(alpha, psi)


@lru_cache(maxsize=None)
def pochhammer_circ(alpha: MulChar, nu: MulChar, psi: AddChar) -> Cyclo:
    """(alpha)_nu° = g°(alpha nu)/g°(alpha)."""
    return gauss_circ(alpha * nu, psi) * gauss_circ_inverse(alpha, psi)
