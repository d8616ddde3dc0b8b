"""
Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is stored as an integer coefficient vector of length m over the
power basis zeta_m^0 .. zeta_m^(m-1), plus a positive denominator.  The
canonical form reduces the coefficient polynomial modulo the m-th cyclotomic
polynomial (so equality is a plain tuple comparison) and divides out the gcd.

Values with different conductors are lifted to the lcm before combining.
Everything is exact; the complex embedding exists only for display.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed as the exact quotient of x^m - 1 by the product of the
    cyclotomic polynomials of the proper divisors of m.
    """
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_exact_div(num, cyclotomic_poly(d))
    return tuple(num)


def _poly_exact_div(a: list[int], b: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (b monic up to +-1 leading coeff)."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            assert c % lead == 0
            q = c // lead
            out[i - db] = q
            for j, bj in enumerate(b):
                a[i - db + j] -= q * bj
    assert not any(a[:db])
    return out


class Cyclo:
    """An element of Q(zeta_m), canonically reduced and immutable."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num, den: int = 1, _reduced: bool = False):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            num, den = _canonicalize(m, list(num), den)
        self.m = m
        self.num = tuple(num)
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(m: int = 1) -> "Cyclo":
        return Cyclo(m, [0] * m, 1, _reduced=True)

    @staticmethod
    def integer(n: int, m: int = 1) -> "Cyclo":
        v = [0] * m
        v[0] = n
        return Cyclo(m, v, 1, _reduced=True)

    @staticmethod
    def rational(n: int, d: int, m: int = 1) -> "Cyclo":
        v = [0] * m
        v[0] = n
        return Cyclo(m, v, d)

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- conductor lifting -------------------------------------------------

    def lift(self, M: int) -> "Cyclo":
        """Rewrite over conductor M (a multiple of m)."""
        if M == self.m:
            return self
        if M % self.m:
            raise ValueError("can only lift to a multiple of the conductor")
        stride = M // self.m
        v = [0] * M
        for i, c in enumerate(self.num):
            if c:
                v[i * stride] = c
        return Cyclo(M, v, self.den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Cyclo") -> "Cyclo":
        m = lcm(self.m, other.m)
        a, b = self.lift(m), other.lift(m)
        d = a.den * b.den
        v = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
        return Cyclo(m, v, d)

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.m, [-c for c in self.num], self.den, _reduced=True)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-other)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        if isinstance(other, int):
            return Cyclo(self.m, [c * other for c in self.num], self.den)
        m = lcm(self.m, other.m)
        a, b = self.lift(m), other.lift(m)
        v = [0] * m
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        k = i + j
                        if k >= m:
                            k -= m
                        v[k] += x * y
        return Cyclo(m, v, a.den * b.den)

    __rmul__ = __mul__

    def scale(self, n: int, d: int = 1) -> "Cyclo":
        return Cyclo(self.m, [c * n for c in self.num], self.den * d)

    def __truediv__(self, other: "Cyclo") -> "Cyclo":
        if isinstance(other, int):
            return Cyclo(self.m, self.num, self.den * other)
        return self * other.invert()

    def invert(self) -> "Cyclo":
        """Multiplicative inverse via extended gcd against the cyclotomic polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        phi = [Fraction(c) for c in cyclotomic_poly(self.m)]
        a = [Fraction(c, self.den) for c in self.num]
        a = a[: _phi_degree(self.m)] + [Fraction(0)] * 0
        s = _poly_ext_gcd_inverse(a, phi)
        m = self.m
        # clear denominators
        den = 1
        for c in s:
            den = lcm(den, c.denominator)
        v = [0] * m
        for i, c in enumerate(s):
            v[i] = int(c * den)
        return Cyclo(m, v, den)

    def __pow__(self, n: int) -> "Cyclo":
        if n < 0:
            return self.invert() ** (-n)
        result = Cyclo.integer(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons, Galois, subfields ------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Cyclo.integer(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        # equal values can carry different conductors, so only the denominator
        # (which is conductor-independent after reduction) enters the hash
        return hash(self.den)

    def galois(self, t: int) -> "Cyclo":
        """Apply zeta_m -> zeta_m^t (t coprime to m)."""
        if gcd(t, self.m) != 1:
            raise ValueError("t must be coprime to the conductor")
        v = [0] * self.m
        for i, c in enumerate(self.num):
            if c:
                v[(i * t) % self.m] += c
        return Cyclo(self.m, v, self.den)

    def conjugate(self) -> "Cyclo":
        return self.galois(self.m - 1) if self.m > 1 else self

    def in_subfield(self, m_sub: int) -> bool:
        """True iff the value lies in Q(zeta_{m_sub}), for m_sub dividing m."""
        if self.m % m_sub:
            raise ValueError("m_sub must divide the conductor")
        # fixed-field test: invariant under every automorphism fixing zeta_{m_sub}
        for t in range(1, self.m + 1):
            if gcd(t, self.m) == 1 and t % m_sub == 1 % m_sub:
                if self.galois(t) != self:
                    return False
        return True

    # -- output ------------------------------------------------------------

    def embed_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.m)
        return sum(c * z**i for i, c in enumerate(self.num) if c) / self.den

    def as_rational(self) -> Fraction:
        """The value as a rational number; raises if it is not rational."""
        if any(self.num[1:]):
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def to_json(self) -> dict:
        return {"m": self.m, "num": list(self.num), "den": self.den}

    def __repr__(self):
        if not any(self.num[1:]):
            return f"Cyclo({Fraction(self.num[0], self.den)})"
        terms = "+".join(f"{c}*z{self.m}^{i}" for i, c in enumerate(self.num) if c)
        d = f"/{self.den}" if self.den != 1 else ""
        return f"Cyclo({terms}{d})"


def zeta(m: int, k: int = 1) -> Cyclo:
    """zeta_m^k as an exact value."""
    v = [0] * m
    v[k % m] = 1
    return Cyclo(m, v)


ZERO = Cyclo.zero()
ONE = Cyclo.integer(1)


@lru_cache(maxsize=None)
def _phi_degree(m: int) -> int:
    return len(cyclotomic_poly(m)) - 1


def _canonicalize(m: int, num: list[int], den: int):
    if len(num) < m:
        num = num + [0] * (m - len(num))
    elif len(num) > m:
        folded = [0] * m
        for i, c in enumerate(num):
            folded[i % m] += c
        num = folded
    phi = cyclotomic_poly(m)
    d = len(phi) - 1
    # remainder modulo the monic cyclotomic polynomial
    for i in range(m - 1, d - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            for j in range(d):
                num[i - d + j] -= c * phi[j]
    if den < 0:
        den = -den
        num = [-c for c in num]
    g = den
    for c in num:
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        num = [c // g for c in num]
        den //= g
    if not any(num):
        den = 1
    return num, den


def _poly_ext_gcd_inverse(a: list[Fraction], phi: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo phi over Q: s with s*a = 1 (mod phi)."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def pdivmod(x, y):
        x = x[:]
        dy = len(y) - 1
        inv_lead = 1 / y[-1]
        q = [Fraction(0)] * max(len(x) - dy, 0)
        for i in range(len(x) - 1, dy - 1, -1):
            if x[i]:
                c = x[i] * inv_lead
                q[i - dy] = c
                for j, yj in enumerate(y):
                    x[i - dy + j] -= c * yj
        return q, trim(x[: dy])

    r0, r1 = trim(phi[:]), trim(a[:])
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = pdivmod(r0, r1)
        # s_new = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1 or 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    prod[i + j] += qi * sj
        s_new = [
            (s0[i] if i < len(s0) else Fraction(0)) - (prod[i] if i < len(prod) else Fraction(0))
            for i in range(max(len(s0), len(prod)))
        ]
        r0, r1 = r1, trim(r)
        s0, s1 = s1, trim(s_new) or [Fraction(0)]
    if not r1 or r1 == [Fraction(0)]:
        raise ZeroDivisionError("element is not invertible (shares a factor with phi)")
    c = r1[0]
    return [s / c for s in s1]
