"""
Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is stored as an integer coefficient vector of length m over the
power basis zeta_m^0 .. zeta_m^(m-1), plus a positive denominator.  The
canonical form reduces the coefficient polynomial modulo the m-th cyclotomic
polynomial (so equality is a plain tuple comparison) and divides out the gcd.

Values with different conductors are lifted to the lcm before combining;
operands are spread to the common conductor without reducing them, and only
the result is canonicalized.

Products are taken mod x^m - 1 and then reduced.  When one operand has few
nonzero coefficients (a monomial, a character value) the product loops over
its terms.  Otherwise both coefficient vectors are packed into Python ints,
evaluated at x = 2^k with k wide enough for every coefficient of the product
(Kronecker substitution), multiplied once, folded mod x^m - 1 and unpacked
from one byte string.  The remainder mod Phi_m loops over the nonzero lower
coefficients of Phi_m at small conductors.  At large ones it is one packed
division: with Psi_m = (x^m - 1)/Phi_m, the quotient is the part of
num * Psi_m from x^m up, so two integer products and a shift give it.

Everything is exact: the package has no floating-point path.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Phi_m(x) = Phi_r(x^(m/r)) for r the product of the primes dividing m, and
    Phi_r(x) = prod over d | r of (x^d - 1)^mu(r/d): the factors with
    mu = +1 are multiplied in first, then those with mu = -1 divided out
    exactly, each in one pass over the coefficients.
    """
    return _moebius_product(m, cofactor=False)


@lru_cache(maxsize=None)
def _cofactor(m: int) -> tuple[int, tuple[int, ...]]:
    """The height factor H = |Psi_m|_1 (|Phi_m|_1 + 1) + 1 of the packed
    remainder, and Psi_m = (x^m - 1)/Phi_m, of degree m - deg Phi_m.

    Psi_m(x) = Psi_r(x^(m/r)) and Psi_r = prod over d | r, d < r of
    (x^d - 1)^(-mu(r/d)), built by the passes of `cyclotomic_poly`.
    """
    psi = _moebius_product(m, cofactor=True)
    norm = sum(map(abs, cyclotomic_poly(m)))
    return sum(map(abs, psi)) * (norm + 1) + 1, psi


def _moebius_product(m: int, cofactor: bool) -> tuple[int, ...]:
    """Phi_m, or with `cofactor` Psi_m, by the passes of `cyclotomic_poly`."""
    primes = _prime_divisors(m)
    r = 1
    for p in primes:
        r *= p
    # squarefree divisors d of r, split by the sign of mu(r/d)
    divisors = [(1, len(primes) % 2)]
    for p in primes:
        divisors += [(d * p, 1 - odd) for d, odd in divisors]
    if cofactor:  # (x^r - 1)/Phi_r: every exponent negated, x^r - 1 left out
        divisors = [(d, 1 - odd) for d, odd in divisors if d < r]
    poly = [1]
    for d, odd in divisors:
        if not odd:  # times (x^d - 1)
            poly = [-c for c in poly] + [0] * d
            for i in range(len(poly) - 1, d - 1, -1):
                poly[i] -= poly[i - d]
    for d, odd in divisors:
        if odd:  # divided by (x^d - 1): q_i = q_(i-d) - a_i
            for i in range(len(poly)):
                poly[i] = (poly[i - d] if i >= d else 0) - poly[i]
            assert not any(poly[-d:])
            del poly[-d:]
    out = [0] * ((len(poly) - 1) * (m // r) + 1)
    out[:: m // r] = poly
    return tuple(out)


def _prime_divisors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
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
        # Phi_M divides Phi_m(x^(M/m)), so the spread canonical form is the
        # remainder mod Phi_M when its degree stays below deg Phi_M
        reduced = (_phi_terms(self.m)[0] - 1) * (M // self.m) < _phi_terms(M)[0]
        return Cyclo(M, _spread(self, M), self.den, _reduced=reduced)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Cyclo") -> "Cyclo":
        m = lcm(self.m, other.m)
        da, db = self.den, other.den
        v = [x * db + y * da for x, y in zip(_spread(self, m), _spread(other, m))]
        return Cyclo(m, v, da * db)

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.m, [-c for c in self.num], self.den, _reduced=True)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-other)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        if isinstance(other, int):
            return Cyclo(self.m, [c * other for c in self.num], self.den)
        m = lcm(self.m, other.m)
        a, b = _spread(self, m), _spread(other, m)
        na, nb = m - a.count(0), m - b.count(0)
        if na > nb:
            a, b, na = b, a, nb
        if na <= _SPARSE_TERMS:
            v = [0] * m
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            k = i + j
                            if k >= m:
                                k -= m
                            v[k] += x * y
        else:
            v = _mul_packed(a, b, na)
        return Cyclo(m, v, self.den * other.den)

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
        a = a[: _phi_terms(self.m)[0]]
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
        # the canonical form is unique for a given conductor
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other and not any(self.num[1:])
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self, other
        if a.m != b.m:
            m = lcm(a.m, b.m)
            a, b = a.lift(m), b.lift(m)
        return a.num == b.num and a.den == b.den

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

    def descend(self, n: int) -> "Cyclo":
        """The value over conductor n, for n dividing m with n and k = m / n
        coprime.  Over Q(zeta_n), 1, y, .., y^(phi(k) - 1) with y = zeta_k is
        a basis of Q(zeta_m), and zeta_m^i = zeta_n^(i k^-1) y^(i n^-1); the
        value's coordinates there are read off after reducing mod Phi_k(y).
        Raises ValueError unless it lies in Q(zeta_n)."""
        m = self.m
        k = m // n
        if m % n or gcd(n, k) != 1:
            raise ValueError("n must divide the conductor with a coprime cofactor")
        k_inv, n_inv = pow(k, -1, n), pow(n, -1, k)
        coef = [[0] * n for _ in range(k)]  # coef[b]: the coefficient of y^b
        for i, c in enumerate(self.num):
            if c:
                coef[i * n_inv % k][i * k_inv % n] += c
        phi = cyclotomic_poly(k)
        d = len(phi) - 1
        for b in range(k - 1, d - 1, -1):  # y^b = -sum_j phi_j y^(b - d + j)
            for j, pj in enumerate(phi[:d]):
                if pj:
                    coef[b - d + j] = [x - pj * y for x, y in zip(coef[b - d + j], coef[b])]
        if any(not Cyclo(n, c).is_zero() for c in coef[1:d]):
            raise ValueError("value is not in the subfield")
        return Cyclo(n, coef[0], self.den)

    # -- output ------------------------------------------------------------

    def as_rational(self) -> Fraction:
        """The value as a rational number; raises if it is not rational."""
        if any(self.num[1:]):
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def to_json(self) -> dict:
        return {"m": self.m, "num": list(self.num), "den": self.den}

    def to_text(self) -> str:
        """One-line form ``m=..;num=c0,c1,...;den=..`` of CSV tables and witnesses."""
        return f"m={self.m};num={','.join(map(str, self.num))};den={self.den}"

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


@lru_cache(maxsize=None)
def _phi_terms(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """deg Phi_m and its nonzero lower coefficients as (j - deg, c_j).

    x^i = -sum c_j x^(i - deg + j) mod Phi_m, so a step of the remainder loop
    touches only these offsets: 72 lower terms at m = 930, 16 at 272.  The
    loop makes (m - deg) such steps, which prices it against packed division.
    """
    phi = cyclotomic_poly(m)
    d = len(phi) - 1
    return d, tuple((j - d, c) for j, c in enumerate(phi[:d]) if c)


def _spread(x: Cyclo, M: int):
    """The coefficients of x over conductor M (a multiple of x.m), unreduced."""
    if M == x.m:
        return x.num
    stride = M // x.m
    v = [0] * M
    v[::stride] = x.num
    return v


# A product loops over the nonzero terms of its sparser operand while that
# operand has at most this many; past it, packing into ints is cheaper.
_SPARSE_TERMS = 8

# A slot of at most 8 bytes is packed through an array of 8-byte machine
# words, keeping the low bytes of each; that needs little-endian words.  At
# the 2- and 3-byte slots of most products this makes a packed product about
# twice as fast as one to_bytes/from_bytes per coefficient does.
_WORD_PACKING = sys.byteorder == "little"


def _mul_packed(a, b, terms: int) -> list[int]:
    """a * b mod x^m - 1 by Kronecker substitution, m = len(a) = len(b).

    Every coefficient of the linear product, and every folded coefficient,
    is a sum of at most `terms` (the smaller nonzero count) products a_i b_j,
    so it lies strictly inside +-2^h with h = bits(a) + bits(b) + bits(terms).
    Slots of k >= h + 2 bits hold each coefficient plus the offset 2^h, and
    the sum of two such slots, without carries.
    """
    m = len(a)
    h = (max(max(a), -min(a)).bit_length() + max(max(b), -min(b)).bit_length()
         + terms.bit_length())
    kb = (h + 9) >> 3
    k = 8 * kb
    off = 1 << h
    ones = int.from_bytes((1).to_bytes(kb, "little") * m, "little")
    prod = (_pack(a, off, kb) - off * ones) * (_pack(b, off, kb) - off * ones)
    # offset every slot of the linear product (2m slots, the last one empty),
    # then fold x^m -> 1 by adding the high half to the low half
    prod += off * ones * (1 + (1 << (k * m)))
    prod = (prod & ((1 << (k * m)) - 1)) + (prod >> (k * m))
    off2 = 2 * off
    return [c - off2 for c in _unpack(prod, m, kb)]


def _pack(v, off: int, kb: int) -> int:
    """sum (v_i + off) 256^(kb i), given 0 <= v_i + off < 256^kb."""
    if kb <= 8 and _WORD_PACKING:
        raw = array("Q", [c + off for c in v]).tobytes()
        if kb < 8:
            buf = bytearray(kb * len(v))
            for s in range(kb):
                buf[s::kb] = raw[s::8]
            raw = buf
    else:
        raw = b"".join([(c + off).to_bytes(kb, "little") for c in v])
    return int.from_bytes(raw, "little")


def _unpack(x: int, n: int, kb: int) -> list[int]:
    """The n lowest base-256^kb digits of x >= 0, least significant first."""
    buf = x.to_bytes(kb * n, "little")
    if kb <= 8 and _WORD_PACKING:
        if kb < 8:
            raw = bytearray(8 * n)
            for s in range(kb):
                raw[s::8] = buf[s::kb]
            buf = raw
        return memoryview(buf).cast("Q").tolist()
    return [int.from_bytes(buf[i:i + kb], "little") for i in range(0, kb * n, kb)]


# The remainder mod Phi_m loops while it takes fewer than this many
# multiply-adds per coefficient: m - deg Phi_m steps of one per lower term of
# Phi_m.  Past it, one packed division, whose cost grows with m, is cheaper.
_PACKED_REMAINDER = 4


@lru_cache(maxsize=32)
def _packed_divisors(m: int, kb: int) -> tuple[int, int, int, int]:
    """Phi_m and Psi_m at x = 2^k, k = 8 kb, and the slot offset 2^(k-2)
    summed over m and over deg Phi_m slots."""
    off = 1 << (8 * kb - 2)
    phi, psi = cyclotomic_poly(m), _cofactor(m)[1]
    phi_off, psi_off, off_m, off_d = [
        int.from_bytes(off.to_bytes(kb, "little") * n, "little")
        for n in (len(phi), len(psi), m, len(phi) - 1)]
    return _pack(phi, off, kb) - phi_off, _pack(psi, off, kb) - psi_off, off_m, off_d


def _rem_packed(num: list[int], m: int, d: int) -> list[int]:
    """num mod Phi_m for len(num) = m, by one packed division.

    With Psi_m = (x^m - 1)/Phi_m and num = Q Phi_m + r, num Psi_m =
    Q x^m + (r Psi_m - Q) with the second term of degree < m, so Q is the
    part of num Psi_m from x^m up, and r = num - Q Phi_m.  Every coefficient
    of num, num Psi_m, Q and r lies within +-A |Psi_m|_1 (|Phi_m|_1 + 1) + A
    for A = max |num_i|, so slots of k bits with that bound below 2^(k-2)
    hold each of them plus the offset 2^(k-2).
    """
    h = max(max(num), -min(num)) * _cofactor(m)[0]
    kb = (h.bit_length() + 9) >> 3
    off = 1 << (8 * kb - 2)
    phi, psi, off_m, off_d = _packed_divisors(m, kb)
    a = _pack(num, off, kb) - off_m
    q = (a * psi + off_m) >> (8 * kb * m)
    return [c - off for c in _unpack(a - phi * q + off_d, d, kb)] + [0] * (m - d)


def _canonicalize(m: int, num: list[int], den: int):
    if len(num) < m:
        num = num + [0] * (m - len(num))
    elif len(num) > m:
        folded = [0] * m
        for i, c in enumerate(num):
            folded[i % m] += c
        num = folded
    d, terms = _phi_terms(m)
    # remainder modulo the monic cyclotomic polynomial
    if (m - d) * len(terms) >= _PACKED_REMAINDER * m:
        num = _rem_packed(num, m, d)
    else:
        for i in range(m - 1, d - 1, -1):
            c = num[i]
            if c:
                num[i] = 0
                for s, pj in terms:
                    num[i + s] -= c * pj
    if den < 0:
        den = -den
        num = [-c for c in num]
    g = gcd(den, *num)
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
