"""
Small finite fields with discrete-log tables.

A field F_q (q = p^e) is built once, deterministically:
 - the modulus is the lexicographically smallest monic irreducible polynomial
   of degree e over F_p (ordered by the base-p code of its coefficient tuple),
 - the generator is the multiplicative generator with the smallest code,
 - full exp/dlog tables are precomputed.

Elements are plain integers: the base-p digit encoding of the representative
polynomial (code 0 is the zero element, code 1 is the unit).  Over a prime
field (e = 1) addition is integer addition mod p.  For e > 1 every operation
is a table lookup, with three more tables of O(q) entries each:

 - the Zech logarithms Z(k) = dlog(1 + g^k), so that
   a + b = g^(log a + Z(log b - log a))  (Huber, IEEE Trans. IT 1990);
   1 + g^k changes only the lowest digit of the code of g^k,
 - negation, digit by digit,
 - the absolute trace to F_p, which is F_p-linear in the digits, so it is
   fixed by its values on the basis 1, x, .., x^(e-1).

Each is built in O(q) steps.  Only the Zech table depends on the generator,
so a with_generator copy rebuilds it and shares the other two.

Extensions k_r carry a canonical embedding of the base field and the
distinguished root choices (N-th roots, additive-equation roots) used by the
variety isomorphisms.

One bound, DEFAULT_CAP = 2^20 elements, holds for every field and every
extension: a larger one is refused with a ValueError before any table is
built.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

DEFAULT_CAP = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine for desk-scale n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul_mod(a, b, modulus, p):
    """Multiply polynomials (coefficient tuples, ascending) mod a monic modulus, over F_p."""
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    e = len(modulus) - 1
    # reduce: modulus is monic of degree e
    for i in range(len(res) - 1, e - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(e):
                res[i - e + j] = (res[i - e + j] - c * modulus[j]) % p
    return _poly_trim(tuple(res[:e]))


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _poly_trim(tuple((x - y) % p for x, y in zip(a, b)))


def _poly_mod(a, b, p):
    """Remainder of a divided by a nonzero b over F_p."""
    a = list(a)
    db, lead_inv = len(b) - 1, pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and _poly_trim(tuple(a)):
        a = list(_poly_trim(tuple(a)))
        if len(a) - 1 < db:
            break
        c = (a[-1] * lead_inv) % p
        shift = len(a) - 1 - db
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
    return _poly_trim(tuple(a))


def _poly_gcd(a, b, p):
    a, b = _poly_trim(tuple(a)), _poly_trim(tuple(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_pow_mod(a, n, modulus, p):
    result = (1,)
    base = a
    while n:
        if n & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        base = _poly_mul_mod(base, base, modulus, p)
        n >>= 1
    return result


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Monic modulus of degree e is irreducible over F_p iff x^(p^e) = x mod it
    and gcd-degree conditions hold at every maximal proper subfield."""
    e = len(modulus) - 1
    if e == 1:
        return True
    x = (0, 1)
    # x^(p^e) == x
    if _poly_pow_mod(x, p**e, modulus, p) != x:
        return False
    for ell in prime_factors(e):
        # no irreducible factor may have degree dividing e/ell, so
        # gcd(x^(p^(e/ell)) - x, modulus) must be constant
        frob = _poly_pow_mod(x, p ** (e // ell), modulus, p)
        diff = _poly_sub(frob, x, p)
        if len(_poly_gcd(modulus, diff, p)) > 1:
            return False
    return True


def _code_to_poly(code: int, p: int) -> tuple[int, ...]:
    digits = []
    while code:
        digits.append(code % p)
        code //= p
    return tuple(digits)


def _poly_to_code(poly, p: int) -> int:
    code = 0
    for c in reversed(poly):
        code = code * p + c
    return code


def _check_field_size(p: int, e: int) -> int:
    """q = p^e, after checking that p is prime, e positive and q within DEFAULT_CAP."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError("e must be positive")
    q = p**e
    if q > DEFAULT_CAP:
        raise ValueError(f"field size {q} exceeds cap {DEFAULT_CAP}")
    return q


class Field:
    """F_q with q = p^e, table-driven arithmetic on integer element codes."""

    def __init__(self, p: int, e: int):
        q = _check_field_size(p, e)
        self.p = p
        self.e = e
        self.q = q
        self.N = q - 1
        self.modulus = self._find_modulus()
        self.generator = 0
        self.exp: list[int] = []
        self.dlog: dict[int, int] = {}
        self._build_tables()

    # -- construction -----------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, e = self.p, self.e
        if e == 1:
            return (0, 1)
        # iterate over monic degree-e polynomials by ascending code of the
        # lower coefficients
        for low in range(p**e):
            poly = _code_to_poly(low, p) + (0,) * (e - len(_code_to_poly(low, p)))
            cand = poly[:e] + (1,)
            if _is_irreducible(cand, p):
                return cand
        raise RuntimeError("no irreducible polynomial found")  # pragma: no cover

    def _mul_poly_codes(self, a: int, b: int) -> int:
        pa = _code_to_poly(a, self.p)
        pb = _code_to_poly(b, self.p)
        return _poly_to_code(_poly_mul_mod(pa, pb, self.modulus, self.p), self.p)

    def _order(self, a: int) -> int:
        n = self.N
        for ell in prime_factors(n):
            while n % ell == 0 and self._pow_poly(a, n // ell) == 1:
                n //= ell
        return n

    def _pow_poly(self, a: int, n: int) -> int:
        result = 1
        base = a
        while n:
            if n & 1:
                result = self._mul_poly_codes(result, base)
            base = self._mul_poly_codes(base, base)
            n >>= 1
        return result

    def _build_tables(self):
        gen = 0
        for cand in range(2, self.q):
            if self._order(cand) == self.N:
                gen = cand
                break
        if gen == 0:
            if self.q == 2:
                gen = 1
            else:  # pragma: no cover
                raise RuntimeError("no generator found")
        self._set_generator(gen)
        if self.e > 1:
            self._neg = self._neg_table()
            self._trace = self._trace_table()

    def _set_generator(self, gen: int):
        """The exp/dlog tables on gen and, for e > 1, the Zech table; the
        hash, which reads the generator, is computed here once.

        Each power is the previous one times gen: for p = 2 a shift-and-xor
        on codes (bit i is the coefficient of x^i) reduced by the modulus
        code, otherwise a product of coefficient tuples with gen's converted
        once."""
        self.generator = gen
        self._hash = hash((self.p, self.e, gen))
        p, exp = self.p, [1] * self.N
        if p == 2:
            mod, top, x = _poly_to_code(self.modulus, 2), 1 << self.e, 1
            for i in range(1, self.N):
                y, a, b = 0, x, gen
                while b:
                    if b & 1:
                        y ^= a
                    b >>= 1
                    a <<= 1
                    if a & top:
                        a ^= mod
                exp[i] = x = y
        else:
            g, x = _code_to_poly(gen, p), (1,)
            for i in range(1, self.N):
                x = _poly_mul_mod(x, g, self.modulus, p)
                exp[i] = _poly_to_code(x, p)
        self.exp = exp
        self.dlog = {c: i for i, c in enumerate(exp)}
        if self.e > 1:
            self._zech = self._zech_table()

    def _zech_table(self) -> list[int]:
        """Z[k] = dlog(1 + g^k), or -1 where 1 + g^k = 0."""
        p, dlog = self.p, self.dlog
        table = []
        for c in self.exp:
            s = c + 1 if c % p != p - 1 else c + 1 - p  # 1 + c: the lowest digit only
            table.append(dlog[s] if s else -1)
        return table

    def _neg_table(self) -> list[int]:
        """-a for every code a: -(d p^k + c) = (p - d) p^k + (-c) for c < p^k."""
        p = self.p
        table = [0]
        for _ in range(self.e):
            step = len(table)
            for d in range(1, p):
                off = (p - d) * step
                table += [off + c for c in table[:step]]
        return table

    def _trace_table(self) -> list[int]:
        """Tr(a) for every code a, from Tr(x^k) on the basis by F_p-linearity."""
        p, e, table = self.p, self.e, [0]
        for k in range(e):
            t, y = 0, p**k  # the code of x^k
            for _ in range(e):
                t = self.add(t, y)
                y = self.pow(y, p)
            step = len(table)
            for d in range(1, p):
                td = d * t
                table += [(tc + td) % p for tc in table[:step]]
        return table

    def with_generator(self, gen: int) -> "Field":
        """A copy of this field whose tables are rebuilt on another generator."""
        if self._order(gen) != self.N:
            raise ValueError(f"{gen} does not generate the multiplicative group")
        other = object.__new__(Field)
        other.__dict__.update(self.__dict__)
        other._set_generator(gen)
        return other

    def generators(self) -> list[int]:
        """All multiplicative generators, by ascending code."""
        return sorted(self.exp[i] for i in range(1, self.N) if gcd(i, self.N) == 1) if self.N > 1 else [1]

    # -- arithmetic on codes ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        la, N = self.dlog[a], self.N
        z = self._zech[(self.dlog[b] - la) % N]
        return self.exp[(la + z) % N] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.dlog[a] + self.dlog[b]) % self.N]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(-self.dlog[a]) % self.N]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if n else 1
        return self.exp[(self.dlog[a] * n) % self.N]

    def elements(self) -> range:
        return range(self.q)

    def units(self):
        return (c for c in range(1, self.q) if c in self.dlog)

    def from_int(self, n: int) -> int:
        """Embed an ordinary integer (image of 1+1+...) into the field."""
        n %= self.p
        return n  # prime subfield codes are 0..p-1

    def trace_to_prime(self, x: int) -> int:
        """Tr(x) = x + x^p + ... + x^(p^(e-1)), landing in F_p (returned as 0..p-1)."""
        if self.e == 1:
            return x
        return self._trace[x]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "modulus": list(self.modulus),
            "generator": self.generator,
        }

    def __repr__(self):
        return f"Field(q={self.q})"

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Field)
            and (self.p, self.e, self.generator) == (other.p, other.e, other.generator)
        )


class ExtensionField:
    """Degree-r extension of a base field, with its canonical embedding."""

    def __init__(self, base: Field, r: int):
        if r < 1:
            raise ValueError("extension degree must be positive")
        if base.q**r > DEFAULT_CAP:
            raise ValueError(f"extension size {base.q**r} exceeds cap {DEFAULT_CAP}")
        self.base = base
        self.r = r
        self.field = base if r == 1 else build_field(base.p, base.e * r)
        self._embed_stride = 1 if r == 1 else self._find_embed_stride()

    def _find_embed_stride(self) -> int:
        """The exponent s with embed(base generator) = gen'^s.

        s = k (q^r - 1)/(q - 1) for the least k prime to q - 1 that makes the
        map additive.  Every such power generates the subfield's unit group,
        but only a conjugate of the base generator gives a field embedding
        (k = 1 alone is not additive over F_5, for one).  A multiplicative
        map with embed(a + 1) = embed(a) + 1 for every a is additive.
        """
        base, fld = self.base, self.field
        stride = (fld.q - 1) // base.N
        for k in range(1, base.N + 1):
            if gcd(k, base.N) != 1:
                continue
            s = stride * k
            self._embed_stride = s
            if all(self.embed(base.add(a, 1)) == fld.add(self.embed(a), 1)
                   for a in base.elements()):
                return s
        raise RuntimeError("no field embedding found")  # pragma: no cover

    def embed(self, x: int) -> int:
        if self.r == 1:
            return x
        if x == 0:
            return 0
        return self.field.exp[(self.base.dlog[x] * self._embed_stride) % self.field.N]

    def __repr__(self):
        return f"ExtensionField({self.base!r}, r={self.r})"


def build_field(p: int, e: int = 1) -> Field:
    """F_(p^e): one shared object per (p, e); Field checks p, e and the size."""
    return _field(p, e)


@lru_cache(maxsize=None)
def _field(p: int, e: int) -> Field:
    return Field(p, e)


def extend(field: Field, r: int) -> ExtensionField:
    """The degree-r extension of field: one shared object per (field, r);
    ExtensionField checks r and the size."""
    return _extension(field, r)


@lru_cache(maxsize=None)
def _extension(field: Field, r: int) -> ExtensionField:
    return ExtensionField(field, r)


def build_field_q(q: int) -> Field:
    """Build F_q from a prime power q."""
    for p in prime_factors(q):
        e = 0
        n = q
        while n % p == 0:
            n //= p
            e += 1
        if n != 1:
            raise ValueError(f"{q} is not a prime power")
        return build_field(p, e)
    raise ValueError(f"{q} is not a prime power")


def canonical_nth_root(ext: ExtensionField, a: int) -> int:
    """The fixed N-th root of a nonzero base element, taken inside ext.

    Defined as gen'^(dlog(embed(a)) / N) with N = q - 1, so the root of 1 is 1.
    """
    if a == 0:
        raise ValueError("no canonical root of zero")
    N = ext.base.N
    d = ext.field.dlog[ext.embed(a)]
    if N and d % N:
        raise ValueError("discrete log not divisible by N; wrong extension degree")
    return ext.field.exp[d // N] if N else ext.embed(a)


@lru_cache(maxsize=None)
def _as_root_of_one(ext: ExtensionField) -> int:
    q = ext.base.q
    fld = ext.field
    for x in range(fld.q):
        if fld.sub(fld.pow(x, q), x) == 1:
            return x
    raise ValueError("no solution of x^q - x = 1 in this extension")


def artin_schreier_root(ext: ExtensionField, t: int) -> int:
    """r(t) with r(t)^q - r(t) = t (embedded); additive in t, via r(t) = t * r(1)."""
    if t == 0:
        return 0
    return ext.field.mul(ext.embed(t), _as_root_of_one(ext))
