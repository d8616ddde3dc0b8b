"""
Multiplicative and additive characters of a small finite field.

A multiplicative character is indexed by an exponent j modulo N = q - 1
against the field's fixed generator: chi_j(gen^k) = zeta_N^(jk), with the
convention chi(0) = 0.  An additive character is indexed by a twist element
a: psi_a(x) = zeta_p^Tr(ax); psi = psi_1 is the fixed nontrivial one.

Values land in the exact cyclotomic ring (conductor N for multiplicative,
p for additive, p*N for mixed products).

char_sum is the one batch evaluator of character sums
sum over (g, c) of c * prod_i chi_i(g_i), with a MulChar or AddChar per
slot i.  Every value is a root of unity whose exponent is additive over
the slots, so the counts are gathered by exponent of zeta_M and
canonicalized once.  M is N = max(q - 1, 1) when every slot is
multiplicative, p when every slot is additive and N p when they are mixed,
the conductor of the product of the slot values.

Each slot reads its exponents from a table of q entries, cached per
(field, j, M) for chi_j and per (field, a, M) for psi_a in two lru_caches
of _TABLES_KEPT (512) tables each, so a call does no O(q) set-up once its
tables are built and each cache holds at most 512 q entries.  The kernel
of char_sum is _sum_tables, one pass over the points with one lookup per
slot; its histogram, before the one canonicalization, is _histogram, which
varieties.transport_check reads.  genhgf reads the same slot tables into
per-block exponent columns of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclo import Cyclo, zeta
from .ffield import Field


@dataclass(frozen=True)
class MulChar:
    field: Field
    j: int

    def __post_init__(self):
        object.__setattr__(self, "j", self.j % max(self.field.N, 1))

    def __call__(self, x: int) -> Cyclo:
        return self.eval(x)

    def eval(self, x: int) -> Cyclo:
        if x == 0:
            return Cyclo.zero(max(self.field.N, 1))
        return _mul_value(self.field, (self.j * self.field.dlog[x]) % max(self.field.N, 1))

    def eval_int(self, n: int) -> Cyclo:
        """Evaluate at an ordinary integer reduced into the prime field."""
        return self.eval(n % self.field.p)

    def __mul__(self, other: "MulChar") -> "MulChar":
        if other.field != self.field:
            raise ValueError("characters over different fields")
        return MulChar(self.field, self.j + other.j)

    def inverse(self) -> "MulChar":
        return MulChar(self.field, -self.j)

    conj = inverse

    def __pow__(self, n: int) -> "MulChar":
        return MulChar(self.field, self.j * n)

    def is_trivial(self) -> bool:
        return self.j == 0

    def delta(self) -> int:
        """1 if trivial, else 0."""
        return 1 if self.j == 0 else 0

    def __repr__(self):
        return f"chi_{self.j}[q={self.field.q}]"


@dataclass(frozen=True)
class AddChar:
    field: Field
    a: int

    def __call__(self, x: int) -> Cyclo:
        return self.eval(x)

    def eval(self, x: int) -> Cyclo:
        return _add_value(self.field, self.field.trace_to_prime(self.field.mul(self.a, x)))

    def is_trivial(self) -> bool:
        return self.a == 0

    def twist(self, c: int) -> "AddChar":
        """psi_a composed with multiplication by c, i.e. psi_(a*c)."""
        return AddChar(self.field, self.field.mul(self.a, c))

    def __repr__(self):
        return f"psi_{self.a}[q={self.field.q}]"


@lru_cache(maxsize=None)
def _mul_value(field: Field, k: int) -> Cyclo:
    return zeta(max(field.N, 1), k)


@lru_cache(maxsize=None)
def _add_value(field: Field, t: int) -> Cyclo:
    return zeta(field.p, t)


def char_sum(parts, points) -> Cyclo:
    """sum over (g, c) in points of c * prod_i parts[i](g[i]), in Q(zeta_M).

    parts is a tuple of MulChar and AddChar over one field, points a sequence
    of (tuple of field codes, integer count).  A point where a MulChar slot
    reads 0 adds nothing; an empty sum is Cyclo.zero().
    """
    if not points:
        return Cyclo.zero()
    f = parts[0].field
    kinds = {type(part) for part in parts}
    M = (max(f.N, 1) if MulChar in kinds else 1) * (f.p if AddChar in kinds else 1)
    tables = []
    for part in parts:
        if part.field != f:
            raise ValueError("characters over different fields")
        if isinstance(part, MulChar):
            tables.append(_mul_table(f, part.j, M))
        else:
            tables.append(_add_table(f, part.a, M))
    return _sum_tables(tables, points, M)


def _sum_tables(tables, points, M: int) -> Cyclo:
    """sum over (g, c) in points of c * zeta_M^(sum_i tables[i][g[i]]), the
    points whose exponent is negative (a slot reading chi(0) = 0) left out."""
    return Cyclo(M, _histogram(tables, points, M))


def _histogram(tables, points, M: int) -> list[int]:
    """The terms of _sum_tables counted by exponent of zeta_M, unreduced."""
    counts = [0] * M
    for g, c in points:
        e = sum(map(list.__getitem__, tables, g))
        if e >= 0:
            counts[e % M] += c
    return counts


# Exponent tables kept per cache: a slot's table depends on its field, its
# index and the conductor M, and a table of characters walks at most
# q - 1 indices (q codes) at one or two conductors per field.  The bound
# keeps the memory of each cache within 512 q entries.  The tables are
# lists, because list.__getitem__ is the fastest lookup to map over; they are
# shared between calls and only ever read.
_TABLES_KEPT = 512


@lru_cache(maxsize=_TABLES_KEPT)
def _mul_table(field: Field, j: int, M: int) -> list[int]:
    """x -> the exponent of chi_j(x) in zeta_M, for x in 0..q-1, M a multiple
    of N = max(q - 1, 1).  chi_j(0) = 0 reads -M * 2^32: a sum over fewer
    than 2^32 slots, each of the others in 0..M-1, stays negative."""
    N = max(field.N, 1)
    step, dlog = M // N, field.dlog
    return [-M << 32] + [j * dlog[x] % N * step for x in range(1, field.q)]


@lru_cache(maxsize=_TABLES_KEPT)
def _add_table(field: Field, a: int, M: int) -> list[int]:
    """x -> the exponent of psi_a(x) = zeta_p^Tr(ax) in zeta_M, for x in
    0..q-1, M a multiple of p."""
    step = M // field.p
    return [field.trace_to_prime(field.mul(a, x)) * step for x in field.elements()]


def trivial_char(field: Field) -> MulChar:
    return MulChar(field, 0)


def standard_psi(field: Field) -> AddChar:
    return AddChar(field, 1)


def enumerate_mulchars(field: Field) -> list[MulChar]:
    return [MulChar(field, j) for j in range(max(field.N, 1))]


def enumerate_addchars(field: Field) -> list[AddChar]:
    return [AddChar(field, a) for a in field.elements()]
