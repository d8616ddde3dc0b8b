"""
Multiplicative and additive characters of a small finite field.

A multiplicative character is indexed by an exponent j modulo N = q - 1
against the field's fixed generator: chi_j(gen^k) = zeta_N^(jk), with the
convention chi(0) = 0.  An additive character is indexed by a twist element
a: psi_a(x) = zeta_p^Tr(ax); psi = psi_1 is the fixed nontrivial one.

Values land in the exact cyclotomic ring (conductor N for multiplicative,
p for additive, p*N for mixed products).

Every character sum is one computation: over a support, pairs (g, c) of
field codes and counts, the sum of c * prod_i chi_i(g_i) with a MulChar or
AddChar per slot i.  Each value is a root of unity whose exponent is
additive over the slots, so the counts are gathered by exponent of zeta_M,
M the conductor of the product (N = max(q - 1, 1), p or N p), and
canonicalized once.  _Frame is that one kernel: a support's keys
transposed into one column per slot, their counts, and a memo of exponent
columns mod M (bytes when M <= 256) per group of slots, a lead slot and
then additive slots: a block of Phi_Delta (genhgf) or one slot of a
variety.  A column, at an option (the indices j of chi_j or a of psi_a at
the group's slots), is built on first use and shared by every later sum,
which adds its groups' columns and makes one pass over the keys.  char_sum
builds a frame per call, a variety one per conductor, Phi one per (field,
parts, z).  No frame reads a code 0 in a multiplicative slot: char_sum
drops such points, and the other supports have none.

Each slot reads its exponents from a table of q entries, cached per
(field, j, M) for chi_j and per (field, a, M) for psi_a in two lru_caches
of _TABLES_KEPT (512) tables each, so a column costs no O(q) set-up once
its tables are built and each cache holds at most 512 q entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import add

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

    parts is a nonempty tuple of MulChar and AddChar over one field, points
    a sequence of (tuple of field codes, one per part, integer count).  A
    point where a MulChar slot reads 0 adds nothing; an empty sum is
    Cyclo.zero(), and Cyclo.zero(M) when every point is left out.  Raises
    ValueError for no parts, parts over different fields, a point of another
    length or with a code that is not an integer in 0..q-1, and a count that
    is not an integer."""
    if not parts:
        raise ValueError("a character sum needs at least one character")
    f, n = parts[0].field, len(parts)
    if any(part.field != f for part in parts):
        raise ValueError("characters over different fields")
    if any(len(g) != n or not all(isinstance(x, int) and x in f.elements() for x in g)
           for g, _ in points):
        raise ValueError(f"every point needs {n} codes in 0..{f.q - 1}, one per character")
    if not all(isinstance(c, int) for _, c in points):
        raise ValueError("every count must be an integer")
    shape = "".join("u" if type(part) is MulChar else "a" for part in parts)
    frame = _Frame(f, _conductor(f, shape), shape,
                   [(g, c) for g, c in points if all(x or kind == "a" for x, kind in zip(g, shape))])
    return Cyclo(frame.M, frame.count([(_index(part),) for part in parts])) if points else Cyclo.zero()


def _index(part) -> int:
    """The index of a slot's character: j of chi_j, a of psi_a."""
    return part.j if type(part) is MulChar else part.a


def _conductor(field: Field, shape: str) -> int:
    """The conductor of a product of characters of the kinds in shape ("u"
    multiplicative, "a" additive): N, p or N p."""
    return (max(field.N, 1) if "u" in shape else 1) * (field.p if "a" in shape else 1)


class _Frame:
    """A support as exponent columns (see the module docstring): per slot its
    kind (shape) and codes, the keys' counts, and per group of slots (a tuple
    of slot indices, one per slot by default) a memo of columns by option."""

    def __init__(self, field: Field, M: int, shape: str, points, groups=None):
        self.field, self.M, self.shape = field, M, shape
        self.groups = groups or [(i,) for i in range(len(shape))]
        keys, self.counts = zip(*points) if points else ((), ())
        self.slots = list(zip(*keys)) or [()] * len(shape)
        self.memos = [{} for _ in self.groups]

    def column(self, k: int, option: tuple[int, ...]) -> bytes | tuple[int, ...]:
        """Group k's exponents of prod_i chi_i(x_i) in zeta_M over the keys,
        mod M, x_i being its i-th slot and chi_i the chi_j or psi_a, as that
        slot's kind says, of index option[i]; bytes when M <= 256."""
        memo = self.memos[k]
        col = memo.get(option)
        if col is None:
            f, M, col = self.field, self.M, None
            for i, x in zip(self.groups[k], option):
                exps = map((_mul_table if self.shape[i] == "u" else _add_table)(f, x, M).__getitem__,
                           self.slots[i])
                col = exps if col is None else map(add, col, exps)
            col = map(M.__rmod__, col)  # each e % M
            col = memo[option] = bytes(col) if M <= 256 else tuple(col)
        return col

    def histogram(self, exps) -> list[int]:
        """The counts of the keys gathered by exponent mod M."""
        M = self.M
        hist = [0] * M
        for e, c in zip(exps, self.counts):
            hist[e % M] += c
        return hist

    def count(self, options) -> list[int]:
        """The support's sum at one character, one option per group, counted
        by exponent of zeta_M: the histogram of its groups' columns' sum."""
        return self.histogram(reduce(partial(map, add), map(self.column, itertools.count(), options)))

    def value(self, options) -> Cyclo:
        """count as one value of Q(zeta_M); Cyclo.zero() for an empty support."""
        return Cyclo(self.M, self.count(options)) if self.counts else Cyclo.zero()


# Exponent tables kept per cache: a slot's table depends on its field, its
# index and the conductor M, and a table of characters walks at most
# q - 1 indices (q codes) at one or two conductors per field.  The bound
# keeps the memory of each cache within 512 q entries.  The tables are
# lists, because list.__getitem__ is the fastest lookup to map over; they are
# shared between calls and only ever read.
_TABLES_KEPT = 512


@lru_cache(maxsize=_TABLES_KEPT)
def _mul_table(field: Field, j: int, M: int) -> list:
    """x -> the exponent of chi_j(x) in zeta_M, for x in 0..q-1, M a multiple
    of N = max(q - 1, 1).  chi_j(0) = 0 has no exponent: entry 0 is None,
    which no frame reads (a frame has no code 0 in a multiplicative slot)."""
    N = max(field.N, 1)
    step, dlog = M // N, field.dlog
    return [None] + [j * dlog[x] % N * step for x in range(1, field.q)]


@lru_cache(maxsize=_TABLES_KEPT)
def _add_table(field: Field, a: int, M: int) -> list[int]:
    """x -> the exponent of psi_a(x) = zeta_p^Tr(ax) in zeta_M, for x in
    0..q-1, M a multiple of p."""
    step = M // field.p
    return [field.trace_to_prime(field.mul(a, x)) * step for x in field.elements()]


def trivial_char(field: Field) -> MulChar:
    return MulChar(field, 0)


@lru_cache(maxsize=64)
def standard_psi(field: Field) -> AddChar:
    """psi_1, the same object for every call on one field."""
    return AddChar(field, 1)


def enumerate_mulchars(field: Field) -> list[MulChar]:
    return [MulChar(field, j) for j in range(max(field.N, 1))]


def enumerate_addchars(field: Field) -> list[AddChar]:
    return [AddChar(field, a) for a in field.elements()]
