"""
General hypergeometric character sums attached to a partition.

For a partition (N_1 <= ... <= N_l) of n with p >= N_l, the group J(m) of
invertible truncated unit power series (embedded via the shift matrix) has
characters (alpha, psi_(a_1), ..., psi_(a_(m-1))) composed with the
log-coefficient isomorphism iota(h) = (h_0, theta_1(h), ...).  The general
sum is

    Phi(chi; z) = sum over s in k^d of chi([s z]),

where z is a d x n matrix read in blocks of N_i columns and the block value
is zero whenever its leading entry s.z_0 vanishes.

Phi depends on chi only through the log coordinates of the blocks of [s z],
so k^d is enumerated once per (field, parts, z) (_phi_histogram) into the
histogram of g = (h_0 of each block, then theta_1(h), ..., theta_(m-1)(h)
block by block) over the points with every h_0 != 0, in the slot layout of
GeneralXDz.support().  That histogram is kept as a chars._Frame, the one
kernel of every character sum, in an lru_cache of _FRAMES_KEPT (64)
entries keyed on z by value, with one group of slots per block: its lead
h_0, then its theta slots.  A block's column at its option (j, *twists) is
the exponent of chi_j(h_0) prod psi_(t_k)(theta_k(h)) in zeta_M at every
key, the twists t_k being psi.a a_k; it is built on first use and then
shared by every character at that z.  The characteristic and z are
validated inside the cached frame builder, once per key; lru_cache keeps
no exception, so a bad z raises on every call, and a non-matrix z or an
unhashable entry raises ValueError too.  This enumeration is kept apart
from GeneralXDz.support(), so that point counts checked against Phi
compare two independent computations.

phi_delta evaluates one character: its blocks' columns add up to the
exponents of chi([s z]), counted once over the keys by power of zeta_M and
canonicalized once.  phi_table evaluates the whole group at one z, in
hdelta_chars order, from the same columns: the blocks' columns are added in
itertools.product order, and equal histograms share one value; the
general closed form reads the frame too.  The symmetry and count claims of
hgfq.suites read Phi from the table.  The oracles of both are the literal
sum of chi_of_sz over k^d and the independent n_chi of GeneralXDz.

The symmetry group W combines per-block power-series substitutions mu(c)
with permutations of equal-size blocks; its contragredient action on
characters realizes the transformation formulas.  mu_matrix and
mu_matrix_prime are memoized per (field, c, m) in lru_caches of _MU_KEPT
(1024) entries and return tuples of tuples, and JmChar.act_mu per
(character, c) in one more.

The closed-form reductions express Phi for six small (d, n, partition)
shapes, and a second form of (1,1,1,2), through the one- and two-variable
hypergeometric sums.  Each is one row of _REDUCTIONS: the blocks whose
character must be nontrivial, the normalized z of the parameters, and
Phi / -(q - 1) as a Jacobi, Gauss or character-value constant times one
mfn, lauricella or humbert value.  One evaluator reads chi once and raises
ValueError unless the listed blocks are nontrivial and every additive part
is nonzero (the reductions' hypotheses), returns zero unless the block
characters multiply to the trivial character, and scales by -(q - 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import add, attrgetter, mul

from .chars import AddChar, MulChar, _conductor, _Frame, enumerate_mulchars, standard_psi, trivial_char
from .cyclo import Cyclo
from .ffield import Field
from .hgf import humbert, lauricella, mfn
from .sums import gauss, jacobi


# -- partitions ------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if list(self.parts) != sorted(self.parts):
            raise ValueError("parts must be nondecreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def l(self) -> int:
        return len(self.parts)

    def grouped(self) -> list[tuple[int, int]]:
        """[(part size, multiplicity), ...] with sizes increasing."""
        out = []
        for size in self.parts:
            if out and out[-1][0] == size:
                out[-1] = (size, out[-1][1] + 1)
            else:
                out.append((size, 1))
        return out

    def column_blocks(self) -> list[range]:
        out, start = [], 0
        for size in self.parts:
            out.append(range(start, start + size))
            start += size
        return out

    def check_char(self, field: Field):
        if field.p < self.parts[-1]:
            raise ValueError(
                f"characteristic {field.p} is smaller than the largest part {self.parts[-1]}"
            )

    def check_z(self, field: Field, z):
        """z must be a matrix of n columns with entries in the field."""
        if any(len(row) != self.n for row in z):
            raise ValueError("z must have n columns")
        if any(x not in field.elements() for row in z for x in row):
            raise ValueError(f"z entries must lie in 0..{field.q - 1}")


# -- truncated power series combinatorics ----------------------------------


def theta(field: Field, i: int, x) -> int:
    """i-th log-series coefficient of x_0 + x_1 T + ...  (requires i < p)."""
    return theta_list(field, i, x)[i - 1] if i >= 1 else 0


def theta_list(field: Field, upto: int, x) -> list[int]:
    """[theta_1, ..., theta_upto] by the Newton-style recurrence
    i*theta_i = i*X_i - sum over j < i of j*theta_j*X_(i-j), X_j = x_j/x_0."""
    if upto >= field.p:
        raise ValueError("index must be smaller than the characteristic")
    x = list(x)
    if not x or x[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    inv0 = field.inv(x[0])
    X = [0] + [field.mul(xi, inv0) for xi in x[1:]]
    while len(X) <= upto:
        X.append(0)
    th = []
    for i in range(1, upto + 1):
        acc = field.mul(field.from_int(i), X[i])
        for j in range(1, i):
            acc = field.sub(acc, field.mul(field.from_int(j), field.mul(th[j - 1], X[i - j])))
        th.append(field.mul(acc, field.inv(field.from_int(i))))
    return th


def p_poly_list(field: Field, upto: int, y) -> list[int]:
    """[p_1, ..., p_upto]: exp-series coefficients via i*p_i = sum k*y_k*p_(i-k)."""
    if upto >= field.p:
        raise ValueError("index must be smaller than the characteristic")
    y = [0] + list(y)
    while len(y) <= upto:
        y.append(0)
    ps = [1]  # p_0
    for i in range(1, upto + 1):
        acc = 0
        for k in range(1, i + 1):
            acc = field.add(acc, field.mul(field.from_int(k), field.mul(y[k], ps[i - k])))
        ps.append(field.mul(acc, field.inv(field.from_int(i))))
    return ps[1:]


def iota(field: Field, h) -> tuple:
    """(h_0, theta_1(h), ..., theta_(m-1)(h)) for h = [h_0..h_(m-1)]."""
    h = list(h)
    return (h[0], *theta_list(field, len(h) - 1, h))


def iota_inv(field: Field, a0: int, a) -> tuple:
    """[a_0, a_0 p_1(a), ..., a_0 p_(m-1)(a)]."""
    if a0 == 0:
        raise ValueError("leading coefficient must be nonzero")
    a = list(a)
    ps = p_poly_list(field, len(a), a)
    return (a0, *(field.mul(a0, pi) for pi in ps))


def series_mul(field: Field, x, y) -> tuple:
    """Truncated product of two coefficient sequences (same length kept)."""
    m = len(x)
    out = [0] * m
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj and i + j < m:
                    out[i + j] = field.add(out[i + j], field.mul(xi, yj))
    return tuple(out)


# -- characters of the block group -----------------------------------------


@dataclass(frozen=True)
class JmChar:
    """(alpha, a_1, ..., a_(m-1)) acting through the log coordinates.  Its
    hash is the dataclass hash of its fields, computed once."""

    alpha: MulChar
    a: tuple[int, ...]
    psi: AddChar

    @cached_property
    def _hash(self) -> int:
        return hash((self.alpha, self.a, self.psi))

    def __hash__(self):
        return self._hash

    @property
    def _option(self) -> tuple[int, ...]:
        """(j, t_1, ..): alpha's index and the twists t_k = psi.a a_k, so that
        psi(a_k x) = psi_1(t_k x): the block's option in the Phi frame."""
        t = self.psi.a
        return (self.alpha.j, *(self.a if t == 1 else [self.field.mul(t, ak) for ak in self.a]))

    @property
    def m(self) -> int:
        return len(self.a) + 1

    @property
    def field(self) -> Field:
        return self.alpha.field

    def eval(self, h) -> Cyclo:
        f = self.field
        h = list(h)
        v = self.alpha.eval(h[0])
        if v.is_zero() or not self.a:
            return v
        ths = theta_list(f, len(self.a), h)
        for aj, th in zip(self.a, ths):
            v = v * self.psi.eval(f.mul(aj, th))
        return v

    def act_mu(self, c) -> "JmChar":
        """The contragredient substitution action: a -> mu(c)' a, memoized
        per (character, c) in an lru_cache of _MU_KEPT (1024) entries."""
        return _act_mu(self, tuple(c))


def _dot(field: Field, row, vec) -> int:
    acc = 0
    for r, v in zip(row, vec):
        acc = field.add(acc, field.mul(r, v))
    return acc


@dataclass(frozen=True)
class HDeltaChar:
    """A character of the block group of delta, one JmChar per block.  Its
    hash is the dataclass hash of its fields, computed once."""

    delta: Partition
    blocks: tuple[JmChar, ...]

    @classmethod
    def _of_valid(cls, delta: Partition, blocks: tuple) -> "HDeltaChar":
        """The character with these blocks, known to fit delta and one field,
        built without __post_init__'s checks."""
        chi = object.__new__(cls)
        object.__setattr__(chi, "delta", delta)
        object.__setattr__(chi, "blocks", blocks)
        return chi

    @cached_property
    def _hash(self) -> int:
        return hash((self.delta, self.blocks))

    def __hash__(self):
        return self._hash

    def __post_init__(self):
        if len(self.blocks) != self.delta.l:
            raise ValueError("block count mismatch")
        f = self.blocks[0].alpha.field if self.blocks else None
        for b, size in zip(self.blocks, self.delta.parts):
            if b.m != size:
                raise ValueError("block size mismatch")
            fa, fp = b.alpha.field, b.psi.field
            if (fa is not f or fp is not f) and (fa != f or fp != f):
                raise ValueError("characters over different fields")

    @property
    def field(self) -> Field:
        return self.blocks[0].field

    def slots(self) -> tuple:
        """The block leads alpha, then psi_a twisted by each additive
        coefficient block by block: the slot layout of GeneralXDz."""
        f = self.field
        adds = (AddChar(f, t) for b in self.blocks for t in b._option[1:])
        return (*(b.alpha for b in self.blocks), *adds)

    def eval_h(self, h_blocks) -> Cyclo:
        v = Cyclo.integer(1)
        for b, h in zip(self.blocks, h_blocks):
            v = v * b.eval(h)
            if v.is_zero():
                return v
        return v


def hdelta_chars(field: Field, delta: Partition, psi: AddChar | None = None):
    """Enumerate the full character group for the partition.  Every block
    fits delta and field by construction, so the characters are built
    without HDeltaChar's checks; only psi's field is checked."""
    delta.check_char(field)
    psi = psi or standard_psi(field)
    if psi.field != field:
        raise ValueError("characters over different fields")
    per_block = [[JmChar(alpha, a, psi) for alpha in enumerate_mulchars(field)
                  for a in itertools.product(field.elements(), repeat=size - 1)]
                 for size in delta.parts]
    for combo in itertools.product(*per_block):
        yield HDeltaChar._of_valid(delta, combo)


# -- the general sum -------------------------------------------------------


def chi_of_sz(chi: HDeltaChar, s, z) -> Cyclo:
    """chi([s z]), blockwise; zero when a block's leading entry vanishes."""
    f = chi.field
    v = Cyclo.integer(1)
    for b, cols in zip(chi.blocks, chi.delta.column_blocks()):
        coeffs = [_scol(f, s, z, c) for c in cols]
        if coeffs[0] == 0:
            return Cyclo.zero()
        v = v * b.eval(coeffs)
    return v


def _scol(field: Field, s, z, col: int) -> int:
    acc = 0
    for row, sv in enumerate(s):
        acc = field.add(acc, field.mul(sv, z[row][col]))
    return acc


_OPTION = attrgetter("_option")  # a block's option, read in C


def phi_delta(chi: HDeltaChar, z) -> Cyclo:
    """Phi(chi; z) = sum over s in k^d of chi([s z]).

    The sum reads the cached frame of (field, parts, z) (_phi_frame): each
    block adds its group's exponent column at its option (JmChar._option:
    its index and its twists psi.a a_k), and the keys' counts are gathered
    by the sum's power of zeta_M and canonicalized once.  The conductor is
    that of the product of the block values: M = N p when some part exceeds
    1, else M = N, with N = max(q - 1, 1); with no point in the support the
    sum is Cyclo.zero().  chi_of_sz remains the one-point definition.
    """
    return _frame(chi.field, chi.delta.parts, z).value(map(_OPTION, chi.blocks))


def phi_table(field: Field, delta: Partition, z) -> list[Cyclo]:
    """[Phi(chi; z) for chi in hdelta_chars(field, delta)], read from the
    cached frame of (field, parts, z) that phi_delta reads.

    Every option (j, *a) of every block gets its exponent column from the
    frame, under the standard psi; the blocks' columns are added in
    itertools.product order, and each character's exponents are counted into
    one histogram over the powers of zeta_M, canonicalized once (equal
    histograms share one value).  Memory stays at the per-block columns,
    never the group size times the keys.  The conductor, the zero of an
    empty support and the ValueError of a rejected z are those of
    phi_delta."""
    frame = _frame(field, delta.parts, z)
    columns = [[frame.column(k, (j, *a)) for j in range(max(field.N, 1))
                for a in itertools.product(field.elements(), repeat=size - 1)]
               for k, size in enumerate(delta.parts)]
    out, values = [], {}
    for head in itertools.product(*columns[:-1]):
        base = list(map(sum, zip(*head))) if head else [0] * len(frame.counts)
        for col in columns[-1]:
            hist = tuple(frame.histogram(map(add, base, col)))
            value = values.get(hist)
            if value is None:
                value = values[hist] = Cyclo(frame.M, hist) if frame.counts else Cyclo.zero()
            out.append(value)
    return out


def _frame(field: Field, parts: tuple[int, ...], z) -> _Frame:
    """_phi_frame of z read as a matrix, a non-matrix z or an unhashable
    entry raising the ValueError of any other rejected z."""
    try:
        return _phi_frame(field, parts, tuple(map(tuple, z)))
    except TypeError:  # z is not a matrix, or has an unhashable entry
        raise ValueError(f"z must be a matrix of field codes 0..{field.q - 1}") from None


# Frames kept for the most recent (field, parts, z); a symmetry check
# alternates between a handful of matrices, a table walks one.
_FRAMES_KEPT = 64


@lru_cache(maxsize=_FRAMES_KEPT)
def _phi_frame(field: Field, parts: tuple[int, ...], z: tuple[tuple[int, ...], ...]) -> _Frame:
    """The chars._Frame of the points of [s z], one group of slots per
    block: its lead h_0, then its theta slots.  The characteristic and z
    are checked by _phi_histogram, once per key: lru_cache keeps no
    exception, so a rejected z raises again on every call."""
    l = len(parts)
    adds = iter(range(l, sum(parts)))
    shape = "u" * l + "a" * (sum(parts) - l)
    return _Frame(field, _conductor(field, shape), shape, _phi_histogram(field, parts, z),
                  [(k, *itertools.islice(adds, size - 1)) for k, size in enumerate(parts)])


def _phi_histogram(field: Field, parts: tuple[int, ...], z: tuple[tuple[int, ...], ...]):
    """[(g, number of s), ...] over s in k^d, with g = (h_0 of each block,
    then theta_1(h), ..., theta_(m-1)(h) block by block) for the blocks h of
    [s z], leaving out the points where some block has h_0 = 0.  The
    characteristic and z are checked first."""
    f = field
    delta = Partition(parts)
    delta.check_char(f)
    delta.check_z(f, z)
    n = delta.n
    starts = list(itertools.accumulate(parts, initial=0))
    hist = {}
    for s in itertools.product(f.elements(), repeat=len(z)):
        v = [0] * n
        for sv, row in zip(s, z):
            if sv:
                for c, x in enumerate(row):
                    if x:
                        v[c] = f.add(v[c], f.mul(sv, x))
        lead, adds = [], []
        for start, size in zip(starts, parts):
            if v[start] == 0:
                break
            lead.append(v[start])
            adds += theta_list(f, size - 1, v[start:start + size])
        else:
            g = (*lead, *adds)
            hist[g] = hist.get(g, 0) + 1
    return list(hist.items())


# -- the symmetry group ----------------------------------------------------


# Substitution matrices kept per cache; a symmetry check walks a handful of
# c-vectors per block size.
_MU_KEPT = 1024


@lru_cache(maxsize=_MU_KEPT)
def mu_matrix(field: Field, c: tuple[int, ...], m: int) -> tuple[tuple[int, ...], ...]:
    """m x m matrix of power-series power coefficients; c = (c_1..c_(m-1))."""
    if m > 1 and (len(c) != m - 1 or c[0] == 0):
        raise ValueError("need c_1 != 0 and length m-1")
    # row i = coefficients of (c_1 T + ... + c_(m-1) T^(m-1))^i, degrees 0..m-1
    rows = []
    poly = (1,) + (0,) * (m - 1)  # T^0
    base = (0,) + tuple(c)
    for i in range(m):
        rows.append(poly)
        poly = series_mul(field, poly, base)
    return tuple(rows)


@lru_cache(maxsize=_MU_KEPT)
def mu_matrix_prime(field: Field, c: tuple[int, ...], m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(row[1:] for row in mu_matrix(field, c, m)[1:])


@lru_cache(maxsize=_MU_KEPT)
def _act_mu(chi: JmChar, c: tuple[int, ...]) -> JmChar:
    f = chi.field
    new_a = tuple(_dot(f, row, chi.a) for row in mu_matrix_prime(f, c, chi.m))
    return JmChar(chi.alpha, new_a, chi.psi)


@dataclass(frozen=True)
class WDeltaElem:
    """Per equal-size group: a permutation of the blocks and one substitution
    vector c per block (written as w = diag(mu(c_1)..mu(c_p)) * block-perm)."""

    delta: Partition
    sigmas: tuple[tuple[int, ...], ...]  # one permutation (0-based tuple) per group
    cs: tuple[tuple[tuple[int, ...], ...], ...]  # per group, per block, a c-vector

    def __post_init__(self):
        groups = self.delta.grouped()
        if len(self.sigmas) != len(groups) or len(self.cs) != len(groups):
            raise ValueError("group count mismatch")
        for (size, mult), sigma, cvecs in zip(groups, self.sigmas, self.cs):
            if sorted(sigma) != list(range(mult)):
                raise ValueError("invalid permutation")
            if len(cvecs) != mult or any(len(cv) != size - 1 for cv in cvecs):
                raise ValueError("substitution vector shape mismatch")
            if size > 1 and any(cv[0] == 0 for cv in cvecs):
                raise ValueError("leading substitution coefficient must be nonzero")


def identity_w(delta: Partition) -> WDeltaElem:
    groups = delta.grouped()
    sigmas = tuple(tuple(range(mult)) for _, mult in groups)
    cs = tuple(
        tuple(((1,) + (0,) * (size - 2) if size > 1 else ()) for _ in range(mult))
        for size, mult in groups
    )
    return WDeltaElem(delta, sigmas, cs)


def w_to_matrix(field: Field, w: WDeltaElem):
    """The n x n matrix: block-diagonal over groups of diag(mu(c_j)) * perm."""
    n = w.delta.n
    mat = [[0] * n for _ in range(n)]
    offset = 0
    for (size, mult), sigma, cvecs in zip(w.delta.grouped(), w.sigmas, w.cs):
        span = size * mult
        # block permutation: block entry (r, j) = I when r == sigma(j)
        for j in range(mult):
            r = sigma[j]
            mu = mu_matrix(field, tuple(cvecs[r]), size)
            # contribution: diag(mu(c_1)..mu(c_mult)) * P~ has block (r, j) = mu(c_r)
            for a in range(size):
                for b in range(size):
                    mat[offset + r * size + a][offset + j * size + b] = mu[a][b]
        offset += span
    return mat


def h_to_matrix(field: Field, delta: Partition, h_blocks):
    """Block-diagonal matrix of upper-triangular Toeplitz blocks [h_0, h_1, ...],
    one block per part of delta, each exactly as long as its part."""
    lengths, parts = tuple(len(h) for h in h_blocks), tuple(delta.parts)
    if lengths != parts:
        raise ValueError(f"h blocks of lengths {lengths} do not match the parts {parts}")
    n = delta.n
    mat = [[0] * n for _ in range(n)]
    offset = 0
    for size, h in zip(delta.parts, h_blocks):
        for i in range(size):
            for j in range(i, size):
                mat[offset + i][offset + j] = h[j - i]
        offset += size
    return mat


def w_action_on_char(chi: HDeltaChar, w: WDeltaElem) -> HDeltaChar:
    """chi composed with transpose(w): permute equal-size blocks and apply the
    substitution action on each.  The image keeps chi's block sizes and
    field, so it is built without re-checking them."""
    groups = chi.delta.grouped()
    new_blocks = []
    idx = 0
    group_blocks = []
    for size, mult in groups:
        group_blocks.append(chi.blocks[idx : idx + mult])
        idx += mult
    for (size, mult), sigma, cvecs, blocks in zip(groups, w.sigmas, w.cs, group_blocks):
        inv = [0] * mult
        for j, sj in enumerate(sigma):
            inv[sj] = j
        for j in range(mult):
            src = blocks[inv[j]]
            new_blocks.append(src.act_mu(cvecs[j]) if size > 1 else src)
    return HDeltaChar._of_valid(chi.delta, tuple(new_blocks))


def mat_mul(field: Field, A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for t in range(inner):
            a = A[i][t]
            if a:
                for j in range(cols):
                    b = B[t][j]
                    if b:
                        out[i][j] = field.add(out[i][j], field.mul(a, b))
    return out


# -- closed-form reductions ------------------------------------------------


# Per shape, and "zpp" for the second (1,1,1,2) form: the blocks whose
# character must be nontrivial; the normalized z of the parameters; and
# Phi / -(q - 1) of the field, psi, the block characters a, the additive
# parts t (block by block) and z.
_REDUCTIONS = {
    (1, 1, 1, 1): ((0, 1),
                   lambda f, lam: [[1, 1, 1, 0], [f.neg(1), f.neg(lam), 0, 1]],
                   lambda f, psi, a, t, z: jacobi(a[0], a[3]) * mfn(
                       [a[1].inverse(), a[3]], [a[0] * a[3]], f.neg(z[1][1]), psi)),
    (1, 1, 2): ((0,),
                lambda f, lam: [[f.neg(1), 1, 0, f.neg(lam)], [1, 0, 1, 0]],
                lambda f, psi, a, t, z: jacobi(a[0], a[1]) * mfn(
                    [a[1]], [a[0] * a[1]], f.mul(t[0], f.neg(z[0][3])), psi)),
    (2, 2): ((),
             lambda f, lam: [[1, 0, 0, lam], [0, f.neg(1), 1, 0]],
             lambda f, psi, a, t, z: a[0].eval(f.neg(t[0])) * gauss(a[0].inverse(), psi) * mfn(
                 [], [a[0]], f.neg(f.mul(f.mul(t[0], t[1]), z[0][3])), psi)),
    (1, 1, 1, 1, 1): ((0, 1, 2),
                      lambda f, x, y: [[1, 1, 1, 1, 0], [f.neg(1), f.neg(x), f.neg(y), 0, 1]],
                      lambda f, psi, a, t, z: jacobi(a[0], a[4]) * lauricella(
                          "D", [a[4]], [a[1].inverse(), a[2].inverse()], [a[0] * a[4]],
                          [trivial_char(f)] * 2, (f.neg(z[1][1]), f.neg(z[1][2])), psi)),
    (1, 1, 1, 2): ((0, 1),
                   lambda f, x, y: [[f.neg(1), f.neg(x), 1, 0, f.neg(y)], [1, 1, 0, 1, 0]],
                   lambda f, psi, a, t, z: jacobi(a[0], a[2]) * humbert(
                       1, [a[2], a[1].inverse()], a[0] * a[2], [trivial_char(f)] * 2,
                       f.neg(z[0][1]), f.mul(t[0], f.neg(z[0][4])), psi)),
    (1, 2, 2): ((0,),
                lambda f, x, y: [[1, 1, 0, 0, 1], [x, 0, y, 1, 0]],
                lambda f, psi, a, t, z: a[1].eval(f.neg(1)) * a[2].inverse().eval(z[1][0])
                * jacobi(a[0], a[1]) * humbert(
                    3, [a[2]], trivial_char(f), [a[1].inverse(), trivial_char(f)],
                    f.div(f.mul(t[0], z[1][2]), z[1][0]), f.mul(f.mul(t[0], t[1]), z[1][2]), psi)),
    "zpp": ((1, 2),
            lambda f, x, y: [[1, 1, 1, 0, 1], [0, x, y, 1, 0]],
            lambda f, psi, a, t, z: a[1].eval(z[1][1]) * a[2].eval(z[1][2])
            * a[0].inverse().eval(t[0]) * gauss(a[0], psi) * humbert(
                2, [trivial_char(f)] * 2, a[0].inverse(), [a[1], a[2]],
                f.mul(t[0], z[1][1]), f.mul(t[0], z[1][2]), psi)),
}


def normalized_z(field: Field, delta: tuple[int, ...], lams: tuple[int, ...]):
    """The matrix shape used by the closed-form reductions, for the given
    parameters: one field element code for n = 4, two for n = 5."""
    delta, lams = tuple(delta), tuple(lams)
    if delta not in _REDUCTIONS:
        raise ValueError(f"unsupported shape {delta}")
    if len(lams) != sum(delta) - 3:
        raise ValueError(f"shape {delta} takes {sum(delta) - 3} parameter(s); got {lams}")
    if not all(x in field.elements() for x in lams):
        raise ValueError(f"parameters must be field element codes 0..{field.q - 1}; got {lams}")
    return _REDUCTIONS[delta][1](field, *lams)


def reduce_to_classical(chi: HDeltaChar, z) -> Cyclo:
    """The closed-form right-hand side for the six supported shapes, with z in
    the normalized shape produced by normalized_z."""
    return _evaluate(chi, z, chi.delta.parts)


def phi2_from_zpp(chi: HDeltaChar, z) -> Cyclo:
    """The alternative closed form for the (1,1,1,2) shape with z in the
    second normalized form [[1,1,1,0,1],[0,x',y',1,0]]."""
    return _evaluate(chi, z, "zpp" if chi.delta.parts == (1, 1, 1, 2) else None)


def _evaluate(chi: HDeltaChar, z, key) -> Cyclo:
    """Phi(chi; z) by the reduction _REDUCTIONS[key].  Its hypotheses: the
    listed blocks' characters are nontrivial and every additive part is
    nonzero, else ValueError; zero unless the block characters multiply to
    the trivial character."""
    if key not in _REDUCTIONS:
        raise ValueError(f"unsupported shape {chi.delta.parts}")
    need, _, value = _REDUCTIONS[key]
    a = [b.alpha for b in chi.blocks]
    t = [x for b in chi.blocks for x in b.a]
    if any(a[i].is_trivial() for i in need):
        which = ("first", "middle")[need[0]]
        count = ("character", "two characters", "three characters")[len(need) - 1]
        raise ValueError(f"reduction requires the {which} {count} nontrivial")
    if 0 in t:
        raise ValueError("reduction requires " + ("nontrivial additive parts in both blocks"
                                                  if len(t) > 1 else "a nontrivial additive part"))
    if not reduce(mul, a).is_trivial():
        return Cyclo.zero()
    f = chi.field
    return value(f, chi.blocks[0].psi, a, t, z).scale(-f.N)
