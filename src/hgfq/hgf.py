"""
Hypergeometric character sums over a finite field.

Every series here is one Horn-type character sum in Greene's normalisation,
given by terms (a, c, upper) over n summed characters nu_1..nu_n and the
arguments lambda_1..lambda_n:

    sum over nu_1..nu_n of  prod over upper terms (a)_(nu^c)
                          * prod over lower terms 1/(a)°_(nu^c)
                          * prod nu_i(lambda_i),

where c is an integer vector and nu^c = nu_1^c_1 ... nu_n^c_n.  With
nu_i = chi_(j_i), nu^c is chi_(c.j), so the evaluator groups the terms by c
(nu_i(lambda_i) joins the group of the unit vector e_i) and sums the
product over groups of the group's entry at c.j, over j in (Z/N)^n.

By reflection (Greene 1987), with a(-1) = (-1)^j for a = chi_j at odd q
and 1 at even q,

    (a)_nu    = g(a nu)                * a(-1) g°(a-bar) / q,
    1/(a)°_nu = g(a-bar nu-bar) nu(-1) * a(-1) g°(a) / q,

and g°(eps) = q cancels the /q.  The right-hand (fixed) factors multiply
the whole sum once: a sign, q^-K and K Gauss sums.  The left-hand ones give
each group, at nu = chi_t, a sign and Gauss indices; nu(lambda) is
zeta_N^(t dlog lambda), and nu(0) = 0 leaves no term.  The constant and
normalization are data too (Const): a sign, more Gauss indices, a power of
q, zeta_N^rot and an integer denominator such as (q - 1)^n.  A Jacobi sum
in it is j(eta_1..eta_k) = prod g(eta_i) * P(-1) g(P-bar) / q with
P = prod eta_i, unless every eta_i is trivial (1/g°(eps) = 1/q covers a
trivial P); a character value chi(x) is zeta_N^(j dlog x).

Products of Gauss sums fold into Z[zeta_N]: for nontrivial chi_P, chi_k,
g(chi_P) g(chi_k) = j(chi_P, chi_k) g(chi_(P+k)), or chi_P(-1) q when
chi_(P+k) is trivial, so a product folded left to right is x g(chi_P) with
x in Z[zeta_N], one binary Jacobi sum per factor after the first.  Group
entries fold this way, and so do the fixed Gauss sums, with no pairing of
g(chi_k) g(chi_-k) first.  The terms are summed per tuple of their groups'
indices P, each tuple folds once, the sums land in A_P, and only the value
enters conductor p N: sum_P A_P g(chi_P) = -sum over units x of psi(x)
sum_P A_P zeta_N^(P dlog x), one block of Z[zeta_N] per zeta_p^Tr(a x).

The arithmetic is in the integers mod 2^(W Nc) - 1, Z[x]/(x^Nc - 1) at
x = 2^W (Kronecker substitution; Harvey 2009), zeta_N = x^(Nc/N) and Nc = N
lcm'd with the weights' conductors: Jacobi sums are packed from their raw
histograms (sums.jacobi_histogram), roots of unity are rotations, and the
f-hat of the iteration transforms are packed over their common denominator
D.  Up to M = 20 (q <= 5 and q = 8) the slots span M instead, and every fold
is taken whole, x g(chi_P) with g(chi_P) packed over M: a cached group
entry then lies in Q(zeta_M), and a value needs no expansion.  A
coefficient of the value is at most B = (q - 1) times the sum over
surviving terms of q per nonzero Gauss index (a raw Jacobi histogram has l1
norm q - 2) times the l1 norm of its weight, so slots of W >= bits(B) + 2
bits, in whole bytes, hold every signed coefficient; the bound is exact per
value and asserted on the result.  Where every fold is whole the bytes are
rounded up to 1, 2, 4 or 8, so that one cast unpacks them: there values are
small and many (a count table), and the unpack is a large share of each;
at larger conductors the products and blocks dominate and the width stays
as the bound gives it.  One signed unpack and one canonicalization give the
numerator over q^K D den, times sign and q^qpow.

The conductor M is p N if the surviving terms carry a Pochhammer factor or
the constant a Gauss sum (g(chi_0) = 1 included), else N, lcm'd with the
weights' conductors; a sum with no surviving term is Cyclo.zero() (m = 1).

The evaluator is a cached set-up and a per-value step.  The set-up
(_Setup, per psi and group vectors, in an lru_cache of 256) holds what no
character changes: N and each group's column of c . j over j in (Z/N)^n,
and, filled on first use per tuple of the groups' member sets (each the
sorted j of its upper members and the sorted -j of its lower ones), the
Gauss indices and sign of the reflection factors and the sum over j of the
product of the groups' l1 norms.  The per-value step (_Setup.value) takes
the member sets, the discrete logs of the arguments and the constant: it
sizes the slots from the exact bound, reads the fold of the fixed Gauss
sums and each group's cached row at its argument (_Packing.turned, the
rotation by zeta_N^(t dlog lambda) included), multiplies the rows entry by
entry (N^n packed products per group past the first), and makes one unpack,
with the assert on its digits, and one canonicalization.  The arguments'
logs are per value, not set-up: a count theorem's arguments lambda prod c_k
change with the character.

The evaluator reads each term as a member (j, c, upper), a = chi_j, and
checks no field.  Each entry point builds (character, c, upper) terms and
calls _series, the one normalisation: the Horn sum over n = len(lambdas)
variables times 1/(1 - q)^n.  hgf() is F(a_1..a_m; b_1..b_n; lambda), each
a_i upper and b_j lower at c = (1,), and mfn() appends the trivial
character to the lower ones (classical notation); lauricella() gives
F_A/F_B/F_C/F_D in n variables, each parameter one character at (1..1) or
n at e_1..e_n (_LAURICELLA); humbert() gives Phi_1/Phi_2/Phi_3 over
(mu, nu), the upper characters as in _HUMBERT, gamma at (1, 1) and delta
at e_1, e_2.  They and shift_parameters() share one psi rule (_psi): psi
is the argument if given, else the standard psi of the first character's
field (with neither, "cannot infer the field"), and every character lives
over psi's field; lauricella() and humbert() first check their character
counts.  The four convolution ("iteration") transforms call _horn
themselves, with the Fourier coefficients f-hat, a Jacobi or Gauss sum, a
sign and 1/N^n.  _horn reads (j, c, upper) members and argument codes into
the member sets and logs of the per-value step; the count theorems in
varieties, compiled once per (field, psi), compute both from a character's
slot indices and call the per-value step of their set-up directly.

Also here, on plain tuples of characters: the discrete Fourier transform on
(k*)^n and its inverse, iteration right-hand sides, shifts, inverse relation.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, reduce
from math import lcm
from operator import mul
from typing import NamedTuple

from .chars import AddChar, MulChar, enumerate_mulchars, standard_psi, trivial_char
from .cyclo import Cyclo, _pack, _spread, _unpack
from .ffield import Field
from .sums import jacobi_histogram, pochhammer


def _factor(a: MulChar, nu: MulChar, upper: bool, psi: AddChar) -> Cyclo:
    """(a)_nu for an upper term, 1/(a)°_nu for a lower one."""
    if upper:
        return pochhammer(a, nu, psi)
    # division-free: 1/(a)°_nu = (a-bar)_(nu-bar) nu(-1) by the reflection identity,
    # with nu(-1) = (-1)^j for odd q (-1 = g^(N/2)) and 1 for even q
    value = pochhammer(a.inverse(), nu.inverse(), psi)
    return -value if a.field.p != 2 and nu.j % 2 else value


@lru_cache(maxsize=None)
def _unit_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(k == i) for k in range(n)) for i in range(n))


class Const(NamedTuple):
    """sign * prod over k in gauss of g(chi_k) * q^qpow * zeta_N^rot / den.

    The constant a Horn value is multiplied by, kept as data so that it joins
    the packed sum before the one canonicalization.  Each listed index k is
    a factor g(chi_k) over conductor p N, g(chi_0) = 1 included."""

    sign: int = 1
    gauss: tuple[int, ...] = ()
    qpow: int = 0
    rot: int = 0
    den: int = 1

    def times(self, sign=1, gauss=(), qpow=0, rot=0, den=1) -> "Const":
        return Const(self.sign * sign, self.gauss + tuple(gauss), self.qpow + qpow,
                     self.rot + rot, self.den * den)

    def jacobi(self, f: Field, *js: int) -> "Const":
        """Times j(eta_1..eta_k) = prod g(eta_i) * P(-1) g(P-bar) / q with
        eta_i = chi_(j_i) over f, 0 <= j_i < N, and P = prod eta_i, unless
        every eta_i is trivial (a trivial P is covered: 1/g°(eps) = 1/q)."""
        N, P = max(f.N, 1), sum(js)
        if not any(js):
            raise ValueError("the product formula needs a nontrivial character")
        return self.times(-1 if f.p != 2 and P % 2 else 1, [*js, -P % N], -1)


ONE = Const()


def _psi(chars, psi: AddChar | None = None) -> AddChar:
    """The one psi rule: psi if given, else the standard psi of the first
    character's field; every character must live over psi's field."""
    if psi is None:
        if not chars:
            raise ValueError("cannot infer the field")
        psi = standard_psi(chars[0].field)
    if any(a.field != psi.field for a in chars):
        raise ValueError("characters over different fields")
    return psi


def _series(terms, lams, psi: AddChar | None = None) -> Cyclo:
    """The Horn sum of (character, c, upper) terms over n = len(lams)
    variables in Greene's normalisation, times 1/(1 - q)^n."""
    psi, n = _psi([a for a, _, _ in terms], psi), len(lams)
    members = [(a.j, c, upper) for a, c, upper in terms]
    return _horn(members, lams, psi, const=Const((-1) ** n, den=(psi.field.q - 1) ** n))


def _horn(terms, lams, psi: AddChar, weights=None, const: Const = ONE) -> Cyclo:
    """const times the Horn sum of the module docstring.

    terms: (j, combination vector c, upper) members, the character chi_j by
    its index 0 <= j < N over psi's field; weights, if given, maps each
    tuple j of character indices to a coefficient."""
    f = psi.field
    if not all(lam in f.elements() for lam in lams):
        raise ValueError(f"arguments must be field element codes 0..{f.q - 1}; got {tuple(lams)}")
    N, groups = max(f.N, 1), {c: ([], []) for c in _unit_vectors(len(lams))}
    for j, c, upper in terms:
        groups.setdefault(tuple(c), ([], []))[not upper].append(j if upper else -j % N)
    logs = [f.dlog.get(lam) for lam in lams]
    if None in logs:  # some lambda_i = 0: no term survives
        return Cyclo.zero()
    keys = tuple([(tuple(sorted(ups)), tuple(sorted(bars))) for ups, bars in groups.values()])
    return _setup(psi, tuple(groups)).value(keys, logs, const, weights)


class _Setup:
    """The part of a Horn sum that no character changes, per (psi, group
    vectors cs), the unit vectors first (module docstring): N, each group's
    column of c . j over j in (Z/N)^n, and shapes[keys], filled on first use
    per tuple of the groups' member sets (each the sorted indices j of its
    upper members and the sorted -j of its lower ones): the Gauss indices
    and sign of the reflection factors, the sum over j of the product of
    the groups' l1 norms, and whether any group has a member (keeps 1024)."""

    def __init__(self, psi: AddChar, cs: tuple):
        f = psi.field
        self.psi, self.q, self.p, self.n = psi, f.q, f.p, len(cs[0])
        self.N = N = max(f.N, 1)
        js = list(itertools.product(range(N), repeat=self.n))
        self.cols = [tuple(sum(map(mul, c, j)) % N for j in js) for c in cs]
        self.shapes, self.zeros = _Table(self._shape, 1024), [0] * (len(cs) - self.n)

    def _shape(self, keys: tuple) -> tuple[list, int, int, bool]:
        N, odd, fixed, sign = self.N, self.p != 2, [], 1
        for ups, bars in keys:
            fixed += [-j % N for j in ups if j] + [-b % N for b in bars if b]
            sign *= -1 if odd and sum(ups + bars) % 2 else 1
        return fixed, sign, sum(self._norms(keys)), any(map(any, keys))

    def _norms(self, keys: tuple) -> list[int]:
        """Per index j, the product of the groups' l1 norms q^(Gauss sums)."""
        N, q, norms = self.N, self.q, [1] * len(self.cols[0])
        for (ups, bars), col in zip(keys, self.cols):
            gauss_count = [len(ups) + len(bars)] * N  # g(chi_0) = 1 is left out
            for k in [-j % N for j in ups] + [b % N for b in bars]:
                gauss_count[k] -= 1
            l1 = [q**k for k in gauss_count]
            norms = [b * l1[i] for b, i in zip(norms, col)]
        return norms

    def value(self, keys, logs, const: Const = ONE, weights=None) -> Cyclo:
        """const times the sum with the member sets keys, one per group, at
        arguments of discrete logs logs (a list, one per unit vector);
        weights as for _horn."""
        N, q, p, cols = self.N, self.q, self.p, self.cols
        fixed, sign, B, terms = self.shapes[keys]
        Nc, D = N, 1  # conductors Nc (coefficients), weights' denominator D
        if weights is not None:
            ws = [weights[js] for js in itertools.product(range(N), repeat=self.n)]
            live = [k for k in range(len(ws)) if not ws[k].is_zero()]
            if not live:
                return Cyclo.zero()
            ws, cols = [ws[k] for k in live], [[col[k] for k in live] for col in cols]
            Nc, D = lcm(N, *(w.m for w in ws)), lcm(*(w.den for w in ws))
            norms = self._norms(keys)
            B = sum(norms[k] * D // w.den * sum(map(abs, w.num)) for k, w in zip(live, ws))
        M = lcm(Nc, p * N) if terms or const.gauss else Nc
        if M <= _WHOLE:
            Nc = M
        fixed, sign = [k % N for k in const.gauss] + fixed, sign * const.sign
        qpow = const.qpow + len(const.gauss) - len(fixed)  # each reflection factor carries a 1/q
        B = B * q ** (len(fixed) - fixed.count(0)) * (q - 1)
        kb = (B.bit_length() + 9) // 8  # |coefficient| <= B < 2^(W - 2), W = 8 kb
        if kb < 8 and M <= _WHOLE:  # a machine word unpacks in one cast (module docstring)
            kb = 1 << (kb - 1).bit_length()
        W = 8 * kb
        pk = _packing(self.psi, Nc, W)
        R, WN, off = pk.R, W * Nc, 1 << (W - 1)
        # the fixed Gauss sums fold to F g(chi_Pf), times zeta_N^rot
        F, Pf = pk.folds[tuple(sorted(fixed))]
        b = W * (const.rot % N * (Nc // N))
        F = ((F << b) & R) + (F >> (WN - b))
        # per term, the product of its groups' coefficients and their Gauss indices
        xs, Ps = None, []
        for key, log, idx in zip(keys, logs + self.zeros, cols):
            row, ks = pk.turned[key, log]
            ys = [row[i] for i in idx]
            xs = ys if xs is None else [((z := x * y) & R) + (z >> WN) for x, y in zip(xs, ys)]
            if not pk.whole:
                Ps.append([ks[i] for i in idx])
        if weights is not None:  # D w over Nc, signed digits
            ys = [_pack([c * (D // w.den) for c in _spread(w, Nc)], off, kb) - pk.offs for w in ws]
            xs = [((z := x * (y % R)) & R) + (z >> WN) for x, y in zip(xs, ys)]
        if pk.whole:  # every fold is whole, P = 0
            blocks = [sum(xs)]
        else:  # the terms summed per tuple (Pf, P_1..), each tuple folded once
            sums, A = {}, [0] * N
            for x, key in zip(xs, zip(itertools.repeat(Pf), *Ps)):
                sums[key] = sums.get(key, 0) + x
            for key, x in sums.items():
                y, P = pk.folds[key]
                A[P] += ((x & R) + (x >> WN)) * y
            # sum_P A_P g(chi_P) as blocks over Z[zeta_Nc], block s at zeta_p^s
            blocks = [sum(map(mul, A, col)) for col in pk.blocks] if any(A[1:]) else A[:1]
        if F != 1:
            blocks = [((x & R) + (x >> WN)) * F for x in blocks]
        y = sum([((x & R) + (x >> WN) + pk.offs) % R << WN * s for s, x in enumerate(blocks)])
        digits = _unpack(y, Nc * len(blocks), kb)
        assert off - B <= min(digits) and max(digits) <= off + B, "slot width too small"
        scale, den = sign * q ** max(qpow, 0), q ** max(-qpow, 0) * D * const.den
        if len(blocks) == 1:  # in Z[zeta_Nc]
            return Cyclo(Nc, [(d - off) * scale for d in digits], den).lift(M)
        return Cyclo(M, [(digits[k] - off) * scale for k in pk.places], den)


_setup = lru_cache(maxsize=256)(_Setup)


class _Table(dict):
    """A dict that fills a missing key with fill(key), cleared at cap entries."""

    def __init__(self, fill, cap: int):
        self.fill, self.cap = fill, cap

    def __missing__(self, key):
        if len(self) >= self.cap:
            self.clear()
        self[key] = value = self.fill(key)
        return value


class _Packing:
    """Z[x]/(x^Nc - 1) mod R = 2^(W Nc) - 1 at x = 2^W, zeta_N = x^(Nc/N), for
    one (psi, Nc, W).  Filled on first use: jacobi[P N + k] = g(chi_P) g(chi_k)
    / g(chi_(P+k)) for 0 < P, k < N; folds[ks] = (x, P) with prod g(chi_k) =
    x g(chi_P), or (x g(chi_P), 0) when p | Nc (whole); rows[members] = the
    tuples of x and P of a group's entries at nu = chi_t, the folds of g(a nu)
    over upper and g(a-bar nu-bar) nu(-1) over lower members, from a member
    set (sorted j of the upper ones, sorted -j of the lower ones);
    turned[members, L] = that row with entry t times zeta_N^(t L);
    blocks[s][P] = G_(P,s) with g(chi_P) = sum_s zeta_p^s G_(P,s) (one block
    when p | Nc); places[k] = s Nc + i for zeta_(p Nc)^k = zeta_p^s
    zeta_Nc^i.  A count table walks up to N^k member sets of a group of k
    members, about 250 rows at q = 5 (folds, rows and turned keep 1024
    each)."""

    def __init__(self, psi: AddChar, Nc: int, W: int):
        self.psi, self.N, self.Nc, self.W = psi, max(psi.field.N, 1), Nc, W
        self.R, self.whole = (1 << W * Nc) - 1, Nc % psi.field.p == 0
        self.ones = int.from_bytes((1).to_bytes(W // 8, "little") * Nc, "little")
        self.offs = (1 << W - 1) * self.ones  # the offset 2^(W - 1) in every slot
        self.jacobi = _Table(self._jacobi, self.N**2)
        self.folds, self.rows = _Table(self._fold, 1024), _Table(self._row, 1024)
        self.turned = _Table(self._turned, 1024)

    def _jacobi(self, key: int) -> int:
        f, (P, k) = self.psi.field, divmod(key, self.N)
        if P + k == self.N:
            return (-f.q if f.p != 2 and P % 2 else f.q) % self.R
        step = self.W * (self.Nc // self.N)
        return sum(h << step * e for e, h in enumerate(jacobi_histogram(f, P, k))) % self.R

    def _fold(self, ks: tuple) -> tuple[int, int]:
        N, x, P = self.N, 1, 0
        for k in ks:
            if k % N and P:
                x = x * self.jacobi[P * N + k % N] % self.R
            P = (P + k) % N
        if self.whole and P:
            return x * self.blocks[0][P] % self.R, 0
        return x, P

    def _row(self, members: tuple) -> tuple[tuple, tuple]:
        ups, bars = members
        lowers = len(bars) if self.psi.field.p != 2 else 0
        # folded in (j, upper) order, lower before upper at equal j
        members = sorted([(j, True) for j in ups] + [(-b % self.N, False) for b in bars])
        folds = [self._fold([j + t if upper else -j - t for j, upper in members])
                 for t in range(self.N)]
        return (tuple([self.R - x if t * lowers % 2 else x for t, (x, _) in enumerate(folds)]),
                tuple([P for _, P in folds]))

    def _turned(self, key: tuple) -> tuple[tuple, tuple]:
        (members, L), N = key, self.N
        row, Ps = self.rows[members]
        if L:  # entry t times nu(lambda) = zeta_N^(t L) at nu = chi_t
            R, WN, step = self.R, self.W * self.Nc, self.W * (self.Nc // N)
            shifts = [step * (t * L % N) for t in range(N)]
            row = tuple([((x << b) & R) + (x >> (WN - b)) for x, b in zip(row, shifts)])
        return row, Ps

    @cached_property
    def blocks(self) -> tuple:
        f, a, N, Nc, W = self.psi.field, self.psi.a, self.N, self.Nc, self.W
        cols = [[0] * N for _ in range(1 if self.whole else f.p)]
        for L in range(N):  # -psi(g^L) zeta_N^(P L) at s = Tr(a g^L)
            s = f.trace_to_prime(f.mul(a, f.exp[L]))
            col, e = (cols[0], s * Nc // f.p) if self.whole else (cols[s], 0)
            for P in range(N):
                col[P] += 1 << W * ((P * L * (Nc // N) + e) % Nc)
        return tuple(tuple(self.R - x for x in col) for col in cols)

    @cached_property
    def places(self) -> tuple[int, ...]:
        p, Nc = self.psi.field.p, self.Nc
        u, v = pow(Nc, -1, p), pow(p, -1, Nc)
        return tuple(k * u % p * Nc + k * v % Nc for k in range(p * Nc))


_packing = lru_cache(maxsize=32)(_Packing)

# Up to this conductor M every fold is taken whole (module docstring): small
# sums are overhead-bound, and whole rows spare each value its p blocks.
_WHOLE = 20


def hgf(upper, lower, lam, psi: AddChar | None = None) -> Cyclo:
    """The one-variable sum F(upper; lower; lam) at lam (field element code)."""
    return _series([(a, (1,), True) for a in upper] + [(b, (1,), False) for b in lower],
                   (lam,), psi)


def mfn(upper, lower, lam, psi: AddChar | None = None) -> Cyclo:
    """Classical notation: hgf with the trivial character appended to lower."""
    psi = _psi([*upper, *lower], psi)
    return hgf(upper, [*lower, trivial_char(psi.field)], lam, psi)


# Per kind, whether alpha, beta (upper) and gamma, delta (lower) are one
# character at c = (1..1) ("1") or n characters at c = e_1..e_n ("n").
_LAURICELLA = {"A": ("1", "n", "n", "n"), "B": ("n", "n", "1", "n"),
               "C": ("1", "1", "n", "n"), "D": ("1", "n", "1", "n")}


def lauricella(kind, alpha, beta, gamma, delta, lams, psi=None) -> Cyclo:
    """F_kind(alpha; beta; gamma; delta; lams) in n = len(delta) variables,
    each parameter a tuple of as many characters as _LAURICELLA gives."""
    chars, lams = (tuple(alpha), tuple(beta), tuple(gamma), tuple(delta)), tuple(lams)
    if not any(chars):
        raise ValueError("no characters given")
    if kind not in _LAURICELLA:
        raise ValueError(f"unknown kind {kind!r}")
    shape, n = _LAURICELLA[kind], len(chars[3])
    counts = [len(c) for c in chars]
    if n < 1 or counts != [1 if s == "1" else n for s in shape]:
        names = ("alpha", "beta", "gamma", "delta")
        want = ", ".join(f"{s} {x}" for s, x in zip(shape, names))
        got = ", ".join(f"{k} {x}" for k, x in zip(counts, names))
        raise ValueError(f"F_{kind} takes {want} characters with n = len(delta) >= 1; got {got}")
    if len(lams) != n:
        raise ValueError("wrong number of arguments")
    terms = []
    for group, s, upper in zip(chars, shape, (True, True, False, False)):
        cs = [(1,) * n] if s == "1" else _unit_vectors(n)
        terms += [(a, c, upper) for a, c in zip(group, cs)]
    return _series(terms, lams, psi)


# Per kind, the combinations of (mu, nu) of the upper characters; gamma sits
# at (1, 1) and delta_1, delta_2 at (1, 0), (0, 1) in every kind.
_HUMBERT = {1: ((1, 1), (1, 0)), 2: ((1, 0), (0, 1)), 3: ((1, 0),)}


def humbert(kind, upper, gamma, delta, lam1, lam2, psi=None) -> Cyclo:
    """Phi_kind(upper; gamma; delta; lam1, lam2): upper is (alpha, beta) for
    Phi_1, (beta, beta') for Phi_2 and (beta,) for Phi_3."""
    if kind not in _HUMBERT:
        raise ValueError(f"unknown kind {kind}")
    cs, upper, delta = _HUMBERT[kind], tuple(upper), tuple(delta)
    if len(upper) != len(cs) or len(delta) != 2:
        raise ValueError(f"Phi_{kind} takes {len(cs)} upper and 2 delta characters; "
                         f"got {len(upper)} and {len(delta)}")
    terms = ([(a, c, True) for a, c in zip(upper, cs)] + [(gamma, (1, 1), False)]
             + [(d, c, False) for d, c in zip(delta, _unit_vectors(2))])
    return _series(terms, (lam1, lam2), psi)


# -- discrete Fourier transform -------------------------------------------


def dft(f_map: dict, field: Field, n: int) -> dict:
    """f on (k*)^n -> f-hat on n-tuples of characters, keyed by their indices:
    f_hat(nus) = sum over unit tuples t of f(t) prod nu_i-bar(t_i)."""
    out = {}
    chars = enumerate_mulchars(field)
    for nus in itertools.product(chars, repeat=n):
        total = Cyclo.zero()
        for ts, v in f_map.items():
            w = v
            for nu, t in zip(nus, ts):
                w = w * nu.inverse().eval(t)
            total = total + w
        out[tuple(nu.j for nu in nus)] = total
    return out


def idft(fhat: dict, field: Field, n: int) -> dict:
    """Inverse transform: f(lams) = 1/(q-1)^n sum f_hat(nus) prod nu_i(lam_i)."""
    out = {}
    chars = enumerate_mulchars(field)
    for ts in itertools.product(field.units(), repeat=n):
        total = Cyclo.zero()
        for nus in itertools.product(chars, repeat=n):
            w = fhat[tuple(nu.j for nu in nus)]
            for nu, t in zip(nus, ts):
                w = w * nu.eval(t)
            total = total + w
        out[ts] = total / (field.N**n)
    return out


# -- the four convolution transforms ---------------------------------------


def iteration_lhs(kind, fhat, field, n, i, alpha, betas, lams, psi=None):
    """Left-hand side of the chosen convolution identity, from f-hat."""
    psi = psi or standard_psi(field)
    if len(lams) != n:
        raise ValueError("wrong number of arguments")
    prod_i = (1,) * i + (0,) * (n - i)
    firsts = list(zip(betas[:i], _unit_vectors(n)))
    if kind in ("i", "ii"):  # kind ii: kind i with upper and lower swapped, etas conjugated
        terms = [(alpha, prod_i, kind == "i")] + [(b, c, kind == "ii") for b, c in firsts]
        comp = reduce(mul, betas[:i], alpha.inverse())
        if comp.is_trivial():
            raise ValueError("degenerate: alpha-bar beta_1..beta_i is trivial")
        etas, sign = (comp, *[b.inverse() for b in betas[:i]]), (-1) ** i
        if kind == "ii":
            etas = tuple(e.inverse() for e in etas)
    elif kind == "iii":
        beta = betas[0]
        terms = [(alpha, prod_i, True), (beta, prod_i, False)]
        if (alpha * beta.inverse()).is_trivial():
            raise ValueError("degenerate: alpha beta-bar is trivial")
        etas, sign = (alpha, alpha.inverse() * beta), -1
    elif kind == "iv":
        terms = [(alpha, prod_i, False)]
        etas, sign = (), -1
    else:
        raise ValueError(f"unknown kind {kind!r}")
    const = ONE.jacobi(psi.field, *(e.j for e in etas)) if etas else Const(gauss=(-alpha.j,))
    members = [(a.j, c, upper) for a, c, upper in terms]
    value = _horn(members, lams, _psi([a for a, _, _ in terms], psi), fhat,
                  const.times(sign, den=field.N**n))
    if value.m == 1:  # no term survives: zero over the conductor of j(etas) or g(alpha-bar)
        N = max(field.N, 1)
        return Cyclo.zero(N if etas else field.p * N)
    return value


def iteration_rhs(kind, f_map, field, n, i, alpha, betas, lams, psi=None):
    """Right-hand side: the convolution sum over units applied to f itself."""
    psi = psi or standard_psi(field)
    total = Cyclo.zero()
    if kind in ("i", "ii"):
        comp = alpha.inverse() if kind == "i" else alpha
        for b in betas[:i]:
            comp = comp * (b if kind == "i" else b.inverse())
        op = field.div if kind == "i" else field.mul
        for us in itertools.product(field.units(), repeat=i):
            v = f_map.get(tuple(op(lam, u) for lam, u in zip(lams[:i], us)) + tuple(lams[i:]))
            if v is None or v.is_zero():
                continue
            s = field.sub(1, reduce(field.add, us, 0))
            w = comp.eval(s)
            if w.is_zero():
                continue
            for b, u in zip(betas, us):
                w = w * (b.inverse() if kind == "i" else b).eval(u)
            total = total + v * w
        return total
    if kind == "iii":
        for u in field.units():
            v = f_map.get(tuple(field.mul(lam, u) for lam in lams[:i]) + tuple(lams[i:]))
            if v is not None and not v.is_zero():
                w = alpha.eval(u) * (alpha.inverse() * betas[0]).eval(field.sub(1, u))
                total = total + v * w
        return total
    if kind == "iv":
        for u in field.units():
            nu_inv = field.neg(field.inv(u))
            v = f_map.get(tuple(field.mul(lam, nu_inv) for lam in lams[:i]) + tuple(lams[i:]))
            if v is not None and not v.is_zero():
                total = total + v * alpha.inverse().eval(u) * psi.eval(u)
        return total
    raise ValueError(f"unknown kind {kind!r}")


# -- parameter transformations ---------------------------------------------


def shift_parameters(upper, lower, psi: AddChar | None = None):
    """Rewrite into classical notation (last lower character trivial):
    (coefficient, twist, upper', lower') with
    F(upper; lower; lam) = coefficient * twist(lam) * F(upper'; lower'; lam)."""
    psi = _psi([*upper, *lower], psi)
    f = psi.field
    last = lower[-1] if lower else trivial_char(f)
    if last.is_trivial():
        return Cyclo.integer(1), trivial_char(f), tuple(upper), tuple(lower)
    s = last.inverse()
    coef = reduce(mul, [_factor(a, s, True, psi) for a in upper]
                  + [_factor(b, s, False, psi) for b in lower])
    return (coef, s, tuple(a * s for a in upper),
            tuple(b * s for b in lower[:-1]) + (trivial_char(f),))


def inverse_relation(upper, lower, lam: int):
    """Swap conjugated lower/upper parameters; valid for more upper than lower
    and lam != 0: (lower-bar, upper-bar, lam') with F(upper; lower; lam) =
    F(lower-bar; upper-bar; lam') and lam' = (-1)^(m-n)/lam."""
    m, n = len(upper), len(lower)
    if m <= n:
        raise ValueError("requires more upper than lower parameters")
    if lam == 0:
        raise ValueError("argument must be nonzero")
    f = upper[0].field
    inv = f.inv(lam)
    return (tuple(b.inverse() for b in lower), tuple(a.inverse() for a in upper),
            inv if (m - n) % 2 == 0 else f.neg(inv))
