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
value and asserted on the result.  One signed unpack and one
canonicalization give the numerator over q^K D den, times sign and q^qpow.

The conductor M is p N if the surviving terms carry a Pochhammer factor or
the constant a Gauss sum (g(chi_0) = 1 included), else N, lcm'd with the
weights' conductors; a sum with no surviving term is Cyclo.zero() (m = 1).
The set-up no character changes (the logs of lambda, the surviving indices,
each group's column of c . j) is cached per (field, group vectors, lambda).

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
counts.  The four convolution ("iteration") transforms and the count
theorems in varieties call _horn themselves: the transforms with the
Fourier coefficients f-hat, a Jacobi or Gauss sum, a sign and 1/N^n, the
theorems with members and a constant read from integer indices.

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
    q, p = f.q, f.p
    groups = {c: [] for c in _unit_vectors(len(lams))}
    for j, c, upper in terms:
        groups.setdefault(tuple(c), []).append((j, upper))
    N, logs, live, cols = _frame(f, tuple(groups), tuple(lams))
    if weights is not None and live:
        ws = [weights[js] for js in itertools.product(range(N), repeat=len(lams))]
        live = [k for k in live if not ws[k].is_zero()]
        cols = [[col[k] for k in live] for col in cols]
    if not live:
        return Cyclo.zero()
    # conductors Nc (coefficients) and M (value), weights' denominator D, bound B
    Nc, D = N, 1
    if weights is not None:
        Nc, D = lcm(N, *(ws[k].m for k in live)), lcm(*(ws[k].den for k in live))
    M = lcm(Nc, p * N) if terms or const.gauss else Nc
    if M <= _WHOLE:
        Nc = M
    fixed, sign, B = [k % N for k in const.gauss], const.sign, [1] * len(live)
    for members, idx in zip(groups.values(), cols):
        gauss_count = [len(members)] * N  # g(chi_0) = 1 is left out
        for j, upper in members:
            gauss_count[-j % N] -= 1
            if j:
                fixed.append((-j if upper else j) % N)
                sign *= -1 if p != 2 and j % 2 else 1
        l1 = [q**k for k in gauss_count]
        B = [b * l1[i] for b, i in zip(B, idx)]
    qpow = const.qpow + len(const.gauss) - len(fixed)  # each reflection factor carries a 1/q
    if weights is not None:
        B = [b * D // ws[k].den * sum(map(abs, ws[k].num)) for b, k in zip(B, live)]
    B = sum(B) * q ** (len(fixed) - fixed.count(0)) * (q - 1)
    W = (B.bit_length() + 9) // 8 * 8  # |coefficient| <= B < 2^(W - 2)
    pk = _packing(psi, Nc, W)
    R, WN, off, kb = pk.R, W * Nc, 1 << (W - 1), W // 8
    # the fixed Gauss sums fold to F g(chi_Pf), times zeta_N^rot
    F, Pf = pk.folds[tuple(sorted(fixed))]
    b = W * (const.rot % N * (Nc // N))
    F = ((F << b) & R) + (F >> (WN - b))
    # per term, the product of its groups' coefficients and their Gauss indices
    xs, keys = None, []
    for members, log, idx in zip(groups.values(), logs, cols):
        row, ks = pk.rows[tuple(sorted(members))]
        if log:  # times nu(lambda) = zeta_N^(t dlog lambda) at nu = chi_t
            row = [((x << b) & R) + (x >> (WN - b)) for x, b in zip(row, pk.turns[log])]
        ys = [row[i] for i in idx]
        xs = ys if xs is None else [((z := x * y) & R) + (z >> WN) for x, y in zip(xs, ys)]
        keys.append([ks[i] for i in idx])
    if weights is not None:  # D w over Nc, signed digits
        ys = [_pack([c * (D // ws[k].den) for c in _spread(ws[k], Nc)], off, kb) - off * pk.ones
              for k in live]
        xs = [((z := x * (y % R)) & R) + (z >> WN) for x, y in zip(xs, ys)]
    A = [0] * N
    if pk.whole:  # every fold is whole, P = 0
        A[0] = sum(xs)
    else:  # the terms summed per tuple (Pf, P_1..), each tuple folded once
        sums = {}
        for x, key in zip(xs, zip(itertools.repeat(Pf), *keys)):
            sums[key] = sums.get(key, 0) + x
        for key, x in sums.items():
            y, P = pk.folds[key]
            A[P] += ((x & R) + (x >> WN)) * y
    # sum_P A_P g(chi_P) as blocks over Z[zeta_Nc], block s at zeta_p^s
    blocks = [sum(map(mul, A, col)) for col in pk.blocks] if any(A[1:]) else A[:1]
    if F != 1:
        blocks = [((x & R) + (x >> WN)) * F for x in blocks]
    packed = [(((x & R) + (x >> WN) + off * pk.ones) % R).to_bytes(kb * Nc, "little")
              for x in blocks]
    digits = _unpack(int.from_bytes(b"".join(packed), "little"), Nc * len(blocks), kb)
    assert off - B <= min(digits) and max(digits) <= off + B, "slot width too small"
    scale, den = sign * q ** max(qpow, 0), q ** max(-qpow, 0) * D * const.den
    if len(blocks) == 1:  # in Z[zeta_Nc]
        return Cyclo(Nc, [(d - off) * scale for d in digits], den).lift(M)
    return Cyclo(M, [(digits[k] - off) * scale for k in pk.places], den)


@lru_cache(maxsize=256)
def _frame(f: Field, cs: tuple, lams: tuple):
    """The part of a Horn sum's set-up that no character changes, per field,
    group vectors cs (the unit vectors first, one per lambda) and arguments:
    N, dlog(lambda_i) per group (0 past the unit vectors), the surviving
    indices j (none if some lambda_i = 0) and each group's column of c . j."""
    if not all(lam in f.elements() for lam in lams):
        raise ValueError(f"arguments must be field element codes 0..{f.q - 1}; got {lams}")
    N, n = max(f.N, 1), len(lams)
    logs = tuple(f.dlog.get(lam) for lam in lams)
    live = range(N**n) if None not in logs else range(0)
    js = list(itertools.product(range(N), repeat=n))
    cols = [tuple(sum(map(mul, c, j)) % N for j in js) for c in cs]
    return N, logs + (0,) * (len(cs) - n), live, cols


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
    over upper and g(a-bar nu-bar) nu(-1) over lower members (j, upper);
    turns[L] = the shifts by which entry t times zeta_N^(t L); blocks[s][P] =
    G_(P,s) with g(chi_P) = sum_s zeta_p^s G_(P,s) (one block when p | Nc);
    places[k] = s Nc + i for zeta_(p Nc)^k = zeta_p^s zeta_Nc^i.  A count
    table walks up to N^k member sets of a group of k members, about 250 rows
    at q = 5 (folds and rows keep 1024 each)."""

    def __init__(self, psi: AddChar, Nc: int, W: int):
        self.psi, self.N, self.Nc, self.W = psi, max(psi.field.N, 1), Nc, W
        self.R, self.whole = (1 << W * Nc) - 1, Nc % psi.field.p == 0
        self.ones = int.from_bytes((1).to_bytes(W // 8, "little") * Nc, "little")
        self.jacobi = _Table(self._jacobi, self.N**2)
        self.folds, self.rows = _Table(self._fold, 1024), _Table(self._row, 1024)
        self.turns = _Table(lambda L: [W * (t * L % self.N * (Nc // self.N)) for t in range(self.N)],
                            self.N)

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
        lowers = sum(not upper for _, upper in members) if self.psi.field.p != 2 else 0
        folds = [self._fold([j + t if upper else -j - t for j, upper in members])
                 for t in range(self.N)]
        return (tuple([self.R - x if t * lowers % 2 else x for t, (x, _) in enumerate(folds)]),
                tuple([P for _, P in folds]))

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
