"""
Hypergeometric character sums over a finite field.

Every series here is one Horn-type character sum in Greene's normalisation.
It is described by a list of terms (a, c, upper) over n summed characters
nu_1..nu_n and the arguments lambda_1..lambda_n:

    sum over nu_1..nu_n of  prod over upper terms (a)_(nu^c)
                          * prod over lower terms 1/(a)°_(nu^c)
                          * prod nu_i(lambda_i),

where c is an integer vector and nu^c = nu_1^c_1 ... nu_n^c_n.  With
nu_i = chi_(j_i), nu^c is chi_(c.j), so the evaluator groups the terms by c
(nu_i(lambda_i) joins the group of the unit vector e_i) and sums
prod over groups of the group's entry at c.j, over j in (Z/N)^n.

Every entry is integer data over Gauss sums (Greene 1987).  By the
reflection identity, with a(-1) = (-1)^j for a = chi_j at odd q and 1 at
even q,

    (a)_nu    = g(a nu)                * a(-1) g°(a-bar) / q,
    1/(a)°_nu = g(a-bar nu-bar) nu(-1) * a(-1) g°(a) / q,

and g°(eps) = q cancels the /q.  The right-hand factors do not depend on
nu, so they multiply the whole sum once: a sign, q^-K and K Gauss sums.
The left-hand factors give each group, at nu = chi_t, a sign and a list of
Gauss indices (g(chi_0) = 1 is left out); nu(lambda) is zeta_N^(t dlog
lambda), and nu(0) = 0 leaves no term.

The value's constant and its normalization are data too (Const): a sign,
more Gauss indices, a power of q, a root of unity zeta_N^rot and an integer
denominator such as (q - 1)^n.  A Jacobi sum in the constant is
j(eta_1..eta_k) = prod g(eta_i) * P(-1) g(P-bar) / q with P = prod eta_i
(Greene 1987; 1/g°(eps) = 1/q covers a trivial P), valid unless every
eta_i is trivial; a character value chi(x) is zeta_N^(j dlog x).

The reflection factors and the constant's Gauss sums pair off before any
product: g(chi_k) g(chi_-k) = chi_k(-1) q for k != 0 is a sign and a
power of q.  The constant of a count theorem (in varieties) carries g(chi)
for every character chi its series reads, whose reflection factor is
g(chi-bar), so there only the Jacobi sums' g(P-bar) are multiplied.

The sum is taken in Z[x]/(x^M - 1) at x = 2^W, that is in the integers
mod 2^(WM) - 1 (Kronecker substitution; Harvey 2009): each g(chi_j) is
packed once per (psi, M, W) from its raw histogram, a group's entries are
products of packed sums (cached per parameter set across lambda), a root
of unity is a rotation, and the coefficients f-hat of the iteration
transforms are packed over their common denominator D.  The constant's
Gauss sums multiply the packed sum once, its root of unity rotates it and
its sign negates it, so the numerator is one packed integer.  A
coefficient of it is at most B = the sum over surviving terms of the
product of the l1 norms of their factors, times those of the unpaired
fixed Gauss sums (q - 1 per nontrivial Gauss sum, 1 per root of unity), so
slots of W >= bits(B) + 2 bits, rounded to whole bytes, hold every signed
coefficient; the bound is exact per value and asserted on the result.  One
signed unpack and one canonicalization give the value: the numerator
over q^K D den, times q^qpow.

The set-up that no character changes (the logs of lambda, the surviving
indices, each group's column of c . j) is built once per (field, group
vectors, lambda) and shared by the characters of a table.

The conductor M is that of the surviving terms and the constant: p N if
they carry a Pochhammer factor or the constant a Gauss sum (g(chi_0) = 1
included), else N, in both cases lcm'd with the conductors of the
weights; a sum with no surviving term is Cyclo.zero() (m = 1).

The evaluator reads each term as a member (j, c, upper), a = chi_j by its
index, and checks no field.  Each series entry point builds (character, c,
upper) terms and calls _series, which is the one normalisation: the Horn
sum over n = len(lambdas) variables times 1/(1 - q)^n.

 - hgf(), the one-variable series F(a_1..a_m; b_1..b_n; lambda): every a_i
   upper and every b_j lower at c = (1,); mfn() is hgf() with the trivial
   character appended to the lower ones (classical notation);
 - lauricella(), the Appell-Lauricella families F_A/F_B/F_C/F_D in n
   variables: each parameter is one character at c = (1..1) or n characters
   at e_1..e_n (`_LAURICELLA`);
 - humbert(), the Humbert confluent families Phi_1/Phi_2/Phi_3 over
   (mu, nu): the upper characters as in `_HUMBERT`, gamma at (1, 1) and
   delta at e_1, e_2.

These entry points and shift_parameters() share one psi rule (_psi): psi
is the argument if given, else the standard psi of the first character's
field, and with neither the call raises "cannot infer the field"; every
character must live over psi's field.  lauricella() and humbert() first
check that their kind takes as many characters as given.  The four convolution ("iteration")
transforms call _horn themselves: their sum also carries the Fourier
coefficient f-hat of each character tuple, times a Jacobi or Gauss sum, a
sign and 1/N^n.

The count theorems in varieties call _horn directly, with members and a
constant read from a character's integer indices.

Also here: the discrete Fourier transform on (k*)^n with its inversion,
the right-hand sides of the iteration transforms, shift of parameters into
classical notation, and the upper/lower inverse relation, all on plain
tuples of characters.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import lcm
from operator import mul
from typing import NamedTuple

from .chars import AddChar, MulChar, enumerate_mulchars, standard_psi, trivial_char
from .cyclo import Cyclo, _pack, _spread, _unpack
from .ffield import Field
from .sums import gauss_histogram, pochhammer


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
    tuple j of character indices to a coefficient.
    """
    f = psi.field
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
    # the conductor of the surviving terms and of the constant, their common
    # denominator D and the exact bound B on the coefficients of the numerator
    M, D = lcm(N, f.p * N if terms or const.gauss else 1), 1
    if weights is not None:
        M, D = lcm(M, *(ws[k].m for k in live)), lcm(*(ws[k].den for k in live))
    fixed, sign, B = [], const.sign, [1] * len(live)
    for members, idx in zip(groups.values(), cols):
        gauss_count = [len(members)] * N  # g(chi_0) = 1 is left out
        for j, upper in members:
            gauss_count[-j % N] -= 1
            if j:
                fixed.append((-j if upper else j) % N)
                sign *= -1 if f.p != 2 and j % 2 else 1
        l1 = [(f.q - 1) ** k for k in gauss_count]
        B = [b * l1[i] for b, i in zip(B, idx)]
    qpow = const.qpow - len(fixed)  # each reflection factor carries a 1/q
    # the fixed Gauss factors, less the pairs g(chi_k) g(chi_-k) = chi_k(-1) q
    count = [0] * N
    for k in fixed + [k % N for k in const.gauss]:
        count[k] += 1
    for k in range(1, N // 2 + 1):
        pairs = count[k] // 2 if 2 * k == N else min(count[k], count[N - k])
        count[k] -= pairs
        count[N - k] -= pairs
        qpow += pairs
        sign *= -1 if f.p != 2 and k * pairs % 2 else 1
    fixed = [k for k in range(1, N) for _ in range(count[k])]
    if weights is not None:
        B = [b * D // ws[k].den * sum(map(abs, ws[k].num)) for b, k in zip(B, live)]
    B = sum(B) * (f.q - 1) ** len(fixed)
    W = (B.bit_length() + 9) // 8 * 8  # |coefficient| <= B < 2^(W - 2)
    WM = W * M
    R = (1 << WM) - 1
    ones = int.from_bytes((1).to_bytes(W // 8, "little") * M, "little")
    # the columns of entries the surviving terms read, nu(lambda) as a rotation
    terms_at = []
    for (c, members), log, idx in zip(groups.items(), logs, cols):
        row = _packed_rows(psi, M, W, tuple(sorted(members)))
        if log:  # times nu(lambda) = zeta_M^(t dlog(lambda) M/N) at nu = chi_t
            step = W * log * (M // N)
            row = [((x << b) & R) + (x >> (WM - b))
                   for x, b in zip(row, (t * step % WM for t in range(N)))]
        terms_at.append([row[i] for i in idx])
    if weights is not None:
        terms_at.append([_pack_signed(ws[k], M, W, D, ones) % R for k in live])
    acc = 0
    for xs in zip(*terms_at):
        x = xs[0]
        for y in xs[1:]:
            x *= y
            x = (x & R) + (x >> WM)
        acc += x
    acc = _reduce(acc, WM)
    g = _packed_gauss(psi, M, W) if fixed else None
    for k in fixed:
        acc *= g[k]
        acc = (acc & R) + (acc >> WM)
    b = W * (const.rot % N * (M // N))  # times zeta_N^rot
    acc = _reduce(acc, WM)
    acc = ((acc << b) & R) + (acc >> (WM - b))
    if sign < 0:
        acc = R - acc
    off = 1 << (W - 1)
    digits = [d - off for d in _unpack(_reduce(acc + off * ones, WM) % R, M, W // 8)]
    assert max(map(abs, digits)) <= B, "slot width too small"
    if qpow > 0:
        digits = [d * f.q**qpow for d in digits]
    return Cyclo(M, digits, f.q ** max(-qpow, 0) * D * const.den)


@lru_cache(maxsize=256)
def _frame(f: Field, cs: tuple, lams: tuple):
    """The part of a Horn sum's set-up that no character changes, per field,
    group vectors cs (the unit vectors first, one per lambda) and arguments:
    N, dlog(lambda_i) per group (None past the unit vectors), the surviving
    indices j (none if some lambda_i = 0) and each group's column of c . j."""
    if not all(lam in f.elements() for lam in lams):
        raise ValueError(f"arguments must be field element codes 0..{f.q - 1}; got {lams}")
    N, n = max(f.N, 1), len(lams)
    logs = tuple(f.dlog.get(lam) for lam in lams)
    live = range(N**n) if None not in logs else range(0)
    return N, logs + (None,) * (len(cs) - n), live, [_indices(c, N) for c in cs]


def _reduce(x: int, WM: int) -> int:
    """x mod 2^WM - 1 into [0, 2^WM - 1], for x >= 0."""
    while x >> WM:
        x = (x & ((1 << WM) - 1)) + (x >> WM)
    return x


def _pack_signed(w: Cyclo, M: int, W: int, D: int, ones: int) -> int:
    """D w, over conductor M, at x = 2^W: signed digits of |.| < 2^(W - 1)."""
    off, scale = 1 << (W - 1), D // w.den
    return _pack([c * scale for c in _spread(w, M)], off, W // 8) - off * ones


@lru_cache(maxsize=64)
def _indices(c: tuple, N: int) -> tuple:
    """c . j mod N for j over (Z/N)^n in itertools.product order."""
    return tuple(sum(map(mul, c, js)) % N for js in itertools.product(range(N), repeat=len(c)))


# Rows kept: a table of count theorems walks up to N^k member sets of a
# group of k members, about 250 with the slot widths they take at q = 5, and
# shares them between its arguments lambda.
@lru_cache(maxsize=256)
def _packed_rows(psi: AddChar, M: int, W: int, members: tuple) -> tuple[int, ...]:
    """A group's nu-dependent part at each nu = chi_t, mod 2^(WM) - 1: the
    product of g(a nu) over upper and g(a-bar nu-bar) nu(-1) over lower
    members (j, upper) of a = chi_j."""
    f, WM = psi.field, W * M
    N, g = max(f.N, 1), _packed_gauss(psi, M, W) if members else None
    lowers = sum(not upper for _, upper in members) if f.p != 2 else 0
    out = []
    for t in range(N):
        x = 1
        for j, upper in members:
            k = (j + t if upper else -j - t) % N
            if k:
                x = _reduce(x * g[k], WM)
        out.append((1 << WM) - 1 - x if t * lowers % 2 else x)
    return tuple(out)


@lru_cache(maxsize=64)
def _packed_gauss(psi: AddChar, M: int, W: int) -> tuple[int, ...]:
    """g(chi_j) for every j at x = 2^W over conductor M, as residues mod
    2^(WM) - 1, from the raw histogram (index 0: g = 1)."""
    f = psi.field
    N = max(f.N, 1)
    stride, R = M // (f.p * N), (1 << W * M) - 1
    out = [1]
    for j in range(1, N):
        v = [0] * M
        v[::stride] = [-h for h in gauss_histogram(MulChar(f, j), psi)]
        out.append(R - _pack(v, 0, W // 8))
    return tuple(out)


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
_LAURICELLA = {
    "A": ("1", "n", "n", "n"),
    "B": ("n", "n", "1", "n"),
    "C": ("1", "1", "n", "n"),
    "D": ("1", "n", "1", "n"),
}


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
    """f on (k*)^n  ->  f-hat on n-tuples of characters.

    f_hat(nus) = sum over unit tuples t of f(t) prod nu_i-bar(t_i).
    Keys of the output are tuples of character indices.
    """
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
        comp = alpha.inverse()
        for b in betas[:i]:
            comp = comp * b
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
        for us in itertools.product(field.units(), repeat=i):
            if kind == "i":
                args = tuple(field.div(lam, u) for lam, u in zip(lams[:i], us))
            else:
                args = tuple(field.mul(lam, u) for lam, u in zip(lams[:i], us))
            args = args + tuple(lams[i:])
            v = f_map.get(args)
            if v is None or v.is_zero():
                continue
            s = field.sub(1, _ksum(field, us))
            w = comp.eval(s)
            if w.is_zero():
                continue
            for b, u in zip(betas, us):
                w = w * (b.inverse() if kind == "i" else b).eval(u)
            total = total + v * w
        return total
    if kind == "iii":
        beta = betas[0]
        for u in field.units():
            args = tuple(field.mul(lam, u) for lam in lams[:i]) + tuple(lams[i:])
            v = f_map.get(args)
            if v is None or v.is_zero():
                continue
            w = alpha.eval(u) * (alpha.inverse() * beta).eval(field.sub(1, u))
            total = total + v * w
        return total
    if kind == "iv":
        for u in field.units():
            nu_inv = field.neg(field.inv(u))
            args = tuple(field.mul(lam, nu_inv) for lam in lams[:i]) + tuple(lams[i:])
            v = f_map.get(args)
            if v is None or v.is_zero():
                continue
            total = total + v * alpha.inverse().eval(u) * psi.eval(u)
        return total
    raise ValueError(f"unknown kind {kind!r}")


def _ksum(field: Field, xs) -> int:
    s = 0
    for x in xs:
        s = field.add(s, x)
    return s


# -- parameter transformations ---------------------------------------------


def shift_parameters(upper, lower, psi: AddChar | None = None):
    """Rewrite into classical notation (last lower character trivial).

    Returns (coefficient, twist, upper', lower') with
        F(upper; lower; lam) = coefficient * twist(lam) * F(upper'; lower'; lam).
    """
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
    and lam != 0.  Returns (lower-bar, upper-bar, lam') with

        F(upper; lower; lam) = F(lower-bar; upper-bar; lam'),  lam' = (-1)^(m-n)/lam.
    """
    m, n = len(upper), len(lower)
    if m <= n:
        raise ValueError("requires more upper than lower parameters")
    if lam == 0:
        raise ValueError("argument must be nonzero")
    f = upper[0].field
    inv = f.inv(lam)
    return (tuple(b.inverse() for b in lower), tuple(a.inverse() for a in upper),
            inv if (m - n) % 2 == 0 else f.neg(inv))
