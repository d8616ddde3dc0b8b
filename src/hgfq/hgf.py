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
(nu_i(lambda_i) joins the group of the unit vector e_i), tabulates each
group's product once over Z/N, and sums prod over groups table_c[c.j] over
j in (Z/N)^n, skipping every j at which an entry is zero.

The callers only build term lists and normalize:

 - the one-variable series F(a_1..a_m; b_1..b_(n+1); lambda): every a_i
   upper and every b_j lower at c = (1,), times 1/(1-q);
 - the Appell-Lauricella families F_A/F_B/F_C/F_D in n variables: each
   parameter is one character at c = (1..1) or n characters at e_1..e_n
   (`_LAURICELLA`), times 1/(1-q)^n;
 - the Humbert confluent families Phi_1/Phi_2/Phi_3 over (mu, nu): the upper
   characters as in `_HUMBERT`, gamma at (1, 1) and delta at e_1, e_2,
   times 1/(1-q)^2;
 - the four convolution ("iteration") transforms, whose sum also carries
   the Fourier coefficient f-hat of each character tuple.

Also here: the discrete Fourier transform on (k*)^n with its inversion,
the right-hand sides of the iteration transforms, shift of parameters into
classical notation, and the upper/lower inverse relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import mul

from .chars import AddChar, MulChar, enumerate_mulchars, standard_psi, trivial_char
from .cyclo import Cyclo
from .ffield import Field
from .sums import gauss, jacobi, pochhammer


def _factor(a: MulChar, nu: MulChar, upper: bool, psi: AddChar) -> Cyclo:
    """(a)_nu for an upper term, 1/(a)°_nu for a lower one."""
    if upper:
        return pochhammer(a, nu, psi)
    # division-free: 1/(a)°_nu = (a-bar)_(nu-bar) nu(-1) by the reflection identity
    return pochhammer(a.inverse(), nu.inverse(), psi) * nu.eval(a.field.neg(1))


def _unit_vectors(n: int) -> list[tuple[int, ...]]:
    return [tuple(int(k == i) for k in range(n)) for i in range(n)]


def _horn(terms, lams, psi: AddChar, weights=None) -> Cyclo:
    """The Horn sum of the module docstring, unnormalized.

    terms: (character, combination vector c, upper) triples; weights, if
    given, maps each tuple j of character indices to a coefficient.
    """
    f = psi.field
    if not all(lam in f.elements() for lam in lams):
        raise ValueError(f"arguments must be field element codes 0..{f.q - 1}; got {tuple(lams)}")
    N, n = max(f.N, 1), len(lams)
    args = dict(zip(_unit_vectors(n), lams))
    groups = {c: [] for c in args}
    for a, c, upper in terms:
        groups.setdefault(tuple(c), []).append((a, upper))
    tables = [(c, _table(members, args.get(c), psi)) for c, members in groups.items()]
    total = Cyclo.zero()
    for js in itertools.product(range(N), repeat=n):
        entries = [table[sum(map(mul, c, js)) % N] for c, table in tables]
        if weights is not None:
            w = weights[js]
            entries.append(None if w.is_zero() else w)
        if all(x is not None for x in entries):
            total = total + reduce(mul, entries)
    return total


def _table(members, lam, psi: AddChar) -> list:
    """One group's product at each character chi_0..chi_(N-1); None where it is zero."""
    table = []
    for nu in enumerate_mulchars(psi.field):
        factors = [] if lam is None else [nu.eval(lam)]
        if factors and factors[0].is_zero():
            table.append(None)
            continue
        factors += [_factor(a, nu, upper, psi) for a, upper in members]
        table.append(reduce(mul, factors))
    return table


@dataclass(frozen=True)
class HgfParams:
    upper: tuple[MulChar, ...]
    lower: tuple[MulChar, ...]
    psi: AddChar

    def __post_init__(self):
        fields = {c.field for c in self.upper} | {c.field for c in self.lower} | {self.psi.field}
        if len(fields) != 1:
            raise ValueError("all characters must live over one field")

    @property
    def field(self) -> Field:
        return self.psi.field


def params(upper, lower, psi=None, classical=False) -> HgfParams:
    """Build parameters; classical=True appends the trivial lower character."""
    chars = list(upper) + list(lower)
    f = chars[0].field if chars else (psi.field if psi else None)
    if f is None:
        raise ValueError("cannot infer the field")
    psi = psi or standard_psi(f)
    lower = tuple(lower) + ((trivial_char(f),) if classical else ())
    return HgfParams(tuple(upper), lower, psi)


def hgf_eval(p: HgfParams, lam: int) -> Cyclo:
    """The one-variable hypergeometric sum at lambda (field element code)."""
    terms = [(a, (1,), True) for a in p.upper] + [(b, (1,), False) for b in p.lower]
    return _horn(terms, (lam,), p.psi) / (1 - p.field.q)


def mfn(upper, lower, lam, psi=None) -> Cyclo:
    """Classical-notation wrapper: last lower character is trivial."""
    return hgf_eval(params(upper, lower, psi, classical=True), lam)


# Per kind, whether alpha, beta (upper) and gamma, delta (lower) are one
# character at c = (1..1) ("1") or n characters at c = e_1..e_n ("n").
_LAURICELLA = {
    "A": ("1", "n", "n", "n"),
    "B": ("n", "n", "1", "n"),
    "C": ("1", "1", "n", "n"),
    "D": ("1", "n", "1", "n"),
}


@dataclass(frozen=True)
class LauricellaParams:
    kind: str  # 'A' | 'B' | 'C' | 'D'; the character counts are in _LAURICELLA
    alpha: tuple[MulChar, ...]
    beta: tuple[MulChar, ...]
    gamma: tuple[MulChar, ...]
    delta: tuple[MulChar, ...]  # n chars
    psi: AddChar

    @property
    def n(self) -> int:
        return len(self.delta)

    @property
    def field(self) -> Field:
        return self.psi.field


def _lauricella_terms(p: LauricellaParams) -> list:
    if p.kind not in _LAURICELLA:
        raise ValueError(f"unknown kind {p.kind!r}")
    shape, n = _LAURICELLA[p.kind], p.n
    chars = (p.alpha, p.beta, p.gamma, p.delta)
    counts = [len(c) for c in chars]
    if n < 1 or counts != [1 if s == "1" else n for s in shape]:
        names = ("alpha", "beta", "gamma", "delta")
        want = ", ".join(f"{s} {x}" for s, x in zip(shape, names))
        got = ", ".join(f"{k} {x}" for k, x in zip(counts, names))
        raise ValueError(f"F_{p.kind} takes {want} characters with n = len(delta) >= 1; got {got}")
    terms = []
    for group, s, upper in zip(chars, shape, (True, True, False, False)):
        cs = [(1,) * n] if s == "1" else _unit_vectors(n)
        terms += [(a, c, upper) for a, c in zip(group, cs)]
    return terms


def lauricella_eval(p: LauricellaParams, lams: tuple[int, ...]) -> Cyclo:
    terms = _lauricella_terms(p)
    if len(lams) != p.n:
        raise ValueError("wrong number of arguments")
    return _horn(terms, lams, p.psi) / (1 - p.field.q) ** p.n


def lauricella(kind, alpha, beta, gamma, delta, lams, psi=None) -> Cyclo:
    chars = list(alpha) + list(beta) + list(gamma) + list(delta)
    if not chars:
        raise ValueError("no characters given")
    psi = psi or standard_psi(chars[0].field)
    p = LauricellaParams(kind, tuple(alpha), tuple(beta), tuple(gamma), tuple(delta), psi)
    return lauricella_eval(p, tuple(lams))


# Per kind, the combinations of (mu, nu) of the upper characters; gamma sits
# at (1, 1) and delta_1, delta_2 at (1, 0), (0, 1) in every kind.
_HUMBERT = {1: ((1, 1), (1, 0)), 2: ((1, 0), (0, 1)), 3: ((1, 0),)}


@dataclass(frozen=True)
class HumbertParams:
    kind: int  # 1 | 2 | 3
    upper: tuple[MulChar, ...]  # Phi1: (alpha, beta); Phi2: (beta, beta'); Phi3: (beta,)
    gamma: MulChar
    delta: tuple[MulChar, MulChar]
    psi: AddChar

    @property
    def field(self) -> Field:
        return self.psi.field


def _humbert_terms(p: HumbertParams) -> list:
    if p.kind not in _HUMBERT:
        raise ValueError(f"unknown kind {p.kind}")
    cs = _HUMBERT[p.kind]
    if len(p.upper) != len(cs) or len(p.delta) != 2:
        raise ValueError(f"Phi_{p.kind} takes {len(cs)} upper and 2 delta characters; "
                         f"got {len(p.upper)} and {len(p.delta)}")
    return ([(a, c, True) for a, c in zip(p.upper, cs)] + [(p.gamma, (1, 1), False)]
            + [(d, c, False) for d, c in zip(p.delta, _unit_vectors(2))])


def humbert_eval(p: HumbertParams, lam1: int, lam2: int) -> Cyclo:
    return _horn(_humbert_terms(p), (lam1, lam2), p.psi) / (1 - p.field.q) ** 2


def humbert(kind, upper, gamma, delta, lam1, lam2, psi=None) -> Cyclo:
    psi = psi or standard_psi(gamma.field)
    p = HumbertParams(kind, tuple(upper), gamma, tuple(delta), psi)
    return humbert_eval(p, lam1, lam2)


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
    if kind == "i":
        terms = [(alpha, prod_i, True)] + [(b, c, False) for b, c in firsts]
        comp = alpha.inverse()
        for b in betas[:i]:
            comp = comp * b
        if comp.is_trivial():
            raise ValueError("degenerate: alpha-bar beta_1..beta_i is trivial")
        const = jacobi(comp, *[b.inverse() for b in betas[:i]])
        sign = (-1) ** i
    elif kind == "ii":
        terms = [(b, c, True) for b, c in firsts] + [(alpha, prod_i, False)]
        comp = alpha
        for b in betas[:i]:
            comp = comp * b.inverse()
        if comp.inverse().is_trivial():
            raise ValueError("degenerate: alpha-bar beta_1..beta_i is trivial")
        const = jacobi(comp, *betas[:i])
        sign = (-1) ** i
    elif kind == "iii":
        beta = betas[0]
        terms = [(alpha, prod_i, True), (beta, prod_i, False)]
        if (alpha * beta.inverse()).is_trivial():
            raise ValueError("degenerate: alpha beta-bar is trivial")
        const = jacobi(alpha, alpha.inverse() * beta)
        sign = -1
    elif kind == "iv":
        terms = [(alpha, prod_i, False)]
        const = gauss(alpha.inverse(), psi)
        sign = -1
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return (const * _horn(terms, lams, psi, fhat)).scale(sign, field.N**n)


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


def shift_parameters(p: HgfParams):
    """Rewrite into classical notation (last lower character trivial).

    Returns (coefficient, twist, classical_params) with
        F(p; lam) = coefficient * twist(lam) * F(classical_params; lam).
    """
    f = p.field
    last = p.lower[-1] if p.lower else trivial_char(f)
    if last.is_trivial():
        return Cyclo.integer(1), trivial_char(f), p
    s = last.inverse()
    coef = reduce(mul, [_factor(a, s, True, p.psi) for a in p.upper]
                  + [_factor(b, s, False, p.psi) for b in p.lower])
    upper = tuple(a * s for a in p.upper)
    lower = tuple(b * s for b in p.lower[:-1]) + (trivial_char(f),)
    return coef, s, HgfParams(upper, lower, p.psi)


def inverse_relation(p: HgfParams) -> HgfParams:
    """Swap conjugated lower/upper parameters; valid for more upper than lower.

    F(upper; lower; lam) = F(lower-bar; upper-bar; (-1)^(m-n)/lam).
    """
    m, n = len(p.upper), len(p.lower)
    if m <= n:
        raise ValueError("requires more upper than lower parameters")
    return HgfParams(
        tuple(b.inverse() for b in p.lower),
        tuple(a.inverse() for a in p.upper),
        p.psi,
    )


def inverse_argument(field: Field, m: int, n: int, lam: int) -> int:
    if lam == 0:
        raise ValueError("argument must be nonzero")
    v = field.inv(lam)
    return v if (m - n) % 2 == 0 else field.neg(v)
