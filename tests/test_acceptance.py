"""Full acceptance suite: every library-level theorem checked end to end.

All equalities are exact (cyclotomic arithmetic, zero tolerance).  Each check
is written against a `setup(q) -> (field, psi)` factory so the whole battery
can be re-run with a different field generator and a different nontrivial
additive character; the results must be identical.
"""

import itertools
import random
from collections import Counter
from functools import lru_cache
from math import lcm

import numpy as np
import pytest

from hgfq.chars import AddChar, MulChar, enumerate_mulchars, standard_psi, trivial_char
from hgfq.cyclo import Cyclo
from hgfq.ffield import build_field, build_field_q
from hgfq.genhgf import (
    HDeltaChar,
    JmChar,
    Partition,
    WDeltaElem,
    h_to_matrix,
    hdelta_chars,
    identity_w,
    mat_mul,
    normalized_z,
    phi_delta,
    reduce_to_classical,
    theta_list,
    w_action_on_char,
    w_to_matrix,
)
from hgfq.hgf import dft, idft, iteration_lhs, iteration_rhs, mfn
from hgfq.sums import (
    gauss,
    gauss_circ,
    jacobi,
    jacobi_direct,
    jacobi_product_formula,
    pochhammer,
    pochhammer_circ,
)
from hgfq.varieties import (
    ASStar,
    FAContext,
    FDContext,
    FermatStar,
    GaussContext,
    GeneralXDz,
    GroupChar,
    Humbert1,
    Humbert3,
    KummerContext,
    LauricellaA,
    LauricellaC,
    LauricellaD,
    MXnLambda,
    Phi1Context,
    Phi3Context,
    enumerate_groupchars,
    hdelta_to_groupchar,
    n_chi_closed_form,
    reducible_decompositions,
    transport_check,
    verify_iso,
)


# -- the two setup choices ---------------------------------------------------


def _standard(q):
    f = build_field_q(q)
    return f, standard_psi(f)


@lru_cache(maxsize=None)
def _alt_field(q):
    base = build_field_q(q)
    gens = base.generators()
    return base.with_generator(gens[1]) if len(gens) > 1 else base


def _alternate(q):
    """Second-smallest generator and a nontrivial psi different from psi_1."""
    f = _alt_field(q)
    a = next((u for u in sorted(f.dlog) if u != 1), 1)
    return f, AddChar(f, a)


# -- fast batch evaluation of Phi over the full character group --------------


class _PhiFast:
    """Evaluates Phi(chi; z) for every character at once.

    The support of the s-sum is collected once per z; each character value is
    a root of unity whose exponent is additive over the blocks, so the sum is
    assembled as an integer count vector over the powers of zeta_M and only
    converted to a canonical cyclotomic coordinate vector at the end.
    """

    def __init__(self, f, parts, psi):
        self.f, self.psi = f, psi
        self.delta = Partition(parts)
        self.N = max(f.N, 1)
        self.M = lcm(self.N, f.p)
        self.R = np.array(
            [Cyclo(self.M, [1 if k == i else 0 for k in range(self.M)]).num
             for i in range(self.M)], dtype=np.int64)
        self.block_opts = [
            [(j, a) for j in range(self.N)
             for a in itertools.product(range(f.q), repeat=size - 1)]
            for size in self.delta.parts
        ]
        self.chars = []
        for combo in itertools.product(*[range(len(o)) for o in self.block_opts]):
            blocks = tuple(
                JmChar(MulChar(f, self.block_opts[b][i][0]),
                       self.block_opts[b][i][1], psi)
                for b, i in enumerate(combo))
            self.chars.append(HDeltaChar(self.delta, blocks))
        self.index = {chi: i for i, chi in enumerate(self.chars)}
        self._columns = {}

    def _support(self, z):
        f = self.f
        support = Counter()
        for s in itertools.product(f.elements(), repeat=len(z)):
            key = []
            for cols in self.delta.column_blocks():
                coeffs = []
                for c in cols:
                    acc = 0
                    for row, sv in enumerate(s):
                        acc = f.add(acc, f.mul(sv, z[row][c]))
                    coeffs.append(acc)
                if coeffs[0] == 0:
                    key = None
                    break
                key.append(tuple(coeffs))
            if key is not None:
                support[tuple(key)] += 1
        return support

    def _block_exponents(self, b, keys):
        """Exponent of every block-character option on every key, mod M."""
        return np.stack([self._column(b, key[b]) for key in keys], axis=1)

    def _column(self, b, h):
        """Exponent of every option of block b at its coefficient tuple h.

        The tuples recur across the z of one shape, so each column is
        computed once per (b, h)."""
        col = self._columns.get((b, h))
        if col is not None:
            return col
        f, M, N = self.f, self.M, self.N
        dl = f.dlog[h[0]]
        ths = theta_list(f, len(h) - 1, list(h)) if len(h) > 1 else []
        opts = self.block_opts[b]
        col = np.zeros(len(opts), dtype=np.int64)
        for oi, (j, a) in enumerate(opts):
            e = (M // N) * ((j * dl) % N)
            if a:
                acc = 0
                for aj, th in zip(a, ths):
                    acc = f.add(acc, f.mul(aj, th))
                e += (M // f.p) * f.trace_to_prime(f.mul(self.psi.a, acc))
            col[oi] = e % M
        self._columns[(b, h)] = col
        return col

    def counts(self, z):
        """(num_chars, M) integer matrix: row i counts zeta_M powers in
        Phi(chars[i]; z)."""
        support = self._support(z)
        keys = list(support)
        if not keys:
            return np.zeros((len(self.chars), self.M), dtype=np.int64)
        cnt = np.array([support[k] for k in keys], dtype=np.int64)
        total = self._block_exponents(0, keys)
        for b in range(1, self.delta.l):
            arr = self._block_exponents(b, keys)
            total = (total[:, None, :] + arr[None, :, :]).reshape(-1, len(keys))
        total %= self.M
        rows = total.shape[0]
        out = np.zeros(rows * self.M, dtype=np.int64)
        # every row's histogram at once: slot total + M * row, weighted by cnt
        np.add.at(out, (total + self.M * np.arange(rows)[:, None]).ravel(),
                  np.broadcast_to(cnt, total.shape).ravel())
        return out.reshape(rows, self.M)

    def char_exponents_on(self, key):
        """zeta_M exponent of chi evaluated blockwise at one coefficient
        tuple, for every chi."""
        total = self._block_exponents(0, [key])
        for b in range(1, self.delta.l):
            arr = self._block_exponents(b, [key])
            total = (total[:, None, :] + arr[None, :, :]).reshape(-1, 1)
        return total[:, 0] % self.M

    def canon(self, counts):
        return counts @ self.R

    def value(self, counts, i):
        return Cyclo(self.M, [int(x) for x in counts[i]])


def _rand_z(f, d, n, rng):
    return [[rng.randrange(f.q) for _ in range(n)] for _ in range(d)]


def _random_w(f, delta, rng):
    units = sorted(f.dlog)
    sigmas, cs = [], []
    for size, mult in delta.grouped():
        perm = list(range(mult))
        rng.shuffle(perm)
        sigmas.append(tuple(perm))
        cs.append(tuple(
            tuple([rng.choice(units)] + [rng.randrange(f.q) for _ in range(size - 2)])
            if size > 1 else ()
            for _ in range(mult)))
    return WDeltaElem(delta, tuple(sigmas), tuple(cs))


def _w_generators(f, delta):
    """Block-permutation transpositions plus one-parameter substitution
    elements: together they generate the full symmetry group."""
    groups = delta.grouped()

    def base_sigmas():
        return [tuple(range(mult)) for _, mult in groups]

    def base_cs():
        return [tuple(
            ((1,) + (0,) * (size - 2)) if size > 1 else ()
            for _ in range(mult))
            for size, mult in groups]

    out = [identity_w(delta)]
    for gi, (size, mult) in enumerate(groups):
        for t in range(mult - 1):
            sig = list(range(mult))
            sig[t], sig[t + 1] = sig[t + 1], sig[t]
            sigmas = base_sigmas()
            sigmas[gi] = tuple(sig)
            out.append(WDeltaElem(delta, tuple(sigmas), tuple(base_cs())))
        if size > 1:
            cs = base_cs()
            cvec = (f.generator,) + (0,) * (size - 2)
            cs[gi] = (cvec,) + cs[gi][1:]
            out.append(WDeltaElem(delta, tuple(base_sigmas()), tuple(cs)))
            for t in range(1, size - 1):
                cs = base_cs()
                cv = [1] + [0] * (size - 2)
                cv[t] = 1
                cs[gi] = (tuple(cv),) + cs[gi][1:]
                out.append(WDeltaElem(delta, tuple(base_sigmas()), tuple(cs)))
    return out


# -- criterion 1: Gauss-sum reflection ---------------------------------------


def _check_gauss_reflection(setup):
    for q in (3, 4, 5, 7):
        f, psi = setup(q)
        minus1 = f.neg(1)
        for eta in enumerate_mulchars(f):
            lhs = gauss(eta, psi) * gauss_circ(eta.inverse(), psi)
            assert lhs == eta.eval(minus1).scale(f.q), (q, eta)


# -- criterion 2: Jacobi sums equal Gauss-sum products ------------------------


def _check_jacobi_equals_gauss(setup):
    for q in (3, 4, 5, 7):
        f, psi = setup(q)
        chars = enumerate_mulchars(f)
        for e1, e2 in itertools.product(chars, repeat=2):
            assert jacobi_direct(e1, e2) == jacobi_product_formula(e1, e2, psi=psi)
    for q in (3, 4, 5):
        f, psi = setup(q)
        chars = enumerate_mulchars(f)
        for e1, e2, e3 in itertools.product(chars, repeat=3):
            assert jacobi_direct(e1, e2, e3) == jacobi_product_formula(
                e1, e2, e3, psi=psi)
    # j(eps, eps) = (1 - (1-q)^n)/q over F_3 at n = 2 is -1.
    f, _ = setup(3)
    eps = trivial_char(f)
    assert jacobi(eps, eps) == Cyclo.integer(-1)


# -- criterion 3: Pochhammer reflection --------------------------------------


def _check_pochhammer_reflection(setup):
    for q in (3, 4, 5, 7):
        f, psi = setup(q)
        minus1 = f.neg(1)
        for alpha, nu in itertools.product(enumerate_mulchars(f), repeat=2):
            lhs = pochhammer(alpha, nu, psi) * pochhammer_circ(
                alpha.inverse(), nu.inverse(), psi)
            assert lhs == nu.eval(minus1), (q, alpha, nu)


# -- criterion 4: order-zero and order-one closed forms ----------------------


def _check_low_order_closed_forms(setup):
    for q in (3, 4, 5, 7):
        f, psi = setup(q)
        units = sorted(f.dlog)
        for lam in units:
            assert mfn([], [], lam, psi) == psi.eval(f.neg(lam))
        for a in range(1, max(f.N, 1)):
            alpha = MulChar(f, a)
            for lam in units:
                lhs = mfn([alpha], [], lam, psi)
                assert lhs == alpha.inverse().eval(f.sub(1, lam)), (q, a, lam)


# -- criterion 5: the summation theorem at argument 1 ------------------------


def _check_summation_at_one(setup):
    for q in (3, 4, 5):
        f, psi = setup(q)
        chars = enumerate_mulchars(f)
        for alpha, beta, gamma in itertools.product(chars, repeat=3):
            if alpha == gamma or beta.is_trivial():
                continue
            lhs = mfn([alpha, beta], [gamma], 1, psi)
            rhs = jacobi(alpha, beta * gamma.inverse()) * jacobi(
                alpha, gamma.inverse()).invert()
            assert lhs == rhs, (q, alpha, beta, gamma)
    f, psi = setup(3)
    chi = MulChar(f, 1)
    assert mfn([chi, chi], [trivial_char(f)], 1, psi) == Cyclo.integer(-1)


# -- criterion 6: the confluent product identity -----------------------------


def _check_confluent_product(setup):
    for q in (3, 4, 5):
        f, psi = setup(q)
        chars = enumerate_mulchars(f)
        for alpha, beta in itertools.product(chars, repeat=2):
            if alpha.is_trivial() or alpha == beta:
                continue  # the identity provably fails at degenerate parameters
            for lam in sorted(f.dlog):
                lhs = psi.eval(lam) * mfn(
                    [alpha.inverse() * beta], [beta], lam, psi)
                assert lhs == mfn([alpha], [beta], f.neg(lam), psi)


# -- criteria 7 and 8: the symmetry-group action on Phi ----------------------

_PHI_GRID = [
    ((1, 1, 1, 1), (3, 4, 5)),
    ((1, 1, 2), (3, 4, 5)),
    ((2, 2), (3, 4, 5)),
    ((1, 1, 1, 2), (3, 5)),
    ((1, 2, 2), (3, 5)),
    ((1, 1, 1, 1, 1), (3, 5)),
    ((1, 3), (5, 7)),
]


def _phi_config(setup, parts, q, salt):
    f, psi = setup(q)
    pf = _PhiFast(f, parts, psi)
    rng = random.Random(1000 * q + 10 * sum(parts) + len(parts) + salt)
    zs = [_rand_z(f, 2, pf.delta.n, rng) for _ in range(20)]
    tabs = [pf.counts(z) for z in zs]
    # guard the batch evaluator against the reference implementation
    for _ in range(2):
        i, zi = rng.randrange(len(pf.chars)), rng.randrange(len(zs))
        assert pf.value(tabs[zi], i) == phi_delta(pf.chars[i], zs[zi])
    return f, pf, rng, zs, tabs


def _check_symmetry_action(setup):
    # Phi(chi o w; z) = Phi(chi; z w) for generators + 50 random w, all chi,
    # 20 random z per shape.
    for parts, qs in _PHI_GRID:
        for q in qs:
            f, pf, rng, zs, tabs = _phi_config(setup, parts, q, 0)
            canons = [pf.canon(t) for t in tabs]
            ws = _w_generators(f, pf.delta) + [
                _random_w(f, pf.delta, rng) for _ in range(50)]
            for w in ws:
                perm = np.array([pf.index[w_action_on_char(chi, w)]
                                 for chi in pf.chars])
                mw = w_to_matrix(f, w)
                for z, cz in zip(zs, canons):
                    czw = pf.canon(pf.counts(mat_mul(f, z, mw)))
                    assert np.array_equal(cz[perm], czw), (parts, q)


def _check_gl_and_h_action(setup):
    # Phi(chi; g z) = Phi(chi; z) for g in GL_2 and
    # Phi(chi; z h) = chi(h) Phi(chi; z) for block-Toeplitz h.
    for parts, qs in _PHI_GRID:
        for q in qs:
            f, pf, rng, zs, tabs = _phi_config(setup, parts, q, 1)
            canons = [pf.canon(t) for t in tabs]
            M = pf.M
            n_chars = len(pf.chars)
            for _ in range(50):
                while True:
                    g = [[rng.randrange(f.q) for _ in range(2)] for _ in range(2)]
                    det = f.sub(f.mul(g[0][0], g[1][1]), f.mul(g[0][1], g[1][0]))
                    if det:
                        break
                zi = rng.randrange(len(zs))
                cgz = pf.canon(pf.counts(mat_mul(f, g, zs[zi])))
                assert np.array_equal(cgz, canons[zi]), (parts, q)
            for _ in range(50):
                hb = [tuple([rng.choice(sorted(f.dlog))]
                            + [rng.randrange(f.q) for _ in range(size - 1)])
                      for size in pf.delta.parts]
                zi = rng.randrange(len(zs))
                tzh = pf.counts(mat_mul(f, zs[zi], h_to_matrix(f, pf.delta, hb)))
                t = pf.char_exponents_on(tuple(hb))
                cols = (np.arange(M)[None, :] - t[:, None]) % M
                rolled = tabs[zi][np.arange(n_chars)[:, None], cols]
                assert np.array_equal(pf.canon(rolled), pf.canon(tzh)), (parts, q)


# -- criterion 9: point counts realize Phi -----------------------------------


def _check_counts_realize_phi(setup):
    for parts in ((1, 1, 2), (2, 2)):
        for q in (3, 4):
            f, psi = setup(q)
            delta = Partition(parts)
            rng = random.Random(q * 37 + sum(parts))
            for _ in range(10):
                z = _rand_z(f, 2, delta.n, rng)
                v = GeneralXDz(f, delta, z)
                for chi in hdelta_chars(f, delta, psi):
                    assert v.n_chi(hdelta_to_groupchar(chi)) == phi_delta(chi, z)


# -- criterion 10: total counts ----------------------------------------------


def _count_families(f, lam):
    return [
        FermatStar(f, 1),
        FermatStar(f, 2),
        FermatStar(f, 3),
        ASStar(f),
        MXnLambda(f, 2, 2, lam),
        MXnLambda(f, 1, 2, lam),
        MXnLambda(f, 0, 1, lam),
        MXnLambda(f, 2, 3, lam),
        LauricellaD(f, 2, (lam, 1)),
        LauricellaA(f, 2, (lam, lam)),
        LauricellaC(f, 2, (lam, lam)),
        Humbert1(f, lam, lam),
        Humbert3(f, lam, lam),
    ]


def _check_total_counts(setup):
    for q in (3, 4):
        f, _ = setup(q)
        for v in _count_families(f, 2):
            total = Cyclo.zero()
            for chi in enumerate_groupchars(v):
                total = total + v.n_chi(chi)
            assert total == Cyclo.integer(v.naive_count(1)), type(v).__name__
    f3, _ = setup(3)
    f4, _ = setup(4)
    assert FermatStar(f3, 2).naive_count(1) == 0
    assert FermatStar(f4, 2).naive_count(1) == 0
    assert ASStar(f3).naive_count(1) == 0


# -- criterion 11: closed-form reductions of Phi -----------------------------

_REDUCTION_SHAPES = [
    (1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 2)]


def _check_phi_reductions(setup):
    for q in (3, 5):
        f, psi = setup(q)
        units = sorted(f.dlog)
        for parts in _REDUCTION_SHAPES:
            nlam = 1 if sum(parts) == 4 else 2
            pf = _PhiFast(f, parts, psi)
            shape_checked = 0
            for lams in itertools.product(units, repeat=nlam):
                try:
                    z = normalized_z(f, parts, lams)
                except ValueError:
                    continue
                tab = pf.counts(z)
                for i, chi in enumerate(pf.chars):
                    try:
                        rhs = reduce_to_classical(chi, z)
                    except ValueError:
                        continue
                    assert pf.value(tab, i) == rhs, (q, parts, lams)
                    shape_checked += 1
            assert shape_checked > 0, (q, parts)


# -- criterion 12: closed-form count theorems --------------------------------


def _closed_form_families(f):
    lam = 2
    fams = _count_families(f, lam) + [
        LauricellaD(f, 1, (lam,)),
        LauricellaA(f, 1, (lam,)),
        LauricellaC(f, 1, (lam,)),
    ]
    if f.q == 5:
        # pick parameters in general position and drop the 8-coordinate
        # family, which runs at q = 3 instead
        fams = [
            FermatStar(f, 1), FermatStar(f, 2), FermatStar(f, 3), ASStar(f),
            MXnLambda(f, 2, 2, lam), MXnLambda(f, 1, 2, lam),
            MXnLambda(f, 0, 1, lam), MXnLambda(f, 2, 3, lam),
            LauricellaD(f, 1, (lam,)), LauricellaD(f, 2, (2, 3)),
            LauricellaA(f, 1, (lam,)), LauricellaA(f, 2, (2, 2)),
            LauricellaC(f, 1, (lam,)),
            Humbert1(f, 2, 3), Humbert3(f, 2, 3),
        ]
    return fams


def _check_closed_form_counts(setup):
    for q in (3, 5):
        f, psi = setup(q)
        for v in _closed_form_families(f):
            checked = 0
            for chi in enumerate_groupchars(v):
                try:
                    expected = n_chi_closed_form(v, chi, psi)
                except ValueError as err:
                    assert str(err) == "theorem hypothesis not met"
                    continue
                assert v.n_chi(chi) == expected, (q, type(v).__name__)
                checked += 1
            assert checked > 0, (q, type(v).__name__)


# -- criterion 13: the determinant-family isomorphism suite ------------------


def test_gauss_family_isomorphisms_full_s4():
    for q in (3, 4):
        f = build_field_q(q)
        ctx = GaussContext(f, lam=2)
        for sigma in ctx.symmetries():
            iso = ctx.build(sigma)
            for chi in enumerate_groupchars(iso.transport.target):
                assert transport_check(iso.transport, chi), (q, sigma)
            rep = verify_iso(iso, sample=16, seed=1)
            assert rep["pass"], (q, sigma, rep)
        # the (1 3) swap realizes the argument flip lam -> 1 - lam
        iso = ctx.build((2, 1, 0, 3))
        assert iso.target_ctx.lam == f.sub(1, 2)
        checked = 0
        for chi in enumerate_groupchars(iso.transport.target):
            try:
                rhs = n_chi_closed_form(iso.transport.target, chi)
                lhs = iso.transport.factor(chi) * n_chi_closed_form(
                    iso.transport.source, iso.transport.transform(chi))
            except ValueError:
                continue
            assert lhs == rhs, (q, chi)
            checked += 1
        assert checked > 0


# -- criterion 14: the confluent-family isomorphism suite --------------------


def test_kummer_family_isomorphisms():
    f3 = build_field(3)
    ctx3 = KummerContext(f3, lam=2)
    # generators of the symmetry group: the column swap and a scaling
    for sym in [((1, 0), 1), ((0, 1), 2)]:
        iso = ctx3.build(sym)
        rep = verify_iso(iso, sample=16, seed=2)
        assert rep["pass"], (sym, rep)
        assert rep["checked"] > 0, sym
    for q in (3, 4):
        f = build_field_q(q)
        ctx = KummerContext(f, lam=2)
        for sym in ctx.symmetries():
            iso = ctx.build(sym)
            for chi in enumerate_groupchars(iso.transport.target):
                assert transport_check(iso.transport, chi), (q, sym)
    # the product identity re-emerges from the closed-form counts
    checked = 0
    for sym in ctx3.symmetries():
        iso = ctx3.build(sym)
        for chi in enumerate_groupchars(iso.transport.target):
            try:
                rhs = n_chi_closed_form(iso.transport.target, chi)
                lhs = iso.transport.factor(chi) * n_chi_closed_form(
                    iso.transport.source, iso.transport.transform(chi))
            except ValueError:
                continue
            assert lhs == rhs, (sym, chi)
            checked += 1
    assert checked > 0


# -- criterion 15: the multivariate-family isomorphism suites ----------------


def test_multivariate_family_isomorphisms():
    f3 = build_field(3)
    f4 = build_field_q(4)

    # Over F_3 no two-parameter instance is in general position (the only
    # unit besides 1 is 2, and the non-degeneracy constraints exclude it),
    # so the two-parameter families run over F_4.
    with pytest.raises(ValueError, match="general position"):
        FDContext(f3, lams=(2, 2))
    with pytest.raises(ValueError, match="general position"):
        FAContext(f3, lams=(2, 2))

    fd = FDContext(f4, lams=(2, 3))
    for sigma in [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 3, 2, 4),
                  (0, 1, 2, 4, 3)]:
        iso = fd.build(sigma)
        for chi in enumerate_groupchars(iso.transport.target):
            assert transport_check(iso.transport, chi), sigma
    rep = verify_iso(fd.build((0, 2, 1, 3, 4)), sample=8, seed=3)
    assert rep["pass"], rep

    fa = FAContext(f4, lams=(2, 2))
    gens = [s for s in fa.symmetries() if sum(i != v for i, v in enumerate(s)) == 2]
    for sigma in gens:
        iso = fa.build(sigma)
        for chi in list(enumerate_groupchars(iso.transport.target))[:400]:
            assert transport_check(iso.transport, chi), sigma
    rep = verify_iso(fa.build(gens[0]), sample=8, seed=4)
    assert rep["pass"], rep

    p1 = Phi1Context(f3, lam1=2, lam2=2)
    for sym in [((1, 0, 2), 1), ((0, 2, 1), 1), ((0, 1, 2), 2)]:
        iso = p1.build(sym)
        for chi in enumerate_groupchars(iso.transport.target):
            assert transport_check(iso.transport, chi), sym
    rep = verify_iso(p1.build(((1, 0, 2), 2)), sample=8, seed=5)
    assert rep["pass"], rep
    assert rep["checked"] == 4032

    p3 = Phi3Context(f3, lam1=2, lam2=2)
    for sym in [((1, 0), (1, 1)), ((0, 1), (2, 1)), ((0, 1), (1, 2))]:
        iso = p3.build(sym)
        for chi in enumerate_groupchars(iso.transport.target):
            assert transport_check(iso.transport, chi), sym
    rep = verify_iso(p3.build(((1, 0), (2, 1))), sample=8, seed=6)
    assert rep["pass"], rep
    assert rep["checked"] == 3600


# -- criterion 16: reducible degenerations -----------------------------------


@pytest.mark.parametrize(
    "case,lams",
    [("EulerGauss", None), ("FD_reduce", (2, 2)), ("F2_reduce", (2,))],
)
def test_reducible_degenerations(case, lams):
    f = build_field(3)
    rep = reducible_decompositions(case, f, lams)
    assert rep["pass"], rep["failures"]


# -- criterion 18: transform inversion and the iteration identities ----------


def test_transform_roundtrip_and_iteration():
    for q in (3, 5):
        f = build_field_q(q)
        chars = enumerate_mulchars(f)
        units = sorted(f.dlog)
        rng = random.Random(181 + q)
        for trial in range(50):
            fmap = {
                ts: Cyclo(f.N, [rng.randrange(-2, 3) for _ in range(f.N)])
                for ts in itertools.product(units, repeat=2)
            }
            fhat = dft(fmap, f, 2)
            assert idft(fhat, f, 2) == fmap
            alpha = chars[rng.randrange(1, len(chars))]
            betas = [chars[rng.randrange(len(chars))] for _ in range(2)]
            i = rng.choice([1, 2])
            lams = tuple(rng.choice(units) for _ in range(2))
            for kind in ("i", "ii", "iii", "iv"):
                if kind in ("i", "ii"):
                    comp = alpha.inverse()
                    for b in betas[:i]:
                        comp = comp * b
                    if comp.is_trivial():
                        continue
                if kind == "iii" and (alpha * betas[0].inverse()).is_trivial():
                    continue
                lhs = iteration_lhs(kind, fhat, f, 2, i, alpha, betas, lams)
                rhs = iteration_rhs(kind, fmap, f, 2, i, alpha, betas, lams)
                assert lhs == rhs, (q, trial, kind)


# -- running criteria 1-12 under both setup choices --------------------------

_CHOICE_CHECKS = [
    ("gauss-reflection", _check_gauss_reflection),
    ("jacobi-equals-gauss", _check_jacobi_equals_gauss),
    ("pochhammer-reflection", _check_pochhammer_reflection),
    ("low-order-closed-forms", _check_low_order_closed_forms),
    ("summation-at-one", _check_summation_at_one),
    ("confluent-product", _check_confluent_product),
    ("symmetry-action", _check_symmetry_action),
    ("gl-and-h-action", _check_gl_and_h_action),
    ("counts-realize-phi", _check_counts_realize_phi),
    ("total-counts", _check_total_counts),
    ("phi-reductions", _check_phi_reductions),
    ("closed-form-counts", _check_closed_form_counts),
]


@pytest.mark.parametrize("name,check", _CHOICE_CHECKS, ids=[n for n, _ in _CHOICE_CHECKS])
def test_standard_choices(name, check):
    check(_standard)


@pytest.mark.parametrize("name,check", _CHOICE_CHECKS, ids=[n for n, _ in _CHOICE_CHECKS])
def test_alternate_generator_and_psi(name, check):
    # criterion 17: identical pass results with the second-smallest field
    # generator and a different nontrivial additive character
    check(_alternate)
