"""Oracle tests for the variety counts, closed forms, and isomorphisms."""

import functools
import itertools
import json
import random
import re
from collections import Counter

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hgfq import varieties
from hgfq.chars import AddChar, MulChar, _conductor, _index, standard_psi
from hgfq.cyclo import Cyclo
from hgfq.ffield import (DEFAULT_CAP, artin_schreier_root, build_field, build_field_q,
                         canonical_nth_root, extend)
from hgfq.genhgf import (HDeltaChar, JmChar, Partition, WDeltaElem, _dot, _phi_frame, hdelta_chars,
                         phi_delta, theta_list, w_action_on_char)
from hgfq.hgf import hgf, humbert, lauricella
from hgfq.monomial import (char_star, fmat_permutes, imat_det, imat_transpose, permutes_mod,
                           tau_lattice)
from hgfq.sums import gauss, jacobi
from hgfq.varieties import (
    ASStar,
    FAContext,
    FDContext,
    FermatStar,
    GaussContext,
    GroupChar,
    GeneralXDz,
    Humbert1,
    Humbert3,
    KummerContext,
    LauricellaA,
    LauricellaC,
    LauricellaD,
    MXnLambda,
    Phi1Context,
    Phi3Context,
    build_iso,
    compose_perms,
    enumerate_groupchars,
    general_iso_fw,
    general_iso_lg,
    general_iso_rh,
    groupchar_to_hdelta,
    hdelta_to_groupchar,
    imat_identity,
    imat_inverse,
    imat_mul,
    invert_perm,
    make_context,
    monomial_map,
    n_chi_closed_form,
    perm_matrix,
    reducible_decompositions,
    transport_check,
    verify_iso,
)
from test_chars import _char_sum_literal
from test_genhgf import _random_w


def _families(f, lam):
    fams = [
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
    return fams


# -- counting oracles -------------------------------------------------------


def test_fermat_star_spot_values():
    f = build_field(3)
    v = FermatStar(f, 2)
    assert v.naive_count(1) == 0
    assert v.naive_count(2) == 4
    eps = MulChar(f, 0)
    assert v.n_chi(GroupChar((eps, eps))) == Cyclo.integer(1)
    assert v.lambda_g((2, 2)) == 4
    assert v.lambda_g((1, 1)) == 0


def test_artin_schreier_star_spot_values():
    f = build_field(3)
    v = ASStar(f)
    assert v.naive_count(1) == 0
    eps = MulChar(f, 0)
    psi = standard_psi(f)
    assert v.n_chi(GroupChar((eps, psi))) == Cyclo.integer(-1)
    # reduced system: the additive index must equal the unit index
    assert v.lambda_g((1, 1)) == v.group_order()
    assert v.lambda_g((1, 2)) == 0


@pytest.mark.parametrize("q", [3, 4])
def test_sum_of_n_chi_is_naive_count(q):
    f = build_field_q(q)
    for v in _families(f, 2):
        total = Cyclo.zero()
        for chi in enumerate_groupchars(v):
            total = total + v.n_chi(chi)
        assert total == Cyclo.integer(v.naive_count(1)), type(v).__name__


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("parts", [(1, 1, 2), (2, 2)])
def test_general_family_count_is_phi(q, parts):
    f = build_field_q(q)
    psi = standard_psi(f)
    delta = Partition(parts)
    rng = random.Random(q * 10 + sum(parts))
    for _ in range(3):
        z = [[rng.randrange(q) for _ in range(delta.n)] for _ in range(2)]
        v = GeneralXDz(f, delta, z)
        for chi in hdelta_chars(f, delta, psi):
            gc = hdelta_to_groupchar(chi)
            assert v.n_chi(gc) == phi_delta(chi, z)
            assert groupchar_to_hdelta(delta, gc, psi) == chi
        total = Cyclo.zero()
        for gc in enumerate_groupchars(v):
            total = total + v.n_chi(gc)
        assert total == Cyclo.integer(v.naive_count(1))


def _checked_hdelta(delta, gc, psi):
    """gc's H_Delta character through the checking constructor, with one
    Field.div per additive slot."""
    f, adds = psi.field, iter(gc.parts[delta.l:])
    blocks = [JmChar(gc.parts[i], tuple(f.div(next(adds).a, psi.a) for _ in range(size - 1)), psi)
              for i, size in enumerate(delta.parts)]
    return HDeltaChar(delta, tuple(blocks))


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("parts", [(1, 2), (1, 1, 2)])
def test_general_closed_form_is_phi_of_every_character(q, parts):
    """The closed form reads each character without the checking constructor:
    it is Phi_Delta of the checked character, for every character, under psi_1
    and another psi."""
    f = build_field_q(q)
    rng, delta = random.Random(q * 100 + len(parts)), Partition(parts)
    while True:
        z = [[rng.randrange(q) for _ in range(delta.n)] for _ in range(2)]
        try:
            v = GeneralXDz(f, delta, z)
            break
        except ValueError:
            continue
    for psi in (standard_psi(f), AddChar(f, f.neg(1))):
        for gc in enumerate_groupchars(v):
            chi = _checked_hdelta(delta, gc, psi)
            got = groupchar_to_hdelta(delta, gc, psi)
            assert got == chi and hash(got) == hash(chi)
            assert n_chi_closed_form(v, gc, psi) == phi_delta(chi, z), (psi, gc)


def test_groupchar_to_hdelta_checks_arity_fields_and_psi():
    """The slots are read without the checking constructor; a wrong arity, a
    slot over another field and a trivial psi still raise."""
    f, f5 = build_field_q(3), build_field_q(5)
    delta, psi = Partition((1, 2)), standard_psi(f)
    good = GroupChar((MulChar(f, 1), MulChar(f, 1), AddChar(f, 2)))
    assert groupchar_to_hdelta(delta, good, psi) == _checked_hdelta(delta, good, psi)
    with pytest.raises(ValueError, match="arity mismatch"):
        groupchar_to_hdelta(delta, GroupChar(good.parts[:2]), psi)
    with pytest.raises(ValueError, match="different fields"):
        groupchar_to_hdelta(delta, GroupChar(good.parts[:2] + (AddChar(f5, 2),)), psi)
    with pytest.raises(ValueError, match="nontrivial"):
        groupchar_to_hdelta(delta, good, AddChar(f, 0))


def _n_chi_literal(v, chi):
    """n_chi one point at a time: a Cyclo product per slot, summed per point."""
    total = Cyclo.zero()
    for g, c in v.support():
        val = chi.eval(g)
        if not val.is_zero():
            total = total + (val if c == 1 else val.scale(c))
    return total


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_n_chi_matches_literal_sum(q):
    f = build_field_q(q)
    rng = random.Random(q)
    vs = _families(f, max(f.units()))
    for parts in ((1, 1, 2), (2, 2), (1, 2)):
        vs.append(GeneralXDz(f, parts, [[rng.randrange(q) for _ in range(sum(parts))]
                                        for _ in range(2)]))
    # the first block's lead column is zero: an empty support
    empty = GeneralXDz(f, (1, 1), [[0, 1], [0, 1]])
    assert empty.support() == []
    for v in vs + [empty]:
        for chi in enumerate_groupchars(v):
            assert v.n_chi(chi).to_json() == _n_chi_literal(v, chi).to_json(), (q, v, chi)
    assert empty.n_chi(GroupChar((MulChar(f, 0),) * 2)).to_json() == Cyclo.zero().to_json()


def test_n_chi_rejects_characters_over_another_field():
    v = FermatStar(build_field(3), 2)
    f5 = build_field(5)
    with pytest.raises(ValueError, match="another field"):
        v.n_chi(GroupChar((MulChar(f5, 1), MulChar(f5, 0))))


def _frame_varieties(f):
    """Every RelationVariety family and two general ones, over f."""
    rng = random.Random(f.q)
    general = [GeneralXDz(f, parts, [[rng.randrange(1, f.q) for _ in range(sum(parts))]
                                     for _ in range(2)]) for parts in ((1, 1, 2), (2, 2))]
    return _families(f, 2) + general


@pytest.mark.parametrize("q", [3, 4])
def test_n_chi_is_the_literal_char_sum_of_the_support(q):
    """n_chi reads the variety's frame; the oracle is the product of the slot
    values at every point of support()."""
    f = build_field_q(q)
    for v in _frame_varieties(f):
        support = v.support()
        for chi in enumerate_groupchars(v):
            got, want = v.n_chi(chi), _char_sum_literal(chi.parts, support)
            assert got.to_json() == want.to_json(), (q, type(v).__name__, chi)


def _literal_histogram(v, key, M):
    """n_chi at the indices key counted by exponent of zeta_M, from the
    discrete logs and traces of the support's codes."""
    f = v.field
    hist = [0] * M
    for g, c in v.support():
        e = sum(k * f.dlog[x] * (M // f.N) if kind == "u" else
                f.trace_to_prime(f.mul(k, x)) * (M // f.p) for kind, k, x in zip(v.shape, key, g))
        hist[e % M] += c
    return hist


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("first", ["own", "N p"])
def test_char_histogram_at_both_conductors(q, first):
    """A variety is read at its own conductor (n_chi) and at N p (a transport
    with an additive slot on either side), one frame each; either order of
    first use gives the literal histograms at both."""
    f = build_field_q(q)
    for v in _frame_varieties(f):
        own = _conductor(f, v.shape)
        conductors = [own, f.N * f.p] if first == "own" else [f.N * f.p, own]
        varieties._char_histogram.cache_clear()
        keys = [tuple(map(_index, chi.parts)) for chi in enumerate_groupchars(v)]
        for M in conductors:
            for key in keys:
                assert varieties._char_histogram(v, key, M) == _literal_histogram(v, key, M), (v, M)
            frame = v._frame(M)
            assert v._frame(M) is frame
        assert sorted(v._frames) == sorted(set(conductors)), type(v).__name__
        chi = next(enumerate_groupchars(v))
        assert v.n_chi(chi) == _char_sum_literal(chi.parts, v.support())
        assert sorted(v._frames) == sorted(set(conductors)), type(v).__name__


def test_frame_caches_are_bounded():
    """The Phi frames stay in an LRU of 64; a variety keeps one frame per
    conductor however often it is read."""
    assert _phi_frame.cache_info().maxsize == 64
    f = build_field_q(4)
    v = Humbert1(f, 2, 2)
    assert v.support()
    for _ in range(2):
        for chi in enumerate_groupchars(v):
            v.n_chi(chi)
            varieties._char_histogram(v, tuple(map(_index, chi.parts)), f.N * f.p)
    assert list(v._frames) == [f.N * f.p]
    v = FermatStar(f, 2)
    for chi in enumerate_groupchars(v):
        v.n_chi(chi)
        varieties._char_histogram(v, tuple(map(_index, chi.parts)), f.N * f.p)
    assert sorted(v._frames) == [f.N, f.N * f.p]


def test_general_closed_form_reads_the_phi_frame_from_slot_indices(monkeypatch):
    """GeneralXDz.theorem builds no H_Delta character: it reads the Phi frame
    at the slot indices, which are the twists under every psi."""
    f = build_field_q(5)
    v = GeneralXDz(f, (1, 1, 2), [[1, 0, 1, 2], [0, 1, 1, 3]])
    chars = list(enumerate_groupchars(v))[::37]
    want = {chi: phi_delta(groupchar_to_hdelta(v.delta, chi, standard_psi(f)), v.z) for chi in chars}

    def refuse(*args):
        raise AssertionError("the closed form built an H_Delta character")

    monkeypatch.setattr(varieties, "groupchar_to_hdelta", refuse)
    monkeypatch.setattr(varieties, "JmChar", refuse)
    for chi in chars:
        for psi in (standard_psi(f), AddChar(f, 2), AddChar(f, 4)):
            assert n_chi_closed_form(v, chi, psi).to_json() == want[chi].to_json(), (chi, psi)


def test_general_family_rejects_z_outside_the_field():
    f = build_field(3)
    for z in ([[9, 0, 1], [0, 1, 1]], [[1, 0, -1]]):
        with pytest.raises(ValueError, match="z entries"):
            GeneralXDz(f, (1, 2), z)


# -- closed forms -----------------------------------------------------------


@pytest.mark.parametrize("q", [3, 4])
def test_closed_forms_match_counts(q):
    f = build_field_q(q)
    psi = standard_psi(f)
    for v in _families(f, 2):
        checked = 0
        for chi in enumerate_groupchars(v):
            try:
                expected = n_chi_closed_form(v, chi, psi)
            except ValueError as err:
                assert str(err) == "theorem hypothesis not met"
                continue
            assert v.n_chi(chi) == expected, type(v).__name__
            checked += 1
        assert checked > 0, type(v).__name__


def test_closed_form_hypothesis_error():
    f = build_field(3)
    v = MXnLambda(f, 1, 1, 2)
    eps = MulChar(f, 0)
    with pytest.raises(ValueError, match="theorem hypothesis not met"):
        n_chi_closed_form(v, GroupChar((eps, eps)))  # alpha*beta trivial


def _malformed_chars():
    """(variety, character) pairs that are not characters of the variety's
    group over its field."""
    f5, f4, f7 = build_field_q(5), build_field_q(4), build_field_q(7)
    mxn, h1 = MXnLambda(f5, 2, 2, 3), Humbert1(f4, 2, 3)
    chi = [MulChar(f5, 1), MulChar(f5, 2), MulChar(f5, 3), MulChar(f5, 1)]
    h1_chi = [MulChar(f4, j) for j in (1, 2, 1, 2, 1)] + [AddChar(f4, 1)]
    return [
        (mxn, GroupChar(tuple(chi[:3])), "character arity mismatch"),
        (mxn, GroupChar(tuple(chi + [MulChar(f5, 1)])), "character arity mismatch"),
        (mxn, GroupChar(tuple(chi[:3] + [AddChar(f5, 1)])), "expected a multiplicative"),
        (h1, GroupChar(tuple(h1_chi[:5] + [MulChar(f4, 1)])), "expected an additive"),
        (mxn, GroupChar(tuple(chi[:3] + [MulChar(f7, 1)])), "character over another field"),
        (h1, GroupChar(tuple(h1_chi[:5] + [AddChar(build_field_q(8), 1)])),
         "character over another field"),
    ]


@pytest.mark.parametrize("case", range(len(_malformed_chars())))
def test_closed_form_rejects_malformed_characters_as_n_chi_does(case):
    v, chi, message = _malformed_chars()[case]
    for count in (v.n_chi, lambda chi: n_chi_closed_form(v, chi)):
        with pytest.raises(ValueError, match=message):
            count(chi)


def test_closed_form_rejects_psi_over_another_field():
    f = build_field_q(5)
    v = MXnLambda(f, 1, 1, 2)
    chi = GroupChar((MulChar(f, 1), MulChar(f, 1)))
    assert n_chi_closed_form(v, chi) == v.n_chi(chi)
    for psi in (standard_psi(build_field_q(7)), AddChar(f, 0)):
        with pytest.raises(ValueError, match="psi must be a nontrivial"):
            n_chi_closed_form(v, chi, psi)


def test_general_closed_form_is_phi():
    f = build_field(3)
    psi = standard_psi(f)
    delta = Partition((1, 2))
    z = [[1, 2, 1], [0, 1, 2]]
    v = GeneralXDz(f, delta, z)
    for chi in enumerate_groupchars(v):
        assert n_chi_closed_form(v, chi, psi) == v.n_chi(chi)


# -- the closed forms against canonical products of their constants ----------


def _closed_form_by_products(v, chi, psi):
    """The count theorems of the six Horn-type families as canonical Cyclo
    products: Jacobi sums, Gauss sums and character values times the
    normalized series value, each product canonicalized."""
    f = v.field

    def hyp(cond):
        if not cond:
            raise ValueError("theorem hypothesis not met")

    def coefficient(part):
        return f.div(part.a, psi.a)

    def product(chars):
        out = chars[0]
        for c in chars[1:]:
            out = out * c
        return out

    if isinstance(v, MXnLambda):
        m, l = v.m, v.l
        alphas, betas = list(chi.parts[:m]), list(chi.parts[m:2 * m])
        gammas = list(chi.parts[2 * m:2 * m + l])
        cs = [coefficient(p) for p in chi.parts[2 * m + l:]]
        hyp(all(c != 0 for c in cs))
        hyp(all(not (a * b).is_trivial() for a, b in zip(alphas, betas)))
        coef = Cyclo.integer((-1) ** (v.n + 1))
        for g, c in zip(gammas, cs):
            coef = coef * gauss(g, psi) * g.inverse().eval(c)
        for a, b in zip(alphas, betas):
            coef = coef * jacobi(a, b)
        cprod = 1
        for c in cs:
            cprod = f.mul(cprod, c)
        lower = [b.inverse() for b in betas] + [g.inverse() for g in gammas]
        return coef * hgf(alphas, lower, f.mul(cprod, v.lam), psi)
    if isinstance(v, LauricellaD):
        n = v.n
        alphas, betas = list(chi.parts[:n + 1]), list(chi.parts[n + 1:])
        hyp(all(not (a * b).is_trivial() for a, b in zip(alphas, betas)))
        coef = Cyclo.integer(-1)
        for a, b in zip(alphas, betas):
            coef = coef * jacobi(a, b)
        return coef * lauricella("D", [alphas[0]], alphas[1:], [betas[0].inverse()],
                                 [b.inverse() for b in betas[1:]], v.lams, psi)
    if isinstance(v, LauricellaA):
        n = v.n
        alphas, betas = list(chi.parts[:n + 1]), list(chi.parts[n + 1:2 * n + 1])
        gammas = list(chi.parts[2 * n + 1:])
        hyp(not product(alphas).is_trivial())
        hyp(all(not (b * g).is_trivial() for b, g in zip(betas, gammas)))
        coef = jacobi(*alphas).scale((-1) ** n)
        for b, g in zip(betas, gammas):
            coef = coef * jacobi(b, g)
        return coef * lauricella("A", [alphas[0]], betas, [a.inverse() for a in alphas[1:]],
                                 [g.inverse() for g in gammas], v.lams, psi)
    if isinstance(v, LauricellaC):
        n = v.n
        alphas, betas = list(chi.parts[:n + 1]), list(chi.parts[n + 1:])
        hyp(not product(alphas).is_trivial() and not product(betas).is_trivial())
        coef = (jacobi(*alphas) * jacobi(*betas)).scale((-1) ** n)
        return coef * lauricella("C", [alphas[0]], [betas[0]], [a.inverse() for a in alphas[1:]],
                                 [b.inverse() for b in betas[1:]], v.lams, psi)
    if isinstance(v, Humbert1):
        a1, a2, b1, b2, g = chi.parts[:5]
        c = coefficient(chi.parts[5])
        hyp(c != 0)
        hyp(not (a1 * b1).is_trivial() and not (a2 * b2).is_trivial())
        coef = -gauss(g, psi) * g.inverse().eval(c) * jacobi(a1, b1) * jacobi(a2, b2)
        return coef * humbert(1, [a1, a2], b1.inverse(), [b2.inverse(), g.inverse()],
                              v.lam1, f.mul(c, v.lam2), psi)
    a, b, g1, g2 = chi.parts[:4]  # Humbert3
    c1, c2 = coefficient(chi.parts[4]), coefficient(chi.parts[5])
    hyp(c1 != 0 and c2 != 0)
    hyp(not (a * b).is_trivial())
    coef = (-gauss(g1, psi) * g1.inverse().eval(c1) * gauss(g2, psi) * g2.inverse().eval(c2)
            * jacobi(a, b))
    return coef * humbert(3, [a], g1.inverse(), [b.inverse(), g2.inverse()],
                          f.mul(c1, v.lam1), f.mul(c1, f.mul(c2, v.lam2)), psi)


def _closed_form_json(closed_form, v, chi, psi):
    try:
        return closed_form(v, chi, psi).to_json()
    except ValueError as err:
        assert str(err) == "theorem hypothesis not met"
        return None


def _horn_families(f):
    lam, mu = f.generator, f.inv(f.generator)
    return [MXnLambda(f, 1, 1, lam), MXnLambda(f, 0, 1, mu), MXnLambda(f, 0, 2, lam),
            MXnLambda(f, 1, 2, mu), MXnLambda(f, 2, 2, lam), LauricellaD(f, 1, (lam,)),
            LauricellaA(f, 1, (mu,)), LauricellaC(f, 1, (lam,)), Humbert1(f, lam, mu),
            Humbert3(f, mu, lam)]


# past q = 5 a family with more characters than this is checked on a seeded
# sample of _CF_SAMPLE of them: Humbert1 alone has 294,912 at q = 9
_CF_ALL, _CF_SAMPLE = 1000, 200


@pytest.mark.parametrize("alternate", [False, True])
@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_closed_forms_match_canonical_products(q, alternate):
    """to_json() of every closed form, conductor included, and the set of
    characters outside the theorem's hypotheses."""
    rng = random.Random(q)
    f = build_field_q(q)
    psi = standard_psi(f)
    if alternate:  # the second-smallest generator, where there is one, and psi_a, a != 1
        gens = f.generators()
        f = f.with_generator(gens[1]) if len(gens) > 1 else f
        psi = AddChar(f, next(u for u in sorted(f.dlog) if u != 1))
    for v in _horn_families(f):
        met, chars = 0, list(enumerate_groupchars(v))
        if q > 5 and len(chars) > _CF_ALL:
            chars = rng.sample(chars, _CF_SAMPLE)
        for chi in chars:
            got = _closed_form_json(n_chi_closed_form, v, chi, psi)
            assert got == _closed_form_json(_closed_form_by_products, v, chi, psi), (v, chi)
            met += got is not None
        assert met > 0, v


def _n2_horn_families(f):
    """The n = 2 members of the Horn-type families that the benchmark runs."""
    lam, mu = f.generator, f.inv(f.generator)
    return [LauricellaD(f, 2, (lam, mu)), LauricellaA(f, 2, (mu, lam)),
            LauricellaC(f, 2, (lam, mu)), MXnLambda(f, 2, 3, lam)]


@pytest.mark.parametrize("alternate", [False, True])
@pytest.mark.parametrize("q", [3, 4, 5])
def test_n2_closed_forms_match_canonical_products(q, alternate):
    """As above for the n = 2 members: every character at q = 3 and 4, a
    seeded sample of _CF_SAMPLE at q = 5."""
    rng = random.Random(q)
    f = build_field_q(q)
    psi = standard_psi(f)
    if alternate:  # as above
        gens = f.generators()
        f = f.with_generator(gens[1]) if len(gens) > 1 else f
        psi = AddChar(f, next(u for u in sorted(f.dlog) if u != 1))
    for v in _n2_horn_families(f):
        met, chars = 0, list(enumerate_groupchars(v))
        if q == 5:
            chars = rng.sample(chars, _CF_SAMPLE)
        for chi in chars:
            got = _closed_form_json(n_chi_closed_form, v, chi, psi)
            assert got == _closed_form_json(_closed_form_by_products, v, chi, psi), (v, chi)
            met += got is not None
        assert met > 0, v


def _field_and_psi(q, alternate):
    """F_q with psi_1, or (alternate) with its second-smallest generator,
    where there is one, and psi_a for the least unit a != 1, where there is one."""
    f = build_field_q(q)
    if not alternate:
        return f, standard_psi(f)
    gens = f.generators()
    f = f.with_generator(gens[1]) if len(gens) > 1 else f
    return f, AddChar(f, next((u for u in sorted(f.dlog) if u != 1), 1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compiled_closed_forms_match_canonical_products(data):
    """A closed form compiled once per (field, psi), at a random character of
    a random Horn-type family member, against the canonical products; a
    character outside the hypotheses raises "theorem hypothesis not met" on
    both sides."""
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13]), label="q")
    f, psi = _field_and_psi(q, data.draw(st.booleans(), label="alternate"))
    families = _horn_families(f) + (_n2_horn_families(f) if q <= 5 else [])
    v = families[data.draw(st.integers(0, len(families) - 1), label="family")]
    parts = tuple(MulChar(f, data.draw(st.integers(0, max(f.N, 1) - 1))) if kind == "u"
                  else AddChar(f, data.draw(st.integers(0, q - 1))) for kind in v.shape)
    chi = GroupChar(parts)
    assert (_closed_form_json(n_chi_closed_form, v, chi, psi)
            == _closed_form_json(_closed_form_by_products, v, chi, psi)), (v, chi)


def test_compiled_closed_forms_keep_each_field_and_psi_apart(monkeypatch):
    """Each (field with its generator, psi_a) compiles its own theorem and
    reads only its own set-up and packings: interleaved on one theorem, every
    value equals the value computed alone from empty caches, and every
    packing read during it belongs to its psi."""
    from hgfq import hgf as hgf_mod

    base = build_field_q(7)
    other = base.with_generator(base.generators()[1])
    settings_ = [(base, standard_psi(base)), (base, AddChar(base, 3)),
                 (other, standard_psi(other)), (other, AddChar(other, 3))]
    rng = random.Random(7)

    def chars(v):
        return rng.sample(list(enumerate_groupchars(v)), 40)

    samples, alone = {}, {}
    for f, psi in settings_:
        hgf_mod._setup.cache_clear()
        hgf_mod._packing.cache_clear()
        v = MXnLambda(f, 1, 2, 3)
        samples.setdefault(f, chars(v))
        alone[f, psi] = [_closed_form_json(n_chi_closed_form, v, chi, psi) for chi in samples[f]]
    reads, real = [], hgf_mod._packing
    monkeypatch.setattr(hgf_mod, "_packing", lambda psi, Nc, W: reads.append(psi) or real(psi, Nc, W))
    varieties_ = {f: MXnLambda(f, 1, 2, 3) for f in (base, other)}
    for _ in range(2):
        for f, psi in settings_:
            reads.clear()
            got = [_closed_form_json(n_chi_closed_form, varieties_[f], chi, psi) for chi in samples[f]]
            assert got == alone[f, psi], (f.generator, psi.a)
            assert reads and all(r == psi and r.field.generator == f.generator for r in reads)
    for f, v in varieties_.items():
        assert {(p.field.generator, p.a) for p in v.theorem._compiled} == {
            (f.generator, 1), (f.generator, 3)}


# -- the relation solver against the defining equations ---------------------


def _on_variety(v, f, pw, art, emb, pt):
    """The family's defining equations at pt, written out family by family.

    pw(x) stands for x^N and art(t) for t^q - t; the reduced system of a group
    element is the same equations with both read as the identity on k."""
    n_units = v.shape.count("u")
    if len(pt) != len(v.shape) or 0 in pt[:n_units]:
        return False
    P = [pw(x) for x in pt[:n_units]]
    A = [art(t) for t in pt[n_units:]]
    add, mul = f.add, f.mul

    def total(vals):
        return functools.reduce(add, vals, 0)

    def prod(vals):
        return functools.reduce(mul, vals, 1)

    if isinstance(v, FermatStar):
        return total(P) == 1
    if isinstance(v, ASStar):
        (z,), (t,) = P, A
        return t == z
    if isinstance(v, MXnLambda):
        m = v.m
        x, y, z = P[:m], P[m : 2 * m], P[2 * m :]
        sign = f.pow(f.neg(1), v.n)
        return (
            all(add(a, b) == 1 for a, b in zip(x, y))
            and A == z
            and mul(mul(sign, emb(v.lam)), prod(x)) == mul(prod(y), prod(z))
        )
    if isinstance(v, LauricellaD):
        n = v.n
        x, y = P[: n + 1], P[n + 1 :]
        return all(add(a, b) == 1 for a, b in zip(x, y)) and all(
            mul(emb(lam), mul(x[0], x[i])) == mul(y[0], y[i])
            for i, lam in enumerate(v.lams, 1)
        )
    if isinstance(v, LauricellaA):
        n = v.n
        x, y, z = P[: n + 1], P[n + 1 : 2 * n + 1], P[2 * n + 1 :]
        return (
            total(x) == 1
            and all(add(a, b) == 1 for a, b in zip(y, z))
            and all(
                mul(emb(lam), mul(x[0], y[i])) == mul(x[i + 1], z[i])
                for i, lam in enumerate(v.lams)
            )
        )
    if isinstance(v, LauricellaC):
        n = v.n
        x, y = P[: n + 1], P[n + 1 :]
        return (
            total(x) == 1
            and total(y) == 1
            and all(
                mul(emb(lam), mul(x[0], y[0])) == mul(x[i], y[i])
                for i, lam in enumerate(v.lams, 1)
            )
        )
    if isinstance(v, Humbert1):
        x1, x2, y1, y2, z = P
        (t,) = A
        return (
            add(x1, y1) == 1
            and add(x2, y2) == 1
            and t == z
            and mul(emb(v.lam1), mul(x1, x2)) == mul(y1, y2)
            and mul(emb(v.lam2), x1) == mul(y1, z)
        )
    if isinstance(v, Humbert3):
        x, y, z1, z2 = P
        t1, t2 = A
        return (
            add(x, y) == 1
            and (t1, t2) == (z1, z2)
            and mul(emb(v.lam1), x) == mul(y, z1)
            and emb(v.lam2) == mul(z1, z2)
        )
    raise AssertionError(f"no equations for {type(v).__name__}")


def _equation_families(f):
    lam, mu = f.generator, f.inv(f.generator)
    return [
        FermatStar(f, 1),
        FermatStar(f, 2),
        FermatStar(f, 3),
        ASStar(f),
        MXnLambda(f, 2, 2, lam),
        MXnLambda(f, 1, 2, lam),
        MXnLambda(f, 0, 1, lam),
        MXnLambda(f, 0, 2, mu),
        MXnLambda(f, 2, 3, lam),
        LauricellaD(f, 1, (lam,)),
        LauricellaD(f, 2, (lam, mu)),
        LauricellaA(f, 1, (lam,)),
        LauricellaA(f, 2, (lam, mu)),
        LauricellaC(f, 1, (lam,)),
        LauricellaC(f, 2, (lam, mu)),
        Humbert1(f, lam, mu),
        Humbert3(f, lam, mu),
    ]


# a scan of every coordinate tuple stays below this many tuples: F_9 takes the
# families with at most 5 coordinates, F_16 those with at most 4
_SCAN_CAP = 1 << 16


@pytest.mark.parametrize("q,r", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_points_and_point_ok_match_the_equations(q, r):
    base = build_field_q(q)
    ext = extend(base, r)
    f, N = ext.field, base.N

    def pw(x):
        return f.pow(x, N)

    def art(t):
        return f.sub(f.pow(t, q), t)

    scanned = 0
    for v in _equation_families(base):
        if f.q ** len(v.shape) > _SCAN_CAP:
            continue
        on, n = set(), v.shape.count("u")
        for pt in itertools.product(range(f.q), repeat=len(v.shape)):
            ok = _on_variety(v, f, pw, art, ext.embed, pt)
            if 0 in pt[:n]:
                # a zero unit coordinate has no discrete log, and no point has one
                assert not ok, (type(v).__name__, pt)
                continue
            assert v.point_ok(ext, _to_logs(ext, v, pt)) == ok, (type(v).__name__, pt)
            if ok:
                on.add(pt)
        pts = [v.to_codes(ext, pt) for pt in v.points(ext)]
        assert len(pts) == len(set(pts)), type(v).__name__
        assert set(pts) == on, type(v).__name__
        scanned += 1
    assert scanned >= 9


def _to_logs(ext, v, pt):
    """pt with its unit slots as discrete logs in ext, the inverse of to_codes."""
    n = v.shape.count("u")
    return tuple(ext.field.dlog[x] for x in pt[:n]) + tuple(pt[n:])


def _relations(v):
    """v's relations as (monomial index or None for a sum, ((slot, e), ..))."""
    rels = [(j, tuple(exps.items())) for j, (_, exps) in enumerate(v.monomials)]
    return rels + [(None, tuple((i, 1) for i in s)) for s in v.sums]


def _enumeration_points(v, ext):
    """v's points by a plan without pair steps: a slot that is the last unknown
    of some relation is solved from it, every other slot is enumerated."""
    f, n = ext.field, len(v.shape) - len(v.links)
    logs = [f.dlog[ext.embed(c)] for c, _ in v.monomials]
    roots = varieties._root_logs_table(ext)
    pre = varieties._as_preimages_table(ext)
    rels, out = _relations(v), set()

    def walk(X):
        unknown = [[i for i, _ in rel[1] if X[i] is None] for rel in rels]
        if any(not u and not varieties._holds(f, rel, X, logs) for u, rel in zip(unknown, rels)):
            return
        if None not in X:
            lists = [roots[x] for x in X] + [pre.get(f.exp[X[i]], ()) for i in v.links]
            out.update(itertools.product(*lists))
            return
        solved = next(((u[0], rel) for u, rel in zip(unknown, rels) if len(u) == 1), None)
        if solved is None:
            slot, values = X.index(None), roots
        else:
            slot, rel = solved
            values = [varieties._solve_for(f, rel, slot, X, logs)]
        for value in values:
            if value in roots:
                walk(X[:slot] + [value] + X[slot + 1:])

    walk([None] * n)
    return out


def _pair_test_varieties():
    f3, f4, f5 = build_field_q(3), build_field_q(4), build_field_q(5)
    # (variety, extension degree, whether its plan has a pair step)
    return [
        (Humbert1(f3, 2, 2), 6, True),
        (LauricellaD(f4, 2, (2, 2)), 3, True),
        (LauricellaA(f3, 2, (2, 2)), 4, True),
        # the second sum of F_C(n) has n + 1 open slots when the monomials
        # have two, each tying one y_i to y_0
        (LauricellaC(f3, 2, (2, 2)), 4, True),
        (LauricellaC(f3, 1, (2,)), 4, True),
        (MXnLambda(f4, 2, 2, 3), 3, True),
        # X_2 = -X_1 against X_1 + X_2 = 1 - X_0: 1 + c = 0, with s = 0 at X_0 = 1
        # and s != 0 elsewhere
        (varieties.RelationVariety(f5, 3, sums=[(0, 1, 2)], monomials=[(4, {1: 1, 2: -1})]), 2, True),
        (varieties.RelationVariety(f4, 3, sums=[(0, 1, 2)], monomials=[(1, {1: -1, 2: 1})]), 2, True),
        # 1 + c = 0 and s = 1: no point
        (varieties.RelationVariety(f5, 2, sums=[(0, 1)], monomials=[(4, {0: 1, 1: -1})]), 2, True),
        (LauricellaC(f3, 3, (2, 1, 2)), 2, True),
        # X_2 = 2 X_1 and X_3 = 2 X_1 against X_1 + X_2 + X_3 = 1 - X_0:
        # 1 + c_2 + c_3 = 0, with s = 0 at X_0 = 1 and s != 0 elsewhere
        (varieties.RelationVariety(f5, 4, sums=[(0, 1, 2, 3)],
                                   monomials=[(2, {1: 1, 2: -1}), (2, {1: 1, 3: -1})]), 4, True),
        # the same over F_4 with opposite signs: X_2 = 2 X_1, X_3 = X_1 / 2
        (varieties.RelationVariety(f4, 4, sums=[(0, 1, 2, 3)],
                                   monomials=[(2, {1: 1, 2: -1}), (2, {1: -1, 3: 1})]), 3, True),
        # X_1 = 2 X_0 and X_2 = 2 X_0 against X_0 + X_1 + X_2 = 1: 1 + c_1 + c_2 = 0
        # and s = 1, so no point
        (varieties.RelationVariety(f5, 3, sums=[(0, 1, 2)],
                                   monomials=[(2, {0: 1, 1: -1}), (2, {0: 1, 2: -1})]), 2, True),
    ]


@pytest.mark.parametrize("k", range(len(_pair_test_varieties())))
def test_pair_steps_match_enumeration(k):
    v, r, paired = _pair_test_varieties()[k]
    assert any(type(how) is varieties._Pair for _, how, _ in v._plan) == paired
    ext = extend(v.field, r)
    pts = list(v.points(ext))
    assert len(pts) == len(set(pts))
    assert set(pts) == _enumeration_points(v, ext)
    # support() solves over F_q* itself: check it against every unit tuple
    f, n = v.field, len(v.shape) - len(v.links)
    logs = [f.dlog[c] for c, _ in v.monomials]
    want = {X for X in itertools.product(list(f.units()), repeat=n)
            if all(varieties._holds(f, rel, tuple(f.dlog[x] for x in X), logs)
                   for rel in _relations(v))}
    assert {g[:n] for g, _ in v.support()} == want


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_support_matches_the_reduced_equations(q):
    f = build_field_q(q)

    def ident(x):
        return x

    for v in _equation_families(f):
        slots = [list(f.units()) if kind == "u" else list(f.elements()) for kind in v.shape]
        want = {
            g for g in itertools.product(*slots) if _on_variety(v, f, ident, ident, ident, g)
        }
        support = dict(v.support())
        assert set(support) == want, type(v).__name__
        assert set(support.values()) <= {1}
        assert len(support) == len(v.support())


# -- monomial calculus ------------------------------------------------------


def test_monomial_map_identity_and_product():
    f = build_field_q(9)
    xs = (2, 7)
    assert monomial_map(f, xs, imat_identity(2)) == xs
    assert monomial_map(f, xs, [[1], [1]]) == (f.mul(2, 7),)


def test_monomial_map_composes():
    f = build_field_q(9)
    rng = random.Random(5)
    units = list(f.units())
    for _ in range(10):
        xs = tuple(rng.choice(units) for _ in range(3))
        A = [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)]
        B = [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)]
        assert monomial_map(f, monomial_map(f, xs, A), B) == monomial_map(
            f, xs, imat_mul(A, B)
        )


def test_char_star_is_dual_to_monomial_map():
    # chi(x * A) = (chi * transpose(A))(x)
    f = build_field(5)
    chars = (MulChar(f, 1), MulChar(f, 3))
    A = [[2, -1], [1, 1]]
    transformed = char_star(chars, imat_transpose(A))
    for xs in itertools.product(f.units(), repeat=2):
        direct = transformed[0].eval(xs[0]) * transformed[1].eval(xs[1])
        mapped = monomial_map(f, xs, A)
        other = chars[0].eval(mapped[0]) * chars[1].eval(mapped[1])
        assert direct == other


def test_integer_matrix_helpers():
    A = [[2, 1, 0], [1, 1, 0], [0, 3, 1]]
    assert imat_mul(A, imat_inverse(A)) == imat_identity(3)
    s1, s2 = (1, 2, 0), (2, 0, 1)
    assert imat_mul(perm_matrix(s1), perm_matrix(s2)) == perm_matrix(
        compose_perms(s1, s2)
    )
    assert imat_transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]


_small_ints = st.integers(-4, 4)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(st.lists(_small_ints, min_size=n, max_size=n),
                                                    min_size=n, max_size=n)))
def test_imat_det_matches_sympy(A):
    assert imat_det(A) == (sympy.Matrix(A).det() if A else 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1, 2, 3, 4, 6]), st.data())
def test_permutes_mod_matches_enumeration(n, N, data):
    A = data.draw(st.lists(st.lists(_small_ints, min_size=n, max_size=n), min_size=n, max_size=n))
    images = {tuple(sum(k[i] * A[i][j] for i in range(n)) % N for j in range(n))
              for k in itertools.product(range(N), repeat=n)}
    assert permutes_mod(A, n, N) == (len(images) == N**n)
    assert permutes_mod(None, n, N) and not permutes_mod(A, n + 1, N)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_fmat_permutes_matches_enumeration(q):
    f = build_field_q(q)
    rng = random.Random(q)
    for _ in range(30):
        n = rng.randrange(1, 3)
        A = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        images = {tuple(functools.reduce(f.add, [f.mul(e[i], A[i][j]) for i in range(n)], 0)
                        for j in range(n)) for e in itertools.product(range(q), repeat=n)}
        assert fmat_permutes(f, A, n) == (len(images) == q**n)
    assert fmat_permutes(f, None, 2) and not fmat_permutes(f, [[1, 0]], 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1, 2, 3, 4]), st.data())
def test_tau_lattice_matches_enumeration(n, N, data):
    exps = st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([-1, 1])),
                    min_size=1, max_size=n, unique_by=lambda x: x[0])
    src = data.draw(st.lists(exps.map(tuple), max_size=2))
    tgt = data.draw(st.lists(exps.map(tuple), max_size=2))
    Q = data.draw(st.lists(st.lists(_small_ints, min_size=n, max_size=n), min_size=n, max_size=n))
    want = set()
    for k in itertools.product(range(N), repeat=n):
        kQ = [sum(k[i] * Q[i][j] for i in range(n)) for j in range(n)]
        want.add((tuple(-sum(e * k[s] for s, e in x) % N for x in src),
                  tuple(-sum(e * kQ[s] for s, e in x) % N for x in tgt)))
    got = tau_lattice(src, tgt, Q, n, N)
    assert len(got) == len(set(got)) and set(got) == want


# -- one-variable family symmetries -----------------------------------------


def test_gauss_identity_and_swap_example():
    f = build_field(3)
    ctx = GaussContext(f, lam=2)
    assert ctx.q_matrix((0, 1, 2, 3)) == imat_identity(4)
    sig = (2, 1, 0, 3)  # swap the first and third columns
    assert ctx.q_matrix(sig) == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [-1, -1, -1, 0],
        [0, 0, 0, 1],
    ]
    iso = ctx.build(sig)
    # the argument moves lam -> 1 - lam
    assert iso.target_ctx.lam == f.sub(1, ctx.lam)
    assert iso.transport.d_elem == (f.neg(1), 1, 1, f.div(f.sub(ctx.lam, 1), ctx.lam))


@pytest.mark.parametrize("q", [3, 4])
def test_gauss_transports_all_sigma(q):
    f = build_field_q(q)
    ctx = GaussContext(f, lam=2)
    for sigma in ctx.symmetries():
        iso = ctx.build(sigma)
        for chi in enumerate_groupchars(iso.transport.target):
            assert transport_check(iso.transport, chi), sigma


def test_gauss_swap_reproduces_argument_flip_identity():
    # chi(d) * closed_form(lam; transformed chi) == closed_form(1-lam; chi)
    f = build_field_q(4)
    ctx = GaussContext(f, lam=2)
    iso = ctx.build((2, 1, 0, 3))
    src, tgt = iso.transport.source, iso.transport.target
    checked = 0
    for chi in enumerate_groupchars(tgt):
        try:
            rhs = n_chi_closed_form(tgt, chi)
            lhs = iso.transport.factor(chi) * n_chi_closed_form(
                src, iso.transport.transform(chi)
            )
        except ValueError:
            continue
        assert lhs == rhs
        checked += 1
    assert checked > 0


def test_gauss_verify_iso_with_composition():
    f = build_field_q(4)
    ctx = GaussContext(f, lam=2)
    iso = ctx.build((2, 1, 0, 3))
    rep = verify_iso(iso, compose_with=(1, 0, 3, 2))
    assert rep["pass"], rep["failures"]
    assert rep["checked"] == 81


def test_verify_iso_detects_corrupted_map():
    f = build_field_q(4)
    ctx = GaussContext(f, lam=2)
    iso = ctx.build((2, 1, 0, 3))
    iso.transport.Q = [row[:] for row in iso.transport.Q]
    iso.transport.Q[0][0] += 1
    rep = verify_iso(iso)
    assert not rep["pass"]
    assert rep["failures"][0]["kind"] == "image not on target"


def test_transport_check_detects_wrong_twist():
    f = build_field_q(4)
    ctx = GaussContext(f, lam=2)
    iso = ctx.build((2, 1, 0, 3))
    iso.transport.d_elem = (1, 1, 1, 1)
    results = {
        transport_check(iso.transport, chi)
        for chi in enumerate_groupchars(iso.transport.target)
    }
    assert False in results
    # and a wrong additive twist on the mixed family
    f3 = build_field(3)
    iso = KummerContext(f3, lam=2).build(((1, 0), 2))
    iso.transport.add_mat = [[1]]
    results = {
        transport_check(iso.transport, chi)
        for chi in enumerate_groupchars(iso.transport.target)
    }
    assert False in results


# -- transport_check against the object path --------------------------------


def _transform_literal(transport, chi):
    """transform through character objects: the multiplicative parts through
    char_star with Q^T, the additive ones through add_mat with _dot."""
    mults = tuple(p for p in chi.parts if isinstance(p, MulChar))
    adds = [p for p in chi.parts if isinstance(p, AddChar)]
    if transport.Q is not None:
        mults = char_star(mults, imat_transpose(transport.Q))
    if transport.add_mat is not None:
        f = chi.field
        coeffs = [a.a for a in adds]
        adds = [AddChar(f, _dot(f, row, coeffs)) for row in transport.add_mat]
    return GroupChar(mults + tuple(adds))


def _transport_check_literal(transport, chi):
    """chi(d) * n_chi(source; transform(chi)) == n_chi(target; chi), each
    factor an exact value."""
    lhs = chi.eval(transport.d_elem) * transport.source.n_chi(_transform_literal(transport, chi))
    return lhs == transport.target.n_chi(chi)


def _assert_matches_literal(transport, chars=None):
    """transport_check, transform and factor against the object path, one
    character at a time (all of the target's by default); the verdicts."""
    verdicts = []
    for chi in enumerate_groupchars(transport.target) if chars is None else chars:
        want = _transport_check_literal(transport, chi)
        assert transport_check(transport, chi) == want, chi
        assert transport.transform(chi) == _transform_literal(transport, chi), chi
        assert transport.factor(chi) == chi.eval(transport.d_elem), chi
        verdicts.append(want)
    return verdicts


def _setup_field(setup, q):
    """The field with its smallest generator, or with its second one (the
    same field when there is only one)."""
    f = build_field_q(q)
    gens = f.generators()
    return f.with_generator(gens[1]) if setup == "alternate" and len(gens) > 1 else f


def _setup_psi(setup, f):
    """psi_1, or the psi_a with the least unit a != 1 (psi_1 over F_2)."""
    return AddChar(f, next((a for a in sorted(f.dlog) if a != 1), 1) if setup == "alternate" else 1)


_CONTEXT_PARAMS = {"gauss": dict(lam=2), "kummer": dict(lam=2), "fd": dict(lams=(2,)),
                   "fa": dict(lams=(2,)), "phi1": dict(lam1=2, lam2=2), "phi3": dict(lam1=2, lam2=2)}


@pytest.mark.parametrize("setup", ["standard", "alternate"])
@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("family", sorted(_CONTEXT_PARAMS))
def test_transport_check_matches_literal_every_symmetry(family, q, setup):
    # every symmetry; every character at q = 3, a seeded sample of 100 per
    # symmetry at q = 4 (up to 1,296 characters each)
    ctx = make_context(family, _setup_field(setup, q), **_CONTEXT_PARAMS[family])
    rng = random.Random(q)
    for sym in ctx.symmetries():
        t = ctx.build(sym).transport
        chars = list(enumerate_groupchars(t.target))
        if q == 4 and len(chars) > 100:
            chars = rng.sample(chars, 100)
        assert all(_assert_matches_literal(t, chars)), sym


@pytest.mark.parametrize("setup", ["standard", "alternate"])
def test_transport_check_matches_literal_general_maps(setup):
    # the lg, rh and fw maps of the general-family tests below, the fw
    # characters read through H_Delta with psi
    f = build_field(3)
    psi = _setup_psi(setup, f)
    maps = []
    for parts, d in [((1, 1), 2), ((1, 2), 1), ((2, 2), 1)]:
        v = _small_general(f, parts, random.Random(3), d)
        maps.append(general_iso_lg(v, [[1, 2], [0, 1]] if d == 2 else [[2]]).transport)
        rng = random.Random(4 + sum(parts))
        v = _small_general(f, parts, rng, d)
        h_blocks = tuple((rng.choice([1, 2]),) + tuple(rng.randrange(3) for _ in range(s - 1))
                         for s in parts)
        maps.append(general_iso_rh(v, h_blocks).transport)
    for parts, d in [((1, 1), 2), ((2, 2), 1), ((1, 1, 2), 1)]:
        rng = random.Random(9 + sum(parts))
        v = _small_general(f, parts, rng, d)
        for _ in range(3):
            maps.append(general_iso_fw(v, _random_w(f, Partition(parts), rng)).transport)
    for t in maps:
        chars = [hdelta_to_groupchar(chi) for chi in hdelta_chars(f, t.target.delta, psi)]
        assert all(_assert_matches_literal(t, chars))


@pytest.mark.parametrize("setup,q", [("standard", 3), ("alternate", 4)])
@pytest.mark.parametrize("case,lams", [("EulerGauss", None), ("FD_reduce", (2, 2)),
                                       ("F2_reduce", (2,))])
def test_transport_check_matches_literal_decompositions(case, lams, setup, q):
    big, small, Q, d, _, _ = varieties._DECOMPOSITIONS[case](_setup_field(setup, q), lams)
    assert all(_assert_matches_literal(varieties.MonomialMap(small, big, d, Q)))


@pytest.mark.parametrize("setup", ["standard", "alternate"])
def test_transport_check_reads_a_mutated_transport_afresh(setup):
    # a first check, then one entry of Q, d_elem or add_mat changed in place:
    # every verdict must be the oracle's, so no index data outlives a change
    f = _setup_field(setup, 4)
    t = GaussContext(f, lam=2).build((2, 1, 0, 3)).transport
    assert all(_assert_matches_literal(t))
    t.Q = [row[:] for row in t.Q]
    t.Q[0][0] += 1
    assert False in _assert_matches_literal(t)
    t.Q[0][0] -= 1
    d = t.d_elem
    t.d_elem = (1,) * len(d)
    assert False in _assert_matches_literal(t)
    t.d_elem = (0,) + d[1:]  # chi(d) = 0 for every character
    assert False in _assert_matches_literal(t)
    t.d_elem = d
    assert all(_assert_matches_literal(t))
    for ctx, sym in [(KummerContext(f, lam=2), ((1, 0), 2)),
                     (Phi3Context(_setup_field(setup, 3), lam1=2, lam2=2), ((1, 0), (2, 2)))]:
        t = ctx.build(sym).transport
        assert all(_assert_matches_literal(t))
        t.add_mat[0][next(j for j, c in enumerate(t.add_mat[0]) if c)] = 1
        assert False in _assert_matches_literal(t)
        t.d_elem = t.d_elem[:-1] + (1,)  # an additive shift
        _assert_matches_literal(t)


def test_transport_check_rejects_malformed_characters_as_n_chi_does():
    f, f5 = build_field_q(4), build_field_q(5)
    t = KummerContext(f, lam=2).build(((1, 0), 2)).transport
    good = next(iter(enumerate_groupchars(t.target)))
    bad = [GroupChar(good.parts[:-1]),  # wrong arity
           GroupChar(good.parts[:-1] + (MulChar(f, 1),)),  # a unit slot where an additive one goes
           GroupChar((AddChar(f, 1),) + good.parts[1:]),  # and the other way round
           GroupChar((MulChar(f5, 1),) + good.parts[1:])]  # a slot over another field
    for chi in bad:
        with pytest.raises(ValueError) as want:
            t.target.n_chi(chi)
        for call in (transport_check, type(t).transform, type(t).factor):
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                call(t, chi)
    # a Q with a row too many sends chi outside the source's group
    t = GaussContext(f, lam=2).build((2, 1, 0, 3)).transport
    t.Q = t.Q + [t.Q[0]]
    chi = next(iter(enumerate_groupchars(t.target)))
    for check in (_transport_check_literal, transport_check):
        with pytest.raises(ValueError, match="character arity mismatch"):
            check(t, chi)


@pytest.mark.parametrize("q", [3, 4])
def test_kummer_q_matrix_and_lam_action(q):
    f = build_field_q(q)
    ctx = KummerContext(f, lam=2)
    assert ctx.q_matrix((0, 1)) == imat_identity(3)
    assert ctx.q_matrix((1, 0)) == [[-1, -1, -1], [0, 1, 0], [0, 0, 1]]
    for sym in ctx.symmetries():
        sigma, c = sym
        iso = ctx.build(sym)
        sign = 1 if sigma == (0, 1) else f.neg(1)
        assert iso.target_ctx.lam == f.mul(f.mul(sign, c), ctx.lam)


def _slot_twist_transform(ctx, sym, chi):
    """The transport as a slot permutation plus twists: multiplicative parts
    through Q^T, and additive part j the target character's part perm^-1(j)
    twisted by c_j, where perm is the context's Artin-Schreier slot map."""
    sigma, cs = ctx._split(sym)
    mults = tuple(p for p in chi.parts if isinstance(p, MulChar))
    adds = [p for p in chi.parts if isinstance(p, AddChar)]
    inv = invert_perm(ctx._slot_perm(sigma))
    twisted = tuple(adds[i].twist(c) for i, c in zip(inv, cs))
    return GroupChar(char_star(mults, imat_transpose(ctx.q_matrix(sigma))) + twisted)


@pytest.mark.parametrize("q", [3, 4])
def test_kummer_transports_all_w(q):
    f = build_field_q(q)
    ctx = KummerContext(f, lam=2)
    for sym in ctx.symmetries():
        iso = ctx.build(sym)
        for chi in enumerate_groupchars(iso.transport.target):
            assert transport_check(iso.transport, chi), sym
            assert iso.transport.transform(chi) == _slot_twist_transform(ctx, sym, chi)


def test_kummer_verify_iso_f729():
    f = build_field(3)
    ctx = KummerContext(f, lam=2)
    iso = ctx.build(((1, 0), 2))
    rep = verify_iso(iso, compose_with=((1, 0), 2))
    assert rep["pass"], rep["failures"]
    assert rep["checked"] == 1608


def test_kummer_swap_restores_product_identity_through_counts():
    # chi(d, shift) * closed_form(lam; transformed) == closed_form(-c lam; chi)
    f = build_field(3)
    ctx = KummerContext(f, lam=2)
    checked = 0
    for sym in ctx.symmetries():
        iso = ctx.build(sym)
        src, tgt = iso.transport.source, iso.transport.target
        for chi in enumerate_groupchars(tgt):
            try:
                rhs = n_chi_closed_form(tgt, chi)
                lhs = iso.transport.factor(chi) * n_chi_closed_form(
                    src, iso.transport.transform(chi)
                )
            except ValueError:
                continue
            assert lhs == rhs
            checked += 1
    assert checked > 0


def test_kummer_large_field_is_transport_only():
    f = build_field(5)
    ctx = KummerContext(f, lam=2)
    iso = ctx.build(((1, 0), 3))
    assert iso.transport.ext_r is None
    for chi in list(enumerate_groupchars(iso.transport.target))[:6]:
        assert transport_check(iso.transport, chi)


# -- several-variable family symmetries -------------------------------------


def test_fd_m1_matches_gauss_shape():
    f = build_field_q(4)
    ctx = FDContext(f, lams=(2,))
    assert ctx.q_matrix((0, 1, 2, 3)) == imat_identity(4)
    iso = ctx.build((2, 1, 0, 3))
    rep = verify_iso(iso, compose_with=(0, 3, 2, 1))
    assert rep["pass"], rep["failures"]
    assert rep["checked"] == 81


def test_fd_m2_transports_and_verify():
    f4 = build_field_q(4)
    ctx = FDContext(f4, lams=(2, 3))
    assert ctx.q_matrix(tuple(range(5))) == imat_identity(6)
    for sigma in [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 2, 4, 3), (1, 2, 3, 4, 0)]:
        iso = ctx.build(sigma)
        for chi in enumerate_groupchars(iso.transport.target):
            assert transport_check(iso.transport, chi), sigma
    f5 = build_field_q(5)
    iso = FDContext(f5, lams=(2, 3)).build((0, 2, 1, 3, 4))
    rep = verify_iso(iso, compose_with=(1, 0, 2, 3, 4))
    assert rep["pass"], rep["failures"]
    assert rep["checked"] == 4096


@pytest.mark.parametrize(
    "family,params,sym,checked",
    [
        ("gauss", dict(lam=2), (0, 2, 1, 3), 2560),
        ("fd", dict(lams=(2, 3)), (0, 1, 3, 2, 4), 4096),
        ("fa", dict(lams=(2,)), (0, 3, 2, 1), 2560),
    ],
)
def test_point_maps_across_fermat_pairs_q5(family, params, sym, checked):
    # these symmetries move a coordinate between Fermat pairs; over F_5 their
    # points only land on the target when the base field embeds additively
    iso = make_context(family, build_field_q(5), **params).build(sym)
    rep = verify_iso(iso)
    assert rep["pass"], rep["failures"]
    assert rep["checked"] == checked > 0


def test_fd_general_position_validation():
    f = build_field(3)
    with pytest.raises(ValueError, match="general position"):
        FDContext(f, lams=(2, 2))
    with pytest.raises(ValueError, match="general position"):
        FDContext(f, lams=(1,))


def test_phi1_transports_and_verify():
    f = build_field(3)
    ctx = Phi1Context(f, lam1=2, lam2=2)
    assert ctx.q_matrix((0, 1, 2)) == imat_identity(5)
    for sym in [((1, 0, 2), 1), ((0, 2, 1), 1), ((0, 1, 2), 2)]:
        iso = ctx.build(sym)
        for chi in enumerate_groupchars(iso.transport.target):
            assert transport_check(iso.transport, chi), sym
            assert iso.transport.transform(chi) == _slot_twist_transform(ctx, sym, chi)
    iso = ctx.build(((1, 0, 2), 2))
    rep = verify_iso(iso, compose_with=((0, 2, 1), 2))
    assert rep["pass"], rep["failures"]
    assert rep["checked"] == 4032


def test_phi3_transports_and_verify():
    f = build_field(3)
    ctx = Phi3Context(f, lam1=2, lam2=2)
    assert ctx.q_matrix((0, 1)) == imat_identity(4)
    for sym in ctx.symmetries():
        iso = ctx.build(sym)
        for chi in enumerate_groupchars(iso.transport.target):
            assert transport_check(iso.transport, chi), sym
            assert iso.transport.transform(chi) == _slot_twist_transform(ctx, sym, chi)
    iso = ctx.build(((1, 0), (2, 1)))
    rep = verify_iso(iso, compose_with=((1, 0), (1, 2)))
    assert rep["pass"], rep["failures"]
    assert rep["checked"] == 3600


def test_fa_m1_transports():
    f = build_field(3)
    ctx = FAContext(f, lams=(2,))
    assert ctx.q_matrix((0, 1, 2, 3)) == imat_identity(4)
    for sigma in ctx.symmetries():
        iso = ctx.build(sigma)
        for chi in enumerate_groupchars(iso.transport.target):
            assert transport_check(iso.transport, chi), sigma


def test_fa_m2_transport_and_verify():
    f = build_field_q(4)
    ctx = FAContext(f, lams=(2, 2))
    assert ctx.q_matrix(tuple(range(6))) == imat_identity(7)
    sigma = (0, 4, 2, 3, 1, 5)  # swap the u_1 and v_1 columns
    iso = ctx.build(sigma)
    for chi in list(enumerate_groupchars(iso.transport.target))[:200]:
        assert transport_check(iso.transport, chi)
    rep = verify_iso(iso)
    assert rep["pass"], rep["failures"]
    assert rep["checked"] == 87480


def test_fa_general_position_validation():
    f = build_field(3)
    with pytest.raises(ValueError, match="general position"):
        FAContext(f, lams=(2, 2))  # subset sum 2+2 = 1 over F_3
    f4 = build_field_q(4)
    with pytest.raises(ValueError, match="general position"):
        FAContext(f4, lams=(2, 3))  # subset sum 2+3 = 1 over F_4


def test_build_iso_dispatch():
    f = build_field(3)
    iso = build_iso("gauss", f, (1, 0, 2, 3), lam=2)
    assert iso.transport.Q is not None
    with pytest.raises(ValueError):
        make_context("nope", f)


def _scalar_oracle_image(ctx, iso, ext, pt):
    """The image of pt with the unit scalars root(d_(x.w)) / root(d_x)^Q and
    the additive shifts r(c_k x_k - x'_k) read off the context's shift row,
    not off the map's d.  Returns (units, additive part)."""
    f, fb, tgt = ext.field, ctx.field, iso.target_ctx
    Q, add_mat, n = iso.transport.Q, iso.transport.add_mat, len(ctx.d_x)
    rx = [canonical_nth_root(ext, v) for v in ctx.d_x]
    rxw = [canonical_nth_root(ext, v) for v in tgt.d_x]
    scalars = [f.div(a, b) for a, b in zip(rxw, monomial_map(f, rx, Q))]
    units = tuple(f.mul(c, v) for c, v in zip(scalars, monomial_map(f, pt[:n], Q)))
    add = pt[n:]
    if add_mat is not None:
        add = tuple(functools.reduce(f.add, [f.mul(ext.embed(row[j]), u)
                                             for u, row in zip(pt[n:], add_mat)], 0)
                    for j in range(len(add_mat[0])))
    if ctx.shift_row is not None:
        _, cs = ctx._split(iso.symmetry)
        row, tgt_row = ctx.x[ctx.shift_row], tgt.x[ctx.shift_row]
        cols = [ctx._xcols.index(c) for c in ctx.as_cols]
        shifts = [fb.sub(fb.mul(c, row[j]), tgt_row[j]) for c, j in zip(cs, cols)]
        add = tuple(f.add(u, artin_schreier_root(ext, t)) for u, t in zip(add, shifts))
    return units, add


@pytest.mark.parametrize("family,q,params", [
    ("gauss", 3, dict(lam=2)), ("gauss", 4, dict(lam=2)),
    ("kummer", 3, dict(lam=2)), ("kummer", 4, dict(lam=2)),
    ("phi1", 3, dict(lam1=2, lam2=2)), ("phi3", 3, dict(lam1=2, lam2=2)),
    ("fd", 4, dict(lams=(2, 3))), ("fa", 4, dict(lams=(2,))),
])
def test_point_action_matches_scalar_oracle(family, q, params):
    # the map's unit scalars root(d_(x.w) / d_x^Q) and the oracle's
    # root(d_(x.w)) / root(d_x)^Q are N-th roots of the same value, so each
    # unit coordinate of an image may differ by one N-th root of unity, the
    # same for every point; the additive coordinates may not differ
    ctx = make_context(family, build_field_q(q), **params)
    ext = extend(ctx.field, ctx.ext_degree())
    f, n = ext.field, len(ctx.d_x)
    rng = random.Random(q)
    # tuples off the variety too: F_D at (2, 3) has no point over F_64
    probes = [tuple(rng.randrange(1, f.q) for _ in range(n))
              + tuple(rng.randrange(f.q) for _ in ctx.as_cols) for _ in range(8)]
    for sym in ctx.symmetries():
        iso = ctx.build(sym)
        ratios = set()
        src, tgt = iso.transport.source, iso.transport.target
        for pt in itertools.chain((src.to_codes(ext, p) for p in src.points(ext)), probes):
            image = tgt.to_codes(ext, iso.transport.apply(ext, _to_logs(ext, src, pt)))
            units, add = _scalar_oracle_image(ctx, iso, ext, pt)
            assert image[n:] == add, (sym, pt)
            ratios.add(tuple(f.div(a, b) for a, b in zip(image[:n], units)))
        (ratio,) = ratios
        assert all(f.pow(r, ctx.field.N) == 1 for r in ratio), sym


def test_non_unit_parameters_fail_closed():
    f = build_field_q(4)
    bad = {"gauss": dict(lam=9), "kummer": dict(lam=0), "fd": dict(lams=(2, 9)),
           "phi1": dict(lam1=5, lam2=1), "phi3": dict(lam1=2, lam2=0), "fa": dict(lams=(4,))}
    good = {"gauss": dict(lam=2), "kummer": dict(lam=2), "fd": dict(lams=(2, 3)),
            "phi1": dict(lam1=2, lam2=2), "phi3": dict(lam1=2, lam2=2), "fa": dict(lams=(2,))}
    for family, params in bad.items():
        with pytest.raises(ValueError, match="must be units"):
            make_context(family, f, **params)
        x = make_context(family, f, **good[family]).x
        x[0][0] = f.q
        with pytest.raises(ValueError, match="must be field elements"):
            make_context(family, f, x=x)


def test_non_unit_twists_fail_closed():
    f = build_field_q(4)
    for family, params, twists, bad in (("kummer", dict(lam=2), (0,), 0),
                                        ("phi1", dict(lam1=2, lam2=2), (5,), 5),
                                        ("phi3", dict(lam1=2, lam2=2), (1, 0), 0)):
        ctx = make_context(family, f, **params)
        sym = ctx.symmetry(tuple(range(ctx.arity)), twists)
        with pytest.raises(ValueError, match=f"^unit part {bad} is not a unit of F_4$"):
            ctx.build(sym)


# -- general-family isomorphisms --------------------------------------------


def _small_general(f, parts, rng, d):
    delta = Partition(parts)
    z = [[rng.randrange(f.q) for _ in range(delta.n)] for _ in range(d)]
    z[0][0] = 1
    return GeneralXDz(f, delta, z)


@pytest.mark.parametrize("parts,d", [((1, 1), 2), ((1, 2), 1), ((2, 2), 1)])
def test_general_left_action(parts, d):
    f = build_field(3)
    rng = random.Random(3)
    v = _small_general(f, parts, rng, d)
    g = [[1, 2], [0, 1]] if d == 2 else [[2]]
    iso = general_iso_lg(v, g)
    rep = verify_iso(iso)
    assert rep["pass"], rep["failures"]
    assert rep["checked"] > 0
    for chi in enumerate_groupchars(iso.transport.target):
        assert transport_check(iso.transport, chi)


@pytest.mark.parametrize("parts,d", [((1, 1), 2), ((1, 2), 1), ((2, 2), 1)])
def test_general_right_action(parts, d):
    f = build_field(3)
    rng = random.Random(4 + sum(parts))
    v = _small_general(f, parts, rng, d)
    h_blocks = tuple(
        (rng.choice([1, 2]),) + tuple(rng.randrange(3) for _ in range(s - 1))
        for s in parts
    )
    iso = general_iso_rh(v, h_blocks)
    rep = verify_iso(iso)
    assert rep["pass"], rep["failures"]
    for chi in enumerate_groupchars(iso.transport.target):
        assert transport_check(iso.transport, chi)


def test_general_right_action_checks_points():
    # the (1, 2) case above has a zero lead column in its second block, so no
    # point at any degree; with z = [[1, 1, 1]] its points are checked
    f = build_field(3)
    v = GeneralXDz(f, Partition((1, 2)), [[1, 1, 1]])
    rep = verify_iso(general_iso_rh(v, ((2,), (1, 2))))
    assert rep["pass"], rep["failures"]
    assert rep["checked"] == 4368


@pytest.mark.parametrize("parts", [(1, 2), (2, 2), (1, 1, 2)])
def test_general_maps_over_the_cap_fail_closed(parts):
    # at q = 5 a part > 1 needs F_(5^20), past the cap: no map passes unchecked
    f = build_field(5)
    rng = random.Random(7)
    v = _small_general(f, parts, rng, 1)
    isos = [general_iso_lg(v, [[2]]), general_iso_rh(v, tuple((1,) * s for s in parts)),
            general_iso_fw(v, _random_w(f, Partition(parts), rng))]
    for iso in isos:
        assert iso.transport.ext_r is None
        assert verify_iso(iso) == {"pass": False,
                                   "error": "point map unavailable (extension exceeds cap)"}


def test_general_maps_refuse_composition_checks():
    # only the six symmetry contexts can build the composite to compare with
    f = build_field(3)
    rng = random.Random(9)
    v = _small_general(f, (1, 1), rng, 2)
    w1, w2 = (_random_w(f, v.delta, rng) for _ in range(2))
    for iso in (general_iso_fw(v, w1), general_iso_fw(v, w1).transport):
        with pytest.raises(ValueError, match="composition checks need a symmetry context"):
            verify_iso(iso, compose_with=w2)
    assert verify_iso(general_iso_fw(v, w1))["pass"]


def test_general_right_action_matches_scalar_oracle():
    # the t's scale by root(h_0) and the u's shift by r(theta)
    f = build_field(3)
    checked = 0
    for parts, d in [((1, 1), 2), ((1, 2), 1), ((2, 2), 1)]:
        rng = random.Random(4 + sum(parts))
        v = _small_general(f, parts, rng, d)
        h_blocks = tuple((2,) + tuple(rng.randrange(3) for _ in range(s - 1)) for s in parts)
        iso = general_iso_rh(v, h_blocks)
        ext = extend(f, iso.transport.ext_r)
        g, l = ext.field, len(parts)
        scalars = [canonical_nth_root(ext, h[0]) for h in h_blocks]
        shifts = [artin_schreier_root(ext, th)
                  for s, h in zip(parts, h_blocks) for th in theta_list(f, s - 1, list(h))]
        for logs in v.points(ext):
            pt = v.to_codes(ext, logs)
            want = (tuple(g.mul(c, t) for c, t in zip(scalars, pt[:l]))
                    + tuple(g.add(u, sh) for u, sh in zip(pt[l:], shifts)) + pt[l + len(shifts):])
            assert iso.transport.target.to_codes(ext, iso.transport.apply(ext, logs)) == want
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("h_blocks", [((2, 1),), ((2,), (1, 2), (1,)), ((2,), (1, 2, 0)),
                                      ((2,), (1,))])
def test_general_right_action_rejects_blocks_not_matching_the_parts(h_blocks):
    # a missing, extra, long or short block is refused before any map is built
    v = _small_general(build_field(3), (1, 2), random.Random(4), 1)
    with pytest.raises(ValueError, match="do not match the parts"):
        general_iso_rh(v, h_blocks)


@pytest.mark.parametrize("parts,d", [((1, 1), 2), ((2, 2), 1), ((1, 1, 2), 1)])
def test_general_column_symmetry(parts, d):
    f = build_field(3)
    psi = standard_psi(f)
    rng = random.Random(9 + sum(parts))
    v = _small_general(f, parts, rng, d)
    for _ in range(3):
        w = _random_w(f, Partition(parts), rng)
        iso = general_iso_fw(v, w)
        rep = verify_iso(iso)
        assert rep["pass"], rep["failures"]
        assert rep["checked"] > 0
        for chi in enumerate_groupchars(iso.transport.target):
            assert transport_check(iso.transport, chi)
            # the W_Delta action on H_Delta characters, through the round trip
            chi_h = groupchar_to_hdelta(v.delta, chi, psi)
            assert iso.transport.transform(chi) == hdelta_to_groupchar(w_action_on_char(chi_h, w))


# -- reducible degenerations -------------------------------------------------


_DECOMPOSITION_CASES = [("EulerGauss", None), ("FD_reduce", (2, 2)), ("F2_reduce", (2,))]


@pytest.mark.parametrize("case,lams", _DECOMPOSITION_CASES)
def test_reducible_decompositions(case, lams):
    f = build_field(3)
    rep = reducible_decompositions(case, f, lams)
    assert rep["pass"], rep["failures"]
    assert rep["checked"] > 0


@pytest.mark.parametrize("case,lams,checked", [("EulerGauss", None, 648), ("FD_reduce", (2, 2), 729),
                                               ("F2_reduce", (2,), None)])
def test_reducible_decompositions_q4(case, lams, checked):
    # EulerGauss and FD_reduce have no point at their listed degrees over F_4,
    # so both move to the least degree with one, r = 3
    rep = reducible_decompositions(case, build_field_q(4), lams)
    assert rep["pass"], rep["failures"]
    assert rep["checked"] > 0
    if checked is not None:
        assert rep["checked"] == checked


def _bump_last_column(Q):
    """Raise the first nonzero exponent of the last column by one."""
    Q = [row[:] for row in Q]
    next(row for row in Q if row[-1])[-1] += 1
    return Q


@pytest.mark.parametrize(
    "case,lams,corrupt",
    [(case, lams, corrupt) for case, lams in _DECOMPOSITION_CASES for corrupt in ("Q", "d", "twists")],
)
def test_reducible_decompositions_detect_corruption(monkeypatch, case, lams, corrupt):
    build = varieties._DECOMPOSITIONS[case]

    def corrupted(fb, lams):
        big, small, Q, d, degrees, twists = build(fb, lams)
        if corrupt == "Q":
            Q = _bump_last_column(Q)
        elif corrupt == "d":
            d = (fb.neg(d[0]),) + tuple(d[1:])
        else:
            twists = twists[:-1]  # one root of unity missing from the last slot
        return big, small, Q, d, degrees, twists

    monkeypatch.setitem(varieties._DECOMPOSITIONS, case, corrupted)
    rep = reducible_decompositions(case, build_field(3), lams)
    assert not rep["pass"]
    if corrupt == "twists":
        assert {fail["kind"] for fail in rep["failures"]} == {"pieces do not cover"}


@pytest.mark.parametrize("case,lams", _DECOMPOSITION_CASES)
def test_decomposition_images_match_scalar_oracle(case, lams):
    # each piece is x -> (x . Q) * (root(d) * t), one per twist t
    f = build_field(3)
    big, small, Q, d, degrees, twists = varieties._DECOMPOSITIONS[case](f, lams)
    transport = varieties.MonomialMap(small, big, d, Q)
    checked = 0
    for r in degrees:
        ext = extend(f, r)
        g = ext.field
        roots = [canonical_nth_root(ext, c) for c in d]
        for logs in small.points(ext):
            pt = small.to_codes(ext, logs)
            image = big.to_codes(ext, transport.apply(ext, logs))
            for t in twists:
                scalars = [g.mul(x, ext.embed(c)) for x, c in zip(roots, t)]
                want = tuple(g.mul(c, v) for c, v in zip(scalars, monomial_map(g, pt, Q)))
                assert tuple(g.mul(x, ext.embed(c)) for x, c in zip(image, t)) == want
                checked += 1
    assert checked > 0


# -- the code-coordinate oracles ---------------------------------------------
# The point-level routines as they read on field codes: every coordinate is
# raised with Field.pow and multiplied with Field.mul.  The library carries
# unit coordinates as discrete logs; its reports must be identical to these.


def _code_points(v, ext):
    return [v.to_codes(ext, pt) for pt in v.points(ext)]


def _code_point_ok(v, ext, pt):
    f, q, N = ext.field, v.field.q, v.field.N
    if isinstance(v, GeneralXDz):
        l, n = v.delta.l, v.delta.n
        us, s = iter(pt[l:n]), pt[n:]
        zed = [[ext.embed(c) for c in row] for row in v.z]
        for t, coeffs in zip(pt[:l], v._sz_blocks(f, zed, s)):
            if coeffs[0] == 0 or t == 0 or f.pow(t, N) != coeffs[0]:
                return False
            for th in theta_list(f, len(coeffs) - 1, coeffs):
                u = next(us)
                if f.sub(f.pow(u, q), u) != th:
                    return False
        return True
    n = v.shape.count("u")
    if len(pt) != len(v.shape) or 0 in pt[:n]:
        return False
    X = [f.pow(x, N) for x in pt[:n]]
    for c, exps in v.monomials:
        if functools.reduce(f.mul, [f.pow(X[i], e) for i, e in exps.items()], ext.embed(c)) != 1:
            return False
    if any(functools.reduce(f.add, [X[i] for i in s], 0) != 1 for s in v.sums):
        return False
    return all(f.pow(t, q) == f.add(t, X[i]) for t, i in zip(pt[n:], v.links))


def _code_tau_of(v, ext, pt):
    f = ext.field
    if not isinstance(v, varieties.RelationVariety):
        return ()
    return tuple(functools.reduce(f.mul, [f.pow(pt[i], -e) for i, e in exps.items()], 1)
                 for _, exps in v.monomials)


def _code_linear_map(ext, vec, A):
    f = ext.field
    return tuple(functools.reduce(f.add, [f.mul(ext.embed(row[j]), x) for x, row in zip(vec, A)
                                          if row[j]], 0)
                 for j in range(len(A[0]) if A else 0))


def _code_apply(pm, ext, pt):
    """x -> (x . Q) * root_N(d_u), u -> u . add_mat + r(d_a), s -> s . s_mat, on codes."""
    f = ext.field
    n_t = pm.target.shape.count("u")
    scalars = [canonical_nth_root(ext, d) for d in pm.d_elem[:n_t]]
    shifts = [artin_schreier_root(ext, d) for d in pm.d_elem[n_t:]]
    n_u, n_a = pm.source.shape.count("u"), pm.source.shape.count("a")
    mult, add, s = pt[:n_u], pt[n_u:n_u + n_a], pt[n_u + n_a:]
    if pm.Q is not None:
        mult = monomial_map(f, mult, pm.Q)
    if pm.add_mat is not None:
        add = _code_linear_map(ext, add, pm.add_mat)
    if pm.s_mat is not None:
        s = _code_linear_map(ext, s, pm.s_mat)
    return (*map(f.mul, scalars, mult), *map(f.add, add, shifts), *s)


def _oracle_verify_iso(iso, compose_with=None, sample=48, seed=0):
    """verify_iso on field codes, with the target's points enumerated."""
    pm = iso.transport
    report = {"pass": True, "checked": 0, "failures": []}

    def fail(kind, **data):
        report["pass"] = False
        report["failures"].append({"kind": kind, **data})

    ext = extend(pm.source.field, pm.ext_r)
    f = ext.field
    images, tau_pairs, src_points = set(), {}, _code_points(pm.source, ext)
    n_points = 0
    for pt in src_points:
        n_points += 1
        img = _code_apply(pm, ext, pt)
        if not _code_point_ok(pm.target, ext, img):
            fail("image not on target", point=pt, image=img)
            break
        if img in images:
            fail("not injective", image=img)
            break
        images.add(img)
        src_tau = _code_tau_of(pm.source, ext, pt)
        if src_tau:
            tgt_tau = _code_tau_of(pm.target, ext, img)
            known = tau_pairs.setdefault(src_tau, tgt_tau)
            if known != tgt_tau:
                fail("tau components not respected", point=pt, expected=known, got=tgt_tau)
                break
    src_points = src_points[:n_points]
    report["checked"] = n_points
    if report["pass"] and len(set(tau_pairs.values())) != len(tau_pairs):
        fail("tau components collapse", pairs=sorted(tau_pairs.items()))
    if report["pass"]:
        n_target = len(_code_points(pm.target, ext))
        if n_target != n_points:
            fail("point count mismatch", source=n_points, target=n_target)
    if report["pass"] and compose_with is not None:
        rng = random.Random(seed)
        ctx = iso.source_ctx
        iso2 = iso.target_ctx.build(compose_with)
        iso12 = ctx.build(ctx.compose_sym(iso.symmetry, compose_with))
        if iso12.target_ctx.x != iso2.target_ctx.x:
            fail("normalized representative does not compose")
        if iso12.transport.Q != imat_mul(pm.Q, iso2.transport.Q):
            fail("exponent matrices do not compose")
        if report["pass"]:
            pts = src_points if len(src_points) <= sample else rng.sample(src_points, sample)
            per_tau, nm = {}, pm.source.shape.count("u")
            for pt in pts:
                a = _code_apply(iso2.transport, ext, _code_apply(pm, ext, pt))
                b = _code_apply(iso12.transport, ext, pt)
                if a[nm:] != b[nm:]:
                    fail("additive parts of composite disagree", point=pt)
                    break
                ratio = tuple(f.div(x, y) for x, y in zip(a[:nm], b[:nm]))
                if any(f.pow(r, pm.source.field.N) != 1 for r in ratio):
                    fail("composite differs by a non-root factor", point=pt, ratio=ratio)
                    break
                key = _code_tau_of(pm.source, ext, pt)
                if per_tau.setdefault(key, ratio) != ratio:
                    fail("composite ratio not constant on a tau component", tau=key)
                    break
            report["composition_ratios"] = sorted(set(per_tau.values()))
    return report


def _oracle_decompositions(case, field, lams=None):
    """reducible_decompositions on field codes, with big's points enumerated."""
    big, small, Q, d, degrees, twists = varieties._DECOMPOSITIONS[case](field, lams)
    report = {"case": case, "pass": True, "checked": 0, "failures": []}

    def fail(kind, **data):
        report["pass"] = False
        report["failures"].append({"kind": kind, **data})

    def count(r):
        return len(_code_points(big, extend(field, r)))

    transport = varieties.MonomialMap(small, big, d, Q)
    for chi in enumerate_groupchars(big):
        if not _transport_check_literal(transport, chi):
            fail("count identity", chi=[p.j for p in chi.parts])
    totals = {r: count(r) for r in degrees}
    if not any(totals.values()):
        degrees, r = (), 1
        while not degrees and field.q**r <= DEFAULT_CAP:
            if r not in totals:
                totals[r] = count(r)
                degrees = (r,) if totals[r] else ()
            r += 1
    for r in degrees:
        ext = extend(field, r)
        f = ext.field
        try:
            [canonical_nth_root(ext, c) for c in d]
        except ValueError:
            fail("d has no N-th root", degree=r)
            continue
        images = [(pt, _code_apply(transport, ext, pt)) for pt in _code_points(small, ext)]
        covered = set()
        for t in twists:
            units = [ext.embed(c) for c in t]
            for pt, image in images:
                img = tuple(f.mul(x, c) for x, c in zip(image, units))
                report["checked"] += 1
                if not _code_point_ok(big, ext, img):
                    fail("image not on big", degree=r, twist=t, point=pt)
                    break
                if img in covered:
                    fail("pieces overlap", degree=r, twist=t, image=img)
                    break
                covered.add(img)
        if len(covered) != totals[r]:
            fail("pieces do not cover", degree=r, covered=len(covered), total=totals[r])
    if report["checked"] == 0:
        fail("no point checked")
    return report


def _as_json(report):
    return json.dumps(report, sort_keys=True)


# every symmetry of each: Gauss and Kummer at q = 3, 4, Phi1 and Phi3 at
# q = 3, F_D (2, 3) and F_A (2,) at q = 4
_ISO_CHECK_SET = [
    ("gauss", 3, dict(lam=2)), ("gauss", 4, dict(lam=2)),
    ("kummer", 3, dict(lam=2)), ("kummer", 4, dict(lam=2)),
    ("phi1", 3, dict(lam1=2, lam2=2)), ("phi3", 3, dict(lam1=2, lam2=2)),
    ("fd", 4, dict(lams=(2, 3))), ("fa", 4, dict(lams=(2,))),
]


@pytest.mark.parametrize("family,q,params", _ISO_CHECK_SET)
def test_verify_iso_matches_code_oracle(family, q, params):
    ctx = make_context(family, build_field_q(q), **params)
    syms = ctx.symmetries()
    for k, sym in enumerate(syms):
        other = syms[(k + 1) % len(syms)]
        got = verify_iso(ctx.build(sym), compose_with=other, sample=8, seed=1)
        want = _oracle_verify_iso(ctx.build(sym), compose_with=other, sample=8, seed=1)
        assert _as_json(got) == _as_json(want), sym
        assert got["pass"], (sym, got["failures"])


@pytest.mark.parametrize("corrupt", ["Q", "d"])
def test_verify_iso_failures_match_code_oracle(corrupt):
    # the witnesses of a broken map are reported as field codes
    ctx = KummerContext(build_field(3), lam=2)
    reports = []
    for check in (verify_iso, _oracle_verify_iso):
        iso = ctx.build(((1, 0), 2))
        if corrupt == "Q":
            iso.transport.Q = _bump_last_column(iso.transport.Q)
        else:
            d = iso.transport.d_elem
            iso.transport.d_elem = (ctx.field.neg(d[0]),) + d[1:]
        reports.append(check(iso, sample=8, seed=1))
    got, want = reports
    assert not got["pass"]
    assert got["failures"][0]["kind"] == "image not on target"
    assert _as_json(got) == _as_json(want)


def _corrupt(ctx, transport, how, k):
    """Change the k-th choice of one entry in place: a bumped Q entry, a swap of
    two Q columns, a d_elem entry (a unit slot times the generator, an additive
    shift plus one) or an add_mat entry (another base element)."""
    f, Q = ctx.field, [row[:] for row in transport.Q]
    n = len(Q)
    if how == "Q":
        i, j = divmod(k % (n * n), n)
        Q[i][j] += 1
    elif how == "swap":
        a, b = k % n, (k + 1) % n
        for row in Q:
            row[a], row[b] = row[b], row[a]
    elif how == "d":
        d = list(transport.d_elem)
        i = k % len(d)
        d[i] = f.mul(d[i], f.exp[1]) if i < n else f.add(d[i], 1)
        transport.d_elem = tuple(d)
    else:
        A = [row[:] for row in transport.add_mat]
        i, j = divmod(k % len(A) ** 2, len(A))
        A[i][j] = (A[i][j] + 1) % f.q
        transport.add_mat = A
    transport.Q = Q


_CORRUPTIBLE = [("kummer", 3, dict(lam=2)), ("kummer", 4, dict(lam=2)),
                ("phi1", 3, dict(lam1=2, lam2=2)), ("phi3", 3, dict(lam1=2, lam2=2)),
                ("gauss", 4, dict(lam=2)), ("fa", 4, dict(lams=(2,)))]


@pytest.mark.parametrize("family,q,params,how", [
    (family, q, params, how) for family, q, params in _CORRUPTIBLE
    for how in ("Q", "swap", "d") + (("add_mat",) if family not in ("gauss", "fa") else ())])
def test_corrupted_maps_match_code_oracle(family, q, params, how):
    # every symmetry with one entry changed: same verdict, witnesses and
    # checked as the point-by-point oracle (Gauss and F_A maps have no add_mat)
    ctx = make_context(family, build_field_q(q), **params)
    failed = 0
    for k, sym in enumerate(ctx.symmetries()):
        reports = []
        for check in (verify_iso, _oracle_verify_iso):
            iso = ctx.build(sym)
            _corrupt(ctx, iso.transport, how, k)
            reports.append(check(iso, sample=8, seed=1))
        got, want = reports
        assert _as_json(got) == _as_json(want), (sym, k)
        failed += not got["pass"]
    assert failed > 0


def _free(f, n):
    """The variety of all n-tuples of units: no relation at all."""
    return varieties.RelationVariety(f, n)


def _bare_map(source, target, Q, r):
    return varieties.Isomorphism(None, None, None, varieties.MonomialMap(
        source, target, target.identity_element(), Q, ext_r=r))


@pytest.mark.parametrize("name,kind", [
    ("singular mod N", "not injective"),
    ("det shares a factor with M/N", "not injective"),
    ("tau pairs not a function", "tau components not respected"),
    ("tau pairs differ between fibers", "tau components not respected"),
    ("taus collapse", "tau components collapse"),
    ("not onto", "point count mismatch"),
])
def test_special_failures_match_code_oracle(name, kind):
    f = build_field_q(4)  # N = 3
    if name == "singular mod N":
        # det 3: two points of one fiber share an image
        iso = _bare_map(_free(f, 2), _free(f, 2), [[1, 0], [0, 3]], 2)
    elif name == "det shares a factor with M/N":
        # over F_64, M/N = 21 and det 7 is prime to N: every fiber maps onto
        # a whole fiber, but X -> 7 X mod 63 sends two fibers to one
        iso = _bare_map(_free(f, 1), _free(f, 1), [[7]], 3)
    elif name == "tau pairs not a function":
        # the source's tau -L_0 stays, the target's -L_0 - L_1 moves inside a fiber
        v = varieties.RelationVariety(f, 2, monomials=[(1, {0: 1})])
        w = varieties.RelationVariety(f, 2, monomials=[(1, {0: 1, 1: 1})])
        iso = _bare_map(v, w, [[1, 0], [0, 1]], 2)
    elif name == "tau pairs differ between fibers":
        # over F_64 the lattice part of L_0 + 21 L_1 is k_0 mod 3, but the
        # image's tau -L_0 - 21 L_1 moves with L_1's fiber as well
        v = varieties.RelationVariety(f, 2, monomials=[(1, {0: 1})])
        iso = _bare_map(v, v, [[1, 0], [21, 1]], 3)
    elif name == "taus collapse":
        # the target has no monomial, so every source tau goes to ()
        iso = _bare_map(varieties.RelationVariety(f, 1, monomials=[(1, {0: 1})]), _free(f, 1), None, 2)
    else:
        iso = _bare_map(FermatStar(f, 2), _free(f, 2), None, 2)
    got, want = verify_iso(iso), _oracle_verify_iso(iso)
    assert [fl["kind"] for fl in got["failures"]] == [kind]
    assert _as_json(got) == _as_json(want)


def _general_maps():
    """lg, rh and fw maps of small general varieties over F_3, each checked
    over an extension where its source has points."""
    f = build_field(3)
    rng = random.Random(5)
    v2 = _small_general(f, (1, 2), rng, 2)  # 96 points over F_9
    v112 = _small_general(f, (1, 1, 2), random.Random(5), 2)  # 192 points over F_9
    v11 = _small_general(f, (1, 1), random.Random(3), 2)  # 64 points over F_9
    maps = [general_iso_lg(v2, [[1, 2], [0, 1]]), general_iso_lg(v11, [[2, 1], [1, 1]]),
            general_iso_rh(v11, ((2,), (1,))), general_iso_rh(_small_general(f, (1, 2), rng, 1), ((2,), (1, 2)))]
    maps += [general_iso_fw(v112, _random_w(f, v112.delta, rng)) for _ in range(3)]
    maps += [general_iso_fw(v11, WDeltaElem(v11.delta, ((1, 0),), (((), ()),)))]
    for iso in maps:
        if iso.symmetry[0] != "Rh":
            iso.transport.ext_r = 2
    return maps


@pytest.mark.parametrize("k", range(8))
@pytest.mark.parametrize("corrupt", [False, True])
def test_general_maps_match_code_oracle(k, corrupt):
    iso = _general_maps()[k]
    tp = iso.transport
    if corrupt:
        # a wrong s_mat, shift or exponent
        if tp.s_mat is not None:
            tp.s_mat = [[tp.s_mat[0][0] % 2 + 1] + row[1:] for row in tp.s_mat[:1]] + tp.s_mat[1:]
        elif tp.Q is not None:
            tp.Q = [[c + 1 for c in tp.Q[0]]] + [row[:] for row in tp.Q[1:]]
        else:
            tp.d_elem = (tp.d_elem[0] % 2 + 1,) + tp.d_elem[1:]
    got, want = verify_iso(iso), _oracle_verify_iso(iso)
    assert _as_json(got) == _as_json(want)
    assert got["checked"] > 0
    assert got["pass"] != corrupt, got["failures"]


@pytest.mark.parametrize("how", ["Q", "d", "add_mat"])
def test_verify_iso_reads_a_mutated_map_afresh(how):
    # a map changed after a first check is checked as it now is
    if how == "add_mat":
        ctx, sym = KummerContext(build_field(3), lam=2), ((1, 0), 2)
    else:
        ctx, sym = GaussContext(build_field_q(4), lam=2), (2, 1, 0, 3)
    iso, fresh = ctx.build(sym), ctx.build(sym)
    assert verify_iso(iso)["pass"]
    for transport in (iso.transport, fresh.transport):
        _corrupt(ctx, transport, how, 0)
    got = verify_iso(iso)
    assert not got["pass"]
    assert _as_json(got) == _as_json(verify_iso(fresh)) == _as_json(_oracle_verify_iso(fresh))


@pytest.mark.parametrize("family,q,params", [("gauss", 4, dict(lam=2)), ("phi1", 3, dict(lam1=2, lam2=2))])
def test_verify_iso_counts_each_shared_target_once(monkeypatch, family, q, params):
    """The maps of one context share their targets: each target's points
    over the extension are counted once, and every report (pass, checked,
    failures) is the report of the same map built in a context of its own."""
    f = build_field_q(q)
    syms = make_context(family, f, **params).symmetries()
    alone = [verify_iso(make_context(family, f, **params).build(sym)) for sym in syms]
    counted, real = [], varieties.Variety._count_points
    monkeypatch.setattr(varieties.Variety, "_count_points",
                        lambda self, ext: counted.append((id(self), ext)) or real(self, ext))
    ctx = make_context(family, f, **params)
    shared = [verify_iso(ctx.build(sym)) for sym in syms]
    assert shared == alone
    assert all(report["pass"] and report["checked"] > 0 for report in shared)
    assert len(counted) == len(set(counted)) < len(syms)


@pytest.mark.parametrize("sample", [0, -3])
def test_verify_iso_rejects_a_sample_below_one(sample):
    ctx = GaussContext(build_field_q(4), lam=2)
    with pytest.raises(ValueError, match="sample must be at least 1"):
        verify_iso(ctx.build((2, 1, 0, 3)), compose_with=(1, 0, 3, 2), sample=sample)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("case,lams", _DECOMPOSITION_CASES)
def test_decompositions_match_code_oracle(q, case, lams):
    f = build_field_q(q)
    got = reducible_decompositions(case, f, lams)
    assert got["pass"], got["failures"]
    assert _as_json(got) == _as_json(_oracle_decompositions(case, f, lams))


@pytest.mark.parametrize(
    "case,lams,corrupt",
    [(case, lams, corrupt) for case, lams in _DECOMPOSITION_CASES for corrupt in ("Q", "d", "twists")],
)
def test_decomposition_failures_match_code_oracle(monkeypatch, case, lams, corrupt):
    build = varieties._DECOMPOSITIONS[case]

    def corrupted(fb, lams):
        big, small, Q, d, degrees, twists = build(fb, lams)
        if corrupt == "Q":
            Q = _bump_last_column(Q)
        elif corrupt == "d":
            d = (fb.neg(d[0]),) + tuple(d[1:])
        else:
            twists = twists[:-1]
        return big, small, Q, d, degrees, twists

    monkeypatch.setitem(varieties._DECOMPOSITIONS, case, corrupted)
    got = reducible_decompositions(case, build_field(3), lams)
    assert not got["pass"]
    assert _as_json(got) == _as_json(_oracle_decompositions(case, build_field(3), lams))


# -- counting points without building them -----------------------------------


def _count_test_varieties(f):
    rng = random.Random(f.q)
    general = [GeneralXDz(f, parts, [[rng.randrange(f.q) for _ in range(sum(parts))]
                                     for _ in range(2)])
               for parts in ((1, 1, 2), (2, 2), (1, 2))]
    return _equation_families(f) + general


@pytest.mark.parametrize("q,r", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)])
def test_point_count_matches_enumeration(q, r):
    f = build_field_q(q)
    ext = extend(f, r)
    nonzero = 0
    for v in _count_test_varieties(f):
        n = v.point_count(ext)
        assert n == sum(1 for _ in v.points(ext)), (type(v).__name__, q, r)
        nonzero += n > 0
    assert nonzero > 0


@pytest.mark.parametrize("k", range(len(_pair_test_varieties())))
def test_point_count_matches_enumeration_on_pair_grid(k):
    v, r, _ = _pair_test_varieties()[k]
    ext = extend(v.field, r)
    assert v.point_count(ext) == sum(1 for _ in v.points(ext))


def _rebuilt(v, ext):
    """v's family over ext.field, its coefficients embedded."""
    K, e = ext.field, ext.embed
    if isinstance(v, FermatStar):
        return FermatStar(K, v.n)
    if isinstance(v, ASStar):
        return ASStar(K)
    if isinstance(v, MXnLambda):
        return MXnLambda(K, v.m, v.n, e(v.lam))
    if isinstance(v, (LauricellaD, LauricellaA, LauricellaC)):
        return type(v)(K, v.n, [e(x) for x in v.lams])
    if isinstance(v, (Humbert1, Humbert3)):
        return type(v)(K, e(v.lam1), e(v.lam2))
    return GeneralXDz(K, v.delta, [[e(x) for x in row] for row in v.z])


def _count_from_rebuilt_support(v, ext):
    """#X(ext) from the solutions g of the reduced system over ext (the support
    of the rebuilt family): g carries, per unit slot, the x in ext with
    x^N = g_i and, per additive slot, the t with t^q - t = g_j, both counted
    by scanning ext (N and q of v's field)."""
    K, q, N = ext.field, v.field.q, v.field.N
    roots = Counter(K.pow(x, N) for x in K.units())
    preimages = Counter(K.sub(K.pow(t, q), t) for t in K.elements())
    total = 0
    for g, c in _rebuilt(v, ext).support():
        for kind, x in zip(v.shape, g):
            c *= roots[x] if kind == "u" else preimages[x]
        total += c
    return total


_EXTENSIONS_TO_81 = [(q, r) for q in (2, 3, 4, 5, 7, 8, 9) for r in range(1, 7) if q**r <= 81]


@pytest.mark.parametrize("q,r", _EXTENSIONS_TO_81)
def test_point_count_matches_rebuilt_support(q, r):
    ext = extend(build_field_q(q), r)
    nonzero = 0
    for v in _count_test_varieties(ext.base):
        n = v.point_count(ext)
        assert n == _count_from_rebuilt_support(v, ext), (type(v).__name__, q, r)
        nonzero += n > 0
    assert nonzero > 0


# -- properties of the log coordinates ----------------------------------------


def _draw_ext(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7]))
    r = data.draw(st.integers(1, max(1, {2: 6, 3: 4, 4: 3, 5: 2, 7: 2}[q])))
    return extend(build_field_q(q), r)


def _rooted_units(ext):
    """The base units with a canonical N-th root in ext."""
    out = []
    for a in ext.base.units():
        try:
            canonical_nth_root(ext, a)
        except ValueError:
            continue
        out.append(a)
    return out


@settings(max_examples=120)
@given(st.data())
def test_log_map_matches_monomial_map(data):
    ext = _draw_ext(data)
    f, base = ext.field, ext.base
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    Q = [[data.draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(n)]
    d = tuple(data.draw(st.sampled_from(_rooted_units(ext))) for _ in range(m))
    xs = tuple(data.draw(st.integers(1, f.q - 1)) for _ in range(n))
    pm = varieties.MonomialMap(FermatStar(base, n), FermatStar(base, m), d, Q)
    got = tuple(f.exp[L] for L in pm.apply(ext, tuple(f.dlog[x] for x in xs)))
    want = tuple(f.mul(canonical_nth_root(ext, c), y)
                 for c, y in zip(d, monomial_map(f, xs, Q)))
    assert got == want


@settings(max_examples=150)
@given(st.data())
def test_log_point_ok_matches_code_oracle(data):
    ext = _draw_ext(data)
    f, base = ext.field, ext.base
    vs = _count_test_varieties(base)
    v = vs[data.draw(st.integers(0, len(vs) - 1))]
    n = v.shape.count("u")
    pts = list(itertools.islice(v.points(ext), 40))
    if pts and data.draw(st.booleans()):
        pt = v.to_codes(ext, data.draw(st.sampled_from(pts)))
    else:
        width = len(v.shape) + (v.d if isinstance(v, GeneralXDz) else 0)
        pt = tuple(data.draw(st.integers(1 if i < n else 0, f.q - 1)) for i in range(width))
    assert v.point_ok(ext, _to_logs(ext, v, pt)) == _code_point_ok(v, ext, pt)
    assert v.tau_of(ext, _to_logs(ext, v, pt)) == tuple(
        f.dlog[c] for c in _code_tau_of(v, ext, pt))
