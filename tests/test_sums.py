"""Oracle tests for Gauss/Jacobi sums and the Pochhammer-style ratios."""

import itertools
import random

import pytest

from hgfq.chars import AddChar, MulChar, enumerate_mulchars, standard_psi, trivial_char
from hgfq.cyclo import Cyclo, zeta
from hgfq.ffield import build_field, build_field_q, extend
from hgfq.sums import (
    gauss,
    gauss_circ,
    gauss_inverse,
    jacobi,
    jacobi_direct,
    jacobi_histogram,
    jacobi_product_formula,
    pochhammer,
    pochhammer_circ,
)


def test_gauss_trivial_is_one():
    f = build_field(3)
    assert gauss(trivial_char(f), standard_psi(f)) == Cyclo.integer(1)


def test_gauss_chi1_f3():
    f = build_field(3)
    g = gauss(MulChar(f, 1), standard_psi(f))
    assert g == zeta(3, 2) - zeta(3)
    assert g * g == Cyclo.integer(-3)


def test_gauss_circ_values():
    f = build_field(3)
    psi = standard_psi(f)
    assert gauss_circ(trivial_char(f), psi) == Cyclo.integer(3)
    assert gauss_circ(MulChar(f, 1), psi) == gauss(MulChar(f, 1), psi)
    f5 = build_field(5)
    assert gauss_circ(trivial_char(f5), standard_psi(f5)) == Cyclo.integer(5)


def test_trivial_psi_rejected():
    from hgfq.chars import AddChar

    f = build_field(3)
    with pytest.raises(ValueError):
        gauss(trivial_char(f), AddChar(f, 0))


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_gauss_reflection_identity(q):
    f = build_field_q(q)
    psi = standard_psi(f)
    minus1 = f.neg(1)
    for eta in enumerate_mulchars(f):
        lhs = gauss(eta, psi) * gauss_circ(eta.inverse(), psi)
        assert lhs == eta.eval(minus1).scale(q)


def test_gauss_inverse_is_reciprocal():
    f = build_field(5)
    psi = standard_psi(f)
    for eta in enumerate_mulchars(f):
        assert gauss(eta, psi) * gauss_inverse(eta, psi) == Cyclo.integer(1)


def test_jacobi_spot_values_f3():
    f = build_field(3)
    chi = MulChar(f, 1)
    eps = trivial_char(f)
    assert jacobi(eps, eps) == Cyclo.integer(-1)  # (1-(1-3)^2)/3
    assert jacobi(chi, chi) == Cyclo.integer(-1)
    assert jacobi(chi, eps) == Cyclo.integer(1)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_jacobi_pairs_match_product_formula(q):
    f = build_field_q(q)
    for e1, e2 in itertools.product(enumerate_mulchars(f), repeat=2):
        assert jacobi_direct(e1, e2) == jacobi_product_formula(e1, e2)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_jacobi_triples_match_product_formula(q):
    f = build_field_q(q)
    chars = enumerate_mulchars(f)
    for e1, e2, e3 in itertools.product(chars, repeat=3):
        assert jacobi_direct(e1, e2, e3) == jacobi_product_formula(e1, e2, e3)


def test_jacobi_long_tuple_uses_product_formula():
    f = build_field(3)
    chi = MulChar(f, 1)
    eps = trivial_char(f)
    v = jacobi(chi, chi, chi, eps)
    # independent check: direct 3-fold enumeration
    total = Cyclo.zero()
    for x1 in f.units():
        for x2 in f.units():
            for x3 in f.units():
                x4 = f.sub(1, f.add(f.add(x1, x2), x3))
                if x4:
                    total = total + chi.eval(x1) * chi.eval(x2) * chi.eval(x3) * eps.eval(x4)
    assert v == -total


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("n", [4, 5])
def test_long_jacobi_product_formula_over_conductor_n(q, n):
    # four or more characters go through the product formula, which descends
    # exactly to conductor N, as direct enumeration gives it
    f = build_field_q(q)
    N = max(f.N, 1)
    chars = enumerate_mulchars(f)
    rng = random.Random(q * 10 + n)
    tuples = [(chars[0],) * n, (chars[1],) * (n - 1) + (chars[-1],)]
    tuples += [tuple(rng.choice(chars) for _ in range(n)) for _ in range(6)]
    for etas in tuples:
        got = jacobi(*etas)
        assert got.m == N, etas
        assert got.to_json() == jacobi_direct(*etas).to_json(), etas
        assert jacobi_product_formula(*etas).to_json() == got.to_json()


@pytest.mark.parametrize("q", [3, 4, 5])
def test_jacobi_values_live_downstairs(q):
    f = build_field_q(q)
    m = f.p * max(f.N, 1)
    for e1, e2 in itertools.product(enumerate_mulchars(f), repeat=2):
        assert jacobi(e1, e2).lift(m).in_subfield(max(f.N, 1))


def test_pochhammer_at_trivial_nu():
    f = build_field(5)
    psi = standard_psi(f)
    for alpha in enumerate_mulchars(f):
        assert pochhammer(alpha, trivial_char(f), psi) == Cyclo.integer(1)
        assert pochhammer_circ(alpha, trivial_char(f), psi) == Cyclo.integer(1)


def test_pochhammer_spot_f3():
    f = build_field(3)
    psi = standard_psi(f)
    chi = MulChar(f, 1)
    eps = trivial_char(f)
    assert pochhammer(eps, chi, psi) == zeta(3, 2) - zeta(3)
    lhs = pochhammer(chi, chi, psi) * pochhammer_circ(chi, chi, psi)
    assert lhs == Cyclo.integer(-1)  # chi(-1) = chi(2) = -1


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_pochhammer_reflection(q):
    f = build_field_q(q)
    psi = standard_psi(f)
    minus1 = f.neg(1)
    for alpha, nu in itertools.product(enumerate_mulchars(f), repeat=2):
        lhs = pochhammer(alpha, nu, psi) * pochhammer_circ(alpha.inverse(), nu.inverse(), psi)
        assert lhs == nu.eval(minus1)


def test_jacobi_arity_validation():
    f = build_field(3)
    with pytest.raises(ValueError):
        jacobi(MulChar(f, 1))


# -- the histogram sums against their defining sums ---------------------------


def _gauss_by_definition(eta, psi):
    total = Cyclo.zero()
    for x in eta.field.units():
        total = total + psi.eval(x) * eta.eval(x)
    return -total


def _jacobi_by_definition(*etas):
    f, n = etas[0].field, len(etas)
    total = Cyclo.zero()
    for xs in itertools.product(list(f.units()), repeat=n - 1):
        last = 1
        for x in xs:
            last = f.sub(last, x)
        if last:
            term = Cyclo.integer(1)
            for e, x in zip(etas, xs + (last,)):
                term = term * e.eval(x)
            total = total + term
    return total if n % 2 else -total


def _same(a, b):
    return (a.m, a.num, a.den) == (b.m, b.num, b.den)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_gauss_histogram_matches_definition(q):
    f = build_field_q(q)
    units = list(f.units())
    for a in dict.fromkeys([1, units[len(units) // 2], units[-1]]):
        psi = AddChar(f, a)
        for eta in enumerate_mulchars(f):
            assert _same(gauss(eta, psi), _gauss_by_definition(eta, psi)), (q, a, eta)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_jacobi_histogram_matches_definition(q):
    f = build_field_q(q)
    chars = enumerate_mulchars(f)
    for pair in itertools.product(chars, repeat=2):
        assert _same(jacobi_direct(*pair), _jacobi_by_definition(*pair)), pair
    triples = list(itertools.product(chars, repeat=3))
    if len(triples) > 125:
        triples = random.Random(q).sample(triples, 125)
    for triple in triples:
        assert _same(jacobi_direct(*triple), _jacobi_by_definition(*triple)), triple


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_jacobi_histograms_are_the_jacobi_sums(q):
    """Every binary histogram is j(chi_j, chi_k) unreduced: its terms count
    q - 2, and it canonicalizes to the sum by definition (jacobi_direct reads
    it for two characters)."""
    f = build_field_q(q)
    N = max(f.N, 1)
    for j, k in itertools.product(range(N), repeat=2):
        hist = jacobi_histogram(f, j, k)
        assert sum(hist) == -(q - 2) and max(hist) <= 0
        want = _jacobi_by_definition(MulChar(f, j), MulChar(f, k))
        assert _same(Cyclo(N, hist), want) and _same(jacobi_direct(MulChar(f, j), MulChar(f, k)), want)


# -- Hasse-Davenport lifting (Ireland-Rosen, ch. 11.4) ---------------------------


def _norm_lift(ext, chi):
    """chi o N on the extension, from the norm x * x^q * ... * x^(q^(r-1)) read
    back into the base field through embed."""
    big, q = ext.field, ext.base.q
    down = {ext.embed(a): a for a in ext.base.elements()}

    def norm(x):
        n = 1
        for i in range(ext.r):
            n = big.mul(n, big.pow(x, q**i))
        return down[n]

    values = {x: chi(norm(x)) for x in big.units()}
    g = big.generator
    lifted = MulChar(big, next(j for j in range(big.N) if MulChar(big, j)(g) == values[g]))
    assert all(lifted(x) == v for x, v in values.items())
    return lifted


@pytest.mark.parametrize("q,r", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2),
                                 (4, 3), (5, 2), (7, 2), (8, 2), (9, 2)])
def test_hasse_davenport_lifting(q, r):
    # g = -sum chi psi, so g(eps) = 1 and the classical -g_(q^r)(chi o N) = (-g_q(chi))^r
    # reads g_(q^r)(chi o N) = g_q(chi)^r; psi on F_(q^r) is psi on F_q after the trace
    f = build_field_q(q)
    ext = extend(f, r)
    for chi in enumerate_mulchars(f):
        lifted = _norm_lift(ext, chi)
        assert gauss(lifted, standard_psi(ext.field)) == gauss(chi, standard_psi(f)) ** r, chi
