"""Oracle tests for exact cyclotomic arithmetic."""

import cmath
import random
from fractions import Fraction
from math import lcm
from unittest.mock import patch

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hgfq import cyclo
from hgfq.cyclo import (_SPARSE_TERMS, Cyclo, _canonicalize, _cofactor, _mul_packed,
                        cyclotomic_poly, zeta)


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polys_match_sympy():
    x = sympy.Symbol("x")
    for m in [*range(1, 106), 272, 342, 506, 812, 930, 1155]:
        expect = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        assert cyclotomic_poly(m) == tuple(int(c) for c in reversed(expect)), m


def test_cofactors_match_sympy():
    x = sympy.Symbol("x")
    for m in [*range(1, 106), 272, 342, 506, 812, 930, 1155]:
        psi = _cofactor(m)[1]
        expect = sympy.Poly(sympy.quo(x**m - 1, sympy.cyclotomic_poly(m, x)), x).all_coeffs()
        assert psi == tuple(int(c) for c in reversed(expect)), m
        phi = cyclotomic_poly(m)
        prod = [0] * (m + 1)
        for i, a in enumerate(phi):
            for j, b in enumerate(psi):
                prod[i + j] += a * b
        assert prod == [-1] + [0] * (m - 1) + [1], m


def test_primitive_cube_roots_sum():
    assert zeta(3) + zeta(3, 2) == Cyclo.integer(-1)


def test_gauss_square():
    # (zeta_3^2 - zeta_3)^2 = -3
    d = zeta(3, 2) - zeta(3)
    assert d * d == Cyclo.integer(-3)


def test_zeta6_equals_minus_zeta3_squared():
    assert zeta(6) == -zeta(3, 2)


def test_equality_across_conductors():
    assert zeta(2) == zeta(6) ** 3
    assert zeta(3) != zeta(3, 2)
    assert Cyclo.integer(5) == Cyclo.integer(5, 12)


def test_invert_examples():
    assert Cyclo.integer(-1).invert() == Cyclo.integer(-1)
    assert zeta(3).invert() == zeta(3, 2)
    d = zeta(3, 2) - zeta(3)
    assert d.invert() == (zeta(3) - zeta(3, 2)) / 3
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero().invert()


def test_invert_random():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.choice([3, 4, 5, 6, 8, 12, 20])
        v = [rng.randrange(-5, 6) for _ in range(m)]
        a = Cyclo(m, v, rng.randrange(1, 5))
        if a.is_zero():
            continue
        assert a * a.invert() == Cyclo.integer(1)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.choice([2, 3, 4, 6, 10, 12, 15, 60])
        def rand(mm):
            return Cyclo(mm, [rng.randrange(-4, 5) for _ in range(mm)], rng.randrange(1, 4))
        a, b, c = rand(m), rand(rng.choice([m, 2 * m])), rand(m)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_canonical_idempotent():
    a = Cyclo(12, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], 6)
    b = Cyclo(a.m, list(a.num), a.den)
    assert a.num == b.num and a.den == b.den


def embed_complex(x: Cyclo) -> complex:
    """x under zeta_m -> exp(2 pi i / m): a float view for these checks only."""
    z = cmath.exp(2j * cmath.pi / x.m)
    return sum(c * z**i for i, c in enumerate(x.num) if c) / x.den


def test_embed_complex():
    assert abs(embed_complex(Cyclo.integer(-1)) - (-1)) < 1e-12
    assert abs(embed_complex(zeta(4)) - 1j) < 1e-12
    v = embed_complex(zeta(3, 2) - zeta(3))
    assert abs(v - (-1.7320508075688772j)) < 1e-9


def test_embed_complex_homomorphism():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.choice([5, 8, 12])
        a = Cyclo(m, [rng.randrange(-3, 4) for _ in range(m)])
        b = Cyclo(m, [rng.randrange(-3, 4) for _ in range(m)])
        assert abs(embed_complex(a * b) - embed_complex(a) * embed_complex(b)) < 1e-9
        assert abs(embed_complex(a + b) - (embed_complex(a) + embed_complex(b))) < 1e-9


def test_in_subfield():
    # rational integers lie in every subfield
    assert Cyclo.integer(-1, 6).in_subfield(1)
    assert Cyclo.integer(-1, 6).in_subfield(2)
    # zeta_3 in Q(zeta_6) lies in Q(zeta_3) but not Q(zeta_2)
    z3 = zeta(6, 2)
    assert z3.in_subfield(3)
    assert not z3.in_subfield(2)
    # an element written over conductor 15 that actually lies in Q(zeta_5)
    z5 = zeta(15, 9)  # zeta_5^3
    assert z5.in_subfield(5)
    assert not z5.in_subfield(3)
    with pytest.raises(ValueError):
        zeta(6).in_subfield(4)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16])
def test_lift_is_the_canonical_spread(m):
    """lift keeps the spread canonical form where its degree stays below
    deg Phi_M and canonicalizes it elsewhere: both are the spread
    canonicalized over M."""
    rng = random.Random(m)
    for k in (2, 3, 4, 5, 6, 17):
        for _ in range(5):
            x = Cyclo(m, [rng.randrange(-4, 5) for _ in range(m)], rng.randrange(1, 4))
            want = Cyclo(m * k, cyclo._spread(x, m * k), x.den)
            assert x.lift(m * k).to_json() == want.to_json(), (m, k)


@pytest.mark.parametrize("n,k", [(1, 2), (4, 3), (6, 5), (8, 3), (3, 4), (10, 9)])
def test_descend_inverts_lift(n, k):
    rng = random.Random(n * 100 + k)
    m = n * k
    for _ in range(20):
        low = Cyclo(n, [rng.randrange(-4, 5) for _ in range(n)], rng.randrange(1, 4))
        down = low.lift(m).descend(n)
        assert down.m == n and down.to_json() == low.to_json()
        assert low.lift(m).in_subfield(n)
    if k > 2:  # zeta_k is not in Q(zeta_n), nor is a value that mixes it in
        with pytest.raises(ValueError, match="not in the subfield"):
            (zeta(m, n) + Cyclo.integer(1)).descend(n)
    else:  # Q(zeta_2n) = Q(zeta_n) for odd n
        assert zeta(m, 1).descend(n) == zeta(m, 1)
    with pytest.raises(ValueError, match="coprime"):
        zeta(12).descend(6)


def test_powers_and_division():
    assert zeta(5) ** 5 == Cyclo.integer(1)
    assert zeta(5) ** -1 == zeta(5, 4)
    assert (Cyclo.integer(7) / Cyclo.integer(2)).as_rational() == Fraction(7, 2)


def test_json_shape():
    js = (zeta(3, 2) - zeta(3)).to_json()
    assert js["m"] == 3 and js["den"] == 1
    assert len(js["num"]) == 3


# -- the packed product and the sparse reduction against schoolbook code ------

# small conductors, and the conductors p(q-1) of the prime fields q = 17..31
CONDUCTORS = [1, 2, 3, 4, 7, 12, 30, 42, 110, 272, 342, 506, 812, 930]


def schoolbook_mul(a, b):
    """a * b mod x^m - 1, one term pair at a time."""
    m = len(a)
    v = [0] * m
    for i in range(m):
        for j in range(m):
            v[(i + j) % m] += a[i] * b[j]
    return v


def schoolbook_canonical(m, num, den):
    """Remainder mod Phi_m over every coefficient of Phi_m, then the gcd out."""
    phi = cyclotomic_poly(m)
    d = len(phi) - 1
    num = list(num)
    for i in range(m - 1, d - 1, -1):
        c = num[i]
        num[i] = 0
        for j in range(d):
            num[i - d + j] -= c * phi[j]
    f = [Fraction(c, den) for c in num]
    den = lcm(*(c.denominator for c in f))
    return [int(c * den) for c in f], den


@st.composite
def vectors(draw, m, shape=None):
    """A coefficient vector of length m: zero, a monomial, sparse or dense,
    with entries of either sign up to 2^bits (bits up to 130)."""
    shape = shape or draw(st.sampled_from(["zero", "monomial", "sparse", "dense"]))
    bits = draw(st.sampled_from([1, 8, 30, 66, 130]))
    rnd = draw(st.randoms(use_true_random=False))
    nonzero = {"zero": 0, "monomial": 1, "sparse": min(m, _SPARSE_TERMS),
               "dense": m}[shape]
    if shape == "sparse":
        nonzero = draw(st.integers(min(m, 2), nonzero))
    elif shape == "dense":
        nonzero = draw(st.integers(min(m, _SPARSE_TERMS + 1), m))
    v = [0] * m
    for i in rnd.sample(range(m), nonzero):
        v[i] = rnd.choice((-1, 1)) * rnd.randrange(1, 1 << bits)
    return v


@settings(max_examples=60)
@given(st.data())
def test_packed_product_matches_schoolbook(data):
    m = data.draw(st.sampled_from(CONDUCTORS))
    a, b = data.draw(vectors(m)), data.draw(vectors(m))
    terms = min(m - a.count(0), m - b.count(0))
    assert _mul_packed(a, b, terms) == schoolbook_mul(a, b)


@settings(max_examples=60)
@given(st.data())
def test_product_matches_schoolbook_on_both_paths(data):
    m = data.draw(st.sampled_from(CONDUCTORS))
    sa = data.draw(st.sampled_from(["zero", "monomial", "sparse", "dense"]))
    sb = data.draw(st.sampled_from(["zero", "monomial", "sparse", "dense"]))
    a = Cyclo(m, data.draw(vectors(m, sa)), data.draw(st.integers(1, 1 << 70)))
    b = Cyclo(m, data.draw(vectors(m, sb)), data.draw(st.integers(1, 1 << 70)))
    num, den = schoolbook_canonical(m, schoolbook_mul(list(a.num), list(b.num)), a.den * b.den)
    for prod in (a * b, b * a):
        assert (prod.m, list(prod.num), prod.den) == (m, num, den)


@pytest.mark.parametrize("word_packing", [True, False])
@pytest.mark.parametrize("m", [30, 272])
def test_packed_product_every_slot_width(monkeypatch, m, word_packing):
    # slots of 2 to 11 bytes, packed through machine words (up to 8 bytes)
    # or one to_bytes/from_bytes per coefficient
    monkeypatch.setattr(cyclo, "_WORD_PACKING", word_packing and cyclo._WORD_PACKING)
    rng = random.Random(m)
    for kb in range(1, 12):
        bits = (8 * kb - 2 - m.bit_length()) // 2
        if bits < 1:
            continue
        a = [rng.choice((-1, 1)) * rng.randrange(1 << (bits - 1), 1 << bits) for _ in range(m)]
        b = [rng.choice((-1, 1)) * rng.randrange(1 << (bits - 1), 1 << bits) for _ in range(m)]
        assert _mul_packed(a, b, m) == schoolbook_mul(a, b)


@pytest.mark.parametrize("m", [42, 272, 930])
def test_product_dispatch_boundary(m):
    # reduced operands with _SPARSE_TERMS and _SPARSE_TERMS + 1 nonzero terms
    rng = random.Random(m)
    dense = Cyclo(m, [rng.randrange(-9, 10) for _ in range(m)])
    for terms in (_SPARSE_TERMS, _SPARSE_TERMS + 1):
        v = [0] * m
        for i in rng.sample(range(len(cyclotomic_poly(m)) - 1), terms):
            v[i] = rng.randrange(1, 1 << 65)
        a = Cyclo(m, v)
        assert m - a.num.count(0) == terms
        num, den = schoolbook_canonical(m, schoolbook_mul(list(a.num), list(dense.num)), 1)
        prod = a * dense
        assert (list(prod.num), prod.den) == (num, den)


@settings(max_examples=40)
@given(st.data())
def test_canonical_form_matches_sympy_remainder(data):
    m = data.draw(st.sampled_from(CONDUCTORS))
    v = data.draw(vectors(m))
    num, den = _canonicalize(m, list(v), 1)
    x = sympy.Symbol("x")
    rem = sympy.rem(sympy.Poly(list(reversed(v)), x), sympy.Poly(sympy.cyclotomic_poly(m, x), x))
    expect = [int(c) for c in reversed(rem.all_coeffs())]
    assert den == 1
    assert num == expect + [0] * (m - len(expect))


@settings(max_examples=40)
@given(st.data())
def test_canonical_form_matches_schoolbook(data):
    m = data.draw(st.sampled_from(CONDUCTORS))
    v = data.draw(vectors(m))
    den = data.draw(st.integers(1, 1 << 70)) * data.draw(st.sampled_from([1, -1]))
    assert _canonicalize(m, list(v), den) == schoolbook_canonical(m, v, den)


@pytest.mark.parametrize("threshold", [0, 1 << 60], ids=["packed", "loop"])
@settings(max_examples=40)
@given(data=st.data())
def test_canonical_form_matches_schoolbook_on_both_paths(threshold, data):
    # a threshold of 0 sends every conductor to the packed division, a huge
    # one every conductor to the loop
    m = data.draw(st.sampled_from(CONDUCTORS + [1155]))
    v = data.draw(vectors(m))
    den = data.draw(st.integers(1, 1 << 70)) * data.draw(st.sampled_from([1, -1]))
    with patch.object(cyclo, "_PACKED_REMAINDER", threshold):
        assert _canonicalize(m, list(v), den) == schoolbook_canonical(m, v, den)


def test_remainder_dispatch_boundary(monkeypatch):
    # m = 28 and 56 make 3.4 multiply-adds per coefficient in the loop,
    # m = 30 and 60 make 4.4: the two sides of _PACKED_REMAINDER = 4
    packed = []
    rem_packed = cyclo._rem_packed
    monkeypatch.setattr(cyclo, "_rem_packed", lambda *args: packed.append(args[1]) or rem_packed(*args))
    rng = random.Random(4)
    for m in (28, 30, 56, 60):
        v = [rng.randrange(-(1 << 65), 1 << 65) for _ in range(m)]
        assert _canonicalize(m, list(v), 3) == schoolbook_canonical(m, v, 3)
    assert packed == [30, 60]


def test_equality_fast_paths(monkeypatch):
    a = Cyclo(12, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], 6)
    assert a == Cyclo(12, list(a.num), a.den)
    assert a != Cyclo(12, list(a.num), a.den + 1)
    assert a == a.lift(60) and a.lift(60) == a
    assert a != a.lift(60) + Cyclo.integer(1)
    five, zero, z3 = Cyclo.integer(5, 12), Cyclo.zero(30), zeta(3)
    # comparing with an int builds no Cyclo
    monkeypatch.setattr(Cyclo, "__init__", None)
    assert five == 5 and 5 == five
    assert five != 4 and five != -5
    assert zero == 0 and zero != 1
    assert a != 0 and z3 != 1
