"""Oracle tests for finite-field construction, tables, and canonical roots."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgfq.ffield import (
    ExtensionField,
    Field,
    artin_schreier_root,
    build_field,
    build_field_q,
    canonical_nth_root,
    extend,
    is_prime,
)


def test_f3_generator_is_2():
    f = build_field(3)
    assert f.q == 3
    assert f.generator == 2


def test_f4_modulus_is_unique_irreducible_quadratic():
    f = build_field(2, 2)
    # x^2 + x + 1 is the only monic irreducible quadratic over F_2
    assert f.modulus == (1, 1, 1)


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        Field(4, 1)


def test_cap_enforced(monkeypatch):
    # one bound, 2^20, on every field and extension, checked before any table
    f2, f3 = build_field(2), build_field(3)

    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(Field, "_find_modulus", no_tables)
    monkeypatch.setattr(Field, "_build_tables", no_tables)
    monkeypatch.setattr(ExtensionField, "_find_embed_stride", no_tables)
    for make, what in ((lambda: Field(2, 21), "field size 2097152"),
                       (lambda: build_field(2, 21), "field size 2097152"),
                       (lambda: build_field_q(2**21), "field size 2097152"),
                       (lambda: extend(f2, 21), "extension size 2097152"),
                       (lambda: ExtensionField(f3, 13), "extension size 1594323")):
        with pytest.raises(ValueError, match=f"^{what} exceeds cap 1048576$"):
            make()


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3)])
def test_field_axioms_exhaustive(p, e):
    f = build_field(p, e)
    elems = list(f.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(elems[: min(len(elems), 9)], repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (3, 2), (7, 1)])
def test_exp_dlog_roundtrip(p, e):
    f = build_field(p, e)
    for i in range(f.N):
        assert f.dlog[f.exp[i]] == i
    # generator has full order
    seen = set(f.exp)
    assert len(seen) == f.N


def test_inverse_and_pow():
    f = build_field(3, 2)
    for a in f.units():
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.N) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_trace_examples():
    f4 = build_field(2, 2)
    assert f4.trace_to_prime(1) == 0  # 1 + 1 = 0 in characteristic 2
    f3 = build_field(3)
    assert f3.trace_to_prime(2) == 2  # e = 1: trace is the identity
    assert f3.trace_to_prime(0) == 0


def test_trace_additive_and_surjective():
    f = build_field(3, 2)
    traces = set()
    for x in f.elements():
        for y in f.elements():
            tx, ty = f.trace_to_prime(x), f.trace_to_prime(y)
            assert f.trace_to_prime(f.add(x, y)) == (tx + ty) % f.p
        traces.add(f.trace_to_prime(x))
    assert traces == {0, 1, 2}


@pytest.mark.parametrize("q,r", [(3, 2), (5, 2), (5, 4), (7, 2), (8, 2), (9, 2)])
def test_extension_embed_is_homomorphism(q, r):
    f = build_field_q(q)
    ext = extend(f, r)
    assert ext.field.q == q**r
    for a in f.elements():
        for b in f.elements():
            assert ext.embed(f.mul(a, b)) == ext.field.mul(ext.embed(a), ext.embed(b))
            assert ext.embed(f.add(a, b)) == ext.field.add(ext.embed(a), ext.embed(b))
    # embedded generator keeps its order
    d = ext.field.dlog[ext.embed(f.generator)]
    assert (f.N * d) % ext.field.N == 0 and d != 0


def test_trivial_extension_is_identity():
    f = build_field(3)
    ext = extend(f, 1)
    assert ext.field is f
    for a in f.elements():
        assert ext.embed(a) == a


def test_one_field_object_per_size():
    f = build_field_q(3)
    assert build_field(3) is f and build_field(3, 1) is f
    assert build_field_q(9) is build_field(3, 2)
    extend(build_field_q(3), 1)
    assert extend(build_field(3), 1).field is build_field(3)
    assert extend(f, 2).field is build_field_q(9)


def test_extension_cap():
    with pytest.raises(ValueError):
        ExtensionField(build_field(3), 13)


@pytest.mark.parametrize("p,e,r", [(3, 1, 2), (3, 1, 4), (2, 2, 2), (5, 1, 2), (2, 2, 3)])
def test_frobenius_fixes_exactly_base(p, e, r):
    f = build_field(p, e)
    ext = extend(f, r)
    embedded = {ext.embed(a) for a in f.elements()}
    for x in ext.field.elements():
        fixed = ext.field.pow(x, f.q) == x  # the Frobenius x -> x^q
        assert fixed == (x in embedded)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_canonical_nth_root(p, e):
    f = build_field(p, e)
    ext = extend(f, f.N)
    assert canonical_nth_root(ext, 1) == 1
    for a in f.units():
        root = canonical_nth_root(ext, a)
        assert ext.field.pow(root, f.N) == ext.embed(a)
    with pytest.raises(ValueError):
        canonical_nth_root(ext, 0)


def test_canonical_sqrt_of_2_in_f9():
    f = build_field(3)
    ext = extend(f, 2)
    r = canonical_nth_root(ext, 2)
    assert ext.field.mul(r, r) == ext.embed(2)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2)])
def test_artin_schreier_root(p, e):
    f = build_field(p, e)
    ext = extend(f, p)
    r1 = artin_schreier_root(ext, 1)
    assert ext.field.sub(ext.field.pow(r1, f.q), r1) == 1
    for t in f.elements():
        rt = artin_schreier_root(ext, t)
        assert ext.field.sub(ext.field.pow(rt, f.q), rt) == ext.embed(t)
    # additivity
    for t in f.elements():
        for u in f.elements():
            lhs = artin_schreier_root(ext, f.add(t, u))
            rhs = ext.field.add(artin_schreier_root(ext, t), artin_schreier_root(ext, u))
            assert lhs == rhs
    assert artin_schreier_root(ext, 0) == 0


def test_build_field_q():
    assert build_field_q(9).q == 9
    assert build_field_q(7).q == 7
    with pytest.raises(ValueError):
        build_field_q(12)


def test_second_generator_rebuild():
    f = build_field(5)
    gens = f.generators()
    assert gens[0] == f.generator == 2
    g2 = f.with_generator(gens[1])
    assert g2.generator == gens[1]
    for i in range(g2.N):
        assert g2.dlog[g2.exp[i]] == i
    for a in g2.units():
        assert g2.mul(a, g2.inv(a)) == 1


# -- the exp table against products of whole polynomials -----------------------


def _exp_by_products(f):
    """The powers of the generator, each the previous one times the generator
    by a product of whole polynomials, codes converted on every step."""
    exp = [1] * f.N
    for i in range(1, f.N):
        exp[i] = f._mul_poly_codes(exp[i - 1], f.generator)
    return exp


_EXTENSIONS_TO_4096 = [(p, e) for p in range(2, 65) if is_prime(p)
                       for e in range(2, 13) if p**e <= 4096]


@pytest.mark.parametrize("p,e", _EXTENSIONS_TO_4096)
def test_exp_table_matches_polynomial_products(p, e):
    f = build_field(p, e)
    for g in (f, f.with_generator(f.generators()[-1])):
        exp = _exp_by_products(g)
        assert g.exp == exp, (p, e, g.generator)
        assert g.dlog == {c: i for i, c in enumerate(exp)}, (p, e, g.generator)


def test_json_shape():
    f = build_field(3, 2)
    js = f.to_json()
    assert js["p"] == 3 and js["e"] == 2
    assert len(js["modulus"]) == 3 and js["modulus"][-1] == 1


# -- the Zech, negation and trace tables against digit loops -------------------


def _digit_add(f, a, b):
    """a + b on the base-p digits of the codes."""
    p, code, mult = f.p, 0, 1
    while a or b:
        code += ((a + b) % p) * mult
        a, b, mult = a // p, b // p, mult * p
    return code


def _digit_neg(f, a):
    p, code, mult = f.p, 0, 1
    while a:
        code += ((p - a % p) % p) * mult
        a, mult = a // p, mult * p
    return code


def _digit_trace(f, x):
    """x + x^p + ... + x^(p^(e-1)), added digit by digit."""
    t = 0
    for _ in range(f.e):
        t = _digit_add(f, t, x)
        x = f.pow(x, f.p)
    return t


@functools.lru_cache(maxsize=None)
def _table_field(p, e, alt):
    """F_(p^e), or its copy on the second generator when alt."""
    f = build_field(p, e)
    return f.with_generator(f.generators()[1]) if alt else f


def _check_tables(f, a, b):
    assert f.add(a, b) == _digit_add(f, a, b)
    assert f.sub(a, b) == _digit_add(f, a, _digit_neg(f, b))
    assert f.neg(a) == _digit_neg(f, a)
    assert f.trace_to_prime(a) == _digit_trace(f, a)


_SMALL_EXTENSIONS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]


@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("p,e", _SMALL_EXTENSIONS)
def test_tables_match_digit_loops_on_every_pair(p, e, alt):
    f = _table_field(p, e, alt)
    for a, b in itertools.product(f.elements(), repeat=2):
        _check_tables(f, a, b)


@settings(max_examples=300)
@given(st.data())
def test_tables_match_digit_loops_large(data):
    p, e = data.draw(st.sampled_from([(3, 6), (2, 12)]))
    f = _table_field(p, e, data.draw(st.booleans()))
    _check_tables(f, data.draw(st.integers(0, f.q - 1)), data.draw(st.integers(0, f.q - 1)))


def test_tables_only_for_extensions():
    assert not hasattr(build_field(7), "_zech")
    f = build_field(3, 4)
    assert (len(f._zech), len(f._neg), len(f._trace)) == (f.N, f.q, f.q)
    g = f.with_generator(f.generators()[1])
    # the Zech table depends on the generator; negation and trace do not
    assert g._zech != f._zech and g._neg is f._neg and g._trace is f._trace
