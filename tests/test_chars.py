"""Oracle tests for field characters."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgfq.chars import (
    AddChar,
    MulChar,
    char_sum,
    enumerate_addchars,
    enumerate_mulchars,
    standard_psi,
    trivial_char,
)
from hgfq.cyclo import Cyclo, zeta
from hgfq.ffield import build_field, build_field_q


def test_trivial_char_values():
    f = build_field(3)
    eps = trivial_char(f)
    assert eps.eval(0).is_zero()
    assert eps.eval(2) == Cyclo.integer(1)


def test_chi1_over_f3():
    f = build_field(3)
    chi = MulChar(f, 1)
    assert chi.eval(2) == Cyclo.integer(-1)  # dlog(2)=1, zeta_2 = -1
    assert chi.eval(1) == Cyclo.integer(1)


def test_addchar_values_f3():
    f = build_field(3)
    psi = standard_psi(f)
    assert psi.eval(0) == Cyclo.integer(1)
    assert psi.eval(1) == zeta(3)
    assert AddChar(f, 2).eval(2) == zeta(3)  # 2*2 = 1 mod 3


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (7, 1)])
def test_multiplicativity_exhaustive(p, e):
    f = build_field(p, e)
    for chi in enumerate_mulchars(f):
        for x, y in itertools.product(f.units(), repeat=2):
            assert chi.eval(f.mul(x, y)) == chi.eval(x) * chi.eval(y)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (7, 1)])
def test_orthogonality(p, e):
    f = build_field(p, e)
    for chi in enumerate_mulchars(f):
        s = Cyclo.zero()
        for x in f.units():
            s = s + chi.eval(x)
        assert s == Cyclo.integer(f.N * chi.delta())
    for psi in enumerate_addchars(f):
        s = Cyclo.zero()
        for x in f.elements():
            s = s + psi.eval(x)
        assert s == Cyclo.integer(f.q if psi.is_trivial() else 0)


def test_addchar_is_additive():
    f = build_field(2, 2)
    psi = standard_psi(f)
    for x, y in itertools.product(f.elements(), repeat=2):
        assert psi.eval(f.add(x, y)) == psi.eval(x) * psi.eval(y)


def test_conjugation_inverts_values():
    f = build_field(5)
    for chi in enumerate_mulchars(f):
        for x in f.units():
            assert chi.conj().eval(x) == chi.eval(x).invert()


def test_group_structure():
    f = build_field(3)
    chi = MulChar(f, 1)
    assert (chi * chi).is_trivial()  # N = 2
    assert chi.delta() == 0 and trivial_char(f).delta() == 1
    assert len(enumerate_mulchars(build_field(5))) == 4
    assert len(enumerate_addchars(build_field(5))) == 5


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        MulChar(build_field(3), 1) * MulChar(build_field(5), 1)


# -- the batch evaluator against the product of the slot values -------------


def _char_sum_literal(parts, points):
    """sum of c * prod part.eval(g_i), one Cyclo per slot per point."""
    total = Cyclo.zero()
    for g, c in points:
        v = Cyclo.integer(1)
        for part, x in zip(parts, g):
            v = v * part.eval(x)
        total = total + v.scale(c)
    return total


@settings(max_examples=150)
@given(st.data())
def test_char_sum_matches_product_of_values(data):
    f = build_field_q(data.draw(st.sampled_from([2, 3, 4, 5, 8, 9])))
    kinds = data.draw(st.lists(st.booleans(), min_size=1, max_size=4))
    # trivial characters and coordinates 0 are drawn often
    parts = tuple(
        MulChar(f, data.draw(st.one_of(st.just(0), st.integers(0, f.N - 1)))) if mul
        else AddChar(f, data.draw(st.one_of(st.just(0), st.integers(0, f.q - 1))))
        for mul in kinds)
    coord = st.one_of(st.just(0), st.integers(0, f.q - 1))
    point = st.tuples(st.tuples(*(coord for _ in kinds)), st.integers(-3, 3))
    points = data.draw(st.lists(point, max_size=12))
    points += data.draw(st.lists(st.sampled_from(points), max_size=3)) if points else []
    got, want = char_sum(parts, points), _char_sum_literal(parts, points)
    assert got.to_json() == want.to_json()


def test_char_sum_zero_values_and_empty_sum():
    f = build_field(5)
    chi, psi = MulChar(f, 1), AddChar(f, 2)
    # chi(0) = 0 drops the point but keeps the conductor N p
    assert char_sum((chi, psi), [((0, 3), 4)]).to_json() == Cyclo.zero(20).to_json()
    assert char_sum((chi, psi), []).to_json() == Cyclo.zero().to_json()
    assert char_sum((psi,), [((1,), 1)]) == zeta(5, 2)


def test_char_sum_rejects_mixed_fields():
    with pytest.raises(ValueError):
        char_sum((MulChar(build_field(3), 1), AddChar(build_field(5), 1)), [((1, 1), 1)])


def test_char_sum_rejects_a_code_past_the_field():
    f = build_field(5)
    with pytest.raises(ValueError, match="codes in 0..4"):
        char_sum((MulChar(f, 1),), [((7,), 1)])


def test_char_sum_rejects_a_negative_code():
    # -1 would read the table's last entry, the code 4
    f = build_field(5)
    with pytest.raises(ValueError, match="codes in 0..4"):
        char_sum((MulChar(f, 1),), [((-1,), 1)])


def test_char_sum_rejects_points_of_another_length():
    f = build_field(5)
    parts = (MulChar(f, 1), AddChar(f, 2))
    for g in ((1, 2, 3), (1,)):
        with pytest.raises(ValueError, match="needs 2 codes"):
            char_sum(parts, [((1, 1), 1), (g, 1)])


def test_char_sum_rejects_no_characters():
    with pytest.raises(ValueError, match="at least one character"):
        char_sum((), [((), 3)])
