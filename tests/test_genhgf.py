"""Oracle tests for the partition-indexed character sums Phi(chi; z)."""

import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgfq.chars import AddChar, MulChar, char_sum, standard_psi, trivial_char
from hgfq.cyclo import Cyclo
from hgfq.ffield import build_field, build_field_q
from hgfq.genhgf import (
    HDeltaChar,
    JmChar,
    Partition,
    WDeltaElem,
    _REDUCTIONS,
    _phi_frame,
    _phi_histogram,
    chi_of_sz,
    hdelta_chars,
    h_to_matrix,
    identity_w,
    iota,
    iota_inv,
    mat_mul,
    mu_matrix,
    mu_matrix_prime,
    normalized_z,
    p_poly_list,
    phi2_from_zpp,
    phi_delta,
    phi_table,
    reduce_to_classical,
    series_mul,
    theta,
    theta_list,
    w_action_on_char,
    w_to_matrix,
)
from hgfq.suites import _w_samples
from hgfq.varieties import GeneralXDz
from test_chars import _char_sum_literal


# -- partitions ------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((2, 1))
    with pytest.raises(ValueError):
        Partition((0, 1))
    p = Partition((1, 1, 2, 2, 2))
    assert p.n == 8 and p.l == 5
    assert p.grouped() == [(1, 2), (2, 3)]
    assert [list(r) for r in p.column_blocks()] == [[0], [1], [2, 3], [4, 5], [6, 7]]


def test_partition_characteristic_guard():
    f = build_field(3)
    with pytest.raises(ValueError):
        Partition((4,)).check_char(f)
    Partition((3,)).check_char(f)  # p >= largest part is fine


# -- log/exp coordinates ---------------------------------------------------


def _theta_bar(field, i, x):
    """x_0^i * theta_i(x); a polynomial in the entries of x."""
    return field.mul(field.pow(x[0], i), theta(field, i, x))


def _weighted_compositions(i):
    """All (k_1..k_i) >= 0 with k_1 + 2 k_2 + ... + i k_i = i."""
    def rec(j, remaining, acc):
        if j > i:
            if remaining == 0:
                yield tuple(acc)
            return
        for kj in range(remaining // j + 1):
            yield from rec(j + 1, remaining - j * kj, acc + [kj])

    yield from rec(1, i, [])


def _theta_multinomial(field, i, x):
    """Direct multinomial-sum evaluation of theta_i, independent of the recurrence."""
    if i >= field.p:
        raise ValueError("index must be smaller than the characteristic")
    inv0 = field.inv(x[0])
    X = [0] + [field.mul(xi, inv0) for xi in list(x)[1:]]
    while len(X) <= i:
        X.append(0)
    total = 0
    for ks in _weighted_compositions(i):
        s = sum(ks)
        num = (-1) ** (s - 1) * factorial(s - 1)
        den = 1
        for kj in ks:
            den *= factorial(kj)
        term = field.div(field.from_int(num), field.from_int(den))
        for j, kj in enumerate(ks, start=1):
            term = field.mul(term, field.pow(X[j], kj))
        total = field.add(total, term)
    return total


def _p_poly(field, i, y):
    """The i-th exp-series coefficient p_i(y), with p_0 = 1."""
    if i == 0:
        return 1
    return p_poly_list(field, i, y)[i - 1]


def test_theta1_is_ratio():
    f = build_field(7)
    for x0 in f.units():
        for x1 in f.elements():
            assert theta(f, 1, (x0, x1)) == f.div(x1, x0)


def test_theta2_spot_f5():
    f = build_field(5)
    assert theta(f, 2, (1, 2, 3)) == 1  # 2*th2 = 2*3 - 2*2 = 2


def test_theta_bar_is_polynomial_scaling():
    f = build_field(5)
    x = (2, 3, 1)
    assert _theta_bar(f, 2, x) == f.mul(f.pow(2, 2), theta(f, 2, x))
    # the polynomial itself: x_0^2 theta_2(x) = x_0 x_2 - x_1^2 / 2
    for x0, x1, x2 in itertools.product(f.units(), f.elements(), f.elements()):
        want = f.sub(f.mul(x0, x2), f.div(f.mul(x1, x1), 2))
        assert _theta_bar(f, 2, (x0, x1, x2)) == want


def test_theta_index_bound():
    f = build_field(3)
    with pytest.raises(ValueError):
        theta(f, 3, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        theta_list(f, 1, (0, 1))


def test_theta_additive_on_products():
    # theta_i(x * y) = theta_i(x) + theta_i(y): log takes products to sums
    f = build_field(5)
    rng = random.Random(3)
    for _ in range(25):
        x = (rng.choice(list(f.units())), rng.randrange(5), rng.randrange(5))
        y = (rng.choice(list(f.units())), rng.randrange(5), rng.randrange(5))
        xy = series_mul(f, x, y)
        tx, ty, txy = (theta_list(f, 2, v) for v in (x, y, xy))
        assert all(f.add(a, b) == c for a, b, c in zip(tx, ty, txy))


def test_theta_matches_multinomial_expansion():
    f = build_field(7)
    rng = random.Random(5)
    for _ in range(20):
        x = tuple([rng.choice(list(f.units()))] + [rng.randrange(7) for _ in range(3)])
        for i in (1, 2, 3):
            assert theta(f, i, x) == _theta_multinomial(f, i, x)


def test_p_poly_spot_f5():
    f = build_field(5)
    assert _p_poly(f, 2, (2, 3)) == 0  # 2*p2 = 2*2 + 2*3 = 10 = 0


def test_iota_spot_f3():
    f = build_field(3)
    assert iota(f, (2, 1)) == (2, 2)  # theta_1 = 1/2 = 2


def test_iota_roundtrip_f5_m3():
    f = build_field(5)
    for h in itertools.product(f.units(), f.elements(), f.elements()):
        a0, *a = iota(f, h)
        assert iota_inv(f, a0, a) == h
    with pytest.raises(ValueError):
        iota_inv(f, 0, (1,))


# -- block-group characters ------------------------------------------------


def test_jmchar_is_multiplicative():
    f = build_field(5)
    psi = standard_psi(f)
    chi = JmChar(MulChar(f, 1), (2, 3), psi)
    rng = random.Random(11)
    for _ in range(20):
        x = tuple([rng.choice(list(f.units()))] + [rng.randrange(5) for _ in range(2)])
        y = tuple([rng.choice(list(f.units()))] + [rng.randrange(5) for _ in range(2)])
        assert chi.eval(series_mul(f, x, y)) == chi.eval(x) * chi.eval(y)


def test_jmchar_vanishes_off_units():
    f = build_field(3)
    chi = JmChar(MulChar(f, 0), (1,), standard_psi(f))
    assert chi.eval((0, 1)) == Cyclo.zero()


def test_hdelta_char_group_size():
    f = build_field(3)
    delta = Partition((1, 2))
    chars = list(hdelta_chars(f, delta, standard_psi(f)))
    # (q-1) choices for the size-1 block, (q-1)*q for the size-2 block
    assert len(chars) == 2 * (2 * 3)


def test_hdelta_char_rejects_mixed_fields():
    f3, f5 = build_field(3), build_field(5)
    ok = JmChar(MulChar(f3, 1), (), standard_psi(f3))
    mixed = [
        JmChar(MulChar(f3, 1), (1,), AddChar(f5, 4)),  # psi over another field
        JmChar(MulChar(f5, 1), (1,), standard_psi(f5)),  # a second block over F_5
    ]
    for block in mixed:
        with pytest.raises(ValueError, match="different fields"):
            HDeltaChar(Partition((1, 2)), (ok, block))
    with pytest.raises(ValueError, match="different fields"):
        HDeltaChar(Partition((2,)), (mixed[0],))
    HDeltaChar(Partition((1, 2)), (ok, JmChar(MulChar(f3, 1), (1,), standard_psi(f3))))


# -- substitution matrices -------------------------------------------------


def test_mu_identity():
    f = build_field(5)
    m = 4
    ident = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
    assert mu_matrix(f, (1, 0, 0), m) == ident


def test_mu_m2_diagonal():
    f = build_field(7)
    for c in f.units():
        assert mu_matrix(f, (c,), 2) == ((1, 0), (0, c))


def test_mu_scaling_is_diagonal():
    f = build_field(5)
    y1 = 3
    mat = mu_matrix(f, (y1, 0, 0), 4)
    for i in range(4):
        for j in range(4):
            assert mat[i][j] == (f.pow(y1, i) if i == j else 0)


def test_mu_composition_law():
    # mu(a) mu(b) = mu(c) with c_k = sum_j a_j mu_(j,k)(b): substitution of
    # one truncated series into another
    f = build_field(5)
    m = 4
    rng = random.Random(2)
    for _ in range(10):
        a = tuple([rng.choice(list(f.units()))] + [rng.randrange(5) for _ in range(m - 2)])
        b = tuple([rng.choice(list(f.units()))] + [rng.randrange(5) for _ in range(m - 2)])
        Mb = mu_matrix(f, b, m)
        c = tuple(
            sum_
            for sum_ in (
                [
                    _dot(f, [a[j - 1] for j in range(1, m)], [Mb[j][k] for j in range(1, m)])
                    for k in range(1, m)
                ]
            )
        )
        assert tuple(map(tuple, mat_mul(f, mu_matrix(f, a, m), Mb))) == mu_matrix(f, c, m)


def _dot(field, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def test_mu_validation():
    f = build_field(3)
    with pytest.raises(ValueError):
        mu_matrix(f, (0, 1), 3)
    with pytest.raises(ValueError):
        mu_matrix(f, (1,), 3)


def test_mu_prime_drops_border():
    f = build_field(5)
    full = mu_matrix(f, (2, 1), 3)
    prime = mu_matrix_prime(f, (2, 1), 3)
    assert prime == tuple(row[1:] for row in full[1:])


def test_act_mu_matches_direct_composition():
    # chi.act_mu(c) pairs a with mu' theta(h), i.e. equals chi at the element
    # whose log coordinates are transpose(mu') applied to theta(h)
    f = build_field(5)
    psi = standard_psi(f)
    chi = JmChar(MulChar(f, 2), (1, 3), psi)
    c = (2, 4)
    moved = chi.act_mu(c)
    mp = mu_matrix_prime(f, c, 3)
    for h in itertools.product(f.units(), f.elements(), f.elements()):
        th = theta_list(f, 2, h)
        th2 = tuple(_dot(f, [mp[i][j] for i in range(2)], th) for j in range(2))
        hm = iota_inv(f, h[0], th2)
        assert moved.eval(h) == chi.eval(hm)


# -- the sum and its symmetries --------------------------------------------


def test_phi_d1_orthogonality():
    f = build_field(3)
    psi = standard_psi(f)
    delta = Partition((1,))
    eps_chi = HDeltaChar(delta, (JmChar(MulChar(f, 0), (), psi),))
    chi1 = HDeltaChar(delta, (JmChar(MulChar(f, 1), (), psi),))
    z = [[1]]
    assert phi_delta(eps_chi, z) == Cyclo.integer(2)
    assert phi_delta(chi1, z) == Cyclo.zero()


def test_phi_zero_column_block():
    f = build_field(3)
    psi = standard_psi(f)
    delta = Partition((1,))
    chi = HDeltaChar(delta, (JmChar(MulChar(f, 0), (), psi),))
    assert phi_delta(chi, [[0]]) == Cyclo.zero()


def test_phi_shape_validation():
    f = build_field(3)
    psi = standard_psi(f)
    chi = HDeltaChar(Partition((1, 1)), tuple(JmChar(MulChar(f, 0), (), psi) for _ in range(2)))
    # z is checked inside the cached frame builder: a valid z cached
    # first must not let a bad one through, and lru_cache keeps no exception,
    # so every bad z raises on every call
    good = [[1, 2], [0, 1]]
    want = phi_delta(chi, good)
    # a wrong column count, entries outside 0..q-1, and an unhashable entry
    for z in ([[1]], [[5, 0], [0, 1]], [[-1, 1]], [[1, 3]], [[1, 2, 0], [0, 1, 1]],
              [[[1], 2], [0, 1]]):
        for _ in range(2):
            with pytest.raises(ValueError):
                phi_delta(chi, z)
    assert _same(phi_delta(chi, good), want)


# -- the histogram evaluation against the literal sum ----------------------


def _phi_literal(chi, z):
    """Phi(chi; z) summed one point s at a time."""
    f = chi.field
    points = itertools.product(f.elements(), repeat=len(z))
    return sum((chi_of_sz(chi, s, z) for s in points), Cyclo.zero())


def _same(a, b):
    return (a.m, a.num, a.den) == (b.m, b.num, b.den)


def test_cached_tables_never_cross_fields_or_conductors():
    # the slot exponent tables are cached per (field, index, conductor M):
    # calls that alternate between two generators of one field, two psi and
    # the conductors M = N, p and N p must each read their own tables
    rng = random.Random(7)
    cases = []
    for q in (5, 9):
        base = build_field_q(q)
        fields = (base, base.with_generator(base.generators()[1]))
        for a, j in itertools.product((1, 2), (1, 3)):
            for f in fields:
                psi, chi = AddChar(f, a), MulChar(f, j)
                for parts in ((chi, MulChar(f, 2)), (psi, AddChar(f, 3)), (chi, psi)):
                    points = [(tuple(rng.randrange(q) for _ in parts), rng.randrange(-2, 4))
                              for _ in range(12)]
                    cases.append(("sum", parts, points))
                for parts in ((1, 1), (1, 2)):
                    delta = Partition(parts)
                    blocks = tuple(JmChar(MulChar(f, j * (i + 1)), (a,) * (size - 1), psi)
                                   for i, size in enumerate(parts))
                    z = [[rng.randrange(1, q) for _ in range(delta.n)] for _ in range(2)]
                    cases.append(("phi", HDeltaChar(delta, blocks), z))
    for _ in range(2):  # the second round reads only cached tables
        for kind, x, y in cases:
            if kind == "sum":
                got, want = char_sum(x, y), _char_sum_literal(x, y)
            else:
                got, want = phi_delta(x, y), _phi_literal(x, y)
            assert _same(got, want), (kind, x, y)


# Every partition of the acceptance grid and of the benchmark's tables.
_DIFF_PARTS = [(1, 1), (1, 2), (1, 3), (2, 2), (1, 1, 2), (1, 2, 2),
               (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 1, 1)]
# Groups of at most _DIFF_ALL_CHARS characters, which include every one the
# benchmark tabulates, are checked in full.  A larger group is checked on a
# fixed sample (the trivial character included) of as many characters as
# _DIFF_POINTS literal-sum points over all z allow.
_DIFF_ALL_CHARS = 128
_DIFF_POINTS = 8000


def _diff_setup(q, alternate):
    """F_q and psi: standard, or on the second generator (where there is
    one) with psi_a for the first unit a != 1."""
    f = build_field_q(q)
    if not alternate:
        return f, standard_psi(f)
    gens = f.generators()
    if len(gens) > 1:
        f = f.with_generator(gens[1])
    return f, AddChar(f, next(u for u in f.units() if u != 1))


def _diff_zs(f, delta, rng):
    """z at d = 0, 1, 2 (3 for q <= 3): block leads nonzero, mixed, one
    block's lead column zero, and all of z zero."""
    n, q = delta.n, f.q
    leads = [c.start for c in delta.column_blocks()]

    def rand(d, lead_nonzero=True):
        z = [[rng.randrange(q) for _ in range(n)] for _ in range(d)]
        if lead_nonzero:
            for c in leads:
                z[0][c] = rng.randrange(1, q)
        return z

    zero_lead = rand(1)
    zero_lead[0][rng.choice(leads)] = 0
    zs = [[], rand(1), zero_lead, rand(2), rand(2, False), [[0] * n, [0] * n]]
    if q <= 3:
        zs.append(rand(3))
    return zs


@pytest.mark.parametrize("q,alternate", [
    pytest.param(q, alternate, id=f"q{q}-{'alternate' if alternate else 'standard'}")
    for alternate, qs in ((False, (2, 3, 4, 5, 7, 8, 9)), (True, (3, 4, 5, 7, 8, 9)))
    for q in qs])
def test_phi_matches_literal_sum(q, alternate):
    f, psi = _diff_setup(q, alternate)
    for parts in _DIFF_PARTS:
        if parts[-1] > f.p:
            continue
        delta = Partition(parts)
        rng = random.Random(100 * q + 10 * alternate + len(parts) + sum(parts))
        zs = _diff_zs(f, delta, rng)
        chars = list(hdelta_chars(f, delta, psi))
        keep = _DIFF_POINTS // sum(q ** len(z) for z in zs)
        if len(chars) > _DIFF_ALL_CHARS:
            chars = chars[:1] + rng.sample(chars[1:], keep - 1)
        for z in zs:
            for chi in chars:
                got, want = phi_delta(chi, z), _phi_literal(chi, z)
                assert _same(got, want), (q, parts, chi, z)


@settings(max_examples=80)
@given(st.data())
def test_phi_matches_literal_sum_on_sampled_z(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
    alternate = data.draw(st.booleans()) and len(build_field_q(q).generators()) > 1
    f, psi = _diff_setup(q, alternate)
    parts = data.draw(st.sampled_from([p for p in _DIFF_PARTS if p[-1] <= f.p]))
    delta = Partition(parts)
    d = data.draw(st.integers(0, 2))
    z = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=delta.n, max_size=delta.n),
                           min_size=d, max_size=d))
    blocks = []
    for size in parts:
        j = data.draw(st.integers(0, max(f.N, 1) - 1))
        a = tuple(data.draw(st.integers(0, q - 1)) for _ in range(size - 1))
        blocks.append(JmChar(MulChar(f, j), a, psi))
    chi = HDeltaChar(delta, tuple(blocks))
    assert _same(phi_delta(chi, z), _phi_literal(chi, z))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_phi_histogram_is_the_general_support(q):
    # two independent enumerations of the same points (g, number of s)
    f = build_field_q(q)
    rng = random.Random(q)
    for parts in _DIFF_PARTS:
        if parts[-1] > f.p:
            continue
        n = sum(parts)
        for d in (0, 1, 2, 2, 3 if q <= 3 else 2):
            z = [[rng.randrange(q) for _ in range(n)] for _ in range(d)]
            hist = _phi_histogram(f, parts, tuple(map(tuple, z)))
            assert sorted(hist) == sorted(GeneralXDz(f, parts, z).support()), (parts, z)


def test_phi_reads_z_by_value():
    # the histogram cache keys z by value: an in-place change is seen
    f = build_field_q(5)
    delta = Partition((1, 2))
    chars = list(itertools.islice(hdelta_chars(f, delta), 30))
    z = [[1, 2, 3], [0, 1, 4]]
    before = [phi_delta(chi, z) for chi in chars]
    z[1][0] = 2
    z[0][2] = 0
    after = [phi_delta(chi, z) for chi in chars]
    assert all(_same(v, _phi_literal(chi, z)) for chi, v in zip(chars, after))
    assert any(not _same(u, v) for u, v in zip(before, after))
    z[0][0] = z[1][0] = 0
    assert all(phi_delta(chi, z).is_zero() for chi in chars)


# -- the batch table against the one-value path ----------------------------


_TABLE_PARTS = [(1, 1), (1, 2), (1, 1, 2), (2, 2), (1, 3), (1, 1, 1, 1)]


def _table_cases(f):
    return [parts for parts in _TABLE_PARTS if parts[-1] <= f.p]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_phi_table_matches_phi_delta(q):
    # every character of the group, in hdelta_chars order, at a z of d = 2
    # and of d = 1
    f = build_field_q(q)
    for parts in _table_cases(f):
        delta = Partition(parts)
        rng = random.Random(10 * q + sum(parts))
        for d in (2, 1):
            z = _random_z(f, d, delta.n, rng)
            want = [phi_delta(chi, z) for chi in hdelta_chars(f, delta)]
            got = phi_table(f, delta, z)
            assert len(got) == len(want)
            assert all(map(_same, got, want)), (q, parts, z)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_phi_table_of_an_empty_support_is_all_zero(q):
    # block-leading columns all zero: no point, every entry the zero of
    # phi_delta, one per character of the group
    f = build_field_q(q)
    rng = random.Random(q)
    for parts in _table_cases(f):
        delta = Partition(parts)
        z = _random_z(f, 2, delta.n, rng)
        for row in z:
            for cols in delta.column_blocks():
                row[cols.start] = 0
        table = phi_table(f, delta, z)
        assert len(table) == len(list(hdelta_chars(f, delta)))
        assert all(_same(v, Cyclo.zero()) for v in table)
        assert all(_same(phi_delta(chi, z), Cyclo.zero()) for chi in hdelta_chars(f, delta))
    assert _same(phi_table(f, Partition((1, 1)), [])[0], Cyclo.zero())


def test_phi_table_rejects_what_phi_delta_rejects():
    f = build_field(3)
    delta = Partition((1, 2))
    chi = next(hdelta_chars(f, delta))
    # a wrong column count, entries outside 0..q-1, a non-matrix and an
    # unhashable entry: the same ValueError, on every call
    for z in ([[1]], [[5, 0, 1]], [[-1, 1, 1]], [[1, 3, 0]], [1, 2, 3], [[[1], 2, 0]]):
        with pytest.raises(ValueError) as want:
            phi_delta(chi, z)
        for _ in range(2):
            with pytest.raises(ValueError) as got:
                phi_table(f, delta, z)
            assert str(got.value) == str(want.value), z
    with pytest.raises(ValueError, match="characteristic 3 is smaller"):
        phi_table(f, Partition((1, 4)), [[1, 1, 0, 0, 0]])


@settings(max_examples=60)
@given(st.data())
def test_phi_table_matches_phi_delta_on_sampled_z(data):
    q = data.draw(st.sampled_from([3, 4]))
    f = build_field_q(q)
    delta = Partition(data.draw(st.sampled_from(_table_cases(f))))
    d = data.draw(st.integers(0, 2))
    z = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=delta.n, max_size=delta.n),
                           min_size=d, max_size=d))
    got = phi_table(f, delta, z)
    want = [phi_delta(chi, z) for chi in hdelta_chars(f, delta)]
    assert len(got) == len(want) and all(map(_same, got, want))


# -- the shared exponent columns -------------------------------------------


@pytest.mark.parametrize("q", [3, 4])
def test_phi_table_matches_literal_sum(q):
    # the table against the literal sum, independently of phi_delta
    f = build_field_q(q)
    for parts in _table_cases(f):
        delta = Partition(parts)
        rng = random.Random(20 * q + sum(parts))
        for d in (1, 2):
            z = _random_z(f, d, delta.n, rng)
            got = phi_table(f, delta, z)
            want = [_phi_literal(chi, z) for chi in hdelta_chars(f, delta)]
            assert len(got) == len(want)
            assert all(map(_same, got, want)), (q, parts, z)


def test_phi_columns_do_not_depend_on_cache_order():
    # one character under psi_1 and under psi_2 reads different twists
    # psi.a a_k from one frame, whichever fills its block memo first
    f = build_field_q(5)
    delta = Partition((1, 2))
    z = [[1, 2, 3], [4, 1, 2]]
    chis = [HDeltaChar(delta, (JmChar(MulChar(f, 1), (), psi), JmChar(MulChar(f, 3), (2,), psi)))
            for psi in (standard_psi(f), AddChar(f, 2))]
    for order in (chis, chis[::-1]):
        _phi_frame.cache_clear()
        for chi in order:
            assert _same(phi_delta(chi, z), _phi_literal(chi, z)), chi
    assert not _same(phi_delta(chis[0], z), phi_delta(chis[1], z))


def test_phi_table_and_phi_delta_share_one_frame():
    f = build_field_q(4)
    delta = Partition((1, 2))
    z = [[1, 2, 3], [2, 0, 1]]
    _phi_frame.cache_clear()
    table = phi_table(f, delta, z)
    values = [phi_delta(chi, z) for chi in hdelta_chars(f, delta)]
    assert all(map(_same, table, values))
    info = _phi_frame.cache_info()
    assert info.misses == 1 and info.maxsize == 64


def test_phi_columns_past_one_byte():
    # at q = 17 a part of size 2 gives M = 16 * 17 = 272, past the byte
    # columns: the columns hold plain ints there
    f = build_field_q(17)
    delta = Partition((1, 2))
    z = [[3, 5, 7]]
    rng = random.Random(17)
    chars = list(hdelta_chars(f, delta))
    table = phi_table(f, delta, z)
    assert _phi_frame(f, delta.parts, tuple(map(tuple, z))).M == 272
    for i in [0, *rng.sample(range(1, len(chars)), 8)]:
        want = _phi_literal(chars[i], z)
        assert _same(phi_delta(chars[i], z), want) and _same(table[i], want), chars[i]


@pytest.mark.parametrize("q", [3, 4])
def test_hdelta_chars_equal_checked_characters(q):
    f = build_field_q(q)
    for parts in _table_cases(f):
        delta = Partition(parts)
        for chi in hdelta_chars(f, delta):
            checked = HDeltaChar(delta, tuple(chi.blocks))
            assert chi == checked and hash(chi) == hash(checked)


def _random_w(f, delta, rng):
    return _w_samples(f, delta, rng, 1)[0]


def _random_w_literal(f, delta, rng):
    """The draws _random_w made before it read suites._w_samples."""
    sigmas, cs = [], []
    for size, mult in delta.grouped():
        perm = list(range(mult))
        rng.shuffle(perm)
        sigmas.append(tuple(perm))
        cs.append(
            tuple(
                tuple(
                    [rng.choice(list(f.units()))]
                    + [rng.randrange(f.q) for _ in range(size - 2)]
                )
                if size > 1
                else ()
                for _ in range(mult)
            )
        )
    return WDeltaElem(delta, tuple(sigmas), tuple(cs))


# (q, parts, seed) of every Random that the tests here and in
# test_varieties.py hand to _random_w
_W_SEEDS = ([(q, parts, q * 100 + sum(parts)) for q in (3, 5)
             for parts in ((1, 1, 2), (2, 2), (1, 2, 2))]
            + [(3, (1, 2, 2), 3), (4, (2, 2), 4), (5, (1, 1, 2), 5)]
            + [(3, parts, 9 + sum(parts)) for parts in ((1, 1), (2, 2), (1, 1, 2))]
            + [(5, parts, 7) for parts in ((1, 2), (2, 2), (1, 1, 2))]
            + [(3, (1, 1), 9), (3, (1, 1, 2), 5), (3, (1, 2), 5)])


@pytest.mark.parametrize("q,parts,seed", _W_SEEDS)
def test_random_w_is_the_suites_sampler(q, parts, seed):
    """_random_w reads suites._w_samples: the same steps over the same
    ascending unit list, so the same elements and the same generator state
    after every draw."""
    f, delta = build_field_q(q), Partition(parts)
    old, new = random.Random(seed), random.Random(seed)
    for _ in range(6):
        assert _random_w(f, delta, new) == _random_w_literal(f, delta, old)
        assert new.getstate() == old.getstate()


def _random_z(f, d, n, rng):
    return [[rng.randrange(f.q) for _ in range(n)] for _ in range(d)]


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("parts", [(1, 1, 2), (2, 2), (1, 2, 2)])
def test_symmetry_group_action(q, parts):
    # Phi(chi composed with w; z) = Phi(chi; z w)
    f = build_field_q(q)
    psi = standard_psi(f)
    delta = Partition(parts)
    chars = list(hdelta_chars(f, delta, psi))
    rng = random.Random(q * 100 + sum(parts))
    for _ in range(5):
        chi = rng.choice(chars)
        w = _random_w(f, delta, rng)
        z = _random_z(f, 2, delta.n, rng)
        lhs = phi_delta(w_action_on_char(chi, w), z)
        rhs = phi_delta(chi, mat_mul(f, z, w_to_matrix(f, w)))
        assert lhs == rhs


@pytest.mark.parametrize("q,parts", [(3, (1, 2, 2)), (4, (2, 2)), (5, (1, 1, 2))])
def test_w_action_image_hashes_like_a_fresh_character(q, parts):
    # w_action_on_char builds its image without the constructor's checks; the
    # image must still equal, and hash like, the same character built anew
    f = build_field_q(q)
    delta = Partition(parts)
    chars = list(hdelta_chars(f, delta, standard_psi(f)))
    index = {chi: k for k, chi in enumerate(chars)}
    rng = random.Random(q)
    for _ in range(4):
        w = _random_w(f, delta, rng)
        for chi in rng.sample(chars, 12):
            image = w_action_on_char(chi, w)
            fresh = HDeltaChar(delta, tuple(JmChar(b.alpha, tuple(b.a), b.psi) for b in image.blocks))
            assert image == fresh and fresh == image
            assert hash(image) == hash(fresh) == hash((image.delta, image.blocks))
            assert all(hash(b) == hash((b.alpha, b.a, b.psi)) for b in image.blocks)
            assert chars[index[image]] == image
    # the public constructor still checks the block sizes and count
    with pytest.raises(ValueError, match="block size mismatch"):
        HDeltaChar(Partition((1,) * len(parts)), chars[0].blocks)
    with pytest.raises(ValueError, match="block count mismatch"):
        HDeltaChar(delta, chars[0].blocks[:-1])


def test_act_mu_is_memoized_per_character_and_c():
    f = build_field_q(5)
    psi = standard_psi(f)
    chi = JmChar(MulChar(f, 1), (2, 3), psi)
    moved = chi.act_mu((2, 1))
    assert chi.act_mu([2, 1]) is moved
    assert JmChar(MulChar(f, 1), (2, 3), psi).act_mu((2, 1)) is moved
    assert chi.act_mu((1, 0)) == chi


def test_identity_w_is_identity():
    f = build_field(5)
    delta = Partition((1, 2, 2))
    w = identity_w(delta)
    n = delta.n
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert w_to_matrix(f, w) == ident
    psi = standard_psi(f)
    chi = next(iter(hdelta_chars(f, delta, psi)))
    assert w_action_on_char(chi, w) == chi


@pytest.mark.parametrize("h_blocks", [((2, 1),), ((2,), (1, 2), (1,)), ((2,), (1, 2, 0)),
                                      ((2,), (1,))])
def test_h_to_matrix_rejects_blocks_not_matching_the_parts(h_blocks):
    # one block per part, each exactly as long as its part
    f = build_field(3)
    with pytest.raises(ValueError, match="do not match the parts"):
        h_to_matrix(f, Partition((1, 2)), h_blocks)
    assert h_to_matrix(f, Partition((1, 2)), ((2,), (1, 2))) == [[2, 0, 0], [0, 1, 2], [0, 0, 1]]


@pytest.mark.parametrize("q", [3, 5])
def test_h_equivariance(q):
    # Phi(chi; z h) = chi(h) Phi(chi; z) for h in the block-Toeplitz group
    f = build_field_q(q)
    psi = standard_psi(f)
    delta = Partition((1, 2))
    chars = list(hdelta_chars(f, delta, psi))
    rng = random.Random(17 + q)
    for _ in range(6):
        chi = rng.choice(chars)
        z = _random_z(f, 2, delta.n, rng)
        hb = [
            tuple([rng.choice(list(f.units()))] + [rng.randrange(f.q) for _ in range(size - 1)])
            for size in delta.parts
        ]
        H = h_to_matrix(f, delta, hb)
        assert phi_delta(chi, mat_mul(f, z, H)) == chi.eval_h(hb) * phi_delta(chi, z)


@pytest.mark.parametrize("q", [3, 5])
def test_gl_d_invariance(q):
    # Phi(chi; g z) = Phi(chi; z) for g invertible: s -> s g permutes the sum
    f = build_field_q(q)
    psi = standard_psi(f)
    delta = Partition((2, 2))
    chars = list(hdelta_chars(f, delta, psi))
    rng = random.Random(23 + q)
    for _ in range(5):
        chi = rng.choice(chars)
        z = _random_z(f, 2, delta.n, rng)
        while True:
            g = [[rng.randrange(f.q) for _ in range(2)] for _ in range(2)]
            det = f.sub(f.mul(g[0][0], g[1][1]), f.mul(g[0][1], g[1][0]))
            if det:
                break
        assert phi_delta(chi, mat_mul(f, g, z)) == phi_delta(chi, z)


def test_w_elem_validation():
    delta = Partition((2, 2))
    with pytest.raises(ValueError):
        WDeltaElem(delta, ((0, 0),), (((1,), (1,)),))  # not a permutation
    with pytest.raises(ValueError):
        WDeltaElem(delta, ((0, 1),), (((0,), (1,)),))  # zero leading coefficient


# -- closed-form reductions ------------------------------------------------


def _exhaustive_reduction_check(q, parts, nlam, rhs=reduce_to_classical, zfun=None):
    f = build_field_q(q)
    psi = standard_psi(f)
    delta = Partition(parts)
    checked = 0
    for chi in hdelta_chars(f, delta, psi):
        for lams in itertools.product(f.units(), repeat=nlam):
            z = zfun(f, lams) if zfun else normalized_z(f, parts, lams)
            try:
                expected = rhs(chi, z)
            except ValueError:
                continue  # stated non-degeneracy hypotheses not met
            assert phi_delta(chi, z) == expected
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("q", [3, 4])
def test_reduction_1111_to_2f1(q):
    _exhaustive_reduction_check(q, (1, 1, 1, 1), 1)


@pytest.mark.parametrize("q", [3, 4])
def test_reduction_112_to_1f1(q):
    _exhaustive_reduction_check(q, (1, 1, 2), 1)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_reduction_22_to_0f1(q):
    _exhaustive_reduction_check(q, (2, 2), 1)


@pytest.mark.parametrize("q", [3, 4])
def test_reduction_11111_to_lauricella_fd(q):
    _exhaustive_reduction_check(q, (1, 1, 1, 1, 1), 2)


@pytest.mark.parametrize("q", [3, 4])
def test_reduction_1112_to_humbert_phi1(q):
    _exhaustive_reduction_check(q, (1, 1, 1, 2), 2)


@pytest.mark.parametrize("q", [3, 4])
def test_reduction_122_to_humbert_phi3(q):
    _exhaustive_reduction_check(q, (1, 2, 2), 2)


@pytest.mark.parametrize("q", [3, 4])
def test_reduction_1112_second_form_to_humbert_phi2(q):
    def zpp(f, lams):
        xp, yp = lams
        return [[1, 1, 1, 0, 1], [0, xp, yp, 1, 0]]

    _exhaustive_reduction_check(q, (1, 1, 1, 2), 2, rhs=phi2_from_zpp, zfun=zpp)


def test_reduction_degenerate_rejected():
    f = build_field(3)
    psi = standard_psi(f)
    delta = Partition((2, 2))
    eps = MulChar(f, 0)
    chi = HDeltaChar(delta, (JmChar(eps, (0,), psi), JmChar(eps, (1,), psi)))
    z = normalized_z(f, (2, 2), (1,))
    with pytest.raises(ValueError):
        reduce_to_classical(chi, z)


def test_reduction_spot_value_22():
    # q=3, both characters trivial, both additive parts 1, lam=1:
    # Phi = -2 * eps(-1) * g(eps) * 0F1(; eps; -1); direct double-sum agrees
    f = build_field(3)
    psi = standard_psi(f)
    delta = Partition((2, 2))
    eps = MulChar(f, 0)
    chi = HDeltaChar(delta, (JmChar(eps, (1,), psi), JmChar(eps, (1,), psi)))
    z = normalized_z(f, (2, 2), (1,))
    assert reduce_to_classical(chi, z) == phi_delta(chi, z)


# Per shape at q = 3, over every character and every unit parameter tuple:
# the (chi, z) pairs that return a value and those that raise ValueError.
_HYPOTHESIS_COUNTS = {
    (1, 1, 1, 1): (8, 24),
    (1, 1, 2): (16, 32),
    (2, 2): (32, 40),
    (1, 1, 1, 1, 1): (16, 112),
    (1, 1, 1, 2): (32, 160),
    (1, 2, 2): (64, 224),
    "zpp": (32, 160),
}


@pytest.mark.parametrize("key", list(_HYPOTHESIS_COUNTS))
def test_reduction_hypotheses_pinned(key):
    f = build_field(3)
    parts, rhs, zfun = (1, 1, 1, 2), phi2_from_zpp, _REDUCTIONS["zpp"][1]
    if key != "zpp":
        parts, rhs, zfun = key, reduce_to_classical, None
    values = raises = 0
    for chi in hdelta_chars(f, Partition(parts), standard_psi(f)):
        for lams in itertools.product(f.units(), repeat=sum(parts) - 3):
            z = zfun(f, *lams) if zfun else normalized_z(f, parts, lams)
            try:
                rhs(chi, z)
                values += 1
            except ValueError:
                raises += 1
    assert (values, raises) == _HYPOTHESIS_COUNTS[key]


def test_phi2_from_zpp_rejects_other_shapes():
    f = build_field(3)
    psi = standard_psi(f)
    chi = HDeltaChar(Partition((2, 2)), (JmChar(MulChar(f, 1), (1,), psi),) * 2)
    with pytest.raises(ValueError, match=r"unsupported shape \(2, 2\)"):
        phi2_from_zpp(chi, normalized_z(f, (2, 2), (1,)))


@pytest.mark.parametrize("q, parts, lams, message", [
    (5, (1, 1, 2), (7,), r"parameters must be field element codes 0\.\.4; got \(7,\)"),
    (5, (1, 1, 1, 1), (6,), r"parameters must be field element codes 0\.\.4; got \(6,\)"),
    (4, (1, 1, 2), (9,), r"parameters must be field element codes 0\.\.3; got \(9,\)"),
    (5, (1, 2, 2), (2, -1), r"parameters must be field element codes 0\.\.4"),
    (5, (2, 2), (1, 2), r"shape \(2, 2\) takes 1 parameter"),
    (5, (1, 1, 1, 2), (2,), r"shape \(1, 1, 1, 2\) takes 2 parameter"),
    (5, (3, 3), (2,), r"unsupported shape \(3, 3\)"),
])
def test_normalized_z_rejects_bad_parameters(q, parts, lams, message):
    with pytest.raises(ValueError, match=message):
        normalized_z(build_field_q(q), parts, lams)


def test_normalized_z_allows_zero():
    # Phi is defined at every z; the reductions' own hypotheses reject lam = 0
    f = build_field(5)
    assert normalized_z(f, (2, 2), (0,)) == [[1, 0, 0, 0], [0, 4, 1, 0]]
    assert normalized_z(f, (1, 2, 2), (0, 3)) == [[1, 1, 0, 0, 1], [0, 0, 3, 1, 0]]
