"""Oracle tests for the hypergeometric evaluators and transforms."""

import itertools
import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgfq import hgf
from hgfq.chars import AddChar, MulChar, enumerate_mulchars, standard_psi, trivial_char
from hgfq.cyclo import Cyclo, zeta
from hgfq.ffield import build_field, build_field_q
from hgfq.hgf import (
    _factor,
    _packing,
    dft,
    humbert,
    idft,
    inverse_relation,
    iteration_lhs,
    iteration_rhs,
    lauricella,
    mfn,
    shift_parameters,
)
from hgfq.sums import gauss, jacobi, pochhammer, pochhammer_circ


def _chars(q):
    f = build_field_q(q)
    return f, enumerate_mulchars(f), standard_psi(f)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 13])
def test_lower_factor_sign_is_nu_of_minus_one(q):
    # 1/(a)°_nu = (a-bar)_(nu-bar) nu(-1), with nu(-1) read off as a sign
    f, chars, psi = _chars(q)
    for a, nu in itertools.product(chars, repeat=2):
        want = pochhammer(a.inverse(), nu.inverse(), psi) * nu.eval(f.neg(1))
        got = _factor(a, nu, False, psi)
        assert got.to_json() == want.to_json()
        assert got * pochhammer_circ(a, nu, psi) == 1


def test_0f0_spot_value():
    f = build_field(3)
    assert mfn([], [], 1, standard_psi(f)) == zeta(3, 2)  # psi(-1)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_0f0_closed_form(q):
    f, _, psi = _chars(q)
    for lam in f.units():
        assert mfn([], [], lam, psi) == psi.eval(f.neg(lam))


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_1f0_closed_form(q):
    f, chars, _ = _chars(q)
    for alpha in chars:
        if alpha.is_trivial():
            continue
        for lam in f.units():
            assert mfn([alpha], [], lam) == alpha.inverse().eval(f.sub(1, lam))


def test_1f0_spot_value():
    f = build_field(3)
    chi = MulChar(f, 1)
    assert mfn([chi], [], 2) == Cyclo.integer(-1)  # chi-bar(1-2) = chi(2)


def test_2f1_spot_value():
    f = build_field(3)
    chi = MulChar(f, 1)
    eps = trivial_char(f)
    assert mfn([chi, chi], [eps], 1) == Cyclo.integer(-1)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_euler_gauss_summation(q):
    f, chars, _ = _chars(q)
    for alpha, beta, gamma in itertools.product(chars, repeat=3):
        if alpha == gamma or beta.is_trivial():
            continue
        lhs = mfn([alpha, beta], [gamma], 1)
        rhs = jacobi(alpha, beta * gamma.inverse()) * jacobi(alpha, gamma.inverse()).invert()
        assert lhs == rhs


@pytest.mark.parametrize("q", [3, 4, 5])
def test_kummer_product(q):
    f, chars, psi = _chars(q)
    for alpha, beta in itertools.product(chars, repeat=2):
        if alpha.is_trivial() or alpha == beta:
            continue  # identity provably fails at the degenerate parameters
        for lam in f.units():
            lhs = psi.eval(lam) * mfn([alpha.inverse() * beta], [beta], lam, psi)
            rhs = mfn([alpha], [beta], f.neg(lam), psi)
            assert lhs == rhs


@pytest.mark.parametrize("q", [3, 4, 5])
def test_psi_independence(q):
    f, chars, _ = _chars(q)
    psis = [AddChar(f, a) for a in f.units()]
    alpha, beta = chars[0], chars[-1]
    for lam in f.units():
        vals = {tuple((mfn([alpha, beta], [chars[0]], lam, psi)).num) for psi in psis}
        assert len(vals) == 1


def test_lauricella_n1_matches_one_variable():
    f, chars, psi = _chars(5)
    alpha, beta, gamma, delta = chars[1], chars[2], chars[3], chars[0]
    for lam in f.units():
        one_var = hgf.hgf((alpha, beta), (gamma, delta), lam, psi)
        fd = lauricella("D", [alpha], [beta], [gamma], [delta], [lam], psi)
        assert fd == one_var
        fa = lauricella("A", [alpha], [beta], [gamma], [delta], [lam], psi)
        assert fa == one_var


def test_lauricella_symmetry_gamma_delta():
    f, chars, psi = _chars(3)
    a, b = chars[1], chars[0]
    for kind in ("A", "C"):
        args = dict(
            A=dict(alpha=[a], beta=[a, b], gamma=[b, a], delta=[a, b]),
            C=dict(alpha=[a], beta=[b], gamma=[b, a], delta=[a, b]),
        )[kind]
        swapped = dict(args)
        swapped["gamma"], swapped["delta"] = args["delta"], args["gamma"]
        for lams in itertools.product(f.units(), repeat=2):
            assert lauricella(kind, lams=lams, psi=psi, **args) == lauricella(
                kind, lams=lams, psi=psi, **swapped
            )


def test_humbert_phi1_lam2_zero_collapses():
    f, chars, psi = _chars(3)
    a, b, c = chars[1], chars[1], chars[0]
    v = humbert(1, [a, b], c, [chars[0], chars[0]], 2, 0, psi)
    # direct mu-only subsum: nu(0) = 0 kills every term
    assert v == Cyclo.zero()


def test_humbert_phi3_double_sum_at_origin():
    f, chars, psi = _chars(3)
    v = humbert(3, [chars[0]], chars[0], [chars[0], chars[0]], 0, 0, psi)
    assert v == Cyclo.zero()


@pytest.mark.parametrize("q", [3, 5])
def test_dft_of_delta_is_one(q):
    f = build_field_q(q)
    fmap = {(t,): (Cyclo.integer(1) if t == 1 else Cyclo.zero()) for t in f.units()}
    fhat = dft(fmap, f, 1)
    for v in fhat.values():
        assert v == Cyclo.integer(1)


def test_dft_of_character_is_orthogonality_spike():
    f = build_field(5)
    nu0 = MulChar(f, 2)
    fmap = {(t,): nu0.eval(t) for t in f.units()}
    fhat = dft(fmap, f, 1)
    for j, v in fhat.items():
        expected = Cyclo.integer(f.N if j[0] == nu0.j else 0)
        assert v == expected


@pytest.mark.parametrize("q", [3, 5])
def test_dft_roundtrip_random(q):
    f = build_field_q(q)
    rng = random.Random(13)
    fmap = {
        ts: Cyclo(max(f.N, 1), [rng.randrange(-3, 4) for _ in range(max(f.N, 1))])
        for ts in itertools.product(f.units(), repeat=2)
    }
    assert idft(dft(fmap, f, 2), f, 2) == fmap


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("kind", ["i", "ii", "iii", "iv"])
def test_iteration_identities_random_f(kind, q):
    f = build_field_q(q)
    rng = random.Random(ord(kind[0]) * q)
    chars = enumerate_mulchars(f)
    for trial in range(6):
        fmap = {
            ts: Cyclo(f.N, [rng.randrange(-2, 3) for _ in range(f.N)])
            for ts in itertools.product(f.units(), repeat=2)
        }
        fhat = dft(fmap, f, 2)
        alpha = chars[rng.randrange(1, len(chars))]
        betas = [chars[rng.randrange(len(chars))] for _ in range(2)]
        i = rng.choice([1, 2])
        if kind in ("i", "ii"):
            comp = alpha.inverse()
            for b in betas[:i]:
                comp = comp * b
            if comp.is_trivial():
                continue
        if kind == "iii" and (alpha * betas[0].inverse()).is_trivial():
            continue
        lams = tuple(rng.choice(list(f.units())) for _ in range(2))
        lhs = iteration_lhs(kind, fhat, f, 2, i, alpha, betas, lams)
        rhs = iteration_rhs(kind, fmap, f, 2, i, alpha, betas, lams)
        assert lhs == rhs, (kind, q, trial)


def test_iteration_degenerate_rejected():
    f = build_field(5)
    chars = enumerate_mulchars(f)
    alpha = chars[1]
    fmap = {(t,): Cyclo.integer(1) for t in f.units()}
    fhat = dft(fmap, f, 1)
    with pytest.raises(ValueError):
        iteration_lhs("iii", fhat, f, 1, 1, alpha, [alpha], (1,))


def test_shift_parameters_identity_on_classical():
    f, chars, psi = _chars(5)
    up, lo = (chars[1],), (chars[2], trivial_char(f))
    coef, twist, up2, lo2 = shift_parameters(up, lo, psi)
    assert coef == Cyclo.integer(1) and twist.is_trivial() and (up2, lo2) == (up, lo)


def test_shift_parameters_exhaustive_f5():
    f, chars, psi = _chars(5)
    for a1, a2, b1, b2 in itertools.product(chars, repeat=4):
        up, lo = (a1, a2), (b1, b2)
        coef, twist, upc, loc = shift_parameters(up, lo, psi)
        assert loc[-1].is_trivial()
        for lam in f.units():
            assert hgf.hgf(up, lo, lam, psi) == coef * twist.eval(lam) * hgf.hgf(upc, loc, lam, psi)


def test_inverse_relation_1f0():
    f, chars, psi = _chars(3)
    alpha = chars[1]
    up, lo, lam = inverse_relation((alpha,), (), 2)
    assert hgf.hgf((alpha,), (), 2, psi) == hgf.hgf(up, lo, lam, psi)


@pytest.mark.parametrize("q", [3, 5])
def test_inverse_relation_general(q):
    f, chars, psi = _chars(q)
    for a1, a2, b1 in itertools.product(chars[: min(4, len(chars))], repeat=3):
        for lam in f.units():
            up, lo, lam_inv = inverse_relation((a1, a2), (b1,), lam)
            assert hgf.hgf((a1, a2), (b1,), lam, psi) == hgf.hgf(up, lo, lam_inv, psi)


def test_inverse_relation_validation():
    f, chars, psi = _chars(3)
    with pytest.raises(ValueError, match="more upper than lower"):
        inverse_relation((chars[1],), (chars[0], chars[0]), 1)
    with pytest.raises(ValueError, match="more upper than lower"):
        inverse_relation((chars[1],), (chars[0],), 1)
    with pytest.raises(ValueError, match="nonzero"):
        inverse_relation((chars[1],), (), 0)


def test_inverse_relation_argument():
    # (-1)^(m-n)/lam: 1/lam for m - n even, -1/lam for m - n odd
    f, chars, psi = _chars(7)
    a = chars[1]
    for lam in f.units():
        assert inverse_relation((a,), (), lam)[2] == f.neg(f.inv(lam))
        assert inverse_relation((a, a, a), (a,), lam)[2] == f.inv(lam)


# -- the evaluators against their defining sums ------------------------------
#
# The oracle sums term by term over every character tuple, with each lower
# factor the inverse of (b)°_nu by generic inversion, not by the reflection
# identity the library uses.  Term lists are (character, c, upper) with c the
# exponents of nu_1..nu_n in the factor's character.

ORACLE_QS = [3, 4, 5, 7, 8, 9]


def _oracle(terms, lams, psi, weights=None):
    f = psi.field
    inverse = {}
    total = Cyclo.zero()
    for nus in itertools.product(enumerate_mulchars(f), repeat=len(lams)):
        t = Cyclo.integer(1)
        for nu, lam in zip(nus, lams):
            t = t * nu.eval(lam)
        if weights is not None:
            t = t * weights[tuple(nu.j for nu in nus)]
        if t.is_zero():  # nu(0) = 0 or a zero weight: the term does not survive
            continue
        for a, c, upper in terms:
            nu_c = trivial_char(f)
            for nu, k in zip(nus, c):
                nu_c = nu_c * nu**k
            if upper:
                t = t * pochhammer(a, nu_c, psi)
            else:
                if (a, nu_c) not in inverse:
                    inverse[a, nu_c] = pochhammer_circ(a, nu_c, psi).invert()
                t = t * inverse[a, nu_c]
        total = total + t
    return total


def _draws(q, seed):
    """A field, a random psi, and draws of characters (the trivial one at
    least a third of the time) and of arguments (0 a quarter of the time)."""
    f = build_field_q(q)
    rng = random.Random(seed)
    chars = enumerate_mulchars(f)

    def char():
        return chars[0] if rng.random() < 1 / 3 else rng.choice(chars)

    def lams(n):
        return tuple(0 if rng.random() < 1 / 4 else rng.choice(list(f.units())) for _ in range(n))

    return f, AddChar(f, rng.choice(list(f.units()))), char, lams


def _unit(n, i):
    return tuple(int(k == i) for k in range(n))


@pytest.mark.parametrize("q", ORACLE_QS)
def test_mfn_matches_defining_sum(q):
    f, psi, char, _ = _draws(q, 100 + q)
    for m, n in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)]:
        up, lo = [char() for _ in range(m)], [char() for _ in range(n)]
        terms = [(a, (1,), True) for a in up] + [(b, (1,), False) for b in lo + [trivial_char(f)]]
        for lam in f.elements():
            want = _oracle(terms, (lam,), psi) / (1 - q)
            assert mfn(up, lo, lam, psi) == want, (m, n, lam)


def _lauricella_oracle_terms(kind, alpha, beta, gamma, delta):
    n = len(delta)
    ones, each = (1,) * n, [_unit(n, i) for i in range(n)]
    terms = [(d, c, False) for d, c in zip(delta, each)]
    if kind in "AD":  # (alpha)_(nu_1..nu_n) prod (beta_i)_(nu_i)
        terms += [(alpha[0], ones, True)] + [(b, c, True) for b, c in zip(beta, each)]
    if kind == "B":  # prod (alpha_i)_(nu_i) (beta_i)_(nu_i)
        terms += [(a, c, True) for a, c in zip(alpha + beta, each + each)]
    if kind == "C":  # (alpha)_(nu_1..nu_n) (beta)_(nu_1..nu_n)
        terms += [(alpha[0], ones, True), (beta[0], ones, True)]
    if kind in "AC":  # / prod (gamma_i)°_(nu_i)
        terms += [(g, c, False) for g, c in zip(gamma, each)]
    if kind in "BD":  # / (gamma)°_(nu_1..nu_n)
        terms += [(gamma[0], ones, False)]
    return terms


@pytest.mark.parametrize("q", ORACLE_QS)
def test_lauricella_matches_defining_sum(q):
    f, psi, char, lams = _draws(q, 200 + q)
    shapes = {"A": "1nnn", "B": "nn1n", "C": "11nn", "D": "1n1n"}
    for kind, shape in shapes.items():
        for n in (1, 2, 3):
            args = [[char() for _ in range(1 if s == "1" else n)] for s in shape]
            xs = lams(n)
            want = _oracle(_lauricella_oracle_terms(kind, *args), xs, psi) / (1 - q) ** n
            assert lauricella(kind, *args, xs, psi) == want, (kind, n, xs)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_humbert_matches_defining_sum(q):
    f, psi, char, lams = _draws(q, 300 + q)
    uppers = {1: [(1, 1), (1, 0)], 2: [(1, 0), (0, 1)], 3: [(1, 0)]}
    for kind, cs in uppers.items():
        for _ in range(2):
            up, gamma, delta, xs = [char() for _ in cs], char(), [char(), char()], lams(2)
            terms = ([(a, c, True) for a, c in zip(up, cs)] + [(gamma, (1, 1), False)]
                     + [(delta[0], (1, 0), False), (delta[1], (0, 1), False)])
            want = _oracle(terms, xs, psi) / (1 - q) ** 2
            assert humbert(kind, up, gamma, delta, *xs, psi) == want, (kind, xs)


def _iteration_cases(psi, i, alpha, betas):
    """kind -> (terms, sign, constant or None where the identity degenerates),
    for n = 2."""
    prod_i = (1,) * i + (0,) * (2 - i)
    firsts = [(b, _unit(2, k)) for k, b in enumerate(betas[:i])]
    comp = alpha.inverse()
    for b in betas[:i]:
        comp = comp * b
    return {
        "i": ([(alpha, prod_i, True)] + [(b, c, False) for b, c in firsts], (-1) ** i,
              None if comp.is_trivial() else jacobi(comp, *[b.inverse() for b in betas[:i]])),
        "ii": ([(b, c, True) for b, c in firsts] + [(alpha, prod_i, False)], (-1) ** i,
               None if comp.is_trivial() else jacobi(comp.inverse(), *betas[:i])),
        "iii": ([(alpha, prod_i, True), (betas[0], prod_i, False)], -1,
                None if alpha == betas[0] else jacobi(alpha, alpha.inverse() * betas[0])),
        "iv": ([(alpha, prod_i, False)], -1, gauss(alpha.inverse(), psi)),
    }


@pytest.mark.parametrize("q", ORACLE_QS)
@pytest.mark.parametrize("i", [1, 2])
def test_iteration_lhs_matches_defining_sum(q, i):
    """(sign / N^n) * constant * sum over nu of f-hat(nu) * the kind's Pochhammer
    ratio at nu_1..nu_i * prod nu_k(lambda_k), with n = 2."""
    f, psi, char, lams = _draws(q, 400 + 10 * q + i)
    rng = random.Random(q * i)
    fmap = {ts: Cyclo(f.N, [rng.randrange(-2, 3) for _ in range(f.N)])
            for ts in itertools.product(f.units(), repeat=2)}
    fhat = dft(fmap, f, 2)
    for _ in range(3):
        alpha, betas, xs = char(), [char(), char()], lams(2)
        for kind, (terms, sign, const) in _iteration_cases(psi, i, alpha, betas).items():
            if const is None:
                with pytest.raises(ValueError, match="degenerate"):
                    iteration_lhs(kind, fhat, f, 2, i, alpha, betas, xs, psi)
                continue
            want = (const * _oracle(terms, xs, psi, fhat)).scale(sign, f.N**2)
            assert iteration_lhs(kind, fhat, f, 2, i, alpha, betas, xs, psi) == want, (kind, xs)


@pytest.mark.parametrize("kind, counts", [
    ("A", (1, 2, 1, 2)),  # one gamma where F_A takes n
    ("B", (1, 2, 1, 2)),  # one alpha where F_B takes n
    ("D", (2, 2, 1, 2)),  # two alphas where F_D takes one
    ("C", (1, 1, 0, 0)),  # no variables
])
def test_lauricella_rejects_wrong_counts(kind, counts):
    f, chars, psi = _chars(5)
    args = [chars[1:1 + k] for k in counts]
    with pytest.raises(ValueError, match=f"F_{kind} takes"):
        lauricella(kind, *args, (2, 3)[:counts[3]], psi)


@pytest.mark.parametrize("kind, n_upper, n_delta", [(3, 3, 2), (2, 1, 2), (1, 2, 1)])
def test_humbert_rejects_wrong_counts(kind, n_upper, n_delta):
    f, chars, psi = _chars(5)
    with pytest.raises(ValueError, match=f"Phi_{kind} takes"):
        humbert(kind, chars[1:1 + n_upper], chars[1], chars[1:1 + n_delta], 2, 3, psi)


@pytest.mark.parametrize("family", ["mfn", "lauricella", "humbert", "hgf", "shift_parameters"])
@pytest.mark.parametrize("stray", ["character", "psi"])
def test_evaluators_reject_a_second_field(family, stray):
    """A character over F_7 among characters over F_5, or psi over F_7: the
    series evaluator reads characters as indices, so each caller checks."""
    f, chars, psi = _chars(5)
    _, chars7, psi7 = _chars(7)
    a, b, c = chars[1], chars[2], chars[3]
    if stray == "character":
        c = chars7[3]
    else:
        psi = psi7
    with pytest.raises(ValueError, match="different fields"):
        if family == "mfn":
            mfn([a, b], [c], 2, psi)
        elif family == "lauricella":
            lauricella("D", [a], [b, c], [a], [b, c], (2, 3), psi)
        elif family == "humbert":
            humbert(1, [a, b], c, [a, b], 2, 3, psi)
        elif family == "hgf":
            hgf.hgf([a, b], [c], 2, psi)
        else:  # a trivial last lower character takes the early return
            shift_parameters([a, c], [b, chars[0]], psi)


def test_no_characters_and_no_psi_cannot_infer_the_field():
    f, chars, psi = _chars(5)
    for fn in (hgf.hgf, mfn):
        with pytest.raises(ValueError, match="cannot infer the field"):
            fn([], [], 2)
    with pytest.raises(ValueError, match="cannot infer the field"):
        shift_parameters([], [])
    assert mfn([], [], 2, psi) == psi.eval(f.neg(2))


def test_mfn_is_hgf_with_a_trivial_lower_character():
    f, chars, psi = _chars(5)
    tuples = [t for k in range(3) for t in itertools.product(chars, repeat=k)]
    for up, lo in itertools.product(tuples, repeat=2):
        for lam in f.elements():
            assert mfn(up, lo, lam, psi) == hgf.hgf(up, [*lo, chars[0]], lam, psi)


# -- the packed evaluator against the oracle, conductor included --------------


def _field_choice(q, alternate):
    """F_q with psi_1, or with its second-smallest generator and a psi_a, a != 1."""
    f = build_field_q(q)
    if not alternate:
        return f, standard_psi(f)
    gens = f.generators()
    f = f.with_generator(gens[1]) if len(gens) > 1 else f
    return f, AddChar(f, next((u for u in sorted(f.dlog) if u != 1), 1))


def _random_weights(f, rng):
    """Coefficients on (Z/N)^2: a quarter zero, the rest over conductors 1, N
    and 2N with denominators 1..3."""
    N = max(f.N, 1)
    out = {}
    for js in itertools.product(range(N), repeat=2):
        m = rng.choice([1, N, 2 * N])
        out[js] = (Cyclo.zero() if rng.random() < 1 / 4
                   else Cyclo(m, [rng.randrange(-3, 4) for _ in range(m)], rng.randrange(1, 4)))
    return out


@settings(max_examples=300)
@given(st.data())
def test_packed_horn_matches_oracle(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), label="q")
    f, psi = _field_choice(q, data.draw(st.booleans(), label="alternate"))
    chars = enumerate_mulchars(f)

    def char():  # the trivial character at least a quarter of the time
        forced = data.draw(st.integers(0, 3)) == 0
        return chars[0] if forced else data.draw(st.sampled_from(chars))

    def lams(n):  # lambda = 0 at least a quarter of the time
        return tuple(0 if data.draw(st.integers(0, 3)) == 0 else data.draw(st.integers(1, q - 1))
                     for _ in range(n))

    family = data.draw(st.sampled_from(["mfn", "lauricella", "humbert", "iteration"]))
    if family == "mfn":  # classical (a trivial last lower character) or not
        m, n = data.draw(st.sampled_from([(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)]))
        up, lo, xs = [char() for _ in range(m)], [char() for _ in range(n)], lams(1)
        if data.draw(st.booleans()):
            lo.append(trivial_char(f))
        terms = [(a, (1,), True) for a in up] + [(b, (1,), False) for b in lo]
        got = hgf.hgf(up, lo, xs[0], psi)
        want = _oracle(terms, xs, psi) / (1 - q)
    elif family == "lauricella":
        kind = data.draw(st.sampled_from("ABCD"))
        n = data.draw(st.integers(1, 3))
        shape = {"A": "1nnn", "B": "nn1n", "C": "11nn", "D": "1n1n"}[kind]
        args = [[char() for _ in range(1 if s == "1" else n)] for s in shape]
        xs = lams(n)
        got = lauricella(kind, *args, xs, psi)
        want = _oracle(_lauricella_oracle_terms(kind, *args), xs, psi) / (1 - q) ** n
    elif family == "humbert":
        kind = data.draw(st.sampled_from([1, 2, 3]))
        cs = {1: [(1, 1), (1, 0)], 2: [(1, 0), (0, 1)], 3: [(1, 0)]}[kind]
        up, gamma, delta, xs = [char() for _ in cs], char(), [char(), char()], lams(2)
        terms = ([(a, c, True) for a, c in zip(up, cs)] + [(gamma, (1, 1), False)]
                 + [(delta[0], (1, 0), False), (delta[1], (0, 1), False)])
        got = humbert(kind, up, gamma, delta, *xs, psi)
        want = _oracle(terms, xs, psi) / (1 - q) ** 2
    else:
        kind, i = data.draw(st.sampled_from(["i", "ii", "iii", "iv"])), data.draw(st.integers(1, 2))
        alpha, betas, xs = char(), [char(), char()], lams(2)
        terms, sign, const = _iteration_cases(psi, i, alpha, betas)[kind]
        if const is None:
            return
        fhat = _random_weights(f, random.Random(data.draw(st.integers(0, 1 << 16))))
        got = iteration_lhs(kind, fhat, f, 2, i, alpha, betas, xs, psi)
        want = (const * _oracle(terms, xs, psi, fhat)).scale(sign, max(f.N, 1) ** 2)
    assert got.to_json() == want.to_json()


@settings(max_examples=300)
@given(st.data())
def test_horn_constant_matches_canonical_product(data):
    """_horn with a constant against the defining sum times the canonical
    Cyclo product sign * prod g(chi_k) * zeta_N^rot * q^qpow / den."""
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), label="q")
    f, psi = _field_choice(q, data.draw(st.booleans(), label="alternate"))
    N, chars = max(f.N, 1), enumerate_mulchars(f)
    n = data.draw(st.integers(1, 2), label="n")
    cs = [(1,) * n] + [_unit(n, i) for i in range(n)]
    terms = data.draw(st.lists(st.tuples(st.sampled_from(chars), st.sampled_from(cs), st.booleans()),
                               max_size=3), label="terms")
    xs = tuple(data.draw(st.integers(0, q - 1)) for _ in range(n))
    const = hgf.Const(data.draw(st.sampled_from([1, -1])),
                      tuple(data.draw(st.lists(st.integers(0, N - 1), max_size=3))),
                      data.draw(st.integers(-2, 2)), data.draw(st.integers(-2 * N, 2 * N)),
                      data.draw(st.integers(1, 3)))
    got = hgf._horn([(a.j, c, upper) for a, c, upper in terms], xs, psi, const=const)
    if 0 in xs:  # no term survives
        assert got.to_json() == Cyclo.zero().to_json()
        return
    want = _oracle(terms, xs, psi) * Cyclo.integer(const.sign) * zeta(N, const.rot)
    for k in const.gauss:
        want = want * gauss(MulChar(f, k), psi)
    want = want * Cyclo.rational(q ** max(const.qpow, 0), q ** max(-const.qpow, 0) * const.den)
    assert got.to_json() == want.to_json()
    if not terms and not const.gauss:
        assert got.m == N


def _reflection_sum(terms, lam, psi):
    """The one-variable sum term by term, each factor from the reflection
    identity (_factor): no inversion, so it stays fast at large conductors."""
    total = Cyclo.zero()
    for nu in enumerate_mulchars(psi.field):
        t = nu.eval(lam)
        if t.is_zero():
            continue
        for a, _, upper in terms:
            t = t * _factor(a, nu, upper, psi)
        total = total + t
    return total


@pytest.mark.parametrize("q, js_up, js_lo", [
    (17, (1, 3, 6), (2, 5)),  # 3F2 at q = 17: the widest slot of the benchmark (56 bits)
    (13, (1, 5, 2, 7, 3), (4, 9, 10, 8)),  # 5F4 at q = 13: slots wider than 64 bits
])
def test_packed_wide_slots_match_reflection_sum(q, js_up, js_lo):
    f, chars, psi = _chars(q)
    up, lo = [chars[j] for j in js_up], [chars[j] for j in js_lo]
    terms = [(a, (1,), True) for a in up] + [(b, (1,), False) for b in lo + [chars[0]]]
    for lam in (2, f.neg(1), 1, 0):
        want = _reflection_sum(terms, lam, psi) / (1 - q)
        assert mfn(up, lo, lam, psi).to_json() == want.to_json(), lam


@pytest.mark.parametrize("lam", [2, 16, 1, 0])
def test_non_classical_2f1_at_q17_matches_reflection_sum(lam):
    """2F1 with a nontrivial lower character: its Gauss indices sum to t + c at
    nu = chi_t, so the folded terms land on every P and the last Gauss sum is
    expanded for all N of them (conductor 272)."""
    f, chars, psi = _chars(17)
    up, lo = [chars[1], chars[3]], [chars[6]]
    terms = [(a, (1,), True) for a in up] + [(b, (1,), False) for b in lo]
    want = _reflection_sum(terms, lam, psi) / (1 - 17)
    assert hgf.hgf(up, lo, lam, psi).to_json() == want.to_json()


@pytest.mark.parametrize("lams", [(2, 7), (10, 3), (1, 1)])
def test_lauricella_fd_at_q11_matches_oracle(lams):
    """F_D in two variables at q = 11 (conductor 110), the slowest
    two-variable value of the benchmark: three groups join per term."""
    f, chars, psi = _chars(11)
    args = [[chars[j] for j in js] for js in ((5,), (2, 3), (3,), (5, 9))]
    want = _oracle(_lauricella_oracle_terms("D", *args), lams, psi) / (1 - 11) ** 2
    assert lauricella("D", *args, lams, psi).to_json() == want.to_json()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fold_is_the_gauss_product(data):
    """A fold of Gauss indices, x g(chi_P), times g(chi_P) against the Cyclo
    product of the Gauss sums; index 0 and pairs k, -k forced a quarter of
    the time each.  Over p N slots the fold is whole: (x g(chi_P), 0)."""
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 13, 17]), label="q")
    f, psi = _field_choice(q, data.draw(st.booleans(), label="alternate"))
    N, ks = max(f.N, 1), []
    for _ in range(data.draw(st.integers(0, 5), label="length")):
        kind, k = data.draw(st.integers(0, 3)), data.draw(st.integers(0, N - 1))
        ks += [0] if kind == 0 else [k, -k % N] if kind == 1 else [k]
    Nc = data.draw(st.sampled_from([N, f.p * N]), label="Nc")
    W = ((q ** len(ks)).bit_length() + 9) // 8 * 8  # whole bytes, at least bits + 2 as every slot
    x, P = _packing(psi, Nc, W).folds[tuple(ks)]
    want = Cyclo.integer(1)
    for k in ks:
        want = want * gauss(MulChar(f, k), psi)
    assert P == (0 if Nc % f.p == 0 else sum(ks) % N)
    assert Cyclo(Nc, _unpack_residue(x, Nc, W)) * gauss(MulChar(f, P), psi) == want, ks


def _unpack_residue(x, M, W):
    """The signed base-2^W digits of x mod 2^(WM) - 1 (each below 2^(W-2))."""
    R, off = (1 << W * M) - 1, 1 << (W - 1)
    y = (x + off * (R // ((1 << W) - 1))) % R
    return [((y >> W * i) & ((1 << W) - 1)) - off for i in range(M)]


def test_every_packed_jacobi_sum_is_the_jacobi_sum(monkeypatch):
    """Every factor the fold reads, g(chi_P) g(chi_k) / g(chi_(P+k)), is
    j(chi_P, chi_k), times q where chi_(P+k) is trivial; every Gauss sum it
    expands, sum_s zeta_p^s G_(P,s), is g(chi_P)."""
    seen = {}

    def recording(psi, Nc, W):
        return seen.setdefault((psi, Nc, W), _packing(psi, Nc, W))

    _packing.cache_clear()
    monkeypatch.setattr(hgf, "_packing", recording)
    for q in (2, 3, 4, 5, 7, 8, 9, 13):
        for alternate in (False, True):
            f, psi = _field_choice(q, alternate)
            chars = enumerate_mulchars(f)
            a, b = chars[-1], chars[len(chars) // 2]
            mfn([a, b, a], [b, a], f.neg(1), psi)
            lauricella("D", [a], [b, a], [b], [a, a], (1, f.neg(1)), psi)
            humbert(1, [a, b], b, [a, b], 1, 1, psi)
            fhat = _random_weights(f, random.Random(q))
            iteration_lhs("iv", fhat, f, 2, 1, a, [b, b], (1, 1), psi)
    assert len(seen) >= 16
    assert sum(len(pk.jacobi) for pk in seen.values()) >= 100
    assert sum("blocks" in vars(pk) for pk in seen.values()) >= 16
    for (psi, Nc, W), pk in seen.items():
        f = psi.field
        for key, x in pk.jacobi.items():
            P, k = divmod(key, f.N)
            want = jacobi(MulChar(f, P), MulChar(f, k)) * (f.q if (P + k) % f.N == 0 else 1)
            assert Cyclo(Nc, _unpack_residue(x, Nc, W)) == want, (psi, Nc, W, P, k)
        if "blocks" in vars(pk):
            M = lcm(Nc, f.p * pk.N)
            zs = [zeta(f.p) ** s for s in range(len(pk.blocks))] if len(pk.blocks) > 1 else [1]
            for P in range(pk.N):
                got = sum((Cyclo(Nc, _unpack_residue(col[P], Nc, W)) * z
                           for col, z in zip(pk.blocks, zs)), Cyclo.zero(M))
                assert got.lift(M) == gauss(MulChar(f, P), psi).lift(M), (psi, Nc, W, P)
