"""Oracle tests for the hypergeometric evaluators and transforms."""

import itertools
import random

import pytest

from hgfq.chars import AddChar, MulChar, enumerate_mulchars, standard_psi, trivial_char
from hgfq.cyclo import Cyclo, zeta
from hgfq.ffield import build_field, build_field_q
from hgfq.hgf import (
    HgfParams,
    dft,
    hgf_eval,
    humbert,
    idft,
    inverse_argument,
    inverse_relation,
    iteration_lhs,
    iteration_rhs,
    lauricella,
    mfn,
    params,
    shift_parameters,
)
from hgfq.sums import gauss, jacobi, pochhammer, pochhammer_circ


def _chars(q):
    f = build_field_q(q)
    return f, enumerate_mulchars(f), standard_psi(f)


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
        one_var = hgf_eval(HgfParams((alpha, beta), (gamma, delta), psi), lam)
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
    p = params([chars[1]], [chars[2]], psi, classical=True)
    coef, twist, p2 = shift_parameters(p)
    assert coef == Cyclo.integer(1) and twist.is_trivial() and p2 == p


def test_shift_parameters_exhaustive_f5():
    f, chars, psi = _chars(5)
    for a1, a2, b1, b2 in itertools.product(chars, repeat=4):
        p = HgfParams((a1, a2), (b1, b2), psi)
        coef, twist, pc = shift_parameters(p)
        assert pc.lower[-1].is_trivial()
        for lam in f.units():
            assert hgf_eval(p, lam) == coef * twist.eval(lam) * hgf_eval(pc, lam)


def test_inverse_relation_1f0():
    f, chars, psi = _chars(3)
    alpha = chars[1]
    p = HgfParams((alpha,), (), psi)
    q = inverse_relation(p)
    lam = 2
    assert hgf_eval(p, lam) == hgf_eval(q, inverse_argument(f, 1, 0, lam))


@pytest.mark.parametrize("q", [3, 5])
def test_inverse_relation_general(q):
    f, chars, psi = _chars(q)
    for a1, a2, b1 in itertools.product(chars[: min(4, len(chars))], repeat=3):
        p = HgfParams((a1, a2), (b1,), psi)
        pinv = inverse_relation(p)
        for lam in f.units():
            assert hgf_eval(p, lam) == hgf_eval(pinv, inverse_argument(f, 2, 1, lam))


def test_inverse_relation_validation():
    f, chars, psi = _chars(3)
    with pytest.raises(ValueError):
        inverse_relation(HgfParams((chars[1],), (chars[0], chars[0]), psi))
    with pytest.raises(ValueError):
        inverse_argument(f, 1, 0, 0)


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
    prod_i = (1,) * i + (0,) * (2 - i)
    for _ in range(3):
        alpha, betas, xs = char(), [char(), char()], lams(2)
        firsts = [(b, _unit(2, k)) for k, b in enumerate(betas[:i])]
        comp = alpha.inverse()
        for b in betas[:i]:
            comp = comp * b
        # kind -> (terms, sign, constant or None where the identity degenerates)
        cases = {
            "i": ([(alpha, prod_i, True)] + [(b, c, False) for b, c in firsts], (-1) ** i,
                  None if comp.is_trivial() else jacobi(comp, *[b.inverse() for b in betas[:i]])),
            "ii": ([(b, c, True) for b, c in firsts] + [(alpha, prod_i, False)], (-1) ** i,
                   None if comp.is_trivial() else jacobi(comp.inverse(), *betas[:i])),
            "iii": ([(alpha, prod_i, True), (betas[0], prod_i, False)], -1,
                    None if alpha == betas[0] else jacobi(alpha, alpha.inverse() * betas[0])),
            "iv": ([(alpha, prod_i, False)], -1, gauss(alpha.inverse(), psi)),
        }
        for kind, (terms, sign, const) in cases.items():
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
