"""Self-verification suites run by ``hgfq verify``.

Each claim recomputes one identity over a small field and returns a record
``{"claim", "lhs", "rhs", "equal"[, "witnesses"]}``: how many cases hold,
out of how many checked.  ``CLAIMS`` names the claims of every suite; a claim
runs from its table entry alone (``run_claim``), so a process pool can run
them one per task.

The ``gauss-sums`` suite needs only the value layers imported below.  The
claims of the other suites import ``genhgf`` and ``varieties`` when they run;
``LAYERS`` lists them, and ``load_layers`` imports them up front so that
forked pool workers inherit them instead of each compiling them again.

This module never imports ``hgfq.cli``: ``python -m hgfq.cli`` runs cli.py as
``__main__``, and importing it here would compile and execute it again.
"""

from __future__ import annotations

import importlib
import itertools
import random
from typing import TYPE_CHECKING

from .chars import MulChar, standard_psi
from .cyclo import Cyclo
from .ffield import Field, build_field_q
from .hgf import dft, idft, mfn
from .sums import gauss, gauss_circ, jacobi, jacobi_product_formula, pochhammer, pochhammer_circ

if TYPE_CHECKING:
    from .genhgf import Partition


def _record(claim, ok_count, total, witnesses):
    rec = {"claim": claim, "lhs": ok_count, "rhs": total, "equal": ok_count == total}
    if witnesses:
        rec["witnesses"] = witnesses[:10]
    return rec


def _claim_gauss_reflection(q, seed):
    f = build_field_q(q)
    psi = standard_psi(f)
    ok, wit = 0, []
    for j in range(f.N):
        eta = MulChar(f, j)
        lhs = gauss(eta, psi) * gauss_circ(eta.inverse(), psi)
        rhs = eta.eval_int(-1).scale(f.q)
        if lhs == rhs:
            ok += 1
        else:
            wit.append({"chi": j, "lhs": lhs.to_text(), "rhs": rhs.to_text()})
    return _record(f"gauss.reflection.q{q}", ok, f.N, wit)


def _claim_jacobi_gauss(q, seed):
    f = build_field_q(q)
    psi = standard_psi(f)
    ok, tot, wit = 0, 0, []
    for a, b in itertools.product(range(f.N), repeat=2):
        tot += 1
        lhs = jacobi(MulChar(f, a), MulChar(f, b))
        rhs = jacobi_product_formula(MulChar(f, a), MulChar(f, b), psi=psi)
        if lhs == rhs:
            ok += 1
        else:
            wit.append({"chi": [a, b]})
    return _record(f"jacobi.gauss-product.q{q}", ok, tot, wit)


def _claim_poch_reflection(q, seed):
    f = build_field_q(q)
    psi = standard_psi(f)
    ok, tot, wit = 0, 0, []
    for a, n in itertools.product(range(f.N), repeat=2):
        tot += 1
        alpha, nu = MulChar(f, a), MulChar(f, n)
        lhs = pochhammer(alpha, nu, psi) * pochhammer_circ(
            alpha.inverse(), nu.inverse(), psi)
        if lhs == nu.eval(f.neg(1)):
            ok += 1
        else:
            wit.append({"alpha": a, "nu": n})
    return _record(f"pochhammer.reflection.q{q}", ok, tot, wit)


def _claim_hgf_low_order(q, seed):
    f = build_field_q(q)
    psi = standard_psi(f)
    ok, tot, wit = 0, 0, []
    units = list(f.dlog)
    for lam in units:
        tot += 1
        if mfn([], [], lam, psi) == psi.eval(f.neg(lam)):
            ok += 1
        else:
            wit.append({"case": "0F0", "lam": lam})
    for a in range(1, f.N):
        alpha = MulChar(f, a)
        for lam in units:
            tot += 1
            lhs = mfn([alpha], [], lam, psi)
            if lhs == alpha.inverse().eval(f.sub(1, lam)):
                ok += 1
            else:
                wit.append({"case": "1F0", "alpha": a, "lam": lam})
    return _record(f"hgf.low-order.q{q}", ok, tot, wit)


def _claim_symmetry(q, seed, parts):
    from .genhgf import Partition, hdelta_chars, mat_mul, phi_table, w_action_on_char, w_to_matrix

    f = build_field_q(q)
    delta = Partition(parts)
    rng = random.Random(seed)
    n = delta.n
    dd = min(n, 2)
    ok, tot, wit = 0, 0, []
    ws = _w_samples(f, delta, rng, 6)
    zs = [_z_sample(f, dd, n, rng) for _ in range(4)]
    chars = list(hdelta_chars(f, delta))
    index = {chi: i for i, chi in enumerate(chars)}
    z_tables = [phi_table(f, delta, z) for z in zs]
    for w in ws:
        mw = w_to_matrix(f, w)
        zw_tables = [phi_table(f, delta, mat_mul(f, z, mw)) for z in zs]
        for i, chi in enumerate(chars):
            k = index[w_action_on_char(chi, w)]
            for z, z_table, zw_table in zip(zs, z_tables, zw_tables):
                tot += 1
                if z_table[k] == zw_table[i]:
                    ok += 1
                else:
                    wit.append({"w": repr(w), "z": z})
    return _record(f"phi.symmetry.q{q}.delta{'-'.join(map(str, parts))}", ok, tot, wit)


def _w_samples(f: Field, delta: Partition, rng: random.Random, count: int):
    from .genhgf import WDeltaElem

    units = [u for u in f.elements() if u in f.dlog]
    out = []
    for _ in range(count):
        sigmas, cs = [], []
        for size, mult in delta.grouped():
            perm = list(range(mult))
            rng.shuffle(perm)
            sigmas.append(tuple(perm))
            cs.append(tuple(
                tuple([rng.choice(units)] + [rng.randrange(f.q) for _ in range(size - 2)])
                if size > 1 else ()
                for _ in range(mult)))
        out.append(WDeltaElem(delta, tuple(sigmas), tuple(cs)))
    return out


def _z_sample(f: Field, d: int, n: int, rng: random.Random):
    while True:
        z = [[rng.randrange(f.q) for _ in range(n)] for _ in range(d)]
        if any(any(row) for row in z):
            return z


def _claim_reduction(q, seed, parts):
    from .genhgf import Partition, hdelta_chars, normalized_z, phi_delta, reduce_to_classical

    f = build_field_q(q)
    units = [u for u in f.elements() if u in f.dlog]
    ok, tot, wit = 0, 0, []
    for lams in itertools.product(units, repeat=sum(parts) - 3):
        try:
            z = normalized_z(f, parts, lams)
        except ValueError:
            continue
        for chi in hdelta_chars(f, Partition(parts)):
            try:
                rhs = reduce_to_classical(chi, z)
            except ValueError:
                continue
            tot += 1
            if phi_delta(chi, z) == rhs:
                ok += 1
            else:
                wit.append({"lams": list(lams)})
    return _record(f"phi.reduction.q{q}.delta{'-'.join(map(str, parts))}", ok, tot, wit)


def _claim_counts_match_phi(q, seed, parts):
    from .genhgf import Partition, hdelta_chars, phi_table
    from .varieties import GeneralXDz, hdelta_to_groupchar

    f = build_field_q(q)
    rng = random.Random(seed)
    delta = Partition(parts)
    chars = list(hdelta_chars(f, delta))
    ok, tot, wit = 0, 0, []
    for _ in range(3):
        z = _z_sample(f, min(delta.n, 2), delta.n, rng)
        v = GeneralXDz(f, delta, z)
        for chi, phi in zip(chars, phi_table(f, delta, z)):
            tot += 1
            if v.n_chi(hdelta_to_groupchar(chi)) == phi:
                ok += 1
            else:
                wit.append({"z": z})
    return _record(f"count.matches-phi.q{q}.delta{'-'.join(map(str, parts))}",
                   ok, tot, wit)


def _claim_counts_total(q, seed):
    from .varieties import ASStar, FermatStar, MXnLambda, enumerate_groupchars

    f = build_field_q(q)
    fams = [("fermat2", FermatStar(f, 2)), ("as", ASStar(f))]
    for lam in list(f.dlog)[:1]:
        fams.append(("2x2", MXnLambda(f, 2, 2, lam)))
        fams.append(("1x2", MXnLambda(f, 1, 2, lam)))
    ok, tot, wit = 0, 0, []
    for name, v in fams:
        tot += 1
        total = Cyclo.zero()
        for chi in enumerate_groupchars(v):
            total = total + v.n_chi(chi)
        if total == Cyclo.integer(v.naive_count(1)):
            ok += 1
        else:
            wit.append({"family": name})
    return _record(f"count.total.q{q}", ok, tot, wit)


def _claim_gauss_iso(q, seed):
    from .varieties import enumerate_groupchars, make_context, transport_check

    f = build_field_q(q)
    lam = next(u for u in f.dlog if u != 1)
    ctx = make_context("gauss", f, lam=lam)
    ok, tot, wit = 0, 0, []
    for sigma in ctx.symmetries():
        iso = ctx.build(sigma)
        for chi in enumerate_groupchars(iso.transport.source):
            tot += 1
            if transport_check(iso.transport, chi):
                ok += 1
            else:
                wit.append({"sigma": sigma})
    return _record(f"iso.gauss-transport.q{q}", ok, tot, wit)


def _claim_dft_roundtrip(q, seed):
    f = build_field_q(q)
    rng = random.Random(seed)
    units = list(f.dlog)
    ok, tot, wit = 0, 0, []
    for trial in range(5):
        f_map = {pt: Cyclo.integer(rng.randrange(-3, 4))
                 for pt in itertools.product(units, repeat=2)}
        tot += 1
        back = idft(dft(f_map, f, 2), f, 2)
        if all(back[k] == f_map[k] for k in f_map):
            ok += 1
        else:
            wit.append({"trial": trial})
    return _record(f"dft.roundtrip.q{q}", ok, tot, wit)


CLAIMS = {
    "gauss-sums": [
        ("_claim_gauss_reflection", {"q": 3}),
        ("_claim_gauss_reflection", {"q": 4}),
        ("_claim_gauss_reflection", {"q": 5}),
        ("_claim_gauss_reflection", {"q": 7}),
        ("_claim_jacobi_gauss", {"q": 3}),
        ("_claim_jacobi_gauss", {"q": 4}),
        ("_claim_jacobi_gauss", {"q": 5}),
        ("_claim_poch_reflection", {"q": 3}),
        ("_claim_poch_reflection", {"q": 5}),
        ("_claim_hgf_low_order", {"q": 3}),
        ("_claim_hgf_low_order", {"q": 4}),
    ],
    "symmetry": [
        ("_claim_symmetry", {"q": 3, "parts": (1, 1, 2)}),
        ("_claim_symmetry", {"q": 3, "parts": (2, 2)}),
        ("_claim_symmetry", {"q": 4, "parts": (1, 1, 2)}),
        ("_claim_reduction", {"q": 3, "parts": (1, 1, 1, 1)}),
        ("_claim_reduction", {"q": 3, "parts": (1, 1, 2)}),
        ("_claim_reduction", {"q": 3, "parts": (2, 2)}),
    ],
    "varieties": [
        ("_claim_counts_match_phi", {"q": 3, "parts": (1, 1, 2)}),
        ("_claim_counts_match_phi", {"q": 3, "parts": (2, 2)}),
        ("_claim_counts_total", {"q": 3}),
        ("_claim_counts_total", {"q": 4}),
        ("_claim_gauss_iso", {"q": 3}),
        ("_claim_gauss_iso", {"q": 4}),
        ("_claim_dft_roundtrip", {"q": 3}),
    ],
}

# the layers, beyond those imported above, that each suite's claims import
LAYERS = {
    "gauss-sums": (),
    "symmetry": ("genhgf",),
    "varieties": ("genhgf", "varieties"),
}


def load_layers(suite):
    """Import the layers a suite's claims use, e.g. before forking workers."""
    for name in LAYERS[suite]:
        importlib.import_module(f"{__package__}.{name}")


def run_claim(entry):
    """Run one ``(claim name, kwargs, seed)`` entry; returns its record."""
    name, kwargs, seed = entry
    fn = globals()[name]
    return fn(seed=seed, **kwargs)
