"""Command-line interface.

Evaluates Gauss/Jacobi sums and hypergeometric functions over finite fields,
counts rational points on the associated varieties, builds variety
isomorphisms, and runs self-verification suites -- everything in exact
cyclotomic arithmetic (no floating point anywhere).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor

import click

from .chars import AddChar, MulChar, enumerate_mulchars, standard_psi, trivial_char
from .cyclo import Cyclo
from .ffield import DEFAULT_CAP, Field, build_field, build_field_q
from .genhgf import (
    HDeltaChar,
    JmChar,
    Partition,
    WDeltaElem,
    hdelta_chars,
    mat_mul,
    normalized_z,
    phi_delta,
    reduce_to_classical,
    w_action_on_char,
    w_to_matrix,
)
from .hgf import dft, hgf_eval, humbert, idft, iteration_lhs, iteration_rhs, lauricella, mfn, params
from .sums import (
    gauss,
    gauss_circ,
    jacobi,
    jacobi_product_formula,
    pochhammer,
    pochhammer_circ,
)
from .varieties import (
    FAMILIES,
    ASStar,
    FermatStar,
    GeneralXDz,
    GroupChar,
    Humbert1,
    Humbert3,
    LauricellaA,
    LauricellaC,
    LauricellaD,
    MXnLambda,
    enumerate_groupchars,
    make_context,
    n_chi_closed_form,
    transport_check,
    verify_iso,
)


# -- small shared helpers ----------------------------------------------------


def _get_field(q, p, e, cap) -> Field:
    if q is not None:
        return build_field_q(q, cap)
    if p is not None:
        return build_field(p, e or 1, cap)
    raise click.UsageError("specify --q or --p (with optional --e)")


def _parse_ints(text) -> tuple:
    if text is None or text == "":
        return ()
    return tuple(int(t) for t in str(text).replace(" ", ",").split(",") if t != "")


def _parse_rows(text) -> list:
    return [list(_parse_ints(row)) for row in text.split(";")]


def _cyclo_json(v: Cyclo) -> dict:
    return v.to_json()


def _cyclo_str(v: Cyclo) -> str:
    d = v.to_json()
    return f"m={d['m']};num={','.join(map(str, d['num']))};den={d['den']}"


def _echo_json(data):
    click.echo(json.dumps(data, indent=2, default=str))


def _echo_csv(header, rows):
    click.echo(",".join(header))
    for row in rows:
        click.echo(",".join(str(x) for x in row))


def field_options(fn):
    fn = click.option("--cap", type=int, default=DEFAULT_CAP, show_default=False,
                      help="largest extension-field size the tables may reach")(fn)
    fn = click.option("--e", type=int, default=1, help="extension degree over F_p")(fn)
    fn = click.option("--p", type=int, default=None, help="field characteristic")(fn)
    fn = click.option("--q", type=int, default=None, help="field size (prime power)")(fn)
    return fn


def output_options(fn):
    fn = click.option("--json/--table", "as_json", default=True,
                      help="emit JSON (default) or a CSV table")(fn)
    return fn


# -- value commands ----------------------------------------------------------


@click.group()
def main():
    """Exact hypergeometric functions over finite fields."""


def _fail_closed(ctx, _invoke=main.invoke):
    """Bad input that reaches the library ends as {"error": ...} on stdout and exit 2."""
    try:
        return _invoke(ctx)
    except ValueError as exc:
        _echo_json({"error": str(exc)})
        sys.exit(2)


# set on the instance: main stays a plain click.Group, which perfbench's
# tracer leaves alone (it wraps every callable whose class is defined here)
main.invoke = _fail_closed


@main.command("field")
@field_options
def field_cmd(q, p, e, cap):
    """Describe the field: characteristic, modulus, generator."""
    f = _get_field(q, p, e, cap)
    data = f.to_json()
    data.update({"q": f.q, "N": f.N, "generators": f.generators()})
    _echo_json(data)


@main.command("gauss")
@field_options
@output_options
@click.option("--chi", type=int, default=None, help="character index j (chi = omega^j)")
@click.option("--psi", "psi_a", type=int, default=1, help="additive-character twist a")
@click.option("--circ", is_flag=True, help="use the unit-sum variant")
def gauss_cmd(q, p, e, cap, as_json, chi, psi_a, circ):
    """Gauss sum of a multiplicative character."""
    f = _get_field(q, p, e, cap)
    psi = AddChar(f, f.from_int(psi_a))
    fun = gauss_circ if circ else gauss
    if not as_json or chi is None:
        rows = [(j, _cyclo_str(fun(MulChar(f, j), psi))) for j in range(f.N)]
        if as_json:
            _echo_json([{"chi": j, "value": _cyclo_json(fun(MulChar(f, j), psi))}
                        for j in range(f.N)])
        else:
            _echo_csv(("chi", "value"), rows)
        return
    _echo_json({"q": f.q, "chi": chi, "value": _cyclo_json(fun(MulChar(f, chi), psi))})


@main.command("jacobi")
@field_options
@output_options
@click.option("--chi", default=None, help="comma-separated character indices")
def jacobi_cmd(q, p, e, cap, as_json, chi):
    """Jacobi sum of a tuple of multiplicative characters."""
    f = _get_field(q, p, e, cap)
    if chi is not None:
        idxs = _parse_ints(chi)
        v = jacobi(*[MulChar(f, j) for j in idxs])
        _echo_json({"q": f.q, "chi": list(idxs), "value": _cyclo_json(v)})
        return
    rows = []
    for a, b in itertools.product(range(f.N), repeat=2):
        v = jacobi(MulChar(f, a), MulChar(f, b))
        rows.append((a, b, _cyclo_str(v)))
    if as_json:
        _echo_json([{"chi": [a, b], "value": val} for a, b, val in rows])
    else:
        _echo_csv(("chi1", "chi2", "value"), rows)


@main.command("hgf")
@field_options
@output_options
@click.option("--upper", required=True, help="upper character indices, e.g. 1,1")
@click.option("--lower", required=True, help="lower character indices, e.g. 0")
@click.option("--lam", type=int, default=None, help="argument (field element code)")
@click.option("--raw", is_flag=True, help="evaluate the raw F (no classical wrapper)")
def hgf_cmd(q, p, e, cap, as_json, upper, lower, lam, raw):
    """Evaluate a finite-field hypergeometric function mFn."""
    f = _get_field(q, p, e, cap)
    ups = _parse_ints(upper)
    los = _parse_ints(lower)

    def value(uidx, lidx, lamv):
        uch = [MulChar(f, j) for j in uidx]
        lch = [MulChar(f, j) for j in lidx]
        if raw:
            return hgf_eval(params(uch, lch, standard_psi(f)), lamv)
        return mfn(uch, lch, lamv)

    if lam is not None and as_json:
        _echo_json({"q": f.q, "upper": list(ups), "lower": list(los), "lam": lam,
                    "value": _cyclo_json(value(ups, los, lam))})
        return
    rows = []
    for uidx in itertools.product(range(f.N), repeat=len(ups)):
        for lidx in itertools.product(range(f.N), repeat=len(los)):
            for lamv in ([lam] if lam is not None else list(f.elements())):
                v = value(uidx, lidx, lamv)
                rows.append((";".join(map(str, uidx)), ";".join(map(str, lidx)),
                             lamv, _cyclo_str(v)))
    if as_json:
        _echo_json([{"upper": u, "lower": l, "lam": lamv, "value": val}
                    for u, l, lamv, val in rows])
    else:
        _echo_csv(("upper", "lower", "lam", "value"), rows)


@main.command("lauricella")
@field_options
@click.option("--kind", type=click.Choice(["A", "B", "C", "D"]), required=True)
@click.option("--alpha", required=True, help="alpha character indices")
@click.option("--beta", required=True, help="beta character indices")
@click.option("--gamma", required=True, help="gamma character indices")
@click.option("--delta", required=True, help="delta character indices")
@click.option("--lams", required=True, help="argument tuple, e.g. 2,1")
def lauricella_cmd(q, p, e, cap, kind, alpha, beta, gamma, delta, lams):
    """Evaluate a multivariate (Lauricella-type) series."""
    f = _get_field(q, p, e, cap)

    def chs(text):
        return [MulChar(f, j) for j in _parse_ints(text)]

    v = lauricella(kind, chs(alpha), chs(beta), chs(gamma), chs(delta),
                   _parse_ints(lams))
    _echo_json({"q": f.q, "kind": kind, "value": _cyclo_json(v)})


@main.command("humbert")
@field_options
@click.option("--kind", type=click.Choice(["1", "2", "3"]), required=True)
@click.option("--upper", required=True, help="upper character indices")
@click.option("--gamma", type=int, required=True, help="gamma character index")
@click.option("--delta", required=True, help="two delta character indices")
@click.option("--lam1", type=int, required=True)
@click.option("--lam2", type=int, required=True)
def humbert_cmd(q, p, e, cap, kind, upper, gamma, delta, lam1, lam2):
    """Evaluate a two-variable confluent (Humbert-type) series."""
    f = _get_field(q, p, e, cap)
    ups = [MulChar(f, j) for j in _parse_ints(upper)]
    ds = [MulChar(f, j) for j in _parse_ints(delta)]
    v = humbert(int(kind), ups, MulChar(f, gamma), ds, lam1, lam2)
    _echo_json({"q": f.q, "kind": int(kind), "value": _cyclo_json(v)})


def _parse_hdelta_char(f: Field, delta: Partition, text, psi) -> HDeltaChar:
    """Block syntax: 'j' or 'j:a1,a2,...' per block, blocks joined by ';'."""
    blocks = []
    for block, size in zip(text.split(";"), delta.parts):
        if ":" in block:
            head, tail = block.split(":", 1)
            avec = _parse_ints(tail)
        else:
            head, avec = block, ()
        if len(avec) != size - 1:
            raise click.UsageError(
                f"block of size {size} needs {size - 1} additive coefficients")
        blocks.append(JmChar(MulChar(f, int(head)), tuple(avec), psi))
    return HDeltaChar(delta, tuple(blocks))


@main.command("phi")
@field_options
@click.option("--delta", required=True, help="partition, e.g. 1,1,2")
@click.option("--z", "z_text", default=None,
              help="d x n matrix, rows joined by ';', e.g. 1,0,1,0;0,1,1,1")
@click.option("--lams", default=None,
              help="build the normalized z-representative from these parameters")
@click.option("--chi", required=True, help="per-block 'j[:a,...]' joined by ';'")
@click.option("--psi", "psi_a", type=int, default=1)
def phi_cmd(q, p, e, cap, delta, z_text, lams, chi, psi_a):
    """Evaluate the general character sum Phi_Delta(chi; z)."""
    f = _get_field(q, p, e, cap)
    parts = _parse_ints(delta)
    part = Partition(parts)
    if z_text is not None:
        z = _parse_rows(z_text)
    elif lams is not None:
        z = normalized_z(f, parts, _parse_ints(lams))
    else:
        raise click.UsageError("specify --z or --lams")
    psi = AddChar(f, f.from_int(psi_a))
    ch = _parse_hdelta_char(f, part, chi, psi)
    _echo_json({"q": f.q, "delta": list(parts), "value": _cyclo_json(phi_delta(ch, z))})


# -- point counts ------------------------------------------------------------


def _make_variety(f: Field, family, m, n, lam, lams, lam1, lam2, delta, z_text):
    lam_list = _parse_ints(lams) if lams else ()
    if family == "fermat":
        return FermatStar(f, n or 1)
    if family == "as":
        return ASStar(f)
    if family == "mxn":
        return MXnLambda(f, m if m is not None else n, n, lam)
    if family == "fd":
        return LauricellaD(f, n or len(lam_list), lam_list)
    if family == "fa":
        return LauricellaA(f, n or len(lam_list), lam_list)
    if family == "fc":
        return LauricellaC(f, n or len(lam_list), lam_list)
    if family == "humbert1":
        return Humbert1(f, lam1, lam2)
    if family == "humbert3":
        return Humbert3(f, lam1, lam2)
    if family == "general":
        return GeneralXDz(f, Partition(_parse_ints(delta)), _parse_rows(z_text))
    raise click.UsageError(f"unknown family {family!r}")


def _parse_groupchar(v, chi_text) -> GroupChar:
    codes = _parse_ints(chi_text)
    if len(codes) != len(v.shape):
        raise click.UsageError(
            f"family needs {len(v.shape)} character components ({v.shape})")
    f = v.field
    parts = []
    for kind, c in zip(v.shape, codes):
        parts.append(MulChar(f, c % f.N) if kind == "u" else AddChar(f, f.from_int(c)))
    return GroupChar(tuple(parts))


@main.command("count")
@field_options
@click.option("--family", required=True,
              type=click.Choice(["fermat", "as", "mxn", "fd", "fa", "fc",
                                 "humbert1", "humbert3", "general"]))
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--lam", type=int, default=None)
@click.option("--lams", default=None)
@click.option("--lam1", type=int, default=None)
@click.option("--lam2", type=int, default=None)
@click.option("--delta", default=None)
@click.option("--z", "z_text", default=None)
@click.option("--chi", default=None, help="one code per group slot (mult index / additive code)")
@click.option("--naive", type=int, default=None,
              help="also count points naively over the degree-r extension")
def count_cmd(q, p, e, cap, family, m, n, lam, lams, lam1, lam2, delta, z_text,
              chi, naive):
    """Character-weighted point count n_chi (and closed form when available)."""
    f = _get_field(q, p, e, cap)
    v = _make_variety(f, family, m, n, lam, lams, lam1, lam2, delta, z_text)
    out = {"q": f.q, "family": family, "shape": v.shape}
    if chi is not None:
        gchi = _parse_groupchar(v, chi)
        val = v.n_chi(gchi)
        out["chi"] = list(_parse_ints(chi))
        out["n_chi"] = _cyclo_json(val)
        try:
            cf = n_chi_closed_form(v, gchi)
            out["closed_form"] = _cyclo_json(cf)
            out["agree"] = bool(val == cf)
        except ValueError as exc:
            out["closed_form"] = None
            out["note"] = str(exc)
    if naive is not None:
        out["naive"] = {"r": naive, "count": v.naive_count(naive)}
    _echo_json(out)


# -- isomorphisms ------------------------------------------------------------


def _parse_sigma(text, arity):
    try:
        vals = _parse_ints(text)
    except ValueError:
        raise click.UsageError("--sigma takes integers") from None
    # two values are always a 1-based transposition, also when arity is 2
    if len(vals) == 2:
        i, j = (x - 1 for x in vals)
        if not (0 <= i < arity and 0 <= j < arity):
            raise click.UsageError(f"--sigma indices must lie in 1..{arity}")
        sigma = list(range(arity))
        sigma[i], sigma[j] = sigma[j], sigma[i]
        return tuple(sigma)
    if len(vals) == arity and sorted(vals) == list(range(arity)):
        return tuple(vals)
    if len(vals) == arity and sorted(vals) == list(range(1, arity + 1)):
        return tuple(x - 1 for x in vals)
    raise click.UsageError("--sigma must be a transposition 'i j' or a full permutation")


@main.command("iso")
@field_options
@click.option("--family", required=True, type=click.Choice(list(FAMILIES)))
@click.option("--lam", type=int, default=None)
@click.option("--lams", default=None)
@click.option("--lam1", type=int, default=None)
@click.option("--lam2", type=int, default=None)
@click.option("--sigma", default=None,
              help="permutation part of the symmetry: a 1-based transposition 'i j' or a full permutation")
@click.option("--c", type=int, default=1, help="unit part (kummer/phi1)")
@click.option("--c1", type=int, default=1, help="first unit part (phi3)")
@click.option("--c2", type=int, default=1, help="second unit part (phi3)")
@click.option("--check/--no-check", default=True,
              help="run the point-level verification when the extension fits")
@click.option("--sample", type=int, default=24, help="transported characters to spot-check")
@click.option("--seed", type=int, default=0)
def iso_cmd(q, p, e, cap, family, lam, lams, lam1, lam2, sigma, c, c1, c2,
            check, sample, seed):
    """Build a variety isomorphism for a symmetry element and verify it."""
    f = _get_field(q, p, e, cap)
    given = {"lam": lam, "lams": _parse_ints(lams), "lam1": lam1, "lam2": lam2}
    ctx = make_context(family, f, **{k: given[k] for k in FAMILIES[family].params})
    perm = _parse_sigma(sigma, ctx.arity) if sigma else tuple(range(ctx.arity))
    n_twists = len(ctx.as_cols)
    twists = (c,) if n_twists == 1 else (c1, c2)[:n_twists]
    non_units = [t for t in twists if t not in f.dlog]
    if non_units:
        raise ValueError(f"unit part {non_units[0]} is not a unit of F_{f.q}")
    sym = ctx.symmetry(perm, twists)
    iso = ctx.build(sym)
    out = {
        "q": f.q,
        "family": family,
        "symmetry": repr(sym),
        "Q": iso.transport.Q,
        "d_elem": list(iso.transport.d_elem),
        "target_params": iso.target_ctx.param_values(),
    }
    src = iso.transport.source
    rng = random.Random(seed)
    chars = list(enumerate_groupchars(src))
    picks = chars if len(chars) <= sample else rng.sample(chars, sample)
    bad = [list(ch.parts) for ch in picks if not transport_check(iso.transport, ch)]
    out["transport"] = {"checked": len(picks), "pass": not bad}
    if bad:
        out["transport"]["failures"] = [repr(b) for b in bad]
    if check:
        if iso.point_map is None:
            out["verify"] = {"pass": None,
                             "note": "extension exceeds cap; transport only"}
        else:
            out["verify"] = verify_iso(iso, sample=sample, seed=seed)
    _echo_json(out)
    if bad or (check and out.get("verify", {}).get("pass") is False):
        sys.exit(1)


# -- verification suites -----------------------------------------------------


def _record(claim, ok_count, total, witnesses):
    rec = {"claim": claim, "lhs": ok_count, "rhs": total, "equal": ok_count == total}
    if witnesses:
        rec["witnesses"] = witnesses[:10]
    return rec


def _claim_gauss_reflection(q, seed, cap):
    f = build_field_q(q, cap)
    psi = standard_psi(f)
    ok, wit = 0, []
    for j in range(f.N):
        eta = MulChar(f, j)
        lhs = gauss(eta, psi) * gauss_circ(eta.inverse(), psi)
        rhs = eta.eval_int(-1).scale(f.q)
        if lhs == rhs:
            ok += 1
        else:
            wit.append({"chi": j, "lhs": _cyclo_str(lhs), "rhs": _cyclo_str(rhs)})
    return _record(f"gauss.reflection.q{q}", ok, f.N, wit)


def _claim_jacobi_gauss(q, seed, cap):
    f = build_field_q(q, cap)
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


def _claim_poch_reflection(q, seed, cap):
    f = build_field_q(q, cap)
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


def _claim_hgf_low_order(q, seed, cap):
    f = build_field_q(q, cap)
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


def _claim_symmetry(q, seed, cap, parts):
    f = build_field_q(q, cap)
    delta = Partition(parts)
    rng = random.Random(seed)
    n = delta.n
    dd = min(n, 2)
    ok, tot, wit = 0, 0, []
    ws = _w_samples(f, delta, rng, 6)
    zs = [_z_sample(f, dd, n, rng) for _ in range(4)]
    for w in ws:
        mw = w_to_matrix(f, w)
        for chi in hdelta_chars(f, delta):
            for z in zs:
                tot += 1
                lhs = phi_delta(w_action_on_char(chi, w), z)
                rhs = phi_delta(chi, mat_mul(f, z, mw))
                if lhs == rhs:
                    ok += 1
                else:
                    wit.append({"w": repr(w), "z": z})
    return _record(f"phi.symmetry.q{q}.delta{'-'.join(map(str, parts))}", ok, tot, wit)


def _w_samples(f: Field, delta: Partition, rng: random.Random, count: int):
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


def _claim_reduction(q, seed, cap, parts):
    f = build_field_q(q, cap)
    units = [u for u in f.elements() if u in f.dlog]
    nlam = 1 if sum(parts) == 4 else 2
    ok, tot, wit = 0, 0, []
    for lams in itertools.product(units, repeat=nlam):
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


def _claim_counts_match_phi(q, seed, cap, parts):
    f = build_field_q(q, cap)
    rng = random.Random(seed)
    delta = Partition(parts)
    ok, tot, wit = 0, 0, []
    for _ in range(3):
        z = _z_sample(f, min(delta.n, 2), delta.n, rng)
        v = GeneralXDz(f, delta, z)
        for chi in hdelta_chars(f, delta):
            tot += 1
            from .varieties import hdelta_to_groupchar
            if v.n_chi(hdelta_to_groupchar(chi)) == phi_delta(chi, z):
                ok += 1
            else:
                wit.append({"z": z})
    return _record(f"count.matches-phi.q{q}.delta{'-'.join(map(str, parts))}",
                   ok, tot, wit)


def _claim_counts_total(q, seed, cap):
    f = build_field_q(q, cap)
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


def _claim_gauss_iso(q, seed, cap):
    f = build_field_q(q, cap)
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


def _claim_dft_roundtrip(q, seed, cap):
    f = build_field_q(q, cap)
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


_CLAIMS = {
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


def _run_claim(entry):
    name, kwargs, seed, cap = entry
    fn = globals()[name]
    return fn(seed=seed, cap=cap, **kwargs)


@main.command("verify")
@click.option("--suite", required=True, help="|".join(sorted(_CLAIMS)))
@click.option("--seed", type=int, default=0)
@click.option("--cap", type=int, default=DEFAULT_CAP)
@click.option("--jobs", type=click.IntRange(min=1), default=1, help="parallel worker processes")
def verify_cmd(suite, seed, cap, jobs):
    """Run a named verification suite; exit 0 iff every claim holds."""
    if suite not in _CLAIMS:
        raise click.UsageError(
            f"unknown suite {suite!r}; choose from {sorted(_CLAIMS)}")
    entries = [(name, kwargs, seed, cap) for name, kwargs in _CLAIMS[suite]]
    jobs = min(jobs, os.cpu_count() or 1, len(entries))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_claim, entries))
    else:
        records = [_run_claim(e) for e in entries]
    all_ok = all(r["equal"] for r in records)
    _echo_json({"suite": suite, "pass": all_ok, "claims": records})
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
