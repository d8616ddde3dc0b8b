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
from typing import TYPE_CHECKING

import click

from .chars import AddChar, MulChar, standard_psi
from .cyclo import Cyclo
from .ffield import Field, build_field, build_field_q
from .hgf import hgf, humbert, lauricella, mfn
from .sums import gauss, gauss_circ, jacobi

if TYPE_CHECKING:
    from .genhgf import HDeltaChar, Partition
    from .varieties import GroupChar

# Only the layers every value command runs are imported here.  The commands
# that need genhgf (phi), varieties (count, iso) or a verification suite
# import it in their body, so a gauss or hgf call does not compile them.

# the keys of varieties.FAMILIES, spelled out so that parsing needs no import
_ISO_FAMILIES = ("gauss", "kummer", "fd", "phi1", "phi3", "fa")
# the keys of suites.CLAIMS, sorted
_SUITES = ("gauss-sums", "symmetry", "varieties")


# -- small shared helpers ----------------------------------------------------


def _get_field(q, p, e) -> Field:
    if q is not None:
        if p is not None or e is not None:
            raise ValueError("give --q or --p/--e, not both")
        return build_field_q(q)
    if p is not None:
        return build_field(p, 1 if e is None else e)
    raise click.UsageError("specify --q or --p (with optional --e)")


def _parse_ints(text) -> tuple:
    if text is None or text == "":
        return ()
    return tuple(int(t) for t in str(text).replace(" ", ",").split(",") if t != "")


def _parse_rows(text) -> list:
    return [list(_parse_ints(row)) for row in text.split(";")]


def _addchar(f: Field, a: int) -> AddChar:
    """psi_a for the field code a; additive codes are field codes, 0..q-1."""
    if a not in f.elements():
        raise ValueError(f"additive codes must lie in 0..{f.q - 1}")
    return AddChar(f, a)


def _cyclo_json(v: Cyclo) -> dict:
    return v.to_json()


def _echo_json(data):
    click.echo(json.dumps(data, indent=2, default=str))


def _echo_csv(header, rows):
    click.echo(",".join(header))
    for row in rows:
        click.echo(",".join(str(x) for x in row))


def field_options(fn):
    fn = click.option("--e", type=int, default=None, help="extension degree over F_p (default 1)")(fn)
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
def field_cmd(q, p, e):
    """Describe the field: characteristic, modulus, generator."""
    f = _get_field(q, p, e)
    data = f.to_json()
    data.update({"q": f.q, "N": f.N, "generators": f.generators()})
    _echo_json(data)


@main.command("gauss")
@field_options
@output_options
@click.option("--chi", type=int, default=None, help="character index j (chi = omega^j)")
@click.option("--psi", "psi_a", type=int, default=1, help="additive-character twist a")
@click.option("--circ", is_flag=True, help="use the unit-sum variant")
def gauss_cmd(q, p, e, as_json, chi, psi_a, circ):
    """Gauss sum of a multiplicative character."""
    f = _get_field(q, p, e)
    psi = _addchar(f, psi_a)
    fun = gauss_circ if circ else gauss
    if as_json and chi is not None:
        _echo_json({"q": f.q, "chi": chi, "value": _cyclo_json(fun(MulChar(f, chi), psi))})
        return
    values = [fun(MulChar(f, j), psi) for j in range(f.N)]
    if as_json:
        _echo_json([{"chi": j, "value": _cyclo_json(v)} for j, v in enumerate(values)])
    else:
        _echo_csv(("chi", "value"), [(j, v.to_text()) for j, v in enumerate(values)])


@main.command("jacobi")
@field_options
@output_options
@click.option("--chi", default=None, help="comma-separated character indices")
def jacobi_cmd(q, p, e, as_json, chi):
    """Jacobi sum of a tuple of multiplicative characters."""
    f = _get_field(q, p, e)
    if chi is not None:
        idxs = _parse_ints(chi)
        v = jacobi(*[MulChar(f, j) for j in idxs])
        _echo_json({"q": f.q, "chi": list(idxs), "value": _cyclo_json(v)})
        return
    rows = []
    for a, b in itertools.product(range(f.N), repeat=2):
        v = jacobi(MulChar(f, a), MulChar(f, b))
        rows.append((a, b, v.to_text()))
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
def hgf_cmd(q, p, e, as_json, upper, lower, lam, raw):
    """Evaluate a finite-field hypergeometric function mFn."""
    f = _get_field(q, p, e)
    ups = _parse_ints(upper)
    los = _parse_ints(lower)

    def value(uidx, lidx, lamv):
        uch = [MulChar(f, j) for j in uidx]
        lch = [MulChar(f, j) for j in lidx]
        return (hgf if raw else mfn)(uch, lch, lamv, standard_psi(f))

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
                             lamv, v.to_text()))
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
def lauricella_cmd(q, p, e, kind, alpha, beta, gamma, delta, lams):
    """Evaluate a multivariate (Lauricella-type) series."""
    f = _get_field(q, p, e)

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
def humbert_cmd(q, p, e, kind, upper, gamma, delta, lam1, lam2):
    """Evaluate a two-variable confluent (Humbert-type) series."""
    f = _get_field(q, p, e)
    ups = [MulChar(f, j) for j in _parse_ints(upper)]
    ds = [MulChar(f, j) for j in _parse_ints(delta)]
    v = humbert(int(kind), ups, MulChar(f, gamma), ds, lam1, lam2)
    _echo_json({"q": f.q, "kind": int(kind), "value": _cyclo_json(v)})


def _parse_hdelta_char(f: Field, delta: Partition, text, psi) -> HDeltaChar:
    """Block syntax: 'j' or 'j:a1,a2,...' per block, blocks joined by ';'."""
    from .genhgf import HDeltaChar, JmChar

    texts = text.split(";")
    if len(texts) != delta.l:
        raise ValueError(f"block count mismatch: {len(texts)} blocks for {delta.l} parts")
    blocks = []
    for block, size in zip(texts, delta.parts):
        if ":" in block:
            head, tail = block.split(":", 1)
            avec = _parse_ints(tail)
        else:
            head, avec = block, ()
        if len(avec) != size - 1:
            raise click.UsageError(
                f"block of size {size} needs {size - 1} additive coefficients")
        if any(a not in f.elements() for a in avec):
            raise ValueError(f"additive coefficients must lie in 0..{f.q - 1}")
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
def phi_cmd(q, p, e, delta, z_text, lams, chi, psi_a):
    """Evaluate the general character sum Phi_Delta(chi; z)."""
    from .genhgf import Partition, normalized_z, phi_delta

    f = _get_field(q, p, e)
    parts = _parse_ints(delta)
    part = Partition(parts)
    if z_text is not None and lams is not None:
        raise ValueError("give --z or --lams, not both")
    if z_text is not None:
        z = _parse_rows(z_text)
    elif lams is not None:
        z = normalized_z(f, parts, _parse_ints(lams))
    else:
        raise click.UsageError("specify --z or --lams")
    psi = _addchar(f, psi_a)
    if psi.is_trivial():
        raise ValueError("psi must be nontrivial")
    ch = _parse_hdelta_char(f, part, chi, psi)
    _echo_json({"q": f.q, "delta": list(parts), "value": _cyclo_json(phi_delta(ch, z))})


# -- point counts ------------------------------------------------------------


def _make_variety(f: Field, family, m, n, lam, lams, lam1, lam2, delta, z_text):
    from .genhgf import Partition
    from .varieties import (ASStar, FermatStar, GeneralXDz, Humbert1, Humbert3, LauricellaA,
                            LauricellaC, LauricellaD, MXnLambda)

    lam_list = _parse_ints(lams) if lams else ()
    if family == "fermat":
        return FermatStar(f, 1 if n is None else n)
    if family == "as":
        return ASStar(f)
    if family == "mxn":
        if n is None:
            raise ValueError("family mxn needs --n")
        return MXnLambda(f, m if m is not None else n, n, lam)
    if family in ("fd", "fa", "fc"):
        cls = {"fd": LauricellaD, "fa": LauricellaA, "fc": LauricellaC}[family]
        return cls(f, len(lam_list) if n is None else n, lam_list)
    if family == "humbert1":
        return Humbert1(f, lam1, lam2)
    if family == "humbert3":
        return Humbert3(f, lam1, lam2)
    if family == "general":
        if delta is None or z_text is None:
            raise ValueError("family general needs --delta and --z")
        return GeneralXDz(f, Partition(_parse_ints(delta)), _parse_rows(z_text))
    raise click.UsageError(f"unknown family {family!r}")


def _parse_groupchar(v, chi_text) -> GroupChar:
    from .varieties import GroupChar

    codes = _parse_ints(chi_text)
    if len(codes) != len(v.shape):
        raise click.UsageError(
            f"family needs {len(v.shape)} character components ({v.shape})")
    f = v.field
    parts = []
    for kind, c in zip(v.shape, codes):
        parts.append(MulChar(f, c % f.N) if kind == "u" else _addchar(f, c))
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
def count_cmd(q, p, e, family, m, n, lam, lams, lam1, lam2, delta, z_text,
              chi, naive):
    """Character-weighted point count n_chi (and closed form when available)."""
    from .varieties import n_chi_closed_form

    f = _get_field(q, p, e)
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
@click.option("--family", required=True, type=click.Choice(_ISO_FAMILIES))
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
@click.option("--sample", type=click.IntRange(min=1), default=24,
              help="transported characters to spot-check")
@click.option("--seed", type=int, default=0)
def iso_cmd(q, p, e, family, lam, lams, lam1, lam2, sigma, c, c1, c2,
            check, sample, seed):
    """Build a variety isomorphism for a symmetry element and verify it."""
    from .varieties import FAMILIES, enumerate_groupchars, make_context, transport_check, verify_iso

    f = _get_field(q, p, e)
    given = {"lam": lam, "lams": _parse_ints(lams), "lam1": lam1, "lam2": lam2}
    ctx = make_context(family, f, **{k: given[k] for k in FAMILIES[family].params})
    perm = _parse_sigma(sigma, ctx.arity) if sigma else tuple(range(ctx.arity))
    n_twists = len(ctx.as_cols)
    twists = (c,) if n_twists == 1 else (c1, c2)[:n_twists]
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
        if iso.transport.ext_r is None:
            out["verify"] = {"pass": None,
                             "note": "extension exceeds cap; transport only"}
        else:
            out["verify"] = verify_iso(iso, sample=sample, seed=seed)
    _echo_json(out)
    if bad or (check and out.get("verify", {}).get("pass") is False):
        sys.exit(1)


# -- verification suites -----------------------------------------------------


@main.command("verify")
@click.option("--suite", required=True, help="|".join(_SUITES))
@click.option("--seed", type=int, default=0)
@click.option("--jobs", type=click.IntRange(min=1), default=1, help="parallel worker processes")
def verify_cmd(suite, seed, jobs):
    """Run a named verification suite; exit 0 iff every claim holds."""
    if suite not in _SUITES:
        raise click.UsageError(
            f"unknown suite {suite!r}; choose from {list(_SUITES)}")
    from . import suites

    entries = [(name, kwargs, seed) for name, kwargs in suites.CLAIMS[suite]]
    jobs = min(jobs, os.cpu_count() or 1, len(entries))
    # imported before the pool forks, so that no worker compiles them again
    suites.load_layers(suite)
    if jobs > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(suites.run_claim, entries))
    else:
        records = [suites.run_claim(e) for e in entries]
    all_ok = all(r["equal"] for r in records)
    _echo_json({"suite": suite, "pass": all_ok, "claims": records})
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
