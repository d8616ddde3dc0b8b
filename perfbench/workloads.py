"""The four workloads: their seeded inputs, their operations and their checks.

A workload object lives in one pass worker.  ``setup()`` builds the base
fields (the part of set-up that belongs to hgfq), ``prepare()`` turns the
seed into a list of operations, and ``check()`` runs after the timed region
and returns one message per wrong output.  Inputs are drawn from
``random.Random(seed)``; sizes and shapes never depend on the seed, so every
seed does the same amount of work.

hgfq is imported inside the methods: the worker puts the checkout's ``src``
first on ``sys.path`` before it creates a workload.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import reference as ref
import speed


class Op:
    """One timed operation: ``run()`` returns a result that the checks read."""

    __slots__ = ("kind", "run", "result", "error")

    def __init__(self, kind, run):
        self.kind, self.run = kind, run
        self.result = None
        self.error = None


def to_plain(value):
    """Results in a JSON-able form, for the digest that compares passes."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def _distinct(rng, pool, k):
    return rng.sample(list(pool), k)


def general_z(rng, f, delta):
    """A random 2 x n matrix whose block-leading columns are nonzero and
    pairwise independent, so every seed gives the same support size."""
    while True:
        z = [[rng.randrange(f.q) for _ in range(delta.n)] for _ in range(2)]
        lead = [(z[0][c.start], z[1][c.start]) for c in delta.column_blocks()]
        if any(a == 0 and b == 0 for a, b in lead):
            continue
        if all(f.sub(f.mul(a, d), f.mul(b, c))
               for i, (a, b) in enumerate(lead) for c, d in lead[i + 1:]):
            return z


# -- values ---------------------------------------------------------------------


class Values:
    """Exact values at prime q: Gauss sums, Jacobi pairs and triples, mFn from
    0F0 to 3F2, and two-variable Lauricella/Humbert values."""

    def __init__(self, seed, smoke):
        self.rng = random.Random(seed)
        if smoke:
            self.gj_qs, self.mfn_qs, self.two_qs = (7,), (7,), (5,)
        else:
            self.gj_qs, self.mfn_qs, self.two_qs = (17, 19, 23, 29, 31), (11, 13, 17), (7, 11)
        self.n_gauss, self.n_pairs, self.n_triples = (2, 2, 1) if smoke else (5, 6, 2)
        self.checks = []

    def setup(self):
        from hgfq.ffield import build_field_q

        self.fields = {q: build_field_q(q) for q in set(self.gj_qs + self.mfn_qs + self.two_qs)}

    def prepare(self):
        from hgfq.chars import MulChar, standard_psi
        from hgfq.hgf import humbert, lauricella, mfn
        from hgfq.sums import gauss, jacobi

        rng, ops = self.rng, []
        for q in self.gj_qs:
            f, N = self.fields[q], q - 1
            psi = standard_psi(f)
            for i, j in enumerate(_distinct(rng, range(1, N), self.n_gauss)):
                op = Op("gauss", lambda f=f, j=j, psi=psi: gauss(MulChar(f, j), psi))
                ops.append(op)
                self.checks.append(("gauss", op, dict(q=q, j=j, sample=i == 0)))
            for i in range(self.n_pairs):
                js = (rng.randrange(N), rng.randrange(N))
                op = Op("jacobi2", lambda f=f, js=js: jacobi(*[MulChar(f, j) for j in js]))
                ops.append(op)
                self.checks.append(("jacobi", op, dict(q=q, js=js, sample=i == 0)))
            for i in range(self.n_triples):
                js = tuple(rng.randrange(1, N) for _ in range(3))
                op = Op("jacobi3", lambda f=f, js=js: jacobi(*[MulChar(f, j) for j in js]))
                ops.append(op)
                self.checks.append(("jacobi", op, dict(q=q, js=js, sample=i == 0)))
        for qi, q in enumerate(self.mfn_qs):
            f, N = self.fields[q], q - 1
            psi = standard_psi(f)
            a, b = self._mfn_params(N)
            lams = _distinct(rng, range(2, q), 2)
            shapes = [("0F0", (), ()), ("1F0", a[:1], ()), ("1F1", a[:1], b[:1]),
                      ("2F1", a[:2], b[:1]), ("3F2", a[:3], b[:2])]
            for li, lam in enumerate(lams):
                for name, up, lo in shapes:
                    op = Op("mfn", lambda f=f, up=up, lo=lo, lam=lam, psi=psi: mfn(
                        [MulChar(f, j) for j in up], [MulChar(f, j) for j in lo], lam, psi))
                    ops.append(op)
                    sample = qi == 0 and li == 0 and name in ("1F1", "2F1", "3F2")
                    self.checks.append(("mfn", op, dict(q=q, name=name, up=up, lo=lo,
                                                        lam=lam, sample=sample)))
            op = Op("mfn", lambda f=f, up=a[:2], lo=b[:1], psi=psi: mfn(
                [MulChar(f, j) for j in up], [MulChar(f, j) for j in lo], 1, psi))
            ops.append(op)
            self.checks.append(("summation", op, dict(q=q, a=a[:2], c=b[0])))
        for qi, q in enumerate(self.two_qs):
            f, N = self.fields[q], q - 1
            psi = standard_psi(f)

            def chars(k):
                return [rng.randrange(1, N) for _ in range(k)]

            def C(js, f=f):
                return [MulChar(f, j) for j in js]

            lams = tuple(_distinct(rng, range(2, q), 2))
            fd = (chars(1), chars(2), chars(1), chars(2))
            fa = (chars(1), chars(2), chars(2), chars(2))
            h1 = (chars(2), chars(1)[0], chars(2))
            h3 = (chars(1), chars(1)[0], chars(2))
            sample = qi == 0
            # past the first field, F_D alone: the values at q = 11 are among
            # the slowest tenth, and one of them keeps op_p90_ms among the
            # Gauss sums at q = 31 instead of on a single operation
            for kind, (al, be, ga, de) in (("D", fd), ("A", fa))[:2 if qi == 0 else 1]:
                op = Op("lauricella", lambda kind=kind, al=al, be=be, ga=ga, de=de, lams=lams, C=C:
                        lauricella(kind, C(al), C(be), C(ga), C(de), lams))
                ops.append(op)
                self.checks.append(("two", op, dict(q=q, terms=_lauricella_terms(kind, al, be, ga, de),
                                                    lams=lams, sample=sample)))
            for kind, (up, ga, de) in ((1, h1), (3, h3))[:2 if qi == 0 else 0]:
                op = Op("humbert", lambda kind=kind, up=up, ga=ga, de=de, lams=lams, f=f, C=C:
                        humbert(kind, C(up), MulChar(f, ga), C(de), *lams))
                ops.append(op)
                self.checks.append(("two", op, dict(q=q, terms=_humbert_terms(kind, up, ga, de),
                                                    lams=lams, sample=sample)))
        return ops

    def _mfn_params(self, N):
        """Upper a1..a3 and lower b1, b2: distinct, nontrivial, and no b-bar equal
        to an a, so that every pass shares the same Pochhammer tables.  a1 and
        a2 have order N, so their Gauss sums are equally dense for every seed."""
        primitive = [j for j in range(1, N) if gcd(j, N) == 1]
        while True:
            a = _distinct(self.rng, primitive, 2)
            a += _distinct(self.rng, [j for j in range(1, N) if j not in a], 1)
            b = _distinct(self.rng, [j for j in range(1, N) if j not in a], 2)
            if not {(-j) % N for j in b} & set(a) and (-b[0]) % N != (-b[1]) % N:
                return a, b

    def check(self):
        from hgfq.chars import MulChar, standard_psi
        from hgfq.sums import gauss_circ, jacobi_product_formula

        bad = []
        for kind, op, k in self.checks:
            if op.error is not None:
                continue
            v = op.result
            q = k["q"]
            f = self.fields[q]
            mine = ref.from_json(v.to_json())
            if kind == "gauss":
                eta, psi = MulChar(f, k["j"]), standard_psi(f)
                if v * v.conjugate() != q:
                    bad.append(f"|g|^2 != q at q={q} j={k['j']}")
                if v * gauss_circ(eta.inverse(), psi) != eta.eval(f.neg(1)).scale(q):
                    bad.append(f"g(eta) g°(eta-bar) != eta(-1) q at q={q} j={k['j']}")
                if k["sample"] and not ref.equal(mine, ref.gauss(q, k["j"])):
                    bad.append(f"gauss differs from its defining sum at q={q} j={k['j']}")
            elif kind == "jacobi":
                chars = [MulChar(f, j) for j in k["js"]]
                if v != jacobi_product_formula(*chars):
                    bad.append(f"jacobi != Gauss-sum product at q={q} js={k['js']}")
                if k["sample"] and not ref.equal(mine, ref.jacobi(q, k["js"])):
                    bad.append(f"jacobi differs from its defining sum at q={q} js={k['js']}")
            elif kind == "mfn":
                up, lo, lam = k["up"], k["lo"], k["lam"]
                if k["name"] == "0F0" and not ref.equal(mine, ref.addchar(q, -lam)):
                    bad.append(f"0F0 != psi(-lam) at q={q}")
                if k["name"] == "1F0" and not ref.equal(mine, ref.mulchar(q, -up[0], 1 - lam)):
                    bad.append(f"1F0 != alpha-bar(1-lam) at q={q}")
                if k["sample"]:
                    terms = ([(j, (1,), "up") for j in up]
                             + [(j, (1,), "low") for j in tuple(lo) + (0,)])
                    if not ref.equal(mine, ref.horn(q, terms, (lam,))):
                        bad.append(f"{k['name']} differs from its defining sum at q={q}")
            elif kind == "summation":
                # 2F1(a1, a2; c; 1) = j(a1, a2 c-bar) / j(a1, c-bar)
                (a1, a2), c = k["a"], k["c"]
                lhs = mine * ref.jacobi(q, (a1, -c))
                if not ref.equal(lhs, ref.jacobi(q, (a1, a2 - c))):
                    bad.append(f"summation theorem fails at q={q}")
            elif kind == "two" and k["sample"]:
                if not ref.equal(mine, ref.horn(q, k["terms"], k["lams"])):
                    bad.append(f"two-variable value differs from its defining sum at q={q}")
        return bad


def _lauricella_terms(kind, al, be, ga, de):
    """Horn terms of hgfq's Lauricella F_A / F_D in two variables."""
    terms = [(al[0], (1, 1), "up")] + [(b, c, "up") for b, c in zip(be, ((1, 0), (0, 1)))]
    if kind == "D":
        terms.append((ga[0], (1, 1), "low"))
    else:
        terms += [(g, c, "low") for g, c in zip(ga, ((1, 0), (0, 1)))]
    return terms + [(d, c, "low") for d, c in zip(de, ((1, 0), (0, 1)))]


def _humbert_terms(kind, up, ga, de):
    """Horn terms of hgfq's Humbert Phi_1 / Phi_3 (summed over mu, nu)."""
    terms = [(up[0], (1, 1), "up"), (up[1], (1, 0), "up")] if kind == 1 else [(up[0], (1, 0), "up")]
    return terms + [(ga, (1, 1), "low"), (de[0], (1, 0), "low"), (de[1], (0, 1), "low")]


# -- phi-symmetry -----------------------------------------------------------------


PHI_CONFIGS = [
    (3, (1, 1, 2)), (3, (2, 2)), (3, (1, 3)), (3, (1, 1, 1, 1)), (3, (1, 2)),
    (4, (1, 1)), (4, (1, 1, 2)), (4, (1, 2)), (5, (1, 1)), (5, (1, 2)),
    (7, (1, 1)), (8, (1, 1)), (9, (1, 1)),
]
PHI_SMOKE = [(3, (1, 1, 2)), (4, (1, 2))]


class PhiSymmetry:
    """Full character tables of Phi_Delta at z and at z w, g z and z h."""

    def __init__(self, seed, smoke):
        self.rng = random.Random(seed)
        self.configs = PHI_SMOKE if smoke else PHI_CONFIGS
        self.n_random = 1 if smoke else 2
        self.checks = []

    def setup(self):
        from hgfq.ffield import build_field_q

        self.fields = {q: build_field_q(q) for q, _ in self.configs}

    def prepare(self):
        from hgfq.genhgf import (Partition, h_to_matrix, hdelta_chars, mat_mul, phi_delta,
                                 w_to_matrix)

        def table(f, delta, z):
            return [phi_delta(chi, z) for chi in hdelta_chars(f, delta)]

        ops = []
        for q, parts in self.configs:
            f, delta = self.fields[q], Partition(parts)
            z = general_z(self.rng, f, delta)
            base = Op("table", lambda f=f, d=delta, z=z: table(f, d, z))
            ops.append(base)
            for w in self._w_generators(f, delta) + [self._random_w(f, delta)
                                                     for _ in range(self.n_random)]:
                zw = mat_mul(f, z, w_to_matrix(f, w))
                op = Op("table", lambda f=f, d=delta, z=zw: table(f, d, z))
                ops.append(op)
                self.checks.append(("w", base, op, (f, delta, w)))
            for _ in range(self.n_random):
                gz = mat_mul(f, self._random_gl2(f), z)
                op = Op("table", lambda f=f, d=delta, z=gz: table(f, d, z))
                ops.append(op)
                self.checks.append(("g", base, op, (f, delta, None)))
            for _ in range(self.n_random):
                h = [tuple([self.rng.randrange(1, q)] + [self.rng.randrange(q) for _ in range(s - 1)])
                     for s in parts]
                zh = mat_mul(f, z, h_to_matrix(f, delta, h))
                op = Op("table", lambda f=f, d=delta, z=zh: table(f, d, z))
                ops.append(op)
                self.checks.append(("h", base, op, (f, delta, h)))
        return ops

    def _random_gl2(self, f):
        while True:
            g = [[self.rng.randrange(f.q) for _ in range(2)] for _ in range(2)]
            if f.sub(f.mul(g[0][0], g[1][1]), f.mul(g[0][1], g[1][0])):
                return g

    def _random_w(self, f, delta):
        from hgfq.genhgf import WDeltaElem

        sigmas, cs = [], []
        for size, mult in delta.grouped():
            perm = list(range(mult))
            self.rng.shuffle(perm)
            sigmas.append(tuple(perm))
            cs.append(tuple(
                tuple([self.rng.randrange(1, f.q)] + [self.rng.randrange(f.q) for _ in range(size - 2)])
                if size > 1 else () for _ in range(mult)))
        return WDeltaElem(delta, tuple(sigmas), tuple(cs))

    @staticmethod
    def _w_generators(f, delta):
        """Adjacent block swaps in each group of equal blocks, and per block
        group the scaling c = (generator, 0, ...) and the shears c_t = 1."""
        from hgfq.genhgf import WDeltaElem, identity_w

        ident = identity_w(delta)
        out = []
        for gi, (size, mult) in enumerate(delta.grouped()):
            for t in range(mult - 1):
                sig = list(range(mult))
                sig[t], sig[t + 1] = sig[t + 1], sig[t]
                sigmas = list(ident.sigmas)
                sigmas[gi] = tuple(sig)
                out.append(WDeltaElem(delta, tuple(sigmas), ident.cs))
            for t in range(size - 1):
                cv = [1] + [0] * (size - 2)
                cv[t] = f.generator if t == 0 else 1
                cs = list(ident.cs)
                cs[gi] = (tuple(cv),) + cs[gi][1:]
                out.append(WDeltaElem(delta, ident.sigmas, tuple(cs)))
        return out

    def check(self):
        from hgfq.genhgf import hdelta_chars, w_action_on_char

        bad = []
        for kind, base, op, (f, delta, extra) in self.checks:
            if base.error is not None or op.error is not None:
                continue
            chars = list(hdelta_chars(f, delta))
            index = {chi: i for i, chi in enumerate(chars)}
            t0, t1 = base.result, op.result
            for i, chi in enumerate(chars):
                if kind == "w":
                    ok = t1[i] == t0[index[w_action_on_char(chi, extra)]]
                elif kind == "g":
                    ok = t1[i] == t0[i]
                else:
                    ok = t1[i] == chi.eval_h(extra) * t0[i]
                if not ok:
                    bad.append(f"Phi {kind}-identity fails at q={f.q} Delta={delta.parts}")
                    break
        return bad


# -- counts-iso ---------------------------------------------------------------------


class CountsIso:
    """n_chi tables of every family, the closed-form count theorems, point-level
    isomorphism checks and the reducible decompositions."""

    def __init__(self, seed, smoke):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.checks = []

    def setup(self):
        from hgfq.ffield import build_field_q

        self.fields = {q: build_field_q(q) for q in (3, 4, 5)}

    def _families(self):
        """(q, family, params) in hgfq's constructor terms."""
        rng = self.rng
        out = []
        for q in ((3,) if self.smoke else (3, 5, 4)):
            units = list(range(2, q))
            lam, mu = (2, 2) if q == 3 else _distinct(rng, units, 2)
            def z(parts, q=q):
                from hgfq.genhgf import Partition

                return general_z(rng, self.fields[q], Partition(parts))

            if q == 3:
                fams = [("fermat", dict(n=1)), ("fermat", dict(n=2)), ("fermat", dict(n=3)),
                        ("as", {}), ("mxn", dict(m=2, n=2, lam=lam)), ("mxn", dict(m=1, n=2, lam=lam)),
                        ("mxn", dict(m=0, n=1, lam=lam)), ("mxn", dict(m=2, n=3, lam=lam)),
                        ("fd", dict(n=1, lams=(lam,))), ("fd", dict(n=2, lams=(lam, 1))),
                        ("fa", dict(n=1, lams=(lam,))), ("fa", dict(n=2, lams=(lam, lam))),
                        ("fc", dict(n=1, lams=(lam,))), ("fc", dict(n=2, lams=(lam, lam))),
                        ("humbert1", dict(lam1=lam, lam2=lam)), ("humbert3", dict(lam1=lam, lam2=lam)),
                        ("general", dict(parts=(1, 1, 2), z=z((1, 1, 2)))),
                        ("general", dict(parts=(2, 2), z=z((2, 2)))),
                        ("general", dict(parts=(1, 1, 1, 1), z=z((1, 1, 1, 1)))),
                        ("general", dict(parts=(1, 2), z=z((1, 2)))),
                        ("general", dict(parts=(1, 1, 1), z=z((1, 1, 1))))]
                if self.smoke:
                    fams = fams[:5] + fams[16:17]
            elif q == 5:
                fams = [("fermat", dict(n=2)), ("fermat", dict(n=3)), ("as", {})]
                for lm in (lam, mu):
                    fams += [("mxn", dict(m=2, n=2, lam=lm)), ("mxn", dict(m=1, n=2, lam=lm)),
                             ("mxn", dict(m=0, n=1, lam=lm)), ("fd", dict(n=1, lams=(lm,))),
                             ("fa", dict(n=1, lams=(lm,))), ("fc", dict(n=1, lams=(lm,)))]
                fams += [("general", dict(parts=(1, 1, 2), z=z((1, 1, 2)))),
                         ("general", dict(parts=(1, 2), z=z((1, 2)))),
                         ("general", dict(parts=(1, 1, 1), z=z((1, 1, 1))))]
            else:
                fams = [("mxn", dict(m=2, n=2, lam=lam)), ("mxn", dict(m=1, n=2, lam=lam)),
                        ("fd", dict(n=2, lams=(lam, mu))), ("humbert1", dict(lam1=lam, lam2=mu)),
                        ("general", dict(parts=(1, 1, 2), z=z((1, 1, 2))))]
            out += [(q, fam, params) for fam, params in fams]
        return out

    def _variety(self, q, fam, params):
        from hgfq import varieties as V
        from hgfq.genhgf import Partition

        f = self.fields[q]
        if fam == "fermat":
            return V.FermatStar(f, params["n"])
        if fam == "as":
            return V.ASStar(f)
        if fam == "mxn":
            return V.MXnLambda(f, params["m"], params["n"], params["lam"])
        if fam in ("fd", "fa", "fc"):
            cls = {"fd": V.LauricellaD, "fa": V.LauricellaA, "fc": V.LauricellaC}[fam]
            return cls(f, params["n"], params["lams"])
        if fam == "humbert1":
            return V.Humbert1(f, params["lam1"], params["lam2"])
        if fam == "humbert3":
            return V.Humbert3(f, params["lam1"], params["lam2"])
        return V.GeneralXDz(f, Partition(params["parts"]), params["z"])

    def _iso_cases(self):
        """(q, family, context params, symmetry) with the point map checked over
        the context's extension field.  q = 5 is left out on purpose: the Gauss
        and F_D maps leave the target variety there (see CHANGES.md)."""
        from hgfq.varieties import make_context

        rng, out = self.rng, []
        # Gauss at q = 3 is left out: its variety has no points over F_9, so
        # verify_iso would check nothing there
        cases = [(4, "gauss", dict(lam=rng.choice((2, 3))), 4),
                 (3, "kummer", dict(lam=2), 2), (4, "kummer", dict(lam=rng.choice((2, 3))), 1),
                 (4, "fd", dict(lams=(2, 3)), 1), (4, "fa", dict(lams=(rng.choice((2, 3)),)), 1),
                 (3, "phi1", dict(lam1=2, lam2=2), 1), (3, "phi3", dict(lam1=2, lam2=2), 1)]
        if self.smoke:
            cases = cases[1:2]
        for q, fam, params, count in cases:
            ctx = make_context(fam, self.fields[q], **params)
            syms = ctx.symmetries()
            if fam == "fa":
                syms = syms[1:]  # the one element besides the identity
            for sym in rng.sample(syms, count):
                out.append((q, fam, params, sym))
        return out

    def prepare(self):
        from hgfq.varieties import (enumerate_groupchars, make_context, n_chi_closed_form,
                                    reducible_decompositions, verify_iso)

        ops = []
        for q, fam, params in self._families():
            v = self._variety(q, fam, params)
            chars = list(enumerate_groupchars(v))
            table = Op("table", lambda v=v, chars=chars: [v.n_chi(c) for c in chars])
            ops.append(table)

            def closed(v=v, chars=chars):
                out = {}
                for i, chi in enumerate(chars):
                    try:
                        out[i] = n_chi_closed_form(v, chi)
                    except ValueError as err:
                        if str(err) != "theorem hypothesis not met":
                            raise
                return out

            cf = Op("closed_form", closed)
            ops.append(cf)
            self.checks.append(("table", table, cf, (q, fam, params, v)))
        for q, fam, params, sym in self._iso_cases():
            f = self.fields[q]
            op = Op("iso", lambda f=f, fam=fam, params=params, sym=sym, seed=self.rng.randrange(1 << 16):
                    verify_iso(make_context(fam, f, **params).build(sym), sample=8, seed=seed))
            ops.append(op)
            self.checks.append(("iso", op, None, (q, fam, params, sym)))
        cases = [("EulerGauss", None), ("FD_reduce", (2, 2)), ("F2_reduce", (2,))]
        for case, lams in cases[:1] if self.smoke else cases:
            op = Op("decomposition", lambda case=case, lams=lams: reducible_decompositions(
                case, self.fields[3], lams))
            ops.append(op)
            self.checks.append(("decomposition", op, None, (3, case, lams, None)))
        return ops

    def check(self):
        from hgfq.cyclo import Cyclo

        bad = []
        for kind, op, cf, (q, fam, params, v) in self.checks:
            if op.error is not None:
                continue
            if kind == "table":
                total = Cyclo.zero()
                for value in op.result:
                    total = total + value
                points = ref.count_points(q, fam, params) if q in (3, 5) else v.naive_count(1)
                if total != points:
                    bad.append(f"sum of n_chi != #X(F_{q}) for {fam} {params}")
                if cf.error is None:
                    if not cf.result:
                        bad.append(f"no character meets the closed-form hypothesis for {fam}")
                    if any(op.result[i] != val for i, val in cf.result.items()):
                        bad.append(f"closed-form count theorem fails for {fam} {params} at q={q}")
            elif not op.result.get("pass"):
                bad.append(f"{kind} check fails: q={q} {fam} {params}: "
                           f"{json.dumps(op.result.get('failures', [])[:1], default=str)}")
        return bad


# -- cli --------------------------------------------------------------------------


class Cli:
    """A fixed list of hgfq commands, each its own process, JSON parsed.

    The seed picks the parameters of the value commands; the verify suites run
    at their default seed, so their work does not depend on the seed."""

    IMPORT_RUNS = 3
    COMMAND_TIMEOUT_S = 150

    def __init__(self, seed, smoke, root, trace_dir=None):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.root = Path(root)
        self.trace_dir = trace_dir
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.checks = []
        self.import_times = []
        self.outputs_bytes = 0

    def _spawn(self, args):
        """Run one process; sample the host speed every 0.1 s while it runs."""
        t0 = time.perf_counter()
        with subprocess.Popen(args, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            try:
                while True:
                    try:
                        stdout, stderr = proc.communicate(timeout=0.1)
                        break
                    except subprocess.TimeoutExpired:
                        if time.perf_counter() - t0 > self.COMMAND_TIMEOUT_S:
                            raise
                        speed.sample()
            except BaseException:
                proc.kill()
                raise
        dt = time.perf_counter() - t0
        return subprocess.CompletedProcess(args, proc.returncode, stdout, stderr), dt

    def setup(self):
        """Set-up of the CLI is the cost of a bare ``import hgfq.cli`` process,
        scaled to the reference host speed (speed.py)."""
        first = speed.sample()
        for _ in range(self.IMPORT_RUNS):
            proc, dt = self._spawn([sys.executable, "-c", "import hgfq.cli"])
            if proc.returncode:
                raise RuntimeError(proc.stderr.decode(errors="replace"))
            last = speed.sample()
            self.import_times.append(speed.scaled_since(dt, first))
            first = last

    def commands(self):
        rng = self.rng
        lam7, lam5 = rng.randrange(2, 7), rng.randrange(2, 5)
        l1, l2 = _distinct(rng, range(2, 5), 2)
        hj = _distinct(rng, range(1, 6), 3)
        cmds = [
            ["field", "--q", "9"],
            ["gauss", "--q", "13", "--chi", str(rng.randrange(1, 12))],
            ["jacobi", "--q", "7", "--chi", f"{rng.randrange(1, 6)},{rng.randrange(1, 6)}"],
            ["hgf", "--q", "7", "--upper", f"{hj[0]},{hj[1]}", "--lower", str(hj[2]),
             "--lam", str(lam7)],
            ["lauricella", "--q", "5", "--kind", "D", "--alpha", str(rng.randrange(1, 4)),
             "--beta", f"{rng.randrange(1, 4)},{rng.randrange(1, 4)}", "--gamma",
             str(rng.randrange(1, 4)), "--delta", "0,0", "--lams", f"{l1},{l2}"],
            ["humbert", "--q", "5", "--kind", "1", "--upper",
             f"{rng.randrange(1, 4)},{rng.randrange(1, 4)}", "--gamma", str(rng.randrange(1, 4)),
             "--delta", "0,0", "--lam1", str(l1), "--lam2", str(l2)],
            ["phi", "--q", "5", "--delta", "1,1,2", "--lams", str(l1),
             "--chi", f"{rng.randrange(1, 4)};{rng.randrange(4)};{rng.randrange(4)}:{rng.randrange(1, 5)}"],
            ["count", "--family", "mxn", "--m", "2", "--n", "2", "--q", "5", "--lam", str(lam5),
             "--chi", ",".join(str(rng.randrange(4)) for _ in range(4)), "--naive", "1"],
            ["iso", "--family", "gauss", "--q", "4", "--lam", str(rng.choice((2, 3))), "--sigma",
             " ".join(map(str, sorted(_distinct(rng, range(1, 5), 2))))],
            ["verify", "--suite", "gauss-sums"],
        ]
        if not self.smoke:
            cmds[1:1] = [["gauss", "--q", "31"]]
            cmds += [["jacobi", "--q", "5"],
                     ["verify", "--suite", "symmetry"],
                     ["verify", "--suite", "varieties"],
                     ["verify", "--suite", "symmetry", "--jobs", "2"]]
        return cmds

    def prepare(self):
        ops = []
        for k, args in enumerate(self.commands()):
            op = Op(args[0], lambda args=args, k=k: self._run(args, k))
            ops.append(op)
            self.checks.append((args, op))
        return ops

    def _run(self, args, k):
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "hgfq.cli"] + args
        else:
            dump = Path(self.trace_dir) / f"cli-{os.getpid()}-{k}.json"
            argv = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(dump)] + args
        proc, _ = self._spawn(argv)
        self.outputs_bytes += len(proc.stdout)
        if proc.returncode:
            raise RuntimeError(f"hgfq {' '.join(args)} exited {proc.returncode}: "
                               + proc.stderr.decode(errors="replace")[-400:])
        return json.loads(proc.stdout)

    def check(self):
        """CLI outputs against in-process hgfq results."""
        bad = []
        for args, op in self.checks:
            if op.error is not None:
                continue
            try:
                problem = self._check_one(args, op.result)
            except Exception as err:  # a check that cannot run is a wrong output
                problem = f"{err!r}"
            if problem:
                bad.append(f"hgfq {' '.join(args)}: {problem}")
        return bad

    def _check_one(self, args, out):
        from hgfq.chars import MulChar, standard_psi
        from hgfq.ffield import build_field_q
        from hgfq.genhgf import Partition, hdelta_chars, normalized_z, phi_delta
        from hgfq.hgf import humbert, lauricella, mfn
        from hgfq.sums import gauss, jacobi
        from hgfq.varieties import MXnLambda, enumerate_groupchars, make_context

        opt = {a[2:]: b for a, b in zip(args[1:], args[2:]) if a.startswith("--")}
        cmd = args[0]
        if cmd == "verify":
            return None if out.get("pass") is True else "verify did not pass"
        f = build_field_q(int(opt["q"]))

        def C(text):
            return [MulChar(f, int(j)) for j in text.split(",") if j != ""]

        if cmd == "field":
            return None if (out["generator"] == f.generator and out["modulus"] == list(f.modulus)
                            and out["generators"] == f.generators()) else "field descriptor differs"
        if cmd == "gauss" and "chi" not in opt:
            if [e["chi"] for e in out] != list(range(f.N)):
                return "gauss table incomplete"
            for j in self.rng.sample(range(f.N), 3):
                if out[j]["value"] != gauss(MulChar(f, j), standard_psi(f)).to_json():
                    return f"gauss table entry {j} differs"
            return None
        if cmd == "jacobi" and "chi" not in opt:
            for e in out:
                if e["value"] != _cyclo_str(jacobi(*C(",".join(map(str, e["chi"]))))):
                    return f"jacobi table entry {e['chi']} differs"
            return None
        if cmd == "gauss":
            want = gauss(MulChar(f, int(opt["chi"])), standard_psi(f))
        elif cmd == "jacobi":
            want = jacobi(*C(opt["chi"]))
        elif cmd == "hgf":
            want = mfn(C(opt["upper"]), C(opt["lower"]), int(opt["lam"]))
        elif cmd == "lauricella":
            want = lauricella(opt["kind"], C(opt["alpha"]), C(opt["beta"]), C(opt["gamma"]),
                              C(opt["delta"]), tuple(int(x) for x in opt["lams"].split(",")))
        elif cmd == "humbert":
            want = humbert(int(opt["kind"]), C(opt["upper"]), MulChar(f, int(opt["gamma"])),
                           C(opt["delta"]), int(opt["lam1"]), int(opt["lam2"]))
        elif cmd == "phi":
            parts = tuple(int(x) for x in opt["delta"].split(","))
            z = normalized_z(f, parts, tuple(int(x) for x in opt["lams"].split(",")))
            key = [b.split(":") for b in opt["chi"].split(";")]
            for chi in hdelta_chars(f, Partition(parts)):
                if all(b.alpha.j == int(k[0]) and list(b.a) == [int(x) for x in k[1:]]
                       for b, k in zip(chi.blocks, key)):
                    want = phi_delta(chi, z)
                    break
        elif cmd == "count":
            v = MXnLambda(f, 2, 2, int(opt["lam"]))
            codes = [int(x) for x in opt["chi"].split(",")]
            chi = next(c for c in enumerate_groupchars(v) if [p.j for p in c.parts] == codes)
            if out["n_chi"] != v.n_chi(chi).to_json():
                return "n_chi differs"
            if out["naive"]["count"] != ref.count_points(f.q, "mxn", dict(m=2, n=2, lam=int(opt["lam"]))):
                return "naive count differs from the plain count"
            if out.get("closed_form") is not None and not out.get("agree"):
                return "closed form disagrees"
            return None
        elif cmd == "iso":
            sigma = list(range(4))
            i, j = (int(x) - 1 for x in opt["sigma"].split())
            sigma[i], sigma[j] = sigma[j], sigma[i]
            iso = make_context("gauss", f, lam=int(opt["lam"])).build(tuple(sigma))
            if out["Q"] != iso.transport.Q:
                return "exponent matrix differs"
            if not (out["transport"]["pass"] and out["verify"]["pass"]):
                return "isomorphism checks did not pass"
            return None
        else:
            return f"no check for {cmd}"
        return None if out["value"] == want.to_json() else "value differs from in-process hgfq"


def _cyclo_str(v):
    d = v.to_json()
    return f"m={d['m']};num={','.join(map(str, d['num']))};den={d['den']}"


WORKLOADS = {"values": Values, "phi-symmetry": PhiSymmetry, "counts-iso": CountsIso, "cli": Cli}
