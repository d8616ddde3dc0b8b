"""
Hypergeometric varieties: group-twisted point counts, closed-form
evaluations through character sums, and the explicit monomial isomorphisms
between family members together with their induced character transports.

Counting conventions.  Each variety X carries an action of a finite abelian
group G, a product of unit groups k* and additive groups k.  Every family
registers a reduced multiplicative/additive system whose k-solution count
gives the twisted Frobenius fixed-point number Lambda_g = #G * reduced(g),
so that

    n_chi(X; chi) = (1/#G) sum_g chi(g) Lambda_g = sum_g chi(g) reduced(g)

and sum over all chi of n_chi equals the number of rational points #X(k).
n_chi is one sum over support(), the pairs (g, reduced(g)) with
reduced(g) != 0, read from a chars._Frame with one group per slot, kept on
the variety per conductor; chi must be a character of G over the variety's
own field.

Relation systems.  The eight classical families (FermatStar, ASStar,
MXnLambda, LauricellaD/A/C, Humbert1/3) are data on RelationVariety: three
lists over the unit slots, read on X_i = x_i^N,

    sums       (i, j, ..)          X_i + X_j + .. = 1            (Fermat)
    monomials  (c, {i: +-1, ..})   c prod X_i^(+-1) = 1
    links      i, one per Artin-Schreier slot t:  t^q - t = X_i

(the reduced form of Koblitz and Greene).  One solver, with its slot order
fixed at construction, finds the X that satisfy them: a slot that is the
last unknown of some relation is solved from it; a slot i of a sum whose
other open slots j are each tied to i by a monomial whose only open slots
are i and j, with opposite exponents (so X_j = c_j X_i), is solved in
closed form as X_i = s / (1 + sum c_j), with s one minus the sum's known
terms (every value when 1 + sum c_j = s = 0, none when only the factor is
0), after which each monomial solves its X_j; any other slot is enumerated.
Each relation is checked once all its slots are assigned.  The solver works
on discrete logs: a monomial is a congruence among the logs, and a Fermat
sum goes through exp and the field's Zech-table add.
Over k* it gives support(), the reduced system's solutions (a_j = X_i for
the additive slots); over the N-th powers of ext* it gives the fibers of
points(), each solution with the N-th roots and Artin-Schreier preimages
of its entries, so point_count() multiplies the fibers' sizes and never
builds a point.

Log coordinates.  A point over ext = F_(q^r) carries each unit coordinate
as its discrete log L mod M = q^r - 1 and every other coordinate (t, u, s)
as its field code; to_codes() reads one back.  point_ok reads X = N L and
checks the relations on X alone, so their verdict is kept per X, and then
the Artin-Schreier links t^q - t = X_i; tau_of is -sum e L_i per
monomial (tau_exps).  GeneralXDz is parametrised by s instead, with its t's
as logs.  A fiber is then L_0 + (M/N) k over k in (Z/N)^n on the unit
slots times t_0 + F_q per Artin-Schreier slot: point_ok and t^q - t read
the same on all of it, and tau_of moves with k alone.  Field codes appear
only where a report shows a point: failures, witnesses and composition
ratios.

Count theorems.  Each family declares its count theorem as data, its
theorem attribute, called as theorem(chi, psi).  The six Horn-type
families declare a HornTheorem next to their relations: the series terms
(slot k, vector c, upper; a lower term reads chi_k-bar), the arguments
(lam, AS slots: lam times their coefficients c = a / psi.a), the constant
(a sign with the series' own, Gauss sums g(chi_k), character values
chi_k-bar(c_s) and Jacobi sums, by slot) and with them the hypotheses:
every Jacobi group's sum of indices nonzero mod N and every argument a
unit.  FermatStar (a Jacobi sum), ASStar (a Gauss sum) and GeneralXDz
(Phi_Delta) declare theirs as methods.  n_chi_closed_form checks chi as
n_chi does (check_char) and calls the declaration, which reads chi's
slots as integers once: a HornTheorem, compiled once per (field, psi),
turns them into the member sets, argument logs and constant of the Horn
evaluator's per-value step (hgf._Setup.value); GeneralXDz reads the Phi
frame.

Isomorphisms.  Each isomorphism is one MonomialMap (Q, add_mat, d): monomial
in the unit coordinates, x -> (x . Q) * root_N(d_u), that is
L -> L . Q + log root_N(d_u) mod q^r - 1, and affine in the
Artin-Schreier coordinates, u -> u . add_mat + r(d_a), with canonical N-th
roots and Artin-Schreier roots r, read from the map afresh on each check.
verify_iso checks that it permutes the rational points, a fiber at a time:
when k -> k . Q mod N and e -> e . add_mat permute (Z/N)^n and F_q^m, a
fiber maps onto a whole target fiber, so one point decides whether its
image lies on the target, distinct target fibers make the map injective,
and the lattice's tau pairs (monomial.tau_lattice) shifted by one point's
give the fiber's; a fiber that fails is walked point by point.  Read
through the transposes of its matrices, the map sends characters so that

    chi(d) * n_chi(source; transform(chi)) == n_chi(target; chi),

which transport_check checks on integers: chi's indices j go to j . Q^T
mod N and its additive coefficients a to add_mat . a, chi(d) is one
exponent e of zeta_M, and the identity holds when the source's histogram
(its frame's counts by exponent at M, N p once either side has an
additive slot) rotated by e minus the target's is zero in Q(zeta_M).  The
histograms are kept per variety and indices, and a SymmetryContext shares
one variety per parameter values with the targets it builds, so their
checks share supports, frames and histograms.  transform and factor read
the same integers.  A reducible
decomposition is one map from a smaller variety whose images, times each
tuple of N-th roots of one, partition the big variety's points; its
transport gives the count identity.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from math import prod

from .chars import (AddChar, MulChar, _add_table, _conductor, _Frame, _index, _mul_table,
                    enumerate_addchars, enumerate_mulchars, standard_psi)
from .cyclo import Cyclo, zeta
from .ffield import (DEFAULT_CAP, ExtensionField, Field, artin_schreier_root, canonical_nth_root,
                     extend)
from .genhgf import (
    HDeltaChar,
    JmChar,
    Partition,
    WDeltaElem,
    _dot,
    _frame,
    mat_mul,
    theta_list,
    w_to_matrix,
)
from .hgf import Const, _setup, _Table, _unit_vectors
from .monomial import (_fa_matrices, _fa_swaps, _fd_matrices, _gauss_matrices, _kummer_matrices,
                       _pair_perm_q, _phi1_matrices, compose_perms, fmat_inv, fmat_permutes,
                       imat_add, imat_identity, imat_inverse, imat_mul, imat_zero, invert_perm,
                       monomial_map, perm_matrix, permutes_mod, tau_lattice)
from .sums import gauss, jacobi


# -- group characters -------------------------------------------------------


@dataclass(frozen=True)
class GroupChar:
    """A character of a product of k*-factors (MulChar) and k-factors (AddChar)."""

    parts: tuple

    def __call__(self, g):
        return self.eval(g)

    def eval(self, g) -> Cyclo:
        if len(g) != len(self.parts):
            raise ValueError("group element arity mismatch")
        v = Cyclo.integer(1)
        for part, x in zip(self.parts, g):
            v = v * part.eval(x)
            if v.is_zero():
                return v
        return v

    @property
    def field(self) -> Field:
        return self.parts[0].field


def enumerate_groupchars(v: "Variety"):
    """All characters of the variety's acting group, slot by slot."""
    f = v.field
    options = [enumerate_mulchars(f) if kind == "u" else enumerate_addchars(f) for kind in v.shape]
    for combo in itertools.product(*options):
        yield GroupChar(combo)


def hdelta_to_groupchar(chi: HDeltaChar) -> GroupChar:
    """chi in the variety's slot layout (HDeltaChar.slots)."""
    return GroupChar(chi.slots())


def groupchar_to_hdelta(delta: Partition, gc: GroupChar, psi: AddChar) -> HDeltaChar:
    """The character whose slots (HDeltaChar.slots) are gc's under the
    reference psi: block i leads with slot i and reads a_k = t_k / psi.a from
    its additive slots psi_(t_k).  The blocks fit delta by construction, so
    only the arity and the fields are checked."""
    if psi.is_trivial():
        raise ValueError("reference additive character must be nontrivial")
    f, parts, a, k = psi.field, gc.parts, psi.a, delta.l
    if len(parts) != delta.n:
        raise ValueError("character arity mismatch")
    for x in parts:
        if x.field is not f and x.field != f:
            raise ValueError("characters over different fields")
    blocks = []
    for lead, size in zip(parts, delta.parts):
        ts = [x.a for x in parts[k:k + size - 1]] if size > 1 else ()
        blocks.append(JmChar(lead, tuple(ts if a == 1 else [f.div(t, a) for t in ts]), psi))
        k += size - 1
    return HDeltaChar._of_valid(delta, tuple(blocks))


# -- enumeration tables -----------------------------------------------------


@lru_cache(maxsize=None)
def _root_logs_table(ext: ExtensionField):
    """log X -> the discrete logs of the y in the extension with y^N = X (N of
    the base), the y by ascending code; one key per N-th power, in the order
    its first root comes."""
    f, N = ext.field, ext.base.N
    dlog, M, table = f.dlog, f.N, {}
    for y in range(1, f.q):
        L = dlog[y]
        table.setdefault(N * L % M, []).append(L)
    return {k: tuple(v) for k, v in table.items()}


@lru_cache(maxsize=None)
def _as_preimages_table(ext: ExtensionField):
    """value -> tuple of t in the extension with t^q - t = value (q of the base)."""
    f, q = ext.field, ext.base.q
    table = {}
    for t in f.elements():
        table.setdefault(f.sub(f.pow(t, q), t), []).append(t)
    return {k: tuple(v) for k, v in table.items()}


# -- variety base -----------------------------------------------------------


# Point counts kept per variety, one per extension field.
_COUNTS_KEPT = 8


class Variety:
    """Base: a family member over a fixed field with its acting group.

    Subclasses provide support(), _fibers(ext) and point_ok(ext, pt); points
    are in log coordinates (see the module docstring)."""

    theorem = None  # the family's count theorem, theorem(chi, psi) -> n_chi
    tau_exps = ()  # per monomial relation, its (unit slot, exponent) pairs

    def __init__(self, field: Field, shape: str):
        self.field = field
        self.shape = shape
        self._support = None
        self._frames = {}  # conductor -> the frame of support() there
        self._counts = _Table(self._count_points, _COUNTS_KEPT)  # ext -> point_count(ext)

    # group -----------------------------------------------------------------

    def group_order(self) -> int:
        n_u = self.shape.count("u")
        n_a = self.shape.count("a")
        return self.field.N**n_u * self.field.q**n_a

    def identity_element(self):
        return tuple(1 if kind == "u" else 0 for kind in self.shape)

    # counting ---------------------------------------------------------------

    def reduced_count(self, g) -> int:
        return dict(self.support()).get(tuple(g), 0)

    def lambda_g(self, g) -> int:
        return self.group_order() * self.reduced_count(g)

    def check_char(self, chi: GroupChar):
        """Raise ValueError unless chi is a character of the acting group
        over the variety's field: one slot per factor, each of its kind."""
        if len(chi.parts) != len(self.shape):
            raise ValueError("character arity mismatch")
        f = self.field
        for part, kind in zip(chi.parts, self.shape):
            if kind == "u" and not isinstance(part, MulChar):
                raise ValueError("expected a multiplicative character slot")
            if kind == "a" and not isinstance(part, AddChar):
                raise ValueError("expected an additive character slot")
            if part.field is not f and part.field != f:
                raise ValueError("character over another field")

    def n_chi(self, chi: GroupChar) -> Cyclo:
        self.check_char(chi)
        return self._frame(_conductor(self.field, self.shape)).value((_index(p),) for p in chi.parts)

    def _frame(self, M: int) -> _Frame:
        """support() as a chars._Frame at the conductor M, one group per
        slot; built once per conductor and kept on the variety."""
        if M not in self._frames:
            self._frames[M] = _Frame(self.field, M, self.shape, self.support())
        return self._frames[M]

    # points -----------------------------------------------------------------

    def points(self, ext: ExtensionField):
        """The points over ext in log coordinates: each fiber's product."""
        for lists in self._fibers(ext):
            yield from itertools.product(*lists)

    def point_count(self, ext: ExtensionField) -> int:
        """The number of points over ext, from the fibers' sizes alone; kept
        per ext, so the maps of a context that share a target count it once."""
        return self._counts[ext]

    def _count_points(self, ext: ExtensionField) -> int:
        return sum(prod(map(len, lists)) for lists in self._fibers(ext))

    def to_codes(self, ext: ExtensionField, pt):
        """pt with its unit slots read back from discrete logs to field codes."""
        n, exp = self.shape.count("u"), ext.field.exp
        return tuple(exp[L] for L in pt[:n]) + tuple(pt[n:])

    def tau_of(self, ext: ExtensionField, pt):
        """prod x_i^-e per monomial relation, as discrete logs in ext."""
        M = ext.field.N
        return tuple([-sum([e * pt[i] for i, e in exps]) % M for exps in self.tau_exps])

    def naive_count(self, r: int = 1) -> int:
        return self.point_count(extend(self.field, r))


def _holds(f: Field, rel, X, logs) -> bool:
    """Whether the relation rel holds at the unit values with discrete logs X
    in f; logs are the discrete logs of the monomial coefficients in f."""
    j, exps = rel
    if j is None:
        exp = f.exp
        s = exp[X[exps[0][0]]]
        for i, _ in exps[1:]:
            s = f.add(s, exp[X[i]])
        return s == 1
    d = logs[j]
    for i, e in exps:
        d += e * X[i]
    return d % f.N == 0


def _solve_for(f: Field, rel, slot, X, logs):
    """The discrete log at slot that makes rel hold, given the logs of its
    other slots; None when the value there would be 0."""
    j, exps = rel
    if j is None:
        s = 1
        for i, _ in exps:
            if i != slot:
                s = f.sub(s, f.exp[X[i]])
        return f.dlog.get(s)
    d, e_slot = logs[j], 0
    for i, e in exps:
        if i == slot:
            e_slot = e
        else:
            d += e * X[i]
    return (-e_slot * d) % f.N


@dataclass(frozen=True)
class _Pair:
    """A sum that solves slot in closed form: known lists its assigned slots,
    and each of its other open slots j has a tie (j, mono), a monomial whose
    only open slots are slot and j, with opposite exponents, so that
    X_j = c_j X_slot."""

    known: tuple
    ties: tuple


def _solve_pair(f: Field, pair: _Pair, slot, X, logs, domain):
    """The logs at slot that pair allows: X_slot (1 + sum c_j) = s, with s one
    minus the known terms of the sum; every domain value when 1 + sum c_j =
    s = 0, none when only 1 + sum c_j = 0 or only s = 0."""
    exp, N = f.exp, f.N
    s = u = 1
    for i in pair.known:
        s = f.sub(s, exp[X[i]])
    for j, (m, exps) in pair.ties:
        d, e_slot = logs[m], 0
        for i, e in exps:
            if i == slot:
                e_slot = e
            elif i != j:
                d += e * X[i]
        u = f.add(u, exp[(e_slot * d) % N])
    if u:
        if not s:
            return ()
        v = (f.dlog[s] - f.dlog[u]) % N
        return (v,) if v in domain else ()
    return domain if s == 0 else ()


class RelationVariety(Variety):
    """A variety cut out by relations among the N-th powers X_i = x_i^N of its
    unit coordinates and the values T_j = t_j^q - t_j of its Artin-Schreier
    coordinates, which follow the unit coordinates:

      sums       tuples of unit slots whose X_i add to 1,
      monomials  (c, {slot: e}) with c prod X_i^e = 1 and each e = +-1,
      links      for the j-th Artin-Schreier slot, the unit slot i with T_j = X_i.

    One solver serves support() and points(); see the module docstring.
    """

    def __init__(self, field: Field, n_units: int, sums=(), monomials=(), links=()):
        super().__init__(field, "u" * n_units + "a" * len(links))
        self.sums = tuple(tuple(s) for s in sums)
        self.monomials = tuple((c, dict(exps)) for c, exps in monomials)
        self.links = tuple(links)
        # (j, ((slot, e), ..)) with j the monomial index, None for a sum;
        # monomials first, as a discrete-log test is the cheapest check
        self.tau_exps = tuple(tuple(exps.items()) for _, exps in self.monomials)
        self._rels = list(enumerate(self.tau_exps))
        self._rels += [(None, tuple((i, 1) for i in s)) for s in self.sums]
        self._plan = self._make_plan(n_units)
        self._coef_logs = {}
        self._verdicts = {}

    def _make_plan(self, n_units):
        """Steps (slot, how, checks): the slot is enumerated (how None), solved
        from the relation how, or solved from the _Pair how, after which each
        tie's monomial solves its slot and the pair's sum becomes a check; then
        the relations in checks are tested.  A pair only replaces the
        enumeration of the least open slot, so the solutions come out in the
        same order as by enumeration."""
        assigned, open_rels, plan = set(), list(self._rels), []

        def unknown(rel):
            return [i for i, _ in rel[1] if i not in assigned]

        def tie(slot, j):
            for mono in open_rels:
                exps = dict(mono[1])
                if (mono[0] is not None and set(unknown(mono)) == {slot, j}
                        and exps[slot] == -exps[j]):
                    return j, mono
            return None

        def pair_for(slot):
            for total in open_rels:
                if total[0] is None and slot in unknown(total):
                    ties = [tie(slot, j) for j in unknown(total) if j != slot]
                    if None not in ties:
                        known = tuple(i for i, _ in total[1] if i in assigned)
                        return _Pair(known, tuple(ties))
            return None

        while len(assigned) < n_units:
            rel = next((r for r in open_rels if len(unknown(r)) == 1), None)
            if rel is not None:
                steps = [(unknown(rel)[0], rel)]
            else:
                slot = min(set(range(n_units)) - assigned)
                pair = pair_for(slot)
                steps = [(slot, pair)] + list(pair.ties if pair else ())
            for slot, how in steps:
                if how in open_rels:
                    open_rels.remove(how)
                assigned.add(slot)
                checks = [r for r in open_rels if not unknown(r)]
                open_rels = [r for r in open_rels if unknown(r)]
                plan.append((slot, how, checks))
        return plan

    def _logs(self, ext):
        """The discrete logs of the embedded monomial coefficients, once per ext."""
        logs = self._coef_logs.get(ext)
        if logs is None:
            f = ext.field
            logs = self._coef_logs[ext] = tuple(f.dlog[ext.embed(c)] for c, _ in self.monomials)
        return logs

    def _solve(self, f: Field, logs, domain):
        """Every tuple of discrete logs in domain that satisfies all relations
        in f, with logs the discrete logs of the monomial coefficients in f."""
        plan = self._plan
        X = [0] * len(plan)

        def walk(k):
            if k == len(plan):
                yield tuple(X)
                return
            slot, how, checks = plan[k]
            if how is None:
                values = domain
            elif type(how) is _Pair:
                values = _solve_pair(f, how, slot, X, logs, domain)
            else:
                v = _solve_for(f, how, slot, X, logs)
                values = (v,) if v in domain else ()
            for v in values:
                X[slot] = v
                if not checks or all(_holds(f, r, X, logs) for r in checks):
                    yield from walk(k + 1)

        return walk(0)

    def support(self):
        if self._support is None:
            f = self.field
            exp = f.exp
            self._support = [
                (tuple(exp[x] for x in X) + tuple(exp[X[i]] for i in self.links), 1)
                for X in self._solve(f, [f.dlog[c] for c, _ in self.monomials], range(f.N))
            ]
        return self._support

    def _fibers(self, ext: ExtensionField):
        """Per solution X over ext, the root logs of each X_i and the
        Artin-Schreier preimages of each linked X_i."""
        roots = _root_logs_table(ext)
        exp = ext.field.exp
        pre = _as_preimages_table(ext) if self.links else {}
        for X in self._solve(ext.field, self._logs(ext), roots):
            yield [roots[x] for x in X] + [pre.get(exp[X[i]], ()) for i in self.links]

    def point_ok(self, ext: ExtensionField, pt) -> bool:
        """Whether pt, in log coordinates, lies on the variety over ext.  The
        relations are read on X = N * log x alone, so their verdict is kept
        per X; the Artin-Schreier links are checked on every point."""
        n = len(self._plan)  # the unit slots, one plan step each
        if len(pt) != len(self.shape):
            return False
        f, N = ext.field, self.field.N
        M = f.N
        X = tuple([N * L % M for L in pt[:n]])
        verdicts = self._verdicts.setdefault(ext, {})
        ok = verdicts.get(X)
        if ok is None:
            logs = self._logs(ext)
            ok = verdicts[X] = all(_holds(f, rel, X, logs) for rel in self._rels)
        if not ok:
            return False
        if self.links:
            pre, exp = _as_preimages_table(ext), f.exp
            for t, i in zip(pt[n:], self.links):
                if t not in pre.get(exp[X[i]], ()):
                    return False
        return True


# -- count theorems ---------------------------------------------------------


class HornTheorem:
    """A count theorem n_chi = constant * Horn series (hgf's evaluator), as
    data over the slots of chi: j_k is the index of the multiplicative slot
    k and c_k = a / psi.a the coefficient of the additive slot k, psi_a.

      terms    (k, c, upper): chi_k at the vector c, upper, or chi_k-bar,
               lower (every lower parameter is a conjugate);
      args     (lam, ks): the argument lam prod over ks of c_k;
      sign     the theorem's sign times the series' own (-1 for mFn,
               (-1)^n for F_A, F_C and F_D, 1 for Phi_1 and Phi_3);
      gauss    slots k of Gauss sums g(chi_k);
      values   pairs (k, s) of character values chi_k-bar(c_s);
      jacobis  slot groups of Jacobi sums j(chi_k, ..).

    The hypotheses are tests on those integers: every argument is a unit
    (lam is, and so is each c_k that an argument or a character value
    reads) and every group's sum of j_k is nonzero mod N (each Jacobi sum
    has the product formula).  The series' 1/(q - 1)^n joins the constant.

    A theorem compiles once per psi, that is per field with its generator
    and per a (AddChar compares both, so f.with_generator(g) and psi_a with
    a != 1 each get their own), into a _Compiled: the slot lists, each
    argument as dlog lam plus its slots' dlog c_k, the hypotheses as integer
    tests, the rotation, the Gauss-index list and the series' set-up.  The
    compiled forms live on the theorem in a table of _COMPILED_KEPT
    entries, cleared when full."""

    def __init__(self, terms, args, sign, gauss=(), values=(), jacobis=()):
        self.terms, self.args, self.sign = tuple(terms), tuple(args), sign
        self.gauss, self.values, self.jacobis = tuple(gauss), tuple(values), tuple(jacobis)
        self._compiled = _Table(partial(_Compiled, self), _COMPILED_KEPT)

    def __call__(self, chi: GroupChar, psi: AddChar) -> Cyclo:
        return self._compiled[psi](chi)


_COMPILED_KEPT = 4


class _Compiled:
    """A HornTheorem over one psi, as integer index arithmetic on the slot
    indices x (j_k, or a_k for an additive slot): the additive slots read,
    whose a_k must be nonzero, turned into dlog c_k = dlog a_k - dlog psi.a
    mod N; the Jacobi groups, whose sums must be nonzero mod N; the Gauss
    slots, each Jacobi group's slots among them; each argument as dlog lam
    plus its slots' dlog c_k; the character values as the rotation -sum j_k
    dlog c_s; and each group of the series as its upper and lower slots,
    whose member sets are the sorted j_k of both (a lower member chi_k-bar
    has -j = j_k), with the series' set-up (hgf._setup)."""

    def __init__(self, theorem: HornTheorem, psi: AddChar):
        f = psi.field
        self.N, self.odd, self.dlog, self.la = max(f.N, 1), f.p != 2, f.dlog, f.dlog[psi.a]
        self.sign, self.values, self.jacobis = theorem.sign, theorem.values, theorem.jacobis
        self.gauss = theorem.gauss + tuple(k for group in theorem.jacobis for k in group)
        self.units = sorted({k for _, ks in theorem.args for k in ks} | {s for _, s in theorem.values})
        self.args = [(f.dlog.get(lam), ks) for lam, ks in theorem.args]
        self.met = all(lam is not None for lam, _ in self.args)  # lam = 0 meets no character
        groups = {c: ([], []) for c in _unit_vectors(len(theorem.args))}
        for k, c, upper in theorem.terms:
            groups.setdefault(c, ([], []))[not upper].append(k)
        self.groups = list(groups.values())
        self.horn = _setup(psi, tuple(groups))
        self.den = (f.q - 1) ** len(theorem.args)

    def __call__(self, chi: GroupChar) -> Cyclo:
        N = self.N
        x = [p.j if type(p) is MulChar else p.a for p in chi.parts]
        for k in self.units:
            if not x[k]:
                raise ValueError("theorem hypothesis not met")
            x[k] = (self.dlog[x[k]] - self.la) % N
        at = x.__getitem__
        Ps = [sum(map(at, group)) % N for group in self.jacobis]
        if 0 in Ps or not self.met:
            raise ValueError("theorem hypothesis not met")
        # each j(eta..) = prod g(eta_i) P(-1) g(P-bar) / q
        gauss = list(map(at, self.gauss)) + [-P % N for P in Ps]
        sign = -self.sign if self.odd and sum([P & 1 for P in Ps]) & 1 else self.sign
        logs = [(lam + sum(map(at, ks))) % N for lam, ks in self.args]
        rot = -sum([x[k] * x[s] for k, s in self.values])  # zeta_N^rot
        keys = tuple([(tuple(sorted(map(at, ups))), tuple(sorted(map(at, lows))))
                      for ups, lows in self.groups])
        return self.horn.value(keys, logs, Const(sign, tuple(gauss), -len(self.jacobis), rot, self.den))


def _at(k, upper, n):
    """Terms at the n slots from k on, at c = e_1..e_n."""
    return [(k + i, c, upper) for i, c in enumerate(_unit_vectors(n))]


# -- concrete families ------------------------------------------------------


class FermatStar(RelationVariety):
    """x_1^N + ... + x_n^N = 1 with all coordinates nonzero."""

    def __init__(self, field: Field, n: int):
        if n < 1:
            raise ValueError("need at least one coordinate")
        super().__init__(field, n, sums=[range(n)])
        self.n = n

    def theorem(self, chi: GroupChar, psi: AddChar) -> Cyclo:
        """(-1)^(n-1) j(chi), 1 for n = 1."""
        return jacobi(*chi.parts).scale((-1) ** (self.n - 1)) if self.n > 1 else Cyclo.integer(1)


class ASStar(RelationVariety):
    """t^q - t = z^N with z nonzero; coordinates (z, t)."""

    def __init__(self, field: Field):
        super().__init__(field, 1, links=[0])

    def theorem(self, chi: GroupChar, psi: AddChar) -> Cyclo:
        """-g(alpha, psi_c) for chi = (alpha, psi_c) with c != 0, else N or 0
        as alpha is trivial or not."""
        alpha, add = chi.parts
        if add.is_trivial():
            return Cyclo.integer(self.field.N if alpha.is_trivial() else 0)
        return -gauss(alpha, psi.twist(self.field.div(add.a, psi.a)))


class MXnLambda(RelationVariety):
    """The one-variable family: m Fermat pairs, l = n - m Artin-Schreier pairs,
    and the product relation (-1)^n lam prod x_i^N = prod y_i^N prod z_j^N.

    Coordinates (x_1..x_m, y_1..y_m, z_1..z_l, t_1..t_l)."""

    def __init__(self, field: Field, m: int, n: int, lam: int):
        if not 0 <= m <= n or n < 1:
            raise ValueError("need 0 <= m <= n with n >= 1")
        if lam == 0 or lam not in field.dlog:
            raise ValueError("lam must be a unit")
        l = n - m
        signed_lam = field.mul(field.pow(field.neg(1), n), lam)
        exps = {i: 1 if i < m else -1 for i in range(2 * m + l)}
        super().__init__(
            field,
            2 * m + l,
            sums=[(i, m + i) for i in range(m)],
            monomials=[(signed_lam, exps)],
            links=range(2 * m, 2 * m + l),
        )
        self.m, self.n, self.l, self.lam = m, n, l, lam
        # chi = (alpha, beta, gamma, psi_c): F(alpha; beta-bar gamma-bar; lam prod c)
        gammas, coefs = range(2 * m, 2 * m + l), range(2 * m + l, 2 * m + 2 * l)
        self.theorem = HornTheorem(
            [(k, (1,), k < m) for k in range(2 * m + l)], [(lam, coefs)], (-1) ** n, gammas,
            tuple(zip(gammas, coefs)), tuple((k, m + k) for k in range(m)))


def _check_lams(field: Field, n: int, lams) -> tuple:
    lams = tuple(lams)
    if n < 1 or len(lams) != n:
        raise ValueError("need n >= 1 matching lambda entries")
    if any(lam == 0 or lam not in field.dlog for lam in lams):
        raise ValueError("lam entries must be units")
    return lams


class LauricellaD(RelationVariety):
    """n+1 Fermat pairs linked by lam_i x_0^N x_i^N = y_0^N y_i^N.

    Coordinates (x_0..x_n, y_0..y_n)."""

    def __init__(self, field: Field, n: int, lams):
        lams = _check_lams(field, n, lams)
        super().__init__(
            field,
            2 * n + 2,
            sums=[(i, n + 1 + i) for i in range(n + 1)],
            monomials=[(lam, {0: 1, i: 1, n + 1: -1, n + 1 + i: -1})
                       for i, lam in enumerate(lams, 1)],
        )
        self.n, self.lams = n, lams
        # chi = (alpha, beta): F_D(alpha_0; alpha_i; beta_0-bar; beta_i-bar)
        self.theorem = HornTheorem(
            [(0, (1,) * n, True), (n + 1, (1,) * n, False)] + _at(1, True, n) + _at(n + 2, False, n),
            [(lam, ()) for lam in lams], (-1) ** (n + 1),
            jacobis=tuple((i, n + 1 + i) for i in range(n + 1)))


class LauricellaA(RelationVariety):
    """A Fermat hypersurface in x linked to n Fermat pairs (y_i, z_i) by
    lam_i x_0^N y_i^N = x_i^N z_i^N.

    Coordinates (x_0..x_n, y_1..y_n, z_1..z_n)."""

    def __init__(self, field: Field, n: int, lams):
        lams = _check_lams(field, n, lams)
        super().__init__(
            field,
            3 * n + 1,
            sums=[range(n + 1)] + [(n + 1 + i, 2 * n + 1 + i) for i in range(n)],
            monomials=[(lam, {0: 1, n + 1 + i: 1, i + 1: -1, 2 * n + 1 + i: -1})
                       for i, lam in enumerate(lams)],
        )
        self.n, self.lams = n, lams
        # chi = (alpha, beta, gamma): F_A(alpha_0; beta_i; alpha_i-bar; gamma_i-bar)
        self.theorem = HornTheorem(
            [(0, (1,) * n, True)] + _at(n + 1, True, n) + _at(1, False, n) + _at(2 * n + 1, False, n),
            [(lam, ()) for lam in lams], 1,
            jacobis=(tuple(range(n + 1)),) + tuple((n + i, 2 * n + i) for i in range(1, n + 1)))


class LauricellaC(RelationVariety):
    """Two Fermat hypersurfaces linked by lam_i x_0^N y_0^N = x_i^N y_i^N.

    Coordinates (x_0..x_n, y_0..y_n)."""

    def __init__(self, field: Field, n: int, lams):
        lams = _check_lams(field, n, lams)
        super().__init__(
            field,
            2 * n + 2,
            sums=[range(n + 1), range(n + 1, 2 * n + 2)],
            monomials=[(lam, {0: 1, n + 1: 1, i: -1, n + 1 + i: -1})
                       for i, lam in enumerate(lams, 1)],
        )
        self.n, self.lams = n, lams
        # chi = (alpha, beta): F_C(alpha_0, beta_0; alpha_i-bar, beta_i-bar)
        self.theorem = HornTheorem(
            [(0, (1,) * n, True), (n + 1, (1,) * n, True)] + _at(1, False, n) + _at(n + 2, False, n),
            [(lam, ()) for lam in lams], 1, jacobis=(tuple(range(n + 1)), tuple(range(n + 1, 2 * n + 2))))


class Humbert1(RelationVariety):
    """Two Fermat pairs and one Artin-Schreier pair with relations
    lam1 x1^N x2^N = y1^N y2^N and lam2 x1^N = y1^N z^N.

    Coordinates (x1, x2, y1, y2, z, t)."""

    def __init__(self, field: Field, lam1: int, lam2: int):
        _check_lams(field, 2, (lam1, lam2))
        super().__init__(
            field,
            5,
            sums=[(0, 2), (1, 3)],
            monomials=[(lam1, {0: 1, 1: 1, 2: -1, 3: -1}), (lam2, {0: 1, 2: -1, 4: -1})],
            links=[4],
        )
        self.lam1, self.lam2 = lam1, lam2
        # chi = (a1, a2, b1, b2, g, psi_c): Phi_1(a1, a2; b1-bar; b2-bar, g-bar; lam1, c lam2)
        self.theorem = HornTheorem(
            [(0, (1, 1), True), (1, (1, 0), True), (2, (1, 1), False), (3, (1, 0), False),
             (4, (0, 1), False)], [(lam1, ()), (lam2, (5,))], -1, (4,), ((4, 5),), ((0, 2), (1, 3)))


class Humbert3(RelationVariety):
    """One Fermat pair and two Artin-Schreier pairs with relations
    lam1 x^N = y^N z1^N and lam2 = z1^N z2^N.

    Coordinates (x, y, z1, z2, t1, t2)."""

    def __init__(self, field: Field, lam1: int, lam2: int):
        _check_lams(field, 2, (lam1, lam2))
        super().__init__(
            field,
            4,
            sums=[(0, 1)],
            monomials=[(lam1, {0: 1, 1: -1, 2: -1}), (lam2, {2: -1, 3: -1})],
            links=[2, 3],
        )
        self.lam1, self.lam2 = lam1, lam2
        # chi = (a, b, g1, g2, psi_c1, psi_c2): Phi_3(a; g1-bar; b-bar, g2-bar; c1 lam1, c1 c2 lam2)
        self.theorem = HornTheorem(
            [(0, (1, 0), True), (2, (1, 1), False), (1, (1, 0), False), (3, (0, 1), False)],
            [(lam1, (4,)), (lam2, (4, 5))], -1, (2, 3), ((2, 4), (3, 5)), ((0, 1),))


class GeneralXDz(Variety):
    """The general family cut out by a d x n matrix z and a partition of n:
    one root coordinate t_i per block plus Artin-Schreier coordinates u_(i,j),
    with a free row vector s.

    Coordinates (t_1..t_l, u-flattened, s_1..s_d)."""

    def __init__(self, field: Field, delta, z):
        delta = delta if isinstance(delta, Partition) else Partition(tuple(delta))
        delta.check_char(field)
        # all unit slots come first, matching the point layout
        super().__init__(field, "u" * delta.l + "a" * (delta.n - delta.l))
        self.delta = delta
        self.z = [list(row) for row in z]
        self.d = len(self.z)
        delta.check_z(field, self.z)

    # the group element layout matches the shape: per-block leading units first,
    # then the additive coordinates blockwise.

    def _sz_blocks(self, f: Field, z, s):
        """The coefficients of s . z in f, one column block at a time."""
        for cols in self.delta.column_blocks():
            coeffs = []
            for c in cols:
                acc = 0
                for row, sv in enumerate(s):
                    acc = f.add(acc, f.mul(sv, z[row][c]))
                coeffs.append(acc)
            yield coeffs

    def _iota_sz(self, s):
        f = self.field
        lead, adds = [], []
        for coeffs in self._sz_blocks(f, self.z, s):
            if coeffs[0] == 0:
                return None
            lead.append(coeffs[0])
            adds.extend(theta_list(f, len(coeffs) - 1, coeffs))
        return tuple(lead) + tuple(adds)

    def support(self):
        if self._support is None:
            cnt = Counter()
            for s in itertools.product(self.field.elements(), repeat=self.d):
                g = self._iota_sz(s)
                if g is not None:
                    cnt[g] += 1
            self._support = list(cnt.items())
        return self._support

    def _fibers(self, ext):
        """Per s with points over ext, the root logs of each block's t, the
        Artin-Schreier preimages of its u's and s itself, one slot at a time."""
        f = ext.field
        roots, pre = _root_logs_table(ext), _as_preimages_table(ext)
        zed = [[ext.embed(v) for v in row] for row in self.z]
        for s in itertools.product(f.elements(), repeat=self.d):
            tchoices, uchoices = [], []
            for coeffs in self._sz_blocks(f, zed, s):
                troots = roots.get(f.dlog.get(coeffs[0]), ())
                if not troots:
                    break
                ulists = [pre.get(th, ()) for th in theta_list(f, len(coeffs) - 1, coeffs)]
                if not all(ulists):
                    break
                tchoices.append(troots)
                uchoices.extend(ulists)
            else:
                yield tchoices + uchoices + [(v,) for v in s]

    def theorem(self, chi: GroupChar, psi: AddChar) -> Cyclo:
        """Phi_Delta(chi; z) from the Phi frame of z at chi's slot indices:
        each block's lead j, and its additive codes, which are its twists
        psi.a a_k under any psi, so psi is not read."""
        frame = _frame(self.field, self.delta.parts, self.z)
        return frame.value([tuple([_index(chi.parts[i]) for i in group]) for group in frame.groups])

    def point_ok(self, ext, pt):
        f = ext.field
        l = self.delta.l
        ts = pt[:l]
        us = iter(pt[l : self.delta.n])
        s = pt[self.delta.n :]
        zed = [[ext.embed(v) for v in row] for row in self.z]
        for t, coeffs in zip(ts, self._sz_blocks(f, zed, s)):
            if coeffs[0] == 0 or (self.field.N * t - f.dlog[coeffs[0]]) % f.N:
                return False
            for th in theta_list(f, len(coeffs) - 1, coeffs):
                u = next(us)
                if f.sub(f.pow(u, self.field.q), u) != th:
                    return False
        return True


# -- closed forms -----------------------------------------------------------


def n_chi_closed_form(v: Variety, chi: GroupChar, psi: AddChar | None = None) -> Cyclo:
    """The right-hand side of the count theorem v.theorem declares, at chi
    with the reference additive character psi (psi_1 by default).

    Raises ValueError with
      - "no closed form registered for <family>" when v declares none;
      - the messages of Variety.check_char, as n_chi does, when chi is not a
        character of v's group over v's field: "character arity mismatch",
        "expected a multiplicative character slot", "expected an additive
        character slot" or "character over another field";
      - "psi must be a nontrivial additive character over the variety's
        field";
      - "theorem hypothesis not met" outside the theorem's hypotheses."""
    if v.theorem is None:
        raise ValueError(f"no closed form registered for {type(v).__name__}")
    v.check_char(chi)
    if psi is None:
        psi = standard_psi(v.field)
    elif psi.field != v.field or psi.is_trivial():
        raise ValueError("psi must be a nontrivial additive character over the variety's field")
    return v.theorem(chi, psi)


# -- isomorphisms -----------------------------------------------------------


def _columns(A, entry):
    """The columns of A, each a tuple of (row, entry(a)) over its nonzero
    entries a; None when A is None."""
    if A is None:
        return None
    return [tuple((i, entry(row[j])) for i, row in enumerate(A) if row[j])
            for j in range(len(A[0]) if A else 0)]


def _linear_map(f: Field, vec, cols):
    """(vec . A)_j in f, with cols the columns of A as (row, discrete log of
    the entry) pairs."""
    exp, dlog, N = f.exp, f.dlog, f.N
    out = []
    for col in cols:
        acc = 0
        for i, lc in col:
            v = vec[i]
            if v:
                acc = f.add(acc, exp[(lc + dlog[v]) % N])
        out.append(acc)
    return tuple(out)


@dataclass
class MonomialMap:
    """One map source -> target: monomial on the unit coordinates, affine on the
    Artin-Schreier coordinates and linear on s,

        x -> (x . Q) * root_N(d_u),   u -> u . add_mat + r(d_a),   s -> s . s_mat,

    where d_elem = (d_u, d_a) is laid out by the target's shape, root_N is the
    canonical N-th root, r(t) the Artin-Schreier root with r^q - r = t, and a
    matrix left as None is the identity.  point_map(ext) reads Q, d_elem,
    add_mat and s_mat when it is called, never later, and returns the map on
    points in log coordinates, where the unit part is L -> L . Q +
    log root_N(d_u) mod q^r - 1; apply maps one point.  Nothing derived from
    the map is kept, so a map changed in place is checked as it now is.
    Read through the transposes, the same data transport characters:

        factor(chi) * n_chi(source; transform(chi)) == n_chi(target; chi),

    with factor(chi) = chi(d_elem); transform sends the multiplicative parts
    through Q^T and the additive coefficients through add_mat (row = source
    slot): a'_i = sum_j add_mat[i][j] a_j.  Both read chi as integers, through
    indices, as transport_check does.  verify_iso checks the map over the
    extension of degree ext_r, which is None when it exceeds the cap."""

    source: Variety
    target: Variety
    d_elem: tuple
    Q: list | None = None
    add_mat: list | None = None
    s_mat: list | None = None
    ext_r: int | None = 1

    def indices(self, chi: GroupChar):
        """chi, a character of the target's group, as integers: (its indices,
        those of transform(chi), e, M) with chi(d_elem) = zeta_M^e (e None
        when it is 0) and M the conductor of both groups' characters.  An
        index is j per unit slot and the coefficient a per additive slot.
        Raises the ValueError of target.n_chi on a malformed chi."""
        tgt = self.target
        tgt.check_char(chi)
        f, n, N = tgt.field, tgt.shape.count("u"), max(tgt.field.N, 1)
        M = _conductor(f, self.source.shape + tgt.shape)
        key = tuple(map(_index, chi.parts))
        js, adds = key[:n], key[n:]
        d, e = self.d_elem, None
        if 0 not in d[:n]:  # the exponent of chi(d), from the slot tables of chars
            e = sum([(_mul_table if kind == "u" else _add_table)(f, k, M)[x]
                     for kind, k, x in zip(tgt.shape, key, d)]) % M
        if self.Q is not None:
            js = [sum([r * j for r, j in zip(row, js)]) % N for row in self.Q]
        if self.add_mat is not None:
            adds = [_dot(f, row, adds) for row in self.add_mat]
        return key, (*js, *adds), e, M

    def factor(self, chi: GroupChar) -> Cyclo:
        """chi(d_elem)."""
        _, _, e, M = self.indices(chi)
        return Cyclo.zero(M) if e is None else zeta(M, e)

    def transform(self, chi: GroupChar) -> GroupChar:
        """chi moved to the source: the unit indices through Q^T, the additive
        coefficients through add_mat."""
        f = chi.field
        _, key, _, _ = self.indices(chi)
        return GroupChar(tuple(MulChar(f, k) if kind == "u" else AddChar(f, k)
                               for kind, k in zip(self.source.shape, key)))

    def point_map(self, ext):
        """pt -> its image, both in log coordinates over ext, with the map's
        data read now: the discrete logs of root_N(d_u), the shifts r(d_a),
        and the columns of Q (entries as they are) and of add_mat and s_mat
        (entries as the discrete logs of their embeddings).  Raises
        ValueError when d_u has no canonical N-th root there."""
        f = ext.field
        M, n = f.N, self.target.shape.count("u")
        scalars = [f.dlog[canonical_nth_root(ext, d)] for d in self.d_elem[:n]]
        shifts = [artin_schreier_root(ext, d) for d in self.d_elem[n:]]

        def entry_log(c):
            return f.dlog[ext.embed(c)]

        q_cols, add_cols, s_cols = (_columns(self.Q, int), _columns(self.add_mat, entry_log),
                                    _columns(self.s_mat, entry_log))
        n_u, n_a = self.source.shape.count("u"), self.source.shape.count("a")

        def image(pt):
            mult, add, s = pt[:n_u], pt[n_u : n_u + n_a], pt[n_u + n_a :]
            if q_cols is not None:
                mult = [sum([e * mult[i] for i, e in col]) for col in q_cols]
            if add_cols is not None:
                add = _linear_map(f, add, add_cols)
            if s_cols is not None:
                s = _linear_map(f, s, s_cols)
            return (*[(L + c) % M for L, c in zip(mult, scalars)], *map(f.add, add, shifts), *s)

        return image

    def apply(self, ext: ExtensionField, pt):
        """The image of pt, both in log coordinates (see point_map)."""
        return self.point_map(ext)(pt)


# Histograms kept for transport_check: a variety's support counted by the
# exponent of zeta_M at one character, M ints each.  A check reads two, and
# the checks of one family walk each variety's character group, so the bound
# covers some thousands of characters over a handful of varieties.
_HISTOGRAMS_KEPT = 4096


@lru_cache(maxsize=_HISTOGRAMS_KEPT)
def _char_histogram(v: Variety, key: tuple, M: int) -> list[int]:
    """n_chi(v; chi) counted by exponent of zeta_M, unreduced, for chi read
    as key (MonomialMap.indices), from v's frame at M; shared between calls,
    only ever read.  Raises n_chi's ValueError when key does not fit v's
    group."""
    if len(key) != len(v.shape):
        raise ValueError("character arity mismatch")
    return v._frame(M).count([(k,) for k in key])


def transport_check(transport: MonomialMap, chi: GroupChar) -> bool:
    """Whether chi(d) * n_chi(source; transform(chi)) == n_chi(target; chi).

    chi is read once as integers (MonomialMap.indices), so chi(d) is
    zeta_M^e, and the identity holds when the source histogram rotated by e
    minus the target histogram is zero in Q(zeta_M): one canonicalization,
    none when they agree entry by entry.  The histograms come from one
    lru_cache of _HISTOGRAMS_KEPT (4096) entries keyed on the variety, the
    indices and M; nothing derived from Q, d_elem or add_mat is kept, so a
    transport changed in place is read afresh.  Raises the ValueError of
    target.n_chi on a malformed chi."""
    key, src_key, e, M = transport.indices(chi)
    rhs = _char_histogram(transport.target, key, M)
    if e is None:
        diff = [-c for c in rhs]
    else:
        lhs = _char_histogram(transport.source, src_key, M)
        lhs = lhs[M - e:] + lhs[:M - e]
        if lhs == rhs:
            return True
        diff = list(map(int.__sub__, lhs, rhs))
    return not any(diff) or Cyclo(M, diff).is_zero()


@dataclass
class Isomorphism:
    source_ctx: "object"
    target_ctx: "object"
    symmetry: "object"
    transport: MonomialMap


# -- shared builder helpers --------------------------------------------------


def _normalize(fb: Field, A, pivot_cols):
    """Left-multiply by the inverse of the pivot-column submatrix."""
    g = [[row[c] for c in pivot_cols] for row in A]
    return mat_mul(fb, fmat_inv(fb, g), A)


def _require_units(fb: Field, values):
    if any(v == 0 for v in values):
        raise ValueError("general position violated")


# -- the isomorphism template ------------------------------------------------


class SymmetryContext:
    """A family member X(x) with its symmetry group, and the one template that
    builds the isomorphism X(x) -> X(x . w) for every symmetry w.

    z is x with identity columns inserted at the pivot columns.  A symmetry
    (sigma, c_1..c_a) acts on z from the right: sigma permutes the column
    blocks and c_k scales the k-th Artin-Schreier column.  Reducing the pivot
    columns of z . w back to the identity gives the target's x.  A symmetry
    is written sigma alone without Artin-Schreier columns, (sigma, c) with
    one, and (sigma, (c_1, .., c_a)) with more.

    A family is data on a subclass:
      params      keyword names of its parameters, also their attribute names
      seed_x      x from those parameters
      _parse      sets the parameters from x, checks general position and
                  returns d_x, the unit coordinates that give the map's
                  d_u = d_(x . w) / d_x^Q
      variety_of  the variety, from the field and the parameters
      pivots      pivot columns of z (None: the identity follows x)
      blocks      the column blocks of z that sigma permutes (None: every column)
      perm_group  the permutations sigma, by m (None: all of them)
      as_cols     the Artin-Schreier columns of z
      shift_row   the row of x whose Artin-Schreier entries give the additive
                  shifts (None: the map has no shifts)
      matrices    (theta0, Ts, rhos, M) by m, for the exponent matrix
                  Q = sum_k (theta0 . pad(P_sigma) . M + T_k) . rho_k
      q_recipe    sigma -> Q, for a family whose Q is not of that form
    """

    params: tuple = ()
    variety_of = None
    pivots: tuple | None = None
    blocks: tuple | None = None
    perm_group = None
    as_cols: tuple = ()
    shift_row: int | None = None
    matrices = None
    q_recipe = None

    def __init__(self, field: Field, *, x=None, **params):
        unknown = set(params) - set(self.params)
        if unknown:
            raise TypeError(f"unexpected parameters {sorted(unknown)}")
        if x is None:
            if any(params.get(k) is None for k in self.params):
                raise ValueError(f"need {' and '.join(self.params)} or x")
            values = [v for k in self.params for v in (params[k] if k == "lams" else [params[k]])]
            _check_lams(field, len(values), values)
            x = self.seed_x(field, **params)
        if any(v not in field.elements() for row in x for v in row):
            raise ValueError("x entries must be field elements")
        self.field = field
        self.x = [list(row) for row in x]
        self.m = len(self.x[0]) - 1
        self._varieties = {}  # parameter values -> variety, shared with built targets
        self.d_x = self._parse()
        rows, width = len(self.x), len(self.x[0]) + len(self.x)
        self._pivots = self.pivots or tuple(range(width - rows, width))
        self._xcols = tuple(c for c in range(width) if c not in self._pivots)
        self._blocks = self.blocks or tuple((c,) for c in range(width))
        self.z = [[0] * width for _ in range(rows)]
        for i, row in enumerate(self.x):
            for c, v in zip(self._xcols, row):
                self.z[i][c] = v
            self.z[i][self._pivots[i]] = 1

    def param_values(self) -> dict:
        return {k: getattr(self, k) for k in self.params}

    def variety(self) -> Variety:
        """The variety of these parameters: one object per parameter values
        among this context and the targets its builds derive, so that their
        maps share supports and transport_check histograms."""
        params = self.param_values()
        key = tuple(params.values())
        v = self._varieties.get(key)
        if v is None:
            v = self._varieties[key] = self.variety_of(self.field, **params)
        return v

    def ext_degree(self) -> int:
        # Artin-Schreier coordinates need the extension of degree p N; even
        # where the map needs only N-th roots (no additive shifts), the
        # variety tends to be empty before the additive equations split
        return self.field.N * (self.field.p if self.as_cols else 1)

    @property
    def arity(self) -> int:
        """The length of the permutation part of a symmetry."""
        return len(self._blocks)

    def symmetry(self, sigma, cs=()):
        """The family's way of writing (sigma, c_1..c_a)."""
        if not self.as_cols:
            return tuple(sigma)
        return (tuple(sigma), cs[0] if len(self.as_cols) == 1 else tuple(cs))

    def _split(self, sym):
        if not self.as_cols:
            return tuple(sym), ()
        sigma, cs = sym
        cs = (cs,) if len(self.as_cols) == 1 else tuple(cs)
        for c in cs:
            if c not in self.field.dlog:
                raise ValueError(f"unit part {c} is not a unit of F_{self.field.q}")
        return tuple(sigma), cs

    def symmetries(self):
        perms = (self.perm_group(self.m) if self.perm_group
                 else itertools.permutations(range(self.arity)))
        units = list(self.field.units())
        return [
            self.symmetry(sigma, cs)
            for sigma in perms
            for cs in itertools.product(units, repeat=len(self.as_cols))
        ]

    def _column_perm(self, sigma):
        """New column j of z . w is old column perm[j]."""
        perm = list(range(len(self.z[0])))
        for j, block in enumerate(self._blocks):
            for new, old in zip(block, self._blocks[sigma[j]]):
                perm[new] = old
        return perm

    def _slot_perm(self, sigma):
        """Target Artin-Schreier slot j comes from source slot perm[j]."""
        if not self.as_cols:
            return ()
        cols = self._column_perm(sigma)
        return tuple(self.as_cols.index(cols[c]) for c in self.as_cols)

    def compose_sym(self, s1, s2):
        (p1, c1), (p2, c2) = self._split(s1), self._split(s2)
        inv = invert_perm(self._slot_perm(p1))
        cs = tuple(self.field.mul(c1[j], c2[inv[j]]) for j in range(len(c1)))
        return self.symmetry(compose_perms(p1, p2), cs)

    def q_matrix(self, sigma):
        if self.q_recipe is not None:
            return self.q_recipe(sigma)
        theta0, Ts, rhos, M = self.matrices(self.m)
        P = imat_identity(len(M))
        for i, row in enumerate(perm_matrix(sigma)):
            P[i][: len(row)] = row
        base = imat_mul(imat_mul(theta0, P), M)
        Q = imat_zero(len(theta0), len(theta0))
        for T, rho in zip(Ts, rhos):
            Q = imat_add(Q, imat_mul(imat_add(base, T), rho))
        return Q

    def transformed(self, sym):
        fb = self.field
        sigma, cs = self._split(sym)
        cols = self._column_perm(sigma)
        A = [[row[c] for c in cols] for row in self.z]
        for col, c in zip(self.as_cols, cs):
            j = cols.index(col)
            for row in A:
                row[j] = fb.mul(row[j], c)
        zs = _normalize(fb, A, self._pivots)
        return [[row[c] for c in self._xcols] for row in zs]

    def build(self, sym) -> Isomorphism:
        fb = self.field
        sigma, cs = self._split(sym)
        tgt = type(self)(fb, x=self.transformed(sym))
        tgt._varieties = self._varieties
        Q = self.q_matrix(sigma)
        d_u = tuple(fb.div(a, b) for a, b in zip(tgt.d_x, monomial_map(fb, self.d_x, Q)))
        add_mat = None
        if cs:
            add_mat = imat_zero(len(cs), len(cs))
            for j, s in enumerate(self._slot_perm(sigma)):
                add_mat[s][j] = cs[s]
        if self.shift_row is None:
            shifts = (0,) * len(cs)
        else:
            row, tgt_row = self.x[self.shift_row], tgt.x[self.shift_row]
            cols = [self._xcols.index(c) for c in self.as_cols]
            shifts = tuple(fb.sub(fb.mul(c, row[j]), tgt_row[j]) for c, j in zip(cs, cols))
        ext_r = self.ext_degree()
        if fb.q**ext_r > DEFAULT_CAP:  # the extension exceeds the cap: transport only
            ext_r = None
        transport = MonomialMap(self.variety(), tgt.variety(), d_u + shifts, Q, add_mat, ext_r=ext_r)
        return Isomorphism(self, tgt, sym, transport)


# -- the six families --------------------------------------------------------


class GaussContext(SymmetryContext):
    """2x2-determinant family: 4 unit coordinates, symmetries sigma in S_4."""

    params = ("lam",)
    variety_of = staticmethod(lambda field, lam: MXnLambda(field, 2, 2, lam))
    matrices = staticmethod(lambda m: _gauss_matrices())

    @staticmethod
    def seed_x(field, lam):
        return [[1, 1], [field.neg(1), field.neg(lam)]]

    def _parse(self):
        fb = self.field
        (x11, x12), (x21, x22) = self.x
        _require_units(fb, (x11, x12, x21, x22))
        self.lam = fb.div(fb.mul(x11, x22), fb.mul(x21, x12))
        if self.lam == 1:
            raise ValueError("general position violated")
        return (x21, x12, x11, x22)


class KummerContext(SymmetryContext):
    """3 unit + 1 Artin-Schreier coordinates; symmetries (sigma in S_2, c in k*)."""

    params = ("lam",)
    variety_of = staticmethod(lambda field, lam: MXnLambda(field, 1, 2, lam))
    pivots = (1, 2)
    blocks = ((0,), (1,))
    as_cols = (3,)
    shift_row = 1
    matrices = staticmethod(lambda m: _kummer_matrices())

    @staticmethod
    def seed_x(field, lam):
        return [[1, lam], [1, 1]]

    def _parse(self):
        fb = self.field
        (x11, x12), (x21, x22) = self.x
        _require_units(fb, (x11, x21, x12))
        self.lam = fb.div(fb.mul(x21, x12), x11)
        return (x11, x21, x12)


class FDContext(SymmetryContext):
    """2n+2 unit coordinates in n+1 Fermat pairs; symmetries sigma in S_{n+3}."""

    params = ("lams",)
    variety_of = staticmethod(lambda field, lams: LauricellaD(field, len(lams), lams))
    matrices = staticmethod(_fd_matrices)

    @staticmethod
    def seed_x(field, lams):
        return [[1] * (len(lams) + 1), [field.neg(1)] + [field.neg(lam) for lam in lams]]

    def _parse(self):
        fb, x, m = self.field, self.x, self.m
        _require_units(fb, [v for row in x for v in row])
        self.lams = tuple(
            fb.div(fb.mul(x[0][0], x[1][i]), fb.mul(x[1][0], x[0][i]))
            for i in range(1, m + 1)
        )
        if any(lam == 1 for lam in self.lams) or len(set(self.lams)) != m:
            raise ValueError("general position violated")
        return (x[1][0],) + tuple(x[0][1:]) + (x[0][0],) + tuple(x[1][1:])


class Phi1Context(SymmetryContext):
    """5 unit + 1 Artin-Schreier coordinates; symmetries (sigma in S_3, c in k*)."""

    params = ("lam1", "lam2")
    variety_of = Humbert1
    pivots = (2, 3)
    blocks = ((0,), (1,), (2,))
    as_cols = (4,)
    shift_row = 1
    matrices = staticmethod(lambda m: _phi1_matrices())

    @staticmethod
    def seed_x(field, lam1, lam2):
        return [[1, lam1, lam2], [1, 1, 1]]

    def _parse(self):
        fb = self.field
        (x11, x12, x13), (x21, x22, x23) = self.x
        _require_units(fb, (x11, x12, x21, x22, x13))
        self.lam1 = fb.div(fb.mul(x21, x12), fb.mul(x11, x22))
        self.lam2 = fb.div(fb.mul(x21, x13), x11)
        if self.lam1 == 1:
            raise ValueError("general position violated")
        return (x11, x22, x21, x12, x13)


class Phi3Context(SymmetryContext):
    """4 unit + 2 Artin-Schreier coordinates; symmetries (sigma in S_2, c1, c2).

    sigma swaps the two column pairs of z; c_k scales the second column of
    pair k."""

    params = ("lam1", "lam2")
    variety_of = Humbert3
    pivots = (1, 3)
    blocks = ((1, 2), (3, 4))
    as_cols = (2, 4)
    q_recipe = staticmethod(_pair_perm_q)

    @staticmethod
    def seed_x(field, lam1, lam2):
        return [[1, 1, field.div(lam2, lam1)], [1, lam1, 1]]

    def _parse(self):
        fb = self.field
        (x11, x12, x13), (x21, x22, x23) = self.x
        _require_units(fb, (x21, x11, x22, x13))
        self.lam1 = fb.div(fb.mul(x11, x22), x21)
        self.lam2 = fb.mul(x22, x13)
        return (x21, x11, x22, x13)


class FAContext(SymmetryContext):
    """3n+1 unit coordinates; symmetries: the 2^n column swaps u_j <-> v_j."""

    params = ("lams",)
    variety_of = staticmethod(lambda field, lams: LauricellaA(field, len(lams), lams))
    perm_group = staticmethod(_fa_swaps)
    matrices = staticmethod(_fa_matrices)

    @staticmethod
    def seed_x(field, lams):
        m = len(lams)
        x = imat_zero(m + 1, m + 1)
        x[0][0] = 1
        for i in range(1, m + 1):
            x[i][i] = 1
            x[i][0] = 1
            x[0][i] = lams[i - 1]
        return x

    def _parse(self):
        fb, x, m = self.field, self.x, self.m
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i != j and x[i][j] != 0:
                    raise ValueError("general position violated")
        _require_units(
            fb,
            [x[0][0]]
            + [x[i][i] for i in range(1, m + 1)]
            + [x[i][0] for i in range(1, m + 1)]
            + [x[0][i] for i in range(1, m + 1)],
        )
        self.lams = tuple(
            fb.div(fb.mul(x[0][i], x[i][0]), fb.mul(x[0][0], x[i][i]))
            for i in range(1, m + 1)
        )
        for size in range(1, m + 1):
            for subset in itertools.combinations(self.lams, size):
                s = 0
                for lam in subset:
                    s = fb.add(s, lam)
                if s == 1:
                    raise ValueError("general position violated")
        return (
            (x[0][0],)
            + tuple(x[i][0] for i in range(1, m + 1))
            + tuple(x[i][i] for i in range(1, m + 1))
            + tuple(x[0][i] for i in range(1, m + 1))
        )


FAMILIES = {
    "gauss": GaussContext,
    "kummer": KummerContext,
    "fd": FDContext,
    "phi1": Phi1Context,
    "phi3": Phi3Context,
    "fa": FAContext,
}


def build_iso(family: str, field: Field, symmetry, **params) -> Isomorphism:
    """Construct the isomorphism for a named family and symmetry element."""
    ctx = make_context(family, field, **params)
    return ctx.build(symmetry)


def make_context(family: str, field: Field, **params):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FAMILIES[family](field, **params)


# -- general-family isomorphisms --------------------------------------------


def _general_degree(v: GeneralXDz) -> int | None:
    """The degree the general maps are checked over: N, times p when a part
    exceeds 1; None where F_(q^r) would exceed the cap."""
    fb = v.field
    r = fb.N * (fb.p if v.delta.parts[-1] > 1 else 1)
    return None if fb.q**r > DEFAULT_CAP else r


def general_iso_lg(v: GeneralXDz, g) -> Isomorphism:
    """Left multiplication of z by an invertible d x d matrix; s -> s g^{-1}."""
    fb = v.field
    ginv = fmat_inv(fb, [list(row) for row in g])
    target = GeneralXDz(fb, v.delta, mat_mul(fb, [list(row) for row in g], v.z))
    transport = MonomialMap(v, target, target.identity_element(), s_mat=ginv,
                            ext_r=_general_degree(v))
    return Isomorphism(v, target, ("Lg", tuple(map(tuple, g))), transport)


def general_iso_rh(v: GeneralXDz, h_blocks) -> Isomorphism:
    """Right multiplication of z by a block-Toeplitz h; roots scale the t's and
    Artin-Schreier roots shift the u's."""
    from .genhgf import h_to_matrix

    fb = v.field
    h_blocks = tuple(tuple(h) for h in h_blocks)
    target = GeneralXDz(fb, v.delta, mat_mul(fb, v.z, h_to_matrix(fb, v.delta, h_blocks)))
    thetas = []
    for size, h in zip(v.delta.parts, h_blocks):
        thetas.extend(theta_list(fb, size - 1, list(h)))
    transport = MonomialMap(v, target, tuple(h[0] for h in h_blocks) + tuple(thetas),
                            ext_r=_general_degree(v))
    return Isomorphism(v, target, ("Rh", h_blocks), transport)


def general_iso_fw(v: GeneralXDz, w: WDeltaElem) -> Isomorphism:
    """The column-symmetry action z -> z w: permutes equal-size blocks and
    substitutes within blocks.  Q is w on the block-leader rows and columns,
    add_mat is w on the others."""
    fb = v.field
    W = w_to_matrix(fb, w)
    target = GeneralXDz(fb, v.delta, mat_mul(fb, v.z, W))
    leads = [cols[0] for cols in v.delta.column_blocks()]
    rest = [c for c in range(v.delta.n) if c not in leads]
    Q = [[W[i][j] for j in leads] for i in leads]
    add_mat = [[W[i][j] for j in rest] for i in rest]
    transport = MonomialMap(v, target, target.identity_element(), Q, add_mat,
                            ext_r=_general_degree(v))
    return Isomorphism(v, target, ("fw", w), transport)


# -- verification ------------------------------------------------------------


def _packed(pt, base: int) -> int:
    """pt as one int with its entries as digits in base: a compact set key
    (a tuple of fresh log ints takes about five times the memory)."""
    k = 0
    for v in pt:
        k = k * base + v
    return k


def verify_iso(iso, compose_with=None, sample: int = 48, seed: int = 0) -> dict:
    """Check that the point map permutes the rational points over its
    extension: every source point's image lies on the target, no two
    source points share an image, the target has as many points, the
    tau-components correspond, and (with compose_with, a second symmetry)
    the map composes with the directly built composite on a sample of
    source points.  checked counts the source points, up to the first
    failure; failures and composition ratios report field codes.

    The points are checked a fiber at a time (Variety._fibers: one solution
    of the relations with all its N-th root logs, L_0 + (M/N) k for k in
    (Z/N)^n, and all its Artin-Schreier preimages, t_0 + e for e in
    F_q^m), by three exact identities.  N (L . Q + c) = (N L) . Q + N c,
    and t -> t^q - t is F_q-linear while add_mat lies over F_q, so the
    target's relations and links read the same on every image of a fiber:
    one point_ok of its first point decides the fiber.  When k -> k . Q
    mod N and e -> e . add_mat permute (Z/N)^n and F_q^m (checked once per
    map), a fiber maps onto a whole target fiber, and the map is injective
    when no two fibers reach the same target fiber, keyed by N L' mod M,
    t'^q - t' and s' of that first image.  A fiber's tau pairs are its first
    point's shifted by the lattice's pairs (monomial.tau_lattice), computed
    once per map.  A fiber that fails a check is walked point by point in
    points() order, with its own images and the earlier fibers' keys, which
    gives the failure, witness and checked of a check point by point; so is
    every fiber when a lattice map does not permute or its tau pairs are
    not a function of the source's.  Raises ValueError when sample < 1, and
    when compose_with is given for a map that no SymmetryContext built."""
    import random

    if sample < 1:
        raise ValueError("sample must be at least 1")
    if compose_with is not None and not (isinstance(iso, Isomorphism)
                                         and isinstance(iso.source_ctx, SymmetryContext)):
        raise ValueError("composition checks need a symmetry context: compose_with takes "
                         "an isomorphism built by SymmetryContext.build")
    pm = iso.transport if isinstance(iso, Isomorphism) else iso
    if pm.ext_r is None:
        return {"pass": False, "error": "point map unavailable (extension exceeds cap)"}
    report = {"pass": True, "checked": 0, "failures": []}

    def fail(kind, **data):
        report["pass"] = False
        report["failures"].append({"kind": kind, **data})

    src, tgt = pm.source, pm.target
    ext = extend(src.field, pm.ext_r)
    f, q, N = ext.field, src.field.q, src.field.N
    exp, M = f.exp, f.N
    image = pm.point_map(ext)
    n_u, n_a = src.shape.count("u"), src.shape.count("a")
    whole = (src.shape == tgt.shape and permutes_mod(pm.Q, n_u, N)
             and fmat_permutes(src.field, pm.add_mat, n_a))
    pairs = tau_lattice(src.tau_exps, tgt.tau_exps, pm.Q, n_u, N) if whole and src.tau_exps else []
    whole = whole and len({a for a, _ in pairs}) == len(pairs)
    step = M // N

    def codes(logs):
        return tuple(exp[L] for L in logs)

    def fiber_key(img):
        return (*[N * L % M for L in img[:n_u]],
                *[f.sub(f.pow(t, q), t) for t in img[n_u : n_u + n_a]], *img[n_u + n_a :])

    def shifted(tau, k):
        return tuple([(t + step * a) % M for t, a in zip(tau, k)])

    def walk(lists, seen):
        """The fiber's points one at a time; False at the first failure."""
        for pt in itertools.product(*lists):
            report["checked"] += 1
            img = image(pt)
            if not tgt.point_ok(ext, img):
                fail("image not on target", point=src.to_codes(ext, pt), image=tgt.to_codes(ext, img))
                return False
            key = _packed(img, f.q)
            if key in seen or (keys and fiber_key(img) in keys):
                fail("not injective", image=tgt.to_codes(ext, img))
                return False
            seen.add(key)
            src_tau = src.tau_of(ext, pt)
            if src_tau:
                tgt_tau = tgt.tau_of(ext, img)
                known = tau_pairs.setdefault(src_tau, tgt_tau)
                if known != tgt_tau:
                    fail("tau components not respected", point=src.to_codes(ext, pt),
                         expected=codes(known), got=codes(tgt_tau))
                    return False
        return True

    keys, tau_pairs, seen = set(), {}, set()
    for lists in src._fibers(ext):
        if not all(lists):
            continue
        if whole:
            pt = tuple([choices[0] for choices in lists])
            img = image(pt)
            key = tgt.point_ok(ext, img) and fiber_key(img)
            if key and key not in keys:
                s0, t0 = src.tau_of(ext, pt), tgt.tau_of(ext, img)
                local = {shifted(s0, a): shifted(t0, b) for a, b in pairs}
                if all(tau_pairs.get(a, b) == b for a, b in local.items()):
                    keys.add(key)
                    tau_pairs.update(local)
                    report["checked"] += prod(map(len, lists))
                    continue
            seen = set()
        if not walk(lists, seen):
            break
        if whole:
            keys.add(key)
    if report["pass"] and len(set(tau_pairs.values())) != len(tau_pairs):
        fail("tau components collapse", pairs=sorted((codes(a), codes(b)) for a, b in tau_pairs.items()))
    if report["pass"]:
        n_target = tgt.point_count(ext)
        if n_target != report["checked"]:
            fail("point count mismatch", source=report["checked"], target=n_target)
    if report["pass"] and compose_with is not None:
        rng = random.Random(seed)
        ctx = iso.source_ctx
        iso2 = iso.target_ctx.build(compose_with)
        iso12 = ctx.build(ctx.compose_sym(iso.symmetry, compose_with))
        if iso12.target_ctx.x != iso2.target_ctx.x:
            fail("normalized representative does not compose")
        if iso12.transport.Q != imat_mul(pm.Q, iso2.transport.Q):
            fail("exponent matrices do not compose")
        if report["pass"]:
            src_points = list(src.points(ext))
            pts = src_points if len(src_points) <= sample else rng.sample(src_points, sample)
            per_tau = {}
            image2, image12 = iso2.transport.point_map(ext), iso12.transport.point_map(ext)
            for pt in pts:
                a, b = image2(image(pt)), image12(pt)
                if a[n_u:] != b[n_u:]:
                    fail("additive parts of composite disagree", point=src.to_codes(ext, pt))
                    break
                ratio = tuple((x - y) % M for x, y in zip(a[:n_u], b[:n_u]))
                if any(N * r % M for r in ratio):
                    fail("composite differs by a non-root factor", point=src.to_codes(ext, pt),
                         ratio=codes(ratio))
                    break
                key = src.tau_of(ext, pt)
                if per_tau.setdefault(key, ratio) != ratio:
                    fail("composite ratio not constant on a tau component", tau=codes(key))
                    break
            report["composition_ratios"] = sorted({codes(r) for r in per_tau.values()})
    return report


# -- reducible decompositions ------------------------------------------------


def _euler_gauss(fb: Field, lams):
    """MXnLambda(2, 2, 1) from FermatStar(2): (u, w) -> (u, w, b w, a u)."""
    units = list(fb.units())
    twists = [(1, 1, b, a) for a in units for b in units]
    Q = [[1, 0, 0, 1], [0, 1, 1, 0]]
    return MXnLambda(fb, 2, 2, 1), FermatStar(fb, 2), Q, (1,) * 4, (1, 2), twists


def _fd_reduce(fb: Field, lams):
    """LauricellaD(m) at lam_(m-1) = lam_m from LauricellaD(m - 1):
    (x, y) -> (x, a x_(m-1), y, b y_(m-1))."""
    lams = tuple(lams)
    m = len(lams)
    if m < 2 or lams[-1] != lams[-2]:
        raise ValueError("degeneracy not satisfied")
    cols = list(range(m)) + [m - 1] + list(range(m, 2 * m)) + [2 * m - 1]
    Q = [[int(c == i) for c in cols] for i in range(2 * m)]
    units, ones = list(fb.units()), (1,) * m
    twists = [ones + (a,) + ones + (b,) for a in units for b in units]
    big, small = LauricellaD(fb, m, lams), LauricellaD(fb, m - 1, lams[:-1])
    # over F_3 the pieces have no point before degree 4
    return big, small, Q, big.identity_element(), (1, 2, 4), twists


def _f2_reduce(fb: Field, lams):
    """LauricellaA(2) at lam_2 = 1 from MXnLambda(3, 3, lam_1)."""
    (lam,) = tuple(lams)
    Q = [
        [1, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0],
        [-1, 0, -1, 0, -1, 0, -1],
    ]
    d = (fb.neg(1), 1, 1, 1, 1, 1, fb.neg(1))
    twists = [(1,) * 6 + (a,) for a in fb.units()]
    return LauricellaA(fb, 2, (lam, 1)), MXnLambda(fb, 3, 3, lam), Q, d, (fb.N,), twists


# case -> (big, small, Q, d, degrees, twists), from the field and lams
_DECOMPOSITIONS = {
    "EulerGauss": _euler_gauss,
    "FD_reduce": _fd_reduce,
    "F2_reduce": _f2_reduce,
}


def reducible_decompositions(case: str, field: Field, lams=None) -> dict:
    """Verify a degenerate-parameter decomposition of a variety big into
    twisted copies of a smaller one, and the count identity it induces.

    The map small -> big is MonomialMap(small, big, d, Q), and the count
    identity is its transport_check for every character chi of big.  Over each
    extension degree, its images x -> (x . Q) * root(d), each multiplied by
    every twist t (a tuple of base units, so of N-th roots of one), must land
    on big, be pairwise disjoint and cover all of big's points.  The degrees
    are the case's own when big has a point at one of them, else the least
    degree within the cap at which it has one.  checked counts the small
    points mapped; a report that checked none fails."""
    if case not in _DECOMPOSITIONS:
        raise ValueError(f"unknown case {case!r}")
    big, small, Q, d, degrees, twists = _DECOMPOSITIONS[case](field, lams)
    report = {"case": case, "pass": True, "checked": 0, "failures": []}

    def fail(kind, **data):
        report["pass"] = False
        report["failures"].append({"kind": kind, **data})

    transport = MonomialMap(small, big, d, Q)
    for chi in enumerate_groupchars(big):
        if not transport_check(transport, chi):
            fail("count identity", chi=[p.j for p in chi.parts])
    totals = {r: big.naive_count(r) for r in degrees}
    if not any(totals.values()):
        # big has no point at the listed degrees: take the least degree
        # within the cap at which it has one, if any
        degrees, r = (), 1
        while not degrees and field.q**r <= DEFAULT_CAP:
            if r not in totals:
                totals[r] = big.naive_count(r)
                degrees = (r,) if totals[r] else ()
            r += 1
    for r in degrees:
        ext = extend(field, r)
        f = ext.field
        M = f.N
        try:
            image = transport.point_map(ext)
        except ValueError:
            fail("d has no N-th root", degree=r)
            continue
        small_points = list(small.points(ext))
        images = [image(pt) for pt in small_points]
        covered = set()
        for t in twists:
            # a twist of N-th roots of one adds to the logs and keeps X = N log x
            shift = [f.dlog[ext.embed(c)] for c in t]
            for pt, image in zip(small_points, images):
                img = tuple((L + c) % M for L, c in zip(image, shift))
                report["checked"] += 1
                if not big.point_ok(ext, img):
                    fail("image not on big", degree=r, twist=t, point=small.to_codes(ext, pt))
                    break
                key = _packed(img, f.q)
                if key in covered:
                    fail("pieces overlap", degree=r, twist=t, image=big.to_codes(ext, img))
                    break
                covered.add(key)
        total = totals[r]
        if len(covered) != total:
            fail("pieces do not cover", degree=r, covered=len(covered), total=total)
    if report["checked"] == 0:
        fail("no point checked")
    return report
