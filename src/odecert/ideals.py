"""Groebner bases with membership witnesses, rank, and differential radicals.

Buchberger's algorithm runs with the normal selection strategy (smallest
S-pair lcm in the active order, ties by pair index).  Reductions run
untracked; each basis row keeps a derivation record instead: the generator
or S-pair it came from, the multipliers of its reduction and its monic
scale.  S-pairs that reduce to zero leave no record.  When a witness is
asked for, the records of the rows the final reduction used, and of the
rows those derive from, are materialised into exact cofactors of the
original generators, once per row.  Those cofactors are what the
certificates replay; each one returned is first checked to recombine to
the queried polynomial exactly.

The engine computes in integers.  A row is a primitive integer term map
with a positive leading coefficient, standing for its monic multiple.  A
reduction keeps its working map over one common denominator and takes
fraction-free steps, removing the content whenever the denominator grows;
it picks the same reducer and monomial, and so reaches the same exact
remainder and multipliers, as a reduction in ``Fraction`` would.
``Polynomial`` appears only at the API boundary.

``stabilize`` is the one ascending-chain loop: it grows q_0, q_1 = step(q_0),
... on a single incremental basis until q_k lies in <q_0, ..., q_{k-1}>.
``rank`` runs it with the Lie derivative as the step and returns the chain
it grew; the loop rule of ``hpreduce`` and the rank replay of DRI
certificates run it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
import heapq
from typing import Callable, Optional, Sequence

from .errors import InputError, ResourceError
from .odecore import OdeSystem, lie_derivative
from .polyarith import (GREVLEX, MonomialOrder, Polynomial, VarTable,
                        mono_coprime, mono_div, mono_divides, mono_lcm,
                        mono_mul, mono_one)

DEFAULT_STEP_BUDGET = 400_000
DEFAULT_RANK_CAP = 20


class StepBudget:
    """Mutable countdown shared across one computation."""

    __slots__ = ("remaining", "what")

    def __init__(self, steps: int = DEFAULT_STEP_BUDGET, what: str = "groebner"):
        self.remaining = steps
        self.what = what

    def spend(self, n: int = 1, partial=None) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise ResourceError(f"{self.what} step budget exhausted", partial=partial)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis plus the transform back to the generators.

    ``basis[k] == sum_j transform[k][j] * generators[j]`` exactly.
    """
    generators: tuple[Polynomial, ...]
    basis: tuple[Polynomial, ...]
    order: MonomialOrder
    transform: tuple[tuple[Polynomial, ...], ...]

    def recombination_holds(self) -> bool:
        for b, row in zip(self.basis, self.transform):
            acc = Polynomial.zero(b.table)
            for h, g in zip(row, self.generators):
                acc = acc + h * g
            if acc != b:
                return False
        return True

    def render(self) -> str:
        """Diagnostic dump, one canonical polynomial per line."""
        if not self.basis:
            return "<empty basis>"
        return "\n".join(b.render(self.order) for b in self.basis)


@dataclass(frozen=True)
class MembershipWitness:
    """Cofactors h_j with sum h_j * generators[j] equal to the queried polynomial."""
    cofactors: tuple[Polynomial, ...]


@dataclass(frozen=True)
class RankResult:
    """Smallest n >= 1 with L^n p = sum_{i<n} cofactors[i] * chain[i] exactly,
    where chain = (p, Lp, ..., L^{n-1}p).  ``chain`` is what ``rank`` derived;
    a parsed certificate leaves it empty, and replay never reads it."""
    n: int
    cofactors: tuple[Polynomial, ...]
    chain: tuple[Polynomial, ...] = field(default=(), compare=False)


# Every polynomial inside the engine is an integer term map over one
# positive common denominator: plain int arithmetic avoids the per-operation
# gcd normalization of Fraction.  Basis rows, the working map of a
# reduction, its multipliers and the materialised cofactors all use this
# form; Polynomial is built only at the API boundary.
_IPoly = tuple[dict, int]

_IP_ZERO: _IPoly = ({}, 1)


def _ip_unit(mono) -> _IPoly:
    return ({mono: 1}, 1)


def _ip_of(p: Polynomial) -> _IPoly:
    """The integer form of a polynomial entering the engine."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return ({m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}, den)


def _ip_to_poly(ip: _IPoly, table: VarTable) -> Polynomial:
    terms, den = ip
    return Polynomial(table, {m: Fraction(n, den) for m, n in terms.items() if n},
                      _normalized=True)


def _ip_normalize(terms: dict, den: int) -> _IPoly:
    if not terms:
        return ({}, 1)
    g = gcd(den, *terms.values())
    if g > 1:
        terms = {m: v // g for m, v in terms.items()}
        den //= g
    return (terms, den)


def _ip_scale(ip: _IPoly, c: Fraction) -> _IPoly:
    if c == 0:
        return _IP_ZERO
    terms, den = ip
    out = {m: v * c.numerator for m, v in terms.items()}
    return _ip_normalize(out, den * c.denominator)


def _ip_combine(a: _IPoly, ma, b: _IPoly, mb) -> _IPoly:
    """x^ma * a - x^mb * b (the s-pair combination for monic rows)."""
    (ta, da), (tb, db) = a, b
    den = da * db // gcd(da, db)
    fa, fb = den // da, den // db
    out: dict = {}
    for m, v in ta.items():
        out[mono_mul(m, ma)] = v * fa
    for m, v in tb.items():
        mm = mono_mul(m, mb)
        s = out.get(mm, 0) - v * fb
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return _ip_normalize(out, den)


def _ip_submul(a: _IPoly, b: _IPoly, mult: _IPoly) -> _IPoly:
    """a - b * mult."""
    (ta, da), (tb, db), (tm, dm) = a, b, mult
    if not tb or not tm:
        return a
    prod: dict = {}
    for m1, v1 in tb.items():
        for m2, v2 in tm.items():
            mm = mono_mul(m1, m2)
            s = prod.get(mm, 0) + v1 * v2
            if s:
                prod[mm] = s
            else:
                prod.pop(mm, None)
    dp = db * dm
    den = da * dp // gcd(da, dp)
    fa, fp = den // da, den // dp
    out = {m: v * fa for m, v in ta.items()}
    for m, v in prod.items():
        s = out.get(m, 0) - v * fp
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return _ip_normalize(out, den)


def _ip_sum(parts: list[tuple]) -> _IPoly:
    """sum of num/den * x^m over the (m, num, den) triples."""
    den = lcm(*(d for _, _, d in parts))
    out: dict = {}
    for m, num, d in parts:
        out[m] = out.get(m, 0) + num * (den // d)
    return _ip_normalize({m: v for m, v in out.items() if v}, den)


class _Row:
    """A basis row (or a reducer of ``reduce_mod``) and how it was made.

    The row stands for the monic polynomial terms / lc: ``terms`` is a
    primitive integer term map and ``lc`` its positive leading coefficient,
    at ``lm``.  It is made from a nonzero integer form (t, den); ``scale``
    is den over the leading coefficient of t, the factor that takes t / den
    to the monic row.  ``origin`` is ``("gen", j)`` for a reduced generator
    or ``("pair", i, mi, j, mj)`` for the S-polynomial x^mi*rows[i] -
    x^mj*rows[j]; ``mults`` are the multipliers of its reduction.  ``cofs``
    is the sparse {generator index: _IPoly} cofactor map, filled on first
    demand.
    """
    __slots__ = ("terms", "lm", "lc", "origin", "mults", "scale", "cofs")

    def __init__(self, ip: _IPoly, order: MonomialOrder, origin=None,
                 mults: Optional[dict[int, _IPoly]] = None):
        terms, den = ip
        lm = max(terms, key=order.key)
        lead = terms[lm]
        g = gcd(*terms.values())
        if lead < 0:
            g = -g
        if g != 1:
            terms = {m: v // g for m, v in terms.items()}
        self.terms = terms
        self.lm = lm
        self.lc = lead // g
        self.scale = Fraction(den, lead)
        self.origin = origin
        self.mults = mults
        self.cofs: Optional[dict[int, _IPoly]] = None

    def monic(self, table: VarTable) -> Polynomial:
        return _ip_to_poly((self.terms, self.lc), table)

    def parents(self) -> list[int]:
        deps = list(self.mults)
        if self.origin[0] == "pair":
            deps += [self.origin[1], self.origin[3]]
        return deps


def _reduce_terms(terms: dict, den: int, rows: Sequence[_Row], order: MonomialOrder,
                  budget: StepBudget) -> tuple[_IPoly, dict[int, _IPoly]]:
    """Fully reduce terms / den against ``rows``, fraction-free.

    ``terms`` is an integer term map, consumed, over the positive common
    denominator ``den``.  Each step takes the leading term wc*x^w of the
    working map and the first row R / a (R integer, a > 0) whose leading
    monomial divides x^w, with x^m = x^w / lm(R) and g = gcd(wc, a), and
    sets  work <- (a/g)*work - (wc/g)*x^m*R,  den <- (a/g)*den.  That
    subtracts the same multiple of the monic row as a rational step would,
    so remainder and multipliers are the same exact rationals.  Whenever
    the denominator grows, the content common to it and to every
    coefficient of the working map and of the remainder is divided out.

    Returns (remainder, multipliers): the input equals
    remainder + sum_i multipliers[i] * (monic rows[i]).  Every step records
    its multiplier as an integer numerator over that step's denominator.
    """
    key = order.key
    key_cache: dict = {}

    def mono_key(m):
        k = key_cache.get(m)
        if k is None:
            k = key(m)
            key_cache[m] = k
        return k

    work = terms
    rem: dict = {}
    steps: dict[int, list] = {}
    while work:
        wm = max(work, key=mono_key)
        wc = work[wm]
        for ridx, row in enumerate(rows):
            if mono_divides(row.lm, wm):
                a = row.lc
                g = gcd(wc, a)
                f, c = a // g, wc // g
                if f != 1:
                    work = {mm: v * f for mm, v in work.items()}
                    rem = {mm: v * f for mm, v in rem.items()}
                    den *= f
                m = mono_div(wm, row.lm)
                for m0, c0 in row.terms.items():
                    mm = mono_mul(m0, m)
                    s = work.get(mm, 0) - c * c0
                    if s:
                        work[mm] = s
                    else:
                        del work[mm]
                steps.setdefault(ridx, []).append((m, c * a, den))
                budget.spend()
                if f != 1:
                    h = gcd(den, *work.values(), *rem.values())
                    if h != 1:
                        work = {mm: v // h for mm, v in work.items()}
                        rem = {mm: v // h for mm, v in rem.items()}
                        den //= h
                break
        else:
            rem[wm] = wc
            del work[wm]
    return (rem, den), {ridx: _ip_sum(parts) for ridx, parts in steps.items()}


def _apply_multipliers(cofs: dict[int, _IPoly], rows: Sequence[_Row],
                       multipliers: dict[int, _IPoly]) -> None:
    """cofs[j] -= sum_i multipliers[i] * rows[i].cofs[j], in place; the
    cofactors of the rows used must already be materialised."""
    for ridx, mult in multipliers.items():
        for j, rj in rows[ridx].cofs.items():
            c = _ip_submul(cofs.get(j, _IP_ZERO), rj, mult)
            if c[0]:
                cofs[j] = c
            else:
                cofs.pop(j, None)


class BuchbergerState:
    """Incremental Buchberger engine; generators may be added between runs,
    which is how rank computations warm-start each chain step.

    Reductions are untracked.  Every row records its derivation, and
    witnesses materialise cofactors from those records for just the rows
    a reduction used.  Once a constant row appears the ideal is <1>: every
    later reduction ends at zero through it, so the pending S-pairs are
    dropped.
    """

    def __init__(self, table: VarTable, order: MonomialOrder = GREVLEX,
                 budget: Optional[StepBudget] = None):
        self.table = table
        self.order = order
        self.budget = budget if budget is not None else StepBudget()
        self.gens: list[Polynomial] = []
        self.gen_ips: list[_IPoly] = []  # integer forms of gens
        self.rows: list[_Row] = []
        self._pairs: list[tuple] = []  # heap of (lcm_key, i, j)

    # -- internals ---------------------------------------------------------

    def _reduce(self, q: _IPoly) -> tuple[_IPoly, dict[int, _IPoly]]:
        """Full reduction modulo the current rows: (remainder, multipliers)."""
        return _reduce_terms(dict(q[0]), q[1], self.rows, self.order, self.budget)

    def _push_pairs(self, new_index: int) -> None:
        order = self.order
        lm_new = self.rows[new_index].lm
        for i in range(new_index):
            lm_i = self.rows[i].lm
            if mono_coprime(lm_i, lm_new):
                continue  # product criterion
            key = order.key(mono_lcm(lm_i, lm_new))
            heapq.heappush(self._pairs, (key, i, new_index))

    def _append_row(self, rem: _IPoly, origin: tuple, mults: dict[int, _IPoly]) -> None:
        row = _Row(rem, self.order, origin, mults)
        self.rows.append(row)
        if not any(row.lm):
            self._pairs.clear()  # the unit ideal: no pair can add a row
        else:
            self._push_pairs(len(self.rows) - 1)

    def _add_reduced(self, g: Polynomial, g_ip: _IPoly, rem: _IPoly,
                     mults: dict[int, _IPoly]) -> None:
        """Add generator g, of integer form g_ip, whose reduction modulo the
        current rows is given."""
        self.gens.append(g)
        self.gen_ips.append(g_ip)
        if rem[0]:
            self._append_row(rem, ("gen", len(self.gens) - 1), mults)

    def _materialise(self, roots) -> None:
        """Fill ``cofs`` of rows[i] for i in roots and of every row they
        derive from, parents first, without recursion."""
        rows = self.rows
        one = _ip_unit(mono_one(len(self.table)))
        stack = [i for i in roots if rows[i].cofs is None]
        while stack:
            row = rows[stack[-1]]
            if row.cofs is not None:
                stack.pop()
                continue
            missing = [k for k in row.parents() if rows[k].cofs is None]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if row.origin[0] == "gen":
                cofs = {row.origin[1]: one}
            else:
                # rows are monic, so the s-pair cofactors combine with unit scalars
                _, i, mi, j, mj = row.origin
                a, b = rows[i].cofs, rows[j].cofs
                cofs = {}
                for k in a.keys() | b.keys():
                    c = _ip_combine(a.get(k, _IP_ZERO), mi, b.get(k, _IP_ZERO), mj)
                    if c[0]:
                        cofs[k] = c
            _apply_multipliers(cofs, rows, row.mults)
            if row.scale != 1:
                cofs = {k: _ip_scale(c, row.scale) for k, c in cofs.items()}
            row.cofs = cofs

    def _witness(self, mults: dict[int, _IPoly]) -> list[_IPoly]:
        """Cofactors w.r.t. the generators of sum_i mults[i] * rows[i]."""
        self._materialise(mults)
        cofs: dict[int, _IPoly] = {}
        _apply_multipliers(cofs, self.rows, mults)
        out = []
        for j in range(len(self.gens)):
            terms, den = cofs.get(j, _IP_ZERO)
            out.append(({m: -v for m, v in terms.items()}, den))
        return out

    # -- public ------------------------------------------------------------

    def add_generator(self, g: Polynomial) -> None:
        if g.table != self.table:
            raise InputError("generator over a different variable table")
        g_ip = _ip_of(g)
        self._add_reduced(g, g_ip, *self._reduce(g_ip))

    def complete(self) -> None:
        """Run Buchberger's loop to quiescence (normal strategy)."""
        rows, order = self.rows, self.order
        while self._pairs:
            _, i, j = heapq.heappop(self._pairs)
            fi, fj = rows[i], rows[j]
            lcm_ij = mono_lcm(fi.lm, fj.lm)
            mi, mj = mono_div(lcm_ij, fi.lm), mono_div(lcm_ij, fj.lm)
            s, den = _ip_combine((fi.terms, fi.lc), mi, (fj.terms, fj.lc), mj)
            self.budget.spend()
            rem, mults = _reduce_terms(s, den, rows, order, self.budget)
            if rem[0]:
                self._append_row(rem, ("pair", i, mi, j, mj), mults)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical remainder of p modulo the current basis (no witness)."""
        return _ip_to_poly(self._reduce(_ip_of(p))[0], self.table)

    def normal_form_with_witness(self, p: Polynomial) -> tuple[Polynomial, list[Polynomial]]:
        """Reduce p; returns (remainder, cofactors w.r.t. the generators) with
        p == remainder + sum cofactors[j]*generators[j]."""
        rem, mults = self._reduce(_ip_of(p))
        return (_ip_to_poly(rem, self.table),
                [_ip_to_poly(c, self.table) for c in self._witness(mults)])

    def reduced_basis(self) -> GroebnerBasis:
        """Inter-reduced, monic, deterministic view of the current basis."""
        order = self.order
        kept: list[_Row] = []
        for idx in sorted(range(len(self.rows)), key=lambda i: order.key(self.rows[i].lm)):
            if any(mono_divides(k.lm, self.rows[idx].lm) for k in kept):
                continue
            self._materialise([idx])
            kept.append(self.rows[idx])
        for idx, row in enumerate(kept):
            others = kept[:idx] + kept[idx + 1:]
            rem, multipliers = _reduce_terms(dict(row.terms), row.lc, others,
                                             order, self.budget)
            cofs = dict(row.cofs)
            _apply_multipliers(cofs, others, multipliers)
            new = _Row(rem, order)
            if new.scale != 1:
                cofs = {k: _ip_scale(c, new.scale) for k, c in cofs.items()}
            new.cofs = cofs
            kept[idx] = new
        return GroebnerBasis(
            generators=tuple(self.gens),
            basis=tuple(r.monic(self.table) for r in kept),
            order=order,
            transform=tuple(tuple(_ip_to_poly(r.cofs.get(j, _IP_ZERO), self.table)
                                  for j in range(len(self.gens)))
                            for r in kept),
        )


def groebner(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
             step_budget: Optional[int] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Deterministic for a fixed order and generator order.  An all-zero
    generator list is allowed (the zero ideal; empty basis).
    """
    if len(gens) == 0:
        raise InputError("groebner needs at least one generator")
    budget = StepBudget(step_budget if step_budget is not None else DEFAULT_STEP_BUDGET)
    state = BuchbergerState(gens[0].table, order, budget)
    for g in gens:
        state.add_generator(g)
    state.complete()
    return state.reduced_basis()


def member_with_witness(p: Polynomial, gens: Sequence[Polynomial],
                        order: MonomialOrder = GREVLEX,
                        step_budget: Optional[int] = None) -> Optional[MembershipWitness]:
    """Exact cofactors for p in <gens>, or None when p is not a member.

    Budget exhaustion raises ResourceError (distinct from None).
    """
    if len(gens) == 0:
        raise InputError("membership needs at least one generator")
    budget = StepBudget(step_budget if step_budget is not None else DEFAULT_STEP_BUDGET,
                        what="membership")
    state = BuchbergerState(gens[0].table, order, budget)
    for g in gens:
        state.add_generator(g)
    state.complete()
    q = _ip_of(p)
    rem, mults = state._reduce(q)
    if rem[0]:
        return None
    cofs = state._witness(mults)
    _assert_recombines(q, cofs, state.gen_ips)
    return MembershipWitness(tuple(_ip_to_poly(c, p.table) for c in cofs))


def _assert_recombines(q: _IPoly, cofs: Sequence[_IPoly], gens: Sequence[_IPoly]) -> None:
    """Exact check q == sum cofs[j] * gens[j] on integer forms."""
    acc = q
    for h, g in zip(cofs, gens):
        acc = _ip_submul(acc, g, h)
    if acc[0]:
        raise AssertionError("witness does not recombine to the queried polynomial")


def reduce_mod(p: Polynomial, basis: Sequence[Polynomial],
               order: MonomialOrder = GREVLEX,
               budget: Optional[StepBudget] = None) -> Polynomial:
    """Normal form of p modulo an (assumed Groebner) basis, without witness
    tracking.  With a genuine Groebner basis the result is canonical, so a
    zero remainder decides ideal membership."""
    budget = budget if budget is not None else StepBudget(what="reduction")
    rows = [_Row(_ip_of(b), order) for b in basis if not b.is_zero()]
    rem, _ = _reduce_terms(*_ip_of(p), rows, order, budget)
    return _ip_to_poly(rem, p.table)


def stabilize(first: Polynomial, step: Callable[[Polynomial], Polynomial], cap: int,
              budget: StepBudget, order: MonomialOrder = GREVLEX
              ) -> tuple[list[Polynomial], Optional[list[Polynomial]]]:
    """Grow q_0 = first, q_{k+1} = step(q_k) until q_k lies in <q_0, ..., q_{k-1}>.

    Returns (q_0..q_k, cofactors g with q_k = sum_{i<k} g_i q_i) for the
    smallest such k in 1..cap, or (q_0..q_cap, None) when there is none.  One
    incremental Buchberger run serves the whole chain: each q_k is reduced
    once, and a non-member enters the basis through that same reduction.
    The ascending chain condition makes every chain stop; ``cap`` bounds
    the wait.  Budget exhaustion raises ResourceError.
    """
    state = BuchbergerState(first.table, order, budget)
    chain = [first]
    q = _ip_of(first)
    rem, mults = state._reduce(q)
    for _ in range(cap):
        state._add_reduced(chain[-1], q, rem, mults)
        state.complete()
        chain.append(step(chain[-1]))
        q = _ip_of(chain[-1])
        rem, mults = state._reduce(q)
        if not rem[0]:
            cofs = state._witness(mults)
            _assert_recombines(q, cofs, state.gen_ips)
            return chain, [_ip_to_poly(c, first.table) for c in cofs]
    return chain, None


def rank(p: Polynomial, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP,
         order: MonomialOrder = GREVLEX,
         step_budget: Optional[int] = None) -> RankResult:
    """Smallest N >= 1 with L^N p in <p, Lp, ..., L^{N-1}p>, with exact
    cofactors and the chain p, ..., L^{N-1}p.

    The zero polynomial has rank 1 with cofactor 0.  Exceeding ``cap``
    raises ResourceError carrying the partial Lie chain.
    """
    if cap < 1:
        raise InputError("rank cap must be >= 1")
    if p.table != sys.table:
        raise InputError("polynomial and system use different variable tables")
    budget = StepBudget(step_budget if step_budget is not None else DEFAULT_STEP_BUDGET,
                        what="rank")
    chain, cofs = stabilize(p, lambda q: lie_derivative(q, sys), cap, budget, order)
    if cofs is None:
        raise ResourceError(f"rank cap {cap} exceeded", partial=chain[:cap])
    n = len(chain) - 1
    return RankResult(n, tuple(cofs), tuple(chain[:n]))


def differential_radical(p: Polynomial, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP,
                         order: MonomialOrder = GREVLEX,
                         step_budget: Optional[int] = None) -> list[Polynomial]:
    """The chain [L^0 p, ..., L^{N-1} p] whose zero-conjunction is the
    differential radical formula of p."""
    return list(rank(p, sys, cap=cap, order=order, step_budget=step_budget).chain)
