"""Groebner bases with membership witnesses, rank, and differential radicals.

Buchberger's algorithm runs with the normal selection strategy (smallest
S-pair lcm in the active order, ties by pair index).  Reductions run
untracked; each basis row keeps a derivation record instead: the generator
or S-pair it came from, the multipliers of its reduction and its monic
scale.  S-pairs that reduce to zero leave no record.  When a witness is
asked for, the records of the rows the final reduction used, and of the
rows those derive from, are materialised into exact cofactors of the
original generators, once per row.  Those cofactors are what the
certificates replay.

``stabilize`` is the one ascending-chain loop: it grows q_0, q_1 = step(q_0),
... on a single incremental basis until q_k lies in <q_0, ..., q_{k-1}>.
``rank`` runs it with the Lie derivative as the step and returns the chain
it grew; the loop rule of ``hpreduce`` and the rank replay of DRI
certificates run it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
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


# Materialised cofactors are (integer term map, positive denominator) pairs:
# plain int arithmetic avoids the per-operation gcd normalization of Fraction
# and is what keeps witnesses affordable on degree-8 chains.  Conversion to
# Polynomial happens only at the API boundary.
_IPoly = tuple[dict, int]

_IP_ZERO: _IPoly = ({}, 1)


def _ip_unit(mono) -> _IPoly:
    return ({mono: 1}, 1)


def _ip_from_poly_terms(terms: dict) -> _IPoly:
    den = 1
    for c in terms.values():
        c = Fraction(c)
        den = den * c.denominator // gcd(den, c.denominator)
    return ({m: int(Fraction(c) * den) for m, c in terms.items()}, den)


def _ip_to_poly(ip: _IPoly, table: VarTable) -> Polynomial:
    terms, den = ip
    return Polynomial(table, {m: Fraction(n, den) for m, n in terms.items() if n},
                      _normalized=False)


def _ip_normalize(terms: dict, den: int) -> _IPoly:
    if not terms:
        return ({}, 1)
    g = den
    for v in terms.values():
        g = gcd(g, v)
        if g == 1:
            break
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


class _Row:
    """A basis row (or a reducer of ``reduce_mod``) and how it was made.

    ``origin`` is ``("gen", j)`` for a reduced generator or
    ``("pair", i, mi, j, mj)`` for the S-polynomial x^mi*rows[i] -
    x^mj*rows[j]; ``mults`` are the multipliers of its reduction, ``scale``
    the factor that made it monic.  ``cofs`` is the sparse
    {generator index: _IPoly} cofactor map, filled on first demand.
    """
    __slots__ = ("poly", "lm", "lc", "origin", "mults", "scale", "cofs")

    def __init__(self, poly: Polynomial, order: MonomialOrder, origin=None,
                 mults: Optional[dict[int, dict]] = None, scale: Fraction = Fraction(1)):
        self.poly = poly
        self.lm, self.lc = poly.leading(order)
        self.origin = origin
        self.mults = mults
        self.scale = scale
        self.cofs: Optional[dict[int, _IPoly]] = None

    def parents(self) -> list[int]:
        deps = list(self.mults)
        if self.origin[0] == "pair":
            deps += [self.origin[1], self.origin[3]]
        return deps


def _reduce_terms(terms: dict, rows: Sequence[_Row], order: MonomialOrder,
                  budget: StepBudget) -> tuple[dict, dict[int, dict]]:
    """Fully reduce a term map in place against ``rows``.

    Returns (remainder terms, multipliers): multipliers[i] is the term map of
    the polynomial m_i with  input = remainder + sum_i m_i * rows[i].poly.
    Mutating one working dict instead of rebuilding polynomials keeps the
    inner loop linear in the touched terms.
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
    multipliers: dict[int, dict] = {}
    while work:
        wm = max(work, key=mono_key)
        wc = work[wm]
        for ridx, row in enumerate(rows):
            if mono_divides(row.lm, wm):
                c = wc / row.lc
                m = mono_div(wm, row.lm)
                for m0, c0 in row.poly.terms.items():
                    mm = mono_mul(m0, m)
                    s = work.get(mm)
                    if s is None:
                        work[mm] = -c0 * c
                    else:
                        s = s - c0 * c
                        if s:
                            work[mm] = s
                        else:
                            del work[mm]
                used = multipliers.setdefault(ridx, {})
                used[m] = used.get(m, 0) + c
                budget.spend()
                break
        else:
            rem[wm] = wc
            del work[wm]
    return rem, multipliers


def _apply_multipliers(cofs: dict[int, _IPoly], rows: Sequence[_Row],
                       multipliers: dict[int, dict]) -> None:
    """cofs[j] -= sum_i multipliers[i] * rows[i].cofs[j], in place; the
    cofactors of the rows used must already be materialised."""
    for ridx, mult_terms in multipliers.items():
        mult = _ip_from_poly_terms(mult_terms)
        if not mult[0]:
            continue
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
        self.rows: list[_Row] = []
        self._pairs: list[tuple] = []  # heap of (lcm_key, i, j)

    # -- internals ---------------------------------------------------------

    def _reduce(self, poly: Polynomial) -> tuple[Polynomial, dict[int, dict]]:
        """Full reduction modulo the current rows: (remainder, multipliers)."""
        rem_terms, multipliers = _reduce_terms(dict(poly.terms), self.rows,
                                               self.order, self.budget)
        return Polynomial(self.table, rem_terms, _normalized=True), multipliers

    def _push_pairs(self, new_index: int) -> None:
        order = self.order
        lm_new = self.rows[new_index].lm
        for i in range(new_index):
            lm_i = self.rows[i].lm
            if mono_coprime(lm_i, lm_new):
                continue  # product criterion
            key = order.key(mono_lcm(lm_i, lm_new))
            heapq.heappush(self._pairs, (key, i, new_index))

    def _append_row(self, poly: Polynomial, origin: tuple,
                    mults: dict[int, dict]) -> None:
        _, lc = poly.leading(self.order)
        scale = Fraction(1) / lc
        if lc != 1:
            poly = poly.scale(scale)
        self.rows.append(_Row(poly, self.order, origin, mults, scale))
        if poly.is_constant():
            self._pairs.clear()  # the unit ideal: no pair can add a row
        else:
            self._push_pairs(len(self.rows) - 1)

    def _add_reduced(self, g: Polynomial, rem: Polynomial,
                     mults: dict[int, dict]) -> None:
        """Add generator g whose reduction modulo the current rows is given."""
        self.gens.append(g)
        if not rem.is_zero():
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

    def _witness(self, mults: dict[int, dict]) -> list[Polynomial]:
        """Cofactors w.r.t. the generators of sum_i mults[i] * rows[i]."""
        self._materialise(mults)
        cofs: dict[int, _IPoly] = {}
        _apply_multipliers(cofs, self.rows, mults)
        return [-_ip_to_poly(cofs.get(j, _IP_ZERO), self.table)
                for j in range(len(self.gens))]

    # -- public ------------------------------------------------------------

    def add_generator(self, g: Polynomial) -> None:
        if g.table != self.table:
            raise InputError("generator over a different variable table")
        self._add_reduced(g, *self._reduce(g))

    def complete(self) -> None:
        """Run Buchberger's loop to quiescence (normal strategy)."""
        while self._pairs:
            _, i, j = heapq.heappop(self._pairs)
            fi, fj = self.rows[i], self.rows[j]
            lcm = mono_lcm(fi.lm, fj.lm)
            mi, mj = mono_div(lcm, fi.lm), mono_div(lcm, fj.lm)
            s = fi.poly.mul_term(Fraction(1), mi) - fj.poly.mul_term(Fraction(1), mj)
            self.budget.spend()
            rem, mults = self._reduce(s)
            if not rem.is_zero():
                self._append_row(rem, ("pair", i, mi, j, mj), mults)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical remainder of p modulo the current basis (no witness)."""
        return self._reduce(p)[0]

    def normal_form_with_witness(self, p: Polynomial) -> tuple[Polynomial, list[Polynomial]]:
        """Reduce p; returns (remainder, cofactors w.r.t. the generators) with
        p == remainder + sum cofactors[j]*generators[j]."""
        rem, mults = self._reduce(p)
        return rem, self._witness(mults)

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
            rem_terms, multipliers = _reduce_terms(dict(row.poly.terms), others,
                                                   order, self.budget)
            cofs = dict(row.cofs)
            _apply_multipliers(cofs, others, multipliers)
            rem = Polynomial(self.table, rem_terms, _normalized=True)
            _, lc = rem.leading(order)
            if lc != 1:
                inv = Fraction(1) / lc
                rem = rem.scale(inv)
                cofs = {k: _ip_scale(c, inv) for k, c in cofs.items()}
            kept[idx] = _Row(rem, order)
            kept[idx].cofs = cofs
        return GroebnerBasis(
            generators=tuple(self.gens),
            basis=tuple(r.poly for r in kept),
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
    rem, mults = state._reduce(p)
    if not rem.is_zero():
        return None
    cofs = state._witness(mults)
    _assert_recombines(p, cofs, gens)
    return MembershipWitness(tuple(cofs))


def _assert_recombines(p: Polynomial, cofs: Sequence[Polynomial],
                       gens: Sequence[Polynomial]) -> None:
    acc = Polynomial.zero(p.table)
    for h, g in zip(cofs, gens):
        acc = acc + h * g
    if acc != p:
        raise AssertionError("witness does not recombine to the queried polynomial")


def reduce_mod(p: Polynomial, basis: Sequence[Polynomial],
               order: MonomialOrder = GREVLEX,
               budget: Optional[StepBudget] = None) -> Polynomial:
    """Normal form of p modulo an (assumed Groebner) basis, without witness
    tracking.  With a genuine Groebner basis the result is canonical, so a
    zero remainder decides ideal membership."""
    budget = budget if budget is not None else StepBudget(what="reduction")
    rows = [_Row(b, order) for b in basis if not b.is_zero()]
    rem_terms, _ = _reduce_terms(dict(p.terms), rows, order, budget)
    return Polynomial(p.table, rem_terms, _normalized=True)


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
    rem, mults = state._reduce(first)
    for _ in range(cap):
        state._add_reduced(chain[-1], rem, mults)
        state.complete()
        q = step(chain[-1])
        chain.append(q)
        rem, mults = state._reduce(q)
        if rem.is_zero():
            cofs = state._witness(mults)
            _assert_recombines(q, cofs, chain[:-1])
            return chain, cofs
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
