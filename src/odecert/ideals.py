"""Groebner bases with membership witnesses, rank, and differential radicals.

Buchberger's algorithm runs with the normal selection strategy (smallest
S-pair lcm in the active order, ties by pair index).  Reductions run
untracked; each basis row keeps a derivation record instead: the generator
or S-pair it came from, the steps of its reduction and its monic
scale.  S-pairs that reduce to zero leave no record.  When a witness is
asked for, the records of the rows the final reduction used, and of the
rows those derive from, are materialised into exact cofactors of the
original generators, once per row.  Those cofactors are what the
certificates replay; each one returned is first checked to recombine to
the queried polynomial exactly.

The engine computes on ``Polynomial``'s own integer form (numerators over
one common denominator); the one ``Fraction`` it keeps is each row's
scale.  A monic row is a ``Polynomial`` whose numerators are primitive
over the denominator ``lc``, their leading one.  A reduction updates a
copy of the numerator map in place, taking fraction-free steps and
removing the content whenever the denominator grows; it picks the same
reducer and monomial, and so reaches the same exact remainder and
multipliers, as a reduction in ``Fraction`` would.  It returns its steps
raw: a multiplier becomes a ``Polynomial`` only when a witness is
materialised, so S-pairs that reduce to zero and reductions without a
witness never build one.  S-polynomials, multipliers, cofactors and the recombination check are ``Polynomial``
operations, and each materialised cofactor is summed over one
denominator.

``stabilize`` is the one ascending-chain loop.  It grows the ideal of a
list of generators on a single incremental basis: each round maps the
generators the last round kept to a new list, keeps those that are not yet
members and records a membership witness for every one that is, until a
round keeps nothing.  ``rank`` is its one-generator case, with the Lie
derivative as the step, and returns the chain it grew; the rank replay of
DRI certificates runs that case too, and the loop rule of ``hpreduce`` runs
it with the loop body's reduction of a generator list as the step.
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
                        mono_mul, sum_of_products)

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
        return all(sum_of_products(b.table, zip(row, self.generators)) == b
                   for b, row in zip(self.basis, self.transform))

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


class _Row:
    """A basis row (or a reducer of ``reduce_mod``) and how it was made.

    ``poly`` is the monic row: primitive integer numerators over the
    denominator ``lc``, which is also their positive leading coefficient,
    at ``lm``.  ``scale`` is the factor that takes the polynomial the row
    was made from to ``poly``.  ``origin`` is ``("gen", j)`` for a reduced
    generator or ``("pair", i, mi, j, mj)`` for the S-polynomial
    x^mi*rows[i] - x^mj*rows[j]; ``steps`` are the steps of its reduction,
    as ``_reduce_terms`` returns them.  ``cofs`` is the sparse
    {generator index: cofactor} map, filled on first demand.
    """
    __slots__ = ("poly", "lm", "lc", "origin", "steps", "scale", "cofs")

    def __init__(self, p: Polynomial, order: MonomialOrder, origin=None,
                 steps: Optional[dict[int, list]] = None):
        self.lm = max(p.nums, key=order.key)
        self.scale = Fraction(p.den, p.nums[self.lm])
        self.poly = p.scale(self.scale)
        self.lc = self.poly.den
        self.origin = origin
        self.steps = steps
        self.cofs: Optional[dict[int, Polynomial]] = None

    def parents(self) -> list[int]:
        deps = list(self.steps)
        if self.origin[0] == "pair":
            deps += [self.origin[1], self.origin[3]]
        return deps


def _multiplier(table: VarTable, parts: list[tuple]) -> Polynomial:
    """sum of num/den * x^m over the (m, num, den) steps of one reducer."""
    den = lcm(*(d for _, _, d in parts))
    out: dict = {}
    for m, num, d in parts:
        out[m] = out.get(m, 0) + num * (den // d)
    return Polynomial.from_ints(table, {m: v for m, v in out.items() if v}, den)


def _reduce_terms(p: Polynomial, rows: Sequence[_Row], order: MonomialOrder,
                  budget: StepBudget) -> tuple[Polynomial, dict[int, list]]:
    """Fully reduce p against ``rows``, fraction-free.

    The working map starts as p's integer numerators over p's denominator
    and is updated in place.  Each step takes its leading term wc*x^w and
    the first row R / a (R the row's numerators, a > 0 its leading one)
    whose leading monomial divides x^w, with x^m = x^w / lm(R) and
    g = gcd(wc, a), and sets  work <- (a/g)*work - (wc/g)*x^m*R,
    den <- (a/g)*den.  That subtracts the same multiple of the monic row as
    a rational step would, so remainder and multipliers are the same exact
    rationals.  Whenever the denominator grows, the content common to it
    and to every coefficient of the working map and of the remainder is
    divided out.

    Returns (remainder, steps): steps[i] lists the (m, num, den) steps that
    used rows[i], each a multiplier num/den * x^m as an integer numerator
    over that step's denominator, and p equals
    remainder + sum_i _multiplier(steps[i]) * rows[i].poly.  Multipliers are
    built only where a witness needs them.
    """
    key = order.key
    key_cache: dict = {}

    def mono_key(m):
        k = key_cache.get(m)
        if k is None:
            k = key(m)
            key_cache[m] = k
        return k

    work = dict(p.nums)
    den = p.den
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
                for m0, c0 in row.poly.nums.items():
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
    return Polynomial.from_ints(p.table, rem, den), steps


def _combine(table: VarTable, parts) -> dict[int, Polynomial]:
    """{j: sum of h * cofs[j] over the (h, cofs) parts} for every generator
    index j, each cofactor summed over one denominator."""
    by_gen: dict[int, list] = {}
    for h, cofs in parts:
        for j, c in cofs.items():
            by_gen.setdefault(j, []).append((h, c))
    out = {}
    for j, pairs in by_gen.items():
        c = sum_of_products(table, pairs)
        if c:
            out[j] = c
    return out


def _reduced_parts(table: VarTable, rows: Sequence[_Row], steps: dict[int, list],
                   factor: Fraction):
    """The parts (-factor * multiplier i, rows[i].cofs) that subtract the
    reducers of a reduction with the given steps; the cofactors of those
    rows must already be materialised."""
    return [(_multiplier(table, parts).scale(-factor), rows[i].cofs)
            for i, parts in steps.items()]


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

    def _reduce(self, q: Polynomial) -> tuple[Polynomial, dict[int, list]]:
        """Full reduction modulo the current rows: (remainder, steps)."""
        return _reduce_terms(q, self.rows, self.order, self.budget)

    def _push_pairs(self, new_index: int) -> None:
        order = self.order
        lm_new = self.rows[new_index].lm
        for i in range(new_index):
            lm_i = self.rows[i].lm
            if mono_coprime(lm_i, lm_new):
                continue  # product criterion
            key = order.key(mono_lcm(lm_i, lm_new))
            heapq.heappush(self._pairs, (key, i, new_index))

    def _append_row(self, rem: Polynomial, origin: tuple,
                    steps: dict[int, list]) -> None:
        row = _Row(rem, self.order, origin, steps)
        self.rows.append(row)
        if not any(row.lm):
            self._pairs.clear()  # the unit ideal: no pair can add a row
        else:
            self._push_pairs(len(self.rows) - 1)

    def _add_reduced(self, g: Polynomial, rem: Polynomial,
                     steps: dict[int, list]) -> None:
        """Add generator g, whose reduction modulo the current rows is given."""
        self.gens.append(g)
        if rem:
            self._append_row(rem, ("gen", len(self.gens) - 1), steps)

    def _materialise(self, roots) -> None:
        """Fill ``cofs`` of rows[i] for i in roots and of every row they
        derive from, parents first, without recursion."""
        rows, table = self.rows, self.table
        one = Polynomial.one(table)
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
            s = row.scale
            if row.origin[0] == "gen":
                parts = [(Polynomial.constant(table, s), {row.origin[1]: one})]
            else:
                # the rows are monic: the S-polynomial is x^mi*rows[i] - x^mj*rows[j]
                _, i, mi, j, mj = row.origin
                parts = [(one.mul_term(s, mi), rows[i].cofs),
                         (one.mul_term(-s, mj), rows[j].cofs)]
            row.cofs = _combine(table, parts + _reduced_parts(table, rows, row.steps, s))

    def _witness(self, steps: dict[int, list]) -> list[Polynomial]:
        """Cofactors w.r.t. the generators of sum_i multiplier_i * rows[i]
        for the multipliers of a reduction's steps."""
        self._materialise(steps)
        table = self.table
        cofs = _combine(table, _reduced_parts(table, self.rows, steps, Fraction(-1)))
        zero = Polynomial.zero(table)
        return [cofs.get(j, zero) for j in range(len(self.gens))]

    # -- public ------------------------------------------------------------

    def add_generator(self, g: Polynomial) -> None:
        if g.table != self.table:
            raise InputError("generator over a different variable table")
        self._add_reduced(g, *self._reduce(g))

    def complete(self) -> None:
        """Run Buchberger's loop to quiescence (normal strategy)."""
        rows, order = self.rows, self.order
        while self._pairs:
            _, i, j = heapq.heappop(self._pairs)
            fi, fj = rows[i], rows[j]
            lcm_ij = mono_lcm(fi.lm, fj.lm)
            mi, mj = mono_div(lcm_ij, fi.lm), mono_div(lcm_ij, fj.lm)
            s = fi.poly.mul_term(1, mi) - fj.poly.mul_term(1, mj)
            self.budget.spend()
            rem, steps = _reduce_terms(s, rows, order, self.budget)
            if rem:
                self._append_row(rem, ("pair", i, mi, j, mj), steps)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical remainder of p modulo the current basis (no witness)."""
        return self._reduce(p)[0]

    def normal_form_with_witness(self, p: Polynomial) -> tuple[Polynomial, list[Polynomial]]:
        """Reduce p; returns (remainder, cofactors w.r.t. the generators) with
        p == remainder + sum cofactors[j]*generators[j]."""
        rem, steps = self._reduce(p)
        return rem, self._witness(steps)

    def reduced_basis(self) -> GroebnerBasis:
        """Inter-reduced, monic, deterministic view of the current basis."""
        order, table = self.order, self.table
        kept: list[_Row] = []
        for idx in sorted(range(len(self.rows)), key=lambda i: order.key(self.rows[i].lm)):
            if any(mono_divides(k.lm, self.rows[idx].lm) for k in kept):
                continue
            self._materialise([idx])
            kept.append(self.rows[idx])
        for idx, row in enumerate(kept):
            others = kept[:idx] + kept[idx + 1:]
            rem, steps = _reduce_terms(row.poly, others, order, self.budget)
            new = _Row(rem, order)
            new.cofs = _combine(table, [(Polynomial.constant(table, new.scale), row.cofs)]
                                + _reduced_parts(table, others, steps, new.scale))
            kept[idx] = new
        zero = Polynomial.zero(table)
        return GroebnerBasis(
            generators=tuple(self.gens),
            basis=tuple(r.poly for r in kept),
            order=order,
            transform=tuple(tuple(r.cofs.get(j, zero) for j in range(len(self.gens)))
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
    rem, steps = state._reduce(p)
    if rem:
        return None
    cofs = state._witness(steps)
    _assert_recombines(p, cofs, state.gens)
    return MembershipWitness(tuple(cofs))


def _assert_recombines(q: Polynomial, cofs: Sequence[Polynomial],
                       gens: Sequence[Polynomial]) -> None:
    """Exact check q == sum cofs[j] * gens[j]."""
    if sum_of_products(q.table, zip(cofs, gens)) != q:
        raise AssertionError("witness does not recombine to the queried polynomial")


def reduce_mod(p: Polynomial, basis: Sequence[Polynomial],
               order: MonomialOrder = GREVLEX,
               budget: Optional[StepBudget] = None) -> Polynomial:
    """Normal form of p modulo an (assumed Groebner) basis, without witness
    tracking.  With a genuine Groebner basis the result is canonical, so a
    zero remainder decides ideal membership."""
    budget = budget if budget is not None else StepBudget(what="reduction")
    rows = [_Row(b, order) for b in basis if b]
    return _reduce_terms(p, rows, order, budget)[0]


def stabilize(first: Sequence[Polynomial],
              step: Callable[[list[Polynomial]], list[Polynomial]], cap: int,
              budget: StepBudget, order: MonomialOrder = GREVLEX
              ) -> tuple[list[Polynomial], Optional[list[tuple[list[Polynomial],
                                                                list[Polynomial]]]]]:
    """Grow the ideal of the generators ``first`` until ``step`` adds nothing.

    Round 0 is ``first``; round k+1 is ``step`` of the generators round k
    kept.  Each round's generators are reduced in turn on one incremental
    Groebner basis, completed after every generator it takes in.  A
    non-member of the ideal of the generators kept so far is kept, and
    enters the basis through that same reduction.  A member h gets the
    record (g_0..g_{m-1} followed by h, cofactors c) with
    h = sum_i c_i g_i over the m generators kept before it, checked to
    recombine exactly.  The ideal is closed under ``step`` once a round
    keeps nothing; the ascending chain condition makes that happen.

    Returns (kept generators, records) when a round up to ``cap`` kept
    nothing, and (kept generators, None) when round ``cap`` still kept one.
    ``first`` must not be empty.  Budget exhaustion raises ResourceError.
    """
    state = BuchbergerState(first[0].table, order, budget)
    records = []
    gens = first
    for round_ in range(cap + 1):
        if round_:
            gens = step(new)
        new = []
        for h in gens:
            rem, steps = state._reduce(h)
            if rem:
                state._add_reduced(h, rem, steps)
                state.complete()
                new.append(h)
            else:
                cofs = state._witness(steps)
                _assert_recombines(h, cofs, state.gens)
                records.append((state.gens + [h], cofs))
        if not new:
            return state.gens, records
    return state.gens, None


def rank(p: Polynomial, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP,
         order: MonomialOrder = GREVLEX,
         step_budget: Optional[int] = None) -> RankResult:
    """Smallest N >= 1 with L^N p in <p, Lp, ..., L^{N-1}p>, with exact
    cofactors and the chain p, ..., L^{N-1}p: ``stabilize`` from [p] with
    the Lie derivative as the step, so each round holds one generator.

    The zero polynomial has rank 1 with cofactor 0.  Exceeding ``cap``
    raises ResourceError carrying the partial Lie chain.
    """
    if cap < 1:
        raise InputError("rank cap must be >= 1")
    if p.table != sys.table:
        raise InputError("polynomial and system use different variable tables")
    if p.is_zero():
        return RankResult(1, (p,), (p,))
    budget = StepBudget(step_budget if step_budget is not None else DEFAULT_STEP_BUDGET,
                        what="rank")
    chain, records = stabilize([p], lambda gens: [lie_derivative(g, sys) for g in gens],
                               cap, budget, order)
    if records is None:
        raise ResourceError(f"rank cap {cap} exceeded", partial=chain[:cap])
    return RankResult(len(chain), tuple(records[0][1]), tuple(chain))


def differential_radical(p: Polynomial, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP,
                         order: MonomialOrder = GREVLEX,
                         step_budget: Optional[int] = None) -> list[Polynomial]:
    """The chain [L^0 p, ..., L^{N-1} p] whose zero-conjunction is the
    differential radical formula of p."""
    return list(rank(p, sys, cap=cap, order=order, step_budget=step_budget).chain)
