"""The Buchberger engine on exponent-tuple monomials, kept as a test
reference for the packed engine of ``odecert.ideals``.

This is the engine as it was before monomials were packed into ints: rows
keyed by tuples, its own ``grevlex_key`` for every comparison, so that it
shares no order code with the package, ``mono_mul`` / ``mono_div`` /
``mono_divides`` / ``mono_lcm`` for the monomial arithmetic,
S-polynomials by ``Polynomial.mul_term`` and a backward pass over
``Polynomial`` multipliers.  The functions at the end mirror the public
ones of ``odecert.ideals`` on it; both engines must give identical
results.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from odecert.errors import InputError, ResourceError
from odecert.ideals import (DEFAULT_RANK_CAP, GroebnerBasis, MembershipWitness,
                            RankResult, StepBudget, _assert_recombines, stabilize)
from odecert.odecore import OdeSystem, lie_derivative
from odecert.polyarith import (Polynomial, VarTable, mono_div, mono_divides, mono_mul,
                               sum_of_products, within_digit_cap)


def grevlex_key(m: tuple) -> tuple:
    """Sort key of the grevlex order; larger key = larger monomial: the
    higher total degree, then the smaller exponent of the last variable,
    then of the one before it, and so on."""
    return (sum(m), tuple(-e for e in reversed(m)))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def mono_coprime(a: tuple, b: tuple) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class _Row:
    """A basis row (or a reducer of ``reduce_mod``) and how it was made.

    ``poly`` is the monic row: primitive integer numerators over the
    denominator ``lc``, which is also their positive leading coefficient,
    at ``lm``.  ``scale`` is the factor that takes the polynomial the row
    was made from to ``poly``.  ``origin`` is ``("gen", j)`` for a reduced
    generator or ``("pair", i, mi, j, mj)`` for the S-polynomial
    x^mi*rows[i] - x^mj*rows[j]; ``steps`` are the steps of its reduction,
    as ``_reduce_terms`` returns them.  Those records are all a witness
    reads.
    """
    __slots__ = ("poly", "lm", "lc", "origin", "steps", "scale")

    def __init__(self, p: Polynomial, origin=None,
                 steps: Optional[dict[int, list]] = None):
        self.lm = max(p.nums, key=grevlex_key)
        self.scale = Fraction(p.den, p.nums[self.lm])
        self.poly = p.scale(self.scale)
        self.lc = self.poly.den
        self.origin = origin
        self.steps = steps


def _multiplier(table: VarTable, parts: list[tuple]) -> Polynomial:
    """sum of num/den * x^m over the (m, num, den) steps of one reducer."""
    den = lcm(*(d for _, _, d in parts))
    out: dict = {}
    for m, num, d in parts:
        out[m] = out.get(m, 0) + num * (den // d)
    return Polynomial.from_ints(table, {m: v for m, v in out.items() if v}, den)


def _reduce_terms(p: Polynomial, rows: Sequence[_Row],
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
    divided out; a denominator past the digit cap raises ResourceError, so
    coefficient growth ends a reduction instead of running on unbounded.

    Returns (remainder, steps): steps[i] lists the (m, num, den) steps that
    used rows[i], each a multiplier num/den * x^m as an integer numerator
    over that step's denominator, and p equals
    remainder + sum_i _multiplier(steps[i]) * rows[i].poly.  Multipliers are
    built only where a witness needs them.
    """
    key_cache: dict = {}

    def mono_key(m):
        k = key_cache.get(m)
        if k is None:
            k = grevlex_key(m)
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
                    within_digit_cap(den)
                break
        else:
            rem[wm] = wc
            del work[wm]
    return Polynomial.from_ints(p.table, rem, den), steps


class BuchbergerState:
    """Incremental Buchberger engine; generators may be added between runs,
    which is how rank computations warm-start each chain step.

    Reductions are untracked.  Every row records its derivation, and a
    witness is built from those records by one backward pass over just the
    rows a reduction used and the rows they derive from; nothing is cached
    between witnesses.  Once a constant row appears the ideal is <1>: every
    later reduction ends at zero through it, so the pending S-pairs are
    dropped.
    """

    def __init__(self, table: VarTable, budget: Optional[StepBudget] = None):
        self.table = table
        self.budget = budget if budget is not None else StepBudget()
        self.gens: list[Polynomial] = []
        self.rows: list[_Row] = []
        self._pairs: list[tuple] = []  # heap of (lcm_key, i, j)
        self._pending: set[tuple[int, int]] = set()  # the (i, j) in the heap

    # -- internals ---------------------------------------------------------

    def _reduce(self, q: Polynomial) -> tuple[Polynomial, dict[int, list]]:
        """Full reduction modulo the current rows: (remainder, steps)."""
        return _reduce_terms(q, self.rows, self.budget)

    def _push_pairs(self, new_index: int) -> None:
        lm_new = self.rows[new_index].lm
        for i in range(new_index):
            lm_i = self.rows[i].lm
            if mono_coprime(lm_i, lm_new):
                continue  # product criterion
            key = grevlex_key(mono_lcm(lm_i, lm_new))
            heapq.heappush(self._pairs, (key, i, new_index))
            self._pending.add((i, new_index))

    def _append_row(self, rem: Polynomial, origin: tuple,
                    steps: dict[int, list]) -> None:
        row = _Row(rem, origin, steps)
        self.rows.append(row)
        if not any(row.lm):
            self._pairs.clear()  # the unit ideal: no pair can add a row
            self._pending.clear()
        else:
            self._push_pairs(len(self.rows) - 1)

    def _add_reduced(self, g: Polynomial, rem: Polynomial,
                     steps: dict[int, list]) -> None:
        """Add generator g, whose reduction modulo the current rows is given."""
        self.gens.append(g)
        if rem:
            self._append_row(rem, ("gen", len(self.gens) - 1), steps)

    def _witness(self, steps: dict[int, list]) -> list[Polynomial]:
        """Cofactors w.r.t. the generators of sum_k multiplier_k * rows[k]
        for the multipliers of a reduction's steps, in one backward pass
        over the derivation records (reverse accumulation).

        Each row used gets one coefficient; the reducers start with their
        multipliers.  A row with coefficient a and scale s is
        s * (its origin - sum_k multiplier_k * rows[k]) over the rows k that
        reduced it, so it sends a * -s*multiplier_k to each such row k, and
        a * s*x^mi and a * -s*x^mj to the rows i and j of its S-pair, or
        gives a*s to its generator as the cofactor.  A row is made after
        every row it comes from, so by decreasing index each coefficient is
        summed once, after all it receives.
        """
        rows, table = self.rows, self.table
        one = Polynomial.one(table)
        sent = {k: [(_multiplier(table, parts), one)] for k, parts in steps.items()}
        cofs = [Polynomial.zero(table)] * len(self.gens)
        for r in range(max(sent, default=-1), -1, -1):
            incoming = sent.pop(r, None)
            if incoming is None:
                continue
            a = sum_of_products(table, incoming)
            if not a:
                continue
            row = rows[r]
            s = row.scale
            for k, parts in row.steps.items():
                sent.setdefault(k, []).append((a, _multiplier(table, parts).scale(-s)))
            if row.origin[0] == "gen":
                cofs[row.origin[1]] = a.scale(s)
            else:
                # the rows are monic: the S-polynomial is x^mi*rows[i] - x^mj*rows[j]
                _, i, mi, j, mj = row.origin
                sent.setdefault(i, []).append((a, one.mul_term(s, mi)))
                sent.setdefault(j, []).append((a, one.mul_term(-s, mj)))
        return cofs

    # -- public ------------------------------------------------------------

    def add_generator(self, g: Polynomial) -> None:
        if g.table != self.table:
            raise InputError("generator over a different variable table")
        self._add_reduced(g, *self._reduce(g))

    def complete(self) -> None:
        """Run Buchberger's loop to quiescence (normal strategy).

        Chain criterion: a popped pair (i, j) is skipped when some other
        row k has lm_k | lcm(lm_i, lm_j) and neither (i, k) nor (j, k) is
        still pending; both have then been treated (or were never needed),
        so S(i, j) has a standard representation through them.  A skip
        rests only on pairs popped before it, never on a later one.
        """
        rows, pending = self.rows, self._pending
        while self._pairs:
            _, i, j = heapq.heappop(self._pairs)
            pending.discard((i, j))
            fi, fj = rows[i], rows[j]
            lcm_ij = mono_lcm(fi.lm, fj.lm)
            if any(k != i and k != j and mono_divides(rk.lm, lcm_ij)
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k, rk in enumerate(rows)):
                continue
            mi, mj = mono_div(lcm_ij, fi.lm), mono_div(lcm_ij, fj.lm)
            s = fi.poly.mul_term(1, mi) - fj.poly.mul_term(1, mj)
            self.budget.spend()
            rem, steps = _reduce_terms(s, rows, self.budget)
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
        kept: list[_Row] = []
        for row in sorted(self.rows, key=lambda r: grevlex_key(r.lm)):
            if not any(mono_divides(k.lm, row.lm) for k in kept):
                kept.append(row)
        for idx, row in enumerate(kept):
            others = kept[:idx] + kept[idx + 1:]
            kept[idx] = _Row(_reduce_terms(row.poly, others, self.budget)[0])
        return GroebnerBasis(basis=tuple(r.poly for r in kept))


def groebner(gens: Sequence[Polynomial]) -> GroebnerBasis:
    state = BuchbergerState(gens[0].table)
    for g in gens:
        state.add_generator(g)
    state.complete()
    return state.reduced_basis()


def member_with_witness(p: Polynomial, gens: Sequence[Polynomial]
                        ) -> Optional[MembershipWitness]:
    state = BuchbergerState(gens[0].table)
    for g in gens:
        state.add_generator(g)
    state.complete()
    rem, steps = state._reduce(p)
    if rem:
        return None
    cofs = state._witness(steps)
    _assert_recombines(p, cofs, state.gens)
    return MembershipWitness(tuple(cofs))


def reduce_mod(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    rows = [_Row(b) for b in basis if b]
    return _reduce_terms(p, rows, StepBudget(what="reduction"))[0]


def _groebner_member(table: VarTable, budget: StepBudget):
    state = BuchbergerState(table, budget)

    def member(kept, h):
        rem, steps = state._reduce(h)
        if rem:
            state._add_reduced(h, rem, steps)
            state.complete()
            return None
        cofs = state._witness(steps)
        _assert_recombines(h, cofs, state.gens)
        return cofs

    return member


def rank(p: Polynomial, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP) -> RankResult:
    if p.is_zero():
        return RankResult(1, (p,), (p,))
    budget = StepBudget(what="rank")
    chain, records = stabilize([p], lambda gens: [lie_derivative(g, sys) for g in gens],
                               cap, budget, _groebner_member(p.table, budget))
    if records is None:
        raise ResourceError(f"rank cap {cap} exceeded", partial=chain[:cap])
    return RankResult(len(chain), tuple(records[0][1]), tuple(chain))
