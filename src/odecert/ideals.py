"""Groebner bases with membership witnesses, rank, and differential radicals.

Buchberger's algorithm runs under grevlex, the package's one monomial
order, with the normal selection strategy (smallest S-pair lcm, ties by
pair index) and two criteria that skip S-pairs the basis does not need:
the product criterion (coprime leading monomials) when pairs are made,
and Buchberger's chain criterion when a pair is popped (another row's
leading monomial divides the lcm and its pairs with both rows are no
longer pending).  A skipped pair builds no
S-polynomial and spends no budget step.  Reductions run untracked; each
basis row keeps a derivation record instead: the generator or S-pair it
came from, the steps of its reduction and its monic scale.  S-pairs that
reduce to zero leave no record.  A witness is one linear combination of
rows, so it is built by reverse accumulation over those records: one
backward pass from the rows the final reduction used, through the rows
they derive from, to exact cofactors of the original generators.  Those
cofactors are what the certificates replay; each one returned is first
checked to recombine to the queried polynomial exactly.  Witnesses come
with membership answers (``member_with_witness``,
``normal_form_with_witness``) and with the chains of ``stabilize``, for
rank and for loops; ``groebner`` returns the reduced basis alone, and
``differential_radical`` the rank chain alone: neither builds a cofactor.
Once the basis of a chain without cofactors holds a constant row, the
ideal is <1> and holds every polynomial, so its next membership is
answered with no reduction.

The engine computes on ``Polynomial``'s own integer form (numerators over
one common denominator) and builds no ``Fraction``: a row's scale, too,
is two integers.  A monic row is a map of numerators, primitive over the
denominator ``lc``, their leading one.  A reduction updates a map of
numerators in place, taking fraction-free steps and removing the content
whenever the denominator grows; it picks the same reducer and monomial,
and so reaches the same exact remainder and multipliers, as a reduction
in ``Fraction`` would, and a denominator past the digit cap ends it with
``ResourceError``.  It returns its steps raw: a multiplier is built only
when a witness is, so S-pairs that reduce to zero and reductions without
a witness never build one.  S-polynomials are built from two monic rows
over the lcm of their denominators, and each coefficient of the backward
pass is a map of numerators summed over one denominator.

Inside the engine a monomial is one int (``_Codec``, one per variable
count, built on first use).  Its fields, 31 bits and a guard bit each,
hold first the partial sums e1+...+en, ..., e1+e2, e1 and then the
exponents.  Integer comparison is grevlex, so the leading term is ``max``
with no key and the S-pair heap is keyed by the packed lcm; a product of
monomials is ``+``, a quotient is ``-``, and divisibility is a
subtraction and a guard-bit test.  Data is packed where it enters
(generators, queried polynomials, the basis of ``reduce_mod``) and
unpacked where it leaves (remainders, reduced bases, cofactors).  No
field may pass 2^31 - 1.  Every field is at most the total degree, so
packing checks that; lcms are packed from exponent tuples, and the
backward pass checks every sum.  A reduction step or an S-polynomial
reaches no degree above the monomial or lcm it starts from (see
``_reduce_terms``), so it needs no check of its own.  Past the cap the
computation ends with ``ResourceError``, never with a wrapped field.  The
recombination check of every witness stays on ``Polynomial`` arithmetic
with exponent tuples, so it shares none of the engine's monomial
arithmetic.

``stabilize`` is the one ascending-chain loop.  It grows the ideal of a
list of generators: each round maps the generators the last round kept to
a new list, keeps those that are not yet members and records a membership
witness, a ``ChainRecord``, for every one that is, until a round keeps
nothing; the ``hpreduce`` certificate carries those records as they are.
Membership is an argument: by default a test on a single incremental
basis, while the ``hpreduce`` certificate check looks each one up in the
certificate's records.  ``rank`` is its one-generator case, with the Lie
derivative as the step, and returns the chain it grew; the rank replay of
DRI certificates runs that case too, and the loop rule of ``hpreduce``
runs it with the loop body's reduction of a generator list as the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
import heapq
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InputError, ResourceError
from .odecore import OdeSystem, lie_derivative
from .polyarith import (Polynomial, VarTable, check_term_products, sum_of_products,
                        within_digit_cap)

DEFAULT_STEP_BUDGET = 400_000
DEFAULT_RANK_CAP = 20


class StepBudget:
    """Mutable countdown shared across one computation."""

    __slots__ = ("remaining", "what")

    def __init__(self, steps: int = DEFAULT_STEP_BUDGET, what: str = "groebner"):
        self.remaining = steps
        self.what = what

    def spend(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise ResourceError(f"{self.what} step budget exhausted")


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, inter-reduced, in increasing grevlex
    order of leading monomial."""
    basis: tuple[Polynomial, ...]

    def render(self) -> str:
        """Diagnostic dump, one canonical polynomial per line."""
        if not self.basis:
            return "<empty basis>"
        return "\n".join(b.render() for b in self.basis)


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


class ChainRecord(NamedTuple):
    """A member h of a ``stabilize`` run: ``chain`` is the generators
    g_0..g_{k-1} kept before h, then h, and h = sum_{i<k} cofactors[i] * g_i."""
    chain: tuple[Polynomial, ...]
    cofactors: tuple[Polynomial, ...]


# bits per packed field: 31 value bits and a guard bit above them
_FIELD_BITS = 32
_FIELD_MAX = (1 << (_FIELD_BITS - 1)) - 1
_OVERFLOW = f"a monomial's degree or exponent exceeds the packed field cap {_FIELD_MAX}"


class _Codec:
    """Monomials of one variable count packed into ints (see the module
    docstring).  Packing is linear, x^e to sum_i e_i * units[i]; its
    largest field is the total degree."""
    __slots__ = ("units", "shifts", "guard")

    def __init__(self, n: int):
        # lowest first: the exponents e_n, ..., e1, then the partial sums
        # e1, e1+e2, ..., up to the total degree in the highest field
        fields = [(i,) for i in reversed(range(n))] + [tuple(range(k + 1)) for k in range(n)]
        self.units = tuple(sum(1 << _FIELD_BITS * f for f, vs in enumerate(fields) if i in vs)
                           for i in range(n))
        self.shifts = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        self.guard = sum(1 << _FIELD_BITS * (f + 1) - 1 for f in range(len(fields)))

    def pack(self, m: tuple) -> int:
        if sum(m) > _FIELD_MAX:
            raise ResourceError(_OVERFLOW)
        return sum(map(mul, m, self.units))

    def unpack(self, k: int) -> tuple:
        return tuple([(k >> s) & _FIELD_MAX for s in self.shifts])

    def pack_map(self, nums: dict) -> dict:
        pack = self.pack
        return {pack(m): v for m, v in nums.items()}

    def unpack_map(self, nums: dict) -> dict:
        unpack = self.unpack
        return {unpack(m): v for m, v in nums.items()}


_codec = cache(_Codec)


class _Row:
    """A basis row (or a reducer of ``reduce_mod``) and how it was made.

    ``nums`` maps packed monomials to the row's primitive integer
    numerators, whose leading one, at ``lm``, is the positive ``lc``: the
    monic row is nums / lc.  ``scale`` is the factor that takes the
    polynomial the row was made from (numerators over a denominator) to
    the monic row, kept as the integers (den, lead) of ``_scale``.
    ``origin`` is ``("gen", j)`` for a reduced generator
    or ``("pair", i, mi, j, mj)`` for the S-polynomial
    x^mi*rows[i] - x^mj*rows[j]; ``steps`` are the steps of its reduction,
    as ``_reduce_terms`` returns them.  Those records are all a witness
    reads.
    """
    __slots__ = ("nums", "lm", "lc", "origin", "steps", "_scale")

    def __init__(self, nums: dict, den: int, origin=None,
                 steps: Optional[dict[int, list]] = None):
        lm = max(nums)
        lead = nums[lm]
        g = gcd(*nums.values()) * (-1 if lead < 0 else 1)
        self.nums = nums if g == 1 else {m: v // g for m, v in nums.items()}
        self.lm = lm
        self.lc = lead // g
        self._scale = (den, lead)
        self.origin = origin
        self.steps = steps

    @property
    def scale(self) -> Fraction:
        return Fraction(*self._scale)

    @scale.setter
    def scale(self, value: Fraction) -> None:
        self._scale = (value.numerator, value.denominator)


def _reduce_terms(work: dict, den: int, rows: Sequence[_Row], guard: int,
                  budget: StepBudget) -> tuple[dict, int, dict[int, list]]:
    """Fully reduce work / den against ``rows``, fraction-free.

    ``work`` maps packed monomials to integer numerators and is updated in
    place.  Each step takes its leading term wc*x^w and the first row R / a
    (R the row's numerators, a > 0 its leading one) whose leading monomial
    divides x^w, with x^m = x^w / lm(R) and g = gcd(wc, a), and sets
    work <- (a/g)*work - (wc/g)*x^m*R,  den <- (a/g)*den.  That subtracts
    the same multiple of the monic row as a rational step would, so
    remainder and multipliers are the same exact rationals.  Whenever the
    denominator grows, the content common to it and to every coefficient
    of the working map and of the remainder is divided out; a denominator
    past the digit cap raises ResourceError, so coefficient growth ends a
    reduction instead of running on unbounded.

    No step can pass the packed fields, so none is checked.  Each field is
    a sum of exponents, so it is at most the total degree.  A grevlex
    leading monomial carries its row's largest degree, so x^m times the
    row reaches no degree above that of x^w, which is at most the largest
    degree of the input; and the input was packed, or is an S-polynomial
    whose lcm was, and ``pack`` checked that degree.

    Returns (remainder, its denominator, steps): steps[i] lists the
    (m, num, den) steps that used rows[i], each a multiplier num/den * x^m
    as an integer numerator over that step's denominator, and the input
    equals remainder + sum_i multiplier_i * rows[i].  Multipliers are
    built only where a witness needs them.
    """
    rem: dict = {}
    steps: dict[int, list] = {}
    low = min([row.lm for row in rows], default=0)
    while work:
        wm = max(work)
        if wm < low:  # below every leading monomial: no row divides the rest
            rem.update(work)
            break
        wc = work[wm]
        for ridx, row in enumerate(rows):
            m = wm - row.lm
            if m & guard:
                continue
            a = row.lc
            g = gcd(wc, a)
            f, c = a // g, wc // g
            if f != 1:
                work = {mm: v * f for mm, v in work.items()}
                rem = {mm: v * f for mm, v in rem.items()}
                den *= f
            for m0, c0 in row.nums.items():
                mm = m0 + m
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
    return rem, den, steps


def _lowest_terms(nums: dict, den: int) -> tuple[dict, int]:
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            return {m: v // g for m, v in nums.items()}, den // g
    return nums, den


def _multiplier(parts: list[tuple]) -> tuple[dict, int]:
    """sum of num/den * x^m over the (m, num, den) steps of one reducer, as
    integer numerators over one denominator."""
    if len(parts) == 1:  # most reducers take one step
        m, num, den = parts[0]
        return {m: num}, den
    den = lcm(*(d for _, _, d in parts))
    out: dict = {}
    for m, num, d in parts:
        out[m] = out.get(m, 0) + num * (den // d)
    return {m: v for m, v in out.items() if v}, den


def _ip_sum(pairs, guard: int) -> tuple[dict, int]:
    """sum of a * b over pairs of (numerators, denominator) with packed
    monomials, over one denominator, in lowest terms.  The term cap is
    ``sum_of_products``'s; a product past the packed fields raises
    ResourceError (its field still holds the sum, with the guard bit set)."""
    pairs = [(a, b) for a, b in pairs if a[0] and b[0]]
    den = lcm(*(a[1] * b[1] for a, b in pairs))
    res: dict = {}
    get = res.get
    products = 0
    for (an, ad), (bn, bd) in pairs:
        products += len(an) * len(bn)
        check_term_products(products)
        f = den // (ad * bd)
        if len(bn) == 1:  # a row's multiplier or monomial: most b are one term
            (m2, c2), = bn.items()
            c2 *= f
            for m1, c1 in an.items():
                m = m1 + m2
                res[m] = get(m, 0) + c1 * c2
            continue
        bi = bn.items()
        for m1, c1 in an.items():
            c1 *= f
            for m2, c2 in bi:
                m = m1 + m2
                res[m] = get(m, 0) + c1 * c2
    nums = {m: v for m, v in res.items() if v}
    if any(m & guard for m in nums):
        raise ResourceError(_OVERFLOW)
    return _lowest_terms(nums, den)


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
        self.codec = _codec(len(table))
        self.budget = budget if budget is not None else StepBudget()
        self.gens: list[Polynomial] = []
        self.rows: list[_Row] = []
        self._lms: list[tuple] = []  # the rows' leading monomials, unpacked
        self._pairs: list[tuple] = []  # heap of (packed lcm, i, j)
        self._pending: set[tuple[int, int]] = set()  # the (i, j) in the heap

    # -- internals ---------------------------------------------------------

    def _reduce(self, q: Polynomial) -> tuple[dict, int, dict[int, list]]:
        """Full reduction modulo the current rows: (packed remainder, its
        denominator, steps)."""
        return _reduce_terms(self.codec.pack_map(q.nums), q.den, self.rows,
                             self.codec.guard, self.budget)

    def _poly(self, nums: dict, den: int) -> Polynomial:
        return Polynomial.from_ints(self.table, self.codec.unpack_map(nums), den)

    def _push_pairs(self, new_index: int) -> None:
        pack, lms, pairs, pending = self.codec.pack, self._lms, self._pairs, self._pending
        lm_new = lms[new_index]
        for i in range(new_index):
            lm = lms[i]
            if not any(map(min, lm, lm_new)):
                continue  # product criterion: coprime leading monomials
            heapq.heappush(pairs, (pack(tuple(map(max, lm, lm_new))), i, new_index))
            pending.add((i, new_index))

    def _add_reduced(self, g: Polynomial, rem: dict, den: int,
                     steps: dict[int, list]) -> None:
        """Add generator g, whose reduction modulo the current rows is given."""
        self.gens.append(g)
        if rem:
            row = _Row(rem, den, ("gen", len(self.gens) - 1), steps)
            self._append_row(row)

    def _append_row(self, row: _Row) -> None:
        self.rows.append(row)
        self._lms.append(self.codec.unpack(row.lm))
        if not row.lm:
            self._pairs.clear()  # the unit ideal: no pair can add a row
            self._pending.clear()
        else:
            self._push_pairs(len(self.rows) - 1)

    def _witness(self, steps: dict[int, list]) -> list[Polynomial]:
        """Cofactors w.r.t. the generators of sum_k multiplier_k * rows[k]
        for the multipliers of a reduction's steps, in one backward pass
        over the derivation records (reverse accumulation).

        Each row used gets one coefficient a; the reducers start with their
        multipliers.  A row with scale s is s * (its origin - sum_k
        multiplier_k * rows[k]) over the rows k that reduced it, so with
        b = a*s it sends -b * multiplier_k to each such row k, and b * x^mi
        and -b * x^mj to the rows i and j of its S-pair, or gives b to its
        generator as the cofactor.  A row is made after every row it comes
        from, so by decreasing index each coefficient is summed once, after
        all it receives.  Coefficients are integer numerators over one
        denominator with packed monomials; only the cofactors are unpacked.
        """
        rows, guard = self.rows, self.codec.guard
        one = ({0: 1}, 1)
        sent = {k: [(_multiplier(parts), one)] for k, parts in steps.items()}
        cofs = [Polynomial.zero(self.table)] * len(self.gens)
        for r in range(max(sent, default=-1), -1, -1):
            incoming = sent.pop(r, None)
            if incoming is None:
                continue
            nums, den = _ip_sum(incoming, guard)
            if not nums:
                continue
            row = rows[r]
            p, q = row._scale  # the scale p/q, in lowest terms with q > 0
            g = gcd(p, q) if q > 0 else -gcd(p, q)
            p, q = p // g, q // g
            b = ({m: v * p for m, v in nums.items()}, den * q)
            minus_b = ({m: -v for m, v in b[0].items()}, b[1])
            for k, parts in row.steps.items():
                sent.setdefault(k, []).append((minus_b, _multiplier(parts)))
            if row.origin[0] == "gen":
                cofs[row.origin[1]] = self._poly(*b)
            else:
                # the rows are monic: the S-polynomial is x^mi*rows[i] - x^mj*rows[j]
                _, i, mi, j, mj = row.origin
                sent.setdefault(i, []).append((b, ({mi: 1}, 1)))
                sent.setdefault(j, []).append((minus_b, ({mj: 1}, 1)))
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
        rests only on pairs popped before it, never on a later one.  The
        S-polynomial x^mi*R_i/a_i - x^mj*R_j/a_j is built over the
        denominator lcm(a_i, a_j), in lowest terms.
        """
        rows, pending, guard = self.rows, self._pending, self.codec.guard
        while self._pairs:
            lcm_ij, i, j = heapq.heappop(self._pairs)
            pending.discard((i, j))
            for k, rk in enumerate(rows):
                if not (lcm_ij - rk.lm) & guard and k != i and k != j \
                        and ((k, i) if k < i else (i, k)) not in pending \
                        and ((k, j) if k < j else (j, k)) not in pending:
                    break  # the chain criterion skips the pair
            else:
                fi, fj = rows[i], rows[j]
                mi, mj = lcm_ij - fi.lm, lcm_ij - fj.lm
                den = lcm(fi.lc, fj.lc)
                ci, cj = den // fi.lc, den // fj.lc
                s = {m0 + mi: v * ci for m0, v in fi.nums.items()}
                for m0, v in fj.nums.items():
                    mm = m0 + mj
                    t = s.get(mm, 0) - v * cj
                    if t:
                        s[mm] = t
                    else:
                        del s[mm]
                self.budget.spend()
                rem, den, steps = _reduce_terms(*_lowest_terms(s, den), rows, guard, self.budget)
                if rem:
                    self._append_row(_Row(rem, den, ("pair", i, mi, j, mj), steps))

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical remainder of p modulo the current basis (no witness)."""
        return self._poly(*self._reduce(p)[:2])

    def normal_form_with_witness(self, p: Polynomial) -> tuple[Polynomial, list[Polynomial]]:
        """Reduce p; returns (remainder, cofactors w.r.t. the generators) with
        p == remainder + sum cofactors[j]*generators[j]."""
        rem, den, steps = self._reduce(p)
        return self._poly(rem, den), self._witness(steps)

    def reduced_basis(self) -> GroebnerBasis:
        """Inter-reduced, monic, deterministic view of the current basis."""
        guard = self.codec.guard
        kept: list[_Row] = []
        for row in sorted(self.rows, key=lambda r: r.lm):
            if all((row.lm - k.lm) & guard for k in kept):
                kept.append(row)
        for idx, row in enumerate(kept):
            others = kept[:idx] + kept[idx + 1:]
            rem, den, _ = _reduce_terms(dict(row.nums), row.lc, others, guard, self.budget)
            kept[idx] = _Row(rem, den)
        return GroebnerBasis(basis=tuple(self._poly(r.nums, r.lc) for r in kept))


def _completed(gens: Sequence[Polynomial], step_budget: Optional[int],
               what: str) -> BuchbergerState:
    """A Buchberger state completed on ``gens``, spending a budget of
    ``step_budget`` steps labelled ``what``."""
    if len(gens) == 0:
        raise InputError(f"{what} needs at least one generator")
    budget = StepBudget(step_budget if step_budget is not None else DEFAULT_STEP_BUDGET, what)
    state = BuchbergerState(gens[0].table, budget)
    for g in gens:
        state.add_generator(g)
    state.complete()
    return state


def groebner(gens: Sequence[Polynomial], step_budget: Optional[int] = None) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the ideal generated by ``gens``.

    Deterministic for a fixed generator order.  An all-zero generator list
    is allowed (the zero ideal; empty basis).
    """
    return _completed(gens, step_budget, "groebner").reduced_basis()


def member_with_witness(p: Polynomial, gens: Sequence[Polynomial],
                        step_budget: Optional[int] = None) -> Optional[MembershipWitness]:
    """Exact cofactors for p in <gens>, or None when p is not a member.

    Budget exhaustion raises ResourceError (distinct from None).
    """
    state = _completed(gens, step_budget, "membership")
    rem, _, steps = state._reduce(p)
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
               budget: Optional[StepBudget] = None) -> Polynomial:
    """Normal form of p modulo an (assumed Groebner) basis, without witness
    tracking.  With a genuine Groebner basis the result is canonical, so a
    zero remainder decides ideal membership.  A basis element is packed
    into its reducer row on first use, and keeps it."""
    if any(b.table != p.table for b in basis):
        raise InputError("polynomial and basis use different variable tables")
    budget = budget if budget is not None else StepBudget(what="reduction")
    codec = _codec(len(p.table))
    rows = [_reducer(b) for b in basis if b]
    rem, den, _ = _reduce_terms(codec.pack_map(p.nums), p.den, rows, codec.guard, budget)
    return Polynomial.from_ints(p.table, codec.unpack_map(rem), den)


def _reducer(b: Polynomial) -> _Row:
    """The reducer row of a nonzero b, cached on b."""
    try:
        return b._row
    except AttributeError:
        b._row = _Row(_codec(len(b.table)).pack_map(b.nums), b.den)
        return b._row


def _groebner_member(table: VarTable, budget: StepBudget,
                     witness: bool = True) -> Callable:
    """Membership on one incremental Groebner basis: a remainder sends h
    into the basis, which is completed at once, so every h this returns
    None for must be kept; a zero remainder gives cofactors of h, checked
    to recombine exactly, or, without ``witness``, ``()``, which a basis
    with a constant row (the last row, as it clears the pairs) gives with
    no reduction: <1> holds every h."""
    state = BuchbergerState(table, budget)
    rows = state.rows

    def member(kept: list[Polynomial], h: Polynomial) -> Optional[Sequence[Polynomial]]:
        if not witness and rows and not rows[-1].lm:
            return ()
        rem, den, steps = state._reduce(h)
        if rem:
            state._add_reduced(h, rem, den, steps)
            state.complete()
            return None
        if not witness:
            return ()
        cofs = state._witness(steps)
        _assert_recombines(h, cofs, state.gens)
        return cofs

    return member


def stabilize(first: Sequence[Polynomial],
              step: Callable[[list[Polynomial]], list[Polynomial]], cap: int,
              budget: StepBudget, member: Optional[Callable] = None
              ) -> tuple[list[Polynomial], Optional[list[ChainRecord]]]:
    """Grow the ideal of the generators ``first`` until ``step`` adds nothing.

    Round 0 is ``first``; round k+1 is ``step`` of the generators round k
    kept.  Each round's generators are decided in turn by
    ``member(kept, h)``: None when h is not in the ideal of the m generators
    g_0..g_{m-1} kept so far, and h is then kept; any other value c marks h
    as a member and gives it the record ``ChainRecord((g_0, ..., h), c)``.
    The default decision, a Groebner test on one incremental basis that
    spends ``budget``, gives cofactors with h = sum_i c_i g_i.  The ideal is
    closed under ``step`` once a round keeps nothing; the ascending chain
    condition makes that happen.

    Returns (kept generators, records) when a round up to ``cap`` kept
    nothing, and (kept generators, None) when round ``cap`` still kept one.
    ``first`` must not be empty.  Budget exhaustion raises ResourceError.
    """
    if member is None:
        member = _groebner_member(first[0].table, budget)
    kept: list[Polynomial] = []
    records = []
    gens = first
    for round_ in range(cap + 1):
        if round_:
            gens = step(new)
        new = []
        for h in gens:
            cofs = member(kept, h)
            if cofs is None:
                kept.append(h)
                new.append(h)
            else:
                records.append(ChainRecord((*kept, h), tuple(cofs)))
        if not new:
            return kept, records
    return kept, None


def _lie_chain(p: Polynomial, sys: OdeSystem, cap: int, step_budget: Optional[int],
               witness: bool) -> tuple[list, list]:
    """``stabilize`` from [p] under the Lie derivative: the chain p, ...,
    L^{N-1}p and its records, the first of which is L^N p's."""
    if cap < 1:
        raise InputError("rank cap must be >= 1")
    if p.table != sys.table:
        raise InputError("polynomial and system use different variable tables")
    if p.is_zero():
        return [p], [ChainRecord((p,), (p,))]
    budget = StepBudget(step_budget if step_budget is not None else DEFAULT_STEP_BUDGET,
                        what="rank")
    chain, records = stabilize([p], lambda gens: [lie_derivative(g, sys) for g in gens],
                               cap, budget, _groebner_member(p.table, budget, witness))
    if records is None:
        raise ResourceError(f"rank cap {cap} exceeded", partial=chain[:cap])
    return chain, records


def rank(p: Polynomial, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP,
         step_budget: Optional[int] = None) -> RankResult:
    """Smallest N >= 1 with L^N p in <p, Lp, ..., L^{N-1}p>, with exact
    cofactors and the chain p, ..., L^{N-1}p: ``stabilize`` from [p] with
    the Lie derivative as the step, so each round holds one generator.

    The zero polynomial has rank 1 with cofactor 0.  Exceeding ``cap``
    raises ResourceError carrying the partial Lie chain.
    """
    chain, records = _lie_chain(p, sys, cap, step_budget, witness=True)
    return RankResult(len(chain), records[0].cofactors, tuple(chain))


def differential_radical(p: Polynomial, sys: OdeSystem,
                         cap: int = DEFAULT_RANK_CAP) -> list[Polynomial]:
    """The chain [L^0 p, ..., L^{N-1} p] whose zero-conjunction is the
    differential radical formula of p: ``rank``'s chain and errors, with no
    cofactor built, as each membership is decided by its remainder alone."""
    return _lie_chain(p, sys, cap, None, witness=False)[0]
