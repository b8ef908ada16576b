"""The algebraic hybrid-program fragment and its box reduction.

Programs are built from assignments, disequational tests ?r!=0, ODEs with
optional disequational domains, choice, sequence, and loops.  For a
polynomial postcondition p, ``reduce_box`` computes a polynomial q with
[program] p=0 equivalent to q=0 pointwise.

Box distributes over conjunction, so the reduction maps a list of
generators, whose common zero set is the postcondition, to a list: an
assignment substitutes into each generator, a test multiplies each by r,
an ODE node replaces each by its cofactor-free rank chain (each element
times r under a domain r != 0), a choice concatenates the lists of its
branches and a sequence composes; ODE and choice nodes keep each distinct
generator once.
A loop runs ``ideals.stabilize`` from its list, with the body's reduction
as the step: only the generators that are not yet members of the ideal go
through the body again, and the loop ends when every generator of the next
list is a member; each member's witness is recorded, and all loops of one
reduction spend one step budget.  The decider tests membership on a
Groebner basis; the certificate check replays the same walk and takes
each membership from the certificate's recombination-checked records
instead, so it builds no basis for a loop.  The program's list starts as
[p], and q is formed once, from the final list: its lone nonzero
generator, or the sum of the squares of its nonzero generators.  Chains
of ``;`` and of ``++`` are walked without recursion, and a list of more
than ``MAX_GENERATORS`` distinct generators is a resource error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .errors import InputError, ResourceError
from .ideals import (DEFAULT_RANK_CAP, DEFAULT_STEP_BUDGET, ChainRecord, StepBudget,
                     differential_radical, member_with_witness, stabilize)
from .odecore import OdeSystem
from .polyarith import Polynomial, sum_of_squares


# -- program syntax ----------------------------------------------------------

@dataclass(frozen=True)
class Assign:
    var: int
    expr: Polynomial


@dataclass(frozen=True)
class Test:
    """?r != 0 (tests are negations of algebraic formulas)."""
    r: Polynomial


@dataclass(frozen=True)
class Ode:
    sys: OdeSystem
    r: Optional[Polynomial] = None  # evolution domain r != 0; None means true


@dataclass(frozen=True)
class Choice:
    left: "HybridProgram"
    right: "HybridProgram"


@dataclass(frozen=True)
class Seq:
    first: "HybridProgram"
    second: "HybridProgram"


@dataclass(frozen=True)
class Star:
    body: "HybridProgram"


HybridProgram = object  # union of the six node kinds

# most generators one list may hold: a sequence of k choices can make
# about 1.7^k distinct ones, which no degree cap bounds
MAX_GENERATORS = 4096


def _operands(alpha: HybridProgram) -> list[HybridProgram]:
    """[a_0, a_1, ..., a_n] for alpha = K(...K(K(a_0, a_1), a_2)..., a_n),
    where K is alpha's kind (Seq or Choice): the left-nested tree that the
    parser builds for a_0 ; a_1 ; ... ; a_n (or ++), walked without
    recursion."""
    kind, rights = type(alpha), []
    while type(alpha) is kind:
        if kind is Seq:
            alpha, right = alpha.first, alpha.second
        else:
            alpha, right = alpha.left, alpha.right
        rights.append(right)
    return [alpha] + rights[::-1]


def render_program(alpha: HybridProgram) -> str:
    """Concrete syntax; round-trips through the parser."""
    def prec(a) -> int:
        if isinstance(a, Choice):
            return 0
        if isinstance(a, Seq):
            return 1
        return 2

    def wrap(a, level: int) -> str:
        s = go(a)
        return "{ " + s + " }" if prec(a) < level else s

    def go(a) -> str:
        if isinstance(a, Assign):
            return f"{a.expr.table.name(a.var)} := {a.expr.render()}"
        if isinstance(a, Test):
            return f"? {a.r.render()} != 0"
        if isinstance(a, Ode):
            body = a.sys.render()
            if a.r is not None:
                body += f" & {a.r.render()} != 0"
            return "{ " + body + " }"
        if isinstance(a, Choice):
            return " ++ ".join(wrap(b, 1) for b in _operands(a))
        if isinstance(a, Seq):
            return " ; ".join(wrap(b, 2) for b in _operands(a))
        if isinstance(a, Star):
            return "{ " + go(a.body) + " }*"
        raise InputError(f"not a hybrid program: {type(a).__name__}")

    return go(alpha)


# -- reduction ---------------------------------------------------------------

@dataclass
class ReductionTrace:
    """What ``reduce_box`` derived.

    ``generators`` vanish together exactly where [alpha] p=0 holds.
    ``chain`` lists the generators the loops kept, in the order kept, and
    ``witness`` one ``ideals.ChainRecord`` (chain, cofactors) per loop
    member, as ``stabilize`` made it, in the order first met; a record met
    more than once is listed once.  Both are None for a program without
    loops.
    A loop past the cap raises ResourceError carrying the trace so far: its
    ``chain`` ends with the generators that loop kept, which are also its
    ``generators``, and its ``witness`` is None.
    """
    generators: list[Polynomial]
    chain: Optional[list[Polynomial]] = None
    witness: Optional[list[ChainRecord]] = None


def _distinct(gens) -> list[Polynomial]:
    """The distinct generators of the iterable ``gens`` in first-seen order;
    ResourceError as soon as there are more than ``MAX_GENERATORS``."""
    out: dict[Polynomial, None] = {}
    for g in gens:
        out[g] = None
        if len(out) > MAX_GENERATORS:
            raise ResourceError(f"generator list exceeds the cap {MAX_GENERATORS}")
    return list(out)


def _recorded_member(witnesses: Mapping[tuple, Sequence[Polynomial]],
                     budget: StepBudget) -> Callable:
    """Loop membership read off ``witnesses``, which map a chain
    g_0..g_{k-1}, h to cofactors checked to give h = sum_i c_i g_i: h is a
    member exactly when its loop has kept g_0..g_{k-1}, and is kept
    otherwise.  Each decision spends one budget step.  A loop that has kept
    as many generators as the longest chain can meet no record, and the
    reduction that made the records kept only non-members there (it closed
    on an empty round), so there a member, found on a basis, is a missing
    record and raises InputError, whatever the ``cap``."""
    longest = max(map(len, witnesses), default=0)

    def member(kept: list[Polynomial], h: Polynomial) -> Optional[Sequence[Polynomial]]:
        budget.spend()
        if len(kept) < longest:
            return witnesses.get((*kept, h))
        if member_with_witness(h, kept) if kept else not h:
            raise InputError("a loop member has no record")
        return None

    return member


def reduce_box(alpha: HybridProgram, p: Polynomial, cap: int = DEFAULT_RANK_CAP,
               witnesses: Optional[Mapping[tuple, Sequence[Polynomial]]] = None
               ) -> tuple[Polynomial, ReductionTrace]:
    """Polynomial q with [alpha] p=0 equivalent to q=0 pointwise.

    ``cap`` bounds both ODE ranks and the rounds of each loop; exceeding it
    raises ResourceError carrying the partial trace.  All loops, nested ones
    included, spend one step budget of ``DEFAULT_STEP_BUDGET`` reduction
    steps, so an inner loop that reruns for every round of an outer one
    cannot run unbounded.  With ``witnesses`` (a record's chain mapped to
    its checked cofactors), loops look memberships up instead of testing
    them on a Groebner basis.
    """
    budget = StepBudget(DEFAULT_STEP_BUDGET, "loop chain")
    member = None if witnesses is None else _recorded_member(witnesses, budget)
    kept: list[Polynomial] = []
    records: list[ChainRecord] = []

    def box(a: HybridProgram, gens: list[Polynomial]) -> list[Polynomial]:
        if isinstance(a, Assign):
            return [g.substitute({a.var: a.expr}) for g in gens]
        if isinstance(a, Test):
            return [a.r * g for g in gens]
        if isinstance(a, Ode):
            chains = (differential_radical(g, a.sys, cap=cap) for g in gens)
            return _distinct(c if a.r is None else a.r * c for chain in chains for c in chain)
        if isinstance(a, Choice):
            return _distinct(g for b in _operands(a) for g in box(b, gens))
        if isinstance(a, Seq):
            for b in reversed(_operands(a)):
                gens = box(b, gens)
            return gens
        if isinstance(a, Star):
            if not gens:
                return gens
            loop_kept, members = stabilize(gens, lambda new: box(a.body, new), cap, budget,
                                           member=member)
            kept.extend(loop_kept)
            if members is None:
                raise ResourceError(f"loop chain cap {cap} exceeded",
                                    partial=ReductionTrace(loop_kept, kept))
            records.extend(members)
            return loop_kept
        raise InputError(f"not a hybrid program: {type(a).__name__}")

    gens = box(alpha, [p])
    q = sum_of_squares(p.table, gens)
    loops = bool(kept or records)
    return q, ReductionTrace(gens, kept if loops else None,
                             list(dict.fromkeys(records)) if loops else None)

