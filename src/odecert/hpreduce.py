"""The algebraic hybrid-program fragment and its box reduction.

Programs are built from assignments, disequational tests ?r!=0, ODEs with
optional disequational domains, choice, sequence, and loops.  For a
polynomial postcondition p, ``reduce_box`` computes a polynomial q with
[program] p=0 equivalent to q=0 pointwise.

Box distributes over conjunction, so the reduction maps a list of
generators, whose common zero set is the postcondition, to a list: an
assignment substitutes into each generator, a test multiplies each by r,
an ODE node replaces each by its rank chain (each element times r under a
domain r != 0), a choice concatenates the lists of its branches and a
sequence composes; ODE and choice nodes keep each distinct generator once.
A loop runs ``ideals.stabilize`` from its list, with the body's reduction
as the step: only the generators that are not yet members of the ideal go
through the body again, and the loop ends when every generator of the next
list is a member; each member's witness is recorded, and all loops of one
reduction spend one step budget.  The program's list starts as [p], and q
is formed once, from the final list: its lone nonzero generator, or the
sum of the squares of its nonzero generators.  Chains of
``;`` and of ``++`` are walked without recursion, and a list of more than
``MAX_GENERATORS`` distinct generators is a resource error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, ResourceError
from .ideals import DEFAULT_RANK_CAP, DEFAULT_STEP_BUDGET, StepBudget, rank, stabilize
from .odecore import OdeSystem
from .polyarith import Polynomial, VarTable, sum_of_products


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


def program_table(alpha: HybridProgram) -> VarTable:
    while isinstance(alpha, (Choice, Seq, Star)):
        alpha = alpha.body if isinstance(alpha, Star) else _operands(alpha)[0]
    if isinstance(alpha, Assign):
        return alpha.expr.table
    if isinstance(alpha, Test):
        return alpha.r.table
    if isinstance(alpha, Ode):
        return alpha.sys.table
    raise InputError(f"not a hybrid program: {type(alpha).__name__}")


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
    ``witness`` has one record (chain, cofactors) per loop member h:
    ``chain`` is the generators g_0..g_{k-1} its loop had kept before h,
    followed by h, and h = sum_{i<k} cofactors[i] * g_i.  A record met more
    than once is listed once.  Both are None for a program without loops.
    A loop past the cap raises ResourceError carrying the trace so far: its
    ``chain`` ends with the generators that loop kept, which are also its
    ``generators``, and its ``witness`` is None.
    """
    generators: list[Polynomial]
    chain: Optional[list[Polynomial]] = None
    witness: Optional[list[tuple[list[Polynomial], list[Polynomial]]]] = None

    def star_chains(self) -> list[tuple[list[Polynomial], list[Polynomial]]]:
        """The loop records, in the order first met."""
        return list(self.witness or ())


def _distinct(gens) -> list[Polynomial]:
    """The distinct generators of the iterable ``gens`` in first-seen order;
    ResourceError as soon as there are more than ``MAX_GENERATORS``."""
    out: dict[Polynomial, None] = {}
    for g in gens:
        out[g] = None
        if len(out) > MAX_GENERATORS:
            raise ResourceError(f"generator list exceeds the cap {MAX_GENERATORS}")
    return list(out)


def reduce_box(alpha: HybridProgram, p: Polynomial,
               cap: int = DEFAULT_RANK_CAP) -> tuple[Polynomial, ReductionTrace]:
    """Polynomial q with [alpha] p=0 equivalent to q=0 pointwise.

    ``cap`` bounds both ODE ranks and the rounds of each loop; exceeding it
    raises ResourceError carrying the partial trace.  All loops, nested ones
    included, spend one step budget of ``DEFAULT_STEP_BUDGET`` reduction
    steps, so an inner loop that reruns for every round of an outer one
    cannot run unbounded.
    """
    budget = StepBudget(DEFAULT_STEP_BUDGET, "loop chain")
    kept: list[Polynomial] = []
    records: dict[tuple, tuple[list[Polynomial], list[Polynomial]]] = {}

    def box(a: HybridProgram, gens: list[Polynomial]) -> list[Polynomial]:
        if isinstance(a, Assign):
            return [g.substitute({a.var: a.expr}) for g in gens]
        if isinstance(a, Test):
            return [a.r * g for g in gens]
        if isinstance(a, Ode):
            chains = (rank(g, a.sys, cap=cap).chain for g in gens)
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
            loop_kept, members = stabilize(gens, lambda new: box(a.body, new), cap, budget)
            kept.extend(loop_kept)
            if members is None:
                raise ResourceError(f"loop chain cap {cap} exceeded",
                                    partial=ReductionTrace(loop_kept, kept))
            for chain, cofs in members:
                records.setdefault((tuple(chain), tuple(cofs)), (chain, cofs))
            return loop_kept
        raise InputError(f"not a hybrid program: {type(a).__name__}")

    gens = box(alpha, [p])
    nonzero = [g for g in gens if g]
    if len(nonzero) == 1:
        q = nonzero[0]
    else:
        q = sum_of_products(p.table, ((g, g) for g in nonzero))
    loops = bool(kept or records)
    return q, ReductionTrace(gens, kept if loops else None,
                             list(records.values()) if loops else None)


# -- discrete oracle ----------------------------------------------------------

def oracle_unroll(alpha: HybridProgram, p: Polynomial, depth: int,
                  state: Sequence[Fraction]) -> bool:
    """True iff p=0 holds after every enumerated run of a discrete-only
    program from ``state``, with Star unrolled to ``depth`` iterations.

    Under-approximates the box modality for loops (converges as depth grows);
    Ode nodes are unsupported.
    """
    start = tuple(state)
    for end in _run(alpha, start, depth):
        if p.evaluate(end) != 0:
            return False
    return True


def _run(alpha: HybridProgram, state: tuple[Fraction, ...],
         depth: int) -> set[tuple[Fraction, ...]]:
    if isinstance(alpha, Assign):
        value = alpha.expr.evaluate(state)
        return {state[:alpha.var] + (value,) + state[alpha.var + 1:]}
    if isinstance(alpha, Test):
        return {state} if alpha.r.evaluate(state) != 0 else set()
    if isinstance(alpha, Ode):
        raise InputError("oracle_unroll does not support ODE nodes")
    if isinstance(alpha, Choice):
        return set().union(*(_run(b, state, depth) for b in _operands(alpha)))
    if isinstance(alpha, Seq):
        states = {state}
        for b in _operands(alpha):
            states = set().union(*(_run(b, s, depth) for s in states))
        return states
    if isinstance(alpha, Star):
        reached = {state}
        frontier = {state}
        for _ in range(depth):
            new: set[tuple[Fraction, ...]] = set()
            for s in frontier:
                new |= _run(alpha.body, s, depth)
            frontier = new - reached
            if not frontier:
                break
            reached |= frontier
        return reached
    raise InputError(f"not a hybrid program: {type(alpha).__name__}")
