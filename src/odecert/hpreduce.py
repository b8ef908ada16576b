"""The algebraic hybrid-program fragment and its box reduction.

Programs are built from assignments, disequational tests ?r!=0, ODEs with
optional disequational domains, choice, sequence, and loops.  For a single
polynomial postcondition p, ``reduce_box`` computes a polynomial q with
[program] p=0 equivalent to q=0 pointwise, by structural recursion.  ODE
nodes sum the squares of the rank chain of p.  Star nodes run
``ideals.stabilize`` with the body's reduction as the step: the chain of
iterates grows on one incremental Groebner basis until it stabilizes, and
the membership witness of its last element is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import InputError, ResourceError
from .ideals import DEFAULT_RANK_CAP, StepBudget, rank, stabilize
from .odecore import OdeSystem
from .polyarith import Polynomial, VarTable


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


def program_table(alpha: HybridProgram) -> VarTable:
    if isinstance(alpha, Assign):
        return alpha.expr.table
    if isinstance(alpha, Test):
        return alpha.r.table
    if isinstance(alpha, Ode):
        return alpha.sys.table
    if isinstance(alpha, (Choice, Seq)):
        return program_table(alpha.left if isinstance(alpha, Choice) else alpha.first)
    if isinstance(alpha, Star):
        return program_table(alpha.body)
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
            return f"{wrap(a.left, 1)} ++ {wrap(a.right, 1)}"
        if isinstance(a, Seq):
            return f"{wrap(a.first, 2)} ; {wrap(a.second, 2)}"
        if isinstance(a, Star):
            return "{ " + go(a.body) + " }*"
        raise InputError(f"not a hybrid program: {type(a).__name__}")

    return go(alpha)


# -- reduction ---------------------------------------------------------------

@dataclass
class ReductionTrace:
    """Per-node record of the structural recursion."""
    node: str
    result: Polynomial
    children: list["ReductionTrace"] = field(default_factory=list)
    chain: Optional[list[Polynomial]] = None       # Star nodes: q_0 .. q_k
    witness: Optional[list[Polynomial]] = None     # g_0 .. g_{k-1}
    rank_n: Optional[int] = None                   # Ode nodes

    def star_chains(self) -> Iterator[tuple[list[Polynomial], list[Polynomial]]]:
        """All (chain, witness) pairs in traversal order."""
        if self.chain is not None:
            yield self.chain, self.witness or []
        for child in self.children:
            yield from child.star_chains()


def reduce_box(alpha: HybridProgram, p: Polynomial,
               cap: int = DEFAULT_RANK_CAP) -> tuple[Polynomial, ReductionTrace]:
    """Polynomial q with [alpha] p=0 equivalent to q=0 pointwise.

    ``cap`` bounds both ODE ranks and Star chain lengths; exceeding it raises
    ResourceError carrying the partial trace.
    """
    if isinstance(alpha, Assign):
        q = p.substitute({alpha.var: alpha.expr})
        return q, ReductionTrace("assign", q)
    if isinstance(alpha, Test):
        q = alpha.r * p
        return q, ReductionTrace("test", q)
    if isinstance(alpha, Ode):
        rr = rank(p, alpha.sys, cap=cap)
        q = Polynomial.zero(p.table)
        for lie in rr.chain:
            q = q + lie * lie
        if alpha.r is not None:
            q = alpha.r * q
        return q, ReductionTrace("ode", q, rank_n=rr.n)
    if isinstance(alpha, Choice):
        q1, t1 = reduce_box(alpha.left, p, cap)
        q2, t2 = reduce_box(alpha.right, p, cap)
        q = q1 * q1 + q2 * q2
        return q, ReductionTrace("choice", q, children=[t1, t2])
    if isinstance(alpha, Seq):
        q2, t2 = reduce_box(alpha.second, p, cap)
        q1, t1 = reduce_box(alpha.first, q2, cap)
        return q1, ReductionTrace("seq", q1, children=[t1, t2])
    if isinstance(alpha, Star):
        children: list[ReductionTrace] = []

        def body(q: Polynomial) -> Polynomial:
            q_next, t_next = reduce_box(alpha.body, q, cap)
            children.append(t_next)
            return q_next

        if p.is_zero():
            chain, witness = [p], []  # 0 lies in the zero ideal <> already
        else:
            chain, witness = stabilize(p, body, cap, StepBudget(what="loop chain"))
        if witness is None:
            trace = ReductionTrace("star", Polynomial.zero(p.table),
                                   children=children, chain=chain)
            raise ResourceError(f"loop chain cap {cap} exceeded", partial=trace)
        q = Polynomial.zero(p.table)
        for qi in chain[:-1]:
            q = q + qi * qi
        trace = ReductionTrace("star", q, children=children,
                               chain=chain, witness=witness)
        return q, trace
    raise InputError(f"not a hybrid program: {type(alpha).__name__}")


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
        return _run(alpha.left, state, depth) | _run(alpha.right, state, depth)
    if isinstance(alpha, Seq):
        out: set[tuple[Fraction, ...]] = set()
        for mid in _run(alpha.first, state, depth):
            out |= _run(alpha.second, mid, depth)
        return out
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
