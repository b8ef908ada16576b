"""The discrete oracle for ``odecert.hpreduce``, kept as a test reference:
it enumerates, in exact ``Fraction``s, the states a discrete program
reaches from a start state and evaluates the postcondition at each."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from odecert.errors import InputError
from odecert.hpreduce import (Assign, Choice, HybridProgram, Ode, Seq, Star,
                              Test, _operands)
from odecert.polyarith import Polynomial


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
