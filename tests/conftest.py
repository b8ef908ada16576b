import random
from fractions import Fraction

import pytest

from odecert import (Conjunct, NormalForm, OdeSystem, Polynomial, VarTable,
                     differential_radical)
from odecert.ideals import DEFAULT_RANK_CAP
from odecert.semalg import atoms


@pytest.fixture
def uv():
    return VarTable(["u", "v"])


@pytest.fixture
def alpha_e(uv):
    """The running example: u' = -v + u/4*(1-u^2-v^2), v' = u + v/4*(1-u^2-v^2)."""
    u = Polynomial.variable(uv, "u")
    v = Polynomial.variable(uv, "v")
    one = Polynomial.one(uv)
    damp = one - u * u - v * v
    fu = -v + u.scale(Fraction(1, 4)) * damp
    fv = u + v.scale(Fraction(1, 4)) * damp
    return OdeSystem.from_pairs(uv, [("u", fu), ("v", fv)])


@pytest.fixture
def xy():
    return VarTable(["x", "y"])


@pytest.fixture
def swap_sys(xy):
    """x' = y, y' = x (rank-2 workhorse)."""
    return OdeSystem.from_pairs(xy, [("x", Polynomial.variable(xy, "y")),
                                     ("y", Polynomial.variable(xy, "x"))])


def random_polynomial(rng: random.Random, table: VarTable, max_degree: int = 2,
                      terms: int = 3, bound: int = 2) -> Polynomial:
    acc: dict = {}
    n = len(table)
    for _ in range(terms):
        mono = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(n)] += 1
        c = rng.randint(-bound, bound)
        if c:
            acc[tuple(mono)] = acc.get(tuple(mono), 0) + c
    return Polynomial(table, {m: Fraction(c) for m, c in acc.items() if c})


def random_nonzero_polynomial(rng, table, max_degree=2, terms=3, bound=2) -> Polynomial:
    while True:
        p = random_polynomial(rng, table, max_degree, terms, bound)
        if not p.is_zero():
            return p


def random_system(rng: random.Random, table: VarTable, max_degree: int = 2) -> OdeSystem:
    rhs = []
    for _ in range(len(table)):
        f = random_polynomial(rng, table, max_degree, terms=3)
        rhs.append(f if not f.is_zero() else Polynomial.one(table))
    return OdeSystem(table, range(len(table)), rhs)


def random_point(rng: random.Random, n: int, num: int = 20, den: int = 5):
    return tuple(Fraction(rng.randint(-num, num), rng.randint(1, den))
                 for _ in range(n))


def random_normal_form(rng: random.Random, table: VarTable,
                       max_disjuncts: int = 3, max_atoms: int = 2) -> NormalForm:
    disjuncts = []
    for _ in range(rng.randint(1, max_disjuncts)):
        geqs = [random_nonzero_polynomial(rng, table)
                for _ in range(rng.randint(0, max_atoms))]
        gts = [random_nonzero_polynomial(rng, table)
               for _ in range(rng.randint(0, max_atoms))]
        disjuncts.append(Conjunct(tuple(geqs), tuple(gts)))
    return NormalForm(tuple(disjuncts))


def rank_chains(nf: NormalForm, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP) -> dict:
    """Each atom of nf mapped to its rank chain over sys: the ``chains``
    argument of ``semialg_progress``."""
    return {p: differential_radical(p, sys, cap=cap) for p in atoms(nf)}
