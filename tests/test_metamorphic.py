"""Metamorphic properties of the CLI.

``check-inv``: the verdict must not depend on the names of the variables or
on a positive scale of an atom, and reordering the variables may turn a
verdict into ``unknown`` but never into its opposite.  ``rank`` and
``hp-reduce``: renaming or permuting the variables gives the same rank and
the renamed reduced equation ``q``.  A permutation changes the grevlex
order, so the Groebner engine meets its S-pairs in another sequence.
"""

import json
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

from hypothesis import given, settings, strategies as st

from odecert import (Assign, Choice, Conjunct, NormalForm, Ode, OdeSystem,
                     Polynomial, Seq, Star, VarTable, lie_derivative,
                     render_program)
from odecert import Test as ProgTest
from odecert.cli import main
from odecert.parser import parse_term
from odecert.polyarith import sum_of_products
from odecert.semalg import render_formula

from conftest import (random_nonzero_polynomial, random_normal_form,
                      random_polynomial, random_system)

XY = VarTable(["x", "y"])
OPPOSITE = {"invariant": "not_invariant", "not_invariant": "invariant"}


def _moved(p: Polynomial, table: VarTable, perm) -> Polynomial:
    """p over ``table``, whose variable i is p's variable perm[i]."""
    return Polynomial.from_ints(table, {tuple(m[j] for j in perm): c
                                        for m, c in p.nums.items()}, p.den)


def _map_nf(nf: NormalForm, f) -> NormalForm:
    return NormalForm(tuple(Conjunct(tuple(map(f, c.geqs)), tuple(map(f, c.gts)))
                            for c in nf.disjuncts))


def _run(command: str, text: str) -> tuple:
    """(exit code, report data or None) of ``command`` on a problem file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.prob"
        path.write_text(text)
        out = StringIO()
        with redirect_stdout(out):
            code = main([command, str(path), "--json"])
    return code, json.loads(out.getvalue())["data"] if out.getvalue() else None


def _check_inv(nf: NormalForm, sys: OdeSystem) -> tuple:
    """(exit code, verdict, witness) of ``check-inv`` on nf under sys."""
    code, data = _run("check-inv",
                      f"vars: {', '.join(sys.table.names)}\node: {sys.render()}\n"
                      f"candidate: {render_formula(nf.to_formula())}\nsamples: 300\n")
    return code, data["verdict"], data["witness"]


def _moved_sys(sys: OdeSystem, table: VarTable, perm) -> OdeSystem:
    rhs = dict(zip(sys.var_indices, sys.rhs))
    return OdeSystem(table, range(len(table)), [_moved(rhs[j], table, perm) for j in perm])


def _transported(nf, sys, table, perm):
    return _map_nf(nf, lambda p: _moved(p, table, perm)), _moved_sys(sys, table, perm)


def _candidates(rng):
    nf = random_normal_form(rng, XY, max_disjuncts=2, max_atoms=2)
    return nf, random_system(rng, XY)


class TestCheckInvMetamorphic:
    @settings(max_examples=25, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_renaming_variables_keeps_the_verdict(self, rng):
        nf, sys = _candidates(rng)
        renamed = _transported(nf, sys, VarTable(["speed", "t_2"]), (0, 1))
        assert _check_inv(*renamed) == _check_inv(nf, sys)

    @settings(max_examples=25, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           scale=st.fractions(min_value=Fraction(1, 50), max_value=50))
    def test_scaling_an_atom_keeps_the_verdict(self, rng, scale):
        nf, sys = _candidates(rng)
        atoms = [p for c in nf.disjuncts for p in c.geqs + c.gts]
        if not atoms:
            return
        pick = atoms[rng.randrange(len(atoms))]
        # every occurrence of the atom and of its negation, so that the
        # equalities p >= 0 & -p >= 0 of the normal form stay pairs
        scaled = _map_nf(nf, lambda p: p.scale(scale) if p in (pick, -pick) else p)
        assert _check_inv(scaled, sys) == _check_inv(nf, sys)

    @settings(max_examples=25, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_permuting_variables_never_flips_the_verdict(self, rng):
        nf, sys = _candidates(rng)
        _, verdict, _ = _check_inv(nf, sys)
        _, swapped, _ = _check_inv(*_transported(nf, sys, XY, (1, 0)))
        assert swapped != OPPOSITE.get(verdict)


# a renaming that keeps the variable order, and the swap of x and y
VARIANTS = [(VarTable(["speed", "t_2"]), (0, 1)), (XY, (1, 0))]


def _rank(p: Polynomial, sys: OdeSystem) -> tuple:
    """(exit code, rank, cofactors) of ``rank`` on p under sys."""
    code, data = _run("rank", f"vars: {', '.join(sys.table.names)}\n"
                              f"ode: {sys.render()}\npolynomial: {p.render()}\ncap: 6\n")
    if code:
        return code, None, None
    return code, data["rank"], [parse_term(c, p.table) for c in data["cofactors"]]


def _random_program(rng: random.Random, table: VarTable):
    """prefix ; { body }* with assignments, tests and linear ODEs."""
    def leaf():
        kind = rng.random()
        if kind < 0.5:
            return Assign(rng.randrange(len(table)), random_polynomial(rng, table, 1, 3))
        if kind < 0.8:
            return ProgTest(random_nonzero_polynomial(rng, table, 1, 2))
        return Ode(random_system(rng, table, max_degree=1))

    def node(depth):
        kind = rng.choice([Seq, Choice, None])
        if depth == 0 or kind is None:
            return leaf()
        return kind(node(depth - 1), node(depth - 1))

    return Seq(leaf(), Star(node(2)))


def _moved_program(a, table: VarTable, perm):
    def move(p):
        return _moved(p, table, perm)

    if isinstance(a, Assign):
        return Assign(perm.index(a.var), move(a.expr))
    if isinstance(a, ProgTest):
        return ProgTest(move(a.r))
    if isinstance(a, Ode):
        return Ode(_moved_sys(a.sys, table, perm), None if a.r is None else move(a.r))
    if isinstance(a, Star):
        return Star(_moved_program(a.body, table, perm))
    if isinstance(a, Seq):
        return Seq(_moved_program(a.first, table, perm),
                   _moved_program(a.second, table, perm))
    return Choice(_moved_program(a.left, table, perm), _moved_program(a.right, table, perm))


def _hp_reduce(program, p: Polynomial) -> tuple:
    """(exit code, reduced q or None) of ``hp-reduce`` on [program] p = 0."""
    code, data = _run("hp-reduce", f"vars: {', '.join(p.table.names)}\n"
                                   f"program: {render_program(program)}\n"
                                   f"post: {p.render()} = 0\ncap: 8\n")
    return code, parse_term(data["reduced"], p.table) if data else None


class TestRankMetamorphic:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_renaming_and_permuting_keep_the_rank(self, seed):
        rng = random.Random(seed)
        p, sys = random_nonzero_polynomial(rng, XY), random_system(rng, XY)
        code, n, cofactors = _rank(p, sys)
        for table, perm in VARIANTS:
            moved_p, moved_sys = _moved(p, table, perm), _moved_sys(sys, table, perm)
            moved = _rank(moved_p, moved_sys)
            assert moved[:2] == (code, n)
            if code:
                continue
            chain = [moved_p]
            for _ in range(n):
                chain.append(lie_derivative(chain[-1], moved_sys))
            assert sum_of_products(table, zip(moved[2], chain)) == chain[n]
            if perm == (0, 1):  # same order: the same cofactors, renamed
                assert moved[2] == [_moved(c, table, perm) for c in cofactors]


class TestHpReduceMetamorphic:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_renaming_and_permuting_rename_q(self, seed):
        rng = random.Random(seed)
        program = _random_program(rng, XY)
        p = random_nonzero_polynomial(rng, XY, max_degree=1)
        code, q = _hp_reduce(program, p)
        for table, perm in VARIANTS:
            moved = _hp_reduce(_moved_program(program, table, perm), _moved(p, table, perm))
            assert moved == (code, None if q is None else _moved(q, table, perm))
