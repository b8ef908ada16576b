"""Metamorphic properties of ``check-inv``: the verdict must not depend on
the names of the variables or on a positive scale of an atom, and
reordering the variables may turn a verdict into ``unknown`` but never
into its opposite."""

import json
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from odecert import Conjunct, NormalForm, OdeSystem, Polynomial, VarTable
from odecert.cli import main
from odecert.semalg import render_formula

from conftest import random_normal_form, random_system

pytestmark = pytest.mark.filterwarnings("ignore:normal form has")

XY = VarTable(["x", "y"])
OPPOSITE = {"invariant": "not_invariant", "not_invariant": "invariant"}


def _moved(p: Polynomial, table: VarTable, perm) -> Polynomial:
    """p over ``table``, whose variable i is p's variable perm[i]."""
    return Polynomial.from_ints(table, {tuple(m[j] for j in perm): c
                                        for m, c in p.nums.items()}, p.den)


def _map_nf(nf: NormalForm, f) -> NormalForm:
    return NormalForm(tuple(Conjunct(tuple(map(f, c.geqs)), tuple(map(f, c.gts)))
                            for c in nf.disjuncts))


def _check_inv(nf: NormalForm, sys: OdeSystem) -> tuple:
    """(exit code, verdict, witness) of ``check-inv`` on nf under sys."""
    text = (f"vars: {', '.join(sys.table.names)}\node: {sys.render()}\n"
            f"candidate: {render_formula(nf.to_formula())}\nsamples: 300\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "candidate.prob"
        path.write_text(text)
        out = StringIO()
        with redirect_stdout(out):
            code = main(["check-inv", str(path), "--json"])
    data = json.loads(out.getvalue())["data"]
    return code, data["verdict"], data["witness"]


def _transported(nf, sys, table, perm):
    rhs = dict(zip(sys.var_indices, sys.rhs))
    moved_sys = OdeSystem(table, range(len(table)),
                          [_moved(rhs[j], table, perm) for j in perm])
    return _map_nf(nf, lambda p: _moved(p, table, perm)), moved_sys


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
