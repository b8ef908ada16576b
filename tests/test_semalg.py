import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odecert import (Conjunct, InputError, NormalForm, Polynomial, VarTable,
                     algebraic_combine, eval_formula, progress_geq,
                     progress_gt, radical_formula, render_formula,
                     reverse, semialg_progress, semalg, to_normal_form)
from odecert.parser import parse_formula, parse_term
from odecert.sampling import sample_points
from odecert.semalg import (DEFAULT_DISJUNCT_LIMIT, And, Atom, Implies, Not,
                            Or, PointEvaluator, TrueF, FalseF, fold_constants,
                            make_and, make_or, pair_equalities)

from conftest import (random_nonzero_polynomial, random_normal_form,
                      random_point, random_system)


def P(text, table):
    return parse_term(text, table)


def F(text, table):
    return parse_formula(text, table)


def reference_negation(P: NormalForm, limit: int = DEFAULT_DISJUNCT_LIMIT) -> NormalForm:
    """Normal form of the complement of P by the syntactic route the
    backward invariance condition took before it negated progress formulas:
    flip every atom (p>=0 into -p>0, q>0 into -q>=0), then distribute the
    resulting CNF back to DNF.  Kept here as the reference construction."""
    clauses: list[list[tuple[str, Polynomial]]] = []
    for c in P.disjuncts:
        clause = [("gt", -p) for p in c.geqs] + [("geq", -q) for q in c.gts]
        clauses.append(clause)
    # a normal form built by to_normal_form has no constant atoms, so no
    # cell of the product folds away and len(acc) * len(clause) is its size
    acc: list[Conjunct] = [Conjunct((), ())]
    for clause in clauses:
        semalg._check_disjunct_count(len(acc) * len(clause), limit)
        cells = (semalg._build_conjunct(left.geqs + ((poly,) if kind == "geq" else ()),
                                        left.gts + ((poly,) if kind == "gt" else ()))
                 for left in acc for kind, poly in clause)
        acc = [cell for cell in cells if cell is not None]
    return NormalForm(tuple(acc))


class TestToNormalForm:
    def test_equality_split(self, xy):
        nf = to_normal_form(F("x = 0", xy))
        assert len(nf.disjuncts) == 1
        c = nf.disjuncts[0]
        assert set(c.geqs) == {P("x", xy), P("-x", xy)} and c.gts == ()

    def test_sign_flip(self, uv):
        nf = to_normal_form(F("u^2 + v^2 < 1", uv))
        assert nf.disjuncts == (Conjunct((), (P("1 - u^2 - v^2", uv),)),)

    def test_disjunction_shape(self, xy):
        nf = to_normal_form(F("x = 0 | y > 0", xy))
        assert len(nf.disjuncts) == 2

    def test_truth_preserved_at_random_points(self, xy):
        rng = random.Random(21)
        formulas = [
            "x = 0 | y > 0",
            "!(x >= 0 & y < 1) -> x*y != 0",
            "(x^2 <= y | y = 0) & x != 1",
        ]
        for text in formulas:
            phi = F(text, xy)
            nf = to_normal_form(phi)
            for _ in range(200):
                pt = random_point(rng, 2)
                assert eval_formula(phi, pt) == nf.evaluate(pt)

    def test_quantifier_rejected(self, xy):
        from odecert.semalg import Forall
        with pytest.raises(InputError):
            to_normal_form(Forall(("x",), F("x >= 0", xy)))

    def test_constant_folding(self, xy):
        nf = to_normal_form(F("1 > 0 & x >= 0", xy))
        assert nf.disjuncts == (Conjunct((P("x", xy),), ()),)
        assert to_normal_form(F("1 < 0", xy)).is_false()

    def test_true_false_forms(self, xy):
        assert to_normal_form(TrueF()) == NormalForm.true()
        assert to_normal_form(FalseF()).is_false()

    def test_duplicate_atoms_pruned(self, xy):
        nf = to_normal_form(F("x >= 0 & x >= 0 & x > 0 & x > 0", xy))
        assert nf.disjuncts == (Conjunct((P("x", xy),), (P("x", xy),)),)


class TestNegateNormalForm:
    def test_single_nonstrict(self, xy):
        nf = NormalForm((Conjunct((P("x", xy),), ()),))
        neg = reference_negation(nf)
        assert neg.disjuncts == (Conjunct((), (P("-x", xy),)),)

    def test_true_false(self, xy):
        assert reference_negation(NormalForm.true()).is_false()
        assert reference_negation(NormalForm.false()) == NormalForm.true()

    def test_pointwise_complement(self, xy):
        rng = random.Random(22)
        for _ in range(30):
            nf = random_normal_form(rng, xy)
            neg = reference_negation(nf)
            for _ in range(100):
                pt = random_point(rng, 2)
                assert nf.evaluate(pt) != neg.evaluate(pt)

    def test_double_negation_pointwise(self, uv):
        rng = random.Random(23)
        nf = to_normal_form(F("u^2 <= v^2 + 9/2", uv))
        back = reference_negation(reference_negation(nf))
        for _ in range(1000):
            pt = random_point(rng, 2)
            assert nf.evaluate(pt) == back.evaluate(pt)

    def test_golden_halfplane(self, uv):
        nf = to_normal_form(F("u^2 <= v^2 + 9/2", uv))
        neg = reference_negation(nf)
        rng = random.Random(24)
        strict = to_normal_form(F("u^2 > v^2 + 9/2", uv))
        for _ in range(1000):
            pt = random_point(rng, 2)
            assert neg.evaluate(pt) == strict.evaluate(pt)


class TestComplementNormalForm:
    """``semalg.negate_normal_form`` (``to_normal_form`` of the negation)
    builds exactly the reference construction."""

    @pytest.mark.filterwarnings("ignore:normal form has")
    def test_equals_the_reference_on_random_normal_forms(self, xy):
        rng = random.Random(30)
        for _ in range(40):
            nf = random_normal_form(rng, xy)
            assert semalg.negate_normal_form(nf) == reference_negation(nf)
        for nf in (NormalForm.true(), NormalForm.false()):
            assert semalg.negate_normal_form(nf) == reference_negation(nf)


class TestPairEqualities:
    def test_pairs_keep_the_first_met_and_the_order(self, xy):
        x, y, z = P("x", xy), P("y", xy), P("x + y", xy)
        zero = Polynomial.zero(xy)
        eqs, unpaired = pair_equalities([y, -x, z, x, zero, y])
        assert eqs == [-x, zero]
        assert unpaired == [y, z]

    def test_empty(self, xy):
        assert pair_equalities([]) == ([], [])


class TestAlgebraicCombine:
    def test_conjunction_sum_of_squares(self, xy):
        nf = to_normal_form(F("x = 0 & y = 0", xy))
        assert algebraic_combine(nf) == P("x^2 + y^2", xy)

    def test_disjunction_product(self, xy):
        nf = to_normal_form(F("x = 0 | y = 0", xy))
        assert algebraic_combine(nf) == P("x*y", xy)

    def test_single_equation_identity(self, xy):
        nf = to_normal_form(F("x^2 - y = 0", xy))
        assert algebraic_combine(nf) == P("x^2 - y", xy)

    def test_non_algebraic_rejected(self, xy):
        with pytest.raises(InputError):
            algebraic_combine(to_normal_form(F("x > 0", xy)))
        with pytest.raises(InputError):
            algebraic_combine(to_normal_form(F("x >= 0", xy)))

    def test_constant_forms_with_table(self, xy):
        assert algebraic_combine(NormalForm.true(), table=xy).is_zero()
        assert algebraic_combine(NormalForm.false(), table=xy) == Polynomial.one(xy)

    def test_pointwise_equivalence(self, xy):
        rng = random.Random(25)
        nf = to_normal_form(F("(x = 0 & y - 1 = 0) | x + y = 0", xy))
        e = algebraic_combine(nf)
        for _ in range(500):
            pt = random_point(rng, 2)
            assert (e.evaluate(pt) == 0) == nf.evaluate(pt)


class TestProgressFormulas:
    def test_rank_one_collapse(self, uv, alpha_e):
        p = P("1 - u^2 - v^2", uv)
        assert progress_gt(p, alpha_e) == Atom(">", p)
        geq = progress_geq(p, alpha_e)
        assert geq == Or((Atom(">", p), Atom("=", p)))

    def test_swap_rank_two_structure(self, xy, swap_sys):
        p, lp = P("x", xy), P("y", xy)
        gt = progress_gt(p, swap_sys)
        assert gt == And((Atom(">=", p), Implies(Atom("=", p), Atom(">", lp))))
        geq = progress_geq(p, swap_sys)
        assert geq == Or((gt, And((Atom("=", p), Atom("=", lp)))))

    def test_zero_polynomial(self, uv, alpha_e):
        zero = Polynomial.zero(uv)
        gt = progress_gt(zero, alpha_e)
        assert gt == Atom(">", zero)
        rng = random.Random(26)
        geq = progress_geq(zero, alpha_e)
        for _ in range(10):
            pt = random_point(rng, 2)
            assert not eval_formula(gt, pt)
            assert eval_formula(geq, pt)

    def test_semialg_progress_trivial_forms(self, uv, alpha_e):
        assert semialg_progress(NormalForm.true(), alpha_e) == TrueF()
        assert semialg_progress(NormalForm.false(), alpha_e) == FalseF()

    def test_semialg_progress_single_strict_atom(self, uv, alpha_e):
        nf = to_normal_form(F("u^2 + v^2 < 1", uv))
        assert semialg_progress(nf, alpha_e) == Atom(">", P("1 - u^2 - v^2", uv))


class TestRearrangementEquivalences:
    """Atom-level progress equivalences, checked pointwise on random data."""

    def _setup(self, seed):
        rng = random.Random(seed)
        xy = VarTable(["x", "y"])
        sysr = random_system(rng, xy)
        p = random_nonzero_polynomial(rng, xy)
        return rng, xy, sysr, p

    def test_disjunctive_form_of_progress_gt(self):
        rng, xy, sysr, p = self._setup(271)
        from odecert.ideals import differential_radical
        chain = differential_radical(p, sysr)
        disj = make_or([
            make_and([Atom("=", chain[i]) for i in range(k)] + [Atom(">", chain[k])])
            for k in range(len(chain))])
        gt = progress_gt(p, sysr)
        for _ in range(1000):
            pt = random_point(rng, 2)
            ev = PointEvaluator(pt)
            assert ev(gt) == ev(disj)

    def test_negated_gt_is_geq_of_negation(self):
        rng, xy, sysr, p = self._setup(272)
        gt = progress_gt(p, sysr)
        geq_neg = progress_geq(-p, sysr)
        for _ in range(1000):
            pt = random_point(rng, 2)
            ev = PointEvaluator(pt)
            assert (not ev(gt)) == ev(geq_neg)

    def test_negated_radical_is_two_sided_gt(self):
        rng, xy, sysr, p = self._setup(273)
        eps = radical_formula(p, sysr)
        gt_pos = progress_gt(p, sysr)
        gt_neg = progress_gt(-p, sysr)
        for _ in range(1000):
            pt = random_point(rng, 2)
            ev = PointEvaluator(pt)
            assert (not ev(eps)) == (ev(gt_pos) or ev(gt_neg))


class TestNegationDuality:
    def test_progress_duality_on_random_normal_forms(self, xy):
        rng = random.Random(29)
        for _ in range(8):
            nf = random_normal_form(rng, xy)
            sysr = random_system(rng, xy)
            sp = semialg_progress(nf, sysr)
            sp_neg = semialg_progress(reference_negation(nf), sysr)
            for _ in range(300):
                pt = random_point(rng, 2)
                ev = PointEvaluator(pt)
                assert ev(sp) != ev(sp_neg)


class TestNegatedProgressMatchesTheReference:
    """Progress into the complement as the negated progress formula agrees
    with progress into the reference normal form of the complement."""

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_negated_progress_is_progress_of_the_complement(self, rng):
        xy = VarTable(["x", "y"])
        nf = random_normal_form(rng, xy)
        rsys = reverse(random_system(rng, xy))
        negated = Not(semialg_progress(nf, rsys))
        reference = semialg_progress(reference_negation(nf), rsys)
        boundary = [p for c in nf.disjuncts for p in c.geqs + c.gts]
        for point in sample_points(rng, 2, 60, boundary):
            ev = PointEvaluator(point)
            assert ev(negated) == ev(reference)


class TestDisjunctLimits:
    def test_limit_enforced(self, xy):
        from odecert import ResourceError
        # (a1|b1) & ... & (a5|b5) has 32 disjuncts
        f = make_and([parse_formula(f"x - {k} > 0 | y - {k} > 0", xy)
                      for k in range(5)])
        nf = to_normal_form(f)
        assert len(nf.disjuncts) == 32
        with pytest.raises(ResourceError):
            to_normal_form(f, limit=16)

    def test_warning_threshold(self, xy):
        import warnings as warnings_mod
        f = make_and([parse_formula(f"x - {k} > 0 | y - {k} > 0", xy)
                      for k in range(9)])  # 512 disjuncts
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            to_normal_form(f)
        assert any("disjuncts" in str(w.message) for w in caught)

    def test_negate_respects_limit(self, xy):
        from odecert import ResourceError
        conjuncts = tuple(
            Conjunct((parse_term(f"x - {k}", xy),), (parse_term(f"y - {k}", xy),))
            for k in range(6))
        nf = NormalForm(conjuncts)  # negation has 2^6 = 64 disjuncts
        assert len(reference_negation(nf).disjuncts) == 64
        with pytest.raises(ResourceError):
            reference_negation(nf, limit=32)


    @pytest.mark.filterwarnings("ignore:normal form has")
    def test_limit_is_checked_before_the_product_is_built(self, xy, monkeypatch):
        from odecert import ResourceError, semalg
        built = []
        real = semalg._build_conjunct
        monkeypatch.setattr(semalg, "_build_conjunct",
                            lambda *args: built.append(1) or real(*args))
        f = make_and([parse_formula(f"x - {k} > 0 | y - {k} > 0", xy)
                      for k in range(13)])  # 8192 disjuncts
        with pytest.raises(ResourceError, match=r"\(8192 > 4096\)"):
            to_normal_form(f)
        # 26 atom cells and the products of 2, 4, ..., 4096 cells; building
        # the failing product as well would take 8192 more
        assert len(built) == 26 + 8190
        built.clear()
        nf = NormalForm(tuple(Conjunct((P(f"x - {k}", xy),), (P(f"y - {k}", xy),))
                              for k in range(13)))
        with pytest.raises(ResourceError, match=r"\(8192 > 4096\)"):
            reference_negation(nf)
        assert len(built) == 8190


class TestFormulaUtilities:
    def test_fold_constants(self, xy):
        f = F("1 > 0 & x >= 0", xy)
        assert fold_constants(f) == Atom(">=", P("x", xy))
        assert fold_constants(F("0 = 0", xy)) == TrueF()
        assert fold_constants(F("2 < 1", xy)) == FalseF()

    def test_render_round_trip(self, xy):
        texts = [
            "x >= 0 & (x = 0 -> y > 0)",
            "x > 0 | (x = 0 & y = 0)",
            "!(x != 0) -> (y <= 1 | x^2 - y >= 2)",
        ]
        for text in texts:
            f = F(text, xy)
            assert parse_formula(render_formula(f), xy) == f

    def test_make_and_or_folding(self, xy):
        a = Atom(">", P("x", xy))
        assert make_and([]) == TrueF()
        assert make_or([]) == FalseF()
        assert make_and([TrueF(), a]) == a
        assert make_or([FalseF(), a]) == a
        assert make_and([FalseF(), a]) == FalseF()
        assert make_or([TrueF(), a]) == TrueF()
