import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from odecert import (Conjunct, InputError, NormalForm, Polynomial, VarTable,
                     algebraic_combine, differential_radical, eval_formula,
                     progress_geq, progress_gt, radical_of_chain, render_formula,
                     reverse, semialg_progress, semalg, to_normal_form)
from odecert.parser import parse_formula, parse_term
from odecert.sampling import sample_points
from odecert.invariant import SideCondition, _try_identity
from odecert.errors import DimensionError
from odecert.polyarith import ScaledPoint
from odecert.semalg import (ATOM_OPS, DEFAULT_DISJUNCT_LIMIT, FALSE, TRUE, And, Atom,
                            Forall, Formula, Implies, Not, Or, PointEvaluator, TrueF,
                            FalseF, make_and, make_or, nnf_fold, pair_equalities)

from conftest import (random_nonzero_polynomial, random_normal_form,
                      random_point, random_polynomial, random_system, rank_chains)


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


def reference_fold(f: Formula) -> Formula:
    """Decide atoms whose polynomial is a rational constant; simplify
    connectives over the resulting true/false leaves.  The identity tier
    decided by this fold before it read the same answer off ``nnf_fold``;
    kept here as the reference construction."""
    if isinstance(f, Atom):
        if f.poly.is_constant():
            truth = semalg._atom_truth(f.op, f.poly.constant_value())
            return TrueF() if truth else FalseF()
        return f
    if isinstance(f, Not):
        a = reference_fold(f.arg)
        if isinstance(a, TrueF):
            return FalseF()
        if isinstance(a, FalseF):
            return TrueF()
        return Not(a)
    if isinstance(f, And):
        return make_and([reference_fold(a) for a in f.args])
    if isinstance(f, Or):
        return make_or([reference_fold(a) for a in f.args])
    if isinstance(f, Implies):
        h = reference_fold(f.hyp)
        c = reference_fold(f.concl)
        if isinstance(h, FalseF) or isinstance(c, TrueF):
            return TrueF()
        if isinstance(h, TrueF):
            return c
        if isinstance(c, FalseF):
            return Not(h)
        return Implies(h, c)
    return f


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


_XY = VarTable(["x", "y"])
_POLYS = [parse_term(t, _XY) for t in ("x", "-x", "y", "x - y", "x*y - 1", "0", "1", "-2")]
_NONCONSTANT = [p for p in dict.fromkeys(_POLYS + [-p for p in _POLYS])
                if not p.is_constant()]
_formulas = st.recursive(
    st.one_of(st.builds(Atom, st.sampled_from(ATOM_OPS), st.sampled_from(_POLYS)),
              st.just(TrueF()), st.just(FalseF())),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Implies, sub, sub),
        st.lists(sub, min_size=1, max_size=3).map(lambda args: And(tuple(args))),
        st.lists(sub, min_size=1, max_size=3).map(lambda args: Or(tuple(args)))),
    max_leaves=10)


class TestNnfFold:
    """``nnf_fold`` over random formulas with all six comparisons, ``!``,
    ``->``, true and false (at most 10 leaves: at most 1024 cells)."""

    @settings(max_examples=150, deadline=None)
    @given(f=_formulas, forced_set=st.frozensets(
        st.tuples(st.sampled_from(_NONCONSTANT), st.booleans())))
    def test_fold_decides_whether_some_cell_is_forced(self, f, forced_set):
        # an oracle that forces a random set of nonconstant literals and
        # decides constant ones by their sign, as the ideal tier does
        def forced(p: Polynomial, strict: bool) -> bool:
            if p.is_constant():
                return semalg._atom_truth(">" if strict else ">=", p.constant_value())
            return (p, strict) in forced_set

        some_cell = any(all(forced(p, False) for p in c.geqs) and
                        all(forced(q, True) for q in c.gts)
                        for c in to_normal_form(f).disjuncts)
        assert nnf_fold(f, forced, all, any) == some_cell

    @settings(max_examples=150, deadline=None)
    @given(f=_formulas)
    def test_identity_tier_matches_the_reference_fold(self, f):
        as_conclusion = SideCondition(TrueF(), f, _XY.names, "test")
        as_hypothesis = SideCondition(f, FalseF(), _XY.names, "test")
        assert (_try_identity(as_conclusion) is not None) == (reference_fold(f) == TrueF())
        assert (_try_identity(as_hypothesis) is not None) == (reference_fold(f) == FalseF())


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
        assert progress_gt(differential_radical(p, alpha_e)) == Atom(">", p)
        geq = progress_geq(differential_radical(p, alpha_e))
        assert geq == Or((Atom(">", p), Atom("=", p)))

    def test_swap_rank_two_structure(self, xy, swap_sys):
        p, lp = P("x", xy), P("y", xy)
        gt = progress_gt(differential_radical(p, swap_sys))
        assert gt == And((Atom(">=", p), Implies(Atom("=", p), Atom(">", lp))))
        geq = progress_geq(differential_radical(p, swap_sys))
        assert geq == Or((gt, And((Atom("=", p), Atom("=", lp)))))

    def test_zero_polynomial(self, uv, alpha_e):
        zero = Polynomial.zero(uv)
        gt = progress_gt(differential_radical(zero, alpha_e))
        assert gt == Atom(">", zero)
        rng = random.Random(26)
        geq = progress_geq(differential_radical(zero, alpha_e))
        for _ in range(10):
            pt = random_point(rng, 2)
            assert not eval_formula(gt, pt)
            assert eval_formula(geq, pt)

    def test_semialg_progress_trivial_forms(self, uv, alpha_e):
        assert semialg_progress(NormalForm.true(), {}) == TrueF()
        assert semialg_progress(NormalForm.false(), {}) == FalseF()

    def test_semialg_progress_single_strict_atom(self, uv, alpha_e):
        nf = to_normal_form(F("u^2 + v^2 < 1", uv))
        assert semialg_progress(nf, rank_chains(nf, alpha_e)) == Atom(">", P("1 - u^2 - v^2", uv))


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
        chain = differential_radical(p, sysr)
        disj = make_or([
            make_and([Atom("=", chain[i]) for i in range(k)] + [Atom(">", chain[k])])
            for k in range(len(chain))])
        gt = progress_gt(chain)
        for _ in range(1000):
            pt = random_point(rng, 2)
            ev = PointEvaluator(pt)
            assert ev(gt) == ev(disj)

    def test_negated_gt_is_geq_of_negation(self):
        rng, xy, sysr, p = self._setup(272)
        gt = progress_gt(differential_radical(p, sysr))
        geq_neg = progress_geq(differential_radical(-p, sysr))
        for _ in range(1000):
            pt = random_point(rng, 2)
            ev = PointEvaluator(pt)
            assert (not ev(gt)) == ev(geq_neg)

    def test_negated_radical_is_two_sided_gt(self):
        rng, xy, sysr, p = self._setup(273)
        eps = radical_of_chain(differential_radical(p, sysr))
        gt_pos = progress_gt(differential_radical(p, sysr))
        gt_neg = progress_gt(differential_radical(-p, sysr))
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
            neg = reference_negation(nf)
            sp = semialg_progress(nf, rank_chains(nf, sysr))
            sp_neg = semialg_progress(neg, rank_chains(neg, sysr))
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
        neg = reference_negation(nf)
        negated = Not(semialg_progress(nf, rank_chains(nf, rsys)))
        reference = semialg_progress(neg, rank_chains(neg, rsys))
        boundary = [p for c in nf.disjuncts for p in c.geqs + c.gts]
        for point in sample_points(rng, 2, 60, boundary):
            ev = PointEvaluator(point)
            assert ev(negated) == ev(reference)


class TestLayering:
    def test_semalg_imports_only_errors_and_polyarith(self):
        """Progress formulas are built from rank chains the caller computed,
        so the formula layer needs no Groebner engine, and a certificate
        checker can build them without ``ideals`` or ``odecore``.  The
        module is parsed, not imported: importing it runs the package's
        ``__init__``, which imports every module."""
        path = Path(__file__).resolve().parents[1] / "src" / "odecert" / "semalg.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level}
        absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        absolute += [node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and not node.level]
        assert relative == {"errors", "polyarith"}
        assert not [name for name in absolute if name.split(".")[0] == "odecert"]


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

    def test_no_warning_below_the_limit(self, xy):
        # 512 cells are within the limit: built with no warning
        import warnings as warnings_mod
        f = make_and([parse_formula(f"x - {k} > 0 | y - {k} > 0", xy)
                      for k in range(9)])  # 512 disjuncts
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert len(to_normal_form(f).disjuncts) == 512

    def test_negate_respects_limit(self, xy):
        from odecert import ResourceError
        conjuncts = tuple(
            Conjunct((parse_term(f"x - {k}", xy),), (parse_term(f"y - {k}", xy),))
            for k in range(6))
        nf = NormalForm(conjuncts)  # negation has 2^6 = 64 disjuncts
        assert len(reference_negation(nf).disjuncts) == 64
        with pytest.raises(ResourceError):
            reference_negation(nf, limit=32)

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
        # the 26 atom cells only: the sizes of the partial products are
        # checked before any of them is built
        assert len(built) == 26
        built.clear()
        nf = NormalForm(tuple(Conjunct((P(f"x - {k}", xy),), (P(f"y - {k}", xy),))
                              for k in range(13)))
        with pytest.raises(ResourceError, match=r"\(8192 > 4096\)"):
            reference_negation(nf)
        assert len(built) == 8190


class TestFormulaUtilities:
    def test_fold_constants(self, xy):
        f = F("1 > 0 & x >= 0", xy)
        assert reference_fold(f) == Atom(">=", P("x", xy))
        assert reference_fold(F("0 = 0", xy)) == TrueF()
        assert reference_fold(F("2 < 1", xy)) == FalseF()

    def test_render_round_trip(self, xy):
        texts = [
            "x >= 0 & (x = 0 -> y > 0)",
            "x > 0 | (x = 0 & y = 0)",
            "!(x != 0) -> (y <= 1 | x^2 - y >= 2)",
        ]
        for text in texts:
            f = F(text, xy)
            assert parse_formula(render_formula(f), xy) == f

    def test_render_once_per_formula(self, xy, monkeypatch):
        f = F("x >= 0 & (x = 0 -> y^2 - x > 0)", xy)
        text = render_formula(f)
        # the second call reads the text kept on f and renders no atom
        monkeypatch.setattr(Polynomial, "render", lambda *args: pytest.fail("re-rendered"))
        assert render_formula(f) == text
        assert f == F(text, xy)

    def test_make_and_or_folding(self, xy):
        a = Atom(">", P("x", xy))
        assert make_and([]) == TrueF()
        assert make_or([]) == FalseF()
        assert make_and([TrueF(), a]) == a
        assert make_or([FalseF(), a]) == a
        assert make_and([FalseF(), a]) == FalseF()
        assert make_or([TrueF(), a]) == TrueF()


class _ReferenceEvaluator:
    """The evaluator the compiled one replaced, kept as an oracle: a walk of
    the formula tree by type dispatch, with one value per polynomial object
    at the point."""

    def __init__(self, point):
        self.point = ScaledPoint.of(point)
        self.cache: dict[int, int] = {}

    def value(self, p: Polynomial) -> int:
        if id(p) not in self.cache:
            self.cache[id(p)] = p.scaled_value(self.point)
        return self.cache[id(p)]

    def __call__(self, f) -> bool:
        t = type(f)
        if t is Atom:
            return semalg._atom_truth(f.op, self.value(f.poly))
        if t is And:
            return all(self(a) for a in f.args)
        if t is Or:
            return any(self(a) for a in f.args)
        if t is Implies:
            return not self(f.hyp) or self(f.concl)
        if t is Not:
            return not self(f.arg)
        if t is TrueF:
            return True
        if t is FalseF:
            return False
        raise InputError("cannot evaluate a quantified formula at a point")


def _outcome(evaluate, f):
    try:
        return evaluate(f)
    except (InputError, DimensionError) as exc:
        return type(exc)


_XY = VarTable(["x", "y"])
# coordinates from a few values, so that the atoms' polynomials (degree at
# most 2, coefficients -1, 0 and 1) vanish at about a third of the points
# and every comparison meets all three signs
_COORDS = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2),
                           Fraction(-3, 2)])


def _formulas(polys):
    atom = st.builds(Atom, st.sampled_from(ATOM_OPS), st.sampled_from(polys))
    leaves = st.one_of(atom, atom, atom, st.sampled_from([TRUE, FALSE]))
    operands = lambda kids: st.lists(kids, min_size=1, max_size=4).map(tuple)
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Not, kids), st.builds(And, operands(kids)),
        st.builds(Or, operands(kids)), st.builds(Implies, kids, kids)), max_leaves=16)


@st.composite
def _formula_and_points(draw):
    rng = draw(st.randoms(use_true_random=False))
    # a few polynomial objects, each shared by every atom drawn on it
    polys = [random_polynomial(rng, _XY, terms=rng.randint(1, 3), bound=1)
             for _ in range(rng.randint(1, 4))]
    f = draw(_formulas(polys))
    points = draw(st.lists(st.tuples(_COORDS, _COORDS), min_size=20, max_size=30))
    return f, points


class TestCompiledEvaluatorMatchesTheTreeWalk:
    @settings(max_examples=120, deadline=None)
    @given(case=_formula_and_points())
    def test_same_truth_at_every_point(self, case):
        f, points = case
        for point in points:  # one compiled program, many points in a row
            want = _ReferenceEvaluator(point)(f)
            assert PointEvaluator(point)(f) is want
            assert PointEvaluator(ScaledPoint.of(point))(f) is want
            assert eval_formula(f, point) is want

    @settings(max_examples=40, deadline=None)
    @given(case=_formula_and_points(), extra=_COORDS)
    def test_wrong_dimension_raises_where_the_walk_does(self, case, extra):
        f, points = case
        for point in points[:5]:
            long_point = point + (extra,)
            want = _outcome(_ReferenceEvaluator(long_point), f)
            assert _outcome(PointEvaluator(long_point), f) == want
            assert _outcome(PointEvaluator(point[:1]), f) == \
                _outcome(_ReferenceEvaluator(point[:1]), f)

    def test_every_comparison_at_every_sign(self, xy):
        x = P("x", xy)
        for op in ATOM_OPS:
            f = Or((Atom(op, x), FALSE))
            for value in (-1, 0, 1):
                point = (Fraction(value), Fraction(5))
                assert PointEvaluator(point)(f) is _ReferenceEvaluator(point)(f) \
                    is semalg._atom_truth(op, value)

    def test_quantified_formula_raises_input_error(self, xy):
        x_pos = Atom(">", P("x", xy))
        for f in (Forall(("x",), x_pos), And((x_pos, Forall(("y",), x_pos))),
                  Implies(FALSE, Forall(("x",), x_pos))):
            for _ in range(2):  # a failed compilation leaves nothing cached
                with pytest.raises(InputError):
                    PointEvaluator((Fraction(1), Fraction(2)))(f)

    def test_normal_form_evaluates_as_its_formula(self, xy):
        rng = random.Random(41)
        for _ in range(20):
            nf = random_normal_form(rng, xy)
            for _ in range(30):
                pt = random_point(rng, 2, num=3, den=2)
                assert nf.evaluate(pt) is _ReferenceEvaluator(pt)(nf.to_formula())


def reference_normal_form(phi: Formula, limit: int = DEFAULT_DISJUNCT_LIMIT) -> NormalForm:
    """``to_normal_form`` with every merged cell folded through
    ``_build_conjunct``, as it was built before cells merged by
    deduplication alone; a cell that folds away is dropped.  Kept here as
    the reference construction."""

    def literal(p, strict):
        cell = semalg._build_conjunct((), (p,)) if strict else semalg._build_conjunct((p,), ())
        return [cell] if cell is not None else []

    def product(branches):
        branches = list(branches)
        size = 1
        for branch in branches:
            size *= len(branch)
            semalg._check_disjunct_count(size, limit)
        acc = [Conjunct((), ())]
        for branch in branches:
            cells = (semalg._build_conjunct(left.geqs + right.geqs, left.gts + right.gts)
                     for left in acc for right in branch)
            acc = [cell for cell in cells if cell is not None]
        return acc

    def union(branches):
        out = [cell for branch in branches for cell in branch]
        semalg._check_disjunct_count(len(out), limit)
        return out

    return NormalForm(tuple(nnf_fold(phi, literal, product, union)))


@st.composite
def _formulas_with_constants(draw):
    rng = draw(st.randoms(use_true_random=False))
    polys = [random_polynomial(rng, _XY, terms=rng.randint(1, 3), bound=1)
             for _ in range(rng.randint(1, 4))]
    # constants of each sign, and polynomials equal to others as other objects
    polys += [Polynomial.constant(_XY, c) for c in (-1, 0, 2)]
    polys += [-(-p) for p in polys[:2]]
    return draw(_formulas(polys))


def _normal_form_outcome(build, f, limit):
    from odecert import ResourceError
    try:
        return build(f, limit)
    except ResourceError as exc:
        return str(exc)


class TestNormalFormMatchesTheFoldingReference:
    @settings(max_examples=200, deadline=None)
    @given(f=_formulas_with_constants(), limit=st.sampled_from([DEFAULT_DISJUNCT_LIMIT, 6]))
    def test_same_cells_in_the_same_order(self, f, limit):
        got = _normal_form_outcome(to_normal_form, f, limit)
        assert got == _normal_form_outcome(reference_normal_form, f, limit)
        if isinstance(got, NormalForm):
            for cell in got.disjuncts:
                assert not any(p.is_constant() for p in cell.geqs + cell.gts)
