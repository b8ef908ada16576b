import ast
import json
import random
import stat
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from odecert import (Conjunct, DischargeConfig, DischargeStatus, NormalForm, OdeSystem,
                     Polynomial, ResourceError, SideCondition, VarTable,
                     certificate_from_json, certificate_to_json,
                     check_algebraic_invariance, check_certificate,
                     check_semialgebraic_invariance, discharge, dri_companion,
                     find_darboux_cofactor, find_vectorial_darboux,
                     lie_derivative, rank, sai_side_conditions,
                     to_normal_form)
from odecert.cli import main
from odecert.invariant import (PROVED_IDEAL, PROVED_IDENTITY, REFUTED,
                               SMT_VALID, UNKNOWN, DarbouxCert, DriCert,
                               SaiCert, VdbxCert, _hypothesis_nf, _ray,
                               _sample_stream, _try_identity)
from odecert.odecore import reverse
from odecert.parser import parse_formula, parse_term
from odecert.polyarith import GREVLEX
from odecert.ideals import differential_radical
from odecert.semalg import (Atom, Implies, Not, PointEvaluator, TrueF, make_and,
                            reverse_chain, semialg_progress)
from odecert.smtlib import SolverConfig

from conftest import (random_nonzero_polynomial, random_normal_form, random_polynomial,
                      random_system, rank_chains)

QUICK = DischargeConfig(samples=3000, seed=0)


def P(text, table):
    return parse_term(text, table)


def F(text, table):
    return parse_formula(text, table)


class TestDarbouxSearch:
    def test_unit_disk_cofactor(self, uv, alpha_e):
        g = find_darboux_cofactor(P("1 - u^2 - v^2", uv), alpha_e, 2)
        assert g == P("u^2 + v^2", uv).scale(Fraction(-1, 2))

    def test_default_degree_bound(self, uv, alpha_e):
        assert find_darboux_cofactor(P("1 - u^2 - v^2", uv), alpha_e) == \
            P("u^2 + v^2", uv).scale(Fraction(-1, 2))

    def test_decay(self):
        t = VarTable(["y"])
        sys = OdeSystem.from_pairs(t, [("y", P("-y", t))])
        assert find_darboux_cofactor(P("y", t), sys, 0) == P("-1", t)

    def test_infeasible(self, xy, swap_sys):
        assert find_darboux_cofactor(P("x", xy), swap_sys, 3) is None

    def test_conserved_quantity_cofactor_zero(self, xy):
        from odecert.parser import parse_ode
        rot = parse_ode("x' = y, y' = -x", xy)
        assert find_darboux_cofactor(P("x^2 + y^2", xy), rot, 2).is_zero()

    def test_matrix_entries_past_the_cap(self):
        # 150 unknowns (at the cap) and 300 rows, x^0..x^149 and x^200..x^349
        t = VarTable(["x"])
        sys = OdeSystem.from_pairs(t, [("x", P("x", t))])
        p = P("x^200 + 1", t)
        with pytest.raises(ResourceError, match="45000 matrix entries, cap 30000"):
            find_darboux_cofactor(p, sys, 149)
        assert find_darboux_cofactor(p, sys, 99) is None

    def test_vector_unknowns_count_every_column(self, xy, swap_sys):
        # a row of G has 2 entries, each with the 66 monomials of degree
        # <= 10, or the 78 of degree <= 11
        assert find_vectorial_darboux([P("x", xy), P("y", xy)], swap_sys, 10) is not None
        with pytest.raises(ResourceError, match="156 unknowns, cap 150"):
            find_vectorial_darboux([P("x", xy), P("y", xy)], swap_sys, 11)

    def test_found_matrix_is_checked(self, xy, swap_sys, monkeypatch):
        from odecert import invariant
        real = invariant._solve_exact

        def off_by_one(rows, rhs):
            sol = real(rows, rhs)
            return None if sol is None else [sol[0] + 1] + sol[1:]

        monkeypatch.setattr(invariant, "_solve_exact", off_by_one)
        with pytest.raises(AssertionError, match="vdbx check"):
            find_vectorial_darboux([P("x", xy), P("y", xy)], swap_sys, 0)


class TestDarbouxImpliesRankOne:
    def test_cofactor_success_forces_rank_one(self, uv, alpha_e):
        # whenever a cofactor exists, the rank is 1 and the rank cofactor g'
        # satisfies g'*p == g*p exactly (cofactors may differ off supp(p))
        rng = random.Random(47)
        t = VarTable(["y"])
        cases = []
        for _ in range(8):
            g = random_nonzero_polynomial(rng, t, max_degree=2, terms=2)
            sys_ = OdeSystem.from_pairs(
                t, [("y", g * Polynomial.variable(t, "y"))])
            k = rng.randint(1, 3)
            cases.append((Polynomial.variable(t, "y") ** k, sys_))
        cases.append((parse_term("1 - u^2 - v^2", uv), alpha_e))
        for p, sys_ in cases:
            g = find_darboux_cofactor(p, sys_)
            assert g is not None
            rr = rank(p, sys_)
            assert rr.n == 1
            assert rr.cofactors[0] * p == g * p


class TestSoundnessGate:
    def test_no_check_is_an_assert_statement(self):
        """``python -O`` strips assert statements, so every soundness check
        (``_assert_recombines``, ``_check_vdbx`` and the rest) raises or
        returns explicitly."""
        src = Path(__file__).resolve().parents[1] / "src" / "odecert"
        found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
        assert len(list(src.glob("*.py"))) > 10
        assert found == []

    def test_tier1_claims_survive_independent_sampling(self, xy):
        # metamorphic check on the ideal-reduction tier: whatever it proves
        # must have no rational counterexample at all
        rng = random.Random(46)
        from odecert.invariant import _try_sampling
        from odecert.semalg import Atom, make_and, make_or
        from conftest import random_normal_form
        proved = 0
        for _ in range(60):
            hyp_nf = random_normal_form(rng, xy, max_disjuncts=2, max_atoms=2)
            atoms = [p for c in hyp_nf.disjuncts for p in c.geqs + c.gts]
            if not atoms:
                continue
            pick = atoms[rng.randrange(len(atoms))]
            mult = random_nonzero_polynomial(rng, xy, max_degree=1, terms=2)
            concl = make_or([Atom("=", pick * mult), Atom(">", pick),
                             Atom(">=", pick)])
            cond = SideCondition(hyp_nf.to_formula(), concl, xy.names, "fuzz")
            out = discharge(cond, DischargeConfig(samples=0, seed=0))
            if out.status.kind != "proved_by_ideal_reduction":
                continue
            proved += 1
            assert _try_sampling(cond, DischargeConfig(samples=3000, seed=99)) is None
        assert proved >= 3

    def test_sai_invariant_conditions_survive_resampling(self, xy):
        # spec-style fuzz: an Invariant verdict's proved conditions must not
        # be refutable under a fresh sampling seed
        rng = random.Random(45)
        from odecert.invariant import _try_sampling
        from conftest import random_normal_form
        invariants = 0
        for _ in range(25):
            nf = random_normal_form(rng, xy, max_disjuncts=2, max_atoms=1)
            sysr = random_system(rng, xy)
            try:
                verdict = check_semialgebraic_invariance(nf, NormalForm.true(),
                                                         sysr, QUICK)
            except Exception:
                continue
            if verdict.kind != "invariant":
                continue
            invariants += 1
            for cond in verdict.conditions:
                assert _try_sampling(cond, DischargeConfig(samples=1500, seed=5)) is None
        assert invariants >= 1

    def test_random_verdicts_carry_checkable_evidence(self, xy):
        # fuzz: any verdict's embedded evidence must re-check exactly
        rng = random.Random(48)
        seen = {"invariant": 0, "not_invariant": 0}
        for _ in range(40):
            p = random_nonzero_polynomial(rng, xy)
            sysr = random_system(rng, xy)
            verdict = check_algebraic_invariance(p, sysr, config=QUICK)
            if verdict.kind == "invariant":
                assert check_certificate(verdict.certificate, QUICK)
                seen["invariant"] += 1
            elif verdict.kind == "not_invariant":
                cond = verdict.failed_condition
                from odecert.semalg import PointEvaluator
                ev = PointEvaluator(verdict.witness)
                assert ev(cond.hypothesis) and not ev(cond.conclusion)
                seen["not_invariant"] += 1
        assert seen["invariant"] >= 1 and seen["not_invariant"] >= 1


class TestVectorialDarboux:
    def test_swap_pair(self, xy, swap_sys):
        G = find_vectorial_darboux([P("x", xy), P("y", xy)], swap_sys, 0)
        assert G is not None
        assert [[G.get(i, j).render() for j in range(2)] for i in range(2)] == \
            [["0", "1"], ["1", "0"]]

    def test_one_dimensional_matches_scalar(self, uv, alpha_e):
        p = P("1 - u^2 - v^2", uv)
        G = find_vectorial_darboux([p], alpha_e, 2)
        g = find_darboux_cofactor(p, alpha_e, 2)
        assert G is not None and G.get(0, 0) == g

    def test_infeasible_vector(self, xy, swap_sys):
        # one-dimensional vectorial search succeeds exactly when the scalar
        # cofactor search does
        assert find_vectorial_darboux([P("x + 1", xy)], swap_sys, 1) is None
        assert find_darboux_cofactor(P("x + 1", xy), swap_sys, 1) is None


class TestDriCompanion:
    def test_rank_one_collapses_to_darboux(self, uv, alpha_e):
        p = P("1 - u^2 - v^2", uv)
        cert = dri_companion(rank(p, alpha_e), alpha_e)
        assert cert.G.rows == 1
        assert cert.G.get(0, 0) == P("u^2 + v^2", uv).scale(Fraction(-1, 2))
        assert check_certificate(cert)

    def test_swap_companion(self, xy, swap_sys):
        p = P("x", xy)
        cert = dri_companion(rank(p, swap_sys), swap_sys)
        assert [[cert.G.get(i, j).render() for j in range(2)] for i in range(2)] == \
            [["0", "1"], ["1", "0"]]
        assert cert.p_vec == (P("x", xy), P("y", xy))
        assert check_certificate(cert)

    def test_companion_always_checks_on_random_data(self, xy):
        rng = random.Random(61)
        for _ in range(6):
            p = random_nonzero_polynomial(rng, xy)
            sysr = random_system(rng, xy)
            cert = dri_companion(rank(p, sysr), sysr)
            assert check_certificate(cert)


class TestDischarge:
    def test_identity_tier_darboux_premise(self, uv, alpha_e):
        # Lie(1-u^2-v^2) - g*(1-u^2-v^2) is literally zero for the known cofactor
        p = P("1 - u^2 - v^2", uv)
        g = P("u^2 + v^2", uv).scale(Fraction(-1, 2))
        residue = lie_derivative(p, alpha_e) - g * p
        cond = SideCondition(TrueF(), Atom(">=", residue), uv.names, "dbx-premise")
        out = discharge(cond, QUICK)
        assert out.status.kind == PROVED_IDENTITY

    def test_syntactic_entailment(self, xy):
        cond = SideCondition(F("x >= 0 & y > 0", xy), F("y > 0", xy),
                             xy.names, "test")
        assert discharge(cond, QUICK).status.kind == PROVED_IDEAL

    def test_sign_split_entailment(self, xy):
        # x >= 0 -> x > 0 | x = 0 needs the >=0 case split
        cond = SideCondition(F("x >= 0", xy), F("x > 0 | x = 0", xy),
                             xy.names, "test")
        assert discharge(cond, QUICK).status.kind == PROVED_IDEAL

    def test_ideal_reduction_consequence(self, xy):
        cond = SideCondition(F("x = 0", xy), F("x*y = 0", xy), xy.names, "test")
        assert discharge(cond, QUICK).status.kind == PROVED_IDEAL

    def test_refuted_constant_falsehood(self, xy):
        cond = SideCondition(F("x = 0", xy), F("1 = 0", xy), xy.names, "test")
        out = discharge(cond, QUICK)
        assert out.status.kind == REFUTED
        assert out.status.witness is not None
        assert out.status.witness[0] == 0

    def test_refuted_witness_is_exact(self, xy):
        cond = SideCondition(F("x^2 + y^2 = 1/4 & x >= 0", xy), F("y > x", xy),
                             xy.names, "test")
        out = discharge(cond, DischargeConfig(samples=50_000, seed=0))
        assert out.status.kind == REFUTED
        x, y = out.status.witness
        assert x * x + y * y == Fraction(1, 4) and x >= 0 and y <= x

    def test_unknown_without_solver(self, xy):
        # valid (x^2 + y^2 >= 0 always) but neither an identity (the literal
        # has two variables), ideal-forced, nor refutable; no solver configured
        cond = SideCondition(F("x >= 0", xy), F("x^2 + y^2 + 1 > 0", xy), xy.names, "test")
        out = discharge(cond, DischargeConfig(samples=500, seed=0))
        assert out.status.kind == UNKNOWN

    def test_univariate_definite_conclusion_is_an_identity(self, xy):
        # x^2 + 1 has no real root and is positive at 0
        cond = SideCondition(F("x >= 0", xy), F("x^2 + 1 > 0", xy), xy.names, "test")
        assert discharge(cond, DischargeConfig(samples=0)).status == DischargeStatus(
            PROVED_IDENTITY, detail="conclusion is identically true")

    def test_univariate_definite_negated_hypothesis_is_an_identity(self, xy):
        cond = SideCondition(F("y > 0 & x^2 - x + 1 <= 0", xy), F("y < 0", xy),
                             xy.names, "test")
        assert discharge(cond, DischargeConfig(samples=0)).status == DischargeStatus(
            PROVED_IDENTITY, detail="hypothesis is identically false")

    @pytest.mark.parametrize("hyp, concl", [
        ("x - y = 0", "x*y + 1 > 0"),             # forced: reduces to y^2 + 1 > 0
        ("x - y = 0 & x*y + 1 < 0", "x > 5"),    # a strict that holds nowhere
        ("x - y = 0 & x*y + 1 = 0", "x > 5"),    # a basis element with no real root
    ])
    def test_ideal_tier_decides_univariate_reductions(self, xy, hyp, concl):
        cond = SideCondition(F(hyp, xy), F(concl, xy), xy.names, "test")
        assert _try_identity(cond) is None
        assert discharge(cond, DischargeConfig(samples=0)).status.kind == PROVED_IDEAL

    def test_literal_past_the_sturm_bound_falls_through(self, xy):
        # positive everywhere, but of degree 998: past STURM_SIZE_LIMIT the
        # literal is left to sampling, which cannot refute it
        concl = F("x^998 + 2*x^400 - 5*x^3 + x^2 + 7 > 0", xy)
        cond = SideCondition(F("y >= 0", xy), concl, xy.names, "test")
        start = time.perf_counter()
        out = discharge(cond, DischargeConfig(samples=200, seed=0))
        assert time.perf_counter() - start < 1.0
        assert out.status == DischargeStatus(UNKNOWN, detail="no solver configured")

    def test_hypothesis_past_the_disjunct_limit_is_still_sampled(self, xy):
        # 2^13 = 8192 > 4096 cells: the ideal tier is skipped, and sampling
        # evaluates the formulas themselves
        hyp = make_and([F(f"x - {k} > 0 | y - {k} > 0", xy) for k in range(13)])
        refutable = discharge(SideCondition(hyp, F("x < 20", xy), xy.names, "test"), QUICK)
        assert refutable.status.kind == REFUTED
        x, y = refutable.status.witness
        assert x >= 20 and all(x > k or y > k for k in range(13))
        valid = discharge(SideCondition(hyp, F("x > 0 | y > 0", xy), xy.names, "test"),
                          QUICK)
        assert valid.status == DischargeStatus(UNKNOWN, detail="no solver configured")

    def test_positive_multiples_of_a_strict_atom_are_forced(self, xy):
        for concl, kind in [("3*x - 3*y > 0", PROVED_IDEAL), ("x/2 - y/2 >= 0", PROVED_IDEAL),
                            ("y - x > 0", UNKNOWN), ("2*x - y > 0", UNKNOWN)]:
            cond = SideCondition(F("x - y > 0", xy), F(concl, xy), xy.names, "test")
            assert discharge(cond, DischargeConfig(samples=0)).status.kind == kind, concl

    def test_ideal_tier_proves_a_conclusion_past_the_disjunct_limit(self, xy):
        # the conclusion's normal form has 2^13 = 8192 > 4096 cells; the
        # ideal tier reads the forced literal x + y > 0 off the formula
        concl = make_and([F(f"x + y > 0 | x - {k} > 0", xy) for k in range(13)])
        cond = SideCondition(F("x = 0 & y > 0", xy), concl, xy.names, "test")
        with pytest.raises(ResourceError):
            to_normal_form(concl)
        assert discharge(cond, DischargeConfig(samples=0)).status == DischargeStatus(
            PROVED_IDEAL, detail="conclusion forced modulo hypothesis equalities")


def _reference_positive_multiple(r: Polynomial, s: Polynomial) -> bool:
    """r = lambda*s for some lambda > 0, by the leading coefficients."""
    lam = r.leading(GREVLEX)[1] / s.leading(GREVLEX)[1]
    return lam > 0 and r == s.scale(lam)


_small_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                               st.integers(-5, 5).filter(bool), min_size=1, max_size=4)


class TestHypothesisNormalForm:
    def test_built_once_and_kept_across_status_copies(self, xy):
        cond = SideCondition(F("x >= 0 & (y > 0 | x = 0)", xy), F("x + y >= 0", xy),
                             xy.names, "test")
        nf = _hypothesis_nf(cond)
        assert nf == to_normal_form(cond.hypothesis)
        assert _hypothesis_nf(cond.with_status(DischargeStatus(REFUTED))) is nf
        assert _hypothesis_nf(discharge(cond, QUICK)) is nf

    def test_past_the_disjunct_limit_is_kept_as_none(self, xy, monkeypatch):
        from odecert import invariant
        # 13 binary disjunctions make 2^13 = 8192 cells, past the limit 4096
        hyp = F(" & ".join(f"(x > {i} | y > {i})" for i in range(13)), xy)
        cond = SideCondition(hyp, F("x > 0", xy), xy.names, "test")
        calls = []
        real = invariant.to_normal_form
        monkeypatch.setattr(invariant, "to_normal_form",
                            lambda f: calls.append(f) or real(f))
        assert _hypothesis_nf(cond) is None
        assert _hypothesis_nf(cond.with_status(DischargeStatus(REFUTED))) is None
        assert len(calls) == 1


class TestRayKeys:
    @settings(max_examples=80, deadline=None)
    @given(s_terms=_small_terms, other_terms=_small_terms, num=st.integers(-20, 20),
           den=st.integers(1, 30))
    def test_equal_keys_exactly_for_positive_multiples(self, s_terms, other_terms, num, den):
        xy = VarTable(["x", "y"])
        s = Polynomial(xy, {m: Fraction(c, 7) for m, c in s_terms.items()})
        other = Polynomial(xy, {m: Fraction(c) for m, c in other_terms.items()})
        for r in (s.scale(Fraction(num, den)), -s, other, s + s * s):
            if r.is_zero():
                continue
            assert (_ray(r) == _ray(s)) == _reference_positive_multiple(r, s)


def _write_script(path, body):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


@pytest.fixture
def unsat_solver(tmp_path):
    return _write_script(tmp_path / "unsat.sh", "echo unsat\n")


@pytest.fixture
def sat_x0_solver(tmp_path):
    return _write_script(
        tmp_path / "sat.sh",
        "echo sat\necho '(model (define-fun x () Real 0.0) "
        "(define-fun y () Real (- (/ 1 2))))'\n")


@pytest.fixture
def irrational_solver(tmp_path):
    return _write_script(
        tmp_path / "irr.sh",
        "echo sat\necho '(model (define-fun x () Real (root-obj (+ (^ x 2) (- 2)) 2)) "
        "(define-fun y () Real 0.0))'\n")


@pytest.fixture(params=["(" * 100_000,
                        "(model (define-fun x () Real " + "(- " * 5_000 + "1" + ")" * 5_000
                        + ") (define-fun y () Real 0.0))"],
                ids=["parentheses", "negations"])
def nested_solver(tmp_path, request):
    # sat, then a model nested far past any real solver's output
    out = tmp_path / "nested.out"
    out.write_text(request.param)
    return _write_script(tmp_path / "nested.sh", f"echo sat\ncat '{out}'\n")


class TestSolverContract:
    """The external solver is untrusted: answers only count after exact
    re-verification, and failures degrade to Unknown."""

    def _hard_condition(self, xy):
        # hypothesis has no rational points, so sampling cannot refute and
        # the ideal tier cannot close it
        return SideCondition(F("x^2 - 2 = 0", xy), F("1 = 0", xy), xy.names, "t")

    def test_unsat_becomes_smt_valid(self, xy, unsat_solver):
        cfg = DischargeConfig(samples=200, seed=0,
                              solver=SolverConfig(unsat_solver))
        out = discharge(self._hard_condition(xy), cfg)
        assert out.status.kind == SMT_VALID

    def test_sat_model_reverified_exactly(self, xy, sat_x0_solver):
        cond = SideCondition(F("x = 0", xy), F("1 = 0", xy), xy.names, "t")
        cfg = DischargeConfig(samples=0, seed=0,
                              solver=SolverConfig(sat_x0_solver))
        out = discharge(cond, cfg)
        assert out.status.kind == REFUTED
        assert out.status.witness == (Fraction(0), Fraction(-1, 2))

    def test_bogus_model_downgrades_to_unknown(self, xy, sat_x0_solver):
        # solver claims sat with x=0, but the hypothesis excludes it
        out = discharge(self._hard_condition(xy),
                        DischargeConfig(samples=0, solver=SolverConfig(sat_x0_solver)))
        assert out.status.kind == UNKNOWN

    def test_irrational_model_downgrades_to_unknown(self, xy, irrational_solver):
        out = discharge(self._hard_condition(xy),
                        DischargeConfig(samples=0, solver=SolverConfig(irrational_solver)))
        assert out.status.kind == UNKNOWN

    def test_deeply_nested_model_is_unknown(self, xy, nested_solver, tmp_path, capsys):
        out = discharge(self._hard_condition(xy),
                        DischargeConfig(samples=0, solver=SolverConfig(nested_solver)))
        assert out.status.kind == UNKNOWN
        prob = tmp_path / "green.prob"
        prob.write_text("vars: u, v\n"
                        "ode: u' = -v + u/4*(1-u^2-v^2), v' = u + v/4*(1-u^2-v^2)\n"
                        "candidate: u^2 <= v^2 + 9/2\nsamples: 300\n")
        assert main(["check-inv", str(prob), "--solver", nested_solver]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_binary_is_unknown_not_crash(self, xy):
        out = discharge(self._hard_condition(xy),
                        DischargeConfig(samples=0,
                                        solver=SolverConfig("/nonexistent/solver")))
        assert out.status.kind == UNKNOWN

    def test_no_solver_configured(self, xy):
        out = discharge(self._hard_condition(xy), DischargeConfig(samples=200))
        assert out.status.kind == UNKNOWN


class TestCheckAlgebraic:
    def test_unit_circle_invariant(self, uv, alpha_e):
        verdict = check_algebraic_invariance(P("u^2 + v^2 - 1", uv), alpha_e,
                                             config=QUICK)
        assert verdict.kind == "invariant"
        cert = verdict.certificate
        assert isinstance(cert, DriCert) and cert.rank_result.n == 1
        assert cert.rank_result.cofactors[0] == \
            P("u^2 + v^2", uv).scale(Fraction(-1, 2))

    def test_clock_not_invariant(self):
        t = VarTable(["x"])
        clock = OdeSystem.from_pairs(t, [("x", Polynomial.one(t))])
        verdict = check_algebraic_invariance(P("x", t), clock, config=QUICK)
        assert verdict.kind == "not_invariant"
        assert verdict.witness == (Fraction(0),)

    def test_zero_polynomial_trivially_invariant(self, uv, alpha_e):
        verdict = check_algebraic_invariance(Polynomial.zero(uv), alpha_e,
                                             config=QUICK)
        assert verdict.kind == "invariant"

    def test_open_domain_disequation(self, uv, alpha_e):
        # same circle, restricted to the open domain u != 0
        verdict = check_algebraic_invariance(P("u^2 + v^2 - 1", uv), alpha_e,
                                             domain=P("u", uv), config=QUICK)
        assert verdict.kind == "invariant"

    def test_t1_success_implies_no_sampling_counterexample(self, xy):
        # DRI completeness cross-check: whenever the ideal tier proves the
        # condition, an independent sampling pass must find nothing
        rng = random.Random(88)
        from odecert.invariant import _try_sampling
        checked = 0
        for _ in range(30):
            p = random_nonzero_polynomial(rng, xy)
            sysr = random_system(rng, xy)
            verdict = check_algebraic_invariance(p, sysr, config=QUICK)
            if verdict.kind != "invariant":
                continue
            cond = verdict.conditions[0]
            assert _try_sampling(cond, DischargeConfig(samples=2000, seed=1)) is None
            checked += 1
        assert checked >= 1


class TestCheckSemialgebraic:
    def test_backward_condition_negates_progress(self, uv, alpha_e):
        P_nf = to_normal_form(F("u^2 + v^2 < 1/4 | (u^2 + v^2 = 1/4 & u >= 0)", uv))
        Q_nf = to_normal_form(F("u - 2 != 0", uv))
        rsys = reverse(alpha_e)
        _, backward = sai_side_conditions(P_nf, Q_nf, alpha_e)
        assert backward.hypothesis == make_and([Not(P_nf.to_formula()), Q_nf.to_formula(),
                                                semialg_progress(Q_nf, rank_chains(Q_nf, rsys))])
        assert backward.conclusion == Not(semialg_progress(P_nf, rank_chains(P_nf, rsys)))

    def test_negated_atom_is_not_ranked(self, uv, alpha_e, monkeypatch):
        # Q holds u - 2 and -u + 2, P holds u - v and -u + v: of each pair
        # the second chain is the first negated
        P_nf = to_normal_form(F("u^2 + v^2 <= 1 & u - v >= 0 | v - u > 0", uv))
        Q_nf = to_normal_form(F("u - 2 != 0", uv))
        from odecert import invariant
        ranked, real = [], invariant.differential_radical
        monkeypatch.setattr(invariant, "differential_radical",
                            lambda p, sys, cap: ranked.append(p) or real(p, sys, cap=cap))
        forward, backward = sai_side_conditions(P_nf, Q_nf, alpha_e)
        monkeypatch.undo()
        assert ranked == [P("u - 2", uv), P("-u^2 - v^2 + 1", uv), P("u - v", uv)]
        # the conditions built from chains that rank every atom
        for cond, sys, hyp, concl in [(forward, alpha_e, P_nf.to_formula(), lambda f: f),
                                      (backward, reverse(alpha_e), Not(P_nf.to_formula()), Not)]:
            chains = {**rank_chains(Q_nf, sys), **rank_chains(P_nf, sys)}
            assert len(chains) == 5
            assert cond.hypothesis == make_and([hyp, Q_nf.to_formula(),
                                                semialg_progress(Q_nf, chains)])
            assert cond.conclusion == concl(semialg_progress(P_nf, chains))

    def test_open_disk_invariant(self, uv, alpha_e):
        P_nf = to_normal_form(F("1 - u^2 - v^2 > 0", uv))
        verdict = check_semialgebraic_invariance(P_nf, NormalForm.true(), alpha_e,
                                                 QUICK)
        assert verdict.kind == "invariant"
        statuses = {c.provenance: c.status.kind for c in verdict.conditions}
        assert statuses["sai-forward"] == PROVED_IDENTITY  # open-set shortcut
        assert statuses["sai-backward"] == PROVED_IDEAL

    def test_half_open_disk_not_invariant(self, uv, alpha_e):
        P_nf = to_normal_form(F("u^2 + v^2 < 1/4 | (u^2 + v^2 = 1/4 & u >= 0)", uv))
        verdict = check_semialgebraic_invariance(P_nf, NormalForm.true(), alpha_e,
                                                 DischargeConfig(samples=100_000, seed=0))
        assert verdict.kind == "not_invariant"
        u0, v0 = verdict.witness
        assert u0 * u0 + v0 * v0 == Fraction(1, 4)

    def test_closed_region_backward_shortcut(self, uv, alpha_e):
        P_nf = to_normal_form(F("u^2 <= v^2 + 9/2", uv))
        fwd, bwd = sai_side_conditions(P_nf, NormalForm.true(), alpha_e, QUICK)
        assert bwd.status.kind == PROVED_IDENTITY
        assert not fwd.status.is_proved()

    def test_domain_constraint_forms_appear_in_hypothesis(self, uv, alpha_e):
        P_nf = to_normal_form(F("1 - u^2 - v^2 > 0", uv))
        Q_nf = to_normal_form(F("u != 1", uv))
        fwd, _ = sai_side_conditions(P_nf, Q_nf, alpha_e, QUICK)
        # hypothesis must mention P, Q and the progress of Q

        def atoms(g):
            if isinstance(g, Atom):
                return [g]
            if isinstance(g, Not):
                return atoms(g.arg)
            if isinstance(g, Implies):
                return atoms(g.hyp) + atoms(g.concl)
            return [a for h in getattr(g, "args", ()) for a in atoms(h)]

        assert len(atoms(fwd.hypothesis)) >= 3

    def test_true_candidate_invariant(self, uv, alpha_e):
        verdict = check_semialgebraic_invariance(NormalForm.true(),
                                                 NormalForm.true(), alpha_e, QUICK)
        assert verdict.kind == "invariant"

    def test_domain_makes_the_difference(self):
        # x' = 1: the half line x <= 0 is left at x = 0 under a true domain,
        # but the domain x != 0 stops evolution before crossing
        t = VarTable(["x"])
        clock = OdeSystem.from_pairs(t, [("x", Polynomial.one(t))])
        P_nf = to_normal_form(F("x <= 0", t))
        without = check_semialgebraic_invariance(P_nf, NormalForm.true(), clock,
                                                 QUICK)
        assert without.kind == "not_invariant"
        assert without.witness == (Fraction(0),)
        Q_nf = to_normal_form(F("x != 0", t))
        with_domain = check_semialgebraic_invariance(P_nf, Q_nf, clock, QUICK)
        assert with_domain.kind == "invariant"

    def test_shortcut_agrees_with_full_discharge(self, xy):
        # shortcut-proved conditions are never refutable by sampling
        rng = random.Random(71)
        from odecert.invariant import _try_sampling
        for _ in range(20):
            nf = _random_one_sided_nf(rng, xy)
            sysr = random_system(rng, xy)
            try:
                fwd, bwd = sai_side_conditions(nf, NormalForm.true(), sysr, QUICK)
            except Exception:
                continue
            cond = fwd if nf.all_strict() else bwd
            assert cond.status.kind == PROVED_IDENTITY
            assert _try_sampling(cond, DischargeConfig(samples=400, seed=2)) is None


_TABLES = {n: VarTable(["x", "y", "z"][:n]) for n in (2, 3)}


def _sequential_sai(P_nf, Q_nf, sys, config):
    """The two SAI conditions discharged one after the other, forward
    first, the backward one only when the forward one is not refuted: the
    order ``check_semialgebraic_invariance`` kept before it sampled the two
    in lockstep.  Kept here as the reference."""
    forward, backward = sai_side_conditions(P_nf, Q_nf, sys, config)
    if not forward.status.is_proved():
        forward = discharge(forward, config)
    if forward.status.kind != REFUTED and not backward.status.is_proved():
        backward = discharge(backward, config)
    return forward, backward


def _reference_verdict(conditions):
    if any(c.status.kind == REFUTED for c in conditions):
        return "not_invariant"
    return "invariant" if all(c.status.is_proved() for c in conditions) else "unknown"


def _reference_failed(conditions):
    return next(c for c in conditions if c.status.kind == REFUTED)


class TestSaiRace:
    """Once the forward condition fails its exact tiers, the two conditions
    are sampled in lockstep up to the first refutation."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), sample_seed=st.integers(0, 50))
    def test_race_agrees_with_the_sequential_order(self, seed, sample_seed):
        rng = random.Random(seed)
        table = _TABLES[2]
        sys = random_system(rng, table)
        P_nf = random_normal_form(rng, table, max_disjuncts=2)
        Q_nf = (NormalForm.true() if rng.random() < 0.5 else
                random_normal_form(rng, table, max_disjuncts=1, max_atoms=1))
        config = DischargeConfig(samples=300, seed=sample_seed, rank_cap=6)
        verdict = check_semialgebraic_invariance(P_nf, Q_nf, sys, config)
        try:
            reference = _sequential_sai(P_nf, Q_nf, sys, config)
        except ResourceError:
            assert verdict.kind == "unknown" and not verdict.conditions
            return
        assert verdict.kind == _reference_verdict(reference)
        if verdict.kind != "not_invariant":
            assert verdict.conditions == reference
            return
        failed = verdict.failed_condition
        # the witness is the one discharge gives the refuted condition alone
        alone = discharge(failed.with_status(DischargeStatus()), config)
        assert alone.status == failed.status
        assert verdict.witness == failed.status.witness
        assert not PointEvaluator(verdict.witness)(Implies(failed.hypothesis,
                                                           failed.conclusion))
        # the other condition is proved, or was cut short and stays undecided
        other, = (c for c in verdict.conditions if c.provenance != failed.provenance)
        assert other.status.is_proved() or other.status == DischargeStatus()
        if failed.provenance != _reference_failed(reference).provenance:
            assert other.status == DischargeStatus()
        # of two refutable conditions, the one refuted at the earlier point
        # of its own stream fails, the forward one on a tie
        if not other.status.is_proved() and \
                discharge(other, config).status.kind == REFUTED:
            drawn = {c.provenance: len(list(_sample_stream(c, config)))
                     for c in verdict.conditions}
            first = min(("sai-forward", "sai-backward"), key=drawn.__getitem__)
            assert failed.provenance == first

    def test_an_early_backward_refutation_ends_the_sampling(self, xy, monkeypatch):
        # the forward condition is undecidable by sampling, and the backward
        # one is refuted within a few points: sampled one after the other,
        # the forward condition would draw all 2000 of its points first
        from odecert import sampling
        from odecert.parser import parse_ode
        sys = parse_ode("x' = 1, y' = 2*x*y + x", xy)
        P_nf = to_normal_form(F("-3*y + 2 >= 0 | 2*x*y + 2*y^2 > 0 | "
                                "x + 1 >= 0 & -2*x*y - 2*y^2 + y > 0", xy))
        config = DischargeConfig(samples=2000, seed=0)
        drawn = []
        real = sampling.random_point
        monkeypatch.setattr(sampling, "random_point",
                            lambda *args: drawn.append(1) or real(*args))
        verdict = check_semialgebraic_invariance(P_nf, NormalForm.true(), sys, config)
        assert verdict.kind == "not_invariant"
        assert verdict.failed_condition.provenance == "sai-backward"
        assert len(drawn) < 100
        forward, backward = verdict.conditions
        assert forward.status == DischargeStatus()
        drawn.clear()
        reference = _sequential_sai(P_nf, NormalForm.true(), sys, config)
        assert len(drawn) > 2000
        assert reference[0].status.kind == UNKNOWN
        assert reference[1].status == backward.status


class TestBackwardChains:
    """The chain of an atom over the reversed system is its forward chain
    with every odd entry negated (L_{-f} q = -L_f q)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nvars=st.sampled_from([2, 3]))
    def test_reversed_chain_negates_odd_entries(self, seed, nvars):
        rng = random.Random(seed)
        table = _TABLES[nvars]
        sys = random_system(rng, table)
        p = random_nonzero_polynomial(rng, table)
        try:
            forward = differential_radical(p, sys, cap=6)
        except ResourceError:
            with pytest.raises(ResourceError):
                differential_radical(p, reverse(sys), cap=6)
            return
        assert differential_radical(p, reverse(sys), cap=6) == reverse_chain(forward)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nvars=st.sampled_from([2, 3]))
    def test_backward_condition_matches_a_fresh_rank(self, seed, nvars):
        rng = random.Random(seed)
        table = _TABLES[nvars]
        sys = random_system(rng, table)
        P_nf = random_normal_form(rng, table, max_disjuncts=2)
        Q_nf = random_normal_form(rng, table, max_disjuncts=1, max_atoms=1)
        config = DischargeConfig(rank_cap=6)
        rsys = reverse(sys)
        try:  # the reference: progress over reverse(sys), every chain ranked anew
            hyp = make_and([Not(P_nf.to_formula()), Q_nf.to_formula(),
                            semialg_progress(Q_nf, rank_chains(Q_nf, rsys, cap=6))])
            concl = Not(semialg_progress(P_nf, rank_chains(P_nf, rsys, cap=6)))
        except ResourceError:
            with pytest.raises(ResourceError):
                sai_side_conditions(P_nf, Q_nf, sys, config)
            return
        _, backward = sai_side_conditions(P_nf, Q_nf, sys, config)
        assert backward.hypothesis == hyp
        assert backward.conclusion == concl


def _random_one_sided_nf(rng, table):
    open_setting = rng.random() < 0.5
    disjuncts = []
    for _ in range(rng.randint(1, 2)):
        polys = tuple(random_nonzero_polynomial(rng, table)
                      for _ in range(rng.randint(1, 2)))
        disjuncts.append(Conjunct((), polys) if open_setting else Conjunct(polys, ()))
    return NormalForm(tuple(disjuncts))


class TestCertificates:
    def test_darboux_certificate_accepts_and_rejects(self, uv, alpha_e):
        p = P("1 - u^2 - v^2", uv)
        g = find_darboux_cofactor(p, alpha_e)
        cert = DarbouxCert(system=alpha_e, p=p, g=g, relation=">")
        assert check_certificate(cert)
        tampered = DarbouxCert(system=alpha_e, p=p, g=g + Polynomial.one(uv),
                               relation=">")
        assert not check_certificate(tampered)

    def test_darboux_with_domain_premise(self, uv, alpha_e):
        # residue is zero anyway, so any domain works through discharge
        p = P("1 - u^2 - v^2", uv)
        g = find_darboux_cofactor(p, alpha_e)
        cert = DarbouxCert(system=alpha_e, p=p, g=g, relation=">=",
                           domain=F("u != 0", uv))
        assert check_certificate(cert)

    def test_vdbx_certificate(self, xy, swap_sys):
        G = find_vectorial_darboux([P("x", xy), P("y", xy)], swap_sys, 0)
        cert = VdbxCert(system=swap_sys, p_vec=(P("x", xy), P("y", xy)), G=G)
        assert check_certificate(cert)

    def test_cofactors_of_a_wider_table_are_rejected(self, xy):
        # a cofactor over (x, y, z) multiplied over (x, y) would have its
        # exponent vectors cut to two entries, so z * g would pass for g
        from dataclasses import replace
        from odecert.ideals import RankResult
        from odecert.invariant import ChainRecord, reduction_certificate
        from odecert.parser import parse_ode, parse_program
        xyz = VarTable(["x", "y", "z"])
        z = P("z", xyz)
        sys = parse_ode("x' = x, y' = y", xy)
        for cofactor, accepted in ((Polynomial.one(xy), True), (z, False)):
            cert = DriCert(system=sys, p=P("x", xy), domain=None,
                           rank_result=RankResult(1, (cofactor,)))
            assert check_certificate(cert) is accepted
        hp = reduction_certificate(xy, parse_program("{ x := -x }*", xy), P("x", xy), 20)
        assert check_certificate(hp)
        wider = [ChainRecord(rec.chain, tuple(c.lift(xyz) * z for c in rec.cofactors))
                 for rec in hp.chains]
        assert not check_certificate(replace(hp, chains=tuple(wider)))

    def test_dri_minimality_enforced(self, uv, alpha_e):
        # claiming rank 2 for a rank-1 polynomial must be rejected even if
        # the recombination identity holds
        p = P("1 - u^2 - v^2", uv)
        g = P("u^2 + v^2", uv).scale(Fraction(-1, 2))
        lp = lie_derivative(p, alpha_e)
        l2p = lie_derivative(lp, alpha_e)
        # L^2 p = h*p + g2*Lp with g2 chosen via the product rule
        lg = lie_derivative(g, alpha_e)
        from odecert.ideals import RankResult
        fake = RankResult(2, (lg, g))
        assert l2p == lg * p + g * lp
        cert = DriCert(system=alpha_e, p=p, domain=None, rank_result=fake)
        assert not check_certificate(cert)
        # the true rank 1, and rank 1 of p = 0, replay with a cap-0 chain; a
        # parsed certificate carries no chain
        for q in (p, Polynomial.zero(uv)):
            rr = rank(q, alpha_e)
            assert rr.n == 1
            for result in (rr, RankResult(1, rr.cofactors)):
                assert check_certificate(DriCert(system=alpha_e, p=q, domain=None,
                                                 rank_result=result))

    def test_dri_minimality_replay_on_a_unit_ideal_chain(self, xy):
        from odecert.ideals import RankResult
        from odecert.invariant import algebraic_invariance_condition
        # rank 4, and <p, ..., L^3 p> is <1>, so the radical formula holds
        # nowhere while p = 0 has real points: a false claim, rejected
        p = P("-2*x*y", xy)
        sysr = OdeSystem.from_pairs(xy, [("x", P("1", xy)), ("y", P("-x*y - 3*x", xy))])
        rr = rank(p, sysr)
        assert rr.n == 4
        assert not check_certificate(DriCert(system=sysr, p=p, domain=None, rank_result=rr))
        # p = x^2 + 1 under x' = 1, y' = 0: rank 2, and <p, Lp> = <x^2 + 1, 2*x>
        # is <1> too, but p = 0 has no real point, so the claim holds
        p = P("x^2 + 1", xy)
        sysr = OdeSystem.from_pairs(xy, [("x", P("1", xy)), ("y", P("0", xy))])
        rr = rank(p, sysr)
        assert (rr.n, rr.cofactors) == (2, (P("2", xy), P("-x", xy)))
        assert check_certificate(DriCert(system=sysr, p=p, domain=None, rank_result=rr))
        # lifting the identity one step (L^3 p = sum (L g_i + g_{i-1}) L^i p)
        # gives a rank 3 whose identity and side condition both hold: the
        # replay rejects it by minimality alone
        g = rr.cofactors
        lifted = tuple(lie_derivative(g[i], sysr) + (g[i - 1] if i else Polynomial.zero(xy))
                       for i in range(2)) + (g[1],)
        chain = [p]
        for _ in range(3):
            chain.append(lie_derivative(chain[-1], sysr))
        assert sum((c * q for c, q in zip(lifted, chain)), Polynomial.zero(xy)) == chain[3]
        assert discharge(algebraic_invariance_condition(chain[:3], sysr)).status.is_proved()
        fake = DriCert(system=sysr, p=p, domain=None, rank_result=RankResult(3, lifted))
        assert not check_certificate(fake)

    def test_dri_side_condition_replayed_under_the_domain(self, xy):
        # x = 0 is invariant under x' = 1 on the domain x != 0 only: the
        # certificate of that verdict, with its domain dropped, is rejected
        p = P("x", xy)
        sysr = OdeSystem.from_pairs(xy, [("x", P("1", xy)), ("y", P("0", xy))])
        verdict = check_algebraic_invariance(p, sysr, domain=p, config=QUICK)
        assert verdict.kind == "invariant"
        assert check_algebraic_invariance(p, sysr, config=QUICK).kind == "not_invariant"
        doc = certificate_to_json(verdict.certificate)
        assert doc["domain"] == "x" and doc["rank"] == {"n": 2, "cofactors": ["0", "0"]}
        assert check_certificate(certificate_from_json(doc), QUICK)
        doc["domain"] = None
        assert not check_certificate(certificate_from_json(doc), QUICK)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_dri_certificate_valid_exactly_when_invariant(self, seed):
        rng = random.Random(seed)
        xy = VarTable(["x", "y"])
        p = random_polynomial(rng, xy)
        sysr = random_system(rng, xy)
        config = DischargeConfig(samples=200, seed=5)
        try:
            rr = rank(p, sysr, cap=config.rank_cap)
        except ResourceError:
            assume(False)  # the rank cap is exceeded: no certificate to replay
        verdict = check_algebraic_invariance(p, sysr, None, config)
        cert = DriCert(system=sysr, p=p, domain=None, rank_result=rr)
        assert check_certificate(cert, config) == (verdict.kind == "invariant")

    def test_sai_condition_tamper_detected(self, uv, alpha_e):
        P_nf = to_normal_form(F("1 - u^2 - v^2 > 0", uv))
        verdict = check_semialgebraic_invariance(P_nf, NormalForm.true(), alpha_e,
                                                 QUICK)
        cert = verdict.certificate
        assert check_certificate(cert, QUICK)
        bad_conditions = (cert.conditions[0],
                          cert.conditions[1].with_status(cert.conditions[1].status))
        tampered = SaiCert(system=cert.system, P=cert.P, Q=cert.Q,
                           forward=cert.forward,
                           backward=Atom(">", P("u", uv)),
                           conditions=(cert.conditions[0],
                                       SideCondition(Atom(">", P("u", uv)),
                                                     Atom(">", P("u", uv)),
                                                     uv.names, "sai-backward")))
        assert not check_certificate(tampered, QUICK)
        assert bad_conditions  # silence lint


class TestCertificateJson:
    def test_round_trip_all_kinds(self, uv, xy, alpha_e, swap_sys):
        p = P("1 - u^2 - v^2", uv)
        certs = [
            DarbouxCert(system=alpha_e, p=p, g=find_darboux_cofactor(p, alpha_e),
                        relation=">="),
            dri_companion(rank(P("x", xy), swap_sys), swap_sys),
            DriCert(system=alpha_e, p=p, domain=P("u", uv),
                    rank_result=rank(p, alpha_e)),
        ]
        sai = check_semialgebraic_invariance(
            to_normal_form(F("1 - u^2 - v^2 > 0", uv)), NormalForm.true(),
            alpha_e, QUICK).certificate
        certs.append(sai)
        for cert in certs:
            doc = certificate_to_json(cert)
            text = json.dumps(doc)
            back = certificate_from_json(json.loads(text))
            assert back == cert
            assert check_certificate(back, QUICK)

    def test_tampered_json_rejected(self, uv, alpha_e):
        p = P("1 - u^2 - v^2", uv)
        cert = DarbouxCert(system=alpha_e, p=p, g=find_darboux_cofactor(p, alpha_e),
                           relation=">=")
        doc = certificate_to_json(cert)
        doc["g"] = doc["g"] + " + 1"
        assert not check_certificate(certificate_from_json(doc), QUICK)
