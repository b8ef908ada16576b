import json
import random
import stat
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odecert import (Conjunct, DischargeConfig, DischargeStatus, NormalForm, OdeSystem,
                     Polynomial, SideCondition, VarTable,
                     certificate_from_json, certificate_to_json,
                     check_algebraic_invariance, check_certificate,
                     check_semialgebraic_invariance, discharge, dri_companion,
                     find_darboux_cofactor, find_vectorial_darboux,
                     lie_derivative, rank, sai_side_conditions,
                     to_normal_form)
from odecert.invariant import (PROVED_IDEAL, PROVED_IDENTITY, REFUTED,
                               SMT_VALID, UNKNOWN, DarbouxCert, DriCert,
                               SaiCert, VdbxCert, _ray)
from odecert.odecore import reverse
from odecert.parser import parse_formula, parse_term
from odecert.polyarith import GREVLEX
from odecert.semalg import Atom, Not, TrueF, make_and, semialg_progress
from odecert.smtlib import SolverConfig

from conftest import random_nonzero_polynomial, random_system

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
            hyp_again = to_normal_form(cond.hypothesis)
            assert _try_sampling(cond, DischargeConfig(samples=3000, seed=99),
                                 hyp_again) is None
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
                hyp_nf = to_normal_form(cond.hypothesis)
                assert _try_sampling(cond, DischargeConfig(samples=1500, seed=5),
                                     hyp_nf) is None
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
        # valid (x^2 >= 0 always) but neither an identity, ideal-forced,
        # nor refutable; no solver configured
        cond = SideCondition(F("x >= 0", xy), F("x^2 + 1 > 0", xy), xy.names, "test")
        out = discharge(cond, DischargeConfig(samples=500, seed=0))
        assert out.status.kind == UNKNOWN

    @pytest.mark.filterwarnings("ignore:normal form has")
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


def _reference_positive_multiple(r: Polynomial, s: Polynomial) -> bool:
    """r = lambda*s for some lambda > 0, by the leading coefficients."""
    lam = r.leading(GREVLEX)[1] / s.leading(GREVLEX)[1]
    return lam > 0 and r == s.scale(lam)


_small_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                               st.integers(-5, 5).filter(bool), min_size=1, max_size=4)


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
            hyp_nf = to_normal_form(cond.hypothesis)
            assert _try_sampling(cond, DischargeConfig(samples=2000, seed=1),
                                 hyp_nf) is None
            checked += 1
        assert checked >= 1


class TestCheckSemialgebraic:
    def test_backward_condition_negates_progress(self, uv, alpha_e):
        P_nf = to_normal_form(F("u^2 + v^2 < 1/4 | (u^2 + v^2 = 1/4 & u >= 0)", uv))
        Q_nf = to_normal_form(F("u - 2 != 0", uv))
        rsys = reverse(alpha_e)
        _, backward = sai_side_conditions(P_nf, Q_nf, alpha_e)
        assert backward.hypothesis == make_and([Not(P_nf.to_formula()), Q_nf.to_formula(),
                                                semialg_progress(Q_nf, rsys)])
        assert backward.conclusion == Not(semialg_progress(P_nf, rsys))

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
        from odecert.semalg import formula_atoms
        assert len(formula_atoms(fwd.hypothesis)) >= 3

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
            hyp_nf = to_normal_form(cond.hypothesis)
            assert _try_sampling(cond, DischargeConfig(samples=400, seed=2),
                                 hyp_nf) is None


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
        # rank 4, and <p, ..., L^3 p> is <1>; lifting the identity one step
        # (L^5 p = sum (L g_i + g_{i-1}) L^i p) gives a valid-looking rank 5
        # that the replay must reject at i = 4
        from odecert.ideals import RankResult
        p = P("-2*x*y", xy)
        sysr = OdeSystem.from_pairs(xy, [("x", P("1", xy)), ("y", P("-x*y - 3*x", xy))])
        rr = rank(p, sysr)
        assert rr.n == 4
        assert check_certificate(DriCert(system=sysr, p=p, domain=None, rank_result=rr))
        g = rr.cofactors
        lifted = tuple(lie_derivative(g[i], sysr) + (g[i - 1] if i else Polynomial.zero(xy))
                       for i in range(4)) + (g[3],)
        fake = DriCert(system=sysr, p=p, domain=None, rank_result=RankResult(5, lifted))
        chain = [p]
        for _ in range(5):
            chain.append(lie_derivative(chain[-1], sysr))
        assert sum((c * q for c, q in zip(lifted, chain)), Polynomial.zero(xy)) == chain[5]
        assert not check_certificate(fake)

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
