"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import random
import shutil
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from odecert import (DarbouxCert, DischargeConfig, DriCert,
                     HpReductionCert, NormalForm, OdeSystem, PolyMatrix, Polynomial,
                     VarTable, VdbxCert,
                     check_certificate, check_semialgebraic_invariance,
                     dri_companion, emit_smtlib, find_darboux_cofactor,
                     higher_lie, lie_derivative, liouville_check,
                     member_with_witness,
                     progress_gt, radical_of_chain, rank, reduce_box,
                     sai_side_conditions, semialg_progress, to_normal_form)
from odecert.invariant import PROVED_IDENTITY, REFUTED, UNKNOWN, ChainRecord
from odecert.parser import parse_formula, parse_term
from odecert.semalg import PointEvaluator
from odecert.smtlib import SolverConfig

from conftest import (random_nonzero_polynomial, random_normal_form,
                      random_point, random_system, rank_chains)
from hp_oracle import oracle_unroll
from test_hpreduce import (random_loop_free_program, random_loop_program,
                           _linear_expr)
from test_semalg import reference_negation


def P(text, table):
    return parse_term(text, table)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


class TestAcceptance:
    def test_criterion_01_lie_derivative_golden(self, uv, alpha_e):
        started = time.perf_counter()
        p = P("v^2 - u^2 + 9/2", uv)
        expected = P("4*u*v", uv) + \
            (P("1 - u^2 - v^2", uv) * P("v^2 - u^2", uv)).scale(Fraction(1, 2))
        got = lie_derivative(p, alpha_e)
        elapsed = time.perf_counter() - started
        assert got == expected, "Lie derivative differs from the golden value"
        assert got.terms == expected.terms  # canonical form, tolerance zero
        assert elapsed < 0.1
        report(1, f"Lie-derivative golden value reproduced exactly in {elapsed*1000:.1f} ms")

    def test_criterion_02_darboux_golden(self, uv, alpha_e):
        p = P("1 - u^2 - v^2", uv)
        g = find_darboux_cofactor(p, alpha_e)
        expected = P("u^2 + v^2", uv).scale(Fraction(-1, 2))
        assert g == expected, "cofactor differs from -1/2*(u^2+v^2)"
        cert = DarbouxCert(system=alpha_e, p=p, g=g, relation=">")
        assert check_certificate(cert)
        report(2, "Darboux cofactor -1/2*(u^2+v^2) found and certificate re-checks")

    def test_criterion_03_rank_suite(self):
        started = time.perf_counter()
        rng = random.Random(2024)
        checked = 0
        for trial in range(12):
            table = VarTable([f"x{i}" for i in range(rng.choice([2, 3]))])
            p = random_nonzero_polynomial(rng, table, max_degree=3, terms=3)
            sysr = random_system(rng, table, max_degree=2)
            rr = rank(p, sysr, cap=20)
            chain = [p]
            for _ in range(rr.n):
                chain.append(lie_derivative(chain[-1], sysr))
            acc = Polynomial.zero(table)
            for g, q in zip(rr.cofactors, chain[:rr.n]):
                acc = acc + g * q
            assert acc == chain[rr.n], "recombination identity broken"
            for i in range(1, rr.n):
                assert member_with_witness(chain[i], chain[:i]) is None, \
                    "rank is not minimal"
            checked += 1
        # zero polynomial has rank 1 by convention
        table = VarTable(["x", "y"])
        zr = rank(Polynomial.zero(table), random_system(rng, table))
        assert zr.n == 1 and zr.cofactors[0].is_zero()
        elapsed = time.perf_counter() - started
        assert checked >= 10 and elapsed < 60
        report(3, f"{checked} random ranks with exact recombination + minimality "
                  f"in {elapsed:.1f} s")

    def test_criterion_04_liouville_property(self, uv, alpha_e):
        started = time.perf_counter()
        rng = random.Random(404)
        for trial in range(50):
            m = rng.choice([1, 2, 3])
            G = PolyMatrix(m, m, [random_nonzero_polynomial(rng, uv, 2, 3)
                                  for _ in range(m * m)])
            assert liouville_check(G, alpha_e), f"Liouville identity failed at {trial}"
        elapsed = time.perf_counter() - started
        assert elapsed < 120
        report(4, f"Liouville identity exact for 50 random matrices in {elapsed:.1f} s")

    def test_criterion_05_leibniz_powers(self):
        rng = random.Random(505)
        table = VarTable(["x", "y"])
        for trial in range(50):
            p = random_nonzero_polynomial(rng, table, max_degree=2, terms=3)
            sysr = random_system(rng, table, max_degree=2)
            for k in (2, 3, 4):
                r = p ** k
                for i in range(k):
                    w = member_with_witness(higher_lie(r, sysr, i), [p])
                    assert w is not None, f"L^{i}(p^{k}) not in <p>"
                    assert w.cofactors[0] * p == higher_lie(r, sysr, i)
        report(5, "L^i(p^k) in <p> with exact witnesses for 50 random p, k in 2..4")

    def test_criterion_06_negation_duality(self, xy):
        rng = random.Random(606)
        # semialgebraic duality on 30 random normal forms
        for trial in range(30):
            nf = random_normal_form(rng, xy)
            sysr = random_system(rng, xy)
            neg = reference_negation(nf)
            sp = semialg_progress(nf, rank_chains(nf, sysr))
            spn = semialg_progress(neg, rank_chains(neg, sysr))
            for _ in range(1000):
                ev = PointEvaluator(random_point(rng, 2))
                assert ev(sp) != ev(spn), f"duality violated at trial {trial}"
        # atom-level rearrangement equivalences
        from odecert.ideals import differential_radical
        from odecert.semalg import Atom, make_and, make_or, progress_geq
        for trial in range(30):
            sysr = random_system(rng, xy)
            p = random_nonzero_polynomial(rng, xy)
            chain = differential_radical(p, sysr)
            gt = progress_gt(chain)
            disjunctive = make_or([
                make_and([Atom("=", chain[i]) for i in range(k)]
                         + [Atom(">", chain[k])])
                for k in range(len(chain))])
            geq_neg = progress_geq(differential_radical(-p, sysr))
            eps = radical_of_chain(chain)
            gt_neg = progress_gt(differential_radical(-p, sysr))
            for _ in range(1000):
                ev = PointEvaluator(random_point(rng, 2))
                assert ev(gt) == ev(disjunctive)
                assert (not ev(gt)) == ev(geq_neg)
                assert (not ev(eps)) == (ev(gt) or ev(gt_neg))
        report(6, "progress negation duality + atom rearrangements agree at "
                  "1000 points for 30 random instances each")

    def test_criterion_07_sai_end_to_end(self, uv, alpha_e):
        config = DischargeConfig(samples=100_000, seed=0)
        open_disk = to_normal_form(parse_formula("1 - u^2 - v^2 > 0", uv))
        verdict = check_semialgebraic_invariance(open_disk, NormalForm.true(),
                                                 alpha_e, config)
        assert verdict.kind == "invariant"
        statuses = {c.provenance: c.status.kind for c in verdict.conditions}
        assert statuses["sai-forward"] == PROVED_IDENTITY  # open-set shortcut
        assert statuses["sai-backward"] in ("proved_by_ideal_reduction", "smt_valid")

        half = to_normal_form(parse_formula(
            "u^2 + v^2 < 1/4 | (u^2 + v^2 = 1/4 & u >= 0)", uv))
        verdict2 = check_semialgebraic_invariance(half, NormalForm.true(),
                                                  alpha_e, config)
        assert verdict2.kind == "not_invariant"
        witness = verdict2.witness
        assert witness is not None and all(isinstance(c, Fraction) for c in witness)
        cond = verdict2.failed_condition
        ev = PointEvaluator(witness)
        assert ev(cond.hypothesis) and not ev(cond.conclusion)
        report(7, f"open disk invariant; half-open disk refuted at "
                  f"({witness[0]}, {witness[1]}) under seed 0")

    def test_criterion_08_green_region_without_solver(self, uv, alpha_e):
        config = DischargeConfig(samples=100_000, seed=0, solver=None)
        green = to_normal_form(parse_formula("u^2 <= v^2 + 9/2", uv))
        verdict = check_semialgebraic_invariance(green, NormalForm.true(),
                                                 alpha_e, config)
        statuses = {c.provenance: c.status for c in verdict.conditions}
        assert statuses["sai-backward"].kind == PROVED_IDENTITY  # closed shortcut
        assert verdict.kind == "unknown"
        assert statuses["sai-forward"].kind == UNKNOWN
        assert all(s.kind != REFUTED for s in statuses.values()), \
            "a valid region must never be refuted"
        # conditions exist and export cleanly as solver queries
        fwd, _ = sai_side_conditions(green, NormalForm.true(), alpha_e)
        query = emit_smtlib(fwd.hypothesis, fwd.conclusion, fwd.universal_vars)
        assert "(check-sat)" in query
        report(8, "green-region conditions generated; no refutation after "
                  "10^5 samples; status unknown without a solver")

    @pytest.mark.skipif(shutil.which("z3") is None and shutil.which("cvc5") is None,
                        reason="no external NRA solver on PATH (optional half)")
    def test_criterion_08_green_region_with_solver(self, uv, alpha_e):
        binary = shutil.which("z3") or shutil.which("cvc5")
        config = DischargeConfig(samples=2000, seed=0,
                                 solver=SolverConfig(binary, timeout=120))
        green = to_normal_form(parse_formula("u^2 <= v^2 + 9/2", uv))
        verdict = check_semialgebraic_invariance(green, NormalForm.true(),
                                                 alpha_e, config)
        assert verdict.kind == "invariant"
        report(8, "green-region conditions discharged as valid by the solver")

    def test_criterion_09_hp_reduction_vs_oracle(self, xy):
        started = time.perf_counter()
        rng = random.Random(909)
        for trial in range(100):
            prog = random_loop_free_program(rng, xy)
            p = _linear_expr(rng, xy)
            q, _ = reduce_box(prog, p)
            for _ in range(200):
                state = random_point(rng, 2, num=5, den=2)
                assert (q.evaluate(state) == 0) == oracle_unroll(prog, p, 1, state), \
                    f"loop-free disagreement at trial {trial}"
        loops = 0
        while loops < 20:
            prog = random_loop_program(rng, xy)
            p = _linear_expr(rng, xy)
            try:
                q, trace = reduce_box(prog, p, cap=20)
            except Exception:
                continue
            loops += 1
            for chain, witness in trace.witness or ():
                k = len(chain) - 1
                acc = Polynomial.zero(xy)
                for g, qi in zip(witness, chain[:k]):
                    acc = acc + g * qi
                assert acc == chain[k], "chain witness recombination broken"
            for _ in range(200):
                state = random_point(rng, 2, num=4, den=2)
                if q.evaluate(state) == 0:
                    for depth in (1, 4, 8):
                        assert oracle_unroll(prog, p, depth, state)
                elif not oracle_unroll(prog, p, 8, state):
                    assert q.evaluate(state) != 0
        elapsed = time.perf_counter() - started
        assert elapsed < 120
        report(9, f"reduced equations agree with the unrolling oracle on "
                  f"120 programs x 200 states in {elapsed:.1f} s")

    def test_criterion_10_certificate_tamper_suite(self, uv, xy, alpha_e, swap_sys):
        config = DischargeConfig(samples=2000, seed=0)
        deltas = [Polynomial.one(uv), P("u", uv), P("v", uv), P("2", uv),
                  P("u*v", uv), P("u^2", uv), P("-1", uv), P("v^2", uv),
                  P("u + v", uv), P("3", uv), P("u - v", uv), P("-2", uv),
                  P("u^2 + 1", uv), P("v + 1", uv), P("u + 1", uv),
                  P("2*u", uv), P("2*v", uv), P("u*v + 1", uv), P("-3", uv),
                  P("5", uv)]
        assert len(deltas) == 20

        # darboux: every cofactor mutation must be rejected
        p = P("1 - u^2 - v^2", uv)
        g = find_darboux_cofactor(p, alpha_e)
        base = DarbouxCert(system=alpha_e, p=p, g=g, relation=">")
        assert check_certificate(base, config)
        for d in deltas:
            assert not check_certificate(
                DarbouxCert(system=alpha_e, p=p, g=g + d, relation=">"), config)

        # vdbx: every matrix-entry mutation must be rejected
        vd = dri_companion(rank(P("x", xy), swap_sys), swap_sys)
        assert check_certificate(vd, config)
        deltas_xy = [P(t, xy) for t in ("1", "x", "y", "2", "x*y", "x^2", "-1",
                                        "y^2", "x + y", "3")]
        count = 0
        for pos in range(4):
            for d in deltas_xy[:5]:
                entries = list(vd.G.entries)
                entries[pos] = entries[pos] + d
                mutated = VdbxCert(system=swap_sys, p_vec=vd.p_vec,
                                   G=PolyMatrix(2, 2, entries))
                assert not check_certificate(mutated, config)
                count += 1
        assert count == 20

        # dri: every rank-cofactor mutation must be rejected
        rr = rank(p, alpha_e)
        dri = DriCert(system=alpha_e, p=p, domain=None, rank_result=rr)
        assert check_certificate(dri, config)
        from odecert.ideals import RankResult
        for d in deltas:
            mutated = DriCert(system=alpha_e, p=p, domain=None,
                              rank_result=RankResult(1, (rr.cofactors[0] + d,)))
            assert not check_certificate(mutated, config)

        # sai: the certificate states its claim (system, P, Q); adding a
        # delta to u' or v' pushes the flow out of the open disk somewhere
        # on its boundary, so every such claim is false and is rejected,
        # while edits of P or Q that keep the claim true are accepted
        open_disk = to_normal_form(parse_formula("1 - u^2 - v^2 > 0", uv))
        sai = check_semialgebraic_invariance(open_disk, NormalForm.true(),
                                             alpha_e, config).certificate
        assert check_certificate(sai, config)
        for i, d in enumerate(deltas):
            rhs = list(alpha_e.rhs)
            rhs[i % 2] = rhs[i % 2] + d
            system = OdeSystem.from_pairs(uv, list(zip(("u", "v"), rhs)))
            assert check_semialgebraic_invariance(open_disk, NormalForm.true(), system,
                                                  config).kind == "not_invariant"
            assert not check_certificate(replace(sai, system=system), config)
        for text in ("4 - u^2 - v^2 > 0", "1 - u^2 - v^2 >= 0"):
            assert check_certificate(
                replace(sai, P=to_normal_form(parse_formula(text, uv))), config)
        assert check_certificate(replace(sai, Q=open_disk), config)

        # hpreduce: every chain/witness mutation must be rejected
        from odecert.hpreduce import Assign, Star
        tx = VarTable(["x"])
        prog = Star(Assign(0, P("-x", tx)))
        q, trace = reduce_box(prog, P("x", tx))
        chains = tuple(trace.witness)
        hp = HpReductionCert(table=tx, program=prog, p=P("x", tx), q=q,
                             chains=chains, cap=20)
        assert check_certificate(hp, config)
        deltas_x = [P(t, tx) for t in ("1", "x", "2", "x^2", "-1",
                                       "x + 1", "2*x", "3", "-x", "x^2 + 1")]
        for i, d in enumerate(deltas_x):
            rec = chains[0]
            tampered_witness = ChainRecord(rec.chain, (rec.cofactors[0] + d,))
            bad1 = HpReductionCert(table=tx, program=prog, p=P("x", tx), q=q,
                                   chains=(tampered_witness,), cap=20)
            assert not check_certificate(bad1, config)
            tampered_chain = ChainRecord((rec.chain[0] + d, rec.chain[1]),
                                         rec.cofactors)
            bad2 = HpReductionCert(table=tx, program=prog, p=P("x", tx), q=q,
                                   chains=(tampered_chain,), cap=20)
            assert not check_certificate(bad2, config)
        report(10, "20 mutations per certificate kind all rejected "
                   "(darboux, vdbx, dri, sai, hpreduce)")
