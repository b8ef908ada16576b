import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odecert import (Assign, Choice, ChainRecord, DischargeConfig,
                     HpReductionCert, InputError, Ode, OdeSystem, Polynomial,
                     ResourceError, Seq, Star, VarTable, check_certificate,
                     member_with_witness, reduce_box, render_program)
from odecert.certio import certificate_from_json, certificate_to_json
from odecert.invariant import reduction_certificate
from odecert import Test as ProgTest
from odecert.parser import parse_program, parse_term

from conftest import random_point
from hp_oracle import oracle_unroll


def P(text, table):
    return parse_term(text, table)


@pytest.fixture
def tx():
    return VarTable(["x"])


class TestReduceBox:
    def test_assign_substitution(self, tx):
        q, _ = reduce_box(Assign(0, P("x + 1", tx)), P("x - 3", tx))
        assert q == P("x - 2", tx)

    def test_test_multiplies(self, xy):
        q, _ = reduce_box(ProgTest(P("x - y", xy)), P("x + y", xy))
        assert q == P("(x - y)*(x + y)", xy)

    def test_choice_sum_of_squares(self, tx):
        # [x:=0 ++ x:=1] x=0 reduces to 0^2 + 1^2 = 1 (false everywhere)
        prog = Choice(Assign(0, Polynomial.zero(tx)), Assign(0, Polynomial.one(tx)))
        q, _ = reduce_box(prog, P("x", tx))
        assert q == Polynomial.one(tx)

    def test_seq_composes_right_to_left(self, tx):
        prog = Seq(Assign(0, P("x + 1", tx)), Assign(0, P("2*x", tx)))
        q, _ = reduce_box(prog, P("x - 4", tx))
        # after x:=x+1; x:=2x the postcondition x=4 means initially x=1
        assert q == P("2*x - 2", tx)

    def test_star_negation_loop(self, tx):
        # the loop keeps the lone generator x, so q is x itself
        q, trace = reduce_box(Star(Assign(0, P("-x", tx))), P("x", tx))
        assert q == P("x", tx)
        chains = trace.witness
        assert len(chains) == 1
        chain, witness = chains[0]
        assert chain == (P("x", tx), P("-x", tx))
        assert witness == (P("-1", tx),)

    def test_star_zero_postcondition(self, tx):
        q, trace = reduce_box(Star(Assign(0, P("x + 1", tx))), Polynomial.zero(tx))
        assert q.is_zero()
        assert trace.witness == [((Polynomial.zero(tx),), ())]

    def test_ode_node_rank_one(self, uv, alpha_e):
        q, trace = reduce_box(Ode(alpha_e), P("u^2 + v^2 - 1", uv))
        assert q == P("u^2 + v^2 - 1", uv)
        assert trace.generators == [P("u^2 + v^2 - 1", uv)]

    def test_ode_node_with_domain(self, uv, alpha_e):
        r = P("u", uv)
        q, _ = reduce_box(Ode(alpha_e, r), P("u^2 + v^2 - 1", uv))
        assert q == P("u", uv) * P("u^2 + v^2 - 1", uv)

    def test_ode_rank_two_pointwise_semantics(self, xy, swap_sys):
        # q vanishes iff all chain derivatives vanish (and domain passes)
        rng = random.Random(140)
        r = P("x + y - 1", xy)
        p = P("x", xy)
        q, trace = reduce_box(Ode(swap_sys, r), p)
        assert trace.generators == [r * p, r * P("y", xy)]
        for _ in range(500):
            pt = random_point(rng, 2)
            lhs = q.evaluate(pt) == 0
            chain_zero = p.evaluate(pt) == 0 and P("y", xy).evaluate(pt) == 0
            rhs = (r.evaluate(pt) == 0) or chain_zero
            assert lhs == rhs

    def test_ode_inside_loop(self, xy):
        # conserved radius under rotation: the loop chain closes immediately
        from odecert.parser import parse_ode
        rot = parse_ode("x' = y, y' = -x", xy)
        p = P("x^2 + y^2 - 1", xy)
        q, trace = reduce_box(Star(Ode(rot)), p)
        assert q == p
        assert trace.witness == [((p, p), (Polynomial.one(xy),))]

    def test_chain_cap_resource_error(self, tx):
        # x := x^2 + 1 drives an ascending chain that needs two rounds
        # (<x, x^2 + 1> = <1>); caps 0 and 1 must fail with the partial
        # trace, which holds the generators kept so far and no records
        prog = Star(Assign(0, P("x^2 + 1", tx)))
        with pytest.raises(ResourceError) as info:
            reduce_box(prog, P("x", tx), cap=0)
        assert info.value.partial.chain == [P("x", tx)]
        assert info.value.partial.witness is None
        with pytest.raises(ResourceError, match="loop chain cap 1 exceeded") as info:
            reduce_box(prog, P("x", tx), cap=1)
        assert info.value.partial.chain == [P("x", tx), P("x^2 + 1", tx)]
        assert info.value.partial.generators == [P("x", tx), P("x^2 + 1", tx)]
        _, trace = reduce_box(prog, P("x", tx), cap=2)
        assert [c for c, _ in trace.witness] == \
            [(P("x", tx), P("x^2 + 1", tx), P("(x^2 + 1)^2 + 1", tx))]


def assert_records_recombine(trace):
    for chain, cofactors in trace.witness or ():
        k = len(chain) - 1
        assert len(cofactors) == k
        acc = Polynomial.zero(chain[k].table)
        for g, qi in zip(cofactors, chain[:k]):
            acc = acc + g * qi
        assert acc == chain[k]


def assert_certificate_replays(prog, p, q, trace):
    table = p.table
    chains = tuple(trace.witness or ())
    cert = HpReductionCert(table=table, program=prog, p=p, q=q, chains=chains, cap=20)
    assert check_certificate(cert, DischargeConfig())


class TestGeneratorLists:
    def test_choice_keeps_both_branches_unsquared(self, xy):
        prog = Choice(Assign(0, P("2*y + 1", xy)), Assign(1, P("-y", xy)))
        q, trace = reduce_box(prog, P("x", xy))
        assert trace.generators == [P("2*y + 1", xy), P("x", xy)]
        assert q == P("(2*y + 1)^2 + x^2", xy)
        assert trace.chain is None and trace.witness is None

    def test_identical_branches_give_one_generator(self, xy):
        prog = Choice(Assign(1, P("0", xy)), Assign(1, P("1", xy)))
        q, trace = reduce_box(prog, P("x - 1", xy))
        assert trace.generators == [P("x - 1", xy)]
        assert q == P("x - 1", xy)

    def test_loop_grows_a_set_of_generators(self, xy):
        # [{x := x + y ++ y := x - 1}*] x = 0: the loop keeps x, x + y and
        # 2x - 1, which generate <1>: no state satisfies the box
        prog = parse_program("{ x := x + y ++ y := x - 1 }*", xy)
        q, trace = reduce_box(prog, P("x", xy))
        assert trace.chain == [P("x", xy), P("x + y", xy), P("2*x - 1", xy)]
        assert q == P("x^2 + (x + y)^2 + (2*x - 1)^2", xy)
        assert_records_recombine(trace)
        for i in range(1, len(trace.chain)):
            assert member_with_witness(trace.chain[i], trace.chain[:i]) is None

    def test_identical_records_are_listed_once(self, xy):
        # the outer loop keeps x + y, then x; the inner loop runs in both of
        # its rounds on the same generator x and makes the same record
        prog = parse_program("{ { x := -x }* ; y := 0 }*", xy)
        q, trace = reduce_box(prog, P("x + y", xy))
        assert q == P("(x + y)^2 + x^2", xy)
        assert trace.chain == [P("x", xy), P("x", xy), P("x + y", xy), P("x", xy)]
        assert trace.witness == [
            ((P("x", xy), P("-x", xy)), (P("-1", xy),)),
            ((P("x + y", xy), P("x", xy), P("x", xy)), (P("0", xy), P("1", xy)))]

    def test_certificate_carries_the_trace_records(self, xy):
        prog = parse_program("{ { x := -x }* ; y := 0 }*", xy)
        p = P("x + y", xy)
        cert = reduction_certificate(xy, prog, p, 20)
        _, trace = reduce_box(prog, p, cap=20)
        assert cert.chains == tuple(trace.witness)
        for record in cert.chains:
            assert isinstance(record, ChainRecord)
            chain, cofactors = record
            assert (chain, cofactors) == (record.chain, record.cofactors)
            assert len(cofactors) == len(chain) - 1

    def test_long_sequence_and_choice_chains(self, xy):
        steps = parse_program(" ; ".join(["x := x + 1"] * 3000), xy)
        q, _ = reduce_box(steps, P("x - 3000", xy))
        assert q == P("x", xy)
        assert oracle_unroll(steps, P("x - 3000", xy), 1, (Fraction(0), Fraction(5)))
        text = render_program(steps)
        assert "{" not in text
        assert reduce_box(parse_program(text, xy), P("x - 3000", xy))[0] == q
        branches = parse_program(" ++ ".join(f"x := {k}" for k in range(3000)), xy)
        q, trace = reduce_box(branches, P("x", xy))
        assert len(trace.generators) == 3000
        assert render_program(branches).count("{") == 0

    def test_generator_list_past_the_cap_is_a_resource_error(self, xy):
        # each choice doubles x or adds 1: k choices in sequence make
        # exponentially many distinct generators
        from odecert.hpreduce import MAX_GENERATORS
        step = "{ x := 2*x ++ x := x + 1 }"
        _, trace = reduce_box(parse_program(" ; ".join([step] * 8), xy), P("x", xy))
        assert 100 < len(trace.generators) <= MAX_GENERATORS
        with pytest.raises(ResourceError, match=f"exceeds the cap {MAX_GENERATORS}"):
            reduce_box(parse_program(" ; ".join([step] * 40), xy), P("x", xy))

    def test_nested_loops_share_one_step_budget(self, xy, monkeypatch):
        # an inner loop reruns for every round of the loop around it, so the
        # steps of the whole reduction double with each level of nesting
        from odecert import hpreduce

        def nest(depth):
            body = "x := x + y ; y := y + 1"
            for _ in range(depth):
                body = "{ " + body + " }*"
            return parse_program(body, xy)

        monkeypatch.setattr(hpreduce, "DEFAULT_STEP_BUDGET", 1000)
        q, _ = reduce_box(nest(4), P("x", xy))  # about 150 steps in all
        assert q == P("3*x^2 + 6*x*y + 5*y^2 + 2*x + 4*y + 1", xy)
        # about 2600 steps in all, though no single loop spends 1000
        with pytest.raises(ResourceError, match="loop chain step budget exhausted"):
            reduce_box(nest(8), P("x", xy))


class TestLoopsWithChoiceAndOde:
    """Loop bodies that combine ++ with an ODE, whose single-polynomial
    reduction multiplied the degree by four per iteration."""

    def test_known_unbounded_loop(self, xy):
        prog = parse_program("{ { x := 2*y + 1 ++ y := -y ; y := x + 2*y + 1 } ; "
                             "{ x' = -y + 2, y' = -2*x - 4*y } }*", xy)
        p = P("x", xy)
        q, trace = reduce_box(prog, p)
        assert trace.chain == [P("x", xy), P("2*y + 1", xy), P("-y + 2", xy)]
        assert q == P("x^2 + 5*y^2 + 5", xy)
        assert_records_recombine(trace)
        assert_certificate_replays(prog, p, q, trace)

    def test_rotation_and_reflections_keep_the_circle(self, xy):
        prog = parse_program("{ { x := -x ++ y := -y } ; { x' = y, y' = -x } }*", xy)
        p = P("x^2 + y^2 - 1", xy)
        q, trace = reduce_box(prog, p)
        assert q == p
        assert trace.chain == [p]
        assert_records_recombine(trace)
        assert_certificate_replays(prog, p, q, trace)

    def test_choice_inside_the_ode_branch_with_a_domain(self, xy):
        prog = parse_program("{ { x' = y, y' = x & x - 1 != 0 } ++ x := 2*x }*", xy)
        p = P("x^2 - y^2", xy)
        q, trace = reduce_box(prog, p)
        assert_records_recombine(trace)
        assert_certificate_replays(prog, p, q, trace)
        for i in range(1, len(trace.chain)):
            assert member_with_witness(trace.chain[i], trace.chain[:i]) is None
        # q vanishes exactly on the common zeros of the generators
        rng = random.Random(160)
        points = [random_point(rng, 2, num=3, den=1) for _ in range(100)]
        points += [(Fraction(1), Fraction(k)) for k in (-1, 0, 1)]
        for pt in points:
            assert (q.evaluate(pt) == 0) == all(g.evaluate(pt) == 0
                                                for g in trace.generators)


_coefficient = st.integers(-2, 2)


def _affine(table):
    def build(c):
        return Polynomial(table, {(0, 0): c[0], (1, 0): c[1], (0, 1): c[2]})
    return st.tuples(_coefficient, _coefficient, _coefficient).map(build)


def _loop_programs(table):
    """ODE-free programs ``[prefix ;] {body}*`` whose body has a choice."""
    leaf = st.one_of(st.builds(Assign, st.integers(0, 1), _affine(table)),
                     st.builds(ProgTest, _affine(table)))
    part = st.recursive(leaf, lambda kids: st.one_of(st.builds(Seq, kids, kids),
                                                     st.builds(Choice, kids, kids)),
                        max_leaves=2)
    body = st.one_of(st.builds(Choice, part, part),
                     st.builds(Seq, st.builds(Choice, part, part), part))
    loop = st.builds(Star, body)
    prefixed = st.builds(Seq, st.builds(Assign, st.integers(0, 1), _affine(table)), loop)
    return st.one_of(loop, prefixed)


class TestLoopProperty:
    XY = VarTable(["x", "y"])
    POINTS = [(Fraction(a), Fraction(b, 2)) for a in range(-1, 3) for b in (-2, 0, 1, 2)]

    @settings(max_examples=80, deadline=None)
    @given(prog=_loop_programs(XY), p=_affine(XY))
    def test_q_matches_unrolling_and_records_hold(self, prog, p):
        try:
            q, trace = reduce_box(prog, p, cap=8)
        except ResourceError:
            return
        # every round before the last keeps a generator, so the loop ran at
        # most len(chain) rounds
        depth = len(trace.chain) + 2
        for state in self.POINTS:
            assert (q.evaluate(state) == 0) == oracle_unroll(prog, p, depth, state)
        assert_records_recombine(trace)
        for i in range(1, len(trace.chain)):
            assert member_with_witness(trace.chain[i], trace.chain[:i]) is None

    @settings(max_examples=60, deadline=None)
    @given(prog=_loop_programs(XY))
    def test_rendered_program_parses_back(self, prog):
        assert parse_program(render_program(prog), self.XY) == prog


def _polynomials(table, degree):
    """Polynomials in two variables of total degree at most ``degree``."""
    monos = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    coefficients = st.sampled_from([Fraction(c, 2) for c in range(-4, 5)])
    return st.dictionaries(st.sampled_from(monos), coefficients, min_size=1,
                           max_size=4).map(lambda terms: Polynomial(table, terms))


def _nonlinear_programs(table):
    """Loop-free, ODE-free programs whose assignments and tests have degree
    at most 2, so substitution raises images to powers above 1."""
    leaf = st.one_of(st.builds(Assign, st.integers(0, 1), _polynomials(table, 2)),
                     st.builds(ProgTest, _polynomials(table, 2)))
    return st.recursive(leaf, lambda kids: st.one_of(st.builds(Seq, kids, kids),
                                                     st.builds(Choice, kids, kids)),
                        max_leaves=3)


class TestNonlinearProperty:
    XY = VarTable(["x", "y"])
    POINTS = [(Fraction(a, 2), Fraction(b, 3)) for a in range(-2, 3) for b in (-3, 0, 1, 2)]

    @settings(max_examples=60, deadline=None)
    @given(prog=_nonlinear_programs(XY), p=_polynomials(XY, 3))
    def test_q_vanishes_where_every_run_ends_on_the_post(self, prog, p):
        q, _ = reduce_box(prog, p)
        for state in self.POINTS:
            assert (q.evaluate(state) == 0) == oracle_unroll(prog, p, 1, state)


def reference_check(cert):
    """The checker that reran the decider: every record must recombine, and
    the reduction rerun with Groebner membership tests must give ``q`` and
    ``chains`` again."""
    try:
        for record in cert.chains:
            k = len(record.chain) - 1
            if k < 0 or len(record.cofactors) != k:
                return False
            acc = Polynomial.zero(cert.p.table)
            for g, qi in zip(record.cofactors, record.chain[:k]):
                acc = acc + g * qi
            if acc != record.chain[k]:
                return False
        q, trace = reduce_box(cert.program, cert.p, cap=cert.cap)
    except (InputError, ResourceError):
        return False
    return q == cert.q and tuple(trace.witness or ()) == cert.chains


def emitted_certificate(prog, p, cap=20):
    """The certificate hp-reduce writes, read back from its JSON."""
    q, trace = reduce_box(prog, p, cap=cap)
    cert = HpReductionCert(table=p.table, program=prog, p=p, q=q,
                           chains=tuple(trace.witness or ()), cap=cap)
    return certificate_from_json(certificate_to_json(cert))


def _systems(table):
    return [OdeSystem.from_pairs(table, [("x", P(fx, table)), ("y", P(fy, table))])
            for fx, fy in (("y", "-x"), ("-x", "2*y"), ("y", "x"), ("1", "0"))]


def _nested_loop_programs(table):
    """Loops around bodies made of assignments, tests ?r != 0 (r may be 0),
    ODEs with or without a domain, choices, sequences and inner loops."""
    leaf = st.one_of(st.builds(Assign, st.integers(0, 1), _affine(table)),
                     st.builds(ProgTest, _affine(table)),
                     st.builds(Ode, st.sampled_from(_systems(table)),
                               st.none() | _affine(table)))
    part = st.recursive(leaf, lambda kids: st.one_of(st.builds(Seq, kids, kids),
                                                     st.builds(Choice, kids, kids),
                                                     st.builds(Star, kids)),
                        max_leaves=3)
    return st.builds(Star, part) | st.builds(Seq, part, st.builds(Star, part))


def _tampers(cert):
    """Certificates that differ from ``cert`` in one field."""
    one = Polynomial.one(cert.p.table)
    out = [replace(cert, q=cert.q + one), replace(cert, p=cert.p + one),
           replace(cert, cap=1), replace(cert, cap=2)]
    chains = cert.chains
    for i, rec in enumerate(chains):
        out.append(replace(cert, chains=chains[:i] + chains[i + 1:]))
        out.append(replace(cert, chains=chains[:i + 1] + chains[i:]))
        if rec.cofactors:
            other = (rec.cofactors[0] + one,) + rec.cofactors[1:]
            out.append(replace(cert, chains=chains[:i] + (ChainRecord(rec.chain, other),)
                               + chains[i + 1:]))
        if i:
            out.append(replace(cert, chains=chains[:i - 1] + (rec, chains[i - 1])
                               + chains[i + 1:]))
    out.append(replace(cert, chains=chains + (ChainRecord((one, one), (one,)),)))
    return out


class TestCertificateReplay:
    """``cert-check`` replays a reduction with every loop membership taken
    from the certificate's records instead of from a Groebner basis."""

    XY = VarTable(["x", "y"])
    # { x := x + y ++ y := x - 1 }* with post x keeps x, x + y, 2x - 1 and
    # makes four records
    LOOP = "{ x := x + y ++ y := x - 1 }*"

    def loop_certificate(self):
        return emitted_certificate(parse_program(self.LOOP, self.XY), P("x", self.XY))

    def test_loop_certificate_replays(self):
        cert = self.loop_certificate()
        assert len(cert.chains) == 4
        assert check_certificate(cert) and reference_check(cert)

    def test_a_dropped_record_is_rejected(self):
        cert = self.loop_certificate()
        for i in range(len(cert.chains)):
            assert not check_certificate(
                replace(cert, chains=cert.chains[:i] + cert.chains[i + 1:])), i

    def test_an_unused_record_is_rejected(self):
        cert = self.loop_certificate()
        x, y = P("x", self.XY), P("y", self.XY)
        unused = ChainRecord((x, y, x + y), (Polynomial.one(self.XY),) * 2)
        for i in range(len(cert.chains) + 1):
            chains = cert.chains[:i] + (unused,) + cert.chains[i:]
            assert not check_certificate(replace(cert, chains=chains)), i

    def test_swapped_records_are_rejected(self):
        cert = self.loop_certificate()
        c = cert.chains
        for i in range(1, len(c)):
            assert not check_certificate(
                replace(cert, chains=c[:i - 1] + (c[i], c[i - 1]) + c[i + 1:])), i

    def test_a_record_with_another_prefix_is_rejected(self):
        # (x + y, x, x + 2y) recombines like (x, x + y, x + 2y), but the
        # loop has kept x before x + y
        cert = self.loop_certificate()
        rec = cert.chains[1]
        assert [g.render() for g in rec.chain] == ["x", "x + y", "x + 2*y"]
        permuted = ChainRecord((rec.chain[1], rec.chain[0], rec.chain[2]),
                               (rec.cofactors[1], rec.cofactors[0]))
        chains = cert.chains[:1] + (permuted,) + cert.chains[2:]
        assert not check_certificate(replace(cert, chains=chains))

    def test_a_record_duplicated_with_other_cofactors_is_rejected(self):
        # adding the syzygy (x + y)*x - x*(x + y) keeps the recombination
        cert = self.loop_certificate()
        rec = cert.chains[1]
        g0, g1 = rec.chain[0], rec.chain[1]
        other = ChainRecord(rec.chain, (rec.cofactors[0] + g1, rec.cofactors[1] - g0))
        assert other.cofactors[0] * g0 + other.cofactors[1] * g1 == rec.chain[2]
        for chains in (cert.chains[:2] + (other,) + cert.chains[2:],
                       cert.chains[:1] + (other,) + cert.chains[1:]):
            assert not check_certificate(replace(cert, chains=chains))

    def test_a_loop_that_closes_on_an_empty_round_replays(self):
        # the inner loop gets [0] in the outer loop's third round and keeps
        # nothing, so the outer loop closes having kept more generators (x, y)
        # than any record holds before its last element
        t = VarTable(["x", "y", "z"])
        cert = emitted_certificate(parse_program("{ { z := z }* ; x := y ; y := 0 }*", t),
                                   P("x", t))
        assert max(len(rec.chain) for rec in cert.chains) - 1 < 2
        assert check_certificate(cert) and reference_check(cert)

    def test_the_replay_builds_no_groebner_basis_for_a_loop(self, monkeypatch):
        from odecert import ideals
        built = []

        class Counting(ideals.BuchbergerState):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ideals, "BuchbergerState", Counting)
        cert = self.loop_certificate()
        assert built
        built.clear()
        assert check_certificate(cert)
        assert not built

    def test_missing_records_are_rejected_whatever_the_cap(self):
        # past the longest record, a member of the ideal kept so far is a
        # record the certificate lacks: { x := x + 1 }* keeps x, then x + 1,
        # and x + 2 rejects; a certificate that ran on for its cap of 10^9
        # rounds would never end
        tx = VarTable(["x"])
        for body in ("x := x", "x := x + 1", "x := -x", "x := x^2 + 1"):
            prog = parse_program("{ %s }*" % body, tx)
            cert = emitted_certificate(prog, P("x", tx))
            assert check_certificate(cert)
            for chains in ((), cert.chains[:-1]):
                with pytest.raises(InputError, match="a loop member has no record"):
                    reduce_box(prog, cert.p, cap=10 ** 9,
                               witnesses={r.chain: r.cofactors for r in chains})
                assert not check_certificate(replace(cert, chains=chains, cap=10 ** 9))

    @settings(max_examples=50, deadline=None)
    @given(prog=_nested_loop_programs(XY), p=_affine(XY), data=st.data())
    def test_emitted_certificates_replay_and_tampers_agree(self, prog, p, data):
        try:
            cert = emitted_certificate(prog, p, cap=6)
        except ResourceError:
            return
        assert check_certificate(cert)
        assert reference_check(cert)
        tampers = _tampers(cert)
        picks = data.draw(st.lists(st.sampled_from(tampers), min_size=1, max_size=4))
        for tampered in picks:
            assert check_certificate(tampered) == reference_check(tampered)


class TestOracleUnroll:
    def test_assign_chain_matches_substitution(self, tx):
        prog = Seq(Assign(0, P("x + 1", tx)), Assign(0, P("2*x", tx)))
        p = P("x - 4", tx)
        q, _ = reduce_box(prog, p)
        for x0 in range(-3, 4):
            state = (Fraction(x0),)
            assert oracle_unroll(prog, p, 1, state) == (q.evaluate(state) == 0)

    def test_failed_test_is_vacuous(self, tx):
        prog = ProgTest(P("x", tx))
        assert oracle_unroll(prog, P("x - 99", tx), 1, (Fraction(0),))

    def test_star_example_by_enumeration(self, tx):
        prog = Star(Assign(0, P("-x", tx)))
        assert not oracle_unroll(prog, P("x", tx), 5, (Fraction(1),))
        assert oracle_unroll(prog, P("x", tx), 5, (Fraction(0),))

    def test_ode_unsupported(self, uv, alpha_e):
        with pytest.raises(InputError):
            oracle_unroll(Ode(alpha_e), P("u", uv), 1, (Fraction(0), Fraction(0)))


def random_loop_free_program(rng, table, depth=2):
    kind = rng.randrange(4) if depth > 0 else rng.randrange(2)
    if kind == 0:
        var = rng.randrange(len(table))
        expr = _linear_expr(rng, table)
        return Assign(var, expr)
    if kind == 1:
        return ProgTest(_linear_expr(rng, table))
    if kind == 2:
        return Seq(random_loop_free_program(rng, table, depth - 1),
                   random_loop_free_program(rng, table, depth - 1))
    return Choice(random_loop_free_program(rng, table, depth - 1),
                  random_loop_free_program(rng, table, depth - 1))


def random_loop_program(rng, table):
    body = random_deterministic_program(rng, table, rng.randint(1, 2))
    prefix = random_deterministic_program(rng, table, 1)
    loop = Star(body)
    return Seq(prefix, loop) if rng.random() < 0.5 else loop


def random_deterministic_program(rng, table, depth):
    if depth == 0 or rng.random() < 0.5:
        return Assign(rng.randrange(len(table)), _linear_expr(rng, table))
    return Seq(random_deterministic_program(rng, table, depth - 1),
               random_deterministic_program(rng, table, depth - 1))


def _linear_expr(rng, table):
    acc = Polynomial.constant(table, rng.randint(-2, 2))
    for i in range(len(table)):
        c = rng.randint(-2, 2)
        if c:
            acc = acc + Polynomial.variable(table, i).scale(c)
    return acc


class TestOracleAgreement:
    def test_loop_free_matches_oracle(self, xy):
        rng = random.Random(150)
        for _ in range(40):
            prog = random_loop_free_program(rng, xy)
            p = _linear_expr(rng, xy)
            q, _ = reduce_box(prog, p)
            for _ in range(50):
                state = random_point(rng, 2, num=5, den=2)
                assert (q.evaluate(state) == 0) == oracle_unroll(prog, p, 1, state)

    def test_loop_soundness_both_directions(self, xy):
        rng = random.Random(151)
        for _ in range(10):
            prog = random_loop_program(rng, xy)
            p = _linear_expr(rng, xy)
            try:
                q, _ = reduce_box(prog, p, cap=20)
            except ResourceError:
                continue
            for _ in range(40):
                state = random_point(rng, 2, num=4, den=2)
                if q.evaluate(state) == 0:
                    for depth in (1, 4, 8):
                        assert oracle_unroll(prog, p, depth, state)
                elif not oracle_unroll(prog, p, 8, state):
                    assert q.evaluate(state) != 0

    def test_star_chain_witnesses_recombine(self, xy):
        rng = random.Random(152)
        for _ in range(10):
            prog = random_loop_program(rng, xy)
            p = _linear_expr(rng, xy)
            try:
                _, trace = reduce_box(prog, p, cap=20)
            except ResourceError:
                continue
            for chain, witness in trace.witness or ():
                k = len(chain) - 1
                acc = Polynomial.zero(xy)
                for g, qi in zip(witness, chain[:k]):
                    acc = acc + g * qi
                assert acc == chain[k]
                # k is the first index that stabilizes, by a from-scratch basis
                for i in range(1, k):
                    assert member_with_witness(chain[i], chain[:i]) is None


class TestRenderProgram:
    def test_round_trip(self, xy):
        texts = [
            "x := x + 1 ; y := 2*y",
            "? x - y != 0",
            "{ x := 0 ++ y := 1 }*",
            "{ x' = y, y' = x & x != 0 }",
            "x := 1 ; { x := -x }* ++ y := 0",
        ]
        for text in texts:
            prog = parse_program(text, xy)
            assert parse_program(render_program(prog), xy) == prog
