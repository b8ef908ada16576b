import random
from fractions import Fraction

import pytest

from odecert import (Assign, Choice, InputError, Ode, Polynomial,
                     ResourceError, Seq, Star, VarTable, member_with_witness,
                     oracle_unroll, reduce_box, render_program)
from odecert import Test as ProgTest
from odecert.parser import parse_program, parse_term

from conftest import random_point


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
        q, trace = reduce_box(Star(Assign(0, P("-x", tx))), P("x", tx))
        assert q == P("x^2", tx)
        chains = list(trace.star_chains())
        assert len(chains) == 1
        chain, witness = chains[0]
        assert chain == [P("x", tx), P("-x", tx)]
        assert witness == [P("-1", tx)]

    def test_star_zero_postcondition(self, tx):
        q, trace = reduce_box(Star(Assign(0, P("x + 1", tx))), Polynomial.zero(tx))
        assert q.is_zero()
        assert list(trace.star_chains()) == [([Polynomial.zero(tx)], [])]

    def test_ode_node_rank_one(self, uv, alpha_e):
        q, trace = reduce_box(Ode(alpha_e), P("u^2 + v^2 - 1", uv))
        assert q == P("(u^2 + v^2 - 1)^2", uv)
        assert trace.rank_n == 1

    def test_ode_node_with_domain(self, uv, alpha_e):
        r = P("u", uv)
        q, _ = reduce_box(Ode(alpha_e, r), P("u^2 + v^2 - 1", uv))
        assert q == P("u", uv) * P("(u^2 + v^2 - 1)^2", uv)

    def test_ode_rank_two_pointwise_semantics(self, xy, swap_sys):
        # q vanishes iff all chain derivatives vanish (and domain passes)
        rng = random.Random(140)
        r = P("x + y - 1", xy)
        p = P("x", xy)
        q, trace = reduce_box(Ode(swap_sys, r), p)
        assert trace.rank_n == 2
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
        assert q == p * p
        chains = list(trace.star_chains())
        assert chains[0][0] == [p, p * p]

    def test_chain_cap_resource_error(self, tx):
        # x := x^2 + 1 drives an ascending chain that needs two steps
        # (<x, x^2 + 1> = <1>); caps 0 and 1 must fail with the partial
        # trace, whose chain is q_0..q_cap
        prog = Star(Assign(0, P("x^2 + 1", tx)))
        with pytest.raises(ResourceError) as info:
            reduce_box(prog, P("x", tx), cap=0)
        assert info.value.partial.chain == [P("x", tx)]
        assert info.value.partial.children == []
        with pytest.raises(ResourceError, match="loop chain cap 1 exceeded") as info:
            reduce_box(prog, P("x", tx), cap=1)
        assert info.value.partial.chain == [P("x", tx), P("x^2 + 1", tx)]
        assert len(info.value.partial.children) == 1
        _, trace = reduce_box(prog, P("x", tx), cap=2)
        assert [c for c, _ in trace.star_chains()] == \
            [[P("x", tx), P("x^2 + 1", tx), P("(x^2 + 1)^2 + 1", tx)]]


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
            for chain, witness in trace.star_chains():
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
