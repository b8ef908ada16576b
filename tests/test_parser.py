from fractions import Fraction

import pytest

from odecert import (InputError, Polynomial, VarTable, parse_formula,
                     parse_ode, parse_problem, parse_term, parse_program,
                     render_formula)
from odecert.semalg import And, Atom, Implies, Not, Or, TrueF


@pytest.fixture
def t(uv):
    return uv


class TestTermParsing:
    def test_running_example_ode(self, uv):
        sys = parse_ode("u' = -v + u/4*(1-u^2-v^2), v' = u + v/4*(1-u^2-v^2)", uv)
        u = Polynomial.variable(uv, "u")
        v = Polynomial.variable(uv, "v")
        damp = Polynomial.one(uv) - u * u - v * v
        assert sys.rhs[0] == -v + u.scale(Fraction(1, 4)) * damp
        assert sys.rhs[1] == u + v.scale(Fraction(1, 4)) * damp

    def test_precedence(self, uv):
        assert parse_term("-1/2*u^2", uv) == \
            Polynomial.variable(uv, "u").__pow__(2).scale(Fraction(-1, 2))
        assert parse_term("2*u + v*u^2", uv) == \
            parse_term("(2*u) + (v*(u^2))", uv)

    def test_division_by_constant_expression(self, uv):
        assert parse_term("u / (1 + 1)", uv) == \
            Polynomial.variable(uv, "u").scale(Fraction(1, 2))

    def test_division_by_variable_rejected(self, uv):
        with pytest.raises(InputError):
            parse_term("u / v", uv)

    def test_division_by_zero_rejected(self, uv):
        with pytest.raises(InputError):
            parse_term("u / 0", uv)

    def test_undeclared_variable_with_position(self, uv):
        with pytest.raises(InputError) as info:
            parse_term("u + w", uv)
        assert info.value.line == 1 and info.value.column == 5

    def test_negative_exponent_rejected(self, uv):
        with pytest.raises(InputError):
            parse_term("u^-1", uv)

    def test_trailing_input_rejected(self, uv):
        with pytest.raises(InputError):
            parse_term("u + v v", uv)


class TestFormulaParsing:
    def test_atom_normalizes_to_zero_rhs(self, uv):
        f = parse_formula("x^2 >= 0".replace("x", "u"), uv)
        assert f == Atom(">=", parse_term("u^2", uv))
        g = parse_formula("u^2 <= v^2 + 9/2", uv)
        assert g == Atom("<=", parse_term("u^2 - v^2 - 9/2", uv))

    def test_connective_precedence(self, uv):
        f = parse_formula("u > 0 | u = 0 & v > 0 -> v >= 0", uv)
        assert isinstance(f, Implies)
        assert isinstance(f.hyp, Or)
        assert isinstance(f.hyp.args[1], And)

    def test_parenthesized_formula_vs_term(self, uv):
        f = parse_formula("(u > 0) & ((u + 1) > 0)", uv)
        assert isinstance(f, And)
        g = parse_formula("!(u != 0)", uv)
        assert g == Not(Atom("!=", parse_term("u", uv)))

    def test_boolean_constants(self, uv):
        assert parse_formula("true", uv) == TrueF()

    def test_render_round_trip(self, uv):
        f = parse_formula("u >= 0 & (u = 0 -> v > 0) | !(u^2 < 1)", uv)
        assert parse_formula(render_formula(f), uv) == f


class TestProgramParsing:
    def test_all_constructs(self, xy):
        prog = parse_program(
            "x := x + 1 ; ? x != 0 ; { x' = y, y' = x & x != 1 } ++ { y := 0 }*", xy)
        from odecert.hpreduce import Choice
        assert isinstance(prog, Choice)

    def test_star_binding(self, xy):
        from odecert.hpreduce import Seq, Star
        prog = parse_program("{ x := x + 1 ; y := y }*", xy)
        assert isinstance(prog, Star) and isinstance(prog.body, Seq)

    def test_group_without_star(self, xy):
        from odecert.hpreduce import Seq
        prog = parse_program("{ x := 1 ; y := 2 } ; x := 3", xy)
        assert isinstance(prog, Seq)


class TestNestingBound:
    @pytest.mark.parametrize("parse, opening, inner, closing", [
        (parse_term, "(", "x", ")"),
        (parse_term, "-", "x", ""),
        (parse_formula, "!", "x = 0", ""),
        (parse_formula, "(", "x = 0 & y > 1", ")"),
        (parse_program, "{", "x := 1", "}"),
    ], ids=["parens", "unary-minus", "not", "formula-parens", "braces"])
    def test_depth_past_the_bound_is_an_input_error(self, xy, parse, opening, inner,
                                                     closing):
        from odecert.parser import MAX_NESTING
        for depth in (MAX_NESTING + 1, 1000, 100_000):
            with pytest.raises(InputError, match="nesting deeper than"):
                parse(opening * depth + inner + closing * depth, xy)
        parse(opening * MAX_NESTING + inner + closing * MAX_NESTING, xy)


class TestProblemFile:
    GOOD = """
# running example
vars: u, v
ode: u' = -v + u/4*(1-u^2-v^2),
     v' = u + v/4*(1-u^2-v^2)
candidate: 1 - u^2 - v^2 > 0
polynomial: u^2 + v^2 - 1
seed: 7
samples: 500
cap: 12
order: lex
"""

    def test_parse_good(self):
        pf = parse_problem(self.GOOD)
        assert pf.table.names == ("u", "v")
        assert pf.ode is not None and pf.seed == 7 and pf.samples == 500
        assert pf.cap == 12 and pf.order.name == "lex"
        assert pf.candidate is not None and pf.polynomial is not None

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError):
            parse_problem("vars: x\nfrobnicate: 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InputError):
            parse_problem("vars: x\nseed: 1\nseed: 2\n")

    def test_missing_vars_rejected(self):
        with pytest.raises(InputError):
            parse_problem("seed: 1\n")

    def test_error_carries_position(self):
        with pytest.raises(InputError) as info:
            parse_problem("vars: x\npolynomial: x + y\n")
        assert "y" in str(info.value)

    def test_domain_polynomial_extraction(self):
        pf = parse_problem("vars: x\ndomain: x != 0\n")
        assert pf.domain_polynomial() == Polynomial.variable(pf.table, "x")
        pf2 = parse_problem("vars: x\ndomain: true\n")
        assert pf2.domain_polynomial() is None
        pf3 = parse_problem("vars: x\ndomain: x > 0\n")
        with pytest.raises(InputError):
            pf3.domain_polynomial()
