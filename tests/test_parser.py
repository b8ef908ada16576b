from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odecert import (GREVLEX, LEX, InputError, NonPolynomialError, Polynomial,
                     ResourceError, VarTable, parse_formula, parse_ode,
                     parse_problem, parse_term, parse_program, render_formula)
from odecert.polyarith import MAX_DEGREE
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

    def test_long_runs_of_unary_plus(self, uv):
        assert parse_term("+ " * 3000 + "u", uv) == Polynomial.variable(uv, "u")
        assert parse_term("u - + - + v", uv) == parse_term("u + v", uv)


UVW = VarTable(["u", "v", "w"])
_coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=30)


# large numerators and denominators, and the coefficients 1 and -1 that
# render without a number
_wide_coefficients = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)))


def _reference_render(p: Polynomial, order) -> str:
    """The canonical text built from ``Fraction`` coefficients, as
    ``Polynomial.render`` built it before it read the integer numerators."""
    if p.is_zero():
        return "0"
    parts = []
    for k, (m, c) in enumerate(sorted(p.terms.items(), key=lambda t: order.key(t[0]),
                                      reverse=True)):
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(p.table.names, m) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        sign = ("-" if c < 0 else "") if k == 0 else (" - " if c < 0 else " + ")
        parts.append(sign + body)
    return "".join(parts)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(terms=st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), _coefficients,
                                 max_size=8),
           order=st.sampled_from([GREVLEX, LEX]))
    def test_rendered_text_parses_back(self, terms, order):
        p = Polynomial(UVW, terms)
        assert parse_term(p.render(order), UVW) == p

    @settings(max_examples=300, deadline=None)
    @given(terms=st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _wide_coefficients,
                                 max_size=6))
    def test_render_matches_the_fraction_reference(self, terms):
        p = Polynomial(UVW, terms)
        for order in (GREVLEX, LEX):
            text = p.render(order)
            assert text == _reference_render(p, order)
            assert parse_term(text, UVW) == p


# (text, precedence level, Polynomial) nodes; a child below the level its
# position needs is wrapped in parentheses.  Levels: 1 sum, 2 product,
# 3 unary minus, 4 power, 5 atom.
def _wrap(node, level: int) -> str:
    text, own, _ = node
    return text if own >= level else f"({text})"


_atoms = st.one_of(
    st.integers(0, 12).map(lambda n: (str(n), 5, Polynomial.constant(UVW, n))),
    st.sampled_from(UVW.names).map(lambda v: (v, 5, Polynomial.variable(UVW, v))))


def _composites(children):
    pairs = st.one_of(st.tuples(children, children), children.map(lambda c: (c, c)))
    return st.one_of(
        st.tuples(pairs, st.sampled_from(["+", "-"])).map(
            lambda t: (f"{_wrap(t[0][0], 1)} {t[1]} {_wrap(t[0][1], 2)}", 1,
                       t[0][0][2] + t[0][1][2] if t[1] == "+"
                       else t[0][0][2] - t[0][1][2])),
        pairs.map(lambda t: (f"{_wrap(t[0], 2)}*{_wrap(t[1], 3)}", 2, t[0][2] * t[1][2])),
        st.tuples(children, st.integers(1, 9), st.booleans()).map(
            lambda t: (f"{_wrap(t[0], 2)}/{f'({t[1]})' if t[2] else t[1]}", 2,
                       t[0][2].scale(Fraction(1, t[1])))),
        children.map(lambda c: (f"-{_wrap(c, 3)}", 3, -c[2])),
        st.tuples(children, st.integers(0, 3)).map(
            lambda t: (f"{_wrap(t[0], 5)}^{t[1]}", 4, t[0][2] ** t[1])),
    )


class TestExpressionProperty:
    @settings(max_examples=300, deadline=None)
    @given(node=st.recursive(_atoms, _composites, max_leaves=10))
    def test_text_parses_to_the_tree_built_from_polynomial_operations(self, node):
        text, _, expected = node
        assert parse_term(text, UVW) == expected


class TestCharacters:
    def test_unicode_identifiers(self):
        t = VarTable(["é", "y_2", "_x"])
        assert parse_term("é^2 + y_2*_x", t) == \
            Polynomial.variable(t, "é") ** 2 + \
            Polynomial.variable(t, "y_2") * Polynomial.variable(t, "_x")

    @pytest.mark.parametrize("text, char, column", [
        ("u^²", "²", 3), ("²*u", "²", 1), ("u*٣", "٣", 3), ("u + 1٣", "٣", 6),
        ("u*½", "½", 3),
    ])
    def test_non_ascii_digits_are_input_errors(self, uv, text, char, column):
        with pytest.raises(InputError) as info:
            parse_term(text, uv)
        assert str(info.value) == f"1:{column}: unexpected character {char!r}"

    def test_identifiers_may_continue_with_any_digit(self):
        t = VarTable(["x²", "x٣"])
        assert parse_term("x² - x٣", t) == \
            Polynomial.variable(t, "x²") - Polynomial.variable(t, "x٣")


class TestExponentCap:
    @pytest.mark.parametrize("text", ["2^1001", "0^1001", "(1)^1001", "u^1001",
                                      "(u + 1)^1001", "(u^2)^501"])
    def test_past_the_cap_is_a_resource_error(self, uv, text):
        with pytest.raises(ResourceError, match="exceeds the degree cap"):
            parse_term(text, uv)

    def test_degree_message_is_kept(self, uv):
        with pytest.raises(ResourceError) as info:
            parse_term("u^1001", uv)
        assert str(info.value) == "power of degree 1 * 1001 exceeds the degree cap 1000"

    def test_at_the_cap(self, uv):
        assert parse_term(f"2^{MAX_DEGREE}", uv) == Polynomial.constant(uv, 2 ** MAX_DEGREE)
        assert parse_term(f"u^{MAX_DEGREE}", uv).total_degree() == MAX_DEGREE


# (parse function, text, error type, message, line, column): golden errors
# that any rewrite of the parser must reproduce exactly
ERRORS = [
    ("term", "u + w", InputError, "1:5: undeclared variable 'w'", 1, 5),
    ("term", "u +", InputError, "1:4: expected a term", 1, 4),
    ("term", "u * (v + 1", InputError, "1:11: expected ')', found 'end of input'", 1, 11),
    ("term", "u ^ v", InputError, "1:5: expected a non-negative integer exponent", 1, 5),
    ("term", "u @ v", InputError, "1:3: unexpected character '@'", 1, 3),
    ("term", "u + v v", InputError, "1:7: unexpected trailing input 'v'", 1, 7),
    ("term", "u +\n  w", InputError, "2:3: undeclared variable 'w'", 2, 3),
    ("term", "u # note\n + $", InputError, "2:4: unexpected character '$'", 2, 4),
    ("term", "u + # note", InputError, "1:5: expected a term", 1, 5),
    ("term", "u : v", InputError, "1:3: unexpected character ':'", 1, 3),
    ("term", ")", InputError, "1:1: expected a term", 1, 1),
    ("term", "u / v", InputError, "non-polynomial: division by a non-constant", None, None),
    ("term", "u / (v - v)", InputError, "division by zero", None, None),
    ("term", "u^-1", NonPolynomialError, "non-polynomial: negative exponent", None, None),
    ("term", "2 u", InputError, "1:3: unexpected trailing input 'u'", 1, 3),
    ("formula", "u > ", InputError, "1:5: expected a term", 1, 5),
    ("formula", "u + v", InputError, "1:6: expected a comparison operator", 1, 6),
    ("formula", "(u > 0", InputError, "1:7: expected ')', found 'end of input'", 1, 7),
    ("formula", "u > 0 &\n\t& v < 1", InputError, "2:2: expected a term", 2, 2),
    ("formula", "true & w > 0", InputError, "1:8: undeclared variable 'w'", 1, 8),
    ("ode", "u' = v, 3", InputError, "1:9: expected a variable name", 1, 9),
    ("ode", "u = v", InputError, "1:3: expected \"'\", found '='", 1, 3),
    ("ode", "w' = u", InputError, "1:1: undeclared variable 'w'", 1, 1),
    ("program", "u := ", InputError, "1:6: expected a term", 1, 6),
    ("program", "{ u := 1 ", InputError, "1:10: expected '}', found 'end of input'", 1, 10),
    ("program", "? u = 0", InputError, "1:5: expected '!=', found '='", 1, 5),
    ("program", "u = 1", InputError, "1:3: expected ':=', found '='", 1, 3),
    ("program", "u := 1 ;\n ;", InputError, "2:2: expected a program", 2, 2),
    ("program", "{ u := 1 }* ++", InputError, "1:15: expected a program", 1, 15),
    ("program", "u := 1 # first\n ; w := 2", InputError, "2:4: undeclared variable 'w'",
     2, 4),
    # errors inside a "(" that was read as a term first, then as a formula
    ("formula", "(u > 0 & (v + 1 >= ))", InputError, "1:20: expected a term", 1, 20),
    ("formula", "(u > 0 & w > 0)", InputError, "1:10: undeclared variable 'w'", 1, 10),
    ("formula", "((u) > 0 | v @ 1)", InputError, "1:14: unexpected character '@'", 1, 14),
    ("formula", "(u + 1 > 0) & (u ^ )", InputError,
     "1:20: expected a non-negative integer exponent", 1, 20),
    ("formula", "(u > 0) -> (v + > 0)", InputError, "1:17: expected a term", 1, 17),
    ("formula", "((u > 0)", InputError, "1:9: expected ')', found 'end of input'", 1, 9),
    ("formula", "(u > 0 # note", InputError, "1:8: expected ')', found 'end of input'",
     1, 8),
    # a bad token on a later line, after a comment
    ("formula", "u > 0 # note\n & v > $", InputError, "2:8: unexpected character '$'",
     2, 8),
    ("formula", "u > 0 # c\n & v ! 1", InputError, "2:6: expected a comparison operator",
     2, 6),
    ("term", "u # c\n + " + "7" * 4001, InputError,
     "2:4: integer literal longer than 4000 digits", 2, 4),
    # the factor rule: signs, an atom, an exponent
    ("term", "u^", InputError, "1:3: expected a non-negative integer exponent", 1, 3),
    ("term", "--u^", InputError, "1:5: expected a non-negative integer exponent", 1, 5),
    ("term", "(u)^(2)", InputError, "1:5: expected a non-negative integer exponent", 1, 5),
    ("term", "u^1 ^ 2", InputError, "1:5: unexpected trailing input '^'", 1, 5),
    ("term", "-(u + 1", InputError, "1:8: expected ')', found 'end of input'", 1, 8),
    ("term", "u^-", NonPolynomialError, "non-polynomial: negative exponent", None, None),
    ("program", "{ u' = v & v }", InputError, "1:14: expected '!=', found '}'", 1, 14),
]
PARSERS = {"term": parse_term, "formula": parse_formula, "ode": parse_ode,
           "program": parse_program}


class TestPinnedErrors:
    @pytest.mark.parametrize("kind, text, error, message, line, column", ERRORS,
                             ids=[f"{k}-{i}" for i, (k, *_) in enumerate(ERRORS)])
    def test_message_and_position(self, uv, kind, text, error, message, line, column):
        with pytest.raises(InputError) as info:
            PARSERS[kind](text, uv)
        assert type(info.value) is error
        assert (str(info.value), info.value.line, info.value.column) == \
            (message, line, column)


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

    def test_each_implication_of_a_chain_counts_as_a_level(self, xy):
        from odecert.parser import MAX_NESTING
        chain = parse_formula(" -> ".join(["x > 0"] * (MAX_NESTING + 1)), xy)
        links = 0
        while isinstance(chain, Implies):
            chain, links = chain.concl, links + 1
        assert links == MAX_NESTING
        for links in (MAX_NESTING + 1, 2000):
            with pytest.raises(InputError, match="nesting deeper than"):
                parse_formula(" -> ".join(["x > 0"] * (links + 1)), xy)


class TestDigitCap:
    def test_literal_at_the_cap_is_read(self, xy):
        from odecert.polyarith import MAX_DIGITS
        assert parse_term("9" * MAX_DIGITS, xy) == \
            Polynomial.constant(xy, 10 ** MAX_DIGITS - 1)

    def test_longer_literal_is_an_input_error(self, xy):
        from odecert.polyarith import MAX_DIGITS
        with pytest.raises(InputError, match=f"longer than {MAX_DIGITS} digits") as info:
            parse_term("x + " + "7" * (MAX_DIGITS + 1) + "*y", xy)
        assert (info.value.line, info.value.column) == (1, 5)
        with pytest.raises(InputError, match="digits"):
            parse_term("x^" + "1" * 5000, xy)


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
