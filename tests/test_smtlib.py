from fractions import Fraction

import pytest

from odecert import Polynomial, ResourceError, VarTable
from odecert.parser import parse_formula, parse_term
from odecert.smtlib import emit_smtlib, formula_sexpr, parse_model, poly_sexpr


class TestEmission:
    def test_rational_numerals_are_exact(self, uv):
        p = parse_term("u^2 + v^2", uv).scale(Fraction(-1, 2))
        s = poly_sexpr(p)
        assert "(/ 1 2)" in s and "(- " in s  # -1/2 as (- (/ 1 2))
        assert "." not in s  # never decimal notation

    def test_numerals_past_the_digit_cap_are_resource_errors(self, uv):
        for c in (Fraction(10 ** 4000), Fraction(-1, 10 ** 4000)):
            with pytest.raises(ResourceError, match="digit cap"):
                poly_sexpr(Polynomial.constant(uv, c))
        assert poly_sexpr(Polynomial.constant(uv, 10 ** 4000 - 1)) == "9" * 4000

    def test_zero_and_units(self, uv):
        assert poly_sexpr(Polynomial.zero(uv)) == "0"
        assert poly_sexpr(Polynomial.variable(uv, "u")) == "u"

    def test_powers_expand_to_products(self, uv):
        s = poly_sexpr(parse_term("u^3", uv))
        assert s.count("u") == 3 and "^" not in s

    def test_query_shape(self, uv):
        hyp = parse_formula("u = 0", uv)
        concl = parse_formula("u*v = 0", uv)
        query = emit_smtlib(hyp, concl, uv.names)
        assert "(set-logic QF_NRA)" in query
        assert "(declare-const u Real)" in query
        assert "(declare-const v Real)" in query
        assert "(assert (= u 0))" in query
        assert "(assert (not (= (* 1 u v) 0)))" in query
        assert query.index("(check-sat)") < query.index("(get-model)")

    def test_connectives(self, uv):
        f = parse_formula("u > 0 -> (v >= 0 | !(u != 1))", uv)
        s = formula_sexpr(f)
        assert s.startswith("(=> ") and "(or " in s and "(not " in s


class TestModelParsing:
    def test_integer_and_quotient_values(self):
        text = """sat
(model
  (define-fun u () Real 3)
  (define-fun v () Real (- (/ 1 2)))
)"""
        model = parse_model(text, ("u", "v"))
        assert model == {"u": Fraction(3), "v": Fraction(-1, 2)}

    def test_decimal_values_parse_exactly(self):
        text = "(model (define-fun x () Real 0.25))"
        assert parse_model(text, ("x",)) == {"x": Fraction(1, 4)}

    def test_irrational_root_objects_rejected(self):
        text = "(model (define-fun x () Real (root-obj (+ (^ x 2) (- 2)) 2)))"
        assert parse_model(text, ("x",)) is None

    def test_missing_variable_rejected(self):
        text = "(model (define-fun x () Real 1))"
        assert parse_model(text, ("x", "y")) is None

    def test_garbage_tolerated(self):
        assert parse_model("((((", ("x",)) is None

    def test_unicode_spaces_separate_tokens(self):
        # every character str.isspace() takes separates tokens, as in the
        # solver output's ASCII spacing
        text = "(model\x1c(define-fun\xa0x ()\u3000Real\x1c(/\xa03\u30004)))"
        assert parse_model(text, ("x",)) == {"x": Fraction(3, 4)}
