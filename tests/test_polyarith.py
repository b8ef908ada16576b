import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odecert import (DimensionError, InputError, NonPolynomialError, PolyMatrix,
                     Polynomial, ResourceError, VarTable)
from odecert.parser import parse_term
from odecert import polyarith
from odecert.polyarith import MAX_DEGREE, ScaledPoint, sum_of_products

from conftest import random_point, random_polynomial
from tuple_engine import grevlex_key


@pytest.fixture
def t3():
    return VarTable(["x", "y", "z"])


def P(text, table):
    return parse_term(text, table)


class TestRingOps:
    def test_difference_of_squares(self, t3):
        assert P("(x+1)*(x-1)", t3) == P("x^2 - 1", t3)

    def test_additive_identity(self, t3):
        p = P("x^2*y - 3*z", t3)
        assert p + Polynomial.zero(t3) == p

    def test_expansion_against_naive_oracle(self, uv):
        # (u^2+v^2)*(1-u^2-v^2) expanded, checked by term-by-term multiplication
        a = P("u^2 + v^2", uv)
        b = P("1 - u^2 - v^2", uv)
        oracle: dict = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                oracle[m] = oracle.get(m, Fraction(0)) + c1 * c2
        oracle = {m: c for m, c in oracle.items() if c}
        assert (a * b).terms == oracle
        assert a * b == P("u^2 + v^2 - u^4 - 2*u^2*v^2 - v^4", uv)

    def test_negative_power_rejected(self, t3):
        with pytest.raises(NonPolynomialError):
            P("x", t3) ** -1

    def test_pow_matches_repeated_mul(self, t3):
        p = P("x + 2*y - 1", t3)
        assert p ** 0 == Polynomial.one(t3)
        assert p ** 1 == p
        assert p ** 3 == p * p * p
        assert Polynomial.zero(t3) ** 0 == Polynomial.one(t3)

    def test_zero_coefficients_never_stored(self, t3):
        p = P("x + y", t3) - P("x", t3) - P("y", t3)
        assert p.is_zero() and p.terms == {}

    @pytest.mark.parametrize("names", [["x"], ["x", "y", "z"]])
    def test_is_constant(self, names):
        # a table of 0 variables cannot be built, so 1 and 3 cover the arities
        t = VarTable(names)
        with pytest.raises(InputError):
            VarTable([])
        assert Polynomial.zero(t).is_constant()
        assert Polynomial.constant(t, Fraction(-3, 7)).is_constant()
        assert P("x - x + 5", t).is_constant()
        for text in ["x", "x + 1", "2*x^3"] + (["z", "y*z - 1"] if len(t) == 3 else []):
            assert not P(text, t).is_constant()


class TestRandomizedAlgebra:
    def test_ring_axioms(self, t3):
        rng = random.Random(101)
        for _ in range(1000):
            a = random_polynomial(rng, t3, max_degree=4)
            b = random_polynomial(rng, t3, max_degree=4)
            c = random_polynomial(rng, t3, max_degree=4)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_canonical_equality_under_term_order(self, t3):
        # rebuilding the term map in shuffled insertion order changes nothing
        rng = random.Random(5)
        for _ in range(200):
            p = random_polynomial(rng, t3, max_degree=3, terms=5)
            items = list(p.terms.items())
            rng.shuffle(items)
            q = Polynomial(t3, dict(items))
            assert p == q and p.terms == q.terms

    def test_evaluation_homomorphism(self, t3):
        rng = random.Random(17)
        for _ in range(300):
            a = random_polynomial(rng, t3)
            b = random_polynomial(rng, t3)
            pt = random_point(rng, 3)
            assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
            assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
            assert (-a).evaluate(pt) == -a.evaluate(pt)

    def test_substitution_by_evaluation(self, t3):
        rng = random.Random(23)
        x = t3.index("x")
        subst = {x: P("-x", t3)}
        p = P("x*y", t3)
        q = p.substitute(subst)
        assert q == P("-x*y", t3)
        for _ in range(20):
            pt = random_point(rng, 3)
            sub_pt = (-pt[0],) + pt[1:]
            assert q.evaluate(pt) == p.evaluate(sub_pt)

    def test_simultaneous_substitution(self, t3):
        p = P("x^2", t3)
        assert p.substitute({0: P("x+1", t3)}) == P("x^2 + 2*x + 1", t3)
        assert p.substitute({}) == p
        # simultaneity: swapping x and y in x - y
        q = P("x - y", t3)
        swapped = q.substitute({0: P("y", t3), 1: P("x", t3)})
        assert swapped == P("y - x", t3)


def _cofactor_det(mat: PolyMatrix) -> Polynomial:
    """Independent Laplace-expansion oracle."""
    n = mat.rows
    table = mat.table
    if n == 1:
        return mat.get(0, 0)
    acc = Polynomial.zero(table)
    for j in range(n):
        minor_entries = [mat.get(i, k) for i in range(1, n) for k in range(n) if k != j]
        minor = PolyMatrix(n - 1, n - 1, minor_entries)
        term = mat.get(0, j) * _cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


class TestMatrix:
    def test_identity_determinant(self, t3):
        assert PolyMatrix.identity(3, t3).determinant() == Polynomial.one(t3)

    def test_one_by_one(self, t3):
        p = P("x^2 - y", t3)
        assert PolyMatrix(1, 1, [p]).determinant() == p

    def test_two_by_two_against_cofactor_oracle(self, t3):
        m = PolyMatrix(2, 2, [P("x", t3), P("1", t3), P("1", t3), P("x", t3)])
        assert m.determinant() == P("x^2 - 1", t3)
        assert m.determinant() == _cofactor_det(m)

    def test_random_determinants_match_cofactor_oracle(self, t3):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.choice([2, 3])
            m = PolyMatrix(n, n, [random_polynomial(rng, t3, max_degree=1)
                                  for _ in range(n * n)])
            assert m.determinant() == _cofactor_det(m)

    def test_determinant_multiplicative(self, t3):
        rng = random.Random(37)
        for _ in range(25):
            a = PolyMatrix(2, 2, [random_polynomial(rng, t3, 1) for _ in range(4)])
            b = PolyMatrix(2, 2, [random_polynomial(rng, t3, 1) for _ in range(4)])
            assert a.mul(b).determinant() == a.determinant() * b.determinant()

    def test_zero_pivot_needs_row_swap(self, t3):
        zero, one = Polynomial.zero(t3), Polynomial.one(t3)
        m = PolyMatrix(2, 2, [zero, one, one, zero])
        assert m.determinant() == -one
        singular = PolyMatrix(2, 2, [zero, zero, P("x", t3), P("y", t3)])
        assert singular.determinant().is_zero()

    def test_non_square_rejected(self, t3):
        m = PolyMatrix(2, 3, [Polynomial.zero(t3)] * 6)
        with pytest.raises(DimensionError):
            m.determinant()
        with pytest.raises(DimensionError):
            m.trace()

    def test_trace(self, t3):
        m = PolyMatrix(2, 2, [P("x", t3), P("y", t3), P("z", t3), P("y^2", t3)])
        assert m.trace() == P("x + y^2", t3)


class TestOrdersAndRendering:
    def test_render_golden(self, uv):
        p = P("u^2 + v^2", uv).scale(Fraction(-1, 2))
        assert p.render() == "-1/2*u^2 - 1/2*v^2"
        assert Polynomial.zero(uv).render() == "0"
        assert P("u - 1", uv).render() == "u - 1"

    def test_render_parse_round_trip(self, t3):
        rng = random.Random(41)
        for _ in range(200):
            p = random_polynomial(rng, t3, max_degree=3, terms=5)
            assert parse_term(p.render(), t3) == p

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_render_lists_terms_in_descending_grevlex(self, data, n):
        names = ["x", "y", "z", "w"][:n]
        exponent = st.one_of(st.integers(0, 3), st.integers(0, 40))
        monos = data.draw(st.lists(st.tuples(*[exponent] * n), min_size=1, max_size=12,
                                   unique=True))
        coefficients = data.draw(st.lists(_rationals.filter(bool), min_size=len(monos),
                                          max_size=len(monos)))
        p = Polynomial(VarTable(names), dict(zip(monos, coefficients)))
        rendered = []
        for term in re.split(" [+-] ", p.render().lstrip("-")):
            m = [0] * n
            for factor in term.split("*"):
                name, _, e = factor.partition("^")
                if name in names:
                    m[names.index(name)] = int(e or 1)
            rendered.append(tuple(m))
        assert rendered == sorted(monos, key=grevlex_key, reverse=True)

    def test_var_table_extension_keeps_indices(self):
        t = VarTable(["a", "b"])
        t2 = t.extend(["c"])
        assert t2.index("a") == 0 and t2.index("c") == 2
        with pytest.raises(InputError):
            t.extend(["a"])
        p = P("a*b", t)
        lifted = p.lift(t2)
        assert lifted.render() == "a*b"


def _fraction_value(p: Polynomial, point) -> Fraction:
    """Reference: the exact value, term by term in Fractions."""
    total = Fraction(0)
    for m, c in p.terms.items():
        v = c
        for x, e in zip(point, m):
            v *= x ** e
        total += v
    return total


def _sign(v) -> int:
    return (v > 0) - (v < 0)


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_small_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.one_of(st.just(Fraction(0)), _rationals), max_size=6)


class TestIntKernel:
    """Integer evaluation: ``scaled_value`` and ``evaluate`` over the cached
    evaluation table."""

    @settings(max_examples=300, deadline=None)
    @given(terms=_small_terms,
           point=st.tuples(st.one_of(st.just(Fraction(0)), _rationals),
                           st.one_of(st.just(Fraction(0)), _rationals)))
    def test_kernel_sign_is_the_sign_of_the_exact_value(self, terms, point):
        # covers the zero polynomial, constants and rational coefficients
        p = Polynomial(VarTable(["x", "y"]), terms)
        exact = _fraction_value(p, point)
        k = p._eval_table()
        sp = ScaledPoint.of(point)
        assert _sign(p.scaled_value(sp)) == _sign(exact)
        assert p.evaluate(point) == exact
        assert p._eval_table() is k

    def test_point_dimension_checked(self, t3):
        with pytest.raises(DimensionError):
            P("x + y", t3).evaluate((Fraction(1), Fraction(2)))

    def test_scaled_point_with_coordinate(self):
        sp = ScaledPoint.of((Fraction(1, 2), Fraction(-2, 3)))
        assert (sp.nums, sp.den) == ((3, -4), 6)
        moved = sp.with_coordinate(0, -5, 4)
        assert moved.fractions() == (Fraction(-5, 4), Fraction(-2, 3))

    def test_render_text_is_cached(self, uv):
        p = P("u^2 - 1/2*v", uv)
        assert p.render() is p.render()
        assert p.render() == "u^2 - 1/2*v"


class TestDigitCap:
    def test_render_within_the_cap(self):
        from odecert.polyarith import MAX_DIGITS
        t = VarTable(["x"])
        c = Fraction(10 ** MAX_DIGITS - 1, 10 ** MAX_DIGITS - 2)
        assert Polynomial(t, {(1,): c}).render() == f"{c}*x"

    @pytest.mark.parametrize("coefficient", [Fraction(10 ** 4000), Fraction(1, 10 ** 4000),
                                             Fraction(-(2 ** 1000) ** 1000)])
    def test_longer_computed_coefficient_is_a_resource_error(self, coefficient):
        t = VarTable(["x"])
        for p in (Polynomial.constant(t, coefficient), Polynomial(t, {(1,): coefficient})):
            with pytest.raises(ResourceError, match="digit cap"):
                p.render()


class TestDegreeCap:
    def test_power_past_the_cap_is_a_resource_error(self):
        x = P("x + 1", VarTable(["x"]))
        with pytest.raises(ResourceError):
            x ** (MAX_DEGREE + 1)
        with pytest.raises(ResourceError):
            (x * x) ** (MAX_DEGREE // 2 + 1)
        assert (x ** 3).total_degree() == 3

    def test_exponent_past_the_cap_is_a_resource_error_for_any_base(self):
        t = VarTable(["x"])
        for base in (Polynomial.constant(t, 2), Polynomial.one(t), Polynomial.zero(t)):
            with pytest.raises(ResourceError, match=f"exponent {MAX_DEGREE + 1} exceeds"):
                base ** (MAX_DEGREE + 1)
        assert Polynomial.constant(t, 2) ** MAX_DEGREE == \
            Polynomial.constant(t, 2 ** MAX_DEGREE)
        with pytest.raises(ResourceError, match=f"power of degree 1 \\* {MAX_DEGREE + 1}"):
            P("x", t) ** (MAX_DEGREE + 1)


class TestTermCap:
    def test_cap_is_checked_before_the_product_is_built(self, t3, monkeypatch):
        monkeypatch.setattr(polyarith, "MAX_TERM_PRODUCTS", 12)
        a, b = P("x + y + z", t3), P("x + y + z + 1", t3)
        assert a * b == P("x^2 + 2*x*y + 2*x*z + y^2 + 2*y*z + z^2 + x + y + z", t3)
        with pytest.raises(ResourceError, match="product of 15 term pairs exceeds "
                                                "the term cap 12"):
            sum_of_products(t3, [(a, b), (a, P("x", t3))])
        # every squaring and multiply of a power is one product
        assert (a ** 2).nums == (a * a).nums
        with pytest.raises(ResourceError, match="term cap"):
            b ** 2
        # pairs with a zero factor multiply nothing
        assert sum_of_products(t3, [(a, b), (Polynomial.zero(t3), b)]) == a * b

    def test_operands_of_another_table_are_refused(self, t3):
        # an exponent vector of (x, y, z) added to one of (x, y) would be
        # cut to two entries, so z * x would pass for x
        xy = VarTable(["x", "y"])
        z, x = P("z", t3), P("x", xy)
        with pytest.raises(InputError, match="different variable tables"):
            sum_of_products(xy, [(z, x)])
        with pytest.raises(InputError, match="different variable tables"):
            sum_of_products(xy, [(x, x), (Polynomial.zero(t3), x)])
        # an equal table that is another object is the same table
        assert sum_of_products(xy, [(x, P("y", VarTable(["x", "y"])))]) == P("x*y", xy)

    def test_huge_power_stops_at_once(self, t3):
        base = P("x + y + z + 1", t3)
        with pytest.raises(ResourceError, match="term cap"):
            base ** 90
        assert len((base ** 20).nums) == 1771

    def test_substitution_counts_its_term_pairs_over_the_call(self, t3):
        # each of the 200 terms multiplies the 1771 terms of x's image: the
        # 142nd passes the cap, though no one product does
        p = Polynomial(t3, {(1, i, j): 1 for i in range(20) for j in range(10)})
        image = P("x + y + z + 1", t3) ** 20
        started = time.monotonic()
        with pytest.raises(ResourceError, match="product of 251482 term pairs exceeds "
                                                "the term cap"):
            p.substitute({0: image})
        assert time.monotonic() - started < 1


# -- the integer representation against a term-by-term Fraction reference ----

def _ref_clean(d) -> dict:
    return {m: Fraction(c) for m, c in d.items() if c}


def _ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return _ref_clean(out)


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _ref_clean(out)


def _ref_pow(a: dict, k: int, n: int) -> dict:
    out = {(0,) * n: Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a: dict, subst: dict, n: int) -> dict:
    out: dict = {}
    for m, c in a.items():
        part = {tuple(0 if i in subst else e for i, e in enumerate(m)): c}
        for i, q in subst.items():
            part = _ref_mul(part, _ref_pow(q, m[i], n))
        out = _ref_add(out, part)
    return out


_coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=15)
_rational_terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                  _coeffs, max_size=5)


def _assert_canonical(p: Polynomial) -> None:
    assert p.den > 0
    assert all(v != 0 for v in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.terms == {m: Fraction(v, p.den) for m, v in p.nums.items()}


class TestIntegerRepresentation:
    @settings(max_examples=150, deadline=None)
    @given(a=_rational_terms, b=_rational_terms, d=_rational_terms, c=_coeffs,
           k=st.integers(0, 3), which=st.sampled_from([(0,), (1,), (0, 1)]))
    def test_operations_match_the_fraction_reference(self, a, b, d, c, k, which):
        xy = VarTable(["x", "y"])
        p, q, r = Polynomial(xy, a), Polynomial(xy, b), Polynomial(xy, d)
        ra, rb, rd = _ref_clean(a), _ref_clean(b), _ref_clean(d)
        # each substituted variable gets its own polynomial
        images, ref_images = {0: q, 1: r}, {0: rb, 1: rd}
        assert p.terms == ra and q.terms == rb
        results = [
            (p + q, _ref_add(ra, rb)),
            (p - q, _ref_add(ra, rb, -1)),
            (-p, _ref_add({}, ra, -1)),
            (p * q, _ref_mul(ra, rb)),
            (p.scale(c), _ref_clean({m: v * c for m, v in ra.items()})),
            (p.mul_term(c, (1, 2)),
             _ref_clean({(m[0] + 1, m[1] + 2): v * c for m, v in ra.items()})),
            (p ** k, _ref_pow(ra, k, 2)),
            (p.substitute({i: images[i] for i in which}),
             _ref_substitute(ra, {i: ref_images[i] for i in which}, 2)),
        ]
        for got, expected in results:
            _assert_canonical(got)
            assert got.terms == expected
        xyz = xy.extend(["z"])
        lifted = p.lift(xyz)
        _assert_canonical(lifted)
        assert lifted.terms == {m + (0,): v for m, v in ra.items()}

    @settings(max_examples=150, deadline=None)
    @given(a=_rational_terms, b=_rational_terms)
    def test_equality_and_hash_follow_the_fraction_map(self, a, b):
        xy = VarTable(["x", "y"])
        p, q = Polynomial(xy, a), Polynomial(xy, b)
        _assert_canonical(p)
        assert (p == q) == (p.terms == q.terms)
        # the same polynomial reached two ways has the same form and hash
        same = (p + q) - q
        assert same == p and hash(same) == hash(p)
        assert (same.nums, same.den) == (p.nums, p.den)
        assert p.scale(3).scale(Fraction(1, 3)) == p

    def test_terms_is_read_only_and_cached(self, t3):
        p = P("x/2 - 3*y", t3)
        assert p.terms is p.terms
        with pytest.raises(TypeError):
            p.terms[(0, 0, 0)] = Fraction(1)
        assert (p.nums, p.den) == ({(1, 0, 0): 1, (0, 1, 0): -6}, 2)
