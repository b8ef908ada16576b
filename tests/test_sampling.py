import random
from fractions import Fraction
from math import isqrt

from hypothesis import given, settings, strategies as st

from odecert import Polynomial, VarTable
from odecert.polyarith import ScaledPoint
from odecert.sampling import (project_to_boundary, sample_points,
                              univariate_rational_roots)


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction_roots(factor: list[Fraction]) -> set[Fraction]:
    """Reference: rational roots of a linear or quadratic factor in Fractions."""
    if len(factor) == 2:
        return {-factor[0] / factor[1]}
    c, b, a = factor
    disc = b * b - 4 * a * c
    if disc < 0:
        return set()
    num, den = isqrt(disc.numerator), isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return set()
    sq = Fraction(num, den)
    return {(-b + sq) / (2 * a), (-b - sq) / (2 * a)}


_nonzero = st.integers(-6, 6).filter(bool)
_linear = st.tuples(st.integers(-6, 6), _nonzero)
_quadratic = st.tuples(st.integers(-6, 6), st.integers(-6, 6), _nonzero)


class TestUnivariateRoots:
    @settings(max_examples=200, deadline=None)
    @given(factors=st.lists(st.one_of(_linear, _quadratic), min_size=1, max_size=4),
           scale=st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
    def test_integer_roots_match_fraction_reference(self, factors, scale):
        coeffs = [scale]
        expected: set[Fraction] = set()
        for f in factors:
            f = [Fraction(c) for c in f]
            coeffs = _mul(coeffs, f)
            expected |= _fraction_roots(f)
        den = 1
        for c in coeffs:
            den = den * c.denominator
        ints = {e: int(c * den) for e, c in enumerate(coeffs) if c}
        roots = univariate_rational_roots(ints)
        assert [Fraction(n, d) for n, d in roots] == sorted(expected)
        assert all(d > 0 for _, d in roots)

    def test_degenerate_inputs(self):
        assert univariate_rational_roots({}) == []
        assert univariate_rational_roots({0: 5}) == []
        assert univariate_rational_roots({3: 2}) == [(0, 1)]


class TestProjection:
    def test_restriction_is_a_positive_multiple(self):
        xy = VarTable(["x", "y"])
        p = Polynomial(xy, {(2, 1): Fraction(1, 3), (0, 2): Fraction(-2), (1, 0): Fraction(5, 4)})
        point = ScaledPoint.of((Fraction(3, 2), Fraction(-1, 3)))
        ints = p.restrict_to_variable(0, point)
        y = Fraction(-1, 3)
        exact = {2: Fraction(1, 3) * y, 1: Fraction(5, 4), 0: -2 * y * y}
        ratio = Fraction(ints[1]) / exact[1]
        assert ratio > 0
        assert {e: Fraction(v) for e, v in ints.items()} == \
            {e: c * ratio for e, c in exact.items()}

    def test_projected_points_lie_on_the_atom(self):
        xy = VarTable(["x", "y"])
        # x = y^2 - 1/3 always has a rational solution, so every
        # projected (odd-numbered) draw ends on the atom
        atom = Polynomial(xy, {(1, 0): Fraction(1), (0, 2): Fraction(-1),
                               (0, 0): Fraction(1, 3)})
        points = list(sample_points(random.Random(3), 2, 200, [atom]))
        assert all(atom.evaluate(pt.fractions()) == 0 for pt in points[1::2])
        fixed = project_to_boundary(ScaledPoint.of((Fraction(3, 2), Fraction(7))),
                                    atom, random.Random(0))
        assert fixed is not None and atom.evaluate(fixed.fractions()) == 0
