import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from odecert import Polynomial, VarTable
from odecert.parser import parse_term
from odecert.polyarith import ScaledPoint
from odecert.sampling import (DEN_RANGE, NUM_RANGE, _below, _compare, _divisors,
                              _root, project_to_boundary, random_point, sample_points,
                              univariate_rational_roots)

from conftest import random_polynomial


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

    @settings(max_examples=300, deadline=None)
    @given(c0=st.one_of(st.just(0), st.integers(-40, 40)),
           c1=st.one_of(st.just(0), st.integers(-40, 40)),
           c2=st.one_of(st.just(0), st.integers(-9, 9)),
           quadratic=st.booleans(), keep_zeros=st.booleans())
    def test_direct_paths_match_the_candidate_search(self, c0, c1, c2, quadratic, keep_zeros):
        """c0 + c1*x (+ c2*x^2): the direct linear and quadratic paths give
        what the rational-root-theorem search gives, zero coefficients
        present or dropped."""
        coeffs = {0: c0, 1: c1, 2: c2} if quadratic else {0: c0, 1: c1}
        if not keep_zeros:
            coeffs = {e: c for e, c in coeffs.items() if c}
        assert univariate_rational_roots(coeffs) == _reference_roots(coeffs, direct=False)

    def test_direct_paths_with_zero_coefficients(self):
        assert univariate_rational_roots({0: 7, 1: 0}) == []
        assert univariate_rational_roots({0: 0, 1: 5}) == [(0, 1)]
        assert univariate_rational_roots({0: 0, 1: -5}) == [(0, 1)]
        assert univariate_rational_roots({0: 3, 1: -6}) == [(1, 2)]
        assert univariate_rational_roots({0: -4, 1: 0, 2: 1}) == [(-2, 1), (2, 1)]
        assert univariate_rational_roots({0: 4, 2: -1}) == [(-2, 1), (2, 1)]

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


# ---------------------------------------------------------------------------
# references: the root search that tests every candidate, and the sampler
# that draws through randint, randrange and shuffle

def _reference_roots(coeffs: dict[int, int], direct: bool = True) -> list[tuple[int, int]]:
    """Every rational-root-theorem candidate tested by exact evaluation,
    with no pruning; with ``direct``, the linear and quadratic cases solve
    directly."""
    coeffs = {e: c for e, c in coeffs.items() if c != 0}
    if not coeffs:
        return []
    roots = []
    low = min(coeffs)
    if low > 0:
        roots.append((0, 1))
        coeffs = {e - low: c for e, c in coeffs.items()}
    deg = max(coeffs)
    if deg == 1 and direct:
        roots.append(_root(-coeffs.get(0, 0), coeffs[1]))
    elif deg == 2 and direct:
        a, b, c = coeffs[2], coeffs.get(1, 0), coeffs.get(0, 0)
        disc = b * b - 4 * a * c
        sq = isqrt(disc) if disc >= 0 else -1
        if sq >= 0 and sq * sq == disc:
            roots += [_root(num, 2 * a) for num in (-b + sq, -b - sq)]
    elif deg > 0:
        g = 0
        for v in coeffs.values():
            g = gcd(g, v)
        iofs = {e: v // g for e, v in coeffs.items()}
        for num in _divisors(iofs[0]):
            for den in _divisors(iofs[deg]):
                for n, d in (_root(num, den), _root(-num, den)):
                    if sum(c * n ** e * d ** (deg - e) for e, c in iofs.items()) == 0:
                        roots.append((n, d))
    return sorted(set(roots), key=cmp_to_key(_compare))


def _reference_sample_points(rng, nvars, count, boundary_atoms):
    for k in range(count):
        pairs = [(rng.randint(-NUM_RANGE, NUM_RANGE), rng.randint(1, DEN_RANGE))
                 for _ in range(nvars)]
        den = lcm(*(d for _, d in pairs))
        point = ScaledPoint([n * (den // d) for n, d in pairs], den)
        if boundary_atoms and k % 2 == 1:
            atom = boundary_atoms[rng.randrange(len(boundary_atoms))]
            candidates = sorted(atom.variables())
            rng.shuffle(candidates)
            for var in candidates:
                roots = _reference_roots(atom.restrict_to_variable(var, point))
                if roots:
                    num, rden = roots[rng.randrange(len(roots))]
                    point = point.with_coordinate(var, num, rden)
                    break
        yield point


_NAMES = ("x", "y", "z")
# per variable count: no boundary atom, one, four and seven; the atoms
# x^2 - 1/4, x^2 - y^2 and (x - 1)(x - 2)(x + 3) have two or more rational
# roots in x, and x*y*z - 1 cannot be fixed in a variable set to zero.  The
# last three of each table are in one variable, whose roots are found once
# per atom: two rational roots, one, and none
_ATOMS = {
    1: ["x^2 - 1/4", "(x - 1)*(x - 2)*(x + 3)", "3*x - 2", "x^2 + 1",
        "2*x^3 - x^2", "x^3 - 2", "4*x^2 - 9"],
    2: ["x^2 - y^2", "x*y - 1", "(x - y)*(x + 2*y)*(x - 3)", "x^2 + y^2 - 25",
        "4*y^2 - 9", "3*y - 2", "x^2 + 1"],
    3: ["x^2 + y^2 - z^2", "x*y*z - 1", "(x - z)*(y + 2)*(z - 1/3)", "z^3 - 2*z",
        "4*z^2 - 9", "3*y - 2", "x^2 + 1"],
}


class TestSampleStream:
    def test_below_matches_randrange(self):
        for n in range(1, 301):
            ours, theirs = random.Random(n), random.Random(n)
            assert [_below(ours, n) for _ in range(20)] == \
                [theirs.randrange(n) for _ in range(20)]

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("atoms", [0, 1, 4, 7])
    def test_points_match_the_randint_sampler(self, nvars, atoms):
        table = VarTable(_NAMES[:nvars])
        boundary = [parse_term(t, table) for t in _ATOMS[nvars][:atoms]]
        for seed in range(20):
            ours, theirs = random.Random(seed), random.Random(seed)
            got = [(p.nums, p.den) for p in sample_points(ours, nvars, 40, boundary)]
            want = [(p.nums, p.den)
                    for p in _reference_sample_points(theirs, nvars, 40, boundary)]
            assert got == want
            assert ours.getstate() == theirs.getstate()


def _linear_product(factors, cofactor):
    """Integer coefficients of prod (den*x - num) times the cofactor."""
    coeffs = list(cofactor)
    for num, den in factors:
        out = [0] * (len(coeffs) + 1)
        for e, c in enumerate(coeffs):
            out[e + 1] += den * c
            out[e] -= num * c
        coeffs = out
    return {e: c for e, c in enumerate(coeffs) if c}


class TestRootSearch:
    @settings(max_examples=300, deadline=None)
    @given(factors=st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)),
                            min_size=1, max_size=5),
           cofactor=st.lists(st.integers(-9, 9), min_size=0, max_size=3)
           .map(lambda cs: cs + [1]),
           lead=st.integers(-6, 6).filter(bool))
    def test_matches_the_unpruned_search(self, factors, cofactor, lead):
        coeffs = _linear_product(factors, [lead * c for c in cofactor])
        roots = univariate_rational_roots(coeffs)
        assert roots == _reference_roots(coeffs)
        if max(abs(c) for c in coeffs.values()) <= 10 ** 6:
            assert {Fraction(n, d) for n, d in factors} <= \
                {Fraction(n, d) for n, d in roots}


def _reference_random_point(rng, nvars):
    """random_point as it was written before its draws were inlined: one
    ``_below`` per numerator, then one per denominator."""
    pairs = [(_below(rng, 2 * NUM_RANGE + 1) - NUM_RANGE, 1 + _below(rng, DEN_RANGE))
             for _ in range(nvars)]
    den = lcm(*(d for _, d in pairs))
    return ScaledPoint([n * (den // d) for n, d in pairs], den)


def _fraction_restriction(p, var, point):
    """Coefficients, by power of x_var, of p with every other variable set
    to the point's value, in Fractions from p's terms."""
    values = point.fractions()
    out: dict[int, Fraction] = {}
    for m, c in p.terms.items():
        v = c
        for i, e in enumerate(m):
            if i != var:
                v *= values[i] ** e
        out[m[var]] = out.get(m[var], 0) + v
    return {k: v for k, v in out.items() if v}


class TestDrawingTables:
    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_random_point_matches_the_below_draws(self, nvars):
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(40):
                got, want = random_point(ours, nvars), _reference_random_point(theirs, nvars)
                assert (got.nums, got.den) == (want.nums, want.den)
            assert ours.getstate() == theirs.getstate()

    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False), nvars=st.integers(1, 3))
    def test_restriction_matches_the_fraction_restriction(self, rng, nvars):
        table = VarTable(["x", "y", "z"][:nvars])
        p = random_polynomial(rng, table, max_degree=3, terms=rng.randint(1, 6), bound=5)
        degree = max(p.total_degree(), 0)
        for _ in range(25):  # one polynomial, its tables built once, many points
            point = random_point(rng, nvars)
            scale = p.den * point.den ** degree  # the positive multiple returned
            for var in range(nvars):
                want = _fraction_restriction(p, var, point)
                assert p.restrict_to_variable(var, point) == \
                    {k: v * scale for k, v in want.items()}
        assert p.sorted_variables() == tuple(sorted(p.variables()))
