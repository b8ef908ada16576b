from fractions import Fraction

from hypothesis import given, settings, strategies as st

from odecert import Polynomial, SideCondition, VarTable
from odecert.invariant import (DischargeConfig, _sample_stream, _try_ideal,
                               _try_identity)
from odecert.parser import parse_term
from odecert.realalg import (STURM_SIZE_LIMIT, definite, real_root_count,
                             sturm_sequence)
from odecert.semalg import Atom, make_and, make_or

T = VarTable(["t"])
XY = VarTable(["x", "y"])

_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def _coefficients(p: Polynomial) -> list[int]:
    """The integer coefficients of p's numerator over a one-variable table,
    lowest degree first."""
    return [p.nums.get((e,), 0) for e in range(p.total_degree() + 1)]


def _product(roots: list[Fraction], mults: list[int], offsets: list[Fraction],
             table: VarTable = T, var: int = 0) -> Polynomial:
    """prod (v - r_i)^m_i * prod (v^2 + c_j) in the table's variable ``var``."""
    v = Polynomial.variable(table, var)
    acc = Polynomial.one(table)
    for r, m in zip(roots, mults):
        acc = acc * (v - Polynomial.constant(table, r)) ** m
    for c in offsets:
        acc = acc * (v * v + Polynomial.constant(table, c))
    return acc


def _reference_sturm(coeffs: list[Fraction]) -> list[list[Fraction]]:
    """p, p', -rem(p, p'), ... by Euclidean division over Q, highest
    degree first."""

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            f = a[0] / b[0]
            a = [x - f * y for x, y in zip(a[1:len(b)], b[1:])] + a[len(b):]
            while a and a[0] == 0:
                del a[0]
        return a

    p = coeffs[::-1]
    n = len(p) - 1
    seq = [p, [(n - i) * c for i, c in enumerate(p[:-1])]]
    while len(seq[-1]) > 1:
        r = rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return seq


class TestSturm:
    @settings(max_examples=150, deadline=None)
    @given(roots=st.lists(_rationals, max_size=4, unique=True),
           mults=st.lists(st.integers(1, 3), min_size=4, max_size=4),
           offsets=st.lists(st.fractions(min_value=Fraction(1, 7), max_value=9,
                                         max_denominator=7), max_size=2),
           scale=st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
    def test_root_count_of_known_factors(self, roots, mults, offsets, scale):
        p = _product(roots, mults, offsets).scale(scale)
        assert real_root_count(_coefficients(p)) == len(roots)

    @settings(max_examples=150, deadline=None)
    @given(coeffs=st.lists(st.integers(-30, 30), min_size=2, max_size=9).filter(
        lambda c: c[-1] != 0))
    def test_members_are_positive_multiples_of_the_euclidean_ones(self, coeffs):
        ours = sturm_sequence(coeffs)
        reference = _reference_sturm([Fraction(c) for c in coeffs])
        assert len(ours) == len(reference)
        for a, b in zip(ours, reference):
            assert len(a) == len(b)
            lam = b[0] / a[0]
            assert lam > 0 and [lam * x for x in a] == b

    def test_degenerate_sequences(self):
        assert sturm_sequence([0, 0]) == []
        assert sturm_sequence([-6, 0]) == [[-1]]
        assert real_root_count([5]) == 0
        assert real_root_count([0, 0, 0, 1]) == 1  # t^3: one distinct root


class TestDefinite:
    @settings(max_examples=200, deadline=None)
    @given(roots=st.lists(_rationals, max_size=3, unique=True),
           mults=st.lists(st.integers(1, 2), min_size=3, max_size=3),
           offsets=st.lists(st.fractions(min_value=Fraction(1, 7), max_value=9,
                                         max_denominator=7), max_size=2),
           scale=st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
           shift=st.fractions(min_value=-3, max_value=3, max_denominator=4),
           var=st.integers(0, 1), strict=st.booleans(),
           probes=st.lists(_rationals, max_size=6))
    def test_never_true_against_an_exact_evaluation(self, roots, mults, offsets, scale, shift,
                                                    var, strict, probes):
        p = (_product(roots, mults, offsets, XY, var).scale(scale)
             + Polynomial.constant(XY, shift))
        if not definite(p, strict):
            return
        for v in roots + probes + [Fraction(0)]:
            point = [Fraction(7, 3), Fraction(7, 3)]
            point[var] = v
            value = p.evaluate(point)
            assert value > 0 if strict else value >= 0

    def test_decided_cases(self):
        for text, strict, expected in [
            ("x^2 + 1", True, True), ("x^2 - 2*x + 2", True, True),
            ("x^4 - 3*x^2 + 3", True, True), ("y^6 + y + 1", False, True),
            ("-x^2 - 3", True, False), ("x^2 - 2", True, False),  # irrational roots
            ("x^2", False, False),  # even-multiplicity root: not decided here
            ("x^3 + 1", True, False), ("x^2 + 2*x + 1", True, False),
            ("x^2 + y^2 + 1", True, False),  # two variables
            ("0", False, True), ("0", True, False), ("-1/2", False, False),
            ("3/4", True, True),
        ]:
            assert definite(parse_term(text, XY), strict) is expected, text

    def test_size_bound(self):
        # t^k + 1 has size k * (1 + k): decided up to the bound, not past it
        k = max(k for k in range(0, STURM_SIZE_LIMIT, 2) if k * (k + 1) <= STURM_SIZE_LIMIT)
        assert definite(parse_term(f"t^{k} + 1", T), True)
        assert not definite(parse_term(f"t^{k + 2} + 1", T), True)


def _univariate_atom(draw) -> Atom:
    var = draw(st.integers(0, 1))
    roots = draw(st.lists(st.integers(-3, 3).map(Fraction), max_size=2, unique=True))
    offsets = draw(st.lists(st.integers(1, 4).map(Fraction), max_size=1))
    shift = draw(st.integers(-2, 2))
    sign = draw(st.sampled_from([1, -1]))
    p = (_product(roots, [1] * len(roots), offsets, XY, var).scale(sign)
         + Polynomial.constant(XY, shift))
    return Atom(draw(st.sampled_from([">=", ">", "<=", "<", "=", "!="])), p)


@st.composite
def _formulas(draw, depth: int = 2):
    if depth == 0 or draw(st.booleans()):
        if draw(st.integers(0, 3)) == 0:
            return Atom(draw(st.sampled_from([">=", ">", "="])),
                        parse_term(draw(st.sampled_from(["x - y", "x*y - 1", "x + y"])), XY))
        return _univariate_atom(draw)
    parts = draw(st.lists(_formulas(depth - 1), min_size=1, max_size=3))
    return make_and(parts) if draw(st.booleans()) else make_or(parts)


class TestExactTiersAgainstSampling:
    # about 4 in 10 generated conditions are proved by the identity or the
    # ideal tier; the rest return early
    @settings(max_examples=120, deadline=None)
    @given(hyp=_formulas(), concl=_formulas(), seed=st.integers(0, 50))
    def test_no_exact_proof_is_refuted_by_sampling(self, hyp, concl, seed):
        cond = SideCondition(hyp, concl, XY.names, "test")
        status = _try_identity(cond) or _try_ideal(cond)
        if status is None:
            return
        config = DischargeConfig(samples=2000, seed=seed)
        refutation = next(filter(None, _sample_stream(cond, config)), None)
        assert refutation is None, (status, refutation)
