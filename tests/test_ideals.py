import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odecert import (InputError, OdeSystem, Polynomial, ResourceError, VarTable,
                     differential_radical, groebner, higher_lie,
                     member_with_witness, rank, reduce_mod)
from odecert import ideals
from odecert.ideals import BuchbergerState
from odecert.parser import parse_term
from odecert.polyarith import mono_div, mono_divides, mono_mul, sum_of_products

import tuple_engine
from tuple_engine import grevlex_key, mono_lcm
from conftest import random_nonzero_polynomial, random_polynomial, random_system


def P(text, table):
    return parse_term(text, table)


# (generators, grevlex basis, lex basis): the rendered reduced Groebner
# bases of 20 seeded random pairs (conftest.random_nonzero_polynomial with
# degree 3 and 3 terms, random.Random(seed) for seed 0..19), unit ideals
# among them; golden output that the basis engine must reproduce byte for
# byte.  The lex bases are other generators of the same ideals, so from
# them too the engine must reach the grevlex basis.
PINNED_BASES = [
    (["2*x*y^2", "-2*x*y + 2*x"],
     ["x"],
     ["x"]),
    (["-2*x*y^2 + 1", "2*x*y^2 + 1"],
     ["1"],
     ["1"]),
    (["-2", "-2*y^2 + 2*x + y"],
     ["1"],
     ["1"]),
    (["x", "2*x^3 - x^2*y"],
     ["x"],
     ["x"]),
    (["-2*x^2*y - 2*y + 1", "2*x^2 - 2*x*y"],
     ["x*y - y^2 - 1/2*x + 1/2*y", "x^2 - y^2 - 1/2*x + 1/2*y", "y^3 + 1/4*x + 3/4*y - 1/2"],
     ["y^4 - 1/2*y^3 + y^2 - y + 1/4", "x + 4*y^3 + 3*y - 2"]),
    (["x*y - x", "2*x^2*y - x*y^2 - x"],
     ["x*y - x", "x^2 - x"],
     ["x*y - x", "x^2 - x"]),
    (["-x^2 + 1", "-x^2*y"],
     ["y", "x^2 - 1"],
     ["y", "x^2 - 1"]),
    (["-2*x*y + 2", "-2*x^2*y - 2*x + 2"],
     ["y - 2", "x - 1/2"],
     ["y - 2", "x - 1/2"]),
    (["-2*x + y - 1", "2*y^3 + x + 1"],
     ["x - 1/2*y + 1/2", "y^3 + 1/4*y + 1/4"],
     ["y^3 + 1/4*y + 1/4", "x - 1/2*y + 1/2"]),
    (["x^2*y - x*y^2", "-x + y - 2"],
     ["x - y + 2", "y^2 - 2*y"],
     ["y^2 - 2*y", "x - y + 2"]),
    (["x^2*y + 2*x^2 + 1", "y + 1"],
     ["y + 1", "x^2 + 1"],
     ["y + 1", "x^2 + 1"]),
    (["-x*y^2 + 2*x", "2*x^2*y"],
     ["x^2", "x*y^2 - 2*x"],
     ["x*y^2 - 2*x", "x^2"]),
    (["3*x*y^2", "-y + 2"],
     ["y - 2", "x"],
     ["y - 2", "x"]),
    (["-x*y + x", "-x^2*y - 2*y"],
     ["y^2 - y", "x*y - x", "x^2 + 2*y"],
     ["y^2 - y", "x*y - x", "x^2 + 2*y"]),
    (["2", "-x*y"],
     ["1"],
     ["1"]),
    (["-1", "-y"],
     ["1"],
     ["1"]),
    (["x^2*y - 2*x^2", "4*x^2 - y^2"],
     ["x^2 - 1/4*y^2", "y^3 - 2*y^2"],
     ["y^3 - 2*y^2", "x^2 - 1/4*y^2"]),
    (["-x^2", "x + 2*y"],
     ["x + 2*y", "y^2"],
     ["y^2", "x + 2*y"]),
    (["x*y^2 + x^2 + x", "-x^2 - 2*x*y"],
     ["x^2 + 2*x*y", "x*y^2 - 2*x*y + x"],
     ["x*y^2 - 2*x*y + x", "x^2 + 2*x*y"]),
    (["4", "-2*x*y"],
     ["1"],
     ["1"]),
]


class TestGroebner:
    def test_principal_ideal(self, xy):
        gb = groebner([P("x", xy)])
        assert [b.render() for b in gb.basis] == ["x"]

    def test_x2_xy_stays_two_generators(self, xy):
        # x is NOT in <x^2, xy>: the only S-polynomial reduces to zero, so the
        # reduced basis keeps both generators (hand S-polynomial oracle:
        # S(x^2, xy) = y*x^2 - x*xy = 0)
        gb = groebner([P("x^2", xy), P("x*y", xy)])
        assert sorted(b.render() for b in gb.basis) == ["x*y", "x^2"]

    @pytest.mark.parametrize("gens, grevlex, lex", PINNED_BASES)
    def test_pinned_bases(self, xy, gens, grevlex, lex):
        for generators in (gens, lex):
            basis = groebner([P(g, xy) for g in generators])
            assert basis.render().splitlines() == grevlex

    def test_idempotence(self, xy):
        rng = random.Random(4)
        for _ in range(15):
            gens = [random_nonzero_polynomial(rng, xy, 2, 3) for _ in range(2)]
            gb = groebner(gens)
            again = groebner(list(gb.basis))
            assert list(again.basis) == list(gb.basis)

    def test_zero_generators_allowed(self, xy):
        gb = groebner([Polynomial.zero(xy)])
        assert gb.basis == ()
        assert member_with_witness(Polynomial.zero(xy), [Polynomial.zero(xy)]) is not None
        assert member_with_witness(P("x", xy), [Polynomial.zero(xy)]) is None

    def test_determinism(self, xy):
        rng = random.Random(6)
        gens = [random_nonzero_polynomial(rng, xy, 3, 4) for _ in range(3)]
        a = groebner(gens)
        b = groebner(gens)
        assert a.basis == b.basis

    def test_step_budget(self, xy):
        gens = [P("x^3 - 2*x*y", xy), P("x^2*y - 2*y^2 + x", xy)]
        with pytest.raises(ResourceError):
            groebner(gens, step_budget=3)

    def test_unit_ideal(self, xy):
        # x - (x - 1) = 1: the basis collapses to [1]
        gb = groebner([P("x", xy), P("x - 1", xy)])
        assert [b.render() for b in gb.basis] == ["1"]

    def test_diagnostic_dump(self, xy):
        gb = groebner([P("x - 1", xy), P("y - x", xy)])
        dump = gb.render()
        assert sorted(dump.splitlines()) == ["x - 1", "y - 1"]
        assert groebner([Polynomial.zero(xy)]).render() == "<empty basis>"


class TestMembership:
    def test_square_in_principal(self, xy):
        w = member_with_witness(P("x^2", xy), [P("x", xy)])
        assert w is not None and w.cofactors[0] == P("x", xy)

    def test_distinct_variable_not_member(self, xy):
        assert member_with_witness(P("y", xy), [P("x", xy)]) is None

    def test_darboux_second_derivative_witness(self):
        # y' = -y: L y = -y, so L^2 y = y with (Lg + g^2) = 1 for cofactor g = -1
        t = VarTable(["y"])
        sys = OdeSystem.from_pairs(t, [("y", P("-y", t))])
        l2 = higher_lie(P("y", t), sys, 2)
        w = member_with_witness(l2, [P("y", t)])
        assert w is not None and w.cofactors[0] == Polynomial.one(t)

    def test_witness_exactness_random(self, xy):
        rng = random.Random(8)
        hits = 0
        for _ in range(60):
            gens = [random_nonzero_polynomial(rng, xy, 2, 2) for _ in range(2)]
            h = [random_nonzero_polynomial(rng, xy, 1, 2) for _ in range(2)]
            target = h[0] * gens[0] + h[1] * gens[1]
            w = member_with_witness(target, gens)
            assert w is not None  # membership by construction
            acc = Polynomial.zero(xy)
            for c, g in zip(w.cofactors, gens):
                acc = acc + c * g
            assert acc == target
            hits += 1
        assert hits == 60

    def test_reduce_mod_normal_form_is_canonical(self, xy):
        gb = groebner([P("x^2 - y", xy), P("y^2 - 1", xy)])
        r1 = reduce_mod(P("x^4", xy), gb.basis)
        r2 = reduce_mod(P("y^2", xy), gb.basis)
        assert r1 == Polynomial.one(xy) and r2 == Polynomial.one(xy)


_small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool), max_size=3)


def _poly(table, terms):
    return Polynomial(table, {m: Fraction(c) for m, c in terms.items()})


class TestMembershipProperty:
    @settings(max_examples=60, deadline=None)
    @given(gens=st.lists(_small_polys, min_size=1, max_size=3),
           target=_small_polys,
           combine=st.lists(_small_polys, min_size=3, max_size=3),
           member=st.booleans())
    def test_witness_exactly_when_remainder_is_zero(self, gens, target, combine, member):
        xy = VarTable(["x", "y"])
        gens = [_poly(xy, g) for g in gens]
        p = _poly(xy, target)
        if member:  # bias towards members: p = sum h_j * g_j
            p = Polynomial.zero(xy)
            for h, g in zip(combine, gens):
                p = p + _poly(xy, h) * g
        w = member_with_witness(p, gens)
        assert (w is not None) == reduce_mod(p, groebner(gens).basis).is_zero()
        if w is not None:
            assert len(w.cofactors) == len(gens)
            acc = Polynomial.zero(xy)
            for c, g in zip(w.cofactors, gens):
                acc = acc + c * g
            assert acc == p


def _reference_reduce(p, basis):
    """Term-by-term Fraction reduction: the largest term of the working
    polynomial is cancelled by the first basis element whose leading
    monomial divides it, or moved to the remainder."""
    reducers = [(b.leading(), b) for b in basis if not b.is_zero()]
    work, rem = dict(p.terms), {}
    while work:
        wm = max(work, key=grevlex_key)
        wc = work[wm]
        for (lm, lc), b in reducers:
            if mono_divides(lm, wm):
                for m, c in b.mul_term(wc / lc, mono_div(wm, lm)).terms.items():
                    work[m] = work.get(m, 0) - c
                    if not work[m]:
                        del work[m]
                break
        else:
            rem[wm] = work.pop(wm)
    return Polynomial(p.table, rem)


# rational, non-monic coefficients with large numerators and denominators
_big_rationals = st.builds(Fraction, st.integers(-10**15, 10**15).filter(bool),
                           st.integers(1, 10**15))
_rational_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), _big_rationals,
    min_size=1, max_size=4)


class TestIntegerReduction:
    @settings(max_examples=60, deadline=None)
    @given(basis=st.lists(_rational_polys, min_size=1, max_size=3), target=_rational_polys)
    def test_reduce_mod_matches_the_fraction_reference(self, basis, target):
        xy = VarTable(["x", "y"])
        basis = [_poly(xy, b) for b in basis]
        p = _poly(xy, target)
        rem = reduce_mod(p, basis)
        assert rem == _reference_reduce(p, basis)
        # the leading coefficients of the reducers do not change the remainder
        assert rem == reduce_mod(p, [b.monic() for b in basis])

    @settings(max_examples=40, deadline=None)
    @given(gens=st.lists(_rational_polys, min_size=1, max_size=2), target=_rational_polys,
           scales=st.lists(_big_rationals, min_size=8, max_size=8))
    def test_normal_form_with_witness_recombines(self, gens, target, scales):
        xy = VarTable(["x", "y"])
        gens = [_poly(xy, g) for g in gens]
        p = _poly(xy, target)
        state = BuchbergerState(xy)
        for g in gens:
            state.add_generator(g)
        state.complete()
        rem, cofs = state.normal_form_with_witness(p)
        acc = rem
        for c, g in zip(cofs, gens):
            acc = acc + c * g
        assert acc == p
        basis = groebner(gens).basis
        assert rem == reduce_mod(p, basis) == _reference_reduce(p, basis)
        nonmonic = [b.scale(scales[k % len(scales)]) for k, b in enumerate(basis)]
        assert reduce_mod(p, nonmonic) == rem


def _wrong_scale(monkeypatch):
    init = ideals._Row.__init__

    def init_then_double(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.scale *= 2

    monkeypatch.setattr(ideals._Row, "__init__", init_then_double)


def _wrong_multiplier(monkeypatch):
    multiplier = ideals._multiplier

    def doubled(parts):
        nums, den = multiplier(parts)
        return {m: 2 * v for m, v in nums.items()}, den

    monkeypatch.setattr(ideals, "_multiplier", doubled)


class TestRecombinationGuard:
    """The exact recombination check must catch a wrong derivation record."""

    @pytest.mark.parametrize("corrupt", [_wrong_scale, _wrong_multiplier])
    def test_member_with_witness_raises(self, xy, corrupt, monkeypatch):
        p, gens = P("x^2 + 3*x*y", xy), [P("2*x", xy)]
        assert member_with_witness(p, gens) is not None
        corrupt(monkeypatch)
        with pytest.raises(AssertionError):
            member_with_witness(p, gens)

    @pytest.mark.parametrize("corrupt", [_wrong_scale, _wrong_multiplier])
    def test_rank_raises(self, xy, swap_sys, corrupt, monkeypatch):
        # chain 3*x, 3*y; L(3*y) = 3*x reduces by the row of 3*x
        assert rank(P("3*x", xy), swap_sys).n == 2
        corrupt(monkeypatch)
        with pytest.raises(AssertionError):
            rank(P("3*x", xy), swap_sys)


class TestMultipliersOnDemand:
    """Reductions return raw steps; a multiplier is built only for a witness."""

    def test_no_multiplier_without_a_witness(self, xy, monkeypatch):
        built = []
        multiplier = ideals._multiplier
        monkeypatch.setattr(ideals, "_multiplier",
                            lambda parts: built.append(1) or multiplier(parts))
        gens = [P("x^2*y - 1", xy), P("x*y^2 - x", xy)]
        state = BuchbergerState(xy)
        for g in gens:
            state.add_generator(g)
        state.complete()
        p = P("x^3*y^2 + x*y", xy)
        rem = state.normal_form(p)
        basis = [state._poly(r.nums, r.lc) for r in state.rows]
        assert reduce_mod(p, basis) == rem
        assert built == []
        rem2, cofs = state.normal_form_with_witness(p)
        assert rem2 == rem and built
        assert sum((c * g for c, g in zip(cofs, gens)), rem) == p


class TestUnitShortcut:
    """A chain without cofactors stops reducing at the unit ideal."""

    def test_no_reduction_once_the_basis_holds_one(self, xy, monkeypatch):
        # x' = x*y - 1 with y constant: <x, x*y - 1> holds 1 = y*x - (x*y - 1),
        # so L^2 x = x*y^2 - y is a member without being reduced
        sysr = OdeSystem.from_pairs(xy, [("x", P("x*y - 1", xy))])
        p = P("x", xy)
        calls = []
        reduce_terms = ideals._reduce_terms
        monkeypatch.setattr(ideals, "_reduce_terms",
                            lambda *args: calls.append(1) or reduce_terms(*args))
        chain = differential_radical(p, sysr)
        radical_calls = len(calls)
        ranked = rank(p, sysr)
        assert chain == list(ranked.chain) == [p, P("x*y - 1", xy)]
        assert radical_calls == 2  # x and x*y - 1, none for L^2 x
        assert len(calls) - radical_calls == 3  # rank reduces L^2 x for its cofactors


def _forward_witness(state, steps):
    """Forward-mode reference for ``BuchbergerState._witness``: every row's
    {generator index: cofactor} map is built from the maps of the rows it
    was made from, first row first, and the reducers of ``steps`` are
    combined from those maps."""
    table, unpack = state.table, state.codec.unpack
    one, zero = Polynomial.one(table), Polynomial.zero(table)

    def multiplier(parts):
        return sum((one.mul_term(Fraction(num, den), unpack(m)) for m, num, den in parts),
                   zero)

    def combine(parts):
        by_gen = {}
        for h, cofs in parts:
            for j, c in cofs.items():
                by_gen.setdefault(j, []).append((h, c))
        return {j: sum_of_products(table, pairs) for j, pairs in by_gen.items()}

    def reducers(steps, factor):
        return [(multiplier(parts).scale(-factor), row_cofs[k]) for k, parts in steps.items()]

    row_cofs = []
    for row in state.rows:
        s = row.scale
        if row.origin[0] == "gen":
            parts = [(Polynomial.constant(table, s), {row.origin[1]: one})]
        else:
            _, i, mi, j, mj = row.origin
            parts = [(one.mul_term(s, unpack(mi)), row_cofs[i]),
                     (one.mul_term(-s, unpack(mj)), row_cofs[j])]
        row_cofs.append(combine(parts + reducers(row.steps, s)))
    cofs = combine(reducers(steps, -1))
    return [cofs.get(j, zero) for j in range(len(state.gens))]


class TestBackwardWitness:
    """The backward pass gives exactly the cofactors that forward
    accumulation over the same derivation records gives."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), three=st.booleans())
    def test_witnesses_equal_forward_accumulation(self, seed, three):
        rng = random.Random(seed)
        table = VarTable(["x", "y", "z"] if three else ["x", "y"])
        deg = 2 if three else 3

        def combination(gens):
            return sum_of_products(table, ((random_polynomial(rng, table, 2, 2), g)
                                           for g in gens))

        gens = [random_nonzero_polynomial(rng, table, deg, 3)
                for _ in range(rng.randint(2, 3))]
        p = combination(gens)
        witnesses = []
        backward = BuchbergerState._witness

        def compared(state, steps):
            cofs = backward(state, steps)
            witnesses.append((cofs, _forward_witness(state, steps)))
            return cofs

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(BuchbergerState, "_witness", compared)
            assert member_with_witness(p, gens) is not None
            state = BuchbergerState(table)
            for g in gens:
                state.add_generator(g)
            state.complete()
            # two witnesses from one state: a non-member's and a member's
            state.normal_form_with_witness(random_nonzero_polynomial(rng, table, deg, 4))
            assert not state.normal_form_with_witness(p)[0]
            # round 1 records two members and keeps a new generator, round 2
            # records two members of the grown ideal
            fresh = iter([[random_nonzero_polynomial(rng, table, deg, 3)]])

            def step(kept):
                return [combination(kept), *next(fresh, []), combination(kept)]

            ideals.stabilize(gens, step, 2, ideals.StepBudget())
        assert len(witnesses) >= 5
        for cofs, expected in witnesses:
            assert cofs == expected


def _plain_reduced_basis(gens):
    """Textbook Buchberger with no criterion: every S-pair is reduced (by
    ``_reference_reduce``), first made first; then the basis is made
    minimal, inter-reduced and monic.  Reduced bases are unique, so the
    engine's must equal this one."""
    def lm(b):
        return b.leading()[0]

    basis = [g.monic() for g in gens if g]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        m = mono_lcm(lm(basis[i]), lm(basis[j]))
        s = (basis[i].mul_term(1, mono_div(m, lm(basis[i])))
             - basis[j].mul_term(1, mono_div(m, lm(basis[j]))))
        rem = _reference_reduce(s, basis)
        if rem:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(rem.monic())
    minimal = []
    for b in sorted(basis, key=lambda b: grevlex_key(lm(b))):
        if not any(mono_divides(lm(k), lm(b)) for k in minimal):
            minimal.append(b)
    return tuple(_reference_reduce(b, minimal[:k] + minimal[k + 1:]).monic()
                 for k, b in enumerate(minimal))


class TestChainCriterion:
    """Pairs the chain criterion skips change neither the basis nor the
    witnesses."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), three=st.booleans())
    def test_basis_equals_plain_buchberger(self, seed, three):
        rng = random.Random(seed)
        table = VarTable(["x", "y", "z"] if three else ["x", "y"])
        gens = [random_nonzero_polynomial(rng, table, 2 if three else 3, 3)
                for _ in range(rng.randint(2, 3))]
        assert groebner(gens).basis == _plain_reduced_basis(gens)
        combine = [random_polynomial(rng, table, 2, 2) for _ in gens]
        p = sum_of_products(table, zip(combine, gens))
        w = member_with_witness(p, gens)
        assert w is not None
        assert sum_of_products(table, zip(w.cofactors, gens)) == p

    def test_fewer_reductions_than_pops(self, xy, monkeypatch):
        rng = random.Random(18)
        gens = [random_nonzero_polynomial(rng, xy, 3, 3) for _ in range(3)]
        state = BuchbergerState(xy)
        for g in gens:
            state.add_generator(g)
        reduced, popped = [], []
        reduce_terms, heappop = ideals._reduce_terms, ideals.heapq.heappop
        monkeypatch.setattr(ideals, "_reduce_terms",
                            lambda *args: reduced.append(1) or reduce_terms(*args))
        monkeypatch.setattr(ideals.heapq, "heappop",
                            lambda heap: popped.append(1) or heappop(heap))
        state.complete()
        monkeypatch.undo()
        assert len(reduced) < len(popped)
        assert state.reduced_basis().basis == _plain_reduced_basis(gens)


# (p, [x', y'], rank, rendered cofactors, whether <p, ..., L^{n-1} p> = <1>);
# the cofactors are golden output that the witness engine must reproduce
# byte for byte.
PINNED_RANKS = [
    ("-2*y^2 + 2*y", ["2*x*y", "2*y"], 2, ["-8", "6"], False),
    ("-y", ["-x + 1", "-x^2 + x - 2*y"], 3, ["-4", "-8", "-5"], False),
    ("x*y", ["-2*x*y + 2*y", "x + 1"], 4,
     ["-200*x*y^2 + 136*x^2 + 216*y^2 + 12*x - 108", "-8*y^3 - 20*y", "0", "0"], False),
    ("-2*x*y", ["1", "-x*y - 3*x"], 4, ["x^2 - 5", "-x^3 + 5*x", "-5", "0"], True),
    ("y^2", ["-x - 1", "2*x*y + 2*x"], 5,
     ["0", "-224*x^4 + 7528/27*x^3 + 232*x^2 - 8624/27*x - 5768/27",
      "120*x^3 - 592/9*x^2 - 1024/9*x - 274/9", "-544/27*x - 295/9", "-10/3"], True),
]


class TestRank:
    @pytest.mark.parametrize("p, field, n, cofactors, unit", PINNED_RANKS)
    def test_pinned_cofactors(self, xy, p, field, n, cofactors, unit):
        sysr = OdeSystem.from_pairs(xy, [("x", P(field[0], xy)), ("y", P(field[1], xy))])
        rr = rank(P(p, xy), sysr)
        assert rr.n == n
        assert [g.render() for g in rr.cofactors] == cofactors
        chain = differential_radical(P(p, xy), sysr)
        assert ([b.render() for b in groebner(chain).basis] == ["1"]) == unit

    def test_unit_disk_boundary_rank_one(self, uv, alpha_e):
        rr = rank(P("1 - u^2 - v^2", uv), alpha_e)
        assert rr.n == 1
        assert rr.cofactors[0] == P("u^2 + v^2", uv).scale(Fraction(-1, 2))

    def test_decay_rank_one(self):
        t = VarTable(["y"])
        sys = OdeSystem.from_pairs(t, [("y", P("-y", t))])
        rr = rank(P("y", t), sys)
        assert rr.n == 1 and rr.cofactors[0] == P("-1", t)

    def test_swap_rank_two(self, xy, swap_sys):
        rr = rank(P("x", xy), swap_sys)
        assert rr.n == 2
        assert rr.cofactors == (Polynomial.one(xy), Polynomial.zero(xy))
        # independent check by bounded-degree linear-algebra membership (below)
        assert not _bounded_membership(P("y", xy), [P("x", xy)], 3)
        assert _bounded_membership(P("x", xy), [P("x", xy), P("y", xy)], 3)

    def test_zero_polynomial_rank_one(self, uv, alpha_e):
        rr = rank(Polynomial.zero(uv), alpha_e)
        assert rr.n == 1 and rr.cofactors[0].is_zero()

    def test_recombination_and_minimality(self, xy):
        rng = random.Random(11)
        for _ in range(10):
            p = random_nonzero_polynomial(rng, xy, 3, 3)
            sysr = random_system(rng, xy)
            rr = rank(p, sysr, cap=20)
            chain = [p]
            for _ in range(rr.n):
                chain.append(higher_lie(chain[-1], sysr, 1))
            acc = Polynomial.zero(xy)
            for g, q in zip(rr.cofactors, chain[:rr.n]):
                acc = acc + g * q
            assert acc == chain[rr.n]
            assert rr.chain == tuple(chain[:rr.n])
            for i in range(1, rr.n):
                assert member_with_witness(chain[i], chain[:i]) is None

    def test_cap_exceeded_carries_partial_chain(self, xy, swap_sys):
        with pytest.raises(ResourceError) as info:
            rank(P("x", xy), swap_sys, cap=1)
        assert info.value.partial == [P("x", xy)]

    def test_step_budget_propagates(self, xy):
        gens_poly = P("x^3*y - 2*x*y^2 + y", xy)
        sysr = OdeSystem(xy, (0, 1), (P("x*y - 1", xy), P("x^2 + y", xy)))
        with pytest.raises(ResourceError):
            rank(gens_poly, sysr, cap=20, step_budget=5)


def _bounded_membership(p, gens, deg_bound) -> bool:
    """Brute-force linear-algebra membership oracle: look for cofactors of
    degree <= deg_bound by solving the linear system over all monomials.
    Adequate for these small fixtures; independent of Groebner machinery."""
    from odecert.invariant import _solve_exact
    monos = [m for m in itertools.product(range(deg_bound + 1), repeat=len(p.table))
             if sum(m) <= deg_bound]
    columns = []
    for g in gens:
        for m in monos:
            columns.append(g.mul_term(Fraction(1), m))
    row_monos = sorted({mm for col in columns for mm in col.terms} | set(p.terms))
    rows = [[col.terms.get(mm, Fraction(0)) for col in columns] for mm in row_monos]
    rhs = [p.terms.get(mm, Fraction(0)) for mm in row_monos]
    return _solve_exact(rows, rhs) is not None


class TestDifferentialRadical:
    def test_rank_one_collapse(self, uv, alpha_e):
        chain = differential_radical(P("1 - u^2 - v^2", uv), alpha_e)
        assert chain == [P("1 - u^2 - v^2", uv)]

    def test_swap_chain(self, xy, swap_sys):
        assert differential_radical(P("x", xy), swap_sys) == [P("x", xy), P("y", xy)]

    def test_zero_polynomial(self, uv, alpha_e):
        assert differential_radical(Polynomial.zero(uv), alpha_e) == [Polynomial.zero(uv)]

    def test_chain_stabilizes_on_random_corpus(self, xy):
        rng = random.Random(13)
        t3 = VarTable(["x", "y", "z"])
        count = 0
        for _ in range(10):
            table = rng.choice([xy, t3])
            p = random_nonzero_polynomial(rng, table, 3, 3)
            sysr = random_system(rng, table)
            rr = rank(p, sysr, cap=20)
            assert 1 <= rr.n <= 20
            count += 1
        assert count == 10


class TestChainWithoutCofactors:
    """``differential_radical`` decides memberships from the remainder
    alone, with no cofactors, and must give ``rank``'s chain and errors."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nvars=st.sampled_from([2, 3]),
           cap=st.integers(1, 6))
    def test_equals_the_rank_chain(self, seed, nvars, cap):
        rng = random.Random(seed)
        table = VarTable(["x", "y", "z"][:nvars])
        p = random_nonzero_polynomial(rng, table)
        sysr = random_system(rng, table)
        try:
            chain = differential_radical(p, sysr, cap)
        except ResourceError as exc:
            chain, error = None, exc
        if chain is None:
            with pytest.raises(ResourceError) as info:
                rank(p, sysr, cap)
            assert str(info.value) == str(error)
            assert info.value.partial == error.partial
        else:
            assert list(rank(p, sysr, cap).chain) == chain

    def test_zero_polynomial_and_bad_input(self, xy, uv, swap_sys):
        assert differential_radical(Polynomial.zero(xy), swap_sys, cap=1) == \
            list(rank(Polynomial.zero(xy), swap_sys, cap=1).chain)
        for f in (rank, differential_radical):
            with pytest.raises(InputError, match="rank cap must be >= 1"):
                f(P("x", xy), swap_sys, cap=0)
            with pytest.raises(InputError, match="different variable tables"):
                f(P("u", uv), swap_sys)


class TestReducerRows:
    def test_one_reducer_row_is_kept(self, xy):
        """A basis polynomial is packed into its reducer row once: reused,
        it gives the remainder of a fresh, uncached copy, from the row it
        kept."""
        b, p = P("x - y^2", xy), P("x*y^2 + y^3", xy)
        fresh = Polynomial.from_ints(xy, dict(b.nums), b.den)
        first = reduce_mod(p, [b])
        row = b._row
        assert reduce_mod(p, [b]) == first == reduce_mod(p, [fresh])
        assert first == P("x^2 + x*y", xy)
        assert b._row is row

    def test_basis_over_another_table_is_rejected(self, xy):
        xyz = VarTable(["x", "y", "z"])
        for p, b in ((P("x*y + z", xyz), P("y", xy)), (P("x*y", xy), P("z", xyz))):
            with pytest.raises(InputError, match="different variable tables"):
                reduce_mod(p, [b])


_FIELD_MAX = ideals._FIELD_MAX


@st.composite
def _monomials(draw, n, below=None):
    """An exponent tuple of n variables that packs: its total degree is at
    most the field cap.  With ``below``, each exponent is drawn up to
    below's."""
    exps, left = [], _FIELD_MAX
    for i in range(n):
        hi = _FIELD_MAX if below is None else below[i]
        e = draw(st.one_of(st.integers(0, min(3, hi)), st.integers(0, hi), st.just(hi)))
        e = min(e, left)
        left -= e
        exps.append(e)
    return tuple(exps)


class TestPackedMonomials:
    """The packed codec of ``ideals`` agrees with the tuple monomials of
    ``polyarith``: grevlex order, product, quotient and divisibility."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 5), data=st.data())
    def test_codec_agrees_with_tuples(self, n, data):
        codec = ideals._codec(n)
        a = data.draw(_monomials(n))
        b = data.draw(_monomials(n))
        if data.draw(st.booleans()):
            a = data.draw(_monomials(n, below=b))
        pa, pb = codec.pack(a), codec.pack(b)
        assert codec.unpack(pa) == a and codec.unpack(pb) == b
        assert (pa < pb) == (grevlex_key(a) < grevlex_key(b))
        assert (pa == pb) == (a == b)
        assert (not (pb - pa) & codec.guard) == mono_divides(a, b)
        if mono_divides(a, b):
            assert pb - pa == codec.pack(mono_div(b, a))
        product = mono_mul(a, b)
        overflow = sum(product) > _FIELD_MAX
        assert bool((pa + pb) & codec.guard) == overflow
        if overflow:
            with pytest.raises(ResourceError):
                codec.pack(product)
        else:
            assert pa + pb == codec.pack(product)
            assert codec.unpack(pa + pb) == product

    def test_pack_past_the_field_cap_raises(self):
        # the total degree is the largest field: it is what packing checks
        codec = ideals._codec(3)
        assert codec.unpack(codec.pack((0, _FIELD_MAX, 0))) == (0, _FIELD_MAX, 0)
        for m in ((0, _FIELD_MAX + 1, 0), (1, _FIELD_MAX - 1, 1)):
            with pytest.raises(ResourceError):
                codec.pack(m)
        table = VarTable(["x", "y", "z"])
        with pytest.raises(ResourceError):
            groebner([Polynomial(table, {(1, _FIELD_MAX - 1, 1): 1})])

    def test_witness_sum_past_the_field_cap_raises(self):
        # the backward pass sums products of packed maps: y^(2^30) * y^(2^30 - 1)
        # reaches the cap, y^(2^30) * y^(2^30) passes it
        codec = ideals._codec(2)
        y, half = codec.pack((0, 1)), codec.pack((0, 2**30))
        assert (ideals._ip_sum([(({half: 1}, 1), ({half - y: 3}, 2))], codec.guard)
                == ({codec.pack((0, _FIELD_MAX)): 3}, 2))
        with pytest.raises(ResourceError):
            ideals._ip_sum([(({half: 1}, 1), ({half: 3}, 2))], codec.guard)

    @pytest.mark.parametrize("k, raises", [(2**30 - 1, False), (2**30, True)])
    def test_s_polynomial_past_the_field_cap_raises(self, k, raises):
        # g1 = x^k*(x - z) and g2 = y^k*(x - z) have lm x^(k+1) and x*y^k,
        # whose lcm x^(k+1)*y^k has total degree 2k + 1: the field cap when
        # k = 2^30 - 1, and one past it, caught as the lcm is packed, when
        # k = 2^30.  At the cap the S-polynomial's tails reach it in z's
        # field and in the sums, and p = y^k*g1 + z^k*g2 is reduced at the
        # cap by both rows in turn, with no field wrapped.
        t = VarTable(["x", "y", "z"])
        g1 = Polynomial(t, {(k + 1, 0, 0): 1, (k, 0, 1): -1})
        g2 = Polynomial(t, {(1, k, 0): 1, (0, k, 1): -1})
        p = Polynomial(t, {(k + 1, k, 0): 1, (k, k, 1): -1, (1, k, k): 1, (0, k, k + 1): -1})
        other = p + Polynomial(t, {(0, 0, 2 * k + 1): 1})
        if raises:
            with pytest.raises(ResourceError):
                groebner([g1, g2])
            return
        assert groebner([g1, g2]).basis == tuple_engine.groebner([g1, g2]).basis == (g2, g1)
        w = member_with_witness(p, [g1, g2])
        assert w == tuple_engine.member_with_witness(p, [g1, g2])
        assert w.cofactors == (Polynomial(t, {(0, k, 0): 1}), Polynomial(t, {(0, 0, k): 1}))
        assert member_with_witness(other, [g1, g2]) is None
        assert (reduce_mod(other, [g1, g2]) == tuple_engine.reduce_mod(other, [g1, g2])
                == Polynomial(t, {(0, 0, 2 * k + 1): 1}))

    @pytest.mark.parametrize("k, raises", [(2**30 - 1, False), (2**30, True)])
    def test_grevlex_lcm_past_the_field_cap_raises(self, xy, k, raises):
        # lcm(x^k*y, x*y^k) = x^k*y^k has total degree 2k
        gens = [Polynomial(xy, {(k, 1): 1}), Polynomial(xy, {(1, k): 1})]
        if raises:
            with pytest.raises(ResourceError):
                groebner(gens)
        else:
            assert groebner(gens).basis == tuple_engine.groebner(gens).basis


def _outcome(f, *args, **kwargs):
    """f's result, or the type and message of the error it raised."""
    try:
        return f(*args, **kwargs)
    except (ResourceError, AssertionError) as exc:
        return type(exc), str(exc)


class TestAgainstTupleEngine:
    """The packed engine gives exactly the results of the tuple engine it
    replaced (``tuple_engine``, kept as a reference): bases, remainders,
    cofactors and ranks."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32), nvars=st.integers(1, 3))
    def test_identical_results(self, seed, nvars):
        rng = random.Random(seed)
        table = VarTable(["x", "y", "z"][:nvars])
        deg = 3 if nvars < 3 else 2
        gens = [random_nonzero_polynomial(rng, table, deg, 3)
                for _ in range(rng.randint(1, 3))]
        member = sum_of_products(table, ((random_polynomial(rng, table, 2, 2), g)
                                         for g in gens))
        other = random_nonzero_polynomial(rng, table, deg, 4)
        assert (_outcome(groebner, gens)
                == _outcome(tuple_engine.groebner, gens))
        for p in (member, other):
            assert (_outcome(member_with_witness, p, gens)
                    == _outcome(tuple_engine.member_with_witness, p, gens))
        states = [BuchbergerState(table), tuple_engine.BuchbergerState(table)]
        for state in states:
            for g in gens:
                state.add_generator(g)
            state.complete()
        for p in (member, other):
            packed, tuples = (state.normal_form_with_witness(p) for state in states)
            assert packed == tuples
        sysr = random_system(rng, table, 2)
        for p in (gens[0], other):
            assert (_outcome(rank, p, sysr, cap=6)
                    == _outcome(tuple_engine.rank, p, sysr, cap=6))
