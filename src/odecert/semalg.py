"""First-order real-arithmetic formulas, semialgebraic normal forms, and
progress-formula construction.

Atoms always compare a polynomial against 0.  A :class:`NormalForm` denotes
a disjunction of conjunctions of non-strict (>= 0) and strict (> 0) atoms;
an empty disjunct list is false, a disjunct with empty atom lists is true.

A progress formula P^(*) holds at a state x exactly when the solution
through x satisfies P on some open interval (0, eps) of future times.
Solutions of polynomial ODEs are analytic, so every atom has a constant sign
on some such interval; "P holds on (0, eps)" is therefore a Boolean
homomorphism: (P & R)^(*) = P^(*) & R^(*), (P | R)^(*) = P^(*) | R^(*) and
(!P)^(*) = !(P^(*)).  The progress formula of the complement of P is thus
the negation of P's progress formula, with no normal form of the complement
needed.  For one atom, !progress_gt(p) is progress_geq(-p), because the rank
chain of -p is minus the chain of p.  Progress into the past is progress
over the reversed system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InputError, ResourceError
from .ideals import DEFAULT_RANK_CAP, differential_radical
from .odecore import OdeSystem
from .polyarith import Polynomial, ScaledPoint, VarTable

DEFAULT_DISJUNCT_LIMIT = 4096
DISJUNCT_WARN_AT = 256

ATOM_OPS = ("=", "!=", ">=", ">", "<=", "<")
_NEGATED = {"=": "!=", "!=": "=", ">=": "<", "<": ">=", ">": "<=", "<=": ">"}


# ---------------------------------------------------------------------------
# formula AST

@dataclass(frozen=True)
class TrueF:
    def __repr__(self):
        return "true"


@dataclass(frozen=True)
class FalseF:
    def __repr__(self):
        return "false"


@dataclass(frozen=True)
class Atom:
    op: str
    poly: Polynomial

    def __post_init__(self):
        if self.op not in ATOM_OPS:
            raise InputError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Or:
    args: tuple


@dataclass(frozen=True)
class Implies:
    hyp: "Formula"
    concl: "Formula"


@dataclass(frozen=True)
class Forall:
    vars: tuple[str, ...]
    body: "Formula"


Formula = object  # union of the classes above

TRUE = TrueF()
FALSE = FalseF()


def make_and(args: Iterable[Formula]) -> Formula:
    out = []
    for a in args:
        if isinstance(a, TrueF):
            continue
        if isinstance(a, FalseF):
            return FALSE
        out.append(a)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return And(tuple(out))


def make_or(args: Iterable[Formula]) -> Formula:
    out = []
    for a in args:
        if isinstance(a, FalseF):
            continue
        if isinstance(a, TrueF):
            return TRUE
        out.append(a)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Or(tuple(out))


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (TrueF, FalseF, Atom)):
        return True
    if isinstance(f, Not):
        return is_quantifier_free(f.arg)
    if isinstance(f, (And, Or)):
        return all(is_quantifier_free(a) for a in f.args)
    if isinstance(f, Implies):
        return is_quantifier_free(f.hyp) and is_quantifier_free(f.concl)
    return False


def formula_atoms(f: Formula) -> list[Atom]:
    out: list[Atom] = []

    def walk(g):
        if isinstance(g, Atom):
            out.append(g)
        elif isinstance(g, Not):
            walk(g.arg)
        elif isinstance(g, (And, Or)):
            for a in g.args:
                walk(a)
        elif isinstance(g, Implies):
            walk(g.hyp)
            walk(g.concl)
        elif isinstance(g, Forall):
            walk(g.body)

    walk(f)
    return out


def _atom_truth(op: str, value) -> bool:
    """Truth of ``value op 0``; ``value`` may be any number with the sign of
    the atom's polynomial."""
    if op == "=":
        return value == 0
    if op == "!=":
        return value != 0
    if op == ">=":
        return value >= 0
    if op == ">":
        return value > 0
    if op == "<=":
        return value <= 0
    return value < 0


class PointEvaluator:
    """Evaluates formulas at one rational point, given as a sequence of
    rationals or as a :class:`~odecert.polyarith.ScaledPoint` (integer
    numerators over a common denominator, as sampling draws them).

    Only signs are computed: each atom's polynomial gives
    :meth:`~odecert.polyarith.Polynomial.scaled_value`, an integer with the
    polynomial's sign, from its cached evaluation table and the point's
    shared power tables.  The
    integers are memoized by polynomial identity, since progress formulas
    reuse the same Lie derivatives a lot.
    """

    __slots__ = ("point", "_cache")

    def __init__(self, point):
        self.point = ScaledPoint.of(point)
        self._cache: dict[int, int] = {}

    def sign_value(self, p: Polynomial) -> int:
        """An integer with the sign of p at the point."""
        key = id(p)
        v = self._cache.get(key)
        if v is None:
            v = p.scaled_value(self.point)
            self._cache[key] = v
        return v

    def __call__(self, f: Formula) -> bool:
        return self._truth(f)

    def _truth(self, f: Formula) -> bool:
        t = type(f)
        if t is Atom:
            return _atom_truth(f.op, self.sign_value(f.poly))
        if t is And:
            for a in f.args:
                if not self._truth(a):
                    return False
            return True
        if t is Or:
            for a in f.args:
                if self._truth(a):
                    return True
            return False
        if t is Implies:
            return not self._truth(f.hyp) or self._truth(f.concl)
        if t is Not:
            return not self._truth(f.arg)
        if t is TrueF:
            return True
        if t is FalseF:
            return False
        raise InputError("cannot evaluate a quantified formula at a point")


def eval_formula(f: Formula, point) -> bool:
    return PointEvaluator(point)(f)


def fold_constants(f: Formula) -> Formula:
    """Decide atoms whose polynomial is a rational constant; simplify
    connectives over the resulting true/false leaves."""
    if isinstance(f, Atom):
        if f.poly.is_constant():
            return TRUE if _atom_truth(f.op, f.poly.constant_value()) else FALSE
        return f
    if isinstance(f, Not):
        a = fold_constants(f.arg)
        if isinstance(a, TrueF):
            return FALSE
        if isinstance(a, FalseF):
            return TRUE
        return Not(a)
    if isinstance(f, And):
        return make_and([fold_constants(a) for a in f.args])
    if isinstance(f, Or):
        return make_or([fold_constants(a) for a in f.args])
    if isinstance(f, Implies):
        h = fold_constants(f.hyp)
        c = fold_constants(f.concl)
        if isinstance(h, FalseF) or isinstance(c, TrueF):
            return TRUE
        if isinstance(h, TrueF):
            return c
        if isinstance(c, FalseF):
            return Not(h)
        return Implies(h, c)
    return f


def render_formula(f: Formula) -> str:
    """Infix rendering in the input syntax (round-trips through the parser)."""

    def prec(g) -> int:
        if isinstance(g, Implies):
            return 0
        if isinstance(g, Or):
            return 1
        if isinstance(g, And):
            return 2
        if isinstance(g, Not):
            return 3
        return 4

    def wrap(g, level: int) -> str:
        s = go(g)
        return f"({s})" if prec(g) < level else s

    def go(g) -> str:
        if isinstance(g, TrueF):
            return "true"
        if isinstance(g, FalseF):
            return "false"
        if isinstance(g, Atom):
            return f"{g.poly.render()} {g.op} 0"
        if isinstance(g, Not):
            return f"!({go(g.arg)})"
        if isinstance(g, And):
            return " & ".join(wrap(a, 3) for a in g.args)
        if isinstance(g, Or):
            return " | ".join(wrap(a, 2) for a in g.args)
        if isinstance(g, Implies):
            return f"{wrap(g.hyp, 1)} -> {wrap(g.concl, 1)}"
        if isinstance(g, Forall):
            raise InputError("quantified formulas have no surface syntax")
        raise InputError(f"cannot render {type(g).__name__}")

    return go(f)


# ---------------------------------------------------------------------------
# normal forms

@dataclass(frozen=True)
class Conjunct:
    geqs: tuple[Polynomial, ...]
    gts: tuple[Polynomial, ...]


@dataclass(frozen=True)
class NormalForm:
    disjuncts: tuple[Conjunct, ...]

    @classmethod
    def true(cls) -> "NormalForm":
        return cls((Conjunct((), ()),))

    @classmethod
    def false(cls) -> "NormalForm":
        return cls(())

    def is_false(self) -> bool:
        return not self.disjuncts

    def to_formula(self) -> Formula:
        return make_or([
            make_and([Atom(">=", p) for p in c.geqs] + [Atom(">", q) for q in c.gts])
            for c in self.disjuncts
        ])

    def evaluate(self, point) -> bool:
        ev = PointEvaluator(point)
        for c in self.disjuncts:
            if all(ev.sign_value(p) >= 0 for p in c.geqs) and \
               all(ev.sign_value(q) > 0 for q in c.gts):
                return True
        return False

    def all_strict(self) -> bool:
        """Every atom strict: the denoted set is open."""
        return all(not c.geqs for c in self.disjuncts)

    def all_nonstrict(self) -> bool:
        """Every atom non-strict: the denoted set is closed."""
        return all(not c.gts for c in self.disjuncts)


def _build_conjunct(geqs: Iterable[Polynomial], gts: Iterable[Polynomial]) -> Optional[Conjunct]:
    """Constant-fold and deduplicate; None when the conjunct is unsatisfiable
    by constant folding alone."""
    out_geqs: dict[Polynomial, None] = {}
    out_gts: dict[Polynomial, None] = {}
    for p in geqs:
        if p.is_constant():
            if p.constant_value() < 0:
                return None
            continue
        out_geqs.setdefault(p)
    for q in gts:
        if q.is_constant():
            if q.constant_value() <= 0:
                return None
            continue
        out_gts.setdefault(q)
    return Conjunct(tuple(out_geqs), tuple(out_gts))


def _check_disjunct_count(n: int, limit: int) -> None:
    if n > limit:
        raise ResourceError(f"normal form exceeds the disjunct limit ({n} > {limit})")
    if n > DISJUNCT_WARN_AT:
        warnings.warn(f"normal form has {n} disjuncts; expect slow downstream steps",
                      RuntimeWarning, stacklevel=3)


def to_normal_form(phi: Formula, limit: int = DEFAULT_DISJUNCT_LIMIT) -> NormalForm:
    """Equivalent NormalForm of a quantifier-free formula.

    Route: negation normal form, atom rewriting into >= / > atoms
    (p=0 into p>=0 and -p>=0, p!=0 into p>0 or -p>0, sign flips for <= and <),
    distribution to DNF, duplicate-atom pruning per conjunct.
    """
    if not is_quantifier_free(phi):
        raise InputError("quantified input is unsupported here; "
                         "quantified goals go to SMT export only")

    def dnf(f, neg: bool) -> list[Conjunct]:
        if isinstance(f, TrueF):
            f = FALSE if neg else TRUE
        elif isinstance(f, FalseF):
            f = TRUE if neg else FALSE
        if isinstance(f, TrueF):
            return [Conjunct((), ())]
        if isinstance(f, FalseF):
            return []
        if isinstance(f, Not):
            return dnf(f.arg, not neg)
        if isinstance(f, Implies):
            return dnf(Or((Not(f.hyp), f.concl)), neg)
        if isinstance(f, And) or isinstance(f, Or):
            conjunctive = isinstance(f, And) != neg  # And stays And unless negated
            branches = [dnf(a, neg) for a in f.args]
            if conjunctive:
                # the cells of a DNF hold no constant atoms, so no merged
                # cell folds away: the product has exactly this many cells
                acc = [Conjunct((), ())]
                for branch in branches:
                    _check_disjunct_count(len(acc) * len(branch), limit)
                    acc = [_build_conjunct(left.geqs + right.geqs, left.gts + right.gts)
                           for left in acc for right in branch]
                return acc
            out: list[Conjunct] = []
            for branch in branches:
                out.extend(branch)
            _check_disjunct_count(len(out), limit)
            return out
        if isinstance(f, Atom):
            op = _NEGATED[f.op] if neg else f.op
            p = f.poly
            if op == "=":
                cell = _build_conjunct([p, -p], [])
                return [cell] if cell is not None else []
            if op == "!=":
                cells = [_build_conjunct([], [p]), _build_conjunct([], [-p])]
                return [c for c in cells if c is not None]
            if op == ">=":
                cell = _build_conjunct([p], [])
            elif op == "<=":
                cell = _build_conjunct([-p], [])
            elif op == ">":
                cell = _build_conjunct([], [p])
            else:  # "<"
                cell = _build_conjunct([], [-p])
            return [cell] if cell is not None else []
        raise InputError(f"cannot normalize {type(f).__name__}")

    return NormalForm(tuple(dnf(phi, False)))


def negate_normal_form(P: NormalForm, limit: int = DEFAULT_DISJUNCT_LIMIT) -> NormalForm:
    """Normal form of the complement of P: ``to_normal_form`` of !P.  Nothing
    in the package needs it (progress formulas negate without it); it keeps
    the public name that ``bench/tracing.py`` traces."""
    return to_normal_form(Not(P.to_formula()), limit)


def pair_equalities(geqs: Sequence[Polynomial]) -> tuple[list[Polynomial], list[Polynomial]]:
    """Split non-strict atoms into (equalities, unpaired): p>=0 met together
    with -p>=0 is the equality p=0, listed once as the first of the pair met;
    every other p>=0 is unpaired.  Both lists keep the order of ``geqs``."""
    available = set(geqs)
    used: set[Polynomial] = set()
    eqs: list[Polynomial] = []
    unpaired: list[Polynomial] = []
    for p in geqs:
        if p in used:
            continue
        used.add(p)
        neg = -p
        if neg in available:
            used.add(neg)
            eqs.append(p)
        else:
            unpaired.append(p)
    return eqs, unpaired


def algebraic_combine(P: NormalForm, table: Optional[VarTable] = None) -> Polynomial:
    """Single polynomial e with P equivalent to e = 0 over the reals.

    Requires an algebraic P: no strict atoms, and the non-strict atoms of
    every conjunct pair up as p>=0, -p>=0 (i.e. equalities).  Conjunctions
    combine as sums of squares, disjunctions as products.  ``table`` is only
    needed when P has no atoms at all (constant true/false).
    """
    for c in P.disjuncts:
        for p in c.geqs + c.gts:
            table = p.table
            break
        if table is not None:
            break
    if table is None:
        raise InputError("cannot combine a constant normal form without a "
                         "variable table")

    factors: list[Polynomial] = []
    for c in P.disjuncts:
        if c.gts:
            raise InputError("normal form is not algebraic: strict atom present")
        eqs, unpaired = pair_equalities(c.geqs)
        if unpaired:
            raise InputError("normal form is not algebraic: unpaired "
                             f"inequality {unpaired[0].render()} >= 0")
        reps = [p for p in eqs if not p.is_zero()]
        if not reps:
            e = Polynomial.zero(table)
        elif len(reps) == 1:
            e = reps[0]
        else:
            e = Polynomial.zero(table)
            for r in reps:
                e = e + r * r
        factors.append(e)
    if not factors:
        return Polynomial.one(table)
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


# ---------------------------------------------------------------------------
# progress formulas

_ChainCache = dict[Polynomial, list[Polynomial]]


def _chain(p: Polynomial, sys: OdeSystem, cap: int,
           cache: Optional[_ChainCache]) -> list[Polynomial]:
    if cache is not None and p in cache:
        return cache[p]
    chain = differential_radical(p, sys, cap=cap)
    if cache is not None:
        cache[p] = chain
    return chain


def _gt_from_chain(chain: list[Polynomial]) -> Formula:
    n = len(chain)
    conjuncts: list[Formula] = []
    for k in range(n):
        concl = Atom(">" if k == n - 1 else ">=", chain[k])
        if k == 0:
            conjuncts.append(concl)
        else:
            hyp = make_and([Atom("=", chain[i]) for i in range(k)])
            conjuncts.append(Implies(hyp, concl))
    return make_and(conjuncts)


def radical_of_chain(chain: Sequence[Polynomial]) -> Formula:
    """The differential radical formula from a rank chain: every q = 0."""
    return make_and([Atom("=", q) for q in chain])


def radical_formula(p: Polynomial, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP,
                    _cache: Optional[_ChainCache] = None) -> Formula:
    """Conjunction of L^i p = 0 for i below the rank of p."""
    return radical_of_chain(_chain(p, sys, cap, _cache))


def progress_gt(p: Polynomial, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP,
                _cache: Optional[_ChainCache] = None) -> Formula:
    """First-significant-derivative condition for immediately entering p > 0.

    With N the rank of p:
    p>=0 and (p=0 -> Lp>=0) and ... and (p=0 and ... and L^{N-2}p=0 -> L^{N-1}p>0);
    collapses to p > 0 when N = 1.
    """
    return _gt_from_chain(_chain(p, sys, cap, _cache))


def progress_geq(p: Polynomial, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP,
                 _cache: Optional[_ChainCache] = None) -> Formula:
    """Progress into p >= 0: progress_gt(p) or the differential radical of p."""
    chain = _chain(p, sys, cap, _cache)
    return make_or([_gt_from_chain(chain), radical_of_chain(chain)])


def semialg_progress(P: NormalForm, sys: OdeSystem, cap: int = DEFAULT_RANK_CAP,
                     _cache: Optional[_ChainCache] = None) -> Formula:
    """Disjunction over P's disjuncts of the conjunction of atom progress
    formulas (progress_geq for >= atoms, progress_gt for > atoms).

    Progress into the past is this function over reverse(sys); progress into
    the complement of P is its negation (see the module docstring)."""
    cache = {} if _cache is None else _cache
    disjuncts: list[Formula] = []
    for c in P.disjuncts:
        parts = [progress_geq(p, sys, cap=cap, _cache=cache) for p in c.geqs]
        parts += [progress_gt(q, sys, cap=cap, _cache=cache) for q in c.gts]
        disjuncts.append(make_and(parts))
    return make_or(disjuncts)
