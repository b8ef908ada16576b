"""First-order real-arithmetic formulas, semialgebraic normal forms, and
progress-formula construction.

Atoms always compare a polynomial against 0.  A :class:`NormalForm` denotes
a disjunction of conjunctions of non-strict (>= 0) and strict (> 0) atoms;
an empty disjunct list is false, a disjunct with empty atom lists is true.

:func:`nnf_fold` is the one walk of a quantifier-free formula through its
negation normal form over the literals p >= 0 and p > 0.
:func:`to_normal_form` folds it into DNF cells and is the only place the
disjunct limit applies: to hypothesis normal forms and to the normal forms
of user-written formulas.  The identity and ideal tiers of discharge fold
the same walk into booleans, so a side condition's conclusion is never
expanded into cells.

:class:`PointEvaluator` is the one evaluator of a formula at a rational
point: sampling, the solver's model check, :func:`eval_formula` and
:meth:`NormalForm.evaluate` all use it.  It compiles a formula, on its
first evaluation, into closures cached on the formula object, whose atoms
share one integer sign value per polynomial object at each point.

A progress formula P^(*) holds at a state x exactly when the solution
through x satisfies P on some open interval (0, eps) of future times.
Solutions of polynomial ODEs are analytic, so every atom has a constant sign
on some such interval; "P holds on (0, eps)" is therefore a Boolean
homomorphism: (P & R)^(*) = P^(*) & R^(*), (P | R)^(*) = P^(*) | R^(*) and
(!P)^(*) = !(P^(*)).  The progress formula of the complement of P is thus
the negation of P's progress formula, with no normal form of the complement
needed.  For one atom, !progress_gt(p) is progress_geq(-p), because the rank
chain of -p is minus the chain of p.  Progress into the past is progress
over the reversed system: the same chains with every odd entry negated.
The builders take rank chains computed by the caller; this module ranks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar

from .errors import InputError, ResourceError
from .polyarith import Polynomial, ScaledPoint, VarTable, sum_of_squares

DEFAULT_DISJUNCT_LIMIT = 4096

ATOM_OPS = ("=", "!=", ">=", ">", "<=", "<")
_NEGATED = {"=": "!=", "!=": "=", ">=": "<", "<": ">=", ">": "<=", "<=": ">"}

T = TypeVar("T")


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


# an atom's truth by the sign of its polynomial's value, indexed by sign
_BY_SIGN = {op: tuple(_atom_truth(op, s) for s in (0, 1, -1)) for op in ATOM_OPS}


class PointEvaluator:
    """Evaluates formulas at one rational point, given as a sequence of
    rationals or as a :class:`~odecert.polyarith.ScaledPoint` (integer
    numerators over a common denominator, as sampling draws them).

    Only signs are computed.  A formula is compiled on its first evaluation
    into closures, and the program is cached on the formula object.
    Compiling pushes negations onto the atoms (an atom's truth table is its
    negated comparison's), makes h -> c the Or of !h and c, and splices a
    junction into a parent of its own kind: every closure but a constant's
    is an And or an Or that tests its atom operands inline, in order, and
    calls only the others.  Operands keep the order of the formula's tree,
    so the same atoms are evaluated as by a walk of it.  Each polynomial
    object of the formula gets a slot in a list made fresh for every
    evaluation; an atom fills its slot on first need
    with :meth:`~odecert.polyarith.Polynomial.scaled_value`, an integer with
    the polynomial's sign, and atoms sharing the polynomial read it from
    there.  Progress formulas share their Lie derivatives as objects, so
    evaluate ``Implies(h, c)`` once, rather than h and c apart, for h and c
    to share their values.  Slots are keyed by identity, not equality:
    hashing fresh polynomials doubles the cost of compiling, and on the
    sampling conditions of the benchmark it merges no further values.
    """

    __slots__ = ("point",)

    def __init__(self, point):
        self.point = ScaledPoint.of(point)

    def __call__(self, f: Formula) -> bool:
        try:
            run, size = f._program
        except AttributeError:
            run, size = _compile(f)
        return run(self.point, [None] * size)


def _compile(f: Formula) -> tuple[Callable, int]:
    """(run, slot count) for formula f, cached on f as ``_program``;
    run(point, slots) is f's truth at the point.  A quantifier anywhere in f
    raises InputError, and nothing is cached."""
    slots: dict[int, int] = {}

    def atom(g: Atom, neg: bool) -> tuple:
        return (slots.setdefault(id(g.poly), len(slots)), g.poly.scaled_value,
                _BY_SIGN[_NEGATED[g.op] if neg else g.op])

    def go(g: Formula, neg: bool) -> tuple[Optional[bool], list]:
        """(decides, operands) of g, negated when ``neg``: the junction that
        g is, decides False for an And and True for an Or, with nested
        junctions of its kind spliced into its operands; or decides None
        and g as its one operand.  An operand is an atom's (slot, value,
        by_sign) or any other's (None, closure, None)."""
        t = type(g)
        while t is Not:
            g, neg = g.arg, not neg
            t = type(g)
        if t is Atom:
            return None, [atom(g, neg)]
        if t is TrueF or t is FalseF:
            return None, [(None, _constant((t is TrueF) != neg), None)]
        if t is And or t is Or:
            decides, args = (t is Or) != neg, [(a, neg) for a in g.args]
        elif t is Implies:  # h -> c is !h | c, and its negation h & !c
            decides, args = not neg, [(g.hyp, not neg), (g.concl, neg)]
        else:
            raise InputError("cannot evaluate a quantified formula at a point")
        operands = []
        for a, a_neg in args:
            if type(a) is Atom:
                operands.append(atom(a, a_neg))
                continue
            kind, parts = go(a, a_neg)
            if kind is None or kind is decides:
                operands += parts
            else:
                operands.append((None, _junction(parts, kind), None))
        return decides, operands

    decides, operands = go(f, False)
    program = (_junction(operands, decides is True), len(slots))  # a lone operand: an And of it
    object.__setattr__(f, "_program", program)
    return program


# The closures of _compile, one factory per kind of closure: a closure made
# inside ``go`` would give every call of ``go`` the cells of every kind.

def _junction(parts: list, decides: bool) -> Callable:
    """And when ``decides`` is False, Or when True: the first operand with
    that value decides.  An atom operand is its test's (slot, value,
    by_sign), run inline; any other is (None, its closure, None)."""
    def junction(pt, vals):
        for k, run, by_sign in parts:
            if by_sign is None:
                truth = run(pt, vals)
            else:
                v = vals[k]
                if v is None:
                    v = vals[k] = run(pt)
                truth = by_sign[(v > 0) - (v < 0)]
            if truth is decides:
                return decides
        return not decides
    return junction


def _constant(truth: bool) -> Callable:
    return lambda pt, vals: truth


def eval_formula(f: Formula, point) -> bool:
    return PointEvaluator(point)(f)


def nnf_fold(f: Formula, literal: Callable[[Polynomial, bool], T],
             conj: Callable[[Iterable[T]], T], disj: Callable[[Iterable[T]], T],
             neg: bool = False) -> T:
    """Fold the negation normal form of a quantifier-free formula (of its
    negation when ``neg``) over the literals p >= 0 and p > 0.

    ``literal(p, strict)`` is the value of p > 0 when strict and of p >= 0
    otherwise; ``conj`` and ``disj`` combine a lazy iterable of their
    operands' values, so ``all`` and ``any`` stop at the first operand that
    decides them.  Negations are pushed onto the atoms, h -> c is !h | c,
    true is conj of nothing and false is disj of nothing; p = 0 is
    p >= 0 & -p >= 0, p != 0 is p > 0 | -p > 0, and <= and < flip the sign
    of p; -p is built once per polynomial object of f, so the literals of
    one fold share it.  A quantifier raises InputError."""
    negated: dict[int, Polynomial] = {}  # id(p) -> -p; f keeps every p alive

    def minus(p: Polynomial) -> Polynomial:
        q = negated.get(id(p))
        if q is None:
            q = negated[id(p)] = -p
        return q

    def go(g: Formula, neg: bool) -> T:
        t = type(g)
        if t is Atom:
            op = _NEGATED[g.op] if neg else g.op
            p = g.poly
            if op == "=" or op == "!=":
                strict = op == "!="
                parts = (literal(q, strict) for q in (p, minus(p)))
                return disj(parts) if strict else conj(parts)
            if op == ">=" or op == ">":
                return literal(p, op == ">")
            return literal(minus(p), op == "<")
        if t is Not:
            return go(g.arg, not neg)
        if t is And or t is Or:
            parts = (go(a, neg) for a in g.args)
            return conj(parts) if (t is And) != neg else disj(parts)
        if t is Implies:
            parts = (go(h, n) for h, n in ((g.hyp, not neg), (g.concl, neg)))
            return conj(parts) if neg else disj(parts)
        if t is TrueF or t is FalseF:
            return conj(()) if (t is TrueF) != neg else disj(())
        raise InputError("quantified input is unsupported here; "
                         "quantified goals go to SMT export only")

    return go(f, neg)


# binding strength of each connective in rendered text; anything else is 4
_PRECEDENCE = {Implies: 0, Or: 1, And: 2, Not: 3}


def render_formula(f: Formula) -> str:
    """Infix rendering in the input syntax (round-trips through the parser),
    kept on f as ``_program`` is: reports and certificates share formulas."""
    try:
        return f._text
    except AttributeError:
        pass

    def wrap(g, level: int) -> str:
        s = go(g)
        return f"({s})" if _PRECEDENCE.get(type(g), 4) < level else s

    def go(g) -> str:
        t = type(g)
        if t is Atom:
            return f"{g.poly.render()} {g.op} 0"
        if t is And:
            return " & ".join([wrap(a, 3) for a in g.args])
        if t is Or:
            return " | ".join([wrap(a, 2) for a in g.args])
        if t is Implies:
            return f"{wrap(g.hyp, 1)} -> {wrap(g.concl, 1)}"
        if t is Not:
            return f"!({go(g.arg)})"
        if t is TrueF:
            return "true"
        if t is FalseF:
            return "false"
        if t is Forall:
            raise InputError("quantified formulas have no surface syntax")
        raise InputError(f"cannot render {t.__name__}")

    text = go(f)
    object.__setattr__(f, "_text", text)
    return text


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
        return PointEvaluator(point)(self.to_formula())

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


Cell = tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]]  # (geqs, gts)


def _merged(a: tuple, b: tuple) -> tuple:
    """a + b with repeats dropped, first occurrence kept; neither holds a
    repeat, so with one of them empty the other is the answer."""
    return tuple(dict.fromkeys(a + b)) if a and b else a or b


def to_normal_form(phi: Formula, limit: int = DEFAULT_DISJUNCT_LIMIT) -> NormalForm:
    """Equivalent NormalForm of a quantifier-free formula: the ``nnf_fold``
    of phi into lists of cells, one cell per literal, the cell product for
    a conjunction and concatenation for a disjunction.  Constants fold
    once, where a literal is made: a literal cell holds no constant atom,
    so no cell built from them does, and a product merges two cells by
    deduplicating their atoms alone, first occurrence kept.  A cell is a
    (geqs, gts) pair until the last, and becomes a Conjunct there.  The
    limit is checked before any cell of a product is built."""

    def literal(p: Polynomial, strict: bool) -> list[Cell]:
        cell = _build_conjunct((), (p,)) if strict else _build_conjunct((p,), ())
        return [(cell.geqs, cell.gts)] if cell is not None else []

    def product(branches: Iterable[list[Cell]]) -> list[Cell]:
        # no merged cell folds away, so the prefix products of the branch
        # sizes are the sizes of the partial products, all checked before
        # the first is built
        branches = list(branches)
        size = 1
        for branch in branches:
            size *= len(branch)
            _check_disjunct_count(size, limit)
        if not branches:
            return [((), ())]
        acc = branches[0]
        for branch in branches[1:]:
            acc = [(_merged(lg, rg), _merged(lt, rt))
                   for lg, lt in acc for rg, rt in branch]
        return acc

    def union(branches: Iterable[list[Cell]]) -> list[Cell]:
        out = [cell for branch in branches for cell in branch]
        _check_disjunct_count(len(out), limit)
        return out

    return NormalForm(tuple(Conjunct(geqs, gts)
                            for geqs, gts in nnf_fold(phi, literal, product, union)))


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
        factors.append(sum_of_squares(table, eqs))
    if not factors:
        return Polynomial.one(table)
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


# ---------------------------------------------------------------------------
# progress formulas, read off rank chains p, Lp, ..., L^{N-1}p

def atoms(P: NormalForm) -> list[Polynomial]:
    """P's distinct atom polynomials, in the order ``semialg_progress``
    meets them: disjunct by disjunct, the >= atoms before the > atoms."""
    return list(dict.fromkeys(p for c in P.disjuncts for p in c.geqs + c.gts))


def reverse_chain(chain: Sequence[Polynomial]) -> list[Polynomial]:
    """p's rank chain over the reversed system, from its forward one: since
    L_{-f} q = -L_f q, every odd entry negated, and the rank is the same."""
    return [-q if k % 2 else q for k, q in enumerate(chain)]


def radical_of_chain(chain: Sequence[Polynomial]) -> Formula:
    """The differential radical formula from a rank chain: every q = 0."""
    return make_and([Atom("=", q) for q in chain])


def progress_gt(chain: Sequence[Polynomial]) -> Formula:
    """First-significant-derivative condition for immediately entering
    p > 0, from p's rank chain p, Lp, ..., L^{N-1}p:
    p>=0 and (p=0 -> Lp>=0) and ... and (p=0 and ... and L^{N-2}p=0 -> L^{N-1}p>0);
    collapses to p > 0 when N = 1.
    """
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


def progress_geq(chain: Sequence[Polynomial]) -> Formula:
    """Progress into p >= 0: progress_gt or the differential radical of p."""
    return make_or([progress_gt(chain), radical_of_chain(chain)])


def semialg_progress(P: NormalForm, chains: Mapping[Polynomial, Sequence[Polynomial]]) -> Formula:
    """Disjunction over P's disjuncts of the conjunction of atom progress
    formulas (progress_geq for >= atoms, progress_gt for > atoms); ``chains``
    maps each of P's ``atoms`` to its rank chain.

    Progress into the past is this function over the ``reverse_chain``s;
    progress into the complement of P is its negation (see the module
    docstring)."""
    return make_or([make_and([progress_geq(chains[p]) for p in c.geqs]
                             + [progress_gt(chains[q]) for q in c.gts])
                    for c in P.disjuncts])
