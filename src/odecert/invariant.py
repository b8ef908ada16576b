"""Invariance deciders, tiered side-condition discharge, and certificates.

Verdicts are three-valued.  Invariant is only ever issued with a certificate
that re-checks exactly; NotInvariant only with a rational witness point that
re-verifies by exact evaluation; everything else is Unknown.  The discharge
tiers run in order: syntactic identity, ideal reduction, rational sampling,
then (opt-in) an external SMT solver whose answers are re-verified.

The identity tier folds constant and univariate sign-definite literals
(``realalg.definite``, an exact Sturm count) over ``semalg.nnf_fold``.  The
ideal tier sign-splits the cells of the hypothesis normal form into cases
and, in each case, walks the conclusion's formula with the same fold: the
conclusion is forced when some cell of its DNF has every literal forced,
which the fold reads off the formula without building a cell.  A case is
vacuous when a basis element of its equalities has no real root or a
reduced strict atom holds nowhere, by the same test.  Only the hypothesis
normal form is bounded by the disjunct limit.  What these tiers leave
undecided needs reasoning in several variables at once or a
counterexample with an irrational coordinate.

A refutation of either semialgebraic side condition settles the verdict,
so once the forward one fails its exact tiers, the two are sampled in
lockstep, a point of each in turn, up to the first refutation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Sequence

from .errors import DimensionError, InputError, ResourceError
from .ideals import (DEFAULT_RANK_CAP, RankResult, StepBudget, groebner, rank,
                     reduce_mod, stabilize)
from .odecore import OdeSystem, lie_derivative, reverse
from .polyarith import Polynomial, PolyMatrix, VarTable, mono_degree, sum_of_products
from .realalg import definite
from .sampling import sample_points
from .semalg import (Atom, Conjunct, Formula, Implies, NormalForm, Not,
                     PointEvaluator, TrueF, make_and, nnf_fold, pair_equalities,
                     radical_of_chain, semialg_progress, to_normal_form)
from .smtlib import SolverConfig, emit_smtlib, run_solver

# status kinds
PROVED_IDENTITY = "proved_identity"
PROVED_IDEAL = "proved_by_ideal_reduction"
SMT_VALID = "smt_valid"
REFUTED = "refuted"
UNKNOWN = "unknown"
_PROVED_KINDS = (PROVED_IDENTITY, PROVED_IDEAL, SMT_VALID)

# ideal tier: most sign-split cases per hypothesis disjunct, and the step
# budget of each case's Groebner basis
SPLIT_LIMIT = 64
CASE_STEP_BUDGET = 100_000


@dataclass(frozen=True)
class DischargeStatus:
    kind: str = UNKNOWN
    witness: Optional[tuple[Fraction, ...]] = None
    detail: str = ""

    def is_proved(self) -> bool:
        return self.kind in _PROVED_KINDS


@dataclass(frozen=True)
class SideCondition:
    """Universally quantified implication over the system variables."""
    hypothesis: Formula
    conclusion: Formula
    universal_vars: tuple[str, ...]
    provenance: str
    status: DischargeStatus = DischargeStatus()

    def with_status(self, status: DischargeStatus) -> "SideCondition":
        return replace(self, status=status)


@dataclass(frozen=True)
class DischargeConfig:
    samples: int = 100_000  # 0 turns sampling off
    seed: int = 0
    solver: Optional[SolverConfig] = None
    rank_cap: int = DEFAULT_RANK_CAP

    def __post_init__(self):
        if self.samples < 0:
            raise InputError("samples must be >= 0")


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class DarbouxCert:
    kind = "darboux"
    system: OdeSystem
    p: Polynomial
    g: Polynomial
    relation: str  # "=", ">=", ">"
    domain: Optional[Formula] = None


@dataclass(frozen=True)
class VdbxCert:
    kind = "vdbx"
    system: OdeSystem
    p_vec: tuple[Polynomial, ...]
    G: PolyMatrix


@dataclass(frozen=True)
class DriCert:
    kind = "dri"
    system: OdeSystem
    p: Polynomial
    domain: Optional[Polynomial]  # Q is (domain != 0); None means Q is true
    rank_result: RankResult


@dataclass(frozen=True)
class SaiCert:
    kind = "sai"
    system: OdeSystem
    P: NormalForm
    Q: NormalForm
    forward: Formula
    backward: Formula
    conditions: tuple[SideCondition, ...]


@dataclass(frozen=True)
class ChainRecord:
    """One loop member h: ``chain`` is the generators g_0..g_{k-1} the loop
    had kept before it, followed by h, and h = sum_{i<k} cofactors[i] * g_i."""
    chain: tuple[Polynomial, ...]
    cofactors: tuple[Polynomial, ...]


@dataclass(frozen=True)
class HpReductionCert:
    kind = "hpreduce"
    table: VarTable
    program: object  # hpreduce.HybridProgram
    p: Polynomial
    q: Polynomial
    chains: tuple[ChainRecord, ...]
    cap: int = DEFAULT_RANK_CAP


def reduction_certificate(table: VarTable, program, p: Polynomial, cap: int,
                          witnesses=None) -> HpReductionCert:
    """``reduce_box`` of [program] p = 0 as a certificate, with one record
    per loop member in the order first met (``witnesses`` as there)."""
    from .hpreduce import reduce_box

    q, trace = reduce_box(program, p, cap=cap, witnesses=witnesses)
    chains = tuple(ChainRecord(tuple(c), tuple(w)) for c, w in trace.star_chains())
    return HpReductionCert(table=table, program=program, p=p, q=q, chains=chains, cap=cap)


Certificate = object  # union of the five kinds above


@dataclass(frozen=True)
class Verdict:
    kind: str  # "invariant" | "not_invariant" | "unknown"
    certificate: Optional[Certificate] = None
    witness: Optional[tuple[Fraction, ...]] = None
    failed_condition: Optional[SideCondition] = None
    conditions: tuple[SideCondition, ...] = ()
    diagnostics: str = ""

    @classmethod
    def invariant(cls, cert, conditions=()):
        return cls("invariant", certificate=cert, conditions=tuple(conditions))

    @classmethod
    def not_invariant(cls, witness, failed, conditions=()):
        return cls("not_invariant", witness=tuple(witness), failed_condition=failed,
                   conditions=tuple(conditions))

    @classmethod
    def unknown(cls, diagnostics="", conditions=()):
        return cls("unknown", diagnostics=diagnostics, conditions=tuple(conditions))


# ---------------------------------------------------------------------------
# exact dense linear algebra for cofactor search

def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """One solution of A x = b over Q (free variables set to 0), or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None  # inconsistent
    x = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        x[c] = a[i][n]
    return x


def _monomials_up_to(table: VarTable, deg: int) -> list[tuple[int, ...]]:
    n = len(table)
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == n:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, pos + 1)

    rec([], deg, 0)
    out.sort(key=lambda m: (mono_degree(m), m))
    return out


def find_darboux_cofactor(p: Polynomial, sys: OdeSystem,
                          deg_bound: Optional[int] = None) -> Optional[Polynomial]:
    """Polynomial g with lie(p) = g*p exactly, with deg(g) <= deg_bound: the
    1x1 case of ``find_vectorial_darboux``."""
    if p.is_zero():
        raise InputError("Darboux cofactor search needs a nonzero polynomial")
    G = find_vectorial_darboux([p], sys, deg_bound)
    return None if G is None else G.get(0, 0)


def find_vectorial_darboux(p_vec: Sequence[Polynomial], sys: OdeSystem,
                           deg_bound: Optional[int] = None) -> Optional[PolyMatrix]:
    """Matrix G with lie(p_i) = sum_j G[i][j]*p_j exactly for all i; one
    degree bound shared across all entries."""
    if len(p_vec) == 0:
        raise InputError("vectorial Darboux search needs a nonempty vector")
    n = len(p_vec)
    lies = [lie_derivative(q, sys) for q in p_vec]
    if deg_bound is None:
        lo = min((q.total_degree() for q in p_vec if not q.is_zero()), default=0)
        hi = max((l.total_degree() for l in lies), default=0)
        deg_bound = max(0, hi - lo)
    monos = _monomials_up_to(sys.table, deg_bound)
    columns = [[q.mul_term(Fraction(1), m) for m in monos] for q in p_vec]
    entries: list[Polynomial] = []
    for i in range(n):
        flat_cols = [col for j in range(n) for col in columns[j]]
        row_monos = sorted({mm for col in flat_cols for mm in col.terms} | set(lies[i].terms))
        rows = [[col.terms.get(mm, Fraction(0)) for col in flat_cols] for mm in row_monos]
        rhs = [lies[i].terms.get(mm, Fraction(0)) for mm in row_monos]
        sol = _solve_exact(rows, rhs)
        if sol is None:
            return None
        for j in range(n):
            part = sol[j * len(monos):(j + 1) * len(monos)]
            entries.append(Polynomial(sys.table, {m: c for m, c in zip(monos, part)}))
    G = PolyMatrix(n, n, entries)
    for i in range(n):
        residue = lies[i] - _dot(G.row(i), p_vec)
        assert residue.is_zero()
    return G


def _dot(row: Sequence[Polynomial], vec: Sequence[Polynomial]) -> Polynomial:
    acc = Polynomial.zero(row[0].table)
    for a, b in zip(row, vec):
        acc = acc + a * b
    return acc


def dri_companion(rank_result: RankResult, sys: OdeSystem) -> VdbxCert:
    """Companion-form vectorial Darboux certificate from a rank identity that
    ``rank`` computed: 1 on the superdiagonal, the rank cofactors in the last
    row, and p_vec = rank_result.chain = (p, Lp, ..., L^{N-1}p)."""
    n = rank_result.n
    zero, one = Polynomial.zero(sys.table), Polynomial.one(sys.table)
    entries = []
    for i in range(n - 1):
        entries.extend([one if j == i + 1 else zero for j in range(n)])
    entries.extend(rank_result.cofactors)
    return VdbxCert(system=sys, p_vec=rank_result.chain, G=PolyMatrix(n, n, entries))


# ---------------------------------------------------------------------------
# discharge tiers

def _try_identity(cond: SideCondition) -> Optional[DischargeStatus]:
    if nnf_fold(cond.conclusion, definite, all, any):
        return DischargeStatus(PROVED_IDENTITY, detail="conclusion is identically true")
    if nnf_fold(cond.hypothesis, definite, all, any, neg=True):
        return DischargeStatus(PROVED_IDENTITY, detail="hypothesis is identically false")
    return None


def _split_cases(c: Conjunct) -> Optional[list[tuple[list[Polynomial], list[Polynomial]]]]:
    """Sign-split a hypothesis conjunct into (equalities, stricts) cases.

    Paired atoms p>=0, -p>=0 go straight to the equality side; each leftover
    p>=0 splits into p=0 | p>0.  None when the split would exceed
    ``SPLIT_LIMIT`` cases.
    """
    eqs, loose = pair_equalities(c.geqs)
    if 2 ** len(loose) > SPLIT_LIMIT:
        return None
    cases = [(eqs, list(c.gts))]
    for p in loose:
        nxt = []
        for (e, s) in cases:
            nxt.append((e + [p], list(s)))
            nxt.append((list(e), s + [p]))
        cases = nxt
    return cases


def _case_basis(eqs: list[Polynomial]) -> list[Polynomial]:
    nonzero = [e for e in eqs if not e.is_zero()]
    if not nonzero:
        return []
    return list(groebner(nonzero, step_budget=CASE_STEP_BUDGET).basis)


def _ray(p: Polynomial) -> frozenset:
    """Key shared by exactly the positive multiples of a nonzero p: its
    integer numerators divided by their positive gcd."""
    g = gcd(*p.nums.values())
    return frozenset((m, c // g) for m, c in p.nums.items())


def _case_entails(eqs: list[Polynomial], stricts: list[Polynomial],
                  conclusion: Formula) -> bool:
    """The equalities and strict atoms of one hypothesis case force the
    conclusion: some cell of its DNF has every literal forced, read off the
    formula by ``nnf_fold`` without building the DNF."""
    basis = _case_basis(eqs)
    if any(definite(b, True) or definite(-b, True) for b in basis):
        return True  # a basis element with no real root: the case is vacuous
    cache: dict[Polynomial, Polynomial] = {}

    def red(q: Polynomial) -> Polynomial:
        r = cache.get(q)
        if r is None:
            r = reduce_mod(q, basis) if basis else q
            cache[q] = r
        return r

    red_stricts = [red(s) for s in stricts]
    for r in red_stricts:
        if definite(-r, False):
            return True  # r > 0 holds nowhere: the case is vacuous
    strict_set = set(red_stricts)
    for r in red_stricts:
        if -r in strict_set:
            return True
    # a literal is forced when it holds everywhere, or when its nonconstant
    # r has a positive multiple among the reduced stricts
    strict_rays = {_ray(r) for r in red_stricts}

    def forced(q: Polynomial, strict: bool) -> bool:
        r = red(q)
        return definite(r, strict) or (not r.is_constant() and _ray(r) in strict_rays)

    return nnf_fold(conclusion, forced, all, any)


def _try_ideal(cond: SideCondition, hyp_nf: Optional[NormalForm]) -> Optional[DischargeStatus]:
    if hyp_nf is None:
        return None  # past the disjunct limit
    try:
        for disjunct in hyp_nf.disjuncts:
            cases = _split_cases(disjunct)
            if cases is None or not all(_case_entails(eqs, stricts, cond.conclusion)
                                        for eqs, stricts in cases):
                return None
    except ResourceError:
        return None
    return DischargeStatus(PROVED_IDEAL,
                           detail="conclusion forced modulo hypothesis equalities")


def _hypothesis_nf(cond: SideCondition) -> Optional[NormalForm]:
    """The hypothesis normal form; None past the disjunct limit."""
    try:
        return to_normal_form(cond.hypothesis)
    except ResourceError:
        return None


def _boundary_atoms(hyp_nf: Optional[NormalForm]) -> list[Polynomial]:
    """The distinct non-strict atoms of the hypothesis normal form; none
    without one (past the disjunct limit)."""
    if hyp_nf is None:
        return []
    return list(dict.fromkeys(p for c in hyp_nf.disjuncts for p in c.geqs))


def _sample_stream(cond: SideCondition, config: DischargeConfig,
                   hyp_nf: Optional[NormalForm]) -> Iterator[Optional[DischargeStatus]]:
    """The sampling tier, one item per point of the condition's own stream,
    seeded by ``config.seed``: None where the implication holds, and a
    refutation at the first point where it fails, which ends the stream."""
    rng = random.Random(config.seed)
    boundary = _boundary_atoms(hyp_nf)
    implication = Implies(cond.hypothesis, cond.conclusion)
    for point in sample_points(rng, len(cond.universal_vars), config.samples, boundary):
        if not PointEvaluator(point)(implication):
            yield DischargeStatus(REFUTED, witness=point.fractions(),
                                  detail="exact rational counterexample")
            return
        yield None


def _try_sampling(cond: SideCondition, config: DischargeConfig,
                  hyp_nf: Optional[NormalForm]) -> Optional[DischargeStatus]:
    return next(filter(None, _sample_stream(cond, config, hyp_nf)), None)


def _try_smt(cond: SideCondition, config: DischargeConfig) -> DischargeStatus:
    if config.solver is None:
        return DischargeStatus(UNKNOWN, detail="no solver configured")
    query = emit_smtlib(cond.hypothesis, cond.conclusion, cond.universal_vars,
                        comment=f"side condition: {cond.provenance}")
    answer = run_solver(query, config.solver, cond.universal_vars)
    if answer.result == "unsat":
        return DischargeStatus(SMT_VALID, detail="solver reports unsat")
    if answer.result == "sat":
        if answer.model is not None:
            point = tuple(answer.model.get(n, Fraction(0)) for n in cond.universal_vars)
            if not PointEvaluator(point)(Implies(cond.hypothesis, cond.conclusion)):
                return DischargeStatus(REFUTED, witness=point,
                                       detail="solver model re-verified exactly")
        return DischargeStatus(UNKNOWN,
                               detail="solver model failed exact re-verification")
    return DischargeStatus(UNKNOWN, detail=answer.detail or f"solver answered {answer.result}")


def discharge(cond: SideCondition, config: Optional[DischargeConfig] = None) -> SideCondition:
    """Fill the condition's status via the tiers: identity, ideal reduction,
    rational sampling (refutation only), then the optional external solver.

    The ideal tier works on the hypothesis normal form; a hypothesis whose
    normal form passes the disjunct limit skips it, and sampling then
    evaluates the formulas exactly with no boundary atoms to project onto."""
    config = config if config is not None else DischargeConfig()
    status = _try_identity(cond)
    if status is None:
        hyp_nf = _hypothesis_nf(cond)
        status = (_try_ideal(cond, hyp_nf)
                  or _try_sampling(cond, config, hyp_nf)
                  or _try_smt(cond, config))
    return cond.with_status(status)


# ---------------------------------------------------------------------------
# deciders

def algebraic_invariance_condition(chain: Sequence[Polynomial], sys: OdeSystem,
                                   domain: Optional[Polynomial] = None) -> SideCondition:
    """forall x (p=0 and Q -> differential radical of p), for the rank chain
    (p, Lp, ..., L^{N-1}p) of p and Q either true or domain != 0."""
    q = TrueF() if domain is None else Atom("!=", domain)
    return SideCondition(hypothesis=make_and([Atom("=", chain[0]), q]),
                         conclusion=radical_of_chain(chain),
                         universal_vars=sys.table.names,
                         provenance="algebraic-invariance")


def check_algebraic_invariance(p: Polynomial, sys: OdeSystem,
                               domain: Optional[Polynomial] = None,
                               config: Optional[DischargeConfig] = None) -> Verdict:
    """Decide validity of p=0 -> [x'=f & Q] p=0 with Q either true or a
    disequation (domain != 0), via the side condition
    forall x (p=0 and Q -> differential radical of p)."""
    config = config if config is not None else DischargeConfig()
    try:
        rr = rank(p, sys, cap=config.rank_cap)
    except ResourceError as exc:
        return Verdict.unknown(diagnostics=f"rank computation failed: {exc}")
    cond = discharge(algebraic_invariance_condition(rr.chain, sys, domain), config)
    if cond.status.is_proved():
        cert = DriCert(system=sys, p=p, domain=domain, rank_result=rr)
        if not check_certificate(cert, config):
            return Verdict.unknown(diagnostics="internal: DRI certificate failed re-check",
                                   conditions=(cond,))
        return Verdict.invariant(cert, conditions=(cond,))
    if cond.status.kind == REFUTED:
        return Verdict.not_invariant(cond.status.witness, cond, conditions=(cond,))
    return Verdict.unknown(diagnostics=cond.status.detail, conditions=(cond,))


def check_semialgebraic_invariance(P: NormalForm, Q: NormalForm, sys: OdeSystem,
                                   config: Optional[DischargeConfig] = None) -> Verdict:
    """Decide P -> [x'=f & Q] P for semialgebraic P, Q via the two progress
    side conditions (forward, and backward over the reversed system), with
    the topological open/closed shortcuts.

    Once the forward condition fails its exact tiers, the backward identity
    tier runs, then both sample streams in lockstep, forward first, up to
    the first refutation, which leaves the other condition undecided.  With
    no refutation, the forward solver tier runs, then, unless it refutes,
    the backward ideal and solver tiers."""
    config = config if config is not None else DischargeConfig()
    try:
        forward, backward = sai_side_conditions(P, Q, sys, config)
    except ResourceError as exc:
        return Verdict.unknown(diagnostics=f"progress construction failed: {exc}")
    forward, backward = _discharge_sai(forward, backward, config)
    for cond in (forward, backward):
        if cond.status.kind == REFUTED:
            return Verdict.not_invariant(cond.status.witness, cond,
                                         conditions=(forward, backward))
    if forward.status.is_proved() and backward.status.is_proved():
        cert = SaiCert(system=sys, P=P, Q=Q,
                       forward=forward.conclusion, backward=backward.conclusion,
                       conditions=(forward, backward))
        if not check_certificate(cert, config):
            return Verdict.unknown(diagnostics="internal: SAI certificate failed re-check",
                                   conditions=(forward, backward))
        return Verdict.invariant(cert, conditions=(forward, backward))
    pending = tuple(c for c in (forward, backward) if not c.status.is_proved())
    detail = "; ".join(f"{c.provenance}: {c.status.detail or 'undecided'}" for c in pending)
    return Verdict.unknown(diagnostics=detail, conditions=(forward, backward))


def _discharge_sai(forward: SideCondition, backward: SideCondition,
                   config: DischargeConfig) -> tuple[SideCondition, SideCondition]:
    """The two SAI conditions discharged in the order that
    ``check_semialgebraic_invariance`` describes."""
    fwd_nf = None
    status = forward.status if forward.status.is_proved() else _try_identity(forward)
    if status is None:
        fwd_nf = _hypothesis_nf(forward)
        status = _try_ideal(forward, fwd_nf)
    if status is not None:
        return forward.with_status(status), (
            backward if backward.status.is_proved() else discharge(backward, config))
    status = backward.status if backward.status.is_proved() else _try_identity(backward)
    if status is not None:  # the forward condition is left alone
        return (forward.with_status(_try_sampling(forward, config, fwd_nf)
                                    or _try_smt(forward, config)),
                backward.with_status(status))
    bwd_nf = _hypothesis_nf(backward)
    fwd_points = _sample_stream(forward, config, fwd_nf)
    bwd_points = _sample_stream(backward, config, bwd_nf)
    for status in fwd_points:
        if status is not None:
            return forward.with_status(status), backward
        status = next(bwd_points, None)
        if status is not None:
            return forward, backward.with_status(status)
    forward = forward.with_status(_try_smt(forward, config))
    if forward.status.kind != REFUTED:
        backward = backward.with_status(_try_ideal(backward, bwd_nf)
                                        or _try_smt(backward, config))
    return forward, backward


def sai_side_conditions(P: NormalForm, Q: NormalForm, sys: OdeSystem,
                        config: Optional[DischargeConfig] = None) -> tuple[SideCondition, SideCondition]:
    """The two premises of the domain-aware semialgebraic invariance rule,
    with the open/closed shortcut statuses pre-filled.

    Forward: P & Q & Q^(*) -> P^(*).  Backward, over the reversed system:
    !P & Q & Q^(*) -> !(P^(*)), since progress into the complement of P is
    the negation of progress into P (see ``semalg``).

    Both premises meet the same atoms, and L_{-f} q = -L_f q, so an atom's
    chain over the reversed system is its forward chain with every odd
    entry negated, of the same rank; the backward chains are taken from the
    forward ones instead of being ranked again."""
    config = config if config is not None else DischargeConfig()
    cap = config.rank_cap
    fwd_cache: dict = {}
    forward = SideCondition(
        hypothesis=make_and([P.to_formula(), Q.to_formula(),
                             semialg_progress(Q, sys, cap=cap, _cache=fwd_cache)]),
        conclusion=semialg_progress(P, sys, cap=cap, _cache=fwd_cache),
        universal_vars=sys.table.names,
        provenance="sai-forward",
    )
    rsys = reverse(sys)
    bwd_cache = {p: [-q if k % 2 else q for k, q in enumerate(chain)]
                 for p, chain in fwd_cache.items()}
    backward = SideCondition(
        hypothesis=make_and([Not(P.to_formula()), Q.to_formula(),
                             semialg_progress(Q, rsys, cap=cap, _cache=bwd_cache)]),
        conclusion=Not(semialg_progress(P, rsys, cap=cap, _cache=bwd_cache)),
        universal_vars=sys.table.names,
        provenance="sai-backward",
    )
    if P.all_strict():
        forward = forward.with_status(
            DischargeStatus(PROVED_IDENTITY, detail="open-set shortcut"))
    if P.all_nonstrict():
        backward = backward.with_status(
            DischargeStatus(PROVED_IDENTITY, detail="closed-set shortcut"))
    return forward, backward


# ---------------------------------------------------------------------------
# certificate checking

def check_certificate(cert: Certificate, config: Optional[DischargeConfig] = None) -> bool:
    """Replay a certificate by exact arithmetic; False means rejected."""
    config = config if config is not None else DischargeConfig()
    try:
        if isinstance(cert, DarbouxCert):
            return _check_darboux(cert, config)
        if isinstance(cert, VdbxCert):
            return _check_vdbx(cert)
        if isinstance(cert, DriCert):
            return _check_dri(cert, config)
        if isinstance(cert, SaiCert):
            return _check_sai(cert, config)
        if isinstance(cert, HpReductionCert):
            return _check_hpreduce(cert)
    except (InputError, DimensionError, ResourceError):
        return False
    raise InputError(f"unknown certificate type {type(cert).__name__}")


def _check_darboux(cert: DarbouxCert, config: DischargeConfig) -> bool:
    if cert.relation not in ("=", ">=", ">"):
        return False
    residue = lie_derivative(cert.p, cert.system) - cert.g * cert.p
    if cert.domain is None:
        return residue.is_zero()
    rel = "=" if cert.relation == "=" else ">="
    cond = SideCondition(hypothesis=cert.domain, conclusion=Atom(rel, residue),
                         universal_vars=cert.system.table.names,
                         provenance="darboux-premise")
    return discharge(cond, config).status.is_proved()


def _check_vdbx(cert: VdbxCert) -> bool:
    n = len(cert.p_vec)
    if cert.G.rows != n or cert.G.cols != n or n == 0:
        return False
    for i in range(n):
        lhs = lie_derivative(cert.p_vec[i], cert.system)
        if not (lhs - _dot(cert.G.row(i), cert.p_vec)).is_zero():
            return False
    return True


def _check_dri(cert: DriCert, config: DischargeConfig) -> bool:
    rr = cert.rank_result
    if rr.n < 1 or len(rr.cofactors) != rr.n:
        return False
    if cert.p.is_zero():
        return rr.n == 1  # L 0 = g * 0 for every cofactor g

    def lie(q: Polynomial) -> Polynomial:
        return lie_derivative(q, cert.system)

    chain, smaller = stabilize([cert.p], lambda gens: [lie(g) for g in gens], rr.n - 1,
                               StepBudget(what="rank replay"))
    if smaller is not None:
        return False  # a smaller rank exists: recorded minimality is wrong
    return sum_of_products(cert.p.table, zip(rr.cofactors, chain)) == lie(chain[-1])


def _check_sai(cert: SaiCert, config: DischargeConfig) -> bool:
    forward, backward = sai_side_conditions(cert.P, cert.Q, cert.system, config)
    if cert.forward != forward.conclusion or cert.backward != backward.conclusion:
        return False
    recorded = {c.provenance: c for c in cert.conditions}
    for rebuilt in (forward, backward):
        rec = recorded.get(rebuilt.provenance)
        if rec is None:
            return False
        if rec.hypothesis != rebuilt.hypothesis or rec.conclusion != rebuilt.conclusion:
            return False
        if rebuilt.status.is_proved():
            continue  # open/closed shortcut re-derived
        if not discharge(rebuilt, config).status.is_proved():
            return False
    return True


def _check_hpreduce(cert: HpReductionCert) -> bool:
    """Check that every record recombines, then replay ``reduce_box`` with
    each loop membership taken from the records (only ODE nodes rank): the
    replayed q and the records used, each listed once in the order first
    met, must equal ``q`` and ``chains``."""
    for record in cert.chains:
        k = len(record.chain) - 1
        if k < 0 or len(record.cofactors) != k:
            return False
        if sum_of_products(cert.table, zip(record.cofactors, record.chain)) != record.chain[k]:
            return False
    replayed = reduction_certificate(cert.table, cert.program, cert.p, cert.cap,
                                     {tuple(r.chain): r.cofactors for r in cert.chains})
    return (replayed.q, replayed.chains) == (cert.q, cert.chains)
