"""Invariance deciders, tiered side-condition discharge, and certificates.

Verdicts are three-valued.  Invariant is only ever issued with a certificate
and is that certificate's replay, proved once; NotInvariant only with a
rational witness point that re-verifies by exact evaluation; everything else
is Unknown.  The discharge tiers run in order: syntactic identity, ideal
reduction, rational sampling, then (opt-in) an external SMT solver whose
answers are re-verified.

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
from itertools import combinations_with_replacement
from math import comb, gcd
from typing import Iterator, Optional, Sequence

from .errors import DimensionError, InputError, ResourceError
from .ideals import (DEFAULT_RANK_CAP, ChainRecord, RankResult, differential_radical,
                     groebner, rank, reduce_mod)
from .odecore import OdeSystem, lie_derivative
from .polyarith import Polynomial, PolyMatrix, VarTable, sum_of_products
from .realalg import definite
from .sampling import sample_points
from .semalg import (Atom, Conjunct, Formula, Implies, NormalForm, Not,
                     PointEvaluator, TrueF, atoms, make_and, nnf_fold, pair_equalities,
                     radical_of_chain, reverse_chain, semialg_progress, to_normal_form)
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

# Darboux search: most unknowns and coefficient-matrix entries of a solve
DARBOUX_UNKNOWN_LIMIT = 150
DARBOUX_ENTRY_LIMIT = 30_000


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
    cap: int = DEFAULT_RANK_CAP  # the rank cap of every atom's chain


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
    return HpReductionCert(table=table, program=program, p=p, q=q,
                           chains=tuple(trace.witness or ()), cap=cap)


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
    degree bound shared across all entries.  Every row of G is solved
    against one coefficient matrix: a column p_j * m per j and monomial m
    of degree <= deg_bound, a row per monomial of a column or a Lie
    derivative.  ResourceError past ``DARBOUX_UNKNOWN_LIMIT`` unknowns or
    ``DARBOUX_ENTRY_LIMIT`` entries, each counted before it is built.  The
    found G is checked as a ``vdbx`` certificate."""
    if len(p_vec) == 0:
        raise InputError("vectorial Darboux search needs a nonempty vector")
    n, k = len(p_vec), len(sys.table)
    lies = [lie_derivative(q, sys) for q in p_vec]
    if deg_bound is None:
        lo = min((q.total_degree() for q in p_vec if not q.is_zero()), default=0)
        hi = max((l.total_degree() for l in lies), default=0)
        deg_bound = max(0, hi - lo)
    unknowns = n * comb(deg_bound + k, k) if deg_bound >= 0 else 0
    if unknowns > DARBOUX_UNKNOWN_LIMIT:
        raise ResourceError(f"Darboux search: {unknowns} unknowns, cap {DARBOUX_UNKNOWN_LIMIT}")
    monos = sorted((tuple(map(c.count, range(k))) for d in range(deg_bound + 1)
                    for c in combinations_with_replacement(range(k), d)),
                   key=lambda m: (sum(m), m))
    columns = [q.mul_term(Fraction(1), m) for q in p_vec for m in monos]
    row_monos = sorted({m for col in columns for m in col.terms}.union(*(l.terms for l in lies)))
    if len(row_monos) * unknowns > DARBOUX_ENTRY_LIMIT:
        raise ResourceError(f"Darboux search: {len(row_monos) * unknowns} matrix entries, "
                            f"cap {DARBOUX_ENTRY_LIMIT}")
    matrix = [[col.terms.get(m, Fraction(0)) for col in columns] for m in row_monos]
    entries: list[Polynomial] = []
    for lie in lies:
        sol = _solve_exact(matrix, [lie.terms.get(m, Fraction(0)) for m in row_monos])
        if sol is None:
            return None
        coefs = iter(sol)  # zip takes the next len(monos) of them for each entry
        entries.extend(Polynomial(sys.table, dict(zip(monos, coefs))) for _ in range(n))
    G = PolyMatrix(n, n, entries)
    if not _check_vdbx(VdbxCert(system=sys, p_vec=tuple(p_vec), G=G)):
        raise AssertionError("the Darboux matrix fails its vdbx check")
    return G


def dri_companion(rank_result: RankResult, sys: OdeSystem) -> VdbxCert:
    """Companion-form vectorial Darboux certificate of a rank identity with
    its chain: 1 on the superdiagonal, the rank cofactors in the last row,
    and p_vec = rank_result.chain = (p, Lp, ..., L^{N-1}p)."""
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


def _try_ideal(cond: SideCondition) -> Optional[DischargeStatus]:
    hyp_nf = _hypothesis_nf(cond)
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
    """The hypothesis normal form, None past the disjunct limit: built on
    first use and kept on the hypothesis formula object, as ``_nf``."""
    hyp = cond.hypothesis
    if not hasattr(hyp, "_nf"):
        try:
            nf = to_normal_form(hyp)
        except ResourceError:
            nf = None
        object.__setattr__(hyp, "_nf", nf)
    return hyp._nf


def _sample_stream(cond: SideCondition,
                   config: DischargeConfig) -> Iterator[Optional[DischargeStatus]]:
    """The sampling tier, one item per point of the condition's own stream,
    seeded by ``config.seed``: None where the implication holds, and a
    refutation at the first point where it fails, which ends the stream.
    Points project onto the non-strict atoms of the hypothesis normal form."""
    rng = random.Random(config.seed)
    hyp_nf = _hypothesis_nf(cond)
    boundary = [] if hyp_nf is None else list(
        dict.fromkeys(p for c in hyp_nf.disjuncts for p in c.geqs))
    implication = Implies(cond.hypothesis, cond.conclusion)
    for point in sample_points(rng, len(cond.universal_vars), config.samples, boundary):
        if not PointEvaluator(point)(implication):
            yield DischargeStatus(REFUTED, witness=point.fractions(),
                                  detail="exact rational counterexample")
            return
        yield None


def _try_sampling(cond: SideCondition, config: DischargeConfig) -> Optional[DischargeStatus]:
    return next(filter(None, _sample_stream(cond, config)), None)


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

    The ideal tier works on the hypothesis normal form, built once and kept
    on the hypothesis, which ``with_status`` copies share; a hypothesis
    whose normal form passes the disjunct limit skips it, and sampling then
    evaluates the formulas exactly with no boundary atoms to project onto."""
    config = config if config is not None else DischargeConfig()
    return cond.with_status(_try_identity(cond) or _try_ideal(cond)
                            or _try_sampling(cond, config) or _try_smt(cond, config))


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
    forall x (p=0 and Q -> differential radical of p), proved once: the
    certificate's chain must replay (``_dri_chain``) to the one it used."""
    config = config if config is not None else DischargeConfig()
    try:
        rr = rank(p, sys, cap=config.rank_cap)
    except ResourceError as exc:
        return Verdict.unknown(diagnostics=f"rank computation failed: {exc}")
    cond = discharge(algebraic_invariance_condition(rr.chain, sys, domain), config)
    if cond.status.is_proved():
        cert = DriCert(system=sys, p=p, domain=domain, rank_result=rr)
        if _dri_chain(cert) != rr.chain:
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
    the backward ideal and solver tiers: ``_replay_sai`` of the certificate."""
    config = config if config is not None else DischargeConfig()
    cert = SaiCert(system=sys, P=P, Q=Q, cap=config.rank_cap)
    try:
        forward, backward = _replay_sai(cert, config)
    except ResourceError as exc:
        return Verdict.unknown(diagnostics=f"progress construction failed: {exc}")
    for cond in (forward, backward):
        if cond.status.kind == REFUTED:
            return Verdict.not_invariant(cond.status.witness, cond,
                                         conditions=(forward, backward))
    if forward.status.is_proved() and backward.status.is_proved():
        return Verdict.invariant(cert, conditions=(forward, backward))
    pending = tuple(c for c in (forward, backward) if not c.status.is_proved())
    detail = "; ".join(f"{c.provenance}: {c.status.detail or 'undecided'}" for c in pending)
    return Verdict.unknown(diagnostics=detail, conditions=(forward, backward))


def _replay_sai(cert: SaiCert, config: DischargeConfig) -> tuple[SideCondition, SideCondition]:
    """The two SAI conditions of the claim, ranked under the certificate's
    cap and discharged in the order ``check_semialgebraic_invariance`` says."""
    forward, backward = sai_side_conditions(cert.P, cert.Q, cert.system, cert.cap)
    status = (forward.status if forward.status.is_proved()
              else _try_identity(forward) or _try_ideal(forward))
    if status is not None:
        return forward.with_status(status), (
            backward if backward.status.is_proved() else discharge(backward, config))
    status = backward.status if backward.status.is_proved() else _try_identity(backward)
    if status is not None:  # the forward condition is left alone
        return (forward.with_status(_try_sampling(forward, config)
                                    or _try_smt(forward, config)),
                backward.with_status(status))
    fwd_points = _sample_stream(forward, config)
    bwd_points = _sample_stream(backward, config)
    for status in fwd_points:
        if status is not None:
            return forward.with_status(status), backward
        status = next(bwd_points, None)
        if status is not None:
            return forward, backward.with_status(status)
    forward = forward.with_status(_try_smt(forward, config))
    if forward.status.kind != REFUTED:
        backward = backward.with_status(_try_ideal(backward) or _try_smt(backward, config))
    return forward, backward


def radical_chains(polys: Sequence[Polynomial], sys: OdeSystem,
                   cap: int) -> dict[Polynomial, list[Polynomial]]:
    """Each distinct polynomial of ``polys`` mapped to its rank chain
    (``differential_radical``), in the order first met.  Each is ranked once,
    and one whose negation was ranked before is not ranked at all: L is
    linear, so the chain of -p is the chain of p negated."""
    chains: dict[Polynomial, list[Polynomial]] = {}
    for p in dict.fromkeys(polys):
        negated = chains.get(-p)
        chains[p] = (differential_radical(p, sys, cap=cap) if negated is None
                     else [-q for q in negated])
    return chains


def sai_side_conditions(P: NormalForm, Q: NormalForm, sys: OdeSystem,
                        cap: int = DEFAULT_RANK_CAP) -> tuple[SideCondition, SideCondition]:
    """The two premises of the domain-aware semialgebraic invariance rule,
    with the open/closed shortcut statuses pre-filled.

    Forward: P & Q & Q^(*) -> P^(*).  Backward, over the reversed system:
    !P & Q & Q^(*) -> !(P^(*)), since progress into the complement of P is
    the negation of progress into P (see ``semalg``).

    The atoms of Q, then of P, are ranked by ``radical_chains`` under
    ``cap``.  The backward chains are the forward ones with every odd entry
    negated (``semalg.reverse_chain``), as L_{-f} q = -L_f q."""
    chains = radical_chains(atoms(Q) + atoms(P), sys, cap)
    forward = SideCondition(
        hypothesis=make_and([P.to_formula(), Q.to_formula(), semialg_progress(Q, chains)]),
        conclusion=semialg_progress(P, chains),
        universal_vars=sys.table.names,
        provenance="sai-forward",
    )
    chains = {p: reverse_chain(chain) for p, chain in chains.items()}
    backward = SideCondition(
        hypothesis=make_and([Not(P.to_formula()), Q.to_formula(), semialg_progress(Q, chains)]),
        conclusion=Not(semialg_progress(P, chains)),
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
    n, table = len(cert.p_vec), cert.system.table
    if cert.G.rows != n or cert.G.cols != n or n == 0 or cert.G.table != table:
        return False
    return all(lie_derivative(p, cert.system)
               == sum_of_products(table, zip(cert.G.row(i), cert.p_vec))
               for i, p in enumerate(cert.p_vec))


def _dri_chain(cert: DriCert) -> Optional[tuple[Polynomial, ...]]:
    """The chain p, ..., L^{n-1}p replayed with the recorded rank n as the
    cap, so a higher rank raises ResourceError and a lower one gives a
    shorter chain; None unless the cofactors close its companion matrix as
    a ``vdbx`` certificate."""
    rr = cert.rank_result
    chain = tuple(differential_radical(cert.p, cert.system, cap=rr.n))
    if len(chain) != rr.n:
        return None  # a smaller rank exists: recorded minimality is wrong
    if not _check_vdbx(dri_companion(replace(rr, chain=chain), cert.system)):
        return None
    return chain


def _check_dri(cert: DriCert, config: DischargeConfig) -> bool:
    """The chain replays (``_dri_chain``) and its side condition under
    ``domain`` is discharged."""
    chain = _dri_chain(cert)
    return chain is not None and discharge(
        algebraic_invariance_condition(chain, cert.system, cert.domain),
        config).status.is_proved()


def _check_sai(cert: SaiCert, config: DischargeConfig) -> bool:
    """Both conditions of ``_replay_sai`` are proved."""
    return all(cond.status.is_proved() for cond in _replay_sai(cert, config))


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
                                     dict(cert.chains))
    return (replayed.q, replayed.chains) == (cert.q, cert.chains)
