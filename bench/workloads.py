"""The benchmark's three workloads: seeded generators and exact oracles.

Each workload has a fixed *pool* of problems, generated from the pool seed
and parameters recorded in ``workloads.json``, next to the answers the
pool's problems had when they were recorded (``record.py``).  A run's
``--seed`` draws one answer-preserving transform per pool problem (variable
names, signs, the sampling seed) and the order in which the run visits the
pool, so that every seed writes different problem files while each file
keeps a known answer.  The transforms leave the arithmetic odecert does
unchanged, up to signs: reordering the variables or scaling coefficients
changes the cost of a Groebner basis by up to 2x per problem, which would
bury a change of the program under seed-to-seed noise.

Oracles re-check every output with ``exact`` and never with odecert code.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import exact

NAMES = ["x", "y"]
RUNNING_NAMES = ["u", "v"]
# renamings a run may apply; names never change the work odecert does
RENAMES = [["x", "y"], ["y", "x"], ["a", "b"], ["p", "q"], ["s", "t"], ["u", "v"], ["v", "w"]]


def _poly(rng: random.Random, max_degree: int, terms: int, bound: int = 2) -> dict:
    """Random polynomial in two variables; never zero."""
    while True:
        acc: dict = {}
        for _ in range(terms):
            mono = [0, 0]
            for _ in range(rng.randint(0, max_degree)):
                mono[rng.randrange(2)] += 1
            c = rng.randint(-bound, bound)
            if c:
                acc[tuple(mono)] = acc.get(tuple(mono), 0) + c
        p = {m: Fraction(c) for m, c in acc.items() if c}
        if p:
            return p


def _field(rng: random.Random, max_degree: int) -> list[dict]:
    return [_poly(rng, max_degree, 3) for _ in range(2)]


def _render(p: dict, names: list[str]) -> str:
    """odecert's term syntax, terms in decreasing exponent order."""
    if not p:
        return "0"
    out = []
    for k, m in enumerate(sorted(p, reverse=True)):
        c = p[m]
        factors = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(m) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else ("" if k == 0 else "+")
        out.append(f"{sign}{body}" if k == 0 else f" {sign} {body}")
    return "".join(out)


def _vars_line(names: list[str]) -> str:
    return "vars: " + ", ".join(names)


def _ode_line(field: list[dict], names: list[str]) -> str:
    return "ode: " + ", ".join(f"{n}' = {_render(f, names)}" for n, f in zip(names, field))


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\n\x00".join(texts).encode()).hexdigest()[:16]


class Check:
    """Outcome of the oracles on one op."""

    def __init__(self, decided: bool, error: str | None = None):
        self.decided = decided
        self.error = error


class Workload:
    """A CLI command, a seeded problem pool for it and the oracles for its
    output; ``params`` are the generator parameters in workloads.json."""

    def __init__(self, params: dict):
        self.params = params


# ---------------------------------------------------------------------------
# rank-chains

class RankChains(Workload):
    """``odecert rank`` on random 2-variable polynomial/vector-field pairs."""

    command = "rank"
    certificate = False

    def pool(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        prm = self.params
        out = []
        for _ in range(prm["pool_size"]):
            pd, fd = rng.choice(prm["degrees"])
            out.append({"p": _poly(rng, pd, prm["poly_terms"]), "f": _field(rng, fd)})
        return out

    def transform(self, rng: random.Random) -> dict:
        # L^i(c p) = c L^i p and L_{-f} = -L_f keep the rank
        return {"names": rng.choice(RENAMES), "cp": rng.choice([-1, 1]),
                "cf": rng.choice([-1, 1])}

    @staticmethod
    def identity() -> dict:
        return {"names": NAMES, "cp": 1, "cf": 1}

    def _instance(self, spec: dict, t: dict) -> tuple[dict, list[dict]]:
        return exact.scale(spec["p"], t["cp"]), [exact.scale(f, t["cf"]) for f in spec["f"]]

    def text(self, spec: dict, t: dict) -> str:
        p, field, names = *self._instance(spec, t), t["names"]
        return "\n".join([_vars_line(names), _ode_line(field, names),
                          f"polynomial: {_render(p, names)}",
                          f"cap: {self.params['cap']}", ""])

    def answer(self, code: int, report: dict | None) -> object:
        return report["data"]["rank"] if code == 0 else "resource"

    def check(self, spec, t, answer, code, report, cert_report, rng) -> Check:
        if code == 4:
            return Check(False)  # cap or step budget reached: undecided, not wrong
        if code != 0:
            return Check(False, f"exit code {code}")
        data = report["data"]
        n, cofactors = data["rank"], data["cofactors"]
        if answer not in (None, "resource") and n != answer:
            return Check(True, f"rank {n}, recorded {answer}")
        if len(cofactors) != n:
            return Check(True, "cofactor count differs from the rank")
        p, field = self._instance(spec, t)
        chain = [p]
        for _ in range(n):
            chain.append(exact.lie(chain[-1], field))
        acc: dict = {}
        for g, q in zip(cofactors, chain):
            acc = exact.add(acc, exact.mul(exact.parse_term(g, t["names"]), q))
        if acc != chain[n]:
            return Check(True, "cofactors do not recombine to L^n p")
        return Check(True)


# ---------------------------------------------------------------------------
# sai-sampling

def _rho() -> dict:
    return {(2, 0): Fraction(1), (0, 2): Fraction(1)}


def _minus(p: dict, c) -> dict:
    return exact.add(p, exact.const(2, c), -1)


def _running_field() -> list[dict]:
    """u' = -v + u/4*(1-u^2-v^2), v' = u + v/4*(1-u^2-v^2)."""
    q = Fraction(1, 4)
    fu = {(0, 1): Fraction(-1), (1, 0): q, (3, 0): -q, (1, 2): -q}
    fv = {(1, 0): Fraction(1), (0, 1): q, (2, 1): -q, (0, 3): -q}
    return [fu, fv]


def _running_example(rng: random.Random, radii: list[Fraction],
                     green: list[Fraction]) -> dict:
    """A region with a known answer under the running example, from
    d(u^2+v^2)/dt = (u^2+v^2)(1-u^2-v^2)/2: rho = u^2+v^2 moves toward 1
    and never reaches it from either side."""
    rho = _rho()
    kind = rng.choice(["disk", "closed-disk", "half-open-disk", "annulus",
                       "closed-annulus", "green"])
    if kind in ("disk", "closed-disk"):
        r = rng.choice(radii)
        op = "<" if kind == "disk" else "<="
        return {"kind": kind, "formula": ("atom", op, _minus(rho, r)), "truth": r >= 1}
    if kind == "half-open-disk":
        # boundary points with u >= 0 rotate into u < 0 unless rho falls inward
        r = rng.choice(radii)
        f = ("or", [("atom", "<", _minus(rho, r)),
                    ("and", [("atom", "=", _minus(rho, r)),
                             ("atom", ">=", {(1, 0): Fraction(1)})])])
        return {"kind": kind, "formula": f, "truth": r > 1}
    if kind in ("annulus", "closed-annulus"):
        a, b = sorted(rng.sample(radii, 2))
        lo, hi = (">", "<") if kind == "annulus" else (">=", "<=")
        f = ("and", [("atom", lo, _minus(rho, a)), ("atom", hi, _minus(rho, b))])
        return {"kind": kind, "formula": f, "truth": a <= 1 <= b}
    # u^2 <= v^2 + c: valid for c = 9/2; for c < 4 the flow leaves it where
    # v is large and u = -sqrt(v^2 + c), since L(v^2 - u^2) < 0 there
    c = rng.choice(green)
    g = {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    truth = True if c == Fraction(9, 2) else (False if c < 4 else None)
    return {"kind": "green", "formula": ("atom", "<=", _minus(g, c)), "truth": truth}


def _atoms_formula(rng: random.Random, disjuncts: int, atoms: int) -> tuple:
    ors = []
    for _ in range(disjuncts):
        conj = [("atom", rng.choice([">=", ">"]), _poly(rng, 2, 3))
                for _ in range(rng.randint(1, atoms))]
        ors.append(conj[0] if len(conj) == 1 else ("and", conj))
    return ors[0] if len(ors) == 1 else ("or", ors)


def _render_formula(f, names: list[str]) -> str:
    def go(g, level: int) -> str:
        kind = g[0]
        if kind == "atom":
            return f"{_render(g[2], names)} {g[1]} 0"
        sep = " | " if kind == "or" else " & "
        mine = 1 if kind == "or" else 2
        text = sep.join(go(a, mine + 1) for a in g[1])
        return f"({text})" if level > mine else text

    return go(f, 0)


class SaiSampling(Workload):
    """``odecert check-inv`` with seeded sampling on two problem families."""

    command = "check-inv"
    certificate = True

    def pool(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        prm = self.params
        radii = [Fraction(r) for r in prm["radii"]]
        green = [Fraction(c) for c in prm["green_offsets"]]
        out = []
        for _ in range(prm["pool_size"]):
            roll = rng.random()
            if roll < prm["running_share"]:
                spec = _running_example(rng, radii, green)
                spec["field"] = _running_field()
                spec["names"] = RUNNING_NAMES
            elif roll < prm["running_share"] + prm["large_share"]:
                # a conjunction of disjunctions: its DNF has 2^clauses disjuncts
                clauses = [("or", [("atom", rng.choice([">=", ">"]), _poly(rng, 2, 3))
                                   for _ in range(2)])
                           for _ in range(prm["large_clauses"])]
                spec = {"kind": "large", "formula": ("and", clauses),
                        "field": _field(rng, 2), "names": NAMES}
            else:
                spec = {"kind": "small",
                        "formula": _atoms_formula(rng, rng.randint(1, prm["max_disjuncts"]),
                                                  prm["max_atoms"]),
                        "field": _field(rng, 2), "names": NAMES}
            out.append(spec)
        return out

    def transform(self, rng: random.Random) -> dict:
        return {"names": rng.choice(RENAMES), "sample_seed": rng.randrange(1 << 16)}

    @staticmethod
    def identity() -> dict:
        return {"names": None, "sample_seed": 0}

    @staticmethod
    def _names(spec: dict, t: dict) -> list[str]:
        return t["names"] or spec["names"]

    def text(self, spec: dict, t: dict) -> str:
        names = self._names(spec, t)
        return "\n".join([_vars_line(names), _ode_line(spec["field"], names),
                          "candidate: " + _render_formula(spec["formula"], names),
                          f"samples: {self.params['samples']}",
                          f"seed: {t['sample_seed']}",
                          f"cap: {self.params['cap']}", ""])

    def answer(self, code: int, report: dict | None) -> object:
        return report["data"]["verdict"] if report is not None else "resource"

    def check(self, spec, t, answer, code, report, cert_report, rng) -> Check:
        if code == 4:
            return Check(False)
        if code not in (0, 1, 2):
            return Check(False, f"exit code {code}")
        data = report["data"]
        verdict = data["verdict"]
        expected = {0: "invariant", 1: "not_invariant", 2: "unknown"}[code]
        if verdict != expected:
            return Check(False, f"verdict {verdict} with exit code {code}")
        truth = spec.get("truth") if spec["kind"] not in ("small", "large") else \
            {"invariant": True, "not_invariant": False}.get(answer)
        decided = verdict != "unknown"
        if decided and truth is not None and (verdict == "invariant") != truth:
            return Check(True, f"verdict {verdict} contradicts the known answer")
        if verdict == "invariant":
            if cert_report is None or cert_report.get("data", {}).get("valid") is not True:
                return Check(True, "certificate did not replay")
        if verdict == "not_invariant":
            names = self._names(spec, t)
            witness = [Fraction(v) for v in data["witness"]]
            refuted = [c for c in data["conditions"] if c["status"]["kind"] == "refuted"]
            if not refuted:
                return Check(True, "no refuted condition carries the witness")
            cond = refuted[0]
            if [Fraction(v) for v in cond["status"]["witness"]] != witness:
                return Check(True, "witness differs from the refuted condition's")
            point = witness
            hyp = exact.parse_formula(cond["hypothesis"], names)
            concl = exact.parse_formula(cond["conclusion"], names)
            if not exact.holds(hyp, point) or exact.holds(concl, point):
                return Check(True, "witness does not refute its condition")
        return Check(decided)


# ---------------------------------------------------------------------------
# hp-loops

def _linear(rng: random.Random) -> dict:
    acc = exact.const(2, rng.randint(-2, 2))
    for i in range(2):
        acc = exact.add(acc, exact.scale(exact.var(2, i), rng.randint(-2, 2)))
    return acc


def _deterministic(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.5:
        return ("assign", rng.randrange(2), _linear(rng))
    return ("seq", _deterministic(rng, depth - 1), _deterministic(rng, depth - 1))


def _render_program(a, names: list[str]) -> str:
    kind = a[0]
    if kind == "assign":
        return f"{names[a[1]]} := {_render(a[2], names)}"
    if kind == "seq":
        return f"{_render_program(a[1], names)} ; {_render_program(a[2], names)}"
    if kind == "choice":
        return "{ " + f"{_render_program(a[1], names)} ++ {_render_program(a[2], names)}" + " }"
    if kind == "star":
        return "{ " + _render_program(a[1], names) + " }*"
    return "{ " + ", ".join(f"{names[i]}' = {c}" for i, c in a[1]) + " }"


def _has_ode(a) -> bool:
    if a[0] == "ode":
        return True
    return a[0] in ("seq", "choice", "star") and any(_has_ode(b) for b in a[1:])


def _runs(a, state: tuple, depth: int) -> set:
    """End states of every run of a discrete program; loops unrolled to depth."""
    kind = a[0]
    if kind == "assign":
        v = exact.evaluate(a[2], state)
        return {state[:a[1]] + (v,) + state[a[1] + 1:]}
    if kind == "seq":
        out: set = set()
        for mid in _runs(a[1], state, depth):
            out |= _runs(a[2], mid, depth)
        return out
    if kind == "choice":
        return _runs(a[1], state, depth) | _runs(a[2], state, depth)
    reached = frontier = {state}
    for _ in range(depth):
        new: set = set()
        for s in frontier:
            new |= _runs(a[1], s, depth)
        frontier = new - reached
        if not frontier:
            break
        reached = reached | frontier
    return reached


class HpLoops(Workload):
    """``odecert hp-reduce`` on random loop programs, then ``cert-check``."""

    command = "hp-reduce"
    certificate = True

    def pool(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        prm = self.params
        out = []
        for _ in range(prm["pool_size"]):
            body = _deterministic(rng, rng.randint(1, 2))
            if rng.random() < prm["ode_share"]:
                # a choice and an ODE in one loop body is the known-unbounded
                # class (workloads.json), so ODE bodies carry no choice
                field = sorted(rng.sample([0, 1], rng.randint(1, 2)))
                body = ("seq", body, ("ode", [(i, rng.choice([-2, -1, 1, 2])) for i in field]))
            elif rng.random() < prm["choice_share"]:
                body = ("choice", body, _deterministic(rng, 1))
            program = ("star", body)
            if rng.random() < prm["prefix_share"]:
                program = ("seq", _deterministic(rng, 1), program)
            post = _linear(rng)
            while not post:
                post = _linear(rng)
            out.append({"program": program, "post": post})
        return out

    def transform(self, rng: random.Random) -> dict:
        return {"names": rng.choice(RENAMES), "cp": rng.choice([-1, 1])}

    @staticmethod
    def identity() -> dict:
        return {"names": NAMES, "cp": 1}

    def text(self, spec: dict, t: dict) -> str:
        post, names = exact.scale(spec["post"], t["cp"]), t["names"]
        return "\n".join([_vars_line(names),
                          "program: " + _render_program(spec["program"], names),
                          f"post: {_render(post, names)} = 0",
                          f"cap: {self.params['cap']}", ""])

    def answer(self, code: int, report: dict | None) -> object:
        return "reduced" if code == 0 else "resource"

    def check(self, spec, t, answer, code, report, cert_report, rng) -> Check:
        if code == 4:
            return Check(False)
        if code != 0:
            return Check(False, f"exit code {code}")
        cert = report["data"]["certificate"]
        if cert_report is None or cert_report.get("data", {}).get("valid") is not True:
            return Check(True, "certificate did not replay")
        for record in cert["chains"]:
            chain = [exact.parse_term(q, t["names"]) for q in record["chain"]]
            acc: dict = {}
            for g, q in zip(record["cofactors"], chain):
                acc = exact.add(acc, exact.mul(exact.parse_term(g, t["names"]), q))
            if len(record["cofactors"]) != len(chain) - 1 or acc != chain[-1]:
                return Check(True, "a loop chain witness does not recombine")
        if _has_ode(spec["program"]):
            return Check(True)
        # q(s) = 0 iff no run of at most k-1 loop iterations breaks the
        # postcondition, where k is the loop's chain length; deeper runs
        # must agree too, so unroll a little past k
        q = exact.parse_term(report["data"]["reduced"], t["names"])
        k = max(len(r["chain"]) for r in cert["chains"]) - 1
        depth = max(k, self.params["oracle_depth"])
        post = spec["post"]
        for _ in range(self.params["oracle_states"]):
            state = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(2))
            holds = all(exact.evaluate(post, s) == 0
                        for s in _runs(spec["program"], state, depth))
            if (exact.evaluate(q, state) == 0) != holds:
                return Check(True, f"q disagrees with unrolling at {state}")
        return Check(True)


WORKLOADS = {"rank-chains": RankChains, "sai-sampling": SaiSampling,
             "hp-loops": HpLoops}
