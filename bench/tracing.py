"""Span tracing of odecert's layers from outside the package.

``Tracer.install`` rebinds each traced public function in the module that
defines it and in every odecert module that imported it by name, so calls
made through either name open a span.  Methods are rebound on their class.
Recursive calls that go through a module global (``reduce_box``) get spans
of their own; ``PointEvaluator.__call__`` recursing into sub-formulas does
not, so one span covers one formula evaluation at one point.

Spans live in memory as parallel arrays (name, start, end, parent span,
op id) and are written out by ``dump`` once the run ends.  A layer's self
time is the duration of its spans minus the time covered by their child
spans, so the self times of all names add up to the time of the top-level
spans: the ``cli.main`` calls that make up an op's timed part.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name); "Class.method" attributes are rebound on
# the class.  A target the package lacks is an error: a layer that moved
# must be named here anew rather than read as zero.
TARGETS = [
    ("odecert.cli", "main", "cli.main"),
    ("odecert.problemfile", "parse_problem", "problemfile.parse_problem"),
    ("odecert.parser", "parse_term", "parser"),
    ("odecert.parser", "parse_formula", "parser"),
    ("odecert.parser", "parse_ode", "parser"),
    ("odecert.parser", "parse_program", "parser"),
    ("odecert.polyarith", "Polynomial.__mul__", "polyarith.mul"),
    ("odecert.polyarith", "Polynomial.evaluate", "polyarith.evaluate"),
    ("odecert.polyarith", "Polynomial.substitute", "polyarith.substitute"),
    ("odecert.odecore", "lie_derivative", "odecore.lie_derivative"),
    ("odecert.ideals", "rank", "ideals.rank"),
    ("odecert.ideals", "member_with_witness", "ideals.member_with_witness"),
    ("odecert.ideals", "groebner", "ideals.groebner"),
    ("odecert.ideals", "reduce_mod", "ideals.reduce_mod"),
    ("odecert.ideals", "differential_radical", "ideals.differential_radical"),
    ("odecert.semalg", "semialg_progress", "semalg.progress"),
    ("odecert.semalg", "to_normal_form", "semalg.normal_form"),
    ("odecert.semalg", "negate_normal_form", "semalg.normal_form"),
    ("odecert.semalg", "PointEvaluator.__call__", "semalg.eval"),
    ("odecert.sampling", "sample_points", "sampling"),
    ("odecert.sampling", "project_to_boundary", "sampling"),
    ("odecert.invariant", "discharge", "invariant.discharge"),
    ("odecert.invariant", "check_certificate", "invariant.check_certificate"),
    ("odecert.hpreduce", "reduce_box", "hpreduce.reduce_box"),
    ("odecert.certio", "certificate_to_json", "certio.to_json"),
    ("odecert.certio", "certificate_from_json", "certio.from_json"),
    ("odecert.smtlib", "emit_smtlib", "smtlib.emit"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS})

_TIERS = {"proved_identity": "identity", "proved_by_ideal_reduction": "ideal",
          "refuted": "refuted", "unknown": "unknown"}


def _coef_bits(polys) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in polys for c in p.terms.values()), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = list(SPAN_NAMES)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.coef_bits_max = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.ids[name]
        hook = getattr(self, "_on_" + fn.__name__.strip("_"), None)
        tracer = self

        if name == "semalg.eval":
            @functools.wraps(fn)
            def evaluator(ev, f):
                stack = tracer.stack
                if stack and tracer.name[stack[-1]] == nid:
                    return fn(ev, f)  # sub-formula of the evaluation in progress
                idx = tracer.begin(nid)
                try:
                    return fn(ev, f)
                finally:
                    tracer.finish(idx)
            return evaluator

        if fn.__name__ == "sample_points":
            @functools.wraps(fn)
            def sampler(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.begin(nid)
                    try:
                        point = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.finish(idx)
                    tracer.counts["sampling.points"] += 1
                    yield point
            return sampler

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if hook is not None:
                hook(result)
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every target; ``uninstall`` restores the originals."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "odecert" or n.startswith("odecert.")) and m is not None]
        for mod_name, attr, name in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(original, name)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._undo.append((other, key, original))
                        setattr(other, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- counters from returned values -----------------------------------

    def _on_rank(self, rr) -> None:
        self.counts["ideals.rank.chain_len"] += rr.n
        self._witness(rr.cofactors)

    def _on_member_with_witness(self, w) -> None:
        if w is not None:
            self.counts["ideals.member_with_witness.members"] += 1
            self._witness(w.cofactors)

    def _witness(self, cofactors) -> None:
        self.counts["ideals.witness_terms"] += sum(len(g.terms) for g in cofactors)
        self.coef_bits_max = max(self.coef_bits_max, _coef_bits(cofactors))

    def _on_project_to_boundary(self, point) -> None:
        self.counts["sampling.projections"] += 1
        if point is not None:
            self.counts["sampling.projections_found"] += 1

    def _on_discharge(self, cond) -> None:
        tier = _TIERS.get(cond.status.kind, "unknown")
        self.counts["invariant.tier." + tier] += 1

    def _on_check_certificate(self, ok) -> None:
        if ok:
            self.counts["invariant.check_certificate.accepted"] += 1

    def _on_reduce_box(self, result) -> None:
        q, trace = result
        if trace.chain is not None and trace.witness is not None:
            self.counts["hpreduce.star_nodes"] += 1
            self.counts["hpreduce.star_chain_len"] += len(trace.chain) - 1
        stack = self.stack
        if not stack or self.names[self.name[stack[-1]]] != "hpreduce.reduce_box":
            self.counts["hpreduce.top_calls"] += 1
            self.counts["hpreduce.q_terms"] += len(q.terms)

    # -- results --------------------------------------------------------------

    def self_times(self, weights) -> tuple[dict[str, float], dict[str, int], float]:
        """(self seconds per name, spans per name, seconds in top-level
        spans), each span's time multiplied by ``weights[its op id]``."""
        n = len(self.name)
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            else:
                top += dur * weights[self.op[i]]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            key = self.names[self.name[i]]
            self_s[key] += (self.end[i] - self.start[i] - child[i]) * weights[self.op[i]]
            calls[key] += 1
        return self_s, calls, top

    def dump(self, directory: Path) -> None:
        """Write the spans: names.json plus one array per field, in the
        machine's byte order (``array.fromfile`` reads them back)."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "names.json").write_text(json.dumps(self.names))
        for field in ("name", "start", "end", "parent", "op"):
            with open(directory / f"{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)
