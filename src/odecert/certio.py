"""Versioned JSON (de)serialization of certificates.

Certificates are self-contained: they carry the variable table and the ODE
system (or program) they speak about, with polynomials and formulas in the
canonical text form, so `cert-check` can replay them from the file alone.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .hpreduce import render_program
from .ideals import DEFAULT_RANK_CAP, RankResult
from .invariant import (ChainRecord, Certificate, DarbouxCert, DischargeStatus,
                        DriCert, HpReductionCert, SaiCert, SideCondition,
                        VdbxCert)
from .odecore import OdeSystem
from .parser import parse_formula, parse_program, parse_term
from .polyarith import PolyMatrix, VarTable
from .semalg import Conjunct, NormalForm, render_formula

# the current format version of each certificate kind, and why earlier
# versions of a kind cannot be replayed
VERSIONS = {"darboux": 1, "vdbx": 1, "dri": 1, "sai": 2, "hpreduce": 2}
SUPERSEDED = {
    "hpreduce": "predates generator-set loop chains; run hp-reduce again",
    "sai": "predates backward conditions that negate progress formulas; run check-inv again",
}


def _fraction_parse(s: str) -> Fraction:
    if not isinstance(s, str):
        raise InputError(f"certificate: a rational must be a string, not {type(s).__name__}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"certificate: {s!r} is not a rational") from None


_REQUIRED = object()


def _field(d, key: str, kind: type = str, default=_REQUIRED):
    """``d[key]`` checked to be a ``kind``.  A missing key or a value of the
    wrong type raises InputError; with a ``default``, a missing key (or a
    null, for a None default) gives the default."""
    if not isinstance(d, dict):
        raise InputError(f"certificate: expected an object with field {key!r}, "
                         f"got {type(d).__name__}")
    if key not in d or (d[key] is None and default is None):
        if default is _REQUIRED:
            raise InputError(f"certificate field {key!r} is missing")
        return default
    value = d[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise InputError(f"certificate field {key!r} must be of type {kind.__name__}, "
                         f"not {type(value).__name__}")
    return value


def _string_list(values, key: str) -> list[str]:
    if not isinstance(values, list) or not all(isinstance(s, str) for s in values):
        raise InputError(f"certificate field {key!r} must be a list of strings")
    return values


def _strings(d, key: str) -> list[str]:
    return _string_list(_field(d, key, list), key)


def _terms(d, key: str, table: VarTable) -> tuple:
    return tuple(parse_term(s, table) for s in _strings(d, key))


def _system_json(sys: OdeSystem) -> dict:
    return {
        "vars": list(sys.table.names),
        "ode_vars": [sys.table.name(i) for i in sys.var_indices],
        "ode_rhs": [f.render() for f in sys.rhs],
    }


def _system_parse(d: dict) -> OdeSystem:
    table = VarTable(_strings(d, "vars"))
    names, rhs = _strings(d, "ode_vars"), _strings(d, "ode_rhs")
    if len(names) != len(rhs):
        raise InputError("certificate: 'ode_vars' and 'ode_rhs' differ in length")
    return OdeSystem.from_pairs(table, [(name, parse_term(f, table))
                                        for name, f in zip(names, rhs)])


def _nf_json(nf: NormalForm) -> dict:
    return {"disjuncts": [{"geqs": [p.render() for p in c.geqs],
                           "gts": [q.render() for q in c.gts]}
                          for c in nf.disjuncts]}


def _nf_parse(d: dict, table: VarTable) -> NormalForm:
    disjuncts = []
    for c in _field(d, "disjuncts", list):
        disjuncts.append(Conjunct(_terms(c, "geqs", table), _terms(c, "gts", table)))
    return NormalForm(tuple(disjuncts))


def status_json(status: DischargeStatus) -> dict:
    return {
        "kind": status.kind,
        "witness": None if status.witness is None
        else [str(v) for v in status.witness],
        "detail": status.detail,
    }


def _status_parse(d: dict) -> DischargeStatus:
    witness = _field(d, "witness", list, default=None)
    return DischargeStatus(
        kind=_field(d, "kind"),
        witness=None if witness is None else tuple(_fraction_parse(v) for v in witness),
        detail=_field(d, "detail", default=""),
    )


def condition_json(cond: SideCondition) -> dict:
    return {
        "hypothesis": render_formula(cond.hypothesis),
        "conclusion": render_formula(cond.conclusion),
        "universal_vars": list(cond.universal_vars),
        "provenance": cond.provenance,
        "status": status_json(cond.status),
    }


def _condition_parse(d: dict, table: VarTable) -> SideCondition:
    return SideCondition(
        hypothesis=parse_formula(_field(d, "hypothesis"), table),
        conclusion=parse_formula(_field(d, "conclusion"), table),
        universal_vars=tuple(_strings(d, "universal_vars")),
        provenance=_field(d, "provenance"),
        status=_status_parse(_field(d, "status", dict)),
    )


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, DarbouxCert):
        body = {
            "system": _system_json(cert.system),
            "p": cert.p.render(),
            "g": cert.g.render(),
            "relation": cert.relation,
            "domain": None if cert.domain is None else render_formula(cert.domain),
        }
    elif isinstance(cert, VdbxCert):
        body = {
            "system": _system_json(cert.system),
            "p_vec": [p.render() for p in cert.p_vec],
            "G": [[cert.G.get(i, j).render() for j in range(cert.G.cols)]
                  for i in range(cert.G.rows)],
        }
    elif isinstance(cert, DriCert):
        body = {
            "system": _system_json(cert.system),
            "p": cert.p.render(),
            "domain": None if cert.domain is None else cert.domain.render(),
            "rank": {"n": cert.rank_result.n,
                     "cofactors": [g.render() for g in cert.rank_result.cofactors]},
        }
    elif isinstance(cert, SaiCert):
        body = {
            "system": _system_json(cert.system),
            "P": _nf_json(cert.P),
            "Q": _nf_json(cert.Q),
            "forward": render_formula(cert.forward),
            "backward": render_formula(cert.backward),
            "conditions": [condition_json(c) for c in cert.conditions],
        }
    elif isinstance(cert, HpReductionCert):
        body = {
            "vars": list(cert.table.names),
            "program": render_program(cert.program),
            "p": cert.p.render(),
            "q": cert.q.render(),
            "cap": cert.cap,
            "chains": [{"chain": [p.render() for p in rec.chain],
                        "cofactors": [g.render() for g in rec.cofactors]}
                       for rec in cert.chains],
        }
    else:
        raise InputError(f"cannot serialize certificate of type {type(cert).__name__}")
    return {"version": VERSIONS[cert.kind], "kind": cert.kind, **body}


def certificate_from_json(d: dict) -> Certificate:
    """Parse a certificate; a malformed one (missing field, wrong type, bad
    term) raises InputError."""
    if not isinstance(d, dict) or "kind" not in d:
        raise InputError("certificate JSON must be an object with a 'kind' field")
    kind = _field(d, "kind")
    if kind not in VERSIONS:
        raise InputError(f"unknown certificate kind {kind!r}")
    version, current = d.get("version"), VERSIONS[kind]
    if kind in SUPERSEDED and type(version) is int and 0 < version < current:
        raise InputError(f"{kind} certificate version {version} {SUPERSEDED[kind]} "
                         f"for a version {current} one")
    if version != current:
        raise InputError(f"unsupported certificate version {version!r}")
    if kind == "hpreduce":
        table = VarTable(_strings(d, "vars"))
        return HpReductionCert(
            table=table,
            program=parse_program(_field(d, "program"), table),
            p=parse_term(_field(d, "p"), table),
            q=parse_term(_field(d, "q"), table),
            cap=_field(d, "cap", int, default=DEFAULT_RANK_CAP),
            chains=tuple(ChainRecord(_terms(rec, "chain", table),
                                     _terms(rec, "cofactors", table))
                         for rec in _field(d, "chains", list)),
        )
    system = _system_parse(_field(d, "system", dict))
    table = system.table
    if kind == "darboux":
        domain = _field(d, "domain", default=None)
        return DarbouxCert(
            system=system,
            p=parse_term(_field(d, "p"), table),
            g=parse_term(_field(d, "g"), table),
            relation=_field(d, "relation"),
            domain=None if domain is None else parse_formula(domain, table),
        )
    if kind == "vdbx":
        rows = _field(d, "G", list)
        n = len(rows)
        entries = [parse_term(s, table) for row in rows for s in _string_list(row, "G")]
        return VdbxCert(
            system=system,
            p_vec=_terms(d, "p_vec", table),
            G=PolyMatrix(n, n if n == 0 else len(rows[0]), entries),
        )
    if kind == "dri":
        rank = _field(d, "rank", dict)
        domain = _field(d, "domain", default=None)
        return DriCert(
            system=system,
            p=parse_term(_field(d, "p"), table),
            domain=None if domain is None else parse_term(domain, table),
            rank_result=RankResult(_field(rank, "n", int), _terms(rank, "cofactors", table)),
        )
    # kind == "sai"
    return SaiCert(
        system=system,
        P=_nf_parse(_field(d, "P", dict), table),
        Q=_nf_parse(_field(d, "Q", dict), table),
        forward=parse_formula(_field(d, "forward"), table),
        backward=parse_formula(_field(d, "backward"), table),
        conditions=tuple(_condition_parse(c, table)
                         for c in _field(d, "conditions", list)),
    )
