"""Polynomial ODE systems, Lie derivation, ghosts, and the Liouville self-test.

A system lists exactly the variables that evolve; variables present in the
table but not listed are treated as constants (they contribute nothing to
Lie derivatives)."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .errors import DimensionError, InputError
from .polyarith import (Polynomial, PolyMatrix, VarTable, check_term_products,
                        mono_multiplier)


class OdeSystem:
    """An autonomous polynomial system x' = f(x).

    ``var_indices[i]`` evolves with right-hand side ``rhs[i]``; all
    polynomials live over ``table``.
    """

    __slots__ = ("table", "var_indices", "rhs")

    def __init__(self, table: VarTable, var_indices: Sequence[int],
                 rhs: Sequence[Polynomial]):
        if len(var_indices) == 0:
            raise InputError("ODE system needs at least one variable")
        if len(var_indices) != len(rhs):
            raise DimensionError("one right-hand side per evolving variable")
        if len(set(var_indices)) != len(var_indices):
            raise InputError("duplicate variable in ODE system")
        for i in var_indices:
            if not 0 <= i < len(table):
                raise InputError(f"variable index {i} out of range")
        for f in rhs:
            if f.table != table:
                raise InputError("right-hand side over a different variable table")
        self.table = table
        self.var_indices = tuple(var_indices)
        self.rhs = tuple(rhs)

    @classmethod
    def from_pairs(cls, table: VarTable, pairs: Sequence[tuple[str, Polynomial]]) -> "OdeSystem":
        return cls(table, [table.index(n) for n, _ in pairs], [f for _, f in pairs])

    def __eq__(self, other) -> bool:
        return (isinstance(other, OdeSystem) and self.table == other.table
                and self.var_indices == other.var_indices and self.rhs == other.rhs)

    def __hash__(self) -> int:
        return hash((self.table, self.var_indices, self.rhs))

    def render(self) -> str:
        return ", ".join(f"{self.table.name(i)}' = {f.render()}"
                         for i, f in zip(self.var_indices, self.rhs))

    def __repr__(self) -> str:
        return f"<ode {self.render()}>"


@dataclass(frozen=True)
class GhostSpec:
    """Fresh variables y with y' = a(x)*y + b(x), linear in y.

    ``a`` (m x m) and ``b`` (length m) must be built over the *old* table,
    which is what enforces the linearity-in-y restriction.
    """
    new_vars: tuple[str, ...]
    a: PolyMatrix
    b: tuple[Polynomial, ...]


def lie_derivative(p: Polynomial, sys: OdeSystem) -> Polynomial:
    """Directional derivative of p along the vector field: sum dp/dx_i * f_i,
    summed in one integer map with no polynomial per partial derivative; the
    term pairs are counted and capped as ``sum_of_products`` counts them."""
    table = sys.table
    if p.table != table:
        raise InputError("polynomial and system use different variable tables")
    times, den = mono_multiplier(len(table)), lcm(*(f.den for f in sys.rhs))
    res: dict = {}
    get, products = res.get, 0
    for i, f in zip(sys.var_indices, sys.rhs):
        terms = [(m, c * m[i]) for m, c in p.nums.items() if m[i]]
        if not terms or not f.nums:
            continue
        products += len(terms) * len(f.nums)
        check_term_products(products)
        # x^(m - e_i) * x^g = x^m * x^(g - e_i)
        shifted = [(g[:i] + (g[i] - 1,) + g[i + 1:], c * (den // f.den))
                   for g, c in f.nums.items()]
        for m1, c1 in terms:
            for m2, c2 in shifted:
                m = times(m1, m2)
                res[m] = get(m, 0) + c1 * c2
    return Polynomial.from_ints(table, {m: v for m, v in res.items() if v}, p.den * den)


def higher_lie(p: Polynomial, sys: OdeSystem, i: int) -> Polynomial:
    if i < 0:
        raise InputError("Lie derivative order must be non-negative")
    q = p
    for _ in range(i):
        q = lie_derivative(q, sys)
    return q


def reverse(sys: OdeSystem) -> OdeSystem:
    """Time reversal: every right-hand side negated."""
    return OdeSystem(sys.table, sys.var_indices, tuple(-f for f in sys.rhs))


def fresh_ghost_names(table: VarTable, count: int) -> tuple[str, ...]:
    """Names `_gh<k>` not colliding with existing variables."""
    names: list[str] = []
    k = 0
    while len(names) < count:
        cand = f"_gh{k}"
        if cand not in table:
            names.append(cand)
        k += 1
    return tuple(names)


def extend_with_ghosts(sys: OdeSystem, g: GhostSpec) -> OdeSystem:
    m = len(g.new_vars)
    if g.a.rows != m or g.a.cols != m or len(g.b) != m:
        raise DimensionError("ghost matrix/vector dimensions do not match new variables")
    for e in list(g.a.entries) + list(g.b):
        if e.table != sys.table:
            raise InputError("ghost coefficients must not mention ghost variables "
                             "(build them over the original table)")
    new_table = sys.table.extend(g.new_vars)  # raises on name collision
    ghost_vars = [Polynomial.variable(new_table, n) for n in g.new_vars]
    new_rhs = []
    for i in range(m):
        acc = g.b[i].lift(new_table)
        for j in range(m):
            acc = acc + g.a.get(i, j).lift(new_table) * ghost_vars[j]
        new_rhs.append(acc)
    return OdeSystem(
        new_table,
        tuple(sys.var_indices) + tuple(new_table.index(n) for n in g.new_vars),
        tuple(f.lift(new_table) for f in sys.rhs) + tuple(new_rhs),
    )


def liouville_check(G: PolyMatrix, sys: OdeSystem) -> bool:
    """Self-test of the determinant/ghost machinery.

    Appends a fresh m x m ghost matrix Y with Y' = -Y*G to the system and
    checks that lie(det Y) + trace(G)*det Y is literally the zero polynomial.
    True for every well-formed G; False signals an implementation bug.
    """
    if G.rows != G.cols:
        raise DimensionError("Liouville check needs a square matrix")
    m = G.rows
    if G.table != sys.table:
        raise InputError("matrix entries must be over the system's variable table")
    names = fresh_ghost_names(sys.table, m * m)  # y_ij at names[i*m + j]
    zero = Polynomial.zero(sys.table)
    # (Y')_{ij} = -sum_k y_{ik} G_{kj}: coefficient of ghost y_{ik} is -G_{kj}
    a_entries = [zero] * (m * m * m * m)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                a_entries[(i * m + j) * (m * m) + (i * m + k)] = -G.get(k, j)
    spec = GhostSpec(names, PolyMatrix(m * m, m * m, a_entries), (zero,) * (m * m))
    ext = extend_with_ghosts(sys, spec)
    y = PolyMatrix(m, m, [Polynomial.variable(ext.table, n) for n in names])
    det_y = y.determinant()
    residue = lie_derivative(det_y, ext) + G.trace().lift(ext.table) * det_y
    return residue.is_zero()
