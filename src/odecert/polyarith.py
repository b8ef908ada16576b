"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are stored sparsely as a map from exponent vectors to nonzero
`fractions.Fraction` coefficients, so equality of the term maps is equality
of polynomials (canonical form).  Exponent vectors ("monomials") are plain
tuples of non-negative ints whose length is the ambient variable count of
the owning :class:`VarTable`.

Evaluation runs in integers.  A :class:`ScaledPoint` holds a rational point
as integer numerators over one positive common denominator, and a
polynomial compiles itself once, on first evaluation, into an
:class:`IntKernel`: integer coefficients over a positive common
denominator, homogenised by total degree, so that its value at a scaled
point is one integer sum whose sign is the sign of the polynomial there.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, le, sub
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, InputError, NonPolynomialError, ResourceError

Mono = tuple  # exponent vector; one entry per VarTable slot

# largest total degree a power may reach: x^k costs about k^n terms
MAX_DEGREE = 1000


class VarTable:
    """Bijection between variable names and dense indices 0..n-1.

    Tables are immutable; ghost variables extend them append-only via
    :meth:`extend`, which keeps existing indices (and hence monomials)
    stable.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(names)
        if len(self.names) == 0:
            raise InputError("variable table must not be empty")
        if len(set(self.names)) != len(self.names):
            raise InputError(f"duplicate variable names in {self.names}")
        self._index = {n: i for i, n in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({', '.join(self.names)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"undeclared variable {name!r}") from None

    def name(self, i: int) -> str:
        return self.names[i]

    def extend(self, extra: Iterable[str]) -> "VarTable":
        extra = tuple(extra)
        for n in extra:
            if n in self._index:
                raise InputError(f"variable {n!r} already declared")
        return VarTable(self.names + extra)

    def is_prefix_of(self, other: "VarTable") -> bool:
        return other.names[: len(self.names)] == self.names


# ---------------------------------------------------------------------------
# monomial helpers (exponent-vector tuples)

def mono_one(n: int) -> Mono:
    return (0,) * n


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_coprime(a: Mono, b: Mono) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def mono_degree(a: Mono) -> int:
    return sum(a)


class MonomialOrder:
    """A monomial order given by a sort key; larger key = larger monomial."""

    __slots__ = ("name", "key")

    def __init__(self, name: str, key):
        self.name = name
        self.key = key

    def __repr__(self) -> str:
        return f"MonomialOrder({self.name})"


def _grevlex_key(m: Mono):
    return (sum(m), tuple(-e for e in reversed(m)))


GREVLEX = MonomialOrder("grevlex", _grevlex_key)
LEX = MonomialOrder("lex", lambda m: m)

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def order_by_name(name: str) -> MonomialOrder:
    try:
        return _ORDERS[name]
    except KeyError:
        raise InputError(f"unknown monomial order {name!r} (use grevlex or lex)") from None


# ---------------------------------------------------------------------------

def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise InputError(f"coefficients must be exact rationals, got {type(c).__name__}")


class Polynomial:
    """Canonical sparse multivariate polynomial over Q.

    ``terms`` never stores a zero coefficient, so two polynomials over the
    same table are equal iff their term maps are equal.  Instances are
    immutable after construction and safe to share.
    """

    # _kernel and _text are caches that stay unset until first use, so
    # construction (the Groebner hot path) pays nothing for them
    __slots__ = ("table", "terms", "_hash", "_kernel", "_text")

    def __init__(self, table: VarTable, terms: Mapping[Mono, Fraction] | None = None,
                 _normalized: bool = False):
        self.table = table
        if terms is None:
            self.terms: dict[Mono, Fraction] = {}
        elif _normalized:
            self.terms = dict(terms)
        else:
            n = len(table)
            norm: dict[Mono, Fraction] = {}
            for m, c in terms.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                if len(m) != n or any(e < 0 for e in m):
                    raise InputError(f"bad exponent vector {m} for table of size {n}")
                norm[tuple(m)] = norm.get(tuple(m), Fraction(0)) + c
            self.terms = {m: c for m, c in norm.items() if c != 0}
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return cls(table, {}, _normalized=True)

    @classmethod
    def one(cls, table: VarTable) -> "Polynomial":
        return cls.constant(table, Fraction(1))

    @classmethod
    def constant(cls, table: VarTable, c) -> "Polynomial":
        c = _as_fraction(c)
        if c == 0:
            return cls.zero(table)
        return cls(table, {mono_one(len(table)): c}, _normalized=True)

    @classmethod
    def variable(cls, table: VarTable, var) -> "Polynomial":
        i = table.index(var) if isinstance(var, str) else var
        m = tuple(1 if j == i else 0 for j in range(len(table)))
        return cls(table, {m: Fraction(1)}, _normalized=True)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1
                                  and not any(next(iter(self.terms))))

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise InputError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def variables(self) -> set[int]:
        used: set[int] = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Mono, Fraction]:
        if not self.terms:
            raise InputError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Mono, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- ring operations -----------------------------------------------------

    def _require_same_table(self, other: "Polynomial") -> None:
        if self.table is not other.table and self.table != other.table:
            raise InputError("operands use different variable tables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_table(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, Fraction(0)) + c
            if s == 0:
                res.pop(m, None)
            else:
                res[m] = s
        return Polynomial(self.table, res, _normalized=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_table(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, Fraction(0)) - c
            if s == 0:
                res.pop(m, None)
            else:
                res[m] = s
        return Polynomial(self.table, res, _normalized=True)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, {m: -c for m, c in self.terms.items()},
                          _normalized=True)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_table(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.table)
        res: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = res.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    res.pop(m, None)
                else:
                    res[m] = s
        return Polynomial(self.table, res, _normalized=True)

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise NonPolynomialError("non-polynomial: negative or non-integer exponent")
        if k > 1 and self.total_degree() * k > MAX_DEGREE:
            raise ResourceError(f"power of degree {self.total_degree()} * {k} exceeds "
                                f"the degree cap {MAX_DEGREE}")
        result = Polynomial.one(self.table)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        if c == 0:
            return Polynomial.zero(self.table)
        return Polynomial(self.table, {m: v * c for m, v in self.terms.items()},
                          _normalized=True)

    def mul_term(self, c: Fraction, m: Mono) -> "Polynomial":
        """Fast multiplication by a single term c*x^m."""
        if c == 0:
            return Polynomial.zero(self.table)
        return Polynomial(self.table,
                          {mono_mul(m0, m): c0 * c for m0, c0 in self.terms.items()},
                          _normalized=True)

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if self.is_zero():
            return self
        _, lc = self.leading(order)
        return self if lc == 1 else self.scale(Fraction(1) / lc)

    # -- calculus / evaluation ------------------------------------------------

    def partial_derivative(self, var) -> "Polynomial":
        i = self.table.index(var) if isinstance(var, str) else var
        if not 0 <= i < len(self.table):
            raise InputError(f"variable index {i} out of range")
        res: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            dm = m[:i] + (e - 1,) + m[i + 1:]
            s = res.get(dm, Fraction(0)) + c * e
            if s == 0:
                res.pop(dm, None)
            else:
                res[dm] = s
        return Polynomial(self.table, res, _normalized=True)

    def substitute(self, subst: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Simultaneously replace variables (by index) with polynomials."""
        if not subst:
            return self
        for i, q in subst.items():
            self._require_same_table(q)
            if not 0 <= i < len(self.table):
                raise InputError(f"variable index {i} out of range")
        n = len(self.table)
        pow_cache: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = subst[i] ** e
            return pow_cache[key]

        total = Polynomial.zero(self.table)
        for m, c in self.terms.items():
            kept = tuple(0 if i in subst else e for i, e in enumerate(m))
            part = Polynomial(self.table, {kept: c}, _normalized=True)
            for i in range(n):
                if i in subst and m[i]:
                    part = part * power(i, m[i])
            total = total + part
        return total

    def kernel(self) -> "IntKernel":
        """The integer form of this polynomial, built on first use."""
        try:
            return self._kernel
        except AttributeError:
            self._kernel = IntKernel(self)
            return self._kernel

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        k = self.kernel()
        sp = ScaledPoint.of(point)
        return Fraction(k.scaled_value(sp), k.scale * sp.den ** k.degree)

    def lift(self, new_table: VarTable) -> "Polynomial":
        """Reindex into an extended table (old table must be a prefix)."""
        if new_table == self.table:
            return self
        if not self.table.is_prefix_of(new_table):
            raise InputError("lift target table does not extend the current one")
        pad = (0,) * (len(new_table) - len(self.table))
        return Polynomial(new_table, {m + pad: c for m, c in self.terms.items()},
                          _normalized=True)

    # -- equality / ordering helpers ------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.table == other.table
                and self.terms == other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.table.names, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- exact division --------------------------------------------------------

    def divexact(self, d: "Polynomial", order: MonomialOrder = GREVLEX) -> "Polynomial":
        """Exact quotient self/d; raises if d does not divide self exactly."""
        self._require_same_table(d)
        if d.is_zero():
            raise InputError("division by the zero polynomial")
        quot = Polynomial.zero(self.table)
        rem = self
        dm, dc = d.leading(order)
        while not rem.is_zero():
            rm, rc = rem.leading(order)
            if not mono_divides(dm, rm):
                raise InputError("inexact polynomial division")
            t = Polynomial(self.table, {mono_div(rm, dm): rc / dc}, _normalized=True)
            quot = quot + t
            rem = rem - d * t
        return quot

    # -- text rendering ---------------------------------------------------------

    def render(self, order: MonomialOrder = GREVLEX) -> str:
        """Canonical text: terms in decreasing monomial order, explicit * and ^,
        rationals as num/den (e.g. ``-1/2*u^2 - 1/2*v^2``).  The text in the
        default order is built once and kept."""
        if order is not GREVLEX:
            return self._render(order)
        try:
            return self._text
        except AttributeError:
            self._text = self._render(GREVLEX)
            return self._text

    def _render(self, order: MonomialOrder) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for k, (m, c) in enumerate(self.sorted_terms(order)):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.table.name(i))
                elif e > 1:
                    factors.append(f"{self.table.name(i)}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if k == 0:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<poly {self.render()}>"


class ScaledPoint:
    """A rational point x_i = nums[i] / den over one positive common
    denominator.  The power tables ``num_pows[i][e] = nums[i]^e`` and
    ``den_pows[e] = den^e`` grow on demand (:meth:`grow`) and are shared by
    every polynomial evaluated at the point."""

    __slots__ = ("nums", "den", "num_pows", "den_pows")

    def __init__(self, nums: Sequence[int], den: int):
        self.nums = tuple(nums)
        self.den = den
        self.num_pows = [[1] for _ in self.nums]
        self.den_pows = [1]

    @classmethod
    def of(cls, point) -> "ScaledPoint":
        """``point`` itself if scaled already, else the scaled form of a
        sequence of rationals (Fractions or ints)."""
        if isinstance(point, ScaledPoint):
            return point
        den = lcm(*(x.denominator for x in point))
        return cls([x.numerator * (den // x.denominator) for x in point], den)

    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def with_coordinate(self, i: int, num: int, den: int) -> "ScaledPoint":
        """This point with coordinate ``i`` replaced by num/den (den > 0)."""
        common = lcm(self.den, den)
        up = common // self.den
        nums = [a * up for a in self.nums]
        nums[i] = num * (common // den)
        return ScaledPoint(nums, common)

    def grow(self, degree: int) -> None:
        """Extend the power tables to cover exponents up to ``degree``."""
        dp = self.den_pows
        while len(dp) <= degree:
            dp.append(dp[-1] * self.den)
        for a, row in zip(self.nums, self.num_pows):
            while len(row) <= degree:
                row.append(row[-1] * a)


class IntKernel:
    """A polynomial p of total degree D compiled to integers: with ``scale``
    the positive lcm of p's coefficient denominators,

        scale * den^D * p(nums / den) = sum_m c_m * nums^m * den^(D - |m|)

    with integer c_m.  The right side is :meth:`scaled_value`; it has the
    sign of p at the point, as scale and den are positive.  ``terms`` holds
    (c_m, D - |m|, ((i, m_i) for each m_i > 0)) per term."""

    __slots__ = ("nvars", "scale", "degree", "terms")

    def __init__(self, p: Polynomial):
        self.nvars = len(p.table)
        self.scale = lcm(*(c.denominator for c in p.terms.values()))
        self.degree = max(p.total_degree(), 0)
        self.terms = tuple(
            (c.numerator * (self.scale // c.denominator), self.degree - mono_degree(m),
             tuple((i, e) for i, e in enumerate(m) if e))
            for m, c in p.terms.items())

    def _powers(self, point: ScaledPoint) -> tuple[list[list[int]], list[int]]:
        if len(point.nums) != self.nvars:
            raise DimensionError("point dimension does not match variable count")
        if len(point.den_pows) <= self.degree:
            point.grow(self.degree)
        return point.num_pows, point.den_pows

    def scaled_value(self, point: ScaledPoint) -> int:
        pows, dp = self._powers(point)
        total = 0
        for c, pad, factors in self.terms:
            v = c * dp[pad]
            for i, e in factors:
                v *= pows[i][e]
            total += v
        return total

    def restrict_to_variable(self, var: int, point: ScaledPoint) -> dict[int, int]:
        """Integer coefficients, by power of x_var, of a positive multiple
        (scale * den^D) of p with every other variable set to the point's
        value; zero coefficients dropped.  It has the roots in x_var of the
        exact restriction."""
        pows, dp = self._powers(point)
        out: dict[int, int] = {}
        for c, pad, factors in self.terms:
            v = c
            k = 0
            for i, e in factors:
                if i == var:
                    k = e
                else:
                    v *= pows[i][e]
            out[k] = out.get(k, 0) + v * dp[pad + k]
        return {k: v for k, v in out.items() if v}


class PolyMatrix:
    """Dense matrix of polynomials, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Polynomial]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionError(f"need {rows}x{cols}={rows*cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)
        t = self.entries[0].table if self.entries else None
        for e in self.entries:
            if e.table != t:
                raise InputError("matrix entries use different variable tables")

    @classmethod
    def identity(cls, n: int, table: VarTable) -> "PolyMatrix":
        one, zero = Polynomial.one(table), Polynomial.zero(table)
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, table: VarTable) -> "PolyMatrix":
        zero = Polynomial.zero(table)
        return cls(rows, cols, [zero] * (rows * cols))

    @property
    def table(self) -> VarTable:
        if not self.entries:
            raise DimensionError("empty matrix has no table")
        return self.entries[0].table

    def get(self, i: int, j: int) -> Polynomial:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Polynomial]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise DimensionError("matrix dimensions do not match for multiplication")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = Polynomial.zero(self.table)
                for k in range(self.cols):
                    acc = acc + self.get(i, k) * other.get(k, j)
                out.append(acc)
        return PolyMatrix(self.rows, other.cols, out)

    def trace(self) -> Polynomial:
        if self.rows != self.cols:
            raise DimensionError("trace of a non-square matrix")
        acc = Polynomial.zero(self.table)
        for i in range(self.rows):
            acc = acc + self.get(i, i)
        return acc

    def determinant(self, order: MonomialOrder = GREVLEX) -> Polynomial:
        """Fraction-free (Bareiss) determinant over the polynomial ring."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            raise DimensionError("determinant of an empty matrix")
        a = [list(self.row(i)) for i in range(n)]
        table = self.table
        sign = 1
        prev = Polynomial.one(table)
        for k in range(n - 1):
            if a[k][k].is_zero():
                for i in range(k + 1, n):
                    if not a[i][k].is_zero():
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return Polynomial.zero(table)
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                    a[i][j] = num.divexact(prev, order)
                a[i][k] = Polynomial.zero(table)
            prev = a[k][k]
        det = a[n - 1][n - 1]
        return det if sign == 1 else -det
