"""Exact multivariate polynomial arithmetic over the rationals.

A :class:`Polynomial` is the one exact polynomial type of the package: a
sparse map from exponent vectors to nonzero integer numerators over one
positive common denominator, kept in lowest terms, so equality of
(numerators, denominator) is equality of polynomials (canonical form).
Exponent vectors ("monomials") are plain tuples of non-negative ints whose
length is the ambient variable count of the owning :class:`VarTable`.
Ring operations, derivatives and substitution run in integers, with one gcd
pass per result; the Groebner engine in ``ideals`` reduces the numerator
maps directly.  A ``Fraction`` is built only where a caller asks for one:
``terms``, ``leading``, ``constant_value``, ``evaluate`` and rendering.

Evaluation runs in integers too.  A :class:`ScaledPoint` holds a rational
point as integer numerators over one positive common denominator, and a
polynomial caches, on first evaluation, its terms homogenised by total
degree D, so that den * point.den^D * p(point) is one integer sum whose
sign is the sign of the polynomial there.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, InputError, NonPolynomialError, ResourceError

Mono = tuple  # exponent vector; one entry per VarTable slot

# largest total degree a power may reach: x^k costs about k^n terms
MAX_DEGREE = 1000

# most decimal digits of an integer literal or of a rendered numerator or
# denominator; below CPython's 4300-digit default limit on int/str
# conversion, so no Python version decides where text stops
MAX_DIGITS = 4000
_DIGIT_BOUND = 10 ** MAX_DIGITS


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


def decimal(n: int) -> str:
    """``str(n)``; ResourceError when n has more than ``MAX_DIGITS`` digits."""
    if -_DIGIT_BOUND < n < _DIGIT_BOUND:
        return str(n)
    raise ResourceError(f"an integer of more than {MAX_DIGITS} digits exceeds the digit cap")


def _decimal_fraction(c: Fraction) -> str:
    """``str(c)`` within the digit cap."""
    if c.denominator == 1:
        return decimal(c.numerator)
    return decimal(c.numerator) + "/" + decimal(c.denominator)


def check_power(degree: int, k: int) -> None:
    """Raise ResourceError unless the k-th power of a polynomial of total
    degree ``degree`` (-1 for zero) stays within ``MAX_DEGREE``, in its
    degree and in its exponent alike."""
    if k > 1 and degree * k > MAX_DEGREE:
        raise ResourceError(f"power of degree {degree} * {k} exceeds "
                            f"the degree cap {MAX_DEGREE}")
    if k > MAX_DEGREE:
        raise ResourceError(f"exponent {k} exceeds the degree cap {MAX_DEGREE}")


# ---------------------------------------------------------------------------

def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise InputError(f"coefficients must be exact rationals, got {type(c).__name__}")


class Polynomial:
    """Canonical sparse multivariate polynomial over Q.

    The polynomial is sum_m nums[m] * x^m / den: ``nums`` maps exponent
    vectors to nonzero integers and ``den`` is a positive integer with
    gcd(den, nums) = 1.  That form is unique, so two polynomials over the
    same table are equal iff their (nums, den) are equal.  Arithmetic runs
    in integers with one gcd pass per result.  ``terms`` is the same
    polynomial as a read-only map to ``Fraction`` coefficients, built on
    first read.  Instances are immutable after construction and safe to
    share.
    """

    # _terms, _evals and _text are caches that stay unset until first use,
    # so arithmetic (the Groebner hot path) pays nothing for them
    __slots__ = ("table", "nums", "den", "_hash", "_terms", "_evals", "_text")

    def __init__(self, table: VarTable, terms: Mapping[Mono, Fraction] | None = None):
        """From a map of exponent vectors to rationals (``Fraction`` or int);
        zero coefficients are dropped."""
        n = len(table)
        coeffs: dict[Mono, Fraction] = {}
        for m, c in (terms or {}).items():
            c = _as_fraction(c)
            if c == 0:
                continue
            if len(m) != n or any(e < 0 for e in m):
                raise InputError(f"bad exponent vector {m} for table of size {n}")
            m = tuple(m)
            coeffs[m] = coeffs.get(m, 0) + c
        coeffs = {m: c for m, c in coeffs.items() if c}
        # over the lcm of reduced denominators the form is already canonical
        den = lcm(*(c.denominator for c in coeffs.values()))
        self._init(table, {m: c.numerator * (den // c.denominator)
                           for m, c in coeffs.items()}, den)

    def _init(self, table: VarTable, nums: dict, den: int) -> None:
        self.table = table
        self.nums = nums
        self.den = den
        self._hash = None

    @classmethod
    def _canonical(cls, table: VarTable, nums: dict, den: int) -> "Polynomial":
        """From numerators and denominator already in canonical form."""
        p = cls.__new__(cls)
        p._init(table, nums, den)
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_ints(cls, table: VarTable, nums: dict, den: int = 1) -> "Polynomial":
        """sum_m nums[m] * x^m / den for nonzero integers ``nums`` and a
        positive ``den``, brought to lowest terms; ``nums`` is taken over."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {m: v // g for m, v in nums.items()}
                den //= g
        return cls._canonical(table, nums, den)

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return cls._canonical(table, {}, 1)

    @classmethod
    def one(cls, table: VarTable) -> "Polynomial":
        return cls._canonical(table, {mono_one(len(table)): 1}, 1)

    @classmethod
    def constant(cls, table: VarTable, c) -> "Polynomial":
        return cls(table, {mono_one(len(table)): c})

    @classmethod
    def variable(cls, table: VarTable, var) -> "Polynomial":
        i = table.index(var) if isinstance(var, str) else var
        m = tuple(1 if j == i else 0 for j in range(len(table)))
        return cls._canonical(table, {m: 1}, 1)

    # -- basic queries -------------------------------------------------------

    @property
    def terms(self) -> Mapping[Mono, Fraction]:
        """Read-only map from exponent vectors to nonzero ``Fraction``s."""
        try:
            return self._terms
        except AttributeError:
            den = self.den
            self._terms = MappingProxyType({m: Fraction(v, den)
                                            for m, v in self.nums.items()})
            return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return not self.nums or (len(self.nums) == 1 and not any(next(iter(self.nums))))

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise InputError("polynomial is not constant")
        return Fraction(sum(self.nums.values()), self.den)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.nums), default=-1)

    def variables(self) -> set[int]:
        used: set[int] = set()
        for m in self.nums:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Mono, Fraction]:
        if not self.nums:
            raise InputError("zero polynomial has no leading term")
        m = max(self.nums, key=order.key)
        return m, Fraction(self.nums[m], self.den)

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Mono, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- ring operations -----------------------------------------------------

    def _require_same_table(self, other: "Polynomial") -> None:
        if self.table is not other.table and self.table != other.table:
            raise InputError("operands use different variable tables")

    def _add(self, other: "Polynomial", sign: int) -> "Polynomial":
        self._require_same_table(other)
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        res = {m: v * fa for m, v in self.nums.items()} if fa != 1 else dict(self.nums)
        fb *= sign
        for m, v in other.nums.items():
            s = res.get(m, 0) + v * fb
            if s:
                res[m] = s
            else:
                del res[m]
        return Polynomial.from_ints(self.table, res, da * fa)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._add(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._add(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._canonical(self.table, {m: -v for m, v in self.nums.items()},
                                     self.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_table(other)
        return sum_of_products(self.table, ((self, other),))

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise NonPolynomialError("non-polynomial: negative or non-integer exponent")
        check_power(self.total_degree(), k)
        result = Polynomial.one(self.table)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        return self if c == 1 else self.mul_term(c, mono_one(len(self.table)))

    def mul_term(self, c, m: Mono) -> "Polynomial":
        """Fast multiplication by a single term c*x^m."""
        c = _as_fraction(c)
        if c == 0:
            return Polynomial.zero(self.table)
        a, b = c.numerator, c.denominator
        nums = {mono_mul(m0, m): v * a for m0, v in self.nums.items()}
        if b == 1 and a in (1, -1):
            return Polynomial._canonical(self.table, nums, self.den)
        return Polynomial.from_ints(self.table, nums, self.den * b)

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.nums[max(self.nums, key=order.key)]
        return self if lead == self.den else self.scale(Fraction(self.den, lead))

    # -- calculus / evaluation ------------------------------------------------

    def partial_derivative(self, var) -> "Polynomial":
        i = self.table.index(var) if isinstance(var, str) else var
        if not 0 <= i < len(self.table):
            raise InputError(f"variable index {i} out of range")
        # m -> m - e_i is injective on the terms with m_i > 0: no collisions
        return Polynomial.from_ints(
            self.table, {m[:i] + (m[i] - 1,) + m[i + 1:]: v * m[i]
                         for m, v in self.nums.items() if m[i]}, self.den)

    def substitute(self, subst: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Simultaneously replace variables (by index) with polynomials."""
        if not subst:
            return self
        for i, q in subst.items():
            self._require_same_table(q)
            if not 0 <= i < len(self.table):
                raise InputError(f"variable index {i} out of range")
        table = self.table
        one = Polynomial.one(table)
        pow_cache: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = subst[i] ** e
            return pow_cache[key]

        # sum_m (c_m * x^kept) * prod_i subst[i]^m_i, over one denominator
        pairs = []
        for m, c in self.nums.items():
            kept = tuple(0 if i in subst else e for i, e in enumerate(m))
            factor = one
            for i, e in enumerate(m):
                if e and i in subst:
                    factor = power(i, e) if factor is one else factor * power(i, e)
            pairs.append((Polynomial.from_ints(table, {kept: c}, self.den), factor))
        return sum_of_products(table, pairs)

    def _eval_table(self) -> tuple[int, tuple]:
        """(D, terms) for the total degree D (0 for zero) and one entry
        (c_m, D - |m|, ((i, m_i) for each m_i > 0)) per term, built on first
        use."""
        try:
            return self._evals
        except AttributeError:
            degree = max(self.total_degree(), 0)
            self._evals = (degree, tuple(
                (c, degree - sum(m), tuple((i, e) for i, e in enumerate(m) if e))
                for m, c in self.nums.items()))
            return self._evals

    def _powers(self, point: "ScaledPoint") -> tuple[tuple, list[list[int]], list[int]]:
        degree, terms = self._eval_table()
        if len(point.nums) != len(self.table):
            raise DimensionError("point dimension does not match variable count")
        if len(point.den_pows) <= degree:
            point.grow(degree)
        return terms, point.num_pows, point.den_pows

    def scaled_value(self, point: "ScaledPoint") -> int:
        """den * point.den^D * p(point) for the total degree D: an integer
        with the sign of p at the point, as both factors are positive.  It
        is sum_m nums[m] * point.nums^m * point.den^(D - |m|)."""
        terms, pows, dp = self._powers(point)
        total = 0
        for c, pad, factors in terms:
            v = c * dp[pad]
            for i, e in factors:
                v *= pows[i][e]
            total += v
        return total

    def restrict_to_variable(self, var: int, point: "ScaledPoint") -> dict[int, int]:
        """Integer coefficients, by power of x_var, of a positive multiple
        (den * point.den^D) of p with every other variable set to the
        point's value; zero coefficients dropped.  It has the roots in x_var
        of the exact restriction."""
        terms, pows, dp = self._powers(point)
        out: dict[int, int] = {}
        for c, pad, factors in terms:
            v = c
            k = 0
            for i, e in factors:
                if i == var:
                    k = e
                else:
                    v *= pows[i][e]
            out[k] = out.get(k, 0) + v * dp[pad + k]
        return {k: v for k, v in out.items() if v}

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        sp = ScaledPoint.of(point)
        value = self.scaled_value(sp)
        return Fraction(value, self.den * sp.den ** self._eval_table()[0])

    def lift(self, new_table: VarTable) -> "Polynomial":
        """Reindex into an extended table (old table must be a prefix)."""
        if new_table == self.table:
            return self
        if not self.table.is_prefix_of(new_table):
            raise InputError("lift target table does not extend the current one")
        pad = (0,) * (len(new_table) - len(self.table))
        return Polynomial._canonical(new_table, {m + pad: v for m, v in self.nums.items()},
                                     self.den)

    # -- equality / ordering helpers ------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.table == other.table
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.table.names, self.den, frozenset(self.nums.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- exact division --------------------------------------------------------

    def divexact(self, d: "Polynomial", order: MonomialOrder = GREVLEX) -> "Polynomial":
        """Exact quotient self/d; raises if d does not divide self exactly."""
        self._require_same_table(d)
        if d.is_zero():
            raise InputError("division by the zero polynomial")
        quot = Polynomial.zero(self.table)
        rem = self
        dm, dc = d.leading(order)
        one = Polynomial.one(self.table)
        while not rem.is_zero():
            rm, rc = rem.leading(order)
            if not mono_divides(dm, rm):
                raise InputError("inexact polynomial division")
            t = one.mul_term(rc / dc, mono_div(rm, dm))
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
        if not self.nums:
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
                body = _decimal_fraction(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = _decimal_fraction(mag) + "*" + "*".join(factors)
            if k == 0:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<poly {self.render()}>"


def sum_of_products(table: VarTable, pairs: Iterable[tuple[Polynomial, Polynomial]]
                    ) -> Polynomial:
    """sum of a * b over the (a, b) pairs: every product is added into one
    integer map over a common denominator, with one gcd pass at the end."""
    pairs = [(a, b) for a, b in pairs if a.nums and b.nums]
    den = lcm(*(a.den * b.den for a, b in pairs))
    res: dict = {}
    get = res.get
    for a, b in pairs:
        f = den // (a.den * b.den)
        bn = b.nums.items()
        for m1, c1 in a.nums.items():
            c1 *= f
            for m2, c2 in bn:
                m = tuple(map(add, m1, m2))
                res[m] = get(m, 0) + c1 * c2
    return Polynomial.from_ints(table, {m: v for m, v in res.items() if v}, den)


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
        out = [sum_of_products(self.table, [(self.get(i, k), other.get(k, j))
                                            for k in range(self.cols)])
               for i in range(self.rows) for j in range(other.cols)]
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
