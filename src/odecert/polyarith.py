"""Exact multivariate polynomial arithmetic over the rationals.

A :class:`Polynomial` is the one exact polynomial type of the package: a
sparse map from exponent vectors to nonzero integer numerators over one
positive common denominator, kept in lowest terms, so equality of
(numerators, denominator) is equality of polynomials (canonical form).
Exponent vectors ("monomials") are plain tuples of non-negative ints whose
length is the ambient variable count of the owning :class:`VarTable`.
Ring operations and substitution run in integers, with one gcd pass per
result; the Groebner engine in ``ideals`` reduces the numerator maps
directly, with each monomial packed into one int.  A ``Fraction`` is built
only where a caller asks for one:
``terms``, ``leading``, ``constant_value`` and ``evaluate``; rendering
reads each numerator over ``den``, in lowest terms by one gcd.

Evaluation runs in integers too.  A :class:`ScaledPoint` holds a rational
point as integer numerators over one positive common denominator, and a
polynomial caches, on first evaluation, its terms homogenised by total
degree D, so that den * point.den^D * p(point) is one integer sum whose
sign is the sign of the polynomial there.  Each term is its coefficient
times the point's integers raised to the term's exponents, the
denominator's being the term's missing degree: an exponent of 1 is one
multiplication and a larger one a ``**``; no power tables are kept, since
a sampled point meets only a few low-degree polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, le, mul, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DimensionError, InputError, NonPolynomialError, ResourceError

Mono = tuple  # exponent vector; one entry per VarTable slot

# largest total degree a power may reach: x^k costs about k^n terms
MAX_DEGREE = 1000

# most term pairs (len(a) * len(b), summed over the pairs) one call of
# ``sum_of_products`` or ``substitute`` may multiply, checked before each
MAX_TERM_PRODUCTS = 250_000

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


# monomial products unrolled for one to three variables, in a fifth of the
# time of tuple(map(add, a, b)): the kernel of every polynomial product
_UNROLLED_MUL = {1: lambda a, b: (a[0] + b[0],),
                 2: lambda a, b: (a[0] + b[0], a[1] + b[1]),
                 3: lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2])}


def mono_multiplier(n: int) -> Callable[[Mono, Mono], Mono]:
    """``mono_mul`` for monomials of n variables, unrolled for n <= 3."""
    return _UNROLLED_MUL.get(n, mono_mul)


def mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def _grevlex_descending(m: Mono):
    """Sort key that lists monomials in decreasing grevlex order: higher
    total degree first, then, among equal degrees, the smaller exponent of
    the last variable, then of the one before it, and so on."""
    return (-sum(m), m[::-1])


def within_digit_cap(n: int) -> int:
    """n; ResourceError when n has more than ``MAX_DIGITS`` digits."""
    if -_DIGIT_BOUND < n < _DIGIT_BOUND:
        return n
    raise ResourceError(f"an integer of more than {MAX_DIGITS} digits exceeds the digit cap")


def decimal(n: int) -> str:
    """``str(n)`` within the digit cap."""
    return str(within_digit_cap(n))


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

def _factors(exps: Sequence[int]) -> tuple[tuple, tuple]:
    """How evaluation multiplies the integers of a point (its numerators,
    then its denominator) raised to ``exps``: (the indices whose exponent
    is 1, multiplied in; (index, exponent) for each larger exponent, raised
    with ``**``)."""
    return (tuple(i for i, e in enumerate(exps) if e == 1),
            tuple((i, e) for i, e in enumerate(exps) if e > 1))


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

    # _terms, _evals, _vars, _restricts, _text, _row (the reducer row of
    # ideals.reduce_mod) and _roots (the rational roots of a one-variable
    # boundary atom, of sampling.project_to_boundary) are caches that stay
    # unset until first use, so arithmetic (the Groebner hot path) pays
    # nothing for them
    __slots__ = ("table", "nums", "den", "_hash", "_terms", "_evals", "_vars",
                 "_restricts", "_text", "_row", "_roots")

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

    def sorted_variables(self) -> tuple[int, ...]:
        """The indices of the variables p depends on, increasing; built on
        first use."""
        try:
            return self._vars
        except AttributeError:
            self._vars = tuple(sorted(self.variables()))
            return self._vars

    def leading(self) -> tuple[Mono, Fraction]:
        """The grevlex leading monomial and its coefficient."""
        if not self.nums:
            raise InputError("zero polynomial has no leading term")
        m = min(self.nums, key=_grevlex_descending)
        return m, Fraction(self.nums[m], self.den)

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """The terms in decreasing grevlex order."""
        return sorted(self.terms.items(), key=lambda t: _grevlex_descending(t[0]))

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
        """p^k by repeated squaring from p itself, not from one: ``p ** 1``
        multiplies nothing, and ``p ** 0`` is one."""
        if not isinstance(k, int) or k < 0:
            raise NonPolynomialError("non-polynomial: negative or non-integer exponent")
        check_power(self.total_degree(), k)
        if not k:
            return Polynomial.one(self.table)
        base = self
        while not k & 1:
            base, k = base * base, k >> 1
        result = base
        while k > 1:
            base, k = base * base, k >> 1
            if k & 1:
                result = result * base
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

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.nums[min(self.nums, key=_grevlex_descending)]
        return self if lead == self.den else self.scale(Fraction(self.den, lead))

    # -- calculus / evaluation ------------------------------------------------

    def substitute(self, subst: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Simultaneously replace variables (by index) with polynomials: each
        term adds its numerator times the powers of its substituted variables,
        shifted by its kept exponents, into one integer map over one common
        denominator.  q ** e is raised once per (variable, exponent), for
        e >= 2 only, in order of first use; the term pairs multiplied (one for
        a term with no substituted variable) are counted over the call."""
        if not subst:
            return self
        for i, q in subst.items():
            self._require_same_table(q)
            if not 0 <= i < len(self.table):
                raise InputError(f"variable index {i} out of range")
        powers, tops = {}, dict.fromkeys(subst, 0)
        for m in self.nums:
            for i, q in subst.items():
                if m[i] and (i, m[i]) not in powers:
                    powers[i, m[i]] = q if m[i] == 1 else q ** m[i]
                    tops[i] = max(tops[i], m[i])
        if not powers:  # no term has a substituted variable: one pair each
            check_term_products(min(len(self.nums), MAX_TERM_PRODUCTS + 1))
            return self
        keep = tuple(i not in subst for i in range(len(self.table)))
        den = prod([subst[i].den ** e for i, e in tops.items()])  # den(q^e) = den(q)^e
        res, products, times = {}, 0, mono_multiplier(len(self.table))
        for m, c in self.nums.items():
            kept, factors = tuple(map(mul, m, keep)), [powers[i, m[i]] for i in subst if m[i]]
            if not factors:
                products += 1
                check_term_products(products)
                res[kept] = res.get(kept, 0) + c * den
                continue
            part = {kept: c * (den // prod([p.den for p in factors]))}
            for j, p in enumerate(factors, 1 - len(factors)):
                products += len(part) * len(p.nums)
                check_term_products(products)
                out = {} if j else res  # the last factor adds into res
                get = out.get
                for m1, c1 in part.items():
                    for m2, c2 in p.nums.items():
                        m = times(m1, m2)
                        out[m] = get(m, 0) + c1 * c2
                part = out
        return Polynomial.from_ints(self.table, {m: v for m, v in res.items() if v},
                                    self.den * den)

    def _eval_table(self) -> tuple[int, tuple]:
        """(D, terms) for the total degree D (0 for zero) and one entry
        (c_m, ones, powers) per term, the ``_factors`` of m followed by
        den's exponent D - |m|; built on first use."""
        try:
            return self._evals
        except AttributeError:
            degree = max(self.total_degree(), 0)
            self._evals = (degree, tuple((c, *_factors(m + (degree - sum(m),)))
                                         for m, c in self.nums.items()))
            return self._evals

    def scaled_value(self, point: "ScaledPoint") -> int:
        """den * point.den^D * p(point) for the total degree D: an integer
        with the sign of p at the point, as both factors are positive.  It
        is sum_m nums[m] * point.nums^m * point.den^(D - |m|)."""
        ints = point.ints
        if len(ints) != len(self.table.names) + 1:
            raise DimensionError("point dimension does not match variable count")
        total = 0
        for c, ones, powers in self._eval_table()[1]:
            for i in ones:
                c *= ints[i]
            for i, e in powers:
                c *= ints[i] ** e
            total += c
        return total

    def restrict_to_variable(self, var: int, point: "ScaledPoint") -> dict[int, int]:
        """Integer coefficients, by power of x_var, of a positive multiple
        (den * point.den^D) of p with every other variable set to the
        point's value; zero coefficients dropped.  It has the roots in x_var
        of the exact restriction."""
        ints = point.ints
        if len(ints) != len(self.table.names) + 1:
            raise DimensionError("point dimension does not match variable count")
        out: dict[int, int] = {}
        for k, rows in self._restriction_table(var):
            total = 0
            for c, ones, powers in rows:
                for i in ones:
                    c *= ints[i]
                for i, e in powers:
                    c *= ints[i] ** e
                total += c
            if total:
                out[k] = total
        return out

    def _restriction_table(self, var: int) -> tuple:
        """Per power k of x_var, in order of first appearance, (k, rows)
        with one row (c_m, ones, powers) per term where m_var = k: the
        ``_factors`` of m with m_var moved to den's exponent, which is
        D - |m| + k; built on first use for each var."""
        try:
            tables = self._restricts
        except AttributeError:
            tables = self._restricts = {}
        table = tables.get(var)
        if table is None:
            degree = self._eval_table()[0]
            groups: dict[int, list] = {}
            for m, c in self.nums.items():
                k = m[var]
                exps = m[:var] + (0,) + m[var + 1:] + (degree - sum(m) + k,)
                groups.setdefault(k, []).append((c, *_factors(exps)))
            table = tables[var] = tuple((k, tuple(rows)) for k, rows in groups.items())
        return table

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

    def divexact(self, d: "Polynomial") -> "Polynomial":
        """Exact quotient self/d; raises if d does not divide self exactly."""
        self._require_same_table(d)
        if d.is_zero():
            raise InputError("division by the zero polynomial")
        quot = Polynomial.zero(self.table)
        rem = self
        dm, dc = d.leading()
        one = Polynomial.one(self.table)
        while not rem.is_zero():
            rm, rc = rem.leading()
            if not mono_divides(dm, rm):
                raise InputError("inexact polynomial division")
            t = one.mul_term(rc / dc, mono_div(rm, dm))
            quot = quot + t
            rem = rem - d * t
        return quot

    # -- text rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms in decreasing grevlex order, explicit * and
        ^, rationals as num/den (e.g. ``-1/2*u^2 - 1/2*v^2``); built once
        and kept."""
        try:
            return self._text
        except AttributeError:
            self._text = self._render()
            return self._text

    def _render(self) -> str:
        """Each coefficient is its numerator over ``den``, brought to lowest
        terms by one gcd; ``decimal`` writes them only if one may pass the
        digit cap."""
        if not self.nums:
            return "0"
        names, nums, den = self.table.names, self.nums, self.den
        write = str if max(den, *map(abs, nums.values())) < _DIGIT_BOUND else decimal
        parts: list[str] = []
        for m in sorted(nums, key=_grevlex_descending):
            v = nums[m]
            g = gcd(v, den)
            num, d = abs(v) // g, den // g
            body = "*".join([name if e == 1 else f"{name}^{e}"
                             for name, e in zip(names, m) if e])
            if not body or num != d:  # d == 1 == num is the coefficient 1
                coef = write(num) if d == 1 else write(num) + "/" + write(d)
                body = coef + "*" + body if body else coef
            parts.append((" - " if v < 0 else " + ") + body)
        text = "".join(parts)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self) -> str:
        return f"<poly {self.render()}>"


def check_term_products(products: int) -> None:
    """ResourceError when ``products`` term pairs pass ``MAX_TERM_PRODUCTS``."""
    if products > MAX_TERM_PRODUCTS:
        raise ResourceError(f"a product of {products} term pairs exceeds "
                            f"the term cap {MAX_TERM_PRODUCTS}")


def sum_of_products(table: VarTable, pairs: Iterable[tuple[Polynomial, Polynomial]]
                    ) -> Polynomial:
    """sum of a * b over the (a, b) pairs: every product is added into one
    integer map over a common denominator, with one gcd pass at the end.

    ResourceError before the product of a pair is built when the term
    pairs (len(a) * len(b)) summed over it and the pairs before it pass
    ``MAX_TERM_PRODUCTS``, so no call multiplies more term pairs than
    that; every ``*`` and each squaring or multiply of ``**`` comes
    through here.  InputError when an operand's table is not ``table``:
    exponent vectors of another length would be added up wrongly."""
    checked = []
    for a, b in pairs:
        if (a.table is not table or b.table is not table) and \
                not a.table == table == b.table:
            raise InputError("operands use different variable tables")
        if a.nums and b.nums:
            checked.append((a, b))
    pairs = checked
    den = lcm(*(a.den * b.den for a, b in pairs))
    res: dict = {}
    get = res.get
    products, times = 0, mono_multiplier(len(table))
    for a, b in pairs:
        products += len(a.nums) * len(b.nums)
        check_term_products(products)
        f = den // (a.den * b.den)
        bn = b.nums.items()
        for m1, c1 in a.nums.items():
            c1 *= f
            for m2, c2 in bn:
                m = times(m1, m2)
                res[m] = get(m, 0) + c1 * c2
    return Polynomial.from_ints(table, {m: v for m, v in res.items() if v}, den)



def sum_of_squares(table: VarTable, polys: Iterable[Polynomial]) -> Polynomial:
    """One polynomial that vanishes exactly where all of ``polys`` do, over
    the reals: the lone nonzero one, else the sum of the squares of the
    nonzero ones (zero for none)."""
    nonzero = [p for p in polys if p]
    if len(nonzero) == 1:
        return nonzero[0]
    return sum_of_products(table, ((p, p) for p in nonzero))

class ScaledPoint:
    """A rational point x_i = nums[i] / den over one positive common
    denominator, with no power tables (see the module docstring).  ``ints``
    is the numerators followed by ``den``, the integers that evaluation
    multiplies."""

    __slots__ = ("nums", "den", "ints")

    def __init__(self, nums: Sequence[int], den: int):
        self.nums = nums = tuple(nums)
        self.den = den
        self.ints = nums + (den,)

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

    def determinant(self) -> Polynomial:
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
                    a[i][j] = num.divexact(prev)
                a[i][k] = Polynomial.zero(table)
            prev = a[k][k]
        det = a[n - 1][n - 1]
        return det if sign == 1 else -det
