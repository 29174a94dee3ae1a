"""Exact sparse polynomial and rational-function arithmetic in q, l, b.

A polynomial is a finite map from monomials to nonzero rational coefficients.
Monomials are exponent triples ``(eq, el, eb)`` for the three indeterminates
``q``, ``l`` (lambda) and ``b``; exponents are non-negative.  Coefficients are
arbitrary-precision rationals, stored as plain ``int`` whenever the denominator
is 1 (the common case) and as ``Fraction`` otherwise.

Rational functions are quotients of two polynomials, kept in a normal form:

* rational content divided out, so numerator and denominator have integer
  coefficients with overall content 1;
* the denominator's coefficient at its lexicographically smallest monomial
  (ordering q, then l, then b) is positive;
* common factors from the structured set ``{1 - q^j, 1 + b*q^j}`` are
  cancelled by trial exact division.

No general multivariate gcd is performed: every denominator built by this
library is a product of structured factors, and equality is decided by
cross-multiplication, so correctness never depends on how far a quotient
was reduced.

All values are immutable after construction and all operations are pure, so
everything here is safe to use from multiple threads.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

Coeff = Union[int, Fraction]
Scalar = Union[int, Fraction]

__all__ = [
    "Monomial",
    "Polynomial",
    "RationalFunction",
    "NotDivisible",
    "DivisionByZero",
    "ZERO",
    "ONE",
    "Q",
    "L",
    "B",
]


class NotDivisible(ArithmeticError):
    """Exact polynomial division was requested but leaves a remainder."""


class DivisionByZero(ZeroDivisionError):
    """A zero polynomial or rational function appeared as a divisor."""


class Monomial(NamedTuple):
    """Exponent triple q^eq * l^el * b^eb.  Compares lexicographically."""

    eq: int
    el: int
    eb: int


_UNIT_MONO = Monomial(0, 0, 0)

_VAR_INDEX = {"q": 0, "l": 1, "b": 2}


def _norm_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _coeff_div(a: Coeff, d: Coeff) -> Coeff:
    if isinstance(a, int) and isinstance(d, int):
        q, r = divmod(a, d)
        return q if r == 0 else Fraction(a, d)
    return _norm_coeff(Fraction(a) / Fraction(d))


class Polynomial:
    """Immutable sparse polynomial in q, l, b with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, Coeff] | Iterable[tuple] | None = None):
        store: dict[tuple, Coeff] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, coeff in items:
                eq, el, eb = mono
                if eq < 0 or el < 0 or eb < 0:
                    raise ValueError(f"negative exponent in monomial {mono!r}")
                c = _norm_coeff(coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff))
                if c == 0:
                    continue
                key = (int(eq), int(el), int(eb))
                prev = store.get(key)
                if prev is None:
                    store[key] = c
                else:
                    s = prev + c
                    if s == 0:
                        del store[key]
                    else:
                        store[key] = _norm_coeff(s)
        self._terms = store

    @classmethod
    def _raw(cls, terms: dict[tuple, Coeff]) -> "Polynomial":
        # internal: terms already canonical (no zeros, normalized coeffs)
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return ONE

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls({_UNIT_MONO: c})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}, expected one of q, l, b")
        exps = [0, 0, 0]
        exps[_VAR_INDEX[name]] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def monomial(cls, eq: int, el: int = 0, eb: int = 0, coeff: Scalar = 1) -> "Polynomial":
        return cls({(eq, el, eb): coeff})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Coeff]]:
        """Iterate (monomial, coefficient) pairs in ascending lexicographic order."""
        for key in sorted(self._terms):
            yield Monomial(*key), self._terms[key]

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, eq: int, el: int = 0, eb: int = 0) -> Coeff:
        return self._terms.get((eq, el, eb), 0)

    @property
    def constant_coeff(self) -> Coeff:
        return self._terms.get(_UNIT_MONO, 0)

    def degree(self, var: str) -> int:
        """Largest exponent of ``var`` present; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        i = _VAR_INDEX[var]
        return max(key[i] for key in self._terms)

    def trailing(self) -> tuple[Monomial, Coeff]:
        """The term at the lexicographically smallest monomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no trailing term")
        key = min(self._terms)
        return Monomial(*key), self._terms[key]

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __pos__(self) -> "Polynomial":
        return self

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({k: -c for k, c in self._terms.items()})

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                s = prev + c
                if s == 0:
                    del out[key]
                else:
                    out[key] = _norm_coeff(s)
        return Polynomial._raw(out)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return ZERO
            c = _norm_coeff(other)
            return Polynomial._raw({k: _norm_coeff(v * c) for k, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        a, bt = self._terms, other._terms
        if len(a) < len(bt):
            a, bt = bt, a
        out: dict[tuple, Coeff] = {}
        get = out.get
        for (aq, al, ab), ca in a.items():
            for (bq, bl, bb), cb in bt.items():
                key = (aq + bq, al + bl, ab + bb)
                prev = get(key)
                out[key] = ca * cb if prev is None else prev + ca * cb
        return Polynomial._raw({k: _norm_coeff(c) for k, c in out.items() if c != 0})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials; use RationalFunction")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other: "Polynomial | Scalar") -> "RationalFunction":
        if isinstance(other, Polynomial):
            return RationalFunction(self, other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self, Polynomial.constant(other))
        return NotImplemented

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Return c with c * divisor == self, or raise NotDivisible.

        Multivariate long division against the lexicographic leading term;
        exactness fails as soon as a remainder term cannot be cancelled.
        The remainder's leading monomial is tracked with a lazy max-heap.
        """
        if divisor.is_zero:
            raise DivisionByZero("exact division by zero polynomial")
        if self.is_zero:
            return ZERO
        dkey = max(divisor._terms)
        dq, dl, db = dkey
        dc = divisor._terms[dkey]
        rest = [(k, c) for k, c in divisor._terms.items() if k != dkey]
        rem = dict(self._terms)
        heap = [(-k[0], -k[1], -k[2]) for k in rem]
        heapq.heapify(heap)
        out: dict[tuple, Coeff] = {}
        while rem:
            nk = heapq.heappop(heap)
            rkey = (-nk[0], -nk[1], -nk[2])
            if rkey not in rem:
                continue
            mq, ml, mb = rkey[0] - dq, rkey[1] - dl, rkey[2] - db
            if mq < 0 or ml < 0 or mb < 0:
                raise NotDivisible(f"{self} is not divisible by {divisor}")
            c = _coeff_div(rem.pop(rkey), dc)
            out[(mq, ml, mb)] = c
            for (tq, tl, tb), tc in rest:
                key = (tq + mq, tl + ml, tb + mb)
                prev = rem.get(key)
                if prev is None:
                    rem[key] = _norm_coeff(-c * tc)
                    heapq.heappush(heap, (-key[0], -key[1], -key[2]))
                else:
                    s = prev - c * tc
                    if s == 0:
                        del rem[key]
                    else:
                        rem[key] = _norm_coeff(s)
        return Polynomial._raw(out)

    # -- evaluation and substitution ----------------------------------------

    def eval_numeric(self, q: float, lam: float, b: float) -> float:
        """Floating-point value at (q, lam, b); exact coefficients, float powers."""
        if not self._terms:
            return 0.0
        parts = []
        pq = _PowerCache(q)
        pl = _PowerCache(lam)
        pb = _PowerCache(b)
        for (eq, el, eb), c in self._terms.items():
            parts.append(float(c) * pq[eq] * pl[el] * pb[eb])
        return math.fsum(parts)

    def eval_exact(self, q: Scalar, lam: Scalar, b: Scalar) -> Coeff:
        total: Coeff = 0
        for (eq, el, eb), c in self._terms.items():
            total = total + c * q**eq * lam**el * b**eb
        return _norm_coeff(total)

    def substitute(self, var: str, value: Scalar) -> "Polynomial":
        """Set one variable to an exact rational constant."""
        i = _VAR_INDEX[var]
        acc: dict[tuple, Coeff] = {}
        for key, c in self._terms.items():
            newkey = list(key)
            e = newkey[i]
            newkey[i] = 0
            scaled = c * (Fraction(value) ** e if e else 1)
            k = tuple(newkey)
            acc[k] = acc.get(k, 0) + scaled
        return Polynomial._raw({k: _norm_coeff(c) for k, c in acc.items() if c != 0})

    def content(self) -> Fraction:
        """gcd of numerators over lcm of denominators; 0 for the zero polynomial."""
        return _content(self._terms.values())

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (eq, el, eb), c in sorted(self._terms.items()):
            factors = []
            for name, e in (("q", eq), ("l", el), ("b", eb)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial('{self}')"

    def to_terms_json(self) -> list[dict]:
        """Terms in monomial order, coefficients as decimal strings."""
        return [
            {"c": str(c), "q": eq, "l": el, "b": eb}
            for (eq, el, eb), c in sorted(self._terms.items())
        ]

    @classmethod
    def from_terms_json(cls, data: Iterable[dict]) -> "Polynomial":
        return cls({(t["q"], t["l"], t["b"]): Fraction(t["c"]) for t in data})


class _PowerCache:
    """Memoized nonnegative powers of one float."""

    __slots__ = ("x", "pows")

    def __init__(self, x: float):
        self.x = float(x)
        self.pows = [1.0]

    def __getitem__(self, e: int) -> float:
        pows = self.pows
        while len(pows) <= e:
            pows.append(pows[-1] * self.x)
        return pows[e]


ZERO = Polynomial._raw({})
ONE = Polynomial._raw({_UNIT_MONO: 1})
Q = Polynomial._raw({(1, 0, 0): 1})
L = Polynomial._raw({(0, 1, 0): 1})
B = Polynomial._raw({(0, 0, 1): 1})


def _content(coeffs: Iterable[Coeff]) -> Fraction:
    g = 0
    m = 1
    for c in coeffs:
        if isinstance(c, int):
            g = math.gcd(g, abs(c))
        else:
            g = math.gcd(g, abs(c.numerator))
            m = math.lcm(m, c.denominator)
    return Fraction(g, m)


def _scale_to_int(terms: dict[tuple, Coeff], inv_content: Fraction) -> dict[tuple, Coeff]:
    num, den = inv_content.numerator, inv_content.denominator
    out: dict[tuple, Coeff] = {}
    for k, c in terms.items():
        if isinstance(c, int):
            out[k] = c * num // den
        else:
            out[k] = _norm_coeff(c * inv_content)
    return out


def _normalize_content(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide both polynomials by their joint rational content."""
    c = _content(list(num._terms.values()) + list(den._terms.values()))
    if c == 1:
        return num, den
    inv = 1 / c
    return (
        Polynomial._raw(_scale_to_int(num._terms, inv)),
        Polynomial._raw(_scale_to_int(den._terms, inv)),
    )


def _structured_factor_candidates(max_j: int) -> Iterator[Polynomial]:
    # 1 + b*q^j for j >= 0, then 1 - q^j for j >= 1.  Descending j within a
    # family, so that e.g. a common (1-q^2) is taken out whole instead of
    # losing its (1-q) part and stranding the (1+q) cofactor.
    for j in range(max_j, -1, -1):
        yield Polynomial._raw({_UNIT_MONO: 1, (j, 0, 1): 1})
    for j in range(max_j, 0, -1):
        yield Polynomial._raw({_UNIT_MONO: 1, (j, 0, 0): -1})


_FILTER_POINT = (3, 2, 2)


def _cancel_structured(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide out common factors (1 - q^j) and (1 + b*q^j) from num and den.

    A cheap integer filter (evaluation at a fixed point) rejects most
    non-divisors before any trial division is attempted.  Expects integer
    coefficients (call after content normalization).
    """
    if len(den) <= 1 and den.constant_coeff != 0:
        return num, den
    fq, fl, fb = _FILTER_POINT
    num_val = num.eval_exact(fq, fl, fb)
    den_val = den.eval_exact(fq, fl, fb)
    use_filter = num_val != 0 and den_val != 0 and isinstance(num_val, int) and isinstance(den_val, int)
    for factor in _structured_factor_candidates(den.degree("q")):
        f_val = abs(factor.eval_exact(fq, fl, fb))
        while True:
            if den.degree("q") < factor.degree("q"):
                break
            if use_filter and (num_val % f_val or den_val % f_val):
                break
            try:
                new_den = den.exact_div(factor)
                new_num = num.exact_div(factor)
            except NotDivisible:
                break
            num, den = new_num, new_den
            if use_filter:
                num_val //= f_val
                den_val //= f_val
                use_filter = num_val != 0 and den_val != 0
            if len(den) <= 1 and den.constant_coeff != 0:
                return num, den
    return num, den


class RationalFunction:
    """Quotient of two polynomials, normalized but not fully reduced.

    Equality is decided by cross-multiplication, so two representations of
    the same function compare equal regardless of remaining common factors.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: Polynomial | Scalar, den: Polynomial | Scalar = ONE):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(num)
        if not isinstance(den, Polynomial):
            den = Polynomial.constant(den)
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero:
            self._num = ZERO
            self._den = ONE
            return
        num, den = _normalize_content(num, den)
        num, den = _cancel_structured(num, den)
        num, den = _normalize_content(num, den)
        if den.trailing()[1] < 0:
            num = -num
            den = -den
        self._num = num
        self._den = den

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(ZERO)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(ONE)

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> Polynomial:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    # -- field operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "RationalFunction | None":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (Polynomial, int, Fraction)):
            return RationalFunction(value)
        return None

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._den == o._den:
            return RationalFunction(self._num + o._num, self._den)
        return RationalFunction(self._num * o._den + o._num * self._den, self._den * o._den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self._num, self._den)

    def __sub__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("division by zero rational function")
        return RationalFunction(self._num * o._den, self._den * o._num)

    def __rtruediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            if self.is_zero:
                raise DivisionByZero("negative power of zero")
            return RationalFunction(self._den, self._num) ** (-n)
        return RationalFunction(self._num**n, self._den**n)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._num == o._num and self._den == o._den:
            return True
        return self._num * o._den == o._num * self._den

    # canonical form is not unique, so no hash can agree with __eq__
    __hash__ = None

    # -- evaluation, substitution, rendering ---------------------------------

    def eval_numeric(self, q: float, lam: float, b: float) -> float:
        return self._num.eval_numeric(q, lam, b) / self._den.eval_numeric(q, lam, b)

    def substitute(self, var: str, value: Scalar) -> "RationalFunction":
        den = self._den.substitute(var, value)
        if den.is_zero:
            raise DivisionByZero(f"denominator vanishes at {var}={value}")
        return RationalFunction(self._num.substitute(var, value), den)

    def __str__(self) -> str:
        if self._den == ONE:
            return str(self._num)
        return f"({self._num})/({self._den})"

    def __repr__(self) -> str:
        return f"RationalFunction('{self}')"

    def to_json(self) -> dict:
        return {"num": self._num.to_terms_json(), "den": self._den.to_terms_json()}

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        return cls(Polynomial.from_terms_json(data["num"]), Polynomial.from_terms_json(data["den"]))
