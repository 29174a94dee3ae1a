"""Exact sparse polynomial and rational-function arithmetic in q, l, b.

A polynomial is a finite map from monomials to nonzero integer coefficients.
Monomials are exponent triples ``(eq, el, eb)`` for the three indeterminates
``q``, ``l`` (lambda) and ``b``; exponents are non-negative.  Coefficients are
arbitrary-precision Python ``int``; anything else is rejected.

Rational functions are quotients of two polynomials, kept in a normal form:

* integer content divided out, so numerator and denominator have overall
  content 1;
* the denominator's coefficient at its lexicographically smallest monomial
  (ordering q, then l, then b) is positive;
* common factors from the structured set ``{1 - q^j, 1 + b*q^j}`` are
  cancelled by trial exact division.

No general multivariate gcd is performed: every denominator built by this
library is a product of structured factors, and equality is decided by
cross-multiplication, so correctness never depends on how far a quotient
was reduced.

``Fraction`` enters only as a ``RationalFunction`` scalar, as a constructor
argument or an arithmetic operand; it is split there into an integer
numerator and denominator, so no polynomial ever holds a rational
coefficient.

All values are immutable after construction and all operations are pure, so
everything here is safe to use from multiple threads.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

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


class Polynomial:
    """Immutable sparse polynomial in q, l, b with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, int] | Iterable[tuple] | None = None):
        store: dict[tuple, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, c in items:
                eq, el, eb = mono
                if eq < 0 or el < 0 or eb < 0:
                    raise ValueError(f"negative exponent in monomial {mono!r}")
                if not isinstance(c, int):
                    raise TypeError(f"coefficient {c!r} of monomial {mono!r} is not an int")
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
                        store[key] = s
        self._terms = store

    @classmethod
    def _raw(cls, terms: dict[tuple, int]) -> "Polynomial":
        # internal: terms already canonical (int coefficients, no zeros)
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls({_UNIT_MONO: c})

    @classmethod
    def monomial(cls, eq: int, el: int = 0, eb: int = 0, coeff: int = 1) -> "Polynomial":
        return cls({(eq, el, eb): coeff})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Iterate (monomial, coefficient) pairs in ascending lexicographic order."""
        for key in sorted(self._terms):
            yield Monomial(*key), self._terms[key]

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def constant_coeff(self) -> int:
        return self._terms.get(_UNIT_MONO, 0)

    def degree(self, var: str) -> int:
        """Largest exponent of ``var`` present; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        i = _VAR_INDEX[var]
        return max(key[i] for key in self._terms)

    def trailing(self) -> tuple[Monomial, int]:
        """The term at the lexicographically smallest monomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no trailing term")
        key = min(self._terms)
        return Monomial(*key), self._terms[key]

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int):
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

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
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
                    out[key] = s
        return Polynomial._raw(out)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return Polynomial._raw({k: v * other for k, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        a, bt = self._terms, other._terms
        if len(a) < len(bt):
            a, bt = bt, a
        out: dict[tuple, int] = {}
        get = out.get
        for (aq, al, ab), ca in a.items():
            for (bq, bl, bb), cb in bt.items():
                key = (aq + bq, al + bl, ab + bb)
                prev = get(key)
                out[key] = ca * cb if prev is None else prev + ca * cb
        return Polynomial._raw({k: c for k, c in out.items() if c != 0})

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

    def __truediv__(self, other) -> "RationalFunction":
        # any divisor RationalFunction accepts, Fraction scalars included
        return RationalFunction(self) / other

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Return c with c * divisor == self, or raise NotDivisible.

        Multivariate long division against the lexicographic leading term;
        exactness fails as soon as a remainder term cannot be cancelled,
        including when its coefficient is not an integer multiple of the
        divisor's leading coefficient.
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
        out: dict[tuple, int] = {}
        while rem:
            nk = heapq.heappop(heap)
            rkey = (-nk[0], -nk[1], -nk[2])
            if rkey not in rem:
                continue
            mq, ml, mb = rkey[0] - dq, rkey[1] - dl, rkey[2] - db
            if mq < 0 or ml < 0 or mb < 0:
                raise NotDivisible(f"{self} is not divisible by {divisor}")
            c, r = divmod(rem.pop(rkey), dc)
            if r:
                raise NotDivisible(f"{self} is not divisible by {divisor}")
            out[(mq, ml, mb)] = c
            for (tq, tl, tb), tc in rest:
                key = (tq + mq, tl + ml, tb + mb)
                prev = rem.get(key)
                if prev is None:
                    rem[key] = -c * tc
                    heapq.heappush(heap, (-key[0], -key[1], -key[2]))
                else:
                    s = prev - c * tc
                    if s == 0:
                        del rem[key]
                    else:
                        rem[key] = s
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

    def eval_exact(self, q: int, lam: int, b: int) -> int:
        return sum(c * q**eq * lam**el * b**eb for (eq, el, eb), c in self._terms.items())

    def substitute(self, var: str, value: int) -> "Polynomial":
        """Set one variable to an integer constant."""
        if not isinstance(value, int):
            raise TypeError(f"substitute takes an int, got {value!r}")
        i = _VAR_INDEX[var]
        acc: dict[tuple, int] = {}
        for key, c in self._terms.items():
            newkey = list(key)
            e = newkey[i]
            newkey[i] = 0
            k = tuple(newkey)
            acc[k] = acc.get(k, 0) + c * value**e
        return Polynomial._raw({k: c for k, c in acc.items() if c != 0})

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
        """Inverse of to_terms_json; every coefficient must read as a decimal integer."""
        # via str, so that a float or "1/2" raises instead of being truncated
        return cls({(t["q"], t["l"], t["b"]): int(str(t["c"])) for t in data})


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


def _normalize_content(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide both polynomials by the gcd of all their coefficients."""
    c = math.gcd(*num._terms.values(), *den._terms.values())
    if c == 1:
        return num, den
    return (
        Polynomial._raw({k: v // c for k, v in num._terms.items()}),
        Polynomial._raw({k: v // c for k, v in den._terms.items()}),
    )


def _structured_factor_candidates(max_j: int) -> Iterator[tuple[int, Polynomial]]:
    # (j, factor) with factor of q-degree j: 1 + b*q^j for j >= 0, then
    # 1 - q^j for j >= 1.  Descending j within a family, so that e.g. a
    # common (1-q^2) is taken out whole instead of losing its (1-q) part and
    # stranding the (1+q) cofactor.
    for j in range(max_j, -1, -1):
        yield j, Polynomial._raw({_UNIT_MONO: 1, (j, 0, 1): 1})
    for j in range(max_j, 0, -1):
        yield j, Polynomial._raw({_UNIT_MONO: 1, (j, 0, 0): -1})


_FILTER_POINT = (3, 2, 2)


def _cancel_structured(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide out common factors (1 - q^j) and (1 + b*q^j) from num and den.

    A cheap integer filter rejects most non-divisors before any trial
    division: a factor that divides num and den has a value at
    ``_FILTER_POINT`` that divides both of theirs.  No candidate vanishes
    there (|1 + 2*3^j| >= 3, |1 - 3^j| >= 2), and a zero value is divisible
    by everything, so the test is a valid necessary condition at every
    value and is always applied.  The q-degree of den is tracked, not
    recomputed: exact division by a factor of q-degree j lowers it by
    exactly j.
    """
    if len(den) <= 1 and den.constant_coeff != 0:
        return num, den
    fq, fl, fb = _FILTER_POINT
    num_val = num.eval_exact(fq, fl, fb)
    den_val = den.eval_exact(fq, fl, fb)
    dq = den.degree("q")
    for j, factor in _structured_factor_candidates(dq):
        f_val = abs(factor.eval_exact(fq, fl, fb))
        while dq >= j:
            if num_val % f_val or den_val % f_val:
                break
            try:
                new_den = den.exact_div(factor)
                new_num = num.exact_div(factor)
            except NotDivisible:
                break
            num, den = new_num, new_den
            dq -= j
            num_val //= f_val
            den_val //= f_val
            if len(den) <= 1 and den.constant_coeff != 0:
                return num, den
    return num, den


class RationalFunction:
    """Quotient of two polynomials, normalized but not fully reduced.

    Equality is decided by cross-multiplication, so two representations of
    the same function compare equal regardless of remaining common factors.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: Polynomial | int | Fraction, den: Polynomial | int | Fraction = ONE):
        # the one place a Fraction is accepted: split it into integers
        if isinstance(num, Fraction):
            num, den = num.numerator, num.denominator * den
        if isinstance(den, Fraction):
            num, den = den.denominator * num, den.numerator
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
        # the structured factors have content 1, so by Gauss's lemma
        # cancelling them leaves the joint content at 1
        num, den = _cancel_structured(*_normalize_content(num, den))
        if den.trailing()[1] < 0:
            num = -num
            den = -den
        self._num = num
        self._den = den

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

    def substitute(self, var: str, value: int) -> "RationalFunction":
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
