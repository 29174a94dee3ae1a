"""Exact sparse polynomial and rational-function arithmetic in q, l, b.

A polynomial is a finite map from monomials to nonzero integer coefficients.
Monomials are exponent triples ``(eq, el, eb)`` for the three indeterminates
``q``, ``l`` (lambda) and ``b``; exponents are non-negative.  Exponents and
coefficients are Python ``int`` (coefficients of arbitrary precision);
anything else, ``bool`` and ``float`` included, is rejected.

Rational functions are quotients of two polynomials, kept in a normal form:

* integer content divided out, so numerator and denominator have overall
  content 1;
* the denominator's coefficient at its lexicographically smallest monomial
  (ordering q, then l, then b) is positive;
* common factors from the structured set ``{1 - q^j, 1 + b*q^j}`` are
  cancelled.

No general multivariate gcd is performed: every denominator built by this
library is a product of structured factors, and equality is decided by
cross-multiplication, so correctness never depends on how far a quotient
was reduced.

Internally a rational function is ``res_num * prod f_j^e / res_den`` over
the factors ``f_j = 1 + b*q^j``: a signed exponent map ``{j: e}`` and one
residual polynomial per side.  Callers that know their denominators (the
g sums of :mod:`rrcf.core`) hand their factors over as runs (m, k) of
(-bq^m;q)_k, and an operand that is exactly some f_j becomes ``{j: 1}``.  Normalisation then
takes three steps:

1. the exponents of each f_j on the two sides are summed, so known factors
   cancel by counting;
2. each f_j is cancelled to the smaller of its multiplicities on the two
   sides, taking from the exponent map first and then from the residuals;
3. each common 1 - q^j is divided out of the residuals, for descending j
   (``_cancel_structured``), unless the residual denominator is a constant.

Divisibility is decided exactly, in one pass over a residual's terms,
before anything is divided: f_j divides P exactly when P vanishes at
b = -q^-j, and 1 - q^j divides P exactly when P with its q-exponents
reduced mod j is zero.  Two screens rule out a whole family at once: every
f_j vanishes at q = 1, b = -1, and every 1 - q^j is a multiple of 1 - q.

The f_j are irreducible, pairwise coprime and coprime to every 1 - q^k, so
the expanded ``num`` and ``den`` are the same polynomials that cancelling
the structured factors of the fully expanded products gives.  A polynomial
input is the case of an empty map, which takes the same path.  ``num`` and
``den`` are expanded on first use and cached on the value.  Equality
compares the internal forms, then the expanded ``num`` and ``den``, and
cross-multiplies only when both differ.

Two lemmas let the operations that build the continued fraction (each level
of ``core.cf_finite_backward`` and of the recursion descent is
``1+b*q^j + l*q^(j+1)/T``) skip normalisation, because the result is
already normal when the operand ``x = A/D`` is:

* a sum with a polynomial p (residual denominator 1, no negative
  exponent): ``x + p = (A + p*D)/D``.  A structured factor or an integer
  that divides D and A + p*D divides A too, and D keeps its sign; the
  common f_j are taken out as in every sum.
* a product or quotient with a monomial m: every structured factor has
  constant term 1, so none divides m.  Only the content and, when m or A
  moves into the denominator, the sign are left to fix.

``Fraction`` enters only as a ``RationalFunction`` scalar, as a constructor
argument or an arithmetic operand; it is split there into an integer
numerator and denominator, so no polynomial ever holds a rational
coefficient.

All values are immutable after construction (the cached expansion of a
rational function is a pure function of its fields, so a race can only
compute it twice) and all operations are pure, so everything here is safe
to use from multiple threads.
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
    """Exact polynomial division was requested but leaves a remainder.

    Raised with (dividend, divisor); the message is rendered only when
    shown.  Normalisation never raises it: it divides only by a factor
    already shown to divide.
    """

    def __str__(self) -> str:
        return f"{self.args[0]} is not divisible by {self.args[1]}"


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
                eq, el, eb = key = tuple(mono)
                # exactly int: a bool is an int, and a float exponent would be truncated
                if any(type(x) is not int for x in key):
                    raise TypeError(f"exponents of monomial {mono!r} are not all ints")
                if type(c) is not int:
                    raise TypeError(f"coefficient {c!r} of monomial {mono!r} is not an int")
                if eq < 0 or el < 0 or eb < 0:
                    raise ValueError(f"negative exponent in monomial {mono!r}")
                if c == 0:
                    continue
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
        if type(other) is int:  # a bool is not a coefficient
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
        if len(bt) == 1:
            # a one-term factor shifts every key: no two collide, no product is 0
            ((sq, sl, sb), cb), = bt.items()
            return Polynomial._raw({(aq + sq, al + sl, ab + sb): ca * cb for (aq, al, ab), ca in a.items()})
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
                raise NotDivisible(self, divisor)
            c, r = divmod(rem.pop(rkey), dc)
            if r:
                raise NotDivisible(self, divisor)
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
        """Inverse of to_terms_json; every coefficient and exponent must read as a decimal integer."""
        # via str, so that a float or "1/2" raises instead of being truncated
        return cls({tuple(int(str(t[v])) for v in "qlb"): int(str(t["c"])) for t in data})


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


# -- the known factors f_j = 1 + b*q^j ----------------------------------------


def _factor(j: int) -> Polynomial:
    """f_j = 1 + b*q^j."""
    return Polynomial._raw({_UNIT_MONO: 1, (j, 0, 1): 1})


def _factor_index(p: Polynomial) -> int | None:
    """j if p is exactly f_j = 1 + b*q^j, else None."""
    t = p._terms
    if len(t) != 2 or t.get(_UNIT_MONO) != 1:
        return None
    for (eq, el, eb), c in t.items():
        if (el, eb, c) == (0, 1, 1):
            return eq
    return None


def _factor_divides(j: int, p: Polynomial) -> bool:
    """Whether f_j divides p, decided in one pass over p's terms.

    f_j is linear in b and primitive over Z[q, l], so by Gauss's lemma it
    divides p exactly when p vanishes at b = -q^-j, a Laurent polynomial in
    q and l whose coefficients are collected here.
    """
    acc: dict[tuple, int] = {}
    for (eq, el, eb), c in p._terms.items():
        key = (eq - j * eb, el)
        acc[key] = acc.get(key, 0) + (-c if eb & 1 else c)
    return not any(acc.values())


def _times_factors(p: Polynomial, exps: Mapping[int, int]) -> Polynomial:
    """p * prod f_j^e over the exponents e > 0 of a signed map.

    Each layer of the map is a set of j; every run of consecutive j in it
    is one (-bq^m;q)_k from the qpoch product table.
    """
    from .qpoch import poch_neg_bq  # qpoch imports this module

    layer = {j: e for j, e in exps.items() if e > 0}
    while layer:
        js = sorted(layer)
        start = 0
        for i in range(1, len(js) + 1):
            if i == len(js) or js[i] != js[i - 1] + 1:
                p = p * poch_neg_bq(js[start], i - start)
                start = i
        layer = {j: e - 1 for j, e in layer.items() if e > 1}
    return p


# -- normal form ---------------------------------------------------------------


def _vanishes_at_factor_roots(p: Polynomial) -> bool:
    """Whether p vanishes at q = 1, b = -1, where every f_j and so every multiple of one vanishes."""
    acc: dict[int, int] = {}
    for (_, el, eb), c in p._terms.items():
        acc[el] = acc.get(el, 0) + (-c if eb & 1 else c)
    return not any(acc.values())


def _q_factor_divides(j: int, p: Polynomial) -> bool:
    """Whether 1 - q^j divides p, decided in one pass over p's terms.

    q^j - 1 is monic in q, so the remainder of p by it over Z[l, b][q] is p
    with every q-exponent reduced mod j; it divides p exactly when that
    remainder is zero.  j = 1 screens the whole family, since every
    1 - q^j is a multiple of 1 - q.
    """
    acc: dict[tuple, int] = {}
    for (eq, el, eb), c in p._terms.items():
        key = (eq % j, el, eb)
        acc[key] = acc.get(key, 0) + c
    return not any(acc.values())


def _is_unit(p: Polynomial) -> bool:
    """Whether p is a nonzero constant, which no structured factor divides."""
    return len(p) <= 1 and p.constant_coeff != 0


def _cancel_structured(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide out the common factors 1 - q^j of num and den.

    For descending j, so that e.g. a common (1-q^2) is taken out whole
    instead of losing its (1-q) part and stranding the (1+q) cofactor, and
    while den's q-degree is at least j.  Each divisibility is decided by
    ``_q_factor_divides`` behind the family screen (1 - q divides both), so
    ``exact_div`` is called only on a factor that divides.
    """
    if not (_q_factor_divides(1, den) and _q_factor_divides(1, num)):
        return num, den
    dq = den.degree("q")
    for j in range(dq, 0, -1):
        while dq >= j and _q_factor_divides(j, den) and _q_factor_divides(j, num):
            factor = Polynomial._raw({_UNIT_MONO: 1, (j, 0, 0): -1})
            num, den = num.exact_div(factor), den.exact_div(factor)
            dq -= j
    return num, den


def _normal_form(
    num: Polynomial, den: Polynomial, exps: Mapping[int, int]
) -> tuple[Polynomial, Polynomial, dict[int, int]]:
    """Normal form of num * prod f_j^e / den, as (residual num, residual den, exponents).

    The caller has already summed the exponents of each f_j into one signed
    e, so known factors on the two sides have cancelled (step 1).  Step 2
    cancels each f_j to the smaller of its multiplicities on the two sides,
    taking from the exponent map first and then from the residuals; a
    residual is tested for f_j only when it passes the family screen, and
    then by ``_factor_divides``.  Step 3 is ``_cancel_structured`` on the
    residual pair, skipped when the residual denominator is a constant.
    Then the sign rule.

    Expanded, the result is the normal form of the expanded input: the f_j
    are irreducible, pairwise coprime and coprime to every 1 - q^k, so
    moving them out of the residuals changes neither which structured
    factors are common nor the joint content (each f_j has content 1).
    """
    if den.is_zero:
        raise DivisionByZero("rational function with zero denominator")
    if num.is_zero:
        return ZERO, ONE, {}
    res = list(_normalize_content(num, den))
    # whether res[i] passes the f_j screen, computed when first needed; a
    # pass only lets the exact test run, so a division need not redo it
    screen: list[bool | None] = [None, None]

    def holds(i: int, j: int) -> bool:
        if screen[i] is None:
            screen[i] = _vanishes_at_factor_roots(res[i])
        return bool(screen[i]) and _factor_divides(j, res[i])

    def cancel(j: int, e: int) -> int:
        # a side holds f_j in the map (the sign of e) or in its residual
        while (e < 0 or holds(1, j)) and (e > 0 or holds(0, j)):
            if e <= 0:
                res[0] = res[0].exact_div(_factor(j))
            if e >= 0:
                res[1] = res[1].exact_div(_factor(j))
            e += (e < 0) - (e > 0)
        return e

    kept = {}
    for j, e in exps.items():
        e = cancel(j, e)
        if e:
            kept[j] = e
    # an f_j outside the map can only be common to the two residuals
    for j in range(res[1].degree("q"), -1, -1):
        if j not in exps:
            cancel(j, 0)
    # the structured factors have content 1, so by Gauss's lemma
    # cancelling them leaves the joint content at 1
    num, den = res
    if not _is_unit(den):
        num, den = _cancel_structured(num, den)
    if den.trailing()[1] < 0:
        num, den = -num, -den
    return num, den, kept


class RationalFunction:
    """Quotient of two polynomials, normalized but not fully reduced.

    Internally a value is ``res_num * prod f_j^e / res_den`` with
    f_j = 1 + b*q^j: a signed exponent map ``{j: e}`` and one residual
    polynomial on each side.  Factors a caller knows (the ``_factored``
    constructor, which takes runs (m, k) of (-bq^m;q)_k, or an operand that
    is exactly some f_j) stay in the map, so products, quotients and sums of
    such values cancel them by exponent arithmetic; everything else lives
    in the residuals.  The public ``num``
    and ``den`` multiply the map's factors back in on first use and are
    cached; they are exactly the normal form of the expanded inputs, so no
    output depends on how a value was split.

    A sum with a polynomial operand and a product or quotient with a
    monomial operand keep the other operand's normal form and skip
    normalisation (the two lemmas of the module docstring); every other
    operation normalises its result.

    Equality first compares the two internal forms, then the expanded
    ``num`` and ``den``, and cross-multiplies only when both differ, so two
    representations of the same function compare equal regardless of
    remaining common factors.
    """

    __slots__ = ("_rnum", "_rden", "_exps", "_num", "_den")

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
        exps: dict[int, int] = {}
        j = _factor_index(num)
        if j is not None:
            num, exps[j] = ONE, 1
        j = _factor_index(den)
        if j is not None:
            den, exps[j] = ONE, exps.get(j, 0) - 1
        self._rnum, self._rden, self._exps = _normal_form(num, den, exps)
        self._num = self._den = None

    @classmethod
    def _from_normal(cls, num: Polynomial, den: Polynomial, exps: dict[int, int]) -> "RationalFunction":
        rf = object.__new__(cls)
        rf._rnum, rf._rden, rf._exps = num, den, exps
        rf._num = rf._den = None
        return rf

    @classmethod
    def _from_exps(
        cls, num: Polynomial, exps: Mapping[int, int], den: Polynomial = ONE
    ) -> "RationalFunction":
        """num * prod f_j^e / den with f_j = 1 + b*q^j, normalised."""
        return cls._from_normal(*_normal_form(num, den, exps))

    @classmethod
    def _factored(
        cls,
        num: Polynomial,
        num_runs: Iterable[tuple[int, int]] = (),
        den_runs: Iterable[tuple[int, int]] = (),
    ) -> "RationalFunction":
        """num * prod (-bq^m;q)_k over num_runs / prod (-bq^m;q)_k over den_runs.

        For callers that know their factors: each run (m, k) is f_m ... f_(m+k-1).
        """
        exps: dict[int, int] = {}
        for sign, runs in ((1, num_runs), (-1, den_runs)):
            for m, k in runs:
                for j in range(m, m + k):
                    exps[j] = exps.get(j, 0) + sign
        return cls._from_exps(num, exps)

    @property
    def num(self) -> Polynomial:
        if self._num is None:
            self._num = _times_factors(self._rnum, self._exps)
        return self._num

    @property
    def den(self) -> Polynomial:
        if self._den is None:
            self._den = _times_factors(self._rden, self._den_exps())
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._rnum.is_zero

    # -- field operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "RationalFunction | None":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (Polynomial, Fraction)) or type(value) is int:
            return RationalFunction(value)
        return None

    def _times_exps(self, other: "RationalFunction", sign: int) -> dict[int, int]:
        # exponents of self * other**sign
        exps = dict(self._exps)
        for j, e in other._exps.items():
            exps[j] = exps.get(j, 0) + sign * e
        return exps

    def _den_exps(self) -> dict[int, int]:
        return {j: -e for j, e in self._exps.items() if e < 0}

    def _den_degrees(self) -> tuple[int, int]:
        # (b-degree, q-degree) of den, without expanding it
        exps = self._den_exps()
        return (
            self._rden.degree("b") + sum(exps.values()),
            self._rden.degree("q") + sum(j * e for j, e in exps.items()),
        )

    def _is_polynomial(self) -> bool:
        return self._rden == ONE and all(e > 0 for e in self._exps.values())

    def _is_monomial(self) -> bool:
        return len(self._rnum) == 1 and self._rden == ONE and not self._exps

    def _split_numerators(self, other: "RationalFunction") -> tuple[Polynomial, Polynomial, dict[int, int]]:
        # take min(e_self, e_other) of each f_j out of both terms: each
        # numerator is multiplied only by the factors the other term lacks
        common: dict[int, int] = {}
        own_a: dict[int, int] = {}
        own_b: dict[int, int] = {}
        for j in self._exps.keys() | other._exps.keys():
            ea, eb = self._exps.get(j, 0), other._exps.get(j, 0)
            common[j] = m = min(ea, eb)
            own_a[j], own_b[j] = ea - m, eb - m
        return _times_factors(self._rnum, own_a), _times_factors(other._rnum, own_b), common

    def _plus_polynomial(self, p: "RationalFunction") -> "RationalFunction":
        # first lemma: A/D + p = (A + p*D)/D is already normal, since
        # whatever divides D and A + p*D divides A, and D keeps its sign
        num_a, num_p, common = self._split_numerators(p)
        num = num_a + num_p * self._rden
        if num.is_zero:
            return RationalFunction._from_normal(ZERO, ONE, {})
        return RationalFunction._from_normal(num, self._rden, {j: e for j, e in common.items() if e})

    @staticmethod
    def _with_monomial(num: Polynomial, den: Polynomial, exps: dict[int, int]) -> "RationalFunction":
        # second lemma: no structured factor divides a monomial, so a normal
        # form with one side multiplied by a monomial needs only content and sign
        if num.is_zero:
            return RationalFunction._from_normal(ZERO, ONE, {})
        num, den = _normalize_content(num, den)
        if den.trailing()[1] < 0:
            num, den = -num, -den
        return RationalFunction._from_normal(num, den, exps)

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o._is_polynomial():
            return self._plus_polynomial(o)
        if self._is_polynomial():
            return o._plus_polynomial(self)
        same_split = self._den_exps() == o._den_exps()
        if not same_split and self._den_degrees() == o._den_degrees() and self.den == o.den:
            # equal denominators split differently: a residual hides a known factor
            return RationalFunction(self.num + o.num, self.den)
        num_a, num_b, common = self._split_numerators(o)
        if same_split and self._rden == o._rden:
            return RationalFunction._from_exps(num_a + num_b, common, self._rden)
        return RationalFunction._from_exps(num_a * o._rden + num_b * self._rden, common, self._rden * o._rden)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        # negating the numerator keeps a normal form normal
        return RationalFunction._from_normal(-self._rnum, self._rden, self._exps)

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
        if o._is_monomial():
            return self._with_monomial(self._rnum * o._rnum, self._rden, self._exps)
        if self._is_monomial():
            return self._with_monomial(self._rnum * o._rnum, o._rden, o._exps)
        return RationalFunction._from_exps(self._rnum * o._rnum, self._times_exps(o, 1), self._rden * o._rden)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("division by zero rational function")
        if o._is_monomial():
            return self._with_monomial(self._rnum, self._rden * o._rnum, self._exps)
        if self._is_monomial():
            return self._with_monomial(self._rnum * o._rden, o._rnum, {j: -e for j, e in o._exps.items()})
        return RationalFunction._from_exps(self._rnum * o._rden, self._times_exps(o, -1), self._rden * o._rnum)

    def __rtruediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._exps == o._exps and self._rnum == o._rnum and self._rden == o._rden:
            return True
        if self.num == o.num and self.den == o.den:
            return True
        return self.num * o.den == o.num * self.den

    # canonical form is not unique, so no hash can agree with __eq__
    __hash__ = None

    # -- evaluation, substitution, rendering ---------------------------------

    def eval_numeric(self, q: float, lam: float, b: float) -> float:
        return self.num.eval_numeric(q, lam, b) / self.den.eval_numeric(q, lam, b)

    def substitute(self, var: str, value: int) -> "RationalFunction":
        den = self.den.substitute(var, value)
        if den.is_zero:
            raise DivisionByZero(f"denominator vanishes at {var}={value}")
        return RationalFunction(self.num.substitute(var, value), den)

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction('{self}')"

    def to_json(self) -> dict:
        return {"num": self.num.to_terms_json(), "den": self.den.to_terms_json()}

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        return cls(Polynomial.from_terms_json(data["num"]), Polynomial.from_terms_json(data["den"]))
