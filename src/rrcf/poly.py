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
  (ordering q, then l, then b) is positive; the monomial 1 sorts first, so
  a denominator with a constant term is signed by it, and only one without
  needs a search for its smallest monomial;
* every factor ``f_j = 1 + b*q^j`` that the value names (see below) and
  that the other side also holds is cancelled.

No other common factor is looked for, and no general multivariate gcd is
performed: every denominator built by this library is a known product of
f_j (a q-binomial is a polynomial, so no 1 - q^j reaches a denominator),
and equality is decided by cross-multiplication, so correctness never
depends on how far a quotient was reduced.  A quotient built by hand, such
as ``(1 - q^2)/(1 - q)`` or ``((1 + b*q^2)(1 + l))/((1 + b*q^2)(1 - l))``,
keeps its common factor and still equals ``1 + q`` or ``(1 + l)/(1 - l)``.

Internally a rational function is ``res_num * prod f_j^e / res_den`` over
the factors ``f_j = 1 + b*q^j``: a signed exponent map ``{j: e}`` and one
residual polynomial per side.  The map holds the f_j a value names.
Callers that know their denominators (the g sums of :mod:`rrcf.core`) hand
their factors over as runs (m, k) of (-bq^m;q)_k, and an operand that is
an integer multiple of some f_j names that f_j, ``{j: 1}``.  After the
content is divided out, normalisation takes two steps:

1. the exponents of each f_j on the two sides are summed, so named factors
   cancel by counting;
2. each f_j that the map still names, with e != 0, is cancelled against
   the other side's residual as long as it divides it.  An f_j that only
   the residuals hold is not looked for.

Divisibility is decided exactly, in one pass over a residual's terms,
before anything is divided: f_j divides P exactly when P vanishes at
b = -q^-j.  One screen rules out the whole family at once: every f_j
vanishes at q = 1, b = -1.  Only then is f_j divided out, by synthetic
division in ascending b-degree, which cannot fail.

The f_j are irreducible and pairwise coprime, so when every f_j common to
the two sides is named, the expanded ``num`` and ``den`` are the same
polynomials that cancelling every common f_j of the fully expanded
products gives; every value the identities build is such a value.  A
polynomial input is the case of an empty map, which takes the same path.
``num`` and ``den`` are expanded on first use, one f_j at a time by shift
and add, and cached on the value.  Equality compares the internal forms,
then the expanded ``num`` and ``den``, and cross-multiplies only when both
differ; ``RationalFunction._cross`` takes those steps for ``==`` and for
``verify.compare``, which renders a failing witness from the two cross
products it formed, so a failing compare multiplies once.

Only two values skip ``_normal_form``: the backward fraction ``A_0/A_1``
of ``core.cf_finite_backward``, whose continuants are coprime and have
constant term 1, and a negation, which keeps a normal form normal.  Every
other value is normalised, a polynomial over 1 and a sum with a polynomial
included.

The continued fraction is built on polynomials alone.  ``_step(p, j, r, k)``
is ``f_j*p + l*q^k*r`` in one pass over the terms of p and r; the forward
pairs (P_j, Q_j), the backward continuant of ``core.cf_finite_backward``
and the recursion descent of ``rrcf.verify`` are each a chain of such
steps.

Substituting b = 0 needs no expansion either: every f_j is 1 there, so
the residuals alone give the value.

A product of two polynomials takes one of three paths.  A product with 1
is the other operand, and a one-term factor shifts every key.  A product
of at least ``_KRONECKER_MIN_PAIRS`` = 2048 term pairs whose box, the
dq * dl * db monomials its degree ranges span, has at most one slot per
``_KRONECKER_PAIRS_PER_SLOT`` = 2 term pairs is formed by Kronecker
substitution in :mod:`rrcf._kronecker`: one int per operand, a slot per
monomial of the box, one int multiply.  A slot is W bits wide: the bit
length of ``min(len_a, len_b) * max|a| * max|b|``, which bounds every
coefficient of the product, plus a sign bit, rounded up to whole bytes.
Every other product takes the loop over term pairs, which is the tests'
oracle for the Kronecker path; every product of
``rrcf verify --suite all --n-max 10`` does (the largest has 812 pairs and
a box of 4032 slots).  Both constants were measured with CPython 3.11 on a
2-vCPU host: below about 900 pairs, or at one pair per slot on operands
whose rows are dense, packing and unpacking cost more than the loop (0.75x
at 2209 pairs); at two pairs per slot the Kronecker path was 1.15x faster
at 900 pairs and 1.5x at 3000, and on the 812 x 571 terms of a failing
depth-10 ``compare`` 10x (11 ms against 107 ms).

The only scalars are ints: a ``Fraction``, like a float, is neither a
coefficient nor a ``RationalFunction`` operand, and raises ``TypeError``.
A rational constant is written as a quotient, ``RationalFunction(3, 4)``.

All values are immutable after construction (the cached expansion of a
rational function is a pure function of its fields, so a race can only
compute it twice) and all operations are pure, so everything here is safe
to use from multiple threads.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import _kronecker

__all__ = [
    "Monomial",
    "Polynomial",
    "RationalFunction",
    "DivisionByZero",
    "ZERO",
    "ONE",
    "Q",
    "L",
    "B",
]


class DivisionByZero(ZeroDivisionError):
    """A zero polynomial or rational function appeared as a divisor."""


class Monomial(NamedTuple):
    """Exponent triple q^eq * l^el * b^eb.  Compares lexicographically."""

    eq: int
    el: int
    eb: int


_UNIT_MONO = Monomial(0, 0, 0)

# The gate of the Kronecker path, measured as the module docstring says.
_KRONECKER_MIN_PAIRS = 2048
_KRONECKER_PAIRS_PER_SLOT = 2

_VAR_INDEX = {"q": 0, "l": 1, "b": 2}


def _var_index(var: str) -> int:
    try:
        return _VAR_INDEX[var]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown variable {var!r}: expected q, l or b") from None


def _check_term(mono, key: tuple, c) -> None:
    # exactly int: a bool is an int, and a float exponent would be truncated
    if any(type(x) is not int for x in key):
        raise TypeError(f"exponents of monomial {mono!r} are not all ints")
    if type(c) is not int:
        raise TypeError(f"coefficient {c!r} of monomial {mono!r} is not an int")
    if key[0] < 0 or key[1] < 0 or key[2] < 0:
        raise ValueError(f"negative exponent in monomial {mono!r}")


class Polynomial:
    """Immutable sparse polynomial in q, l, b with integer coefficients."""

    # _screen: the f_j family screen, set by _passes_screen when first needed
    __slots__ = ("_terms", "_screen")

    def __init__(self, terms: Mapping[tuple, int] | Iterable[tuple] | None = None):
        store: dict[tuple, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, c in items:
                eq, el, eb = key = tuple(mono)
                _check_term(mono, key, c)
                if c == 0:
                    continue
                s = store.get(key, 0) + c
                if s:
                    store[key] = s
                else:
                    del store[key]
        self._terms = store

    @classmethod
    def _raw(cls, terms: dict[tuple, int]) -> "Polynomial":
        # internal: terms already canonical (int coefficients, no zeros)
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        _check_term(_UNIT_MONO, _UNIT_MONO, c)
        return cls._raw({_UNIT_MONO: c} if c else {})

    @classmethod
    def monomial(cls, eq: int, el: int = 0, eb: int = 0, coeff: int = 1) -> "Polynomial":
        key = (eq, el, eb)
        _check_term(key, key, coeff)
        return cls._raw({key: coeff} if coeff else {})

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
        i = _var_index(var)
        if not self._terms:
            return -1
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
        # a constant equals its int (ZERO equals 0), so it must hash as that int
        terms = self._terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and _UNIT_MONO in terms:
            return hash(terms[_UNIT_MONO])
        return hash(frozenset(terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({k: -c for k, c in self._terms.items()})

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
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
        if type(other) is int:  # a bool is not a coefficient
            if other == 0:
                return ZERO
            return Polynomial._raw({k: v * other for k, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        # values are immutable, so a product with 1 is the other operand
        # itself; ONE * p is p also when p equals 1
        if other._terms == ONE._terms and self is not ONE:
            return self
        if self._terms == ONE._terms:
            return other
        if not self._terms or not other._terms:
            return ZERO
        a, bt = self._terms, other._terms
        if len(a) < len(bt):
            a, bt = bt, a
        if len(bt) == 1:
            # a one-term factor shifts every key: no two collide, no product is 0
            ((sq, sl, sb), cb), = bt.items()
            return Polynomial._raw({(aq + sq, al + sl, ab + sb): ca * cb for (aq, al, ab), ca in a.items()})
        # a large product whose box is dense enough: one int multiply
        pairs = len(a) * len(bt)
        if pairs >= _KRONECKER_MIN_PAIRS:
            box = _kronecker.product_box(a, bt)
            if box[3] * box[4] * box[5] * _KRONECKER_PAIRS_PER_SLOT <= pairs:
                return Polynomial._raw(_kronecker.product(a, bt, box))
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
        if type(n) is not int:  # as for a monomial's exponents: a bool or a float is rejected
            raise TypeError(f"exponent {n!r} is not an int")
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
        return RationalFunction(self) / other

    # -- evaluation and substitution ----------------------------------------

    def eval_exact(self, q: int, lam: int, b: int) -> int:
        """The value at integer q, l, b; kept here, as perfbench's workload checks call it."""
        return sum(c * q**eq * lam**el * b**eb for (eq, el, eb), c in self._terms.items())

    def substitute(self, var: str, value: int) -> "Polynomial":
        """Set one variable to an integer constant."""
        if type(value) is not int:  # as in the constructor, a bool is rejected
            raise TypeError(f"substitute takes an int, got {value!r}")
        i = _var_index(var)
        if value == 0:  # 0**0 is 1: the terms free of var stay, the rest vanish
            return Polynomial._raw({k: c for k, c in self._terms.items() if not k[i]})
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
        terms, keys = self._terms, sorted(self._terms)
        # joined in runs of _RENDER_RUN terms, so that no list holds every term's text
        runs = range(0, len(keys), _RENDER_RUN)
        return " + ".join(" + ".join(_term_text(k, terms[k]) for k in keys[i:i + _RENDER_RUN]) for i in runs)

    def __repr__(self) -> str:
        return f"Polynomial('{self}')"

    def to_terms_json(self) -> list[dict]:
        """Terms in monomial order, coefficients as decimal strings."""
        return [
            {"c": str(c), "q": eq, "l": el, "b": eb}
            for (eq, el, eb), c in sorted(self._terms.items())
        ]


_RENDER_RUN = 256  # terms per run that Polynomial.__str__ joins


def _term_text(key: tuple, c: int) -> str:
    """One term as __str__ writes it: 3*q^2*b, q*l, -b, or the bare coefficient."""
    factors = [name if e == 1 else f"{name}^{e}" for name, e in zip("qlb", key) if e]
    if not factors:
        return str(c)
    if c == 1:
        return "*".join(factors)
    if c == -1:
        return "-" + "*".join(factors)
    return str(c) + "*" + "*".join(factors)


ZERO = Polynomial._raw({})
ONE = Polynomial._raw({_UNIT_MONO: 1})
Q = Polynomial._raw({(1, 0, 0): 1})
L = Polynomial._raw({(0, 1, 0): 1})
B = Polynomial._raw({(0, 0, 1): 1})


def _leads_negative(p: Polynomial) -> bool:
    """Whether the coefficient at p's lexicographically smallest monomial is negative.

    The monomial 1 sorts first, so a constant term decides without a scan.
    """
    c = p._terms.get(_UNIT_MONO)
    if c is None:
        c = p._terms[min(p._terms)]
    return c < 0


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


def _factor_index(p: Polynomial) -> int | None:
    """j if p is an integer multiple c*f_j = c + c*b*q^j, else None."""
    t = p._terms
    c = t.get(_UNIT_MONO)
    if len(t) != 2 or c is None:
        return None
    for (eq, el, eb), d in t.items():
        if (el, eb, d) == (0, 1, c):
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
    """p * prod f_j^e over the exponents e > 0 of a signed map, one f_j at a time."""
    for j, e in exps.items():
        for _ in range(e):
            p = _step(p, j, ZERO, 0)
    return p


def _step(p: Polynomial, j: int, r: Polynomial, k: int) -> Polynomial:
    """f_j*p + l*q^k*r, one continuant step: p, p shifted by b*q^j and r shifted by l*q^k, in one pass.

    With r = ZERO it is the product p * f_j.
    """
    out = dict(p._terms)
    get = out.get
    for part, sq, sl, sb in ((p, j, 0, 1), (r, k, 1, 0)):
        for (eq, el, eb), c in part._terms.items():
            key = (eq + sq, el + sl, eb + sb)
            s = get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
    return Polynomial._raw(out)


def _divide_factor(p: Polynomial, j: int) -> Polynomial:
    """p / f_j for an f_j that divides p, by synthetic division in ascending b-degree.

    The quotient at b^eb is p's part at b^eb less the quotient at b^(eb-1)
    shifted by q^j.  That shift can place terms that p lacks, so each level
    is carried into the next.
    """
    levels: dict[int, dict[tuple, int]] = {}
    for (eq, el, eb), c in p._terms.items():
        levels.setdefault(eb, {})[(eq, el)] = c
    out: dict[tuple, int] = {}
    prev: dict[tuple, int] = {}
    for eb in range(max(levels)):  # the quotient's b-degree is one less than p's
        cur = levels.get(eb, {})
        for (eq, el), c in prev.items():
            key = (eq + j, el)
            s = cur.get(key, 0) - c
            if s:
                cur[key] = s
            else:
                del cur[key]
        for (eq, el), c in cur.items():
            out[(eq, el, eb)] = c
        prev = cur
    return Polynomial._raw(out)


# -- normal form ---------------------------------------------------------------


def _vanishes_at_factor_roots(p: Polynomial) -> bool:
    """Whether p vanishes at q = 1, b = -1, where every f_j and so every multiple of one vanishes."""
    acc: dict[int, int] = {}
    for (_, el, eb), c in p._terms.items():
        acc[el] = acc.get(el, 0) + (-c if eb & 1 else c)
    return not any(acc.values())


def _passes_screen(p: Polynomial) -> bool:
    """_vanishes_at_factor_roots(p), computed once per polynomial and kept on it."""
    try:
        return p._screen
    except AttributeError:
        p._screen = screen = _vanishes_at_factor_roots(p)
        return screen


def _split_exps(
    exps_a: Mapping[int, int], exps_b: Mapping[int, int]
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    # take min(e_a, e_b) of each f_j out of both terms of a sum: each
    # numerator is multiplied only by the factors the other term lacks
    common: dict[int, int] = {}
    own_a: dict[int, int] = {}
    own_b: dict[int, int] = {}
    for j in exps_a.keys() | exps_b.keys():
        ea, eb = exps_a.get(j, 0), exps_b.get(j, 0)
        common[j] = m = min(ea, eb)
        own_a[j], own_b[j] = ea - m, eb - m
    return own_a, own_b, common


def _normal_form(
    num: Polynomial, den: Polynomial, exps: Mapping[int, int]
) -> tuple[Polynomial, Polynomial, dict[int, int]]:
    """Normal form of num * prod f_j^e / den, as (residual num, residual den, exponents).

    The caller has already summed the exponents of each f_j into one signed
    e, so factors named on both sides have cancelled by counting (step 1).
    Step 2 cancels each f_j the map still names (e != 0) against the other
    side's residual, as long as it divides it: a residual is tested only
    when it passes the family screen, and then by ``_factor_divides``.
    Then the sign rule.  No other common factor is looked for: an f_j that
    only the two residuals hold stays on both sides, as does a 1 - q^j.
    """
    if den.is_zero:
        raise DivisionByZero("rational function with zero denominator")
    if num.is_zero:
        return ZERO, ONE, {}
    res = list(_normalize_content(num, den))
    kept = {}
    for j, e in exps.items():
        # f_j^e stands over the denominator's residual when e > 0, the numerator's when e < 0
        i, step = (1, -1) if e > 0 else (0, 1)
        while e and _passes_screen(res[i]) and _factor_divides(j, res[i]):
            res[i] = _divide_factor(res[i], j)
            e += step
        if e:
            kept[j] = e
    # each f_j has content 1, so by Gauss's lemma cancelling them leaves
    # the joint content at 1
    num, den = res
    if _leads_negative(den):
        num, den = -num, -den
    return num, den, kept


class RationalFunction:
    """Quotient of two polynomials, normalized but not fully reduced.

    Internally a value is ``res_num * prod f_j^e / res_den`` with
    f_j = 1 + b*q^j: a signed exponent map ``{j: e}`` and one residual
    polynomial on each side.  Factors a caller knows (the ``_factored``
    constructor, which takes runs (m, k) of (-bq^m;q)_k, or an operand that
    is an integer multiple of some f_j) stay in the map, so products,
    quotients and sums of such values cancel them by exponent arithmetic;
    a named f_j also cancels against the other side's residual.  Everything
    else lives in the residuals, and an f_j hidden in both of them stays.
    The public ``num`` and ``den`` multiply the map's factors back in on
    first use and are cached; when every common f_j is named they are
    exactly the normal form of the expanded inputs.

    Every operation normalises its result except a negation, which keeps a
    normal form normal; the only other value built without normalising is
    the backward fraction ``A_0/A_1`` of ``core.cf_finite_backward``.

    Equality first compares the two internal forms, then the expanded
    ``num`` and ``den``, and cross-multiplies only when both differ, so two
    representations of the same function compare equal regardless of
    remaining common factors.
    """

    __slots__ = ("_rnum", "_rden", "_exps", "_num", "_den")

    def __init__(self, num: Polynomial | int, den: Polynomial | int = ONE):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(num)
        if not isinstance(den, Polynomial):
            den = Polynomial.constant(den)
        # an operand c*f_j names its f_j, so that only c is left in the residual
        exps: dict[int, int] = {}
        j = _factor_index(num)
        if j is not None:
            num, exps[j] = Polynomial.constant(num.constant_coeff), 1
        j = _factor_index(den)
        if j is not None:
            den, exps[j] = Polynomial.constant(den.constant_coeff), exps.get(j, 0) - 1
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
        if isinstance(value, Polynomial) or type(value) is int:
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

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        own_a, own_b, common = _split_exps(self._exps, o._exps)
        num_a, num_b = _times_factors(self._rnum, own_a), _times_factors(o._rnum, own_b)
        if self._den_exps() == o._den_exps() and self._rden == o._rden:
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
        return RationalFunction._from_exps(self._rnum * o._rnum, self._times_exps(o, 1), self._rden * o._rden)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("division by zero rational function")
        return RationalFunction._from_exps(self._rnum * o._rden, self._times_exps(o, -1), self._rden * o._rnum)

    def __rtruediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def _cross(self, o: "RationalFunction") -> tuple[Polynomial, Polynomial] | None:
        """None when the internal forms or the expanded num and den match, else (num * o.den, o.num * den)."""
        if self._exps == o._exps and self._rnum == o._rnum and self._rden == o._rden:
            return None
        if self.num == o.num and self.den == o.den:
            return None
        return self.num * o.den, o.num * self.den

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        cross = self._cross(o)
        return cross is None or cross[0] == cross[1]

    # canonical form is not unique, so no hash can agree with __eq__
    __hash__ = None

    # -- substitution, rendering ----------------------------------------------

    def substitute(self, var: str, value: int) -> "RationalFunction":
        # every f_j is 1 at b = 0, so the residuals stand for num and den there
        num, den = (self._rnum, self._rden) if var == "b" and value == 0 else (self.num, self.den)
        den = den.substitute(var, value)
        if den.is_zero:
            raise DivisionByZero(f"denominator vanishes at {var}={value}")
        return RationalFunction(num.substitute(var, value), den)

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction('{self}')"

    def to_json(self) -> dict:
        return {"num": self.num.to_terms_json(), "den": self.den.to_terms_json()}
