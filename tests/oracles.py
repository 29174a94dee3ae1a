"""Slow, general reference routines that the library's one-pass kernels are tested against.

``exact_div`` is multivariate long division, for any divisor; the library
divides only by f_j = 1 + b*q^j, by synthetic division, after an exact
divisibility test.  ``poch_q`` is the q-rising factorial (q^m;q)_k as a plain
product of its factors; the library builds q-binomials on one coefficient
list and forms no such product.  So ``exact_div(poch_q(k, a-k+1), poch_q(k))``
is a q-binomial found by a route that shares no code with ``rrcf.qpoch``.
``eval_polynomial`` and ``eval_rational`` evaluate an exact value in floats,
as the float oracle for ``rrcf.numeric``, which shares no code with them.
``substitute_by_terms`` sets one variable term by term, as the general
loop of ``Polynomial.substitute`` does for any value.
``cf_level_by_operators`` builds one level f_j + l*q^(j+1)/t of the
continued fraction from the generic ``RationalFunction`` operators, and
``cf_tails_by_operators`` every tail of the depth-n fraction with it; the
library builds no rational function on the way, only the polynomial
continuant A_j = f_j A_(j+1) + l*q^(j+1) A_(j+2) whose ratios A_j/A_(j+1)
are those tails, one ``poly._step`` per level.
"""

from __future__ import annotations

import heapq
import math

from rrcf.poly import B, L, ONE, ZERO, DivisionByZero, Polynomial, Q, RationalFunction


class NotDivisible(ArithmeticError):
    """Exact polynomial division was requested but leaves a remainder.

    Raised with (dividend, divisor); the message is rendered only when
    shown.
    """

    def __str__(self) -> str:
        return f"{self.args[0]} is not divisible by {self.args[1]}"


def exact_div(p: Polynomial, divisor: Polynomial) -> Polynomial:
    """Return c with c * divisor == p, or raise NotDivisible.

    Multivariate long division against the lexicographic leading term;
    exactness fails as soon as a remainder term cannot be cancelled,
    including when its coefficient is not an integer multiple of the
    divisor's leading coefficient.
    The remainder's leading monomial is tracked with a lazy max-heap.
    """
    if divisor.is_zero:
        raise DivisionByZero("exact division by zero polynomial")
    if p.is_zero:
        return ZERO
    dkey = max(divisor._terms)
    dq, dl, db = dkey
    dc = divisor._terms[dkey]
    rest = [(k, c) for k, c in divisor._terms.items() if k != dkey]
    rem = dict(p._terms)
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
            raise NotDivisible(p, divisor)
        c, r = divmod(rem.pop(rkey), dc)
        if r:
            raise NotDivisible(p, divisor)
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


def poch_q(k: int, m: int = 1) -> Polynomial:
    """(q^m;q)_k = prod_{j=0}^{k-1} (1 - q^(m+j)); the default m = 1 is (q;q)_k."""
    # range() would take a bool, and a negative k would give the empty product
    for name, value in (("k", k), ("m", m)):
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")
    if m < 0:
        raise ValueError(f"base power must be non-negative, got {m}")
    if k < 0:
        raise IndexError(f"poch index must be non-negative, got {k}")
    prod = ONE
    for j in range(m, m + k):
        prod = prod * (ONE - Q**j)
    return prod


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


def eval_polynomial(p: Polynomial, q: float, lam: float, b: float) -> float:
    """Floating-point value of p at (q, lam, b); exact coefficients, float powers."""
    pq, pl, pb = _PowerCache(q), _PowerCache(lam), _PowerCache(b)
    return math.fsum(float(c) * pq[eq] * pl[el] * pb[eb] for (eq, el, eb), c in p.terms())


def eval_rational(rf: RationalFunction, q: float, lam: float, b: float) -> float:
    """Floating-point value of rf at (q, lam, b): its numerator's over its denominator's."""
    return eval_polynomial(rf.num, q, lam, b) / eval_polynomial(rf.den, q, lam, b)


def substitute_by_terms(p: Polynomial, var: str, value: int) -> Polynomial:
    """p with ``var`` set to ``value``: each term's power of ``var`` becomes a factor of its coefficient."""
    i = "qlb".index(var)
    return Polynomial(
        (tuple(0 if k == i else e for k, e in enumerate(mono)), c * value ** mono[i]) for mono, c in p.terms()
    )


def cf_level_by_operators(j: int, t: RationalFunction) -> RationalFunction:
    """f_j + l*q^(j+1)/t with f_j = 1 + b*q^j: a polynomial plus a monomial over t."""
    return (ONE + B * Q**j) + (L * Q ** (j + 1)) / t


def cf_tails_by_operators(n: int) -> list[RationalFunction]:
    """The tails T_n = f_n, T_(n-1), ..., T_0 of the depth-n fraction, innermost first."""
    tails = [RationalFunction(ONE + B * Q**n)]
    for j in range(n - 1, -1, -1):
        tails.append(cf_level_by_operators(j, tails[-1]))
    return tails
