"""Convergent formulas for the generalized Rogers-Ramanujan continued fraction.

Entry 16 of chapter 16 of Ramanujan's second notebook expresses the n-th
convergent of the Rogers-Ramanujan continued fraction as a ratio mu_n/nu_n of
two q-binomial sums.  This module implements that pair together with its
one-parameter extension g_n(s), which does the same job for the generalized
continued fraction (Entry 15)

    1+b + lq/(1+bq) + lq^2/(1+bq^2) + ... + lq^n/(1+bq^n),

written here with partial numerators a_j = l*q^j and partial denominators
b_j = 1 + b*q^j.  The headline identity, verified exactly by
:mod:`rrcf.verify`, is

    (1+b) * g_n(0) / g_n(1)  ==  the finite continued fraction above,

with g_n(n) = g_n(n+1) = 1 as the seed and the recursion

    (1+b*q^s) g_n(s)/g_n(s+1) = 1+b*q^s + l*q^(s+1) / ((1+b*q^(s+1)) g_n(s+1)/g_n(s+2))

carrying one level of the fraction per step.  At b = 0, g_n(0) and g_n(1)
reduce to mu_n and nu_n.

The module also evaluates the continued fraction itself, both by the
classical three-term forward recurrence, whose pairs P_n/Q_n are the
fractions :mod:`rrcf.verify` checks against, and by the backward continuant
A_j, which builds the same coprime pair innermost-first.  Both are chains of
one polynomial step f_j*p + l*q^k*r (``poly._step``), with no rational
function in between.  The Al-Salam-Ismail orthogonal polynomial
U_n(1; bq, -l*q^2) is that forward denominator Q_n, built from its own
three-term recurrence, and equals g_n(1) * (-bq;q)_n.

Every term of the g and g_difference sums is a q-binomial over a product of
factors f_j = 1 + b*q^j whose range is known from the summation index, so
each sum is one polynomial numerator over the last term's denominator,
normalised once.  The numerator is summed in ascending Horner form: the partial sum
is multiplied, by shift and add (``_step(p, j, ZERO, 0)``), by the f_j
that the next term's denominator adds, so no cofactor product is formed.
The denominator is handed to RationalFunction as its j-ranges, so the
ratios and differences of g values that the identities take cancel those
factors by exponent counts instead of cross-multiplying and dividing.

All functions are pure; g is memoized behind a thread-safe cache bounded at
``_G_CACHE_SIZE`` entries, enough for every g_n(s) with n <= 20.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .poly import B, ONE, ZERO, Polynomial, Q, RationalFunction, _step
from .qpoch import q_binomial

__all__ = [
    "CFSpec",
    "ConvergentPair",
    "mu",
    "nu",
    "g",
    "g_difference",
    "cf_finite_backward",
    "cf_convergents_iter",
    "convergent",
    "asi_u",
]


def _require_positive(n: int, what: str = "n") -> None:
    if n < 1:
        raise ValueError(f"{what} must be a positive integer, got {n}")


def mu(n: int) -> Polynomial:
    """Numerator sum of Entry 16: the n-th convergent numerator at b = 0.

    sum_{k=0}^{floor((n+1)/2)} q^(k^2) l^k [n-k+1, k]_q, a polynomial in q and l.
    """
    _require_positive(n)
    return sum(
        (Polynomial.monomial(k * k, k) * q_binomial(n - k + 1, k) for k in range((n + 1) // 2 + 1)),
        ZERO,
    )


def nu(n: int) -> Polynomial:
    """Denominator sum of Entry 16: sum_{k=0}^{floor(n/2)} q^(k^2+k) l^k [n-k, k]_q."""
    _require_positive(n)
    return sum(
        (Polynomial.monomial(k * k + k, k) * q_binomial(n - k, k) for k in range(n // 2 + 1)),
        ZERO,
    )


# g_n(s) for n <= 20 and 0 <= s <= n+1 is 250 entries.
_G_CACHE_SIZE = 512


@lru_cache(maxsize=_G_CACHE_SIZE)
def _g_cached(n: int, s: int) -> RationalFunction:
    # Term k has denominator (-bq^s;q)_k (-bq^(n-k+1);q)_k.  Its j-ranges
    # [s, s+k-1] and [n-k+1, n] are disjoint (2k <= n-s+1) and gain s+k-1 and
    # n-k+1 over term k-1's, so the last term's denominator is the common one.
    top = (n - s + 1) // 2
    num = ONE
    for k in range(1, top + 1):
        num = _step(_step(num, s + k - 1, ZERO, 0), n - k + 1, ZERO, 0)
        num = num + Polynomial.monomial(k * k + s * k, k) * q_binomial(n - k - s + 1, k)
    return RationalFunction._factored(num, den_runs=((s, top), (n - top + 1, top)))


def g(n: int, s: int) -> RationalFunction:
    """The generalized convergent sum g_n(s).

    sum_{k=0}^{floor((n-s+1)/2)} q^(k^2+sk) l^k [n-k-s+1, k]_q
      / ((-bq^s;q)_k (-bq^(n-k+1);q)_k),

    where the second factorial is (-bq;q)_n / (-bq;q)_{n-k}.  Valid for
    1 <= n and 0 <= s <= n+1 (the range the recursion and its endpoints
    use); anything else raises.  The sum is built over its common
    denominator, a product of distinct factors (1 + b*q^j), in Horner form,
    and normalised once.
    """
    _require_positive(n)
    if not 0 <= s <= n + 1:
        raise ValueError(f"s must satisfy 0 <= s <= n+1, got s={s} with n={n}")
    return _g_cached(n, s)


def g_difference(n: int, s: int) -> RationalFunction:
    """g_n(s) - g_n(s+1), summed term by term after the bracket collapses.

    Combining the k-th terms of the two sums over the common prefactor
    q^(k^2+sk) l^k (q;q)_{n-k-s} / ((q;q)_k (q;q)_{n-2k-s+1}
      (-bq^s;q)_{k+1} (-bq^(n-k+1);q)_k)
    leaves the bracket (1+b*q^(s+k))(1-q^(n-k-s+1)) - (1+b*q^s)(1-q^(n-2k-s+1))q^k,
    which collapses to (1+b*q^(n-k+1))(1-q^k).  The k = 0 term dies with the
    factor (1-q^k), and the remaining sum
      sum_{k>=1} q^(k^2+sk) l^k [n-k-s, k-1]_q / ((-bq^s;q)_{k+1} (-bq^(n-k+2);q)_{k-1})
    equals l*q^(s+1) / ((1+b*q^s)(1+b*q^(s+1))) * g_n(s+2), the telescoping
    step.  As in g, it is summed in Horner form over the last term's denominator.
    """
    _require_positive(n)
    if not 0 <= s <= n - 1:
        raise ValueError(f"s must satisfy 0 <= s <= n-1, got s={s} with n={n}")
    top = (n - s + 1) // 2
    num = Polynomial.monomial(s + 1, 1)
    for k in range(2, top + 1):
        num = _step(_step(num, s + k, ZERO, 0), n - k + 2, ZERO, 0)
        num = num + Polynomial.monomial(k * k + s * k, k) * q_binomial(n - k - s, k - 1)
    return RationalFunction._factored(num, den_runs=((s, top + 1), (n - top + 2, top - 1)))


class CFSpec(NamedTuple("CFSpec", [("depth", int)])):
    """The finite continued fraction of depth n.

    The depth fixes every entry: leading = 1+b, partial numerator
    a_j = l*q^j and partial denominator b_j = f_j = 1 + b*q^j for
    j = 1..depth, so the depth, exactly an int and at least 1, is the only
    field.
    """

    __slots__ = ()

    def __new__(cls, depth: int) -> "CFSpec":
        if type(depth) is not int:  # a bool is not a depth, nor is 2.0
            raise TypeError(f"depth must be an int, got {depth!r}")
        _require_positive(depth, "depth")
        return super().__new__(cls, depth)

    @classmethod
    def _make(cls, iterable) -> "CFSpec":  # and so _replace: a changed copy is checked too
        return cls(*iterable)

    @classmethod
    def standard(cls, n: int) -> "CFSpec":
        return cls(n)


class ConvergentPair(NamedTuple):
    """Numerator/denominator polynomials of the j-th convergent."""

    index: int
    num: Polynomial
    den: Polynomial


def _assert_unit_constant(t: RationalFunction) -> None:
    # the fraction evaluates to 1 at q = l = b = 0, so it is not the zero
    # function and its denominator has constant term 1
    if not t.num.constant_coeff == t.den.constant_coeff != 0:
        raise ArithmeticError(f"backward fraction {t} does not evaluate to 1 at q = l = b = 0")


def _descend(a: Polynomial, a_next: Polynomial, top: int) -> tuple[Polynomial, Polynomial]:
    """(A_0, A_1) of A_j = f_j A_(j+1) + l*q^(j+1) A_(j+2) from A_top = a, A_(top+1) = a_next."""
    for j in range(top - 1, -1, -1):
        a, a_next = _step(a, j, a_next, j + 1), a
    return a, a_next


def cf_finite_backward(spec: CFSpec) -> RationalFunction:
    """Evaluate the continued fraction innermost-tail-first, as A_0/A_1.

    Each tail T_j = f_j + l*q^(j+1)/T_(j+1), T_n = f_n, is A_j/A_(j+1) for the
    continuant from A_n = f_n, A_(n+1) = 1.  Every A_j has constant term 1,
    so gcd(A_j, A_(j+1)) = gcd(A_(j+1), A_(j+2)) = ... = gcd(f_n, 1) = 1:
    A_0/A_1 is already normal, and it is exactly the forward pair P_n/Q_n.
    """
    t = RationalFunction._from_normal(*_descend(ONE + B * Q**spec.depth, ONE, spec.depth), {})
    _assert_unit_constant(t)
    return t


def cf_convergents_iter(spec: CFSpec) -> Iterator[ConvergentPair]:
    """Convergent pairs (P_j, Q_j) for j = 0..depth, from the three-term forward recurrence.

    P_{-1} = 1, Q_{-1} = 0, P_0 = 1+b, Q_0 = 1, and
    P_j = f_j P_{j-1} + l*q^j P_{j-2} (Q alike), one ``poly._step`` each.
    P_j/Q_j is the depth-j fraction, and agrees with cf_finite_backward; the
    determinant identity
    P_j Q_{j-1} - P_{j-1} Q_j = (-1)^(j-1) l^j q^(j(j+1)/2) pins both down
    and shows that P_j and Q_j are coprime.  The pairs are made lazily, and
    the generator holds only the current and the previous one.
    """
    p_prev, q_prev = ONE, ZERO
    p_cur, q_cur = ONE + B, ONE
    yield ConvergentPair(0, p_cur, q_cur)
    for j in range(1, spec.depth + 1):
        p_cur, p_prev = _step(p_cur, j, p_prev, j), p_cur
        q_cur, q_prev = _step(q_cur, j, q_prev, j), q_cur
        yield ConvergentPair(j, p_cur, q_cur)


def convergent(n: int) -> RationalFunction:
    """The n-th convergent 1 + lq/(1+bq) + ... + lq^n/(1+bq^n).

    Computed from the sum formula as (1+b) * g_n(0)/g_n(1) - b.
    """
    _require_positive(n)
    return (ONE + B) * g(n, 0) / g(n, 1) - B


def asi_u(n: int) -> RationalFunction:
    """Al-Salam-Ismail polynomial U_n(x; a, b'), specialized at x=1, a=bq, b'=-l*q^2.

    Al-Salam and Ismail (Pacific J. Math. 104, 1983) define U_n by the
    three-term recurrence U_j = x(1 + a*q^(j-1)) U_(j-1) - b'*q^(j-2) U_(j-2)
    from U_(-1) = 0, U_0 = 1.  The specialization makes it
    U_j = (1+bq^j) U_(j-1) + l*q^j U_(j-2), the continued fraction's own
    denominator recurrence, one ``poly._step`` per level, so U_n = Q_n.
    Returned as a RationalFunction with denominator 1.  Their explicit sum
    gives U_n = g_n(1) * (-bq;q)_n, which the ``asi`` suite checks.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    u, u_prev = ONE, ZERO
    for j in range(1, n + 1):
        u, u_prev = _step(u, j, u_prev, j), u
    return RationalFunction(u)
