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

The module also evaluates the continued fraction itself, both by the backward
recurrence and by the classical three-term forward recurrence (an independent
oracle, cross-checked through the determinant identity), and builds the
Al-Salam-Ismail orthogonal polynomial U_n(x; a, b) whose specialization
U_n(1; bq, -l*q^2) equals g_n(1) * (-bq;q)_n.

Every term of these sums is a q-binomial over a product of factors
(1 + b*q^j) whose range is known from the summation index, so each sum is
built as one polynomial numerator over its common denominator and
normalised once, with no rational-function arithmetic per term.  The
denominator is handed to RationalFunction as its j-ranges, not as an
expanded product, so the ratios and differences of g values that the
identities take cancel those factors by exponent counts instead of
cross-multiplying and dividing.

All functions are pure; g is memoized behind a thread-safe cache bounded at
``_G_CACHE_SIZE`` entries, enough for every g_n(s) with n <= 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .poly import B, L, ONE, ZERO, Polynomial, Q, RationalFunction
from .qpoch import poch_neg_bq, q_binomial

__all__ = [
    "CFSpec",
    "ConvergentPair",
    "mu",
    "nu",
    "g",
    "g_difference",
    "cf_finite_backward",
    "cf_convergents_forward",
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
    # Term k has denominator (-bq^s;q)_k (-bq^(n-k+1);q)_k.  The two j-ranges
    # [s, s+k-1] and [n-k+1, n] are disjoint since 2k <= n-s+1, and both grow
    # with k, so the last term's denominator is the common one.
    top = (n - s + 1) // 2
    num = ZERO
    for k in range(top + 1):
        cofactor = poch_neg_bq(s + k, top - k) * poch_neg_bq(n - top + 1, top - k)
        num = num + Polynomial.monomial(k * k + s * k, k) * q_binomial(n - k - s + 1, k) * cofactor
    return RationalFunction._factored(num, den_runs=((s, top), (n - top + 1, top)))


def g(n: int, s: int) -> RationalFunction:
    """The generalized convergent sum g_n(s).

    sum_{k=0}^{floor((n-s+1)/2)} q^(k^2+sk) l^k [n-k-s+1, k]_q
      / ((-bq^s;q)_k (-bq^(n-k+1);q)_k),

    where the second factorial is (-bq;q)_n / (-bq;q)_{n-k}.  Valid for
    1 <= n and 0 <= s <= n+1 (the range the recursion and its endpoints
    use); anything else raises.  The sum is built over its common
    denominator, a product of distinct factors (1 + b*q^j), and normalised
    once.
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
    step.  As in g, the last term's denominator is the common one.
    """
    _require_positive(n)
    if not 0 <= s <= n - 1:
        raise ValueError(f"s must satisfy 0 <= s <= n-1, got s={s} with n={n}")
    top = (n - s + 1) // 2
    num = ZERO
    for k in range(1, top + 1):
        cofactor = poch_neg_bq(s + k + 1, top - k) * poch_neg_bq(n - top + 2, top - k)
        num = num + Polynomial.monomial(k * k + s * k, k) * q_binomial(n - k - s, k - 1) * cofactor
    return RationalFunction._factored(num, den_runs=((s, top + 1), (n - top + 2, top - 1)))


@dataclass(frozen=True)
class CFSpec:
    """The finite continued fraction of depth n, as explicit entry sequences.

    leading = 1+b, partial numerator a_j = l*q^j and partial denominator
    b_j = 1 + b*q^j for j = 1..depth.  The constructor re-derives every entry
    from its index and rejects anything that deviates.
    """

    depth: int
    leading: Polynomial
    partial_numerators: tuple[Polynomial, ...]
    partial_denominators: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        _require_positive(self.depth, "depth")
        if len(self.partial_numerators) != self.depth or len(self.partial_denominators) != self.depth:
            raise ValueError("entry sequences must have exactly `depth` elements")
        if self.leading != ONE + B:
            raise ValueError("leading entry must be 1 + b")
        for j in range(1, self.depth + 1):
            if self.partial_numerators[j - 1] != L * Q**j:
                raise ValueError(f"partial numerator {j} must be l*q^{j}")
            if self.partial_denominators[j - 1] != ONE + B * Q**j:
                raise ValueError(f"partial denominator {j} must be 1 + b*q^{j}")

    @classmethod
    def standard(cls, n: int) -> "CFSpec":
        _require_positive(n)
        return cls(
            depth=n,
            leading=ONE + B,
            partial_numerators=tuple(L * Q**j for j in range(1, n + 1)),
            partial_denominators=tuple(ONE + B * Q**j for j in range(1, n + 1)),
        )


@dataclass(frozen=True)
class ConvergentPair:
    """Numerator/denominator polynomials of the j-th convergent."""

    index: int
    num: Polynomial
    den: Polynomial


def _assert_unit_constant(t: RationalFunction) -> None:
    # every backward tail evaluates to 1 at q = l = b = 0, so no tail can be
    # the zero function and the symbolic recurrence cannot divide by zero
    if not t.num.constant_coeff == t.den.constant_coeff != 0:
        raise ArithmeticError(f"backward tail {t} does not evaluate to 1 at q = l = b = 0")


def cf_finite_backward(spec: CFSpec) -> RationalFunction:
    """Evaluate the continued fraction innermost-tail-first.

    T_n = b_n, then T_j = b_j + a_{j+1}/T_{j+1} down to T_0 = leading + a_1/T_1.
    """
    t = RationalFunction(spec.partial_denominators[-1])
    _assert_unit_constant(t)
    for j in range(spec.depth - 1, 0, -1):
        t = spec.partial_denominators[j - 1] + spec.partial_numerators[j] / t
        _assert_unit_constant(t)
    t = spec.leading + spec.partial_numerators[0] / t
    _assert_unit_constant(t)
    return t


def cf_convergents_forward(spec: CFSpec) -> list[ConvergentPair]:
    """Convergent pairs (P_j, Q_j) from the three-term forward recurrence.

    P_{-1} = 1, Q_{-1} = 0, P_0 = leading, Q_0 = 1, and
    P_j = b_j P_{j-1} + a_j P_{j-2} (Q alike).  P_n/Q_n agrees with
    cf_finite_backward; the determinant identity
    P_j Q_{j-1} - P_{j-1} Q_j = (-1)^(j-1) l^j q^(j(j+1)/2) pins both down.
    """
    p_prev, q_prev = ONE, ZERO
    p_cur, q_cur = spec.leading, ONE
    pairs = [ConvergentPair(0, p_cur, q_cur)]
    for j in range(1, spec.depth + 1):
        aj = spec.partial_numerators[j - 1]
        bj = spec.partial_denominators[j - 1]
        p_cur, p_prev = bj * p_cur + aj * p_prev, p_cur
        q_cur, q_prev = bj * q_cur + aj * q_prev, q_cur
        pairs.append(ConvergentPair(j, p_cur, q_cur))
    return pairs


def convergent(n: int) -> RationalFunction:
    """The n-th convergent 1 + lq/(1+bq) + ... + lq^n/(1+bq^n).

    Computed from the sum formula as (1+b) * g_n(0)/g_n(1) - b.
    """
    _require_positive(n)
    return (ONE + B) * g(n, 0) / g(n, 1) - B


def asi_u(n: int) -> RationalFunction:
    """Al-Salam-Ismail polynomial U_n(x; a, b'), specialized at x=1, a=bq, b'=-l*q^2.

    U_n(x;a,b') = sum_{k=0}^{floor(n/2)} (-a;q)_{n-k} (q;q)_{n-k}
        / ((-a;q)_k (q;q)_k (q;q)_{n-2k}) * x^(n-2k) (-b')^k q^(k(k-1)),
    which under the specialization has k-th term
    l^k q^(k^2+k) [n-k, k]_q (-bq;q)_{n-k}/(-bq;q)_k, that is the polynomial
    l^k q^(k^2+k) [n-k, k]_q (-bq^(k+1);q)_{n-2k}.  The sum is a polynomial,
    returned as a RationalFunction with denominator 1, and satisfies
    asi_u(n) == g(n,1) * (-bq;q)_n.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    num = ZERO
    for k in range(n // 2 + 1):
        num = num + Polynomial.monomial(k * k + k, k) * q_binomial(n - k, k) * poch_neg_bq(k + 1, n - 2 * k)
    return RationalFunction(num)
