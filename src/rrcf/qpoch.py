"""q-rising factorials for the two base shapes this library needs, and q-binomials.

``(a;q)_0 = 1`` and for k > 0, ``(a;q)_k = (1-a)(1-aq)...(1-aq^(k-1))``.
Supported bases are ``a = q^m`` and ``a = -b*q^m`` with m >= 0, which cover
``(q;q)_k``, ``(-b;q)_k``, ``(-bq;q)_k`` and ``(-bq^s;q)_k``.  A shifted base
is how a ratio of two factorials is written: ``(a;q)_(j+k) / (a;q)_j`` is
``(aq^j;q)_k``, a plain product with no division.

The Gaussian binomial ``[a, k]_q = (q;q)_a / ((q;q)_k (q;q)_(a-k))`` is a
polynomial in q; it is computed as the exact quotient
``(q^(a-k+1);q)_k / (q;q)_k``.

Everything is a pure function of its arguments; the memo table behind the
products is a thread-safe ``lru_cache`` bounded at ``_PRODUCT_CACHE_SIZE``
entries, enough for every product that depths n <= 20 use.
"""

from __future__ import annotations

from functools import lru_cache

from .poly import ONE, B, Polynomial, Q

__all__ = ["poch_q", "poch_neg_bq", "q_binomial"]

# Every g, g_difference, mu, nu and asi_u at depths n <= 20 uses 312 products.
_PRODUCT_CACHE_SIZE = 1024


@lru_cache(maxsize=_PRODUCT_CACHE_SIZE)
def _product(neg_b: bool, m: int, k: int) -> Polynomial:
    # prod_{j=m}^{m+k-1} (1 + b*q^j) if neg_b else (1 - q^j)
    if m < 0:
        raise ValueError(f"base power must be non-negative, got {m}")
    if k < 0:
        raise IndexError(f"poch index must be non-negative, got {k}")
    if k == 0:
        return ONE
    j = m + k - 1
    return _product(neg_b, m, k - 1) * (ONE + B * Q**j if neg_b else ONE - Q**j)


def poch_q(k: int, m: int = 1) -> Polynomial:
    """(q^m;q)_k = prod_{j=0}^{k-1} (1 - q^(m+j)); the default m = 1 is (q;q)_k."""
    return _product(False, m, k)


def poch_neg_bq(m: int, k: int) -> Polynomial:
    """(-b*q^m;q)_k = prod_{j=0}^{k-1} (1 + b*q^(m+j))."""
    return _product(True, m, k)


def q_binomial(a: int, k: int) -> Polynomial:
    """The Gaussian binomial [a, k]_q for 0 <= k <= a, a polynomial in q."""
    if not 0 <= k <= a:
        raise IndexError(f"q-binomial needs 0 <= k <= a, got a={a}, k={k}")
    k = min(k, a - k)
    return poch_q(k, a - k + 1).exact_div(poch_q(k))
