"""q-rising factorials (q^m;q)_k, and q-binomials.

``(a;q)_0 = 1`` and for k > 0, ``(a;q)_k = (1-a)(1-aq)...(1-aq^(k-1))``.
The supported base is ``a = q^m`` with m >= 0; ``(-bq^m;q)_k`` is never
formed, since :mod:`rrcf.poly` multiplies by one 1 + b*q^j at a time.  A
shifted base is how a ratio of two factorials is written:
``(a;q)_(j+k) / (a;q)_j`` is ``(aq^j;q)_k``, a plain product.

The Gaussian binomial ``[a, k]_q = (q;q)_a / ((q;q)_k (q;q)_(a-k))`` is a
polynomial in q; it is computed as the exact quotient
``(q^(a-k+1);q)_k / (q;q)_k``.

Everything is a pure function of its arguments.  Two memo tables, each a
thread-safe ``lru_cache`` bounded at ``_PRODUCT_CACHE_SIZE`` entries, hold
the products and the q-binomials; either bound is enough for every entry
that depths n <= 20 use, so each exact division is done once per (a, k).
Every argument must be exactly an ``int`` (a bool or a float raises
``TypeError``), and the tables are typed, so a cached ``3`` never answers
for ``3.0``.
"""

from __future__ import annotations

from functools import lru_cache

from .poly import ONE, Polynomial, Q

__all__ = ["poch_q", "q_binomial"]

# Every g, g_difference, mu, nu and asi_u at depths n <= 20 uses 99 products
# and 131 q-binomials.
_PRODUCT_CACHE_SIZE = 1024


def _require_ints(**args: object) -> None:
    for name, value in args.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


@lru_cache(maxsize=_PRODUCT_CACHE_SIZE, typed=True)
def _product(m: int, k: int) -> Polynomial:
    # prod_{j=m}^{m+k-1} (1 - q^j)
    _require_ints(m=m, k=k)
    if m < 0:
        raise ValueError(f"base power must be non-negative, got {m}")
    if k < 0:
        raise IndexError(f"poch index must be non-negative, got {k}")
    if k == 0:
        return ONE
    return _product(m, k - 1) * (ONE - Q ** (m + k - 1))


def poch_q(k: int, m: int = 1) -> Polynomial:
    """(q^m;q)_k = prod_{j=0}^{k-1} (1 - q^(m+j)); the default m = 1 is (q;q)_k."""
    return _product(m, k)


@lru_cache(maxsize=_PRODUCT_CACHE_SIZE, typed=True)
def q_binomial(a: int, k: int) -> Polynomial:
    """The Gaussian binomial [a, k]_q for 0 <= k <= a, a polynomial in q."""
    _require_ints(a=a, k=k)
    if not 0 <= k <= a:
        raise IndexError(f"q-binomial needs 0 <= k <= a, got a={a}, k={k}")
    k = min(k, a - k)
    return poch_q(k, a - k + 1).exact_div(poch_q(k))
