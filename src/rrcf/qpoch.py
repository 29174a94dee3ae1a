"""q-binomials.

The Gaussian binomial ``[a, k]_q = (q;q)_a / ((q;q)_k (q;q)_(a-k))`` is a
polynomial in q.  It is built on one list of q-coefficients, from
``[a-k, 0] = 1``: step i multiplies by ``1 - q^(a-k+i)`` and divides by
``1 - q^i``, and what it leaves is ``[a-k+i, i]``, a polynomial, so every
division is exact.  Each step is one pass over the list; a multiply by
``1 - q^m`` subtracts the list shifted by m, and a divide by ``1 - q^i``
adds back the quotient shifted by i.

Everything is a pure function of its arguments.  One memo table, a
thread-safe ``lru_cache`` bounded at ``_Q_BINOMIAL_CACHE_SIZE`` entries,
holds the q-binomials; the bound is enough for every entry that depths
n <= 20 use, so each q-binomial is built once.  Every argument must be
exactly an ``int`` (a bool or a float raises ``TypeError``), and the table
is typed, so a cached ``3`` never answers for ``3.0``.
"""

from __future__ import annotations

from functools import lru_cache

from .poly import Polynomial

__all__ = ["q_binomial"]

# Every g, g_difference, mu and nu at depths n <= 20 uses 131 q-binomials.
_Q_BINOMIAL_CACHE_SIZE = 1024


def _require_ints(**args: object) -> None:
    for name, value in args.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


@lru_cache(maxsize=_Q_BINOMIAL_CACHE_SIZE, typed=True)
def q_binomial(a: int, k: int) -> Polynomial:
    """The Gaussian binomial [a, k]_q for 0 <= k <= a, a polynomial in q."""
    _require_ints(a=a, k=k)
    if not 0 <= k <= a:
        raise IndexError(f"q-binomial needs 0 <= k <= a, got a={a}, k={k}")
    k = min(k, a - k)
    c = [1]
    for i in range(1, k + 1):
        m = a - k + i
        c.extend([0] * m)
        for t in range(len(c) - 1, m - 1, -1):  # times 1 - q^m
            c[t] -= c[t - m]
        for t in range(i, len(c)):  # over 1 - q^i
            c[t] += c[t - i]
        del c[len(c) - i :]
    return Polynomial._raw({(e, 0, 0): x for e, x in enumerate(c) if x})
