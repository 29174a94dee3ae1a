"""Exact convergents of Ramanujan's generalized Rogers-Ramanujan continued fraction.

The package computes the convergents of

    1+b + lq/(1+bq) + lq^2/(1+bq^2) + ... + lq^n/(1+bq^n)

both as exact rational functions in (q, l, b) via the sum formula
(1+b) g_n(0)/g_n(1) and directly from the fraction, verifies the identities
connecting the two (plus the b = 0 reduction to Entry 16 and the
Al-Salam-Ismail polynomial relation) with exact arithmetic, and demonstrates
numeric convergence to the underlying series ratio for |q| < 1.

The top level exports what the README's Library example uses; every other
public name is imported from its submodule (``rrcf.poly``, ``rrcf.qpoch``,
``rrcf.core``, ``rrcf.numeric``, ``rrcf.verify``).
"""

from .core import CFSpec, cf_finite_backward, convergent, g, mu, nu
from .poly import B, ONE

__version__ = "0.1.0"

__all__ = ["B", "CFSpec", "ONE", "cf_finite_backward", "convergent", "g", "mu", "nu"]
