"""Exact convergents of Ramanujan's generalized Rogers-Ramanujan continued fraction.

The package computes the convergents of

    1+b + lq/(1+bq) + lq^2/(1+bq^2) + ... + lq^n/(1+bq^n)

both as exact rational functions in (q, l, b) via the sum formula
(1+b) g_n(0)/g_n(1) and directly from the fraction, verifies the identities
connecting the two (plus the b = 0 reduction to Entry 16 and the
Al-Salam-Ismail polynomial relation) with exact arithmetic, and demonstrates
numeric convergence to the underlying series ratio for |q| < 1.
"""

from .core import (
    CFSpec,
    ConvergentPair,
    asi_u,
    cf_convergents_forward,
    cf_finite_backward,
    convergent,
    g,
    g_difference,
    mu,
    nu,
)
from .numeric import (
    ConvergenceReport,
    NonConvergent,
    NumericBreakdown,
    NumericPoint,
    cf_numeric,
    convergence_demo,
    series_ratio_entry15,
)
from .poly import (
    B,
    DivisionByZero,
    L,
    Monomial,
    NotDivisible,
    ONE,
    Polynomial,
    Q,
    RationalFunction,
    ZERO,
)
from .qpoch import poch_neg_bq, poch_q, q_binomial
from .verify import (
    InvalidRange,
    VerificationCase,
    VerificationReport,
    check_asi,
    check_b0_reduction,
    check_division_step,
    check_entry16,
    check_recursion,
    check_telescoping,
    check_theorem1,
    run_all,
)

__version__ = "0.1.0"

__all__ = [
    "B",
    "CFSpec",
    "ConvergenceReport",
    "ConvergentPair",
    "DivisionByZero",
    "InvalidRange",
    "L",
    "Monomial",
    "NonConvergent",
    "NotDivisible",
    "NumericBreakdown",
    "NumericPoint",
    "ONE",
    "Polynomial",
    "Q",
    "RationalFunction",
    "VerificationCase",
    "VerificationReport",
    "ZERO",
    "asi_u",
    "cf_convergents_forward",
    "cf_finite_backward",
    "cf_numeric",
    "check_asi",
    "check_b0_reduction",
    "check_division_step",
    "check_entry16",
    "check_recursion",
    "check_telescoping",
    "check_theorem1",
    "convergence_demo",
    "convergent",
    "g",
    "g_difference",
    "mu",
    "nu",
    "poch_neg_bq",
    "poch_q",
    "q_binomial",
    "run_all",
    "series_ratio_entry15",
]
