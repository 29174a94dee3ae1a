"""Floating-point convergence demonstration for the continued fraction.

For |q| < 1 the convergents 1 + lq/(1+bq) + ... + lq^n/(1+bq^n) approach the
ratio of the two basic hypergeometric series

    sum_k q^(k^2)   l^k / ((q;q)_k (-bq;q)_k)
    --------------------------------------------- ,
    sum_k q^(k^2+k) l^k / ((q;q)_k (-bq;q)_k)

and this module tabulates that approach numerically.  The truncated series
ratio is the reference value.  It is summed term by term until a term falls
below term_stop relative to both partial sums; a series that has not met
that rule within max_terms terms raises NumericBreakdown rather than return
an unconverged value.

The convergents are evaluated by the backward recurrence in double
precision.  Its coefficients 1 + b*q^j and lam*q^(j+1) depend only on j, so
each point builds them once, as a table of 2n+1 floats read off one table of
the powers q^0..q^n (n+1 power calls), and every row of the convergence
table reads that table: n_max(n_max-1)/2 backward steps per point, with no
power calls.

A row of the table is a ``ConvergenceRow`` NamedTuple (n, convergent,
deviation): it compares equal to the plain tuple of its fields, and a
changed copy is ``row._replace(...)``, not ``dataclasses.replace``.

Everything here is scalar float math; pure functions, no shared state.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
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

TERM_STOP_DEFAULT = 1e-18
COMPARE_TOL_DEFAULT = 1e-10


class NonConvergent(ValueError):
    """The series/continued fraction requires |q| < 1."""


class NumericBreakdown(ArithmeticError):
    """No trustworthy float value at this point.

    Raised at a pole (a continued-fraction tail vanished to machine
    precision, or a factor 1 + b*q^j of the series is zero), and when the
    series has not converged within its term bound.
    """


@dataclass(frozen=True)
class NumericPoint:
    """A finite evaluation point (q, lam, b) with |q| < 1, plus tolerance knobs."""

    q: float
    lam: float
    b: float
    term_stop: float = TERM_STOP_DEFAULT
    compare_tol: float = COMPARE_TOL_DEFAULT

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.q, self.lam, self.b))):
            raise ValueError(f"q, lambda and b must be finite, got q={self.q}, lambda={self.lam}, b={self.b}")
        if not abs(self.q) < 1.0:
            raise NonConvergent(f"|q| must be < 1, got q={self.q}")


def _series_ratio_with_terms(pt: NumericPoint, max_terms: int) -> tuple[float, int]:
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    q, lam, b = pt.q, pt.lam, pt.b
    num = den = 0.0
    poch_q = poch_b = 1.0  # (q;q)_k and (-bq;q)_k, running
    q_sq = 1.0  # q^(k^2)
    q_k = 1.0  # q^k
    lam_k = 1.0  # lam^k
    used = 0
    for k in range(max_terms + 1):
        if k > 0:
            q_sq *= q_k * q_k * q  # q^(k^2) = q^((k-1)^2) * q^(2k-1)
            q_k *= q
            lam_k *= lam
            poch_q *= 1.0 - q_k
            poch_b *= 1.0 + b * q_k
        try:
            t = q_sq * lam_k / (poch_q * poch_b)
        except ZeroDivisionError:
            raise NumericBreakdown(
                f"(-bq;q)_{k} vanishes at (q={q}, lam={lam}, b={b}): b is a pole of the series"
            ) from None
        num += t
        den += t * q_k
        used = k
        if k > 0 and abs(t) < pt.term_stop * abs(num) and abs(t * q_k) < pt.term_stop * abs(den):
            break
    else:
        raise NumericBreakdown(
            f"series did not converge within k={max_terms} terms at (q={q}, lam={lam}, b={b})"
        )
    return num / den, used


def series_ratio_entry15(pt: NumericPoint, max_terms: int) -> float:
    """Ratio of the two series, both truncated after at most max_terms terms.

    Stops early once a term falls below term_stop relative to both partial
    sums, and raises NumericBreakdown if that has not happened within
    max_terms terms; |q| < 1 is enforced by NumericPoint.
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


@dataclass(frozen=True)
class ConvergenceReport:
    """Deviation of each convergent from the truncated series ratio."""

    point: NumericPoint
    series_ratio: float
    truncation_terms: int
    rows: tuple[ConvergenceRow, ...] = field(default_factory=tuple)

    def final_deviation(self) -> float:
        return self.rows[-1].deviation

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "convergent", "deviation"])
        for row in self.rows:
            writer.writerow([row.n, repr(row.convergent), repr(row.deviation)])
        return buf.getvalue()

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
    by every row.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    ratio, used = _series_ratio_with_terms(pt, max_terms)
    if not math.isfinite(ratio):
        raise NumericBreakdown(f"series ratio is not finite at (q={pt.q}, lam={pt.lam}, b={pt.b})")
    c, a = _coefficients(pt, n_max)
    rows = []
    for n in range(1, n_max + 1):
        value = _backward(pt, c, a, n)
        rows.append(ConvergenceRow(n, value, abs(value - ratio)))
    return ConvergenceReport(point=pt, series_ratio=ratio, truncation_terms=used, rows=tuple(rows))
