"""Floating-point series ratio, convergents and the convergence table."""

import json
import math

import pytest

from rrcf.core import convergent
from rrcf.numeric import (
    ConvergenceReport,
    NonConvergent,
    NumericBreakdown,
    NumericPoint,
    cf_numeric,
    convergence_demo,
    series_ratio_entry15,
)

DESK_POINT = NumericPoint(q=0.1, lam=1.0, b=0.5)

# Self-oracle regression value at (q, lambda, b) = (0.1, 1, 0.5): truncation
# levels K = 50 and K = 60 agree bit for bit (see test below), so the shared
# value is frozen here.
SERIES_RATIO_REGRESSION = 1.09434493054267

GRID = [
    NumericPoint(q=q, lam=lam, b=b)
    for q in (0.05, 0.1, 0.3)
    for lam in (-0.5, 1.0)
    for b in (0.0, 0.5, 2.0)
]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_point_rejects_non_finite_coordinates(bad):
    for coords in ((bad, 1.0, 1.0), (0.5, bad, 1.0), (0.5, 1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            NumericPoint(*coords)


def test_point_requires_q_inside_unit_interval():
    with pytest.raises(NonConvergent):
        NumericPoint(q=1.0, lam=1.0, b=0.0)
    with pytest.raises(NonConvergent):
        NumericPoint(q=-1.2, lam=0.0, b=0.0)


def test_series_ratio_lambda_zero_is_one():
    assert series_ratio_entry15(NumericPoint(q=0.4, lam=0.0, b=2.0), 50) == 1.0


def test_series_ratio_q_zero_is_one():
    assert series_ratio_entry15(NumericPoint(q=0.0, lam=3.0, b=1.0), 50) == 1.0


def test_series_ratio_self_oracle_and_regression():
    r50 = series_ratio_entry15(DESK_POINT, 50)
    r60 = series_ratio_entry15(DESK_POINT, 60)
    assert abs(r50 - r60) <= 1e-14 * abs(r50)
    assert r50 == SERIES_RATIO_REGRESSION


def test_series_ratio_truncation_stability_on_grid():
    for pt in GRID:
        a = series_ratio_entry15(pt, 50)
        b = series_ratio_entry15(pt, 60)
        assert math.isclose(a, b, rel_tol=1e-13), pt


def test_cf_numeric_depth_one_by_hand():
    assert math.isclose(cf_numeric(DESK_POINT, 1), 1.0 + 0.1 / 1.05, rel_tol=1e-15)


def test_cf_numeric_lambda_zero_is_one():
    pt = NumericPoint(q=0.6, lam=0.0, b=1.5)
    for n in (1, 5, 40):
        assert cf_numeric(pt, n) == 1.0


def test_cf_numeric_validates_n():
    with pytest.raises(ValueError):
        cf_numeric(DESK_POINT, 0)


def test_cf_numeric_breakdown_on_vanishing_tail():
    # b = -1/q makes the innermost tail 1 + b q exactly zero at n = 1
    with pytest.raises(NumericBreakdown):
        cf_numeric(NumericPoint(q=0.5, lam=1.0, b=-2.0), 1)


def test_series_ratio_breakdown_at_pole():
    # b = -q^(-j) zeroes the factor 1 + b q^j of (-bq;q)_k for every k >= j
    for q, b in ((0.5, -2.0), (0.5, -4.0), (-0.5, 2.0)):
        pt = NumericPoint(q=q, lam=1.0, b=b)
        with pytest.raises(NumericBreakdown, match="pole"):
            series_ratio_entry15(pt, 50)
        with pytest.raises(NumericBreakdown):
            convergence_demo(pt, 10)


def test_exact_matches_numeric_at_desk_point():
    for n in range(1, 13):
        exact = convergent(n).eval_numeric(DESK_POINT.q, DESK_POINT.lam, DESK_POINT.b)
        assert math.isclose(exact, cf_numeric(DESK_POINT, n), rel_tol=1e-12), n


def test_exact_matches_numeric_on_grid():
    for n in range(1, 13):
        exact_rf = convergent(n)
        for pt in GRID:
            exact = exact_rf.eval_numeric(pt.q, pt.lam, pt.b)
            approx = cf_numeric(pt, n)
            assert math.isclose(exact, approx, rel_tol=1e-10), (pt, n)


def test_demo_desk_point_converges_below_1e12():
    report = convergence_demo(DESK_POINT, 40, 50)
    assert report.final_deviation() < 1e-12
    assert report.final_deviation() < DESK_POINT.compare_tol
    assert report.series_ratio == SERIES_RATIO_REGRESSION


def test_demo_larger_q_converges_below_1e10():
    report = convergence_demo(NumericPoint(q=0.5, lam=1.0, b=1.0), 60, 80)
    assert report.final_deviation() < 1e-10


def test_demo_deviations_decrease_until_float_floor():
    for pt in GRID:
        rows = convergence_demo(pt, 30, 60).rows
        for i in range(4, len(rows) - 5):
            if rows[i].deviation > 1e-14:
                assert rows[i + 5].deviation < rows[i].deviation, (pt, rows[i].n)


def test_demo_lambda_zero_deviations_exactly_zero():
    report = convergence_demo(NumericPoint(q=0.3, lam=0.0, b=0.7), 10, 50)
    assert report.series_ratio == 1.0
    assert all(r.convergent == 1.0 and r.deviation == 0.0 for r in report.rows)


def test_report_includes_truncation_level():
    report = convergence_demo(DESK_POINT, 5, 50)
    assert 1 <= report.truncation_terms <= 50
    assert all(r.deviation >= 0.0 for r in report.rows)


def test_report_csv_layout():
    report = convergence_demo(DESK_POINT, 3, 50)
    lines = report.to_csv().splitlines()
    assert lines[0] == "n,convergent,deviation"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == report.rows[0].convergent


def test_report_json_round_trip():
    report = convergence_demo(DESK_POINT, 6, 50)
    data = json.loads(json.dumps(report.to_json()))
    assert ConvergenceReport.from_json(data) == report
