"""Floating-point series ratio, convergents and the convergence table."""

import json
import math
import random

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


def test_rows_are_named_tuples():
    row = convergence_demo(DESK_POINT, 3, 50).rows[1]
    assert row._fields == ("n", "convergent", "deviation")
    assert row == (2, row.convergent, row.deviation)
    assert row._replace(n=9) == (9, row.convergent, row.deviation)
    with pytest.raises(AttributeError):
        row.n = 3


def test_report_json_round_trip():
    report = convergence_demo(DESK_POINT, 6, 50)
    data = json.loads(json.dumps(report.to_json()))
    assert ConvergenceReport.from_json(data) == report


def test_series_ratio_rejects_max_terms_below_one():
    with pytest.raises(ValueError, match="max_terms must be >= 1, got 0"):
        series_ratio_entry15(DESK_POINT, 0)


def test_demo_rejects_max_terms_below_one():
    with pytest.raises(ValueError, match="max_terms must be >= 1, got 0"):
        convergence_demo(DESK_POINT, 5, 0)


def test_unconverged_series_raises_naming_k():
    # At q = 0.5 the terms fall off like q^(k^2); one term is far from enough.
    pt = NumericPoint(q=0.5, lam=1.0, b=0.5)
    with pytest.raises(NumericBreakdown, match="k=1 terms"):
        series_ratio_entry15(pt, 1)
    with pytest.raises(NumericBreakdown, match="k=3 terms"):
        convergence_demo(pt, 5, 3)
    assert convergence_demo(pt, 5, 50).truncation_terms < 50


# -- the shared coefficient table against the per-row recurrence -------------------


def _reference_cf(pt, n):
    """The n-th convergent by a fresh backward recurrence with its own powers."""
    q, lam, b = pt.q, pt.lam, pt.b
    t = 1.0 + b * q**n
    for j in range(n - 1, 0, -1):
        if abs(t) < 1e-280:
            raise NumericBreakdown(f"tail T_{j + 1} vanished at (q={q}, lam={lam}, b={b})")
        t = 1.0 + b * q**j + lam * q ** (j + 1) / t
    if abs(t) < 1e-280:
        raise NumericBreakdown(f"tail T_1 vanished at (q={q}, lam={lam}, b={b})")
    return 1.0 + lam * q / t


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NumericBreakdown as exc:
        return (type(exc), str(exc))


def _oracle_points():
    rng = random.Random(20161)
    points = [
        NumericPoint(q=rng.uniform(-0.9, 0.9), lam=rng.uniform(-2.0, 2.0), b=rng.uniform(-2.0, 2.0))
        for _ in range(2000)
    ]
    for _ in range(200):  # within 1e-9 of the pole b = -q^(-j)
        q = rng.choice((-1, 1)) * rng.uniform(0.3, 0.9)
        b = -(q ** -rng.randint(1, 6)) + rng.uniform(-1e-9, 1e-9)
        points.append(NumericPoint(q=q, lam=rng.uniform(-2.0, 2.0), b=b))
    # Rows that break down: dyadic q makes every product below exact.
    for q in (0.5, -0.5, 0.25):
        for j in (8, 13, 20, 35, 60):  # b = -q^(-j) zeroes T_j; the series stops before that pole
            points.append(NumericPoint(q=q, lam=rng.uniform(-2.0, 2.0), b=-(q**-j)))
        for b in (1.0, 0.5, -0.5):  # lam zeroes T_1 = (1+bq) + lam q^2/(1+bq^2) at n = 2
            points.append(NumericPoint(q=q, lam=-(1.0 + b * q) * (1.0 + b * q * q) / (q * q), b=b))
    return points


ORACLE_N_MAX = 60


def test_shared_table_is_bit_identical_to_per_row_recurrence():
    broken = 0
    for pt in _oracle_points():
        expected = [_outcome(_reference_cf, pt, n) for n in range(1, ORACLE_N_MAX + 1)]
        assert [_outcome(cf_numeric, pt, n) for n in range(1, ORACLE_N_MAX + 1)] == expected, pt
        failures = [e for e in expected if isinstance(e, tuple)]
        if failures:
            # the demo stops at the first row that breaks down, with that row's error
            assert _outcome(convergence_demo, pt, ORACLE_N_MAX, 50) == failures[0], pt
            broken += 1
            continue
        report = convergence_demo(pt, ORACLE_N_MAX, 50)
        assert [r.convergent for r in report.rows] == expected, pt
        assert [r.deviation for r in report.rows] == [abs(e - report.series_ratio) for e in expected], pt
    assert broken == 24


@pytest.mark.parametrize("b, tail", [(-2.0, 1), (-4.0, 2)])
def test_shared_table_breaks_down_like_per_row_recurrence(b, tail):
    # At q = 1/2, b = -2 zeroes the tail T_1 at n = 1 and b = -4 the tail T_2 at n = 2.
    pt = NumericPoint(q=0.5, lam=1.0, b=b)
    outcomes = [_outcome(cf_numeric, pt, n) for n in range(1, ORACLE_N_MAX + 1)]
    assert outcomes == [_outcome(_reference_cf, pt, n) for n in range(1, ORACLE_N_MAX + 1)]
    assert outcomes[tail - 1] == (NumericBreakdown, f"tail T_{tail} vanished at (q=0.5, lam=1.0, b={b})")
