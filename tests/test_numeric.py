"""Floating-point series ratio, convergents and the convergence table."""

import csv
import io
import json
import math
import random

import pytest

from oracles import eval_rational
from rrcf.core import convergent
from rrcf.numeric import (
    ConvergenceReport,
    ConvergenceRow,
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
    with pytest.raises(NonConvergent):
        DESK_POINT._replace(q=1.0)


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
    for q, b, j in ((0.5, -2.0, 1), (0.5, -4.0, 2), (-0.5, 2.0, 1)):
        pt = NumericPoint(q=q, lam=1.0, b=b)
        message = f"(-bq;q)_{j} vanishes at (q={q}, lam=1.0, b={b}): b is a pole of the series"
        assert _outcome(series_ratio_entry15, pt, 50) == (NumericBreakdown, message)
        with pytest.raises(NumericBreakdown):
            convergence_demo(pt, 10)


def test_series_underflow_is_not_reported_as_pole():
    # every factor 1 + 0.5 q^k exceeds 1, but (q;q)_k underflows to 0.0 at k = 352, with the
    # partial sums still finite (at lam = 2 they overflow first, at k = 318)
    pt = NumericPoint(q=0.999, lam=1.0, b=0.5)
    message = (
        "the running products (q;q)_k (-bq;q)_k underflowed to 0 in double precision"
        " at k=352, (q=0.999, lam=1.0, b=0.5)"
    )
    assert "pole" not in message
    assert _outcome(series_ratio_entry15, pt, 20000) == (NumericBreakdown, message)
    assert _outcome(convergence_demo, pt, 5, 20000) == (NumericBreakdown, message)


@pytest.mark.parametrize(
    "q, lam, b, k",
    [
        (0.5, 1e300, 0.0, 2),  # lam^2 overflows; the inf and then nan sums used to run every term
        (0.5, -1e300, 0.0, 2),
        (0.5, 1e200, 0.0, 2),
        (0.999, 2.0, 0.5, 318),  # the terms outgrow double precision before (q;q)_k underflows
    ],
)
def test_series_overflow_stops_at_the_first_non_finite_partial_sum(q, lam, b, k):
    pt = NumericPoint(q=q, lam=lam, b=b)
    message = f"the series' partial sums overflowed double precision at k={k}, (q={q}, lam={lam}, b={b})"
    for max_terms in (k, 20000):
        assert _outcome(series_ratio_entry15, pt, max_terms) == (NumericBreakdown, message)
        assert _outcome(convergence_demo, pt, 5, max_terms) == (NumericBreakdown, message)


def test_exact_matches_numeric_at_desk_point():
    for n in range(1, 13):
        exact = eval_rational(convergent(n), DESK_POINT.q, DESK_POINT.lam, DESK_POINT.b)
        assert math.isclose(exact, cf_numeric(DESK_POINT, n), rel_tol=1e-12), n


def test_exact_matches_numeric_on_grid():
    for n in range(1, 13):
        exact_rf = convergent(n)
        for pt in GRID:
            exact = eval_rational(exact_rf, pt.q, pt.lam, pt.b)
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


def _csv_module_route(report):
    """The table through ``csv.writer``, as ``to_csv`` once wrote it: the oracle for its bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "convergent", "deviation"])
    for row in report.rows:
        writer.writerow([row.n, repr(row.convergent), repr(row.deviation)])
    return buf.getvalue()


def test_report_csv_matches_the_csv_module_byte_for_byte():
    rng = random.Random(25)
    reports = []
    while len(reports) < 40:
        pt = NumericPoint(q=rng.uniform(-0.9, 0.9), lam=rng.uniform(-2.0, 2.0), b=rng.uniform(-2.0, 2.0))
        try:
            reports.append(convergence_demo(pt, rng.randint(1, 40), 50))
        except NumericBreakdown:
            continue
    extremes = (-0.0, 5e-324, -2.2250738585072014e-308, 1e-17, -1e16, 1.7976931348623157e308, -math.inf, math.nan)
    rows = tuple(ConvergenceRow(n, v, abs(v)) for n, v in enumerate(extremes, 1))
    reports += [
        ConvergenceReport(DESK_POINT, -1.5, 3, rows),
        ConvergenceReport(DESK_POINT, 1.0, 1, (ConvergenceRow(-7, 123456789.0, -3.25),)),
        ConvergenceReport(DESK_POINT, 1.0, 1),
    ]
    for report in reports:
        assert report.to_csv().encode() == _csv_module_route(report).encode()


def test_point_tolerance_is_one_constant():
    assert DESK_POINT.compare_tol == NumericPoint.compare_tol == 1e-10
    assert DESK_POINT._fields == ("q", "lam", "b")


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


def _bits(outcome):
    """A float outcome as its exact bits (float.hex tells -0.0 from 0.0); an error as it is."""
    return outcome.hex() if isinstance(outcome, float) else outcome


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


def _assert_table(pt, n_max, expected):
    """convergence_demo(pt, n_max) against the per-depth outcomes expected[:n_max], bit for bit."""
    expected = expected[:n_max]
    failures = [e for e in expected if isinstance(e, tuple)]
    if failures:
        # the demo stops at the first row that breaks down, with that row's error
        assert _outcome(convergence_demo, pt, n_max, 50) == failures[0], (pt, n_max)
        return
    report = convergence_demo(pt, n_max, 50)
    rows = report.rows
    assert all(type(r) is ConvergenceRow for r in rows), (pt, n_max)
    assert [r.n for r in rows] == list(range(1, n_max + 1)), (pt, n_max)
    assert [r.convergent.hex() for r in rows] == [e.hex() for e in expected], (pt, n_max)
    assert [r.deviation.hex() for r in rows] == [
        abs(e - report.series_ratio).hex() for e in expected
    ], (pt, n_max)
    last = rows[-1]
    assert last._replace(n=0) == (0, last.convergent, last.deviation)


def test_shared_table_is_bit_identical_to_per_row_recurrence():
    broken = 0
    for pt in _oracle_points():
        expected = [_outcome(_reference_cf, pt, n) for n in range(1, ORACLE_N_MAX + 1)]
        assert [_bits(_outcome(cf_numeric, pt, n)) for n in range(1, ORACLE_N_MAX + 1)] == [
            _bits(e) for e in expected
        ], pt
        # n_max = 1 and 2: no row before the first to carry, and one before the second
        for n_max in (1, 2, ORACLE_N_MAX):
            _assert_table(pt, n_max, expected)
        broken += any(isinstance(e, tuple) for e in expected)
    assert broken == 24


DEEP_N_MAX = 1000


@pytest.mark.parametrize(
    "pt, broken_at",
    [
        pytest.param(NumericPoint(q=0.0, lam=1.5, b=0.5), None, id="q=0"),
        pytest.param(NumericPoint(q=0.6, lam=0.0, b=1.5), None, id="lambda=0"),
        # near |q| = 1 with |lambda| = 2 a depth's tails meet the last depth's up to 25 levels down
        *(
            pytest.param(NumericPoint(q=q, lam=lam, b=0.5), None, id=f"q={q},lambda={lam}")
            for q in (0.899, -0.899)
            for lam in (2.0, -2.0)
        ),
        # within 1e-9 of the pole b = -q^(-3)
        pytest.param(NumericPoint(q=0.7, lam=1.0, b=-(0.7**-3) + 5e-10), None, id="near-pole"),
        # 1 + b q^20 is exactly 0, so the tail T_20 vanishes at depth 20
        pytest.param(NumericPoint(q=0.5, lam=1.0, b=-(2.0**20)), 20, id="breaks-at-20"),
        # one ulp off the pole b = -q^(-3), c[3] = 2^-53: depth 3's T_2 is about 1.4e14, so its
        # T_1 rounds to c[1] exactly, which is not depth 2's T_1; a tail list that kept only the
        # seeds c[j] would match there and repeat depth 2's convergent
        pytest.param(NumericPoint(q=0.25, lam=1.0, b=math.nextafter(-64.0, 0.0)), None, id="one-ulp-off-pole"),
        # depth 2's T_1 = 1.5 - 0.3125/1.25 = 1.25 is depth 2's own T_2 = c[2], not depth 1's T_1
        pytest.param(NumericPoint(q=0.5, lam=-1.25, b=1.0), None, id="T1-equals-T2"),
    ],
)
def test_shared_tails_are_bit_identical_to_every_depth(pt, broken_at):
    # every depth of a deep table against its own full recurrence, cf_numeric
    expected = [_outcome(cf_numeric, pt, n) for n in range(1, DEEP_N_MAX + 1)]
    failures = [e for e in expected if isinstance(e, tuple)]
    good = expected.index(failures[0]) if failures else DEEP_N_MAX
    assert (None if good == DEEP_N_MAX else good + 1) == broken_at
    # the whole table, the longest table with no broken row, and the shortest two
    for n_max in sorted({1, 2, good, DEEP_N_MAX} - {0}):
        _assert_table(pt, n_max, expected)


@pytest.mark.parametrize("b, tail", [(-2.0, 1), (-4.0, 2)])
def test_shared_table_breaks_down_like_per_row_recurrence(b, tail):
    # At q = 1/2, b = -2 zeroes the tail T_1 at n = 1 and b = -4 the tail T_2 at n = 2.
    pt = NumericPoint(q=0.5, lam=1.0, b=b)
    outcomes = [_outcome(cf_numeric, pt, n) for n in range(1, ORACLE_N_MAX + 1)]
    assert outcomes == [_outcome(_reference_cf, pt, n) for n in range(1, ORACLE_N_MAX + 1)]
    assert outcomes[tail - 1] == (NumericBreakdown, f"tail T_{tail} vanished at (q=0.5, lam=1.0, b={b})")
