"""Verification suites: passing sweeps, fault injection, report plumbing."""

import hashlib
import json
import random

import pytest

from rrcf import cli, core, verify
from rrcf.core import ConvergentPair, asi_u, g, g_difference, mu, nu
from rrcf.poly import B, L, ONE, Q, ZERO, RationalFunction
from rrcf.verify import (
    InvalidRange,
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


def failing_cases(report):
    return [c for c in report.cases if not c.passed]


# -- clean sweeps (small ranges here; acceptance covers the full ones) --------


def test_entry16_passes():
    report = check_entry16(6)
    assert report.suite == "entry16"
    assert report.all_passed and len(report.cases) == 6


def test_theorem1_passes():
    report = check_theorem1(6)
    assert report.all_passed and len(report.cases) == 6


def test_recursion_passes():
    report = check_recursion(6)
    assert report.all_passed
    # n cases at s = 0..n-1, plus one endpoint case and one iteration case per n
    assert len(report.cases) == sum(n + 2 for n in range(1, 7))


def test_telescoping_passes():
    report = check_telescoping(6)
    assert report.all_passed and len(report.cases) == sum(range(1, 7))


def test_b0_reduction_passes():
    report = check_b0_reduction(6)
    assert report.all_passed and len(report.cases) == 6


def test_asi_passes():
    report = check_asi(6)
    assert report.all_passed and len(report.cases) == 7  # includes n = 0


def test_division_step_passes():
    report = check_division_step(samples=16, seed=3)
    assert report.all_passed and len(report.cases) == 18  # 2 fixed + 16 random


def test_run_all_passes():
    reports = run_all(4)
    assert [r.suite for r in reports] == [
        "entry16",
        "theorem1",
        "recursion",
        "telescoping",
        "b0",
        "asi",
        "division",
    ]
    assert all(r.all_passed for r in reports)


# -- fault injection: every suite must notice a corrupted formula -------------


def test_entry16_detects_perturbed_mu(monkeypatch):
    monkeypatch.setattr(core, "mu", lambda n: mu(n) + L if n == 3 else mu(n))
    report = check_entry16(5)
    bad = failing_cases(report)
    assert len(bad) == 1 and bad[0].params == (("n", 3),)
    assert bad[0].witness is not None
    lhs, rhs = bad[0].witness
    assert lhs != rhs


def test_theorem1_detects_perturbed_g(monkeypatch):
    monkeypatch.setattr(core, "g", lambda n, s: g(n, s) * 2 if (n, s) == (2, 0) else g(n, s))
    report = check_theorem1(4)
    assert [c.params for c in failing_cases(report)] == [(("n", 2),)]


@pytest.mark.parametrize(
    "target, fault, expected",
    [
        ((4, 2), lambda v: v + 1, [(4, 0), (4, 1), (4, 2)]),
        ((3, 1), lambda v: v + 1, [(3, 0), (3, 1), (3, 4)]),
        ((4, 4), lambda v: 2 * v, [(4, 2), (4, 3), (4, 4), (4, 5)]),
    ],
    ids=["g42_plus_1", "g31_plus_1", "g44_times_2"],
)
def test_recursion_detects_perturbed_g(monkeypatch, target, fault, expected):
    # a wrong g_n(s) spoils R_(s-1) and R_s, so exactly the levels that read
    # either fail; a wrong g_n(n) also fails the seed and the rebuild from R_n,
    # and a wrong g_n(0) or g_n(1) the rebuild, which is checked against R_0
    monkeypatch.setattr(core, "g", lambda n, s: fault(g(n, s)) if (n, s) == target else g(n, s))
    report = check_recursion(6)
    bad = failing_cases(report)
    assert [tuple(v for _, v in c.params) for c in bad] == expected
    assert all(c.witness is not None and c.witness[0] != c.witness[1] for c in bad)


def test_suites_detect_a_corrupted_forward_pair(monkeypatch, capsys):
    # the depth-n fraction of entry16, theorem1 and the recursion rebuild is
    # P_n/Q_n from one forward pass: a wrong P_3 fails depth 3 of each, and
    # nothing else
    clean = core.cf_convergents_iter

    def corrupted(spec):
        for pair in clean(spec):
            yield ConvergentPair(3, pair.num + L, pair.den) if pair.index == 3 else pair

    monkeypatch.setattr(core, "cf_convergents_iter", corrupted)
    expected = {
        check_entry16: [(("n", 3),)],
        check_theorem1: [(("n", 3),)],
        check_recursion: [(("n", 3), ("s", 4))],  # the rebuild from R_3
    }
    for check, params in expected.items():
        bad = failing_cases(check(5))
        assert [c.params for c in bad] == params, check.__name__
        assert all(c.witness is not None and c.witness[0] != c.witness[1] for c in bad)
    assert cli.main(["verify", "--suite", "all", "--n-max", "4"]) == 1
    assert "n=3 s=4 FAIL" in capsys.readouterr().out


def assert_zero_divisor_cases(check, expected):
    # a formula that returns 0 where the suite divides by it fails those cases
    # instead of raising; the witness names the division and is the same on
    # every run, through JSON and back
    report = check()
    bad = failing_cases(report)
    assert [tuple(v for _, v in c.params) for c in bad] == expected
    assert any(c.witness == ("DivisionByZero", "division by zero rational function") for c in bad)
    assert report.to_json() == check().to_json()
    assert VerificationReport.from_json(json.loads(json.dumps(report.to_json()))) == report


def test_entry16_records_a_zero_nu(monkeypatch):
    monkeypatch.setattr(core, "nu", lambda n: ZERO if n == 3 else nu(n))
    assert_zero_divisor_cases(lambda: check_entry16(4), [(3,)])


def test_theorem1_records_a_zero_g(monkeypatch):
    monkeypatch.setattr(core, "g", lambda n, s: RationalFunction(0) if (n, s) == (3, 1) else g(n, s))
    assert_zero_divisor_cases(lambda: check_theorem1(4), [(3,)])


def test_recursion_records_a_zero_g(monkeypatch):
    # g_3(2) = 0 is the divisor of R_1, which R_0's level and R_1's own case
    # read; R_2 = 0 then fails its level by value
    monkeypatch.setattr(core, "g", lambda n, s: RationalFunction(0) if (n, s) == (3, 2) else g(n, s))
    assert_zero_divisor_cases(lambda: check_recursion(4), [(3, 0), (3, 1), (3, 2)])


def test_b0_records_a_denominator_that_vanishes_at_b0(monkeypatch):
    pole_g = lambda n, s: g(n, s) / RationalFunction(B) if (n, s) == (2, 1) else g(n, s)
    monkeypatch.setattr(core, "g", pole_g)
    report = check_b0_reduction(3)
    assert [(c.params, c.witness) for c in failing_cases(report)] == [
        ((("n", 2),), ("DivisionByZero", "denominator vanishes at b=0"))
    ]


def test_telescoping_detects_perturbed_difference(monkeypatch):
    bad_diff = lambda n, s: g_difference(n, s) + RationalFunction(Q) if (n, s) == (2, 1) else g_difference(n, s)
    monkeypatch.setattr(core, "g_difference", bad_diff)
    report = check_telescoping(3)
    assert [c.params for c in failing_cases(report)] == [(("n", 2), ("s", 1))]


def test_b0_detects_perturbed_g(monkeypatch):
    bad_g = lambda n, s: g(n, s) * RationalFunction(ONE + Q, ONE) if n == 2 else g(n, s)
    monkeypatch.setattr(core, "g", bad_g)
    report = check_b0_reduction(3)
    assert not report.all_passed


def test_asi_detects_perturbed_u(monkeypatch):
    monkeypatch.setattr(core, "asi_u", lambda n: asi_u(n) + L * Q if n == 2 else asi_u(n))
    report = check_asi(4)
    assert [c.params for c in failing_cases(report)] == [(("n", 2),)]


def test_division_detects_broken_division(monkeypatch):
    # a multiplicative fault does not cancel between the two sides
    div = RationalFunction.__truediv__
    monkeypatch.setattr(RationalFunction, "__truediv__", lambda a, b: div(a, b) * RationalFunction(ONE + Q))
    report = check_division_step(samples=4, seed=0)
    assert not report.all_passed


# -- report plumbing -----------------------------------------------------------


def test_summary_matches_case_tallies(monkeypatch):
    monkeypatch.setattr(core, "mu", lambda n: mu(n) + L if n % 2 else mu(n))
    report = check_entry16(6)
    assert report.n_pass + report.n_fail == len(report.cases)
    assert report.n_pass == sum(1 for c in report.cases if c.passed)
    assert report.n_fail == 3


def test_reports_deterministic_given_seed():
    a = check_division_step(samples=12, seed=42)
    b = check_division_step(samples=12, seed=42)
    assert a == b
    c = check_division_step(samples=12, seed=43)
    assert all(case.passed for case in c.cases)


def test_random_polynomials_are_pinned():
    # sha256 of the first four draws for seeds 0..49: the division suite's
    # samples stay the same whenever the generator is rewritten
    digest = hashlib.sha256()
    for seed in range(50):
        rng = random.Random(seed)
        for _ in range(4):
            digest.update(f"{verify._random_polynomial(rng)}\n".encode())
    assert digest.hexdigest() == "9d57e6e801945d0af5dd5740231c5a01bbdb489167f3c40baed65400d9dee98a"


def test_cases_ordered_by_parameters():
    report = check_recursion(5)
    assert [c.params for c in report.cases] == sorted(c.params for c in report.cases)


def test_invalid_range_rejected():
    for fn in (check_entry16, check_theorem1, check_recursion, check_telescoping, check_b0_reduction, check_asi):
        with pytest.raises(InvalidRange):
            fn(0)
    with pytest.raises(InvalidRange):
        check_division_step(samples=0)
    with pytest.raises(InvalidRange):
        run_all(0)


def test_report_json_round_trip(monkeypatch):
    monkeypatch.setattr(core, "mu", lambda n: mu(n) + L if n == 2 else mu(n))
    for report in [check_entry16(3), check_division_step(samples=4, seed=1)]:
        data = json.loads(json.dumps(report.to_json()))
        assert VerificationReport.from_json(data) == report


def test_report_json_schema():
    report = check_entry16(2)
    data = report.to_json()
    assert data["suite"] == "entry16"
    assert data["summary"] == {"pass": 2, "fail": 0}
    assert data["cases"][0] == {"n": 1, "pass": True, "witness": None}


def test_render_text_layout():
    lines = check_theorem1(2).render_text().splitlines()
    assert lines[0] == "suite=theorem1"
    assert lines[1] == "n=1 PASS"
    assert lines[-1] == "summary pass=2 fail=0"


def test_failed_case_witness_holds_cross_products(monkeypatch):
    monkeypatch.setattr(core, "mu", lambda n: mu(n) + L if n == 1 else mu(n))
    report = check_entry16(1)
    lhs, rhs = report.cases[0].witness
    # witness strings are canonical polynomials: (mu+l)*den_rhs vs num_rhs*nu
    assert "l" in lhs and lhs != rhs
