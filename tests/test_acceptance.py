"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Identity checks are exact (cross-multiplied polynomial equality,
zero tolerance); the numeric criteria carry the tolerances stated with them.
"""

import math
import time

from oracles import eval_rational
from rrcf import cli, core, verify
from rrcf.core import (
    CFSpec,
    asi_u,
    cf_convergents_iter,
    cf_finite_backward,
    convergent,
    g,
    g_difference,
    mu,
    nu,
)
from rrcf.numeric import NumericPoint, cf_numeric, convergence_demo, series_ratio_entry15
from rrcf.poly import B, L, ONE, Polynomial, Q, RationalFunction


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def _cold_caches() -> None:
    core._g_cached.cache_clear()


def test_criterion_1_theorem1_identity(capsys):
    _cold_caches()
    start = time.monotonic()
    code = cli.main(["verify", "--suite", "theorem1", "--n-max", "12"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = code == 0 and "summary pass=12 fail=0" in out and elapsed < 60.0
        _report(f"1 theorem1 12/12 exact in {elapsed:.1f}s (< 60s)", ok)


def test_criterion_2_entry16_identity(capsys):
    code = cli.main(["verify", "--suite", "entry16", "--n-max", "15"])
    out = capsys.readouterr().out
    with capsys.disabled():
        _report("2 entry16 15/15 exact", code == 0 and "summary pass=15 fail=0" in out)


def test_criterion_3_proof_step_suite():
    recursion = verify.check_recursion(10)
    telescoping = verify.check_telescoping(10)
    endpoints_ok = all(
        g(n, n) == RationalFunction(ONE) and g(n, n + 1) == RationalFunction(ONE)
        for n in range(1, 13)
    )
    division = verify.check_division_step(samples=64, seed=0)
    ok = (
        recursion.all_passed
        and telescoping.all_passed
        and endpoints_ok
        and division.all_passed
        and len(division.cases) == 66
    )
    _report("3 proof steps: recursion, telescoping, endpoints, 64 division samples", ok)


def test_criterion_4_b0_reduction():
    ok = all(
        g(n, 0).substitute("b", 0) == RationalFunction(mu(n))
        and g(n, 1).substitute("b", 0) == RationalFunction(nu(n))
        for n in range(1, 11)
    )
    _report("4 b=0 reduction to mu/nu, n <= 10, exact", ok)


def test_criterion_5_al_salam_ismail_relation():
    # (-bq;q)_n, multiplied out factor by factor
    poch = [ONE]
    for j in range(1, 11):
        poch.append(poch[-1] * (ONE + B * Q**j))
    ok = all(asi_u(n) == g(n, 1) * poch[n] for n in range(1, 11))
    ok = ok and asi_u(0) == RationalFunction(ONE)
    _report("5 asi_u(n) == g(n,1)*(-bq;q)_n, n <= 10, exact", ok)


def test_criterion_6_forward_backward_and_determinant():
    ok = True
    for n in range(1, 13):
        spec = CFSpec.standard(n)
        pairs = list(cf_convergents_iter(spec))
        last = pairs[-1]
        ok = ok and RationalFunction(last.num, last.den) == cf_finite_backward(spec)
    pairs = list(cf_convergents_iter(CFSpec.standard(12)))
    for j in range(1, 13):
        det = pairs[j].num * pairs[j - 1].den - pairs[j - 1].num * pairs[j].den
        ok = ok and det == Polynomial.monomial(j * (j + 1) // 2, j, 0, (-1) ** (j - 1))
    _report("6 forward/backward oracle + determinant identity, j <= 12, exact", ok)


def test_criterion_7_numeric_limit_demo():
    pt = NumericPoint(q=0.1, lam=1.0, b=0.5)
    start = time.monotonic()
    ratio_50 = series_ratio_entry15(pt, 50)
    ratio_60 = series_ratio_entry15(pt, 60)
    report = convergence_demo(pt, 40, 50)
    elapsed = time.monotonic() - start
    self_oracle_ok = abs(ratio_50 - ratio_60) <= 1e-14 * abs(ratio_50)
    final_ok = abs(cf_numeric(pt, 40) - ratio_50) < 1e-12
    rows = report.rows
    decay_ok = all(
        rows[i + 5].deviation < rows[i].deviation
        for i in range(len(rows) - 5)
        if rows[i].deviation > 1e-12
    )
    ok = self_oracle_ok and final_ok and decay_ok and elapsed < 1.0
    _report(f"7 numeric limit demo at (0.1, 1, 0.5) in {elapsed:.3f}s (< 1s)", ok)


def test_criterion_8_exact_numeric_consistency():
    points = [
        (q, lam, b)
        for q in (0.05, 0.1, 0.3)
        for lam in (-0.5, 1.0)
        for b in (0.0, 0.5, 2.0)
    ]
    ok = True
    for n in range(1, 13):
        exact_rf = convergent(n)
        for q, lam, b in points:
            exact = eval_rational(exact_rf, q, lam, b)
            approx = cf_numeric(NumericPoint(q=q, lam=lam, b=b), n)
            ok = ok and math.isclose(exact, approx, rel_tol=1e-10)
    _report("8 exact vs numeric convergents on 18-point grid, n <= 12, 1e-10 relative", ok)


def test_criterion_9_fault_injection_meta_tests(monkeypatch):
    div = RationalFunction.__truediv__
    bad_g = lambda n, s: g(n, s) * 2 if (n, s) == (2, 0) else g(n, s)
    bad_g_add = lambda n, s: g(n, s) + 1 if (n, s) == (3, 1) else g(n, s)
    bad_diff = lambda n, s: g_difference(n, s) + RationalFunction(Q) if (n, s) == (2, 1) else g_difference(n, s)
    faults = [
        (core, "mu", lambda n: mu(n) + L if n == 2 else mu(n), lambda: verify.check_entry16(3)),
        (core, "g", bad_g, lambda: verify.check_theorem1(3)),
        (core, "g", bad_g_add, lambda: verify.check_recursion(4)),
        (core, "g_difference", bad_diff, lambda: verify.check_telescoping(3)),
        (core, "g", bad_g, lambda: verify.check_b0_reduction(3)),
        (core, "asi_u", lambda n: asi_u(n) + L * Q if n == 2 else asi_u(n), lambda: verify.check_asi(3)),
        (RationalFunction, "__truediv__", lambda a, b: div(a, b) * RationalFunction(ONE + Q),
         lambda: verify.check_division_step(samples=4, seed=0)),
    ]
    ok = True
    for owner, name, fault, check in faults:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, fault)
            ok = ok and not check().all_passed
    _report("9 every suite flags a deliberately corrupted formula", ok)
