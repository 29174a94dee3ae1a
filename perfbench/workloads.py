"""The four benchmark workloads: their inputs, their op and the check of each op.

Every workload is a closed loop with one client: the next op starts when the
previous one has finished.  Inputs come from the seed alone, are generated
here, and reach the program only as values.  The program is called only
through its documented API (the CLI and the public functions of rrcf.poly,
rrcf.core, rrcf.verify and rrcf.numeric), and always through the module
attribute, so that the tracer's wrappers see the call.

``inputs(i)`` makes the input of op ``i`` before the clock starts, ``op``
is the timed part, and ``check`` runs after the clock stops and returns None
when the op's output is right, or the reason it is not.  Every check compares
the output with values the benchmark computes itself, not only with the
program's own verdicts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

# An integer point (q, l, b) at which the benchmark checks exact results by
# value, independently of the program's own cross-multiplication.  No factor
# 1 + b*q^j or 1 - q^j vanishes there.
CHECK_POINT = (2, 3, 5)


def _cf_value(depth: int, q: int, lam: int, b: int) -> Fraction:
    """1+b + lq/(1+bq) + ... + lq^depth/(1+bq^depth), by backward recurrence."""
    t = Fraction(1 + b * q**depth)
    for j in range(depth - 1, 0, -1):
        t = 1 + b * q**j + lam * q ** (j + 1) / t
    return 1 + b + lam * q / t


def _rf_value(rf, point) -> Fraction | None:
    den = rf.den.eval_exact(*point)
    return None if den == 0 else Fraction(rf.num.eval_exact(*point)) / den


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1.0)


def _cf_float(n: int, q: float, lam: float, b: float) -> float:
    """1 + lq/(1+bq) + ... + lq^n/(1+bq^n) in floats, by backward recurrence."""
    t = 1.0 + b * q**n
    for j in range(n - 1, 0, -1):
        t = 1.0 + b * q**j + lam * q ** (j + 1) / t
    return 1.0 + lam * q / t


def _series_ratio_float(q: float, lam: float, b: float, terms: int) -> float:
    """sum q^(k^2) l^k/((q;q)_k (-bq;q)_k) over the same sum with q^(k^2+k), k = 0..terms."""
    num = den = 0.0
    t = 1.0  # the k-th term of the first sum
    for k in range(terms + 1):
        if k:
            qk = q**k
            t *= q ** (2 * k - 1) * lam / ((1.0 - qk) * (1.0 + b * qk))
        num += t
        den += t * q**k
    return num / den


class Theorem1Deep:
    """Theorem 1 at depth 14 by the route the README documents.

    The north-star path, where a faster multiply or structured cancellation
    shows.  Each op starts from empty memo tables, so it runs in a fresh
    worker process.  The seed is ignored: every op proves the same identity.
    """

    fresh_process = True
    depth = 14

    def __init__(self, mods, seed: int):
        self.m = mods

    def inputs(self, i: int):
        return i

    def op(self, i: int, span):
        core, poly, verify = self.m.core, self.m.poly, self.m.verify
        g0 = core.g(self.depth, 0)
        g1 = core.g(self.depth, 1)
        with span("verify.ratio"):
            lhs = (poly.ONE + poly.B) * g0 / g1
        rhs = core.cf_finite_backward(core.CFSpec.standard(self.depth))
        return lhs, rhs, verify.compare(lhs, rhs)

    def check(self, i: int, out):
        lhs, rhs, (equal, _) = out
        if not equal:
            return f"(1+b) g_n(0)/g_n(1) differs from the fraction at depth n = {self.depth}"
        want = _cf_value(self.depth, *CHECK_POINT)
        if _rf_value(lhs, CHECK_POINT) != want:
            return "the closed form has the wrong value at the check point"
        if _rf_value(rhs, CHECK_POINT) != want:
            return "the backward recurrence has the wrong value at the check point"
        return None


class VerifyAll:
    """``rrcf verify --suite all --n-max 10 --format json --seed <seed>``.

    The CI-shaped run: many small multiplies, RationalFunction normalisation
    and repeated g calls, so its cost is normalisation and caching.  Each op
    starts from empty memo tables, as a fresh rrcf process does.  Besides the
    report, the check evaluates g_n(0), g_n(1) for every n and the backward
    fraction at one depth at CHECK_POINT and tests that compare tells a
    fraction from a different one.
    """

    fresh_process = True
    suites = ["entry16", "theorem1", "recursion", "telescoping", "b0", "asi", "division"]
    n_max = 10

    def __init__(self, mods, seed: int):
        self.m = mods
        self.argv = ["verify", "--suite", "all", "--n-max", str(self.n_max), "--format", "json", "--seed", str(seed)]

    def inputs(self, i: int):
        return i

    def op(self, i: int, span):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.m.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, i: int, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        reports = json.loads(text)
        if [r["suite"] for r in reports] != self.suites:
            return f"unexpected suites {[r['suite'] for r in reports]}"
        for r in reports:
            if not r["cases"] or not all(c["pass"] for c in r["cases"]) or r["summary"]["fail"]:
                return f"suite {r['suite']} has failing cases"
        theorem1 = reports[self.suites.index("theorem1")]
        if [c.get("n") for c in theorem1["cases"]] != list(range(1, self.n_max + 1)):
            return "the theorem1 suite does not check every depth up to n_max"

        core, verify = self.m.core, self.m.verify
        q, lam, b = CHECK_POINT
        for n in range(1, self.n_max + 1):
            g0, g1 = _rf_value(core.g(n, 0), CHECK_POINT), _rf_value(core.g(n, 1), CHECK_POINT)
            if not g1 or (1 + b) * g0 / g1 != _cf_value(n, q, lam, b):
                return f"(1+b) g_n(0)/g_n(1) has the wrong value at the check point for n = {n}"
        n = 1 + i % self.n_max
        frac = core.cf_finite_backward(core.CFSpec.standard(n))
        if _rf_value(frac, CHECK_POINT) != _cf_value(n, q, lam, b):
            return f"the backward recurrence has the wrong value at the check point for n = {n}"
        if verify.compare(frac, frac + 1)[0]:
            return f"compare finds the depth-{n} fraction equal to itself plus 1"
        return None


class RfGeneric:
    """N/D == 1 + (N-D)/D on seeded rational functions with generic denominators.

    The same RationalFunction layer as verify_all, used another way: each
    polynomial is a random residual times structured factors 1+b*q^j or
    1-q^j, one of them shared between N and D, so most trial divisions fail.
    A structured-denominator redesign that speeds up g could slow this path.
    """

    fresh_process = False
    pool_size = 1024
    max_j = 5
    residual_draws = 3  # terms drawn per residual; equal monomials merge
    max_exp = 4

    def __init__(self, mods, seed: int):
        self.m = mods
        rng = random.Random(seed)
        self.pairs = [self._pair(rng) for _ in range(self.pool_size)]

    def _residual(self, rng: random.Random):
        while True:
            terms: dict = {}
            for _ in range(self.residual_draws):
                key = tuple(rng.randint(0, self.max_exp) for _ in range(3))
                terms[key] = terms.get(key, 0) + rng.choice([c for c in range(-9, 10) if c])
            p = self.m.poly.Polynomial(terms)
            if not p.is_zero:
                return p

    def _factor(self, rng: random.Random):
        j = rng.randint(1, self.max_j)
        if rng.random() < 0.5:
            return self.m.poly.Polynomial({(0, 0, 0): 1, (j, 0, 1): 1})
        return self.m.poly.Polynomial({(0, 0, 0): 1, (j, 0, 0): -1})

    def _pair(self, rng: random.Random):
        shared_num, shared_den = self._factor(rng), self._factor(rng)
        polys = [
            self._residual(rng) * shared * self._factor(rng)
            for shared in (shared_num, shared_den, shared_num, shared_den)
        ]
        rf = self.m.poly.RationalFunction
        return rf(polys[0], polys[1]), rf(polys[2], polys[3])

    def inputs(self, i: int):
        return self.pairs[i % len(self.pairs)]

    def op(self, pair, span):
        n, d = pair
        lhs = n / d
        rhs = 1 + (n - d) / d
        return lhs, rhs, self.m.verify.compare(lhs, rhs)

    def check(self, pair, out):
        lhs, rhs, (equal, _) = out
        if not equal:
            return "N/D differs from 1 + (N-D)/D"
        n, d = pair
        vn, vd = _rf_value(n, CHECK_POINT), _rf_value(d, CHECK_POINT)
        if vn is not None and vd:
            want = vn / vd
            if _rf_value(lhs, CHECK_POINT) not in (None, want) or _rf_value(rhs, CHECK_POINT) not in (None, want):
                return "wrong value at the check point"
        return None


class EvalGrid:
    """The README convergence demo (n_max = 40, k = 50) at seeded points.

    The only workload of the numeric layer, and it bypasses every exact
    layer, so changes to poly or core should leave it unchanged.  q is drawn
    from (-0.9, 0.9) and lambda, b from [-2, 2]; that range includes the
    poles of 1 + b*q^j and no point is filtered out.  Points are drawn one op
    at a time, so memory does not grow with the number of ops.  The check
    recomputes the series ratio and three rows of the table in floats.  A
    point whose final deviation stays above compare_tol is counted as not
    converged, which is the demo's honest answer there, not a wrong output.
    """

    fresh_process = False
    n_max = 40
    max_terms = 50
    # Relative tolerances of the check.  Other float algorithms (a forward
    # recurrence, a series summed in reverse) stay within 1e-12 and 1e-8 of
    # the program on this range.
    cf_rel_tol = 1e-9
    series_rel_tol = 1e-6

    def __init__(self, mods, seed: int):
        self.m = mods
        self.rng = random.Random(seed)
        self.point = (-1, None)
        self.nonconverged = 0

    def inputs(self, i: int):
        if self.point[0] != i:  # a traced run asks for each input twice
            rng = self.rng
            self.point = (i, (rng.uniform(-0.9, 0.9), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
        return self.point

    def op(self, x, span):
        numeric = self.m.numeric
        q, lam, b = x[1]
        pt = numeric.NumericPoint(q=q, lam=lam, b=b)
        return numeric.convergence_demo(pt, self.n_max, self.max_terms)

    def check(self, x, report):
        i, (q, lam, b) = x
        rows = report.rows
        if [r.n for r in rows] != list(range(1, self.n_max + 1)):
            return "the table does not have one row per depth"
        ratio = report.series_ratio
        if not _close(ratio, _series_ratio_float(q, lam, b, self.max_terms), self.series_rel_tol):
            return f"wrong series ratio {ratio!r} at (q, l, b) = {(q, lam, b)}"
        for r in rows:
            if not (math.isfinite(r.convergent) and math.isclose(r.deviation, abs(r.convergent - ratio), rel_tol=1e-12)):
                return f"row n={r.n} is not finite or its deviation is wrong"
        for n in sorted({1, 1 + i % self.n_max, self.n_max}):
            if not _close(rows[n - 1].convergent, _cf_float(n, q, lam, b), self.cf_rel_tol):
                return f"wrong convergent at n = {n}, (q, l, b) = {(q, lam, b)}"
        if report.final_deviation() > report.point.compare_tol:
            self.nonconverged += 1
        return None


WORKLOADS = {
    "theorem1_deep": Theorem1Deep,
    "verify_all": VerifyAll,
    "rf_generic": RfGeneric,
    "eval_grid": EvalGrid,
}
