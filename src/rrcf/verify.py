"""Exact identity suites with machine-readable pass/fail reports.

Each ``check_*`` function sweeps one identity over a parameter range and
returns a :class:`VerificationReport`.  Comparisons are exact: ``compare``
decides through ``RationalFunction.__eq__`` (cross-multiplication, zero
tolerance), and a failing case records the two cross-product polynomials as
its witness.  Failures become report entries, never exceptions, so a
corrupted formula is always visible rather than fatal: a zero divisor met
while a case is built fails that case, with ``("DivisionByZero", message)``
as its witness.

The depth-n continued fraction is the convergent P_n/Q_n of the forward
recurrence (``core.cf_convergents_iter``).  Each suite that needs it takes
every depth n = 1..n_max from one pass over ``CFSpec.standard(n_max)``,
holding only the current and the previous pair; P_n and Q_n are coprime by
the determinant identity, so ``RationalFunction(P_n, Q_n)`` is reduced.

The suites:

* ``entry16``     mu_n/nu_n against the depth-n continued fraction at b = 0
* ``theorem1``    (1+b) g_n(0)/g_n(1) against the full continued fraction
* ``recursion``   R_s == 1+bq^s + lq^(s+1)/R_(s+1) for the level ratios
                  R_s = (1+bq^s) g_n(s)/g_n(s+1), each built once; the
                  endpoint seed g_n(n) = g_n(n+1) = 1; and the fraction
                  rebuilt by iterating the descent n times from R_n, a
                  backward evaluation checked against P_n/Q_n and R_0
* ``telescoping`` g_n(s) - g_n(s+1) against both the term-by-term route and
                  the closed form with g_n(s+2)
* ``b0``          g_n(0) -> mu_n and g_n(1) -> nu_n at b = 0
* ``asi``         U_n(1; bq, -l q^2), the denominator Q_n by its three-term
                  recurrence, against the explicit sum g_n(1) (-bq;q)_n
* ``division``    N/D == 1 + (N-D)/D on seeded random rational functions

Every suite looks up ``core.mu``, ``nu``, ``g``, ``g_difference``, ``asi_u``
and ``RationalFunction.__truediv__`` when it runs, so a test can replace one
to corrupt one side and confirm the suite notices (no vacuous passes), also
in the forked child of ``rrcf verify --suite all``.  Reports are deterministic
given (n_max, seed) and their case lists are sorted by parameters.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Iterator, NamedTuple

from . import core
from .poly import B, L, ONE, DivisionByZero, Polynomial, Q, RationalFunction, _step

__all__ = [
    "InvalidRange",
    "VerificationCase",
    "VerificationReport",
    "compare",
    "check_entry16",
    "check_theorem1",
    "check_recursion",
    "check_telescoping",
    "check_b0_reduction",
    "check_asi",
    "check_division_step",
    "run_all",
    "SUITES",
]


class InvalidRange(ValueError):
    """A suite was asked to sweep an empty or negative parameter range."""


class VerificationCase(NamedTuple):
    """One checked instance: its parameters, outcome and failure witness."""

    params: tuple[tuple[str, int], ...]
    passed: bool
    witness: tuple[str, str] | None = None

    def to_json(self) -> dict:
        out: dict = dict(self.params)
        out["pass"] = self.passed
        out["witness"] = None if self.witness is None else {"lhs": self.witness[0], "rhs": self.witness[1]}
        return out

    @classmethod
    def from_json(cls, data: dict) -> "VerificationCase":
        params = tuple((k, v) for k, v in data.items() if k not in ("pass", "witness"))
        w = data.get("witness")
        return cls(params=params, passed=data["pass"], witness=None if w is None else (w["lhs"], w["rhs"]))


class VerificationReport(NamedTuple):
    """One suite's cases, in parameter order."""

    suite: str
    cases: tuple[VerificationCase, ...] = ()

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def n_fail(self) -> int:
        return len(self.cases) - self.n_pass

    @property
    def all_passed(self) -> bool:
        return self.n_fail == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [c.to_json() for c in self.cases],
            "summary": {"pass": self.n_pass, "fail": self.n_fail},
        }

    @classmethod
    def from_json(cls, data: dict) -> "VerificationReport":
        return cls(
            suite=data["suite"],
            cases=tuple(VerificationCase.from_json(c) for c in data["cases"]),
        )

    def render_text(self) -> str:
        lines = [f"suite={self.suite}"]
        for c in self.cases:
            head = " ".join(f"{k}={v}" for k, v in c.params)
            lines.append(f"{head} {'PASS' if c.passed else 'FAIL'}")
            if c.witness is not None:
                lines.append(f"  lhs: {c.witness[0]}")
                lines.append(f"  rhs: {c.witness[1]}")
        lines.append(f"summary pass={self.n_pass} fail={self.n_fail}")
        return "\n".join(lines)


def compare(lhs: RationalFunction, rhs: RationalFunction) -> tuple[bool, tuple[str, str] | None]:
    """Equality through ``==``; on failure, the two cross products as witness."""
    if lhs == rhs:
        return True, None
    return False, (str(lhs.num * rhs.den), str(rhs.num * lhs.den))


def _compare_built(build) -> tuple[bool, tuple[str, str] | None]:
    """compare(*build()); a zero divisor met while building is a failure, with its message as witness."""
    try:
        return compare(*build())
    except DivisionByZero as exc:
        return False, ("DivisionByZero", str(exc))


def _case(passed: bool, witness, **params: int) -> VerificationCase:
    return VerificationCase(params=tuple(params.items()), passed=passed, witness=witness)


def _require_range(n_max: int, what: str = "n_max") -> None:
    if n_max < 1:
        raise InvalidRange(f"{what} must be >= 1, got {n_max}")


def _fractions(n_max: int) -> Iterator[tuple[int, RationalFunction]]:
    """(n, P_n/Q_n) for n = 1..n_max, lazily, from one forward pass."""
    pairs = core.cf_convergents_iter(core.CFSpec.standard(n_max))
    next(pairs)  # P_0/Q_0 = 1+b is not a depth the suites check
    for pair in pairs:
        yield pair.index, RationalFunction(pair.num, pair.den)


def check_entry16(n_max: int = 15) -> VerificationReport:
    """mu_n/nu_n equals the depth-n fraction 1 + lq/1 + lq^2/1 + ... at b = 0."""
    _require_range(n_max)
    cases = []
    for n, fraction in _fractions(n_max):
        lhs = lambda: RationalFunction(core.mu(n)) / RationalFunction(core.nu(n))
        cases.append(_case(*_compare_built(lambda: (lhs(), fraction.substitute("b", 0))), n=n))
    return VerificationReport(suite="entry16", cases=tuple(cases))


def check_theorem1(n_max: int = 12) -> VerificationReport:
    """(1+b) g_n(0)/g_n(1) equals the depth-n generalized fraction."""
    _require_range(n_max)
    cases = []
    for n, fraction in _fractions(n_max):
        cases.append(_case(*_compare_built(lambda: ((ONE + B) * core.g(n, 0) / core.g(n, 1), fraction)), n=n))
    return VerificationReport(suite="theorem1", cases=tuple(cases))


def _level(s: int, tail: RationalFunction) -> RationalFunction:
    """1+bq^s + lq^(s+1)/tail = (f_s N + l*q^(s+1) D)/N for tail = N/D, one ``poly._step``."""
    return RationalFunction(_step(tail.num, s, tail.den, s + 1), tail.num)


def check_recursion(n_max: int = 10) -> VerificationReport:
    """The descent between consecutive level ratios, executed end to end.

    With R_s = (1+bq^s) g_n(s)/g_n(s+1) built once for s = 0..n, each
    (n, s) case checks R_s == 1+bq^s + lq^(s+1)/R_(s+1).  Per n: the
    endpoint seed g_n(n) = g_n(n+1) = 1, and the full fraction rebuilt by
    iterating the descent down from R_n, the backward continuant of
    ``core.cf_finite_backward`` seeded with R_n's num and den, checked
    against P_n/Q_n from the forward recurrence and against R_0.  The
    forward pairs take the same ``poly._step`` as the descent; R_0 comes from
    the g sums, which call ``_step`` only with r = 0 (the product by f_j), so
    a wrong l*q^k part of the step cannot reach both sides.
    """
    _require_range(n_max)
    cases = []
    for n, fraction in _fractions(n_max):
        # R_s, built once; a zero divisor is not cached, so it raises on each use
        ratio = cache(lambda s: (ONE + B * Q**s) * core.g(n, s) / core.g(n, s + 1))
        for s in range(0, n):
            cases.append(_case(*_compare_built(lambda: (ratio(s), _level(s, ratio(s + 1)))), n=n, s=s))
        one = RationalFunction(ONE)
        ok_end, wit_end = compare(core.g(n, n), one)
        if ok_end:
            ok_end, wit_end = compare(core.g(n, n + 1), one)
        cases.append(_case(ok_end, wit_end, n=n, s=n))
        # unwind n levels from the seed R_n: this rebuilds the whole fraction,
        # checked against the forward pair and against R_0, which takes no continuant step
        unwind = cache(lambda: RationalFunction(*core._descend(ratio(n).num, ratio(n).den, n)))
        ok_cf, wit_cf = _compare_built(lambda: (unwind(), fraction))
        if ok_cf:
            ok_cf, wit_cf = _compare_built(lambda: (unwind(), ratio(0)))
        cases.append(_case(ok_cf, wit_cf, n=n, s=n + 1))
    return VerificationReport(suite="recursion", cases=tuple(cases))


def check_telescoping(n_max: int = 10) -> VerificationReport:
    """g_n(s) - g_n(s+1) vs the bracket-collapsed sum and the closed form."""
    _require_range(n_max)
    cases = []
    for n in range(1, n_max + 1):
        for s in range(0, n):
            direct = core.g(n, s) - core.g(n, s + 1)
            ok, wit = compare(direct, core.g_difference(n, s))
            if ok:
                closed = RationalFunction(L * Q ** (s + 1)) / (ONE + B * Q**s) / (ONE + B * Q ** (s + 1))
                ok, wit = compare(direct, closed * core.g(n, s + 2))
            cases.append(_case(ok, wit, n=n, s=s))
    return VerificationReport(suite="telescoping", cases=tuple(cases))


def check_b0_reduction(n_max: int = 10) -> VerificationReport:
    """g_n(0) and g_n(1) collapse to mu_n and nu_n when b = 0."""
    _require_range(n_max)
    cases = []
    for n in range(1, n_max + 1):
        ok, wit = _compare_built(lambda: (core.g(n, 0).substitute("b", 0), RationalFunction(core.mu(n))))
        if ok:
            ok, wit = _compare_built(lambda: (core.g(n, 1).substitute("b", 0), RationalFunction(core.nu(n))))
        cases.append(_case(ok, wit, n=n))
    return VerificationReport(suite="b0", cases=tuple(cases))


def check_asi(n_max: int = 10) -> VerificationReport:
    """U_n(1; bq, -l q^2) == g_n(1) * (-bq;q)_n for n = 0..n_max."""
    _require_range(n_max)
    cases = []
    ok0, wit0 = compare(core.asi_u(0), RationalFunction(ONE))
    cases.append(_case(ok0, wit0, n=0))
    for n in range(1, n_max + 1):
        rhs = core.g(n, 1) * RationalFunction._factored(ONE, num_runs=((1, n),))
        cases.append(_case(*compare(core.asi_u(n), rhs), n=n))
    return VerificationReport(suite="asi", cases=tuple(cases))


_RANDOM_COEFFICIENTS = tuple(c for c in range(-9, 10) if c != 0)


def _random_polynomial(rng: random.Random, max_terms: int = 4, max_exp: int = 3) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        coeff = rng.choice(_RANDOM_COEFFICIENTS)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(terms)


def _random_rf(rng: random.Random) -> RationalFunction:
    num = _random_polynomial(rng)
    while num.is_zero:
        num = _random_polynomial(rng)
    den = _random_polynomial(rng)
    while den.is_zero:
        den = _random_polynomial(rng)
    return RationalFunction(num, den)


def check_division_step(samples: int = 64, seed: int = 0) -> VerificationReport:
    """N/D == 1 + (N-D)/D on fixed plus seeded-random rational functions."""
    _require_range(samples, "samples")
    rng = random.Random(seed)
    fixed = [
        (RationalFunction(ONE + Q), RationalFunction(ONE + Q)),  # N == D
        (RationalFunction(ONE + Q), RationalFunction(ONE)),  # the worked identity
    ]
    pairs = fixed + [(_random_rf(rng), _random_rf(rng)) for _ in range(samples)]
    cases = []
    for i, (n_rf, d_rf) in enumerate(pairs):
        cases.append(_case(*compare(n_rf / d_rf, 1 + (n_rf - d_rf) / d_rf), seed=seed, sample=i))
    return VerificationReport(suite="division", cases=tuple(cases))


# Every suite in report order: name -> check(n_max, seed).  The checks are
# looked up when called, so a replaced module attribute is the one that runs.
SUITES = {
    "entry16": lambda n_max, seed: check_entry16(n_max),
    "theorem1": lambda n_max, seed: check_theorem1(n_max),
    "recursion": lambda n_max, seed: check_recursion(n_max),
    "telescoping": lambda n_max, seed: check_telescoping(n_max),
    "b0": lambda n_max, seed: check_b0_reduction(n_max),
    "asi": lambda n_max, seed: check_asi(n_max),
    "division": lambda n_max, seed: check_division_step(seed=seed),
}


def run_all(n_max: int = 10, seed: int = 0) -> list[VerificationReport]:
    """Every suite at a common n_max, in SUITES order; raises InvalidRange for n_max < 1."""
    _require_range(n_max)
    return [check(n_max, seed) for check in SUITES.values()]
