"""The factored RationalFunction against the fully expanded normal form.

``Expanded`` below is rational-function arithmetic with no exponent map:
every result is normalised from the expanded cross products by
``_normalize_content``, then ``trial_cancel``, then the sign rule, and a
sum uses the shared denominator only when the two denominators are equal.
``trial_cancel`` finds the common factors ``f_j = 1 + b*q^j`` by a value
screen and trial division, independently of the exact divisibility tests
of ``rrcf.poly``; like the library's normal form, it looks for no other
common factor, so a common 1 - q^j stays on both sides.  The library
cancels only the f_j a value names, so wherever every f_j common to the
two sides is named (every value the identities build, and the random
values below that hide no f_j in a residual) the factored arithmetic must
give the very same ``num`` and ``den``.  A value with an f_j hidden in its
residuals keeps it and is compared by value.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import NotDivisible, cf_tails_by_operators, exact_div, substitute_by_terms
from rrcf import core, poly, qpoch, verify
from rrcf.core import g, g_difference
from rrcf.poly import (
    B,
    L,
    ONE,
    Q,
    ZERO,
    DivisionByZero,
    Polynomial,
    RationalFunction,
    _normalize_content,
    _step,
    _vanishes_at_factor_roots,
)
from rrcf.qpoch import q_binomial


def f(j):
    return ONE + B * Q**j


def poch_neg_bq(m, k):
    # (-bq^m;q)_k = f_m ... f_(m+k-1), multiplied out factor by factor
    prod = ONE
    for j in range(m, m + k):
        prod = prod * f(j)
    return prod


# (q, l, b) at which the value screen of trial_cancel evaluates
FILTER_POINT = (3, 2, 2)


def is_unit(p):
    return len(p) == 1 and p.constant_coeff != 0


def trial_cancel(num, den):
    """Divide out every common factor 1 + b*q^j from num and den.

    A factor that divides num and den has a value at FILTER_POINT that
    divides both of theirs; no candidate vanishes there (|1 + 2*3^j| >= 3),
    so the value screen is a valid necessary condition, and only candidates
    that pass it are tried by exact division.  The candidates are 1 + b*q^j
    for descending j >= 0, each while den's q-degree is at least j.
    """
    if is_unit(den):
        return num, den
    num_val, den_val = num.eval_exact(*FILTER_POINT), den.eval_exact(*FILTER_POINT)
    fq, _, fb = FILTER_POINT
    dq = den.degree("q")
    for j in range(dq, -1, -1):
        factor, f_val = f(j), 1 + fb * fq**j
        while dq >= j:
            if num_val % f_val or den_val % f_val:
                break
            try:
                new_den = exact_div(den, factor)
                new_num = exact_div(num, factor)
            except NotDivisible:
                break
            num, den = new_num, new_den
            dq -= j
            num_val //= f_val
            den_val //= f_val
            if is_unit(den):
                return num, den
    return num, den


class Expanded:
    """A (num, den) pair in the normal form of the expanded arithmetic."""

    def __init__(self, num, den=ONE):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(num)
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            return
        num, den = trial_cancel(*_normalize_content(num, den))
        if den.trailing()[1] < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    @staticmethod
    def of(x):
        return x if isinstance(x, Expanded) else Expanded(x)

    def __add__(self, other):
        o = Expanded.of(other)
        if self.den == o.den:
            return Expanded(self.num + o.num, self.den)
        return Expanded(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return Expanded(-self.num, self.den)

    def __sub__(self, other):
        return self + (-Expanded.of(other))

    def __mul__(self, other):
        o = Expanded.of(other)
        return Expanded(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Expanded.of(other)
        return Expanded(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return Expanded.of(other) / self


def assert_same(rf, ex):
    assert rf.num == ex.num, (str(rf.num), str(ex.num))
    assert rf.den == ex.den, (str(rf.den), str(ex.den))


# -- the sums and the suites' values ---------------------------------------------


def expanded_g(n, s):
    # the sum of core.g over its expanded common denominator
    top = (n - s + 1) // 2
    num = ZERO
    for k in range(top + 1):
        cofactor = poch_neg_bq(s + k, top - k) * poch_neg_bq(n - top + 1, top - k)
        num = num + Polynomial.monomial(k * k + s * k, k) * q_binomial(n - k - s + 1, k) * cofactor
    return Expanded(num, poch_neg_bq(s, top) * poch_neg_bq(n - top + 1, top))


def expanded_g_difference(n, s):
    top = (n - s + 1) // 2
    num = ZERO
    for k in range(1, top + 1):
        cofactor = poch_neg_bq(s + k + 1, top - k) * poch_neg_bq(n - top + 2, top - k)
        num = num + Polynomial.monomial(k * k + s * k, k) * q_binomial(n - k - s, k - 1) * cofactor
    return Expanded(num, poch_neg_bq(s, top + 1) * poch_neg_bq(n - top + 2, top - 1))


def expanded_backward(n):
    t = Expanded(f(n))
    for j in range(n - 1, 0, -1):
        t = f(j) + Expanded(L * Q ** (j + 1)) / t
    return (ONE + B) + Expanded(L * Q) / t


def test_g_and_g_difference_match_expanded_normal_form():
    for n in range(1, 13):
        for s in range(n + 2):
            assert_same(g(n, s), expanded_g(n, s))
        for s in range(n):
            assert_same(g_difference(n, s), expanded_g_difference(n, s))


def test_recursion_and_telescoping_values_match_expanded_arithmetic():
    # every ratio, right-hand side, unwound fraction, difference and closed
    # form that check_recursion(10) and check_telescoping(10) build
    for n in range(1, 11):
        gs = {s: (g(n, s), expanded_g(n, s)) for s in range(n + 2)}
        ratios = [(f(s) * gs[s][0] / gs[s + 1][0], f(s) * gs[s][1] / gs[s + 1][1]) for s in range(n + 1)]
        for r, ex in ratios:
            assert_same(r, ex)
        for s in range(n):
            term = L * Q ** (s + 1)
            assert_same(f(s) + term / ratios[s + 1][0], f(s) + Expanded(term) / ratios[s + 1][1])
        value, ex = ratios[n]
        for s in range(n - 1, -1, -1):
            value = f(s) + (L * Q ** (s + 1)) / value
            ex = f(s) + Expanded(L * Q ** (s + 1)) / ex
            assert_same(value, ex)
        assert_same(core.cf_finite_backward(core.CFSpec.standard(n)), expanded_backward(n))
        for s in range(n):
            direct = gs[s][0] - gs[s + 1][0]
            assert_same(direct, gs[s][1] - gs[s + 1][1])
            closed = RationalFunction(L * Q ** (s + 1)) / f(s) / f(s + 1) * gs[s + 2][0]
            assert_same(closed, Expanded(L * Q ** (s + 1), f(s) * f(s + 1)) * gs[s + 2][1])


def test_theorem1_ratio_matches_expanded_normal_form():
    for n in range(1, 15):
        assert_same((ONE + B) * g(n, 0) / g(n, 1), (ONE + B) * expanded_g(n, 0) / expanded_g(n, 1))


# -- random factored values --------------------------------------------------------

small_monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
# no f_j divides a residual that fails the family screen, nor its product
# with 1 - q^k factors, so every f_j of a value is one that it names
residuals = (
    st.dictionaries(small_monomials, st.integers(-3, 3), min_size=1, max_size=3)
    .map(Polynomial)
    .filter(lambda p: not _vanishes_at_factor_roots(p))
)


@st.composite
def sides(draw, shared, hide):
    """One side of a value: a residual times 1 - q^k factors, and f_j factors
    from the shared multiset, each known or, when ``hide`` is set, possibly
    hidden in the residual."""
    res = draw(residuals)
    for k in draw(st.lists(st.integers(1, 3), max_size=2)):
        res = res * (ONE - Q**k)
    known: dict[int, int] = {}
    for j in draw(st.lists(st.sampled_from(shared), max_size=4)):
        if hide and draw(st.booleans()):
            res = res * f(j)
        else:
            known[j] = known.get(j, 0) + 1
    return res, known


def _expand(res, known):
    for j, e in known.items():
        res = res * f(j) ** e
    return res


@st.composite
def values(draw, shared, hide):
    (rn, kn), (rd, kd) = draw(sides(shared, hide)), draw(sides(shared, hide))
    exps = {j: kn.get(j, 0) - kd.get(j, 0) for j in kn.keys() | kd.keys()}
    return RationalFunction._from_exps(rn, exps, rd), Expanded(_expand(rn, kn), _expand(rd, kd))


def same_or_equal(hide):
    """assert_same when every f_j is named; with hidden f_j, which stay on
    both sides, equality of value only."""
    if not hide:
        return assert_same

    def equal(rf, ex):
        assert rf == RationalFunction(ex.num, ex.den), (str(rf), str(ex.num), str(ex.den))

    return equal


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_factored_arithmetic_matches_expanded(data):
    shared = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    hide = data.draw(st.booleans())
    check = same_or_equal(hide)
    x, ex = data.draw(values(shared, hide))
    y, ey = data.draw(values(shared, hide))
    j = data.draw(st.sampled_from(shared))
    check(x, ex)
    check(x + y, ex + ey)
    check(x - y, ex - ey)
    check(x * y, ex * ey)
    check(x / y, ex / ey)
    check(f(j) * x, Expanded(f(j)) * ex)
    check(x / f(j), ex / Expanded(f(j)))
    check(RationalFunction(x.num, x.den), ex)
    assert x == RationalFunction(ex.num, ex.den)


@st.composite
def polynomial_values(draw, shared, hide):
    """A polynomial as a value: known f_j in the map, the rest in the residual."""
    res, known = draw(sides(shared, hide))
    return RationalFunction._from_exps(res, known), Expanded(_expand(res, known))


monomial_values = st.builds(
    lambda mono, c: Polynomial({mono: c}), small_monomials, st.integers(-6, 6).filter(bool)
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_polynomial_sums_and_monomial_products_match_expanded(data):
    # a sum with a polynomial and a product or quotient with a monomial, each
    # normalised like any other value, on values with maps on both sides
    shared = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    hide = data.draw(st.booleans())
    check = same_or_equal(hide)
    x, ex = data.draw(values(shared, hide))
    p, ep = data.draw(polynomial_values(shared, hide))
    m = data.draw(monomial_values)
    check(x + p, ex + ep)
    check(p + x, ep + ex)
    check(x - p, ex - ep)
    check(p - x, ep - ex)
    # p again with every factor in the residual: the sum cancels to zero
    zero = p - RationalFunction(ep.num)
    assert zero.is_zero and zero.den == ONE and zero._exps == {}
    check(m * x, Expanded(m) * ex)
    check(x * m, ex * Expanded(m))
    check(x / m, ex / Expanded(m))
    if not x.is_zero:
        check(m / x, Expanded(m) / ex)


def test_backward_fraction_does_no_trial_division(monkeypatch):
    # the fraction is a continuant of polynomials, A_0/A_1, already normal,
    # so cf_finite_backward never divides anything out
    calls = []
    divide_factor = poly._divide_factor
    monkeypatch.setattr(poly, "_divide_factor", lambda p, j: calls.append(j) or divide_factor(p, j))
    spec = core.CFSpec.standard(12)
    value = core.cf_finite_backward(spec)
    assert calls == []
    # the counter sees the general path, which divides out a named 1+bq
    RationalFunction._from_exps(ONE + L, {1: 1}, f(1) * (ONE - L))
    assert calls == [1]
    monkeypatch.undo()
    assert_same(value, expanded_backward(12))


def test_verify_suites_make_no_failing_division(monkeypatch):
    # divisibility is decided before _divide_factor is called, so every
    # quotient times f_j gives back its dividend
    calls = {"ok": 0, "failed": 0}
    divide_factor = poly._divide_factor

    def checked_divide_factor(p, j):
        out = divide_factor(p, j)
        calls["ok" if out * f(j) == p else "failed"] += 1
        return out

    core._g_cached.cache_clear()
    monkeypatch.setattr(poly, "_divide_factor", checked_divide_factor)
    assert all(report.all_passed for report in verify.run_all(10, 0))
    assert calls["failed"] == 0 and calls["ok"] > 0, calls


def test_sum_over_equal_denominators_split_differently():
    # x hides f_3 in its residual denominator and y names it: the expanded
    # denominators are equal, but the sum cross-multiplies the residuals, so
    # it is checked by value
    r = ONE + L + 2 * Q * B
    x = RationalFunction(Q, r * f(3))
    y = RationalFunction._from_exps(L, {3: -1}, r)
    assert x.den == y.den
    total = x + y
    assert total == RationalFunction(Q + L, r * f(3))
    assert total - x == y



def test_factored_runs_are_pochhammer_products():
    # (-bq;q)_3 / (-bq^2;q)_2 leaves f_1 over the residual; runs may overlap
    x = RationalFunction._factored(L, num_runs=((1, 3),), den_runs=((2, 2),))
    assert x._exps == {1: 1} and x.num == L * f(1) and x.den == ONE
    y = RationalFunction._factored(ONE, den_runs=((0, 2), (1, 2)))
    assert y._exps == {0: -1, 1: -2, 2: -1}
    assert_same(y, Expanded(ONE, f(0) * f(1) ** 2 * f(2)))


# -- bounded memory ----------------------------------------------------------------


def test_expansions_are_cached_and_the_tables_bounded():
    # num and den multiply the known factors back in, one f_j at a time, and
    # are cached on the value; the g values and the q-binomials sit in their
    # own bounded tables, and no other table grows
    tables = (core._g_cached, qpoch.q_binomial)
    for cache in tables:
        cache.cache_clear()
    for n in range(1, 21):
        for s in range(n + 2):
            x = g(n, s)
            assert x.num is x.num and x.den is x.den
        ratio = (ONE + B) * g(n, 0) / g(n, 1)
        assert ratio.num is ratio.num and ratio.den is ratio.den
    for cache in tables:
        info = cache.cache_info()
        assert info.currsize == info.misses <= info.maxsize, info


# -- the continuant step of the continued fraction ---------------------------------


def test_backward_levels_match_operator_route():
    # every tail A_j/A_(j+1) of every depth up to 24, from the seed f_n over
    # 1 down to T_0, against the same tails built by the generic operators
    for n in range(1, 25):
        tails = cf_tails_by_operators(n)
        a, a_next = f(n), ONE
        assert RationalFunction(a, a_next) == tails[0]
        for j, want in zip(range(n - 1, -1, -1), tails[1:]):
            a, a_next = _step(a, j, a_next, j + 1), a
            assert RationalFunction(a, a_next) == want, (n, j)
        backward = core.cf_finite_backward(core.CFSpec.standard(n))
        assert (backward.num, backward.den) == (a, a_next) == core._descend(f(n), ONE, n)


def test_shifted_level_monomial_fails_recursion_and_theorem1(monkeypatch):
    # mutation: the step's monomial l*q^k becomes l*q^(k+1), in the forward
    # pairs, the backward fraction, the recursion descent and the
    # Al-Salam-Ismail recurrence alike
    source = inspect.getsource(poly._step)
    assert source.count("(r, k, 1, 0)") == 1
    namespace = dict(vars(poly))
    exec(source.replace("(r, k, 1, 0)", "(r, k + 1, 1, 0)"), namespace)
    mutant = namespace["_step"]
    monkeypatch.setattr(core, "_step", mutant)
    monkeypatch.setattr(verify, "_step", mutant)
    report = verify.check_recursion(4)
    # every level of the descent (s < n) fails against the g ratios; the
    # fraction rebuilt from R_n (s = n + 1) takes the same mutant step as the
    # forward pairs, so it agrees with them, and fails against R_0
    failed = {(n, s) for (_, n), (_, s) in (c.params for c in report.cases if not c.passed)}
    assert failed == {(n, s) for n in range(1, 5) for s in [*range(n), n + 1]}
    assert verify.check_theorem1(4).n_pass == 0
    for n in range(1, 5):
        lhs = (ONE + B) * g(n, 0) / g(n, 1)
        assert not verify.compare(lhs, core.cf_finite_backward(core.CFSpec.standard(n)))[0]
    # U_0 = 1 and U_1 = f_1 take no l step; from n = 2 on, U_n no longer
    # equals the explicit sum, which calls _step only with r = 0
    report = verify.check_asi(4)
    assert {n for ((_, n),) in (c.params for c in report.cases if not c.passed)} == {2, 3, 4}
    assert report.n_pass == 2


# -- substitution at b = 0 -----------------------------------------------------------


def internal_form(x):
    return x._rnum._terms, x._rden._terms, x._exps


def assert_substitutes_at_b0(x):
    # every f_j is 1 at b = 0: the residuals give the same value as the expansion
    want = RationalFunction(x.num.substitute("b", 0), x.den.substitute("b", 0))
    assert internal_form(x.substitute("b", 0)) == internal_form(want), str(x)


def test_substitute_b0_skips_the_expansion():
    for n in range(1, 13):
        for s in range(n + 2):
            assert_substitutes_at_b0(g(n, s))
        assert_substitutes_at_b0(core.cf_finite_backward(core.CFSpec.standard(n)))
    for x in (
        RationalFunction._from_exps(ONE + L + B * Q, {1: 1, 2: -2}, ONE - L * B),
        RationalFunction._from_exps(-(B * L) + Q, {0: -1, 3: 2}, 2 * (ONE + B)),
        RationalFunction._factored(L, num_runs=((1, 2),), den_runs=((2, 2),)),
    ):
        assert x._exps and any(e < 0 for e in x._exps.values()) and any(e > 0 for e in x._exps.values())
        assert_substitutes_at_b0(x)
    # the residual denominator vanishes at b = 0 although f_j does not
    with pytest.raises(DivisionByZero, match="denominator vanishes at b=0"):
        RationalFunction._from_exps(ONE, {1: 1}, B * (ONE + L)).substitute("b", 0)


@given(p=residuals | st.dictionaries(small_monomials, st.integers(-3, 3), max_size=5).map(Polynomial))
@settings(max_examples=100)
def test_polynomial_substitute_zero_is_the_general_loop(p):
    for var in "qlb":
        assert p.substitute(var, 0)._terms == substitute_by_terms(p, var, 0)._terms
