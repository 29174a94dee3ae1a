"""The factored RationalFunction against the fully expanded normal form.

``Expanded`` below is rational-function arithmetic with no exponent map:
every result is normalised from the expanded cross products by
``_normalize_content``, then ``trial_cancel``, then the sign rule, and a
sum uses the shared denominator only when the two denominators are equal.
``trial_cancel`` finds the structured factors by a value screen and trial
division, independently of the exact divisibility tests of ``rrcf.poly``.
The factored arithmetic must give the very same ``num`` and ``den``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rrcf import core, poly, qpoch, verify
from rrcf.core import g, g_difference
from rrcf.poly import (
    B,
    L,
    ONE,
    Q,
    ZERO,
    NotDivisible,
    Polynomial,
    RationalFunction,
    _normalize_content,
)
from rrcf.qpoch import poch_neg_bq, q_binomial


def f(j):
    return ONE + B * Q**j


FILTER_POINT = (3, 2, 2)


def is_unit(p):
    return len(p) == 1 and p.constant_coeff != 0


def trial_cancel(num, den):
    """Divide out common factors (1 - q^j) and (1 + b*q^j) from num and den.

    A factor that divides num and den has a value at FILTER_POINT that
    divides both of theirs; no candidate vanishes there (|1 + 2*3^j| >= 3,
    |1 - 3^j| >= 2), so the value screen is a valid necessary condition,
    and only candidates that pass it are tried by exact division.  The
    candidates are 1 + b*q^j for descending j >= 0, then 1 - q^j for
    descending j >= 1, each while den's q-degree is at least j.
    """
    if is_unit(den):
        return num, den
    num_val, den_val = num.eval_exact(*FILTER_POINT), den.eval_exact(*FILTER_POINT)
    fq, _, fb = FILTER_POINT
    dq = den.degree("q")
    candidates = [(j, f(j), 1 + fb * fq**j) for j in range(dq, -1, -1)]
    candidates += [(j, ONE - Q**j, fq**j - 1) for j in range(dq, 0, -1)]
    for j, factor, f_val in candidates:
        while dq >= j:
            if num_val % f_val or den_val % f_val:
                break
            try:
                new_den = den.exact_div(factor)
                new_num = num.exact_div(factor)
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
residuals = (
    st.dictionaries(small_monomials, st.integers(-3, 3), min_size=1, max_size=3)
    .map(Polynomial)
    .filter(lambda p: not p.is_zero)
)


@st.composite
def sides(draw, shared):
    """One side of a value: a residual times 1 - q^k factors, and f_j factors
    from the shared multiset, each either hidden in the residual or known."""
    res = draw(residuals)
    for k in draw(st.lists(st.integers(1, 3), max_size=2)):
        res = res * (ONE - Q**k)
    known: dict[int, int] = {}
    for j in draw(st.lists(st.sampled_from(shared), max_size=4)):
        if draw(st.booleans()):
            res = res * f(j)
        else:
            known[j] = known.get(j, 0) + 1
    return res, known


def _expand(res, known):
    for j, e in known.items():
        res = res * f(j) ** e
    return res


@st.composite
def values(draw, shared):
    (rn, kn), (rd, kd) = draw(sides(shared)), draw(sides(shared))
    exps = {j: kn.get(j, 0) - kd.get(j, 0) for j in kn.keys() | kd.keys()}
    return RationalFunction._from_exps(rn, exps, rd), Expanded(_expand(rn, kn), _expand(rd, kd))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_factored_arithmetic_matches_expanded(data):
    shared = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    x, ex = data.draw(values(shared))
    y, ey = data.draw(values(shared))
    j = data.draw(st.sampled_from(shared))
    assert_same(x, ex)
    assert_same(x + y, ex + ey)
    assert_same(x - y, ex - ey)
    assert_same(x * y, ex * ey)
    assert_same(x / y, ex / ey)
    assert_same(f(j) * x, Expanded(f(j)) * ex)
    assert_same(x / f(j), ex / Expanded(f(j)))
    assert_same(RationalFunction(x.num, x.den), ex)
    assert x == RationalFunction(ex.num, ex.den)


@st.composite
def polynomial_values(draw, shared):
    """A polynomial as a value: known f_j in the map, the rest in the residual."""
    res, known = draw(sides(shared))
    return RationalFunction._from_exps(res, known), Expanded(_expand(res, known))


monomial_values = st.builds(
    lambda mono, c: Polynomial({mono: c}), small_monomials, st.integers(-6, 6).filter(bool)
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_polynomial_and_monomial_shortcuts_match_expanded(data):
    # the operations that skip normalisation: a sum with a polynomial, and a
    # product or quotient with a monomial, on values with maps on both sides
    shared = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    x, ex = data.draw(values(shared))
    p, ep = data.draw(polynomial_values(shared))
    m = data.draw(monomial_values)
    assert p._is_polynomial() and RationalFunction(m)._is_monomial()
    assert_same(x + p, ex + ep)
    assert_same(p + x, ep + ex)
    assert_same(x - p, ex - ep)
    assert_same(p - x, ep - ex)
    # p again with every factor in the residual: the sum cancels to zero
    zero = p - RationalFunction(ep.num)
    assert zero.is_zero and zero.den == ONE and zero._exps == {}
    assert_same(m * x, Expanded(m) * ex)
    assert_same(x * m, ex * Expanded(m))
    assert_same(x / m, ex / Expanded(m))
    if not x.is_zero:
        assert_same(m / x, Expanded(m) / ex)


def test_backward_fraction_does_no_trial_division(monkeypatch):
    # every level is a polynomial plus a monomial over the tail, so
    # cf_finite_backward never reaches _cancel_structured
    calls = []
    cancel, exact_div = poly._cancel_structured, Polynomial.exact_div
    monkeypatch.setattr(poly, "_cancel_structured", lambda *a: calls.append("cancel") or cancel(*a))
    monkeypatch.setattr(Polynomial, "exact_div", lambda p, d: calls.append("exact_div") or exact_div(p, d))
    spec = core.CFSpec.standard(12)
    value = core.cf_finite_backward(spec)
    assert calls == []
    # the counters see the general path
    RationalFunction(ONE - Q**2, ONE - Q)
    assert "cancel" in calls and "exact_div" in calls
    monkeypatch.undo()
    assert_same(value, expanded_backward(12))


def test_verify_suites_make_no_failing_division(monkeypatch):
    # divisibility is decided before exact_div is called, so no call fails
    calls = {"ok": 0, "failed": 0}
    exact_div = Polynomial.exact_div

    def counting_exact_div(p, d):
        try:
            out = exact_div(p, d)
        except NotDivisible:
            calls["failed"] += 1
            raise
        calls["ok"] += 1
        return out

    core._g_cached.cache_clear()
    monkeypatch.setattr(Polynomial, "exact_div", counting_exact_div)
    assert all(report.all_passed for report in verify.run_all(10, 0))
    assert calls["failed"] == 0 and calls["ok"] > 0, calls


def test_sum_over_equal_denominators_split_differently():
    # x hides f_3 in its residual denominator and y carries it as a known
    # factor: the denominators are equal, so the sum is over that one
    # denominator and the non-structured r is not squared
    r = ONE + L + 2 * Q * B
    x = RationalFunction(Q, r * f(3))
    y = RationalFunction._from_exps(L, {3: -1}, r)
    assert x.den == y.den
    total = x + y
    assert_same(total, Expanded(x.num, x.den) + Expanded(y.num, y.den))
    assert total.den == r * f(3)



def test_factored_runs_are_pochhammer_products():
    # (-bq;q)_3 / (-bq^2;q)_2 leaves f_1 over the residual; runs may overlap
    x = RationalFunction._factored(L, num_runs=((1, 3),), den_runs=((2, 2),))
    assert x._exps == {1: 1} and x.num == L * f(1) and x.den == ONE
    y = RationalFunction._factored(ONE, den_runs=((0, 2), (1, 2)))
    assert y._exps == {0: -1, 1: -2, 2: -1}
    assert_same(y, Expanded(ONE, f(0) * f(1) ** 2 * f(2)))


# -- bounded memory ----------------------------------------------------------------


def test_expansions_go_through_the_bounded_product_table():
    # num and den multiply the known factors back in one (-bq^m;q)_k per run
    # of consecutive j, read from the bounded product table, and are cached
    # on the value; no other table grows
    core._g_cached.cache_clear()
    qpoch._product.cache_clear()
    for n in range(1, 21):
        for s in range(n + 2):
            x = g(n, s)
            assert x.num is x.num and x.den is x.den
        ratio = (ONE + B) * g(n, 0) / g(n, 1)
        assert ratio.num is ratio.num and ratio.den is ratio.den
    for cache in (core._g_cached, qpoch._product):
        info = cache.cache_info()
        assert info.currsize == info.misses <= info.maxsize, info
