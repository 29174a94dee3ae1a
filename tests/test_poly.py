"""Exact polynomial and rational-function arithmetic."""

import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import NotDivisible, eval_polynomial, exact_div
from rrcf import poly
from rrcf.core import g
from rrcf.poly import (
    B,
    DivisionByZero,
    L,
    ONE,
    Polynomial,
    Q,
    RationalFunction,
    ZERO,
    _divide_factor,
    _factor_divides,
    _step,
    _vanishes_at_factor_roots,
)

monomials = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
).filter(lambda m: sum(m) <= 6)
coefficients = st.integers(-9, 9)
polynomials = st.dictionaries(monomials, coefficients, max_size=4).map(Polynomial)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero)


# -- polynomial ring ---------------------------------------------------------


def test_add_basic():
    assert (ONE + Q) + Q == ONE + 2 * Q


def test_add_identity():
    p = ONE + 3 * Q * L - B**2
    assert p + ZERO == p


def test_add_inverse_cancels_to_empty():
    total = (ONE - Q) + (Q - ONE)
    assert total.is_zero
    assert len(total) == 0


def test_mul_difference_of_squares():
    assert (ONE - Q) * (ONE + Q) == ONE - Q**2


def test_mul_identity():
    p = 2 * Q**3 - L * B
    assert p * ONE == p


def test_mul_two_factors_expanded():
    # (1+bq)(1+bq^2) = 1 + bq + bq^2 + b^2 q^3
    assert (ONE + B * Q) * (ONE + B * Q**2) == ONE + B * Q + B * Q**2 + B**2 * Q**3


def _factor(j):
    return ONE + B * Q**j


def _mul_by_loop(a, b):
    # the general loop of Polynomial.__mul__: every pair of terms, summed per
    # key, zeros dropped; the oracle for its one-term shortcut
    out = {}
    for (aq, al, ab), ca in a._terms.items():
        for (bq, bl, bb), cb in b._terms.items():
            key = (aq + bq, al + bl, ab + bb)
            out[key] = out.get(key, 0) + ca * cb
    return Polynomial({k: c for k, c in out.items() if c})


@given(p=polynomials, mono=monomials, c=coefficients.filter(bool))
@settings(max_examples=150)
def test_one_term_product_is_a_key_shift(p, mono, c):
    m = Polynomial({mono: c})
    assert p * m == _mul_by_loop(p, m)
    assert m * p == _mul_by_loop(m, p)


@given(p=polynomials)
@example(p=ZERO)
@example(p=ONE)
@example(p=Polynomial.constant(1))
@settings(max_examples=150)
def test_product_with_one_is_the_other_operand(p):
    # values are immutable, so a product with 1 shares its other operand;
    # the general loop agrees, and so does a 1 built apart from ONE
    assert p * ONE is p and ONE * p is p
    one = Polynomial.constant(1)
    assert p * one == p == one * p
    assert (p * ONE)._terms == _mul_by_loop(p, ONE)._terms == _mul_by_loop(ONE, p)._terms


@given(p=polynomials, r=polynomials, j=st.integers(0, 6))
@settings(max_examples=150)
def test_times_factor_is_the_general_product(p, r, j):
    # the step with r = 0, p * f_j by shift and add, against the double loop,
    # on the empty polynomial, j = 0 and operands whose terms cancel, such as
    # (1-b*q^j)*f_j
    for x in (p, r * (ONE - B * Q**j), ZERO, ONE - B * Q**j):
        assert _step(x, j, ZERO, 0)._terms == _mul_by_loop(x, _factor(j))._terms


@given(p=polynomials, r=polynomials, x=polynomials, j=st.integers(0, 6), k=st.integers(0, 6))
@settings(max_examples=200)
def test_step_is_f_j_times_p_plus_l_q_k_times_r(p, r, x, j, k):
    # the continuant step against the ring operators, on random signed
    # operands and the empty polynomial, and on pairs whose two halves
    # cancel: in part, (p + l*q^k*x, r - f_j*x) steps to the same as (p, r),
    # or in full, (l*q^k*x, -f_j*x) steps to zero
    lqx, fx = L * Q**k * x, _factor(j) * x
    for a, c in ((p, r), (ZERO, r), (p, ZERO), (p + lqx, r - fx), (lqx, -fx)):
        assert _step(a, j, c, k)._terms == ((ONE + B * Q**j) * a + L * Q**k * c)._terms
    assert _step(p + lqx, j, r - fx, k) == _step(p, j, r, k)
    assert _step(lqx, j, -fx, k).is_zero


@given(mono=monomials, c=coefficients.filter(bool), n=st.integers(0, 5))
@settings(max_examples=100)
def test_one_term_power_is_repeated_product(mono, c, n):
    m = Polynomial({mono: c})
    prod = ONE
    for _ in range(n):
        prod = _mul_by_loop(prod, m)
    assert (m**n)._terms == prod._terms


def test_pow_zero_is_one_even_for_zero():
    assert ZERO**0 == ONE
    assert (Q + L) ** 0 == ONE


@pytest.mark.parametrize("base", [Q, Q + L], ids=["one_term", "multi_term"])
@pytest.mark.parametrize("n", [2.5, 2.0, Fraction(1, 2), True], ids=repr)
def test_pow_rejects_non_int_exponent(base, n):
    # a float or bool exponent is rejected up front, on one term as on many,
    # not read as a count of multiplies
    with pytest.raises(TypeError):
        base**n


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Polynomial({(-1, 0, 0): 1})


# -- the long-division oracle and the synthetic division by f_j ---------------


def test_exact_div_basic():
    assert exact_div(ONE - Q**2, ONE - Q) == ONE + Q


def test_exact_div_self():
    a = ONE + 2 * Q - L * B**3
    assert exact_div(a, a) == ONE


def test_exact_div_remainder_raises():
    with pytest.raises(NotDivisible):
        exact_div(ONE + Q, ONE - Q)


def test_exact_div_by_zero_raises():
    with pytest.raises(DivisionByZero):
        exact_div(ONE, ZERO)


def test_exact_div_non_integer_quotient_raises():
    with pytest.raises(NotDivisible):
        exact_div(Q, 2 * Q)


@given(a=polynomials, d=nonzero_polynomials)
@settings(max_examples=150)
def test_exact_div_inverts_mul(a, d):
    assert exact_div(a * d, d) == a


@pytest.mark.parametrize("j", [0, 1, 3])
def test_divide_factor_carries_terms_the_dividend_lacks(j):
    # (1 - b^2 q^(2j)) / f_j = 1 - b q^j: the quotient's b q^j term has no
    # counterpart in the dividend
    p = ONE - B**2 * Q ** (2 * j)
    assert _divide_factor(p, j)._terms == (ONE - B * Q**j)._terms
    assert _divide_factor(p, j) == exact_div(p, _factor(j))


# nonzero, with terms at two b-degrees at least, so that every division
# carries a quotient level into the next
multilevel_polynomials = nonzero_polynomials.filter(lambda p: len({m.eb for m, _ in p.terms()}) >= 2)


@given(p=multilevel_polynomials, j=st.integers(0, 6))
@settings(max_examples=150)
def test_divide_factor_inverts_times_factor(p, j):
    assert _divide_factor(_step(p, j, ZERO, 0), j)._terms == p._terms


def test_degree_and_substitute():
    p = ONE + B * Q + L * Q**2
    assert p.degree("q") == 2
    assert p.degree("l") == 1
    assert ZERO.degree("q") == -1
    assert p.substitute("b", 0) == ONE + L * Q**2
    assert p.substitute("q", 2) == Polynomial({(0, 0, 0): 1, (0, 0, 1): 2, (0, 1, 0): 4})


@pytest.mark.parametrize("value", [True, False], ids=repr)
def test_substitute_rejects_bool(value):
    # as the constructor does: True is an int, and would act as 1
    with pytest.raises(TypeError):
        (ONE + B * Q).substitute("b", value)
    with pytest.raises(TypeError):
        RationalFunction(ONE + B * Q, ONE + L).substitute("b", value)


@pytest.mark.parametrize("var", ["x", "Q", "", ["q"]], ids=repr)
@pytest.mark.parametrize("p", [ONE + B * Q, ZERO], ids=["polynomial", "zero"])
def test_unknown_variable_is_a_value_error(p, var):
    calls = (
        lambda: p.substitute(var, 0),
        lambda: p.degree(var),
        lambda: RationalFunction(p, ONE + L).substitute(var, 0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="expected q, l or b"):
            call()


@given(p=polynomials, r=polynomials, s=polynomials)
@settings(max_examples=150)
def test_mul_distributes_over_add(p, r, s):
    assert p * (r + s) == p * r + p * s


@given(p=polynomials, r=polynomials)
@settings(max_examples=100)
def test_commutativity(p, r):
    assert p + r == r + p
    assert p * r == r * p


# -- integer-only coefficients -----------------------------------------------


def _int_coefficients(p):
    return all(type(c) is int for _, c in p.terms())


@given(p=polynomials, r=polynomials, d=nonzero_polynomials, e=st.integers(0, 3), v=st.integers(-3, 3))
@settings(max_examples=100)
def test_every_result_has_int_coefficients(p, r, d, e, v):
    results = [p + r, p - r, p * r, p**e, exact_div(p * d, d), p.substitute("q", v), p.substitute("b", v)]
    rfs = [RationalFunction(p, d), RationalFunction(p, d) * 2 / 3]
    if r:
        rfs.append(RationalFunction(p * d, d * r))
    for rf in rfs:
        results += [rf.num, rf.den]
        if rf.num:
            # normal form: the joint content of num and den is 1
            assert math.gcd(*(c for _, c in rf.num.terms()), *(c for _, c in rf.den.terms())) == 1
    assert all(_int_coefficients(x) for x in results)


def test_fraction_coefficient_rejected():
    with pytest.raises(TypeError):
        Polynomial({(1, 0, 0): Fraction(1, 2)})
    with pytest.raises(TypeError):
        Polynomial.constant(Fraction(2, 1))
    with pytest.raises(TypeError):
        Q * Fraction(1, 2)
    with pytest.raises(TypeError):
        Q.substitute("q", Fraction(1, 2))


def test_float_exponent_rejected():
    # int(1.5) would silently turn the monomial into q
    with pytest.raises(TypeError):
        Polynomial({(1.5, 0, 0): 1})


def test_bool_coefficient_rejected():
    # True is an int, and would print as "True"
    with pytest.raises(TypeError):
        Polynomial({(0, 0, 0): True})


@pytest.mark.parametrize("value", [True, False], ids=repr)
def test_mul_rejects_bool(value):
    # as + and - do: True would act as 1 and False as 0
    with pytest.raises(TypeError):
        (ONE + Q) * value
    with pytest.raises(TypeError):
        value * (ONE + Q)


@pytest.mark.parametrize(
    "bad",
    [(0, 0, 0, True), (0, 0, 0, 1.0), (1.0, 0, 0, 1), (True, 0, 0, 1), (0, -1, 0, 1), (0, 0, -2, 3)],
    ids=repr,
)
def test_monomial_and_constant_reject_what_the_constructor_rejects(bad):
    # the same exception with the same message as Polynomial({mono: c})
    *mono, c = bad
    with pytest.raises((TypeError, ValueError)) as want:
        Polynomial({tuple(mono): c})
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        Polynomial.monomial(*mono, coeff=c)
    if mono == [0, 0, 0]:
        with pytest.raises(want.type, match="^coefficient .* of monomial Monomial.eq=0, el=0, eb=0. is not an int$"):
            Polynomial.constant(c)


@given(mono=monomials, c=coefficients)
def test_monomial_and_constant_match_the_constructor(mono, c):
    assert Polynomial.monomial(*mono, coeff=c)._terms == Polynomial({mono: c})._terms
    assert Polynomial.constant(c)._terms == Polynomial({(0, 0, 0): c})._terms


@given(p=nonzero_polynomials)
def test_sign_rule_reads_the_trailing_coefficient(p):
    assert poly._leads_negative(p) == (p.trailing()[1] < 0)


@given(p=polynomials)
def test_family_screen_is_kept_on_the_polynomial(p):
    screen = _vanishes_at_factor_roots(p)
    assert poly._passes_screen(p) is screen and p._screen is screen
    assert poly._passes_screen(p) is screen


@given(p=polynomials, j=st.integers(0, 4), c=coefficients)
@example(p=2 + 4 * Q - 6 * B, j=2, c=-3)
@settings(max_examples=100)
def test_polynomial_over_one_is_normal_as_it_stands(p, j, c):
    # a polynomial over 1 is already normal, content included, so its value
    # holds it unchanged; an operand c*f_j names its f_j and keeps c
    assume(poly._factor_index(p) is None)
    value = RationalFunction(p)
    assert (value._rnum, value._rden, value._exps) == (p, ONE, {})
    value = RationalFunction(_step(Polynomial.constant(c), j, ZERO, 0))
    assert (value._rnum, value._rden, value._exps) == (Polynomial.constant(c), ONE, {j: 1} if c else {})


def test_from_terms_json_rejects_fractional_exponent():
    with pytest.raises(ValueError):
        Polynomial.from_terms_json([{"c": "3", "q": 1.9, "l": 0, "b": 2}])


def test_rf_from_json_rejects_fractional_exponent():
    data = RationalFunction(Q**2, ONE + B).to_json()
    data["num"][0]["q"] = 2.5
    with pytest.raises(ValueError):
        RationalFunction.from_json(data)


def test_from_terms_json_rejects_rational_coefficient():
    for c in ("1/2", 1.5):
        with pytest.raises(ValueError):
            Polynomial.from_terms_json([{"c": c, "q": 1, "l": 0, "b": 0}])


def test_fraction_operands_are_rejected():
    # a rational constant is a quotient of ints, never a Fraction
    half = Fraction(1, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for lhs, rhs in ((RationalFunction(Q), half), (half, RationalFunction(Q)), (Q, half), (half, Q)):
            with pytest.raises(TypeError):
                op(lhs, rhs)
    with pytest.raises(TypeError):
        RationalFunction(half)
    with pytest.raises(TypeError):
        RationalFunction(Q, half)
    assert (RationalFunction(Q) == half) is False
    assert (RationalFunction(ONE) == Fraction(1)) is False
    half_q = RationalFunction(Q) / 2
    assert half_q.num == Q and half_q.den == Polynomial.constant(2)


# -- numeric evaluation ------------------------------------------------------


def test_eval_examples():
    assert eval_polynomial(ONE + Q, 0.5, 0.0, 0.0) == 1.5
    assert eval_polynomial(ZERO, 0.3, 1.0, 2.0) == 0.0
    assert math.isclose(eval_polynomial(ONE + B * Q + L * Q**2, 0.1, 1.0, 0.5), 1.06, rel_tol=1e-15)


unit_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
wide_monomials = st.tuples(
    st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)
).filter(lambda m: sum(m) <= 8)
wide_polynomials = st.dictionaries(wide_monomials, coefficients, max_size=5).map(Polynomial)


@given(p=wide_polynomials, r=wide_polynomials, q=unit_floats, lam=unit_floats, b=unit_floats)
@settings(max_examples=150)
def test_eval_is_ring_homomorphism(p, r, q, lam, b):
    scale = (1.0 + sum(abs(float(c)) for _, c in p.terms())) * (
        1.0 + sum(abs(float(c)) for _, c in r.terms())
    )
    ep, er = eval_polynomial(p, q, lam, b), eval_polynomial(r, q, lam, b)
    assert math.isclose(eval_polynomial(p + r, q, lam, b), ep + er, rel_tol=1e-12, abs_tol=1e-12 * scale)
    assert math.isclose(eval_polynomial(p * r, q, lam, b), ep * er, rel_tol=1e-12, abs_tol=1e-12 * scale)


# -- rational functions ------------------------------------------------------


def test_rf_cancel_to_one():
    assert RationalFunction(ONE, ONE + B) * (ONE + B) == RationalFunction(ONE)


def test_rf_division_step_identity():
    # N/D = 1 + (N-D)/D with N = 1+q, D = 1
    n_rf, d_rf = RationalFunction(ONE + Q), RationalFunction(ONE)
    assert 1 + (n_rf - d_rf) / d_rf == RationalFunction(ONE + Q)


def test_rf_add_collects_over_common_denominator():
    lhs = RationalFunction(L * Q, ONE + B) + RationalFunction(L * Q * B, ONE + B)
    assert lhs == RationalFunction(L * Q)


def test_rf_equal_common_factor():
    assert RationalFunction(Q) == RationalFunction(Q - Q**2, ONE - Q)


def test_rf_not_equal():
    assert RationalFunction(ONE, ONE + B) != RationalFunction(ONE, ONE + B * Q)


def test_comparison_with_bool_is_false():
    # a bool is an int, but not a coefficient
    assert (ONE == True) is False
    assert (RationalFunction(ONE) == True) is False
    assert ONE == 1 and RationalFunction(ONE) == 1


def test_rf_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        RationalFunction(ONE, ZERO)
    with pytest.raises(DivisionByZero):
        RationalFunction(ONE) / RationalFunction(ZERO)


def test_rf_structured_cancellation_reduces(monkeypatch):
    # only a named 1 + b*q^j cancels: the same factor hidden in both
    # residuals is not even tested for, and a common 1 - q^2 is not looked for
    calls = []
    factor_divides = poly._factor_divides
    monkeypatch.setattr(poly, "_factor_divides", lambda j, p: calls.append(j) or factor_divides(j, p))
    f2 = ONE + B * Q**2
    hidden = RationalFunction(f2 * (ONE + L), f2 * (ONE - L))
    assert (hidden.num, hidden.den) == (f2 * (ONE + L), f2 * (ONE - L))
    assert hidden == RationalFunction(ONE + L, ONE - L)
    assert calls == []
    named = RationalFunction._from_exps(ONE + L, {2: 1}, f2 * (ONE - L))
    assert (named.num, named.den) == (ONE + L, ONE - L)
    assert calls == [2]
    f = ONE - Q**2
    rf = RationalFunction((ONE + L) * f, (ONE + 2 * L) * f)
    assert rf.num == (ONE + L) * f
    assert rf.den == (ONE + 2 * L) * f


def test_exact_rule_divides_nothing_when_numerator_vanishes_at_a_point(monkeypatch):
    # L - 2 makes the numerator vanish at (q, l, b) = (3, 2, 2), so a value
    # screen there learns nothing from it; the exact rule rejects every
    # candidate without dividing
    x = g(12, 1)
    calls = []
    divide_factor = poly._divide_factor

    def counting_divide_factor(p, j):
        calls.append(j)
        return divide_factor(p, j)

    monkeypatch.setattr(poly, "_divide_factor", counting_divide_factor)
    rf = RationalFunction(x.num * (L - 2), x.den)
    # the spy sees a division where one is due: a named f_1 over a multiple of it
    RationalFunction._from_exps(ONE + L, {1: 1}, _factor(1) * (ONE - L))
    monkeypatch.undo()
    assert (rf.num, rf.den) == (x.num * (L - 2), x.den)
    assert calls == [1]


def _divides(p, divisor):
    try:
        exact_div(p, divisor)
    except NotDivisible:
        return False
    return True


@given(p=nonzero_polynomials, j=st.integers(0, 5))
@settings(max_examples=150)
def test_factor_divides_is_exact(p, j):
    f = ONE + B * Q**j
    assert _factor_divides(j, p * f)
    assert _factor_divides(j, p) == _divides(p, f)


@given(p=nonzero_polynomials, j=st.integers(0, 5))
@settings(max_examples=150)
def test_family_screens_pass_on_every_multiple(p, j):
    assert _vanishes_at_factor_roots(p * (ONE + B * Q**j))


def test_known_factor_operand_becomes_an_exponent():
    for j in range(4):
        rf = RationalFunction(ONE + B * Q**j)
        assert (rf._exps, rf._rnum, rf._rden) == ({j: 1}, ONE, ONE)
        assert rf.num == ONE + B * Q**j and rf.den == ONE
    # a known factor cancels by counting, leaving nothing to divide
    x = g(6, 1)
    assert ((ONE + B * Q) * x / (ONE + B * Q))._exps == x._exps


def test_rf_content_and_sign_normalization():
    rf = RationalFunction(3 * Q, Polynomial.constant(9))
    assert rf.num == Q and rf.den == Polynomial.constant(3)
    # (q/2) / (3/2) with the rational content carried by int scalars
    rf = RationalFunction(Q) / 2 / RationalFunction(3, 2)
    assert rf.num == Q and rf.den == Polynomial.constant(3)
    flipped = RationalFunction(ONE, Q - ONE)
    assert flipped.den.trailing()[1] > 0
    assert flipped == RationalFunction(-ONE, ONE - Q)


@given(num=nonzero_polynomials, den=nonzero_polynomials)
@example(num=2 * (ONE + B * Q), den=2 * (ONE + B * Q) * (ONE + L))  # content hides an operand f_j
@example(num=-(ONE + B * Q), den=-(ONE + B * Q) * (ONE + L))  # so does the sign
@settings(max_examples=100)
def test_rf_normalization_idempotent(num, den):
    rf = RationalFunction(num, den)
    again = RationalFunction(rf.num, rf.den)
    assert again.num == rf.num and again.den == rf.den


@given(num=polynomials, den=nonzero_polynomials, f=nonzero_polynomials, h=nonzero_polynomials)
@settings(max_examples=100)
def test_rf_equality_is_an_equivalence(num, den, f, h):
    # three representatives of the same function, unreduced on purpose
    a = RationalFunction(num, den)
    b = RationalFunction(num * f, den * f)
    c = RationalFunction(num * h, den * h)
    assert a == a
    assert (a == b) and (b == a)
    assert (a == b) and (b == c) and (a == c)


def test_rf_substitute_vanishing_denominator():
    rf = RationalFunction(ONE, L - ONE)
    with pytest.raises(DivisionByZero):
        rf.substitute("l", 1)


# -- rendering and serialization ---------------------------------------------


def test_canonical_text():
    assert str(ZERO) == "0"
    assert str(ONE + Q * L + 2 * Q**3 * B) == "1 + q*l + 2*q^3*b"
    assert str(ONE - Q) == "1 + -q"
    assert str(RationalFunction(ONE + B * Q + L * Q, ONE + B * Q)) == "(1 + q*b + q*l)/(1 + q*b)"
    assert str(RationalFunction(ONE + Q)) == "1 + q"


def test_json_terms_sorted_with_string_coefficients():
    rf = RationalFunction(ONE + 2 * Q**3 * B + Q * L, ONE + B * Q)
    data = rf.to_json()
    assert data["num"] == [
        {"c": "1", "q": 0, "l": 0, "b": 0},
        {"c": "1", "q": 1, "l": 1, "b": 0},
        {"c": "2", "q": 3, "l": 0, "b": 1},
    ]
    assert data["den"] == [{"c": "1", "q": 0, "l": 0, "b": 0}, {"c": "1", "q": 1, "l": 0, "b": 1}]


@given(num=nonzero_polynomials, den=nonzero_polynomials)
@settings(max_examples=60)
def test_json_round_trip(num, den):
    rf = RationalFunction(num, den)
    back = RationalFunction.from_json(rf.to_json())
    assert back.num == rf.num and back.den == rf.den
