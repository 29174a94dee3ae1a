"""Exact polynomial and rational-function arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcf.core import g
from rrcf.poly import (
    B,
    DivisionByZero,
    L,
    NotDivisible,
    ONE,
    Polynomial,
    Q,
    RationalFunction,
    ZERO,
    _factor_divides,
    _q_factor_divides,
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


def test_pow_zero_is_one_even_for_zero():
    assert ZERO**0 == ONE
    assert (Q + L) ** 0 == ONE


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Polynomial({(-1, 0, 0): 1})


def test_exact_div_basic():
    assert (ONE - Q**2).exact_div(ONE - Q) == ONE + Q


def test_exact_div_self():
    a = ONE + 2 * Q - L * B**3
    assert a.exact_div(a) == ONE


def test_exact_div_remainder_raises():
    with pytest.raises(NotDivisible):
        (ONE + Q).exact_div(ONE - Q)


def test_exact_div_by_zero_raises():
    with pytest.raises(DivisionByZero):
        ONE.exact_div(ZERO)


def test_degree_and_substitute():
    p = ONE + B * Q + L * Q**2
    assert p.degree("q") == 2
    assert p.degree("l") == 1
    assert ZERO.degree("q") == -1
    assert p.substitute("b", 0) == ONE + L * Q**2
    assert p.substitute("q", 2) == Polynomial({(0, 0, 0): 1, (0, 0, 1): 2, (0, 1, 0): 4})


@given(p=polynomials, r=polynomials, s=polynomials)
@settings(max_examples=150)
def test_mul_distributes_over_add(p, r, s):
    assert p * (r + s) == p * r + p * s


@given(a=polynomials, d=nonzero_polynomials)
@settings(max_examples=150)
def test_exact_div_inverts_mul(a, d):
    assert (a * d).exact_div(d) == a


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
    results = [p + r, p - r, p * r, p**e, (p * d).exact_div(d), p.substitute("q", v), p.substitute("b", v)]
    rfs = [RationalFunction(p, d), RationalFunction(p, d) * Fraction(2, 3)]
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


def test_exact_div_non_integer_quotient_raises():
    with pytest.raises(NotDivisible):
        Q.exact_div(2 * Q)


def test_fraction_scalars_go_through_rational_function():
    half = RationalFunction(Q) * Fraction(1, 2)
    assert half.num == Q and half.den == Polynomial.constant(2)
    assert Q / Fraction(2, 3) == RationalFunction(3 * Q, 2)
    assert RationalFunction(Fraction(3, 4), Fraction(1, 2)) == RationalFunction(3, 2)


# -- numeric evaluation ------------------------------------------------------


def test_eval_examples():
    assert (ONE + Q).eval_numeric(0.5, 0.0, 0.0) == 1.5
    assert ZERO.eval_numeric(0.3, 1.0, 2.0) == 0.0
    assert math.isclose((ONE + B * Q + L * Q**2).eval_numeric(0.1, 1.0, 0.5), 1.06, rel_tol=1e-15)


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
    ep, er = p.eval_numeric(q, lam, b), r.eval_numeric(q, lam, b)
    assert math.isclose((p + r).eval_numeric(q, lam, b), ep + er, rel_tol=1e-12, abs_tol=1e-12 * scale)
    assert math.isclose((p * r).eval_numeric(q, lam, b), ep * er, rel_tol=1e-12, abs_tol=1e-12 * scale)


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


def test_rf_structured_cancellation_reduces():
    f = (ONE - Q**2) * (ONE + B * Q)
    rf = RationalFunction((ONE + L) * f, (ONE + 2 * L) * f)
    assert rf.num == ONE + L
    assert rf.den == ONE + 2 * L


def test_cancel_filter_holds_when_numerator_vanishes_at_filter_point(monkeypatch):
    # L - 2 makes the numerator vanish at (q, l, b) = (3, 2, 2), so a value
    # screen there learns nothing from it; the exact rule rejects every
    # candidate without dividing
    x = g(12, 1)
    calls = []
    exact_div = Polynomial.exact_div

    def counting_exact_div(self, divisor):
        calls.append(divisor)
        return exact_div(self, divisor)

    monkeypatch.setattr(Polynomial, "exact_div", counting_exact_div)
    rf = RationalFunction(x.num * (L - 2), x.den)
    monkeypatch.undo()
    assert (rf.num, rf.den) == (x.num * (L - 2), x.den)
    assert calls == []


def _divides(p, divisor):
    try:
        p.exact_div(divisor)
    except NotDivisible:
        return False
    return True


@given(p=nonzero_polynomials, j=st.integers(0, 5))
@settings(max_examples=150)
def test_factor_divides_is_exact(p, j):
    f = ONE + B * Q**j
    assert _factor_divides(j, p * f)
    assert _factor_divides(j, p) == _divides(p, f)


@given(p=nonzero_polynomials, j=st.integers(1, 5))
@settings(max_examples=150)
def test_q_factor_divides_is_exact(p, j):
    f = ONE - Q**j
    assert _q_factor_divides(j, p * f)
    assert _q_factor_divides(j, p) == _divides(p, f)


@given(p=nonzero_polynomials, j=st.integers(0, 5))
@settings(max_examples=150)
def test_family_screens_pass_on_every_multiple(p, j):
    assert _vanishes_at_factor_roots(p * (ONE + B * Q**j))
    if j:
        assert _q_factor_divides(1, p * (ONE - Q**j))


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
    # (q/2) / (3/2) with the rational content carried by Fraction scalars
    rf = RationalFunction(Q) * Fraction(1, 2) / Fraction(3, 2)
    assert rf.num == Q and rf.den == Polynomial.constant(3)
    flipped = RationalFunction(ONE, Q - ONE)
    assert flipped.den.trailing()[1] > 0
    assert flipped == RationalFunction(-ONE, ONE - Q)


@given(num=nonzero_polynomials, den=nonzero_polynomials)
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
