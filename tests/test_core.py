"""The convergent sums, the continued fraction and their exact relations.

Expected values here were derived by expanding the defining sums by hand for
small n; the larger-range sweeps live in the verification suites and the
acceptance tests.
"""

import pytest

from rrcf import core, qpoch
from rrcf.core import (
    CFSpec,
    _assert_unit_constant,
    asi_u,
    cf_convergents_forward,
    cf_finite_backward,
    convergent,
    g,
    g_difference,
    mu,
    nu,
)
from rrcf.poly import B, L, ONE, Polynomial, Q, RationalFunction
from rrcf.qpoch import poch_neg_bq

RF_ONE = RationalFunction(ONE)


# -- mu and nu ----------------------------------------------------------------


def test_mu_small():
    assert mu(1) == ONE + L * Q
    assert mu(2) == ONE + L * Q + L * Q**2


def test_nu_small():
    assert nu(1) == ONE
    assert nu(2) == ONE + L * Q**2


def test_mu_nu_contain_no_b():
    for n in range(1, 11):
        assert mu(n).degree("b") == 0
        assert nu(n).degree("b") == 0


def test_nu_at_lambda_zero_is_one():
    for n in range(1, 11):
        assert nu(n).substitute("l", 0) == ONE


def test_lambda_degree_matches_sum_bounds():
    for n in range(1, 11):
        assert mu(n).degree("l") == (n + 1) // 2
        assert nu(n).degree("l") == n // 2


def test_mu_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        mu(0)
    with pytest.raises(ValueError):
        nu(-1)


# -- g ------------------------------------------------------------------------


def test_g_endpoints_are_one():
    for n in range(1, 13):
        assert g(n, n) == RF_ONE
        assert g(n, n + 1) == RF_ONE


def test_g_1_0_by_hand():
    expected = 1 + RationalFunction(L * Q, (ONE + B) * (ONE + B * Q))
    assert g(1, 0) == expected


def test_g_equal_under_two_constructions():
    # same function assembled summed vs pre-normalized
    raw = RationalFunction((ONE + B) * (ONE + B * Q) + L * Q, (ONE + B) * (ONE + B * Q))
    assert g(1, 0) == raw


def test_g_domain_validation():
    with pytest.raises(ValueError):
        g(0, 0)
    with pytest.raises(ValueError):
        g(2, 5)
    with pytest.raises(ValueError):
        g(2, -1)


def test_g_b0_reduction():
    for n in range(1, 11):
        assert g(n, 0).substitute("b", 0) == RationalFunction(mu(n))
        assert g(n, 1).substitute("b", 0) == RationalFunction(nu(n))


def _factors(lo, hi, factor):
    prod = ONE
    for j in range(lo, hi + 1):
        prod = prod * factor(j)
    return prod


def _q_factors(lo, hi):
    return _factors(lo, hi, lambda j: ONE - Q**j)


def _b_factors(lo, hi):
    return _factors(lo, hi, lambda j: ONE + B * Q**j)


def _oracle_g(n, s):
    total = RationalFunction.zero()
    for k in range((n - s + 1) // 2 + 1):
        total = total + RationalFunction(
            Polynomial.monomial(k * k + s * k, k) * _q_factors(n - 2 * k - s + 2, n - k - s + 1),
            _q_factors(1, k) * _b_factors(s, s + k - 1) * _b_factors(n - k + 1, n),
        )
    return total


def _oracle_g_difference(n, s):
    total = RationalFunction.zero()
    for k in range(1, (n - s + 1) // 2 + 1):
        total = total + RationalFunction(
            Polynomial.monomial(k * k + s * k, k) * _q_factors(n - 2 * k - s + 2, n - k - s),
            _q_factors(1, k - 1) * _b_factors(s, s + k) * _b_factors(n - k + 2, n),
        )
    return total


def _oracle_asi_u(n):
    total = RationalFunction.zero()
    for k in range(n // 2 + 1):
        total = total + RationalFunction(
            Polynomial.monomial(k * k + k, k) * _q_factors(n - 2 * k + 1, n - k) * _b_factors(1, n - k),
            _q_factors(1, k) * _b_factors(1, k),
        )
    return total


def test_sums_match_term_by_term_oracle():
    # the sums are built over their common denominator; adding the terms one
    # rational function at a time must reach the very same normal form,
    # because `rrcf series` prints it
    for n in range(0, 9):
        cases = [(asi_u(n), _oracle_asi_u(n))]
        if n > 0:
            cases += [(g(n, s), _oracle_g(n, s)) for s in range(0, n + 2)]
            cases += [(g_difference(n, s), _oracle_g_difference(n, s)) for s in range(0, n)]
        for got, want in cases:
            assert (got.num, got.den) == (want.num, want.den)


def test_g_denominator_is_structured():
    # the reduced denominator divides prod_{j=s}^{n} (1 + b q^j)
    for n in range(1, 7):
        for s in range(0, n + 2):
            den = g(n, s).den
            full = ONE
            for j in range(s, n + 1):
                full = full * (ONE + B * Q**j)
            assert full.exact_div(den) * den == full


# -- the telescoping difference ------------------------------------------------


def test_difference_1_0():
    assert g_difference(1, 0) == RationalFunction(L * Q, (ONE + B) * (ONE + B * Q))


def test_difference_at_lambda_zero_vanishes():
    for n in range(1, 7):
        for s in range(0, n):
            assert g_difference(n, s).substitute("l", 0).is_zero


def test_difference_routes_agree():
    for n in range(1, 7):
        for s in range(0, n):
            direct = g(n, s) - g(n, s + 1)
            closed = RationalFunction(
                L * Q ** (s + 1), (ONE + B * Q**s) * (ONE + B * Q ** (s + 1))
            ) * g(n, s + 2)
            assert direct == g_difference(n, s)
            assert direct == closed


def test_difference_domain_validation():
    with pytest.raises(ValueError):
        g_difference(3, 3)


# -- the continued fraction -----------------------------------------------------


def test_cfspec_standard_entries():
    spec = CFSpec.standard(3)
    assert spec.leading == ONE + B
    assert spec.partial_numerators == (L * Q, L * Q**2, L * Q**3)
    assert spec.partial_denominators == (ONE + B * Q, ONE + B * Q**2, ONE + B * Q**3)


def test_cfspec_rejects_tampered_entries():
    good = CFSpec.standard(2)
    with pytest.raises(ValueError):
        CFSpec(
            depth=2,
            leading=good.leading,
            partial_numerators=(L * Q, L * Q**3),
            partial_denominators=good.partial_denominators,
        )
    with pytest.raises(ValueError):
        CFSpec(
            depth=2,
            leading=ONE,
            partial_numerators=good.partial_numerators,
            partial_denominators=good.partial_denominators,
        )
    with pytest.raises(ValueError):
        CFSpec.standard(0)


def test_backward_depth_one_by_hand():
    value = cf_finite_backward(CFSpec.standard(1))
    assert value == RationalFunction((ONE + B) * (ONE + B * Q) + L * Q, ONE + B * Q)


def test_backward_lambda_zero_collapses_to_leading():
    value = cf_finite_backward(CFSpec.standard(5)).substitute("l", 0)
    assert value == RationalFunction(ONE + B)


def test_backward_depth_one_b_zero():
    value = cf_finite_backward(CFSpec.standard(1)).substitute("b", 0)
    assert value == RationalFunction(ONE + L * Q)


def test_unit_constant_check_raises():
    _assert_unit_constant(RationalFunction(ONE + Q, ONE + B))
    for bad in (RationalFunction(Q), RationalFunction(2 + Q, ONE + B)):
        with pytest.raises(ArithmeticError):
            _assert_unit_constant(bad)


def test_forward_initial_pairs():
    pairs = cf_convergents_forward(CFSpec.standard(3))
    assert (pairs[0].num, pairs[0].den) == (ONE + B, ONE)
    assert pairs[1].num == (ONE + B * Q) * (ONE + B) + L * Q
    assert pairs[1].den == ONE + B * Q
    assert pairs[1].num * pairs[0].den - pairs[0].num * pairs[1].den == L * Q


def test_forward_matches_backward():
    for n in range(1, 9):
        spec = CFSpec.standard(n)
        pairs = cf_convergents_forward(spec)
        assert all(not p.den.is_zero for p in pairs)
        last = pairs[-1]
        assert RationalFunction(last.num, last.den) == cf_finite_backward(spec)


def test_determinant_identity():
    pairs = cf_convergents_forward(CFSpec.standard(8))
    for j in range(1, 9):
        det = pairs[j].num * pairs[j - 1].den - pairs[j - 1].num * pairs[j].den
        expected = Polynomial.monomial(j * (j + 1) // 2, j, 0, (-1) ** (j - 1))
        assert det == expected


# -- the convergent formula ------------------------------------------------------


def test_convergent_depth_one():
    assert convergent(1) == RationalFunction(ONE + B * Q + L * Q, ONE + B * Q)


def test_convergent_at_q_zero_is_one():
    for n in range(1, 8):
        assert convergent(n).substitute("q", 0) == RF_ONE


def test_convergent_b0_is_entry16_ratio():
    for n in range(1, 11):
        lhs = convergent(n).substitute("b", 0)
        assert lhs == RationalFunction(mu(n)) / RationalFunction(nu(n))


def test_convergent_formula_equals_fraction():
    for n in range(1, 9):
        lhs = (ONE + B) * g(n, 0) / g(n, 1)
        assert lhs == cf_finite_backward(CFSpec.standard(n))


def test_recursion_one_level():
    for n in range(1, 8):
        for s in range(0, n):
            lhs = (ONE + B * Q**s) * g(n, s) / g(n, s + 1)
            rhs = (ONE + B * Q**s) + (L * Q ** (s + 1)) * g(n, s + 2) / (
                (ONE + B * Q ** (s + 1)) * g(n, s + 1)
            )
            assert lhs == rhs


# -- Al-Salam-Ismail -------------------------------------------------------------


def test_asi_u_zero_is_one():
    assert asi_u(0) == RF_ONE


def test_asi_u_one_by_direct_expansion():
    # single k=0 term: (-a;q)_1 (q;q)_1 / (q;q)_1 * x at x=1, a=bq
    assert asi_u(1) == RationalFunction(ONE + B * Q)


def test_asi_relation():
    for n in range(1, 11):
        assert asi_u(n) == g(n, 1) * poch_neg_bq(1, n)


def test_asi_rejects_negative_n():
    with pytest.raises(ValueError):
        asi_u(-1)


def test_asi_x_hook_polynomial_one_matches_default():
    for n in range(0, 6):
        assert asi_u(n, ONE) == asi_u(n)
        assert asi_u(n, 1) == asi_u(n)


def test_asi_x_hook_at_zero():
    # x = 0 keeps only the n = 2k term: l^m q^(m^2+m) for n = 2m, zero for odd n
    for n in range(0, 9):
        value = asi_u(n, 0)
        if n % 2:
            assert value.is_zero
        else:
            m = n // 2
            assert value == RationalFunction(Polynomial.monomial(m * m + m, m))


# -- memo tables -----------------------------------------------------------------


def test_g_cache_is_bounded():
    cache = core._g_cached
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None and maxsize == core._G_CACHE_SIZE
    try:
        for n in range(1, maxsize + 10):  # g_n(n+1) = 1 is a one-term sum
            assert g(n, n + 1) == RF_ONE
        info = cache.cache_info()
        assert info.misses > maxsize
        assert info.currsize <= maxsize
    finally:
        cache.cache_clear()


def test_memo_tables_hold_every_entry_up_to_depth_20():
    # No entry a depth n <= 20 needs is ever evicted: every miss stays cached.
    core._g_cached.cache_clear()
    qpoch._product.cache_clear()
    for n in range(1, 21):
        for s in range(n + 2):
            g(n, s)
        for s in range(n):
            g_difference(n, s)
        for f in (mu, nu, asi_u):
            f(n)
    for cache in (core._g_cached, qpoch._product):
        info = cache.cache_info()
        assert info.currsize == info.misses <= info.maxsize, info
