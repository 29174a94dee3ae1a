"""The convergent sums, the continued fraction and their exact relations.

Expected values here were derived by expanding the defining sums by hand for
small n; the larger-range sweeps live in the verification suites and the
acceptance tests.
"""

import pytest

from oracles import exact_div, poch_q
from rrcf import core, qpoch
from rrcf.core import (
    CFSpec,
    ConvergentPair,
    _assert_unit_constant,
    asi_u,
    cf_convergents_iter,
    cf_finite_backward,
    convergent,
    g,
    g_difference,
    mu,
    nu,
)
from rrcf.poly import B, L, ONE, ZERO, Polynomial, Q, RationalFunction
from rrcf.qpoch import q_binomial

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


def _b_factors(lo, hi):
    return _factors(lo, hi, lambda j: ONE + B * Q**j)


def _oracle_g(n, s):
    # each term's q-binomial is divided out here, and its factors 1 + b*q^j
    # are named as runs: the normal form cancels only the f_j a value names
    total = RationalFunction(ZERO)
    for k in range((n - s + 1) // 2 + 1):
        binomial = exact_div(poch_q(k, n - 2 * k - s + 2), poch_q(k))
        total = total + RationalFunction._factored(
            Polynomial.monomial(k * k + s * k, k) * binomial, den_runs=((s, k), (n - k + 1, k))
        )
    return total


def _oracle_g_difference(n, s):
    total = RationalFunction(ZERO)
    for k in range(1, (n - s + 1) // 2 + 1):
        binomial = exact_div(poch_q(k - 1, n - 2 * k - s + 2), poch_q(k - 1))
        total = total + RationalFunction._factored(
            Polynomial.monomial(k * k + s * k, k) * binomial, den_runs=((s, k + 1), (n - k + 2, k - 1))
        )
    return total


def _oracle_asi_u(n):
    # the explicit Al-Salam-Ismail sum, one term at a time; asi_u builds U_n
    # by its three-term recurrence, so this checks the sum against it
    total = RationalFunction(ZERO)
    for k in range(n // 2 + 1):
        binomial = exact_div(poch_q(k, n - 2 * k + 1), poch_q(k))
        total = total + RationalFunction._factored(
            Polynomial.monomial(k * k + k, k) * binomial, num_runs=((1, n - k),), den_runs=((1, k),)
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


def _cofactor_g(n, s):
    # core's sums over the common denominator, with every term's cofactor
    # multiplied out in full instead of summing in Horner form
    top = (n - s + 1) // 2
    num = ZERO
    for k in range(top + 1):
        cofactor = _b_factors(s + k, s + top - 1) * _b_factors(n - top + 1, n - k)
        num = num + Polynomial.monomial(k * k + s * k, k) * q_binomial(n - k - s + 1, k) * cofactor
    return RationalFunction._factored(num, den_runs=((s, top), (n - top + 1, top)))


def _cofactor_g_difference(n, s):
    top = (n - s + 1) // 2
    num = ZERO
    for k in range(1, top + 1):
        cofactor = _b_factors(s + k + 1, s + top) * _b_factors(n - top + 2, n - k + 1)
        num = num + Polynomial.monomial(k * k + s * k, k) * q_binomial(n - k - s, k - 1) * cofactor
    return RationalFunction._factored(num, den_runs=((s, top + 1), (n - top + 2, top - 1)))


def _cofactor_asi_u(n):
    # the explicit Al-Salam-Ismail sum with each term's factors multiplied
    # out, against asi_u's three-term recurrence
    num = ZERO
    for k in range(n // 2 + 1):
        num = num + Polynomial.monomial(k * k + k, k) * q_binomial(n - k, k) * _b_factors(k + 1, n - k)
    return RationalFunction(num)


def test_horner_sums_match_cofactor_sums_in_internal_form():
    # the same numerator over the same runs, so even the split into exponent
    # map and residuals must agree
    for n in range(0, 15):
        cases = [(asi_u(n), _cofactor_asi_u(n))]
        if n > 0:
            cases += [(g(n, s), _cofactor_g(n, s)) for s in range(0, n + 2)]
            cases += [(g_difference(n, s), _cofactor_g_difference(n, s)) for s in range(0, n)]
        for got, want in cases:
            assert (got._rnum, got._rden, got._exps) == (want._rnum, want._rden, want._exps)


def test_g_denominator_is_structured():
    # the reduced denominator divides prod_{j=s}^{n} (1 + b q^j)
    for n in range(1, 7):
        for s in range(0, n + 2):
            den = g(n, s).den
            full = ONE
            for j in range(s, n + 1):
                full = full * (ONE + B * Q**j)
            assert exact_div(full, den) * den == full


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


def test_cfspec_is_its_depth():
    assert CFSpec.standard(3) == CFSpec(3)
    assert CFSpec.standard(3).depth == 3
    for bad in (0, -1):
        with pytest.raises(ValueError):
            CFSpec(bad)
    for bad in (True, 2.0):
        with pytest.raises(TypeError):
            CFSpec(bad)
    assert CFSpec(3)._replace(depth=4) == CFSpec(4)
    with pytest.raises(ValueError):
        CFSpec(3)._replace(depth=0)


def test_cfspec_rejects_tampered_entries():
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
    pairs = list(cf_convergents_iter(CFSpec.standard(3)))
    assert (pairs[0].num, pairs[0].den) == (ONE + B, ONE)
    assert pairs[1].num == (ONE + B * Q) * (ONE + B) + L * Q
    assert pairs[1].den == ONE + B * Q
    assert pairs[1].num * pairs[0].den - pairs[0].num * pairs[1].den == L * Q


def test_forward_matches_backward():
    # one forward pass to depth 24: each pair P_j/Q_j is the depth-j
    # fraction, and it is the backward continuant's very num and den, so a
    # witness built from either is the same text
    pairs = cf_convergents_iter(CFSpec.standard(24))
    assert next(pairs) == ConvergentPair(0, ONE + B, ONE)
    depths = []
    for pair in pairs:
        backward = cf_finite_backward(CFSpec.standard(pair.index))
        assert RationalFunction(pair.num, pair.den) == backward
        assert (pair.num, pair.den) == (backward.num, backward.den)
        depths.append(pair.index)
    assert depths == list(range(1, 25))


def test_forward_list_is_the_generator_drained():
    # callers that want every pair drain the generator into a list; a
    # second generator gives the same list, and a drained one gives nothing
    spec = CFSpec.standard(6)
    pairs = cf_convergents_iter(spec)
    assert iter(pairs) is pairs
    drained = list(pairs)
    assert [pair.index for pair in drained] == list(range(7))
    assert drained == list(cf_convergents_iter(spec))
    assert list(pairs) == []


def test_determinant_identity():
    pairs = list(cf_convergents_iter(CFSpec.standard(8)))
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


def test_convergent_is_the_forward_pair_less_b():
    # convergent(n) closes with "- b", a sum with a polynomial, and its num
    # and den are exactly P_n - b*Q_n and Q_n of one forward pass, to depth 24
    pairs = cf_convergents_iter(CFSpec.standard(24))
    next(pairs)
    for pair in pairs:
        value = convergent(pair.index)
        assert (value.num, value.den) == (pair.num - B * pair.den, pair.den), pair.index


def test_recursion_one_level():
    for n in range(1, 8):
        for s in range(0, n):
            lhs = (ONE + B * Q**s) * g(n, s) / g(n, s + 1)
            rhs = (ONE + B * Q**s) + (L * Q ** (s + 1)) * g(n, s + 2) / (
                (ONE + B * Q ** (s + 1)) * g(n, s + 1)
            )
            assert lhs == rhs


def _q_factor_divides(j, p):
    # q^j - 1 is monic in q, so p's remainder by it is p with every
    # q-exponent reduced mod j; 1 - q^j divides p exactly when that is zero
    rem = {}
    for (eq, el, eb), c in p._terms.items():
        key = (eq % j, el, eb)
        rem[key] = rem.get(key, 0) + c
    return not any(rem.values())


def test_identity_values_share_no_q_factor():
    # The normal form cancels only the factors 1 + b*q^j, so no value the
    # identities print may have a common 1 - q^j left to cancel.  The sums'
    # denominators are products of 1 + b*q^j, which 1 - q^j does not divide.
    # The convergent, the backward fraction and each ratio R_s (the fraction
    # from level s down) have numerator and denominator P_n, Q_n of a
    # continued fraction, and the determinant identity
    # P_n Q_(n-1) - P_(n-1) Q_n = +-l^n q^(n(n+1)/2) makes gcd(P_n, Q_n)
    # divide a monomial.
    for n in range(1, 13):
        values = [asi_u(n), convergent(n), cf_finite_backward(CFSpec.standard(n))]
        values += [g(n, s) for s in range(n + 2)]
        values += [g_difference(n, s) for s in range(n)]
        values += [(ONE + B * Q**s) * g(n, s) / g(n, s + 1) for s in range(n + 1)]
        for value in values:
            num, den = value.num, value.den
            for j in range(1, den.degree("q") + 1):
                assert not (_q_factor_divides(j, den) and _q_factor_divides(j, num)), (n, j, str(value))


# -- Al-Salam-Ismail -------------------------------------------------------------


def test_asi_u_zero_is_one():
    assert asi_u(0) == RF_ONE


def test_asi_u_one_by_direct_expansion():
    # single k=0 term: (-a;q)_1 (q;q)_1 / (q;q)_1 * x at x=1, a=bq
    assert asi_u(1) == RationalFunction(ONE + B * Q)


def test_asi_relation():
    for n in range(1, 11):
        assert asi_u(n) == g(n, 1) * _b_factors(1, n)


def test_asi_u_is_the_continued_fractions_denominator():
    # U_n = Q_n: the forward recurrence's denominator, and A_1 of the
    # backward continuant, which builds it innermost-first
    for pair in cf_convergents_iter(CFSpec.standard(24)):
        n = pair.index
        u = asi_u(n)
        assert u.den == ONE and u.num == pair.den, n
        if n > 0:
            assert u.num == cf_finite_backward(CFSpec(n)).den, n


def test_asi_rejects_negative_n():
    with pytest.raises(ValueError):
        asi_u(-1)


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
    tables = (core._g_cached, qpoch.q_binomial)
    for cache in tables:
        cache.cache_clear()
    for n in range(1, 21):
        for s in range(n + 2):
            g(n, s)
        for s in range(n):
            g_difference(n, s)
        for f in (mu, nu, asi_u):
            f(n)
    for cache in tables:
        info = cache.cache_info()
        assert info.currsize == info.misses <= info.maxsize, info
