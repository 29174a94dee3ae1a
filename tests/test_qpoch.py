"""q-rising factorials on shifted bases, and the Gaussian binomial.

The products (-bq^m;q)_k are tested as the library forms them: expanding a
rational function's known factors one at a time (``rrcf.poly._times_factors``).
"""

import math

import pytest

from rrcf import qpoch
from rrcf.poly import B, ONE, Q, RationalFunction, _times_factors
from rrcf.qpoch import poch_q, q_binomial


def poch_neg_bq(m, k):
    # (-bq^m;q)_k as the library expands it
    return _times_factors(ONE, dict.fromkeys(range(m, m + k), 1))


def _explicit(factor, m, k):
    prod = ONE
    for j in range(m, m + k):
        prod = prod * factor(j)
    return prod


def _one_minus_q(j):
    return ONE - Q**j


def _one_plus_bq(j):
    return ONE + B * Q**j


def test_poch_empty_product_is_one():
    assert poch_q(0) == ONE
    assert poch_q(0, 4) == ONE
    assert poch_neg_bq(3, 0) == ONE


def test_poch_q_two_terms():
    assert poch_q(2) == (ONE - Q) * (ONE - Q**2)
    assert poch_q(2) == ONE - Q - Q**2 + Q**3


def test_poch_neg_bq_two_terms():
    assert poch_neg_bq(1, 2) == (ONE + B * Q) * (ONE + B * Q**2)
    assert poch_neg_bq(1, 2) == ONE + B * Q + B * Q**2 + B**2 * Q**3


def test_products_match_explicit_factors():
    for m in range(0, 5):
        for k in range(0, 7):
            assert poch_neg_bq(m, k) == _explicit(_one_plus_bq, m, k)
            if m > 0:
                assert poch_q(k, m) == _explicit(_one_minus_q, m, k)


def test_base_one_vanishes_for_positive_index():
    # a = q^0 = 1 makes the first factor (1 - 1) = 0
    assert poch_q(0, 0) == ONE
    for k in range(1, 5):
        assert poch_q(k, 0).is_zero


def test_poch_rejects_negative_index():
    with pytest.raises(IndexError):
        poch_q(-1)
    with pytest.raises(IndexError):
        poch_q(-1, 3)


def test_poch_rejects_negative_base():
    with pytest.raises(ValueError):
        poch_q(2, -1)


@pytest.mark.parametrize("kind_m", [("q", 1), ("neg_b", 0), ("neg_b", 1)])
def test_pascal_recurrence(kind_m):
    kind, m = kind_m
    poch = (lambda k: poch_neg_bq(m, k)) if kind == "neg_b" else (lambda k: poch_q(k, m))
    a = -(B * Q**m) if kind == "neg_b" else Q**m
    for k in range(0, 13):
        assert poch(k + 1) == poch(k) * (ONE - a * Q**k)


# -- ratios of factorials are products on a shifted base ------------------------


def test_ratio_q_cancels_prefix():
    # (q;q)_3 / (q;q)_1 = (q^2;q)_2
    assert RationalFunction(poch_q(3), poch_q(1)) == RationalFunction(poch_q(2, 2))
    assert poch_q(2, 2) == (ONE - Q**2) * (ONE - Q**3)


def test_ratio_q_equal_indices():
    for k in range(0, 6):
        assert RationalFunction(poch_q(k), poch_q(k)) == RationalFunction(poch_q(0, k + 1))


def test_ratio_q_reciprocal_case():
    # (q;q)_1 / (q;q)_3 = 1 / (q^2;q)_2; the common 1 - q is not cancelled,
    # so the two are equal by value
    r = RationalFunction(poch_q(1), poch_q(3))
    assert r == RationalFunction(ONE, poch_q(2, 2))


def test_ratio_q_times_denominator_restores_numerator():
    for k1 in range(0, 13):
        for k2 in range(0, k1 + 1):
            assert poch_q(k1 - k2, k2 + 1) * poch_q(k2) == poch_q(k1)


def test_ratio_negb_examples():
    # (-bq^m;q)_(j+k) = (-bq^m;q)_j (-bq^(m+j);q)_k
    assert poch_neg_bq(0, 1) == ONE + B
    for m in range(0, 4):
        for j in range(0, 5):
            for k in range(0, 5):
                assert poch_neg_bq(m, j + k) == poch_neg_bq(m, j) * poch_neg_bq(m + j, k)


# -- q-binomials ------------------------------------------------------------------


def test_gaussian_binomial_integrality():
    # [a, k] (q;q)_k (q;q)_(a-k) = (q;q)_a
    for a in range(0, 11):
        for k in range(0, a + 1):
            assert q_binomial(a, k) * poch_q(k) * poch_q(a - k) == poch_q(a)


def test_q_binomial_small():
    assert q_binomial(0, 0) == ONE
    assert q_binomial(2, 1) == ONE + Q
    assert q_binomial(4, 2) == ONE + Q + 2 * Q**2 + Q**3 + Q**4


def test_q_binomial_symmetry():
    for a in range(0, 12):
        for k in range(0, a + 1):
            assert q_binomial(a, k) == q_binomial(a, a - k)


def test_q_pascal_rule():
    # [a, k] = [a-1, k-1] + q^k [a-1, k]
    for a in range(1, 12):
        for k in range(1, a):
            assert q_binomial(a, k) == q_binomial(a - 1, k - 1) + Q**k * q_binomial(a - 1, k)


def test_q_binomial_at_q_one_is_binomial():
    for a in range(0, 12):
        for k in range(0, a + 1):
            assert q_binomial(a, k).substitute("q", 1) == math.comb(a, k)


def test_q_binomial_rejects_out_of_range():
    for a, k in ((3, -1), (3, 4), (-1, 0)):
        with pytest.raises(IndexError):
            q_binomial(a, k)


@pytest.mark.parametrize(
    "call, args",
    [
        (q_binomial, (3.0, 1)),
        (q_binomial, (3, 1.0)),
        (q_binomial, (True, 1)),
        (poch_q, (True, 2)),
        (poch_q, (1, 5.0)),
        (poch_q, (2.0,)),
    ],
)
def test_non_int_arguments_raise_whatever_is_cached(call, args):
    # The int twin of each argument tuple is cached first: a typed table must
    # still send the float or bool to the type check.  True == 1, so an
    # untyped table reads poch_q(True, 2) as (q^2;q)_1.
    twin = tuple(int(x) for x in args)
    call(*twin)
    with pytest.raises(TypeError, match="must be an int"):
        call(*args)
    qpoch._product.cache_clear()
    q_binomial.cache_clear()
    with pytest.raises(TypeError, match="must be an int"):
        call(*args)


def test_product_cache_is_bounded():
    cache = qpoch._product
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None and maxsize == qpoch._PRODUCT_CACHE_SIZE
    try:
        for m in range(1, maxsize + 10):  # two new entries each: k = 1 and k = 0
            assert poch_q(1, m) == ONE - Q**m
        info = cache.cache_info()
        assert info.misses > maxsize
        assert info.currsize <= maxsize
    finally:
        cache.cache_clear()


def test_q_binomial_cache_is_bounded():
    cache = q_binomial
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None and maxsize == qpoch._PRODUCT_CACHE_SIZE
    try:
        for a in range(maxsize + 10):  # one new entry each, [a, 0]_q = 1
            assert q_binomial(a, 0) == ONE
        info = cache.cache_info()
        assert info.misses > maxsize
        assert info.currsize <= maxsize
    finally:
        cache.cache_clear()
        qpoch._product.cache_clear()
