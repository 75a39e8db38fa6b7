"""Exact tests for the integer polynomial family and product rules."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from chebyshev import (
    ONE,
    X,
    IntPolynomial,
    delta,
    evaluate,
    product_support,
)


def test_delta_base_cases():
    assert delta(0) == ONE
    assert delta(1) == X


def test_delta_examples():
    assert delta(2).coefficients == (-1, 0, 1)  # x^2 - 1
    assert delta(5).coefficients == (0, 3, 0, -4, 0, 1)  # x^5 - 4x^3 + 3x


def test_delta_monic_of_exact_degree():
    for k in range(0, 50):
        p = delta(k)
        assert p.degree == k
        assert p.coefficients[-1] == 1


def test_delta_negative_rejected():
    with pytest.raises(ValueError):
        delta(-1)


def test_recursion_identity_exact_coefficients():
    for k in range(2, 41):
        assert delta(k) == X * delta(k - 1) - delta(k - 2)


@given(st.floats(min_value=-2.0, max_value=2.0), st.integers(min_value=2, max_value=30))
def test_recursion_identity_under_evaluation(t, k):
    lhs = evaluate(delta(k), t)
    rhs = t * evaluate(delta(k - 1), t) - evaluate(delta(k - 2), t)
    # Horner on degree-k integer coefficients loses digits near the interval
    # ends, roughly one bit per degree, so the tolerance scales with 2^k.
    assert lhs == pytest.approx(rhs, abs=2.0**k * 1e-13)


def test_recursion_identity_seeded_points():
    rng = random.Random(20240817)
    points = [rng.uniform(-2.0, 2.0) for _ in range(100)]
    for k in range(2, 20):
        for t in points:
            lhs = evaluate(delta(k), t)
            rhs = t * evaluate(delta(k - 1), t) - evaluate(delta(k - 2), t)
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_parity_of_coefficients():
    for k in range(0, 41):
        for m in range(0, k + 1):
            if (m - k) % 2 != 0:
                assert delta(k).coefficient(m) == 0


def test_product_support_examples():
    assert product_support(1, 1, 10) == [0, 2]
    for j in range(7):
        assert product_support(0, j, 7) == [j]
    assert product_support(2, 2, 3) == [0]


def test_product_support_reduction_oracle():
    # (x^2 - 1)^2 mod Delta_3 = x^3 - 2x leaves remainder 1.
    _, rem = (delta(2) * delta(2)).divmod_monic(delta(3))
    assert rem == ONE


def test_product_support_out_of_range():
    with pytest.raises(IndexError):
        product_support(3, 0, 3)
    with pytest.raises(ValueError):
        product_support(0, 0, 0)


@pytest.mark.parametrize("n", range(1, 16))
def test_product_law_exact_remainders(n):
    modulus = delta(n)
    for i in range(n):
        for j in range(n):
            _, rem = (delta(i) * delta(j)).divmod_monic(modulus)
            expected = IntPolynomial(())
            for k in product_support(i, j, n):
                expected = expected + delta(k)
            assert rem == expected


@pytest.mark.parametrize("n", range(1, 13))
def test_negation_lemma(n):
    modulus = delta(n)
    for k in range(0, n):
        _, rem_high = delta(n + k).divmod_monic(modulus)
        _, rem_low = delta(n - k).divmod_monic(modulus)
        assert rem_high == -rem_low


@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
    )
)
def test_product_support_properties(nij):
    n, i, j = nij
    support = product_support(i, j, n)
    assert support == sorted(set(support))
    assert all(0 <= k < n for k in support)
    assert support == product_support(j, i, n)
    assert all((k - abs(i - j)) % 2 == 0 for k in support)


def test_eval_unit_and_golden_ratio():
    assert evaluate(delta(0), 17.3) == 1.0
    phi = 2.0 * math.cos(math.pi / 5.0)
    assert evaluate(delta(1), phi) == pytest.approx(1.6180339887498949, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_eval_vanishes_at_ring_root(n):
    y = math.pi / (n + 1)
    assert evaluate(delta(n), 2.0 * math.cos(y)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 13) for k in range(n)])
def test_eval_matches_trig_identity(k, n):
    y = math.pi / (n + 1)
    expected = math.sin((k + 1) * y) / math.sin(y)
    assert evaluate(delta(k), 2.0 * math.cos(y)) == pytest.approx(expected, abs=1e-10)


def test_divmod_monic_roundtrip():
    p = delta(9) * delta(4) + delta(2)
    q, r = p.divmod_monic(delta(7))
    assert q * delta(7) + r == p
    assert r.degree < 7


def test_polynomial_trimming_and_zero():
    assert IntPolynomial((0, 0, 0)).is_zero()
    assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
    assert IntPolynomial((1, 2)).degree == 1
