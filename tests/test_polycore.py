import random

import pytest
from hypothesis import given, strategies as st

from isfkit.errors import BudgetExceededError, InputError
from isfkit.polycore import (
    IntPolynomial,
    WeightedGF,
    poly_from_linear_factors,
    poly_integer_roots,
)


def test_linear_factors_expand():
    p = poly_from_linear_factors([0, 1, 1, 2])
    assert p.coeffs == (0, 2, 5, 4, 1)


def test_linear_factors_empty_product_is_pure_shift():
    assert poly_from_linear_factors([]).shifted(3) == IntPolynomial.monomial(3)


def test_linear_factors_with_shift():
    p = poly_from_linear_factors([1, 3]).shifted(2)
    assert p.coeffs == (0, 0, 3, 4, 1)


def test_linear_factors_match_the_factor_by_factor_product():
    # equal constants are grouped, so draw from few values with repeats
    rng = random.Random(7)
    for _ in range(200):
        roots_negated = [rng.choice([0, 1, 1, 2, 2, 2, 5]) for _ in range(rng.randint(0, 12))]
        shift = rng.randint(0, 3)
        expected = IntPolynomial.monomial(shift)
        for a in roots_negated:
            expected = expected * IntPolynomial((a, 1))
        assert poly_from_linear_factors(roots_negated).shifted(shift) == expected


def test_linear_factors_reject_negative():
    with pytest.raises(InputError):
        poly_from_linear_factors([-1])


def test_integer_roots_examples():
    assert poly_integer_roots(IntPolynomial([0, 2, 3, 1])) == [0, -1, -2]
    assert poly_integer_roots(IntPolynomial([1, 1, 1])) is None
    # no root to find: stops at once, not after 10**6 trial divisions
    assert poly_integer_roots(IntPolynomial([10**12, 0, 1])) is None
    assert poly_integer_roots(IntPolynomial([4, 8, 5, 1])) == [-1, -2, -2]


def test_integer_roots_requires_monic():
    with pytest.raises(InputError):
        poly_integer_roots(IntPolynomial([1, 2]))
    assert poly_integer_roots(IntPolynomial()) is None


def test_integer_roots_positive_root_rejected():
    # (t-1)(t+2) = t^2 + t - 2 has a positive root
    assert poly_integer_roots(IntPolynomial([-2, 1, 1])) is None


@given(
    st.lists(st.integers(min_value=0, max_value=9), max_size=6),
    st.integers(min_value=0, max_value=3),
)
def test_roots_roundtrip(roots_negated, shift):
    p = poly_from_linear_factors(roots_negated).shifted(shift)
    expected = sorted([0] * shift + [-a for a in roots_negated], reverse=True)
    assert poly_integer_roots(p) == expected


@given(
    st.lists(st.integers(min_value=-9, max_value=9), max_size=5),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=5),
)
def test_ring_laws_at_random_points(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    rng = random.Random(12345)
    for _ in range(20):
        v = rng.randint(-50, 50)
        assert (p * q)(v) == p(v) * q(v)
        assert (p + q)(v) == p(v) + q(v)
        assert (p - q)(v) == p(v) - q(v)


def test_compose_neg_and_shift():
    p = IntPolynomial([1, 2, 3])
    assert p.compose_neg().coeffs == (1, -2, 3)
    assert p.shifted(2).coeffs == (0, 0, 1, 2, 3)
    assert IntPolynomial().shifted(3).is_zero()


def test_trailing_zeros_normalized():
    assert IntPolynomial([1, 0, 0]).coeffs == (1,)
    assert IntPolynomial([0, 0]).is_zero()
    assert IntPolynomial([0, 0]).degree == -1


def test_json_roundtrip():
    p = IntPolynomial([0, 2, 5, 4, 1])
    assert p.to_json() == ["0", "2", "5", "4", "1"]
    assert IntPolynomial.from_json(p.to_json()) == p
    huge = IntPolynomial([10**40, -(10**41)])
    assert IntPolynomial.from_json(huge.to_json()) == huge


def test_json_refuses_coefficients_past_the_digit_limit():
    # str() of an int with more than 4,300 digits raises ValueError; the
    # result is refused like any other over-budget one
    with pytest.raises(BudgetExceededError):
        IntPolynomial((10**4400, 1)).to_json()


@pytest.mark.parametrize(
    "coeffs",
    [[1.7, True], [True], [False], [2.0], ["1.7"], ["+5"], [" 5"], [None], ["1" * 5000]],
)
def test_json_rejects_non_integer_coefficients(coeffs):
    with pytest.raises(InputError):
        IntPolynomial.from_json(coeffs)


@pytest.mark.parametrize(
    "roots_negated, shift", [([2.9], 0), ([True], 0), (["2"], 0), ([1], 1.0), ([1], True)]
)
def test_linear_factors_reject_non_integers(roots_negated, shift):
    # a constant is refused by the expansion, a shift by `shifted`
    with pytest.raises(InputError):
        poly_from_linear_factors(roots_negated).shifted(shift)


def test_weighted_gf_expansion():
    gf = WeightedGF([["a"], ["b", "c"]])
    assert gf.terms == {
        ((), 2): 1,
        (("a",), 1): 1,
        (("b",), 1): 1,
        (("c",), 1): 1,
        (("a", "b"), 0): 1,
        (("a", "c"), 0): 1,
    }
    # a variable repeated within or across blocks sums its coefficients:
    # (t + 2x)(t + x) = t^2 + 3x t + 2x^2
    gf = WeightedGF([["x", "x"], ["x"]])
    assert gf.terms == {((), 2): 1, (("x",), 1): 3, (("x", "x"), 0): 2}
    assert gf.to_json() == [
        {"monomial": ["x", "x"], "tpow": 0, "coeff": "2"},
        {"monomial": ["x"], "tpow": 1, "coeff": "3"},
        {"monomial": [], "tpow": 2, "coeff": "1"},
    ]
    assert WeightedGF([]).terms == {((), 0): 1}
