"""Exact scalar and Laurent polynomial arithmetic."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexbound.errors import InputShapeError
from vertexbound.laurent import (
    LaurentPoly,
    binomial,
    format_rational,
    parse_rational,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), rationals, max_size=5
).map(LaurentPoly)


def test_inverse_monomials_multiply_to_one():
    assert LaurentPoly.monomial(-1) * LaurentPoly.monomial(1) == LaurentPoly.one()


def test_difference_of_squares():
    one_plus = LaurentPoly({0: 1, 1: 1})
    one_minus = LaurentPoly({0: 1, 1: -1})
    assert one_plus * one_minus == LaurentPoly({0: 1, 2: -1})


def test_zero_coefficients_are_never_stored():
    p = LaurentPoly({2: Q(1), 3: Q(0)})
    assert p.terms == {2: Q(1)}
    q = p - LaurentPoly.monomial(2)
    assert q.is_zero() and q.terms == {}


@given(laurents, laurents, laurents)
@settings(max_examples=40, deadline=None)
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_shift_and_minmax():
    p = LaurentPoly({-2: Q(5), 1: Q(-1)})
    assert p.min_exponent() == -2
    assert LaurentPoly().min_exponent() is None


@pytest.mark.parametrize(
    "text,value",
    [("3", Q(3)), ("-7/2", Q(-7, 2)), (" 5 / 10 ", Q(1, 2)), ("0", Q(0))],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize("bad", ["1.5", "1e-3", "1_000", "3/-4", "x", "3/0", "1/2/3", ""])
def test_parse_rational_rejects(bad):
    with pytest.raises(InputShapeError):
        parse_rational(bad)


def test_json_roundtrip():
    p = LaurentPoly({-1: Q(2, 3), 4: Q(-5)})
    assert p.to_json_terms() == [
        {"power": -1, "num": "2", "den": "3"},
        {"power": 4, "num": "-5", "den": "1"},
    ]


@pytest.mark.parametrize(
    "n,k,expected",
    [(5, 2, 10), (0, 0, 1), (3, 5, 0), (-1, 0, 1), (-1, 3, -1), (-2, 2, 3),
     (-3, 1, -3), (4, -1, 0)],
)
def test_binomial_with_negative_upper_index(n, k, expected):
    assert binomial(n, k) == expected


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_binomial_pascal_rule(n, k):
    assert binomial(n, k) + binomial(n, k + 1) == binomial(n + 1, k + 1)
