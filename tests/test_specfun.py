"""Special-function kernels against scipy and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from urstates.errors import InvalidInputError, NumericError
from urstates.specfun import (
    SERIES_MAX_TERMS,
    gauss2f1_terminating,
    hyp0f1,
    hyp0f1_series,
    pochhammer,
)


def test_pochhammer_values():
    assert pochhammer(3.0, 2) == 12.0
    assert pochhammer(0.5, 3) == 0.5 * 1.5 * 2.5
    assert pochhammer(2.0 + 1.0j, 0) == 1.0
    assert pochhammer(1j, 2) == 1j * (1 + 1j)


def test_pochhammer_matches_scipy():
    for a in (0.25, 1.0, 3.5):
        for n in (0, 1, 5, 12):
            np.testing.assert_allclose(pochhammer(a, n), special.poch(a, n),
                                       rtol=1e-12)


@given(st.floats(-10, 10), st.integers(0, 20))
def test_pochhammer_recurrence(a, n):
    np.testing.assert_allclose(pochhammer(a, n + 1),
                               pochhammer(a, n) * (a + n),
                               rtol=1e-12, atol=1e-12)


def test_pochhammer_rejects_bad_order():
    with pytest.raises(InvalidInputError):
        pochhammer(1.0, -1)
    with pytest.raises(InvalidInputError):
        pochhammer(1.0, 2.0)
    with pytest.raises(InvalidInputError):
        pochhammer(1.0, True)


def test_hyp0f1_closed_forms():
    # 0F1(;1/2;x) = cosh(2 sqrt x) and 0F1(;3/2;x) = sinh(2 sqrt x)/(2 sqrt x)
    for x in (0.0, 0.3, 2.0, 9.0):
        np.testing.assert_allclose(hyp0f1(0.5, x), math.cosh(2 * math.sqrt(x)),
                                   rtol=1e-13)
    for x in (0.3, 2.0, 9.0):
        rx = math.sqrt(x)
        np.testing.assert_allclose(hyp0f1(1.5, x),
                                   math.sinh(2 * rx) / (2 * rx), rtol=1e-13)


def test_hyp0f1_matches_bessel():
    # 0F1(;c;x) = Gamma(c) x^((1-c)/2) I_{c-1}(2 sqrt x)
    for c in (1.0, 2.0, 3.5):
        for x in (0.5, 4.0):
            expect = (special.gamma(c) * x ** ((1.0 - c) / 2.0)
                      * special.iv(c - 1.0, 2.0 * math.sqrt(x)))
            np.testing.assert_allclose(hyp0f1(c, x), expect, rtol=1e-12)


def test_hyp0f1_series_bookkeeping():
    res = hyp0f1_series(1.0, 2.0)
    assert res.converged
    assert 0 < res.terms_used < SERIES_MAX_TERMS


def test_hyp0f1_nonconvergence_is_reported():
    # term ratio stays above 1 until n ~ 2 sqrt(x), far past the series cap
    with pytest.raises(NumericError):
        hyp0f1(1.0, 1e9)


def test_hyp0f1_domain():
    with pytest.raises(InvalidInputError):
        hyp0f1(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        hyp0f1(1.0, -0.5)


def test_gauss2f1_small_cases():
    assert gauss2f1_terminating(2.0, 0, 1.0, 0.7) == 1.0
    np.testing.assert_allclose(gauss2f1_terminating(2.0, 1, 4.0, 0.6),
                               1.0 - 2.0 * 0.6 / 4.0, rtol=1e-15)


def test_gauss2f1_chu_vandermonde():
    # 2F1(a, -n; c; 1) = (c-a)_n / (c)_n
    for a, n, c in ((2.5, 5, 4.0), (1.0, 3, 2.5), (-0.5, 4, 1.5)):
        expect = pochhammer(c - a, n) / pochhammer(c, n)
        np.testing.assert_allclose(gauss2f1_terminating(a, n, c, 1.0), expect,
                                   rtol=1e-13)


def test_gauss2f1_explicit_sum():
    a, n, c, x = -2.0, 60, 2.0, -3.0
    expect = sum(pochhammer(a, m) * pochhammer(float(-n), m)
                 / (pochhammer(c, m) * math.factorial(m)) * x ** m
                 for m in range(3))
    np.testing.assert_allclose(gauss2f1_terminating(a, n, c, x), expect,
                               rtol=1e-14)


def test_gauss2f1_integer_a_terminates_exactly():
    # with a = -1 every m >= 2 term carries an exact (a+1) = 0 factor, so
    # the value is the degree-1 polynomial 1 + n*x even at large n where a
    # non-terminated tail would amplify rounding noise to 3^n scale
    assert gauss2f1_terminating(-1.0, 90, 1.0, -3.0) == 1.0 - 90 * 3.0
    assert gauss2f1_terminating(-3.0, 200, 1.0, 0.0) == 1.0


def test_gauss2f1_rejects_pole_and_bad_order():
    with pytest.raises(InvalidInputError):
        gauss2f1_terminating(1.0, 5, -2.0, 0.5)
    with pytest.raises(InvalidInputError):
        gauss2f1_terminating(1.0, -1, 1.0, 0.5)
    # non-integer negative c is not a pole
    assert gauss2f1_terminating(1.0, 2, -2.5, 0.0) == 1.0
