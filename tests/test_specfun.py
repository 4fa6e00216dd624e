"""The terminating Gauss series against closed forms and scipy."""

import math

import numpy as np
import pytest
from scipy import special

from urstates.errors import InvalidInputError
from urstates.specfun import gauss2f1_terminating


def test_gauss2f1_small_cases():
    assert gauss2f1_terminating(2.0, 0, 1.0, 0.7) == 1.0
    np.testing.assert_allclose(gauss2f1_terminating(2.0, 1, 4.0, 0.6),
                               1.0 - 2.0 * 0.6 / 4.0, rtol=1e-15)


def test_gauss2f1_chu_vandermonde():
    # 2F1(a, -n; c; 1) = (c-a)_n / (c)_n
    for a, n, c in ((2.5, 5, 4.0), (1.0, 3, 2.5), (-0.5, 4, 1.5)):
        expect = special.poch(c - a, n) / special.poch(c, n)
        np.testing.assert_allclose(gauss2f1_terminating(a, n, c, 1.0), expect,
                                   rtol=1e-13)


def test_gauss2f1_explicit_sum():
    a, n, c, x = -2.0, 60, 2.0, -3.0
    expect = sum(special.poch(a, m) * special.poch(float(-n), m)
                 / (special.poch(c, m) * math.factorial(m)) * x ** m
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
