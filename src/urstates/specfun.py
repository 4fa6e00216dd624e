"""Hand-rolled special functions used by the state constructors.

Only the small corner actually needed is implemented: Pochhammer symbols,
the confluent limit 0F1(;c;x) for real c>0, x>=0, and the terminating
Gauss series 2F1(a, -n; c; x) evaluated exactly as an (n+1)-term
polynomial.
"""

import math
from dataclasses import dataclass

from .errors import InvalidInputError, NumericError

__all__ = [
    "pochhammer",
    "hyp0f1",
    "hyp0f1_series",
    "gauss2f1_terminating",
    "SeriesResult",
]

#: relative term threshold at which the 0F1 series is declared converged
SERIES_RTOL = 1e-16
#: hard cap on series length before giving up
SERIES_MAX_TERMS = 10_000


@dataclass
class SeriesResult:
    """Value of a power-series evaluation plus convergence bookkeeping."""

    value: float
    terms_used: int
    converged: bool


def pochhammer(a, n):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1.

    `a` may be complex; `n` must be a nonnegative integer.
    """
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise InvalidInputError(f"pochhammer order must be an int, got {n!r}")
    if n < 0:
        raise InvalidInputError(f"pochhammer order must be >= 0, got {n}")
    out = 1.0 if not isinstance(a, complex) else complex(1.0)
    for i in range(n):
        out = out * (a + i)
    return out


def hyp0f1_series(c, x):
    """Confluent hypergeometric limit 0F1(;c;x) = sum x^n / ((c)_n n!).

    Real c > 0 and x >= 0 only (all uses here have x = |z|^2).  Terms are
    accumulated until two consecutive terms fall below SERIES_RTOL relative
    to the running sum.
    """
    if not (c > 0):
        raise InvalidInputError(f"hyp0f1 requires c > 0, got c={c}")
    if x < 0:
        raise InvalidInputError(f"hyp0f1 requires x >= 0, got x={x}")
    total = 1.0
    term = 1.0
    small_run = 0
    for n in range(SERIES_MAX_TERMS):
        term *= x / ((c + n) * (n + 1))
        total += term
        if not math.isfinite(total):
            # once the sum overflows, inf <= SERIES_RTOL * inf would pass the
            # relative-term test below; report divergence instead
            return SeriesResult(total, n + 1, False)
        if abs(term) <= SERIES_RTOL * abs(total):
            small_run += 1
            if small_run >= 2:
                return SeriesResult(total, n + 1, True)
        else:
            small_run = 0
    return SeriesResult(total, SERIES_MAX_TERMS, False)


def hyp0f1(c, x):
    """0F1(;c;x) as a float; raises if the series did not converge."""
    res = hyp0f1_series(c, x)
    if not res.converged:
        raise NumericError(
            f"0F1(;{c};{x}) did not converge within {SERIES_MAX_TERMS} terms"
        )
    return res.value


def gauss2f1_terminating(a, n, c, x):
    """Terminating Gauss series 2F1(a, -n; c; x), summed exactly.

    With second parameter -n (n a nonnegative integer) the series is the
    degree-n polynomial sum_{m=0}^{n} (a)_m (-n)_m / ((c)_m m!) x^m; it is
    evaluated term-recursively with no continuation machinery.  `c` must
    not be one of 0, -1, ..., -(n-1) (a pole inside the first n terms).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidInputError(f"terminating 2F1 needs integer n >= 0, got {n!r}")
    creal = complex(c).real
    cimag = complex(c).imag
    if cimag == 0.0 and creal <= 0 and creal == int(creal) and -int(creal) <= n - 1:
        raise InvalidInputError(
            f"2F1 parameter c={c} is a nonpositive integer pole within the {n + 1} terms"
        )
    total = 1.0 + 0.0j if (isinstance(a, complex) or isinstance(c, complex)
                           or isinstance(x, complex)) else 1.0
    term = total
    for m in range(n):
        term = term * (a + m) * (-n + m) / ((c + m) * (m + 1)) * x
        total = total + term
    return total
