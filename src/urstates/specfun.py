"""Hand-rolled special functions used by the state constructors.

Only the terminating Gauss series 2F1(a, -n; c; x) is needed, evaluated
exactly as an (n+1)-term polynomial.
"""

from .errors import InvalidInputError

__all__ = ["gauss2f1_terminating"]


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
