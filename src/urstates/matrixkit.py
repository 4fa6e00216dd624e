"""Characteristic-polynomial coefficients and PSD certificates for small dense matrices.

The coefficient convention used throughout the package: for an n x n matrix M,

    det(M - lam*I) = sum_{r=0}^{n} C_r(M) * (-lam)**(n-r)

so C_0 = 1, C_1 = tr M, C_n = det M, and C_r equals the sum of all r x r
principal minors of M (elementary symmetric functions of the eigenvalues).
Two independent routes are provided for any n: a Faddeev-LeVerrier
recurrence (`char_coeffs`) and brute-force principal-minor enumeration
(`principal_minor_sum`).  For the 2- and 3-observable sets that reports
evaluate, `_small_char_coeffs` takes the closed forms on Python floats,
`_hermitian_min_eig_2x2` the closed-form lower eigenvalue of a 2x2 sigma or
R = sigma + iC, and `_check_sigma_robertson` the input checks of
`psd_min_eig` for the two at any n.
"""

import itertools
import math
import operator

import numpy as np

from .errors import InvalidInputError

__all__ = ["char_coeffs", "principal_minor_sum", "psd_min_eig"]

#: entrywise Hermiticity tolerance (relative to the max-norm) for psd_min_eig
HERMITICITY_TOL = 1e-12


def _as_square(M, stack=False):
    """M as a float or complex array of square matrices.

    With ``stack`` the leading axes may index a stack of matrices shaped
    (..., n, n); every check covers every matrix of the stack.
    """
    A = np.asarray(M)
    if (A.ndim < 2 if stack else A.ndim != 2) or A.shape[-1] != A.shape[-2]:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        raise InvalidInputError("empty matrix")
    if not np.isfinite(A).all():
        raise InvalidInputError("matrix has non-finite entries")
    if np.iscomplexobj(A):
        return A.astype(np.complex128, copy=False)
    return A.astype(np.float64, copy=False)


def char_coeffs(M):
    """All characteristic coefficients C_0..C_n of a square matrix.

    Uses the Faddeev-LeVerrier recurrence
        B_0 = I,  A_k = M @ B_{k-1},  c_k = -tr(A_k)/k,  B_k = A_k + c_k I
    which produces det(lam*I - M) = sum c_k lam^{n-k}; the sign flip
    C_r = (-1)^r c_r converts to the principal-minor convention above.

    M may be a stack shaped (..., n, n); the result is then shaped
    (..., n+1), one row per matrix.  Returns a length-(n+1) array for a
    single matrix, real if M is real, complex otherwise.
    """
    A = _as_square(M, stack=True)
    n = A.shape[-1]
    coeffs = np.empty(A.shape[:-2] + (n + 1,), dtype=A.dtype)
    coeffs[..., 0] = 1.0
    eye = np.eye(n, dtype=A.dtype)
    B = eye
    sign = 1.0
    for k in range(1, n + 1):
        AB = A @ B
        c = -AB.trace(0, -2, -1) / k
        sign = -sign
        coeffs[..., k] = sign * c
        B = AB + c[..., None, None] * eye
    return coeffs


def _small_char_coeffs(m):
    """C_0..C_n of a real n x n matrix, n <= 3, given as nested Python floats.

    The closed forms: C_1 = tr m, C_2 = sum_{i<j} (m_ii m_jj - m_ij m_ji)
    and C_3 = det m.  Returns a list of floats.  Larger matrices go
    through ``char_coeffs``.
    """
    if not all(map(math.isfinite, itertools.chain.from_iterable(m))):
        raise InvalidInputError("matrix has non-finite entries")
    n = len(m)
    if n == 2:
        (a, b), (c, d) = m
        return [1.0, a + d, a * d - b * c]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        ei_fh = e * i - f * h
        return [1.0, a + e + i, (a * e - b * d) + (a * i - c * g) + ei_fh,
                a * ei_fh - b * (d * i - f * g) + c * (d * h - e * g)]
    if n == 1:
        return [1.0, m[0][0]]
    raise InvalidInputError(f"closed-form coefficients cover n <= 3, got n = {n}")


def _hermitian_min_eig_2x2(re, im=None):
    """Lower eigenvalue of the 2x2 Hermitian matrix re + i im, in closed form.

    ``re`` and ``im`` are nested Python floats (``im`` None for a real
    matrix).  With b + ix the lower off-diagonal entry, the one eigvalsh
    reads, lam_min = (a + d)/2 - sqrt(((a - d)/2)^2 + b^2 + x^2).  Input
    is refused as ``psd_min_eig`` refuses it: non-finite entries, or a
    deviation from Hermiticity above HERMITICITY_TOL times max(1, max-norm).
    """
    (a, b_up), (b, d) = re
    (xa, x_up), (x, xd) = im if im is not None else ((0.0, 0.0), (0.0, 0.0))
    if not all(map(math.isfinite, (a, b_up, b, d, xa, x_up, x, xd))):
        raise InvalidInputError("matrix has non-finite entries")
    scale = max(1.0, math.hypot(a, xa), math.hypot(d, xd),
                math.hypot(b_up, x_up), math.hypot(b, x))
    dev = max(2.0 * abs(xa), 2.0 * abs(xd), math.hypot(b_up - b, x_up + x))
    if dev > HERMITICITY_TOL * scale:
        raise InvalidInputError(
            f"matrix is not Hermitian within tolerance: max deviation "
            f"{dev:.3e} (allowed {HERMITICITY_TOL * scale:.3e})"
        )
    return 0.5 * (a + d) - math.hypot(0.5 * (a - d), b, x)


def _check_sigma_robertson(s, c):
    """Refuse sigma and R = sigma + iC, given as nested Python floats, as
    ``psd_min_eig`` refuses the stack of the two: non-finite entries, then a
    deviation from Hermiticity above HERMITICITY_TOL times max(1, max-norm),
    sigma first.  ``_hermitian_min_eig_2x2`` unrolls the same rule for 2x2."""
    # the entries row by row, and those of the transpose: M_ij against M_ji
    flatten = itertools.chain.from_iterable
    s, s_t, c, c_t = (list(flatten(m)) for m in (s, zip(*s), c, zip(*c)))
    if not all(map(math.isfinite, itertools.chain(s, c))):
        raise InvalidInputError("matrix has non-finite entries")
    zeros = [0.0] * len(s)
    for im, im_t in ((zeros, zeros), (c, c_t)):
        scale = max(1.0, *map(math.hypot, s, im))
        dev = max(map(math.hypot, map(operator.sub, s, s_t), map(operator.add, im, im_t)))
        if dev > HERMITICITY_TOL * scale:
            raise InvalidInputError(
                f"matrix is not Hermitian within tolerance: max deviation "
                f"{dev:.3e} (allowed {HERMITICITY_TOL * scale:.3e})"
            )


def principal_minor_sum(M, r):
    """Sum of all r x r principal minors of M (independent oracle for char_coeffs).

    Enumerates C(n, r) index subsets, so intended for n <= ~12.
    """
    A = _as_square(M)
    n = A.shape[0]
    if not isinstance(r, (int, np.integer)):
        raise InvalidInputError(f"minor order must be an integer, got {r!r}")
    if r < 0 or r > n:
        raise InvalidInputError(f"minor order {r} out of range 0..{n}")
    if r == 0:
        return 1.0 if not np.iscomplexobj(A) else complex(1.0)
    total = 0.0
    for idx in itertools.combinations(range(n), r):
        sub = A[np.ix_(idx, idx)]
        total += np.linalg.det(sub)
    return total


def psd_min_eig(H, tol=HERMITICITY_TOL):
    """Minimum eigenvalue of a Hermitian matrix (PSD certificate helper).

    Refuses input that is not Hermitian within `tol` relative to the
    entrywise max-norm, then delegates to a symmetric eigensolver so the
    result is real by construction.  A stack shaped (..., n, n) is checked
    matrix by matrix, each against its own max-norm, and solved in one
    LAPACK call; the result is then an array shaped (...,).
    """
    A = _as_square(H, stack=True)
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    dev = np.abs(A - np.swapaxes(A, -2, -1).conj()).max(axis=(-2, -1))
    bad = dev > tol * scale
    if np.any(bad):
        k = np.argmax(bad)
        raise InvalidInputError(
            f"matrix is not Hermitian within tolerance: max deviation "
            f"{np.ravel(dev)[k]:.3e} (allowed {tol * np.ravel(scale)[k]:.3e})"
        )
    lam = np.linalg.eigvalsh(A)[..., 0]
    return float(lam) if A.ndim == 2 else lam

