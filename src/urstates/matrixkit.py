"""Characteristic-polynomial coefficients and PSD certificates for small dense matrices.

The coefficient convention used throughout the package: for an n x n matrix M,

    det(M - lam*I) = sum_{r=0}^{n} C_r(M) * (-lam)**(n-r)

so C_0 = 1, C_1 = tr M, C_n = det M, and C_r equals the sum of all r x r
principal minors of M (elementary symmetric functions of the eigenvalues).
Two independent routes are provided for any n: a Faddeev-LeVerrier
recurrence (`char_coeffs`) and brute-force principal-minor enumeration
(`principal_minor_sum`).  For the 2- and 3-observable sets that reports
evaluate, `_small_char_coeffs` takes the closed forms on Python floats, and
`_hermitian_min_eig_2x2` the closed-form lower eigenvalue of a 2x2 sigma or
R = sigma + iC that is finite and Hermitian to the bit.  `psd_min_eig` holds
the one rule that refuses a matrix which is not finite or not Hermitian.
"""

import itertools
import math

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
    matrix), finite, with ``re`` symmetric and ``im`` antisymmetric to the
    bit; nothing is checked.  With b + ix the lower off-diagonal entry, the
    one eigvalsh reads, lam_min = (a + d)/2 - sqrt(((a - d)/2)^2 + b^2 + x^2).
    """
    (a, _), (b, d) = re
    x = 0.0 if im is None else im[1][0]
    return 0.5 * (a + d) - math.hypot(0.5 * (a - d), b, x)


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


def psd_min_eig(H):
    """Minimum eigenvalue of a Hermitian matrix (PSD certificate helper).

    The package's one copy of the rule: refuses input that is not finite, or
    not Hermitian within HERMITICITY_TOL times max(1, entrywise max-norm),
    then takes a symmetric eigensolver, so the result is real.  A stack
    shaped (..., n, n) is checked matrix by matrix, each against its own
    max-norm, and solved in one LAPACK call; the result is then (...,).
    """
    A = _as_square(H, stack=True)
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    dev = np.abs(A - np.swapaxes(A, -2, -1).conj()).max(axis=(-2, -1))
    bad = dev > HERMITICITY_TOL * scale
    if np.any(bad):
        k = np.argmax(bad)
        raise InvalidInputError(
            f"matrix is not Hermitian within tolerance: max deviation "
            f"{np.ravel(dev)[k]:.3e} (allowed {HERMITICITY_TOL * np.ravel(scale)[k]:.3e})"
        )
    lam = np.linalg.eigvalsh(A)[..., 0]
    return float(lam) if A.ndim == 2 else lam

