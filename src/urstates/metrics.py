"""Observable-induced overlap g and distance D between pure states.

For a strictly positive observable X (or the identity),

    g = |<psi2|X^2|psi1>| / sqrt(<psi1|X^2|psi1> <psi2|X^2|psi2>),
    D^2 = 2 (1 - g),

which is phase-free, symmetric, and reduces to the fidelity-overlap
distance at X = identity.
"""

import math

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, InvalidInputError
from .hilbert import DEFAULT_MAX_TAIL, Operator
from .moments import check_state

__all__ = ["DistanceResult", "g_overlap", "number_plus_one"]

#: strict-positivity threshold on the smallest eigenvalue of X
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True)
class DistanceResult:
    g: float
    D_sq: float
    observable_label: str

    def to_json_dict(self):
        return {"g": self.g, "D2": self.D_sq, "observable": self.observable_label}


def number_plus_one(basis):
    """The strictly positive observable n + 1 on a Fock basis, as one band."""
    if basis.kind != "fock":
        raise BasisMismatchError("observable 'n+1' needs a Fock-basis state")
    return Operator("n+1", {0: np.arange(1, basis.N + 1, dtype=float)}, basis)


def _min_eig(X):
    """Smallest eigenvalue of the Hermitian X, from its upper bands in the
    LAPACK band layout (band d in row width - d, from column d on)."""
    from scipy.linalg import eigvals_banded

    upper = {d: band for d, band in X.bands.items() if d >= 0}
    width = max(upper, default=0)
    a_band = np.zeros((width + 1, X.basis.dim), np.result_type(float, *upper.values()))
    for d, band in upper.items():
        a_band[width - d, d:] = band
    return float(eigvals_banded(a_band, select="i", select_range=(0, 0))[0])


def _pow2_scaled(y):
    """``y`` times the exact power of two 2**s that brings its largest
    magnitude into [1/2, 1), and s."""
    s = -math.frexp(float(np.max(np.abs(y))))[1]
    return y * math.ldexp(1.0, s), s


def _x_images(state1, state2, X, max_tail):
    """||y1||^2, ||y2||^2, <y1|y2> and s1 + s2 of the images y_i = 2**s_i X psi_i
    of two checked states, each scaled by ``_pow2_scaled``; X = None is the identity."""
    # both states on X's basis, or on the first state's for the identity
    basis = getattr(state1 if X is None else X, "basis", None)
    for st in (state1, state2):
        check_state(st, basis, max_tail)
    if X is None:
        y1, y2 = state1.amplitudes, state2.amplitudes
    else:
        if not X.is_hermitian():
            raise InvalidInputError(f"observable {X.label!r} is not Hermitian")
        y1, y2 = X.apply(state1.amplitudes), X.apply(state2.amplitudes)
    (y1, s1), (y2, s2) = _pow2_scaled(y1), _pow2_scaled(y2)
    return float(np.vdot(y1, y1).real), float(np.vdot(y2, y2).real), np.vdot(y1, y2), s1 + s2


def g_overlap(state1, state2, X=None, max_tail=DEFAULT_MAX_TAIL):
    """Overlap functional g and distance D^2 = 2(1-g) under observable X.

    ``X = None`` means the identity (plain ray overlap).  Otherwise X must
    be Hermitian with smallest eigenvalue above 1e-10 on the truncated
    space, so the X^2-norms in the denominator cannot vanish.  A state
    whose tail mass exceeds ``max_tail`` raises TruncationError.
    """
    # the powers of two change no bit of g, and keep n1 * n2 finite
    n1, n2, cross, _s = _x_images(state1, state2, X, max_tail)
    if X is not None and (lam := _min_eig(X)) <= POSITIVITY_TOL:
        raise InvalidInputError(f"observable {X.label!r} is not strictly positive "
                                f"(min eigenvalue {lam:.3e})")
    g = min(abs(cross) / np.sqrt(n1 * n2), 1.0)
    return DistanceResult(float(g), float(2.0 * (1.0 - g)), "identity" if X is None else X.label)
