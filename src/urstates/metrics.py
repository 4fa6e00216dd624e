"""Observable-induced overlap g and distance D between pure states.

For a strictly positive observable X (or the identity),

    g = |<psi2|X^2|psi1>| / sqrt(<psi1|X^2|psi1> <psi2|X^2|psi2>),
    D^2 = 2 (1 - g),

which is phase-free, symmetric, and reduces to the fidelity-overlap
distance at X = identity.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, InvalidInputError
from .hilbert import Operator, StateVector

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


def g_overlap(state1, state2, X=None, max_tail=1e-8):
    """Overlap functional g and distance D^2 = 2(1-g) under observable X.

    ``X = None`` means the identity (plain ray overlap).  Otherwise X must
    be Hermitian with smallest eigenvalue above 1e-10 on the truncated
    space, so the X^2-norms in the denominator cannot vanish.
    """
    for st in (state1, state2):
        if not isinstance(st, StateVector):
            raise InvalidInputError("g_overlap compares pure states")
        if st.tail_exceeds(max_tail):
            raise InvalidInputError(
                f"state tail mass {st.tail_mass:.3e} exceeds {max_tail:.1e}"
            )
    if state1.basis != state2.basis:
        raise BasisMismatchError("states live in different bases")

    if X is None:
        y1 = state1.amplitudes
        y2 = state2.amplitudes
        label = "identity"
    else:
        if X.basis != state1.basis:
            raise BasisMismatchError("observable basis does not match the states")
        if not X.is_hermitian():
            raise InvalidInputError(f"observable {X.label!r} is not Hermitian")
        lam = _min_eig(X)
        if lam <= POSITIVITY_TOL:
            raise InvalidInputError(
                f"observable {X.label!r} is not strictly positive "
                f"(min eigenvalue {lam:.3e})"
            )
        y1 = X.apply(state1.amplitudes)
        y2 = X.apply(state2.amplitudes)
        label = X.label

    n1 = float(np.vdot(y1, y1).real)
    n2 = float(np.vdot(y2, y2).real)
    g = abs(np.vdot(y2, y1)) / np.sqrt(n1 * n2)
    g = min(g, 1.0)
    return DistanceResult(float(g), float(2.0 * (1.0 - g)), label)
