"""Minimizing states numerically: eigenproblems for complex combinations of
observables, and certificates that a given state minimizes the pairwise and
Robertson relations.

The certificate logic rests on one identity: for a normalized coefficient
pair beta and the ordered central-moment matrix R = sigma + iC,

    min_z || (beta_i X_i + beta_j X_j - z) psi ||^2 = beta^dag R_pair beta,

so the optimal beta is the bottom eigenvector of the 2x2 restriction of R
and the optimal residual is the square root of its lowest eigenvalue.  A
state minimizes the pairwise relation iff that residual vanishes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedScaleError
from .hilbert import StateVector
from .matrixkit import _small_char_coeffs, char_coeffs, targeted_eigenvector
from .moments import moment_report

__all__ = [
    "CombinationSpec",
    "solve_at_eigenvalue",
    "PairCertificate",
    "MinimizerCertificate",
    "minimizer_certificate",
]

#: pairwise residual below which a state counts as an exact minimizer
RESIDUAL_TOL = 1e-8

MAX_DENSE_DIM = 512


@dataclass
class CombinationSpec:
    """Complex coefficient vector beta over an observable set."""

    beta: np.ndarray
    observables: object

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.complex128)
        if beta.ndim != 1 or beta.size != self.observables.n:
            raise InvalidInputError(
                f"beta length {beta.size} does not match observable count "
                f"{self.observables.n}"
            )
        if not np.any(np.abs(beta) > 0.0):
            raise InvalidInputError("beta must have at least one nonzero coefficient")
        self.beta = beta

    def matrix(self):
        dim = self.observables.basis.dim
        out = np.zeros((dim, dim), dtype=np.complex128)
        for b, op in zip(self.beta, self.observables.ops):
            out += b * op.matrix
        return out


def solve_at_eigenvalue(spec, z):
    """Eigenvector of beta . X at a *known* eigenvalue z, via the smallest
    singular pair of (beta . X - z).  Returns (StateVector, residual).

    This sidesteps the pseudospectrum trouble of nonnormal truncations:
    their dense eigendecompositions scatter along rays, but the singular
    vector at a prescribed z stays accurate.
    """
    M = spec.matrix()
    if M.shape[0] > MAX_DENSE_DIM:
        raise UnsupportedScaleError(
            f"dense solve capped at dimension {MAX_DENSE_DIM}, got {M.shape[0]}"
        )
    amp, res = targeted_eigenvector(M, complex(z))
    first = np.argmax(np.abs(amp) > 1e-8)
    amp = amp * (np.conj(amp[first]) / abs(amp[first]))
    state = StateVector(amp, spec.observables.basis,
                        family="combination-eigenvector",
                        params={"z": complex(z), "targeted": True})
    return state, res


@dataclass(frozen=True)
class PairCertificate:
    labels: tuple
    beta: np.ndarray
    z: complex
    residual: float
    schr_gap: float

    def to_json_dict(self):
        return {
            "labels": list(self.labels),
            "beta": [[b.real, b.imag] for b in self.beta],
            "z": {"re": self.z.real, "im": self.z.imag},
            "residual": self.residual,
            "schr_gap": self.schr_gap,
        }


@dataclass
class MinimizerCertificate:
    pairs: dict
    robertson_gap: float
    verdict: str

    def to_json_dict(self):
        return {
            "pairs": {f"{i},{j}": rec.to_json_dict()
                      for (i, j), rec in sorted(self.pairs.items())},
            "robertson_gap": self.robertson_gap,
            "verdict": self.verdict,
        }


def _gauge_fix(vec):
    first = np.argmax(np.abs(vec) > 1e-12)
    phase = np.conj(vec[first]) / abs(vec[first])
    return vec * phase


def _edge_mass(state):
    """Probability on the top two basis levels, where truncation bites.

    An su(2) basis is the whole irrep, so nothing sits at a cutoff there.
    """
    if state.basis.kind == "su2":
        return 0.0
    return float(np.sum(np.abs(state.amplitudes[-2:]) ** 2))


def minimizer_certificate(state, obs, max_tail=1e-8, residual_tol=RESIDUAL_TOL,
                          report=None):
    """Per-pair best (beta, z) and residual, plus the full Robertson gap.

    For each observable pair the bottom eigenvector of the 2x2 restriction
    of R = sigma + iC gives the optimal normalized beta (gauge: first
    significant component real positive) and z = beta . means.  The
    residual is || beta_0 dX_i psi + beta_1 dX_j psi ||, taken from the
    centered vectors of the moment report: it grows linearly with rounding,
    where sqrt(lambda_min) would turn 1e-16 into 1e-8.  Verdict is
    "minimizer" when every pairwise residual clears ``residual_tol``,
    widened to the truncation-aware floor
    50 sqrt(max(1, tr R_pair)) sqrt(N * edge mass) that the state
    constructors use.  ``report`` passes the moment report of ``state``
    for ``obs`` when the caller already holds it; it is taken as is, so
    ``max_tail`` is then not checked again.
    """
    if not isinstance(state, StateVector):
        raise InvalidInputError(f"expected a StateVector, got {type(state).__name__}")
    rep = report if report is not None else moment_report(obs, state, max_tail=max_tail)
    R = rep.robertson
    n = obs.n
    trunc = state.dim * _edge_mass(state)
    pairs = {}
    minimizer = True
    for i in range(n):
        for j in range(i + 1, n):
            sub = R[np.ix_([i, j], [i, j])]
            _vals, vecs = np.linalg.eigh(sub)
            beta = _gauge_fix(vecs[:, 0])
            residual = float(np.linalg.norm(
                beta[0] * rep.centered[i] + beta[1] * rep.centered[j]))
            spread = max(1.0, float(np.trace(sub).real))
            bound = max(residual_tol, 50.0 * np.sqrt(spread * trunc))
            z = complex(beta[0] * rep.means[i] + beta[1] * rep.means[j])
            s2, c2 = rep.submatrices(i, j)
            schr = float(s2[0, 0] * s2[1, 1] - s2[0, 1] ** 2 - c2[0, 1] ** 2)
            pairs[(i, j)] = PairCertificate(
                (obs.labels[i], obs.labels[j]), beta, z, residual, schr)
            minimizer = minimizer and residual <= bound
    if n <= 3:
        cs, cc = _small_char_coeffs(rep.sigma.tolist()), _small_char_coeffs(rep.commut.tolist())
    else:
        cs = char_coeffs(rep.sigma.astype(complex))
        cc = char_coeffs(rep.commut.astype(complex))
    robertson_gap = float((cs[n] - cc[n]).real)
    verdict = "minimizer" if minimizer else "not-minimizer"
    return MinimizerCertificate(pairs, robertson_gap, verdict)
