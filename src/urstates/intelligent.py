"""Certificates that a given state minimizes the pairwise relations.

The certificate logic rests on one identity: for a normalized coefficient
pair beta and the ordered central-moment matrix R = sigma + iC,

    min_z || (beta_i X_i + beta_j X_j - z) psi ||^2 = beta^dag R_pair beta,

so the optimal beta is the bottom eigenvector of the 2x2 restriction of R
and the optimal residual is the square root of its lowest eigenvalue.  A
state minimizes the pairwise relation iff that residual vanishes.  The
Schrodinger and Robertson gaps that a `report` document prints beside the
certificate are the UR report's (`urcheck.char_ur_report`); the
certificate holds only (beta, z), the residual and the verdict.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .hilbert import residual_bound
# char_coeffs stays importable as intelligent.char_coeffs: bench/spans.py
# wraps it under that name
from .matrixkit import char_coeffs  # noqa: F401
from .moments import check_state, moment_report

__all__ = [
    "PairCertificate",
    "MinimizerCertificate",
    "minimizer_certificate",
]


@dataclass(frozen=True)
class PairCertificate:
    labels: tuple
    beta: np.ndarray
    z: complex
    residual: float


@dataclass
class MinimizerCertificate:
    pairs: dict
    verdict: str


def _gauge_fix(vec):
    first = np.argmax(np.abs(vec) > 1e-12)
    phase = np.conj(vec[first]) / abs(vec[first])
    return vec * phase


def minimizer_certificate(state, obs, report=None):
    """Per-pair best (beta, z) and residual, and the verdict.

    For each observable pair the bottom eigenvector of the 2x2 restriction
    of R = sigma + iC gives the optimal normalized beta (gauge: first
    significant component real positive) and z = beta . means.  The
    residual is || beta_0 dX_i psi + beta_1 dX_j psi ||, taken from the
    centered vectors of the moment report: it grows linearly with rounding,
    where sqrt(lambda_min) would turn 1e-16 into 1e-8.  Verdict is
    "minimizer" when every pairwise residual clears `hilbert.residual_bound`
    at scale sqrt(max(1, tr R_pair)), the truncation-aware floor that the
    state constructors gate on too.  ``report`` passes the moment report of
    ``state`` for ``obs`` when the caller already holds it; it is taken as
    is, so the tail gate of `moments.moment_report` is not checked again,
    but a state off the basis of ``obs``, a report of another observable
    set, one without centered vectors, or one that `moment_report` did not
    make from the amplitudes of ``state`` (a hand-built report among them)
    is refused.
    """
    check_state(state, obs.basis, None)
    if report is not None and report.labels != obs.labels:
        raise InvalidInputError(
            f"report of observables {report.labels} given for {obs.labels}"
        )
    if report is not None and report.centered is None:
        raise InvalidInputError("report carries no centered vectors (X_i - <X_i>) psi")
    if report is not None and report._state_bytes != state.amplitudes.tobytes():
        raise InvalidInputError("report was not made by moment_report from this state")
    rep = report if report is not None else moment_report(obs, state)
    R = rep.robertson
    n = obs.n
    pairs = {}
    minimizer = True
    for i in range(n):
        for j in range(i + 1, n):
            sub = R[np.ix_([i, j], [i, j])]
            _vals, vecs = np.linalg.eigh(sub)
            beta = _gauge_fix(vecs[:, 0])
            residual = float(np.linalg.norm(
                beta[0] * rep.centered[i] + beta[1] * rep.centered[j]))
            bound = residual_bound(state.amplitudes, state.basis,
                                   np.sqrt(max(1.0, float(np.trace(sub).real))))
            z = complex(beta[0] * rep.means[i] + beta[1] * rep.means[j])
            pairs[(i, j)] = PairCertificate((obs.labels[i], obs.labels[j]), beta, z, residual)
            minimizer = minimizer and residual <= bound
    verdict = "minimizer" if minimizer else "not-minimizer"
    return MinimizerCertificate(pairs, verdict)
