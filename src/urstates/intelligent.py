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

from .hilbert import DEFAULT_MAX_TAIL, gauge_fixed, residual_bound, vector_norm
# char_coeffs stays importable as intelligent.char_coeffs: bench/spans.py
# wraps it under that name
from .matrixkit import char_coeffs  # noqa: F401
from .moments import _kept_report, check_state, moment_report

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


def minimizer_certificate(state, obs, max_tail=DEFAULT_MAX_TAIL):
    """Per-pair best (beta, z) and residual, and the verdict.

    For each observable pair the bottom eigenvector of the 2x2 restriction
    of R = sigma + iC gives the optimal normalized beta (gauge: first
    significant component real positive) and z = beta . means.  The
    residual is || beta_0 dX_i psi + beta_1 dX_j psi ||, taken from the
    centered vectors of the moment report: it grows linearly with rounding,
    where sqrt(lambda_min) would turn 1e-16 into 1e-8.  Verdict is
    "minimizer" when every pairwise residual clears `hilbert.residual_bound`
    at scale sqrt(max(1, tr R_pair)), the truncation-aware floor that the
    state constructors gate on too.  A state off the basis of ``obs`` or with
    a tail mass above ``max_tail`` is refused; the moments are the report the
    state keeps (`moments._kept_report`), else a fresh `moment_report`.
    """
    check_state(state, obs.basis, max_tail)
    rep = _kept_report(obs, state) or moment_report(obs, state, max_tail)
    R = rep.robertson
    n = obs.n
    # residual_bound at a scale s is s times this floor, bit for bit
    floor = residual_bound(state.amplitudes, state.basis, 1.0)
    pairs = {}
    minimizer = True
    for i in range(n):
        for j in range(i + 1, n):
            sub = R[np.ix_([i, j], [i, j])]
            _vals, vecs = np.linalg.eigh(sub)
            beta = gauge_fixed(vecs[:, 0], 1e-12)
            residual = vector_norm(beta[0] * rep.centered[i] + beta[1] * rep.centered[j])
            bound = np.sqrt(max(1.0, float(np.trace(sub).real))) * floor
            z = complex(beta[0] * rep.means[i] + beta[1] * rep.means[j])
            pairs[(i, j)] = PairCertificate((obs.labels[i], obs.labels[j]), beta, z, residual)
            minimizer = minimizer and residual <= bound
    verdict = "minimizer" if minimizer else "not-minimizer"
    return MinimizerCertificate(pairs, verdict)
