"""Reference values the benchmark checks the program's outputs against.

Nothing here imports urstates: the closed forms and the ladder matrices are
written out again from their textbook definitions, so a defect in the
package cannot hide itself by agreeing with its own copy.  Every check
raises OracleError on the first disagreement and returns None otherwise.
"""

import json
import math

import numpy as np

#: relative tolerance of closed-form checks on moments (squeeze, su(1,1))
CLOSED_FORM_RTOL = 1e-9
#: |Schrodinger gap| allowed for a squeezed coherent state
SCHR_TOL = 1e-9
#: tail mass above which a state does not count as certified
TAIL_TOL = 1e-8
#: agreement of sigma and C with the benchmark's own moments
MOMENT_TOL = 1e-10
#: smallest eigenvalue a PSD certificate or top-order gap may read
PSD_TOL = -1e-10
#: relative agreement of the top-order c_sigma with det(sigma_1 + sigma_2)
DET_RTOL = 1e-9


class OracleError(AssertionError):
    """An output of the program disagrees with its reference value."""


def _close(name, value, ref, scale, rtol):
    if not abs(value - ref) <= rtol * scale:
        raise OracleError(f"{name} = {value:.17g}, reference {ref:.17g} (scale {scale:.3g}, rtol {rtol:g})")


# ---------------------------------------------------------------------------
# squeezed coherent states: eigenstates of u a + v a^dag
# ---------------------------------------------------------------------------

def squeeze_closed_form(alpha, u, v):
    """(sigma, <q> + i<p>) of the eigenstate of u a + v a^dag with eigenvalue alpha.

    (u, v) are rescaled to |u|^2 - |v|^2 = 1 first; on that shell
    sigma_qq = |u - v|^2/2, sigma_pp = |u + v|^2/2, sigma_qp = Im(u conj v)
    and <a> = conj(u) alpha - v conj(alpha).
    """
    u, v, alpha = complex(u), complex(v), complex(alpha)
    root = math.sqrt(abs(u) ** 2 - abs(v) ** 2)
    u, v = u / root, v / root
    s_qp = (u * v.conjugate()).imag
    sigma = np.array([[abs(u - v) ** 2 / 2.0, s_qp], [s_qp, abs(u + v) ** 2 / 2.0]])
    mean = math.sqrt(2.0) * (u.conjugate() * alpha - v * alpha.conjugate())
    return sigma, mean


def check_squeezed_state(alpha, u, v, sigma, means, schr_gap, tail_mass):
    """One squeezed coherent state's (q, p) moments against the closed form."""
    ref_sigma, ref_mean = squeeze_closed_form(alpha, u, v)
    # sigma_qp and the mean can vanish, so they are compared on the scale of
    # the larger variance and of the vacuum width respectively
    widest = max(ref_sigma[0, 0], ref_sigma[1, 1])
    for name, value, ref, scale in (("sigma_qq", sigma[0][0], ref_sigma[0, 0], ref_sigma[0, 0]),
                                    ("sigma_pp", sigma[1][1], ref_sigma[1, 1], ref_sigma[1, 1]),
                                    ("sigma_qp", sigma[0][1], ref_sigma[0, 1], widest),
                                    ("<q> + i<p>", complex(means[0], means[1]), ref_mean,
                                     max(abs(ref_mean), 1.0))):
        _close(name, value, ref, scale, CLOSED_FORM_RTOL)
    if not abs(schr_gap) <= SCHR_TOL:
        raise OracleError(f"|schr_gap| = {abs(schr_gap):.3e} > {SCHR_TOL:g}")
    if not tail_mass <= TAIL_TOL:
        raise OracleError(f"tail_mass = {tail_mass:.3e} > {TAIL_TOL:g}")


def check_cli_report(returncode, stdout, alpha, u, v):
    """A `report --observables canonical` run on a stored squeezed coherent state."""
    if returncode != 0:
        raise OracleError(f"exit code {returncode}")
    try:
        doc = json.loads(stdout)
        mom = doc["moments"]
        gap = doc["ur"]["pairs"]["0,1"]["schr_gap"]
        tail = doc["state"]["tail_mass"]
    except (ValueError, KeyError, TypeError) as exc:
        raise OracleError(f"report document does not parse: {exc!r}") from exc
    check_squeezed_state(alpha, u, v, mom["sigma"], mom["means"], gap, tail)


# ---------------------------------------------------------------------------
# random pure states: moments from the benchmark's own ladder matrices
# ---------------------------------------------------------------------------

def _lowering(n, weight):
    """Matrix with weight(m) on the superdiagonal entry (m, m+1)."""
    mat = np.zeros((n, n))
    for m in range(n - 1):
        mat[m, m + 1] = weight(m)
    return mat


def own_observables(family, N=32):
    """Observable matrices of a family, built from their ladder definitions.

    canonical: (q, p); su11:k: (K1, K2, K3); su2:j: (J1, J2, J3) with the
    basis index 0 at m = -j; a2-quadratures: Hermitian parts of a^2.
    """
    head, _, arg = family.partition(":")
    if head in ("canonical", "a2-quadratures"):
        a = _lowering(N, lambda m: math.sqrt(m + 1))
        if head == "canonical":
            return [(a + a.T) / math.sqrt(2.0), (a - a.T) / (1j * math.sqrt(2.0))]
        a2 = a @ a
        return [(a2 + a2.T) / 2.0, (a2 - a2.T) / 2j]
    if head == "su11":
        k = float(arg)
        km = _lowering(N, lambda m: math.sqrt((m + 1) * (2 * k + m)))
        return [(km + km.T) / 2.0, (km.T - km) / 2j, np.diag(k + np.arange(N, dtype=float))]
    if head == "su2":
        j = float(arg)
        dim = int(round(2 * j)) + 1
        jm = _lowering(dim, lambda m: math.sqrt((2 * j - m) * (m + 1)))
        return [(jm + jm.T) / 2.0, (jm.T - jm) / 2j, np.diag(-j + np.arange(dim, dtype=float))]
    raise ValueError(f"no reference observables for {family!r}")


def own_moments(mats, amps):
    """Means, sigma and C for a stack of pure states (rows of ``amps``).

    Returns arrays shaped (P, n), (P, n, n), (P, n, n) with
    sigma_ij = Re<dX_i dX_j> and C_ij = Im<dX_i dX_j>.
    """
    amps = np.asarray(amps, dtype=complex)
    images = np.stack([amps @ m.T for m in mats], axis=1)          # (P, n, dim)
    means = np.einsum("pd,pnd->pn", amps.conj(), images).real
    centered = images - means[:, :, None] * amps[:, None, :]
    gram = np.einsum("pid,pjd->pij", centered.conj(), centered)
    return means, gram.real, (gram.imag - gram.imag.transpose(0, 2, 1)) / 2.0


def check_moment_report(sigma, commut, sigma_min_eig, robertson_min_eig, ref_sigma, ref_commut):
    """One single-state moment report on a random state."""
    sigma = np.asarray(sigma, dtype=float)
    commut = np.asarray(commut, dtype=float)
    scale = max(1.0, float(np.abs(ref_sigma).max()))
    dev = max(float(np.abs(sigma - ref_sigma).max()), float(np.abs(commut - ref_commut).max()))
    if not dev <= MOMENT_TOL * scale:
        raise OracleError(f"sigma/C differ from reference moments by {dev:.3e} (scale {scale:.3g})")
    own = min(np.linalg.eigvalsh(sigma)[0], np.linalg.eigvalsh(sigma + 1j * commut)[0])
    for name, value in (("sigma_min_eig", sigma_min_eig), ("robertson_min_eig", robertson_min_eig),
                        ("eigvalsh(sigma, sigma + iC)", own)):
        if not value >= PSD_TOL:
            raise OracleError(f"{name} = {value:.3e} < {PSD_TOL:g}")


def check_two_state_report(top_gap, c_sigma, ref_sigma1, ref_sigma2):
    """Top-order gap of a two-state characteristic report on random states."""
    if not top_gap >= PSD_TOL:
        raise OracleError(f"top-order gap {top_gap:.3e} < {PSD_TOL:g}")
    det = float(np.linalg.det(np.asarray(ref_sigma1) + np.asarray(ref_sigma2)))
    _close("c_sigma", c_sigma, det, abs(det), DET_RTOL)


# ---------------------------------------------------------------------------
# su(1,1) coherent states
# ---------------------------------------------------------------------------

def su11_cs_closed_form(xi, k):
    """(<K1>, <K2>, <K3>), Var K3 and the scale of <K+-> for |xi; k>."""
    xi = complex(xi)
    x2 = abs(xi) ** 2
    d = 1.0 - x2
    means = (2 * k * xi.real / d, -2 * k * xi.imag / d, k * (1 + x2) / d)
    return means, 2 * k * x2 / d ** 2, 2 * k * abs(xi) / d


def check_su11_report(doc, xi, k):
    """A `report --observables su11 --certificate` document for |xi; k>."""
    try:
        mom = doc["moments"]
        sigma = mom["sigma"]
        pair_gaps = [(key, rec["schr_gap"]) for key, rec in doc["ur"]["pairs"].items()]
        pair_gaps += [(key, rec["schr_gap"]) for key, rec in doc["certificate"]["pairs"].items()]
        means = mom["means"]
    except (KeyError, TypeError) as exc:
        raise OracleError(f"report document lacks a field: {exc!r}") from exc
    ref_means, ref_var3, lad_scale = su11_cs_closed_form(xi, k)
    for name, value, ref, scale in (("<K1>", means[0], ref_means[0], lad_scale),
                                    ("<K2>", means[1], ref_means[1], lad_scale),
                                    ("<K3>", means[2], ref_means[2], ref_means[2]),
                                    ("Var K3", sigma[2][2], ref_var3, ref_var3)):
        _close(name, value, ref, scale, CLOSED_FORM_RTOL)
    for key, gap in pair_gaps:
        i, j = (int(x) for x in key.split(","))
        bound = CLOSED_FORM_RTOL * sigma[i][i] * sigma[j][j]
        if not abs(gap) <= bound:
            raise OracleError(f"pair ({key}) schr_gap {gap:.3e} exceeds {bound:.3e}")
