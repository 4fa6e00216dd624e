"""Minimizer certificates, and a targeted dense SVD as an oracle for an eigenstate of a."""

import cmath
import math

import numpy as np
import pytest

from urstates.acceptance import _grid_su11_cs
from urstates.cli import _report_document
from urstates.errors import BasisMismatchError, InvalidInputError, TruncationError
from urstates.hilbert import StateVector, basis_state, fock_basis, su2_basis
from urstates.intelligent import minimizer_certificate
from urstates.moments import ObservableSet, _kept_report, moment_report, observable_set
from urstates.states import (
    canonical_ss,
    glauber,
    squeezed_fock,
    su11_cs,
    su11_intelligent,
    su11_intelligent_spectrum,
)
from urstates.urcheck import char_ur_report

SQ2 = math.sqrt(2.0)


def targeted_eigenvector(M, z):
    """Best normalized solution of (M - z) x = 0, with its residual: the right
    singular vector of M - z for the smallest singular value.  Truncated
    ladder combinations are nonnormal, so a dense eigensolve of them is
    pseudospectrum-limited; the singular vector at a known z is not."""
    _u, s, vh = np.linalg.svd(M - z * np.eye(M.shape[0]))
    vec = vh[-1].conj()
    return vec / np.linalg.norm(vec), float(s[-1])


def test_targeted_solve_recovers_coherent_state():
    # (q + ip)/sqrt(2) = a, whose eigenvector at 0.3 is |0.3>
    obs = observable_set("canonical", N=64)
    q, p = (op.matrix for op in obs.ops)
    vec, res = targeted_eigenvector((q + 1j * p) / SQ2, 0.3)
    assert res < 1e-10
    ref = glauber(0.3, N=64)
    assert abs(np.vdot(ref.amplitudes, vec)) == pytest.approx(1.0, abs=1e-10)


def test_certificate_squeezed_state_is_minimizer():
    obs = observable_set("canonical", N=128)
    st = canonical_ss(0.3, math.cosh(0.7), math.sinh(0.7) * np.exp(0.5j),
                      N=128)
    cert = minimizer_certificate(st, obs)
    assert cert.verdict == "minimizer"
    assert cert.pairs[(0, 1)].residual < 1e-8
    assert abs(char_ur_report(obs, st).order_gaps[2].gap) < 1e-9


def test_certificate_verdict_on_exact_minimizer_grids():
    # every canonical squeezed state and every su(1,1) coherent state is an
    # exact minimizer; sqrt(lambda_min) once turned their rounding into
    # residuals near hilbert.RESIDUAL_TOL and failed about 40% of them
    obs = observable_set("canonical", N=128)
    for r in np.linspace(0.05, 1.0, 12):
        for m in range(12):
            v = math.sinh(r) * cmath.exp(2j * math.pi * m / 12)
            for alpha in (0.0, 0.3, 0.7 + 0.2j):
                st = canonical_ss(alpha, math.cosh(r), v, N=128)
                assert minimizer_certificate(st, obs).verdict == "minimizer"
    for k in (0.5, 1.0, 2.0):
        for rad in np.linspace(0.1, 0.97, 8):
            obs = None
            for phase in (0.0, 2.1, 4.2):
                st = su11_cs(rad * cmath.exp(1j * phase), k)
                if obs is None:
                    obs = observable_set(f"su11:{k:g}", N=st.basis.N)
                cert = minimizer_certificate(st, obs)
                assert cert.verdict == "minimizer"
                assert max(rec.residual for rec in cert.pairs.values()) < 1e-8


def test_certificate_squeezed_fock_level_fails():
    # S|1> at r = 1 carries R = [[1.5 e^-2, i/2], [-i/2, 1.5 e^2]], whose
    # bottom eigenvalue is far above the truncation floor of the verdict
    obs = observable_set("canonical", N=128)
    st = squeezed_fock(1, math.cosh(1.0), math.sinh(1.0), N=128)
    cert = minimizer_certificate(st, obs)
    lam = np.linalg.eigvalsh(np.array([[1.5 * math.exp(-2.0), 0.5j],
                                       [-0.5j, 1.5 * math.exp(2.0)]]))[0]
    assert cert.verdict == "not-minimizer"
    assert cert.pairs[(0, 1)].residual == pytest.approx(math.sqrt(lam), rel=1e-6)


def test_certificate_su2_top_levels_are_not_truncation():
    # |1,0> holds all its mass in the top two levels of the complete spin-1
    # irrep; the truncation floor must not wave its (J1, J2) residual through
    st = basis_state(su2_basis(1.0), 1)
    cert = minimizer_certificate(st, observable_set("su2:1"))
    assert cert.verdict == "not-minimizer"
    assert cert.pairs[(0, 1)].residual == pytest.approx(1.0, rel=1e-12)


def test_certificate_coherent_state_recovers_alpha():
    alpha = 0.4 + 0.3j
    obs = observable_set("canonical", N=64)
    st = glauber(alpha, N=64)
    cert = minimizer_certificate(st, obs)
    rec = cert.pairs[(0, 1)]
    assert cert.verdict == "minimizer"
    # optimal beta is (1, i)/sqrt(2), so z = beta . means is alpha itself
    np.testing.assert_allclose(rec.beta, np.array([1.0, 1.0j]) / SQ2,
                               atol=1e-9)
    assert rec.z == pytest.approx(alpha, abs=1e-9)
    assert char_ur_report(obs, st).pair_gaps[(0, 1)].schr_gap == pytest.approx(0.0, abs=1e-10)


def test_certificate_fock_state_fails():
    obs = observable_set("canonical", N=64)
    st = basis_state(fock_basis(64), 2)
    cert = minimizer_certificate(st, obs)
    assert cert.verdict == "not-minimizer"
    # R restriction [[5/2, i/2], [-i/2, 5/2]] has bottom eigenvalue 2
    assert cert.pairs[(0, 1)].residual == pytest.approx(SQ2, rel=1e-12)
    assert char_ur_report(obs, st).order_gaps[2].gap == pytest.approx(6.0, rel=1e-12)


def test_certificate_su11_cs_minimizes_every_pair():
    # K+ acts on |xi> as (K3 - k)/xi, so all three centered observable
    # vectors are collinear and every 2x2 restriction of R is singular
    st = su11_cs(0.4, 1.0, N=64)
    obs = observable_set("su11:1", N=64)
    cert = minimizer_certificate(st, obs)
    assert cert.verdict == "minimizer"
    assert max(rec.residual for rec in cert.pairs.values()) < 1e-8


def test_certificate_excited_intelligent_state_is_partial():
    # the n=1 eigenstate of K- - 0.16 K+ (eigenvalue l(k+1) = 1.6) still
    # minimizes the (K1, K2) pair, but unlike the coherent n=0 member it
    # holds no relation tying K3 to the identity, so the K3 pairs fail
    st = su11_intelligent(1.0, -0.16, 0.0, 1.6, 1.0)
    obs = observable_set("su11:1", N=st.basis.N)
    cert = minimizer_certificate(st, obs)
    assert cert.pairs[(0, 1)].residual < 1e-8
    assert cert.pairs[(0, 2)].residual > 0.1
    assert cert.pairs[(1, 2)].residual > 0.1
    assert cert.verdict == "not-minimizer"
    assert char_ur_report(obs, st).order_gaps[3].gap > 0.03


#: criterion 4's Hermitian sets with n0 >= 1: v = conj(u), u = |u| e^{i arg u},
#: w = 2 |u| ratio, as (k, |u|, arg u, ratio, n0)
_EXCITED_HERMITIAN_SETS = [
    (0.5, 0.30, 1.1, 1.25, 1), (1.0, 0.30, 0.0, 1.25, 1), (1.0, 0.45, 0.3, 1.50, 3),
    (1.5, 0.40, 1.4, 1.75, 1), (0.5, 0.60, 0.7, 2.00, 2), (2.0, 0.30, 0.9, 2.00, 2),
]


@pytest.mark.parametrize("k, mag, phase, ratio, n0", _EXCITED_HERMITIAN_SETS)
def test_excited_hermitian_intelligent_states_minimize_robertson_not_every_pair(
        k, mag, phase, ratio, n0):
    # the converse of uniqueness: the su(1,1) coherent states are the only
    # states that minimize the Schrodinger relation of every pair and the
    # Robertson relation.  These saturate det sigma >= det C = 0 (|C_3(sigma)|
    # <= 1.2e-12, |C_3(C)| <= 2.3e-16) and still leave a pair residual of 0.83-2.7
    u = mag * cmath.exp(1j * phase)
    v, w = np.conj(u), 2.0 * mag * ratio
    st = su11_intelligent(u, v, w, su11_intelligent_spectrum(u, v, w, k, count=n0 + 1)[n0], k)
    obs = observable_set(f"su11:{k!r}", N=st.basis.N)
    order3 = char_ur_report(obs, st).order_gaps[3]
    assert abs(order3.c_comm) <= 1e-12 and abs(order3.c_sigma) <= 1e-9
    cert = minimizer_certificate(st, obs)
    assert cert.verdict == "not-minimizer"
    assert max(rec.residual for rec in cert.pairs.values()) >= 0.5


def test_every_su11_cs_grid_state_minimizes_every_pair():
    for k, rad, phase in _grid_su11_cs():
        st = su11_cs(rad * cmath.exp(1j * phase), k)
        cert = minimizer_certificate(st, observable_set(f"su11:{k:g}", N=st.basis.N))
        assert cert.verdict == "minimizer", (k, rad, phase)

def test_certificate_json_shape():
    obs = observable_set("canonical", N=64)
    st = glauber(0.2, N=64)
    rep = moment_report(obs, st)
    cert = minimizer_certificate(st, obs)
    ur = char_ur_report(obs, st)
    doc = _report_document(st, obs, rep, ur, cert, None)["certificate"]
    assert set(doc) == {"pairs", "robertson_gap", "verdict"}
    assert set(doc["pairs"]) == {"0,1"}
    rec = doc["pairs"]["0,1"]
    assert set(rec) == {"labels", "beta", "z", "residual", "schr_gap"}
    assert rec["labels"] == ["q", "p"]
    assert rec["schr_gap"] == ur.pair_gaps[(0, 1)].schr_gap
    assert doc["robertson_gap"] == ur.order_gaps[2].gap


def _cert_bits(cert):
    return cert.verdict, [(key, rec.labels, rec.beta.tobytes(), rec.z, rec.residual)
                          for key, rec in sorted(cert.pairs.items())]


def _low_random_state(rng, basis):
    """A random state on the lower half of ``basis``, so its tail mass is 0."""
    amp = np.zeros(basis.dim, dtype=complex)
    half = max(1, basis.dim // 2)
    amp[:half] = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    return StateVector(amp / np.linalg.norm(amp), basis)


@pytest.mark.parametrize("name,N", [("canonical", 48), ("su11:1.5", 48), ("su2:2.5", None)])
def test_a_kept_report_certifies_as_a_fresh_one(moment_passes, name, N):
    obs = observable_set(name, N=N)
    rng = np.random.default_rng(53)
    for st in [_low_random_state(rng, obs.basis) for _ in range(3)]:
        moment_report(obs, st)
        moment_passes.clear()
        kept = minimizer_certificate(st, obs)
        assert moment_passes == []
        fresh = minimizer_certificate(StateVector(st.amplitudes.copy(), st.basis), obs)
        assert moment_passes == [(obs.basis.dim,)]
        assert _cert_bits(kept) == _cert_bits(fresh)


def test_a_kept_report_keeps_the_tail_gate_of_the_certificate(moment_passes):
    obs = observable_set("canonical", N=20)
    top = basis_state(obs.basis, 19)
    moment_report(obs, top, max_tail=None)
    moment_passes.clear()
    errors = []
    for st in (top, StateVector(top.amplitudes.copy(), top.basis)):
        with pytest.raises(TruncationError) as exc:
            minimizer_certificate(st, obs)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    # the gate refuses before any pass; past it, the kept report is read
    minimizer_certificate(top, obs, max_tail=None)
    assert moment_passes == []


def test_a_report_of_another_state_or_set_is_never_used(moment_passes):
    # a caller-passed report of a coherent state once certified basis level 3
    obs = observable_set("su11:1.0", N=64)
    a = su11_cs(0.4, 1.0, N=64)
    b = basis_state(obs.basis, 3)
    moment_report(obs, a)
    moment_passes.clear()
    assert minimizer_certificate(b, obs).verdict == "not-minimizer"
    assert minimizer_certificate(a, obs).verdict == "minimizer"
    assert len(moment_passes) == 1
    # a report on another set of the same observables
    moment_report(ObservableSet(obs.ops, name=obs.name), a)
    assert minimizer_certificate(a, obs).verdict == "minimizer"
    assert len(moment_passes) == 3
    # the amplitudes of a cannot change in place, so its kept report is still served
    moment_report(obs, a)
    with pytest.raises(ValueError):
        a.amplitudes[:] = b.amplitudes
    with pytest.raises(ValueError):
        a.amplitudes.setflags(write=True)
    assert minimizer_certificate(a, obs).verdict == "minimizer"
    assert len(moment_passes) == 4


def test_report_moments_and_certificate_of_one_state_take_one_pass(moment_passes):
    # the route of `urstates report --certificate`
    obs = observable_set("su11:1.0", N=64)
    st = su11_cs(0.4, 1.0, N=64)
    moment_passes.clear()
    rep = moment_report(obs, st)
    char_ur_report(obs, st)
    minimizer_certificate(st, obs)
    assert moment_passes == [(64,)]
    assert _kept_report(obs, st) is rep


def test_certificate_refuses_a_state_off_the_observable_basis():
    # once certified the report's state, glauber(0.3), as a minimizer
    obs = observable_set("canonical", N=64)
    moment_report(obs, glauber(0.3, N=64))
    with pytest.raises(BasisMismatchError):
        minimizer_certificate(glauber(0.9, N=40), obs)
    leaky = basis_state(fock_basis(64), 63)
    cert = minimizer_certificate(leaky, obs, max_tail=None)
    assert cert.verdict in ("minimizer", "not-minimizer")


@pytest.mark.parametrize("bad", ["not a state", np.ones(16, dtype=complex)])
def test_reports_refuse_a_non_state(bad):
    # a type error, not an AttributeError from reading a missing field
    obs = observable_set("canonical", N=16)
    vac = basis_state(fock_basis(16), 0)
    calls = (
        lambda: moment_report(obs, bad),
        lambda: char_ur_report(obs, bad),
        lambda: char_ur_report(obs, [vac, bad]),
        lambda: minimizer_certificate(bad, obs),
        lambda: minimizer_certificate(bad, obs, max_tail=None),
    )
    for call in calls:
        with pytest.raises(InvalidInputError):
            call()
