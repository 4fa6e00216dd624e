"""Moment reports, the observable-set registry, and the closed-form Gaussian moments."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from urstates.cli import _report_document
from urstates.errors import (
    BasisMismatchError,
    InvalidInputError,
    TruncationError,
)
from urstates.hilbert import (
    Operator,
    StateVector,
    basis_state,
    fock_basis,
)
from urstates.moments import (
    CUTOFF_ENV,
    MomentReport,
    ObservableSet,
    _default_cutoff,
    moment_report,
    observable_set,
    uv_moments,
)
from urstates.matrixkit import psd_min_eig
from urstates.states import canonical_ss, glauber, su11_cs
from urstates.urcheck import _ur_from_moments, char_ur_report


def test_observable_set_registry():
    assert observable_set("canonical", N=32).labels == ["q", "p"]
    assert observable_set("canonical:2", N=6).n == 4
    assert observable_set("su11:0.75", N=24).name == "su11:0.75"
    assert observable_set("su2:1.5").basis.dim == 4
    assert observable_set("a2-quadratures", N=16).labels == ["Re a^2", "Im a^2"]


REGISTRY = [("canonical", 32), ("canonical:2", 6), ("su11:0.5", 32), ("su11:1", 32),
            ("su2:1", None), ("su2:2.5", None), ("a2-quadratures", 32)]


@pytest.mark.parametrize("name,N", REGISTRY)
def test_banded_products_match_the_dense_matrices(name, N):
    obs = observable_set(name, N=N)
    rng = np.random.default_rng(3)
    dim = obs.basis.dim
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    images = obs.images(psi)
    for op, image in zip(obs.ops, images, strict=True):
        dense = op.matrix @ psi
        np.testing.assert_allclose(op.apply(psi), dense, rtol=0, atol=1e-14)
        np.testing.assert_allclose(image, dense, rtol=0, atol=1e-14)


def test_observable_set_rejects_band_pair_that_is_not_conjugate():
    basis = fock_basis(16)
    c = np.sqrt(np.arange(1.0, 16.0))
    q = Operator("q", {-1: c, 1: c}, basis)
    for bands in ({-1: -c, 1: c}, {-1: 1j * c, 1: 1j * c}, {1: c}):
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            ObservableSet([q, Operator("bad", bands, basis)])


def test_pure_report_matches_dense_moments():
    obs = observable_set("su11:1", N=48)
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    psi /= np.linalg.norm(psi)
    rep = moment_report(obs, StateVector(psi, obs.basis), max_tail=None)
    images = [op.matrix @ psi for op in obs.ops]
    means = np.array([np.vdot(psi, y).real for y in images])
    centered = [y - m * psi for y, m in zip(images, means)]
    gram = np.array([[np.vdot(x, y) for y in centered] for x in centered])
    np.testing.assert_allclose(rep.means, means, rtol=0, atol=1e-13)
    np.testing.assert_allclose(rep.sigma, gram.real, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rep.commut, gram.imag, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rep.centered[2], centered[2], rtol=0, atol=1e-13)


def test_wide_su11_report_allocates_no_dense_matrix():
    # dense generators at N=1024 would take 16 MB each
    st = su11_cs(0.9, 1.0, N=1024)
    tracemalloc.start()
    try:
        moment_report(observable_set("su11:1", N=1024), st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_observable_set_rejects_unknown_names():
    with pytest.raises(InvalidInputError):
        observable_set("canonical:3", N=8)
    with pytest.raises(InvalidInputError):
        observable_set("squeedle")
    with pytest.raises(InvalidInputError):
        observable_set("a2-quadratures:2", N=16)
    with pytest.raises(InvalidInputError):
        observable_set("Canonical !!")
    for bad in ("canonical:1.5", "su11:nan", "su11:inf", "su11:", "su11:1:2"):
        with pytest.raises(InvalidInputError):
            observable_set(bad, N=8)


def test_observable_set_suffix_carries_the_exact_scale():
    # any float repr is a valid suffix, and the set is built at exactly that
    # value; the name shows it to 6 significant digits
    for k in (1.0 / 3.0, 1.0000001, 1e-05):
        obs = observable_set(f"su11:{k!r}", N=8)
        assert obs.basis.k == k
        assert obs.name == f"su11:{k:g}"


def test_default_cutoff_env_override(monkeypatch):
    monkeypatch.delenv(CUTOFF_ENV, raising=False)
    assert _default_cutoff(128) == 128
    monkeypatch.setenv(CUTOFF_ENV, "64")
    assert _default_cutoff(128) == 64
    assert observable_set("canonical").basis.N == 64
    monkeypatch.setenv(CUTOFF_ENV, "abc")
    with pytest.raises(InvalidInputError):
        _default_cutoff(128)
    monkeypatch.setenv(CUTOFF_ENV, "4")
    with pytest.raises(InvalidInputError):
        _default_cutoff(128)


def test_vacuum_moments():
    obs = observable_set("canonical", N=16)
    rep = moment_report(obs, basis_state(fock_basis(16), 0))
    np.testing.assert_allclose(rep.means, [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(rep.sigma, np.eye(2) / 2.0, atol=1e-14)
    # C_qp = -(i/2) <[q, p]> = 1/2 on any state
    np.testing.assert_allclose(rep.commut, [[0.0, 0.5], [-0.5, 0.0]],
                               atol=1e-14)
    assert rep.sigma_min_eig >= -1e-12
    assert rep.robertson_min_eig >= -1e-12


def test_fock_level_moments():
    obs = observable_set("canonical", N=32)
    rep = moment_report(obs, basis_state(fock_basis(32), 3))
    np.testing.assert_allclose(rep.sigma, np.eye(2) * 3.5, atol=1e-12)


def test_moment_report_gates():
    obs = observable_set("canonical", N=20)
    top = basis_state(fock_basis(20), 19)
    with pytest.raises(TruncationError):
        moment_report(obs, top)
    # overriding the gate exposes the truncation artifact the gate guards
    # against: the a a^dag half of q^2 is cut, so the variance reads
    # n/2 = 9.5 instead of the true n + 1/2
    rep = moment_report(obs, top, max_tail=None)
    assert rep.sigma[0, 0] == pytest.approx(9.5, rel=1e-12)
    with pytest.raises(BasisMismatchError):
        moment_report(obs, basis_state(fock_basis(24), 0))
    with pytest.raises(InvalidInputError):
        moment_report(obs, np.ones(20))


def test_report_json_shape():
    obs = observable_set("canonical", N=16)
    st = basis_state(fock_basis(16), 1)
    rep = moment_report(obs, st)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    doc = _report_document(st, obs, rep, ur, None, None)["moments"]
    assert set(doc) == {"observables", "means", "sigma", "commut", "psd"}
    assert doc["observables"] == ["q", "p"]
    assert isinstance(doc["psd"]["sigma_min_eig"], float)


def test_gaussian_sigma_matches_state_moments():
    u = math.cosh(0.6) * np.exp(0.4j)
    v = math.sinh(0.6) * np.exp(-0.9j)
    st = canonical_ss(0.7, u, v, N=128)
    rep = moment_report(observable_set("canonical", N=128), st)
    dq2, dp2, dpq = uv_moments(u, v)
    np.testing.assert_allclose([[dq2, dpq], [dpq, dp2]], rep.sigma, atol=1e-9)


def test_uv_moments_closed_form():
    r = 0.5
    dq2, dp2, dpq = uv_moments(math.cosh(r), math.sinh(r))
    assert dq2 == pytest.approx(math.exp(-2 * r) / 2)
    assert dp2 == pytest.approx(math.exp(2 * r) / 2)
    assert dpq == pytest.approx(0.0, abs=1e-15)


@given(st.floats(0.0, 3.0), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 2 * math.pi))
def test_uv_moments_schrodinger_identity(r, theta, phi):
    # every point on the |u|^2 - |v|^2 = 1 shell saturates the identity
    u = math.cosh(r) * np.exp(1j * phi)
    v = math.sinh(r) * np.exp(1j * theta)
    dq2, dp2, dpq = uv_moments(u, v)
    assert dq2 * dp2 - dpq * dpq == pytest.approx(0.25, rel=1e-9)


_SIGMA = [[1.0, 0.2], [0.2, 2.0]]
_COMMUT = [[0.0, 0.5], [-0.5, 0.0]]


def test_moment_report_rejects_bad_matrices():
    # refused at 1e-12 of the max-norm, by the 2x2 closed form and by the
    # eigensolver route alike
    bad = [
        ([[1.0, 2.0], [0.0, 1.0]], np.zeros((2, 2))),
        ([[1.0, 0.2 + 4e-12], [0.2, 2.0]], _COMMUT),      # sigma not symmetric
        (_SIGMA, [[0.0, 0.5], [-0.5 + 4e-12, 0.0]]),      # C not antisymmetric
        (_SIGMA, [[4e-12, 0.5], [-0.5, 0.0]]),            # C with a diagonal
        ([[np.nan, 0.2], [0.2, 2.0]], _COMMUT),
        (_SIGMA, [[0.0, np.inf], [-np.inf, 0.0]]),
        (np.diag([1.0, 2.0, np.nan]), np.zeros((3, 3))),
        (np.diag([1.0, 2.0, 3.0]) + np.triu(np.full((3, 3), 4e-12), 1), np.zeros((3, 3))),
        # checked on floats before sigma + iC is formed: 0 * inf there made
        # numpy warn, an error in this suite, before the intended refusal
        (np.eye(3), [[0.0, np.inf, 0.0], [-np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        # shapes that are not one square n x n, n >= 1
        (np.eye(3), np.zeros((2, 2))),
        (np.ones((2, 3)), np.zeros((2, 3))),
        (np.zeros((0, 0)), np.zeros((0, 0))),
        (np.ones(3), np.zeros(3)),
    ]
    for sigma, commut in bad:
        with pytest.raises(InvalidInputError):
            MomentReport(["x", "y"], np.zeros(2), np.array(sigma), np.array(commut))


def test_moment_report_accepts_rounding_asymmetry():
    rep = MomentReport(["x", "y"], np.zeros(2), [[1.0, 0.2 + 1e-13], [0.2, 2.0]],
                       [[0.0, 0.5], [-0.5 + 1e-13, 0.0]])
    lam = np.linalg.eigvalsh(np.array(_SIGMA) + 1j * np.array(_COMMUT))[0]
    assert rep.robertson_min_eig == pytest.approx(lam, abs=1e-12)


@pytest.mark.parametrize("name,N", [("su11:0.5", 32), ("su2:1", None), ("su2:2.5", None),
                                    ("canonical:2", 6)])
def test_three_and_more_observables_match_psd_min_eig_bit_for_bit(name, N):
    obs = observable_set(name, N=N)
    rng = np.random.default_rng(29)
    reports = []
    for _ in range(20):
        amp = rng.standard_normal(obs.basis.dim) + 1j * rng.standard_normal(obs.basis.dim)
        reports.append(moment_report(obs, StateVector(amp / np.linalg.norm(amp), obs.basis),
                                     max_tail=None))
    # su(2) coherent states have a doubled sigma eigenvalue
    reports.append(moment_report(obs, basis_state(obs.basis, 0), max_tail=None))
    for rep in reports:
        lam = psd_min_eig(np.stack([rep.sigma, rep.sigma + 1j * rep.commut]))
        assert (rep.sigma_min_eig, rep.robertson_min_eig) == (lam[0], lam[1])
        assert type(rep.sigma_min_eig) is float and type(rep.robertson_min_eig) is float


@pytest.mark.parametrize("big", [1.0, 1e6])
@pytest.mark.parametrize("part", ["sigma", "commut", "commut-diagonal"])
def test_three_observable_hermiticity_threshold_is_relative(big, part):
    # 1e-12 of max(1, max-norm) of the matrix checked, on both sides; the
    # max-norm is big for sigma and for sigma + iC alike
    sigma = np.array([[big, 0.1, 0.2], [0.1, 1.0, 0.3], [0.2, 0.3, 0.5]])
    commut = np.array([[0.0, 0.4, -0.1], [-0.4, 0.0, 0.5], [0.1, -0.5, 0.0]])
    for factor, ok in ((0.5, True), (2.0, False)):
        s, c = sigma.copy(), commut.copy()
        if part == "sigma":
            s[2, 1] += factor * 1e-12 * big
        elif part == "commut":
            c[2, 1] += factor * 1e-12 * big
        else:
            # 2|C_ii| is the deviation of the diagonal of sigma + iC
            c[1, 1] = 0.5 * factor * 1e-12 * big
        stack = np.stack([s, s + 1j * c])
        if ok:
            rep = MomentReport(["a", "b", "c"], np.zeros(3), s, c)
            lam = psd_min_eig(stack)
            assert (rep.sigma_min_eig, rep.robertson_min_eig) == (lam[0], lam[1])
        else:
            with pytest.raises(InvalidInputError, match="not Hermitian") as ours:
                MomentReport(["a", "b", "c"], np.zeros(3), s, c)
            with pytest.raises(InvalidInputError, match="not Hermitian") as theirs:
                psd_min_eig(stack)
            assert str(ours.value) == str(theirs.value)


def test_three_observable_refusal_reports_non_finite_entries_first():
    # as psd_min_eig on the stack [sigma, R]: a NaN in C is named before the
    # deviation of a sigma that is not symmetric
    sigma = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    commut = np.zeros((3, 3))
    commut[0, 2] = commut[2, 0] = np.nan
    with pytest.raises(InvalidInputError, match="non-finite") as ours:
        MomentReport(["a", "b", "c"], np.zeros(3), sigma, commut)
    with pytest.raises(InvalidInputError, match="non-finite") as theirs:
        psd_min_eig(np.stack([sigma, sigma + 1j * commut]))
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_moment_gates_refuse_a_nan_or_negative_bound(bad):
    obs = observable_set("canonical", N=20)
    st = basis_state(fock_basis(20), 0)
    with pytest.raises(InvalidInputError, match="max_tail"):
        moment_report(obs, st, max_tail=bad)
    with pytest.raises(InvalidInputError, match="max_tail"):
        char_ur_report(obs, [st, st], max_tail=bad)
