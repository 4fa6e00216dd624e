"""Moment reports, the observable-set registry, and the closed-form Gaussian moments."""

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urstates import moments
from urstates.cli import _report_document
from urstates.errors import (
    BasisMismatchError,
    InvalidInputError,
    NumericError,
    TruncationError,
)
from urstates.hilbert import (
    BasisSpec,
    Operator,
    StateVector,
    basis_state,
    fock_basis,
)
from urstates.moments import (
    MomentReport,
    ObservableSet,
    moment_report,
    observable_set,
)
from urstates.matrixkit import _hermitian_min_eig_2x2, _small_char_coeffs, char_coeffs, psd_min_eig
from urstates.stateio import state_from_dict
from urstates.states import canonical_ss, squeeze_pair, su11_cs
from urstates.urcheck import OrderGapRecord, PairGapRecord, _ur_from_moments, char_ur_report


def test_observable_set_registry():
    assert observable_set("canonical", N=32).labels == ["q", "p"]
    assert observable_set("canonical:2", N=6).n == 4
    assert observable_set("su11:0.75", N=24).name == "su11:0.75"
    assert observable_set("su2:1.5").basis.dim == 4
    assert observable_set("a2-quadratures", N=16).labels == ["Re a^2", "Im a^2"]


GOLDEN = pathlib.Path(__file__).parent / "golden"

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


def test_a_kept_report_is_read_only(moment_passes):
    # the state keeps the report a caller gets back; a write into it once
    # would have reached a later char_ur_report or certificate of the state
    obs = observable_set("su11:1", N=48)
    st = su11_cs(0.4, 1.0, N=48)
    rep = moment_report(obs, st)
    expected = char_ur_report(obs, StateVector(st.amplitudes.copy(), st.basis))
    for arr in (rep.means, rep.sigma, rep.commut, rep.centered):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0
    moment_passes.clear()
    got = char_ur_report(obs, st)
    assert moment_passes == []
    assert got.order_gaps[3].c_sigma == expected.order_gaps[3].c_sigma
    assert got.pair_gaps[(0, 1)].schr_gap == expected.pair_gaps[(0, 1)].schr_gap


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


@pytest.mark.parametrize("name", ["canonical", "canonical:2", "su11", "a2-quadratures"])
def test_observable_set_refuses_a_zero_cutoff(name):
    # N = 0 once read as omitted, and built the set at the default cutoff
    with pytest.raises(InvalidInputError, match="N >= 2"):
        observable_set(name, N=0)


def test_observable_set_refuses_no_observables_and_a_mixed_basis():
    with pytest.raises(InvalidInputError, match="empty"):
        ObservableSet([])
    fock, su11 = observable_set("canonical", N=8), observable_set("su11", N=8)
    with pytest.raises(BasisMismatchError, match="different basis"):
        ObservableSet([fock.ops[0], su11.ops[0]])


def test_observable_set_keeps_its_observables_as_a_tuple():
    obs = observable_set("canonical", N=32)
    st = canonical_ss(0.3, 1.0, 0.4, N=32)
    report = moment_report(obs, st)
    # an in-place reorder would leave the padded layout and the moments
    # memo in (q, p) order under (p, q) labels
    with pytest.raises(AttributeError):
        obs.ops.reverse()
    assert obs.labels == ["q", "p"]
    q, p = obs.ops
    assert ObservableSet([q, p], name="canonical") == ObservableSet((q, p), name="canonical")
    assert ObservableSet([q, p], name="canonical") == obs
    swapped = moment_report(ObservableSet([p, q]), st)
    assert swapped.labels == ["p", "q"]
    assert swapped.sigma.diagonal().tolist() == report.sigma.diagonal()[::-1].tolist()


def test_a_shared_observable_set_is_read_only():
    obs = observable_set("canonical", N=32)
    assert observable_set("canonical", N=32) is obs
    st = canonical_ss(0.3, 1.0, 0.4, N=32)
    diagonal = moment_report(obs, st).sigma.diagonal().tolist()
    # a reassigned tuple would put (p, q) labels over moments in (q, p) order
    with pytest.raises(AttributeError):
        obs.ops = obs.ops[::-1]
    with pytest.raises(AttributeError):
        obs.name = "squeezed"
    # an in-place band edit would reach every later caller of the set
    for op in obs.ops:
        for d, band in op.bands.items():
            with pytest.raises(ValueError, match="read-only"):
                band[0] = 0.0
            with pytest.raises(TypeError):
                op.bands[d] = np.zeros_like(band)
    again = moment_report(observable_set("canonical", N=32), st)
    assert again.labels == ["q", "p"]
    assert again.sigma.diagonal().tolist() == diagonal


def test_a_shared_observable_sets_operators_cannot_be_reassigned():
    # a relabelled operator of a kept set once reached every later caller
    op = observable_set("canonical", N=32).ops[0]
    for name, value in (("label", "X"), ("basis", fock_basis(8)), ("bands", {})):
        with pytest.raises(AttributeError):
            setattr(op, name, value)
    assert observable_set("canonical", N=32).labels == ["q", "p"]
    assert op.label == "q" and op.basis == fock_basis(32) and sorted(op.bands) == [-1, 1]


def test_observable_set_keeps_one_set_per_parsed_name():
    # the name as written once keyed the memo: two builds of one set
    moments._kept_set.cache_clear()
    obs = observable_set("su11:1", N=96)
    assert observable_set("su11:1.0", N=96) is obs
    assert observable_set(" su11:1e0", N=96) is obs
    assert moments._kept_set.cache_info().misses == 1
    assert obs.name == "su11:1" and obs.basis.k == 1.0


@pytest.mark.parametrize("requests", [
    [("su11", 96), ("su11:0.5", 96)],
    [("canonical", 128), ("canonical:1", 128), ("canonical", 128)],
    [("su2:1", 8), ("su2:1", 16), ("su2:1", None)],
    [("canonical", None), ("canonical", 128)],
    [("canonical:1", None), ("canonical", 128)],
    [("a2-quadratures", None), ("a2-quadratures", 128)],
    [("canonical:2", None), ("canonical:2", 20)],
    [("su11", None), ("su11:0.5", 96)],
], ids=["su11-default-k", "canonical-default-s", "su2-any-N", "canonical-default-N",
        "canonical-1-default-N", "a2-default-N", "canonical-2-default-N", "su11-default-N"])
def test_observable_set_keeps_one_set_per_build(requests):
    # a default scale, an N that an su(2) set does not read, and an omitted N
    # beside the default cutoff once took a slot of the memo each
    moments._kept_set.cache_clear()
    sets = [observable_set(name, N=N) for name, N in requests]
    assert all(obs is sets[0] for obs in sets)
    assert moments._kept_set.cache_info().misses == 1


def test_observable_set_names_keep_their_default_scale():
    assert observable_set("su11", N=16).name == "su11:0.5"
    assert observable_set("su2").name == "su2:0.5"
    assert observable_set("canonical:1", N=16).name == "canonical"
    # an N that is not kept still reaches the builder, which su(2) ignores
    assert observable_set("su2:1", N=8.0) is not observable_set("su2:1", N=8)
    assert observable_set("su2:1", N=8.0).name == "su2:1"


def test_a_moment_report_leaves_the_shared_set_as_it_was():
    # the set once kept the last reported state's sigma and C, which a
    # char_ur_report in another thread could read as its own
    obs = observable_set("su11:1.0", N=64)
    moment_report(obs, su11_cs(0.3, 1.0, N=64))
    before = dict(vars(obs))
    moment_report(obs, su11_cs(0.6j, 1.0, N=64))
    after = vars(obs)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", [5, None, 1.0, b"su11"])
def test_observable_set_refuses_a_name_that_is_not_a_str(name):
    # once an AttributeError from name.strip()
    with pytest.raises(InvalidInputError, match=f"malformed observable-set name {name!r}"):
        observable_set(name)
    with pytest.raises(InvalidInputError, match="malformed"):
        observable_set(name, N=32.0)


def test_observable_set_refuses_members_that_are_not_operators():
    # once an AttributeError from reading .basis of the member
    q = observable_set("canonical", N=8).ops[0]
    for ops, bad in ((["q"], "'q'"), ([q, 3], "3"), ([None], "None")):
        with pytest.raises(InvalidInputError, match=f"holds Operators, got {bad}"):
            ObservableSet(ops)


@pytest.mark.parametrize("N", [32.0, True, "32", [32], 1])
def test_observable_set_refuses_after_a_kept_build(N):
    # an untyped memo would hand back the N=32 set for 32.0 and True's 1
    # would pass as an int; a list cannot key one
    observable_set("canonical", N=32)
    with pytest.raises(InvalidInputError):
        observable_set("canonical", N=N)


def test_observable_set_keeps_the_last_16_sets():
    sets = [observable_set("canonical", N=n) for n in range(40, 56)]
    observable_set("canonical", N=56)
    # the 17th key evicts the oldest, and only it
    assert all(observable_set("canonical", N=n) is obs for n, obs in zip(range(41, 56), sets[1:]))
    assert observable_set("canonical", N=40) is not sets[0]


def test_observable_set_suffix_carries_the_exact_scale():
    # any float repr is a valid suffix, and the set is built at exactly that
    # value; the name shows it to 6 significant digits
    for k in (1.0 / 3.0, 1.0000001, 1e-05):
        obs = observable_set(f"su11:{k!r}", N=8)
        assert obs.basis.k == k
        assert obs.name == f"su11:{k:g}"


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


def uv_moments(u, v):
    """Second moments (dq^2, dp^2, dpq) of the u a + v a^dag eigenstate.

    (u, v) are rescaled to the shell |u|^2 - |v|^2 = 1 first; on shell

        dq^2 = |u - v|^2 / 2,  dp^2 = |u + v|^2 / 2,  dpq = Im(u conj(v))

    and the Schrodinger equality dq^2 dp^2 - dpq^2 = 1/4 holds identically.
    """
    u, v = squeeze_pair(u, v)
    dq2 = abs(u - v) ** 2 / 2.0
    dp2 = abs(u + v) ** 2 / 2.0
    dpq = (u * np.conj(v)).imag
    return dq2, dp2, dpq


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


def test_three_observable_robertson_matrix_keeps_the_bits_of_sigma_plus_i_c():
    # eigvalsh reads the sign of a zero below the diagonal, and sigma + 1j * C
    # turns a -0.0 of sigma into +0.0 wherever C is not negative: an R filled
    # by parts, keeping the -0.0, moves the last bits of lam_min(R)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sigma = rng.standard_normal((3, 3))
        sigma = sigma @ sigma.T
        sigma[1, 0] = sigma[0, 1] = -0.0
        commut = rng.standard_normal((3, 3))
        commut -= commut.T
        rep = MomentReport(["a", "b", "c"], np.zeros(3), sigma, commut)
        lam = np.linalg.eigvalsh(np.array([sigma, sigma + 1j * commut]))[:, 0].tolist()
        assert [rep.sigma_min_eig.hex(), rep.robertson_min_eig.hex()] == [x.hex() for x in lam]


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REGISTRY), st.sampled_from([(), (2,), (3,)]),
       st.integers(0, 2 ** 32 - 1), st.floats(-150.0, 150.0))
def test_pure_moments_are_hermitian_to_the_bit(entry, stack, seed, exponent):
    # sigma = (G + G^T)/2 and C = (G - G^T)/2 entry by entry, which is what
    # lets MomentReport take a package pair without checking it again
    name, N = entry
    obs = observable_set(name, N=N)
    rng = np.random.default_rng(seed)
    shape = stack + (obs.basis.dim,)
    psi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** exponent
    with np.errstate(all="ignore"):
        try:
            _means, sigma, commut, _centered = moments._pure_moments(obs, psi)
        except NumericError:
            return
    assert np.isfinite(sigma).all() and np.isfinite(commut).all()
    assert np.array_equal(sigma, np.swapaxes(sigma, -2, -1))
    assert np.array_equal(commut, -np.swapaxes(commut, -2, -1))


def test_package_reports_never_reach_psd_min_eig(monkeypatch):
    def refuse(_H):
        raise AssertionError("psd_min_eig called")

    monkeypatch.setattr(moments, "psd_min_eig", refuse)
    rng = np.random.default_rng(31)
    for name, N in REGISTRY:
        obs = observable_set(name, N=N)
        for _ in range(10):
            amp = rng.standard_normal(obs.basis.dim) + 1j * rng.standard_normal(obs.basis.dim)
            moment_report(obs, StateVector(amp / np.linalg.norm(amp), obs.basis), max_tail=None)
        moment_report(obs, basis_state(obs.basis, 0), max_tail=None)
    # a hand-built pair that is not Hermitian to the bit does reach it
    with pytest.raises(AssertionError, match="psd_min_eig called"):
        MomentReport(["x", "y"], np.zeros(2), [[1.0, 0.2 + 1e-13], [0.2, 2.0]], _COMMUT)


@pytest.mark.parametrize("name,N,only", [(name, N, None) for name, N in REGISTRY]
                         + [("canonical", 32, 0)])
def test_moment_report_takes_the_pair_as_pure_moments_proves_it(name, N, only):
    # _pure_moments returns sigma and C finite and (anti)symmetric to the bit
    # for one state and for stacks of 1-8, so moment_report takes them as
    # they are; its eigenvalues are those of the constructor, which proves
    # the same again, down to the sign of a zero (basis states give zeros)
    obs = observable_set(name, N=N)
    if only is not None:
        obs = ObservableSet([obs.ops[only]])
    rng = np.random.default_rng(43)
    for m in range(1, 9):
        psi = _random_amplitudes(rng, (m, obs.basis.dim))
        psi[m - 1] = np.eye(obs.basis.dim)[m % obs.basis.dim]
        _means, sigma, commut, _centered = moments._pure_moments(obs, psi)
        assert np.isfinite(sigma).all() and np.isfinite(commut).all()
        assert np.array_equal(sigma, np.swapaxes(sigma, -2, -1))
        assert np.array_equal(commut, -np.swapaxes(commut, -2, -1))
        for i in range(m):
            rep = moment_report(obs, StateVector(psi[i], obs.basis), max_tail=None)
            hand = MomentReport(obs.labels, np.zeros(obs.n), sigma[i], commut[i])
            assert ([float.hex(rep.sigma_min_eig), float.hex(rep.robertson_min_eig)]
                    == [float.hex(hand.sigma_min_eig), float.hex(hand.robertson_min_eig)])


def test_overflowed_moments_are_a_numeric_error():
    # at k = 1e200 the second moments of K3 pass the float range
    with open(GOLDEN / "state_su11-cs.json") as fh:
        doc = json.load(fh)
    doc["basis"]["k"] = 1e200
    state = state_from_dict(doc)
    obs = observable_set(f"su11:{1e200!r}", N=state.basis.N)
    assert obs.basis == state.basis == BasisSpec("su11", N=48, k=1e200)
    # the BLAS product that overflows warns; the CLI silences the warning
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="moments overflowed"):
            moment_report(obs, state)
        with pytest.raises(NumericError, match="moments overflowed"):
            char_ur_report(obs, [state])
        with pytest.raises(NumericError, match="moments overflowed"):
            char_ur_report(obs, [state, state])


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_moment_gates_refuse_a_nan_or_negative_bound(bad):
    obs = observable_set("canonical", N=20)
    st = basis_state(fock_basis(20), 0)
    with pytest.raises(InvalidInputError, match="max_tail"):
        moment_report(obs, st, max_tail=bad)
    with pytest.raises(InvalidInputError, match="max_tail"):
        char_ur_report(obs, [st, st], max_tail=bad)


# -- the moments path, pinned bit for bit --------------------------------------
#
# A re-implementation of the moment pass: the images X_i psi from the padded
# bands, gathered in C order, the means, the centered vectors, the Gram
# matrix G, sigma = (Re G + Re G^T)/2, C = (Im G - Im G^T)/2, each state's
# own pass stacked and summed over the stack, and the 3x3-and-larger
# certificates from one eigvalsh on [sigma, sigma + iC].  Every report must
# give these floats to the bit, whatever the package does to make fewer
# numpy calls.

PINNED = [("canonical", 32), ("su11:0.5", 32), ("su2:1", None), ("a2-quadratures", 32),
          ("canonical:2", 6)]


def _pinned_moments(obs, psi):
    rows, src = moments.pad_bands([op.bands for op in obs.ops], obs.basis.dim)
    images = (rows * psi.take(src, axis=-1)[..., :, None, :]).sum(axis=-3)
    means = (images @ psi.conj()[..., None])[..., 0].real
    centered = images - means[..., None] * psi[..., None, :]
    gram = centered.conj() @ centered.swapaxes(-2, -1)
    gram_t = gram.swapaxes(-2, -1)
    sigma = (gram.real + gram_t.real) / 2.0
    commut = (gram.imag - gram_t.imag) / 2.0
    return means, sigma, commut, centered


def _pinned_records(labels, sigma, commut, n_states):
    """The gap records of a report from summed sigma and C, as one repr."""
    n = len(labels)
    s, c = sigma.tolist(), commut.tolist()
    if n <= 3:
        cs, cc = _small_char_coeffs(s), _small_char_coeffs(c)
    else:
        cs, cc = char_coeffs(np.array([s, c], dtype=complex)).real.tolist()
    orders = [(r, cs[r], cc[r], cs[r] - cc[r],
               OrderGapRecord(r, cs[r], cc[r], n, cs[1] / n).saturated) for r in range(1, n + 1)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            s11, s22, s12, c12 = s[i][i], s[j][j], s[i][j], c[i][j]
            heis = s11 * s22 - c12 * c12
            flags = PairGapRecord(s11, s22, s12, c12, (labels[i], labels[j])).saturated
            pairs.append(((i, j), (labels[i], labels[j]), s11 + s22 - 2.0 * abs(c12), heis,
                          heis - s12 * s12, flags))
    return repr((list(labels), orders, pairs, n_states))


def _report_records(ur):
    orders = [(r, rec.c_sigma, rec.c_comm, rec.gap, rec.saturated)
              for r, rec in ur.order_gaps.items()]
    pairs = [(key, rec.labels, rec.sum_gap, rec.heis_gap, rec.schr_gap, rec.saturated)
             for key, rec in ur.pair_gaps.items()]
    return repr((ur.observables, orders, pairs, ur.n_states))


def _random_amplitudes(rng, shape):
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return amp / np.linalg.norm(amp, axis=-1, keepdims=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name,N", PINNED)
def test_moment_report_is_pinned_to_the_bit(name, N, seed):
    obs = observable_set(name, N=N)
    rng = np.random.default_rng(seed)
    # basis states give exact zeros in G, whose signs the certificates keep
    levels = np.eye(obs.basis.dim, dtype=complex)[seed:seed + 2]
    for psi in [*_random_amplitudes(rng, (6, obs.basis.dim)), *levels]:
        rep = moment_report(obs, StateVector(psi, obs.basis), max_tail=None)
        means, sigma, commut, centered = _pinned_moments(obs, psi)
        for got, want in ((rep.means, means), (rep.sigma, sigma), (rep.commut, commut),
                          (rep.centered, centered)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        if obs.n == 2:
            lam = [_hermitian_min_eig_2x2(sigma.tolist()),
                   _hermitian_min_eig_2x2(sigma.tolist(), commut.tolist())]
        else:
            lam = np.linalg.eigvalsh(np.array([sigma, sigma + 1j * commut]))[:, 0].tolist()
        assert repr((rep.sigma_min_eig, rep.robertson_min_eig)) == repr(tuple(lam))


@pytest.mark.parametrize("n_states", [1, 2, 8])
@pytest.mark.parametrize("name,N", PINNED)
def test_char_ur_report_is_pinned_to_the_bit(name, N, n_states):
    obs = observable_set(name, N=N)
    rng = np.random.default_rng(17 + n_states)
    for amps in _random_amplitudes(rng, (4, n_states, obs.basis.dim)):
        states = [StateVector(psi, obs.basis) for psi in amps]
        # each state's own 1-D pass, stacked and summed over the stack
        own = [_pinned_moments(obs, psi) for psi in amps]
        sigma = np.stack([m[1] for m in own]).sum(axis=0)
        commut = np.stack([m[2] for m in own]).sum(axis=0)
        want = _pinned_records(obs.labels, sigma, commut, n_states)
        assert _report_records(char_ur_report(obs, states, max_tail=None)) == want
        if n_states == 1:
            # the same floats through the moments of a preceding report
            moment_report(obs, states[0], max_tail=None)
            assert _report_records(char_ur_report(obs, states[0], max_tail=None)) == want


@pytest.mark.parametrize("name,N", PINNED)
def test_a_stack_gives_each_state_the_bits_of_its_own_pass(name, N):
    # the several-state relations sum each state's sigma and C, so a state's
    # moments in a stack of m, or in a (B, m, dim) batch, are its 1-D pass's
    obs = observable_set(name, N=N)
    rng = np.random.default_rng(29)
    for shape in [(1,), (2,), (8,), (3, 2), (2, 8)]:
        psi = _random_amplitudes(rng, shape + (obs.basis.dim,))
        stacked = moments._pure_moments(obs, psi)
        for idx in np.ndindex(*shape):
            for got, want in zip(stacked, moments._pure_moments(obs, psi[idx])):
                assert got[idx].shape == want.shape
                assert got[idx].tobytes() == want.tobytes(), (shape, idx)
