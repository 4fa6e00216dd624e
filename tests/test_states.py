"""State constructors: eigen-equations, closed-form moments, dual routes."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.linalg import expm

from urstates.errors import (
    InvalidInputError,
    NormalizabilityError,
    NumericError,
    TruncationError,
)
from urstates.hilbert import basis_state, boson_rep, fock_basis, su11_rep
from urstates.moments import moment_report, observable_set
from urstates.states import (
    MAX_ADAPTIVE_CUTOFF,
    SqueezeParams,
    _poisson_tail,
    bg_cs,
    canonical_ss,
    even_odd_cs,
    glauber,
    squeezed_fock,
    su2_cs,
    su11_cs,
    su11_intelligent,
    su11_intelligent_spectrum,
)
from urstates.urcheck import char_ur_report


def overlap(s1, s2):
    return abs(np.vdot(s1.amplitudes, s2.amplitudes))


def squeeze_oracle(u, v, seed, N):
    """S(zeta) seed on len(seed) levels through dense expm, cropped to N levels
    and renormalized; zeta = arccosh|u| e^{i(arg v - arg u + pi)} turns
    u a + v a^dag into e^{i arg u} a, S(zeta) = exp((zeta a^dag^2 - conj(zeta) a^2)/2)."""
    sq = SqueezeParams(u, v).normalized()
    M = seed.size
    a = np.diag(np.sqrt(np.arange(1.0, M)), 1)
    zeta = 0.0j
    if sq.v != 0.0:
        zeta = math.acosh(abs(sq.u)) * cmath.exp(
            1j * (cmath.phase(sq.v) - cmath.phase(sq.u) + math.pi))
    out = expm(0.5 * (zeta * a.T @ a.T - np.conj(zeta) * a @ a)) @ seed
    return out[:N] / np.linalg.norm(out[:N])


def ss_oracle(alpha, u, v, N, M=256):
    """e^{i arg u} S(zeta) D(beta) |0>, beta = alpha e^{-i arg u}, on M levels."""
    sq = SqueezeParams(u, v).normalized()
    phase_u = sq.u / abs(sq.u)
    beta = alpha / phase_u
    a = np.diag(np.sqrt(np.arange(1.0, M)), 1)
    seed = expm(beta * a.T - np.conj(beta) * a)[:, 0]
    return phase_u * squeeze_oracle(u, v, seed, N)


def su11_cs_unitary(zeta, k, N):
    """exp(zeta K+ - conj(zeta) K-)|k,k> through a dense expm on N levels,
    normalized: the exponential route to |xi; k>, xi = e^{i arg zeta} tanh|zeta|."""
    rep = su11_rep(k, N)
    amp = expm(zeta * rep["kplus"].matrix - np.conj(zeta) * rep["kminus"].matrix)[:, 0]
    return amp / np.linalg.norm(amp)


# ---------------------------------------------------------------------------
# squeeze parameters
# ---------------------------------------------------------------------------

def test_squeeze_params_normalization():
    sq = SqueezeParams(2.0 * math.cosh(0.5), 2.0 * math.sinh(0.5)).normalized()
    assert abs(sq.u) ** 2 - abs(sq.v) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert sq.u == pytest.approx(math.cosh(0.5))
    with pytest.raises(InvalidInputError):
        SqueezeParams(1.0, 1.0).normalized()
    with pytest.raises(InvalidInputError):
        SqueezeParams(0.5, 1.3).normalized()
    for u, v in ((math.nan, 0.3), (1.2, math.nan), (math.inf, 1.0), (complex(1.2, math.nan), 0.0)):
        with pytest.raises(InvalidInputError):
            SqueezeParams(u, v).normalized()
    # |u|^2 would overflow or underflow at these scales, but only the ray counts
    for u in (1e200, 1e-200, 5e-324):
        sq = SqueezeParams(u, 0.0).normalized()
        assert (sq.u, sq.v) == (1.0, 0.0)
        with pytest.raises(InvalidInputError):
            SqueezeParams(u, u).normalized()


@pytest.mark.parametrize("lam", [3.0, 1e-200, 1e200, 2.0 ** -600, 5e-300])
def test_squeeze_pair_is_a_ray_at_any_scale(lam):
    # |u|^2 - |v|^2 of the given pair would underflow or overflow at all but
    # the first scale; only the ray u : v may matter
    u, v = 1.25, 0.75 * cmath.exp(0.3j)
    ref = canonical_ss(0.2, u, v, N=64)
    st = canonical_ss(0.2, lam * u, lam * v, N=64)
    np.testing.assert_allclose(st.amplitudes, ref.amplitudes, rtol=0, atol=1e-14)


@pytest.mark.parametrize("build", [
    lambda: glauber(math.nan, N=32),
    lambda: canonical_ss(complex(0.0, math.inf), 1.0, 0.0, N=32),
    lambda: even_odd_cs(math.nan, "even", N=32),
    lambda: bg_cs(math.nan, 1.0, N=32),
    lambda: su11_cs(0.3, math.nan),
    lambda: squeezed_fock(1, math.nan, 0.3, N=32),
    lambda: su2_cs(math.nan, 1.0),
    lambda: su11_intelligent(1.0, math.nan, 3.0, 1.0, 1.0),
])
def test_constructors_refuse_non_finite_parameters_without_warnings(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="finite"):
            build()


@pytest.mark.parametrize("build", [
    lambda mt: canonical_ss(0.3, 1.25, 0.75, N=64, max_tail=mt),
    lambda mt: squeezed_fock(1, 1.25, 0.75, N=64, max_tail=mt),
    lambda mt: even_odd_cs(0.5, "odd", N=32, max_tail=mt),
    lambda mt: su11_cs(0.3, 1.0, max_tail=mt),
    lambda mt: su11_intelligent(1.0, -0.16, 0.0, 1.6, 1.0, max_tail=mt),
    lambda mt: glauber(0.5, N=32, max_tail=mt),
    lambda mt: bg_cs(0.5, 1.0, N=32, max_tail=mt),
])
def test_tail_gates_refuse_a_nan_or_negative_bound(build):
    # tail_mass > nan is false: a NaN bound used to turn the gate off
    for bad in (math.nan, -1.0):
        with pytest.raises(InvalidInputError, match="max_tail"):
            build(bad)
    # None still turns the gate off, and an infinite bound admits everything
    assert build(None).tail_mass == build(math.inf).tail_mass


# ---------------------------------------------------------------------------
# glauber
# ---------------------------------------------------------------------------

def test_glauber_is_lowering_eigenstate():
    alpha = 0.7 - 1.1j
    st = glauber(alpha, N=64)
    a = boson_rep(64)["a"].matrix
    assert np.linalg.norm(a @ st.amplitudes - alpha * st.amplitudes) < 1e-12


def test_glauber_poisson_moments():
    alpha = 1.3 + 0.4j
    st = glauber(alpha, N=64)
    obs = observable_set("canonical", N=64)
    rep = moment_report(obs, st)
    np.testing.assert_allclose(
        rep.means, [math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag],
        atol=1e-12)
    np.testing.assert_allclose(rep.sigma, np.eye(2) / 2.0, atol=1e-12)
    n_mean = np.vdot(st.amplitudes,
                     boson_rep(64)["n"].matrix @ st.amplitudes).real
    assert n_mean == pytest.approx(abs(alpha) ** 2, rel=1e-12)


def test_glauber_large_amplitude_matches_recurrence():
    # the unnormalized alpha^n / sqrt(n!) would overflow near |alpha| = 37.7
    st = glauber(40.0, N=2048)
    assert np.all(np.isfinite(st.amplitudes))
    ref = canonical_ss(40.0, 1.0, 0.0, N=2048)
    np.testing.assert_allclose(st.amplitudes, ref.amplitudes, rtol=0, atol=1e-12)


def test_glauber_cutoff_gate():
    with pytest.raises(TruncationError):
        glauber(3.0, N=32)
    assert glauber(0.0, N=20).amplitudes[0] == 1.0


def test_glauber_gates_on_its_discarded_poisson_mass():
    # on the minimum cutoff the top slice holds 5.1e-8 and 5.5e-4 of the
    # mass, but the Poisson tail beyond N is about 1e-24: both are accepted
    for alpha, N in ((40.0, 2021), (60.0, 4221)):
        assert _poisson_tail(alpha * alpha, N) < 1e-20
        assert glauber(alpha, N=N).dim == N
    # the top slice of glauber(3, N=64) holds 8.9e-27, past N lies 1.3e-32
    assert glauber(3.0, N=64, max_tail=1e-30).tail_mass > 1e-30
    with pytest.raises(TruncationError, match="discarded mass"):
        glauber(3.0, N=64, max_tail=1e-40)


@pytest.mark.parametrize("alpha, N", [(0.5, 26), (0.3 + 0.4j, 32), (3.0, 64),
                                      (6.0 - 2.0j, 104), (10.0, 220)])
def test_glauber_poisson_bound_covers_the_mass_beyond_the_cutoff(alpha, N):
    wide = glauber(alpha, N=4 * N)
    beyond = float(np.sum(np.abs(wide.amplitudes[N:]) ** 2))
    assert beyond > 0.0
    assert _poisson_tail(abs(alpha) ** 2, N) >= beyond


# ---------------------------------------------------------------------------
# canonical squeezed states
# ---------------------------------------------------------------------------

def test_canonical_ss_vacuum_and_glauber_limits():
    vac = canonical_ss(0.0, 1.0, 0.0, N=32)
    assert overlap(vac, basis_state(fock_basis(32), 0)) == pytest.approx(1.0)
    disp = canonical_ss(0.8j, 1.0, 0.0, N=64)
    assert overlap(disp, glauber(0.8j, N=64)) == pytest.approx(1.0, abs=1e-12)


def test_canonical_ss_eigen_equation():
    u = math.cosh(0.8) * cmath.exp(0.3j)
    v = math.sinh(0.8) * cmath.exp(-1.2j)
    alpha = 0.9 + 0.2j
    st = canonical_ss(alpha, u, v, N=128)
    rep = boson_rep(128)
    A = u * rep["a"].matrix + v * rep["adag"].matrix
    assert np.linalg.norm(A @ st.amplitudes - alpha * st.amplitudes) < 1e-8


def test_canonical_ss_displacement_mean():
    # the eigenstate of u a + v a^dag at eigenvalue alpha has
    # <a> = conj(u) alpha - v conj(alpha)
    u, v = math.cosh(0.6), math.sinh(0.6) * cmath.exp(0.5j)
    alpha = 0.4 - 0.3j
    st = canonical_ss(alpha, u, v, N=96)
    a_mean = np.vdot(st.amplitudes, boson_rep(96)["a"].matrix @ st.amplitudes)
    expect = np.conj(u) * alpha - v * np.conj(alpha)
    assert abs(a_mean - expect) < 1e-9


def test_canonical_ss_squeeze_pair_rescale():
    # a positive rescale of (u, v) is divided out by the shell normalization,
    # so the state is unchanged; a complex rescale leaves a unit phase on the
    # pair and alpha then labels the eigenvalue of the *rotated* operator, so
    # only the alpha = 0 member survives a phase rescale intact
    u, v = math.cosh(0.5), math.sinh(0.5) * 1j
    s1 = canonical_ss(0.3, u, v, N=64)
    s2 = canonical_ss(0.3, 2.5 * u, 2.5 * v, N=64)
    assert overlap(s1, s2) == pytest.approx(1.0, abs=1e-12)

    lam = 2.0 - 1.0j
    v1 = canonical_ss(0.0, u, v, N=64)
    v2 = canonical_ss(0.0, lam * u, lam * v, N=64)
    assert overlap(v1, v2) == pytest.approx(1.0, abs=1e-12)

    s3 = canonical_ss(0.3, lam * u, lam * v, N=64)
    assert overlap(s1, s3) < 1.0 - 1e-3


def test_canonical_ss_saturates_schrodinger():
    u = math.cosh(1.0)
    v = math.sinh(1.0) * cmath.exp(2.1j)
    st = canonical_ss(0.5 + 0.5j, u, v, N=128)
    obs = observable_set("canonical", N=128)
    rec = char_ur_report(obs, st).pair_gaps[(0, 1)]
    assert abs(rec.schr_gap) < 1e-10
    assert rec.saturated["schr"]


def test_canonical_ss_large_displacement_needs_wide_basis():
    # anti-aligned eigenvalue phase at r = 1.2 pushes the physical
    # displacement to |alpha| e^r ~ 6.6: the tail gate refuses the default
    # cutoff and a doubled basis restores nine-digit saturation
    u, v = math.cosh(1.2), math.sinh(1.2)
    with pytest.raises(TruncationError):
        canonical_ss(2j, u, v, N=128)
    with pytest.raises(TruncationError):
        canonical_ss(2j, u, v, N=256)
    st = canonical_ss(2j, u, v, N=384)
    obs = observable_set("canonical", N=384)
    rec = char_ur_report(obs, st).pair_gaps[(0, 1)]
    assert abs(rec.schr_gap) < 1e-9


@pytest.mark.parametrize("alpha, u, v", [
    (0.0, math.cosh(0.9), math.sinh(0.9) * cmath.exp(0.7j)),
    (1.1 - 0.4j, math.cosh(0.6) * cmath.exp(-0.8j), math.sinh(0.6) * cmath.exp(2.3j)),
    (-0.5 + 1.3j, math.cosh(1.0) * cmath.exp(2.0j), math.sinh(1.0)),
    (0.7j, 1.0, 0.0),
])
def test_canonical_ss_recurrence_matches_exponential_route(alpha, u, v):
    # the recurrence gives every component below the cutoff exactly, up to
    # the overall scale, and the oracle has converged on 256 levels, so after
    # both are normalized on 128 levels amplitudes and phase agree to rounding
    st = canonical_ss(alpha, u, v, N=128)
    np.testing.assert_allclose(st.amplitudes, ss_oracle(alpha, u, v, 128),
                               rtol=0, atol=1e-13)


def test_canonical_ss_matches_hermite_closed_form():
    # Yuen's closed form: <n|psi> is proportional to
    # sqrt(n!) sum_m (-v/2u)^m (alpha/u)^(n-2m) / (m! (n-2m)!), the Taylor
    # coefficients of exp(alpha z/u - v z^2/(2u)) in the Bargmann picture
    u = math.cosh(0.5) * cmath.exp(0.4j)
    v = math.sinh(0.5) * cmath.exp(-1.7j)
    alpha, N = 0.8 - 0.6j, 64
    ref = np.array([
        math.sqrt(math.factorial(n)) * sum(
            (-v / (2.0 * u)) ** m * (alpha / u) ** (n - 2 * m)
            / (math.factorial(m) * math.factorial(n - 2 * m))
            for m in range(n // 2 + 1))
        for n in range(N)
    ])
    ref /= np.linalg.norm(ref)
    amp = canonical_ss(alpha, u, v, N=N).amplitudes
    amp = amp * (abs(amp[0]) / amp[0])
    np.testing.assert_allclose(amp, ref, rtol=0, atol=1e-14)


def test_canonical_ss_recurrence_stable_up_to_max_cutoff():
    # anti-aligned eigenvalue at r = 1.2 (physical displacement |alpha| e^r
    # ~ 6.6): the recurrence must not pick up a growing parasitic solution on
    # the way to the largest adaptive cutoff
    u, v, alpha = math.cosh(1.2), math.sinh(1.2), 2j
    built = {N: canonical_ss(alpha, u, v, N=N).amplitudes
             for N in (384, 1024, MAX_ADAPTIVE_CUTOFF)}
    top = built[MAX_ADAPTIVE_CUTOFF]
    np.testing.assert_allclose(top[:1024], built[1024], rtol=0, atol=1e-14)
    # a smaller cutoff only rescales the components: 3e-15 of the mass lies
    # above level 384
    np.testing.assert_allclose(built[384], built[1024][:384], rtol=0, atol=1e-14)
    # past the bulk |c_{n+2} / c_n| falls towards tanh r from above; a
    # growing parasitic solution would push the ratio up
    ratio = np.abs(top[1026:]) / np.abs(top[1024:-2])
    assert np.all(ratio > math.tanh(1.2)) and np.all(ratio < 0.9)
    # rows 0..N-2 of (u a + v a^dag - alpha) psi: the last row needs level N
    n = np.arange(top.size - 1)
    lowered = np.sqrt(n + 1.0) * top[1:]
    raised = np.sqrt(n) * np.concatenate(([0.0], top[:-2]))
    assert np.linalg.norm(u * lowered + v * raised - alpha * top[:-1]) < 1e-13


def test_canonical_ss_large_displacement_does_not_overflow():
    # c_n / c_0 = alpha^n / sqrt(n!) peaks near e^{|alpha|^2 / 2} = e^800,
    # past the float range: the recurrence must rescale on the way up
    alpha, N = 40.0, 2048
    st = canonical_ss(alpha, 1.0, 0.0, N=N)
    n = np.arange(N)
    ref = np.exp(-0.5 * alpha ** 2 + n * math.log(alpha)
                 - 0.5 * special.gammaln(n + 1.0))
    np.testing.assert_allclose(st.amplitudes, ref / np.linalg.norm(ref),
                               rtol=0, atol=1e-12)


def test_canonical_ss_rejects_antinormalizable_pair():
    with pytest.raises(InvalidInputError):
        canonical_ss(0.0, 1.0, 1.2, N=64)


# ---------------------------------------------------------------------------
# squeezed Fock levels
# ---------------------------------------------------------------------------

def test_squeezed_fock_ground_level_is_canonical_ss():
    u, v = math.cosh(0.7), math.sinh(0.7) * cmath.exp(0.4j)
    s0 = squeezed_fock(0, u, v, N=96)
    ss = canonical_ss(0.0, u, v, N=96)
    assert overlap(s0, ss) == pytest.approx(1.0, abs=1e-10)


def test_squeezed_fock_levels_stay_orthonormal():
    u, v = math.cosh(0.5), math.sinh(0.5)
    s1 = squeezed_fock(1, u, v, N=96)
    s2 = squeezed_fock(2, u, v, N=96)
    assert overlap(s1, s2) < 1e-10


def test_squeezed_fock_moments():
    # real (u, v) = (cosh r, sinh r) squeezes q: variances (n + 1/2) e^{-+2r}
    n, r = 2, 0.5
    st = squeezed_fock(n, math.cosh(r), math.sinh(r), N=96)
    rep = moment_report(observable_set("canonical", N=96), st)
    np.testing.assert_allclose(rep.sigma[0, 0], (n + 0.5) * math.exp(-2 * r),
                               rtol=1e-9)
    np.testing.assert_allclose(rep.sigma[1, 1], (n + 0.5) * math.exp(2 * r),
                               rtol=1e-9)
    assert abs(rep.sigma[0, 1]) < 1e-10


@pytest.mark.parametrize("n, N", [(n, 96) for n in range(8)] + [(20, 128), (40, 128)])
def test_squeezed_fock_matches_exponential_route(n, N):
    # S(zeta)|n>, phase included, through a dense expm on 256 levels; the
    # radius keeps the mass above the cutoff below 1e-29, where the n raising
    # steps on truncated vectors cannot reach the tolerance
    r = 0.4 if N == 96 else 0.2
    u = math.cosh(r) * cmath.exp(0.9j)
    v = math.sinh(r) * cmath.exp(-2.2j)
    seed = np.zeros(256, dtype=complex)
    seed[n] = 1.0
    st = squeezed_fock(n, u, v, N=N)
    np.testing.assert_allclose(st.amplitudes, squeeze_oracle(u, v, seed, N),
                               rtol=0, atol=1e-12)


def test_squeezed_fock_validation():
    with pytest.raises(InvalidInputError):
        squeezed_fock(-1, 1.0, 0.0)
    with pytest.raises(TruncationError):
        squeezed_fock(20, math.cosh(0.3), math.sinh(0.3), N=40)


# ---------------------------------------------------------------------------
# even / odd coherent states
# ---------------------------------------------------------------------------

def test_even_odd_parity_support():
    alpha = 1.1 + 0.6j
    even = even_odd_cs(alpha, "even", N=64)
    odd = even_odd_cs(alpha, "odd", N=64)
    assert np.all(even.amplitudes[1::2] == 0.0)
    assert np.all(odd.amplitudes[0::2] == 0.0)
    assert overlap(even, odd) == 0.0


def test_even_odd_a_squared_eigenstates():
    alpha = 1.4
    a = boson_rep(64)["a"].matrix
    for parity in ("even", "odd"):
        st = even_odd_cs(alpha, parity, N=64)
        res = np.linalg.norm(a @ (a @ st.amplitudes)
                             - alpha ** 2 * st.amplitudes)
        assert res < 1e-10


def test_even_odd_validation():
    assert overlap(even_odd_cs(0.0, "even", N=32),
                   basis_state(fock_basis(32), 0)) == 1.0
    with pytest.raises(InvalidInputError):
        even_odd_cs(0.5, "both", N=32)
    with pytest.raises(InvalidInputError):
        even_odd_cs(0.0, "odd", N=32)
    with pytest.raises(TruncationError):
        even_odd_cs(3.0, "even", N=32)


# ---------------------------------------------------------------------------
# Barut-Girardello states
# ---------------------------------------------------------------------------

def test_bg_cs_lowering_eigenstate():
    z, k = 1.2 - 0.9j, 0.75
    st = bg_cs(z, k, N=96)
    km = su11_rep(k, 96)["kminus"].matrix
    assert np.linalg.norm(km @ st.amplitudes - z * st.amplitudes) < 1e-10


@pytest.mark.parametrize("k", [0.25, 0.5, 1.0])
def test_bg_cs_weight_mean_matches_bessel_ratio(k):
    # <K3> = k + |z| I_{2k}(2|z|) / I_{2k-1}(2|z|), an independent
    # closed form through the Bessel representation of the normalization
    z = 1.5 * cmath.exp(0.7j)
    st = bg_cs(z, k, N=96)
    rep = moment_report(observable_set(f"su11:{k}", N=96), st)
    az = abs(z)
    expect = k + az * special.iv(2 * k, 2 * az) / special.iv(2 * k - 1, 2 * az)
    assert rep.means[2] == pytest.approx(expect, rel=1e-12)


def test_bg_cs_tail_gate_honours_max_tail():
    st = bg_cs(3.0, 1.0, N=24)
    assert 1e-30 < st.tail_mass < 1e-8
    with pytest.raises(TruncationError, match="tail mass"):
        bg_cs(3.0, 1.0, N=24, max_tail=1e-30)
    # the top-level check still refuses what a loose tail bound admits
    with pytest.raises(TruncationError, match="top-level"):
        bg_cs(12.0, 1.0, N=24, max_tail=1.0)


def test_residual_gate_refuses_a_nan_residual():
    # 2k overflows, so the K- ladder coefficients are inf and the residual
    # ||K- psi - z psi|| is inf * 0 = NaN, which res > bound let through
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="residual nan"):
        bg_cs(0.0, 8.98846567431158e+307, N=8)


def test_step_amplitudes_take_phase_zero_for_an_underflowing_angle():
    # Im z / Re z underflows: cmath.phase raised OverflowError on these
    np.testing.assert_array_equal(bg_cs(complex(4.0, 5e-324), 1.0).amplitudes,
                                  bg_cs(4.0, 1.0).amplitudes)
    np.testing.assert_array_equal(su2_cs(complex(2.0, 5e-324), 3.0).amplitudes,
                                  su2_cs(2.0, 3.0).amplitudes)


def test_bg_cs_validation():
    assert bg_cs(0.0, 0.5, N=32).amplitudes[0] == 1.0
    with pytest.raises(InvalidInputError):
        bg_cs(1.0, 0.0)


@pytest.mark.parametrize("alpha", [0.7, 1.3 - 0.4j, 2.5j])
@pytest.mark.parametrize("parity, k", [("even", 0.25), ("odd", 0.75)])
def test_even_odd_cs_is_the_one_mode_bg_cs(parity, k, alpha):
    # K- = a^2/2 on the even (k = 1/4) or odd (k = 3/4) Fock levels, so the
    # a^2 eigenstates of eigenvalue alpha^2 are the BG states of z = alpha^2/2
    st = even_odd_cs(alpha, parity, N=64)
    bg = bg_cs(alpha * alpha / 2.0, k, N=32)
    start = 0 if parity == "even" else 1
    phase = 1.0 if parity == "even" else cmath.exp(1j * cmath.phase(alpha))
    np.testing.assert_allclose(st.amplitudes[start::2], phase * bg.amplitudes,
                               rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# SU(1,1) coherent states
# ---------------------------------------------------------------------------

def test_su11_cs_mixed_eigen_equation():
    xi, k = 0.55 * cmath.exp(1.9j), 1.0
    st = su11_cs(xi, k)
    rep = su11_rep(k, st.basis.N)
    lhs = (rep["kminus"].matrix - xi * xi * rep["kplus"].matrix) @ st.amplitudes
    assert np.linalg.norm(lhs - 2.0 * k * xi * st.amplitudes) < 1e-8


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_su11_cs_weight_mean_closed_form(k):
    xi = 0.6 * cmath.exp(-0.8j)
    st = su11_cs(xi, k)
    rep = moment_report(observable_set(f"su11:{k}", N=st.basis.N), st)
    ax2 = abs(xi) ** 2
    assert rep.means[2] == pytest.approx(k * (1 + ax2) / (1 - ax2), rel=1e-11)


def test_su11_cs_agrees_with_exponential_route():
    zeta = 0.7 * cmath.exp(1.1j)
    k = 0.75
    disk = su11_cs(math.tanh(0.7) * cmath.exp(1.1j), k)
    exp_route = su11_cs_unitary(zeta, k, N=disk.basis.N)
    assert abs(np.vdot(disk.amplitudes, exp_route)) == pytest.approx(1.0, abs=1e-10)


def test_su11_cs_validation():
    with pytest.raises(NormalizabilityError):
        su11_cs(1.0, 0.5)
    with pytest.raises(NormalizabilityError):
        su11_cs(-1.02, 0.5)
    with pytest.raises(InvalidInputError):
        su11_cs(0.5, -1.0)


def test_su11_cs_adaptive_cutoff_grows_with_xi():
    near = su11_cs(0.97, 0.5)
    far = su11_cs(0.3, 0.5)
    assert near.basis.N > far.basis.N
    assert near.tail_mass < 1e-12


# ---------------------------------------------------------------------------
# spin coherent states
# ---------------------------------------------------------------------------

def test_su2_cs_binomial_amplitudes():
    tau, j = 0.8 * cmath.exp(0.5j), 1.5
    st = su2_cs(tau, j)
    n = np.arange(4)
    expect = tau ** n * np.sqrt([special.comb(3, int(m)) for m in n])
    expect = expect / np.linalg.norm(expect)
    np.testing.assert_allclose(st.amplitudes, expect, atol=1e-12)


def test_su2_cs_weight_mean():
    tau, j = 1.3, 2.0
    st = su2_cs(tau, j)
    rep = moment_report(observable_set(f"su2:{j}"), st)
    t2 = abs(tau) ** 2
    assert rep.means[2] == pytest.approx(j * (t2 - 1) / (t2 + 1), rel=1e-12)
    assert su2_cs(0.0, 0.5).amplitudes[0] == 1.0


def test_su2_cs_at_tau_zero_keeps_its_family_and_parameters():
    st = su2_cs(0.0, 2.0)
    assert st.family == "su2_cs"
    assert st.params == {"tau": 0j, "j": 2.0}
    np.testing.assert_array_equal(st.amplitudes, np.eye(5)[0])


def test_su2_cs_refuses_a_huge_spin_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="MAX_BASIS_DIM"):
            su2_cs(0.5, 1e12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# su(1,1) intelligent states
# ---------------------------------------------------------------------------

def test_su11_intelligent_solves_eigen_equation():
    k = 0.5
    u = 0.3 * cmath.exp(1.1j)
    v = np.conj(u)
    w = 0.75
    zs = su11_intelligent_spectrum(u, v, w, k, count=3)
    rep = None
    for z in zs:
        st = su11_intelligent(u, v, w, z, k)
        if rep is None or rep["k3"].basis.N != st.basis.N:
            rep = su11_rep(k, st.basis.N)
        M = (u * rep["kminus"].matrix + v * rep["kplus"].matrix
             + w * rep["k3"].matrix)
        assert np.linalg.norm(M @ st.amplitudes - z * st.amplitudes) < 1e-8


@pytest.mark.parametrize("lam", [2.0 ** 600, 2.0 ** -600, 1e300, 3.0])
def test_su11_intelligent_is_a_ray_at_any_scale(lam):
    # w^2 - 4uv of the given values would overflow or underflow at the
    # first three scales; only the ray through (u, v, w, z) may matter
    u, v, w, z = 1.0, -0.16 + 0.05j, 0.1, 1.6
    ref = su11_intelligent(u, v, w, z, 1.0, N=48)
    st = su11_intelligent(lam * u, lam * v, lam * w, lam * z, 1.0, N=48)
    if lam in (2.0 ** 600, 2.0 ** -600):
        np.testing.assert_array_equal(st.amplitudes, ref.amplitudes)
    else:
        np.testing.assert_allclose(st.amplitudes, ref.amplitudes, rtol=0, atol=1e-14)
    assert st.params["u"] == lam * u and st.params["z"] == lam * z


def test_su11_intelligent_amplitudes_decay():
    # regression: the terminating hypergeometric branch must not pick up
    # rounding noise at high levels (growth there once inverted the tail)
    u = 0.3 * cmath.exp(1.1j)
    z = su11_intelligent_spectrum(u, np.conj(u), 0.75, 0.5, count=2)[1]
    st = su11_intelligent(u, np.conj(u), 0.75, z, 0.5)
    amps = np.abs(st.amplitudes)
    assert amps[-1] < 1e-18
    assert st.tail_mass < 1e-20


def test_su11_intelligent_matches_eigensolver():
    # dual route: closed-form amplitudes against the dense eigensolve of
    # the Hermitian combination u K- + conj(u) K+ + w K3
    k, w = 1.0, 2.0
    u = 0.4 * cmath.exp(0.9j)
    z = su11_intelligent_spectrum(u, np.conj(u), w, k, count=1)[0]
    st = su11_intelligent(u, np.conj(u), w, z, k)
    rep = su11_rep(k, st.basis.N)
    M = (u * rep["kminus"].matrix + np.conj(u) * rep["kplus"].matrix
         + w * rep["k3"].matrix)
    vals, vecs = np.linalg.eigh(M)
    idx = int(np.argmin(np.abs(vals - z.real)))
    assert abs(vals[idx] - z.real) < 1e-8
    assert abs(np.vdot(vecs[:, idx], st.amplitudes)) == pytest.approx(
        1.0, abs=1e-8)


def test_su11_intelligent_degenerate_case_is_coherent_ray():
    # l = 0 collapses onto the SU(1,1) coherent state with xi = -w/(2u)
    r0, theta, k = 0.3, 0.4, 0.5
    u = math.cosh(r0) ** 2
    v = math.sinh(r0) ** 2 * cmath.exp(2j * theta)
    w = math.sinh(2 * r0) * cmath.exp(1j * theta)
    st = su11_intelligent(u, v, w, 0.0, k)
    ray = su11_cs(-math.tanh(r0) * cmath.exp(1j * theta), k, N=st.basis.N)
    assert overlap(st, ray) == pytest.approx(1.0, abs=1e-8)
    assert st.params["degenerate"] is True


def _degenerate_set(r0, theta):
    """(u, v, w) with w^2 = 4uv on the coherent ray xi = -tanh(r0) e^{i theta}."""
    return (math.cosh(r0) ** 2, math.sinh(r0) ** 2 * cmath.exp(2j * theta),
            math.sinh(2 * r0) * cmath.exp(1j * theta))


@pytest.mark.parametrize("r0,theta,k,N", [(0.3, 0.4, 0.5, None), (0.7, 2.1, 1.0, None),
                                          (0.9, -1.3, 2.0, 200), (1.2, 3.0, 0.25, 200)])
def test_su11_intelligent_degenerate_state_matches_the_svd_route(r0, theta, k, N):
    # oracle: the smallest right singular vector of the dense u K- + v K+ + w K3
    u, v, w = _degenerate_set(r0, theta)
    st = su11_intelligent(u, v, w, 0.0, k, N=N)
    assert st.basis.N <= 200
    rep = su11_rep(k, st.basis.N)
    M = u * rep["kminus"].matrix + v * rep["kplus"].matrix + w * rep["k3"].matrix
    ref = np.linalg.svd(M)[2][-1].conj()
    first = np.argmax(np.abs(ref) > 1e-8)
    ref *= np.conj(ref[first]) / abs(ref[first])
    np.testing.assert_allclose(st.amplitudes, ref, rtol=0, atol=1e-12)


def test_su11_intelligent_degenerate_state_allocates_no_dense_matrix():
    # |xi| = 0.976 at k = 2 needs N near 1300; a dense generator there is 26 MB
    u, v, w = _degenerate_set(math.atanh(0.976), 0.8)
    tracemalloc.start()
    try:
        st = su11_intelligent(u, v, w, 0.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.basis.N > 1200
    assert peak < 5 * 2 ** 20


def test_su11_intelligent_refuses_unphysical_parameters():
    u = 0.8 * cmath.exp(0.3j)
    with pytest.raises(NormalizabilityError):
        # |w| < 2|u| with v = conj(u): both characteristic roots on the
        # unit circle, nothing normalizable
        su11_intelligent(u, np.conj(u), 0.5, 0.1, 0.5)
    with pytest.raises(NormalizabilityError):
        # off-spectrum eigenvalue in the discrete family
        su11_intelligent(0.3, 0.3, 0.75, 0.2 + 0.11j, 0.5)
    with pytest.raises(InvalidInputError):
        su11_intelligent(0.0, 0.5, 1.0, 0.0, 0.5)


def test_su11_intelligent_spectrum_contract():
    zs = su11_intelligent_spectrum(0.3, 0.3, 1.0, 0.5, count=4)
    l = math.sqrt(1.0 - 4 * 0.09)
    np.testing.assert_allclose(zs, l * (0.5 + np.arange(4)), rtol=1e-12)
    with pytest.raises(NormalizabilityError):
        su11_intelligent_spectrum(0.6, 0.6, 1.0, 0.5)
    with pytest.raises(InvalidInputError):
        su11_intelligent_spectrum(0.3, 0.2, 1.0, 0.5)


# ---------------------------------------------------------------------------
# log-weights as running sums of step ratios, against a log-gamma oracle
# ---------------------------------------------------------------------------

def _oracle_amplitudes(logs, phase, n):
    """Normalized amplitudes from log|c_n| and the per-level phase n*phase."""
    amp = np.exp(logs - logs.max()) * np.exp(1j * phase * n)
    return amp / np.linalg.norm(amp)


@pytest.mark.parametrize("k", [0.25, 0.5, 2.0])
@pytest.mark.parametrize("N", [None, 1100])
def test_su11_cs_log_weights_match_gammaln(k, N):
    xi = 0.975 * cmath.exp(2.2j)
    st = su11_cs(xi, k, N=N)
    n = np.arange(st.dim, dtype=float)
    logs = n * math.log(abs(xi)) + 0.5 * (special.gammaln(2 * k + n)
                                          - special.gammaln(n + 1.0))
    ref = _oracle_amplitudes(logs, cmath.phase(xi), n)
    assert np.max(np.abs(st.amplitudes - ref)) < 1e-12


@pytest.mark.parametrize("j", [0.5, 7.5, 120.0, 500.0])
@pytest.mark.parametrize("tau", [0.2 * cmath.exp(0.4j), 1.3 * cmath.exp(-2.0j), 5.0])
def test_su2_cs_log_weights_match_gammaln(j, tau):
    st = su2_cs(tau, j)
    n = np.arange(st.dim, dtype=float)
    logs = n * math.log(abs(tau)) + 0.5 * (special.gammaln(2 * j + 1.0)
                                           - special.gammaln(n + 1.0)
                                           - special.gammaln(2 * j - n + 1.0))
    ref = _oracle_amplitudes(logs, cmath.phase(tau), n)
    assert np.max(np.abs(st.amplitudes - ref)) < 1e-12


@pytest.mark.parametrize("k", [0.25, 1.0, 3.5])
def test_bg_cs_log_weights_match_gammaln(k):
    z = 20.0 * cmath.exp(0.9j)
    st = bg_cs(z, k, N=160)
    n = np.arange(160, dtype=float)
    logs = n * math.log(abs(z)) - 0.5 * (special.gammaln(n + 1.0)
                                         + special.gammaln(2 * k + n))
    ref = _oracle_amplitudes(logs, cmath.phase(z), n)
    assert np.max(np.abs(st.amplitudes - ref)) < 1e-12


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("alpha", [0.4j, 3.0 * cmath.exp(0.7j), -6.5])
def test_even_odd_cs_log_weights_match_gammaln(parity, alpha):
    st = even_odd_cs(alpha, parity, N=160)
    idx = np.arange(0 if parity == "even" else 1, 160, 2)
    logs = idx * math.log(abs(alpha)) - 0.5 * special.gammaln(idx + 1.0)
    ref = np.zeros(160, dtype=complex)
    ref[idx] = _oracle_amplitudes(logs, cmath.phase(alpha), idx)
    assert np.max(np.abs(st.amplitudes - ref)) < 1e-12


def test_terminating_intelligent_state_matches_gammaln_closed_form():
    # on the Hermitian family the eigenvalue z = l (k + n0) makes the first
    # parameter of the second hypergeometric form -n0: the series terminates
    # and b_m = base^m sqrt((2k)_m / m!) 2F1(-n0, -m; 2k; x) in closed form
    k, w, n0 = 0.75, 1.5, 3
    u = 0.5 * cmath.exp(0.6j)
    z = su11_intelligent_spectrum(u, np.conj(u), w, k, count=n0 + 1)[n0]
    st = su11_intelligent(u, np.conj(u), w, z, k)
    l = math.sqrt(w * w - 4 * abs(u) ** 2)
    base, x = -(w - l) / (2 * u), -2 * l / (w - l)
    m = np.arange(st.dim, dtype=float)
    half_log_poch = 0.5 * (special.gammaln(2 * k + m) - special.gammaln(2 * k)
                           - special.gammaln(m + 1.0))
    b = base ** m * np.exp(half_log_poch) * special.hyp2f1(-n0, -m, 2 * k, x)
    ref = b / np.linalg.norm(b)
    assert np.max(np.abs(st.amplitudes - ref)) < 1e-12
