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
from urstates import states
from urstates.hilbert import (
    DEFAULT_SU11_CUTOFF,
    Operator,
    apply_bands,
    basis_state,
    boson_ladder,
    boson_rep,
    edge_mass,
    fock_basis,
    residual_bound,
    su11_rep,
)
from urstates.moments import moment_report, observable_set
from urstates.states import (
    MAX_ADAPTIVE_CUTOFF,
    _number_bands,
    _poisson_tail,
    bg_cs,
    canonical_ss,
    even_odd_cs,
    glauber,
    squeeze_pair,
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
    u, v = squeeze_pair(u, v)
    M = seed.size
    a = np.diag(np.sqrt(np.arange(1.0, M)), 1)
    zeta = 0.0j
    if v != 0.0:
        zeta = math.acosh(abs(u)) * cmath.exp(1j * (cmath.phase(v) - cmath.phase(u) + math.pi))
    out = expm(0.5 * (zeta * a.T @ a.T - np.conj(zeta) * a @ a)) @ seed
    return out[:N] / np.linalg.norm(out[:N])


def ss_oracle(alpha, u, v, N, M=256):
    """e^{i arg u} S(zeta) D(beta) |0>, beta = alpha e^{-i arg u}, on M levels."""
    su, _sv = squeeze_pair(u, v)
    phase_u = su / abs(su)
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
    u, v = squeeze_pair(2.0 * math.cosh(0.5), 2.0 * math.sinh(0.5))
    assert abs(u) ** 2 - abs(v) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert u == pytest.approx(math.cosh(0.5))
    with pytest.raises(InvalidInputError):
        squeeze_pair(1.0, 1.0)
    with pytest.raises(InvalidInputError):
        squeeze_pair(0.5, 1.3)
    for u, v in ((math.nan, 0.3), (1.2, math.nan), (math.inf, 1.0), (complex(1.2, math.nan), 0.0)):
        with pytest.raises(InvalidInputError):
            squeeze_pair(u, v)
    # |u|^2 would overflow or underflow at these scales, but only the ray counts
    for u in (1e200, 1e-200, 5e-324):
        assert squeeze_pair(u, 0.0) == (1.0, 0.0)
        with pytest.raises(InvalidInputError):
            squeeze_pair(u, u)


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


@pytest.mark.parametrize("alpha", [-0.5, 0.5j, -1.2j, complex(-0.0, 0.7)])
def test_glauber_on_an_axis_has_no_negative_zero_parts(alpha):
    # one part of every amplitude is an exact zero here, and a state
    # document writes a -0.0 as such
    amp = glauber(alpha, N=64).amplitudes
    parts = np.concatenate([amp.real, amp.imag])
    assert not np.any(np.signbit(parts) & (parts == 0.0))


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


def _rows_solve(bands, z, amp, rtol=1e-12):
    """Rows 0..N-1-d of (M - z) amp vanish, d the highest band, each relative
    to the sum of the magnitudes of its terms; the last d rows need levels
    above the cutoff."""
    res = apply_bands(bands, amp) - z * amp
    terms = apply_bands({d: np.abs(b) for d, b in bands.items()}, np.abs(amp)) \
        + abs(z) * np.abs(amp)
    rows = amp.size - max(bands)
    return bool(np.all(np.abs(res[:rows]) <= rtol * terms[:rows]))


def _random_bands(rng, N, with_low, with_diag):
    def cplx(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    bands = {1: cplx(N - 1)}
    if with_low:
        bands[-1] = cplx(N - 1)
    if with_diag:
        bands[0] = cplx(N)
    return bands


@pytest.mark.parametrize("with_low", [True, False])
@pytest.mark.parametrize("with_diag", [True, False])
def test_recurrence_solves_every_row_but_the_last_of_its_bands(with_low, with_diag):
    rng = np.random.default_rng(22)
    for _ in range(25):
        N = int(rng.integers(8, 65))
        bands = _random_bands(rng, N, with_low, with_diag)
        z = complex(*rng.normal(0.0, 2.0, 2))
        amp = states._recurrence_amplitudes(bands, z)
        assert amp.shape == (N,) and amp[0] != 0.0
        assert math.isclose(np.linalg.norm(amp), 1.0, rel_tol=1e-14)
        assert _rows_solve(bands, z, amp), (N, z)


def _checked_recurrence(bands, z):
    """The recurrence with its overflow test after every row, as
    `states._recurrence_amplitudes` ran before it tested once per block: the
    reference for its bits, its exceptions and its speed."""
    up = bands[1].tolist()
    diag = (z - bands[0]).tolist() if 0 in bands else [z] * (len(up) + 1)
    low = [0.0] + (bands[-1].tolist() if -1 in bands else [0.0] * len(up))
    c_prev, c_cur = 0j, 1.0 + 0.0j
    c = [c_cur] + [0j] * len(up)
    for n in range(len(up)):
        c_next = (diag[n] * c_cur - low[n] * c_prev) / up[n]
        if abs(c_next) > states._RESCALE_AT:
            c[:n + 1] = [x / states._RESCALE_AT for x in c[:n + 1]]
            c_cur /= states._RESCALE_AT
            c_next /= states._RESCALE_AT
        c[n + 1] = c_next
        c_prev, c_cur = c_cur, c_next
    amp = np.array(c, dtype=np.complex128)
    return amp / np.linalg.norm(amp)


def _recurrence_outcome(recurrence, bands, z):
    """The amplitude bytes ``recurrence`` gives, or the type of what it raises."""
    try:
        return recurrence(bands, z).tobytes()
    except ArithmeticError as exc:
        return type(exc)


def _huge_row(N, n, value):
    """Bands {1: ones, 0: ...} whose rows at z = 1 keep c_0..c_n at 1 and
    then step to c_{n+1} = ``value``."""
    diag = np.zeros(N, complex)
    diag[n] = 1.0 - value
    return {1: np.ones(N - 1), 0: diag}


_RESCALING_INPUTS = {
    # glauber: |alpha| = 30 rescales once, |alpha| = 250 ninety times
    "glauber-30": ({1: boson_ladder(65536)}, 30.0 + 0.0j, None),
    "glauber-250": ({1: boson_ladder(65536)}, 250.0 + 0.0j, None),
    "glauber-110-phased": ({1: boson_ladder(65536)}, 110.0 * cmath.exp(0.7j), None),
    # a rescale every 30 levels, over many blocks
    "every-30-levels": ({1: np.ones(2000)}, 1e5 - 1e5j, None),
    # a rescale at every level from 401 on
    "every-level": (_huge_row(600, 400, complex(1e308, -1e308)), 1.0 + 0.0j, None),
    # abs of a finite amplitude overflows: at level 1, and past the first block
    "abs-overflow-1": ({1: np.ones(3)}, complex(1.5e308, 1.5e308), OverflowError),
    "abs-overflow-301": (_huge_row(600, 300, complex(1.5e308, 1.5e308)), 1.0 + 0.0j,
                         OverflowError),
    # a step to inf, after which the parts turn NaN
    "inf-then-nan": ({1: np.ones(2000)}, -1e300 + 1e-300j, None),
}


@pytest.mark.parametrize("with_low", [True, False])
@pytest.mark.parametrize("with_diag", [True, False])
def test_recurrence_gives_the_bits_of_an_overflow_test_after_every_row(with_low, with_diag):
    # the bands of the test above, and longer ones over several blocks
    rng = np.random.default_rng(22)
    sizes = [int(rng.integers(8, 65)) for _ in range(25)] + [300, 700, 1500]
    for N in sizes:
        bands = _random_bands(rng, N, with_low, with_diag)
        z = complex(*rng.normal(0.0, 2.0, 2))
        assert (_recurrence_outcome(states._recurrence_amplitudes, bands, z)
                == _recurrence_outcome(_checked_recurrence, bands, z)), (N, z)


@pytest.mark.parametrize("bands, z, raises", _RESCALING_INPUTS.values(),
                         ids=_RESCALING_INPUTS.keys())
def test_recurrence_rescales_and_raises_as_an_overflow_test_after_every_row(bands, z, raises):
    with np.errstate(invalid="ignore"):  # a NaN amplitude normalized
        want = _recurrence_outcome(_checked_recurrence, bands, z)
        assert _recurrence_outcome(states._recurrence_amplitudes, bands, z) == want
    assert want is raises if raises else isinstance(want, bytes)


def test_a_rescaling_glauber_state_makes_one_overflow_test_per_rescale(monkeypatch):
    # at N = 65536 a test after every row makes 65,535 Python-level overflow
    # tests; the blocks make one per rescale, beside glauber's own two abs
    # calls: 3 at |alpha| = 30 (one rescale), 92 at |alpha| = 250 (90)
    calls = []

    def counting(x):
        calls.append(x)
        return abs(x)

    monkeypatch.setattr(states, "abs", counting, raising=False)
    glauber(30.0, N=65536)
    assert len(calls) <= 5, len(calls)
    calls.clear()
    glauber(250.0, N=65536)
    assert len(calls) <= 90 + 5, len(calls)


@pytest.mark.parametrize("family, args", [
    ("glauber", (0.7 - 0.4j,)),
    ("glauber", (-1.5,)),
    ("canonical_ss", (0.3 + 0.2j, 1.1, 0.3j)),
    ("canonical_ss", (-0.5 + 1.3j, math.cosh(1.0) * cmath.exp(2.0j), math.sinh(1.0))),
    # both characteristic roots inside the disk: the recurrence route
    ("su11_intelligent", (1.0, -0.36, 0.0, 0.0, 1.0)),
    ("su11_intelligent", (1.0, -0.16 + 0.05j, 0.1, 1.6, 1.0)),
    ("su11_intelligent", (0.9318 - 2.1218j, -2.0887 - 0.5660j, 0.8723 + 1.6120j,
                          -4.9597 - 1.3071j, 0.25)),
    # the one-band families, whose step ratios are 1/band of the gated band
    ("bg_cs", (0.7 - 0.4j, 0.75)),
    ("bg_cs", (-2.5, 0.25)),
    ("even_odd_cs", (0.8 + 0.3j, "even")),
    ("even_odd_cs", (-1.3 + 0.4j, "odd")),
])
def test_recurrence_solves_the_operator_its_gate_reads(monkeypatch, family, args):
    gated = []

    def recording(amp, basis, family, params, max_tail, bands, z, *rest, **kw):
        gated.append((bands, z))
        return certified(amp, basis, family, params, max_tail, bands, z, *rest, **kw)

    certified = states._certified
    monkeypatch.setattr(states, "_certified", recording)
    amp = getattr(states, family)(*args).amplitudes
    (bands, z), = gated
    assert _rows_solve(bands, z, amp)


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


@pytest.mark.parametrize("seed", range(4))
def test_banded_apply_is_the_operator_product(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(3, 40))
    offsets = rng.choice([-2, -1, 0, 1, 2], size=int(rng.integers(1, 6)), replace=False)
    bands = {int(d): rng.normal(size=N - abs(d)) + 1j * rng.normal(size=N - abs(d))
             for d in offsets}
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    dense = Operator("M", bands, fock_basis(N)).matrix @ psi
    np.testing.assert_allclose(apply_bands(bands, psi), dense, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# squeezed Fock levels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [3, 8, 33])
def test_number_bands_are_the_truncated_product(N):
    u, v = 1.3 * cmath.exp(0.4j), 0.8 * cmath.exp(-1.1j)
    rep = boson_rep(N)
    A = u * rep["a"].matrix + v * rep["adag"].matrix
    expected = A.conj().T @ A
    got = Operator("AdagA", _number_bands(u, v, N), fock_basis(N)).matrix
    # the top level included, where a a^dag has no entry
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-14)


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
    # at its own threshold of 1e-14: the top level holds 3.7e-13 and the
    # tail 1.0e-11, which the bound of 1e-6 lets through
    with pytest.raises(TruncationError, match="top-level amplitude mass"):
        bg_cs(3.0, 1.0, N=16, max_tail=1e-6)


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


def _reference_su11_cs_cutoff(abs_xi, k):
    """The default su11_cs cutoff as a level-by-level scan: ten levels past
    the first weight that lies 50 e-folds below the running peak, confirmed
    by the two levels after it."""
    x2 = abs_xi * abs_xi
    if x2 == 0.0:
        return DEFAULT_SU11_CUTOFF
    lw = 0.0
    lw_max = 0.0
    low = 0
    n = 0
    while n < MAX_ADAPTIVE_CUTOFF:
        lw += math.log(x2) + math.log((2.0 * k + n) / (n + 1.0))
        n += 1
        if lw > lw_max:
            lw_max = lw
            low = 0
        elif lw < lw_max - 50.0:
            low += 1
            if low >= 3:
                return max(DEFAULT_SU11_CUTOFF, n + 8)
        else:
            low = 0
    raise TruncationError(
        f"su11_cs: |xi|={abs_xi:.6g}, k={k:.3g} needs more than "
        f"{MAX_ADAPTIVE_CUTOFF} levels"
    )


def _cutoff_or_refusal(cutoff, abs_xi, k):
    try:
        return cutoff(abs_xi, k)
    except TruncationError as exc:
        return str(exc)


def test_su11_cs_default_cutoff_matches_the_level_scan():
    rng = np.random.default_rng(20001207)
    ks = [0.05, 0.25, 0.4999, 0.5, 0.5001, 0.75, 1.0, 2.0, 7.5]
    cases = [(0.0, k) for k in ks] + [(1e-170, 1.0), (1e-300, 0.5)]
    cases += [(float(a), k) for a in np.linspace(0.0, 0.999, 40) for k in ks]
    # wide-report's band at its k = 1 and at random k
    cases += [(float(rng.uniform(0.965, 0.975)), k)
              for k in [1.0] * 60 + list(rng.uniform(0.01, 10.0, 60))]
    # near |xi| = 1, where the cutoff passes MAX_ADAPTIVE_CUTOFF and is refused
    cases += [(float(1.0 - 10.0 ** rng.uniform(-9, -1.5)), float(10.0 ** rng.uniform(-2, 1.5)))
              for _ in range(120)]
    # the last radius at which the scan still ends, and the next float up
    for a, k in ((0.9943643979418023, 0.3), (0.9939121094482645, 0.5),
                 (0.9933060838397677, 1.0), (0.9917290000147948, 3.0)):
        cases += [(a, k), (float(np.nextafter(a, 2.0)), k)]
    refused = 0
    for a, k in cases:
        expected = _cutoff_or_refusal(_reference_su11_cs_cutoff, a, k)
        assert _cutoff_or_refusal(states._su11_cs_cutoff, a, k) == expected, (a, k)
        refused += isinstance(expected, str)
    assert 60 < refused < len(cases) - 200
    assert _reference_su11_cs_cutoff(0.9933060838397677, 1.0) == MAX_ADAPTIVE_CUTOFF + 8


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


@pytest.mark.parametrize("lam", [1e160, 1e-160, 2.0 ** 600, 1e300])
def test_su11_intelligent_spectrum_is_linear_in_the_ray_scale(lam):
    # w^2 - 4uv overflowed at 1e160 and gave roots of modulus nan, a
    # NormalizabilityError; s is linear in (u, v, w), so the levels scale with lam
    for u, v, w, k in ((0.3, 0.3, 1.0, 0.5), (0.3, 0.2, 1.0, 1.5),
                       (0.3 * cmath.exp(1.1j), 0.3 * cmath.exp(-1.1j), 0.75, 0.5)):
        ref = np.array(su11_intelligent_spectrum(u, v, w, k, count=5))
        zs = np.array(su11_intelligent_spectrum(lam * u, lam * v, lam * w, k, count=5))
        np.testing.assert_allclose(zs, lam * ref, rtol=1e-15, atol=0)


@pytest.mark.parametrize("u, v, w, k, n", [(0.3e307, 0.3e307, 1.7e308, 0.5, 1),
                                           (0.3, 0.3, 2.0, 1.7e308, 0)])
def test_su11_intelligent_spectrum_refuses_a_level_past_the_float_range(u, v, w, k, n):
    # z_n was once returned as inf + 0j: at scale 1.7e308 it is z_1, and at
    # a Bargmann index of 1.7e308 already z_0
    assert np.isfinite(su11_intelligent_spectrum(u, v, w, k, count=n)).all()
    with pytest.raises(NumericError, match=f"z_{n}"):
        su11_intelligent_spectrum(u, v, w, k, count=n + 1)


def test_su11_intelligent_refuses_a_family_that_outgrows_the_adaptive_cutoff():
    # roots +-0.9999: the amplitudes still carry mass at the 4096-level ceiling
    with pytest.raises(TruncationError, match="N=4096"):
        su11_intelligent(1, -0.9999 ** 2, 0, 0, 0.5)


@pytest.mark.parametrize("u, v, w, n0, z", [
    # both roots inside: a recurrence row steps past the float range
    (1.0, -0.36, 0.0, None, 1e300), (1.0, -0.36, 0.0, None, 1e200),
])
def test_su11_intelligent_refuses_amplitudes_past_the_float_range_without_a_warning(
        u, v, w, n0, z):
    # the pytest filter turns a numpy RuntimeWarning before the refusal into an error
    if n0 is not None:
        z = su11_intelligent_spectrum(u, v, w, 1.0, count=n0 + 1)[n0]
    with pytest.raises(NumericError, match="amplitudes over/underflowed"):
        su11_intelligent(u, v, w, z, 1.0, N=16)


@pytest.mark.parametrize("lam", [1e-140, 1e-100, 1e78, 1e100, 1e140])
@pytest.mark.parametrize("n0", [1, 2])
def test_su11_intelligent_raises_one_root_inside_at_any_scale(lam, n0):
    # the raising bands grow as the square of max(|u|, |v|, |w|): unscaled,
    # the norm of the raised amplitudes overflowed between about 1e78 and
    # 2^500, and underflowed between 2^-500 and about 1e-78, where the ray is
    # left as it is, and the state was refused
    u, v, w = 0.3, 0.3, 0.75
    ref = su11_intelligent(u, v, w, su11_intelligent_spectrum(u, v, w, 1.0, count=n0 + 1)[n0],
                           1.0, N=96)
    z = su11_intelligent_spectrum(lam * u, lam * v, lam * w, 1.0, count=n0 + 1)[n0]
    st = su11_intelligent(lam * u, lam * v, lam * w, z, 1.0, N=96)
    np.testing.assert_allclose(st.amplitudes, ref.amplitudes, rtol=0, atol=1e-13)


def test_su11_intelligent_amplitudes_decay():
    # regression: a discrete-spectrum state must decay all the way to the
    # cutoff (rounding noise growing with the level once inverted its tail)
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


def _degenerate_set(r0, theta):
    """(u, v, w) with w^2 = 4uv on the coherent ray xi = -tanh(r0) e^{i theta}."""
    return (math.cosh(r0) ** 2, math.sinh(r0) ** 2 * cmath.exp(2j * theta),
            math.sinh(2 * r0) * cmath.exp(1j * theta))


def _svd_null_vector(u, v, w, z, k, N):
    """Oracle: the smallest right singular vector of the dense
    u K- + v K+ + w K3 - z on N levels, its first component above 1e-8 made
    real and positive as the constructor does."""
    rep = su11_rep(k, N)
    M = (u * rep["kminus"].matrix + v * rep["kplus"].matrix + w * rep["k3"].matrix
         - z * np.eye(N))
    ref = np.linalg.svd(M)[2][-1].conj()
    first = np.argmax(np.abs(ref) > 1e-8)
    return ref * (np.conj(ref[first]) / abs(ref[first]))


@pytest.mark.parametrize("r0,theta,k,N", [(0.3, 0.4, 0.5, None), (0.7, 2.1, 1.0, None),
                                          (0.9, -1.3, 2.0, 200), (1.2, 3.0, 0.25, 200)])
def test_su11_intelligent_degenerate_state_matches_the_svd_route(r0, theta, k, N):
    u, v, w = _degenerate_set(r0, theta)
    st = su11_intelligent(u, v, w, 0.0, k, N=N)
    assert st.basis.N <= 200
    np.testing.assert_allclose(st.amplitudes, _svd_null_vector(u, v, w, 0.0, k, st.basis.N),
                               rtol=0, atol=1e-12)


def _random_intelligent_sets(count=12, seed=1):
    """Seeded (u, v, w, z, k): u, v, w complex normal with sigma 1, 1, 2 and
    |v| scaled down by 1e-2..1e-10 in every third set, k in {1/4, 1/2, 1, 2};
    the characteristic roots of u t^2 + w t + v are kept below 0.8 in modulus
    where they count, so each state fits in 200 levels.  Half have both roots
    inside the disk and a random z; half have one inside, and z on the
    discrete spectrum s (k + n0), n0 = 0..3."""
    rng = np.random.default_rng(seed)
    both, one = [], []
    while len(both) + len(one) < count:
        u, v, w = (complex(*rng.normal(0.0, s, 2)) for s in (1.0, 1.0, 2.0))
        if (len(both) + len(one)) % 3 == 2:
            v *= 10.0 ** rng.uniform(-10.0, -2.0)
        k = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        l = cmath.sqrt(w * w - 4.0 * u * v)
        r = [abs((-w + l) / (2.0 * u)), abs((-w - l) / (2.0 * u))]
        if max(r) < 0.8 and len(both) < count // 2:
            both.append((u, v, w, complex(*rng.normal(0.0, 2.0, 2)), k))
        elif min(r) < 0.8 and max(r) > 1.0 and len(one) < count - count // 2:
            s = l if r[0] < r[1] else -l
            one.append((u, v, w, s * (k + int(rng.integers(0, 4))), k))
    return both + one


@pytest.mark.parametrize("u, v, w, z, k", [
    # roots +-0.6, continuous spectrum: refused while the amplitudes were
    # hypergeometric sums
    (1.0, -0.36, 0.0, 0.0, 1.0),
    # roots 0 and -3, z on the discrete spectrum with n0 = 2: three levels
    (1.0, 0.0, 3.0, 9.0, 1.0),
    *_random_intelligent_sets(),
])
def test_su11_intelligent_state_matches_the_svd_route(u, v, w, z, k):
    st = su11_intelligent(u, v, w, z, k)
    N = st.basis.N
    assert N <= 200
    rep = su11_rep(k, N)
    M = u * rep["kminus"].matrix + v * rep["kplus"].matrix + w * rep["k3"].matrix
    assert np.linalg.norm(M @ st.amplitudes - z * st.amplitudes) < 1e-8
    # the two routes truncate the top row differently: the recurrence drops
    # c_N, the SVD spreads the defect over the vector
    np.testing.assert_allclose(st.amplitudes, _svd_null_vector(u, v, w, z, k, N),
                               rtol=0, atol=1e-11)


def test_su11_intelligent_discrete_state_at_v_zero_is_finite():
    # u K- + 3 K3 at z = 9: the vacuum raised twice, nothing above level 2;
    # the growth loop once refused it as "amplitude mass persists"
    st = su11_intelligent(1.0, 0.0, 3.0, 9.0, 1.0)
    assert np.all(st.amplitudes[3:] == 0.0)
    assert np.all(st.amplitudes[:3] != 0.0)


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


@pytest.mark.parametrize("z", [0.5, 1 + 1j])
def test_su11_intelligent_double_root_takes_every_z(z):
    # w^2 = 4uv with the double root xi = 0.3 inside the disk: every z is an
    # eigenvalue, as in the both-inside family it is the limit of; a separate
    # double-root branch once refused every z != 0
    st = su11_intelligent(1.0, 0.09, -0.6, z, 1.0)
    np.testing.assert_allclose(st.amplitudes,
                               _svd_null_vector(1.0, 0.09, -0.6, z, 1.0, st.basis.N),
                               rtol=0, atol=1e-11)


def _relative_banded_residual(st, u, v, w, z, k):
    """||(u K- + v K+ + w K3 - z) psi|| / max(|u|, |v|, |w|), from the
    generator bands, and the `residual_bound` the constructor holds it to."""
    N = st.basis.N
    rep = su11_rep(k, N)
    psi = st.amplitudes
    scale = max(abs(u), abs(v), abs(w))
    Mpsi = (u * rep["kminus"].apply(psi) + v * rep["kplus"].apply(psi)
            + w * rep["k3"].apply(psi))
    res = float(np.linalg.norm(Mpsi - z * psi)) / scale
    return res, residual_bound(psi, st.basis, math.sqrt(N) * (1.0 + k + abs(z) / scale))


def test_su11_intelligent_default_cutoff_follows_the_slower_root():
    # roots 0.945 and 0.988: a starting cutoff guessed from the smaller root
    # once refused this state as needing more than 4096 levels
    u, v, w = 0.9318 - 2.1218j, -2.0887 - 0.5660j, 0.8723 + 1.6120j
    z, k = -4.9597 - 1.3071j, 0.25
    st = su11_intelligent(u, v, w, z, k)
    assert st.basis.N == 3072
    assert edge_mass(st.amplitudes) <= 1e-18
    res, bound = _relative_banded_residual(st, u, v, w, z, k)
    assert res <= bound


def _default_cutoff_sweep(count=24, seed=11):
    """Seeded (u, v, w, z, k) over both spectra: a third with both roots
    inside the disk and a random z, a third with one root inside and z on
    the discrete spectrum s (k + n0), n0 = 0..3, and a third with a double
    root xi, |xi| <= 0.97, and a random z.  k is drawn from {1/4, 1/2, 1, 2}."""
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        kind = len(sets) % 3
        k = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        u = complex(*rng.normal(0.0, 1.0, 2))
        if kind == 2:
            xi = 0.97 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            sets.append((u, u * xi * xi, -2.0 * u * xi, complex(*rng.normal(0.0, 2.0, 2)), k))
            continue
        v, w = (complex(*rng.normal(0.0, s, 2)) for s in (1.0, 2.0))
        l = cmath.sqrt(w * w - 4.0 * u * v)
        r = [abs((-w + l) / (2.0 * u)), abs((-w - l) / (2.0 * u))]
        if kind == 0 and max(r) < 0.99:
            sets.append((u, v, w, complex(*rng.normal(0.0, 2.0, 2)), k))
        elif kind == 1 and min(r) < 0.99 and max(r) > 1.0:
            s = l if r[0] < r[1] else -l
            sets.append((u, v, w, s * (k + int(rng.integers(0, 4))), k))
    return sets


def test_su11_intelligent_default_cutoff_is_the_growth_loop():
    # with N omitted the cutoff doubles from DEFAULT_SU11_CUTOFF, capped at
    # MAX_ADAPTIVE_CUTOFF, until the top two levels carry at most 1e-18
    cutoffs = {DEFAULT_SU11_CUTOFF << j for j in range(6)} | {MAX_ADAPTIVE_CUTOFF}
    built = 0
    for u, v, w, z, k in _default_cutoff_sweep():
        try:
            st = su11_intelligent(u, v, w, z, k)
        except TruncationError:
            continue
        built += 1
        assert st.basis.N in cutoffs
        assert edge_mass(st.amplitudes) <= 1e-18
        res, bound = _relative_banded_residual(st, u, v, w, z, k)
        assert res <= bound, (u, v, w, z, k)
    assert built >= 20


def test_su11_intelligent_refuses_unphysical_parameters():
    u = 0.8 * cmath.exp(0.3j)
    with pytest.raises(NormalizabilityError):
        # |w| < 2|u| with v = conj(u): both characteristic roots on the
        # unit circle, nothing normalizable
        su11_intelligent(u, np.conj(u), 0.5, 0.1, 0.5)
    with pytest.raises(NormalizabilityError):
        # off-spectrum eigenvalue in the discrete family
        su11_intelligent(0.3, 0.3, 0.75, 0.2 + 0.11j, 0.5)
    with pytest.raises(NormalizabilityError):
        # u = 0: no lowering part
        su11_intelligent(0.0, 0.5, 1.0, 0.0, 0.5)


def test_su11_intelligent_refuses_z_off_the_discrete_spectrum_before_evaluating(monkeypatch):
    # roots -0.068 and -2.93: with one root outside the disk only
    # z = l (k + n), l = sqrt(w^2 - 4uv), has a normalizable eigenstate
    u, v, w, k = 1.0, 0.2, 3.0, 1.0
    l = math.sqrt(w * w - 4.0 * u * v)
    rep = su11_rep(k, 96)
    M = u * rep["kminus"].matrix + v * rep["kplus"].matrix + w * rep["k3"].matrix
    for n in range(4):
        st = su11_intelligent(u, v, w, l * (k + n), k)
        assert st.basis.N == 96
        assert np.linalg.norm(M @ st.amplitudes - l * (k + n) * st.amplitudes) < 1e-8

    def unreachable(*args):
        raise AssertionError("amplitudes evaluated for a refused z")

    for helper in ("_recurrence_amplitudes", "_raised", "_su11_cs_amplitudes"):
        monkeypatch.setattr(states, helper, unreachable)
    rng = np.random.default_rng(3)
    draws = [(u, v, w, 0.5)]
    while len(draws) < 40:
        uu, vv, ww, zz = (complex(*rng.normal(0.0, s, 2)) for s in (1.0, 1.0, 2.0, 3.0))
        ll = cmath.sqrt(ww * ww - 4.0 * uu * vv)
        if (abs((-ww + ll) / (2.0 * uu)) < 1.0) != (abs((-ww - ll) / (2.0 * uu)) < 1.0):
            draws.append((uu, vv, ww, zz))
    for uu, vv, ww, zz in draws:
        with pytest.raises(NormalizabilityError):
            su11_intelligent(uu, vv, ww, zz, k)


def _recorded_raisings(monkeypatch):
    """The (bands, n) of every `_raised` call, which still runs."""
    calls, raised = [], states._raised

    def record(amp, bands, n):
        calls.append((bands, n))
        return raised(amp, bands, n)

    monkeypatch.setattr(states, "_raised", record)
    return calls


def _low_vectors(rng, N, count=4):
    """Random vectors on the lowest N/4 of N levels, whose mass stays away
    from the cutoff under a few band products."""
    psi = np.zeros((count, N), dtype=complex)
    psi[:, :N // 4] = rng.normal(size=(count, N // 4)) + 1j * rng.normal(size=(count, N // 4))
    return psi


def _commutator(X, Y, psi):
    """[X, Y] psi for the operators with bands X and Y."""
    return apply_bands(X, apply_bands(Y, psi)) - apply_bands(Y, apply_bands(X, psi))


def test_su11_intelligent_raising_bands_obey_the_commutator(monkeypatch):
    # [M, E] psi = s E psi for the E that raises |t_in; k> up the discrete
    # spectrum z = s (k + n), M = u K- + v K+ + w K3
    calls = _recorded_raisings(monkeypatch)
    rng = np.random.default_rng(20001207)
    draws = [(1.0, 0.2, 3.0, 1.0, 2), (0.3, 0.3, 0.75, 0.5, 2)]
    while len(draws) < 12:
        u, v, w = (complex(*rng.normal(0.0, sd, 2)) for sd in (1.0, 1.0, 2.0))
        l = cmath.sqrt(w * w - 4.0 * u * v)
        radii = sorted(abs((-w + sl) / (2.0 * u)) for sl in (l, -l))
        if radii[0] < 0.9 and radii[1] > 1.1:
            draws.append((u, v, w, float(rng.choice([0.25, 0.5, 1.0, 2.0])),
                          int(rng.integers(0, 4))))
    for u, v, w, k, n0 in draws:
        l = cmath.sqrt(w * w - 4.0 * u * v)
        s = l if abs((-w + l) / (2.0 * u)) < 1.0 else -l
        N = su11_intelligent(u, v, w, s * (k + n0), k).basis.N
        E, n = calls[-1]
        assert n == n0
        c = states.su11_ladder(k, N)
        M = {1: u * c, -1: v * c, 0: w * (k + np.arange(N))}
        for psi in _low_vectors(rng, N):
            sE = s * apply_bands(E, psi)
            assert np.linalg.norm(_commutator(M, E, psi) - sE) <= 1e-12 * np.linalg.norm(sE)


def test_squeezed_fock_raises_with_the_adjoint_of_a(monkeypatch):
    # A^dag = conj(u) a^dag + conj(v) a on shell: [A, A^dag] = 1, and
    # [A^dag A, A^dag] = A^dag, so each step climbs one level of A^dag A
    calls = _recorded_raisings(monkeypatch)
    rng = np.random.default_rng(20001207)
    u, v = math.cosh(0.6) * cmath.exp(0.3j), math.sinh(0.6) * cmath.exp(-1.1j)
    squeezed_fock(3, u, v, N=64)
    (A_dag, n), = calls
    assert n == 3
    c = states.boson_ladder(64)
    A = {1: u * c, -1: v * c}
    number = _number_bands(u, v, 64)
    for psi in _low_vectors(rng, 64):
        np.testing.assert_allclose(_commutator(A, A_dag, psi), psi,
                                   rtol=0, atol=1e-12 * np.linalg.norm(psi))
        up = apply_bands(A_dag, psi)
        np.testing.assert_allclose(_commutator(number, A_dag, psi), up,
                                   rtol=0, atol=1e-12 * np.linalg.norm(up))


def test_su11_intelligent_spectrum_contract():
    zs = su11_intelligent_spectrum(0.3, 0.3, 1.0, 0.5, count=4)
    l = math.sqrt(1.0 - 4 * 0.09)
    np.testing.assert_allclose(zs, l * (0.5 + np.arange(4)), rtol=1e-12)
    with pytest.raises(NormalizabilityError):
        su11_intelligent_spectrum(0.6, 0.6, 1.0, 0.5)
    # a family off v = conj(u) with one root inside has its spectrum too,
    # at the step l = sqrt(w^2 - 4uv), and an eigenstate at each level
    zs = su11_intelligent_spectrum(0.3, 0.2, 1.0, 0.5, count=3)
    np.testing.assert_allclose(zs, math.sqrt(0.76) * (0.5 + np.arange(3)), rtol=1e-12)
    for z in zs:
        assert su11_intelligent(0.3, 0.2, 1.0, z, 0.5).params["z"] == z
    # both roots inside (+-0.6): every z is an eigenvalue, no level is listed
    with pytest.raises(NormalizabilityError, match="inside"):
        su11_intelligent_spectrum(1.0, -0.36, 0.0, 1.0)


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
