"""Oscillator profiles, the eps -> (u, v) map, the classical flow, and the
paper's closed-form Gaussian against the Fock-basis squeezed state."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urstates import dynamics
from urstates.dynamics import (
    ClassicalPhasePoint,
    OscillatorProfile,
    classical_flow,
    integrate_epsilon,
    trajectory_table,
    uv_trajectory,
)
from urstates.errors import InvalidInputError, NumericError
from urstates.hilbert import basis_state, fock_basis
from urstates.states import canonical_ss, squeeze_pair

# constant omega = 2 with omega0 = 1: the canonical solution is
# eps = cos 2t + (i/2) sin 2t, u = cos 2t + (5i/4) sin 2t, v = (3i/4) sin 2t
CONST2 = OscillatorProfile.from_omega(2.0, omega0=1.0)

# Omega diverges at t = 1/2, so an adaptive step shrinks toward it forever
POLE = OscillatorProfile.from_omega(lambda t: 1.0 / (t - 0.5) ** 2 + 1.0)


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


def closed_eps(t):
    return np.cos(2 * t) + 0.5j * np.sin(2 * t)


def gaussian_wavefunction(alpha, u, v, x):
    """Position-space eigenstate of u a + v a^dag on the shell |u|^2 - |v|^2 = 1:

    Psi(x) = pi^(-1/4) (u-v)^(-1/2)
             exp[-(1/2)((u+v)/(u-v))(x - sqrt(2) alpha/(u+v))^2]
             exp[(1/2)((u*+v*)/(u+v)) alpha^2 - |alpha|^2/2]
    """
    d, s = u - v, u + v
    x0 = math.sqrt(2.0) * alpha / s
    const = np.exp(0.5 * (np.conj(s) / s) * alpha * alpha - 0.5 * abs(alpha) ** 2)
    return math.pi ** -0.25 * d ** -0.5 * const * np.exp(-0.5 * (s / d) * (x - x0) ** 2)


def fock_to_grid(amp, x):
    """sum_n amp_n phi_n(x) through the oscillator-eigenfunction recurrence
    phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1}."""
    phi_prev = np.zeros_like(x)
    phi = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    total = amp[0] * phi.astype(complex)
    for n in range(1, amp.size):
        phi_prev, phi = phi, math.sqrt(2.0 / n) * x * phi - math.sqrt((n - 1.0) / n) * phi_prev
        total += amp[n] * phi
    return total


def test_profile_validation():
    with pytest.raises(InvalidInputError):
        OscillatorProfile.from_omega(-1.0)
    with pytest.raises(InvalidInputError):
        OscillatorProfile.from_omega(2.0, omega0=0.0)
    with pytest.raises(InvalidInputError):
        OscillatorProfile.from_g123(0.5, 0.0, 0.5, omega0=-2.0)


def test_epsilon_against_closed_form():
    t = np.linspace(0.0, 3.0, 61)
    traj = integrate_epsilon(CONST2, t)
    np.testing.assert_allclose(traj.eps, closed_eps(t), atol=1e-7)
    np.testing.assert_allclose(traj.deps,
                               -2 * np.sin(2 * t) + 1j * np.cos(2 * t),
                               atol=1e-7)
    assert traj.wronskian_drift < 1e-8


def test_uv_closed_form_and_shell():
    t = np.linspace(0.0, 2.0, 41)
    traj = integrate_epsilon(CONST2, t)
    u, v = uv_trajectory(traj, CONST2.omega0)
    assert u[0] == pytest.approx(1.0, abs=1e-12)
    assert v[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(u, np.cos(2 * t) + 1.25j * np.sin(2 * t),
                               atol=1e-7)
    np.testing.assert_allclose(v, 0.75j * np.sin(2 * t), atol=1e-7)
    np.testing.assert_allclose(np.abs(u) ** 2 - np.abs(v) ** 2, 1.0,
                               atol=1e-9)


def test_epsilon_initial_data_validation():
    with pytest.raises(InvalidInputError):
        integrate_epsilon(CONST2, [0.0, -1.0])
    with pytest.raises(InvalidInputError):
        integrate_epsilon(CONST2, [[0.0, 1.0]])
    # a non-finite grid once ran the whole evaluation budget into NumericError
    for grid in ([math.nan, 1.0], [0.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(InvalidInputError, match="finite"):
            integrate_epsilon(CONST2, grid)


def test_epsilon_refuses_an_infinite_frequency():
    with pytest.raises(NumericError, match="right-hand side"):
        integrate_epsilon(OscillatorProfile(1.0, lambda t: math.inf), [0.0, 1.0])


def test_trajectory_table_rows():
    t = np.linspace(0.0, 1.0, 11)
    traj, u, v, rows = trajectory_table(CONST2, t)
    assert len(rows) == 11
    # one Python float per TABLE_HEADER column, the evolve table as written
    assert all(len(row) == len(dynamics.TABLE_HEADER) for row in rows)
    assert all(type(cell) is float for row in rows for cell in row)
    t5, re_eps, im_eps, re_u, im_u, re_v, im_v, dq2, dp2, dpq = rows[5]
    assert t5 == pytest.approx(0.5)
    assert complex(re_eps, im_eps) == traj.eps[5]
    assert (complex(re_u, im_u), complex(re_v, im_v)) == (u[5], v[5])
    assert dq2 == pytest.approx(abs(u[5] - v[5]) ** 2 / 2.0, rel=1e-12)
    # Schrodinger equality holds along the whole trajectory
    assert dq2 * dp2 - dpq ** 2 == pytest.approx(0.25, rel=1e-8)


#: bare frequencies with |omega| <= 3, constant or slowly varying, so that no
#: draw integrates for long
_BARE_OMEGAS = st.floats(0.05, 3.0) | st.builds(
    lambda a, b, c: (lambda t: a + b * math.sin(c * t)),
    st.floats(1.0, 2.0), st.floats(-0.9, 0.9), st.floats(0.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(omega=_BARE_OMEGAS, omega0=st.none() | st.floats(0.05, 3.0),
       t0=st.floats(-1.0, 1.0), span=st.floats(0.01, 3.0), samples=st.integers(2, 12))
def test_trajectory_table_moments_are_uv_moments(omega, omega0, t0, span, samples):
    # the closed forms in eps are the moments of each (u, v) pair on its shell
    profile = OscillatorProfile.from_omega(omega, omega0=omega0)
    _traj, u, v, rows = trajectory_table(profile, np.linspace(t0, t0 + span, samples))
    for ui, vi, row in zip(u, v, rows):
        dq2, dp2, dpq = row[7:]
        ref_q, ref_p, ref_pq = uv_moments(ui, vi)
        # uv_moments loses digits in u - v or u + v once |u|, |v| >> 1: its
        # rounding grows with cosh 2r = |u|^2 + |v|^2 on the shell (at w = 1,
        # w0 = 1/16, t = 1 it is 1.2e-14 from the exact moments of eps and
        # eps', the closed form 3e-17)
        rel = 4e-15 * (abs(ui) ** 2 + abs(vi) ** 2)
        assert dq2 == pytest.approx(ref_q, rel=rel, abs=0.0)
        assert dp2 == pytest.approx(ref_p, rel=rel, abs=0.0)
        assert abs(dpq - ref_pq) <= rel * math.sqrt(dq2 * dp2)


def _never_called(t):
    raise AssertionError("a refused profile was evaluated")


def test_from_g123_refuses_a_profile_that_is_not_bare():
    # any other g1 or g2 carries its squeezing in a transformed frame, which
    # the (u, v) table would mislabel: refused as the profile is built
    for g1, g2 in [(lambda t: 0.5, 0.0), (0.5, lambda t: 0.0), (1.0, 0.0), (0.5, 0.2)]:
        with pytest.raises(InvalidInputError, match="g1 and g2"):
            OscillatorProfile.from_g123(g1, g2, _never_called, omega0=1.0)


def test_wavefunction_normalization_and_dual_route():
    alpha = 0.7 - 0.2j
    u = math.cosh(0.6)
    v = math.sinh(0.6) * np.exp(0.9j)
    x = np.linspace(-8.0, 8.0, 1601)
    psi = gaussian_wavefunction(alpha, *squeeze_pair(u, v), x)
    norm = np.trapezoid(np.abs(psi) ** 2, x)
    assert norm == pytest.approx(1.0, rel=1e-9)
    # independent route: synthesize the same state from Fock amplitudes
    grid = fock_to_grid(canonical_ss(alpha, u, v, N=128).amplitudes, x)
    overlap = np.trapezoid(np.conj(grid) * psi, x)
    assert abs(overlap) == pytest.approx(1.0, rel=1e-9)


def test_fock_to_grid_low_levels():
    x = np.linspace(-3.0, 3.0, 7)
    ground = fock_to_grid(basis_state(fock_basis(16), 0).amplitudes, x)
    np.testing.assert_allclose(
        ground, math.pi ** -0.25 * np.exp(-x * x / 2.0), rtol=1e-14)
    first = fock_to_grid(basis_state(fock_basis(16), 1).amplitudes, x)
    np.testing.assert_allclose(
        first, math.sqrt(2.0) * x * math.pi ** -0.25 * np.exp(-x * x / 2.0),
        rtol=1e-13, atol=1e-15)


def test_classical_flow_means_and_stationary_squeeze():
    # q'' = -4q, and (p~, q~) = (0, 1/2) balances the centrifugal term
    t = np.linspace(0.0, 3.0, 61)
    init = ClassicalPhasePoint(0.3, 0.7, 0.0, 0.5)
    flow = classical_flow(CONST2, init, t)
    np.testing.assert_allclose(
        flow.q_mean, 0.7 * np.cos(2 * t) + 0.15 * np.sin(2 * t), atol=1e-8)
    np.testing.assert_allclose(flow.p_tilde, 0.0, atol=1e-8)
    np.testing.assert_allclose(flow.q_tilde, 0.5, atol=1e-8)
    assert np.ptp(flow.energy) < 1e-7


def test_classical_flow_breathing_conserves_energy():
    # starting from q~ = 1 at rest, the turning points of the breathing
    # motion solve 2q~^2 + 1/(8q~^2) = 17/8, i.e. q~ runs between 1 and 1/4
    t = np.linspace(0.0, 2.0, 41)
    flow = classical_flow(CONST2, ClassicalPhasePoint(0.0, 0.0, 0.0, 1.0), t)
    assert 0.24 < np.min(flow.q_tilde) < 0.26
    assert np.max(flow.q_tilde) > 0.99
    assert np.ptp(flow.energy) < 1e-7


def test_classical_flow_validation():
    with pytest.raises(InvalidInputError):
        ClassicalPhasePoint(0.0, 0.0, 0.0, -1.0)
    with pytest.raises(InvalidInputError):
        classical_flow(CONST2, ClassicalPhasePoint(0, 0, 0, 1.0),
                       [0.0, 0.5, 0.2])


def test_classical_flow_refuses_a_collapsed_squeeze():
    with pytest.raises(NumericError, match="squeezing collapse"):
        classical_flow(CONST2, ClassicalPhasePoint(0.0, 0.0, 0.0, 1e-7), [0.0, 0.1])


def test_integration_budget_ends_a_pole_profile(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 20_000)
    t = np.linspace(0.0, 2.0, 5)
    with pytest.raises(NumericError, match="20000 right-hand-side evaluations"):
        integrate_epsilon(POLE, t)
    with pytest.raises(NumericError, match="20000 right-hand-side evaluations"):
        classical_flow(POLE, ClassicalPhasePoint(0.0, 0.0, 0.0, 1.0), t)
