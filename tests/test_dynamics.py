"""Oscillator profiles, the eps -> (u, v) map, the classical flow, and the
paper's closed-form Gaussian against the Fock-basis squeezed state."""

import math

import numpy as np
import pytest

from urstates import dynamics
from urstates.dynamics import (
    ClassicalPhasePoint,
    OscillatorProfile,
    classical_flow,
    effective_frequency,
    integrate_epsilon,
    trajectory_table,
    uv_trajectory,
)
from urstates.errors import InvalidInputError, NumericError, SingularProfileError
from urstates.hilbert import basis_state, fock_basis
from urstates.states import SqueezeParams, canonical_ss

# constant omega = 2 with omega0 = 1: the canonical solution is
# eps = cos 2t + (i/2) sin 2t, u = cos 2t + (5i/4) sin 2t, v = (3i/4) sin 2t
CONST2 = OscillatorProfile.from_omega(2.0, omega0=1.0)

# Omega diverges at t = 1/2, so an adaptive step shrinks toward it forever
POLE = OscillatorProfile.from_omega(lambda t: 1.0 / (t - 0.5) ** 2 + 1.0)


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
    assert CONST2.is_frequency_form()
    tilted = OscillatorProfile.from_g123(1.0, 0.0, 1.0, omega0=2.0)
    assert not tilted.is_frequency_form()


def test_effective_frequency_of_bare_profile():
    # for a bare profile the identity Omega^2 = omega(t)^2 is algebraic
    prof = OscillatorProfile.from_omega(lambda t: 2.0 + 0.3 * math.sin(t))
    for t in (0.0, 0.4, 1.7, 3.1):
        om = 2.0 + 0.3 * math.sin(t)
        assert effective_frequency(prof, t) == pytest.approx(om * om,
                                                             rel=1e-14)


def test_effective_frequency_supplied_vs_differenced():
    kw = dict(
        g1=lambda t: 0.5 + 0.1 * t * t,
        g2=lambda t: 0.2 * t,
        g3=lambda t: 1.0 + 0.05 * t,
        omega0=1.5,
    )
    closed = OscillatorProfile.from_g123(
        dg1=lambda t: 0.2 * t, ddg1=lambda t: 0.2, dg2=lambda t: 0.2, **kw)
    differenced = OscillatorProfile.from_g123(**kw)
    for t in (0.0, 0.7, 2.3):
        a = effective_frequency(closed, t)
        b = effective_frequency(differenced, t)
        # the second central difference carries ~eps/h^2 roundoff
        assert b == pytest.approx(a, abs=1e-4)


def test_effective_frequency_singular_profile():
    flat = OscillatorProfile.from_g123(0.0, 0.0, 1.0, omega0=1.0)
    with pytest.raises(SingularProfileError):
        effective_frequency(flat, 0.3)


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
    # Wronskian of (1, 2i) is 4i, not 2i
    with pytest.raises(InvalidInputError):
        integrate_epsilon(CONST2, [0.0, 1.0], eps0=1.0, deps0=2j)
    # a rescaled admissible pair: (2, i/2) carries exactly 2i
    traj = integrate_epsilon(CONST2, [0.0, 0.5, 1.0], eps0=2.0, deps0=0.5j)
    assert traj.wronskian_drift < 1e-8


def test_trajectory_table_rows():
    t = np.linspace(0.0, 1.0, 11)
    traj, u, v, rows = trajectory_table(CONST2, t)
    assert len(rows) == 11
    t5, eps5, u5, v5, dq2, dp2, dpq = rows[5]
    assert t5 == pytest.approx(0.5)
    assert dq2 == pytest.approx(abs(u5 - v5) ** 2 / 2.0, rel=1e-12)
    # Schrodinger equality holds along the whole trajectory
    assert dq2 * dp2 - dpq ** 2 == pytest.approx(0.25, rel=1e-8)


def test_trajectory_table_refuses_tilted_profile():
    tilted = OscillatorProfile.from_g123(1.0, 0.0, 1.0, omega0=2.0)
    with pytest.raises(InvalidInputError):
        trajectory_table(tilted, np.linspace(0.0, 1.0, 5))


def test_wavefunction_normalization_and_dual_route():
    alpha = 0.7 - 0.2j
    u = math.cosh(0.6)
    v = math.sinh(0.6) * np.exp(0.9j)
    x = np.linspace(-8.0, 8.0, 1601)
    sq = SqueezeParams(u, v).normalized()
    psi = gaussian_wavefunction(alpha, sq.u, sq.v, x)
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


def test_integration_budget_ends_a_pole_profile(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 20_000)
    t = np.linspace(0.0, 2.0, 5)
    with pytest.raises(NumericError, match="20000 right-hand-side evaluations"):
        integrate_epsilon(POLE, t)
    with pytest.raises(NumericError, match="20000 right-hand-side evaluations"):
        classical_flow(POLE, ClassicalPhasePoint(0.0, 0.0, 0.0, 1.0), t)
