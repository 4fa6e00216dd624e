"""Nonstationary-oscillator evolution through the classical amplitude eps(t).

The quantum side never touches a PDE: for quadratic Hamiltonians the whole
time dependence of the squeezed family rides in the Bogoliubov pair
(u(t), v(t)), which follows from one complex solution of

    eps'' + Omega^2(t) eps = 0,   Wronskian conj(eps) eps' - eps conj(eps') = 2i

with Omega^2 the effective frequency of the general quadratic profile
H = omega0 [g1 p^2 + g2 (pq + qp) + g3 q^2].  The classical Hamilton flow
for (<p>, <q>) and the squeeze pair (p~, q~) = (Dpq/Dq, Dq) provides an
independent integration route used for cross-checks.
"""

import cmath
import math

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateParameterError,
    InvalidInputError,
    NumericError,
    SingularProfileError,
)
from .hilbert import StateVector

__all__ = [
    "OscillatorProfile",
    "EpsilonTrajectory",
    "ClassicalPhasePoint",
    "ClassicalTrajectory",
    "effective_frequency",
    "integrate_epsilon",
    "uv_trajectory",
    "trajectory_table",
    "wavefunction",
    "unwound_angle",
    "classical_flow",
    "fock_to_grid",
    "quadratic_logfit_residual",
]

#: central-difference step for profile derivatives without closed forms
DIFF_STEP = 1e-5

#: maximum tolerated Wronskian drift over an integration window
WRONSKIAN_TOL = 1e-8


def _as_callable(f):
    if callable(f):
        return f
    val = float(f)
    if not math.isfinite(val):
        raise InvalidInputError(f"profile constant must be finite, got {val}")
    return lambda t: val


def _zero(t):
    return 0.0


@dataclass
class OscillatorProfile:
    """Time-dependent quadratic oscillator, either as a bare frequency
    omega(t) or as coefficient functions g1, g2, g3 with scale omega0."""

    kind: str
    omega0: float
    g1: object
    g2: object
    g3: object
    omega: object = None
    dg1: object = None
    ddg1: object = None
    dg2: object = None
    meta: dict = None

    @classmethod
    def from_omega(cls, omega, omega0=None):
        om = _as_callable(omega)
        if omega0 is None:
            omega0 = om(0.0)
        omega0 = float(omega0)
        if not (0.0 < omega0 < math.inf and 0.0 < om(0.0) < math.inf):
            raise InvalidInputError(
                f"frequency profile needs finite omega(0) > 0 and omega0 > 0, "
                f"got omega(0)={om(0.0)}, omega0={omega0}"
            )
        g3 = lambda t, _om=om, _w0=omega0: _om(t) ** 2 / (2.0 * _w0 * _w0)
        return cls(kind="omega", omega0=omega0, g1=lambda t: 0.5, g2=_zero,
                   g3=g3, omega=om, dg1=_zero, ddg1=_zero, dg2=_zero)

    @classmethod
    def from_g123(cls, g1, g2, g3, omega0, dg1=None, ddg1=None, dg2=None):
        omega0 = float(omega0)
        if not 0.0 < omega0 < math.inf:
            raise InvalidInputError(f"omega0 must be positive and finite, got {omega0}")
        return cls(kind="g123", omega0=omega0,
                   g1=_as_callable(g1), g2=_as_callable(g2), g3=_as_callable(g3),
                   dg1=None if dg1 is None else _as_callable(dg1),
                   ddg1=None if ddg1 is None else _as_callable(ddg1),
                   dg2=None if dg2 is None else _as_callable(dg2))

    def g_values(self, t):
        return self.g1(t), self.g2(t), self.g3(t)

    def is_frequency_form(self, t_samples=(0.0,)):
        """True when (g1, g2) = (1/2, 0) at the sampled times, i.e. the
        profile is a bare-frequency oscillator and the eps -> (u, v) map
        applies literally."""
        for t in t_samples:
            if abs(self.g1(t) - 0.5) > 1e-12 or abs(self.g2(t)) > 1e-12:
                return False
        return True


def _d1(f, t):
    return (f(t + DIFF_STEP) - f(t - DIFF_STEP)) / (2.0 * DIFF_STEP)


def _d2(f, t):
    return (f(t + DIFF_STEP) - 2.0 * f(t) + f(t - DIFF_STEP)) / DIFF_STEP ** 2


def effective_frequency(profile, t):
    """Omega^2(t) of the equivalent bare oscillator:

    Omega^2 = 4 w0^2 g1 g3 + 2 w0 g2 g1'/g1 + g1''/(2 g1) - 3 g1'^2/(4 g1^2)
              - 4 w0^2 g2^2 - 2 w0 g2'

    Derivatives use supplied closed forms when available, otherwise central
    differences with step 1e-5.
    """
    g1 = profile.g1(t)
    if abs(g1) < 1e-12:
        raise SingularProfileError(f"g1({t}) = {g1}: effective frequency undefined")
    g2 = profile.g2(t)
    g3 = profile.g3(t)
    dg1 = profile.dg1(t) if profile.dg1 is not None else _d1(profile.g1, t)
    ddg1 = profile.ddg1(t) if profile.ddg1 is not None else _d2(profile.g1, t)
    dg2 = profile.dg2(t) if profile.dg2 is not None else _d1(profile.g2, t)
    w0 = profile.omega0
    return (4.0 * w0 * w0 * g1 * g3
            + 2.0 * w0 * g2 * dg1 / g1
            + ddg1 / (2.0 * g1)
            - 3.0 * dg1 * dg1 / (4.0 * g1 * g1)
            - 4.0 * w0 * w0 * g2 * g2
            - 2.0 * w0 * dg2)


@dataclass
class EpsilonTrajectory:
    """Samples of the classical amplitude and its derivative, with the
    recorded worst-case Wronskian drift."""

    t: np.ndarray
    eps: np.ndarray
    deps: np.ndarray
    wronskian_drift: float


def integrate_epsilon(profile, t_grid, eps0=None, deps0=None):
    """Integrate eps'' + Omega^2(t) eps = 0 over an increasing time grid.

    Defaults to the canonical initial data eps(t0) = 1/sqrt(omega0),
    eps'(t0) = i sqrt(omega0); any initial data must carry Wronskian 2i
    within 1e-12.  Adaptive 4th/5th-order integration; a Wronskian drift
    beyond 1e-8 over the window raises a step-size failure.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0.0):
        raise InvalidInputError("time grid must be 1-d, increasing, length >= 2")
    w0 = profile.omega0
    if eps0 is None:
        eps0 = 1.0 / math.sqrt(w0)
    if deps0 is None:
        deps0 = 1j * math.sqrt(w0)
    eps0 = complex(eps0)
    deps0 = complex(deps0)
    wr = np.conj(eps0) * deps0 - eps0 * np.conj(deps0)
    if abs(wr - 2j) > 1e-12:
        raise InvalidInputError(
            f"initial data must carry Wronskian 2i, got {wr:.6g}"
        )

    def rhs(tt, y):
        om2 = effective_frequency(profile, tt)
        return [y[2], y[3], -om2 * y[0], -om2 * y[1]]

    # scipy.integrate loads scipy.optimize with it, together slower to import
    # than the rest of the package: only the calls that integrate pay for it
    from scipy.integrate import solve_ivp

    y0 = [eps0.real, eps0.imag, deps0.real, deps0.imag]
    sol = solve_ivp(rhs, (t[0], t[-1]), y0, t_eval=t, method="RK45",
                    rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise NumericError(f"oscillator integration failed: {sol.message}")
    eps = sol.y[0] + 1j * sol.y[1]
    deps = sol.y[2] + 1j * sol.y[3]
    drift = float(np.max(np.abs(np.conj(eps) * deps - eps * np.conj(deps) - 2j)))
    if not drift <= WRONSKIAN_TOL:  # a NaN drift fails too
        raise NumericError(
            f"step-size failure: Wronskian drift {drift:.3e} exceeds "
            f"{WRONSKIAN_TOL:.1e}"
        )
    return EpsilonTrajectory(t, eps, deps, drift)


def uv_trajectory(traj, omega0):
    """Bogoliubov pair along a trajectory:

    u = (sqrt(w0) eps + eps'/(i sqrt(w0)))/2,   v = u - sqrt(w0) eps

    so canonical initial data give u(0) = 1, v(0) = 0, and the Wronskian
    identity keeps |u|^2 - |v|^2 = 1 to the drift tolerance.
    """
    rw = math.sqrt(omega0)
    u = (rw * traj.eps + traj.deps / (1j * rw)) / 2.0
    v = u - rw * traj.eps
    return u, v


def trajectory_table(profile, t_grid):
    """Integrate and tabulate: rows of (t, eps, u, v, dq2, dp2, dpq).

    Only bare-frequency profiles map onto (u, v) literally; a g123 profile
    with (g1, g2) != (1/2, 0) carries its squeezing in a transformed frame
    and is refused here rather than silently mislabeled.
    """
    t = np.asarray(t_grid, dtype=float)
    if not profile.is_frequency_form(t):
        raise InvalidInputError(
            "u/v extraction applies to bare-frequency profiles "
            "(g1 = 1/2, g2 = 0); evolve the generic profile through "
            "classical_flow instead"
        )
    traj = integrate_epsilon(profile, t)
    u, v = uv_trajectory(traj, profile.omega0)
    from .moments import uv_moments

    rows = []
    for i in range(t.size):
        dq2, dp2, dpq = uv_moments(u[i], v[i])
        rows.append((t[i], traj.eps[i], u[i], v[i], dq2, dp2, dpq))
    return traj, u, v, rows


def unwound_angle(value, hint=None):
    """arg(value), shifted by whole turns to land nearest ``hint``."""
    theta = cmath.phase(value)
    if hint is not None:
        theta += 2.0 * math.pi * round((hint - theta) / (2.0 * math.pi))
    return theta


def wavefunction(alpha, sq, x_grid, uv_arg_hint=None):
    """Position-space Gaussian of the u a + v a^dag eigenstate:

    Psi(x) = pi^(-1/4) (u-v)^(-1/2)
             exp[-(1/2)((u+v)/(u-v))(x - sqrt(2) alpha/(u+v))^2]
             exp[(1/2)((u*+v*)/(u+v)) alpha^2 - |alpha|^2/2]

    normalized for every alpha on the shell |u|^2 - |v|^2 = 1.  The square
    root of u - v takes the principal branch unless ``uv_arg_hint`` carries
    the previous arg(u - v) along a trajectory, which keeps the global
    phase continuous through branch crossings.
    """
    alpha = complex(alpha)
    u0, v0 = complex(sq.u), complex(sq.v)
    if abs(u0 - v0) <= 1e-12 * max(abs(u0), abs(v0), 1.0):
        raise DegenerateParameterError(
            "u = v is the infinitely squeezed limit; no normalizable Gaussian"
        )
    nsq = sq.normalized()
    u, v = nsq.u, nsq.v
    x = np.asarray(x_grid, dtype=float)
    d0 = u - v
    s = u + v
    theta = unwound_angle(d0, uv_arg_hint)
    root_inv = abs(d0) ** -0.5 * cmath.exp(-0.5j * theta)
    lam = s / d0
    x0 = math.sqrt(2.0) * alpha / s
    const = cmath.exp(0.5 * (np.conj(s) / s) * alpha * alpha
                      - 0.5 * abs(alpha) ** 2)
    return (math.pi ** -0.25) * root_inv * const * np.exp(-0.5 * lam * (x - x0) ** 2)


# ---------------------------------------------------------------------------
# classical Hamilton flow for the means and the squeeze pair
# ---------------------------------------------------------------------------

@dataclass
class ClassicalPhasePoint:
    """Means (<p>, <q>) and the canonical squeeze pair (p~, q~) = (Dpq/Dq, Dq)."""

    p_mean: float
    q_mean: float
    p_tilde: float
    q_tilde: float

    def __post_init__(self):
        if not self.q_tilde > 0.0:
            raise InvalidInputError(f"q~ must be positive, got {self.q_tilde}")


@dataclass
class ClassicalTrajectory:
    t: np.ndarray
    p_mean: np.ndarray
    q_mean: np.ndarray
    p_tilde: np.ndarray
    q_tilde: np.ndarray
    energy: np.ndarray


def _hamiltonian_value(profile, t, p, q, pt, qt):
    g1, g2, g3 = profile.g_values(t)
    w0 = profile.omega0
    return w0 * (g1 * (p * p + pt * pt + 1.0 / (4.0 * qt * qt))
                 + 2.0 * g2 * (p * q + pt * qt)
                 + g3 * (q * q + qt * qt))


def classical_flow(profile, init, t_grid):
    """Hamilton flow of the expectation Hamiltonian

    H = w0 [g1 (p^2 + p~^2 + 1/(4 q~^2)) + 2 g2 (pq + p~q~) + g3 (q^2 + q~^2)]

    driving both canonical pairs; the 1/(4 q~^2) centrifugal term keeps
    q~ = Dq strictly positive along any quadratic profile.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0.0):
        raise InvalidInputError("time grid must be 1-d, increasing, length >= 2")

    def rhs(tt, y):
        p, q, pt, qt = y
        g1, g2, g3 = profile.g_values(tt)
        w0 = profile.omega0
        return [
            -w0 * (2.0 * g2 * p + 2.0 * g3 * q),
            w0 * (2.0 * g1 * p + 2.0 * g2 * q),
            -w0 * (2.0 * g2 * pt + 2.0 * g3 * qt - g1 / (2.0 * qt ** 3)),
            w0 * (2.0 * g1 * pt + 2.0 * g2 * qt),
        ]

    from scipy.integrate import solve_ivp

    y0 = [init.p_mean, init.q_mean, init.p_tilde, init.q_tilde]
    sol = solve_ivp(rhs, (t[0], t[-1]), y0, t_eval=t, method="RK45",
                    rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise NumericError(f"classical flow integration failed: {sol.message}")
    p, q, pt, qt = sol.y
    if np.min(qt) < 1e-6:
        raise NumericError(
            f"squeezing collapse: q~ reached {np.min(qt):.3e} during the flow"
        )
    energy = np.array([
        _hamiltonian_value(profile, t[i], p[i], q[i], pt[i], qt[i])
        for i in range(t.size)
    ])
    return ClassicalTrajectory(t, p, q, pt, qt, energy)


# ---------------------------------------------------------------------------
# grid synthesis and Gaussian-form diagnostics
# ---------------------------------------------------------------------------

def fock_to_grid(state, x_grid):
    """Evaluate a Fock-basis state on a position grid through the stable
    oscillator-eigenfunction recurrence

    phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1}.
    """
    if not isinstance(state, StateVector) or state.basis.kind != "fock":
        raise InvalidInputError("fock_to_grid needs a pure state on a Fock basis")
    x = np.asarray(x_grid, dtype=float)
    amp = state.amplitudes
    phi_prev = np.zeros_like(x)
    phi = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    total = amp[0] * phi.astype(complex)
    for n in range(1, amp.size):
        phi_next = (math.sqrt(2.0 / n) * x * phi
                    - math.sqrt((n - 1.0) / n) * phi_prev)
        phi_prev, phi = phi, phi_next
        if amp[n] != 0.0:
            total += amp[n] * phi
    return total


def quadratic_logfit_residual(values, x_grid, rel_cut=1e-6):
    """Weighted rms misfit of log Psi against a quadratic in x.

    Gaussians of the squeezed family fit exactly (residual at solver noise);
    any departure from the family shows up as a residual far above 1e-6.
    Only points with |Psi| above ``rel_cut`` of the peak enter the fit, and
    the phase is unwrapped along the grid before fitting.
    """
    psi = np.asarray(values, dtype=complex)
    x = np.asarray(x_grid, dtype=float)
    if psi.shape != x.shape or psi.ndim != 1:
        raise InvalidInputError("values and x_grid must be matching 1-d arrays")
    mag = np.abs(psi)
    peak = mag.max()
    if peak == 0.0:
        raise InvalidInputError("cannot fit the zero function")
    keep = mag > rel_cut * peak
    if np.count_nonzero(keep) < 8:
        raise InvalidInputError("too few significant samples for a quadratic fit")
    xs = x[keep]
    logs = np.log(mag[keep]) + 1j * np.unwrap(np.angle(psi[keep]))
    w = mag[keep] ** 2
    design = np.stack([np.ones_like(xs), xs, xs * xs], axis=1)
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], logs * sw, rcond=None)
    misfit = design @ coef - logs
    return float(np.sqrt(np.sum(w * np.abs(misfit) ** 2) / np.sum(w)))
