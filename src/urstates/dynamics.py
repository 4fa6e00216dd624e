"""Nonstationary-oscillator evolution through the classical amplitude eps(t).

The quantum side never touches a PDE: for quadratic Hamiltonians the whole
time dependence of the squeezed family rides in the Bogoliubov pair
(u(t), v(t)), which follows from one complex solution of

    eps'' + Omega^2(t) eps = 0,   Wronskian conj(eps) eps' - eps conj(eps') = 2i

with Omega^2 the effective frequency of the general quadratic profile
H = omega0 [g1 p^2 + g2 (pq + qp) + g3 q^2], with central differences for
the derivatives of g1 and g2, from the canonical initial data
eps(t0) = 1/sqrt(omega0), eps'(t0) = i sqrt(omega0).  An arithmetic
failure on the way raises NumericError.  The classical Hamilton flow
for (<p>, <q>) and the squeeze pair (p~, q~) = (Dpq/Dq, Dq) provides an
independent integration route used for cross-checks.
"""

import math

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError, SingularProfileError

__all__ = [
    "OscillatorProfile",
    "EpsilonTrajectory",
    "ClassicalPhasePoint",
    "ClassicalTrajectory",
    "effective_frequency",
    "integrate_epsilon",
    "uv_trajectory",
    "trajectory_table",
    "TABLE_HEADER",
    "classical_flow",
]

#: central-difference step of the derivatives of g1 and g2
DIFF_STEP = 1e-5

#: maximum tolerated Wronskian drift over an integration window
WRONSKIAN_TOL = 1e-8

#: right-hand-side evaluations one integration may spend; criterion 8 takes
#: about 6k (eps) and 10k (classical flow), omega = 20 over [0, 10] about 61k
MAX_RHS_EVALS = 1_000_000


def _as_callable(f):
    if callable(f):
        return f
    val = float(f)
    if not math.isfinite(val):
        raise InvalidInputError(f"profile constant must be finite, got {val}")
    return lambda t: val


@dataclass
class OscillatorProfile:
    """Time-dependent quadratic oscillator: coefficient functions g1, g2, g3
    with scale omega0.  ``kind`` is "omega" for a bare-frequency oscillator,
    (g1, g2) = (1/2, 0) by construction, and "g123" otherwise."""

    kind: str
    omega0: float
    g1: object
    g2: object
    g3: object

    @classmethod
    def from_omega(cls, omega, omega0=None):
        """A bare-frequency profile; omega(0) is read only as the default
        omega0, so a window away from t = 0 never needs it."""
        om = _as_callable(omega)
        omega0 = float(om(0.0) if omega0 is None else omega0)
        if not 0.0 < omega0 < math.inf:
            raise InvalidInputError(
                f"frequency profile needs a finite omega0 > 0 (omega(0) when omega0 "
                f"is not given), got {omega0}"
            )
        g3 = lambda t, _om=om, _w0=omega0: _om(t) ** 2 / (2.0 * _w0 * _w0)
        return cls(kind="omega", omega0=omega0, g1=lambda t: 0.5, g2=lambda t: 0.0, g3=g3)

    @classmethod
    def from_g123(cls, g1, g2, g3, omega0):
        """A g123 profile; g1 and g2 given as the numbers 1/2 and 0 make it
        a bare-frequency one (kind "omega")."""
        omega0 = float(omega0)
        if not 0.0 < omega0 < math.inf:
            raise InvalidInputError(f"omega0 must be positive and finite, got {omega0}")
        bare = not (callable(g1) or callable(g2)) and (float(g1), float(g2)) == (0.5, 0.0)
        return cls(kind="omega" if bare else "g123", omega0=omega0,
                   g1=_as_callable(g1), g2=_as_callable(g2), g3=_as_callable(g3))

    def g_values(self, t):
        return self.g1(t), self.g2(t), self.g3(t)


def _d1(f, t):
    return (f(t + DIFF_STEP) - f(t - DIFF_STEP)) / (2.0 * DIFF_STEP)


def _d2(f, t):
    return (f(t + DIFF_STEP) - 2.0 * f(t) + f(t - DIFF_STEP)) / DIFF_STEP ** 2


def effective_frequency(profile, t):
    """Omega^2(t) of the equivalent bare oscillator:

    Omega^2 = 4 w0^2 g1 g3 + 2 w0 g2 g1'/g1 + g1''/(2 g1) - 3 g1'^2/(4 g1^2)
              - 4 w0^2 g2^2 - 2 w0 g2'

    The derivatives of g1 and g2 are central differences with step
    DIFF_STEP = 1e-5, exactly 0 for constant g1 and g2.
    """
    g1 = profile.g1(t)
    if abs(g1) < 1e-12:
        raise SingularProfileError(f"g1({t}) = {g1}: effective frequency undefined")
    g2 = profile.g2(t)
    g3 = profile.g3(t)
    dg1 = _d1(profile.g1, t)
    ddg1 = _d2(profile.g1, t)
    dg2 = _d1(profile.g2, t)
    w0 = profile.omega0
    return (4.0 * w0 * w0 * g1 * g3
            + 2.0 * w0 * g2 * dg1 / g1
            + ddg1 / (2.0 * g1)
            - 3.0 * dg1 * dg1 / (4.0 * g1 * g1)
            - 4.0 * w0 * w0 * g2 * g2
            - 2.0 * w0 * dg2)


def _integrate(rhs, t_grid, y0, what):
    """Adaptive RK45 solution of y' = rhs(t, y) from y0, sampled on an
    increasing time grid; returns (t, y) with y shaped (len(y0), len(t)).

    More than MAX_RHS_EVALS right-hand-side calls, a right-hand side that is
    not finite or raises an ArithmeticError, or an overflow raise
    NumericError, so no integration can run forever.
    """
    t = np.asarray(t_grid, dtype=float)
    if (t.ndim != 1 or t.size < 2 or not np.all(np.isfinite(t))
            or np.any(np.diff(t) <= 0.0)):
        raise InvalidInputError("time grid must be 1-d, finite, increasing, length >= 2")
    calls = 0

    def counted(tt, y):
        nonlocal calls
        calls += 1
        if calls > MAX_RHS_EVALS:
            raise NumericError(
                f"{what} integration stopped at t = {tt:.6g} after "
                f"{MAX_RHS_EVALS} right-hand-side evaluations"
            )
        try:
            dy = rhs(tt, y)
        except ArithmeticError as exc:
            raise NumericError(f"{what} right-hand side fails at t = {tt:.6g}: {exc}") from exc
        if not all(map(math.isfinite, dy)):
            raise NumericError(f"{what} right-hand side is not finite at t = {tt:.6g}")
        return dy

    # scipy.integrate loads scipy.optimize with it, together slower to import
    # than the rest of the package: only the calls that integrate pay for it
    from scipy.integrate import solve_ivp

    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = solve_ivp(counted, (t[0], t[-1]), y0, t_eval=t, method="RK45",
                            rtol=1e-11, atol=1e-13)
    except FloatingPointError as exc:
        raise NumericError(f"{what} integration overflowed: {exc}") from exc
    if not sol.success:
        raise NumericError(f"{what} integration failed: {sol.message}")
    return t, sol.y


@dataclass
class EpsilonTrajectory:
    """Samples of the classical amplitude and its derivative, with the
    recorded worst-case Wronskian drift."""

    t: np.ndarray
    eps: np.ndarray
    deps: np.ndarray
    wronskian_drift: float


def integrate_epsilon(profile, t_grid):
    """Integrate eps'' + Omega^2(t) eps = 0 over an increasing time grid
    from the canonical initial data eps(t0) = 1/sqrt(omega0),
    eps'(t0) = i sqrt(omega0), which carry Wronskian 2i.  Adaptive
    4th/5th-order integration; a Wronskian drift beyond 1e-8 over the
    window raises a step-size failure.
    """
    rw = math.sqrt(profile.omega0)

    def rhs(tt, y):
        om2 = effective_frequency(profile, tt)
        return [y[2], y[3], -om2 * y[0], -om2 * y[1]]

    # (Re eps, Im eps, Re eps', Im eps') at t0
    t, y = _integrate(rhs, t_grid, [1.0 / rw, 0.0, 0.0, rw], "oscillator")
    eps = y[0] + 1j * y[1]
    deps = y[2] + 1j * y[3]
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


#: the columns of a `trajectory_table` row, the header of an ``evolve`` table
TABLE_HEADER = ("t", "re_eps", "im_eps", "re_u", "im_u", "re_v", "im_v",
                "dq2", "dp2", "dpq")


def trajectory_table(profile, t_grid):
    """Integrate and tabulate: (traj, u, v, rows), one row of TABLE_HEADER
    cells per grid time, each a Python float, so the rows are the ``evolve``
    table as written.  The moments are those of (u, v) on its shell, in
    closed form in eps: with s = Im(conj(eps) eps') = |u|^2 - |v|^2, which
    the Wronskian gate holds to 1 +- drift/2, dq^2 = w0 |eps|^2 / (2s),
    dp^2 = |eps'|^2 / (2 w0 s) and dpq = Re(conj(eps) eps') / (2s).  A cell
    that is not finite raises NumericError naming its t.

    Only bare-frequency profiles (kind "omega") map onto (u, v) literally;
    any other g123 profile carries its squeezing in a transformed frame and
    is refused here rather than silently mislabeled.
    """
    if profile.kind != "omega":
        raise InvalidInputError(
            "u/v extraction applies to bare-frequency profiles "
            "(g1 = 1/2, g2 = 0); evolve the generic profile through "
            "classical_flow instead"
        )
    traj = integrate_epsilon(profile, t_grid)
    eps, deps, w0 = traj.eps, traj.deps, profile.omega0
    with np.errstate(all="ignore"):  # an overflow leaves an inf, refused below
        u, v = uv_trajectory(traj, w0)
        cross = np.conj(eps) * deps
        table = np.column_stack((traj.t, eps.real, eps.imag, u.real, u.imag, v.real, v.imag,
                                 w0 * np.abs(eps) ** 2, np.abs(deps) ** 2 / w0, cross.real))
        table[:, 7:] /= 2.0 * cross.imag[:, None]
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise NumericError(f"evolve table is not finite at t = {traj.t[bad.argmax()]:.6g}")
    return traj, u, v, table.tolist()


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

    t, (p, q, pt, qt) = _integrate(
        rhs, t_grid, [init.p_mean, init.q_mean, init.p_tilde, init.q_tilde],
        "classical flow")
    if np.min(qt) < 1e-6:
        raise NumericError(
            f"squeezing collapse: q~ reached {np.min(qt):.3e} during the flow"
        )
    energy = np.array([
        _hamiltonian_value(profile, t[i], p[i], q[i], pt[i], qt[i])
        for i in range(t.size)
    ])
    return ClassicalTrajectory(t, p, q, pt, qt, energy)
