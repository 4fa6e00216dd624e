"""Nonstationary-oscillator evolution through the classical amplitude eps(t).

The quantum side never touches a PDE: for quadratic Hamiltonians the whole
time dependence of the squeezed family rides in the Bogoliubov pair
(u(t), v(t)), which follows from one complex solution of

    eps'' + Omega^2(t) eps = 0,   Wronskian conj(eps) eps' - eps conj(eps') = 2i

from the canonical initial data eps(t0) = 1/sqrt(omega0),
eps'(t0) = i sqrt(omega0).  A profile is that pair (omega0, Omega^2(t)) and
nothing more.  An arithmetic failure on the way raises NumericError.  The
classical Hamilton flow for (<p>, <q>) and the squeeze pair
(p~, q~) = (Dpq/Dq, Dq) provides an independent integration route used for
cross-checks.
"""

import math

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError

__all__ = [
    "OscillatorProfile",
    "EpsilonTrajectory",
    "ClassicalPhasePoint",
    "ClassicalTrajectory",
    "integrate_epsilon",
    "uv_trajectory",
    "trajectory_table",
    "TABLE_HEADER",
    "classical_flow",
]

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
    """A bare oscillator: the scale omega0 of the canonical initial data and
    the squared frequency Omega^2(t), a function of t."""

    omega0: float
    omega_sq: object

    @classmethod
    def from_omega(cls, omega, omega0=None):
        """Omega^2 = omega(t)^2; omega(0) is read only as the default
        omega0, so a window away from t = 0 never needs it."""
        om = _as_callable(omega)
        omega0 = float(om(0.0) if omega0 is None else omega0)
        if not 0.0 < omega0 < math.inf:
            raise InvalidInputError(
                f"frequency profile needs a finite omega0 > 0 (omega(0) when omega0 "
                f"is not given), got {omega0}"
            )
        return cls(omega0, lambda t: om(t) ** 2)

    @classmethod
    def from_g123(cls, g1, g2, g3, omega0):
        """H = omega0 [g1 p^2 + g2 (pq + qp) + g3 q^2] with g1 and g2 given as
        the numbers 1/2 and 0, so that Omega^2 = 2 omega0^2 g3(t); any other
        g1 or g2 carries its squeezing in a transformed frame and is refused."""
        omega0 = float(omega0)
        if not 0.0 < omega0 < math.inf:
            raise InvalidInputError(f"omega0 must be positive and finite, got {omega0}")
        if callable(g1) or callable(g2) or (float(g1), float(g2)) != (0.5, 0.0):
            raise InvalidInputError("a g123 profile needs g1 and g2 given as the "
                                    "numbers 1/2 and 0")
        g3 = _as_callable(g3)
        return cls(omega0, lambda t: 2.0 * omega0 * omega0 * g3(t))


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
        om2 = profile.omega_sq(tt)
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
    """
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


def classical_flow(profile, init, t_grid):
    """Hamilton flow of the expectation Hamiltonian

    H = (w0/2) (p^2 + p~^2 + 1/(4 q~^2)) + (Omega^2/(2 w0)) (q^2 + q~^2)

    driving both canonical pairs; the 1/(4 q~^2) centrifugal term keeps
    q~ = Dq strictly positive.
    """
    w0 = profile.omega0

    def rhs(tt, y):
        p, q, pt, qt = y
        k = profile.omega_sq(tt) / w0
        return [-k * q, w0 * p, w0 / (4.0 * qt ** 3) - k * qt, w0 * pt]

    t, (p, q, pt, qt) = _integrate(
        rhs, t_grid, [init.p_mean, init.q_mean, init.p_tilde, init.q_tilde],
        "classical flow")
    if np.min(qt) < 1e-6:
        raise NumericError(
            f"squeezing collapse: q~ reached {np.min(qt):.3e} during the flow"
        )
    om2 = np.fromiter(map(profile.omega_sq, t), float, t.size)
    energy = (w0 / 2.0 * (p * p + pt * pt + 0.25 / (qt * qt))
              + om2 / (2.0 * w0) * (q * q + qt * qt))
    return ClassicalTrajectory(t, p, q, pt, qt, energy)
