"""Acceptance suite: twelve numbered criteria, each a self-contained check
with stated tolerances and a runtime budget.  `run()` executes any subset
and reports one record per criterion; the CLI `selftest` verb and the test
suite both drive this module, so the pass/fail verdicts printed in either
place come from the same code path.

Every randomized sweep uses a locally seeded generator, so reruns are
bit-reproducible.
"""

import cmath
import math
import os
import time

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import InvalidInputError, NormalizabilityError
from .hilbert import StateVector, basis_state, boson_ladder, fock_basis, su11_rep
from .matrixkit import _small_char_coeffs, char_coeffs, principal_minor_sum
from .metrics import g_overlap, number_plus_one
from .moments import moment_report, observable_set, uv_moments
from .states import (
    bg_cs,
    canonical_ss,
    even_odd_cs,
    glauber,
    su2_cs,
    su11_cs,
    su11_intelligent,
    su11_intelligent_spectrum,
)
from .dynamics import (
    ClassicalPhasePoint,
    OscillatorProfile,
    classical_flow,
    integrate_epsilon,
    uv_trajectory,
)
from .urcheck import _ur_from_moments, char_ur_report, complementary, \
    one_observable_two_state, two_state_schrodinger

__all__ = ["CriterionResult", "run", "CRITERIA", "SUITES", "rows"]


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} criterion {self.number:2d} [{self.seconds:6.2f}s] "
                f"{self.title}: {self.detail}")


def _phases(count):
    return [cmath.exp(2j * math.pi * m / count) for m in range(count)]


def _random_state(rng, basis):
    amp = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    amp /= np.linalg.norm(amp)
    return StateVector(amp, basis, family="random")


# -- scan suites ------------------------------------------------------------
#
# A suite is a parameter grid, a row function and the CSV header of its
# rows.  `urstates scan` writes the rows; criteria 1, 2, 3 and 12 reduce the
# rows of one suite each.  Row functions take (seed, index, point) so that a
# process pool can compute any row on its own.

@lru_cache(maxsize=16)
def _obs_cached(name, N):
    return observable_set(name, N=N)


def _grid_squeeze_shell():
    """20x20 squeeze grid, r in [0, 1.2], |alpha| <= 2, certified at N=192.

    N=192 rather than a tighter cutoff because the grid edge r=1.2 stores
    real amplitude mass near level 128 — even the squeezed vacuum there has
    a truncation defect of ~1e-8 on 128 levels, an order above the
    tolerance, for every eigenvalue.  The eigenvalue magnitude sweeps
    [0, 2] decoupled from the squeeze radius, and its phase tracks half the
    squeeze angle with a bounded stagger; that keeps the physical
    displacement below ~1.9, while an anti-aligned eigenvalue at r=1.2
    (displacement |alpha| e^r) would need N ~ 300 and is exercised in the
    unit tests instead.
    """
    points = []
    rs = np.linspace(0.0, 1.2, 20)
    for i, r in enumerate(rs):
        for m in range(20):
            theta = 2.0 * math.pi * m / 20.0
            amag = 2.0 * ((i + m) % 20) / 19.0
            phi = theta / 2.0 + (i / 19.0 - 0.5) * (math.pi / 6.0)
            points.append((float(r), theta, amag, phi))
    return points


def _row_squeeze_shell(seed, index, point):
    r, theta, amag, phi = point
    u = math.cosh(r)
    v = math.sinh(r) * cmath.exp(1j * theta)
    alpha = amag * cmath.exp(1j * phi)
    st = canonical_ss(alpha, u, v, N=192)
    obs = _obs_cached("canonical", 192)
    rep = moment_report(obs, st)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    return [index, r, theta, alpha.real, alpha.imag,
            rep.sigma[0, 0], rep.sigma[1, 1], rep.sigma[0, 1],
            ur.pair_gaps[(0, 1)].schr_gap, st.tail_mass]


def _grid_su11_cs():
    points = []
    for k in (0.5, 1.0, 2.0):
        for rad in (0.3, 0.6, 0.9):
            for m in range(8):
                points.append((k, rad, 2.0 * math.pi * m / 8.0))
    return points


def _row_su11_cs(seed, index, point):
    k, rad, phase = point
    xi = rad * cmath.exp(1j * phase)
    st = su11_cs(xi, k)
    obs = _obs_cached(f"su11:{k:g}", st.basis.N)
    rep = moment_report(obs, st)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    return [index, k, xi.real, xi.imag,
            ur.pair_gaps[(0, 1)].schr_gap,
            ur.pair_gaps[(0, 2)].schr_gap,
            ur.pair_gaps[(1, 2)].schr_gap,
            ur.order_gaps[2].gap, ur.order_gaps[3].gap,
            rep.sigma[0, 0]]


def _grid_bg_cs():
    points = []
    for k in (0.25, 0.5, 1.0, 2.0):
        for rad in (0.75, 1.5, 2.25, 3.0):
            for m in range(4):
                points.append((k, rad, 2.0 * math.pi * m / 4.0))
    return points


def _row_bg_cs(seed, index, point):
    k, rad, phase = point
    z = rad * cmath.exp(1j * phase)
    st = bg_cs(z, k, N=96)
    obs = _obs_cached(f"su11:{k:g}", 96)
    km = su11_rep(k, 96)["kminus"]
    residual = float(np.linalg.norm(km.apply(st.amplitudes) - z * st.amplitudes))
    rep = moment_report(obs, st)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    return [index, k, z.real, z.imag, residual,
            rep.sigma[0, 0] - rep.sigma[1, 1],
            ur.pair_gaps[(0, 1)].sum_gap, st.tail_mass]


def _grid_even_odd():
    points = []
    for parity in ("even", "odd"):
        for rad in (0.5, 1.0, 1.5, 2.0):
            for m in range(4):
                points.append((parity, rad, 2.0 * math.pi * m / 4.0))
    return points


def _a2_residual(obs, psi, alpha):
    """|a^2 psi - alpha^2 psi| through the two a^2 quadratures in ``obs``."""
    re_a2, im_a2 = obs.images(psi)
    return float(np.linalg.norm(re_a2 + 1j * im_a2 - alpha * alpha * psi))


def _row_even_odd(seed, index, point):
    parity, rad, phase = point
    alpha = rad * cmath.exp(1j * phase)
    st = even_odd_cs(alpha, parity, N=128)
    obs = _obs_cached("a2-quadratures", 128)
    residual = _a2_residual(obs, st.amplitudes, alpha)
    rep = moment_report(obs, st)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    return [index, parity, alpha.real, alpha.imag, residual,
            rep.sigma[0, 1], ur.pair_gaps[(0, 1)].schr_gap]


_PSD_FAMILIES = (("canonical", 32), ("su11:0.5", 24),
                 ("su2:1", None), ("a2-quadratures", 24))


def _grid_random_psd():
    return [(name, trial) for name, _N in _PSD_FAMILIES for trial in range(50)]


def _row_random_psd(seed, index, point):
    name, trial = point
    obs = _obs_cached(name, dict(_PSD_FAMILIES)[name])
    st = _random_state(np.random.default_rng((seed, index)), obs.basis)
    rep = moment_report(obs, st, max_tail=None)
    return [index, name, trial, rep.sigma_min_eig, rep.robertson_min_eig]


#: suite name -> (grid, row function, CSV header)
SUITES = {
    "squeeze-shell": (_grid_squeeze_shell, _row_squeeze_shell,
                      ["index", "r", "theta", "re_alpha", "im_alpha",
                       "dq2", "dp2", "dpq", "schr_gap", "tail_mass"]),
    "su11-cs": (_grid_su11_cs, _row_su11_cs,
                ["index", "k", "re_xi", "im_xi", "schr_01", "schr_02",
                 "schr_12", "char2_gap", "char3_gap", "dk1_sq"]),
    "bg-cs": (_grid_bg_cs, _row_bg_cs,
              ["index", "k", "re_z", "im_z", "kminus_residual",
               "variance_anisotropy", "sum_gap", "tail_mass"]),
    "even-odd": (_grid_even_odd, _row_even_odd,
                 ["index", "parity", "re_alpha", "im_alpha", "a2_residual",
                  "covariance", "schr_gap"]),
    "random-psd": (_grid_random_psd, _row_random_psd,
                   ["index", "family", "trial", "sigma_min_eig",
                    "robertson_min_eig"]),
}


def _scan_worker(task):
    suite, seed, index, point = task
    return SUITES[suite][1](seed, index, point)


def rows(suite, seed=42, jobs=1):
    """The rows of a scan suite in grid order.

    ``seed`` (non-negative) seeds the random rows, one generator per row
    index, so ``jobs`` > 1 — computed in a process pool of at most
    ``os.cpu_count()`` workers — yields the same rows as a serial run.
    """
    if suite not in SUITES:
        raise InvalidInputError(f"no scan suite named {suite!r}")
    if seed < 0:
        raise InvalidInputError(f"scan seed must be non-negative, got {seed}")
    tasks = [(suite, seed, index, point)
             for index, point in enumerate(SUITES[suite][0]())]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return [_scan_worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_scan_worker, tasks, chunksize=8))


def _columns(suite):
    """The rows of a suite at the default seed, as arrays keyed by header."""
    table = rows(suite)
    return {name: np.array([row[i] for row in table])
            for i, name in enumerate(SUITES[suite][2])}


# -- 1 ----------------------------------------------------------------------

def criterion_1():
    """Schrodinger saturation over the squeeze-shell suite."""
    worst = np.max(np.abs(_columns("squeeze-shell")["schr_gap"]))
    return worst <= 1e-9, f"max |dq2*dp2 - dpq^2 - 1/4| = {worst:.3e} (tol 1e-09)"


# -- 2 ----------------------------------------------------------------------

def criterion_2():
    """Barut-Girardello states: K- residual, dK1 = dK2, sum-UR saturation."""
    col = _columns("bg-cs")
    worst_res = np.max(col["kminus_residual"])
    worst_aniso = np.max(np.abs(col["variance_anisotropy"]))
    worst_sum = np.max(np.abs(col["sum_gap"]))
    ok = worst_res <= 1e-8 and worst_aniso <= 1e-10 and worst_sum <= 1e-9
    return ok, (f"K- residual {worst_res:.3e} (1e-08), |dK1^2-dK2^2| "
                f"{worst_aniso:.3e} (1e-10), sum gap {worst_sum:.3e} (1e-09)")


# -- 3 ----------------------------------------------------------------------

def criterion_3():
    """SU(1,1) CS: pairwise Schrodinger + r=2,3 characteristic saturation."""
    col = _columns("su11-cs")
    worst_pair = max(np.max(np.abs(col[c])) for c in ("schr_01", "schr_02", "schr_12"))
    worst_order = max(np.max(np.abs(col[c])) for c in ("char2_gap", "char3_gap"))
    min_var_margin = np.min(col["dk1_sq"] - col["k"] / 2.0)
    ok = (worst_pair <= 1e-9 and worst_order <= 1e-9
          and min_var_margin >= -1e-10)
    return ok, (f"pair schr {worst_pair:.3e} (1e-09), char r=2,3 "
                f"{worst_order:.3e} (1e-09), min dK1^2 - k/2 = "
                f"{min_var_margin:.3e} (>= -1e-10)")


# -- 4 ----------------------------------------------------------------------

def criterion_4():
    """Hermitian-family intelligent states; CS reduction; violating sets raise."""
    sets = []
    for k, mag, phase, ratio, n0 in (
        (0.5, 0.30, 0.0, 1.25, 0), (0.5, 0.30, 1.1, 1.25, 1),
        (0.5, 0.60, 0.7, 2.00, 2), (0.5, 0.45, 2.2, 1.50, 0),
        (1.0, 0.30, 0.0, 1.25, 1), (1.0, 0.60, 1.9, 2.00, 0),
        (1.0, 0.45, 0.3, 1.50, 3), (2.0, 0.30, 0.9, 2.00, 2),
        (2.0, 0.50, 2.8, 1.25, 0), (1.5, 0.40, 1.4, 1.75, 1),
    ):
        u = mag * cmath.exp(1j * phase)
        w = 2.0 * mag * ratio
        sets.append((u, np.conj(u), w, k, n0))

    def residual(st, u, v, w, z, k):
        # ||(u K- + v K+ + w K3 - z) psi|| from the generator bands
        rep = su11_rep(k, st.basis.N)
        psi = st.amplitudes
        Mpsi = (u * rep["kminus"].apply(psi) + v * rep["kplus"].apply(psi)
                + w * rep["k3"].apply(psi))
        return float(np.linalg.norm(Mpsi - z * psi))

    worst_res = worst_det = 0.0
    for u, v, w, k, n0 in sets:
        z = su11_intelligent_spectrum(u, v, w, k, count=n0 + 1)[n0]
        st = su11_intelligent(u, v, w, z, k)
        ur = char_ur_report(observable_set(f"su11:{k!r}", N=st.basis.N), st)
        worst_res = max(worst_res, residual(st, u, v, w, z, k))
        worst_det = max(worst_det, abs(ur.order_gaps[3].c_sigma))

    # degenerate (l = 0) sets collapse onto the coherent ray
    worst_overlap = 1.0
    for k, r0, theta in ((0.5, 0.3, 0.4), (1.0, 0.7, 2.1)):
        u = math.cosh(r0) ** 2
        v = math.sinh(r0) ** 2 * cmath.exp(2j * theta)
        w = math.sinh(2.0 * r0) * cmath.exp(1j * theta)
        st = su11_intelligent(u, v, w, 0.0, k)
        worst_res = max(worst_res, residual(st, u, v, w, 0.0, k))
        xi = -math.tanh(r0) * cmath.exp(1j * theta)
        ref = su11_cs(xi, k, N=st.basis.N)
        worst_overlap = min(worst_overlap,
                            abs(np.vdot(ref.amplitudes, st.amplitudes)))

    raised = 0
    for bad in ((0.5, 0.5, 0.8, 0.0, 0.5),      # w^2 < 4|u|^2: roots on the circle
                (1.0, 1.0, 2.0, 0.0, 0.5)):     # l = 0 with |xi| = 1
        try:
            su11_intelligent(*bad)
        except NormalizabilityError:
            raised += 1
    try:
        su11_intelligent_spectrum(0.5, 0.5, 0.6, 0.5)
    except NormalizabilityError:
        raised += 1

    ok = (worst_res <= 1e-8 and worst_det <= 1e-9
          and worst_overlap >= 1.0 - 1e-8 and raised == 3)
    return ok, (f"residual {worst_res:.3e} (1e-08), det sigma {worst_det:.3e} "
                f"(1e-09), reduction overlap {worst_overlap:.12f} "
                f"(>= 1-1e-08), {raised}/3 invalid sets raised")


# -- 5 ----------------------------------------------------------------------

def criterion_5():
    """char_coeffs, and the closed forms reports use for real n <= 3,
    against brute-force principal-minor sums."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        if trial % 2:
            M = M + 1j * rng.standard_normal((n, n))
        routes = [char_coeffs(M)]
        if n <= 3 and not trial % 2:
            routes.append(_small_char_coeffs(M.tolist()))
        for r in range(n + 1):
            ref = principal_minor_sum(M, r)
            for coeffs in routes:
                err = abs(coeffs[r] - ref) / max(1.0, abs(ref))
                worst = max(worst, err)
    return worst <= 1e-10, f"max relative deviation {worst:.3e} (tol 1e-10)"


# -- 6 ----------------------------------------------------------------------

def criterion_6():
    """sigma and R = sigma + iC are PSD to -1e-10 over random states."""
    rng = np.random.default_rng(42)
    families = [
        observable_set("canonical", N=64),
        observable_set("su11:0.5", N=48),
        observable_set("su2:1"),
        observable_set("a2-quadratures", N=48),
    ]
    worst = 0.0
    for obs in families:
        for _ in range(1000):
            st = _random_state(rng, obs.basis)
            rep = moment_report(obs, st, max_tail=None)
            worst = min(worst, rep.sigma_min_eig, rep.robertson_min_eig)
    return worst >= -1e-10, f"min eigenvalue over 4000 reports {worst:.3e} (>= -1e-10)"


# -- 7 ----------------------------------------------------------------------

def criterion_7():
    """Extended relations: several-state det form and the two-state Schwarz form."""
    rng = np.random.default_rng(42)
    worst18 = math.inf
    for obs in (observable_set("canonical", N=32),
                observable_set("su11:0.5", N=32)):
        for _ in range(10000):
            s1 = _random_state(rng, obs.basis)
            s2 = _random_state(rng, obs.basis)
            ur = char_ur_report(obs, [s1, s2], max_tail=None)
            worst18 = min(worst18, ur.order_gaps[obs.n].gap)

    obs = observable_set("canonical", N=64)
    sat = 0.0
    s1 = canonical_ss(0.3 + 0.2j, math.cosh(0.5), math.sinh(0.5), N=64)
    s2 = canonical_ss(-0.7 + 0.1j, math.cosh(0.5), math.sinh(0.5), N=64)
    sat = max(sat, abs(char_ur_report(obs, [s1, s2]).order_gaps[2].gap))
    g1 = glauber(0.9 - 0.4j, N=64)
    g2 = glauber(-0.2 + 1.1j, N=64)
    sat = max(sat, abs(char_ur_report(obs, [g1, g2]).order_gaps[2].gap))

    obs20 = observable_set("canonical", N=32)
    q = obs20.ops[0]
    worst20 = math.inf
    for _ in range(10000):
        s1 = _random_state(rng, obs20.basis)
        s2 = _random_state(rng, obs20.basis)
        worst20 = min(worst20, one_observable_two_state(q, s1, s2, max_tail=None))

    # documented discrepancy: only the vacuum Fock pair saturates the
    # two-state Schrodinger form for (q, p)
    fb = fock_basis(32)
    qq, pp = obs20.ops[0], obs20.ops[1]
    vac_gap = two_state_schrodinger(qq, pp, basis_state(fb, 0), basis_state(fb, 0))
    fock_gap = two_state_schrodinger(qq, pp, basis_state(fb, 1), basis_state(fb, 2))
    expected = (1.5) * (2.5) - 0.25
    fock_ok = abs(vac_gap) <= 1e-12 and abs(fock_gap - expected) <= 1e-10

    ok = worst18 >= -1e-10 and sat <= 1e-9 and worst20 >= -1e-12 and fock_ok
    return ok, (f"several-state det gap min {worst18:.3e} (>= -1e-10), "
                f"saturation {sat:.3e} (1e-09), Schwarz gap min {worst20:.3e} "
                f"(>= -1e-12), Fock pair (1,2) gap {fock_gap:.6f} "
                f"(vacuum saturates: {abs(vac_gap):.1e})")


# -- 8 ----------------------------------------------------------------------

def criterion_8():
    """Frequency-step dynamics: Wronskian, shell, saturation, classical route."""
    profile = OscillatorProfile.from_omega(2.0, omega0=1.0)
    t = np.linspace(0.0, 10.0, 401)
    traj = integrate_epsilon(profile, t)
    u, v = uv_trajectory(traj, profile.omega0)
    shell = float(np.max(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0)))
    worst_sat = 0.0
    dq = np.empty(t.size)
    dpq = np.empty(t.size)
    for i in range(t.size):
        dq2, dp2, pq = uv_moments(u[i], v[i])
        worst_sat = max(worst_sat, abs(dq2 * dp2 - pq * pq - 0.25))
        dq[i] = math.sqrt(dq2)
        dpq[i] = pq

    init = ClassicalPhasePoint(0.0, 0.0, 0.0, 1.0 / math.sqrt(2.0))
    flow = classical_flow(profile, init, t)
    dev = max(float(np.max(np.abs(flow.q_tilde - dq))),
              float(np.max(np.abs(flow.p_tilde - dpq / dq))))

    ok = (traj.wronskian_drift <= 1e-8 and shell <= 1e-8
          and worst_sat <= 1e-9 and dev <= 1e-6)
    return ok, (f"wronskian drift {traj.wronskian_drift:.3e} (1e-08), shell "
                f"{shell:.3e} (1e-08), saturation {worst_sat:.3e} (1e-09), "
                f"classical-route deviation {dev:.3e} (1e-06)")


# -- 9 ----------------------------------------------------------------------

def criterion_9():
    """Recurrence construction vs the null vector of the dense u a + v a^dag - alpha."""
    rng = np.random.default_rng(42)
    N = 128
    c = boson_ladder(N)
    worst = 1.0
    for _ in range(20):
        r = rng.uniform(0.1, 0.9)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        u = math.cosh(r)
        v = math.sinh(r) * cmath.exp(1j * theta)
        alpha = (rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0))
        st = canonical_ss(alpha, u, v, N=N)
        # the right singular vector of the smallest singular value solves
        # (u a + v a^dag - alpha) psi = 0; a dense eigensolve of this
        # nonnormal truncation would be pseudospectrum-limited
        M = np.diag(u * c, 1) + np.diag(v * c, -1) - alpha * np.eye(N)
        ref = np.linalg.svd(M)[2][-1].conj()
        worst = min(worst, abs(np.vdot(ref, st.amplitudes)) / np.linalg.norm(ref))
    return worst >= 1.0 - 1e-8, f"min overlap {worst:.12f} (>= 1 - 1e-08)"


# -- 10 ---------------------------------------------------------------------

def criterion_10():
    """Distance functional identities and the triangle inequality."""
    rng = np.random.default_rng(42)
    fb = fock_basis(32)
    X = number_plus_one(fb)

    st = glauber(0.7 + 0.2j, N=32)
    d_self = g_overlap(st, st, X)
    self_ok = abs(d_self.g - 1.0) <= 1e-14 and d_self.D_sq <= 1e-13

    s2 = glauber(-0.3 + 0.5j, N=32)
    ident = g_overlap(st, s2)
    ident_ok = abs(ident.g - abs(np.vdot(st.amplitudes, s2.amplitudes))) <= 1e-14

    orth = g_overlap(basis_state(fb, 0), basis_state(fb, 2), X)
    orth_ok = orth.g <= 1e-14 and abs(orth.D_sq - 2.0) <= 1e-13

    sym_ok = True
    tri_ok = True
    for _ in range(200):
        a = _random_state(rng, fb)
        b = _random_state(rng, fb)
        c = _random_state(rng, fb)
        gab = g_overlap(a, b, X, max_tail=None)
        gba = g_overlap(b, a, X, max_tail=None)
        sym_ok = sym_ok and gab.g == gba.g
        dab = math.sqrt(g_overlap(a, b, max_tail=None).D_sq)
        dbc = math.sqrt(g_overlap(b, c, max_tail=None).D_sq)
        dac = math.sqrt(g_overlap(a, c, max_tail=None).D_sq)
        tri_ok = tri_ok and dac <= dab + dbc + 1e-12
    ok = self_ok and ident_ok and orth_ok and sym_ok and tri_ok
    return ok, (f"self g-1={abs(d_self.g - 1.0):.1e}, identity-X dev "
                f"{abs(ident.g - abs(np.vdot(st.amplitudes, s2.amplitudes))):.1e}, "
                f"symmetry exact: {sym_ok}, triangle on 200 triples: {tri_ok}")


# -- 11 ---------------------------------------------------------------------

def _complementary_family(states, obs_for, orders):
    """Scan a family: per order, alpha_r = max C_r(sigma); return worst
    excess of P^2+V^2 over 1 and worst equality defect where saturated.

    Orders whose scan maximum sits at the numerical-noise level of C_r
    (minimizer families drive det sigma to zero family-wide) are skipped:
    the rescaled statement is vacuous there and dividing by a noise-level
    alpha only amplifies rounding.
    """
    reports = []
    for st in states:
        obs = obs_for(st)
        reports.append(char_ur_report(obs, st))
    worst_sum = 0.0
    worst_eq = 0.0
    for r in orders:
        alpha = max(rep.order_gaps[r].c_sigma for rep in reports)
        n = len(reports[0].observables)
        natural = max(comb(n, r) * (rep.order_gaps[1].c_sigma / n) ** r
                      for rep in reports)
        if alpha <= 1e-6 * max(natural, 1e-300):
            continue
        for rep in reports:
            p_sq, v_sq = complementary(rep, r, alpha)
            total = p_sq + v_sq
            worst_sum = max(worst_sum, total - 1.0)
            if rep.order_gaps[r].saturated:
                worst_eq = max(worst_eq, abs(total - 1.0))
    return worst_sum, worst_eq


def criterion_11():
    """Complementary pairs: bounded by one, equal to one where saturated."""
    def su11_obs(st):
        return observable_set(f"su11:{st.basis.k!r}", N=st.basis.N)

    su2_obs_cache = observable_set("su2:0.5")
    worst_sum = 0.0
    worst_eq = 0.0
    for k in (0.5, 1.0):
        states = [su11_cs(rad * ph, k)
                  for rad in (0.0, 0.4, 0.8) for ph in _phases(4)]
        ws, we = _complementary_family(states, su11_obs, orders=(2, 3))
        worst_sum = max(worst_sum, ws)
        worst_eq = max(worst_eq, we)

    spins = [su2_cs(tau, 0.5)
             for tau in (0.0, 0.5, -0.5, 1.0, 2.0, 0.5j, -1.5j, 0.3 + 0.8j)]
    ws, we = _complementary_family(spins, lambda st: su2_obs_cache, orders=(2,))
    worst_sum = max(worst_sum, ws)
    worst_eq = max(worst_eq, we)

    bgs = [bg_cs(z, 0.5, N=96) for z in (0.0, 0.8, 1.6j, -2.4, 1.0 + 1.0j)]
    ws, we = _complementary_family(bgs, su11_obs, orders=(2, 3))
    worst_sum = max(worst_sum, ws)
    worst_eq = max(worst_eq, we)

    ok = worst_sum <= 1e-12 and worst_eq <= 1e-8
    return ok, (f"max P^2+V^2-1 = {worst_sum:.3e} (<= 1e-12), equality "
                f"defect where saturated {worst_eq:.3e} (<= 1e-08)")


# -- 12 ---------------------------------------------------------------------

def criterion_12():
    """Even/odd coherent states: a^2 eigen-residual and exact saturation.

    The grid has no alpha = 0 point (adding one would change the even-odd
    CSV), so a^2 annihilating the even state there is checked on its own.
    """
    col = _columns("even-odd")
    st0 = even_odd_cs(0.0, "even", N=128)
    worst_res = max(np.max(col["a2_residual"]),
                    _a2_residual(_obs_cached("a2-quadratures", 128), st0.amplitudes, 0.0))
    worst_cov = np.max(np.abs(col["covariance"]))
    worst_schr = np.max(np.abs(col["schr_gap"]))
    ok = worst_res <= 1e-10 and worst_cov <= 1e-9 and worst_schr <= 1e-9
    return ok, (f"a^2 residual {worst_res:.3e} (1e-10), covariance "
                f"{worst_cov:.3e} (1e-09), schr gap {worst_schr:.3e} (1e-09)")


CRITERIA = {
    1: ("Schrodinger saturation over the squeeze grid", criterion_1),
    2: ("Barut-Girardello eigenstates and sum-UR saturation", criterion_2),
    3: ("SU(1,1) CS maximal uncertainty optimality", criterion_3),
    4: ("su(1,1) intelligent states and CS reduction", criterion_4),
    5: ("characteristic coefficients vs principal minors", criterion_5),
    6: ("PSD certificates for sigma and sigma + iC", criterion_6),
    7: ("state-extended uncertainty relations", criterion_7),
    8: ("frequency-step oscillator dynamics", criterion_8),
    9: ("recurrence construction vs dense eigensolve", criterion_9),
    10: ("observable-induced distance identities", criterion_10),
    11: ("complementary predictability/visibility pairs", criterion_11),
    12: ("even/odd coherent states", criterion_12),
}


def run(numbers=None):
    """Run the requested criteria (all by default); never raises — a crash
    inside a criterion is reported as a failed record."""
    if numbers is None:
        numbers = sorted(CRITERIA)
    results = []
    for num in numbers:
        if num not in CRITERIA:
            raise InvalidInputError(f"no acceptance criterion number {num}")
        title, fn = CRITERIA[num]
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - verdicts must not abort the suite
            passed, detail = False, f"crashed: {type(exc).__name__}: {exc}"
        results.append(CriterionResult(num, title, bool(passed), detail,
                                       time.perf_counter() - start))
    return results
