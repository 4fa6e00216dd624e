"""Constructors for the coherent / squeezed / intelligent state families.

Amplitudes come from closed-form step ratios, or from the family's own
eigen-equation: a three-term recurrence from c_0 = 1, or a spectrum-raising
operator on the discrete su(1,1) spectrum.  No special function is summed.

Every constructor returns a normalized :class:`~urstates.hilbert.StateVector`
and certifies itself on construction: truncation honesty is enforced through
tail-mass gates, and each family defined by an eigenvalue problem names its
eigen-operator M by its bands and gates on the residual ||M psi - z psi||,
against the truncation-aware `hilbert.residual_bound`.

Conventions (hbar = 1): a = (q + ip)/sqrt(2); the squeeze parameters (u, v)
always satisfy |u|^2 - |v|^2 = 1 after the internal rescale.
"""

import cmath
import functools
import math

from dataclasses import dataclass

import numpy as np
# no caller in the package: bench/spans.py wraps states.expm, and reads
# scipy.linalg off the import path of cli
from scipy.linalg import expm  # noqa: F401

from .errors import (
    InvalidInputError,
    NormalizabilityError,
    NumericError,
    TruncationError,
    UnsupportedScaleError,
)
from .hilbert import (
    DEFAULT_FOCK_CUTOFF,
    DEFAULT_SU11_CUTOFF,
    MAX_BASIS_DIM,
    StateVector,
    apply_bands,
    boson_ladder,
    edge_mass,
    fock_basis,
    mass_exceeds,
    residual_bound,
    su11_basis,
    su11_ladder,
    su2_basis,
)

__all__ = [
    "SqueezeParams",
    "glauber",
    "canonical_ss",
    "squeezed_fock",
    "bg_cs",
    "su11_cs",
    "su11_intelligent",
    "even_odd_cs",
    "su2_cs",
    "FAMILIES",
]

#: hard ceiling for adaptive basis growth before declaring defeat
MAX_ADAPTIVE_CUTOFF = 4096


def _ray_scaled(*xs):
    """The complex numbers ``xs`` scaled by one exact power of two.

    For parameters of which only the ray matters: when the largest real or
    imaginary part lies outside [2^-500, 2^500], where products of two of
    them would overflow or underflow, the scale brings it near 1; otherwise
    the values come back as they are.
    """
    top = max(max(abs(x.real), abs(x.imag)) for x in xs)
    e = 0 if 2.0 ** -500 <= top <= 2.0 ** 500 else -math.frexp(top)[1]
    return [complex(math.ldexp(x.real, e), math.ldexp(x.imag, e)) for x in xs]


@dataclass(frozen=True)
class SqueezeParams:
    """Bogoliubov pair (u, v) defining A = u a + v a^dag.

    The eigenvalue problem only sees the ray through (u, v), so any overall
    complex rescale is allowed on input; ``normalized()`` maps onto the
    canonical shell |u|^2 - |v|^2 = 1.
    """

    u: complex
    v: complex

    def normalized(self):
        u = complex(self.u)
        v = complex(self.v)
        _check_params("squeeze pair", u=u, v=v)
        su, sv = _ray_scaled(u, v)
        s = abs(su) ** 2 - abs(sv) ** 2
        if not s > 0.0:
            raise InvalidInputError(
                f"squeeze pair needs |u| > |v| for a normalizable eigenstate, "
                f"got |u|={abs(u):.6g}, |v|={abs(v):.6g}"
            )
        root = math.sqrt(s)
        return SqueezeParams(su / root, sv / root)


def _coerce_squeeze(u, v):
    sq = SqueezeParams(complex(u), complex(v)).normalized()
    return sq.u, sq.v


def _check_params(family, **params):
    """Refuse NaN or infinite parameters before any arithmetic sees them,
    and a Bargmann index ``k`` that is not positive."""
    bad = [name for name, val in params.items() if not cmath.isfinite(val)]
    if bad:
        raise InvalidInputError(f"{family}: parameter {', '.join(bad)} must be finite")
    if params.get("k", 1.0) <= 0:
        raise InvalidInputError(f"Bargmann index must be positive, got k={params['k']}")


def _cutoff(N, family, default=None):
    """The cutoff N, or ``default`` when N is omitted; a given N outside
    [2, MAX_BASIS_DIM] is refused before any amplitude is allocated."""
    if N is not None and not 2 <= N <= MAX_BASIS_DIM:
        raise UnsupportedScaleError(
            f"{family}: cutoff N={N} outside [2, MAX_BASIS_DIM={MAX_BASIS_DIM}]"
        )
    return default if N is None else N


def _fock_cutoff(N, alpha, family):
    """The Fock cutoff N (DEFAULT_FOCK_CUTOFF when omitted), refused below
    the |alpha|^2 + 10|alpha| + 20 levels a displacement alpha needs."""
    N = _cutoff(N, family, DEFAULT_FOCK_CUTOFF)
    aa = abs(alpha)
    if N < aa * aa + 10.0 * aa + 20.0:
        raise TruncationError(
            f"{family}: cutoff N={N} too small for |alpha|={aa:.3g} "
            f"(need at least |alpha|^2 + 10|alpha| + 20)"
        )
    return N


def _step_amplitudes(x, ratio, dim, start=0, step=1):
    """Normalized amplitudes c_n ~ x^n w_n on the levels n = start,
    start + step, ... below ``dim``, zero elsewhere.

    ``ratio(m)`` gives the weight ratios w_{m+step} / w_m > 0 on every kept
    level m but the last.  |x|^step enters them through its log, and the
    phase as e^{i n arg x} (atan2, which gives 0 where the angle underflows
    and cmath.phase raises); x = 0 leaves the lowest kept level alone.
    """
    amp = np.zeros(dim, dtype=np.complex128)
    if x == 0.0:
        amp[start] = 1.0
        return amp
    levels = np.arange(start, dim, step)
    # log|c_n / c_start| as one running sum of the log step ratios
    log_steps = step * math.log(abs(x)) + np.log(ratio(levels[:-1]))
    logs = np.concatenate(([0.0], np.cumsum(log_steps)))
    logs -= logs.max()
    amp[levels] = np.exp(logs) * np.exp(1j * math.atan2(x.imag, x.real) * levels)
    return amp / np.linalg.norm(amp)


def _certified(amp, basis, family, params, max_tail, bands, z, scale, discarded=None):
    """The StateVector of ``amp``, once it passes the tail gate and then the
    residual gate of its eigen-equation M amp = z amp, M given by ``bands``.

    The tail gate holds the top-slice ``tail_mass`` to ``max_tail``, or the
    mass ``discarded`` beyond the cutoff where a family bounds it.  Only then
    is the residual ||M amp - z amp|| evaluated, and held to
    `hilbert.residual_bound` at ``scale``.
    """
    state = StateVector(amp, basis, family=family, params=params)
    mass, what = (state.tail_mass, "tail") if discarded is None else (discarded, "discarded")
    if mass_exceeds(mass, max_tail):
        raise TruncationError(
            f"{family}: {what} mass {mass:.3e} exceeds {max_tail:.1e}; raise the cutoff N"
        )
    res = float(np.linalg.norm(apply_bands(bands, amp) - z * amp))
    bound = residual_bound(amp, basis, scale)
    # a NaN residual fails the gate, where res > bound would let it through
    if not res <= bound:
        raise NumericError(
            f"{family}: eigen-equation residual {res:.3e} exceeds {bound:.3e}"
        )
    return state


# ---------------------------------------------------------------------------
# canonical (Fock-basis) families
# ---------------------------------------------------------------------------

def _poisson_tail(x, N):
    """Upper bound on the Poisson mass sum_{n >= N} e^{-x} x^n / n! for
    x < N + 1: the first term over 1 - x/(N+1), since every later step ratio
    x/(n+1) is at most x/(N+1)."""
    if x == 0.0:
        return 0.0
    return math.exp(-x + N * math.log(x) - math.lgamma(N + 1.0)) / (1.0 - x / (N + 1.0))


def glauber(alpha, N=None, max_tail=1e-8):
    """Coherent state |alpha>: eigenstate of a, minimal and isotropic spread.

    Amplitudes follow c_{n+1} = c_n alpha/sqrt(n+1), the eigen-equation
    recurrence of a, which rescales as it goes so large |alpha| cannot
    overflow before normalization.  The tail gate holds the Poisson mass the
    cutoff discards (`_poisson_tail`) to ``max_tail``.
    """
    alpha = complex(alpha)
    _check_params("glauber", alpha=alpha)
    N = _fock_cutoff(N, alpha, "glauber")
    aa = abs(alpha)
    bands = {1: boson_ladder(N)}
    # times 1 + 0j, which turns the -0.0 parts a real or imaginary alpha leaves into 0.0
    amp = _recurrence_amplitudes(bands, alpha) * (1.0 + 0.0j)
    return _certified(amp, fock_basis(N), "glauber", {"alpha": alpha}, max_tail,
                      bands, alpha, max(1.0, aa), discarded=_poisson_tail(aa * aa, N))


#: the eigen-equation recurrence rescales its prefix whenever an amplitude
#: passes this size, so a growing solution cannot overflow before normalization
_RESCALE_AT = 1e150


def _recurrence_amplitudes(bands, z):
    """Normalized solution of (M - z) psi = 0 from c_0 = 1 in O(N), M given by
    its ``bands`` (an absent band is zero; the +1 band has no zeros): row n is
    M[n, n+1] c_{n+1} = (z - M[n, n]) c_n - M[n, n-1] c_{n-1}."""
    up = bands[1].tolist()
    diag = (z - bands[0]).tolist() if 0 in bands else [z] * (len(up) + 1)
    low = [0.0] + (bands[-1].tolist() if -1 in bands else [0.0] * len(up))
    c_prev, c_cur = 0j, 1.0 + 0.0j
    c = [c_cur] + [0j] * len(up)
    for n in range(len(up)):
        c_next = (diag[n] * c_cur - low[n] * c_prev) / up[n]
        if abs(c_next) > _RESCALE_AT:
            c[:n + 1] = [x / _RESCALE_AT for x in c[:n + 1]]
            c_cur /= _RESCALE_AT
            c_next /= _RESCALE_AT
        c[n + 1] = c_next
        c_prev, c_cur = c_cur, c_next
    amp = np.array(c, dtype=np.complex128)
    return amp / np.linalg.norm(amp)


def _squeezed_amplitudes(alpha, u, v, N):
    """Normalized eigenvector of u a + v a^dag at eigenvalue alpha, on shell,
    and the bands {1: c, -1: (v/u) c} of (u a + v a^dag)/u it solves at alpha/u.

    The Fock components follow from the eigen-equation itself,
    u sqrt(n+1) c_{n+1} = alpha c_n - v sqrt(n) c_{n-1} with c_{-1} = 0 and
    c_0 = 1 (`_recurrence_amplitudes`).  The ray is then phased like the
    squeezed displaced vacuum e^{i arg u} S(zeta) D(beta)|0> it equals, with
    beta = alpha e^{-i arg u}, S(zeta) = exp((zeta a^dag^2 - conj(zeta) a^2)/2)
    and zeta = arccosh|u| e^{i(arg v - arg u + pi)}: the vacuum component
    then carries the phase of e^{i arg u} exp(i Im(conj(v/u) beta^2) / 2).
    """
    c = boson_ladder(N)
    bands = {1: c, -1: v / u * c}
    amp = _recurrence_amplitudes(bands, alpha / u)
    phase_u = u / abs(u)
    beta = alpha / phase_u
    return amp * (phase_u * cmath.exp(0.5j * ((v / u).conjugate() * beta * beta).imag)), bands


def canonical_ss(alpha, u, v, N=None, max_tail=1e-8):
    """Squeezed coherent state: the normalizable eigenstate of u a + v a^dag.

    (u, v) are rescaled to the shell |u|^2 - |v|^2 = 1 first; the amplitudes
    come from the eigen-equation recurrence of `_squeezed_amplitudes`, in the
    phase of e^{i arg u} S(zeta) D(alpha e^{-i arg u}) |0>, and gated on M/u.
    Raises a truncation error when the certified tail mass exceeds ``max_tail``.
    """
    alpha = complex(alpha)
    _check_params("canonical_ss", alpha=alpha)
    u, v = _coerce_squeeze(u, v)
    N = _fock_cutoff(N, alpha, "canonical_ss")
    amp, bands = _squeezed_amplitudes(alpha, u, v, N)
    return _certified(amp, fock_basis(N), "canonical_ss",
                      {"alpha": alpha, "u": u, "v": v}, max_tail,
                      bands, alpha / u, (abs(u) + abs(v) + abs(alpha)) / abs(u))


def _number_bands(u, v, N):
    """Bands of A^dag A, A = u a + v a^dag, as the product of the truncated
    A^dag and A, in which a a^dag = n + 1 loses its top-level entry."""
    n = np.arange(N, dtype=float)
    c = boson_ladder(N)
    aa = c[:-1] * c[1:]
    return {0: abs(u) ** 2 * n + abs(v) ** 2 * np.append(n[1:], 0.0),
            2: np.conj(v) * u * aa, -2: np.conj(u) * v * aa}


def squeezed_fock(n, u, v, N=None, max_tail=1e-8):
    """Squeezed Fock level S(zeta)|n>: eigenstate of A^dag A, A = u a + v a^dag.

    Built as (e^{i arg u})^(n-1) (A^dag)^n canonical_ss(0, u, v), normalized,
    with A^dag = conj(u) a^dag + conj(v) a applied n times in O(nN); that is
    S(zeta)|n> in the phase convention of `_squeezed_amplitudes`.  These
    carry the same second moments in (q, p) direction structure as the
    eigenstates of A itself but saturate nothing beyond the Robertson floor
    for n > 0.
    """
    n = int(n)
    if n < 0:
        raise InvalidInputError(f"squeezed_fock needs n >= 0, got {n}")
    u, v = _coerce_squeeze(u, v)
    N = _cutoff(N, "squeezed_fock", DEFAULT_FOCK_CUTOFF)
    if n >= N // 2:
        raise TruncationError(f"squeezed_fock: level n={n} too close to cutoff N={N}")
    amp, bands = _squeezed_amplitudes(0j, u, v, N)
    c = bands[1]
    for _ in range(n):
        amp = np.conj(u) * apply_bands({-1: c}, amp) + np.conj(v) * apply_bands({1: c}, amp)
        amp /= np.linalg.norm(amp)
    amp *= (u / abs(u)) ** (n - 1)
    return _certified(amp, fock_basis(N), "squeezed_fock", {"n": n, "u": u, "v": v},
                      max_tail, _number_bands(u, v, N), n,
                      (abs(u) + abs(v)) ** 2 * math.sqrt(N) + n)


def even_odd_cs(alpha, parity, N=None, max_tail=1e-8):
    """Even/odd coherent states: parity projections of |alpha>, eigenstates of a^2.

    Both carry eigenvalue alpha^2; the odd family needs alpha != 0.
    """
    alpha = complex(alpha)
    _check_params("even_odd_cs", alpha=alpha)
    if parity not in ("even", "odd"):
        raise InvalidInputError(f"parity must be 'even' or 'odd', got {parity!r}")
    if parity == "odd" and alpha == 0.0:
        raise InvalidInputError("odd projection of the vacuum vanishes identically")
    N = _fock_cutoff(N, alpha, "even_odd_cs")
    amp = _step_amplitudes(alpha, lambda m: 1.0 / np.sqrt((m + 1.0) * (m + 2.0)), N,
                           start=0 if parity == "even" else 1, step=2)
    c = boson_ladder(N)
    return _certified(amp, fock_basis(N), "even_odd_cs",
                      {"alpha": alpha, "parity": parity}, max_tail,
                      {2: c[:-1] * c[1:]}, alpha * alpha,
                      max(1.0, abs(alpha) ** 2) * math.sqrt(N))


# ---------------------------------------------------------------------------
# su(1,1) families on the discrete-series weight basis
# ---------------------------------------------------------------------------

def bg_cs(z, k, N=None, max_tail=1e-8):
    """Barut-Girardello state: eigenstate of the lowering generator K-.

    Amplitudes c_n ~ z^n / sqrt(n! Gamma(2k+n)) decay factorially, so any
    reasonable cutoff holds the whole state; a tail gate still certifies it,
    and the top level must carry at most 1e-14 of the mass.
    """
    z = complex(z)
    k = float(k)
    _check_params("bg_cs", z=z, k=k)
    N = _cutoff(N, "bg_cs", DEFAULT_SU11_CUTOFF)
    amp = _step_amplitudes(z, lambda m: 1.0 / np.sqrt((m + 1.0) * (2.0 * k + m)), N)
    top = edge_mass(amp, 1)
    if top > 1e-14:
        raise TruncationError(f"bg_cs: top-level amplitude mass {top:.3e} > 1e-14")
    return _certified(amp, su11_basis(k, N), "bg_cs", {"z": z, "k": k}, max_tail,
                      {1: su11_ladder(k, N)}, z, max(1.0, abs(z)))


def _su11_cs_cutoff(abs_xi, k):
    """Adaptive weight-basis size for |xi| < 1: grow until the level weights
    drop 50 e-folds below their peak (tail mass << 1e-16)."""
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


def _su11_cs_amplitudes(xi, k, N):
    """Normalized amplitudes c_n ~ xi^n sqrt((2k)_n / n!) of |xi; k> on the
    lowest N weight levels."""
    return _step_amplitudes(xi, lambda m: np.sqrt((2.0 * k + m) / (m + 1.0)), N)


def su11_cs(xi, k, N=None, max_tail=1e-8):
    """SU(1,1) coherent state |xi; k>, |xi| < 1 on the unit disk.

    Amplitudes c_n ~ xi^n sqrt((2k)_n / n!); the state solves the mixed
    eigen-equation (K- - xi^2 K+) psi = 2 k xi psi exactly, which is the
    residual certified here.  With N omitted the cutoff adapts to |xi|.
    """
    xi = complex(xi)
    k = float(k)
    _check_params("su11_cs", xi=xi, k=k)
    ax = abs(xi)
    if ax >= 1.0 - 1e-12:
        raise NormalizabilityError(
            f"su11_cs needs |xi| < 1 (unit disk), got |xi|={ax:.12g}"
        )
    N = _cutoff(N, "su11_cs") or _su11_cs_cutoff(ax, k)
    amp = _su11_cs_amplitudes(xi, k, N)
    c = su11_ladder(k, N)
    return _certified(amp, su11_basis(k, N), "su11_cs", {"xi": xi, "k": k}, max_tail,
                      {1: c, -1: -xi * xi * c}, 2.0 * k * xi,
                      max(1.0, 2.0 * k * ax) * math.sqrt(N))


def su2_cs(tau, j):
    """Spin coherent state on the sphere: c_n ~ tau^n sqrt(C(2j, n)), n = j + m.

    The (2j+1)-dimensional representation is exact, so there is no
    truncation certificate to speak of.
    """
    tau = complex(tau)
    j = float(j)
    _check_params("su2_cs", tau=tau, j=j)
    basis = su2_basis(j)
    amp = _step_amplitudes(tau, lambda m: np.sqrt((2.0 * j - m) / (m + 1.0)), basis.dim)
    return StateVector(amp, basis, family="su2_cs", params={"tau": tau, "j": j})


# ---------------------------------------------------------------------------
# su(1,1) intelligent states: eigenstates of u K- + v K+ + w K3
# ---------------------------------------------------------------------------

def _is_nonpositive_int(x):
    """Return n >= 0 with x within 1e-9 of -n, or None."""
    if abs(x.imag) > 1e-9:
        return None
    r = round(x.real)
    if r > 0 or abs(x.real - r) > 1e-9:
        return None
    return int(-r)


def _raised_amplitudes(u, v, w, s, t_in, n0, k, N):
    """E^n0 |t_in; k>, the eigenstate of M = u K- + v K+ + w K3 at z = s (k + n0).

    |t_in; k> is the M eigenstate at s k, and E = u^2 K- + (w^2 + s w - 2uv)/2 K+
    + u (s + w) K3 obeys [M, E] = s E: each application, normalized, climbs
    one level."""
    amp = _su11_cs_amplitudes(t_in, k, N)
    c = su11_ladder(k, N)
    a, b, d = u * u, 0.5 * (w * w + s * w - 2.0 * u * v), u * (s + w) * (k + np.arange(N))
    for _ in range(n0):
        amp = a * apply_bands({1: c}, amp) + b * apply_bands({-1: c}, amp) + d * amp
        amp /= np.linalg.norm(amp)
    return amp


def su11_intelligent(u, v, w, z, k, N=None, max_tail=1e-8):
    """Eigenstate of u K- + v K+ + w K3 with eigenvalue z.

    Normalizability requires a root of u t^2 + w t + v = 0 inside the unit
    disk; outside that region the constructor refuses.  With both roots
    inside, a double root w^2 = 4uv included, every z is an eigenvalue, and
    the amplitudes are the recurrence
    u sqrt((n+1)(2k+n)) c_{n+1} = (z - w(k+n)) c_n - v sqrt(n(2k+n-1)) c_{n-1}
    run forward from c_0 = 1; at the double root xi = -w/(2u) and z = 0 that
    is |xi; k> of `su11_cs`.  With one root t_in inside, the spectrum is
    z_n = s (k + n), s = w + 2 u t_in: an off-spectrum z is refused before
    any amplitude is evaluated, and the state is `_raised_amplitudes`.  With
    N omitted, the cutoff doubles from DEFAULT_SU11_CUTOFF until the top two
    levels hold at most 1e-18 of the mass.  The first component above 1e-8
    is made real and positive.
    """
    params = {"u": complex(u), "v": complex(v), "w": complex(w), "z": complex(z)}
    k = float(k)
    _check_params("su11_intelligent", **params, k=k)
    grow = N is None
    N = _cutoff(N, "su11_intelligent", DEFAULT_SU11_CUTOFF)
    # the eigen-equation only sees the ray through (u, v, w, z)
    u, v, w, z = _ray_scaled(*params.values())
    scale = max(abs(u), abs(v), abs(w))
    if scale == 0.0:
        raise InvalidInputError("intelligent family needs (u, v, w) != 0")
    if abs(u) <= 1e-12 * scale:
        raise NormalizabilityError(
            "intelligent family needs u != 0 (no lowering part, "
            "no normalizable eigenstates off the weight basis)"
        )
    l = cmath.sqrt(w * w - 4.0 * u * v)
    roots = ((-w + l) / (2.0 * u), (-w - l) / (2.0 * u))
    inside = [abs(t) < 1.0 - 1e-12 for t in roots]
    if not any(inside):
        raise NormalizabilityError(
            f"intelligent family not normalizable: characteristic roots "
            f"|t1|={abs(roots[0]):.6g}, |t2|={abs(roots[1]):.6g} both outside "
            f"the unit disk"
        )
    n0 = None
    if not all(inside):
        # one root outside: the spectrum is discrete, z_n = s (k + n) with
        # the step s = w + 2 u t_in = +-l set by the inside root t_in
        t_in, s = (roots[0], l) if inside[0] else (roots[1], -l)
        n0 = _is_nonpositive_int(k - z / s)
        if n0 is None:
            raise NormalizabilityError(
                f"su11_intelligent: no normalizable eigenstate at z={z}: one "
                f"characteristic root lies outside the unit disk, and z is "
                f"not on the discrete spectrum"
            )

    while True:
        # M over scale, so the residual is relative to the largest of u, v, w
        c = su11_ladder(k, N)
        bands = {1: u / scale * c, -1: v / scale * c, 0: w / scale * (k + np.arange(N))}
        if n0 is None:
            amp = _recurrence_amplitudes(bands, z / scale)
        else:
            amp = _raised_amplitudes(u, v, w, s, t_in, n0, k, N)
        if not np.all(np.isfinite(amp)):
            raise NumericError("intelligent family: amplitudes over/underflowed")
        if not grow or edge_mass(amp) <= 1e-18:
            break
        if N >= MAX_ADAPTIVE_CUTOFF:
            raise TruncationError(
                f"su11_intelligent: amplitudes still carry mass at "
                f"N={N}; parameters sit too close to the normalizability edge"
            )
        N = min(2 * N, MAX_ADAPTIVE_CUTOFF)

    first = np.argmax(np.abs(amp) > 1e-8)
    amp = amp * (np.conj(amp[first]) / abs(amp[first]))
    return _certified(amp, su11_basis(k, N), "su11_intelligent", {**params, "k": k},
                      max_tail, bands, z / scale,
                      math.sqrt(N) * (1.0 + k + abs(z) / scale))


def su11_intelligent_spectrum(u, v, w, k, count=8):
    """Physical eigenvalues z_n = l (k + n) of the Hermitian-normalizable
    family (Im w = 0, v = conj(u), w^2 > 4|u|^2), lowest ``count`` levels."""
    u, v, w = complex(u), complex(v), complex(w)
    k = float(k)
    if abs(w.imag) > 1e-12 * max(1.0, abs(w)) or abs(v - np.conj(u)) > 1e-12 * max(1.0, abs(u)):
        raise InvalidInputError(
            "discrete spectrum formula applies to the Im w = 0, v = conj(u) family"
        )
    disc = w.real ** 2 - 4.0 * abs(u) ** 2
    if disc <= 0.0:
        raise NormalizabilityError(
            f"family needs w^2 > 4|u|^2 for normalizable eigenstates, "
            f"got w^2 - 4|u|^2 = {disc:.6g}"
        )
    l = math.sqrt(disc) * (1.0 if w.real > 0 else -1.0)
    return [l * (k + n) for n in range(count)]


#: the families of ``urstates state --family``: name -> (constructor, the
#: keyword parameters it takes from the command line).  N and max_tail are
#: the cutoff and the tail bound, which the exact su(2) irrep does not take.
FAMILIES = {
    "glauber": (glauber, ("alpha", "N", "max_tail")),
    "canonical-ss": (canonical_ss, ("alpha", "u", "v", "N", "max_tail")),
    "squeezed-fock": (squeezed_fock, ("n", "u", "v", "N", "max_tail")),
    "even-cs": (functools.partial(even_odd_cs, parity="even"), ("alpha", "N", "max_tail")),
    "odd-cs": (functools.partial(even_odd_cs, parity="odd"), ("alpha", "N", "max_tail")),
    "bg-cs": (bg_cs, ("z", "k", "N", "max_tail")),
    "su11-cs": (su11_cs, ("xi", "k", "N", "max_tail")),
    "su11-intelligent": (su11_intelligent, ("u", "v", "w", "z", "k", "N", "max_tail")),
    "su2-cs": (su2_cs, ("tau", "j")),
}
