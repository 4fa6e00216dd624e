"""Constructors for the coherent / squeezed / intelligent state families.

Amplitudes come from closed-form step ratios, or from the family's own
eigen-equation: a three-term recurrence from c_0 = 1, or a spectrum-raising
operator on the discrete su(1,1) spectrum.  No special function is summed.

Every constructor returns a normalized :class:`~urstates.hilbert.StateVector`
and certifies itself on construction: truncation honesty is enforced through
tail-mass gates, and each family defined by an eigenvalue problem names its
eigen-operator M by its bands and gates on the residual ||M psi - z psi||,
against the truncation-aware `hilbert.residual_bound`.

Conventions (hbar = 1): a = (q + ip)/sqrt(2).  `squeeze_pair` puts the
squeeze parameters (u, v) on the shell |u|^2 - |v|^2 = 1.
"""

import cmath
import functools
import itertools
import math

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
    DEFAULT_MAX_TAIL,
    DEFAULT_SU11_CUTOFF,
    MAX_BASIS_DIM,
    StateVector,
    apply_bands,
    boson_ladder,
    check_tail,
    edge_mass,
    fock_basis,
    gauge_fixed,
    residual_bound,
    su11_basis,
    su11_ladder,
    su2_basis,
    vector_norm,
)

__all__ = [
    "squeeze_pair",
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


def _ray_exponent(*xs):
    """The exponent e of the exact power of two 2^e by which `_ray_scaled`
    scales the complex numbers ``xs``."""
    top = max(max(abs(x.real), abs(x.imag)) for x in xs)
    return 0 if 2.0 ** -500 <= top <= 2.0 ** 500 else -math.frexp(top)[1]


def _ray_scaled(*xs):
    """The complex numbers ``xs`` scaled by one exact power of two.

    For parameters of which only the ray matters: when the largest real or
    imaginary part lies outside [2^-500, 2^500], where products of two of
    them would overflow or underflow, the scale brings it near 1; otherwise
    the values come back as they are.
    """
    e = _ray_exponent(*xs)
    return [complex(math.ldexp(x.real, e), math.ldexp(x.imag, e)) for x in xs]


def squeeze_pair(u, v):
    """The Bogoliubov pair (u, v) of A = u a + v a^dag on the shell
    |u|^2 - |v|^2 = 1.

    The eigenvalue problem only sees the ray through (u, v), so any overall
    complex rescale is allowed on input; a pair with |u| <= |v| has no
    normalizable eigenstate and is refused.
    """
    u, v = complex(u), complex(v)
    _check_params("squeeze pair", u=u, v=v)
    su, sv = _ray_scaled(u, v)
    s = abs(su) ** 2 - abs(sv) ** 2
    if not s > 0.0:
        raise InvalidInputError(
            f"squeeze pair needs |u| > |v| for a normalizable eigenstate, "
            f"got |u|={abs(u):.6g}, |v|={abs(v):.6g}"
        )
    root = math.sqrt(s)
    return su / root, sv / root


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


def _step_amplitudes(x, ratios, start=0, step=1):
    """Normalized amplitudes c_n ~ x^n w_n on the levels n = start,
    start + step, ... below ``len(ratios) + step``, zero elsewhere.

    ``ratios[m]`` is the weight ratio w_{m+step} / w_m > 0 of level m.
    |x|^step enters them through its log, and the phase as e^{i n arg x}
    (atan2, which gives 0 where the angle underflows and cmath.phase
    raises); x = 0 leaves the lowest kept level alone.
    """
    amp = np.zeros(len(ratios) + step, dtype=np.complex128)
    if x == 0.0:
        amp[start] = 1.0
        return amp
    levels = np.arange(start, amp.size, step)
    # log|c_n / c_start| as one running sum of the log step ratios
    log_steps = step * math.log(abs(x)) + np.log(ratios[start::step])
    logs = np.concatenate(([0.0], np.cumsum(log_steps)))
    logs -= logs.max()
    amp[levels] = np.exp(logs) * np.exp(1j * math.atan2(x.imag, x.real) * levels)
    return amp / vector_norm(amp)


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
    check_tail(mass, max_tail, f"{family}: {what} mass")
    image = apply_bands(bands, amp)
    image -= z * amp
    res = vector_norm(image)
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


def glauber(alpha, N=None, max_tail=DEFAULT_MAX_TAIL):
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

#: levels the recurrence runs between two overflow tests: one block holds
#: the 128 and 192 Fock levels of the default and of the squeeze-shell scan,
#: and a rescale repeats at most one block of steps
_RECURRENCE_BLOCK = 256


def _recurrence_amplitudes(bands, z):
    """Normalized solution of (M - z) psi = 0 from c_0 = 1 in O(N), M given by
    its ``bands`` (an absent band is zero; the +1 band has no zeros): row n is
    M[n, n+1] c_{n+1} = (z - M[n, n]) c_n - M[n, n-1] c_{n-1}.

    The rows run in blocks of _RECURRENCE_BLOCK levels with no test between
    them, and each block is tested for overflow once, by its sum of squares.
    Only a block that fails that test is searched for its first amplitude
    past _RESCALE_AT: the block is cut there, that amplitude and all below it
    are divided by _RESCALE_AT, and the rows resume from it.  The result has
    the bits of a test after every row, and raises its OverflowError where
    ``abs`` of a huge finite amplitude overflows.
    """
    up = bands[1].tolist()
    diag = (z - bands[0]).tolist() if 0 in bands else [z] * (len(up) + 1)
    low = [0.0] + (bands[-1].tolist() if -1 in bands else [0.0] * len(up))
    c = [1.0 + 0.0j]
    amp = np.empty(len(up) + 1, np.complex128)
    rows = zip(diag, low, up)
    # c holds c_0..c_n, amp those above c_top, and rows the rows from n on;
    # c_0..c_{zeros-1} are each +0j, which a division leaves as it is
    n = top = zeros = 0
    while n < len(up):
        c_prev, c_cur = c[n - 1] if n else 0j, c[n]
        for d, l, u in itertools.islice(rows, _RECURRENCE_BLOCK):
            c_prev, c_cur = c_cur, (d * c_cur - l * c_prev) / u
            c.append(c_cur)
        block = amp[n + 1:len(c)]
        block[:] = c[n + 1:]
        # a sum of squares up to (_RESCALE_AT / 2)^2 clears every amplitude
        # in it; an inf or NaN sum does not
        if not np.vdot(block, block).real <= (_RESCALE_AT / 2.0) ** 2:
            with np.errstate(over="ignore"):
                over = np.flatnonzero(np.abs(block) > _RESCALE_AT)
            if over.size:
                n += int(over[0]) + 1
                del c[n + 1:]
                rows = zip(*(itertools.islice(row, n, None) for row in (diag, low, up)))
                # the test after every row, OverflowError included
                if abs(c[n]) > _RESCALE_AT:
                    c[zeros:] = [x / _RESCALE_AT for x in c[zeros:]]
                    top = n
                    while repr(c[zeros]) == "0j":  # not -0j or (-0+0j)
                        zeros += 1
                continue
        n = len(c) - 1
    amp[:top + 1] = c[:top + 1]
    return amp / vector_norm(amp)


def _raised(amp, bands, n):
    """``amp`` after n applications of the operator with ``bands``, each
    followed by a normalization: a raising operator climbs n levels."""
    for _ in range(n):
        amp = apply_bands(bands, amp)
        amp /= vector_norm(amp)
    return amp


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


def canonical_ss(alpha, u, v, N=None, max_tail=DEFAULT_MAX_TAIL):
    """Squeezed coherent state: the normalizable eigenstate of u a + v a^dag.

    (u, v) are rescaled to the shell |u|^2 - |v|^2 = 1 first; the amplitudes
    come from the eigen-equation recurrence of `_squeezed_amplitudes`, in the
    phase of e^{i arg u} S(zeta) D(alpha e^{-i arg u}) |0>, and gated on M/u.
    Raises a truncation error when the certified tail mass exceeds ``max_tail``.
    """
    alpha = complex(alpha)
    _check_params("canonical_ss", alpha=alpha)
    u, v = squeeze_pair(u, v)
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


def squeezed_fock(n, u, v, N=None, max_tail=DEFAULT_MAX_TAIL):
    """Squeezed Fock level S(zeta)|n>: eigenstate of A^dag A, A = u a + v a^dag.

    Built as (e^{i arg u})^(n-1) (A^dag)^n canonical_ss(0, u, v), normalized,
    with A^dag = conj(u) a^dag + conj(v) a applied n times in O(nN)
    (`_raised`); that is S(zeta)|n> in the phase convention of
    `_squeezed_amplitudes`.  These carry the same second moments in (q, p)
    direction structure as the eigenstates of A itself but saturate nothing
    beyond the Robertson floor for n > 0.
    """
    n = int(n)
    if n < 0:
        raise InvalidInputError(f"squeezed_fock needs n >= 0, got {n}")
    u, v = squeeze_pair(u, v)
    N = _cutoff(N, "squeezed_fock", DEFAULT_FOCK_CUTOFF)
    if n >= N // 2:
        raise TruncationError(f"squeezed_fock: level n={n} too close to cutoff N={N}")
    amp, bands = _squeezed_amplitudes(0j, u, v, N)
    c = bands[1]
    amp = _raised(amp, {-1: np.conj(u) * c, 1: np.conj(v) * c}, n)
    amp *= (u / abs(u)) ** (n - 1)
    return _certified(amp, fock_basis(N), "squeezed_fock", {"n": n, "u": u, "v": v},
                      max_tail, _number_bands(u, v, N), n,
                      (abs(u) + abs(v)) ** 2 * math.sqrt(N) + n)


def even_odd_cs(alpha, parity, N=None, max_tail=DEFAULT_MAX_TAIL):
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
    # a^2 carries sqrt((n+1)(n+2)) on band +2
    n = np.arange(N - 2, dtype=float)
    band = np.sqrt((n + 1.0) * (n + 2.0))
    amp = _step_amplitudes(alpha, 1.0 / band, start=0 if parity == "even" else 1, step=2)
    return _certified(amp, fock_basis(N), "even_odd_cs",
                      {"alpha": alpha, "parity": parity}, max_tail,
                      {2: band}, alpha * alpha,
                      max(1.0, abs(alpha) ** 2) * math.sqrt(N))


# ---------------------------------------------------------------------------
# su(1,1) families on the discrete-series weight basis
# ---------------------------------------------------------------------------

def bg_cs(z, k, N=None, max_tail=DEFAULT_MAX_TAIL):
    """Barut-Girardello state: eigenstate of the lowering generator K-.

    Amplitudes c_n ~ z^n / sqrt(n! Gamma(2k+n)) decay factorially, so any
    reasonable cutoff holds the whole state; a tail gate still certifies it,
    and the top level must carry at most 1e-14 of the mass.
    """
    z = complex(z)
    k = float(k)
    _check_params("bg_cs", z=z, k=k)
    N = _cutoff(N, "bg_cs", DEFAULT_SU11_CUTOFF)
    band = su11_ladder(k, N)
    amp = _step_amplitudes(z, 1.0 / band)
    check_tail(edge_mass(amp, 1), 1e-14, "bg_cs: top-level amplitude mass")
    return _certified(amp, su11_basis(k, N), "bg_cs", {"z": z, "k": k}, max_tail,
                      {1: band}, z, max(1.0, abs(z)))


def _su11_cs_cutoff(abs_xi, k):
    """Adaptive weight-basis size for |xi| < 1: ten levels past the first
    weight 50 e-folds below the peak (tail mass << 1e-16), refused when no
    weight up to level MAX_ADAPTIVE_CUTOFF - 2 lies that low.  The weights
    have a single peak, so every later level lies further below it."""
    x2 = abs_xi * abs_xi
    if x2 == 0.0:
        return DEFAULT_SU11_CUTOFF
    m = np.arange(MAX_ADAPTIVE_CUTOFF - 2)
    lw = np.concatenate(([0.0], np.cumsum(math.log(x2) + np.log((2.0 * k + m) / (m + 1.0)))))
    below = np.flatnonzero(lw < np.maximum.accumulate(lw) - 50.0)
    if below.size:
        return max(DEFAULT_SU11_CUTOFF, int(below[0]) + 10)
    raise TruncationError(
        f"su11_cs: |xi|={abs_xi:.6g}, k={k:.3g} needs more than "
        f"{MAX_ADAPTIVE_CUTOFF} levels"
    )


def _su11_cs_amplitudes(xi, k, N):
    """Normalized amplitudes c_n ~ xi^n sqrt((2k)_n / n!) of |xi; k> on the
    lowest N weight levels."""
    m = np.arange(N - 1)
    return _step_amplitudes(xi, np.sqrt((2.0 * k + m) / (m + 1.0)))


def su11_cs(xi, k, N=None, max_tail=DEFAULT_MAX_TAIL):
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
    m = np.arange(basis.dim - 1)
    amp = _step_amplitudes(tau, np.sqrt((2.0 * j - m) / (m + 1.0)))
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


def _inside_root(u, v, w):
    """(t_in, s) of u K- + v K+ + w K3 when one root t_in of u t^2 + w t + v
    lies inside the unit disk and the other outside: the spectrum is then
    discrete, z_n = s (k + n), with the step s = w + 2 u t_in.  (None, None)
    when both roots are inside; both outside is a NormalizabilityError."""
    scale = max(abs(u), abs(v), abs(w))
    if scale == 0.0:
        raise InvalidInputError("intelligent family needs (u, v, w) != 0")
    if abs(u) <= 1e-12 * scale:
        raise NormalizabilityError("intelligent family needs u != 0 (no lowering part, "
                                   "no normalizable eigenstates off the weight basis)")
    l = cmath.sqrt(w * w - 4.0 * u * v)
    roots = ((-w + l) / (2.0 * u), (-w - l) / (2.0 * u))
    inside = [abs(t) < 1.0 - 1e-12 for t in roots]
    if not any(inside):
        raise NormalizabilityError(f"intelligent family not normalizable: characteristic roots "
                                   f"|t1|={abs(roots[0]):.6g}, |t2|={abs(roots[1]):.6g} both "
                                   f"outside the unit disk")
    if all(inside):
        return None, None
    # s = w + 2 u t_in is +-l
    return (roots[0], l) if inside[0] else (roots[1], -l)


def su11_intelligent(u, v, w, z, k, N=None, max_tail=DEFAULT_MAX_TAIL):
    """Eigenstate of u K- + v K+ + w K3 with eigenvalue z.

    Normalizability requires a root of u t^2 + w t + v = 0 inside the unit
    disk; outside that region the constructor refuses.  With both roots
    inside, a double root w^2 = 4uv included, every z is an eigenvalue, and
    the amplitudes are the recurrence
    u sqrt((n+1)(2k+n)) c_{n+1} = (z - w(k+n)) c_n - v sqrt(n(2k+n-1)) c_{n-1}
    run forward from c_0 = 1; at the double root xi = -w/(2u) and z = 0 that
    is |xi; k> of `su11_cs`.  With one root t_in inside, the spectrum is
    z_n = s (k + n), s = w + 2 u t_in: an off-spectrum z is refused before
    any amplitude is evaluated, and the state is E^n0 |t_in; k>, n0 = z/s - k,
    with E = u^2 K- + (w^2 + s w - 2uv)/2 K+ + u (s + w) K3, [M, E] = s E,
    normalized after each step (`_raised`).  With N omitted, the cutoff
    doubles from DEFAULT_SU11_CUTOFF until the top two levels hold at most
    1e-18 of the mass.  The first component above 1e-8 is made real and
    positive.
    """
    params = {"u": complex(u), "v": complex(v), "w": complex(w), "z": complex(z)}
    k = float(k)
    _check_params("su11_intelligent", **params, k=k)
    grow = N is None
    N = _cutoff(N, "su11_intelligent", DEFAULT_SU11_CUTOFF)
    # the eigen-equation only sees the ray through (u, v, w, z)
    u, v, w, z = _ray_scaled(*params.values())
    t_in, s = _inside_root(u, v, w)
    scale = max(abs(u), abs(v), abs(w))
    n0 = None if s is None else _is_nonpositive_int(k - z / s)
    if s is not None and n0 is None:
        raise NormalizabilityError(f"su11_intelligent: no normalizable eigenstate at z={z}: "
                                   f"one characteristic root lies outside the unit disk, "
                                   f"and z is not on the discrete spectrum")

    while True:
        # M over scale, so the residual is relative to the largest of u, v, w
        c, kn = su11_ladder(k, N), k + np.arange(N)
        bands = {1: u / scale * c, -1: v / scale * c, 0: w / scale * kn}
        with np.errstate(all="ignore"):  # inf, NaN or all-zero amplitudes are refused below
            if n0 is None:
                amp = _recurrence_amplitudes(bands, z / scale)
            else:
                # |t_in; k> is the M eigenstate at s k, and E obeys [M, E] = s E;
                # E is quadratic in (u, v, w, s), so each is taken over the
                # exact 2^e of scale's binade: the norm of E's images can then
                # neither overflow nor underflow, and each normalized step
                # keeps its bits wherever the unscaled bands did not
                g = math.ldexp(1.0, -math.frexp(scale)[1])
                gu, gv, gw, gs = u * g, v * g, w * g, s * g
                raising = {1: gu * gu * c, -1: 0.5 * (gw * gw + gs * gw - 2.0 * gu * gv) * c,
                           0: gu * (gs + gw) * kn}
                amp = _raised(_su11_cs_amplitudes(t_in, k, N), raising, n0)
        if not (np.all(np.isfinite(amp)) and amp.any()):
            raise NumericError("intelligent family: amplitudes over/underflowed")
        if not grow or edge_mass(amp) <= 1e-18:
            break
        if N >= MAX_ADAPTIVE_CUTOFF:
            raise TruncationError(
                f"su11_intelligent: amplitudes still carry mass at "
                f"N={N}; parameters sit too close to the normalizability edge"
            )
        N = min(2 * N, MAX_ADAPTIVE_CUTOFF)

    return _certified(gauge_fixed(amp, 1e-8), su11_basis(k, N), "su11_intelligent",
                      {**params, "k": k}, max_tail, bands, z / scale,
                      math.sqrt(N) * (1.0 + k + abs(z) / scale))


def su11_intelligent_spectrum(u, v, w, k, count=8):
    """The lowest ``count`` eigenvalues z_n = s (k + n) of a family with one
    root of u t^2 + w t + v inside the unit disk (`_inside_root`).  Both
    roots inside is a NormalizabilityError too: every z is an eigenvalue,
    and a level past the float range is a NumericError.  The roots are found
    on the ray-scaled (u, v, w), as in `su11_intelligent`, and s, linear in
    (u, v, w), is scaled back."""
    u, v, w = complex(u), complex(v), complex(w)
    k = float(k)
    _check_params("su11_intelligent_spectrum", u=u, v=v, w=w, k=k)
    _t_in, s = _inside_root(*_ray_scaled(u, v, w))
    if s is None:
        raise NormalizabilityError("both characteristic roots lie inside the unit disk: "
                                   "every z is an eigenvalue, the spectrum is not discrete")
    e = -_ray_exponent(u, v, w)
    if e:
        # 2^e in two halves, each a float where 2^e itself need not be
        s = s * math.ldexp(1.0, e // 2) * math.ldexp(1.0, e - e // 2)
    levels = [s * (k + n) for n in range(count)]
    # |z_n| grows with n, so the last level is the first to overflow
    if levels and not cmath.isfinite(levels[-1]):
        raise NumericError(f"su11_intelligent_spectrum: level z_{count - 1} = "
                           f"{levels[-1]} is past the float range")
    return levels


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
