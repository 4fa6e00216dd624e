"""First and second moments of observable sets, and the closed-form Gaussian moments.

The covariance matrix sigma and commutator matrix C are defined through the
ordered second-moment Gram matrix G_ij = <X_i X_j>:

    sigma_ij = Re G_ij - <X_i><X_j>      (symmetric)
    C_ij     = Im G_ij = -(i/2) <[X_i, X_j]>   (antisymmetric)

so the Robertson matrix R = sigma + iC is exactly the positive-semidefinite
matrix of ordered central moments <dX_i dX_j>.
"""

import math
import re

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisMismatchError, InvalidInputError, TruncationError
from .hilbert import (
    DEFAULT_FOCK_CUTOFF,
    DEFAULT_MODE_CUTOFF,
    DEFAULT_SU11_CUTOFF,
    Operator,
    StateVector,
    boson_ladder,
    boson_rep,
    fock_basis,
    hermitian_parts,
    su11_rep,
    su2_rep,
    tensor_rep,
)
# psd_min_eig stays importable as moments.psd_min_eig, the name bench/spans.py wraps
from .matrixkit import _check_sigma_robertson, _hermitian_min_eig_2x2, psd_min_eig  # noqa: F401

__all__ = [
    "ObservableSet",
    "observable_set",
    "MomentReport",
    "moment_report",
    "uv_moments",
]


def pad_bands(band_dicts, dim):
    """(rows, src) for one stacked product of several operators: rows[k, r, i]
    holds M_r[i, i + d_k], zero off the basis, and src[k, i] is i + d_k clipped
    into range, so M_r psi = sum_k rows[k, r] * psi[src[k]] for every r.

    `ObservableSet.images` keeps this product apart from
    `hilbert.apply_bands`: with apply_bands' slices, one operator at a time,
    the moment-batch benchmark ran about 22% fewer ops per second (43-46
    against 58-61 per reference second, four alternating 5 s pairs on a
    2-vCPU VM), and about 11% fewer with the slices on the stacked bands of
    the whole set (53-54 against 58-62)."""
    offsets = sorted({d for bands in band_dicts for d in bands})
    dtype = np.result_type(np.float64, *(b for bands in band_dicts for b in bands.values()))
    rows = np.zeros((len(offsets), len(band_dicts), dim), dtype)
    for k, d in enumerate(offsets):
        lo = max(0, -d)
        for r, bands in enumerate(band_dicts):
            if d in bands:
                rows[k, r, lo:lo + dim - abs(d)] = bands[d]
    src = np.clip(np.arange(dim) + np.array(offsets, dtype=int)[:, None], 0, dim - 1)
    return rows, src


@dataclass
class ObservableSet:
    """An ordered tuple of Hermitian observables on a shared basis."""

    ops: list
    name: str = ""
    _padded: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.ops:
            raise InvalidInputError("observable set cannot be empty")
        basis = self.ops[0].basis
        for op in self.ops:
            if op.basis != basis:
                raise BasisMismatchError(
                    f"observable {op.label!r} lives in a different basis than "
                    f"{self.ops[0].label!r}"
                )
            if not op.is_hermitian():
                raise InvalidInputError(f"observable {op.label!r} is not Hermitian")

    @property
    def n(self):
        return len(self.ops)

    @property
    def basis(self):
        return self.ops[0].basis

    @property
    def labels(self):
        return [op.label for op in self.ops]

    def images(self, psi):
        """The vectors X_i psi as the rows of an (..., n, dim) array.

        ``psi`` is one state of shape (dim,) or a stack of shape (..., dim).
        The bands of all observables share one padded layout, built on first
        use, so a stack costs one multiply and one sum for the whole set.
        """
        if self._padded is None:
            self._padded = pad_bands([op.bands for op in self.ops], self.basis.dim)
        rows, src = self._padded
        return (rows * psi[..., src][..., :, None, :]).sum(axis=-3)


def _parse_set_name(name):
    """Split an observable-set name ``head`` or ``head:x`` into the head and
    the scale x as a float (None without a suffix).

    Any finite float literal is a valid suffix, so ``f"su11:{k!r}"`` names
    the set at exactly k.
    """
    m = re.fullmatch(r"([a-z0-9-]+?)(?::(.+))?", name.strip())
    if not m:
        raise InvalidInputError(f"malformed observable-set name {name!r}")
    head, arg = m.group(1), m.group(2)
    if arg is None:
        return head, None
    try:
        x = float(arg)
    except ValueError:
        raise InvalidInputError(f"malformed observable-set name {name!r}") from None
    if not math.isfinite(x):
        raise InvalidInputError(f"observable-set scale must be finite, got {name!r}")
    return head, x


def observable_set(name, N=None):
    """Build a named observable set.

    Recognized names (an optional ``:x`` suffix carries the scale parameter):

    - ``canonical`` / ``canonical:s`` — quadratures (q_1..q_s, p_1..p_s),
      s in {1, 2}
    - ``su11`` / ``su11:k`` — (K_1, K_2, K_3) at Bargmann index k (default 1/2)
    - ``su2`` / ``su2:j`` — (J_1, J_2, J_3) at spin j (default 1/2)
    - ``a2-quadratures`` — Hermitian quadratures of a^2:
      X = (a^2 + a^dag^2)/2, Y = (a^2 - a^dag^2)/(2i)
    """
    head, arg = _parse_set_name(name)

    if head == "canonical":
        if arg in (None, 1):
            rep = boson_rep(N if N else DEFAULT_FOCK_CUTOFF)
            return ObservableSet([rep["q"], rep["p"]], name="canonical")
        if arg == 2:
            rep = tensor_rep(N if N else DEFAULT_MODE_CUTOFF)
            return ObservableSet(rep["q"] + rep["p"], name="canonical:2")
        raise InvalidInputError(f"canonical quadratures support s in {{1,2}}, got s={arg:g}")

    if head == "su11":
        k = 0.5 if arg is None else arg
        rep = su11_rep(k, N if N else DEFAULT_SU11_CUTOFF)
        return ObservableSet([rep["k1"], rep["k2"], rep["k3"]], name=f"su11:{k:g}")

    if head == "su2":
        j = 0.5 if arg is None else arg
        rep = su2_rep(j)
        return ObservableSet([rep["j1"], rep["j2"], rep["j3"]], name=f"su2:{j:g}")

    if head == "a2-quadratures":
        if arg is not None:
            raise InvalidInputError("a2-quadratures takes no scale parameter")
        n_levels = N if N else DEFAULT_FOCK_CUTOFF
        c = boson_ladder(n_levels)
        basis = fock_basis(n_levels)
        # a^2 carries sqrt(n+1) sqrt(n+2) on band +2
        x_bands, y_bands = hermitian_parts(c[:-1] * c[1:], 2, 2.0, 2j)
        X = Operator("Re a^2", x_bands, basis)
        Y = Operator("Im a^2", y_bands, basis)
        return ObservableSet([X, Y], name="a2-quadratures")

    raise InvalidInputError(f"unknown observable set {name!r}")


@dataclass
class MomentReport:
    """Means, covariance sigma, commutator matrix C and PSD certificates.

    ``centered`` keeps the vectors (X_i - <X_i>) psi as the rows of an
    (n, dim) array whose Gram matrix is R, so certificates can reuse them
    without new products.
    """

    labels: list
    means: np.ndarray
    sigma: np.ndarray
    commut: np.ndarray
    centered: np.ndarray | None = field(default=None, repr=False)
    sigma_min_eig: float = field(init=False)
    robertson_min_eig: float = field(init=False)

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.commut = np.asarray(self.commut, dtype=float)
        shape = self.sigma.shape
        if not (len(shape) == 2 and shape[0] and shape == self.commut.shape == shape[::-1]):
            raise InvalidInputError(f"expected square sigma and C of one shape, got "
                                    f"{shape} and {self.commut.shape}")
        s, c = self.sigma.tolist(), self.commut.tolist()
        if shape == (2, 2):
            self.sigma_min_eig = _hermitian_min_eig_2x2(s)
            self.robertson_min_eig = _hermitian_min_eig_2x2(s, c)
            return
        # checked on floats first, so sigma + iC never sees a non-finite entry
        _check_sigma_robertson(s, c)
        lam = np.linalg.eigvalsh(np.array([self.sigma, self.robertson]))
        self.sigma_min_eig, self.robertson_min_eig = lam[:, 0].tolist()

    @property
    def robertson(self):
        return self.sigma + 1j * self.commut


def moment_report(obs, state, max_tail=1e-8):
    """Means and second moments of an observable set in a pure state.

    The moments come from the Gram matrix of the vectors X_i psi (one
    banded product per observable).  A recorded tail mass above
    ``max_tail`` aborts with a truncation error, since moments of a
    leaking state are not trustworthy.
    """
    _check_compat(obs, state, max_tail)
    means, sigma, comm, centered = _pure_moments(obs, state.amplitudes)
    return MomentReport(obs.labels, means, sigma, comm, centered)


def _check_compat(obs, state, max_tail):
    if not isinstance(state, StateVector):
        raise InvalidInputError(f"expected a StateVector, got {type(state).__name__}")
    if state.basis != obs.basis:
        raise BasisMismatchError(
            f"state basis {state.basis} does not match observable basis {obs.basis}"
        )
    if state.tail_exceeds(max_tail):
        raise TruncationError(
            f"state tail mass {state.tail_mass:.3e} exceeds {max_tail:.1e}; "
            f"moments would not be trustworthy"
        )


def _pure_moments(obs, psi):
    """Means, sigma, C and centered images of pure states psi (..., dim).

    Shapes follow the leading axes of psi: means (..., n), sigma and C
    (..., n, n), centered (..., n, dim).  A single state (dim,) stays on
    1-D products, which are faster than a stack of one.
    """
    images = obs.images(psi)
    if psi.ndim == 1:
        means = (images @ psi.conj()).real
    else:
        means = (images @ psi.conj()[..., None])[..., 0].real
    # Centering the image vectors makes the Gram matrix the central-moment
    # matrix directly, avoiding the <X_i><X_j> cancellation that otherwise
    # dominates the error budget for strongly displaced states.
    centered = images - means[..., None] * psi[..., None, :]
    gram = centered.conj() @ np.swapaxes(centered, -2, -1)
    gram_t = np.swapaxes(gram, -2, -1)
    sigma = (gram.real + gram_t.real) / 2.0
    comm = (gram.imag - gram_t.imag) / 2.0
    return means, sigma, comm, centered


# ---------------------------------------------------------------------------
# Gaussian covariance from Bogoliubov data
# ---------------------------------------------------------------------------

def uv_moments(u, v):
    """Second moments (dq^2, dp^2, dpq) of the u a + v a^dag eigenstate.

    (u, v) are rescaled to the shell |u|^2 - |v|^2 = 1 first; on shell

        dq^2 = |u - v|^2 / 2,  dp^2 = |u + v|^2 / 2,  dpq = Im(u conj(v))

    and the Schrodinger equality dq^2 dp^2 - dpq^2 = 1/4 holds identically.
    """
    from .states import SqueezeParams

    sq = SqueezeParams(complex(u), complex(v)).normalized()
    u, v = sq.u, sq.v
    dq2 = abs(u - v) ** 2 / 2.0
    dp2 = abs(u + v) ** 2 / 2.0
    dpq = (u * np.conj(v)).imag
    return dq2, dp2, dpq
