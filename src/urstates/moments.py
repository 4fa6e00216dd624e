"""Observable sets, and the first and second moments of a state under them.

The covariance matrix sigma and commutator matrix C are defined through the
ordered second-moment Gram matrix G_ij = <X_i X_j>:

    sigma_ij = Re G_ij - <X_i><X_j>      (symmetric)
    C_ij     = Im G_ij = -(i/2) <[X_i, X_j]>   (antisymmetric)

so the Robertson matrix R = sigma + iC is exactly the positive-semidefinite
matrix of ordered central moments <dX_i dX_j>.  Built as (G + G^T)/2 and
(G - G^T)/2 entry by entry, sigma and C are symmetric and antisymmetric to
the last bit; a non-finite entry in either is a NumericError.
"""

import itertools
import math
import re

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import BasisMismatchError, InvalidInputError, NumericError
from .hilbert import (
    DEFAULT_FOCK_CUTOFF,
    DEFAULT_MAX_TAIL,
    DEFAULT_MODE_CUTOFF,
    DEFAULT_SU11_CUTOFF,
    Operator,
    StateVector,
    boson_ladder,
    boson_rep,
    check_tail,
    fock_basis,
    hermitian_parts,
    su11_rep,
    su2_rep,
    tensor_rep,
)
from .matrixkit import _hermitian_min_eig_2x2, psd_min_eig

__all__ = [
    "ObservableSet",
    "observable_set",
    "MomentReport",
    "moment_report",
    "check_state",
]


def pad_bands(band_dicts, dim):
    """(rows, src) for one stacked product of several operators: rows[k, r, i]
    holds M_r[i, i + d_k], zero off the basis, and src[k, i] is i + d_k clipped
    into range, so M_r psi = sum_k rows[k, r] * psi[src[k]] for every r.

    `ObservableSet.images` keeps this product apart from
    `hilbert.apply_bands`: with apply_bands' slices, one operator at a time,
    the moment-batch benchmark ran about 19% fewer ops per second (53-57
    against 65-70 per reference second, four rounds of 5 s runs on a 2-vCPU
    VM), and about 8% fewer with the slices on the stacked bands of the
    whole set (59-63 against 65-70)."""
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


@dataclass(frozen=True)
class ObservableSet:
    """An ordered tuple of Hermitian observables on a shared basis.

    ``ops`` may be any sequence of `Operator`s, kept as a tuple.  The set and
    its operators are frozen and it keeps nothing per state, so its padded
    layout cannot go stale, and a set that `observable_set` hands to several
    callers, threads included, stays the same for all of them.
    """

    ops: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if not self.ops:
            raise InvalidInputError("observable set cannot be empty")
        for op in self.ops:
            if not isinstance(op, Operator):
                raise InvalidInputError(f"an observable set holds Operators, got {op!r}")
            if op.basis != self.ops[0].basis:
                raise BasisMismatchError(f"observable {op.label!r} lives in a different basis "
                                         f"than {self.ops[0].label!r}")
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
        Each state's images in a stack are the bits of its own 1-D call.
        """
        rows, src = self._padded
        # np.add.reduce is the reduction ndarray.sum calls, without its wrapper
        return np.add.reduce(rows * psi.take(src, axis=-1)[..., :, None, :], axis=-3)

    @cached_property
    def _padded(self):
        return pad_bands([op.bands for op in self.ops], self.basis.dim)


def _parse_set_name(name):
    """Split an observable-set name ``head`` or ``head:x`` into a known head
    and the scale x as a float (None without a suffix).

    Any finite float literal is a valid suffix, so ``f"su11:{k!r}"`` names
    the set at exactly k.  A name that is not a str is malformed.
    """
    m = re.fullmatch(r"([a-z0-9-]+?)(?::(.+))?", name.strip()) if isinstance(name, str) else None
    if not m:
        raise InvalidInputError(f"malformed observable-set name {name!r}")
    head, arg = m.group(1), m.group(2)
    try:
        x = None if arg is None else float(arg)
    except ValueError:
        raise InvalidInputError(f"malformed observable-set name {name!r}") from None
    if x is not None and not math.isfinite(x):
        raise InvalidInputError(f"observable-set scale must be finite, got {name!r}")
    if head not in ("canonical", "su11", "su2", "a2-quadratures"):
        raise InvalidInputError(f"unknown observable set {name!r}")
    return head, x


def observable_set(name, N=None):
    """The named observable set at cutoff ``N``.

    The last 16 sets built are kept by what the builder reads: the head, and
    the scale and N with their defaults filled in, but no N for su(2).  So
    ``su11`` and ``su11:0.5`` at N=96 or omitted are one set, as is ``su2:1``
    at any N: callers share it, and it is read-only (see `ObservableSet`).
    Only an int or omitted ``N`` is kept, so ``N=32.0`` or ``N=True`` still
    reach the builder.

    Recognized names (an optional ``:x`` suffix carries the scale parameter):

    - ``canonical`` / ``canonical:s`` — quadratures (q_1..q_s, p_1..p_s),
      s in {1, 2}
    - ``su11`` / ``su11:k`` — (K_1, K_2, K_3) at Bargmann index k (default 1/2)
    - ``su2`` / ``su2:j`` — (J_1, J_2, J_3) at spin j (default 1/2)
    - ``a2-quadratures`` — Hermitian quadratures of a^2:
      X = (a^2 + a^dag^2)/2, Y = (a^2 - a^dag^2)/(2i)
    """
    head, arg = _parse_set_name(name)
    if arg is None:  # one mode, k = 1/2, j = 1/2
        arg = {"canonical": 1.0, "su11": 0.5, "su2": 0.5}.get(head)
    if N is None:  # the builder's default cutoff, which su(2) does not read
        N = (DEFAULT_SU11_CUTOFF if head == "su11" else
             DEFAULT_MODE_CUTOFF if head == "canonical" and arg == 2 else DEFAULT_FOCK_CUTOFF)
    if type(N) is int:
        return _kept_set(head, arg, None if head == "su2" else N)
    return _build_set(head, arg, N)


def _build_set(head, arg, N):
    if head == "canonical":
        if arg == 1:
            rep = boson_rep(N)
            return ObservableSet([rep["q"], rep["p"]], name="canonical")
        if arg == 2:
            rep = tensor_rep(N)
            return ObservableSet(rep["q"] + rep["p"], name="canonical:2")
        raise InvalidInputError(f"canonical quadratures support s in {{1,2}}, got s={arg:g}")

    if head == "su11":
        rep = su11_rep(arg, N)
        return ObservableSet([rep["k1"], rep["k2"], rep["k3"]], name=f"su11:{arg:g}")

    if head == "su2":
        rep = su2_rep(arg)
        return ObservableSet([rep["j1"], rep["j2"], rep["j3"]], name=f"su2:{arg:g}")

    if arg is not None:
        raise InvalidInputError("a2-quadratures takes no scale parameter")
    c = boson_ladder(N)
    basis = fock_basis(N)
    # a^2 carries sqrt(n+1) sqrt(n+2) on band +2
    x_bands, y_bands = hermitian_parts(c[:-1] * c[1:], 2, 2.0, 2j)
    X = Operator("Re a^2", x_bands, basis)
    Y = Operator("Im a^2", y_bands, basis)
    return ObservableSet([X, Y], name="a2-quadratures")


_kept_set = lru_cache(maxsize=16)(_build_set)


@dataclass
class MomentReport:
    """Means, covariance sigma, commutator matrix C and PSD certificates.

    ``centered`` keeps the vectors (X_i - <X_i>) psi as the rows of an
    (n, dim) array whose Gram matrix is R, so certificates can reuse them
    without new products.  sigma and C are proven finite and (anti)symmetric
    to the bit once: by `_pure_moments` for a report of `moment_report`,
    which takes its arrays as they are (`_exact`), and by this constructor
    for a hand-built pair, which `psd_min_eig` refuses or takes if the proof
    fails.  Those of `moment_report` are kept on their state, so their
    arrays are read-only.
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
        exact = (all(map(math.isfinite, itertools.chain(*s, *c)))
                 and s == [list(row) for row in zip(*s)]
                 and c == [[-x for x in row] for row in zip(*c)])
        if exact:
            lam = _exact_min_eigs(self.sigma, self.commut)
        else:
            # R by parts: 1j * inf would warn before psd_min_eig refuses it
            pair = np.array([self.sigma, self.sigma], dtype=complex)
            pair[1].imag = self.commut
            lam = psd_min_eig(pair).tolist()
        self.sigma_min_eig, self.robertson_min_eig = lam

    @classmethod
    def _exact(cls, labels, means, sigma, commut, centered):
        """The report of float arrays that are finite, sigma symmetric and C
        antisymmetric to the bit, as `_pure_moments` returns them: taken as
        they are, with no conversion and no check."""
        rep = cls.__new__(cls)
        rep.labels, rep.means, rep.sigma, rep.commut, rep.centered = (
            labels, means, sigma, commut, centered)
        rep.sigma_min_eig, rep.robertson_min_eig = _exact_min_eigs(sigma, commut)
        return rep

    @property
    def robertson(self):
        return self.sigma + 1j * self.commut


def _exact_min_eigs(sigma, commut):
    """[lam_min(sigma), lam_min(R)] of an n x n pair that is finite and
    (anti)symmetric to the bit, as two floats: n = 2 in closed form, any
    other n from one eigvalsh on the stack [sigma, R].  R is built in place
    with the bits of `MomentReport.robertson`, signed zeros included, since
    eigvalsh reads the sign of a zero entry."""
    n = len(sigma)
    if n == 2:
        s = sigma.tolist()
        return [_hermitian_min_eig_2x2(s), _hermitian_min_eig_2x2(s, commut.tolist())]
    pair = np.empty((2, n, n), complex)
    pair[0] = pair[1] = sigma
    pair[1] += 1j * commut
    return np.linalg.eigvalsh(pair)[:, 0].tolist()


def moment_report(obs, state, max_tail=DEFAULT_MAX_TAIL):
    """Means and second moments of an observable set in a pure state.

    The moments come from the Gram matrix of the vectors X_i psi (one
    banded product per observable).  A recorded tail mass above
    ``max_tail`` aborts with a truncation error, since moments of a
    leaking state are not trustworthy.  The state keeps the report, read-only,
    with the set (`_kept_report`).
    """
    check_state(state, obs.basis, max_tail)
    means, sigma, comm, centered = _pure_moments(obs, state.amplitudes)
    for arr in (means, sigma, comm, centered):
        arr.setflags(write=False)
    report = MomentReport._exact(obs.labels, means, sigma, comm, centered)
    state._moments = (obs, report)
    return report


def _kept_report(obs, state):
    """The report of the last `moment_report` of ``state`` if it was on ``obs`` itself, else
    None; the state's amplitudes never change.  Read once, so no thread mixes in."""
    kept_obs, report = state._moments or (None, None)
    return report if kept_obs is obs else None


def check_state(state, basis, max_tail):
    """Refuse anything but a StateVector on ``basis`` whose recorded tail
    mass is within ``max_tail`` (no gate for None): the one check of a
    caller's state before its moments, overlaps or certificate are read."""
    if not isinstance(state, StateVector):
        raise InvalidInputError(f"expected a StateVector, got {type(state).__name__}")
    # identity first: it spares the field-by-field dataclass comparison
    if state.basis is not basis and state.basis != basis:
        raise BasisMismatchError(f"state basis {state.basis} does not match basis {basis}")
    check_tail(state.tail_mass, max_tail, "state tail mass")


def _pure_moments(obs, psi):
    """Means, sigma, C and centered images of pure states psi (..., dim).

    Shapes follow the leading axes of psi: means (..., n), sigma and C
    (..., n, n), centered (..., n, dim).  Each state's four in a stack are
    the bits of its own pass on psi of shape (dim,).
    """
    images = obs.images(psi)
    means = (images @ psi.conj()[..., None])[..., 0].real
    # Centering the image vectors makes the Gram matrix the central-moment
    # matrix directly, avoiding the <X_i><X_j> cancellation that otherwise
    # dominates the error budget for strongly displaced states.
    centered = images - means[..., None] * psi[..., None, :]
    gram = centered.conj() @ centered.swapaxes(-2, -1)
    # G + conj(G^T) holds the IEEE sums Re G + Re G^T and Im G - Im G^T
    both = gram + gram.swapaxes(-2, -1).conj()
    sigma, comm = both.real / 2.0, both.imag / 2.0
    # one pass: a non-finite entry fails the sum, as do moments near the float range
    if not math.isfinite(np.add.reduce(sigma + comm, axis=None)):
        raise NumericError("the moments overflowed: sigma and C are not finite")
    return means, sigma, comm, centered

