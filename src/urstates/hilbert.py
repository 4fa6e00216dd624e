"""Truncated Hilbert-space plumbing: bases, labeled operators, state containers.

Conventions (dimensionless, hbar = 1):
    q = (a + a^dag)/sqrt(2),  p = (a - a^dag)/(i sqrt(2)),  [q, p] = i

su(1,1) discrete series D+(k), basis |k, k+n>, n = 0, 1, ...:
    K3|k,k+n> = (k+n)|k,k+n>
    K+|k,k+n> = sqrt((n+1)(2k+n)) |k,k+n+1>
    K1 = (K+ + K-)/2,  K2 = (K+ - K-)/(2i),  [K1, K2] = -i K3

su(2) spin j, basis |j,m>, m = -j..j (index 0 is m = -j):
    J+|j,m> = sqrt((j-m)(j+m+1)) |j,m+1>,  [J1, J2] = i J3

A basis is one of the four kinds in `_KIND_FIELDS`, which lists the fields
that define each.  Truncation honesty is tracked through tail-mass
certificates: the recorded tail of a state is the probability in the top
10% of the levels of each mode, and `check_tail` is the one gate on it.
"""

import math

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    BasisMismatchError,
    InvalidInputError,
    TruncationError,
    UnsupportedScaleError,
)

__all__ = [
    "BasisSpec",
    "Operator",
    "apply_bands",
    "StateVector",
    "check_tail",
    "boson_ladder",
    "su11_ladder",
    "hermitian_parts",
    "boson_rep",
    "su11_rep",
    "su2_rep",
    "tensor_rep",
    "fock_basis",
    "su11_basis",
    "su2_basis",
    "multimode_basis",
    "basis_state",
    "is_number",
    "DEFAULT_FOCK_CUTOFF",
    "DEFAULT_SU11_CUTOFF",
    "DEFAULT_MODE_CUTOFF",
]

DEFAULT_FOCK_CUTOFF = 128
DEFAULT_SU11_CUTOFF = 96
DEFAULT_MODE_CUTOFF = 20

#: fraction of top basis levels counted as "tail" in recorded certificates
TAIL_FRACTION = 0.1

#: residual below which a state counts as an exact eigenstate or minimizer
RESIDUAL_TOL = 1e-8

#: largest dimension a basis of any kind may have; a cutoff, a spin or a
#: per-mode cutoff that large is a bad input, not a request to allocate
MAX_BASIS_DIM = 1 << 16


def is_number(value, integer=False):
    """A Python or numpy real number, or with ``integer`` an integer, that is
    not a bool, though Python counts a bool as an int."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    return isinstance(value, kinds) and not isinstance(value, bool)


#: the fields that define each basis kind, in the order its document lists
#: them after "kind"; N >= 2 wherever it is listed
_KIND_FIELDS = {"fock": ("N",), "su11": ("N", "k"), "su2": ("j",), "multimode": ("N", "s")}


@dataclass(frozen=True)
class BasisSpec:
    """Identifies the ordered basis a matrix or amplitude vector lives in.

    kind is a key of `_KIND_FIELDS`.  N is the per-mode level count
    (fock/su11/multimode), k the Bargmann index (su11), j the spin (su2),
    s the mode count (multimode, always 2).  A field the kind does not
    list stays unset: s = 1 and the others None.
    """

    kind: str
    N: int | None = None
    k: float | None = None
    j: float | None = None
    s: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KIND_FIELDS:
            raise InvalidInputError(f"unknown basis kind {self.kind!r}")
        listed = _KIND_FIELDS[self.kind]
        for name in ("N", "k", "j", "s"):
            value, integer = getattr(self, name), name in ("N", "s")
            if value is None and name in listed:
                raise InvalidInputError(f"{self.kind} basis has no field {name!r}")
            if value is None:
                continue
            if not is_number(value, integer):
                raise InvalidInputError(f"{self.kind} basis field {name!r} must be "
                                        f"{'an integer' if integer else 'a real number'}, "
                                        f"got {value!r}")
            # a plain int or float, which to_dict and repr write alike for any type
            value = int(value) if integer else float(value)
            if name not in listed and (name, value) != ("s", 1):
                raise InvalidInputError(f"{self.kind} basis takes no field {name!r}, "
                                        f"got {value!r}")
            object.__setattr__(self, name, value)
        if "N" in listed and self.N < 2:
            raise InvalidInputError(f"basis {self.kind!r} needs N >= 2, got {self.N}")
        if self.kind == "su11" and not 0.0 < self.k < math.inf:
            raise InvalidInputError(
                f"su11 basis field 'k' needs a finite Bargmann index k > 0, got {self.k}")
        if self.kind == "su2" and MAX_BASIS_DIM < self.j < math.inf:  # before round(2j) overflows
            raise UnsupportedScaleError(f"su2 basis field 'j' = {self.j!r} exceeds MAX_BASIS_DIM")
        if self.kind == "su2" and not (0.0 < self.j < math.inf
                                       and round(2 * self.j) == 2 * self.j):
            raise InvalidInputError(f"su2 basis needs half-integer j > 0, got {self.j}")
        # s = 1 would be the Fock space under another name
        if self.kind == "multimode" and self.s != 2:
            raise UnsupportedScaleError(f"multimode basis supports s = 2 only, got s={self.s}")
        if self.dim > MAX_BASIS_DIM:
            raise UnsupportedScaleError(
                f"{self.kind} basis dimension {self.dim} exceeds MAX_BASIS_DIM={MAX_BASIS_DIM}"
            )

    @property
    def dim(self):
        if self.kind == "su2":
            return int(round(2 * self.j)) + 1
        return self.N ** self.s if self.kind == "multimode" else self.N

    @cached_property
    def _tail(self):
        """The recorded tail region as an index into flat amplitudes, built
        once: the top TAIL_FRACTION of each mode's levels, and none on su2,
        the complete (2j+1)-dimensional irrep, where nothing is truncated."""
        if self.kind == "su2":
            return slice(self.dim, None)
        start = int((1.0 - TAIL_FRACTION) * self.N)
        if self.kind != "multimode":
            return slice(start, None)
        per_mode = np.arange(self.N) >= start
        return np.logical_or.outer(per_mode, per_mode).ravel()

    def tail_mass(self, amp):
        """Probability of the flat amplitudes ``amp`` on the recorded tail
        region, squared there only."""
        return float(np.add.reduce(np.abs(amp[self._tail]) ** 2))

    def to_dict(self):
        return {"kind": self.kind,
                **{name: getattr(self, name) for name in _KIND_FIELDS[self.kind]}}

    @staticmethod
    def from_dict(d):
        if not isinstance(d, dict):
            raise InvalidInputError(
                f"basis document must be an object, got {type(d).__name__}"
            )
        kind = d.get("kind")
        fields = _KIND_FIELDS.get(kind, ()) if isinstance(kind, str) else ()
        basis = BasisSpec(kind, **{name: d.get(name) for name in fields})
        # to_dict writes the kind's fields only, so any other key is refused
        extra = sorted(d.keys() - {"kind", *fields})
        if extra:
            raise InvalidInputError(f"{kind} basis takes no field {extra[0]!r}, "
                                    f"got {d[extra[0]]!r}")
        return basis


def fock_basis(N=DEFAULT_FOCK_CUTOFF):
    return BasisSpec(kind="fock", N=N)


def su11_basis(k, N=DEFAULT_SU11_CUTOFF):
    return BasisSpec(kind="su11", k=k, N=N)


def su2_basis(j):
    return BasisSpec(kind="su2", j=j)


def multimode_basis(s, N=DEFAULT_MODE_CUTOFF):
    return BasisSpec(kind="multimode", s=s, N=N)


def apply_bands(bands, psi):
    """M psi for the operator M with ``bands`` {d: M[n, n+d]}: the sum over d
    of each band times psi shifted by d, on slices.  {1: c} is the lowering
    operator with ladder c, {-1: c} its adjoint.  The banded product of
    single operators and of the eigen-operators of `states`; the stacked
    product of an observable set is `moments.pad_bands`."""
    out = np.zeros(psi.shape, np.result_type(psi, *bands.values()))
    for d, band in bands.items():
        lo, hi = max(0, -d), psi.size - max(0, d)
        out[lo:hi] += band * psi[lo + d:hi + d]
    return out


@dataclass(frozen=True, eq=False)
class Operator:
    """A labeled observable on a basis, stored as its nonzero diagonals.

    ``bands`` maps an offset d to the entries M[i, i+d] in order along that
    diagonal (the layout of ``np.diagonal(M, d)``).  Every observable here is
    a low-order polynomial in ladder operators, so it has a handful of bands
    and `apply` costs O(N).  Shared sets hold it, so it is frozen; it equals only itself.
    """

    label: str
    bands: dict = field(repr=False)
    basis: BasisSpec

    def __post_init__(self):
        dim = self.basis.dim
        own = {}
        for d, band in self.bands.items():
            band = np.asarray(band)
            if abs(d) >= dim or band.shape != (dim - abs(d),):
                raise BasisMismatchError(f"operator {self.label!r}: band {d} has shape "
                                         f"{band.shape}, basis dim {dim}")
            # a float copy of its own: a caller that later changes its array
            # leaves the operator alone
            band = band.astype(np.result_type(np.float64, band))
            if not np.isfinite(band).all():
                raise InvalidInputError(f"operator {self.label!r} has non-finite entries")
            band.flags.writeable = False
            own[d] = band
        object.__setattr__(self, "bands", MappingProxyType(own))

    # no caller in the package: bench/test_oracles.py compares against it
    @cached_property
    def matrix(self):
        """The dense dim x dim matrix of the bands, read-only as they are."""
        dim = self.basis.dim
        mat = np.zeros((dim, dim), np.result_type(np.float64, *self.bands.values()))
        for d, band in self.bands.items():
            i = np.arange(dim - abs(d))
            if d >= 0:
                mat[i, i + d] = band
            else:
                mat[i - d, i] = band
        mat.flags.writeable = False
        return mat

    def apply(self, psi):
        """The product M psi, in O(dim x number of bands)."""
        psi = np.asarray(psi)
        if psi.shape != (self.basis.dim,):
            raise BasisMismatchError(f"operator {self.label!r}: vector shape {psi.shape} "
                                     f"does not match basis dim {self.basis.dim}")
        return apply_bands(self.bands, psi)

    def is_hermitian(self):
        """Band -d equals the conjugate of band +d to 1e-12 of the largest entry."""
        return self._hermitian

    @cached_property
    def _hermitian(self):
        bands = self.bands
        scale = max([1.0] + [float(np.abs(band).max(initial=0.0)) for band in bands.values()])
        return all(np.abs(band - np.conj(bands.get(-d, 0.0))).max() <= 1e-12 * scale
                   for d, band in bands.items())


@dataclass
class StateVector:
    """Normalized pure state with a recorded top-decile tail certificate."""

    amplitudes: np.ndarray
    basis: BasisSpec
    family: str | None = None
    params: dict = field(default_factory=dict)
    tail_mass: float = field(init=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.ndim != 1 or amp.size != self.basis.dim:
            raise BasisMismatchError(
                f"amplitude vector length {amp.size} does not match basis dim {self.basis.dim}"
            )
        # a BLAS dot product overflows to inf or nan without a numpy warning,
        # so nothing is squared before the norm is checked
        norm2 = float(np.vdot(amp, amp).real)
        if not abs(norm2 - 1.0) <= 1e-12:
            raise InvalidInputError(f"state not normalized: sum |a_n|^2 = {norm2!r}"
                                    if np.isfinite(amp).all() else "state amplitudes must be finite")
        self.amplitudes = amp
        self.tail_mass = self.basis.tail_mass(amp)

    @property
    def dim(self):
        return self.basis.dim


def check_tail(mass, max_tail, what):
    """Refuse a ``mass`` above ``max_tail`` (never for None) with a
    TruncationError whose message opens with ``what``, the name of the mass.
    A NaN bound, which ``mass > nan`` would let through, or a negative one
    is an InvalidInputError."""
    if max_tail is not None and not max_tail >= 0.0:
        raise InvalidInputError(f"max_tail must be None or >= 0, got {max_tail!r}")
    if max_tail is not None and mass > max_tail:
        raise TruncationError(f"{what} {mass:.3e} exceeds {max_tail:.1e}")


def edge_mass(amp, levels=2):
    """Probability on the top ``levels`` basis levels, where truncation bites."""
    return float(np.sum(np.abs(amp[-levels:]) ** 2))


def residual_bound(amp, basis, scale):
    """scale max(RESIDUAL_TOL, 50 sqrt(N m)), m the `edge_mass` of ``amp`` on
    its N levels, or 0 on an su(2) basis, which is the whole irrep: a state
    with mass near the cutoff cannot solve its truncated eigen-equation
    better, and rounding in the residual grows with the eigenvalue, which
    ``scale`` (>= 1) carries."""
    mass = 0.0 if basis.kind == "su2" else edge_mass(amp)
    return scale * max(RESIDUAL_TOL, 50.0 * math.sqrt(amp.size * mass))


def basis_state(basis, n):
    """The n-th basis vector as a StateVector."""
    if n < 0 or n >= basis.dim:
        raise InvalidInputError(f"basis level {n} out of range 0..{basis.dim - 1}")
    amp = np.zeros(basis.dim, dtype=np.complex128)
    amp[n] = 1.0
    return StateVector(amp, basis, family="basis", params={"n": int(n)})


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def boson_ladder(N):
    """Coefficients sqrt(n), n = 1..N-1, of a|n> = sqrt(n)|n-1>.

    They are the +1 band of a (and the -1 band of a^dag) on N Fock levels.
    """
    return np.sqrt(np.arange(1, N, dtype=float))


def su11_ladder(k, N):
    """Coefficients sqrt((n+1)(2k+n)), n = 0..N-2, of K-|k,k+n+1>.

    They are the +1 band of K- (and the -1 band of K+) on the lowest N
    weight levels of D+(k).
    """
    n = np.arange(N - 1, dtype=float)
    return np.sqrt((n + 1.0) * (2.0 * k + n))


def hermitian_parts(c, d, re_div, im_div):
    """Bands of (L + L^dag)/re_div and (L - L^dag)/im_div, where the real
    operator L carries c on band +d."""
    return {-d: c / re_div, d: c / re_div}, {-d: -c / im_div, d: c / im_div}


def _ladder_set(basis, names, c, d, re_div, im_div, diag):
    """The five operators L, L^dag, their two Hermitian parts and a diagonal
    one, labeled by ``names`` in that order."""
    re_part, im_part = hermitian_parts(c, d, re_div, im_div)
    bands = ({d: c}, {-d: c}, re_part, im_part, {0: diag})
    return [Operator(name, b, basis) for name, b in zip(names, bands)]


def boson_rep(N=DEFAULT_FOCK_CUTOFF):
    """Single-mode boson operators a, a^dag, q, p, n on an N-level Fock basis."""
    ops = _ladder_set(fock_basis(N), ("a", "adag", "q", "p", "n"),
                      boson_ladder(N), 1, np.sqrt(2.0), 1j * np.sqrt(2.0),
                      np.arange(N, dtype=float))
    return {op.label: op for op in ops}


def su11_rep(k, N=DEFAULT_SU11_CUTOFF):
    """Discrete-series D+(k) generators on the lowest N weight levels."""
    # K2 = (K+ - K-)/(2i) is the anti-Hermitian part of K- over -2i
    km, kp, k1, k2, k3 = _ladder_set(su11_basis(k, N), ("K-", "K+", "K1", "K2", "K3"),
                                     su11_ladder(k, N), 1, 2.0, -2j,
                                     k + np.arange(N, dtype=float))
    return {"kplus": kp, "kminus": km, "k1": k1, "k2": k2, "k3": k3}


def su2_rep(j):
    """Spin-j generators; the (2j+1)-dim rep is exact (no truncation)."""
    basis = su2_basis(j)
    m = -j + np.arange(basis.dim, dtype=float)
    # J-|j,m+1> = sqrt((j-m)(j+m+1)) |j,m>, m = -j..j-1
    c = np.sqrt((j - m[:-1]) * (j + m[:-1] + 1))
    jm, jp, j1, j2, j3 = _ladder_set(basis, ("J-", "J+", "J1", "J2", "J3"),
                                     c, 1, 2.0, -2j, m)
    return {"jplus": jp, "jminus": jm, "j1": j1, "j2": j2, "j3": j3}


def tensor_rep(N=DEFAULT_MODE_CUTOFF):
    """Mode-wise boson operators of two modes, each entry a list
    [op_mode1, op_mode2] on the N^2-dim product basis, ordered with mode 1
    as the slow (left) kron factor: a1 sits on band +N and a2 on band +1,
    so storage stays O(N^2).
    """
    basis = multimode_basis(2, N)
    c = boson_ladder(N)
    levels = np.arange(N, dtype=float)
    modes = (
        # a1 = a (x) 1 lowers the slow index: each coefficient repeats N times
        (N, np.repeat(c, N), np.repeat(levels, N)),
        # a2 = 1 (x) a lowers the fast index, and nothing crosses a block edge
        (1, np.tile(np.append(c, 0.0), N)[:-1], np.tile(levels, N)),
    )
    out = {"a": [], "adag": [], "q": [], "p": [], "n": []}
    for mu, (d, band, diag) in enumerate(modes, start=1):
        names = [f"{name}{mu}" for name in out]
        ops = _ladder_set(basis, names, band, d, np.sqrt(2.0), 1j * np.sqrt(2.0), diag)
        for name, op in zip(out, ops):
            out[name].append(op)
    return out
