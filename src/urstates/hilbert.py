"""Truncated Hilbert-space plumbing: bases, labeled operators, state containers.

Conventions (dimensionless, hbar = 1):
    q = (a + a^dag)/sqrt(2),  p = (a - a^dag)/(i sqrt(2)),  [q, p] = i

su(1,1) discrete series D+(k), basis |k, k+n>, n = 0, 1, ...:
    K3|k,k+n> = (k+n)|k,k+n>
    K+|k,k+n> = sqrt((n+1)(2k+n)) |k,k+n+1>
    K1 = (K+ + K-)/2,  K2 = (K+ - K-)/(2i),  [K1, K2] = -i K3

su(2) spin j, basis |j,m>, m = -j..j (index 0 is m = -j):
    J+|j,m> = sqrt((j-m)(j+m+1)) |j,m+1>,  [J1, J2] = i J3

Truncation honesty is tracked through tail-mass certificates: the recorded
tail of a state is the probability sitting in the top 10% of basis levels.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BasisMismatchError,
    InvalidInputError,
    UnsupportedScaleError,
)

__all__ = [
    "BasisSpec",
    "Operator",
    "StateVector",
    "DensityMatrix",
    "boson_rep",
    "su11_rep",
    "su11_boson_rep",
    "su11_sector_indices",
    "su2_rep",
    "tensor_rep",
    "tail_mass",
    "fock_basis",
    "su11_basis",
    "su2_basis",
    "multimode_basis",
    "basis_state",
    "DEFAULT_FOCK_CUTOFF",
    "DEFAULT_SU11_CUTOFF",
    "DEFAULT_MODE_CUTOFF",
]

DEFAULT_FOCK_CUTOFF = 128
DEFAULT_SU11_CUTOFF = 96
DEFAULT_MODE_CUTOFF = 20

#: fraction of top basis levels counted as "tail" in recorded certificates
TAIL_FRACTION = 0.1


@dataclass(frozen=True)
class BasisSpec:
    """Identifies the ordered basis a matrix or amplitude vector lives in.

    kind is one of 'fock', 'su11', 'su2', 'multimode'.  N is the per-mode
    level count (fock/su11/multimode), k the Bargmann index (su11), j the
    spin (su2), s the mode count (multimode).
    """

    kind: str
    N: int | None = None
    k: float | None = None
    j: float | None = None
    s: int = 1

    def __post_init__(self):
        if self.kind not in ("fock", "su11", "su2", "multimode"):
            raise InvalidInputError(f"unknown basis kind {self.kind!r}")
        if self.kind in ("fock", "su11", "multimode"):
            if self.N is None or self.N < 2:
                raise InvalidInputError(f"basis {self.kind!r} needs N >= 2, got {self.N}")
        if self.kind == "su11":
            if self.k is None or self.k <= 0:
                raise InvalidInputError(f"su11 basis needs Bargmann index k > 0, got {self.k}")
        if self.kind == "su2":
            if self.j is None or self.j <= 0 or round(2 * self.j) != 2 * self.j:
                raise InvalidInputError(f"su2 basis needs half-integer j > 0, got {self.j}")
        if self.kind == "multimode" and self.s not in (1, 2):
            raise UnsupportedScaleError(f"multimode basis supports s in {{1,2}}, got s={self.s}")

    @property
    def dim(self):
        if self.kind == "fock":
            return self.N
        if self.kind == "su11":
            return self.N
        if self.kind == "su2":
            return int(round(2 * self.j)) + 1
        return self.N ** self.s

    def tail_start(self):
        """First flat index counted as tail (per mode for multimode).

        An su(2) basis is the complete (2j+1)-dimensional irrep — nothing is
        truncated — so its tail window is empty and tail mass is identically
        zero.
        """
        if self.kind == "su2":
            return self.dim
        if self.kind == "multimode":
            return int((1.0 - TAIL_FRACTION) * self.N)
        return int((1.0 - TAIL_FRACTION) * self.dim)

    def tail_index_mask(self):
        """Boolean mask over flat indices marking the recorded tail region."""
        if self.kind != "multimode":
            mask = np.zeros(self.dim, dtype=bool)
            mask[self.tail_start():] = True
            return mask
        cut = self.tail_start()
        per_mode = np.arange(self.N) >= cut
        mask = per_mode.copy()
        for _ in range(self.s - 1):
            mask = np.logical_or.outer(mask, per_mode).ravel()
        return mask

    def to_dict(self):
        d = {"kind": self.kind}
        if self.kind in ("fock", "su11", "multimode"):
            d["N"] = int(self.N)
        if self.kind == "su11":
            d["k"] = float(self.k)
        if self.kind == "su2":
            d["j"] = float(self.j)
        if self.kind == "multimode":
            d["s"] = int(self.s)
        return d

    @staticmethod
    def from_dict(d):
        if not isinstance(d, dict):
            raise InvalidInputError(
                f"basis document must be an object, got {type(d).__name__}"
            )
        kind = d.get("kind")
        if kind == "fock":
            return fock_basis(int(d["N"]))
        if kind == "su11":
            return su11_basis(float(d["k"]), int(d["N"]))
        if kind == "su2":
            return su2_basis(float(d["j"]))
        if kind == "multimode":
            return multimode_basis(int(d.get("s", 2)), int(d["N"]))
        raise InvalidInputError(f"unknown basis kind {kind!r}")


def fock_basis(N=DEFAULT_FOCK_CUTOFF):
    return BasisSpec(kind="fock", N=N)


def su11_basis(k, N=DEFAULT_SU11_CUTOFF):
    return BasisSpec(kind="su11", k=k, N=N)


def su2_basis(j):
    return BasisSpec(kind="su2", j=j)


def multimode_basis(s, N=DEFAULT_MODE_CUTOFF):
    return BasisSpec(kind="multimode", s=s, N=N)


@dataclass
class Operator:
    """A labeled dense matrix tied to a basis."""

    label: str
    matrix: np.ndarray
    basis: BasisSpec

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if self.matrix.shape != (self.basis.dim, self.basis.dim):
            raise BasisMismatchError(
                f"operator {self.label!r}: matrix shape {self.matrix.shape} does not "
                f"match basis dim {self.basis.dim}"
            )

    def is_hermitian(self, tol=1e-12):
        scale = max(1.0, np.abs(self.matrix).max())
        return np.abs(self.matrix - self.matrix.conj().T).max() <= tol * scale


def tail_mass(amplitudes, m):
    """Sum of |amplitude|^2 from flat index m upward."""
    a = np.asarray(amplitudes)
    if m < 0 or m > a.size:
        raise InvalidInputError(f"tail index {m} out of range 0..{a.size}")
    return float(np.sum(np.abs(a[m:]) ** 2))


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
        norm2 = float(np.sum(np.abs(amp) ** 2))
        if not np.isfinite(norm2):
            raise InvalidInputError("state amplitudes must be finite")
        if abs(norm2 - 1.0) > 1e-12:
            raise InvalidInputError(f"state not normalized: sum |a_n|^2 = {norm2!r}")
        self.amplitudes = amp
        self.tail_mass = float(np.sum(np.abs(amp[self.basis.tail_index_mask()]) ** 2))

    @property
    def dim(self):
        return self.basis.dim


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, PSD (to tolerance) mixed state."""

    matrix: np.ndarray
    basis: BasisSpec
    tail_mass: float = field(init=False)

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=np.complex128)
        if rho.shape != (self.basis.dim, self.basis.dim):
            raise BasisMismatchError(
                f"density matrix shape {rho.shape} does not match basis dim {self.basis.dim}"
            )
        scale = max(1.0, np.abs(rho).max())
        if np.abs(rho - rho.conj().T).max() > 1e-12 * scale:
            raise InvalidInputError("density matrix is not Hermitian within 1e-12")
        tr = np.trace(rho)
        if abs(tr - 1.0) > 1e-12:
            raise InvalidInputError(f"density matrix trace {tr!r} != 1")
        lam_min = float(np.linalg.eigvalsh(rho)[0])
        if lam_min < -1e-10:
            raise InvalidInputError(f"density matrix has negative eigenvalue {lam_min:.3e}")
        self.matrix = rho
        diag = np.real(np.diag(rho))
        self.tail_mass = float(np.sum(diag[self.basis.tail_index_mask()]))

    @property
    def dim(self):
        return self.basis.dim


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

def _annihilation(N):
    a = np.zeros((N, N))
    for n in range(1, N):
        a[n - 1, n] = np.sqrt(n)
    return a


def boson_rep(N=DEFAULT_FOCK_CUTOFF):
    """Single-mode boson operators a, a^dag, q, p, n on an N-level Fock basis."""
    basis = fock_basis(N)
    a = _annihilation(N)
    ad = a.T.copy()
    q = (a + ad) / np.sqrt(2.0)
    p = (a - ad) / (1j * np.sqrt(2.0))
    num = ad @ a
    return {
        "a": Operator("a", a, basis),
        "adag": Operator("adag", ad, basis),
        "q": Operator("q", q, basis),
        "p": Operator("p", p, basis),
        "n": Operator("n", num, basis),
    }


def su11_rep(k, N=DEFAULT_SU11_CUTOFF):
    """Discrete-series D+(k) generators on the lowest N weight levels."""
    basis = su11_basis(k, N)
    kp = np.zeros((N, N))
    for n in range(N - 1):
        kp[n + 1, n] = np.sqrt((n + 1) * (2 * k + n))
    km = kp.T.copy()
    k3 = np.diag(k + np.arange(N, dtype=float))
    k1 = (kp + km) / 2.0
    k2 = (kp - km) / 2j
    return {
        "kplus": Operator("K+", kp, basis),
        "kminus": Operator("K-", km, basis),
        "k1": Operator("K1", k1, basis),
        "k2": Operator("K2", k2, basis),
        "k3": Operator("K3", k3, basis),
    }


def su11_sector_indices(k, N_fock):
    """Fock indices of the parity sector carrying D+(k) for k in {1/4, 3/4}."""
    if k == 0.25:
        return np.arange(0, N_fock, 2)
    if k == 0.75:
        return np.arange(1, N_fock, 2)
    raise InvalidInputError(f"one-mode bosonic realization exists for k in {{1/4, 3/4}}, got k={k}")


def su11_boson_rep(k, N_fock=DEFAULT_FOCK_CUTOFF):
    """One-mode bosonic realization K- = a^2/2, K+ = a^dag^2/2, K3 = n/2 + 1/4.

    Returned matrices live on the full Fock basis; restricted to the even
    (k=1/4) or odd (k=3/4) sector they reproduce su11_rep entrywise.
    """
    su11_sector_indices(k, N_fock)  # validates k
    ops = boson_rep(N_fock)
    a = ops["a"].matrix
    ad = ops["adag"].matrix
    basis = ops["a"].basis
    kp = ad @ ad / 2.0
    km = a @ a / 2.0
    k3 = (ad @ a) / 2.0 + 0.25 * np.eye(N_fock)
    k1 = (kp + km) / 2.0
    k2 = (kp - km) / 2j
    return {
        "kplus": Operator("K+", kp, basis),
        "kminus": Operator("K-", km, basis),
        "k1": Operator("K1", k1, basis),
        "k2": Operator("K2", k2, basis),
        "k3": Operator("K3", k3, basis),
    }


def su2_rep(j):
    """Spin-j generators; the (2j+1)-dim rep is exact (no truncation)."""
    basis = su2_basis(j)
    dim = basis.dim
    m = -j + np.arange(dim, dtype=float)
    jp = np.zeros((dim, dim))
    for i in range(dim - 1):
        jp[i + 1, i] = np.sqrt((j - m[i]) * (j + m[i] + 1))
    jm = jp.T.copy()
    j3 = np.diag(m)
    j1 = (jp + jm) / 2.0
    j2 = (jp - jm) / 2j
    return {
        "jplus": Operator("J+", jp, basis),
        "jminus": Operator("J-", jm, basis),
        "j1": Operator("J1", j1, basis),
        "j2": Operator("J2", j2, basis),
        "j3": Operator("J3", j3, basis),
    }


def tensor_rep(s, N=DEFAULT_MODE_CUTOFF):
    """Mode-wise boson operators for s modes (s = 1 or 2).

    For s = 2 each entry is a list [op_mode1, op_mode2] on the N^2-dim
    product basis, ordered with mode 1 as the slow (left) kron factor.
    """
    if s == 1:
        return boson_rep(N)
    if s != 2:
        raise UnsupportedScaleError(f"tensor_rep supports s in {{1,2}}, got s={s}")
    basis = multimode_basis(2, N)
    a = _annihilation(N)
    eye = np.eye(N)
    mats_a = [np.kron(a, eye), np.kron(eye, a)]
    out = {"a": [], "adag": [], "q": [], "p": [], "n": []}
    for mu, am in enumerate(mats_a, start=1):
        ad = am.T.conj()
        out["a"].append(Operator(f"a{mu}", am, basis))
        out["adag"].append(Operator(f"adag{mu}", ad, basis))
        out["q"].append(Operator(f"q{mu}", (am + ad) / np.sqrt(2.0), basis))
        out["p"].append(Operator(f"p{mu}", (am - ad) / (1j * np.sqrt(2.0)), basis))
        out["n"].append(Operator(f"n{mu}", ad @ am, basis))
    return out
