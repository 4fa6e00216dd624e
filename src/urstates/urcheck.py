"""Uncertainty relations as signed gaps (LHS - RHS), with saturation flags.

Three pairwise relations of increasing precision are tracked per observable
pair, alongside the characteristic-coefficient family for n observables:

    sum:   (DX)^2 + (DY)^2 >= |<[X,Y]>|
    prod:  (DX)^2 (DY)^2   >= |<[X,Y]>|^2 / 4
    schr:  (DX)^2 (DY)^2 - (DXY)^2 >= |<[X,Y]>|^2 / 4

and for the full set, C_r(sigma) >= C_r(C) for r = 1..n, where C_r is the
sum of r x r principal minors (r = n is the Robertson determinant form).
Extended variants sum the moment matrices of several states entrywise
*before* taking coefficients — det of a sum is not the sum of dets, which
is what makes them genuinely new constraints.
"""

from dataclasses import dataclass
from math import comb, inf, isfinite

import numpy as np

from .errors import InvalidInputError, NumericError
from .matrixkit import _small_char_coeffs, char_coeffs
from .moments import ObservableSet, _kept_report, _pure_moments, check_state
from .moments import moment_report  # noqa: F401 - bench/spans.py wraps urcheck.moment_report

__all__ = [
    "PairGapRecord",
    "OrderGapRecord",
    "URReport",
    "char_ur_report",
    "two_state_schrodinger",
    "one_observable_two_state",
    "complementary",
]

#: relative tolerance at which the two sides of a relation count as equal
#: (saturated); the moments behind them come from banded products
SATURATION_RTOL = 1e-9

#: extended relations accept this many states at most
MAX_EXTENDED_STATES = 8


def _saturated(lhs, rhs, scale=0.0):
    # bool() keeps numpy scalars out of the records, which must stay
    # JSON-serializable as-is
    return bool(abs(lhs - rhs) <= SATURATION_RTOL * max(abs(lhs), abs(rhs), scale, 1e-30))


class PairGapRecord:
    """Sum, Heisenberg and Schrodinger gaps of one observable pair, from the
    floats sigma_ii, sigma_jj, sigma_ij and C_ij; the flags are computed when read."""

    __slots__ = ("labels", "sum_gap", "heis_gap", "schr_gap", "_moments")

    def __init__(self, s11, s22, s12, c12, labels):
        self.labels, self._moments = labels, (s11, s22, s12, c12)
        self.sum_gap = s11 + s22 - 2.0 * abs(c12)
        self.heis_gap = s11 * s22 - c12 * c12
        self.schr_gap = self.heis_gap - s12 * s12

    @property
    def saturated(self):
        s11, s22, s12, c12 = self._moments
        tr2 = s11 + s22
        prod_scale = (tr2 / 2.0) ** 2
        return {"sum": _saturated(tr2, 2.0 * abs(c12), tr2),
                "heis": _saturated(s11 * s22, c12 * c12, prod_scale),
                "schr": _saturated(s11 * s22 - s12 * s12, c12 * c12, prod_scale)}


class OrderGapRecord:
    """The order-r gap C_r(sigma) - C_r(C) of n observables; the flag, at the
    scale comb(n, r) (C_1(sigma)/n)^r, is computed when read."""

    __slots__ = ("r", "c_sigma", "c_comm", "gap", "_n", "_mean_var")

    def __init__(self, r, c_sigma, c_comm, n, mean_var):
        self.r, self.c_sigma, self.c_comm, self.gap = r, c_sigma, c_comm, c_sigma - c_comm
        self._n, self._mean_var = n, mean_var
        if not isfinite(self.gap):
            raise NumericError(f"order-{r} gap C_{r}(sigma) - C_{r}(C) is {self.gap!r}: "
                               f"its products of moments overflow")

    @property
    def saturated(self):
        scale = comb(self._n, self.r) * self._mean_var ** self.r
        return _saturated(self.c_sigma, self.c_comm, scale)


@dataclass
class URReport:
    observables: list
    order_gaps: dict
    pair_gaps: dict
    n_states: int


def char_ur_report(obs, states, max_tail=1e-8):
    """Characteristic-coefficient gaps C_r(sigma) - C_r(C) for r = 1..n.

    ``states`` is a single state or a sequence of 1..8; with several states
    the sigma and C matrices are summed entrywise first, which yields the
    state-extended inequalities.  Pairwise gap records for every observable
    pair (computed from the same summed matrices) ride along.  The states
    are checked one by one in order.  A single state's moments are those of
    the report it keeps (`moments._kept_report`), if any; else all come from
    one stacked pass, in which each state's sigma and C are the bits of its
    own report.
    """
    if obs.n < 2:
        raise InvalidInputError("characteristic relations need at least 2 observables")
    try:
        state_list = list(states)
    except TypeError:
        state_list = [states]
    if not 1 <= len(state_list) <= MAX_EXTENDED_STATES:
        raise InvalidInputError(f"extended relations accept 1..{MAX_EXTENDED_STATES} states, "
                                f"got {len(state_list)}")

    for st in state_list:
        check_state(st, obs.basis, max_tail)
    if len(state_list) == 1 and (rep := _kept_report(obs, state_list[0])) is not None:
        sigma, comm = rep.sigma, rep.commut
    else:
        stack = np.array([st.amplitudes for st in state_list])
        _means, sigma, comm, _centered = _pure_moments(obs, stack)
        sigma, comm = sigma.sum(axis=0), comm.sum(axis=0)
    return _ur_from_moments(obs.labels, sigma.tolist(), comm.tolist(), len(state_list))


def _ur_from_moments(labels, s, c, n_states):
    """The gap records of ``char_ur_report`` from the rows of already summed
    sigma and C, as nested lists of floats."""
    n = len(labels)
    if n <= 3:
        cs, cc = _small_char_coeffs(s), _small_char_coeffs(c)
    else:
        cs, cc = char_coeffs(np.array([s, c], dtype=complex)).real.tolist()
    mean_var = cs[1] / n
    order_gaps = {r: OrderGapRecord(r, cs[r], cc[r], n, mean_var) for r in range(1, n + 1)}
    pair_gaps = {
        (i, j): PairGapRecord(s[i][i], s[j][j], s[i][j], c[i][j], (labels[i], labels[j]))
        for i in range(n) for j in range(i + 1, n)
    }

    return URReport(list(labels), order_gaps, pair_gaps, n_states)


def two_state_schrodinger(X, Y, state1, state2):
    """Two-state precise relation: signed gap of

    (1/2)[DXX(1) DYY(2) + DXX(2) DYY(1)] >= DXY(1) DXY(2) + C12(1) C12(2)

    which reduces exactly to the single-state schr gap when the states
    coincide.  Both states are checked at `moment_report`'s tail bound; one
    stacked pass gives their moments and leaves the reports they keep alone.
    """
    obs = ObservableSet([X, Y])
    for st in (state1, state2):
        check_state(st, obs.basis, 1e-8)
    sigma, comm = _pure_moments(obs, np.array([state1.amplitudes, state2.amplitudes]))[1:3]
    (s1, s2), (c1, c2) = sigma, comm
    lhs = 0.5 * (s1[0, 0] * s2[1, 1] + s2[0, 0] * s1[1, 1])
    rhs = s1[0, 1] * s2[0, 1] + c1[0, 1] * c2[0, 1]
    return float(lhs - rhs)


def one_observable_two_state(X, state1, state2, max_tail=1e-8):
    """Schwarz-type relation for one observable and two pure states:

    <1|X^2|1><2|X^2|2> >= |<1|X^2|2>|^2   (gap returned signed).
    """
    for st in (state1, state2):
        check_state(st, X.basis, max_tail)
    if not X.is_hermitian():
        raise InvalidInputError(f"observable {X.label!r} is not Hermitian")
    y1 = X.apply(state1.amplitudes)
    y2 = X.apply(state2.amplitudes)
    e1 = float(np.vdot(y1, y1).real)
    e2 = float(np.vdot(y2, y2).real)
    cross = np.vdot(y1, y2)
    return e1 * e2 - abs(cross) ** 2


def complementary(report, r, alpha_r):
    """Complementary split of the order-r characteristic pair:

    P^2 = 1 - C_r(sigma)/alpha_r  (predictability),
    V^2 = C_r(C)/alpha_r          (commutator visibility),

    bounded by P^2 + V^2 <= 1 whenever alpha_r >= C_r(sigma).  Returns
    the pair (P^2, V^2).
    """
    if r not in report.order_gaps:
        raise InvalidInputError(f"report carries no order r={r}")
    rec = report.order_gaps[r]
    if not 0.0 < alpha_r < inf:
        raise InvalidInputError(f"scale alpha_r must be finite and positive, got {alpha_r}")
    if alpha_r < rec.c_sigma * (1.0 - 1e-12) - 1e-30:
        raise InvalidInputError(
            f"invalid scale: alpha_r={alpha_r:.6g} < C_{r}(sigma)={rec.c_sigma:.6g}"
        )
    p_sq = 1.0 - rec.c_sigma / alpha_r
    v_sq = rec.c_comm / alpha_r
    for name, val in (("P^2", p_sq), ("V^2", v_sq)):
        if val < -1e-12 or val > 1.0 + 1e-12:
            raise NumericError(f"{name}={val!r} escaped [0,1]")
    p_sq = min(max(p_sq, 0.0), 1.0)
    v_sq = min(max(v_sq, 0.0), 1.0)
    if p_sq + v_sq > 1.0 + 1e-12:
        raise NumericError(
            f"complementary pair violates P^2 + V^2 <= 1: {p_sq + v_sq!r}"
        )
    return p_sq, v_sq
