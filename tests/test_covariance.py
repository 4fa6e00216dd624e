"""The moment engine transforms with its observable set.

A permutation of a set's operators permutes the means, sigma and C and
relabels the pair records; the characteristic coefficients C_r(sigma) and
C_r(C), and so every order gap, do not move.  Nor do they under a rotation
of the set, X'_i = sum_j O_ij X_j with O orthogonal, which takes sigma and
C to O sigma O^T and O C O^T.  Unlike the bit-pinned tests,
which hold the engine to a re-implementation of its own arithmetic, these
hold it to the algebra: a layout out of step with the labels, or a band
that lands on the wrong operator, breaks them.

A rotation is built from the set's own bands, so a band that is wrong on
every side moves both sets alike.  The su(1,1) boost psi -> exp(-i eta K2) psi
is an exact group action instead: it takes sigma of (K1, K2, K3) to
L sigma L^T with L the Lorentz boost in the (K1, K3) plane, and keeps
det sigma, since det L = 1.
"""

from math import comb

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings, strategies as st

from urstates.hilbert import Operator, StateVector
from urstates.moments import ObservableSet, moment_report, observable_set
from urstates.states import su11_cs
from urstates.urcheck import char_ur_report

#: relative agreement asked of the permuted set; over every permutation of
#: each set below and 20 random states, the largest deviation is 1.0e-15
#: (on `canonical:2`; none on `canonical`)
RTOL = 1e-13

#: relative agreement asked of the rotated set, at the scale
#: max(|C_r(sigma)|, |C_r(C)|, C_1(sigma)^r); over the sets below, three
#: rotations each and stacks of 1, 2 and 8 states, the largest deviation is
#: 4.7e-16 (on `canonical:2`, two states, r = 1)
ROTATION_RTOL = 1e-12

#: relative agreement asked of the boost law sigma' = L sigma L^T, at the
#: scale max|sigma'|, and of det sigma and the order-3 gap, at the scale
#: max(|det sigma|, (C_1(sigma)/3)^3); over the states and boosts below the
#: largest deviations are 1.6e-14 and 6.0e-15
BOOST_RTOL = 1e-13

SETS = [("canonical", 24), ("canonical:2", 5), ("su11:0.5", 24), ("su11:1.75", 24),
        ("su2:1", None), ("su2:2.5", None)]


def _states(rng, basis, count):
    amps = rng.standard_normal((count, basis.dim)) + 1j * rng.standard_normal((count, basis.dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return [StateVector(amp, basis) for amp in amps]


def _assert_close(actual, expected, scale, rtol=RTOL):
    deviation = np.abs(np.asarray(actual) - np.asarray(expected)).max(initial=0.0)
    assert deviation <= rtol * scale, (deviation, scale)


def _assert_ur_permuted(ur, pur, perm):
    """``pur``, the report on the set permuted by ``perm``, has the orders of
    ``ur`` and its pair records relabelled."""
    n = len(perm)
    assert pur.observables == [ur.observables[i] for i in perm]
    assert pur.n_states == ur.n_states and list(pur.order_gaps) == list(ur.order_gaps)
    mean_var = ur.order_gaps[1].c_sigma / n
    for r, rec in ur.order_gaps.items():
        prec = pur.order_gaps[r]
        scale = max(abs(rec.c_sigma), abs(rec.c_comm), comb(n, r) * mean_var ** r)
        _assert_close([prec.c_sigma, prec.c_comm, prec.gap],
                      [rec.c_sigma, rec.c_comm, rec.gap], scale)
    scale = max(max(abs(g.sum_gap), abs(g.heis_gap)) for g in ur.pair_gaps.values())
    for (i, j), prec in pur.pair_gaps.items():
        # every gap is symmetric in the two observables of its pair
        rec = ur.pair_gaps[tuple(sorted((perm[i], perm[j])))]
        assert prec.labels == (ur.observables[perm[i]], ur.observables[perm[j]])
        _assert_close([prec.sum_gap, prec.heis_gap, prec.schr_gap],
                      [rec.sum_gap, rec.heis_gap, rec.schr_gap], max(scale, 1e-300))


@seed(25)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_permuted_set_permutes_the_moments_and_keeps_the_gaps(data):
    name, N = data.draw(st.sampled_from(SETS), label="set")
    obs = observable_set(name, N=N)
    perm = data.draw(st.permutations(range(obs.n)), label="perm")
    pobs = ObservableSet([obs.ops[i] for i in perm])
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="rng seed"))
    states = _states(rng, obs.basis, 2)

    for state in states:
        rep, prep = moment_report(obs, state, max_tail=None), moment_report(pobs, state, max_tail=None)
        assert prep.labels == [rep.labels[i] for i in perm]
        scale = max(np.abs(rep.sigma).max(), np.abs(rep.commut).max())
        _assert_close(prep.means, rep.means[perm], max(np.abs(rep.means).max(), scale))
        _assert_close(prep.sigma, rep.sigma[np.ix_(perm, perm)], scale)
        _assert_close(prep.commut, rep.commut[np.ix_(perm, perm)], scale)
        _assert_close([prep.sigma_min_eig, prep.robertson_min_eig],
                      [rep.sigma_min_eig, rep.robertson_min_eig], scale)
        _assert_ur_permuted(char_ur_report(obs, state, max_tail=None),
                            char_ur_report(pobs, state, max_tail=None), perm)
    _assert_ur_permuted(char_ur_report(obs, states, max_tail=None),
                        char_ur_report(pobs, states, max_tail=None), perm)


def _rotated(obs, rng):
    """The set X'_i = sum_j O_ij X_j for a random orthogonal O, built from
    the bands of ``obs``."""
    q, r = np.linalg.qr(rng.standard_normal((obs.n, obs.n)))
    orth = q * np.sign(np.diag(r))
    offsets = sorted({d for op in obs.ops for d in op.bands})
    ops = []
    for i, row in enumerate(orth):
        bands = {d: sum(w * op.bands[d] for w, op in zip(row, obs.ops) if d in op.bands)
                 for d in offsets}
        ops.append(Operator(f"X'{i}", bands, obs.basis))
    return ObservableSet(ops)


@pytest.mark.parametrize("n_states", [1, 2, 8])
@pytest.mark.parametrize("name,N", SETS)
def test_a_rotated_set_keeps_every_characteristic_coefficient(name, N, n_states):
    obs = observable_set(name, N=N)
    rng = np.random.default_rng([53, n_states, SETS.index((name, N))])
    for _ in range(3):
        robs = _rotated(obs, rng)
        states = _states(rng, obs.basis, n_states)
        ur = char_ur_report(obs, states, max_tail=None)
        rur = char_ur_report(robs, states, max_tail=None)
        assert list(rur.order_gaps) == list(ur.order_gaps) and rur.n_states == n_states
        c1 = ur.order_gaps[1].c_sigma
        for r, rec in ur.order_gaps.items():
            rrec = rur.order_gaps[r]
            _assert_close([rrec.c_sigma, rrec.c_comm, rrec.gap],
                          [rec.c_sigma, rec.c_comm, rec.gap],
                          max(abs(rec.c_sigma), abs(rec.c_comm), c1 ** r), ROTATION_RTOL)


@pytest.mark.parametrize("eta", [0.1, 0.3, 0.6])
@pytest.mark.parametrize("k", [0.5, 1.75])
def test_a_boost_transforms_sigma_as_the_group_does(k, eta):
    N = 400
    obs = observable_set(f"su11:{k!r}", N=N)
    boost = scipy.linalg.expm(-1j * eta * obs.ops[1].matrix)
    ch, sh = np.cosh(eta), np.sinh(eta)
    lorentz = np.array([[ch, 0.0, -sh], [0.0, 1.0, 0.0], [-sh, 0.0, ch]])
    rng = np.random.default_rng([59, int(4 * k), int(10 * eta)])
    # random states on the lowest 12 levels, and the coherent-state orbit
    # through the lowest weight, where the Robertson gap det sigma is 0
    amps = np.zeros((20, N), complex)
    amps[:, :12] = rng.standard_normal((20, 12)) + 1j * rng.standard_normal((20, 12))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    states = [StateVector(amp, obs.basis) for amp in amps]
    states += [su11_cs(xi, k, N=N) for xi in (0.0, 0.2, 0.3j, -0.25 + 0.1j)]
    for state in states:
        moved = StateVector(boost @ state.amplitudes, obs.basis)
        rep, mrep = moment_report(obs, state, max_tail=None), moment_report(obs, moved, max_tail=None)
        _assert_close(mrep.sigma, lorentz @ rep.sigma @ lorentz.T, np.abs(mrep.sigma).max(),
                      BOOST_RTOL)
        order3, morder3 = (char_ur_report(o, s, max_tail=None).order_gaps[3]
                           for o, s in ((obs, state), (obs, moved)))
        c1 = max(np.trace(rep.sigma), np.trace(mrep.sigma))
        _assert_close([morder3.c_sigma, morder3.gap], [order3.c_sigma, order3.gap],
                      max(abs(order3.c_sigma), (c1 / 3) ** 3), BOOST_RTOL)
