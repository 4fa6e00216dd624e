"""The moment engine transforms with its observable set.

A permutation of a set's operators permutes the means, sigma and C and
relabels the pair records; the characteristic coefficients C_r(sigma) and
C_r(C), and so every order gap, do not move.  Unlike the bit-pinned tests,
which hold the engine to a re-implementation of its own arithmetic, these
hold it to the algebra: a layout out of step with the labels, or a band
that lands on the wrong operator, breaks them.
"""

from math import comb

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from urstates.hilbert import StateVector
from urstates.moments import ObservableSet, moment_report, observable_set
from urstates.urcheck import char_ur_report

#: relative agreement asked of the permuted set; over every permutation of
#: each set below and 20 random states, the largest deviation is 1.0e-15
#: (on `canonical:2`; none on `canonical`)
RTOL = 1e-13

SETS = [("canonical", 24), ("canonical:2", 5), ("su11:0.5", 24), ("su11:1.75", 24),
        ("su2:1", None), ("su2:2.5", None)]


def _states(rng, basis, count):
    amps = rng.standard_normal((count, basis.dim)) + 1j * rng.standard_normal((count, basis.dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return [StateVector(amp, basis) for amp in amps]


def _assert_close(actual, expected, scale):
    deviation = np.abs(np.asarray(actual) - np.asarray(expected)).max(initial=0.0)
    assert deviation <= RTOL * scale, (deviation, scale)


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
