"""Signed uncertainty gaps, extended several-state forms, complementary split."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from urstates.cli import _report_document
from urstates.errors import (
    BasisMismatchError,
    InvalidInputError,
    NumericError,
    TruncationError,
)
from urstates.hilbert import (
    Operator,
    StateVector,
    basis_state,
    fock_basis,
    su11_basis,
)
from urstates.matrixkit import _small_char_coeffs, char_coeffs
from urstates.moments import ObservableSet, _kept_report, moment_report, observable_set
from urstates.states import canonical_ss, glauber, su2_cs, su11_cs
from urstates.urcheck import (
    MAX_EXTENDED_STATES,
    SATURATION_RTOL,
    _ur_from_moments,
    char_ur_report,
    complementary,
    one_observable_two_state,
    two_state_schrodinger,
)


def qp(N):
    obs = observable_set("canonical", N=N)
    return obs.ops[0], obs.ops[1]


def pair_ur_gaps(X, Y, state):
    """The pairwise gap record of (X, Y) in ``state``."""
    return char_ur_report(ObservableSet([X, Y]), state).pair_gaps[(0, 1)]


def test_vacuum_saturates_everything():
    q, p = qp(16)
    rec = pair_ur_gaps(q, p, basis_state(fock_basis(16), 0))
    assert rec.labels == ("q", "p")
    assert abs(rec.sum_gap) < 1e-12
    assert abs(rec.heis_gap) < 1e-12
    assert abs(rec.schr_gap) < 1e-12
    assert rec.saturated == {"sum": True, "heis": True, "schr": True}


def test_fock_level_gaps():
    q, p = qp(32)
    rec = pair_ur_gaps(q, p, basis_state(fock_basis(32), 1))
    # variances 3/2 each: sum gap 3 - 1 = 2, product gap 9/4 - 1/4 = 2
    assert rec.sum_gap == pytest.approx(2.0, abs=1e-12)
    assert rec.heis_gap == pytest.approx(2.0, abs=1e-12)
    assert not rec.saturated["sum"]


def test_squeezed_state_saturates_schrodinger_not_sum():
    q, p = qp(128)
    st = canonical_ss(0.4, math.cosh(0.8), math.sinh(0.8) * np.exp(0.9j),
                      N=128)
    rec = pair_ur_gaps(q, p, st)
    assert rec.saturated["schr"]
    assert rec.sum_gap > 1e-3


def test_char_report_orders_and_pairs():
    obs = observable_set("su11:0.5", N=48)
    rep = char_ur_report(obs, basis_state(su11_basis(0.5, 48), 0))
    assert sorted(rep.order_gaps) == [1, 2, 3]
    assert sorted(rep.pair_gaps) == [(0, 1), (0, 2), (1, 2)]
    # r = 1 compares tr sigma against tr C = 0
    assert rep.order_gaps[1].c_comm == 0.0
    assert rep.order_gaps[1].gap == pytest.approx(rep.order_gaps[1].c_sigma)
    assert rep.n_states == 1


def test_char_report_needs_two_observables():
    obs = observable_set("canonical", N=16)
    single = ObservableSet([obs.ops[0]])
    with pytest.raises(InvalidInputError):
        char_ur_report(single, basis_state(fock_basis(16), 0))


def test_extended_report_sums_matrices():
    obs = observable_set("canonical", N=64)
    s1 = glauber(0.5, N=64)
    s2 = glauber(-0.3j, N=64)
    both = char_ur_report(obs, [s1, s2])
    assert both.n_states == 2
    # two coherent states: sigma_sum = I, C_sum has entries +-1, so the
    # det-form gap is 1 - 1 = 0 (Glauber pairs saturate the extended form)
    assert both.order_gaps[2].gap == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        char_ur_report(obs, [])
    with pytest.raises(InvalidInputError):
        char_ur_report(obs, [s1] * 9)


REGISTRY = [("canonical", 32), ("canonical:2", 6), ("su11:0.5", 32), ("su11:1", 32),
            ("su2:1", None), ("su2:2.5", None), ("a2-quadratures", 32)]


def _random_states(rng, basis, count):
    amps = rng.standard_normal((count, basis.dim)) + 1j * rng.standard_normal((count, basis.dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return [StateVector(amp, basis) for amp in amps]


def _summed_report_loop(obs, states):
    """The per-state route: one moment report per state, summed, then gaps."""
    sigma = sum(moment_report(obs, st, max_tail=None).sigma for st in states)
    commut = sum(moment_report(obs, st, max_tail=None).commut for st in states)
    return sigma, commut, char_coeffs(sigma.astype(complex)).real, \
        char_coeffs(commut.astype(complex)).real


@pytest.mark.parametrize("name,N", REGISTRY)
def test_stacked_report_equals_the_summed_per_state_loop(name, N):
    obs = observable_set(name, N=N)
    rng = np.random.default_rng(23)
    for count in range(1, 9):
        states = _random_states(rng, obs.basis, count)
        rep = char_ur_report(obs, states, max_tail=None)
        sigma, commut, cs, cc = _summed_report_loop(obs, states)
        assert rep.n_states == count
        tol = 1e-14 * max(1.0, np.abs(sigma).max()) ** obs.n
        for r, rec in rep.order_gaps.items():
            assert abs(rec.c_sigma - cs[r]) <= tol
            assert abs(rec.c_comm - cc[r]) <= tol
        for (i, j), rec in rep.pair_gaps.items():
            s11, s22, s12, c12 = sigma[i, i], sigma[j, j], sigma[i, j], commut[i, j]
            scale = 1e-14 * max(1.0, s11, s22) ** 2
            assert abs(rec.sum_gap - (s11 + s22 - 2.0 * abs(c12))) <= scale
            assert abs(rec.schr_gap - (s11 * s22 - s12 ** 2 - c12 ** 2)) <= scale


@pytest.mark.parametrize("k", [0, 2, 4])
def test_list_errors_fire_on_the_kth_state(k):
    obs = observable_set("canonical", N=32)
    good = [glauber(0.1 * m, N=32) for m in range(5)]
    wrong_basis = good.copy()
    wrong_basis[k] = glauber(0.2, N=40)
    with pytest.raises(BasisMismatchError):
        char_ur_report(obs, wrong_basis)
    leaking = good.copy()
    leaking[k] = basis_state(obs.basis, 31)
    with pytest.raises(TruncationError):
        char_ur_report(obs, leaking)
    # states are checked in list order: the first offender decides the error
    both = good.copy()
    both[k] = basis_state(obs.basis, 31)
    both[-1] = glauber(0.2, N=40)
    expected = BasisMismatchError if k == len(both) - 1 else TruncationError
    with pytest.raises(expected):
        char_ur_report(obs, both)


def test_list_with_a_non_state_is_refused():
    obs = observable_set("su11:0.5", N=24)
    s1 = _random_states(np.random.default_rng(31), obs.basis, 1)[0]
    with pytest.raises(InvalidInputError):
        char_ur_report(obs, [s1, "not a state"], max_tail=None)


def _ur_repr(ur):
    """Every value of a UR report, flags included; repr tells -0.0 from 0.0."""
    return repr((ur.observables, ur.n_states,
                 [(r.r, r.c_sigma, r.c_comm, r.gap, r.saturated) for r in ur.order_gaps.values()],
                 [(g.labels, g.sum_gap, g.heis_gap, g.schr_gap, g.saturated)
                  for g in ur.pair_gaps.values()]))


def _fresh_ur(name, N, state):
    return _ur_repr(char_ur_report(observable_set(name, N=N), state, max_tail=None))


@pytest.mark.parametrize("name,N", REGISTRY)
def test_char_ur_report_reuses_the_moments_of_a_preceding_moment_report(moment_passes, name, N):
    obs = observable_set(name, N=N)
    st = _random_states(np.random.default_rng(41), obs.basis, 1)[0]
    expected = _fresh_ur(name, N, st)
    moment_passes.clear()
    moment_report(obs, st, max_tail=None)
    # one pass for both reports, and the same bits as a report on a fresh set
    assert _ur_repr(char_ur_report(obs, st, max_tail=None)) == expected
    assert _ur_repr(char_ur_report(obs, [st], max_tail=None)) == expected
    assert moment_passes == [(obs.basis.dim,)]


def test_the_moments_memo_misses_on_other_amplitudes(moment_passes):
    name, N = "su11:0.5", 24
    obs = observable_set(name, N=N)
    a, b, c = _random_states(np.random.default_rng(43), obs.basis, 3)
    expected = {"a": _fresh_ur(name, N, a), "b": _fresh_ur(name, N, b)}
    moment_passes.clear()
    moment_report(obs, a, max_tail=None)
    # another state, another set of the same observables
    assert _ur_repr(char_ur_report(obs, b, max_tail=None)) == expected["b"]
    char_ur_report(ObservableSet(obs.ops, name=obs.name), a, max_tail=None)
    assert len(moment_passes) == 3
    # the amplitudes of a cannot change in place, so its kept report is still served
    with pytest.raises(ValueError):
        a.amplitudes[:] = c.amplitudes
    with pytest.raises(ValueError):
        a.amplitudes.setflags(write=True)
    assert _ur_repr(char_ur_report(obs, a, max_tail=None)) == expected["a"]
    assert len(moment_passes) == 3
    # several states never read the memo
    moment_report(obs, b, max_tail=None)
    char_ur_report(obs, [b, b], max_tail=None)
    assert len(moment_passes) == 5


def test_a_write_to_the_array_a_state_was_given_never_reaches_it(moment_passes):
    obs = observable_set("su11:1.0", N=32)
    amp = su11_cs(0.3, 1.0, N=32).amplitudes.copy()
    st = StateVector(amp, obs.basis)
    before, tail = st.amplitudes.copy(), st.tail_mass
    rep = moment_report(obs, st)
    moment_passes.clear()
    # all of the mass, three times over, on the top level of the caller's array
    amp[:] = 0.0
    amp[-1] = 3.0
    assert np.array_equal(st.amplitudes, before)
    assert st.tail_mass == tail
    assert _kept_report(obs, st) is rep
    char_ur_report(obs, st)
    assert moment_passes == []


def test_the_moments_memo_is_kept_per_state_and_set(moment_passes):
    name, N = "su11:0.5", 24
    a_set = observable_set(name, N=N)
    b_set = ObservableSet(a_set.ops[:2])
    s, t = _random_states(np.random.default_rng(47), a_set.basis, 2)
    expected = {"s": _fresh_ur(name, N, s), "t": _fresh_ur(name, N, t)}
    moment_passes.clear()
    # a report of another state on the same set keeps the first state's moments
    moment_report(a_set, s, max_tail=None)
    moment_report(a_set, t, max_tail=None)
    assert _ur_repr(char_ur_report(a_set, s, max_tail=None)) == expected["s"]
    assert _ur_repr(char_ur_report(a_set, t, max_tail=None)) == expected["t"]
    assert len(moment_passes) == 2
    # a report of the same state on another set replaces them
    moment_report(b_set, s, max_tail=None)
    assert _ur_repr(char_ur_report(a_set, s, max_tail=None)) == expected["s"]
    assert len(moment_passes) == 4


def test_two_threads_on_one_shared_set_each_get_their_own_moments():
    # the shared set once kept the moments of whichever state was reported
    # last, so one thread's char_ur_report could carry the other's c_sigma
    obs = observable_set("su11:1.0", N=64)
    states = [su11_cs(0.3, 1.0, N=64), su11_cs(0.6j, 1.0, N=64)]
    expected = [char_ur_report(obs, st).order_gaps[3].c_sigma for st in states]
    checked, wrong = [0, 0], [0, 0]

    def rounds(i):
        for _ in range(10_000):
            moment_report(obs, states[i])
            wrong[i] += char_ur_report(obs, states[i]).order_gaps[3].c_sigma != expected[i]
            checked[i] += 1

    threads = [threading.Thread(target=rounds, args=(i,)) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert checked == [10_000, 10_000]
    assert wrong == [0, 0]


def test_the_moments_memo_keeps_the_tail_gate_of_char_ur_report():
    obs = observable_set("canonical", N=20)
    top = basis_state(obs.basis, 19)
    moment_report(obs, top, max_tail=None)
    with pytest.raises(TruncationError):
        char_ur_report(obs, top)
    assert char_ur_report(obs, top, max_tail=None).n_states == 1


def test_pure_reports_run_no_psd_eigensolve(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    obs = observable_set("su2:1")
    states = _random_states(np.random.default_rng(37), obs.basis, 4)
    char_ur_report(obs, states, max_tail=None)
    char_ur_report(obs, states[0], max_tail=None)
    assert calls == []
    moment_report(obs, states[0], max_tail=None)
    # both certificates come from one LAPACK call on [sigma, sigma + iC]
    assert calls == [(2, 3, 3)]
    # ...and for a pair of observables from the 2x2 closed form
    pair = observable_set("canonical", N=16)
    moment_report(pair, _random_states(np.random.default_rng(37), pair.basis, 1)[0],
                  max_tail=None)
    assert calls == [(2, 3, 3)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_non_finite_moments_are_refused(n):
    sigma, commut = np.eye(n), np.zeros((n, n))
    sigma[0, 0] = np.nan
    with pytest.raises(InvalidInputError, match="non-finite"):
        _ur_from_moments([f"x{i}" for i in range(n)], sigma, commut, 1)
    with pytest.raises(InvalidInputError, match="non-finite"):
        _ur_from_moments([f"x{i}" for i in range(n)], commut, sigma, 1)


def test_two_state_schrodinger_reduces_to_single():
    q, p = qp(96)
    st = canonical_ss(0.2, math.cosh(0.5), math.sinh(0.5), N=96)
    gap2 = two_state_schrodinger(q, p, st, st)
    rec = pair_ur_gaps(q, p, st)
    assert gap2 == pytest.approx(rec.schr_gap, abs=1e-12)


def test_two_state_schrodinger_positive_on_mismatched_pair():
    q, p = qp(96)
    narrow = canonical_ss(0.0, math.cosh(0.9), math.sinh(0.9), N=96)
    wide = canonical_ss(0.0, math.cosh(0.9), -math.sinh(0.9), N=96)
    assert two_state_schrodinger(q, p, narrow, wide) > 0.1


def test_two_state_schrodinger_keeps_the_reports_its_states_keep(moment_passes):
    obs = observable_set("canonical", N=96)
    a = canonical_ss(0.2, math.cosh(0.5), math.sinh(0.5), N=96)
    b = canonical_ss(0.0, math.cosh(0.9), -math.sinh(0.9), N=96)
    # the gap of the two states' own reports, on a set of their own
    r1, r2 = (moment_report(ObservableSet(obs.ops), st) for st in (a, b))
    want = float(0.5 * (r1.sigma[0, 0] * r2.sigma[1, 1] + r2.sigma[0, 0] * r1.sigma[1, 1])
                 - (r1.sigma[0, 1] * r2.sigma[0, 1] + r1.commut[0, 1] * r2.commut[0, 1]))
    kept = moment_report(obs, a)
    moment_passes.clear()
    assert two_state_schrodinger(*obs.ops, a, b) == want
    assert moment_passes == [(2, 96)]
    # a's report on obs survives, so the next char_ur_report makes no pass
    assert _kept_report(obs, a) is kept
    char_ur_report(obs, a)
    assert moment_passes == [(2, 96)]


def test_one_observable_two_state():
    q, _p = qp(64)
    s1 = glauber(0.4, N=64)
    assert one_observable_two_state(q, s1, s1) == pytest.approx(0.0, abs=1e-12)
    s2 = glauber(1.2j, N=64)
    assert one_observable_two_state(q, s1, s2) >= -1e-12
    with pytest.raises(BasisMismatchError):
        one_observable_two_state(q, s1, glauber(0.4, N=48))
    # the relation is defined for states, not bare amplitude arrays
    with pytest.raises(InvalidInputError):
        one_observable_two_state(q, s1.amplitudes, s1)


def test_one_observable_two_state_checks_hermiticity_once(monkeypatch):
    # the bands are read-only, so the verdict of one operator cannot change
    shared, _p = qp(32)
    q = Operator("q", dict(shared.bands), shared.basis)
    prop = Operator.__dict__["_hermitian"]
    verdict, calls = prop.func, []
    monkeypatch.setattr(prop, "func", lambda op: calls.append(op) or verdict(op))
    s1, s2 = glauber(0.4, N=32), glauber(0.3j, N=32)
    gaps = {one_observable_two_state(q, s1, s2) for _ in range(100)}
    assert calls == [q] and len(gaps) == 1


def test_one_observable_rejects_non_hermitian():
    obs = observable_set("canonical", N=16)
    bad = Operator("a-ish", {d: np.ones(16 - d) for d in range(1, 16)}, obs.basis)
    with pytest.raises(InvalidInputError):
        one_observable_two_state(bad, basis_state(fock_basis(16), 0),
                                 basis_state(fock_basis(16), 1))


def test_tail_gate_applies():
    q, p = qp(20)
    top = basis_state(fock_basis(20), 19)
    with pytest.raises(TruncationError):
        pair_ur_gaps(q, p, top)


def test_complementary_split_spin_half():
    # spin-1/2 coherent states have C_2(sigma) = C_2(C) = 1/16 exactly, so
    # the order-2 split at alpha = C_2(sigma) is an exact partition of one
    obs = observable_set("su2:0.5")
    st = su2_cs(0.7 + 0.2j, 0.5)
    rep = char_ur_report(obs, st)
    alpha = rep.order_gaps[2].c_sigma
    p_sq, v_sq = complementary(rep, 2, alpha)
    assert p_sq + v_sq == pytest.approx(1.0, abs=1e-12)


def test_complementary_with_slack_scale():
    obs = observable_set("su2:0.5")
    rep = char_ur_report(obs, su2_cs(0.4, 0.5))
    alpha = 2.0 * rep.order_gaps[2].c_sigma
    p_sq, v_sq = complementary(rep, 2, alpha)
    assert p_sq + v_sq <= 1.0 + 1e-12
    assert p_sq == pytest.approx(0.5, abs=1e-10)


def test_complementary_validation():
    obs = observable_set("su2:0.5")
    rep = char_ur_report(obs, su2_cs(0.4, 0.5))
    with pytest.raises(InvalidInputError):
        complementary(rep, 5, 1.0)
    for alpha in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            complementary(rep, 2, alpha)
    with pytest.raises(InvalidInputError):
        complementary(rep, 2, rep.order_gaps[2].c_sigma / 2.0)


def test_complementary_refuses_a_predictability_outside_the_unit_interval():
    # a hand-built sigma that is not PSD: C_2(sigma) = 1 - 4 < 0, so P^2 = 4
    rep = _ur_from_moments(["x", "y"], np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2)), 1)
    with pytest.raises(NumericError, match=r"escaped \[0,1\]"):
        complementary(rep, 2, 1.0)



# -- the several-state relations at every m -----------------------------------

#: every number of states above one that the extended relations accept
_SEVERAL = range(2, MAX_EXTENDED_STATES + 1)


def _assert_complementary_holds(rep, orders):
    """P^2 + V^2 <= 1 at alpha_r = C_r(sigma) for each order; returns the sums."""
    sums = {}
    for r in orders:
        p_sq, v_sq = complementary(rep, r, rep.order_gaps[r].c_sigma)
        assert p_sq + v_sq <= 1.0
        sums[r] = p_sq + v_sq
    return sums


@pytest.mark.parametrize("name,N", [("canonical", 32), ("su11:0.5", 32), ("su2:1", None)])
def test_several_random_states_keep_every_order(name, N):
    obs = observable_set(name, N=N)
    rng = np.random.default_rng(3)
    for m in _SEVERAL:
        rep = char_ur_report(obs, _random_states(rng, obs.basis, m), max_tail=None)
        assert rep.n_states == m
        for rec in rep.order_gaps.values():
            assert rec.gap >= -SATURATION_RTOL * rec.c_sigma
        _assert_complementary_holds(rep, rep.order_gaps)


@pytest.mark.parametrize("r", [0.2, 0.5, 0.9])
def test_squeezed_states_of_one_pair_saturate_order_2_at_every_m(r):
    # sigma and C of a squeezed state depend on (u, v) alone, so m states
    # that share them and differ in alpha sum to m (sigma, C), and C_2 scales
    # both sides by m^2: the set is as tight as each of its states
    obs = observable_set("canonical", N=128)
    rng = np.random.default_rng(3)
    u, v = math.cosh(r), math.sinh(r)
    for m in _SEVERAL:
        alphas = 0.5 * rng.uniform(0, 1, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        assert len(set(alphas)) == m
        states = [canonical_ss(alpha, u, v, N=128) for alpha in alphas]
        rep = char_ur_report(obs, states)
        rec = rep.order_gaps[2]
        assert rec.saturated
        assert abs(rec.gap) <= 1e-13 * rec.c_sigma
        one = char_ur_report(obs, states[0]).order_gaps[2]
        assert rec.c_sigma == pytest.approx(m ** 2 * one.c_sigma, rel=1e-13)
        assert _assert_complementary_holds(rep, [2])[2] == pytest.approx(1.0, abs=1e-8)


def test_distinct_su11_coherent_states_do_not_saturate_at_any_m():
    # each state alone saturates orders 2 and 3; a sum of distinct ones does not
    obs = observable_set("su11:1", N=200)
    rng = np.random.default_rng(3)
    for m in _SEVERAL:
        xis = 0.5 * rng.uniform(0, 1, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        assert len(set(xis)) == m
        states = [su11_cs(xi, 1.0, N=200) for xi in xis]
        alone = char_ur_report(obs, states[0])
        rep = char_ur_report(obs, states)
        for r in (2, 3):
            assert alone.order_gaps[r].saturated
            rec = rep.order_gaps[r]
            assert not rec.saturated
            assert rec.gap >= 0.01 * rec.c_sigma
        _assert_complementary_holds(rep, rep.order_gaps)


def test_report_json_shape():
    obs = observable_set("canonical", N=32)
    st = glauber(0.3, N=32)
    doc = _report_document(st, obs, moment_report(obs, st), char_ur_report(obs, st),
                           None, None)["ur"]
    assert set(doc) == {"observables", "n_states", "orders", "pairs"}
    assert set(doc["orders"]) == {"1", "2"}
    assert set(doc["pairs"]) == {"0,1"}
    assert doc["pairs"]["0,1"]["saturated"]["schr"] is True


# -- gap records against the formulas they replaced ---------------------------

def _dataclass_era_records(labels, sigma, commut):
    """The order and pair documents as the frozen-dataclass records built
    them: every gap and flag computed up front, from the same floats."""
    def saturated(lhs, rhs, scale=0.0):
        return bool(abs(lhs - rhs) <= SATURATION_RTOL * max(abs(lhs), abs(rhs), scale, 1e-30))

    n = len(labels)
    s, c = sigma.tolist(), commut.tolist()
    if n <= 3:
        cs, cc = _small_char_coeffs(s), _small_char_coeffs(c)
    else:
        cs, cc = char_coeffs(np.stack([sigma, commut]).astype(complex)).real.tolist()
    mean_var = cs[1] / n
    orders = {}
    for r in range(1, n + 1):
        scale = math.comb(n, r) * mean_var ** r
        orders[str(r)] = {"c_sigma": cs[r], "c_comm": cc[r], "gap": cs[r] - cc[r],
                          "saturated": saturated(cs[r], cc[r], scale)}
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            s11, s22, s12, c12 = s[i][i], s[j][j], s[i][j], c[i][j]
            tr2 = s11 + s22
            heis_gap = s11 * s22 - c12 * c12
            prod_scale = (tr2 / 2.0) ** 2
            pairs[f"{i},{j}"] = {
                "labels": [labels[i], labels[j]],
                "sum_gap": float(tr2 - 2.0 * abs(c12)),
                "heis_gap": float(heis_gap),
                "schr_gap": float(heis_gap - s12 * s12),
                "saturated": {
                    "sum": saturated(tr2, 2.0 * abs(c12), tr2),
                    "heis": saturated(s11 * s22, c12 * c12, prod_scale),
                    "schr": saturated(s11 * s22 - s12 * s12, c12 * c12, prod_scale),
                },
            }
    return orders, pairs


def _assert_records_match(labels, sigma, commut):
    rep = _ur_from_moments(labels, sigma, commut, 1)
    orders, pairs = _dataclass_era_records(labels, sigma, commut)
    for r, rec in rep.order_gaps.items():
        want = orders[str(r)]
        assert rec.r == r
        assert (rec.c_sigma, rec.c_comm, rec.gap) == (want["c_sigma"], want["c_comm"], want["gap"])
        assert rec.saturated is want["saturated"]
    for (i, j), rec in rep.pair_gaps.items():
        want = pairs[f"{i},{j}"]
        assert rec.labels == tuple(want["labels"])
        assert (rec.sum_gap, rec.heis_gap, rec.schr_gap) == \
            (want["sum_gap"], want["heis_gap"], want["schr_gap"])
        assert rec.saturated == want["saturated"]


_ENTRY = strategies.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(strategies.integers(2, 4), strategies.lists(_ENTRY, min_size=16, max_size=16),
       strategies.lists(_ENTRY, min_size=16, max_size=16))
def test_gap_records_equal_the_dataclass_formulas(n, a, b):
    A = np.array(a[:n * n]).reshape(n, n)
    B = np.array(b[:n * n]).reshape(n, n)
    labels = [f"x{i}" for i in range(n)]
    _assert_records_match(labels, A + A.T, B - B.T)


@pytest.mark.parametrize("name,N,build", [
    ("canonical", 64, lambda b: glauber(0.3 - 0.2j, N=64)),
    ("canonical", 128, lambda b: canonical_ss(0.4, 1.25, 0.75, N=128)),
    ("su2:1", None, lambda b: su2_cs(0.4, 1.0)),
    ("su11:0.5", 48, lambda b: basis_state(b, 0)),
    ("su11:0.5", 48, lambda b: basis_state(b, 3)),
])
def test_gap_records_equal_the_dataclass_formulas_where_they_saturate(name, N, build):
    obs = observable_set(name, N=N)
    rep = moment_report(obs, build(obs.basis), max_tail=None)
    _assert_records_match(obs.labels, rep.sigma, rep.commut)
