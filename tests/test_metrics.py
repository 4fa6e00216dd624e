"""Observable-weighted overlap g and the distance D^2 = 2(1 - g)."""

import math

import numpy as np
import pytest

from urstates.errors import BasisMismatchError, InvalidInputError, TruncationError
from urstates.hilbert import (
    Operator,
    StateVector,
    basis_state,
    boson_rep,
    fock_basis,
    su11_basis,
    su11_rep,
)
from urstates.metrics import _min_eig, g_overlap, number_plus_one
from urstates.moments import observable_set
from urstates.urcheck import one_observable_two_state
from urstates.states import glauber, squeezed_fock


def n_plus_one(N):
    basis = fock_basis(N)
    return Operator("n+1", {0: np.arange(N) + 1.0}, basis)


def test_identity_overlap_matches_coherent_formula():
    a, b = 0.6 - 0.1j, -0.2 + 0.5j
    res = g_overlap(glauber(a, N=64), glauber(b, N=64))
    assert res.observable_label == "identity"
    assert res.g == pytest.approx(math.exp(-abs(a - b) ** 2 / 2.0), rel=1e-10)
    assert res.D_sq == pytest.approx(2.0 * (1.0 - res.g), abs=1e-15)


def test_self_distance_is_zero():
    st = glauber(0.8, N=64)
    res = g_overlap(st, st)
    assert res.g == pytest.approx(1.0, abs=1e-15)
    assert res.D_sq < 1e-14
    weighted = g_overlap(st, st, n_plus_one(64))
    assert weighted.g == pytest.approx(1.0, abs=1e-15)
    assert weighted.D_sq < 1e-14


def test_orthogonal_states_reach_the_diameter():
    f0 = basis_state(fock_basis(32), 0)
    f1 = basis_state(fock_basis(32), 1)
    res = g_overlap(f0, f1)
    assert res.g == 0.0
    assert res.D_sq == 2.0
    # a diagonal weight cannot un-orthogonalize basis states
    weighted = g_overlap(f0, f1, n_plus_one(32))
    assert weighted.g == 0.0


def test_weighting_changes_the_metric():
    s1 = glauber(0.4, N=64)
    s2 = squeezed_fock(0, math.cosh(0.5), math.sinh(0.5), N=64)
    plain = g_overlap(s1, s2)
    weighted = g_overlap(s1, s2, n_plus_one(64))
    assert abs(plain.g - weighted.g) > 1e-3
    assert weighted.observable_label == "n+1"


def test_symmetry_is_exact():
    s1 = glauber(0.3 + 0.7j, N=64)
    s2 = glauber(-0.5j, N=64)
    X = n_plus_one(64)
    ab = g_overlap(s1, s2, X)
    ba = g_overlap(s2, s1, X)
    assert ab.g == ba.g
    assert ab.D_sq == ba.D_sq


def test_triangle_inequality_on_coherent_triples():
    alphas = [0.0, 0.5, 0.3 + 0.4j]
    states = [glauber(a, N=64) for a in alphas]

    def dist(i, j):
        return math.sqrt(g_overlap(states[i], states[j]).D_sq)

    assert dist(0, 2) <= dist(0, 1) + dist(1, 2) + 1e-12


def test_rejects_non_positive_observable():
    obs = observable_set("canonical", N=32)
    with pytest.raises(InvalidInputError):
        g_overlap(basis_state(fock_basis(32), 0),
                  basis_state(fock_basis(32), 1), obs.ops[0])


def test_number_plus_one_is_one_band():
    X = number_plus_one(fock_basis(24))
    assert list(X.bands) == [0]
    np.testing.assert_array_equal(X.matrix, n_plus_one(24).matrix)
    with pytest.raises(BasisMismatchError):
        number_plus_one(su11_basis(0.5, 24))


@pytest.mark.parametrize("X", [su11_rep(0.75, 300)["k3"],
                               number_plus_one(fock_basis(300)),
                               boson_rep(300)["q"]],
                         ids=["k3", "n+1", "q"])
def test_banded_minimum_eigenvalue_matches_dense(X):
    dense = np.linalg.eigvalsh(X.matrix)[0]
    assert _min_eig(X) == pytest.approx(dense, rel=1e-14, abs=1e-13)


def test_rejects_non_hermitian_observable():
    basis = fock_basis(16)
    shift = Operator("shift", {1: np.ones(15)}, basis)
    with pytest.raises(InvalidInputError):
        g_overlap(basis_state(basis, 0), basis_state(basis, 1), shift)


def test_the_distance_and_the_schwarz_gap_refuse_in_one_order():
    # a state off the basis first, then a non-Hermitian X, then, for the
    # distance only, an X that is not strictly positive
    basis = fock_basis(16)
    s1, s2 = basis_state(basis, 0), basis_state(basis, 1)
    shift = Operator("shift", {1: np.ones(15)}, basis)  # neither Hermitian nor positive
    q = boson_rep(16)["q"]  # Hermitian, not positive
    for two_state in (g_overlap, lambda a, b, X: one_observable_two_state(X, a, b)):
        with pytest.raises(InvalidInputError, match="StateVector"):
            two_state(s1, s2.amplitudes, shift)
        with pytest.raises(BasisMismatchError):
            two_state(s1, glauber(0.2, N=24), shift)
        with pytest.raises(TruncationError):
            two_state(basis_state(basis, 15), s2, shift)
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            two_state(s1, s2, shift)
    with pytest.raises(BasisMismatchError):
        g_overlap(s1, glauber(0.2, N=24), q)
    with pytest.raises(InvalidInputError, match="not strictly positive"):
        g_overlap(s1, s2, q)
    # ||q|0>||^2 ||q|1>||^2 = (1/2)(3/2), and q|0>, q|1> are orthogonal
    assert one_observable_two_state(q, s1, s2) == pytest.approx(0.75, rel=1e-15)


def test_input_gates():
    with pytest.raises(BasisMismatchError):
        g_overlap(glauber(0.2, N=32), glauber(0.2, N=64))
    with pytest.raises(BasisMismatchError):
        g_overlap(glauber(0.2, N=32), glauber(0.3, N=32), n_plus_one(64))
    with pytest.raises(InvalidInputError):
        g_overlap(np.ones(4) / 2.0, glauber(0.2, N=32))
    top = basis_state(fock_basis(32), 31)
    with pytest.raises(TruncationError):
        g_overlap(top, glauber(0.2, N=32))
    # the gate is advisory: max_tail=None admits the same pair
    res = g_overlap(top, basis_state(fock_basis(32), 31), max_tail=None)
    assert res.g == 1.0
    for bad in (math.nan, -1.0):
        with pytest.raises(InvalidInputError, match="max_tail"):
            g_overlap(glauber(0.2, N=32), glauber(0.3, N=32), max_tail=bad)


def test_tail_gate_is_a_truncation_error():
    # uniform over 8 levels: the top slice (level 7) holds 1/8 of the mass
    flat = StateVector(np.ones(8) / np.sqrt(8.0), fock_basis(8))
    assert flat.tail_mass == pytest.approx(0.125)
    for pair in ((flat, basis_state(fock_basis(8), 0)), (basis_state(fock_basis(8), 0), flat)):
        with pytest.raises(TruncationError, match="tail mass 1.250e-01"):
            g_overlap(*pair)
        with pytest.raises(TruncationError):
            g_overlap(*pair, number_plus_one(fock_basis(8)))
    assert g_overlap(flat, flat, max_tail=0.125).g == pytest.approx(1.0)


def test_json_shape():
    doc = g_overlap(glauber(0.1, N=32), glauber(0.2, N=32)).to_json_dict()
    assert set(doc) == {"g", "D2", "observable"}
    assert doc["observable"] == "identity"
