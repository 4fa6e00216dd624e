"""Bases, state containers, and the ladder representations."""

import json
import math

import numpy as np
import pytest

from urstates.errors import (
    BasisMismatchError,
    InvalidInputError,
    TruncationError,
    UnsupportedScaleError,
)
from urstates.hilbert import (
    MAX_BASIS_DIM,
    RESIDUAL_TOL,
    BasisSpec,
    Operator,
    StateVector,
    apply_bands,
    basis_state,
    boson_rep,
    check_tail,
    edge_mass,
    fock_basis,
    is_number,
    multimode_basis,
    residual_bound,
    su2_basis,
    su2_rep,
    su11_basis,
    su11_rep,
    tensor_rep,
    vector_norm,
)
from urstates.moments import observable_set
from urstates.states import canonical_ss


def tail_mask(basis):
    """The recorded tail region of ``basis``, read through `tail_mass` on
    each unit vector of its flat index."""
    return np.array([basis.tail_mass(unit) for unit in np.eye(basis.dim)]) == 1.0


def dense_operator(label, mat, basis):
    """The Operator of a hand-written dense matrix: its nonzero diagonals."""
    rows, cols = np.nonzero(mat)
    return Operator(label, {int(d): np.diagonal(mat, d) for d in np.unique(cols - rows)}, basis)


def test_basis_dims():
    assert fock_basis(64).dim == 64
    assert su11_basis(0.5, 96).dim == 96
    assert su2_basis(1.5).dim == 4
    assert multimode_basis(2, 10).dim == 100


def test_basis_validation():
    with pytest.raises(InvalidInputError):
        BasisSpec(kind="weird")
    with pytest.raises(InvalidInputError):
        fock_basis(1)
    with pytest.raises(InvalidInputError):
        su11_basis(-0.5, 32)
    with pytest.raises(InvalidInputError):
        su2_basis(0.6)
    for s in (1, 3):
        # s = 1 would be the Fock space under another name
        with pytest.raises(UnsupportedScaleError, match="s = 2"):
            multimode_basis(s, 8)
    for bad_j in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            su2_basis(bad_j)


@pytest.mark.parametrize("doc, field", [
    ({"kind": "fock", "N": 4.9}, "'N'"),
    ({"kind": "fock", "N": 32.0}, "'N'"),
    ({"kind": "fock", "N": "32"}, "'N'"),
    ({"kind": "su11", "k": 0.5, "N": 1e999}, "'N'"),
    ({"kind": "multimode", "s": 1.5, "N": 8}, "'s'"),
    ({"kind": "multimode", "s": True, "N": 8}, "'s'"),
    ({"kind": "su11", "k": math.nan, "N": 32}, "'k'"),
    ({"kind": "su11", "k": math.inf, "N": 32}, "'k'"),
    ({"kind": "su11", "k": -math.inf, "N": 32}, "'k'"),
    ({"kind": "su11", "k": "0.5", "N": 8}, "'k'"),
    ({"kind": "su11", "k": True, "N": 8}, "'k'"),
    ({"kind": "su11", "k": [0.5], "N": 8}, "'k'"),
    ({"kind": "su11", "k": None, "N": 8}, "'k'"),
    ({"kind": "su2", "j": True}, "'j'"),
    ({"kind": "su2", "j": "2.5"}, "'j'"),
    ({"kind": "su2", "j": {"value": 2.5}}, "'j'"),
])
def test_basis_document_refuses_a_bad_field_by_name(doc, field):
    # a fractional size is not truncated, and a non-finite k is refused here,
    # not later under the name of an observable set
    with pytest.raises(InvalidInputError, match=field):
        BasisSpec.from_dict(doc)


def test_is_number_takes_python_and_numpy_numbers_but_no_bool():
    for value in (3, 2.5, np.int64(3), np.float32(2.5), math.nan):
        assert is_number(value)
    for value in (3, np.int32(3), 10 ** 400):
        assert is_number(value, integer=True)
    for value in (True, np.bool_(True), "3", None, 1j, [3]):
        assert not is_number(value)
    for value in (True, 3.0, np.float64(3.0)):
        assert not is_number(value, integer=True)


@pytest.mark.parametrize("field, value", [("k", 0.5), ("j", math.nan), ("s", 2),
                                          ("s", True), ("N", 8)])
def test_basis_refuses_a_field_its_kind_does_not_list(field, value):
    # once built, and compared unequal to fock_basis(32) though it wrote the
    # same document; N is not a field of su2
    kind = "su2" if field == "N" else "fock"
    fields = {"j": 0.5} if kind == "su2" else {"N": 32}
    with pytest.raises(InvalidInputError, match=f"'{field}'"):
        BasisSpec(kind, **{**fields, field: value})


@pytest.mark.parametrize("key, value", [("k", 0.5), ("s", 1), ("N", None), ("n", 32)])
def test_basis_document_refuses_a_field_its_kind_does_not_list(key, value):
    # to_dict writes the kind's fields only; a fock document with k once loaded
    doc = {"kind": "su2", "j": 0.5} if key == "N" else {"kind": "fock", "N": 32}
    assert BasisSpec.from_dict(doc).to_dict() == doc
    with pytest.raises(InvalidInputError, match=f"takes no field '{key}'"):
        BasisSpec.from_dict({**doc, key: value})


def test_basis_takes_s_1_as_unset_on_any_kind_but_multimode():
    for s in (1, np.int64(1)):
        basis = BasisSpec("fock", N=32, s=s)
        assert basis == fock_basis(32) and type(basis.s) is int


def test_basis_sizes_take_any_integer_type():
    assert fock_basis(np.int64(32)) == fock_basis(32)
    assert multimode_basis(np.int32(2), np.int64(8)).dim == 64


def test_basis_indices_take_any_real_number_type_as_a_float():
    # an integer or numpy index is stored as the plain float it equals, so
    # its repr, which names an observable set, is the same for every type
    for k in (1, np.int64(1), np.float32(1.0), np.float64(1.0), 1.0):
        basis = BasisSpec.from_dict({"kind": "su11", "k": k, "N": 8})
        assert type(basis.k) is float and repr(basis.k) == "1.0"
        assert basis == su11_basis(1.0, 8)
    for j in (2, np.int32(2), np.float64(2.0)):
        assert type(su2_basis(j).j) is float and su2_basis(j) == su2_basis(2.0)


def test_basis_dimension_is_capped():
    assert su2_basis((MAX_BASIS_DIM - 1) / 2).dim == MAX_BASIS_DIM
    assert multimode_basis(2, 256).dim == MAX_BASIS_DIM
    with pytest.raises(UnsupportedScaleError, match="MAX_BASIS_DIM"):
        su2_basis(MAX_BASIS_DIM / 2)
    with pytest.raises(UnsupportedScaleError, match="MAX_BASIS_DIM"):
        multimode_basis(2, 257)
    with pytest.raises(UnsupportedScaleError, match="MAX_BASIS_DIM"):
        BasisSpec.from_dict({"kind": "su2", "j": 1e300})


def test_fock_tail_window_is_top_decile():
    mask = tail_mask(fock_basis(100))
    assert mask.sum() == 10
    assert mask[90:].all() and not mask[:90].any()


def test_su2_has_no_tail_window():
    # the (2j+1)-level basis is the complete irrep: nothing is truncated,
    # so the truncation certificate is identically zero
    for j in (0.5, 1.0, 7.5):
        assert not tail_mask(su2_basis(j)).any()
    amp = np.array([0.0, 1.0])
    assert StateVector(amp, su2_basis(0.5)).tail_mass == 0.0


def test_multimode_tail_window_is_per_mode():
    mask = tail_mask(multimode_basis(2, 10)).reshape(10, 10)
    assert mask[9, :].all() and mask[:, 9].all()
    assert not mask[:9, :9].any()


_BASES = (fock_basis(32), su11_basis(0.75, 48), su2_basis(2.0), multimode_basis(2, 8))


def test_basis_document_lists_the_kind_then_the_fields_of_its_kind_in_order():
    fields = {"fock": ["N"], "su11": ["N", "k"], "su2": ["j"], "multimode": ["N", "s"]}
    assert sorted(fields) == sorted(b.kind for b in _BASES)
    for b in _BASES:
        assert list(b.to_dict()) == ["kind"] + fields[b.kind]


def test_basis_from_numpy_scalars_serializes_as_the_plain_one():
    numpy_bases = (fock_basis(np.int64(32)), su11_basis(np.float32(0.75), np.int64(48)),
                   su2_basis(np.float32(2.0)), multimode_basis(np.int64(2), np.int64(8)))
    for plain, numpy_made in zip(_BASES, numpy_bases):
        assert json.dumps(numpy_made.to_dict()) == json.dumps(plain.to_dict())


def test_basis_spec_roundtrip():
    for b in _BASES:
        assert BasisSpec.from_dict(b.to_dict()) == b


def test_state_vector_validation():
    b = fock_basis(8)
    with pytest.raises(InvalidInputError):
        StateVector(np.full(8, 0.5), b)
    with pytest.raises(BasisMismatchError):
        StateVector(np.zeros(7), b)
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0 + 2e-12
    with pytest.raises(InvalidInputError, match="normalized"):
        StateVector(amp, b)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        amp = np.zeros(8, dtype=complex)
        amp[0], amp[5] = 1.0, bad
        with pytest.raises(InvalidInputError, match="finite"):
            StateVector(amp, b)


def test_a_state_refuses_assignment_to_what_its_checks_read():
    st = basis_state(fock_basis(32), 0)
    # an assigned array would reach moment_report past the norm and tail checks
    for name, value in (("amplitudes", np.full(32, 3 + 0j)), ("basis", fock_basis(8)),
                        ("tail_mass", 0.0)):
        before = getattr(st, name)
        with pytest.raises(AttributeError):
            setattr(st, name, value)
        with pytest.raises(AttributeError):
            delattr(st, name)
        assert getattr(st, name) is before
    # the label fields stay plain ones
    st.family, st.params["n"] = "relabelled", 1
    assert (st.family, st.params) == ("relabelled", {"n": 1})


def test_fock_basis_is_kept_per_int_cutoff():
    assert fock_basis(64) is fock_basis(64)
    st = canonical_ss(0.3, 1.2, 0.3, N=64)
    assert st.basis is observable_set("canonical", N=64).basis


@pytest.mark.parametrize("N", [32.0, True, "32", [32], np.int64(32)],
                         ids=["float", "bool", "str", "list", "int64"])
def test_the_fock_basis_memo_keeps_the_refusal_and_normalization_of_a_basis(N):
    # an untyped memo would hand back the N=32 basis for 32.0, and a list
    # cannot key one
    kept = fock_basis(32)
    try:
        built = BasisSpec("fock", N=N)
    except InvalidInputError:
        with pytest.raises(InvalidInputError):
            fock_basis(N)
    else:
        basis = fock_basis(N)
        assert basis == built == kept and type(basis.N) is int


@pytest.mark.parametrize("basis", [fock_basis(37), su11_basis(0.75, 50),
                                   su2_basis(3.5), multimode_basis(2, 9)])
def test_tail_mass_is_the_sum_over_the_tail_mask(basis):
    rng = np.random.default_rng(7)
    amp = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    amp /= np.linalg.norm(amp)
    prob = np.abs(amp) ** 2
    mask = tail_mask(basis)
    tail_mass = StateVector(amp, basis).tail_mass
    assert tail_mass == float(np.sum(prob[mask]))
    # the tail index a basis keeps for its states leaves its identity alone
    assert basis == BasisSpec.from_dict(basis.to_dict())
    assert hash(basis) == hash(BasisSpec.from_dict(basis.to_dict()))


def test_tail_gate_bound():
    top = basis_state(fock_basis(10), 9)
    with pytest.raises(TruncationError, match="^top tail mass 1.000e[+]00 exceeds 5.0e-01$"):
        check_tail(top.tail_mass, 0.5, "top tail mass")
    for bound in (1.0, math.inf, None):
        check_tail(top.tail_mass, bound, "top tail mass")
    # tail_mass > nan is false, so a NaN bound would turn the gate off
    for bad in (math.nan, -1.0, -1e-300):
        with pytest.raises(InvalidInputError, match="max_tail"):
            check_tail(top.tail_mass, bad, "top tail mass")


def test_residual_bound_widens_with_the_top_two_levels_except_on_su2():
    amp = np.zeros(6, dtype=complex)
    amp[-2:] = 0.6, 0.8j
    assert residual_bound(amp, fock_basis(6), 2.0) == 50.0 * 2.0 * math.sqrt(6.0)
    # su(2) is the whole irrep: its top levels are not a cutoff
    assert residual_bound(amp, su2_basis(2.5), 2.0) == 2.0 * RESIDUAL_TOL
    amp[-2:] = 0.0
    amp[0] = 1.0
    assert residual_bound(amp, fock_basis(6), 2.0) == 2.0 * RESIDUAL_TOL


def test_edge_mass_counts_the_top_levels_and_none_for_zero():
    amp = np.ones(4) / 2.0
    for levels, mass in [(0, 0.0), (1, 0.25), (2, 0.5), (amp.size + 3, 1.0)]:
        assert edge_mass(amp, levels) == mass
    with pytest.raises(InvalidInputError, match="levels"):
        edge_mass(amp, -1)


@pytest.mark.parametrize("n", [0, 1, 191, 4097])
def test_vector_norm_has_the_bits_of_numpy_norm(n):
    # entries spread over ten decades, so a change of summation order shows
    rng = np.random.default_rng(n)
    spread = 10.0 ** rng.uniform(-5.0, 5.0, (2, n))
    z = rng.standard_normal(n) * spread[0] + 1j * rng.standard_normal(n) * spread[1]
    # 1e200 squares to inf; 5e-324 is the least subnormal
    for fill in (None, 0.0, 5e-324, 1e200, math.inf, math.nan):
        for part in ("some", "all"):
            w = z.copy()
            if fill is not None:
                w[::7 if part == "some" else 1] = fill
            for x in (w, w[::3], w.real, w.real[::3], w.real.copy()):
                # both overflow alike, where the warning would fail the test
                with np.errstate(over="ignore"):
                    want = float(np.linalg.norm(x)).hex()
                    assert vector_norm(x).hex() == want, (fill, part, x.dtype)


def test_basis_state():
    st = basis_state(fock_basis(10), 9)
    assert st.tail_mass == 1.0
    assert st.params == {"n": 9}
    assert basis_state(fock_basis(10), 0).tail_mass == 0.0
    with pytest.raises(InvalidInputError):
        basis_state(fock_basis(10), 10)


def test_operator_shape_and_hermiticity():
    b = fock_basis(4)
    with pytest.raises(BasisMismatchError):
        dense_operator("bad", np.eye(3), b)
    assert dense_operator("I", np.eye(4), b).is_hermitian()
    assert not dense_operator("up", np.triu(np.ones((4, 4)), 1), b).is_hermitian()


def test_operator_splits_a_dense_matrix_into_bands():
    b = fock_basis(6)
    mat = np.zeros((6, 6), dtype=complex)
    mat[np.arange(5), np.arange(1, 6)] = [1.0, 2.0, 0.0, 4.0, 5.0j]
    mat[np.arange(4) + 2, np.arange(4)] = 3.0
    op = dense_operator("m", mat, b)
    assert sorted(op.bands) == [-2, 1]
    np.testing.assert_array_equal(op.bands[1], np.diagonal(mat, 1))
    np.testing.assert_array_equal(op.matrix, mat)
    psi = np.arange(6) + 1j * np.arange(6)[::-1]
    np.testing.assert_allclose(op.apply(psi), mat @ psi, rtol=0, atol=1e-14)
    zero = dense_operator("0", np.zeros((6, 6)), b)
    assert zero.bands == {} and zero.is_hermitian()
    np.testing.assert_array_equal(zero.apply(psi), np.zeros(6))


def test_operator_matrix_is_built_once_from_its_bands():
    b = fock_basis(6)
    mat = np.diag(np.arange(6.0)) + np.diag(np.full(5, 0.5j), 1) + np.diag(np.full(4, 2.0), -2)
    op = dense_operator("m", mat, b)
    assert op.matrix is op.matrix
    # kept as the value of the cached property, with no placeholder field
    assert vars(op)["matrix"] is op.matrix and "_matrix" not in vars(op)
    np.testing.assert_array_equal(op.matrix, mat)
    # an operator of a kept set shares its matrix with every later caller
    shared = observable_set("canonical", N=8).ops[0]
    with pytest.raises(ValueError, match="read-only"):
        shared.matrix[0, 1] = 99.0
    assert observable_set("canonical", N=8).ops[0].matrix[0, 1] == shared.bands[1][0]


def test_operator_from_bands_validation():
    b = fock_basis(4)
    with pytest.raises(BasisMismatchError):
        Operator("short", {1: np.ones(2)}, b)
    with pytest.raises(BasisMismatchError):
        Operator("far", {4: np.ones(0)}, b)
    with pytest.raises(InvalidInputError):
        Operator("nan", {0: [1.0, np.nan, 0.0, 0.0]}, b)
    with pytest.raises(InvalidInputError):
        dense_operator("inf", np.diag([1.0, np.inf, 0.0, 0.0]), b)
    with pytest.raises(BasisMismatchError):
        Operator("I", {0: np.ones(4)}, b).apply(np.ones(5))


def test_hermiticity_is_checked_band_against_mirrored_band():
    b = fock_basis(5)
    c = np.arange(1.0, 5.0)
    assert Operator("x", {1: c, -1: c}, b).is_hermitian()
    assert Operator("y", {1: 1j * c, -1: -1j * c}, b).is_hermitian()
    assert not Operator("skew", {1: c, -1: -c}, b).is_hermitian()
    assert not Operator("half", {1: c}, b).is_hermitian()
    assert not Operator("im-diag", {0: 1j * np.ones(5)}, b).is_hermitian()
    # deviations are judged relative to the largest entry, as before
    assert Operator("x", {1: 1e6 * c, -1: 1e6 * c + 1e-9}, b).is_hermitian()


def test_operator_keeps_its_own_copy_of_each_band():
    # su11_rep hands one ladder array to both K- and K+; a caller that
    # changes its array afterwards must not change a built operator
    b = fock_basis(5)
    c = np.arange(1.0, 5.0)
    op = Operator("x", {1: c, -1: c}, b)
    psi = np.arange(5) + 1j
    before = op.apply(psi)
    c[:] = 99.0
    np.testing.assert_array_equal(op.bands[1], np.arange(1.0, 5.0))
    np.testing.assert_array_equal(op.bands[-1], np.arange(1.0, 5.0))
    np.testing.assert_array_equal(op.apply(psi), before)


@pytest.mark.parametrize("name", ["canonical", "canonical:2", "su11:0.5", "su2:1",
                                  "a2-quadratures"])
@pytest.mark.parametrize("seed", range(3))
def test_set_images_are_the_operator_products(name, seed):
    # the stacked product of a padded set and the one banded product of a
    # single operator give the same vectors, bit for bit, for one state and
    # for each state of a stack; every level carries mass, the top one
    # included, so a padded layout off by one level at the basis edge fails
    obs = observable_set(name)
    rng = np.random.default_rng(seed)
    shape = (3, obs.basis.dim)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert np.all(stack != 0.0)
    for psi, images in zip(stack, obs.images(stack)):
        products = np.stack([apply_bands(op.bands, psi) for op in obs.ops])
        assert np.array_equal(products, images)
        assert np.array_equal(products, obs.images(psi))


def test_boson_rep_algebra():
    rep = boson_rep(32)
    a, ad = rep["a"].matrix, rep["adag"].matrix
    comm = a @ ad - ad @ a
    # truncation corrupts the commutator only in the topmost level
    np.testing.assert_allclose(comm[:-1, :-1], np.eye(31), atol=1e-12)
    assert rep["q"].is_hermitian() and rep["p"].is_hermitian()
    qp = rep["q"].matrix @ rep["p"].matrix - rep["p"].matrix @ rep["q"].matrix
    np.testing.assert_allclose(qp[:-1, :-1], 1j * np.eye(31), atol=1e-12)
    np.testing.assert_allclose(rep["n"].matrix, ad @ a, atol=1e-12)


def test_su11_rep_algebra():
    k = 0.75
    rep = su11_rep(k, 24)
    k1, k2, k3 = (rep[x].matrix for x in ("k1", "k2", "k3"))
    kp, km = rep["kplus"].matrix, rep["kminus"].matrix
    np.testing.assert_allclose(np.diag(k3), k + np.arange(24))
    np.testing.assert_allclose(kp, km.conj().T, atol=1e-14)
    c12 = k1 @ k2 - k2 @ k1
    np.testing.assert_allclose(c12[:-1, :-1], (-1j * k3)[:-1, :-1], atol=1e-12)
    c31 = k3 @ k1 - k1 @ k3
    np.testing.assert_allclose(c31[:-1, :-1], (1j * k2)[:-1, :-1], atol=1e-12)
    # Casimir K3^2 - K1^2 - K2^2 = k(k-1) away from the truncation edge
    cas = k3 @ k3 - k1 @ k1 - k2 @ k2
    np.testing.assert_allclose(np.diag(cas)[:-1], k * (k - 1.0), atol=1e-10)


def test_su2_rep_algebra():
    rep = su2_rep(1.0)
    j1, j2, j3 = (rep[x].matrix for x in ("j1", "j2", "j3"))
    np.testing.assert_allclose(j1 @ j2 - j2 @ j1, 1j * j3, atol=1e-12)
    np.testing.assert_allclose(np.diag(j3), [-1.0, 0.0, 1.0])
    cas = j1 @ j1 + j2 @ j2 + j3 @ j3
    np.testing.assert_allclose(cas, 2.0 * np.eye(3), atol=1e-12)


def test_tensor_rep_two_modes():
    rep = tensor_rep(6)
    a1, a2 = rep["a"][0].matrix, rep["a"][1].matrix
    assert a1.shape == (36, 36)
    # different modes commute
    np.testing.assert_allclose(a1 @ a2, a2 @ a1, atol=1e-12)
    q1, p2 = rep["q"][0].matrix, rep["p"][1].matrix
    np.testing.assert_allclose(q1 @ p2 - p2 @ q1, np.zeros((36, 36)),
                               atol=1e-12)


def test_tensor_rep_matches_kron_and_stays_banded():
    N = 5
    rep = tensor_rep(N)
    a = boson_rep(N)["a"].matrix
    eye = np.eye(N)
    np.testing.assert_array_equal(rep["a"][0].matrix, np.kron(a, eye))
    np.testing.assert_array_equal(rep["a"][1].matrix, np.kron(eye, a))
    np.testing.assert_allclose(rep["n"][0].matrix,
                               np.kron(np.diag(np.arange(N)), eye), atol=1e-12)
    # the N^2-dimensional modes keep O(N^2) entries: two bands per quadrature
    wide = tensor_rep(40)
    assert sorted(wide["q"][0].bands) == [-40, 40]
    assert sorted(wide["p"][1].bands) == [-1, 1]
