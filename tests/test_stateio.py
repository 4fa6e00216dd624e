"""JSON round trips for states: bit-exact amplitudes, typed parameters."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from urstates.errors import InvalidInputError, NumericError
from urstates.hilbert import (StateVector, basis_state, fock_basis, multimode_basis, su2_basis,
                              su11_basis)
from urstates.states import FAMILIES, bg_cs, even_odd_cs, glauber, su2_cs, su11_cs
from urstates.stateio import (
    document_text,
    load_state,
    state_from_dict,
    state_text,
    state_to_dict,
)


@pytest.mark.parametrize("state", [
    glauber(0.3 + 0.4j, N=40),
    su11_cs(0.35j, 1.0, N=64),
    su2_cs(0.7 - 0.2j, 1.5),
    even_odd_cs(1.1, "even", N=48),
    bg_cs(1.5 * np.exp(0.7j), 0.25, N=72),
])
def test_round_trip_is_bit_exact(state):
    back = state_from_dict(state_to_dict(state))
    assert np.array_equal(back.amplitudes, state.amplitudes)
    assert back.basis == state.basis
    assert back.family == state.family
    assert back.params == state.params
    assert back.tail_mass == state.tail_mass


def test_complex_params_survive_typed():
    doc = state_to_dict(glauber(0.3 + 0.4j, N=40))
    assert doc["params"]["alpha"] == {"re": 0.3, "im": 0.4}
    assert doc["family"] == "glauber"
    assert doc["basis"]["kind"] == "fock"
    assert all(len(pair) == 2 for pair in doc["amplitudes"])


def test_file_round_trip(tmp_path):
    path = tmp_path / "state.json"
    state = su11_cs(0.4, 0.75, N=48)
    path.write_text(document_text(state_to_dict(state)))
    text = path.read_text()
    assert text.endswith("\n")
    back = load_state(path)
    assert np.array_equal(back.amplitudes, state.amplitudes)
    assert back.basis == state.basis


def test_malformed_documents_are_rejected():
    good = state_to_dict(glauber(0.2, N=32))
    for mutilate in (
        lambda d: d.pop("basis"),
        lambda d: d.pop("amplitudes"),
        lambda d: d.__setitem__("basis", None),
        lambda d: d.__setitem__("basis", {"kind": "fock", "N": "abc"}),
        lambda d: d.__setitem__("basis", {"kind": "fock", "N": 1e999}),
        lambda d: d.__setitem__("amplitudes", [[0.5]] + d["amplitudes"][1:]),
        lambda d: d.__setitem__("amplitudes", [["a", 0.0]] + d["amplitudes"][1:]),
    ):
        doc = {k: v for k, v in good.items()}
        mutilate(doc)
        with pytest.raises(InvalidInputError):
            state_from_dict(doc)


@pytest.mark.parametrize("basis", [fock_basis(8), su11_basis(0.5, 8), su2_basis(1.5),
                                   multimode_basis(2, 4)])
def test_a_document_missing_a_field_of_its_basis_kind_is_refused_by_name(basis):
    for name in list(basis.to_dict())[1:]:
        doc = state_to_dict(basis_state(basis, 1))
        del doc["basis"][name]
        with pytest.raises(InvalidInputError, match=f"no field '{name}'"):
            state_from_dict(doc)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_state(path)


def test_unsupported_param_type():
    state = glauber(0.2, N=32)
    bad = type(state)(state.amplitudes, state.basis, family="glauber",
                      params={"blob": object()})
    with pytest.raises(InvalidInputError):
        state_to_dict(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_numbers_never_reach_a_document(bad):
    state = glauber(0.2, N=32)
    odd = type(state)(state.amplitudes, state.basis, family="glauber",
                      params={"alpha": bad})
    with pytest.raises(NumericError):
        document_text(state_to_dict(odd))
    with pytest.raises(NumericError):
        state_text(odd)
    with pytest.raises(NumericError):
        document_text({"gaps": [0.0, bad]})


#: a point of each family of `FAMILIES`
_FAMILY_POINTS = {
    "glauber": {"alpha": 0.3 + 0.4j},
    "canonical-ss": {"alpha": 0.3, "u": 1.25, "v": 0.75},
    "squeezed-fock": {"n": 1, "u": 1.25, "v": 0.75},
    "even-cs": {"alpha": 1.1},
    "odd-cs": {"alpha": 1.1},
    "bg-cs": {"z": 1.5, "k": 0.25},
    "su11-cs": {"xi": 0.35j, "k": 1.0},
    "su11-intelligent": {"u": 1.0, "v": -0.16, "w": 0.0, "z": 1.6, "k": 1.0},
    "su2-cs": {"tau": 0.7 - 0.2j, "j": 1.5},
}


@pytest.mark.parametrize("source", [*sorted(FAMILIES), "basis_state", "load_state"])
def test_the_amplitudes_of_a_state_are_read_only(source, tmp_path):
    if source == "basis_state":
        state = basis_state(su11_basis(0.5, 16), 3)
    elif source == "load_state":
        path = tmp_path / "state.json"
        path.write_text(state_text(glauber(0.2, N=32)))
        state = load_state(path)
    else:
        state = FAMILIES[source][0](**_FAMILY_POINTS[source])
    before = state.amplitudes.copy()
    with pytest.raises(ValueError):
        state.amplitudes[0] = math.nan
    with pytest.raises(ValueError):
        state.amplitudes.setflags(write=True)
    assert np.array_equal(state.amplitudes, before)


_SPECIAL_PARTS = [-0.0, 0.0, 1.0, 5e-324, -5e-324, 1e-300, 1e300, 2.0 ** 53]
#: amplitude parts a normalized state is drawn from
_UNIT_PARTS = st.sampled_from([-0.0, 0.0, 1.0, 5e-324, -5e-324, 1e-300]) | st.floats(-1.0, 1.0)

# every basis kind, k up to 1e300
_BASES = st.one_of(
    st.builds(fock_basis, st.integers(2, 9)),
    st.builds(su11_basis, st.floats(0.0, 1e300, exclude_min=True) | st.just(1e300),
              st.integers(2, 9)),
    st.builds(su2_basis, st.integers(1, 8).map(lambda n: n / 2)),
    st.builds(multimode_basis, st.just(2), st.integers(2, 3)),
)

# every kind of parameter _decode_param accepts, and strings that spell the
# amplitudes key the writer splices at
_SPLICE_TEXT = ['"amplitudes": []', '\n "amplitudes": []', ']\n "amplitudes": [],\n']
_PARAM_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), st.sampled_from(_SPLICE_TEXT),
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_SPECIAL_PARTS),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)


@st.composite
def _states(draw):
    """A state on a drawn basis, given its amplitudes as a strided view when
    the drawn stride is not 1, with drawn family and parameters, and
    amplitude parts from ``_UNIT_PARTS``, normalized."""
    basis = draw(_BASES)
    values = draw(st.lists(_UNIT_PARTS, min_size=2 * basis.dim, max_size=2 * basis.dim))
    amp = np.array(values, dtype=float).view(np.complex128)
    norm = np.linalg.norm(amp)
    if norm < 1e-100:  # too small to normalize to 1e-12
        amp, norm = np.eye(1, basis.dim, 0, dtype=np.complex128)[0], 1.0
    stride = draw(st.sampled_from([1, 2, 3, -1, -2]))
    buf = np.zeros(basis.dim * abs(stride), dtype=np.complex128)
    view = buf[::stride]
    view[:] = amp / norm
    family = draw(st.none() | st.text() | st.sampled_from(_SPLICE_TEXT))
    params = draw(st.dictionaries(st.text() | st.just("amplitudes"), _PARAM_VALUES,
                                  max_size=4))
    state = StateVector(view, basis, family=family, params=params)
    # the state holds its own contiguous copy, whatever the stride
    assert state.amplitudes.flags.c_contiguous and not np.shares_memory(state.amplitudes, buf)
    return state


#: amplitude parts whose squares vanish, so that beside one part 1.0 they
#: survive normalization as they are: zeros of either sign, subnormals and
#: parts near 1e-300
_TINY_PARTS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1e-300, 1e-300])


@settings(max_examples=200, deadline=None)
@given(state=_states(), raw=st.lists(_TINY_PARTS, min_size=1, max_size=8),
       one=st.integers(min_value=0))
@example(state=basis_state(su11_basis(1e300, 4), 1), raw=[-0.0, 0.0, 5e-324, 1e-300], one=0)
def test_state_text_is_the_json_rendering_byte_for_byte(state, raw, one):
    assert state_text(state) == document_text(state_to_dict(state))
    parts = np.resize(np.array(raw, dtype=float), 2 * state.dim)
    parts[one % parts.size] = 1.0
    tiny = StateVector(parts.view(np.complex128), state.basis, family=state.family,
                       params=state.params)
    assert state_text(tiny) == document_text(state_to_dict(tiny))


_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 2.0 ** 53]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
_JSON_TEXT = st.text() | st.sampled_from(['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é€ß",
                                          "\U0001f600", "\ud800"])
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _JSON_TEXT, _JSON_FLOATS,
    st.integers() | st.integers(2 ** 64, 2 ** 200) | st.integers(-(2 ** 200), -(2 ** 64)),
)
#: nested documents of everything document_text writes
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(doc=_JSON_DOCS)
@example(doc={"a": [], "b": {}, "c": (1, [2.5, {"d": None}]), "e": [True, False, -0.0]})
def test_document_text_is_json_indent_1(doc):
    assert document_text(doc) == json.dumps(doc, indent=1) + "\n"


@settings(max_examples=100, deadline=None)
@given(doc=_JSON_DOCS, bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       depth=st.integers(0, 4))
def test_document_text_refuses_a_non_finite_number_with_json_message(doc, bad, depth):
    value = bad
    for level in range(depth):
        value = {"x": doc, "y": value} if level % 2 else [doc, (value,)]
    with pytest.raises(ValueError) as reference:
        json.dumps(value, indent=1, allow_nan=False)
    with pytest.raises(NumericError) as ours:
        document_text(value)
    assert str(ours.value) == f"document holds a non-finite number: {reference.value}"


@pytest.mark.parametrize("doc", [np.int64(3), {"n": [np.int64(3)]}, {"z": 1j}, {"s": {1}}])
def test_document_text_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=1)
    with pytest.raises(TypeError):
        document_text(doc)


def _bits(amp):
    return np.ascontiguousarray(amp).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(state=_states())
@example(state=glauber(0.3 + 0.4j, N=40))
def test_reading_a_written_state_gives_it_back(state):
    back = state_from_dict(json.loads(state_text(state)))
    assert np.array_equal(_bits(back.amplitudes), _bits(state.amplitudes))
    assert back.basis == state.basis
    assert back.family == state.family
    assert back.params == state.params
