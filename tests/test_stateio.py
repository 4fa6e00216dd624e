"""JSON round trips for states: bit-exact amplitudes, typed parameters."""

import numpy as np
import pytest

from urstates.errors import InvalidInputError, NumericError
from urstates.states import bg_cs, even_odd_cs, glauber, su2_cs, su11_cs
from urstates.stateio import (
    document_text,
    load_state,
    state_from_dict,
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
        document_text({"gaps": [0.0, bad]})
