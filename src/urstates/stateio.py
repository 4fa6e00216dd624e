"""JSON round-trip for states.

Amplitudes serialize as [re, im] pairs; complex family parameters as
{"re": ..., "im": ...} objects so they cannot be confused with real pairs.
Floats go through repr, so a dump/load cycle is bit-exact.
"""

import json

import numpy as np

from .errors import InvalidInputError, NumericError
from .hilbert import BasisSpec, StateVector

__all__ = ["state_to_dict", "state_from_dict", "save_state", "load_state",
           "document_text", "read_document"]


def _encode_param(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.generic):
        return _encode_param(value.item())
    raise InvalidInputError(f"cannot serialize state parameter of type {type(value)!r}")


def _decode_param(value):
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return complex(value["re"], value["im"])
    return value


def state_to_dict(state):
    amp = state.amplitudes
    return {
        "family": state.family,
        "params": {key: _encode_param(val) for key, val in state.params.items()},
        "basis": state.basis.to_dict(),
        "amplitudes": [[float(c.real), float(c.imag)] for c in amp],
        "tail_mass": float(state.tail_mass),
    }


def state_from_dict(doc):
    try:
        basis = BasisSpec.from_dict(doc["basis"])
        family = doc.get("family")
        params = {k: _decode_param(v) for k, v in doc.get("params", {}).items()}
        amp = np.array([complex(re, im) for re, im in doc["amplitudes"]],
                       dtype=np.complex128)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed state document: {exc}") from exc
    return StateVector(amp, basis, family=family, params=params)


def document_text(doc):
    """The JSON text written for a document.  A NaN or infinity anywhere in
    it is a NumericError, raised before anything is written."""
    try:
        return json.dumps(doc, indent=1, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"document holds a non-finite number: {exc}") from exc


def save_state(state, path):
    text = document_text(state_to_dict(state))
    with open(path, "w") as fh:
        fh.write(text)


def read_document(path, what):
    """Parse the JSON file at ``path``; an unreadable or malformed file is an
    InvalidInputError, except a missing one, which stays FileNotFoundError.
    ``what`` names the kind of document in the message."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise
    except ValueError as exc:
        raise InvalidInputError(f"{what} file {path!r} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise InvalidInputError(f"cannot read {what} file {path!r}: {exc}") from exc


def load_state(path):
    """Read a state document (see `read_document` for the errors)."""
    return state_from_dict(read_document(path, "state"))
