"""JSON round-trip for states.

Amplitudes serialize as [re, im] pairs; complex family parameters as
{"re": ..., "im": ...} objects so they cannot be confused with real pairs.
Floats go through repr, so a dump/load cycle is bit-exact.  Documents are
written with the bytes of ``json.dumps(indent=1)`` by `document_text`'s own
writer, and `state_text` formats a state's amplitudes in one pass.
"""

import itertools
import json
import math
import os

from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .errors import InvalidInputError, NumericError
from .hilbert import BasisSpec, StateVector, is_number

__all__ = ["state_to_dict", "state_text", "state_from_dict", "load_state",
           "document_text", "read_document"]


def _encode_param(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.generic):
        return _encode_param(value.item())
    raise InvalidInputError(f"cannot serialize state parameter of type {type(value)!r}")


def _finite_number(value):
    # an int, however large, is finite; isfinite would overflow on it
    return is_number(value, integer=True) or is_number(value) and math.isfinite(value)


def _decode_param(key, value):
    """A stored parameter: null, a bool, an int, a string, a finite float, or
    an {re, im} object of two finite numbers; anything else is refused."""
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        if _finite_number(value["re"]) and _finite_number(value["im"]):
            return complex(value["re"], value["im"])
    elif value is None or type(value) in (bool, str) or _finite_number(value):
        return value
    raise InvalidInputError(f"state document parameter {key!r} must be null, a bool, a "
                            "string, a finite number or {re, im} of two finite numbers")


def _state_fields(state, amplitudes):
    """A state document, with ``amplitudes`` as its amplitudes."""
    return {
        "family": state.family,
        "params": {key: _encode_param(val) for key, val in state.params.items()},
        "basis": state.basis.to_dict(),
        "amplitudes": amplitudes,
        "tail_mass": float(state.tail_mass),
    }


def state_to_dict(state):
    parts = iter(state.amplitudes.view(np.float64).tolist())
    return _state_fields(state, list(map(list, zip(parts, parts))))


#: one amplitude pair as json.dumps(indent=1) writes it in a state document
_PAIR_TEXT = "  [\n   %r,\n   %r\n  ]"

#: the amplitudes of a state document written with none: only a top-level
#: key starts with a newline and one space, since nested keys are indented
#: further and JSON escapes every newline inside a string
_NO_AMPLITUDES = '\n "amplitudes": []'


def state_text(state):
    """``document_text(state_to_dict(state))``, byte for byte.

    The document is written without its amplitudes, and they are spliced
    in, formatted by one ``%`` over a repeated pair template, which is
    faster still than `document_text`; json writes a float as its repr too.
    """
    parts = state.amplitudes.view(np.float64)
    head = document_text(_state_fields(state, []))
    body = ",\n".join([_PAIR_TEXT] * (parts.size // 2)) % tuple(parts.tolist())
    return head.replace(_NO_AMPLITUDES, f'\n "amplitudes": [\n{body}\n ]', 1)


def state_from_dict(doc):
    try:
        basis = BasisSpec.from_dict(doc["basis"])
        family = doc.get("family")
        if family is not None and not isinstance(family, str):
            raise InvalidInputError(f"state document 'family' must be a string, "
                                    f"got {type(family).__name__}")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise InvalidInputError(f"state document 'params' must be an object, "
                                    f"got {type(params).__name__}")
        params = {k: _decode_param(k, v) for k, v in params.items()}
        pairs = doc["amplitudes"]
        parts = list(itertools.chain.from_iterable(pairs))
        # JSON numbers, as params and the basis take them: a bool is not one
        if set(map(len, pairs)) - {2} or set(map(type, parts)) - {int, float}:
            raise InvalidInputError("state document 'amplitudes' must be [re, im] number pairs")
        amp = np.array(parts, dtype=float).view(np.complex128)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed state document: {exc}") from exc
    state = StateVector(amp, basis, family=family, params=params)
    # a recorded tail mass is a JSON number within 1e-12 of the recomputed
    # one; the bounds compare an int of any size exactly and refuse NaN
    tail = doc.get("tail_mass", state.tail_mass)
    lo, hi = state.tail_mass - 1e-12, state.tail_mass + 1e-12
    if type(tail) not in (int, float) or not lo <= tail <= hi:
        raise InvalidInputError(f"state document 'tail_mass' must be a number within 1e-12 of "
                                f"the tail mass of its amplitudes, {state.tail_mass!r}")
    return state


def document_text(doc):
    """The JSON text written for a document: ``json.dumps(doc, indent=1) +
    "\\n"``, byte for byte, for a document of dicts with str keys, lists,
    tuples, strings, ints, floats, bools and None.  Any other type is a
    TypeError, as in json.  A NaN or infinity anywhere in it is a
    NumericError, raised before anything is written.

    json.dumps with an indent runs json's pure-Python generator encoder; a
    plain recursive writer writes the same bytes in about 55% of its time.
    """
    out = []
    try:
        _write_json(doc, "\n", out)
    except ValueError as exc:
        raise NumericError(f"document holds a non-finite number: {exc}") from exc
    out.append("\n")
    return "".join(out)


def _write_json(value, indent, out):
    """Append the indent=1 JSON text of ``value`` to ``out``; ``indent`` is
    the newline and the spaces that close its brackets."""
    # the order of json's own type checks: a bool is an int, and
    # np.float64 is a float
    if isinstance(value, str):
        out.append(_json_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            # raises json's ValueError, with json's message
            json.dumps([value], indent=1, allow_nan=False)
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = indent + " ", "["
        for item in value:
            out.append(sep + inner)
            _write_json(item, inner, out)
            sep = ","
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = indent + " ", "{"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{inner}{_json_string(key)}: ")
            _write_json(item, inner, out)
            sep = ","
        out.append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


#: the largest document `read_document` reads, in bytes: at least 8 times a
#: state document at MAX_BASIS_DIM levels (about 4 MB) and a profile table of
#: MAX_SAMPLES samples (about 5 MB)
MAX_DOCUMENT_BYTES = 64 << 20


def read_document(path, what):
    """The JSON object in the file at ``path``; an unreadable file, one past
    MAX_DOCUMENT_BYTES, one that json cannot decode (nested past its recursion
    limit included), or one that holds anything but an object, is an
    InvalidInputError, except a missing one, which stays FileNotFoundError.
    ``what`` names the kind of document."""
    try:
        with open(path) as fh:
            # a large file is refused unread; a pipe or device tells size 0,
            # so its read stops one past the cap
            size = os.fstat(fh.fileno()).st_size
            limit = -1 if size else MAX_DOCUMENT_BYTES + 1
            text = fh.read(limit) if size <= MAX_DOCUMENT_BYTES else ""
        if max(size, len(text)) > MAX_DOCUMENT_BYTES:
            raise InvalidInputError(f"{what} file {path!r} holds more than "
                                    f"MAX_DOCUMENT_BYTES={MAX_DOCUMENT_BYTES} bytes")
        doc = json.loads(text)
    except FileNotFoundError:
        raise
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"{what} file {path!r} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise InvalidInputError(f"cannot read {what} file {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError(
            f"{what} file {path!r} must hold a JSON object, got {type(doc).__name__}")
    return doc


def load_state(path):
    """Read a state document (see `read_document` for the errors)."""
    return state_from_dict(read_document(path, "state"))
