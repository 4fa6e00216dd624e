"""End-to-end CLI behavior: exit codes, JSON/CSV payloads, golden documents.

Invocations run in-process through ``main`` so coverage and debuggers see
straight through them; each golden is compared with the output of its
command byte for byte.  The tests at the end start fresh interpreters, to
hold the process entry (``python -m urstates.cli`` and the ``urstates``
console script) to the same bytes and exit codes.
"""

import contextlib
import csv
import gc
import io
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from urstates import acceptance, cli, dynamics, stateio
from urstates.cli import main
from urstates.errors import UrstatesError
from urstates.hilbert import (MAX_BASIS_DIM, Operator, StateVector, apply_bands, fock_basis,
                              multimode_basis, su11_basis, su11_ladder)
from urstates.metrics import g_overlap
from urstates.stateio import document_text, load_state, state_to_dict
from urstates.states import FAMILIES, canonical_ss

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _write_state(tmp_path, capsys, name, *argv):
    path = tmp_path / name
    code, _, err = run_cli(capsys, "state", *argv, "--out", str(path))
    assert code == 0, err
    return str(path)


def _profile(tmp_path, doc, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- state ------------------------------------------------------------------

def test_state_writes_document(capsys):
    code, out, err = run_cli(capsys, "state", "--family", "glauber",
                             "--alpha", "0.3+0.4j", "--cutoff", "32")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert set(doc) == {"family", "params", "basis", "amplitudes", "tail_mass"}
    assert doc["family"] == "glauber"
    assert doc["params"]["alpha"] == {"re": 0.3, "im": 0.4}
    assert len(doc["amplitudes"]) == 32
    norm = sum(re * re + im * im for re, im in doc["amplitudes"])
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_state_out_file_loads_back(tmp_path, capsys):
    target = tmp_path / "spin.json"
    code, out, _ = run_cli(capsys, "state", "--family", "su2-cs",
                           "--tau", "0.5j", "--j", "1.5",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    st = load_state(target)
    assert st.family == "su2_cs"
    assert st.basis.dim == 4


def test_state_missing_parameter(capsys):
    code, out, err = run_cli(capsys, "state", "--family", "glauber")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidInputError"
    assert "--alpha" in payload["message"]


def test_state_stray_parameter(capsys):
    code, _, err = run_cli(capsys, "state", "--family", "glauber",
                           "--alpha", "1.0", "--k", "0.5")
    assert code == 2
    assert "--k" in json.loads(err)["message"]


def test_state_truncation_gate(capsys):
    code, _, err = run_cli(capsys, "state", "--family", "glauber",
                           "--alpha", "3.0", "--cutoff", "32")
    assert code == 2
    assert json.loads(err)["error"] == "TruncationError"


@pytest.mark.parametrize("family", [
    ["glauber", "--alpha", "nan"],
    ["canonical-ss", "--u", "1.25", "--v", "0.75", "--alpha", "nan"],
    ["canonical-ss", "--alpha", "0", "--u", "nan", "--v", "0.3"],
    ["canonical-ss", "--alpha", "0", "--u", "1.25", "--v", "nan"],
])
def test_state_rejects_nan_alpha(capsys, family):
    # NaN amplitudes once passed the norm check and reached the document;
    # NaN parameters must be refused before numpy can warn about them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "state", "--family", *family,
                                 "--cutoff", "32")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidInputError"


#: every --family value with parameters that build, su2-cs last
_FAMILY_ARGS = [
    ["glauber", "--alpha", "0.5"],
    ["canonical-ss", "--alpha", "0.3", "--u", "1.25", "--v", "0.75"],
    ["squeezed-fock", "--n", "1", "--u", "1.25", "--v", "0.75"],
    ["even-cs", "--alpha", "0.5"],
    ["odd-cs", "--alpha", "0.5"],
    ["bg-cs", "--z", "0.5", "--k", "1"],
    ["su11-cs", "--xi", "0.6", "--k", "1"],
    ["su11-intelligent", "--u", "1", "--v", "-0.16", "--w", "0", "--z", "1.6", "--k", "1"],
    ["su2-cs", "--tau", "0.5j", "--j", "1.5"],
]


@pytest.mark.parametrize("family", _FAMILY_ARGS)
@pytest.mark.parametrize("bound", ["nan", "inf", "-1"])
def test_state_refuses_a_max_tail_that_is_not_a_finite_non_negative_number(capsys, family, bound):
    # --max-tail nan once turned the tail gate off, and -1 ended in a
    # TruncationError; every family is refused, su2-cs without a gate too
    cutoff = [] if family[0] == "su2-cs" else ["--cutoff", "16"]
    code, out, err = run_cli(capsys, "state", "--family", *family, *cutoff,
                             f"--max-tail={bound}")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "InvalidInputError"
    assert "--max-tail" in payload["message"]


@pytest.mark.parametrize("family", [f for f in _FAMILY_ARGS if f[0] != "su2-cs"],
                         ids=lambda f: f[0])
@pytest.mark.parametrize("cutoff", [MAX_BASIS_DIM + 1, -1])
def test_state_refuses_a_cutoff_outside_the_basis_bound_before_allocating(capsys, family, cutoff):
    # --cutoff 4000000 once built a 1.7 GB glauber vacuum, and a negative
    # cutoff ended in a ValueError traceback from np.zeros
    cli._build_parser()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "state", "--family", *family, f"--cutoff={cutoff}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "UnsupportedScaleError"
    # one amplitude vector of MAX_BASIS_DIM levels takes 1 MiB
    assert peak < 2 ** 18


@pytest.mark.parametrize("argv", [
    ["glauber", "--alpha", "3", "--cutoff", "64", "--max-tail", "1e-40"],
    ["bg-cs", "--z", "3", "--k", "1", "--cutoff", "24", "--max-tail", "1e-30"],
])
def test_state_max_tail_gates_glauber_and_bg_cs(capsys, argv):
    assert run_cli(capsys, "state", "--family", *argv[:-2])[0] == 0
    code, out, err = run_cli(capsys, "state", "--family", *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "TruncationError"


@pytest.mark.parametrize("z, k, cutoff", [
    (1e9, 1e20, 48),
    *((0.5 * math.sqrt(k), k, 24) for k in (1e20, 1e80, 1e200, 1e300)),
])
def test_state_bg_cs_at_a_large_eigenvalue_solves_its_eigen_equation(tmp_path, capsys,
                                                                     z, k, cutoff):
    # rounding in ||K- psi - z psi|| grows with |z|: an absolute residual
    # bound once refused these states with exit 1
    path = _write_state(tmp_path, capsys, "bg.json", "--family", "bg-cs", f"--z={z!r}",
                        f"--k={k!r}", "--cutoff", str(cutoff))
    psi = load_state(path).amplitudes
    residual = np.linalg.norm(apply_bands({1: su11_ladder(k, cutoff)}, psi) - z * psi)
    assert residual <= 1e-13 * z


def test_state_su2_cs_refuses_a_cutoff(capsys):
    # the spin irrep is exact: there is nothing for a cutoff to truncate
    code, out, err = run_cli(capsys, "state", "--family", "su2-cs", "--tau", "0.5",
                             "--j", "1", "--cutoff", "64")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "InvalidInputError",
                               "message": "family 'su2-cs' does not take --cutoff"}


def test_state_su2_cs_at_tau_zero_writes_its_family(capsys):
    code, out, _ = run_cli(capsys, "state", "--family", "su2-cs", "--tau", "0", "--j", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "su2_cs"
    assert doc["params"] == {"tau": {"re": 0.0, "im": 0.0}, "j": 2.0}


def test_state_overflow_is_a_numeric_failure_on_one_line(capsys):
    # 2k overflows a float, the K- ladder coefficients are inf and the
    # eigen-equation residual is NaN: once accepted with exit 0
    code, out, err = run_cli(capsys, "state", "--family", "bg-cs", "--z", "0",
                             "--k", "8.98846567431158e+307", "--cutoff", "8")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NumericError"


def test_state_arithmetic_error_is_a_numeric_failure_on_one_line(capsys, monkeypatch):
    def overflow(**_params):
        raise OverflowError("math range error")

    monkeypatch.setitem(FAMILIES, "glauber", (overflow, FAMILIES["glauber"][1]))
    code, out, err = run_cli(capsys, "state", "--family", "glauber", "--alpha", "0.5")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "OverflowError", "message": "math range error"}


@pytest.mark.parametrize("argv", [
    # |u|^2 overflowed (exit 1), or underflowed to a refused |u| <= |v| (exit 2)
    ("canonical-ss", "--alpha", "0", "--u=1e200", "--v", "0", "--cutoff", "32"),
    ("canonical-ss", "--alpha", "0", "--u=1e-200", "--v", "0", "--cutoff", "32"),
    # arg z underflows, where cmath.phase raised OverflowError (exit 1)
    ("bg-cs", "--z=4+5e-324j", "--k", "1"),
])
def test_state_builds_where_an_intermediate_overflowed_or_underflowed(capsys, argv):
    code, out, err = run_cli(capsys, "state", "--family", *argv)
    assert code == 0, err
    assert all(im == 0.0 for _re, im in json.loads(out)["amplitudes"])


def test_state_su11_intelligent_with_huge_parameters_is_one_error_line(capsys):
    # w*w - 4*u*v was inf - inf = NaN here, and the branch classification
    # raised ValueError out of round(nan); scaled onto the same ray, the
    # operator is the degenerate one with |xi| = 2
    code, out, err = run_cli(capsys, "state", "--family", "su11-intelligent",
                             "--u=3.3519519824856493e+153", "--v=1.3407807929942597e+154",
                             "--w=1.3407807929942597e+154", "--z", "0", "--k", "1",
                             "--cutoff", "8")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NormalizabilityError"


def test_state_su11_intelligent_off_the_discrete_spectrum_exits_2(capsys):
    # roots -0.068 and -2.93; this z once ended in NumericError (exit 1)
    code, out, err = run_cli(capsys, "state", "--family", "su11-intelligent", "--u", "1",
                             "--v", "0.2", "--w", "3", "--z", "0.5", "--k", "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NormalizabilityError"


# every --family value, with random parameters: finite, huge, NaN and
# infinite; cutoffs stay small and spins stay at j <= 20
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_PARAM_VALUES = {
    "n": st.integers(-10, 10 ** 6),
    "k": _ANY_FLOAT,
    "j": st.one_of(st.floats(max_value=20.0), st.just(math.nan), st.sampled_from([0.5, 3.0, 20.0])),
    "N": st.integers(8, 64),
    "max_tail": st.one_of(_ANY_FLOAT, st.sampled_from([1e-8, 1e-3, 1.0])),
}
_COMPLEX = st.one_of(
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.complex_numbers(max_magnitude=3.0),
)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_state_ends_in_a_document_or_one_error_line(family, data):
    _build, params = FAMILIES[family]
    argv = ["state", "--family", family]
    for name in params:
        value = data.draw(_PARAM_VALUES.get(name, _COMPLEX), label=name)
        argv.append(f"{cli._param_flag(name)}={value!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 64), (argv, err.getvalue())
    assert "NaN" not in out.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["amplitudes"]
    elif code != 64:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert set(json.loads(lines[0])) == {"error", "message"}


def test_state_max_tail_still_gates(capsys):
    argv = ["state", "--family", "su11-cs", "--xi", "0.6", "--k", "1", "--cutoff", "16"]
    assert json.loads(run_cli(capsys, *argv, "--max-tail", "1e-8")[2])["error"] == "TruncationError"
    assert run_cli(capsys, *argv, "--max-tail", "1e-4")[0] == 0


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["state", "--family", "mystery", "--alpha", "1"],
    ["state", "--family", "glauber", "--alpha", "1", "--wat", "3"],
    ["state", "--family", "glauber", "--alpha", "zed"],
    ["scan", "--suite", "nope"],
    # scan runs serially and takes no worker count
    ["scan", "--suite", "even-odd", "--jobs", "2"],
    # an empty list once ran no criterion and printed "0/0 criteria passed"
    ["selftest", "--criteria", ""],
    ["selftest", "--criteria", " , "],
    # and once wrote "orders": {}
    ["report", "--state", "st.json", "--observables", "canonical", "--orders", ""],
    ["selftest", "--criteria", "a"],
])
def test_grammar_errors_exit_64(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64


# -- report -----------------------------------------------------------------

def test_report_canonical_roundtrip(tmp_path, capsys):
    # (u, v) = (1.25, 0.75) sits exactly on the shell |u|^2 - |v|^2 = 1
    st = _write_state(tmp_path, capsys, "ss.json", "--family", "canonical-ss",
                      "--alpha", "0.4", "--u", "1.25", "--v", "0.75")
    code, out, _ = run_cli(capsys, "report", "--state", st,
                           "--observables", "canonical")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"state", "observables", "moments", "ur"}
    assert doc["state"]["family"] == "canonical_ss"
    assert doc["observables"] == "canonical"
    sigma = doc["moments"]["sigma"]
    assert sigma[0][0] == pytest.approx(0.125, rel=1e-9)
    assert sigma[1][1] == pytest.approx(2.0, rel=1e-9)
    assert doc["ur"]["pairs"]["0,1"]["saturated"]["schr"] is True
    assert set(doc["ur"]["orders"]) == {"1", "2"}


def test_report_orders_filter(tmp_path, capsys):
    st = _write_state(tmp_path, capsys, "g.json", "--family", "glauber",
                      "--alpha", "0.2", "--cutoff", "32")
    code, out, _ = run_cli(capsys, "report", "--state", st,
                           "--observables", "canonical", "--orders", "2")
    assert code == 0
    assert set(json.loads(out)["ur"]["orders"]) == {"2"}
    code2, _, err = run_cli(capsys, "report", "--state", st,
                            "--observables", "canonical", "--orders", "3")
    assert code2 == 2
    assert json.loads(err)["error"] == "InvalidInputError"


def test_report_refuses_orders_before_the_moments(tmp_path, capsys, monkeypatch):
    st = _write_state(tmp_path, capsys, "g.json", "--family", "glauber",
                      "--alpha", "0.2", "--cutoff", "32")

    def no_work(*args, **kwargs):
        raise AssertionError("moments computed for a refused --orders")

    monkeypatch.setattr(cli, "moment_report", no_work)
    code, out, err = run_cli(capsys, "report", "--state", st,
                             "--observables", "canonical", "--orders", "1,3")
    assert code == 2
    assert out == ""
    assert "orders [3]" in json.loads(err)["message"]


def test_report_certificate_block(tmp_path, capsys):
    st = _write_state(tmp_path, capsys, "ss.json", "--family", "canonical-ss",
                      "--alpha", "0.4", "--u", "1.25", "--v", "0.75")
    code, out, _ = run_cli(capsys, "report", "--state", st,
                           "--observables", "canonical", "--certificate")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["verdict"] == "minimizer"
    assert doc["certificate"]["pairs"]["0,1"]["residual"] < 1e-8


def test_report_certificate_su11_cs_is_minimizer(tmp_path, capsys):
    # an exact minimizer whose residuals once read 1e-8 through sqrt(lambda_min)
    st = _write_state(tmp_path, capsys, "cs.json", "--family", "su11-cs",
                      "--xi", "0.5", "--k", "1")
    code, out, _ = run_cli(capsys, "report", "--state", st,
                           "--observables", "su11", "--certificate")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["verdict"] == "minimizer"
    assert max(rec["residual"] for rec in cert["pairs"].values()) < 1e-14


def test_report_basis_mismatch(tmp_path, capsys):
    spin = _write_state(tmp_path, capsys, "spin.json", "--family", "su2-cs",
                        "--tau", "0.3", "--j", "0.5")
    code, _, err = run_cli(capsys, "report", "--state", spin,
                           "--observables", "canonical")
    assert code == 2
    assert json.loads(err)["error"] == "BasisMismatchError"


def test_report_su11_index_must_agree(tmp_path, capsys):
    # the set is built at the state's exact k, whose name shows k to 6
    # significant digits
    for k, shown in (("1", "su11:1"), ("0.3333333333333333", "su11:0.333333"),
                     ("1.0000001", "su11:1")):
        st = _write_state(tmp_path, capsys, "cs.json", "--family", "su11-cs",
                          "--xi", "0.3", "--k", k, "--cutoff", "64")
        for name in ("su11", f"su11:{k}"):
            code, out, err = run_cli(capsys, "report", "--state", st,
                                     "--observables", name)
            assert code == 0, (k, name, err)
            assert json.loads(out)["observables"] == shown
        code2, _, err = run_cli(capsys, "report", "--state", st,
                                "--observables", "su11:0.5")
        assert code2 == 2
        assert json.loads(err)["error"] == "BasisMismatchError"


#: state commands, each with observable sets that live on another basis
_FOREIGN_SETS = {
    "fock": (["--family", "glauber", "--alpha", "0.3", "--cutoff", "32"],
             ["su11", "su2", "canonical:2"]),
    "su11": (["--family", "su11-cs", "--xi", "0.3", "--k", "1", "--cutoff", "64"],
             ["canonical", "a2-quadratures", "su2"]),
    "su2": (["--family", "su2-cs", "--tau", "0.3", "--j", "1.5"],
            ["canonical", "su11:0.5"]),
}


@pytest.mark.parametrize("kind", sorted(_FOREIGN_SETS))
def test_report_refuses_a_set_of_another_basis(tmp_path, capsys, kind):
    state_args, names = _FOREIGN_SETS[kind]
    st = _write_state(tmp_path, capsys, "st.json", *state_args)
    for name in names:
        code, out, err = run_cli(capsys, "report", "--state", st, "--observables", name)
        assert code == 2, (name, err)
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "BasisMismatchError", name


def test_report_with_overflowing_gaps_is_a_numeric_error(tmp_path, capsys):
    # K1 and K2 carry variances near k/2, so C_2(sigma) overflows at k = 1e200
    st = _write_state(tmp_path, capsys, "bg.json", "--family", "bg-cs", "--z", "0.5",
                      "--k", "1e200", "--cutoff", "8")
    code, out, err = run_cli(capsys, "report", "--state", st, "--observables", "su11")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "NumericError"
    assert "order-2 gap" in payload["message"]


def test_report_missing_state_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", "--state",
                           str(tmp_path / "ghost.json"),
                           "--observables", "canonical")
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"


@pytest.mark.parametrize("bound", ["nan", "inf", "-1"])
def test_report_refuses_a_max_tail_that_is_not_a_finite_non_negative_number(tmp_path, capsys,
                                                                          bound):
    st = _write_state(tmp_path, capsys, "cs.json", "--family", "glauber", "--alpha", "0.5",
                      "--cutoff", "32")
    code, out, err = run_cli(capsys, "report", "--state", st, "--observables", "canonical",
                             f"--max-tail={bound}")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


def _break_basis_n(doc):
    doc["basis"]["N"] = "abc"


def _break_amplitude_pair(doc):
    doc["amplitudes"][3] = [0.5]


@pytest.mark.parametrize("defect", ["basis-N", "short-pair", "directory"])
def test_report_malformed_state_document_exits_2(tmp_path, capsys, defect):
    path = _write_state(tmp_path, capsys, "s.json", "--family", "glauber",
                        "--alpha", "0.3", "--cutoff", "32")
    if defect == "directory":
        path = str(tmp_path)
    else:
        doc = json.loads(pathlib.Path(path).read_text())
        {"basis-N": _break_basis_n, "short-pair": _break_amplitude_pair}[defect](doc)
        pathlib.Path(path).write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "report", "--state", path,
                             "--observables", "canonical")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidInputError"


@pytest.mark.parametrize("verb", ["report", "distance", "evolve"])
def test_a_file_that_holds_no_json_object_is_refused_by_name(tmp_path, capsys, verb):
    # a state file once ended in Python's "list indices must be integers"
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    argv = {"report": ["--state", str(path), "--observables", "canonical"],
            "distance": ["--state1", str(path), "--state2", str(path)],
            "evolve": ["--profile", str(path), "--samples", "5"]}[verb]
    code, out, err = run_cli(capsys, verb, *argv)
    _assert_one_invalid_input_line(code, out, err, f"{str(path)!r} must hold a JSON object")


#: nested far past the recursion limit that the json module's decoder runs into
_DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("verb,text", [
    ("report", _DEEP),
    ("report", '{"basis": %s}' % _DEEP),
    ("evolve", '{"kind": "omega", "omega": %s}' % _DEEP),
], ids=["report-top", "report-basis", "evolve-omega"])
def test_a_deeply_nested_document_exits_2(tmp_path, capsys, verb, text):
    # once a bare RecursionError traceback with exit 1
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = {"report": ["--state", str(path), "--observables", "canonical"],
            "evolve": ["--profile", str(path), "--samples", "5"]}[verb]
    code, out, err = run_cli(capsys, verb, *argv)
    _assert_one_invalid_input_line(code, out, err, f"{str(path)!r} is not valid JSON")
    assert "recursion depth" in err


@pytest.mark.parametrize("verb", ["report", "evolve"])
def test_a_document_past_the_size_cap_is_refused_unread(tmp_path, capsys, verb):
    # a 2 GiB sparse file once ran 7.7 s and peaked at 4.15 GB RSS before
    # json refused it
    path = tmp_path / "huge.json"
    path.touch()
    os.truncate(path, 2 << 30)
    argv = {"report": ["--state", str(path), "--observables", "canonical"],
            "evolve": ["--profile", str(path), "--samples", "5"]}[verb]
    cli._build_parser()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    code, out, err = run_cli(capsys, verb, *argv)
    elapsed = time.perf_counter() - start
    _assert_one_invalid_input_line(code, out, err, "more than MAX_DOCUMENT_BYTES")
    assert elapsed < 0.05
    # a read of the cap alone would take 64 MiB
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kib < 1024


def test_a_document_at_the_size_cap_is_read(tmp_path, capsys, monkeypatch):
    path = tmp_path / "st.json"
    text = (GOLDEN / "state_glauber.json").read_text()
    path.write_text(text)
    monkeypatch.setattr(stateio, "MAX_DOCUMENT_BYTES", len(text))
    code, out, err = run_cli(capsys, "report", "--state", str(path), "--observables", "canonical")
    assert code == 0, err
    path.write_text(text + " ")
    code, out, err = run_cli(capsys, "report", "--state", str(path), "--observables", "canonical")
    _assert_one_invalid_input_line(code, out, err, "more than MAX_DOCUMENT_BYTES")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs a device that never ends")
def test_a_device_is_read_one_past_the_size_cap(capsys, monkeypatch):
    # fstat gives a device size 0, and json once read it until memory ran out
    monkeypatch.setattr(stateio, "MAX_DOCUMENT_BYTES", 1000)
    code, out, err = run_cli(capsys, "report", "--state", "/dev/zero", "--observables", "canonical")
    _assert_one_invalid_input_line(code, out, err, "more than MAX_DOCUMENT_BYTES=1000")


def test_a_sample_table_past_max_samples_is_refused(tmp_path, capsys):
    n = cli.MAX_SAMPLES + 1
    prof = _profile(tmp_path, {"kind": "omega",
                               "omega": {"t": list(range(n)), "values": [1.0] * n}})
    code, out, err = run_cli(capsys, "evolve", "--profile", prof, "--samples", "5")
    _assert_one_invalid_input_line(code, out, err, f"more than MAX_SAMPLES={cli.MAX_SAMPLES}")


@pytest.mark.parametrize("tail", [0.5, True, "0.0", None, float("nan"), [0.0], 1e-11, 10 ** 400,
                                  "nested"],
                         ids=["half", "bool", "string", "null", "nan", "list", "off-by-1e-11",
                              "huge-int", "nested"])
def test_a_state_document_whose_tail_mass_is_not_its_own_exits_2(tmp_path, capsys, tail):
    # the loader once ignored the recorded tail mass, even a list nested 900 deep
    doc = json.loads((GOLDEN / "state_glauber.json").read_text())
    doc["tail_mass"] = json.loads("[" * 900 + "]" * 900) if tail == "nested" else tail
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "report", "--state", str(path), "--observables", "canonical")
    _assert_one_invalid_input_line(code, out, err, "'tail_mass'")


def test_a_state_document_keeps_its_tail_mass_or_leaves_it_out(tmp_path, capsys):
    doc = json.loads((GOLDEN / "state_su11-cs.json").read_text())
    tail = load_state(GOLDEN / "state_su11-cs.json").tail_mass
    assert doc["tail_mass"] == tail > 0.0
    path = tmp_path / "st.json"
    for recorded in (tail, tail + 5e-13, tail - 5e-13, None):
        if recorded is None:
            del doc["tail_mass"]
        else:
            doc["tail_mass"] = recorded
        path.write_text(json.dumps(doc))
        assert load_state(path).tail_mass == tail
    for golden in sorted(GOLDEN.glob("state_*.json")):
        recorded = json.loads(golden.read_text())["tail_mass"]
        assert load_state(golden).tail_mass == recorded


def _params_list(doc):
    doc["params"] = []


def _basis_n_fraction(doc):
    doc["basis"]["N"] = 4.9


def _basis_k_nan(doc):
    doc["basis"] = {"kind": "su11", "k": float("nan"), "N": doc["basis"]["N"]}


def _basis_k_string(doc):
    doc["basis"] = {"kind": "su11", "k": "0.5", "N": doc["basis"]["N"]}


def _basis_j_bool(doc):
    doc["basis"] = {"kind": "su2", "j": True}


def _basis_unlisted_k(doc):
    # once loaded with exit 0, though BasisSpec("fock", N=32, k=0.5) is refused
    doc["basis"]["k"] = 0.5


def _amplitude_huge(doc):
    # squared before it was checked: once a numpy overflow warning and the
    # message "must be finite"
    doc["amplitudes"][0] = [1e308, 0.0]


def _amplitude_nan(doc):
    doc["amplitudes"][0] = [math.nan, 0.0]


def _amplitude_bool(doc):
    # once read as 0.0 by complex(), with exit 0
    doc["amplitudes"] = [[re, False] for re, _im in doc["amplitudes"]]


def _family_nan(doc):
    # once a NumericError with exit 1, as the report echoed the family
    doc["family"] = math.nan


def _family_list(doc):
    # once echoed into the report with exit 0
    doc["family"] = [1, {}]


def _param_nan(doc):
    # this and the next once loaded silently with exit 0
    doc["params"]["alpha"] = math.nan


def _param_complex_inf(doc):
    doc["params"]["alpha"] = {"re": math.inf, "im": 0}


_FIELD_DEFECTS = {"params-list": (_params_list, "params"),
                  "family-nan": (_family_nan, "'family'"),
                  "family-list": (_family_list, "'family'"),
                  "param-nan": (_param_nan, "'alpha'"),
                  "param-complex-inf": (_param_complex_inf, "'alpha'"),
                  "basis-N-fraction": (_basis_n_fraction, "'N'"),
                  "basis-k-nan": (_basis_k_nan, "'k'"),
                  "basis-k-string": (_basis_k_string, "'k'"),
                  "basis-j-bool": (_basis_j_bool, "'j'"),
                  "basis-unlisted-k": (_basis_unlisted_k, "takes no field 'k'"),
                  "amplitude-huge": (_amplitude_huge, "not normalized"),
                  "amplitude-nan": (_amplitude_nan, "must be finite"),
                  "amplitude-bool": (_amplitude_bool, "'amplitudes'")}


def _defective_state(tmp_path, capsys, defect, name="s.json"):
    path = _write_state(tmp_path, capsys, name, "--family", "glauber",
                        "--alpha", "0.3", "--cutoff", "32")
    doc = json.loads(pathlib.Path(path).read_text())
    _FIELD_DEFECTS[defect][0](doc)
    # json.dumps writes a NaN k as the NaN literal, which json.load reads back
    pathlib.Path(path).write_text(json.dumps(doc))
    return path


def _assert_one_invalid_input_line(code, out, err, field):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "InvalidInputError"
    assert field in doc["message"]


@pytest.mark.parametrize("defect", sorted(_FIELD_DEFECTS))
def test_report_refuses_a_malformed_field_by_name(tmp_path, capsys, defect):
    path = _defective_state(tmp_path, capsys, defect)
    code, out, err = run_cli(capsys, "report", "--state", path, "--observables", "canonical")
    _assert_one_invalid_input_line(code, out, err, _FIELD_DEFECTS[defect][1])


@pytest.mark.parametrize("defect", sorted(_FIELD_DEFECTS))
def test_distance_refuses_a_malformed_field_by_name(tmp_path, capsys, defect):
    bad = _defective_state(tmp_path, capsys, defect)
    good = _write_state(tmp_path, capsys, "good.json", "--family", "glauber",
                        "--alpha", "0.1", "--cutoff", "32")
    for argv in (["--state1", bad, "--state2", good], ["--state1", good, "--state2", bad]):
        code, out, err = run_cli(capsys, "distance", *argv)
        _assert_one_invalid_input_line(code, out, err, _FIELD_DEFECTS[defect][1])


#: family parameters at modest values, so that most draws build a state
_REPORT_PARAMS = {
    "alpha": st.complex_numbers(max_magnitude=1.5),
    "u": st.floats(1.0, 2.0),
    "v": st.complex_numbers(max_magnitude=0.9),
    "w": st.complex_numbers(max_magnitude=0.5),
    "z": st.complex_numbers(max_magnitude=1.5),
    "xi": st.complex_numbers(max_magnitude=0.8),
    "tau": st.complex_numbers(max_magnitude=3.0),
    "n": st.integers(0, 3),
    "k": st.sampled_from([0.5, 1.0, 1.5]),
    "j": st.sampled_from([0.5, 1.0, 2.5]),
    "N": st.sampled_from([8, 16, 24]),
    "max_tail": st.none(),
}
#: the observable sets of each basis kind, and a list that mostly mismatches
_SETS_OF_BASIS = {"fock": ["canonical", "a2-quadratures"], "su11": ["su11"], "su2": ["su2"]}
_OBSERVABLE_SETS = ["canonical", "canonical:2", "su11", "su11:1", "su2", "su2:2.5",
                    "a2-quadratures", "bogus"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_report_ends_in_a_document_or_one_error_line(data):
    family = data.draw(st.sampled_from(sorted(FAMILIES)), label="family")
    build, params = FAMILIES[family]
    kwargs = {p: data.draw(_REPORT_PARAMS[p], label=p) for p in params}
    try:
        state = build(**kwargs)
    except UrstatesError:
        assume(False)
    sets = st.sampled_from(_SETS_OF_BASIS[state.basis.kind]) | st.sampled_from(_OBSERVABLE_SETS)
    argv = ["report", "--observables", data.draw(sets, label="set")]
    orders = data.draw(st.none() | st.lists(st.integers(1, 3), min_size=1, max_size=3)
                       | st.lists(st.integers(-1, 5), min_size=1, max_size=3), label="orders")
    if orders is not None:
        argv.append("--orders=" + ",".join(map(str, orders)))
    if data.draw(st.booleans(), label="certificate"):
        argv.append("--certificate")
    max_tail = data.draw(st.none() | st.sampled_from([1e-8, 1e-3, 1.0]) | st.floats(),
                         label="max_tail")
    if max_tail is not None:
        argv.append(f"--max-tail={max_tail!r}")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "st.json")
        with open(path, "w") as fh:
            fh.write(document_text(state_to_dict(state)))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--state", path])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 64), (argv, err.getvalue())
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
    if code == 0:
        doc = json.loads(out.getvalue())
        if "certificate" in doc and orders is None:
            _assert_certificate_gaps_are_the_ur_gaps(doc)
    elif code != 64:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert set(json.loads(lines[0])) == {"error", "message"}


# -- distance ---------------------------------------------------------------

def test_distance_identity_closed_form(tmp_path, capsys):
    s1 = _write_state(tmp_path, capsys, "a.json", "--family", "glauber",
                      "--alpha", "0.5", "--cutoff", "32")
    # a leading minus must ride in the same token as the flag
    s2 = _write_state(tmp_path, capsys, "b.json", "--family", "glauber",
                      "--alpha=-0.1+0.2j", "--cutoff", "32")
    code, out, _ = run_cli(capsys, "distance", "--state1", s1, "--state2", s2)
    assert code == 0
    doc = json.loads(out)
    assert doc["observable"] == "identity"
    delta = abs(0.5 - (-0.1 + 0.2j))
    assert doc["g"] == pytest.approx(math.exp(-delta * delta / 2.0), rel=1e-9)
    assert doc["D2"] == pytest.approx(2.0 * (1.0 - doc["g"]), abs=1e-14)

    code2, out2, _ = run_cli(capsys, "distance", "--state1", s1,
                             "--state2", s2, "--observable", "n+1")
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["observable"] == "n+1"
    assert abs(doc2["g"] - doc["g"]) > 1e-4


def test_distance_observable_gates(tmp_path, capsys):
    s1 = _write_state(tmp_path, capsys, "a.json", "--family", "glauber",
                      "--alpha", "0.5", "--cutoff", "32")
    s2 = _write_state(tmp_path, capsys, "b.json", "--family", "glauber",
                      "--alpha", "0.1", "--cutoff", "32")
    code, _, err = run_cli(capsys, "distance", "--state1", s1, "--state2", s2,
                           "--observable", "k3")
    assert code == 2
    assert json.loads(err)["error"] == "BasisMismatchError"
    code2, _, err2 = run_cli(capsys, "distance", "--state1", s1,
                             "--state2", s2, "--observable", "banana")
    assert code2 == 2
    assert json.loads(err2)["error"] == "InvalidInputError"


@pytest.mark.parametrize("k", [1e80, 1e200, 1e300])
def test_distance_under_k3_at_a_huge_index(tmp_path, capsys, k):
    # |K3 psi|^2 is near k^2, so the product of the two norms overflows
    s1 = _write_state(tmp_path, capsys, "a.json", "--family", "bg-cs", "--z", "0.5",
                      "--k", repr(k), "--cutoff", "8")
    # the bg-cs states at such k are all near |k, k>: two decaying random rays
    rng = np.random.default_rng(24)
    basis = su11_basis(k, 8)
    rays = [(rng.normal(size=8) + 1j * rng.normal(size=8)) * 0.2 ** np.arange(8)
            for _ in range(2)]
    pair = [StateVector(ray / np.linalg.norm(ray), basis) for ray in rays]
    paths = [str(tmp_path / f"r{i}.json") for i in range(2)]
    for path, st in zip(paths, pair):
        pathlib.Path(path).write_text(document_text(state_to_dict(st)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "distance", "--state1", s1, "--state2", s1,
                                 "--observable", "k3")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["g"], doc["D2"]) == (1.0, 0.0)
        code, out, err = run_cli(capsys, "distance", "--state1", paths[0],
                                 "--state2", paths[1], "--observable", "k3")
        assert (code, err) == (0, "")
    # g does not change when X is scaled: K3 / k has the band (k + n) / k
    scaled = Operator("K3/k", {0: (k + np.arange(8.0)) / k}, basis)
    g = json.loads(out)["g"]
    assert 0.0 < g < 0.99
    assert g == pytest.approx(g_overlap(*pair, scaled).g, rel=1e-12, abs=0)


def test_distance_tail_gate_is_a_truncation_error(tmp_path, capsys):
    # the top level of 32 holds 1/8 of the mass, above the 1e-8 bound
    amp = np.zeros(32)
    amp[0], amp[31] = math.sqrt(7.0 / 8.0), math.sqrt(1.0 / 8.0)
    path = tmp_path / "top.json"
    path.write_text(document_text(state_to_dict(StateVector(amp, fock_basis(32)))))
    s2 = _write_state(tmp_path, capsys, "b.json", "--family", "glauber",
                      "--alpha", "0.1", "--cutoff", "32")
    for argv in (["--state1", str(path), "--state2", s2],
                 ["--state1", s2, "--state2", str(path), "--observable", "n+1"]):
        code, out, err = run_cli(capsys, "distance", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "TruncationError"


#: the families of the distance property test: the strategy of the point
#: parameter, and of the parameters that fix the basis
_DISTANCE_FAMILIES = {
    "glauber": ({"alpha": st.complex_numbers(max_magnitude=1.5)},
                {"N": st.sampled_from([40, 48])}),
    "su11-cs": ({"xi": st.complex_numbers(max_magnitude=0.9)},
                {"k": st.sampled_from([0.5, 1.0]), "N": st.sampled_from([None, 24, 48])}),
    "su2-cs": ({"tau": st.complex_numbers(max_magnitude=3.0)},
               {"j": st.sampled_from([1.0, 2.5])}),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_distance_ends_in_a_document_or_one_error_line(data):
    # the second state shares the first one's basis parameters unless the
    # draw asks for a mismatch, of family or of basis
    mismatch = data.draw(st.booleans(), label="mismatch")
    docs, basis = [], None
    for label in ("state1", "state2"):
        if basis is None or mismatch:
            family = data.draw(st.sampled_from(sorted(_DISTANCE_FAMILIES)), label=label)
            point, shape = _DISTANCE_FAMILIES[family]
            basis = {p: data.draw(s, label=f"{label}.{p}") for p, s in shape.items()}
        kwargs = {p: data.draw(s, label=f"{label}.{p}") for p, s in point.items()}
        try:
            docs.append(document_text(state_to_dict(FAMILIES[family][0](**kwargs, **basis))))
        except UrstatesError:
            assume(False)
    observable = data.draw(st.sampled_from([None, "identity", "n+1", "k3", "banana"]),
                           label="observable")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["distance"]
        for i, text in enumerate(docs, 1):
            path = os.path.join(tmp, f"s{i}.json")
            with open(path, "w") as fh:
                fh.write(text)
            argv += [f"--state{i}", path]
        if observable is not None:
            argv += ["--observable", observable]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "NaN" not in out.getvalue()
    if code == 0:
        doc = json.loads(out.getvalue())
        assert 0.0 <= doc["g"] <= 1.0
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert set(json.loads(lines[0])) == {"error", "message"}


#: what a structural mutation writes: non-finite and huge numbers, strings,
#: containers and bools
_FUZZ_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, 0, -1, 0.5, 10 ** 400,
                "", "0.5", [], [1.0, 0.0], [[1.0, 0.0]], {}, {"re": 1.0, "im": 0.0},
                True, False, None]
#: a step of a mutation path: a key, an index taken modulo the size of its
#: level, or "*" for every entry of the level
_FUZZ_STEPS = st.integers(0, 63) | st.sampled_from(["*", "basis", "amplitudes", "params"])
#: the observable set a report of each basis kind asks for
_FUZZ_SETS = {"fock": "canonical", "su11": "su11", "su2": "su2"}


def _mutate(node, path, op, value):
    """Apply one structural mutation to the JSON tree ``node`` at ``path``:
    delete the entry, set it to ``value``, or extend the array it holds by
    ``value``.  A path that leaves the tree changes nothing."""
    if isinstance(node, dict):
        keys = sorted(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    else:
        return
    step, rest = path[0], path[1:]
    if step == "*":
        targets = keys[::-1]
    elif isinstance(step, str):
        targets = [step] if step in keys else []
    else:
        targets = [keys[step % len(keys)]] if keys else []
    for key in targets:
        if rest:
            _mutate(node[key], rest, op, value)
        elif op == "delete":
            del node[key]
        elif op == "set":
            node[key] = json.loads(json.dumps(value))
        elif isinstance(node[key], list):
            node[key].append(json.loads(json.dumps(value)))


def _reject_constant(name):
    raise AssertionError(f"output holds {name}")


@settings(max_examples=150, deadline=None)
@given(golden=st.sampled_from(sorted(GOLDEN.glob("state_*.json"))),
       path=st.lists(_FUZZ_STEPS, min_size=1, max_size=3).map(tuple),
       op=st.sampled_from(["delete", "set", "extend"]),
       value=st.sampled_from(_FUZZ_VALUES),
       verb=st.sampled_from(["report", "distance", "distance-self", "distance-k3"]))
@example(golden=GOLDEN / "state_su11-cs.json", path=("basis", "k"), op="set", value=1e200,
         verb="report")
@example(golden=GOLDEN / "state_su11-cs.json", path=("basis", "k"), op="set", value=1e308,
         verb="report")
@example(golden=GOLDEN / "state_su2-cs.json", path=("basis", "j"), op="set", value=1e308,
         verb="report")
@example(golden=GOLDEN / "state_glauber.json", path=("amplitudes", "*", 1), op="set",
         value=False, verb="distance")
def test_mutated_state_documents_end_in_a_document_or_one_error_line(golden, path, op, value,
                                                                     verb):
    doc = json.loads(golden.read_text())
    kind = doc["basis"]["kind"]
    _mutate(doc, path, op, value)
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        if verb == "report":
            argv = ["report", "--state", bad, "--observables", _FUZZ_SETS[kind]]
        else:
            other = bad if verb != "distance" else str(golden)
            argv = ["distance", "--state1", bad, "--state2", other]
            if verb == "distance-k3":
                argv += ["--observable", "k3" if kind == "su11" else "n+1"]
        code, out, err = _run_main(argv)
    assert code in (0, 1, 2, 64), (argv, err)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
        return
    assert out == "", argv
    lines = err.splitlines()
    assert len(lines) == 1, (argv, lines)
    error = json.loads(lines[0], parse_constant=_reject_constant)
    assert set(error) == {"error", "message"}
    if code == 1:
        # a document_text refusal means a non-finite number reached the output
        assert error["error"] == "NumericError", (argv, error)
        assert not error["message"].startswith("document holds"), (argv, error)


# -- evolve -----------------------------------------------------------------

def test_evolve_constant_profile(tmp_path, capsys):
    prof = _profile(tmp_path, {"kind": "omega", "omega": 2.0, "omega0": 1.0})
    code, out, _ = run_cli(capsys, "evolve", "--profile", prof,
                           "--t0", "0", "--t1", "1", "--samples", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,re_eps,im_eps,re_u,im_u,re_v,im_v,dq2,dp2,dpq"
    assert len(lines) == 6
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[3] == pytest.approx(1.0, abs=1e-12)   # u(0)
    assert first[4] == pytest.approx(0.0, abs=1e-12)
    assert first[5] == pytest.approx(0.0, abs=1e-12)   # v(0)
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        dq2, dp2, dpq = cells[7], cells[8], cells[9]
        assert dq2 * dp2 - dpq * dpq == pytest.approx(0.25, rel=1e-8)


def test_evolve_expression_and_sampled_profiles(tmp_path, capsys):
    expr = _profile(tmp_path, {"kind": "omega",
                               "omega": "2.0 + 0.1*sin(t)",
                               "omega0": 2.0}, "expr.json")
    code, out, _ = run_cli(capsys, "evolve", "--profile", expr,
                           "--t0", "0", "--t1", "1", "--samples", "9")
    assert code == 0
    assert len(out.strip().split("\n")) == 10

    sampled = _profile(tmp_path, {
        "kind": "omega",
        "omega": {"t": [0.0, 0.4, 0.8, 1.2, 1.6, 2.0],
                  "values": [2.0, 2.05, 2.1, 2.05, 2.0, 1.95]},
        "omega0": 2.0}, "sampled.json")
    code2, out2, _ = run_cli(capsys, "evolve", "--profile", sampled,
                             "--t0", "0", "--t1", "1", "--samples", "9")
    assert code2 == 0
    assert len(out2.strip().split("\n")) == 10


@pytest.mark.parametrize("argv", [
    ["--t0", "0", "--t1", "8"],
    ["--t0=-1", "--t1", "2"],
])
def test_evolve_refuses_a_time_outside_the_samples(tmp_path, capsys, argv):
    # a cubic continued five time units past the last sample once gave the
    # t = 8 row dp2 = 306.13 with exit 0
    prof = _profile(tmp_path, {"kind": "omega",
                               "omega": {"t": [0, 1, 2, 3], "values": [1.0, 2.0, 1.0, 2.0]}})
    code, out, err = run_cli(capsys, "evolve", "--profile", prof, *argv, "--samples", "3")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "InvalidInputError"
    assert "'omega'" in doc["message"] and "[0.0, 3.0]" in doc["message"]


def test_evolve_reads_omega_at_zero_only_without_omega0(tmp_path, capsys):
    # samples on [1, 4] serve the window [1, 2] once omega0 is given
    prof = _profile(tmp_path, {"kind": "omega", "omega0": 2.0,
                               "omega": {"t": [1, 2, 3, 4], "values": [2.0, 2.1, 2.0, 1.9]}})
    code, out, err = run_cli(capsys, "evolve", "--profile", prof,
                             "--t0", "1", "--t1", "2", "--samples", "3")
    assert code == 0, err
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("doc", [
    {"kind": "banana", "omega": 2.0},
    {"kind": "omega"},
    {"kind": "omega", "omega": "badfn(t)"},
    {"kind": "omega", "omega": {"t": [0.0, 1.0], "values": [2.0, 2.0]}},
    {"kind": "omega", "omega": [2.0]},
    {"kind": "g123", "g1": 0.5, "g2": 0.0, "g3": 0.5},
    {"kind": "g123", "g1": 1.0, "g2": 0.0, "g3": 1.0, "omega0": 1.0},
    [1],
    {"kind": "omega", "omega": 1.0, "omega0": "x"},
    {"kind": "omega", "omega": 1.0, "omega0": math.nan},
    {"kind": "omega", "omega": math.inf},
    {"kind": "g123", "g1": 0.5, "g2": 0.0, "g3": 0.5, "omega0": math.nan},
    {"kind": "omega", "omega": "sqrt(0.5 - t)"},
    {"kind": "omega", "omega": "1 + (0.5 - t) ** 0.5"},
    {"kind": "omega", "omega": "1 + 1e300 * 1e300 * t"},
    # too deep for the parser: once a RecursionError traceback with exit 1
    {"kind": "omega", "omega": "-" * 5000 + "t"},
    {"kind": "omega", "omega": "2 + t // 2"},
    # not frequency form, though g1 reads 1/2 (to 1e-16) at every output time
    {"kind": "g123", "g1": "0.5 + 0.1*sin(4*pi*t)", "g2": 0, "g3": 1, "omega0": 1},
    # the spline overflows while it is built: once two numpy RuntimeWarning
    # lines before the error line
    {"kind": "omega", "omega": {"t": [0, 1, 2, 3], "values": [1.0, 1.1, 1.2, 1e308]}},
    # samples that miss t = 0, where omega0 is read, or the end of the window
    {"kind": "omega", "omega": {"t": [0.5, 1, 1.5, 2], "values": [2.0, 2.1, 2.0, 1.9]}},
    {"kind": "omega", "omega": {"t": [0, 0.2, 0.4, 0.6], "values": [2.0, 2.1, 2.0, 1.9]}},
    # a JSON bool or a numeric string where a number is read: each once ran
    # with exit 0, the first with omega = 1 and the third as a bare profile
    {"kind": "omega", "omega": True},
    {"kind": "omega", "omega": 2.0, "omega0": "1.5"},
    {"kind": "g123", "g1": 0.5, "g2": False, "g3": 1.0, "omega0": 1.0},
    {"kind": "g123", "g1": 0.5, "g2": 0.0, "g3": 1.0, "omega0": True},
])
def test_evolve_rejects_bad_profiles(tmp_path, capsys, doc):
    prof = _profile(tmp_path, doc)
    code, out, err = run_cli(capsys, "evolve", "--profile", prof,
                             "--t0", "0", "--t1", "1", "--samples", "5")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("key", ["t", "values"])
@pytest.mark.parametrize("bad", [True, "1"], ids=["bool", "string"])
def test_evolve_refuses_a_sample_table_entry_that_is_not_a_number(tmp_path, capsys, key, bad):
    # a bool or a numeric string read as 1.0: each once evolved with exit 0
    table = {"t": [0, 1, 2, 3, 4], "values": [1.0] * 5}
    table[key][1] = bad
    prof = _profile(tmp_path, {"kind": "omega", "omega": table})
    code, out, err = run_cli(capsys, "evolve", "--profile", prof,
                             "--t0", "0", "--t1", "1", "--samples", "5")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "InvalidInputError"
    assert "'omega'" in error["message"]


@pytest.mark.parametrize("expr", ["t + 3**3**15", "('a'*10**8) and t"])
def test_evolve_refuses_an_expression_before_it_grows(tmp_path, capsys, expr):
    # evaluated by eval, the first took 3.6 s on a huge exact int and the
    # second allocated about 95 MB before either was refused
    prof = _profile(tmp_path, {"kind": "omega", "omega": expr})
    cli._build_parser()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "evolve", "--profile", prof,
                                 "--t0", "0", "--t1", "1", "--samples", "5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidInputError"
    assert peak < 2 ** 20


def test_evolve_bare_g123_profile(tmp_path, capsys):
    # the README's g123 example: g1 and g2 given as the numbers 1/2 and 0
    prof = _profile(tmp_path, {"kind": "g123", "g1": 0.5, "g2": 0.0,
                               "g3": "2.0 + t", "omega0": 1.5})
    code, out, _ = run_cli(capsys, "evolve", "--profile", prof,
                           "--t0", "0", "--t1", "1", "--samples", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        assert cells[7] * cells[8] - cells[9] ** 2 == pytest.approx(0.25, rel=1e-8)


def test_evolve_bare_g123_profile_is_its_frequency_profile(tmp_path, capsys):
    # Omega^2 = 2 w0^2 g3 = 9 = omega^2: the same table, byte for byte
    grid = ("--t0", "0", "--t1", "1", "--samples", "7")
    tables = []
    for doc in ({"kind": "g123", "g1": 0.5, "g2": 0.0, "g3": 2.0, "omega0": 1.5},
                {"kind": "omega", "omega": 3.0, "omega0": 1.5}):
        code, out, err = run_cli(capsys, "evolve", "--profile",
                                 _profile(tmp_path, doc, name=f"{doc['kind']}.json"), *grid)
        assert code == 0, err
        tables.append(out)
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 8


def test_evolve_pole_profile_exits_1(tmp_path, capsys, monkeypatch):
    # the step size shrinks toward the pole at t = 1/2 until the evaluation
    # budget (lowered here to keep the test short) runs out
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 20_000)
    prof = _profile(tmp_path, {"kind": "omega", "omega": "1/(t-0.5)**2 + 1"})
    code, out, err = run_cli(capsys, "evolve", "--profile", prof,
                             "--t0", "0", "--t1", "2", "--samples", "5")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NumericError"


@pytest.mark.parametrize("doc", [
    # omega^2 overflows a Python float: once an OverflowError naming no field
    {"kind": "omega", "omega": 1e300},
    # eps(t0) = 1/sqrt(omega0) = 1e150 overflows the integrator's error norm;
    # once a ZeroDivisionError, when omega^2 was divided by omega0^2
    {"kind": "omega", "omega": 1.0, "omega0": 1e-300},
])
def test_evolve_extreme_constant_is_a_numeric_error(tmp_path, capsys, doc):
    prof = _profile(tmp_path, doc)
    code, out, err = run_cli(capsys, "evolve", "--profile", prof,
                             "--t0", "0", "--t1", "0.5", "--samples", "5")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NumericError"


@pytest.mark.parametrize("omega0", [1e30, 1e100])
def test_evolve_at_a_huge_omega0_follows_the_closed_form(tmp_path, capsys, omega0):
    # |u| and |v| near 2.4e29 and 2.4e99 at t = 0.5 agree to every digit, so
    # their squares cancel: once the refusal "squeeze pair needs |u| > |v|"
    prof = _profile(tmp_path, {"kind": "omega", "omega": 1.0, "omega0": omega0})
    code, out, err = run_cli(capsys, "evolve", "--profile", prof,
                             "--t0", "0", "--t1", "0.5", "--samples", "5")
    assert code == 0, err
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    for t, *_uv, dq2, dp2, dpq in rows:
        # eps = cos t / sqrt(w0) + i sqrt(w0) sin t, Wronskian 2i
        eps = complex(math.cos(t) / math.sqrt(omega0), math.sqrt(omega0) * math.sin(t))
        deps = complex(-math.sin(t) / math.sqrt(omega0), math.sqrt(omega0) * math.cos(t))
        assert dq2 == pytest.approx(omega0 * abs(eps) ** 2 / 2.0, rel=1e-9)
        assert dp2 == pytest.approx(abs(deps) ** 2 / (2.0 * omega0), rel=1e-9)
        assert dpq == pytest.approx((eps.conjugate() * deps).real / 2.0, rel=1e-9)


def test_evolve_refuses_a_moment_past_the_float_range(tmp_path, capsys):
    # dq2 = w0^2 sin^2(wt) / (2 w^2) reaches 5e319 at t = 1.6e10
    prof = _profile(tmp_path, {"kind": "omega", "omega": 1e-10, "omega0": 1e150})
    code, out, err = run_cli(capsys, "evolve", "--profile", prof,
                             "--t0", "0", "--t1", "1.6e10", "--samples", "5")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NumericError"


def test_evolve_ignores_derivative_fields(tmp_path, capsys):
    # a dg1, ddg1 or dg2 field once replaced the derivatives of g1 and g2
    # and gave a bare profile a wrong Omega^2; they are unknown keys now
    doc = {"kind": "g123", "g1": 0.5, "g2": 0.0, "g3": "2.0 + t", "omega0": 1.5}
    grid = ("--t0", "0", "--t1", "1", "--samples", "5")
    code, bare, _ = run_cli(capsys, "evolve", "--profile", _profile(tmp_path, doc), *grid)
    assert code == 0
    derivs = _profile(tmp_path, {**doc, "dg1": "0.1*t", "ddg1": 0.3, "dg2": 0.2},
                      name="derivs.json")
    code, out, _ = run_cli(capsys, "evolve", "--profile", derivs, *grid)
    assert code == 0
    assert out == bare


def test_evolve_profile_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "evolve", "--profile", str(tmp_path),
                             "--t0", "0", "--t1", "1", "--samples", "5")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("argv", [
    ["--samples", "-1"],
    ["--samples", "1"],
    ["--samples", str(cli.MAX_SAMPLES + 1)],
    ["--t0", "nan"],
    ["--t1", "inf"],
    ["--t0=-inf", "--t1", "nan"],
])
def test_evolve_refuses_a_bad_time_grid_before_integrating(tmp_path, capsys, argv):
    # --samples -1 once ended in a ValueError traceback from np.linspace, and
    # --t0 nan ran 10^6 right-hand-side evaluations before a NumericError
    prof = _profile(tmp_path, {"kind": "omega", "omega": 2.0, "omega0": 1.0})
    code, out, err = run_cli(capsys, "evolve", "--profile", prof, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidInputError"


def _run_main(argv):
    """Exit code, stdout and stderr of one in-process run; a grammar error
    gives the code of its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_table_or_one_error_line(argv, code, out, err):
    """A CSV verb exits 0/1/2/64, writes no NaN or infinite cell, and on a
    domain or numeric failure writes one JSON error line and no table."""
    assert code in (0, 1, 2, 64), (argv, err)
    cells = {cell.lstrip("+-").lower() for line in out.splitlines() for cell in line.split(",")}
    assert not cells & {"nan", "inf", "infinity"}, argv
    if code in (1, 2):
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1, (argv, lines)
        assert set(json.loads(lines[0])) == {"error", "message"}


#: hostile profile values: NaN, the infinities, zero, negative and huge
#: constants, whitelisted expressions that fail at some t, and expressions
#: the whitelist refuses
_HOSTILE_PROFILE_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -1.0, -1e300, 1e300,
    "log(t)", "t ** 0.5", "1e400", "10**400", "1e300 * t",
    "__import__('os')", "t.real", "[t]", "t if t else 1", "x + t", "2 + t // 2", "'t'", "(",
])
#: sample tables over [lo, lo + 3]: lo = -1 covers every drawn window, 0 misses
#: those that start before 0, 1/2 misses t = 0 as well; some hold a 1e308
#: whose spline overflows
_SAMPLE_TABLES = st.builds(
    lambda lo, values: {"t": np.linspace(lo, lo + 3.0, len(values)).tolist(), "values": values},
    st.sampled_from([-1.0, 0.0, 0.5]),
    st.lists(st.floats(0.5, 2.0), min_size=4, max_size=8)
    | st.lists(st.floats(0.5, 2.0) | st.just(1e308), min_size=4, max_size=8))
#: frequencies small enough that no run integrates for long
_SMALL_FREQUENCIES = st.floats(0.05, 3.0) | _SAMPLE_TABLES | st.sampled_from(
    ["1 + 0.5*sin(t)", "sqrt(2 + t)", "exp(-t) + 0.5", "2 - t", "cosh(t)", "pi/2 + t*t"])


def _mostly(data, good, bad, label):
    """A draw from ``good`` three times in four, else from ``bad``."""
    return data.draw(good if data.draw(st.integers(0, 3), label=f"{label} good") else bad,
                     label=label)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_evolve_ends_in_a_table_or_one_error_line(data):
    if data.draw(st.booleans(), label="omega kind"):
        doc = {"kind": "omega",
               "omega": _mostly(data, _SMALL_FREQUENCIES, _HOSTILE_PROFILE_VALUES, "omega")}
    else:
        doc = {"kind": "g123",
               "g1": _mostly(data, st.just(0.5), _HOSTILE_PROFILE_VALUES, "g1"),
               "g2": _mostly(data, st.just(0.0), _HOSTILE_PROFILE_VALUES, "g2"),
               "g3": _mostly(data, st.floats(-1.0, 3.0) | _SMALL_FREQUENCIES,
                             _HOSTILE_PROFILE_VALUES, "g3")}
    omega0 = _mostly(data, st.none() | st.floats(0.05, 3.0), _HOSTILE_PROFILE_VALUES, "omega0")
    if omega0 is not None:
        doc["omega0"] = omega0
    t0 = _mostly(data, st.floats(-1.0, 1.0), st.sampled_from([math.nan, math.inf, -math.inf]),
                 "t0")
    t1 = t0 + _mostly(data, st.floats(0.01, 1.0), st.sampled_from([0.0, -0.5]), "t1 - t0")
    # --samples at MAX_SAMPLES is valid but tabulates for seconds; 1 and
    # MAX_SAMPLES + 1 are the refused values next to the bounds
    samples = _mostly(data, st.integers(2, 12), st.sampled_from([-1, 0, 1, cli.MAX_SAMPLES + 1]),
                      "samples")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = ["evolve", "--profile", path, f"--t0={t0!r}", f"--t1={t1!r}",
                f"--samples={samples}"]
        code, out, err = _run_main(argv)
    _assert_table_or_one_error_line((doc, argv), code, out, err)
    if code == 0:
        assert len(out.splitlines()) == samples + 1


def test_evolve_missing_profile_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "evolve", "--profile",
                           str(tmp_path / "ghost.json"))
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "file"])
def test_non_finite_document_exits_1(tmp_path, capsys, monkeypatch, out):
    build = cli._build_state

    def build_nan(args):
        # a NaN parameter passes the constructor's gates and reaches the writer
        state = build(args)
        return StateVector(state.amplitudes, state.basis, family=state.family,
                           params={"alpha": math.nan})

    monkeypatch.setattr(cli, "_build_state", build_nan)
    path = tmp_path / "state.json"
    argv = ["state", "--family", "glauber", "--alpha", "0.5", "--cutoff", "32"]
    code, stdout, err = run_cli(capsys, *argv, *(["--out", str(path)] if out else []))
    assert code == 1
    assert stdout == ""
    assert not path.exists()
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NumericError"


def _out_argv(tmp_path, verb):
    state = str(GOLDEN / "state_glauber.json")
    return {"state": ["state", "--family", "glauber", "--alpha", "0.3", "--cutoff", "32"],
            "report": ["report", "--state", state, "--observables", "canonical"],
            "distance": ["distance", "--state1", state, "--state2", state],
            "scan": ["scan", "--suite", "random-psd"],
            "evolve": ["evolve", "--profile", _profile(tmp_path, {"kind": "omega", "omega": 1.0}),
                       "--samples", "5"]}[verb]


@pytest.mark.parametrize("verb", ["state", "report", "distance", "scan", "evolve"])
def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys, verb):
    # a directory: open() raises IsADirectoryError, an OSError
    argv = _out_argv(tmp_path, verb)
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "InvalidInputError"
    assert str(tmp_path) in error["message"]


def test_an_out_in_a_missing_directory_stays_file_not_found(tmp_path, capsys):
    argv = _out_argv(tmp_path, "state")
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "ghost" / "s.json"))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"


# -- scan -------------------------------------------------------------------

def test_scan_suite_choices_are_the_acceptance_suites():
    assert cli.SCAN_SUITES == tuple(sorted(acceptance.SUITES))


@pytest.mark.parametrize("suite", sorted(acceptance.SUITES))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(-2 ** 70, 2 ** 70) | st.sampled_from([0, 2 ** 63, 10 ** 30]))
@example(seed=-1)
@example(seed=2 ** 70)
def test_scan_ends_in_a_table_or_one_error_line(suite, seed):
    argv = ["scan", "--suite", suite, f"--seed={seed}"]
    code, out, err = _run_main(argv)
    _assert_table_or_one_error_line(argv, code, out, err)
    assert code == (0 if seed >= 0 else 2), (argv, err)
    if code == 0:
        assert len(out.splitlines()) == 1 + len(acceptance.SUITES[suite][0]())


@pytest.mark.parametrize("suite", sorted(acceptance.SUITES))
def test_scan_parallel_determinism(tmp_path, capsys, suite):
    serial = tmp_path / "serial.csv"
    code, _, _ = run_cli(capsys, "scan", "--suite", suite, "--out", str(serial))
    assert code == 0
    grid, _row, header = acceptance.SUITES[suite]
    lines = serial.read_text().strip().split("\n")
    assert lines[0] == ",".join(header)
    assert len(lines) == len(grid()) + 1


def test_scan_random_psd_rows_are_psd(tmp_path, capsys):
    out = tmp_path / "psd.csv"
    code, _, _ = run_cli(capsys, "scan", "--suite", "random-psd", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,family,trial,sigma_min_eig,robertson_min_eig"
    assert len(lines) == 201
    for line in lines[1:]:
        cells = line.split(",")
        # sigma and sigma + iC stay PSD for arbitrary normalized states
        assert float(cells[3]) > -1e-8
        assert float(cells[4]) > -1e-8


def test_scan_negative_seed_exits_2(capsys):
    code, out, err = run_cli(capsys, "scan", "--suite", "random-psd", "--seed=-1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidInputError"


def test_scan_seed_changes_rows(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(capsys, "scan", "--suite", "random-psd", "--out", str(a))
    run_cli(capsys, "scan", "--suite", "random-psd", "--seed", "7",
            "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_scan_even_odd_suite(tmp_path, capsys):
    out = tmp_path / "eo.csv"
    code, _, _ = run_cli(capsys, "scan", "--suite", "even-odd",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("index,parity,re_alpha,im_alpha,a2_residual,"
                        "covariance,schr_gap")
    assert len(lines) == 33
    rows = [line.split(",") for line in lines[1:]]
    assert {row[1] for row in rows} == {"even", "odd"}
    assert all(float(row[4]) < 1e-8 for row in rows)
    assert all(float(row[6]) > -1e-10 for row in rows)


# -- selftest ---------------------------------------------------------------

def test_selftest_subset(capsys):
    code = main(["selftest", "--criteria", "5,10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS criterion  5" in out
    assert "PASS criterion 10" in out
    assert out.strip().endswith("2/2 criteria passed")


def test_selftest_unknown_criterion(capsys):
    code = main(["selftest", "--criteria", "99"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"


# -- golden documents -------------------------------------------------------

def test_golden_state_document(capsys):
    code, out, _ = run_cli(capsys, "state", "--family", "glauber",
                           "--alpha", "0.3+0.4j", "--cutoff", "32")
    assert code == 0
    assert out == (GOLDEN / "state_glauber.json").read_text()


#: the other families, each with a golden document made by the same command
_GOLDEN_STATES = {
    "canonical-ss": ["--alpha=0.3+0.2j", "--u", "1.1", "--v", "0.3j", "--cutoff", "32"],
    "squeezed-fock": ["--n", "2", "--u", "1.05", "--v=0.2-0.1j", "--cutoff", "32"],
    "even-cs": ["--alpha=0.8+0.3j", "--cutoff", "32"],
    "odd-cs": ["--alpha=0.8+0.3j", "--cutoff", "32"],
    "bg-cs": ["--z=0.7-0.4j", "--k", "0.75", "--cutoff", "24"],
    "su11-cs": ["--xi=0.3+0.2j", "--k", "0.5", "--cutoff", "48"],
    "su11-intelligent": ["--u", "1", "--v=-0.16+0.05j", "--w", "0.1", "--z", "1.6",
                         "--k", "1", "--cutoff", "48"],
    "su2-cs": ["--tau=0.5-0.3j", "--j", "2.5"],
}


def test_golden_states_cover_every_family():
    assert sorted(["glauber", *_GOLDEN_STATES]) == sorted(FAMILIES)


@pytest.mark.parametrize("family", sorted(_GOLDEN_STATES))
def test_golden_state_document_of_every_family(capsys, family):
    code, out, _ = run_cli(capsys, "state", "--family", family, *_GOLDEN_STATES[family])
    assert code == 0
    assert out == (GOLDEN / f"state_{family}.json").read_text()


def test_golden_report_document(tmp_path, capsys):
    st = _write_state(tmp_path, capsys, "cs.json", "--family", "su11-cs",
                      "--xi", "0.35j", "--k", "1", "--cutoff", "96")
    code, out, _ = run_cli(capsys, "report", "--state", st,
                           "--observables", "su11", "--certificate")
    assert code == 0
    assert out == (GOLDEN / "report_su11_cs.json").read_text()


@pytest.mark.parametrize("s, N", [(1, 12), (3, 4)])
def test_report_refuses_a_multimode_document_without_two_modes(tmp_path, capsys, s, N):
    # one mode is the Fock space under another name
    doc = {"family": None, "params": {}, "basis": {"kind": "multimode", "N": N, "s": s},
           "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * (N ** s - 1), "tail_mass": 0.0}
    path = _profile(tmp_path, doc, "modes.json")
    code, out, err = run_cli(capsys, "report", "--state", path, "--observables", "canonical")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "UnsupportedScaleError"


def _two_mode_state(tmp_path):
    """A two-mode product of squeezed coherent states, N = 32 per mode,
    written as a state document; no family builds one."""
    a = canonical_ss(0.3 + 0.2j, 1.1, 0.3j, N=32).amplitudes
    b = canonical_ss(-0.2 + 0.1j, 1.2, -0.4, N=32).amplitudes
    st = StateVector(np.kron(a, b), multimode_basis(2, 32), family="product")
    path = tmp_path / "two.json"
    path.write_text(document_text(state_to_dict(st)))
    return str(path)


#: report goldens: file -> (family and its golden state arguments, or None
#: for the two-mode state, and the report flags)
_GOLDEN_REPORTS = {
    "report_su11_cs.json": (["su11-cs", "--xi", "0.35j", "--k", "1", "--cutoff", "96"],
                            ["--observables", "su11", "--certificate"]),
    "report_canonical_ss.json": (["canonical-ss", *_GOLDEN_STATES["canonical-ss"]],
                                 ["--observables", "canonical", "--certificate"]),
    "report_su2_cs.json": (["su2-cs", *_GOLDEN_STATES["su2-cs"]],
                           ["--observables", "su2", "--certificate", "--orders", "2"]),
    "report_even_cs_a2.json": (["even-cs", *_GOLDEN_STATES["even-cs"]],
                               ["--observables", "a2-quadratures", "--certificate"]),
    "report_two_mode.json": (None, ["--observables", "canonical:2", "--certificate"]),
}


def _golden_report_state(tmp_path, capsys, golden):
    family_args, _flags = _GOLDEN_REPORTS[golden]
    if family_args is None:
        return _two_mode_state(tmp_path)
    return _write_state(tmp_path, capsys, "st.json", "--family", *family_args)


@pytest.mark.parametrize("golden", [g for g in _GOLDEN_REPORTS if g != "report_su11_cs.json"])
def test_golden_report_of_other_observable_sets(tmp_path, capsys, golden):
    st = _golden_report_state(tmp_path, capsys, golden)
    code, out, err = run_cli(capsys, "report", "--state", st, *_GOLDEN_REPORTS[golden][1])
    assert code == 0, err
    assert out == (GOLDEN / golden).read_text()


def test_golden_reports_of_alternating_states_in_one_process(tmp_path, capsys):
    # the kept observable sets and the moments each set remembers carry
    # over from one report to the next: A, B, A, B each print their golden
    runs = []
    for i, golden in enumerate(["report_su11_cs.json", "report_canonical_ss.json"]):
        family_args, flags = _GOLDEN_REPORTS[golden]
        st = _write_state(tmp_path, capsys, f"st{i}.json", "--family", *family_args)
        runs.append((golden, ["report", "--state", st, *flags]))
    for golden, argv in runs * 2:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == (GOLDEN / golden).read_text(), golden


def _assert_certificate_gaps_are_the_ur_gaps(doc):
    cert, ur = doc["certificate"], doc["ur"]
    assert set(cert["pairs"]) == set(ur["pairs"])
    # repr tells -0.0 from 0.0, so this is a bit-for-bit comparison
    for key, rec in cert["pairs"].items():
        assert repr(rec["schr_gap"]) == repr(ur["pairs"][key]["schr_gap"]), key
    top = str(len(ur["observables"]))
    assert repr(cert["robertson_gap"]) == repr(ur["orders"][top]["gap"])


@pytest.mark.parametrize("golden", sorted(_GOLDEN_REPORTS))
def test_certificate_gaps_are_the_ur_gaps(tmp_path, capsys, golden):
    st = _golden_report_state(tmp_path, capsys, golden)
    flags = [f for f in _GOLDEN_REPORTS[golden][1] if f not in ("--orders", "2")]
    code, out, err = run_cli(capsys, "report", "--state", st, *flags)
    assert code == 0, err
    _assert_certificate_gaps_are_the_ur_gaps(json.loads(out))


def test_report_takes_its_gaps_from_char_ur_report_in_one_moments_pass(tmp_path, capsys,
                                                                       monkeypatch,
                                                                       moment_passes):
    st = _golden_report_state(tmp_path, capsys, "report_su11_cs.json")
    ur_calls = []
    char_ur_report = cli.char_ur_report

    def counting(obs, states, **kwargs):
        ur_calls.append(kwargs.get("max_tail"))
        return char_ur_report(obs, states, **kwargs)

    monkeypatch.setattr(cli, "char_ur_report", counting)
    moment_passes.clear()
    code, out, err = run_cli(capsys, "report", "--state", st,
                             *_GOLDEN_REPORTS["report_su11_cs.json"][1])
    assert code == 0, err
    assert out == (GOLDEN / "report_su11_cs.json").read_text()
    assert ur_calls == [1e-8]
    assert moment_passes == [(96,)]
    # --max-tail reaches the gaps: tail mass 5.2e-6 is within 1e-4, past the
    # default 1e-8
    st = _write_state(tmp_path, capsys, "leaky.json", "--family", "su11-cs", "--xi", "0.6",
                      "--k", "1", "--cutoff", "16", "--max-tail", "1e-4")
    assert 1e-8 < load_state(st).tail_mass < 1e-4
    code, out, err = run_cli(capsys, "report", "--state", st, "--observables", "su11",
                             "--max-tail", "1e-4")
    assert code == 0, err
    assert set(json.loads(out)["ur"]["orders"]) == {"1", "2", "3"}
    code, out, err = run_cli(capsys, "report", "--state", st, "--observables", "su11")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "TruncationError"
    assert ur_calls == [1e-8, 1e-4]


def test_golden_distance_document(tmp_path, capsys):
    s1 = _write_state(tmp_path, capsys, "a.json", "--family", "glauber",
                      "--alpha", "0.5", "--cutoff", "32")
    s2 = _write_state(tmp_path, capsys, "b.json", "--family", "glauber",
                      "--alpha=-0.1+0.2j", "--cutoff", "32")
    code, out, _ = run_cli(capsys, "distance", "--state1", s1, "--state2", s2,
                           "--observable", "n+1")
    assert code == 0
    assert out == (GOLDEN / "distance_glauber.json").read_text()


#: golden evolve tables: name -> (profile, evolve flags)
_GOLDEN_EVOLVE = {
    "const": ({"kind": "omega", "omega": 2.0, "omega0": 1.0},
              ["--t0", "0", "--t1", "1", "--samples", "5"]),
    "expr": ({"kind": "omega", "omega": "1 + 0.5*sin(t)"},
             ["--t0", "0", "--t1", "10", "--samples", "401"]),
    "sampled": ({"kind": "omega", "omega": {"t": [0, 2, 4, 6, 8, 10],
                                            "values": [1.0, 1.3, 0.8, 1.2, 0.9, 1.1]},
                 "omega0": 1.0},
                ["--t0", "0", "--t1", "10", "--samples", "401"]),
}


def test_golden_evolve_table(tmp_path, capsys):
    for golden, (doc, flags) in _GOLDEN_EVOLVE.items():
        code, out, _ = run_cli(capsys, "evolve", "--profile", _profile(tmp_path, doc), *flags)
        assert code == 0, golden
        assert out == (GOLDEN / f"evolve_{golden}.csv").read_text(), golden


def test_write_csv_writes_each_cell_as_its_str(tmp_path):
    # csv.writer stringifies the cells itself: each float as repr, each int as
    # its digits, each str as itself, for Python and numpy scalars alike
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 64, size=500, dtype=np.uint64).view(np.float64)
    floats = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 1e300, -1e300,
              *rng.standard_normal(200), *bits[np.isfinite(bits)]]
    ints = [0, -1, 7, 2 ** 62, -2 ** 63]
    strs = ["even", "odd", "su11:0.5", "a2-quadratures"]
    rows = ([[np.float64(x), float(x)] for x in floats]
            + [[np.int64(i), int(i)] for i in ints]
            + [[text, text] for text in strs])
    path = tmp_path / "cells.csv"
    cli._write_csv(["a", "b"], rows, str(path))
    with open(path, newline="") as fh:
        written = list(csv.reader(fh))
    assert written[0] == ["a", "b"]
    expected = ([[repr(float(x))] * 2 for x in floats]
                + [[str(int(i))] * 2 for i in ints]
                + [[text] * 2 for text in strs])
    assert written[1:] == expected


@pytest.mark.parametrize("suite", ["bg-cs", "even-odd", "random-psd", "squeeze-shell", "su11-cs"])
def test_golden_scan_table(capsys, suite):
    code, out, _ = run_cli(capsys, "scan", "--suite", suite, "--seed", "42")
    assert code == 0
    assert out == (GOLDEN / f"scan_{suite}.csv").read_text()


# -- cold start ---------------------------------------------------------------

_COLD_IMPORT_PROBE = """
import json, sys
import urstates.cli
heavy = ("scipy.integrate", "scipy.optimize", "scipy.special")
before = [m for m in heavy if m in sys.modules]
from urstates.dynamics import OscillatorProfile, integrate_epsilon
traj = integrate_epsilon(OscillatorProfile.from_omega(1.0), [0.0, 0.5, 1.0])
print(json.dumps({"before": before, "after": "scipy.integrate" in sys.modules,
                  "drift": traj.wronskian_drift}))
"""


_ACCEPTANCE_PROBE = """
import json, os, sys
import urstates.cli
seen = {"import": "urstates.acceptance" in sys.modules}
for verb, argv in [("report", ["report", "--state", sys.argv[1], "--observables", "su11",
                               "--certificate"]),
                   ("scan", ["scan", "--suite", "random-psd"])]:
    assert urstates.cli.main([*argv, "--out", os.devnull]) == 0
    seen[verb] = "urstates.acceptance" in sys.modules
print(json.dumps(seen))
"""


def test_acceptance_is_imported_by_scan_only():
    # the scan suites and the criteria are loaded by the two verbs that run them
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _ACCEPTANCE_PROBE,
                           str(GOLDEN / "state_su11-cs.json")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": False, "report": False, "scan": True}


def test_cli_import_leaves_integrate_optimize_and_special_unloaded():
    # those three cost most of a cold `urstates report`; only the evolve and
    # dynamics criteria need scipy.integrate, and they import it on first use
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _COLD_IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["before"] == []
    assert seen["after"] is True
    assert seen["drift"] < 1e-8


@pytest.mark.parametrize("argv", [
    ["selftest", "--criteria", "5"],
    ["scan", "--suite", "random-psd"],
    ["state", "--family", "glauber", "--alpha", "0.3", "--cutoff", "32"],
])
def test_closed_stdout_ends_quietly(argv):
    # the reader leaves before the first byte: the run ends with EX_PIPE
    # and writes no traceback, whether the output meets the closed pipe
    # mid-run (the scan's 12 kB) or in the final flush; stdout is left
    # block-buffered, as it is by default
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "urstates.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.EX_PIPE, err
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == ""


# -- the process entry ----------------------------------------------------------

#: the two ways a fresh process reaches ``cli.entry``: the module's
#: ``__main__`` block and what the console script runs
_ENTRIES = {
    "module": ["-m", "urstates.cli"],
    "console-script": ["-c", "import sys; from urstates.cli import entry; sys.exit(entry())"],
}

#: a sitecustomize module that writes the interpreter's freeze count to
#: stderr when the verb opens ``target``, its --out file
_FREEZE_PROBE = """\
import gc, sys

def _probe(event, args):
    if event == "open" and args[0] == {target!r}:
        sys.stderr.write(f"frozen {{gc.get_freeze_count()}}\\n")

sys.addaudithook(_probe)
"""


def _entry_run(argv, *path, entry="module"):
    """``argv`` run through one process entry in a fresh interpreter, whose
    module path starts with ``path`` and then the package's source."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (*path, src)))}
    return subprocess.run([sys.executable, *_ENTRIES[entry], *argv], env=env,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_the_process_entry_freezes_the_import_heap_before_the_verb(tmp_path, entry):
    out = str(tmp_path / "st.json")
    (tmp_path / "sitecustomize.py").write_text(_FREEZE_PROBE.format(target=out))
    proc = _entry_run(["state", "--family", "glauber", "--alpha", "0.3", "--cutoff", "32",
                       "--out", out], tmp_path, entry=entry)
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stderr.decode().splitlines()
    assert line.startswith("frozen ") and int(line.split()[1]) > 0


@pytest.mark.parametrize("argv,code", [
    (["state", "--family", "glauber", "--alpha", "0.3", "--cutoff", "32"], 0),
    (["report", "--state", str(GOLDEN / "state_canonical-ss.json"),
      "--observables", "canonical", "--certificate"], 0),
    (["state", "--family", "glauber", "--alpha", "nan", "--cutoff", "32"], 2),
], ids=["state", "report", "refused"])
def test_main_in_process_freezes_nothing(capsys, argv, code):
    # a host's garbage must stay collectable: only the process entry freezes
    before = gc.get_freeze_count()
    assert run_cli(capsys, *argv)[0] == code
    assert gc.get_freeze_count() == before


def test_the_process_entry_writes_the_golden_bytes(tmp_path):
    state = _entry_run(["state", "--family", "canonical-ss", *_GOLDEN_STATES["canonical-ss"]])
    assert state.returncode == 0, state.stderr
    assert state.stdout == (GOLDEN / "state_canonical-ss.json").read_bytes()
    path = tmp_path / "ss.json"
    path.write_bytes(state.stdout)
    report = _entry_run(["report", "--state", str(path),
                         *_GOLDEN_REPORTS["report_canonical_ss.json"][1]])
    assert report.returncode == 0, report.stderr
    assert report.stdout == (GOLDEN / "report_canonical_ss.json").read_bytes()


def test_the_process_entry_refuses_with_one_error_line(tmp_path):
    # an --out that cannot be written (a directory)
    proc = _entry_run(["state", "--family", "glauber", "--alpha", "0.3", "--cutoff", "32",
                       "--out", str(tmp_path)])
    assert proc.returncode == cli.EX_CONTRACT
    assert proc.stdout == b""
    [line] = proc.stderr.decode().splitlines()
    assert json.loads(line)["error"] == "InvalidInputError"
