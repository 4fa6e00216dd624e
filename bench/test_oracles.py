"""Tests of the benchmark's own checks: each accepts the program's actual
output on fixed inputs and rejects a slightly perturbed copy of it.

    python3 -m pytest bench/test_oracles.py -q
"""

import cmath
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracles import OracleError  # noqa: E402
from urstates import cli, moments, states, urcheck  # noqa: E402
from urstates.hilbert import StateVector  # noqa: E402

SQUEEZED = [  # (alpha, u, v): vacuum, displaced, squeezed off the shell
    (0.0, 1.0, 0.0),
    (1.3 - 0.4j, math.cosh(0.8), math.sinh(0.8) * cmath.exp(0.7j)),
    (0.5j, 2.0 + 0.3j, 1.1 - 0.9j),
]


def _squeezed_row(alpha, u, v, N=128):
    obs = moments.observable_set("canonical", N=N)
    st = states.canonical_ss(alpha, u, v, N=N)
    rep = moments.moment_report(obs, st)
    gap = urcheck.char_ur_report(obs, st).pair_gaps[(0, 1)].schr_gap
    return rep.sigma.copy(), rep.means.copy(), gap, st.tail_mass


@pytest.mark.parametrize("alpha,u,v", SQUEEZED)
def test_squeezed_state_accepts_program_and_rejects_perturbations(alpha, u, v):
    sigma, means, gap, tail = _squeezed_row(alpha, u, v)
    oracles.check_squeezed_state(alpha, u, v, sigma, means, gap, tail)
    for i, j in ((0, 0), (1, 1)):
        bad = sigma.copy()
        bad[i, j] *= 1 + 1e-6
        with pytest.raises(OracleError):
            oracles.check_squeezed_state(alpha, u, v, bad, means, gap, tail)
    bad = sigma.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(OracleError):
        oracles.check_squeezed_state(alpha, u, v, bad, means, gap, tail)
    for k in (0, 1):
        shifted = means.copy()
        shifted[k] += 1e-6
        with pytest.raises(OracleError):
            oracles.check_squeezed_state(alpha, u, v, sigma, shifted, gap, tail)
    with pytest.raises(OracleError):
        oracles.check_squeezed_state(alpha, u, v, sigma, means, 2e-9, tail)
    with pytest.raises(OracleError):
        oracles.check_squeezed_state(alpha, u, v, sigma, means, gap, 2e-8)


def test_cli_report_accepts_program_and_rejects_exit_code_and_perturbations(tmp_path, capsys):
    alpha, u, v = 0.6 + 0.2j, math.cosh(0.4), math.sinh(0.4) * 1j
    doc = str(tmp_path / "s.json")
    assert cli.main(["state", "--family", "canonical-ss", f"--alpha={alpha!r}", f"--u={u!r}",
                     f"--v={v!r}", "--cutoff", "64", "--out", doc]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--state", doc, "--observables", "canonical", "--certificate"]) == 0
    text = capsys.readouterr().out
    oracles.check_cli_report(0, text, alpha, u, v)
    with pytest.raises(OracleError):
        oracles.check_cli_report(2, text, alpha, u, v)
    with pytest.raises(OracleError):
        oracles.check_cli_report(0, text[: len(text) // 2], alpha, u, v)
    report = json.loads(text)
    report["moments"]["sigma"][1][1] *= 1 + 1e-6
    with pytest.raises(OracleError):
        oracles.check_cli_report(0, json.dumps(report), alpha, u, v)


@pytest.mark.parametrize("family", ["canonical", "su11:0.5", "su2:1", "a2-quadratures"])
def test_own_observables_equal_the_program_matrices(family):
    obs = moments.observable_set(family, N=32)
    for op, mine in zip(obs.ops, oracles.own_observables(family, 32), strict=True):
        assert np.array_equal(op.matrix, mine)


@pytest.mark.parametrize("family", ["canonical", "su11:0.5", "su2:1", "a2-quadratures"])
def test_moment_checks_accept_program_and_reject_perturbations(family):
    obs = moments.observable_set(family, N=32)
    rng = np.random.default_rng(7)
    amps = rng.standard_normal((3, obs.basis.dim)) + 1j * rng.standard_normal((3, obs.basis.dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    _means, ref_sigma, ref_commut = oracles.own_moments(oracles.own_observables(family, 32), amps)
    st = [StateVector(a, obs.basis) for a in amps]

    rep = moments.moment_report(obs, st[0], max_tail=None)
    args = (rep.sigma, rep.commut, rep.sigma_min_eig, rep.robertson_min_eig,
            ref_sigma[0], ref_commut[0])
    oracles.check_moment_report(*args)
    with pytest.raises(OracleError):
        oracles.check_moment_report(rep.sigma * (1 + 1e-6), *args[1:])
    commut = rep.commut.copy()
    commut[0, 1] += 1e-6
    commut[1, 0] -= 1e-6
    with pytest.raises(OracleError):
        oracles.check_moment_report(rep.sigma, commut, *args[2:])
    with pytest.raises(OracleError):
        oracles.check_moment_report(*args[:2], -1e-9, *args[3:])

    top = urcheck.char_ur_report(obs, st[1:], max_tail=None).order_gaps[obs.n]
    oracles.check_two_state_report(top.gap, top.c_sigma, ref_sigma[1], ref_sigma[2])
    with pytest.raises(OracleError):
        oracles.check_two_state_report(top.gap, top.c_sigma * (1 + 1e-6), ref_sigma[1], ref_sigma[2])
    with pytest.raises(OracleError):
        oracles.check_two_state_report(-1e-9, top.c_sigma, ref_sigma[1], ref_sigma[2])


@pytest.fixture(scope="module")
def su11_reports(tmp_path_factory):
    out = []
    tmp = tmp_path_factory.mktemp("su11")
    for i, xi in enumerate((0.5, 0.3j, 0.97 * cmath.exp(2.1j))):
        doc, rep = str(tmp / f"s{i}.json"), str(tmp / f"r{i}.json")
        assert cli.main(["state", "--family", "su11-cs", f"--xi={xi!r}", "--k", "1",
                         "--out", doc]) == 0
        assert cli.main(["report", "--state", doc, "--observables", "su11", "--certificate",
                         "--out", rep]) == 0
        with open(rep) as fh:
            out.append((json.load(fh), complex(xi)))
    return out


def test_su11_report_accepts_program_and_rejects_perturbations(su11_reports):
    for doc, xi in su11_reports:
        oracles.check_su11_report(doc, xi, 1.0)
        for k in range(3):
            bad = copy.deepcopy(doc)
            bad["moments"]["means"][k] += 1e-6
            with pytest.raises(OracleError):
                oracles.check_su11_report(bad, xi, 1.0)
        bad = copy.deepcopy(doc)
        bad["moments"]["sigma"][2][2] *= 1 + 1e-6
        with pytest.raises(OracleError):
            oracles.check_su11_report(bad, xi, 1.0)
        for section in ("ur", "certificate"):
            bad = copy.deepcopy(doc)
            sig = bad["moments"]["sigma"]
            bad[section]["pairs"]["0,2"]["schr_gap"] = 2e-9 * sig[0][0] * sig[2][2]
            with pytest.raises(OracleError):
                oracles.check_su11_report(bad, xi, 1.0)
        bad = copy.deepcopy(doc)
        del bad["certificate"]
        with pytest.raises(OracleError):
            oracles.check_su11_report(bad, xi, 1.0)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["outer", 0.0, 1.0, -1, 0, None],
        ["inner", 0.1, 0.4, 0, 0, None],
        ["inner", 0.5, 0.6, 0, 0, None],
        ["outer", 2.0, 2.5, -1, -1, None],
    ]
    got = tracer.layer_metrics(["outer.self_ms_per_op", "outer.ms_per_call", "inner.calls_per_op",
                                "missing.ms_per_call"], n_ops=1)
    assert got["outer.self_ms_per_op"] == pytest.approx(600.0)
    assert got["outer.ms_per_call"] == pytest.approx(750.0)
    assert got["inner.calls_per_op"] == 2
    assert got["missing.ms_per_call"] == 0.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
