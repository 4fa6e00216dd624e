"""The four workloads: their inputs, one op each, and the op's output check.

A workload is built from a seed and a scratch directory; building it is the
set-up (inputs, observable sets, documents).  ``op()`` runs one operation
against the package and returns what the check needs; it raises OpFailed
when the program refuses (non-zero exit code).  ``check(out)`` raises
oracles.OracleError when the output disagrees with a reference computed
apart from the program.  Every call into urstates goes through a module
attribute, so a traced run sees it.  ``CAL_PASSES`` is the number of
calibration passes timed before each op (see calibration.py).
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
from urstates import cli, hilbert, moments, states, urcheck

ROOT = Path(__file__).resolve().parent.parent


class OpFailed(RuntimeError):
    """The program refused an operation the benchmark expects to succeed."""


def child_env():
    """Environment of every child process: the run's own (BLAS pinned,
    URSTATES_CUTOFF unset) with the checkout's src on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class SqueezeScan:
    """One op: a squeeze-shell radius row, 20 (theta, alpha) points at N=192.

    The radius is drawn fresh for every op, so the squeeze-matrix cache of
    ``states`` behaves as on a first pass of a scan.  Displacements follow
    the scan grid's rule: |alpha| <= 2 and phase theta/2 plus a stagger of
    at most pi/12, which keeps every point inside the N=192 truncation gate.
    """

    CAL_PASSES = 1

    N = 192
    POINTS = 20
    R_MAX = 1.2

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.obs = moments.observable_set("canonical", N=self.N)

    def op(self):
        r = self.R_MAX * self.rng.random()
        amags = 2.0 * self.rng.random(self.POINTS)
        rows = []
        for m in range(self.POINTS):
            theta = 2.0 * math.pi * m / self.POINTS
            u, v = math.cosh(r), math.sinh(r) * cmath.exp(1j * theta)
            alpha = amags[m] * cmath.exp(1j * (theta / 2.0 + (r / self.R_MAX - 0.5) * math.pi / 6.0))
            st = states.canonical_ss(alpha, u, v, N=self.N)
            rep = moments.moment_report(self.obs, st)
            ur = urcheck.char_ur_report(self.obs, st)
            rows.append((alpha, u, v, rep.sigma, rep.means, ur.pair_gaps[(0, 1)].schr_gap, st.tail_mass))
        return rows

    def check(self, rows):
        for row in rows:
            oracles.check_squeezed_state(*row)


class MomentBatch:
    """One op: 200 reports on random pure states, 50 per observable family.

    Per family, 25 single-state ``moment_report`` calls and 25 two-state
    ``char_ur_report`` calls (the shapes of criteria 6 and 7).  Amplitudes,
    observable sets and reference moments are made in set-up; the op wraps
    the amplitudes in StateVectors.  ROUNDS distinct inputs are cycled.
    """

    CAL_PASSES = 1

    FAMILIES = ("canonical", "su11:0.5", "su2:1", "a2-quadratures")
    N = 32
    PAIRS = 25
    ROUNDS = 4

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.sets, self.amps, self.refs = [], [], []
        for family in self.FAMILIES:
            obs = moments.observable_set(family, N=self.N)
            dim = obs.basis.dim
            shape = (self.ROUNDS, 3 * self.PAIRS, dim)
            amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            amps /= np.linalg.norm(amps, axis=2, keepdims=True)
            _means, sigma, commut = oracles.own_moments(oracles.own_observables(family, self.N),
                                                        amps.reshape(-1, dim))
            self.sets.append(obs)
            self.amps.append(amps)
            self.refs.append((sigma.reshape(shape[:2] + sigma.shape[1:]),
                              commut.reshape(shape[:2] + commut.shape[1:])))
        self.count = 0

    def op(self):
        rnd = self.count % self.ROUNDS
        self.count += 1
        out = []
        for obs, amps in zip(self.sets, self.amps):
            block = amps[rnd]
            reports = []
            for i in range(self.PAIRS):
                s0, s1, s2 = (hilbert.StateVector(block[3 * i + t], obs.basis) for t in range(3))
                single = moments.moment_report(obs, s0, max_tail=None)
                pair = urcheck.char_ur_report(obs, [s1, s2], max_tail=None)
                reports.append((single, pair.order_gaps[obs.n]))
            out.append(reports)
        return rnd, out

    def check(self, result):
        rnd, out = result
        for (ref_sigma, ref_commut), reports in zip(self.refs, out):
            for i, (single, top) in enumerate(reports):
                oracles.check_moment_report(single.sigma, single.commut, single.sigma_min_eig,
                                            single.robertson_min_eig,
                                            ref_sigma[rnd, 3 * i], ref_commut[rnd, 3 * i])
                oracles.check_two_state_report(top.gap, top.c_sigma, ref_sigma[rnd, 3 * i + 1],
                                               ref_sigma[rnd, 3 * i + 2])


def _run_cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"urstates {argv[0]} exited {rc}")


def _stored_params(path):
    with open(path) as fh:
        doc = json.load(fh)
    return {key: complex(val["re"], val["im"]) if isinstance(val, dict) else val
            for key, val in doc["params"].items()}


class WideReport:
    """One op: in-process ``urstates report --observables su11 --certificate``
    on a k=1 su(1,1) coherent state with |xi| in [0.965, 0.975].

    The adaptive cutoffs of that band run from about 780 to 1100 levels.
    DOCS documents are written in set-up by the ``state`` verb, with |xi|
    stratified over the band so every seed covers it evenly, and then
    cycled in a seeded order.
    """

    CAL_PASSES = 1

    K = 1.0
    BAND = (0.965, 0.975)
    DOCS = 16

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        lo, hi = self.BAND
        radii = lo + (hi - lo) * (np.arange(self.DOCS) + rng.random(self.DOCS)) / self.DOCS
        rng.shuffle(radii)
        self.docs = []
        for i, rad in enumerate(radii):
            xi = complex(rad * cmath.exp(2j * math.pi * rng.random()))
            path = str(Path(workdir) / f"su11-{i}.json")
            _run_cli(["state", "--family", "su11-cs", f"--xi={xi!r}", "--k", repr(self.K),
                      "--out", path])
            self.docs.append((path, _stored_params(path)["xi"]))
        self.out = str(Path(workdir) / "report.json")
        self.count = 0

    def op(self):
        path, xi = self.docs[self.count % self.DOCS]
        self.count += 1
        _run_cli(["report", "--state", path, "--observables", "su11", "--certificate",
                  "--out", self.out])
        return xi

    def check(self, xi):
        try:
            with open(self.out) as fh:
                doc = json.load(fh)
        except ValueError as exc:
            raise oracles.OracleError(f"report document does not parse: {exc}") from exc
        oracles.check_su11_report(doc, xi, self.K)


class CliCold:
    """One op: a fresh interpreter running
    ``python -m urstates.cli report --state <doc> --observables canonical --certificate``
    on a canonical_ss state at N=64 written in set-up; one child at a time.
    """

    CAL_PASSES = 5  # a pass is 2-3 ms beside a ~0.9 s op: more of them read the speed better

    N = 64

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        r = 0.5 * rng.random()
        u, v = math.cosh(r), math.sinh(r) * cmath.exp(2j * math.pi * rng.random())
        alpha = complex(rng.random() * cmath.exp(2j * math.pi * rng.random()))
        self.doc = str(Path(workdir) / "canonical-ss.json")
        _run_cli(["state", "--family", "canonical-ss", f"--alpha={alpha!r}", f"--u={u!r}",
                  f"--v={v!r}", "--cutoff", str(self.N), "--out", self.doc])
        self.params = _stored_params(self.doc)
        self.argv = ["report", "--state", self.doc, "--observables", "canonical", "--certificate"]
        self.cmd = [sys.executable, "-m", "urstates.cli", *self.argv]
        self.env = child_env()

    def op(self):
        proc = subprocess.run(self.cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise OpFailed(f"exit code {proc.returncode}: {proc.stderr[-300:]}")
        return proc.returncode, proc.stdout

    def check(self, result):
        p = self.params
        oracles.check_cli_report(*result, p["alpha"], p["u"], p["v"])


WORKLOADS = {
    "squeeze-scan": SqueezeScan,
    "moment-batch": MomentBatch,
    "wide-report": WideReport,
    "cli-cold": CliCold,
}

#: workloads whose op runs in child processes: CPU and peak RSS are the children's
CHILD_WORKLOADS = {"cli-cold"}
