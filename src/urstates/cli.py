"""Command-line front end.

Verbs: ``state`` builds a named state and writes its JSON document;
``report`` evaluates moments, uncertainty gaps and (optionally) a
minimizer certificate for a stored state; ``scan`` sweeps a named
parameter grid to CSV, optionally in parallel; ``evolve`` integrates an
oscillator profile and tabulates the squeeze trajectory; ``distance``
compares two stored states; ``selftest`` runs the acceptance criteria.

Exit codes: 0 success, 2 contract violations (bad parameters, failed
normalizability or truncation gates) with an error JSON on stderr,
1 internal numeric failures, 64 flag-grammar errors.  All floats are
serialized through repr, so a dump/parse cycle is value-exact.
"""

import argparse
import csv
import json
import math
import cmath
import os
import re
import sys

from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from . import acceptance
from .dynamics import OscillatorProfile, trajectory_table
from .errors import (
    BasisMismatchError,
    InvalidInputError,
    NumericError,
    TruncationError,
)
from .hilbert import Operator, StateVector, su11_rep
from .intelligent import minimizer_certificate
from .metrics import g_overlap
from .moments import _default_cutoff, moment_report, observable_set
from .stateio import document_text, load_state, read_document, state_to_dict
from .states import (
    bg_cs,
    canonical_ss,
    even_odd_cs,
    glauber,
    squeezed_fock,
    su2_cs,
    su11_cs,
    su11_intelligent,
)
# char_ur_report stays importable as cli.char_ur_report: bench/spans.py
# wraps it under that name
from .urcheck import _ur_from_moments, char_ur_report  # noqa: F401

__all__ = ["main"]

EX_OK = 0
EX_NUMERIC = 1
EX_CONTRACT = 2
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract reserves 2 for
    domain errors, so grammar problems are remapped to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _complex_arg(text):
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text!r}")


def _int_list(text):
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _emit_error(exc):
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")


def _write_json(doc, out):
    text = document_text(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(header, rows, out):
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
    finally:
        if out:
            fh.close()


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

_FAMILY_FLAGS = {
    "glauber": ("alpha",),
    "canonical-ss": ("alpha", "u", "v"),
    "squeezed-fock": ("n", "u", "v"),
    "even-cs": ("alpha",),
    "odd-cs": ("alpha",),
    "bg-cs": ("z", "k"),
    "su11-cs": ("xi", "k"),
    "su11-intelligent": ("u", "v", "w", "z", "k"),
    "su2-cs": ("tau", "j"),
}

_PARAM_FLAGS = ("alpha", "u", "v", "w", "z", "xi", "tau", "k", "j", "n")


def _build_state(args):
    family = args.family
    needed = _FAMILY_FLAGS[family]
    missing = [f"--{flag}" for flag in needed if getattr(args, flag) is None]
    if missing:
        raise InvalidInputError(
            f"family {family!r} needs {', '.join(missing)}"
        )
    stray = [f"--{flag}" for flag in _PARAM_FLAGS
             if flag not in needed and getattr(args, flag) is not None]
    if stray:
        raise InvalidInputError(
            f"family {family!r} does not take {', '.join(stray)}"
        )

    N = args.cutoff if args.cutoff is not None else _default_cutoff(None)
    mt = args.max_tail
    if family == "glauber":
        return glauber(args.alpha, N=N)
    if family == "canonical-ss":
        return canonical_ss(args.alpha, args.u, args.v, N=N, max_tail=mt)
    if family == "squeezed-fock":
        return squeezed_fock(args.n, args.u, args.v, N=N, max_tail=mt)
    if family in ("even-cs", "odd-cs"):
        return even_odd_cs(args.alpha, family.split("-")[0], N=N, max_tail=mt)
    if family == "bg-cs":
        return bg_cs(args.z, args.k, N=N)
    if family == "su11-cs":
        return su11_cs(args.xi, args.k, N=N, max_tail=mt)
    if family == "su11-intelligent":
        return su11_intelligent(args.u, args.v, args.w, args.z, args.k,
                                N=N, max_tail=mt)
    return su2_cs(args.tau, args.j)


def _cmd_state(args):
    state = _build_state(args)
    _write_json(state_to_dict(state), args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _resolve_observables(name, basis):
    """Build a registry observable set on the basis the state lives in.

    A bare family name picks up the state's own parameters (k, j, cutoff);
    an explicit ``:x`` suffix must agree with them.
    """
    m = re.fullmatch(r"([a-z0-9-]+?)(?::([0-9.]+))?", name.strip())
    if not m:
        raise InvalidInputError(f"malformed observable-set name {name!r}")
    head, arg = m.group(1), m.group(2)

    if head == "canonical" and arg == "2":
        if basis.kind != "multimode":
            raise BasisMismatchError(
                f"observable set {name!r} needs a two-mode state, got basis "
                f"{basis.kind!r}"
            )
        return observable_set(name, N=basis.N)
    if head in ("canonical", "a2-quadratures"):
        if basis.kind != "fock":
            raise BasisMismatchError(
                f"observable set {name!r} needs a Fock-basis state, got basis "
                f"{basis.kind!r}"
            )
        return observable_set(head, N=basis.N)
    if head == "su11":
        if basis.kind != "su11":
            raise BasisMismatchError(
                f"observable set {name!r} needs an su11-basis state, got basis "
                f"{basis.kind!r}"
            )
        k = float(arg) if arg else basis.k
        if abs(k - basis.k) > 1e-12:
            raise BasisMismatchError(
                f"requested k={k:g} but the state carries k={basis.k:g}"
            )
        return observable_set(f"su11:{basis.k:g}", N=basis.N)
    if head == "su2":
        if basis.kind != "su2":
            raise BasisMismatchError(
                f"observable set {name!r} needs an su2-basis state, got basis "
                f"{basis.kind!r}"
            )
        j = float(arg) if arg else basis.j
        if abs(j - basis.j) > 1e-12:
            raise BasisMismatchError(
                f"requested j={j:g} but the state carries j={basis.j:g}"
            )
        return observable_set(f"su2:{basis.j:g}")
    raise InvalidInputError(f"unknown observable set {name!r}")


def _cmd_report(args):
    state = load_state(args.state)
    obs = _resolve_observables(args.observables, state.basis)
    rep = moment_report(obs, state, max_tail=args.max_tail)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    ur_doc = ur.to_json_dict()
    if args.orders is not None:
        bad = [r for r in args.orders if not 1 <= r <= obs.n]
        if bad:
            raise InvalidInputError(
                f"orders {bad} outside 1..{obs.n} for {obs.n} observables"
            )
        keep = {str(r) for r in args.orders}
        ur_doc["orders"] = {r: rec for r, rec in ur_doc["orders"].items()
                            if r in keep}
    doc = {
        "state": {
            "family": state.family,
            "basis": state.basis.to_dict(),
            "tail_mass": state.tail_mass,
        },
        "observables": obs.name,
        "moments": rep.to_json_dict(),
        "ur": ur_doc,
    }
    if args.certificate:
        cert = minimizer_certificate(state, obs, report=rep)
        doc["certificate"] = cert.to_json_dict()
    _write_json(doc, args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _obs_cached(name, N):
    return observable_set(name, N=N)


def _grid_squeeze_shell():
    # eigenvalue phase tracks half the squeeze angle so the physical
    # displacement stays bounded and the N=192 cutoff certifies every point
    points = []
    rs = np.linspace(0.0, 1.2, 20)
    for i, r in enumerate(rs):
        for m in range(20):
            theta = 2.0 * math.pi * m / 20.0
            amag = 2.0 * ((i + m) % 20) / 19.0
            phi = theta / 2.0 + (i / 19.0 - 0.5) * (math.pi / 6.0)
            points.append((float(r), theta, amag, phi))
    return points


def _row_squeeze_shell(seed, index, point):
    r, theta, amag, phi = point
    u = math.cosh(r)
    v = math.sinh(r) * cmath.exp(1j * theta)
    alpha = amag * cmath.exp(1j * phi)
    st = canonical_ss(alpha, u, v, N=192)
    obs = _obs_cached("canonical", 192)
    rep = moment_report(obs, st)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    return [index, r, theta, alpha.real, alpha.imag,
            rep.sigma[0, 0], rep.sigma[1, 1], rep.sigma[0, 1],
            ur.pair_gaps[(0, 1)].schr_gap, st.tail_mass]


def _grid_su11_cs():
    points = []
    for k in (0.5, 1.0, 2.0):
        for rad in (0.3, 0.6, 0.9):
            for m in range(8):
                points.append((k, rad, 2.0 * math.pi * m / 8.0))
    return points


def _row_su11_cs(seed, index, point):
    k, rad, phase = point
    xi = rad * cmath.exp(1j * phase)
    st = su11_cs(xi, k)
    obs = _obs_cached(f"su11:{k:g}", st.basis.N)
    rep = moment_report(obs, st)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    return [index, k, xi.real, xi.imag,
            ur.pair_gaps[(0, 1)].schr_gap,
            ur.pair_gaps[(0, 2)].schr_gap,
            ur.pair_gaps[(1, 2)].schr_gap,
            ur.order_gaps[2].gap, ur.order_gaps[3].gap,
            rep.sigma[0, 0]]


def _grid_bg_cs():
    points = []
    for k in (0.25, 0.5, 1.0, 2.0):
        for rad in (0.75, 1.5, 2.25, 3.0):
            for m in range(4):
                points.append((k, rad, 2.0 * math.pi * m / 4.0))
    return points


def _row_bg_cs(seed, index, point):
    k, rad, phase = point
    z = rad * cmath.exp(1j * phase)
    st = bg_cs(z, k, N=96)
    obs = _obs_cached(f"su11:{k:g}", 96)
    km = su11_rep(k, 96)["kminus"]
    residual = float(np.linalg.norm(km.apply(st.amplitudes) - z * st.amplitudes))
    rep = moment_report(obs, st)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    return [index, k, z.real, z.imag, residual,
            rep.sigma[0, 0] - rep.sigma[1, 1],
            ur.pair_gaps[(0, 1)].sum_gap, st.tail_mass]


def _grid_even_odd():
    points = []
    for parity in ("even", "odd"):
        for rad in (0.5, 1.0, 1.5, 2.0):
            for m in range(4):
                points.append((parity, rad, 2.0 * math.pi * m / 4.0))
    return points


def _row_even_odd(seed, index, point):
    parity, rad, phase = point
    alpha = rad * cmath.exp(1j * phase)
    st = even_odd_cs(alpha, parity, N=128)
    obs = _obs_cached("a2-quadratures", 128)
    re_a2, im_a2 = obs.images(st.amplitudes)
    residual = float(np.linalg.norm(re_a2 + 1j * im_a2 - alpha * alpha * st.amplitudes))
    rep = moment_report(obs, st)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    return [index, parity, alpha.real, alpha.imag, residual,
            rep.sigma[0, 1], ur.pair_gaps[(0, 1)].schr_gap]


_PSD_FAMILIES = (("canonical", 32), ("su11:0.5", 24),
                 ("su2:1", None), ("a2-quadratures", 24))


def _grid_random_psd():
    return [(name, trial) for name, _N in _PSD_FAMILIES for trial in range(50)]


def _row_random_psd(seed, index, point):
    name, trial = point
    N = dict(_PSD_FAMILIES)[name]
    obs = _obs_cached(name, N)
    rng = np.random.default_rng((seed, index))
    amp = rng.standard_normal(obs.basis.dim) + 1j * rng.standard_normal(obs.basis.dim)
    amp /= np.linalg.norm(amp)
    st = StateVector(amp, obs.basis, family="random")
    rep = moment_report(obs, st, max_tail=None)
    return [index, name, trial, rep.sigma_min_eig, rep.robertson_min_eig]


_SCAN_SUITES = {
    "squeeze-shell": (_grid_squeeze_shell, _row_squeeze_shell,
                      ["index", "r", "theta", "re_alpha", "im_alpha",
                       "dq2", "dp2", "dpq", "schr_gap", "tail_mass"]),
    "su11-cs": (_grid_su11_cs, _row_su11_cs,
                ["index", "k", "re_xi", "im_xi", "schr_01", "schr_02",
                 "schr_12", "char2_gap", "char3_gap", "dk1_sq"]),
    "bg-cs": (_grid_bg_cs, _row_bg_cs,
              ["index", "k", "re_z", "im_z", "kminus_residual",
               "variance_anisotropy", "sum_gap", "tail_mass"]),
    "even-odd": (_grid_even_odd, _row_even_odd,
                 ["index", "parity", "re_alpha", "im_alpha", "a2_residual",
                  "covariance", "schr_gap"]),
    "random-psd": (_grid_random_psd, _row_random_psd,
                   ["index", "family", "trial", "sigma_min_eig",
                    "robertson_min_eig"]),
}


def _scan_worker(task):
    suite, seed, index, point = task
    return _SCAN_SUITES[suite][1](seed, index, point)


def _cmd_scan(args):
    grid_fn, _row_fn, header = _SCAN_SUITES[args.suite]
    tasks = [(args.suite, args.seed, index, point)
             for index, point in enumerate(grid_fn())]
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs <= 1:
        rows = [_scan_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_worker, tasks, chunksize=8))
    _write_csv(header, rows, args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

_EXPR_NAMES = ("sin", "cos", "tan", "asin", "acos", "atan", "exp", "log",
               "sqrt", "sinh", "cosh", "tanh", "floor", "fabs", "pi", "e")
_EXPR_NS = {name: getattr(math, name) for name in _EXPR_NAMES}


def _expr_callable(expr):
    try:
        code = compile(expr, "<profile>", "eval")
    except SyntaxError as exc:
        raise InvalidInputError(f"bad profile expression {expr!r}: {exc}")
    for name in code.co_names:
        if name != "t" and name not in _EXPR_NS:
            raise InvalidInputError(
                f"profile expression {expr!r} uses unknown name {name!r}"
            )

    def fn(t):
        t = float(t)
        try:
            val = float(eval(code, {"__builtins__": {}}, {**_EXPR_NS, "t": t}))
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise InvalidInputError(
                f"profile expression {expr!r} fails at t={t!r}: {exc}"
            ) from exc
        if not math.isfinite(val):
            raise InvalidInputError(f"profile expression {expr!r} is {val} at t={t!r}")
        return val

    return fn


def _profile_field(doc, key, required=True):
    if key not in doc:
        if required:
            raise InvalidInputError(f"profile document is missing {key!r}")
        return None
    value = doc[key]
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return _expr_callable(value)
    if isinstance(value, dict) and set(value) == {"t", "values"}:
        from scipy.interpolate import CubicSpline

        t = np.asarray(value["t"], dtype=float)
        vals = np.asarray(value["values"], dtype=float)
        if t.ndim != 1 or t.shape != vals.shape or t.size < 4 \
                or np.any(np.diff(t) <= 0.0):
            raise InvalidInputError(
                f"sampled profile field {key!r} needs matching increasing "
                f"arrays of length >= 4"
            )
        spline = CubicSpline(t, vals)
        return lambda tt: float(spline(tt))
    raise InvalidInputError(
        f"profile field {key!r} must be a number, an expression string, or "
        f"a {{t, values}} sample table"
    )


def _load_profile(path):
    doc = read_document(path, "profile")
    if not isinstance(doc, dict):
        raise InvalidInputError(
            f"profile file {path!r} must hold a JSON object, got {type(doc).__name__}"
        )
    try:
        return _profile_from_dict(doc)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidInputError(f"malformed profile document {path!r}: {exc}") from exc


def _profile_from_dict(doc):
    kind = doc.get("kind")
    if kind == "omega":
        return OscillatorProfile.from_omega(
            _profile_field(doc, "omega"), omega0=doc.get("omega0"))
    if kind == "g123":
        if "omega0" not in doc:
            raise InvalidInputError("g123 profile needs omega0")
        return OscillatorProfile.from_g123(
            _profile_field(doc, "g1"),
            _profile_field(doc, "g2"),
            _profile_field(doc, "g3"),
            float(doc["omega0"]),
            dg1=_profile_field(doc, "dg1", required=False),
            ddg1=_profile_field(doc, "ddg1", required=False),
            dg2=_profile_field(doc, "dg2", required=False),
        )
    raise InvalidInputError(f"profile kind must be 'omega' or 'g123', got {kind!r}")


def _cmd_evolve(args):
    profile = _load_profile(args.profile)
    t = np.linspace(args.t0, args.t1, args.samples)
    _traj, _u, _v, rows = trajectory_table(profile, t)
    header = ["t", "re_eps", "im_eps", "re_u", "im_u", "re_v", "im_v",
              "dq2", "dp2", "dpq"]
    table = [[ti, eps.real, eps.imag, uu.real, uu.imag, vv.real, vv.imag,
              dq2, dp2, dpq]
             for ti, eps, uu, vv, dq2, dp2, dpq in rows]
    _write_csv(header, table, args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# distance / selftest
# ---------------------------------------------------------------------------

def _distance_observable(name, basis):
    if name == "n+1":
        if basis.kind != "fock":
            raise BasisMismatchError("observable 'n+1' needs a Fock-basis state")
        mat = np.diag(np.arange(basis.N, dtype=float)) + np.eye(basis.N)
        return Operator("n+1", mat, basis)
    if name == "k3":
        if basis.kind != "su11":
            raise BasisMismatchError("observable 'k3' needs an su11-basis state")
        return su11_rep(basis.k, basis.N)["k3"]
    raise InvalidInputError(
        f"unknown distance observable {name!r} (choose identity, n+1, k3)"
    )


def _cmd_distance(args):
    s1 = load_state(args.state1)
    s2 = load_state(args.state2)
    X = None
    if args.observable not in (None, "identity"):
        X = _distance_observable(args.observable, s1.basis)
    result = g_overlap(s1, s2, X)
    _write_json(result.to_json_dict(), args.out)
    return EX_OK


def _cmd_selftest(args):
    results = acceptance.run(args.criteria)
    for res in results:
        print(res.line())
    n_pass = sum(res.passed for res in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return EX_OK if n_pass == len(results) else EX_NUMERIC


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="urstates",
                     description="states, uncertainty reports and scans")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_state = sub.add_parser("state", help="build a state, emit its JSON")
    p_state.add_argument("--family", required=True,
                         choices=sorted(_FAMILY_FLAGS))
    for flag in ("alpha", "u", "v", "w", "z", "xi", "tau"):
        p_state.add_argument(f"--{flag}", type=_complex_arg)
    p_state.add_argument("--k", type=float)
    p_state.add_argument("--j", type=float)
    p_state.add_argument("--n", type=int)
    p_state.add_argument("--cutoff", type=int)
    p_state.add_argument("--max-tail", type=float, default=1e-8)
    p_state.add_argument("--out")
    p_state.set_defaults(func=_cmd_state)

    p_rep = sub.add_parser("report", help="moment/UR report for a stored state")
    p_rep.add_argument("--state", required=True)
    p_rep.add_argument("--observables", required=True)
    p_rep.add_argument("--orders", type=_int_list)
    p_rep.add_argument("--certificate", action="store_true")
    p_rep.add_argument("--max-tail", type=float, default=1e-8)
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=_cmd_report)

    p_scan = sub.add_parser("scan", help="sweep a named grid to CSV")
    p_scan.add_argument("--suite", required=True, choices=sorted(_SCAN_SUITES))
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--seed", type=int, default=42)
    p_scan.add_argument("--out")
    p_scan.set_defaults(func=_cmd_scan)

    p_ev = sub.add_parser("evolve", help="integrate a profile, tabulate u/v")
    p_ev.add_argument("--profile", required=True)
    p_ev.add_argument("--t0", type=float, default=0.0)
    p_ev.add_argument("--t1", type=float, default=10.0)
    p_ev.add_argument("--samples", type=int, default=401)
    p_ev.add_argument("--out")
    p_ev.set_defaults(func=_cmd_evolve)

    p_dist = sub.add_parser("distance", help="observable-induced distance")
    p_dist.add_argument("--state1", required=True)
    p_dist.add_argument("--state2", required=True)
    p_dist.add_argument("--observable")
    p_dist.add_argument("--out")
    p_dist.set_defaults(func=_cmd_distance)

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument("--criteria", type=_int_list)
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, TruncationError) as exc:
        _emit_error(exc)
        return EX_CONTRACT
    except NumericError as exc:
        _emit_error(exc)
        return EX_NUMERIC
    except FileNotFoundError as exc:
        _emit_error(exc)
        return EX_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
