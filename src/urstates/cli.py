"""Command-line front end.

Verbs: ``state`` builds a named state and writes its JSON document;
``report`` evaluates moments, uncertainty gaps and (optionally) a
minimizer certificate for a stored state; ``scan`` sweeps a named
parameter grid to CSV, optionally in parallel; ``evolve`` integrates an
oscillator profile and tabulates the squeeze trajectory; ``distance``
compares two stored states; ``selftest`` runs the acceptance criteria.

Exit codes: 0 success, 2 contract violations (bad parameters, failed
normalizability or truncation gates) with an error JSON on stderr,
1 internal numeric failures, 64 flag-grammar errors, 141 when the reader
of stdout closed it before the output was written.  All floats are
serialized through repr, so a dump/parse cycle is value-exact.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import acceptance
from .dynamics import OscillatorProfile, trajectory_table
from .errors import (
    BasisMismatchError,
    InvalidInputError,
    NumericError,
    TruncationError,
)
from .hilbert import su11_rep
from .intelligent import minimizer_certificate
from .metrics import g_overlap, number_plus_one
from .moments import _default_cutoff, _parse_set_name, moment_report, observable_set
from .stateio import document_text, load_state, read_document, state_to_dict
from .states import FAMILIES
# canonical_ss stays importable as cli.canonical_ss: bench/spans.py wraps it
# under that name
from .states import canonical_ss  # noqa: F401
# char_ur_report stays importable as cli.char_ur_report: bench/spans.py
# wraps it under that name
from .urcheck import _ur_from_moments, char_ur_report  # noqa: F401

__all__ = ["main"]

EX_OK = 0
EX_NUMERIC = 1
EX_CONTRACT = 2
EX_USAGE = 64
#: 128 + SIGPIPE, the status a shell reports for a filter cut off by its reader
EX_PIPE = 141


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

#: value types of the family parameters of `state`, by the name that
#: `states.FAMILIES` gives them (the tail bound max_tail is --max-tail)
_PARAM_TYPES = {**dict.fromkeys(("alpha", "u", "v", "w", "z", "xi", "tau"), _complex_arg),
                "k": float, "j": float, "n": int, "N": int}


def _param_flag(name):
    return {"N": "--cutoff", "max_tail": "--max-tail"}.get(name, f"--{name}")


def _max_tail(args):
    """The --max-tail bound, which must be finite and non-negative."""
    if not 0.0 <= args.max_tail < math.inf:
        raise InvalidInputError(f"--max-tail must be finite and >= 0, got {args.max_tail!r}")
    return args.max_tail


def _build_state(args):
    family = args.family
    build, params = FAMILIES[family]
    missing = [_param_flag(p) for p in params
               if p not in ("N", "max_tail") and getattr(args, p) is None]
    if missing:
        raise InvalidInputError(
            f"family {family!r} needs {', '.join(missing)}"
        )
    stray = [_param_flag(p) for p in _PARAM_TYPES
             if p not in params and getattr(args, p) is not None]
    if stray:
        raise InvalidInputError(
            f"family {family!r} does not take {', '.join(stray)}"
        )

    if args.N is None:
        args.N = _default_cutoff(None)
    _max_tail(args)
    return build(**{p: getattr(args, p) for p in params})


def _cmd_state(args):
    # extreme parameters can overflow on the way; the gates and the
    # finite-document check decide the outcome, and a numpy warning would
    # only print a line beside the document or the one error line
    with np.errstate(all="ignore"):
        state = _build_state(args)
    _write_json(state_to_dict(state), args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_SET_BASIS = {"canonical": "fock", "a2-quadratures": "fock", "su11": "su11", "su2": "su2"}
_BASIS_WORDS = {"multimode": "a two-mode", "fock": "a Fock-basis",
                "su11": "an su11-basis", "su2": "an su2-basis"}


def _resolve_observables(name, basis):
    """Build a registry observable set on the basis the state lives in.

    A bare family name picks up the state's own parameters (k, j, cutoff);
    an explicit ``:x`` suffix must agree with them.
    """
    head, arg = _parse_set_name(name)
    if head not in _SET_BASIS:
        raise InvalidInputError(f"unknown observable set {name!r}")
    kind = "multimode" if (head, arg) == ("canonical", 2) else _SET_BASIS[head]
    if basis.kind != kind:
        raise BasisMismatchError(
            f"observable set {name!r} needs {_BASIS_WORDS[kind]} state, got basis "
            f"{basis.kind!r}"
        )
    if head not in ("su11", "su2"):
        return observable_set(name, N=basis.N)
    # the set is built at the state's exact index: repr round-trips the float
    letter = "k" if head == "su11" else "j"
    value = getattr(basis, letter)
    if arg is not None and abs(arg - value) > 1e-12:
        raise BasisMismatchError(
            f"requested {letter}={arg!r} but the state carries {letter}={value!r}"
        )
    return observable_set(f"{head}:{value!r}", N=basis.N)


def _report_document(state, obs, rep, ur, cert, orders):
    """The `report` document: the state, its moments, the UR gaps of the
    orders in ``orders`` (every order when None) and every pair, and the
    certificate when ``cert`` is not None.  The certificate's Schrodinger
    and Robertson gaps are the UR report's own."""
    doc = {
        "state": {
            "family": state.family,
            "basis": state.basis.to_dict(),
            "tail_mass": state.tail_mass,
        },
        "observables": obs.name,
        "moments": {
            "observables": obs.labels,
            "means": rep.means.tolist(),
            "sigma": rep.sigma.tolist(),
            "commut": rep.commut.tolist(),
            "psd": {"sigma_min_eig": rep.sigma_min_eig,
                    "robertson_min_eig": rep.robertson_min_eig},
        },
        "ur": {
            "observables": obs.labels,
            "n_states": ur.n_states,
            "orders": {str(r): {"c_sigma": rec.c_sigma, "c_comm": rec.c_comm, "gap": rec.gap,
                                "saturated": rec.saturated}
                       for r, rec in sorted(ur.order_gaps.items())
                       if orders is None or r in orders},
            "pairs": {f"{i},{j}": {"labels": list(rec.labels), "sum_gap": rec.sum_gap,
                                   "heis_gap": rec.heis_gap, "schr_gap": rec.schr_gap,
                                   "saturated": rec.saturated}
                      for (i, j), rec in sorted(ur.pair_gaps.items())},
        },
    }
    if cert is not None:
        doc["certificate"] = {
            "pairs": {f"{i},{j}": {"labels": list(rec.labels),
                                   "beta": [[b.real, b.imag] for b in rec.beta],
                                   "z": {"re": rec.z.real, "im": rec.z.imag},
                                   "residual": rec.residual,
                                   "schr_gap": ur.pair_gaps[(i, j)].schr_gap}
                      for (i, j), rec in sorted(cert.pairs.items())},
            "robertson_gap": ur.order_gaps[obs.n].gap,
            "verdict": cert.verdict,
        }
    return doc


def _cmd_report(args):
    max_tail = _max_tail(args)
    state = load_state(args.state)
    obs = _resolve_observables(args.observables, state.basis)
    rep = moment_report(obs, state, max_tail=max_tail)
    ur = _ur_from_moments(obs.labels, rep.sigma, rep.commut, 1)
    if args.orders is not None:
        bad = [r for r in args.orders if not 1 <= r <= obs.n]
        if bad:
            raise InvalidInputError(
                f"orders {bad} outside 1..{obs.n} for {obs.n} observables"
            )
    cert = minimizer_certificate(state, obs, report=rep) if args.certificate else None
    _write_json(_report_document(state, obs, rep, ur, cert, args.orders), args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _cmd_scan(args):
    _grid, _row, header = acceptance.SUITES[args.suite]
    _write_csv(header, acceptance.rows(args.suite, args.seed, args.jobs), args.out)
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
        return number_plus_one(basis)
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

@functools.cache
def _build_parser():
    parser = _Parser(prog="urstates",
                     description="states, uncertainty reports and scans")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_state = sub.add_parser("state", help="build a state, emit its JSON")
    p_state.add_argument("--family", required=True, choices=sorted(FAMILIES))
    for name, kind in _PARAM_TYPES.items():
        p_state.add_argument(_param_flag(name), dest=name, type=kind)
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
    p_scan.add_argument("--suite", required=True, choices=sorted(acceptance.SUITES))
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
        rc = args.func(args)
        # output held in the buffer meets a closed pipe here, not at exit
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # the flush at interpreter exit does not raise again (see the
        # SIGPIPE note of the Python signal module docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EX_PIPE
    except (InvalidInputError, TruncationError) as exc:
        _emit_error(exc)
        return EX_CONTRACT
    except (NumericError, ArithmeticError) as exc:
        # ArithmeticError: an overflow or a division by zero that Python
        # raises, which no constructor gate anticipated
        _emit_error(exc)
        return EX_NUMERIC
    except FileNotFoundError as exc:
        _emit_error(exc)
        return EX_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
