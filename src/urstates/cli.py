"""Command-line front end.

Verbs: ``state`` builds a named state and writes its JSON document;
``report`` evaluates moments, uncertainty gaps and (optionally) a
minimizer certificate for a stored state; ``scan`` sweeps a named
parameter grid to CSV; ``evolve`` integrates an oscillator profile and
tabulates the squeeze trajectory; ``distance`` compares two stored
states; ``selftest`` runs the acceptance criteria.

Exit codes: 0 success, 2 contract violations (bad parameters, failed
normalizability or truncation gates, an --out that cannot be written) with
an error JSON on stderr,
1 internal numeric failures, 64 flag-grammar errors, 141 when the reader
of stdout closed it before the output was written.  All floats are
serialized through repr, so a dump/parse cycle is value-exact.
"""

import argparse
import ast
import contextlib
import csv
import functools
import gc
import json
import math
import operator
import os
import sys

import numpy as np

from .dynamics import TABLE_HEADER, OscillatorProfile, trajectory_table
from .errors import (
    BasisMismatchError,
    InvalidInputError,
    NumericError,
    TruncationError,
)
from .hilbert import DEFAULT_MAX_TAIL, is_number
from .intelligent import minimizer_certificate
from .metrics import g_overlap, number_plus_one
from .moments import _parse_set_name, moment_report, observable_set
from .stateio import document_text, load_state, read_document, state_text
from .states import FAMILIES
# canonical_ss stays importable as cli.canonical_ss: bench/spans.py wraps it
# under that name
from .states import canonical_ss  # noqa: F401
from .urcheck import char_ur_report

__all__ = ["entry", "main"]

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
        values = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a non-empty comma-separated int list: {text!r}")
    return values


def _emit_error(exc):
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")


@contextlib.contextmanager
def _output(out, **open_args):
    """The file ``out`` opened for writing, or stdout when None.  An ``out``
    that cannot be opened or written is an InvalidInputError naming it,
    except a missing one, which stays FileNotFoundError."""
    if not out:
        yield sys.stdout
        return
    try:
        with open(out, "w", **open_args) as fh:
            yield fh
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise InvalidInputError(f"cannot write output file {out!r}: {exc}") from exc


def _write_text(text, out):
    with _output(out) as fh:
        fh.write(text)


def _write_csv(header, rows, out):
    """Write the header and the rows as CSV to ``out``, or stdout when None;
    csv writes each cell as its str, which is repr for a Python or numpy float."""
    with _output(out, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

#: value types of the family parameters of `state`, by the name that
#: `states.FAMILIES` gives them (the tail bound max_tail is --max-tail)
_PARAM_TYPES = {**dict.fromkeys(("alpha", "u", "v", "w", "z", "xi", "tau"), _complex_arg),
                "k": float, "j": float, "n": int, "N": int}


def _param_flag(name):
    return "--cutoff" if name == "N" else f"--{name}"


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

    _max_tail(args)
    return build(**{p: getattr(args, p) for p in params})


def _cmd_state(args):
    _write_text(state_text(_build_state(args)), args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _resolve_observables(name, basis):
    """Build a registry observable set on the basis the state lives in.

    A bare ``su11`` or ``su2`` takes the state's own k or j, and every set
    takes the state's cutoff; an explicit ``:x`` suffix must agree with the
    state.  A state off the set's basis is refused by `moments.check_state`.
    """
    head, arg = _parse_set_name(name)
    letter = {"su11": "k", "su2": "j"}.get(head)
    value = getattr(basis, letter) if letter else None
    if value is not None:
        if arg is not None and abs(arg - value) > 1e-12:
            raise BasisMismatchError(
                f"requested {letter}={arg!r} but the state carries {letter}={value!r}"
            )
        # the set is built at the state's exact index: repr round-trips the float
        name = f"{head}:{value!r}"
    return observable_set(name, N=basis.N)


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
    if args.orders is not None:
        bad = [r for r in args.orders if not 1 <= r <= obs.n]
        if bad:
            raise InvalidInputError(
                f"orders {bad} outside 1..{obs.n} for {obs.n} observables"
            )
    rep = moment_report(obs, state, max_tail=max_tail)
    ur = char_ur_report(obs, state, max_tail=max_tail)
    cert = minimizer_certificate(state, obs, max_tail=max_tail) if args.certificate else None
    _write_text(document_text(_report_document(state, obs, rep, ur, cert, args.orders)),
                args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

#: the names of `acceptance.SUITES`, sorted, which `scan --suite` offers
#: without importing `acceptance`
SCAN_SUITES = ("bg-cs", "even-odd", "random-psd", "squeeze-shell", "su11-cs")


def _cmd_scan(args):
    from . import acceptance

    _grid, _row, header = acceptance.SUITES[args.suite]
    _write_csv(header, acceptance.rows(args.suite, args.seed), args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

_EXPR_NAMES = ("sin", "cos", "tan", "asin", "acos", "atan", "exp", "log",
               "sqrt", "sinh", "cosh", "tanh", "floor", "fabs", "pi", "e")
_EXPR_NS = {name: getattr(math, name) for name in _EXPR_NAMES}
_EXPR_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                ast.Div: operator.truediv, ast.Pow: operator.pow}
_EXPR_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _expr_node(node, expr):
    """A function of t that evaluates the expression tree ``node`` on floats.

    Only numeric constants (taken as floats), t, pi, e, binary + - * / **,
    unary + and -, and calls of the `_EXPR_NAMES` functions are allowed, so
    ** is a float power that overflows at once; any other node is refused
    before anything is evaluated.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(node.value)
        return lambda t: value
    if isinstance(node, ast.Name) and node.id == "t":
        return lambda t: t
    if isinstance(node, ast.Name) and isinstance(_EXPR_NS.get(node.id), float):
        value = _EXPR_NS[node.id]
        return lambda t: value
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINARY:
        op = _EXPR_BINARY[type(node.op)]
        left, right = _expr_node(node.left, expr), _expr_node(node.right, expr)
        return lambda t: op(left(t), right(t))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARY:
        op, operand = _EXPR_UNARY[type(node.op)], _expr_node(node.operand, expr)
        return lambda t: op(operand(t))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and callable(_EXPR_NS.get(node.func.id)) and not node.keywords):
        fn, args = _EXPR_NS[node.func.id], [_expr_node(arg, expr) for arg in node.args]
        # floor returns an int, whose powers would be exact and unbounded
        return lambda t: float(fn(*[arg(t) for arg in args]))
    what = getattr(node, "func", getattr(node, "op", node))
    raise InvalidInputError(f"profile expression {expr!r} may not use "
                            f"{getattr(what, 'id', type(what).__name__)!r}")


def _expr_callable(expr):
    try:
        node = _expr_node(ast.parse(expr, mode="eval").body, expr)
    except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
        raise InvalidInputError(f"bad profile expression {expr!r}: {exc}")

    def fn(t):
        t = float(t)
        try:
            val = float(node(t))
        except (ArithmeticError, ValueError, TypeError, RecursionError) as exc:
            raise InvalidInputError(
                f"profile expression {expr!r} fails at t={t!r}: {exc}"
            ) from exc
        if not math.isfinite(val):
            raise InvalidInputError(f"profile expression {expr!r} is {val} at t={t!r}")
        return val

    return fn


def _profile_field(doc, key):
    if key not in doc:
        raise InvalidInputError(f"profile document is missing {key!r}")
    value = doc[key]
    if is_number(value):
        return float(value)
    if isinstance(value, str):
        return _expr_callable(value)
    if isinstance(value, dict) and set(value) == {"t", "values"}:
        from scipy.interpolate import CubicSpline

        t, vals = value["t"], value["values"]
        # JSON numbers, as a state document takes them: a bool or a string is not one
        if not (type(t) is type(vals) is list and set(map(type, t + vals)) <= {int, float}):
            raise InvalidInputError(f"sampled profile field {key!r} needs 't' and 'values' "
                                    f"lists of numbers")
        t, vals = np.asarray(t, dtype=float), np.asarray(vals, dtype=float)
        if max(t.size, vals.size) > MAX_SAMPLES:
            raise InvalidInputError(f"sampled profile field {key!r} holds more than "
                                    f"MAX_SAMPLES={MAX_SAMPLES} samples")
        if t.ndim != 1 or t.shape != vals.shape or t.size < 4 \
                or np.any(np.diff(t) <= 0.0):
            raise InvalidInputError(
                f"sampled profile field {key!r} needs matching increasing "
                f"arrays of length >= 4"
            )
        spline, lo, hi = CubicSpline(t, vals), float(t[0]), float(t[-1])

        def sampled(tt):
            if not lo <= tt <= hi:
                raise InvalidInputError(f"sampled profile field {key!r} is sampled on "
                                        f"[{lo!r}, {hi!r}] only, not at t={float(tt)!r}")
            return float(spline(tt))

        return sampled
    raise InvalidInputError(
        f"profile field {key!r} must be a number, an expression string, or "
        f"a {{t, values}} sample table"
    )


def _load_profile(path):
    doc = read_document(path, "profile")
    try:
        return _profile_from_dict(doc)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidInputError(f"malformed profile document {path!r}: {exc}") from exc


def _profile_from_dict(doc):
    kind = doc.get("kind")
    omega0 = doc.get("omega0")
    if omega0 is not None and not is_number(omega0):
        raise InvalidInputError(f"profile field 'omega0' must be a number, got {omega0!r}")
    if kind == "omega":
        return OscillatorProfile.from_omega(_profile_field(doc, "omega"), omega0=omega0)
    if kind == "g123":
        if omega0 is None:
            raise InvalidInputError("g123 profile needs omega0")
        return OscillatorProfile.from_g123(
            _profile_field(doc, "g1"),
            _profile_field(doc, "g2"),
            _profile_field(doc, "g3"),
            omega0,
        )
    raise InvalidInputError(f"profile kind must be 'omega' or 'g123', got {kind!r}")


#: most time samples one ``evolve`` run tabulates
MAX_SAMPLES = 100_000


def _cmd_evolve(args):
    if not (2 <= args.samples <= MAX_SAMPLES
            and math.isfinite(args.t0) and math.isfinite(args.t1)):
        raise InvalidInputError(f"evolve needs finite --t0, --t1 and 2 <= --samples <= "
                                f"{MAX_SAMPLES}, got {args.t0}, {args.t1}, {args.samples}")
    profile = _load_profile(args.profile)
    t = np.linspace(args.t0, args.t1, args.samples)
    _traj, _u, _v, rows = trajectory_table(profile, t)
    _write_csv(TABLE_HEADER, rows, args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# distance / selftest
# ---------------------------------------------------------------------------

def _distance_observable(name, basis):
    if name == "n+1":
        return number_plus_one(basis)
    if name == "k3":
        return _resolve_observables("su11", basis).ops[2]
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
    _write_text(document_text(result.to_json_dict()), args.out)
    return EX_OK


def _cmd_selftest(args):
    from . import acceptance

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
    p_state.add_argument("--max-tail", type=float, default=DEFAULT_MAX_TAIL)
    p_state.add_argument("--out")
    p_state.set_defaults(func=_cmd_state)

    p_rep = sub.add_parser("report", help="moment/UR report for a stored state")
    p_rep.add_argument("--state", required=True)
    p_rep.add_argument("--observables", required=True)
    p_rep.add_argument("--orders", type=_int_list)
    p_rep.add_argument("--certificate", action="store_true")
    p_rep.add_argument("--max-tail", type=float, default=DEFAULT_MAX_TAIL)
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=_cmd_report)

    p_scan = sub.add_parser("scan", help="sweep a named grid to CSV")
    p_scan.add_argument("--suite", required=True, choices=SCAN_SUITES)
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
        # the gates and the finite-document check decide the outcome; a numpy
        # warning on an overflow would only print a line beside the output
        with np.errstate(all="ignore"):
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
    except (InvalidInputError, TruncationError, FileNotFoundError) as exc:
        _emit_error(exc)
        return EX_CONTRACT
    except (NumericError, ArithmeticError) as exc:
        # ArithmeticError: an overflow or a division by zero that Python
        # raises, which no constructor gate anticipated
        _emit_error(exc)
        return EX_NUMERIC


def entry():
    """The process entry, behind ``python -m urstates.cli`` and the
    ``urstates`` console script: run one verb on ``sys.argv`` and return its
    exit code.

    It first moves the import-time heap (numpy, ``scipy.linalg`` and the
    package, some 40,000 objects) into the permanent generation with
    ``gc.freeze()``.  No later collection walks that generation, the ones at
    interpreter exit included, which saves 30-40 ms of a ~300 ms cold run.
    A process that calls ``main(argv)`` itself freezes nothing, so none of
    its garbage becomes uncollectable.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
