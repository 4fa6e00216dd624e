"""Benchmark for urstates: four closed-loop workloads with checked outputs.

    python3 bench/run.py --workload squeeze-scan --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run.  Times on the result line are at
reference speed: each is scaled by a calibration pass timed just before it
(see calibration.py).  A fuller record, raw times included, goes to
``bench/out/result-<workload>-seed<seed>-trace<t>.json`` and a traced run's
spans to ``bench/out/trace-<workload>-seed<seed>.jsonl``.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("squeeze-scan", "moment-batch", "wide-report", "cli-cold")

END_TO_END = {
    "setup_s": "s",
    "ops_per_ref_s": "1/s",
    "op_p50_ref_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "states.canonical_ss.ms_per_call": "ms",
    "states.glauber.ms_per_call": "ms",
    "states.expm.calls_per_op": "calls/op",
    "moments.moment_report.calls_per_op": "calls/op",
    "moments.moment_report.ms_per_call": "ms",
    "urcheck.char_ur_report.self_ms_per_op": "ms",
    "hilbert.StateVector.ms_per_call": "ms",
    "matrixkit.psd_min_eig.calls_per_op": "calls/op",
    "matrixkit.psd_min_eig.ms_per_call": "ms",
    "matrixkit.char_coeffs.ms_per_call": "ms",
    "moments.observable_set.ms_per_call": "ms",
    "moments.observable_set.peak_alloc_mb": "MB",
    "hilbert.su11_rep.ms_per_call": "ms",
    "stateio.load_state.ms_per_call": "ms",
    "intelligent.minimizer_certificate.self_ms_per_op": "ms",
    "cli.main.self_ms_per_op": "ms",
    "python.startup_ms": "ms",
    "import.urstates.cli.ms": "ms",
    "import.urstates.states.ms": "ms",
    "import.urstates.dynamics.ms": "ms",
    "import.scipy.linalg.ms": "ms",
    "cli.verb_ms": "ms",
}

#: fresh processes that each repeat the set-up; setup_s is their median
SETUP_PROBES = 3
#: calibration passes timed before and after each set-up probe
SETUP_CAL_PASSES = 5
#: untraced/traced stretch pairs in a traced run
TRACE_ROUNDS = 4
#: a p90 is reported (in the result file) only with this many ops behind it
P90_MIN_OPS = 100


def _parse(argv):
    p = argparse.ArgumentParser(description="urstates benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="build the workload, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


class Phase:
    """Outcome of one closed-loop phase: op latencies, the calibration pass
    time before each op, CPU, failures."""

    def __init__(self):
        self.latencies = []
        self.pass_s = []
        self.cpu_s = 0.0
        self.failed = 0
        self.wrong = []
        self.errors = []

    @property
    def attempted(self):
        return len(self.latencies) + self.failed

    def ref_latencies(self):
        return [calibration.at_reference(lat, cal) for lat, cal in zip(self.latencies, self.pass_s)]


def closed_loop(wl, seconds, cpu_clock, phase, tracer=None):
    """Run ops back to back, one client, until ``seconds`` of wall time pass,
    adding them to ``phase``.

    Each op is preceded by ``wl.CAL_PASSES`` calibration passes, whose
    median time goes with the op's latency.  Each op's latency and CPU
    exclude the calibration and the check that follows the op.  Every op
    that is started is finished, so a run attempts whole ops only.
    """
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op = phase.attempted
        pass_s = calibration.pass_seconds(wl.CAL_PASSES)
        c0 = cpu_clock()
        t0 = time.perf_counter()
        try:
            out = wl.op()
        except Exception as exc:  # a failed op is counted and the run goes on
            phase.failed += 1
            phase.errors.append(f"{type(exc).__name__}: {exc}")
        else:
            t1 = time.perf_counter()
            phase.cpu_s += cpu_clock() - c0
            phase.latencies.append(t1 - t0)
            phase.pass_s.append(pass_s)
            try:
                wl.check(out)
            except AssertionError as exc:
                phase.wrong.append(str(exc))
        if time.perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.op = -1


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _build(workloads, name, seed, workdir):
    """The set-up: inputs, then one untimed, checked warm-up op.

    Returns the workload and the warm-up's check failures (at most one)."""
    wl = workloads.WORKLOADS[name](seed, workdir)
    try:
        wl.check(wl.op())
    except AssertionError as exc:
        return wl, [f"warm-up op: {exc}"]
    return wl, []


def _time_setup(args):
    """Wall time of fresh processes that each run the set-up path, from
    spawn until they report the first op could start.

    Returns the median at reference speed, each probe scaled by the mean of
    the calibration pass times just before and just after it, and the raw
    times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times, ref_times = [], []
    for _ in range(SETUP_PROBES):
        before = calibration.pass_seconds(SETUP_CAL_PASSES)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}, said {line!r})")
        after = calibration.pass_seconds(SETUP_CAL_PASSES)
        ref_times.append(calibration.at_reference(times[-1], (before + after) / 2))
    return statistics.median(ref_times), times


def _summary(phases, warmup_wrong):
    lat = [x for p in phases for x in p.latencies]
    return {
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "wrong": warmup_wrong + [w for p in phases for w in p.wrong],
        "errors": [e for p in phases for e in p.errors],
        "ops": len(lat),
    }


def _pin_env():
    """One BLAS thread for this process and every child, set before numpy
    loads: at the OpenBLAS default the small dense products here run slower
    in wall time and spread their CPU over threads that mostly spin (see
    README.md).  URSTATES_CUTOFF is unset so every cutoff is the workload's."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("URSTATES_CUTOFF", None)


def main(argv=None):
    args = _parse(argv)
    _pin_env()
    if not (ROOT / "src" / "urstates" / "__init__.py").is_file():
        print(f"bench: no urstates package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import urstates
    if Path(urstates.__file__).resolve().parent != ROOT / "src" / "urstates":
        print(f"bench: urstates imported from {urstates.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    # calibration loads numpy, so it is imported only after _pin_env()
    global calibration
    import calibration
    import spans
    import workloads
    import numpy
    import scipy

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        wl, warmup_wrong = _build(workloads, args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        in_children = args.workload in workloads.CHILD_WORKLOADS
        cpu_clock = _children_cpu if in_children else time.process_time
        rss_of = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}

        if tracer is None:
            phase = Phase()
            closed_loop(wl, args.seconds, cpu_clock, phase)
            phases = [phase]
            lat, ref = phase.latencies, phase.ref_latencies()
            metrics = {
                "ops_per_ref_s": len(ref) / sum(ref),
                "op_p50_ref_ms": 1e3 * statistics.median(ref),
                "peak_rss_mb": _peak_rss_mb(rss_of),
            }
            metrics["setup_s"], record["setup_probes_raw_s"] = _time_setup(args)
            record["raw"] = {
                "ops_per_s": len(lat) / sum(lat),
                "op_p50_ms": 1e3 * statistics.median(lat),
                "cpu_ms_per_op": 1e3 * phase.cpu_s / len(lat),
                "calibration_pass_p50_ms": 1e3 * statistics.median(phase.pass_s),
            }
            if len(lat) >= P90_MIN_OPS:
                record["op_p90_ref_ms"] = 1e3 * statistics.quantiles(ref, n=10)[-1]
                record["raw"]["op_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[-1]
            units = END_TO_END
        else:
            # Untraced and traced stretches alternate, so that drift in the
            # machine's speed does not read as tracing overhead.
            plain, traced = Phase(), Phase()
            stretch = args.seconds / (2 * TRACE_ROUNDS)
            for _ in range(TRACE_ROUNDS):
                tracer.uninstall()
                closed_loop(wl, stretch, cpu_clock, plain)
                tracer.install()
                closed_loop(wl, stretch, cpu_clock, traced, tracer)
            tracer.uninstall()
            phases = [plain, traced]
            names = [m for m in PER_LAYER if not m.startswith(("python.", "import.", "cli.verb"))]
            metrics = tracer.layer_metrics(names, len(traced.latencies))
            env = workloads.child_env()
            metrics.update(spans.import_figures(env, ROOT))
            metrics["cli.verb_ms"] = spans.cli_verb_ms(wl.argv, env, ROOT) if in_children else 0.0
            rates = [len(p.latencies) / sum(p.ref_latencies()) for p in (plain, traced)]
            record["ops_per_ref_s_untraced"], record["ops_per_ref_s_traced"] = rates
            record["tracing_overhead_pct"] = 100.0 * (rates[0] - rates[1]) / rates[0]
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            record["trace_file"] = str(trace_path.relative_to(ROOT))
            units = PER_LAYER
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    summary = _summary(phases, warmup_wrong)
    record.update(summary)
    record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for line in (summary["errors"] + summary["wrong"])[:5]:
        print(f"bench: {line}", file=sys.stderr)
    if tracer is not None:
        print(f"bench: tracing overhead {record['tracing_overhead_pct']:.1f}% of ops_per_ref_s",
              file=sys.stderr)
    print(json.dumps({"correct": not summary["wrong"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
