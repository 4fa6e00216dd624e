"""In-memory spans around calls into urstates, and the per-layer metrics built from them.

The package is not edited.  A traced run replaces, for its duration, the
names that calling modules look up (``urcheck.moment_report``,
``cli.load_state``, ...) with wrappers that record a span per call and then
restores them.  A span is (name, start, end, parent, op): nested calls,
such as ``moment_report`` inside ``char_ur_report``, get the enclosing span
as parent, and a span's self time is its duration minus its children's.
Spans opened outside a timed op carry op = -1 (set-up and warm-up).
"""

import importlib
import json
import statistics
import subprocess
import sys
import time
import tracemalloc

#: (module, attribute it is looked up as, span name); the same function is
#: wrapped under every name its callers use
PATCHES = (
    ("states", "canonical_ss", "states.canonical_ss"),
    ("cli", "canonical_ss", "states.canonical_ss"),
    ("states", "glauber", "states.glauber"),
    ("states", "expm", "states.expm"),
    ("moments", "moment_report", "moments.moment_report"),
    ("urcheck", "moment_report", "moments.moment_report"),
    ("intelligent", "moment_report", "moments.moment_report"),
    ("cli", "moment_report", "moments.moment_report"),
    ("urcheck", "char_ur_report", "urcheck.char_ur_report"),
    ("cli", "char_ur_report", "urcheck.char_ur_report"),
    ("hilbert", "StateVector", "hilbert.StateVector"),
    ("stateio", "StateVector", "hilbert.StateVector"),
    ("moments", "psd_min_eig", "matrixkit.psd_min_eig"),
    ("urcheck", "char_coeffs", "matrixkit.char_coeffs"),
    ("intelligent", "char_coeffs", "matrixkit.char_coeffs"),
    ("moments", "observable_set", "moments.observable_set"),
    ("cli", "observable_set", "moments.observable_set"),
    ("moments", "su11_rep", "hilbert.su11_rep"),
    ("cli", "load_state", "stateio.load_state"),
    ("cli", "minimizer_certificate", "intelligent.minimizer_certificate"),
    ("cli", "main", "cli.main"),
)

#: spans that also record the peak traced allocation inside them
ALLOC_SPANS = {"moments.observable_set"}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, op, peak_alloc_bytes]
        self.op = -1
        self._stack = []
        self._saved = []
        self.t0 = time.perf_counter()

    def _wrap(self, fn, name):
        alloc = name in ALLOC_SPANS

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
            self._stack.append(idx)
            if alloc:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if alloc:
                    self.spans[idx][5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()

        return traced

    def install(self):
        for mod_name, attr, span in PATCHES:
            mod = importlib.import_module(f"urstates.{mod_name}")
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def layer_metrics(self, names, n_ops):
        """Values of ``<span>.<stat>`` metrics over the recorded spans.

        ms_per_call and peak_alloc_mb cover every call (set-up included);
        calls_per_op and self_ms_per_op cover the calls made inside timed
        ops.  A span that was never opened reads 0.
        """
        child_time = [0.0] * len(self.spans)
        by_name = {}
        for i, (name, start, end, parent, _op, _alloc) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
            by_name.setdefault(name, []).append((i, self.spans[i]))
        out = {}
        for metric in names:
            span, stat = metric.rsplit(".", 1)
            rows = by_name.get(span, [])
            in_ops = [(i, s) for i, s in rows if s[4] >= 0]
            if stat == "ms_per_call":
                value = 1e3 * sum(s[2] - s[1] for _i, s in rows) / len(rows) if rows else 0.0
            elif stat == "calls_per_op":
                value = len(in_ops) / n_ops
            elif stat == "self_ms_per_op":
                value = 1e3 * sum(s[2] - s[1] - child_time[i] for i, s in in_ops) / n_ops
            elif stat == "peak_alloc_mb":
                value = max((s[5] for _i, s in rows), default=0) / 2 ** 20
            else:
                raise ValueError(f"unknown span statistic in {metric!r}")
            out[metric] = value
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, alloc) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_s": start - self.t0,
                       "end_s": end - self.t0, "parent": parent, "op": op}
                if alloc is not None:
                    rec["peak_alloc_bytes"] = alloc
                fh.write(json.dumps(rec) + "\n")


def _wall(cmd, env, cwd):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-500:]}")
    return wall, proc.stderr


#: modules whose cumulative -X importtime figure is reported, by metric name
IMPORT_MODULES = {
    "import.urstates.cli.ms": "urstates.cli",
    "import.urstates.states.ms": "urstates.states",
    "import.urstates.dynamics.ms": "urstates.dynamics",
    "import.scipy.linalg.ms": "scipy.linalg",
}


def import_figures(env, cwd, runs=3):
    """Bare interpreter start-up and import costs, medians over fresh interpreters.

    Returns python.startup_ms and the cumulative ``-X importtime`` figure of
    each module in IMPORT_MODULES as ``import urstates.cli`` imports it.
    """
    py = sys.executable
    startup = [_wall([py, "-c", "pass"], env, cwd)[0] for _ in range(2 * runs)]
    cumulative = {metric: [] for metric in IMPORT_MODULES}
    for _ in range(runs):
        _wall_s, err = _wall([py, "-X", "importtime", "-c", "import urstates.cli"], env, cwd)
        seen = {}
        for line in err.splitlines():
            fields = line[len("import time:"):].split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                seen[fields[2].strip()] = int(fields[1])
        for metric, mod in IMPORT_MODULES.items():
            cumulative[metric].append(seen[mod] / 1e3)
    out = {"python.startup_ms": 1e3 * statistics.median(startup)}
    out.update({m: statistics.median(v) for m, v in cumulative.items()})
    return out


#: run in a fresh interpreter: import the CLI, time one verb, report the time
_VERB_TIMER = """
import sys, time
import urstates.cli as cli
t0 = time.perf_counter()
rc = cli.main(sys.argv[1:])
sys.stderr.write("verb_ms %r\\n" % (1e3 * (time.perf_counter() - t0)))
sys.exit(rc)
"""


def cli_verb_ms(argv, env, cwd, rounds=5):
    """Median time of ``urstates.cli.main(argv)`` in fresh interpreters, in ms:
    the cold op's time minus its start-up and import."""
    times = []
    for _ in range(rounds):
        _wall_s, err = _wall([sys.executable, "-c", _VERB_TIMER, *argv], env, cwd)
        times.append(float(err.rsplit("verb_ms ", 1)[1]))
    return statistics.median(times)
