"""A fixed calibration kernel that reads how fast the machine runs at the moment.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent within a minute: while nothing else ran in the container, a
fixed pass of pure-Python and numpy work took anywhere from 14 to 38 ms. Raw
op times inherit that drift. So before every timed op the benchmark times a
few passes of this kernel, and reports the op at reference speed::

    op time × REF_PASS_MS / time of one pass just before it

A change to the program leaves the kernel alone, because the kernel imports
nothing from urstates. A slow stretch of the host slows both and cancels.
The kernel is a mix of the work urstates ops do: JSON round trips and
Python object churn, small complex Hermitian eigenproblems, einsum, vdot,
element access, and a 160×160 real matrix product.
"""

import json
import statistics
import time

import numpy as np

#: time of one pass at the reference speed: close to a quiet moment of the
#: 2-vCPU Xeon VM that the README's figures come from
REF_PASS_MS = 2.5

_rng = np.random.default_rng(20001207)
_Z = (_rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))) / 8
_B = _rng.standard_normal((160, 160)) / 13
_DOC = {"a": list(range(300)),
        "b": [{"x": 0.5 * i, "y": str(i), "z": [i, i + 1]} for i in range(150)]}


def calibration_pass():
    """One pass of the kernel; returns a number so that no work is skipped."""
    doc = json.loads(json.dumps(_DOC))
    acc = sum(item["x"] for item in doc["b"])
    acc += len(sorted(doc["a"], key=lambda t: (t * 7919) % 301))
    z = _Z
    for _ in range(6):
        acc += float(np.linalg.eigvalsh(z @ z.conj().T)[0])
        acc += float(np.einsum("ij,ji->", z, z).real)
        vec = np.array([complex(z[k, 0]) for k in range(32)])
        acc += abs(np.vdot(vec, z @ vec))
        z = z * np.exp(0.1j)
    y = _B
    for _ in range(3):
        y = np.tanh(_B @ y)
    return acc + float(y[0, 0])


def pass_seconds(passes):
    """Median wall time of ``passes`` back-to-back passes, in seconds."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        calibration_pass()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference(seconds, pass_s):
    """``seconds`` measured while one pass took ``pass_s``, scaled to the
    reference speed."""
    return seconds * (REF_PASS_MS / 1e3) / pass_s
