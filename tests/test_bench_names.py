"""The names the benchmark's tracer looks up in the package still resolve.

``bench/spans.py`` wraps each ``PATCHES`` target by name, and reads the
``-X importtime`` figure of each ``IMPORT_MODULES`` module as ``import
urstates.cli`` imports it; a change that removes one breaks a traced
benchmark run.  This test only reads ``bench/``.
"""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import urstates

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    importlib.import_module("urstates.cli")
    missing = [f"urstates.{mod}.{attr}" for mod, attr, _span in _spans().PATCHES
               if not callable(getattr(importlib.import_module(f"urstates.{mod}"), attr, None))]
    assert missing == []


def test_import_of_the_cli_loads_every_timed_module():
    modules = sorted(_spans().IMPORT_MODULES.values())
    probe = ("import sys, urstates.cli; "
             f"print([m for m in {modules!r} if m not in sys.modules])")
    # a fresh interpreter, as the benchmark's import timing uses, with this package
    src = str(pathlib.Path(urstates.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"
