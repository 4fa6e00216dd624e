"""The README quick tour runs and its comments hold."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    np.testing.assert_allclose(ns["rep"].sigma, np.diag([1 / 8, 2]), atol=1e-12)
    assert abs(ns["ur"].pair_gaps[(0, 1)].schr_gap) < 1e-12
    assert ns["ur"].order_gaps[2].saturated
    assert ns["cert"].verdict == "minimizer"
