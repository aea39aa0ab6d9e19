"""The scripts under demos/ and the README's python blocks run to
completion against the package."""

import contextlib
import io
import pathlib
import re
import runpy
import textwrap

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from lowlight_rppg import SynthConfig, bandpass, detrend, generate

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
# Each ```python fence of the README, dedented when it sits in a list item.
README_BLOCKS = [textwrap.dedent(m.group(2)) for m in re.finditer(
    r"^( *)```python\n(.*?)^\1```", (ROOT / "README.md").read_text(), re.M | re.S)]


@pytest.mark.parametrize("name", ["end_to_end.py", "illumination_sweep.py"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue()


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    # the names the reference-tracking snippet takes from its context:
    # 10 s windows of a 72 bpm trace, preprocessed as run_pipeline does
    fs, band, sigma_init = 30.0, (0.7, 4.0), 0.05
    trace = generate(SynthConfig(hr_bpm=72.0, duration_s=20.0, seed=1))
    windows = bandpass(detrend(sliding_window_view(trace.green(), 300)[::30], 100.0),
                       fs, *band)
    namespace = {"windows": windows, "fs": fs, "band": band, "sigma_init": sigma_init}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md", "exec"), namespace)
    if "f_r" in namespace:
        assert np.all(np.abs(namespace["f_r"] - 1.2) < 0.05)
        assert namespace["sigma_fr"].shape == (len(windows),)
