"""A command's peak memory grows in proportion to the data it transforms,
and a Haar decomposition holds about as many values as its padded grid.

``filter`` runs at two field sizes, each in a child process that reads its
own ``VmHWM`` (peak resident set) from ``/proc/self/status`` once the
command has returned.  The import baseline is the same in both children, so
the difference of the two peaks, over the difference of the padded pixel
counts, is the cost of one more padded pixel (numpy 2.4.6, Python 3.11,
Linux x86-64):

- ``F0-0.1`` measured 28.5 bytes, and 36.9 when the Fourier filter still
  built the full padded |nu| plane where the gain reads a quarter of it;
  the bound, 34, lies between the two.
- ``W0-0.1`` measured 25.8 bytes, and 32.3 when the Haar decomposition
  still kept the padded grid and every level's LL next to the detail
  subbands; the bound, 29, lies between the two.

The decomposition itself, measured with ``tracemalloc``, holds 1.01-1.05
times the padded grid's bytes; with the padded grid and every LL it held
2.35-2.42 times, above the bound of 1.1.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import selfscore
from selfscore.fourier import TAPER_FACTOR
from selfscore.grid import GridField, next_pow2_dims, write_grid
from selfscore.wavelet import wavelet_decompose

SRC = str(Path(selfscore.__file__).resolve().parent.parent)

PEAK_CHILD = """
import sys
from selfscore.cli import main
assert main(sys.argv[1:]) == 0
print(next(int(line.split()[1]) * 1024 for line in open("/proc/self/status")
           if line.startswith("VmHWM:")))
"""


def filter_peak(tmp_path, spec: str, n: int) -> int:
    """The own ``VmHWM`` in bytes of a child filtering an n x n field."""
    src, out = tmp_path / f"prob_{n}.grid", tmp_path / f"out_{n}.grid"
    write_grid(src, GridField(np.random.default_rng(n).uniform(size=(n, n)), 0.02, "prob"))
    proc = subprocess.run([sys.executable, "-c", PEAK_CHILD, "filter", "--spec", spec,
                           str(src), str(out)], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def peak_per_padded_pixel(tmp_path, spec: str, padded) -> float:
    """The growth of ``filter --spec spec``'s peak from a 200 x 200 to a
    600 x 600 field, per padded pixel (``padded(n)`` of an n x n field)."""
    small, large = 200, 600
    grown = filter_peak(tmp_path, spec, large) - filter_peak(tmp_path, spec, small)
    return grown / (padded(large) - padded(small))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_filter_peak_grows_by_a_bounded_cost_per_padded_pixel(tmp_path):
    per_pixel = peak_per_padded_pixel(tmp_path, "F0-0.1", lambda n: (TAPER_FACTOR * n) ** 2)
    assert 0 < per_pixel <= 34, per_pixel


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_haar_filter_peak_grows_by_a_bounded_cost_per_padded_pixel(tmp_path):
    per_pixel = peak_per_padded_pixel(tmp_path, "W0-0.1",
                                      lambda n: next_pow2_dims((n, n))[0] ** 2)
    assert 0 < per_pixel <= 29, per_pixel


@pytest.mark.parametrize("shape", [(205, 205), (100, 37), (256, 128)])
def test_wavelet_decomposition_holds_about_its_padded_grid(shape):
    values = np.random.default_rng(0).normal(size=shape)
    tracemalloc.start()
    try:
        decomposition = wavelet_decompose(values)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [f.name for f in dataclasses.fields(decomposition)] == ["details", "coarsest", "shape"]
    assert decomposition.shape == shape
    assert held / (8 * np.prod(next_pow2_dims(shape))) <= 1.1, held
