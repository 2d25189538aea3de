"""A command's peak memory grows in proportion to the data it transforms.

``filter --spec F0-0.1`` runs at two field sizes, each in a child process
that reads its own ``VmHWM`` (peak resident set) from ``/proc/self/status``
once the command has returned.  The import baseline is the same in both
children, so the difference of the two peaks, over the difference of the
padded pixel counts, is the cost of one more padded pixel.  It measured
28.5 bytes (numpy 2.4.6, Python 3.11, Linux x86-64), and 36.9 when the
Fourier filter still built the full padded |nu| plane where the gain reads
a quarter of it; the bound, 34, lies between the two.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfscore
from selfscore.fourier import TAPER_FACTOR
from selfscore.grid import GridField, write_grid

SRC = str(Path(selfscore.__file__).resolve().parent.parent)
BYTES_PER_PADDED_PIXEL = 34

PEAK_CHILD = """
import sys
from selfscore.cli import main
assert main(sys.argv[1:]) == 0
print(next(int(line.split()[1]) * 1024 for line in open("/proc/self/status")
           if line.startswith("VmHWM:")))
"""


def filter_peak(tmp_path, n: int) -> int:
    """The own ``VmHWM`` in bytes of a child filtering an n x n field."""
    src, out = tmp_path / f"prob_{n}.grid", tmp_path / f"out_{n}.grid"
    write_grid(src, GridField(np.random.default_rng(n).uniform(size=(n, n)), 0.02, "prob"))
    proc = subprocess.run([sys.executable, "-c", PEAK_CHILD, "filter", "--spec", "F0-0.1",
                           str(src), str(out)], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_filter_peak_grows_by_a_bounded_cost_per_padded_pixel(tmp_path):
    small, large = 200, 600
    added = (TAPER_FACTOR * large) ** 2 - (TAPER_FACTOR * small) ** 2
    per_pixel = (filter_peak(tmp_path, large) - filter_peak(tmp_path, small)) / added
    assert 0 < per_pixel <= BYTES_PER_PADDED_PIXEL, per_pixel
