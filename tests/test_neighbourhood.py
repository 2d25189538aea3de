"""Neighbourhood filters against brute-force window oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import selfscore
from selfscore.grid import GridField
from selfscore.neighbourhood import (max_filter, max_filter_array, mean_filter,
                                     mean_filter_array)


def window_oracle(values, half_width, reduce_fn):
    """Direct per-pixel window reduction with zero padding."""
    rows, cols = values.shape
    out = np.empty_like(values, dtype=np.float64)
    padded = np.zeros((rows + 2 * half_width, cols + 2 * half_width))
    padded[half_width:half_width + rows, half_width:half_width + cols] = values
    for i in range(rows):
        for j in range(cols):
            out[i, j] = reduce_fn(padded[i:i + 2 * half_width + 1,
                                         j:j + 2 * half_width + 1])
    return out


def test_max_filter_matches_oracle():
    rng = np.random.default_rng(3)
    for r in (0, 1, 2, 3, 5):
        values = rng.uniform(size=(11, 13))
        got = max_filter_array(values, r)
        want = window_oracle(values, r, np.max)
        assert_array_equal(got, want)


def test_mean_filter_matches_oracle():
    rng = np.random.default_rng(4)
    for r in (0, 1, 2, 4):
        values = rng.uniform(size=(9, 14))
        got = mean_filter_array(values, r)
        want = window_oracle(values, r, lambda w: w.sum() / ((2 * r + 1) ** 2))
        assert_allclose(got, want, atol=1e-12)


def test_half_width_zero_is_identity_copy():
    values = np.arange(12.0).reshape(3, 4)
    for fn in (max_filter_array, mean_filter_array):
        out = fn(values, 0)
        assert_array_equal(out, values)
        out[0, 0] = 99.0  # a copy, not a view
        assert values[0, 0] == 0.0


def test_edge_pixels_attenuated_not_reflected():
    # A single event in a corner: the mean filter must divide by the full
    # window even where the window hangs off the grid.
    values = np.zeros((5, 5))
    values[0, 0] = 1.0
    out = mean_filter_array(values, 1)
    assert out[0, 0] == pytest.approx(1.0 / 9.0)
    dilated = max_filter_array(values, 1)
    assert dilated[0, 0] == 1.0 and dilated[1, 1] == 1.0 and dilated[2, 2] == 0.0


def test_mean_filter_is_self_adjoint():
    # <M u, v> == <u, M v> for the fixed-divisor zero-padded window mean;
    # the FSS gradient relies on this.
    rng = np.random.default_rng(5)
    for r in (1, 2, 4):
        u = rng.normal(size=(10, 10))
        v = rng.normal(size=(10, 10))
        lhs = float(np.sum(mean_filter_array(u, r) * v))
        rhs = float(np.sum(u * mean_filter_array(v, r)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_field_wrappers_preserve_metadata():
    rng = np.random.default_rng(6)
    emask = rng.uniform(size=(6, 6)) < 0.7
    mask = GridField((rng.uniform(size=(6, 6)) < 0.3).astype(float), 0.02, "mask", emask)
    dilated = max_filter(mask, 2)
    assert dilated.kind == "mask" and dilated.spacing_deg == 0.02
    assert_array_equal(dilated.eval_mask, emask)
    fractions = mean_filter(mask, 2)
    assert fractions.kind == "prob"
    assert_array_equal(fractions.eval_mask, emask)


def test_real_fields_rejected():
    f = GridField(np.array([[-1.0, 2.0]]), 0.02, "real")
    with pytest.raises(ValueError):
        max_filter(f, 1)
    with pytest.raises(ValueError):
        mean_filter(f, 1)


def test_bad_half_width_rejected():
    values = np.zeros((3, 3))
    for bad in (-1, 1.5, "2"):
        with pytest.raises(ValueError):
            max_filter_array(values, bad)
        with pytest.raises(ValueError):
            mean_filter_array(values, bad)


def test_scipy_ndimage_is_imported_on_first_filter():
    # Commands that never filter (rank, eval, ...) do not pay for scipy.
    src = os.path.dirname(os.path.dirname(selfscore.__file__))
    code = ("import sys\n"
            "import numpy as np\n"
            "import selfscore.cli\n"
            "from selfscore.neighbourhood import max_filter_array\n"
            "assert 'scipy.ndimage' not in sys.modules\n"
            "max_filter_array(np.zeros((3, 3)), 1)\n"
            "assert 'scipy.ndimage' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
