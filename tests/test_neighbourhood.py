"""Neighbourhood filters against brute-force window oracles and, bit for
bit, against ``scipy.ndimage`` (the reference here; the package itself does
not use scipy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import ndimage

from selfscore.grid import GridField
from selfscore.losses import apply_filter, parse_filter_id
from selfscore.neighbourhood import max_filter_array, mean_filter_array


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
    dilated = apply_filter(mask, parse_filter_id("nbhd_max_r2"))
    assert dilated.kind == "mask" and dilated.spacing_deg == 0.02
    assert_array_equal(dilated.eval_mask, emask)
    fractions = apply_filter(mask, parse_filter_id("nbhd_mean_r2"))
    assert fractions.kind == "prob"
    assert_array_equal(fractions.eval_mask, emask)


def test_real_fields_rejected():
    f = GridField(np.array([[-1.0, 2.0]]), 0.02, "real")
    with pytest.raises(ValueError):
        apply_filter(f, parse_filter_id("nbhd_max_r1"))
    with pytest.raises(ValueError):
        apply_filter(f, parse_filter_id("nbhd_mean_r1"))


def test_bad_half_width_rejected():
    values = np.zeros((3, 3))
    for bad in (-1, 1.5, "2"):
        with pytest.raises(ValueError):
            max_filter_array(values, bad)
        with pytest.raises(ValueError):
            mean_filter_array(values, bad)


@st.composite
def filter_cases(draw):
    """A field of 1-40 by 1-40 pixels, binary, quantised or random, and a
    half-width 0-15, which may reach past the grid."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["binary", "quantised", "random", "signed"]))
    if kind == "binary":
        values = (rng.uniform(size=(rows, cols)) < draw(st.floats(0.0, 1.0))).astype(float)
    elif kind == "quantised":
        values = np.round(rng.uniform(size=(rows, cols)) * 20.0) / 20.0
    elif kind == "random":
        values = rng.uniform(size=(rows, cols))
    else:
        values = rng.normal(size=(rows, cols))
    return values, draw(st.integers(0, 15))


@settings(max_examples=300, deadline=None)
@given(filter_cases())
def test_max_filter_is_scipy_maximum_filter_bit_for_bit(case):
    values, r = case
    want = ndimage.maximum_filter(values, size=2 * r + 1, mode="constant", cval=0.0)
    got = max_filter_array(values, r)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(filter_cases())
def test_mean_filter_is_scipy_correlate1d_bit_for_bit(case):
    values, r = case
    ones = np.ones(2 * r + 1)
    want = ndimage.correlate1d(values, ones, axis=0, mode="constant", cval=0.0)
    want = ndimage.correlate1d(want, ones, axis=1, mode="constant", cval=0.0)
    want = want / float((2 * r + 1) ** 2)
    got = mean_filter_array(values, r)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
