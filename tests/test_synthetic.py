"""Tests for synthetic event masks and derived probability forecasts."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfscore.grid import GridField
from selfscore.neighbourhood import mean_filter_array
from selfscore.synthetic import (
    Cell,
    SynthSpec,
    rasterize,
    sample_cells,
    synth_mask,
    synth_prob,
    translate,
)

from _records import score


def test_synth_mask_deterministic():
    spec = SynthSpec(rows=40, cols=50, spacing_deg=0.05, n_cells=5, seed=9)
    m1 = synth_mask(spec)
    m2 = synth_mask(spec)
    np.testing.assert_array_equal(m1.values, m2.values)
    assert m1.kind == "mask"
    assert m1.shape == (40, 50)
    assert m1.spacing_deg == 0.05
    assert set(np.unique(m1.values)) <= {0.0, 1.0}
    assert m1.values.sum() > 0
    m3 = synth_mask(SynthSpec(rows=40, cols=50, spacing_deg=0.05, n_cells=5, seed=10))
    assert not np.array_equal(m1.values, m3.values)


def test_no_cells_means_empty_mask():
    m = synth_mask(SynthSpec(rows=8, cols=8, spacing_deg=0.1, n_cells=0))
    assert m.values.sum() == 0.0


def test_sample_cells_within_grid_and_radius_range():
    spec = SynthSpec(rows=30, cols=20, spacing_deg=0.1, n_cells=100,
                     radius_range=(2.0, 4.0), elongation_range=(1.0, 3.0), seed=1)
    cells = sample_cells(spec)
    assert len(cells) == 100
    for c in cells:
        assert 0.0 <= c.center_row <= 29.0
        assert 0.0 <= c.center_col <= 19.0
        assert 2.0 <= c.radius_minor <= 4.0
        assert c.radius_minor <= c.radius_major <= 3.0 * c.radius_minor
        assert 0.0 <= c.angle_rad < np.pi


def test_disc_raster_matches_inclusion_oracle():
    # A radius-3 disc centred on a pixel covers exactly the 29 pixels whose
    # centres satisfy di^2 + dj^2 <= 9.
    got = rasterize([Cell(8.0, 8.0, 3.0, 3.0, 0.0)], 17, 17)
    ii, jj = np.mgrid[0:17, 0:17]
    want = (((ii - 8.0) ** 2 + (jj - 8.0) ** 2) <= 9.0).astype(float)
    np.testing.assert_array_equal(got, want)
    assert got.sum() == 29.0


def test_disc_rotation_invariant():
    # Radius 3.2 keeps every pixel centre clear of the boundary circle, so
    # rotation cannot flip an exact-boundary inclusion either way.
    base = rasterize([Cell(8.0, 8.0, 3.2, 3.2, 0.0)], 17, 17)
    for angle in (0.3, 1.1, 2.7):
        np.testing.assert_array_equal(
            rasterize([Cell(8.0, 8.0, 3.2, 3.2, angle)], 17, 17), base)


def test_ellipse_orientation():
    # Major axis along columns at angle 0; along rows at angle pi/2.
    flat = rasterize([Cell(8.0, 8.0, 4.0, 2.0, 0.0)], 17, 17)
    ii, jj = np.mgrid[0:17, 0:17]
    want = ((((jj - 8.0) / 4.0) ** 2 + ((ii - 8.0) / 2.0) ** 2) <= 1.0)
    np.testing.assert_array_equal(flat, want.astype(float))
    tall = rasterize([Cell(8.0, 8.0, 4.0, 2.0, np.pi / 2.0)], 17, 17)
    np.testing.assert_allclose(tall, flat.T)


def test_raster_union_of_cells():
    a = rasterize([Cell(3.0, 3.0, 2.0, 2.0, 0.0)], 12, 12)
    b = rasterize([Cell(8.0, 8.0, 2.0, 2.0, 0.0)], 12, 12)
    both = rasterize([Cell(3.0, 3.0, 2.0, 2.0, 0.0),
                      Cell(8.0, 8.0, 2.0, 2.0, 0.0)], 12, 12)
    np.testing.assert_array_equal(both, np.maximum(a, b))


def whole_grid_raster(cells, rows, cols):
    """The reference: every cell tested at every pixel of the grid."""
    out = np.zeros((rows, cols))
    ii, jj = np.mgrid[0:rows, 0:cols]
    for cell in cells:
        di, dj = ii - cell.center_row, jj - cell.center_col
        cos_t, sin_t = np.cos(cell.angle_rad), np.sin(cell.angle_rad)
        u = cos_t * dj + sin_t * di
        v = -sin_t * dj + cos_t * di
        out[(u / cell.radius_major) ** 2 + (v / cell.radius_minor) ** 2 <= 1.0] = 1.0
    return out


RADII = st.one_of(st.floats(0.05, 12.0), st.floats(12.0, 1e6), st.just(1e308))
CELLS = st.builds(Cell, st.floats(-40.0, 60.0), st.floats(-40.0, 60.0), RADII, RADII,
                  st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(CELLS, max_size=6), rows=st.integers(1, 24), cols=st.integers(1, 24))
@example(cells=[], rows=5, cols=7)
@example(cells=[Cell(3.0, -2.0, math.inf, 2.0, 0.4)], rows=9, cols=6)
@example(cells=[Cell(4.0, 4.0, 2.5, 2.5, 0.0), Cell(30.5, 2.0, 3.0, 1.5, 1.0)], rows=8, cols=8)
def test_rasterize_matches_the_whole_grid_test(cells, rows, cols):
    # Off-grid centres, elongated and rotated cells, cells wider than the
    # grid and an infinite radius (a Cell is not validated): each cell's
    # bounding box must hold every pixel the whole-grid test sets.
    got = rasterize(cells, rows, cols)
    assert got.tobytes() == whole_grid_raster(cells, rows, cols).tobytes()


def test_translate_oracle():
    v = np.arange(12, dtype=float).reshape(3, 4)
    got = translate(v, (1, 2))
    want = np.zeros_like(v)
    want[1:, 2:] = v[:2, :2]
    np.testing.assert_array_equal(got, want)
    got = translate(v, (-1, 0))
    want = np.zeros_like(v)
    want[:2, :] = v[1:, :]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(translate(v, (0, 0)), v)
    assert translate(v, (5, 0)).sum() == 0.0  # shifted entirely off-grid


def test_synth_prob_passthrough_is_exact():
    m = synth_mask(SynthSpec(rows=24, cols=24, spacing_deg=0.05, n_cells=3, seed=2))
    p = synth_prob(m)
    np.testing.assert_array_equal(p.values, m.values)
    assert p.kind == "prob"
    assert p.spacing_deg == m.spacing_deg


def test_synth_prob_blur_and_offset_match_primitives():
    m = synth_mask(SynthSpec(rows=24, cols=24, spacing_deg=0.05, n_cells=3, seed=3))
    p = synth_prob(m, blur_r=2)
    np.testing.assert_array_equal(p.values, mean_filter_array(m.values, 2))
    p = synth_prob(m, offset_px=(2, -1))
    np.testing.assert_array_equal(p.values, translate(m.values, (2, -1)))
    p = synth_prob(m, blur_r=1, offset_px=(0, 3))
    np.testing.assert_array_equal(
        p.values, mean_filter_array(translate(m.values, (0, 3)), 1))


def test_synth_prob_noise_clamped_and_seeded():
    m = synth_mask(SynthSpec(rows=24, cols=24, spacing_deg=0.05, n_cells=3, seed=4))
    p1 = synth_prob(m, noise_sd=0.3, seed=7)
    p2 = synth_prob(m, noise_sd=0.3, seed=7)
    p3 = synth_prob(m, noise_sd=0.3, seed=8)
    np.testing.assert_array_equal(p1.values, p2.values)
    assert not np.array_equal(p1.values, p3.values)
    assert p1.values.min() >= 0.0 and p1.values.max() <= 1.0


def test_synth_prob_validation():
    m = synth_mask(SynthSpec(rows=8, cols=8, spacing_deg=0.1, n_cells=1))
    with pytest.raises(ValueError, match="noise_sd"):
        synth_prob(m, noise_sd=-0.1)
    with pytest.raises(ValueError, match="mask field"):
        synth_prob(GridField(np.zeros((4, 4)), 0.1, "prob"))


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="at least one row"):
        SynthSpec(rows=0, cols=4, spacing_deg=0.1, n_cells=1)
    with pytest.raises(ValueError, match="spacing_deg"):
        SynthSpec(rows=4, cols=4, spacing_deg=0.0, n_cells=1)
    with pytest.raises(ValueError, match="n_cells"):
        SynthSpec(rows=4, cols=4, spacing_deg=0.1, n_cells=-1)
    with pytest.raises(ValueError, match="radius_range"):
        SynthSpec(rows=4, cols=4, spacing_deg=0.1, n_cells=1, radius_range=(3.0, 2.0))
    with pytest.raises(ValueError, match="elongation_range"):
        SynthSpec(rows=4, cols=4, spacing_deg=0.1, n_cells=1,
                  elongation_range=(0.5, 2.0))
    for edges in ((1.0, math.inf), (math.inf, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="radius_range"):
            SynthSpec(rows=4, cols=4, spacing_deg=0.1, n_cells=1, radius_range=edges)
        with pytest.raises(ValueError, match="elongation_range"):
            SynthSpec(rows=4, cols=4, spacing_deg=0.1, n_cells=1, elongation_range=edges)
    # A finite radius is not capped: a cell larger than the grid covers it.
    huge = SynthSpec(rows=4, cols=4, spacing_deg=0.1, n_cells=1, radius_range=(1.0, 1e308))
    assert synth_mask(huge).values.min() == 1.0


def test_displaced_forecast_double_penalty_behaviour():
    # A binary disc forecast displaced by k pixels pays twice at pixel level
    # (miss plus false alarm).  The mean-filter FSS softens that penalty
    # monotonically with half-width.  The dilated-target Brier form does
    # NOT vanish at r >= k: every dilated-target pixel the displaced disc
    # fails to cover still costs (0 - 1)^2, so it stays strictly positive
    # (and in fact grows as the dilation inflates the target).
    m = synth_mask(SynthSpec(rows=48, cols=48, spacing_deg=0.05, n_cells=1,
                             radius_range=(3.0, 3.0), seed=11))
    for k in (1, 2, 4):
        p = synth_prob(m, offset_px=(k, 0))
        pixelwise = score("brier", p, m).value
        assert pixelwise > 0.0
        for r in (k, 2 * k):
            assert score("brier", p, m, r).value > 0.0
        widths = [0, 1, 2, 4, 6]
        fss = [score("fss", p, m, r).value for r in widths]
        assert fss[0] == score("fss", p, m).value
        assert all(f1 < f2 for f1, f2 in zip(fss, fss[1:]))
