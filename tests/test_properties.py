"""Property tests over random fields and random eval masks.

Every draw leaves at least one pixel scored: score ranges hold for the
pixelwise and the neighbourhood forms, the attributes diagram counts the
pixels of ``scored_weights`` and nothing else, and rank columns sum to
M(M+1)/2 with ties allowed.  The filters keep their identities: the window
mean is its own adjoint, both band-passes are linear and the Haar
band-pass is idempotent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selfscore.evaluation import attributes_diagram
from selfscore.grid import GridField
from selfscore.losses import (CENSUS_BANDS, SPECTRAL_METHODS, FilterSpec, apply_filter,
                              parse_spec_id)
from selfscore.neighbourhood import mean_filter_array
from selfscore.ranking import MetricMatrix, rank_models
from selfscore.scores import scored_weights

from _records import score

UNIT = ("brier", "fss", "iou", "dice", "csi")


@st.composite
def scored_pairs(draw, shape=None):
    """A (prob, mask) pair on one grid, each with an optional eval mask, the
    two masks sharing at least one scored pixel."""
    if shape is None:
        shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    p = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    y = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0])))
    keep = draw(st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1)))
    masks = []
    for _ in range(2):
        m = draw(st.none() | hnp.arrays(np.bool_, shape))
        if m is not None:
            m[keep] = True
        masks.append(m)
    return GridField(p, 0.05, "prob", masks[0]), GridField(y, 0.05, "mask", masks[1])


@settings(max_examples=200, deadline=None)
@given(scored_pairs(), st.integers(0, 3))
def test_scores_stay_in_range(pair, half_width):
    p, y = pair
    for kind in UNIT:
        assert 0.0 <= score(kind, p, y).value <= 1.0, kind
        assert 0.0 <= score(kind, p, y, half_width).value <= 1.0, kind
    assert -1.0 <= score("peirce", p, y).value <= 1.0
    assert score("xent", p, y).value >= 0.0
    assert score("xent", p, y, half_width).value >= 0.0


@st.composite
def scored_steps(draw):
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    return draw(st.lists(scored_pairs(shape), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(scored_steps())
def test_attributes_diagram_counts_the_scored_pixels(steps):
    preds, obs = [p for p, _ in steps], [y for _, y in steps]
    attr = attributes_diagram(preds, obs)
    assert attr.n_scored == sum(int(scored_weights(p, y).sum()) for p, y in steps)
    assert int(attr.bin_counts.sum()) == attr.n_scored


SPECS = [parse_spec_id(s) for s in ("brier_nbhd_r0", "fss_nbhd_r1", "xent_F0-0.1",
                                     "csi_W0.2-0.4", "peirce_F0.1-inf")]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: hnp.arrays(
    np.float64, (m, len(SPECS)), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0]))))
def test_rank_columns_sum_to_m_m_plus_1_over_2(values):
    m = values.shape[0]
    ranks = rank_models(MetricMatrix([f"m{i}" for i in range(m)], SPECS, values))
    assert (ranks.sum(axis=0) == m * (m + 1) / 2).all()
    assert ranks.min() >= 1.0 and ranks.max() <= m


# ---------------------------------------------------------------------------
# Filter identities.

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 15), st.integers(0, 2 ** 32 - 1))
def test_mean_filter_is_its_own_adjoint(rows, cols, r, seed):
    """<M x, z> == <x, M z>: the zero-padded window mean with a fixed divisor
    is symmetric, which the neighbourhood fss gradient rests on."""
    x, z = np.random.default_rng(seed).standard_normal((2, rows, cols))
    lhs = float(np.sum(mean_filter_array(x, r) * z))
    rhs = float(np.sum(x * mean_filter_array(z, r)))
    assert abs(lhs - rhs) <= 1e-12 * float(np.abs(x).sum() * np.abs(z).max())


def real_field(values):
    return GridField(values, 0.05, "real")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPECTRAL_METHODS), st.sampled_from(CENSUS_BANDS),
       st.integers(2, 20), st.integers(2, 20), st.integers(0, 2 ** 32 - 1))
def test_band_passes_are_linear(method, band, rows, cols, seed):
    rng = np.random.default_rng(seed)
    x, z = rng.standard_normal((2, rows, cols))
    a, b = rng.uniform(-3.0, 3.0, 2)
    fspec = FilterSpec(method, band=band)
    mixed = apply_filter(real_field(a * x + b * z), fspec).values
    parts = (a * apply_filter(real_field(x), fspec).values
             + b * apply_filter(real_field(z), fspec).values)
    scale = abs(a) * np.abs(x).max() + abs(b) * np.abs(z).max()
    np.testing.assert_allclose(mixed, parts, rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CENSUS_BANDS), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
def test_haar_band_pass_is_idempotent(band, log_rows, log_cols, seed):
    """On a power-of-two grid, where nothing is padded and cropped away, the
    band-pass keeps a fixed set of orthonormal Haar coefficients."""
    x = np.random.default_rng(seed).standard_normal((2 ** log_rows, 2 ** log_cols))
    fspec = FilterSpec("W", band=band)
    once = apply_filter(real_field(x), fspec)
    twice = apply_filter(once, fspec).values
    np.testing.assert_allclose(twice, once.values, rtol=0.0, atol=1e-12 * np.abs(x).max())
