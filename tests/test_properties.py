"""Property tests over random fields and random eval masks.

Every draw leaves at least one pixel scored: score ranges hold for the
pixelwise and the neighbourhood forms, the attributes diagram counts the
pixels of ``scored_weights`` and nothing else, and rank columns sum to
M(M+1)/2 with ties allowed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selfscore.evaluation import attributes_diagram
from selfscore.grid import GridField
from selfscore.losses import parse_spec_id
from selfscore.ranking import MetricMatrix, rank_models
from selfscore.scores import nbhd_score, pixelwise_score, scored_weights

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
        assert 0.0 <= pixelwise_score(kind, p, y) <= 1.0, kind
        assert 0.0 <= nbhd_score(kind, p, y, half_width) <= 1.0, kind
    assert -1.0 <= pixelwise_score("peirce", p, y) <= 1.0
    assert pixelwise_score("xent", p, y) >= 0.0
    assert nbhd_score("xent", p, y, half_width) >= 0.0


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
