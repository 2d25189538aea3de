"""The neighbourhood-CSI window argmax: gradient and grad-check exclusions.

Each observed event routes its unit weight to the maximum of its
(2r+1) x (2r+1) window of the prediction, clipped to the grid, and exact
ties split it equally.  ``_obs_window_max_grad`` and ``_excluded_pixels``
read each window's maximum from the zero-padded one that the record's
contingency keeps, which equals the in-grid maximum of a prediction >= 0,
-0.0 included.  They find the few pixels that can lie near some event's
maximum (candidates), then gather the windows of event maxima around many
candidates at once.  These tests check them by hand on small grids,
against the per-event loops they replaced (kept here as the reference) bit
for bit, on a tie-heavy field like the training loop's, and for a bounded
working set on a large grid.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from selfscore.grid import GridField
from selfscore.losses import NBHD_HALF_WIDTHS, LossSpec, _excluded_pixels
from selfscore.scores import (_WINDOW_VALUES, NbhdObs, NbhdPair, _obs_window_max_grad,
                              scored_weights)

STEP = 1e-5


def record(pv, yv, w, r):
    """The pair record the csi score, gradient and grad check read."""
    return NbhdPair(pv, NbhdObs(yv, r), w)


def window_max_grad(pv, yv, w, r):
    return _obs_window_max_grad(record(pv, yv, w, r))


def excluded(pv, yv, w, r, step=STEP):
    return _excluded_pixels(LossSpec("csi", "nbhd", half_width=r), record(pv, yv, w, r), step)


def window_max_grad_loop(pv, yv, w, r):
    """Reference: one event at a time, slicing its window out of the grid."""
    grad = np.zeros_like(pv)
    rows, cols = pv.shape
    for i, j in zip(*np.nonzero(w & (yv == 1.0))):
        sl = (slice(max(0, i - r), min(rows, i + r + 1)),
              slice(max(0, j - r), min(cols, j + r + 1)))
        window = pv[sl]
        m = window.max()
        ties = window == m
        grad[sl] += ties / float(ties.sum())
    return grad


def excluded_loop(pv, yv, w, r, margin):
    """Reference: pixels near a window maximum that more than one pixel is near."""
    excluded = np.zeros(pv.shape, dtype=bool)
    rows, cols = pv.shape
    for i, j in zip(*np.nonzero(w & (yv == 1.0))):
        sl = (slice(max(0, i - r), min(rows, i + r + 1)),
              slice(max(0, j - r), min(cols, j + r + 1)))
        window = pv[sl]
        m = window.max()
        near = m - window <= margin
        if near.sum() > 1:
            excluded[sl] |= near
    return excluded


# ---------------------------------------------------------------------------
# Tie splitting by hand.

PV = np.array([
    [0.1, 0.2, 0.3, 0.1, 0.1, 0.1],
    [0.2, 0.9, 0.1, 0.1, 0.1, 0.1],
    [0.9, 0.1, 0.1, 0.1, 0.1, 0.1],
    [0.1, 0.1, 0.1, 0.1, 0.0, 0.0],
    [0.1, 0.1, 0.1, 0.1, 0.0, 0.0],
])


def hand_case():
    """Events at (1, 1) and (2, 1), whose 3x3 windows tie between (1, 1) and
    (2, 0); a corner event at (4, 5), whose window is clipped to four zeros
    (pixels beyond the edge are not candidates); and an event at (0, 4) that
    the eval mask leaves unscored."""
    yv = np.zeros(PV.shape)
    yv[1, 1] = yv[2, 1] = yv[4, 5] = yv[0, 4] = 1.0
    w = np.ones(PV.shape, dtype=bool)
    w[0, 4] = False
    return yv, w


def test_ties_split_the_unit_weight_equally():
    yv, w = hand_case()
    want = np.zeros(PV.shape)
    want[1, 1] = want[2, 0] = 0.5 + 0.5  # two events, a 2-way tie each
    want[3:5, 4:6] = 0.25  # the corner event, a 4-way tie
    assert_array_equal(window_max_grad(PV, yv, w, 1), want)


def test_window_larger_than_the_grid_sees_the_whole_grid():
    yv, w = hand_case()
    for r in (5, 6, 12):
        want = np.zeros(PV.shape)
        want[1, 1] = want[2, 0] = 1.5  # three scored events, each split in two
        assert_array_equal(window_max_grad(PV, yv, w, r), want)


def test_no_scored_event_gives_a_zero_gradient():
    yv, w = hand_case()
    for r in (0, 1, 12):
        assert_array_equal(window_max_grad(PV, np.zeros(PV.shape), w, r),
                           np.zeros(PV.shape))
        assert_array_equal(window_max_grad(PV, yv, w & (yv == 0.0), r),
                           np.zeros(PV.shape))


def test_hand_case_exclusions():
    yv, w = hand_case()
    want = np.zeros(PV.shape, dtype=bool)
    want[1, 1] = want[2, 0] = True
    want[3:5, 4:6] = True
    assert_array_equal(excluded(PV, yv, w, 1, 1e-5), want)


# ---------------------------------------------------------------------------
# Against the per-event loops.

def eval_mask(draw, rng, shape):
    """None, or a random mask scoring about 80 % of the pixels."""
    return rng.uniform(size=shape) < 0.8 if draw(st.booleans()) else None


@st.composite
def window_cases(draw):
    """A 1-20 px grid whose values are quantised to force ties, some moved by
    less or more than the grad-check margin, with plateaus of 0.0, -0.0 or
    both, events, and an eval mask on either field, both or neither."""
    shape = (draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.integers(1, 5))
    pv = np.round(rng.uniform(size=shape) * levels) / levels
    nudge = rng.choice([0.0, 0.0, STEP, 1.5 * STEP, 3.0 * STEP], size=shape)
    pv = np.clip(pv + nudge * rng.choice([-1.0, 1.0], size=shape), 0.0, 1.0)
    if draw(st.booleans()):
        pv[rng.uniform(size=shape) < 0.7] = 0.0  # all-zero windows at the edges
    zeros = pv == 0.0
    negative_share = draw(st.sampled_from((0.0, 0.5, 1.0)))  # of the zeros made -0.0
    pv[zeros & (rng.uniform(size=shape) < negative_share)] = -0.0
    yv = (rng.uniform(size=shape) < draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))).astype(float)
    p = GridField(pv, 0.1, "prob", eval_mask(draw, rng, shape))
    y = GridField(yv, 0.1, "mask", eval_mask(draw, rng, shape))
    return p, y, draw(st.sampled_from(NBHD_HALF_WIDTHS))


@settings(max_examples=200, deadline=None)
@given(window_cases())
def test_gather_matches_the_per_event_loops(case):
    p, y, r = case
    try:
        w = scored_weights(p, y)
    except ValueError:  # no pixel scored by both masks
        assume(False)
    pv, yv = p.values, y.values
    assert (window_max_grad(pv, yv, w, r).tobytes()
            == window_max_grad_loop(pv, yv, w, r).tobytes())
    assert_array_equal(excluded(pv, yv, w, r), excluded_loop(pv, yv, w, r, 2.0 * STEP))


def test_gather_matches_the_loops_across_blocks():
    rng = np.random.default_rng(7)
    pv = np.round(rng.uniform(size=(240, 280)) * 4) / 4
    yv = (rng.uniform(size=pv.shape) < 0.4).astype(float)
    w = rng.uniform(size=pv.shape) < 0.9
    for r in (1, 4):
        block = _WINDOW_VALUES // (2 * r + 1) ** 2
        want = window_max_grad_loop(pv, yv, w, r)
        # More events, and more candidates (a superset of the argmax pixels),
        # than one block of the gather holds.
        assert np.count_nonzero(w & (yv == 1.0)) > block
        assert np.count_nonzero(want) > block
        assert window_max_grad(pv, yv, w, r).tobytes() == want.tobytes()
        assert_array_equal(excluded(pv, yv, w, r), excluded_loop(pv, yv, w, r, 2.0 * STEP))


def train_like_case():
    """An odd, non-square grid valued like the training loop's prediction:
    in [0.02, 0.98], with plateaus at exactly 0.02 and 0.98 and values moved
    off 0.98 by less and more than each margin below; events on every edge
    and corner; an eval mask scoring about 90 % of the pixels."""
    rng = np.random.default_rng(11)
    shape = (23, 41)
    pv = 0.02 + 0.96 * rng.uniform(size=shape)
    pv[rng.uniform(size=shape) < 0.2] = 0.98
    pv[rng.uniform(size=shape) < 0.2] = 0.02
    pv[2:9, 4:17] = 0.98
    pv[12:23, 25:41] = 0.02
    nudged = rng.uniform(size=shape) < 0.15
    pv[nudged] = 0.98 - rng.choice([1e-5, 3e-5, 5e-4, 2e-3, 0.03, 0.07], size=nudged.sum())
    yv = rng.uniform(size=shape) < 0.1
    yv[[0, -1], :] |= rng.uniform(size=(2, shape[1])) < 0.5
    yv[:, [0, -1]] |= rng.uniform(size=(shape[0], 2)) < 0.5
    yv[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    return pv, yv.astype(float), rng.uniform(size=shape) < 0.9


@pytest.mark.parametrize("r", NBHD_HALF_WIDTHS)
def test_tie_heavy_field_matches_the_loops(r):
    pv, yv, scored = train_like_case()
    for w in (np.ones(pv.shape, dtype=bool), scored):
        assert (window_max_grad(pv, yv, w, r).tobytes()
                == window_max_grad_loop(pv, yv, w, r).tobytes())
        for margin in (0.0, 2e-5, 1e-3, 0.05):
            assert (excluded(pv, yv, w, r, margin / 2.0).tobytes()
                    == excluded_loop(pv, yv, w, r, margin).tobytes())


# ---------------------------------------------------------------------------
# Working set.

def test_window_gather_memory_is_bounded():
    # 36,000 events at r = 12: gathering every window at once would take
    # 36,000 x 625 float64, about 180 MB.
    rng = np.random.default_rng(5)
    pv = rng.uniform(size=(600, 600))
    yv = (rng.uniform(size=pv.shape) < 0.1).astype(float)
    w = np.ones(pv.shape, dtype=bool)
    for run in (lambda: window_max_grad(pv, yv, w, 12),
                lambda: excluded(pv, yv, w, 12)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak
