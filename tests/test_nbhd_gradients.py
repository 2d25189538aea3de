"""Neighbourhood gradients read the pair record that scores the pair.

``NbhdPair.gradient`` takes its csi branch from the fallbacks that
``NbhdPair.score("csi")`` returns, and chains the fss sums' gradient
through the prediction's window mean.  The code it replaced tested the
csi fallbacks a second time and applied the fss chain in the loss module;
that code is kept here as the reference, and ``loss_gradient`` must equal
it byte for byte on fields built to reach each csi branch, with and
without eval masks.  The one branch of the old code that the new one
drops, "CSI == POD" (``nbhd_csi_sr_undefined`` alone), is shown to be
unreachable: a scored observed event is one of its own near pixels, so
the SR denominator is positive whenever the POD denominator is.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from selfscore.grid import GridField
from selfscore.losses import NBHD_HALF_WIDTHS, LossSpec, loss_detail, loss_gradient, prepare_target
from selfscore.neighbourhood import max_filter_array, mean_filter_array
from selfscore.scores import (NBHD_SCORE_KINDS, ORIENTATION, NbhdObs, NbhdPair, PairSums,
                              _obs_window_max_grad, scored_weights)

SPACING = 0.05


# ---------------------------------------------------------------------------
# Reference: the neighbourhood gradients as the loss module computed them.

def grad_nbhd_csi_reference(pair):
    """d(CSI)/dp for the two-sided neighbourhood contingency CSI."""
    a_obs, a_pred, b, c = pair.contingency()
    pv, obs, w = pair.pv, pair.obs, pair.w
    zeros = np.zeros_like(pv)
    pod_den, sr_den = a_obs + c, a_pred + b

    e = (w & obs.event_near).astype(np.float64)
    not_e = (w & ~obs.event_near).astype(np.float64)

    if pod_den == 0.0 and sr_den == 0.0:
        return zeros  # CSI == 1, constant
    if pod_den == 0.0:  # CSI == SR = a_pred / sr_den;  d a_pred = e,  d sr_den = not_e
        return zeros if a_pred == 0.0 else (e * sr_den - a_pred * not_e) / sr_den ** 2
    if a_obs == 0.0:
        return zeros  # CSI == 0, constant branch
    if sr_den == 0.0:
        return _obs_window_max_grad(pair) / pod_den  # CSI == POD
    if a_pred == 0.0:
        return zeros
    da_obs = _obs_window_max_grad(pair)
    inv = pod_den / a_obs + sr_den / a_pred - 1.0
    csi = 1.0 / inv
    dinv = (-pod_den / a_obs ** 2 * da_obs
            + (not_e * a_pred - sr_den * e) / a_pred ** 2)
    return -(csi ** 2) * dinv


def loss_gradient_reference(kind, pv, yv, w, r):
    """The oriented loss gradient: csi as above, fss through the window
    mean (its own adjoint), the rest from the sums against the dilation."""
    if kind == "csi":
        d_score = grad_nbhd_csi_reference(NbhdPair(pv, NbhdObs(yv, r), w))
    elif kind == "fss":
        sums = PairSums(mean_filter_array(pv, r), mean_filter_array(yv, r), w)
        d_score = mean_filter_array(sums.gradient("fss"), r)
    else:
        d_score = PairSums(pv, max_filter_array(yv, r), w).gradient(kind)
    return d_score if ORIENTATION[kind] < 0 else -d_score


# ---------------------------------------------------------------------------
# Fields that reach each csi branch.

#: Each reachable branch by its fallbacks, and whether reaching it needs an
#: eval mask (an observed event, or a forecast one, that is not scored).
BRANCHES = {
    (): False,
    ("nbhd_csi_pod_undefined",): True,
    ("nbhd_csi_pod_undefined", "nbhd_csi_sr_undefined"): False,
    ("nbhd_csi_pod_undefined", "nbhd_csi_sr_zero"): False,
    ("nbhd_csi_pod_zero",): False,
    ("nbhd_csi_sr_zero",): True,
}


@st.composite
def branch_cases(draw):
    """(fallbacks, pv, yv, w, r): a field pair built so that neighbourhood
    csi at half-width r takes the branch named by ``fallbacks``."""
    fallbacks = draw(st.sampled_from(sorted(BRANCHES)))
    needs_mask = BRANCHES[fallbacks]
    masked = needs_mask or draw(st.booleans())
    # The masked branches route through a neighbour of the corner event.
    r = draw(st.sampled_from(NBHD_HALF_WIDTHS[1:] if needs_mask else NBHD_HALF_WIDTHS))
    shape = (draw(st.integers(3, 14)), draw(st.integers(3, 14)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pv = rng.uniform(0.05, 1.0, size=shape)
    else:  # quantised, as a calibrated forecast often is
        pv = np.ceil(rng.uniform(size=shape) * 4) / 4
    yv = (rng.uniform(size=shape) < draw(st.sampled_from((0.05, 0.3, 0.7)))).astype(float)
    yv[0, 0] = 1.0
    w = rng.uniform(size=shape) < 0.6 if masked else np.ones(shape, dtype=bool)
    w[0, 0] = True

    if fallbacks == ("nbhd_csi_pod_undefined",):
        yv[0, 1] = 0.0  # every event unscored; (0, 1) scored, forecast and near one
        w &= yv == 0.0
        w[0, 1] = True
    elif fallbacks[:1] == ("nbhd_csi_pod_undefined",):
        yv[:] = 0.0
        if fallbacks[1] == "nbhd_csi_sr_undefined":
            pv[:] = 0.0
    elif fallbacks == ("nbhd_csi_pod_zero",):
        pv[max_filter_array(yv, r) == 1.0] = 0.0  # nothing forecast near any event
    elif fallbacks == ("nbhd_csi_sr_zero",):
        # One scored event at (0, 0) whose window max is an unscored (0, 1).
        yv[:] = 0.0
        yv[0, 0] = 1.0
        near = max_filter_array(yv, r) == 1.0
        pv[near] = 0.0
        pv[0, 1] = 0.5
        w[0, 1] = False
    return fallbacks, pv, yv, w, r


def fields(pv, yv, w):
    return (GridField(pv, SPACING, "prob", None if w.all() else w),
            GridField(yv, SPACING, "mask"))


@settings(max_examples=300, deadline=None)
@given(branch_cases())
def test_neighbourhood_gradients_match_the_loss_module_reference(case):
    fallbacks, pv, yv, w, r = case
    p, y = fields(pv, yv, w)
    for kind in NBHD_SCORE_KINDS:
        spec = LossSpec(kind, "nbhd", half_width=r)
        target = prepare_target(spec, y)
        if kind == "csi":
            assert loss_detail(spec, p, target).fallbacks == fallbacks
        want = loss_gradient_reference(kind, pv, yv, scored_weights(p, y), r)
        assert loss_gradient(spec, p, target).tobytes() == want.tobytes(), (kind, fallbacks)


@st.composite
def small_pairs(draw):
    """Random small (pv, yv, w, r): sparse or dense events, forecasts that
    are often exactly 0, and eval masks that often exclude events."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    yv = (rng.uniform(size=shape) < draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))).astype(float)
    pv = np.round(rng.uniform(size=shape) * 4) / 4
    pv *= rng.uniform(size=shape) < draw(st.sampled_from((0.0, 0.2, 1.0)))
    w = rng.uniform(size=shape) < draw(st.sampled_from((0.3, 0.7, 1.0)))
    w.flat[rng.integers(w.size)] = True
    return pv, yv, w, draw(st.sampled_from(NBHD_HALF_WIDTHS))


@settings(max_examples=2000, deadline=None)
@given(small_pairs())
def test_sr_undefined_never_fires_alone(case):
    pv, yv, w, r = case
    fallbacks = NbhdPair(pv, NbhdObs(yv, r), w).score("csi").fallbacks
    assert fallbacks != ("nbhd_csi_sr_undefined",)
