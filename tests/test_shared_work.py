"""Tests for the work that scores share within a pair and an observation.

``PairSums`` reduces each sum of a filtered (prediction, target) pair once
for all nine scores; ``NbhdObs`` filters an observation once per
half-width for every prediction, score and prepared target.  These tests
pin that the shared records give the values of the per-score code they
replaced bit for bit (that code is kept here as the reference, heidke in
the cancellation-free form the records now use), and that the filters
really run once.  The gradients read the same records; they
are pinned against the per-score gradient code they replaced, which
reduced its own weighted sums over the whole grid and so may differ from
them in rounding only.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfscore import losses, scores
from selfscore.grid import GridField
from selfscore.losses import (CENSUS_BANDS, NBHD_HALF_WIDTHS, LossSpec, PreparedTarget,
                              enumerate_configs, loss_detail, loss_gradient, loss_value,
                              metric_tables, prepare_target)
from selfscore.neighbourhood import max_filter_array, mean_filter_array
from selfscore.scores import (NBHD_SCORE_KINDS, ORIENTATION, SCORE_KINDS, XENT_EPS,
                              NbhdObs, NbhdPair, PairSums, scored_weights)
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob

SPACING = 0.05


# ---------------------------------------------------------------------------
# References: the per-score reductions that the records replaced.

def contingency_sums_reference(pv, yv):
    a = float(np.sum(pv * yv))
    b = float(np.sum(pv * (1.0 - yv)))
    c = float(np.sum((1.0 - pv) * yv))
    d = float(np.sum((1.0 - pv) * (1.0 - yv)))
    return a, b, c, d


def pixelwise_reference(kind, pv, yv, w):
    g = float(w.sum())
    pv, yv = pv[w], yv[w]
    fallbacks = []
    if kind == "brier":
        return float(np.sum((pv - yv) ** 2)) / g, fallbacks
    if kind == "fss":
        sse = float(np.sum((pv - yv) ** 2))
        ref = float(np.sum(pv ** 2 + yv ** 2))
        if ref == 0.0:
            fallbacks.append("fss_zero_reference")
            return 1.0, fallbacks
        return 1.0 - sse / ref, fallbacks
    if kind == "iou":
        inter = float(np.sum(pv * yv))
        union = float(np.sum(np.maximum(pv, yv)))
        if union == 0.0:
            fallbacks.append("iou_zero_union")
            return 1.0, fallbacks
        return inter / union, fallbacks
    if kind == "dice":
        agree = float(np.sum(pv * yv) + np.sum((1.0 - pv) * (1.0 - yv)))
        return agree / g, fallbacks
    if kind == "xent":
        ph = np.clip(pv, XENT_EPS, 1.0 - XENT_EPS)
        total = float(np.sum(yv * np.log2(ph) + (1.0 - yv) * np.log2(1.0 - ph)))
        return -total / g, fallbacks
    a, b, c, d = contingency_sums_reference(pv, yv)
    n = g
    if kind == "csi":
        denom = a + b + c
        if denom == 0.0:
            fallbacks.append("csi_zero_denominator")
            return 1.0, fallbacks
        return a / denom, fallbacks
    if kind == "heidke":
        den = ((a + b) * (b + d) + (a + c) * (c + d)) / n  # n - n_rand, free of cancellation
        if den == 0.0:
            fallbacks.append("heidke_zero_denominator")
            return 0.0, fallbacks
        return (den - b - c) / den, fallbacks
    if kind == "peirce":
        if a + c == 0.0 or b + d == 0.0:
            fallbacks.append("peirce_empty_class")
            return 0.0, fallbacks
        return a / (a + c) - b / (b + d), fallbacks
    if kind == "gerrity":
        if b + d == 0.0:
            fallbacks.append("gerrity_zero_denominator")
            return 0.0, fallbacks
        r = (a + c) / (b + d)
        if r == 0.0:
            fallbacks.append("gerrity_zero_event_ratio")
            return (d * r - b - c) / n, fallbacks
        return (a / r + d * r - b - c) / n, fallbacks
    raise ValueError(kind)


def nbhd_reference(kind, pv, yv, w, r):
    if kind == "csi":
        pmax = max_filter_array(pv, r)
        event_near = max_filter_array(yv, r) == 1.0
        obs = w & (yv == 1.0)
        a_obs = float(np.sum(pmax[obs]))
        c = float(np.sum(1.0 - pmax[obs]))
        near, far = w & event_near, w & ~event_near
        a_pred = float(np.sum(pv[near]))
        b = float(np.sum(1.0 - pv[near]) + np.sum(pv[far]))
        value, fallbacks = scores._nbhd_csi_from_counts(a_obs, a_pred, b, c)
        return value, fallbacks
    if kind == "fss":
        pbar, ybar = mean_filter_array(pv, r), mean_filter_array(yv, r)
        sse = float(np.sum((pbar[w] - ybar[w]) ** 2))
        ref = float(np.sum(pbar[w] ** 2 + ybar[w] ** 2))
        if ref == 0.0:
            return 1.0, ["fss_zero_reference"]
        return 1.0 - sse / ref, []
    return pixelwise_reference(kind, pv, max_filter_array(yv, r), w)


@st.composite
def pairs(draw):
    """A prediction, a binary target and scored pixels: random, all-zero or
    all-one fields, sometimes under an eval mask."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    make = {"random": lambda: rng.uniform(size=shape),
            "quantised": lambda: np.round(rng.uniform(size=shape) * 2) / 2,
            "zero": lambda: np.zeros(shape), "one": lambda: np.ones(shape)}
    pv = make[draw(st.sampled_from(sorted(make)))]()
    yv = (rng.uniform(size=shape) < draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)))).astype(float)
    w = np.ones(shape, dtype=bool)
    if draw(st.booleans()):
        w = rng.uniform(size=shape) < 0.7
        w.flat[rng.integers(w.size)] = True
    return pv, yv, w


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_one_sums_record_scores_every_kind_as_the_per_score_code(case):
    pv, yv, w = case
    sums = PairSums(pv, yv, w)
    for kind in SCORE_KINDS:
        value, fallbacks = pixelwise_reference(kind, pv, yv, w)
        got = sums.score(kind)
        assert (got.value, got.fallbacks) == (value, tuple(fallbacks)), kind
        # A fresh record that reads one kind alone gives the same bits.
        assert PairSums(pv, yv, w).score(kind) == got, kind


@settings(max_examples=100, deadline=None)
@given(pairs(), st.sampled_from(NBHD_HALF_WIDTHS))
def test_one_observation_record_scores_every_kind_as_the_per_score_code(case, r):
    pv, yv, w = case
    pair = NbhdPair(pv, NbhdObs(yv, r), w)
    for kind in NBHD_SCORE_KINDS:
        value, fallbacks = nbhd_reference(kind, pv, yv, w, r)
        got = pair.score(kind)
        assert (got.value, got.fallbacks) == (value, tuple(fallbacks)), kind


# ---------------------------------------------------------------------------
# Gradients: the records against the per-score gradient code they replaced.

def grad_pixelwise_reference(kind, p, y, w):
    """d(score)/dp from weighted sums over the whole grid."""
    wf = w.astype(np.float64)
    g = float(wf.sum())
    zeros = np.zeros_like(p)
    if kind == "brier":
        return (2.0 / g) * wf * (p - y)
    if kind == "xent":
        ph = np.clip(p, XENT_EPS, 1.0 - XENT_EPS)
        interior = (p > XENT_EPS) & (p < 1.0 - XENT_EPS)
        return -(wf * interior / (g * math.log(2.0))) * (y / ph - (1.0 - y) / (1.0 - ph))
    if kind == "fss":
        sse = float(np.sum(wf * (p - y) ** 2))
        ref = float(np.sum(wf * (p * p + y * y)))
        if ref == 0.0:
            return zeros
        return -wf * (2.0 * (p - y) * ref - sse * 2.0 * p) / ref ** 2
    if kind == "iou":
        inter = float(np.sum(wf * p * y))
        union = float(np.sum(wf * np.maximum(p, y)))
        if union == 0.0:
            return zeros
        sigma = np.where(p > y, 1.0, np.where(p == y, 0.5, 0.0))
        return wf * (y * union - inter * sigma) / union ** 2
    if kind == "dice":
        return wf * (2.0 * y - 1.0) / g
    n1 = float(np.sum(wf * y))
    n0 = float(np.sum(wf * (1.0 - y)))
    n = g
    if kind == "csi":
        a = float(np.sum(wf * p * y))
        denom = float(np.sum(wf * (p + y - p * y)))
        if denom == 0.0:
            return zeros
        return wf * (y * denom - a * (1.0 - y)) / denom ** 2
    if kind == "peirce":
        if n1 == 0.0 or n0 == 0.0:
            return zeros
        return wf * (y / n1 - (1.0 - y) / n0)
    if kind == "heidke":
        t = float(np.sum(wf * (p * y + (1.0 - p) * (1.0 - y))))
        sum_p = float(np.sum(wf * p))
        n_rand = (sum_p * n1 + n0 * (n - sum_p)) / n
        denom = n - n_rand
        if denom == 0.0:
            return zeros
        kappa = (n1 - n0) / n
        dt = 2.0 * y - 1.0
        return wf * ((dt - kappa) * denom + (t - n_rand) * kappa) / denom ** 2
    if kind == "gerrity":
        if n0 == 0.0:
            return zeros
        r = n1 / n0
        if r == 0.0:
            return wf * (2.0 * y - 1.0) / n
        return wf * (y * (1.0 + 1.0 / r) - (1.0 - y) * (1.0 + r)) / n
    raise ValueError(kind)


def grad_nbhd_fss_reference(pv, yv, w, r):
    """d(FSS)/dp, each weighted sum's gradient filtered on its own."""
    wf = w.astype(np.float64)
    pbar, ybar = mean_filter_array(pv, r), mean_filter_array(yv, r)
    sse = float(np.sum(wf * (pbar - ybar) ** 2))
    ref = float(np.sum(wf * (pbar ** 2 + ybar ** 2)))
    if ref == 0.0:
        return np.zeros_like(pv)
    d_sse = 2.0 * mean_filter_array(wf * (pbar - ybar), r)
    d_ref = 2.0 * mean_filter_array(wf * pbar, r)
    return -(d_sse * ref - sse * d_ref) / ref ** 2


#: Fallbacks whose score is a constant, so whose gradient is exactly 0.
CONSTANT_FALLBACKS = {"fss_zero_reference", "iou_zero_union", "csi_zero_denominator",
                      "heidke_zero_denominator", "peirce_empty_class",
                      "gerrity_zero_denominator", "nbhd_csi_pod_zero", "nbhd_csi_sr_zero"}


def check_gradient(spec, p, target, d_score):
    """``loss_gradient`` is the reference ``d_score`` (oriented) within 1e-12
    of its largest pixel, and exactly 0 on a constant fallback.  The scale
    is floored at 1/(scored pixels), a pixel's share of a mean: where the
    true gradient is 0 (heidke against an all-zero target) both codes
    return rounding noise."""
    got = loss_gradient(spec, p, target)
    fallbacks = set(loss_detail(spec, p, target).fallbacks)
    if (fallbacks & CONSTANT_FALLBACKS
            or {"nbhd_csi_pod_undefined", "nbhd_csi_sr_undefined"} <= fallbacks):
        assert not got.any(), (spec.spec_id, fallbacks)
    if d_score is not None:
        want = d_score if ORIENTATION[spec.score] < 0 else -d_score
        scale = max(float(np.abs(want).max()), 1.0 / scored_weights(p, target.observed).sum())
        assert np.abs(got - want).max() <= 1e-12 * scale, spec.spec_id


@st.composite
def targets(draw):
    """A ``pairs()`` case whose target may be fractional, as a spectral
    target is after clamping."""
    pv, yv, w = draw(pairs())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tv = {"binary": lambda: yv, "fraction": lambda: rng.uniform(size=yv.shape),
          "quantised": lambda: np.round(rng.uniform(size=yv.shape) * 4) / 4,
          }[draw(st.sampled_from(("binary", "fraction", "quantised")))]()
    return pv, yv, tv, w


def fields(pv, yv, w):
    return (GridField(pv, SPACING, "prob", None if w.all() else w),
            GridField(yv, SPACING, "mask"))


@settings(max_examples=200, deadline=None)
@given(targets())
def test_pixelwise_gradients_read_the_sums_record(case):
    pv, yv, tv, w = case
    p, y = fields(pv, yv, w)
    for kind in SCORE_KINDS:
        spec = LossSpec(kind, "F", band=CENSUS_BANDS[0])
        target = PreparedTarget(spec, y, GridField(tv, SPACING, "prob"))
        check_gradient(spec, p, target, grad_pixelwise_reference(kind, pv, tv, w))


@settings(max_examples=100, deadline=None)
@given(pairs(), st.sampled_from(NBHD_HALF_WIDTHS))
def test_neighbourhood_gradients_read_the_pair_record(case, r):
    pv, yv, w = case
    p, y = fields(pv, yv, w)
    for kind in NBHD_SCORE_KINDS:
        spec = LossSpec(kind, "nbhd", half_width=r)
        if kind == "fss":
            d_score = grad_nbhd_fss_reference(pv, yv, w, r)
        elif kind == "csi":
            d_score = None  # its window-argmax code is unchanged
        else:
            d_score = grad_pixelwise_reference(kind, pv, max_filter_array(yv, r), w)
        check_gradient(spec, p, prepare_target(spec, y), d_score)


# ---------------------------------------------------------------------------
# Each filter runs once.

class FilterLog:
    """Counting wrappers for the neighbourhood filters, rebound on each
    module that binds them."""

    def __init__(self, monkeypatch, *modules):
        self.calls = []
        for module in modules:
            for name in ("max_filter_array", "mean_filter_array"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, self._wrap(name, getattr(module, name)))

    def _wrap(self, name, fn):
        def wrapper(values, r):
            self.calls.append((name, values, r))
            return fn(values, r)
        return wrapper

    def on(self, array):
        """(filter, r) of every call whose input was ``array``."""
        return [(name, r) for name, values, r in self.calls if values is array]


def scene(n_preds=3, shape=(40, 44), seed=11):
    y = synth_mask(SynthSpec(shape[0], shape[1], SPACING, n_cells=4, seed=seed))
    preds = [synth_prob(y, blur_r=1 + i % 2, offset_px=(i, -i), noise_sd=0.05,
                        seed=seed + 1 + i) for i in range(n_preds)]
    return y, preds


def test_metric_tables_filters_each_field_once_per_half_width(monkeypatch):
    y, preds = scene()
    nbhd = [s for s in enumerate_configs() if s.filter_kind == "nbhd"]
    assert len(nbhd) == 48
    log = FilterLog(monkeypatch, scores)
    metric_tables(nbhd, preds, y)
    obs_calls = log.on(y.values)
    assert len(obs_calls) == len(set(obs_calls)) <= 2 * len(NBHD_HALF_WIDTHS)
    assert {r for _, r in obs_calls} == set(NBHD_HALF_WIDTHS)
    for p in preds:
        calls = log.on(p.values)
        assert len(calls) == len(set(calls)) == 2 * len(NBHD_HALF_WIDTHS)
    assert len(log.calls) == len(obs_calls) + 2 * len(NBHD_HALF_WIDTHS) * len(preds)


def test_prepared_target_is_filtered_on_first_use_only(monkeypatch):
    y, (p, q) = scene(n_preds=2)
    log = FilterLog(monkeypatch, scores, losses)
    for r in (0, 2, 6):
        specs = [LossSpec(kind, "nbhd", half_width=r) for kind in NBHD_SCORE_KINDS]
        target = prepare_target(specs[0], y)
        assert log.on(y.values) == []
        for spec in specs:
            loss_value(spec, p, target)
            loss_gradient(spec, p, target)
        first = log.on(y.values)
        assert sorted(first) == [("max_filter_array", r), ("mean_filter_array", r)]
        for field in (p, q, p):
            for spec in specs:
                loss_value(spec, field, target)
                loss_gradient(spec, field, target)
        assert log.on(y.values) == first
        log.calls.clear()


def test_a_prediction_is_filtered_once_for_its_scores_and_gradients(monkeypatch):
    y, (p, q) = scene(n_preds=2)
    log = FilterLog(monkeypatch, scores, losses)
    for r in (0, 2, 6):
        specs = [LossSpec(kind, "nbhd", half_width=r) for kind in NBHD_SCORE_KINDS]
        target = prepare_target(specs[0], y)
        for field in (p, q):
            for spec in specs:
                loss_value(spec, field, target)
                loss_gradient(spec, field, target)
            assert sorted(log.on(field.values)) == [("max_filter_array", r),
                                                    ("mean_filter_array", r)]
        log.calls.clear()


@pytest.mark.parametrize("spec_id", ["brier_nbhd_r3", "fss_W0.1-0.4"])
def test_spec_ids_are_formatted_once(spec_id, monkeypatch):
    spec = losses.parse_spec_id(spec_id)
    monkeypatch.setattr(losses, "_band_id", None)  # any further formatting would fail
    assert (spec.spec_id, spec.filter_id) == (spec_id, spec_id.partition("_")[2])


def test_a_target_built_directly_scores_its_neighbourhood():
    """A target built directly, as a caller without ``prepare_targets``
    would, scores as ``prepare_targets``' target does, bit for bit: from the
    observation for a neighbourhood spec, and for every score of a Fourier
    and a Haar filter from the observation's band-pass clamped to [0, 1]."""
    y, (p,) = scene(n_preds=1)
    for kind in NBHD_SCORE_KINDS:
        spec = LossSpec(kind, "nbhd", half_width=2)
        direct = losses.PreparedTarget(spec, y, y)
        assert direct.nbhd.r == 2 and direct.nbhd.yv is y.values
        assert loss_value(spec, p, direct) == loss_value(spec, p, prepare_target(spec, y))
        assert np.array_equal(loss_gradient(spec, p, direct),
                              loss_gradient(spec, p, prepare_target(spec, y)))
    assert prepare_target(losses.parse_spec_id("brier_F0.1-inf"), y).nbhd is None
    for filter_id in ("F0.1-inf", "W0-0.2"):
        specs = [s for s in enumerate_configs() if s.filter_id == filter_id]
        assert len(specs) == len(SCORE_KINDS)
        prepared = losses.prepare_targets(specs, y)[filter_id]
        out = losses.apply_filter(y, losses.parse_filter_id(filter_id)).values
        filtered = GridField(np.clip(out, 0.0, 1.0), y.spacing_deg, "prob", y.eval_mask)
        direct = PreparedTarget(specs[0], y, filtered, float(np.max(np.abs(out - filtered.values))))
        assert direct.nbhd is None and direct.clamp_max_abs == prepared.clamp_max_abs
        assert direct.filtered.values.tobytes() == prepared.filtered.values.tobytes()
        for spec in specs:
            assert loss_value(spec, p, direct) == loss_value(spec, p, prepared)
            assert np.array_equal(loss_gradient(spec, p, direct),
                                  loss_gradient(spec, p, prepared))
