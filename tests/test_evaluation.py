"""Tests for the evaluation diagnostics and report serialisation.

Reliability binning, REL/BSS identities, consistency bars, the performance
diagram with its area (AUPD), bootstrap intervals, the paired comparison
test, and the JSON/CSV report round trip.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfscore.evaluation import (
    N_PROB_BINS,
    SUMMARY_KEYS,
    _stack_scored,
    attributes_diagram,
    aupd_from_curve,
    bootstrap_ci,
    consistency_bars,
    emit_report,
    paired_bootstrap_test,
    performance_diagram,
    report_dict,
    write_csv,
)
from selfscore.grid import GridField

SPACING = 0.1


def prob(values, eval_mask=None):
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v.reshape(1, -1)
    return GridField(v, SPACING, "prob", eval_mask)


def mask(values, eval_mask=None):
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v.reshape(1, -1)
    return GridField(v, SPACING, "mask", eval_mask)


# ---------------------------------------------------------------------------
# Attributes diagram.

def test_bin_edges_left_closed_last_closed_both_sides():
    # Every multiple of 0.05 starts its own bin; 1.0 folds into the last bin.
    pv = np.arange(21) / 20.0
    attr = attributes_diagram(prob(pv), mask(np.zeros(21)))
    expected = np.ones(N_PROB_BINS, dtype=np.int64)
    expected[-1] = 2  # 0.95 and 1.0
    np.testing.assert_array_equal(attr.bin_counts, expected)
    assert attr.bin_edges[0] == 0.0 and attr.bin_edges[-1] == 1.0
    assert len(attr.bin_edges) == N_PROB_BINS + 1


def test_rel_hand_case():
    # Bin 4 holds three pixels at p=0.2 with one event; bin 18 one pixel at
    # p=0.9 with an event.  REL is the count-weighted squared gap over n=4.
    p = prob([0.2, 0.2, 0.2, 0.9])
    y = mask([1.0, 0.0, 0.0, 1.0])
    attr = attributes_diagram(p, y)
    want = (3 * (0.2 - 1.0 / 3.0) ** 2 + 1 * (0.9 - 1.0) ** 2) / 4.0
    assert attr.rel == pytest.approx(want, abs=1e-15)
    assert attr.bin_counts[4] == 3 and attr.bin_counts[18] == 1
    assert attr.bin_event_freq[4] == pytest.approx(1.0 / 3.0)
    assert math.isnan(attr.bin_mean_forecast[0])
    assert attr.n_scored == 4


def test_bss_zero_for_climatology_forecast():
    yv = np.array([1.0, 0.0, 0.0, 0.0])
    attr = attributes_diagram(prob(np.full(4, 0.25)), mask(yv))
    assert attr.bss == 0.0
    assert attr.base_rate == 0.25
    assert attr.bs == attr.bs_clim
    assert attr.fallbacks == ()


def test_bss_formula_and_perfect_forecast():
    yv = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    attr = attributes_diagram(prob(yv), mask(yv))
    assert attr.bs == 0.0 and attr.bss == 1.0
    p = np.array([0.8, 0.1, 0.7, 0.2, 0.1])
    attr = attributes_diagram(prob(p), mask(yv))
    bs = float(np.mean((p - yv) ** 2))
    base = 0.4
    bs_clim = float(np.mean((base - yv) ** 2))
    assert attr.bss == pytest.approx(1.0 - bs / bs_clim, abs=1e-15)


def test_bss_fallback_without_climatology_variance():
    attr = attributes_diagram(prob(np.zeros(4)), mask(np.zeros(4)))
    assert attr.bss == 0.0
    assert attr.fallbacks == ("bss_zero_climatology",)


def test_attributes_accepts_multiple_steps_and_eval_mask():
    em = np.array([[True, False]])
    p1, y1 = prob([0.9, 0.1], em), mask([1.0, 1.0], em)
    p2, y2 = prob([0.3, 0.4]), mask([0.0, 1.0])
    attr = attributes_diagram([p1, p2], [y1, y2])
    assert attr.n_scored == 3  # one pixel excluded by the eval mask
    with pytest.raises(ValueError, match="prediction fields vs"):
        attributes_diagram([p1, p2], [y1])
    with pytest.raises(ValueError, match="binary masks"):
        attributes_diagram(p1, prob([0.5, 0.5]))


def test_consistency_bars_deterministic_and_stored():
    rng = np.random.default_rng(21)
    pv = rng.random(2000)
    yv = (rng.random(2000) < pv).astype(float)
    attr = attributes_diagram(prob(pv), mask(yv))
    lo1, hi1 = consistency_bars(attr, seed=5)
    lo2, hi2 = consistency_bars(attr, seed=5)
    np.testing.assert_array_equal(lo1, lo2)
    np.testing.assert_array_equal(hi1, hi2)
    assert attr.consistency_lo is lo2 and attr.consistency_hi is hi2
    nonempty = attr.bin_counts > 0
    assert np.all(np.isfinite(lo1[nonempty])) and np.all(np.isfinite(hi1[nonempty]))
    assert np.all(lo1[nonempty] <= hi1[nonempty])
    assert lo1[nonempty].min() >= 0.0 and hi1[nonempty].max() <= 1.0
    # A reliable forecast should sit inside its own consistency band in
    # most bins.
    inside = ((attr.bin_event_freq[nonempty] >= lo1[nonempty])
              & (attr.bin_event_freq[nonempty] <= hi1[nonempty]))
    assert inside.mean() > 0.5


def test_consistency_bars_narrow_with_bin_size():
    def width_at(n):
        pv = np.full(n, 0.3)
        yv = np.zeros(n)
        yv[: int(0.3 * n)] = 1.0
        attr = attributes_diagram(prob(pv), mask(yv))
        lo, hi = consistency_bars(attr, seed=2)
        k = 6  # the bin holding p = 0.3
        assert attr.bin_counts[k] == n
        return hi[k] - lo[k]

    assert width_at(10000) < width_at(100)


# ---------------------------------------------------------------------------
# Performance diagram.

def test_performance_hand_case():
    p = prob([1.0, 0.8, 0.4, 0.1])
    y = mask([1.0, 0.0, 1.0, 0.0])
    perf = performance_diagram(p, y, thresholds=[0.0, 0.5, 0.9])
    np.testing.assert_allclose(perf.pod, [1.0, 0.5, 0.5])
    np.testing.assert_allclose(perf.sr, [0.5, 0.5, 1.0])
    np.testing.assert_allclose(perf.csi, [0.5, 1.0 / 3.0, 0.5])
    np.testing.assert_allclose(perf.bias, [2.0, 1.0, 0.5])
    assert perf.n_events == 2
    assert perf.fallbacks == ()


def test_performance_csi_identity():
    rng = np.random.default_rng(22)
    pv = rng.random(500)
    yv = (rng.random(500) < 0.3).astype(float)
    perf = performance_diagram(prob(pv), mask(yv))
    ok = np.isfinite(perf.sr) & (perf.pod > 0) & (perf.sr > 0)
    inv = 1.0 / perf.pod[ok] + 1.0 / perf.sr[ok] - 1.0
    np.testing.assert_allclose(perf.csi[ok], 1.0 / inv, atol=1e-12)


def test_performance_no_events_fallback():
    perf = performance_diagram(prob([0.2, 0.7]), mask([0.0, 0.0]))
    assert perf.fallbacks == ("no_events",)
    assert perf.aupd == 0.0 and perf.n_events == 0
    assert np.all(np.isnan(perf.pod))


def performance_by_loop(pred_fields, obs_fields, thresholds):
    """The reference: POD, SR, CSI and bias from two passes over the scored
    pixels per threshold."""
    pv, yv = _stack_scored(pred_fields, obs_fields)
    events = yv == 1.0
    n1 = int(events.sum())
    pod, sr, csi, bias = (np.full(len(thresholds), np.nan) for _ in range(4))
    for i, tau in enumerate(thresholds):
        hot = pv >= tau
        a = float(np.sum(hot & events))
        b = float(np.sum(hot & ~events))
        c = float(n1) - a
        if n1 == 0:
            continue
        pod[i] = a / (a + c)
        if a + b > 0:
            sr[i] = a / (a + b)
            if sr[i] > 0:
                bias[i] = pod[i] / sr[i]
        if a + b + c > 0:
            csi[i] = a / (a + b + c)
    return pod, sr, csi, bias


LEVELS = [k / 8 for k in range(9)]


@st.composite
def scenes(draw):
    """1-3 steps of (prediction, observation) fields; predictions on a 1/8
    lattice, some steps with an eval mask."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    n = shape[0] * shape[1]
    preds, obs = [], []
    for _ in range(draw(st.integers(1, 3))):
        em = None
        if draw(st.booleans()):
            em = np.reshape(draw(st.lists(st.booleans(), min_size=n, max_size=n)), shape)
            em.flat[0] = True
        pv = draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n))
        yv = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
        preds.append(prob(np.reshape(pv, shape), em))
        obs.append(mask(np.reshape(yv, shape), em))
    return preds, obs


@settings(max_examples=150, deadline=None)
@given(scene=scenes(),
       thresholds=st.lists(st.one_of(st.sampled_from(LEVELS), st.floats(-0.5, 1.5)),
                           min_size=1, max_size=12))
@example(scene=([prob([0.5, 0.0, 1.0, 0.25])], [mask([1.0, 0.0, 1.0, 0.0])]),
         thresholds=[1.5, 0.5, -0.5, 0.0, 1.0, 0.25])
@example(scene=([prob([0.5, 0.75])], [mask([0.0, 0.0])]), thresholds=[0.5, 0.0])
def test_performance_matches_a_threshold_loop(scene, thresholds):
    # Pixels sit exactly at some thresholds, thresholds come unsorted and
    # reach outside [0, 1], and a scene may have no events.
    perf = performance_diagram(*scene, thresholds)
    want = performance_by_loop(*scene, thresholds)
    for got, ref in zip((perf.pod, perf.sr, perf.csi, perf.bias), want):
        assert got.tobytes() == ref.tobytes()


def test_aupd_perfect_forecast_is_one():
    yv = np.zeros(50)
    yv[:9] = 1.0
    perf = performance_diagram(prob(yv), mask(yv))
    assert perf.aupd == 1.0


def test_aupd_from_curve_hand_values():
    # One point at (SR, POD) = (0.5, 0.6): flat to the left, anchored at
    # (1, 0) on the right -> 0.5*0.6 + 0.5*(0.6+0)/2.
    assert aupd_from_curve([0.5], [0.6]) == pytest.approx(0.45)
    assert aupd_from_curve([np.nan], [np.nan]) == 0.0
    assert aupd_from_curve([1.0], [1.0]) == pytest.approx(1.0)
    # NaN points are dropped, not propagated.
    assert aupd_from_curve([0.5, np.nan], [0.6, 0.9]) == pytest.approx(0.45)


def test_aupd_monotone_in_skill():
    # Mix the truth with uniform noise; less noise must mean more area.
    # (Class distributions overlap in both cases, so neither curve is
    # separable and neither area saturates at 1.)
    rng = np.random.default_rng(23)
    yv = (rng.random(4000) < 0.2).astype(float)
    u = rng.random(4000)
    sharp = 0.45 * yv + 0.55 * u
    blurry = 0.15 * yv + 0.85 * u
    a_sharp = performance_diagram(prob(sharp), mask(yv)).aupd
    a_blurry = performance_diagram(prob(blurry), mask(yv)).aupd
    assert 1.0 > a_sharp > a_blurry > 0.0


# ---------------------------------------------------------------------------
# Bootstrap machinery.

def test_bootstrap_ci_deterministic_and_contains_point():
    samples = list(range(10))
    got1 = bootstrap_ci(lambda s: float(np.mean(s)), samples, seed=3)
    got2 = bootstrap_ci(lambda s: float(np.mean(s)), samples, seed=3)
    assert got1 == got2
    point, lo, hi = got1
    assert point == 4.5
    assert lo <= point <= hi


def test_bootstrap_and_consistency_bounds_are_the_central_95_percent():
    """Both intervals equal an in-test reference: the same resamples, then the
    2.5th and 97.5th percentiles, so a 90 % interval in their place fails."""
    rng = np.random.default_rng(8)
    samples = list(rng.normal(size=15))
    stat = lambda s: float(np.mean(s))  # noqa: E731
    draw = np.random.default_rng(4)
    boots = [stat([samples[j] for j in draw.integers(0, 15, size=15)]) for _ in range(400)]
    point, lo, hi = bootstrap_ci(stat, samples, n_boot=400, seed=4)
    assert point == stat(samples)
    np.testing.assert_allclose([lo, hi], np.percentile(boots, [2.5, 97.5]), rtol=1e-12)

    pv = rng.random(3000)
    attr = attributes_diagram(prob(pv), mask((rng.random(3000) < pv).astype(float)))
    assert np.count_nonzero(attr.bin_counts) == N_PROB_BINS
    bars = consistency_bars(attr, n_boot=200, seed=6)
    draw = np.random.default_rng(6)
    want = np.full((2, N_PROB_BINS), np.nan)
    for k in np.flatnonzero(attr.bin_counts):
        n_k = int(attr.bin_counts[k])
        draws = draw.binomial(n_k, attr.bin_mean_forecast[k], size=200) / n_k
        want[:, k] = np.percentile(draws, [2.5, 97.5])
    np.testing.assert_allclose(bars, want, rtol=1e-12)


def test_bootstrap_ci_degenerate_single_sample():
    point, lo, hi = bootstrap_ci(lambda s: float(np.mean(s)), [7.0], n_boot=50)
    assert point == lo == hi == 7.0
    with pytest.raises(ValueError, match="at least one sample"):
        bootstrap_ci(lambda s: 0.0, [])


def test_paired_test_identical_models_not_significant():
    samples = [float(x) for x in range(12)]
    stat = lambda s: float(np.mean(s))
    res = paired_bootstrap_test(stat, stat, samples, n_boot=200, seed=4)
    assert res.diff == 0.0
    assert res.p_value == 1.0
    assert not res.significant_95


def test_paired_test_constant_offset_significant():
    samples = [float(x) for x in range(12)]
    stat_a = lambda s: float(np.mean(s)) + 1.0
    stat_b = lambda s: float(np.mean(s))
    res = paired_bootstrap_test(stat_a, stat_b, samples, n_boot=200, seed=4)
    assert res.diff == pytest.approx(1.0)
    assert res.p_value == 0.0
    assert res.significant_95


def test_paired_test_shares_resamples():
    # A noisy statistic pair with a tiny true difference: because both sides
    # see the same resample, the difference distribution collapses to the
    # true offset rather than to the much larger sampling noise.
    rng = np.random.default_rng(25)
    samples = list(rng.normal(0.0, 10.0, size=30))
    eps = 1e-6
    res = paired_bootstrap_test(
        lambda s: float(np.mean(s)) + eps, lambda s: float(np.mean(s)),
        samples, n_boot=100, seed=6)
    assert res.diff == pytest.approx(eps, rel=1e-6)
    assert res.significant_95  # every resampled difference equals eps > 0


# ---------------------------------------------------------------------------
# Report round trip.

def _small_report_inputs():
    rng = np.random.default_rng(26)
    pv = rng.random(400)
    yv = (rng.random(400) < pv).astype(float)
    attr = attributes_diagram(prob(pv), mask(yv))
    consistency_bars(attr, seed=1)
    perf = performance_diagram(prob(pv), mask(yv), thresholds=np.linspace(0, 1, 11))
    return attr, perf


def test_report_json_csv_round_trip(tmp_path):
    attr, perf = _small_report_inputs()
    json_path, csv_path = emit_report(attr, perf, tmp_path)
    assert os.path.basename(json_path) == "report.json"
    assert os.path.basename(csv_path) == "report.csv"
    data = json.loads(open(json_path).read())
    assert data == report_dict(attr, perf)
    assert set(data["summary"]) == set(SUMMARY_KEYS)
    # NaN must appear as JSON null, never as bare NaN.
    text = open(json_path).read()
    assert "NaN" not in text
    lines = open(csv_path).read().splitlines()
    assert len(lines) == 1 + N_PROB_BINS + 11 + len(SUMMARY_KEYS)
    assert lines[0].startswith("row_type,label,")
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_report_empty_bins_serialise_as_blank_cells(tmp_path):
    attr = attributes_diagram(prob([0.42] * 5), mask([1.0, 0.0, 0.0, 0.0, 0.0]))
    perf = performance_diagram(prob([0.42] * 5), mask([1.0, 0.0, 0.0, 0.0, 0.0]),
                               thresholds=[0.5])
    json_path, csv_path = emit_report(attr, perf, tmp_path)
    data = json.loads(open(json_path).read())
    assert data["attributes"]["bin_mean_forecast"][0] is None
    assert data["attributes"]["consistency_lo"] is None  # bars never computed
    row0 = open(csv_path).read().splitlines()[1].split(",")
    assert row0[0] == "bin" and row0[3] == ""  # empty bin, blank mean forecast


def test_report_extra_sections_json_only(tmp_path):
    attr, perf = _small_report_inputs()
    extra = {"bootstrap": {"bss": [0.1, 0.05, 0.15]}}
    json_path, csv_path = emit_report(attr, perf, tmp_path, extra_sections=extra)
    data = json.loads(open(json_path).read())
    assert data["bootstrap"] == {"bss": [0.1, 0.05, 0.15]}
    lines = open(csv_path).read().splitlines()
    assert len(lines) == 1 + N_PROB_BINS + len(perf.thresholds) + len(SUMMARY_KEYS)


def test_write_csv_writes_one_cell_rule(tmp_path):
    # A float, numpy's included, reads back to the same bits; NaN and None
    # are undefined, so blank; anything else is its str.
    path = tmp_path / "cells.csv"
    third = 1.0 / 3.0
    write_csv(path, ["a", "b", "c", "d", "e", "f", "g"],
              [[np.float64(third), third, np.float32(0.1), math.nan, np.float64("nan"),
                None, 7], [np.int64(3), "x,y", "", True, 0.0, -0.0, 1e-300]])
    assert path.read_bytes() == (
        b"a,b,c,d,e,f,g\n"
        + f"{third!r},{third!r},{float(np.float32(0.1))!r},,,,7\n".encode()
        + b'3,"x,y",,True,0.0,-0.0,1e-300\n')


# ---------------------------------------------------------------------------
# Refusals of an empty resampling.

def test_bootstrap_ci_refuses_no_resamples():
    with pytest.raises(ValueError, match="n_boot must be >= 1, got 0"):
        bootstrap_ci(lambda s: 0.0, [1], n_boot=0)


def test_paired_test_refuses_no_resamples():
    with pytest.raises(ValueError, match="n_boot must be >= 1, got 0"):
        paired_bootstrap_test(lambda s: 0.0, lambda s: 1.0, [1, 2], n_boot=0)


def test_consistency_bars_refuse_no_resamples():
    attr, _ = _small_report_inputs()
    with pytest.raises(ValueError, match="n_boot must be >= 1, got 0"):
        consistency_bars(attr, n_boot=0)
