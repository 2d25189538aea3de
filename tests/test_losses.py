"""Tests for loss configurations: ids, census, targets, losses, gradients.

Covers the spec-id/filter-id grammars, the 336-configuration census, the
asymmetric training convention (filter observations only) versus the
evaluation convention (filter both fields), orientation of losses, and the
analytic gradients against central finite differences.
"""

import math

import numpy as np
import pytest

from selfscore import losses
from selfscore.fourier import fourier_band_pass
from selfscore.grid import GridField, WavelengthBand
from selfscore.losses import (
    CENSUS_BANDS,
    NBHD_HALF_WIDTHS,
    SPECTRAL_METHODS,
    FilterSpec,
    LossSpec,
    apply_filter,
    enumerate_configs,
    filter_stages,
    grad_check,
    loss_detail,
    loss_gradient,
    loss_value,
    metric_table,
    parse_filter_id,
    parse_spec_id,
    prepare_target,
)
from selfscore.neighbourhood import max_filter_array, mean_filter_array
from selfscore.scores import ORIENTATION, SCORE_KINDS
from selfscore.wavelet import wavelet_band_pass

from _records import metric_value, score, target_score

SPACING = 0.05


def prob(values, eval_mask=None):
    return GridField(np.asarray(values, dtype=float), SPACING, "prob", eval_mask)


def mask(values, eval_mask=None):
    return GridField(np.asarray(values, dtype=float), SPACING, "mask", eval_mask)


def random_pair(rng, shape=(16, 16)):
    p = prob(rng.uniform(0.01, 0.99, shape))
    y = mask((rng.random(shape) < 0.3).astype(float))
    return p, y


# ---------------------------------------------------------------------------
# Spec ids.

def test_spec_id_round_trip():
    for spec_id in ("fss_nbhd_r4", "brier_nbhd_r0", "xent_nbhd_r12",
                    "brier_W0.1-inf", "gerrity_F0-0.025", "csi_F0.2-0.4",
                    "heidke_W1.6-inf"):
        spec = parse_spec_id(spec_id)
        assert spec.spec_id == spec_id


def test_spec_id_case_insensitive():
    assert parse_spec_id("FSS_NBHD_R4") == parse_spec_id("fss_nbhd_r4")
    assert parse_spec_id("Brier_w0.1-INF") == parse_spec_id("brier_W0.1-inf")


def test_spec_id_errors_cite_grammar():
    for bad in ("fss", "fss_nbhd", "fss_nbhd_r", "fss_nbhd_rx", "fss_Q0.1-0.2",
                "accuracy_nbhd_r2", "brier_F0.4-0.1", "brier_F0.1.2-inf",
                "brier_F-0.1-0.2", ""):
        with pytest.raises(ValueError, match="grammar"):
            parse_spec_id(bad)


def test_contingency_scores_have_no_nbhd_spec():
    for score in ("heidke", "peirce", "gerrity"):
        with pytest.raises(ValueError, match="no neighbourhood form"):
            parse_spec_id(f"{score}_nbhd_r2")


def test_loss_spec_validation():
    with pytest.raises(ValueError, match="half_width"):
        LossSpec("fss", "nbhd")
    with pytest.raises(ValueError, match="band"):
        LossSpec("fss", "F")
    with pytest.raises(ValueError, match="filter_kind"):
        LossSpec("fss", "nbhd_max", half_width=1)
    with pytest.raises(ValueError, match="unknown score 'nope'"):
        LossSpec("nope", "nbhd", half_width=1)
    spec = LossSpec("fss", "W", band=WavelengthBand(0.1, math.inf))
    assert spec.spec_id == "fss_W0.1-inf"
    assert spec.is_spectral


# ---------------------------------------------------------------------------
# Standalone filter ids.

def test_filter_id_round_trip():
    for filter_id in ("nbhd_max_r4", "nbhd_mean_r0", "F0.1-inf", "W0-0.025"):
        assert parse_filter_id(filter_id).filter_id == filter_id


def test_filter_id_errors():
    for bad in ("nbhd_r4", "max_r4", "F0.4-0.1", "Q0.1-0.2", "nbhd_max_r-1", ""):
        with pytest.raises(ValueError, match="grammar"):
            parse_filter_id(bad)


def test_apply_filter_dispatch():
    rng = np.random.default_rng(3)
    f = prob(rng.random((12, 12)))
    band = WavelengthBand(0.1, 0.4)
    got = apply_filter(f, parse_filter_id("nbhd_max_r2"))
    np.testing.assert_array_equal(got.values, max_filter_array(f.values, 2))
    got = apply_filter(f, parse_filter_id("nbhd_mean_r2"))
    np.testing.assert_array_equal(got.values, np.clip(mean_filter_array(f.values, 2), 0.0, 1.0))
    got = apply_filter(f, FilterSpec("F", band=band))
    np.testing.assert_array_equal(got.values, fourier_band_pass(f, band).values)
    got = apply_filter(f, FilterSpec("W", band=band))
    np.testing.assert_array_equal(got.values, wavelet_band_pass(f, band).values)


def test_apply_filter_stages():
    f = prob(np.random.default_rng(4).random((8, 8)))
    assert filter_stages(f, parse_filter_id("nbhd_max_r1")) == {}
    assert filter_stages(f, parse_filter_id("F0.1-0.4"))  # spectral pipelines expose their stages


# ---------------------------------------------------------------------------
# Census.

def test_census_counts():
    configs = enumerate_configs()
    assert len(configs) == 336
    nbhd = [c for c in configs if c.filter_kind == "nbhd"]
    spectral = [c for c in configs if c.is_spectral]
    assert len(nbhd) == 48  # 6 scores x 8 half-widths
    assert len(spectral) == 288  # 9 scores x 16 bands x 2 methods
    assert len(CENSUS_BANDS) == 16
    assert NBHD_HALF_WIDTHS == (0, 1, 2, 3, 4, 6, 8, 12)
    assert SPECTRAL_METHODS == ("F", "W")


def test_census_ids_unique_and_parseable():
    configs = enumerate_configs()
    ids = [c.spec_id for c in configs]
    assert len(set(ids)) == 336
    for c in configs:
        assert parse_spec_id(c.spec_id) == c


def test_census_distinct_filters():
    filters = {c.filter_id for c in enumerate_configs()}
    assert len(filters) == 40  # 8 neighbourhood + 16 bands x 2 methods
    assert {f"nbhd_r{r}" for r in NBHD_HALF_WIDTHS} <= filters


def test_census_band_edges():
    # 8 contiguous octaves, then 4 low-pass and 4 high-pass splits (degrees).
    edges = [(b.lo_deg, b.hi_deg) for b in CENSUS_BANDS]
    inf = math.inf
    assert edges == [
        (0.0, 0.025), (0.025, 0.05), (0.05, 0.1), (0.1, 0.2), (0.2, 0.4),
        (0.4, 0.8), (0.8, 1.6), (1.6, inf),
        (0.0, 0.1), (0.0, 0.2), (0.0, 0.4), (0.0, 0.8),
        (0.1, inf), (0.2, inf), (0.4, inf), (0.8, inf),
    ]


def test_nbhd_census_covers_exactly_the_six_scores():
    nbhd_scores = {c.score for c in enumerate_configs() if c.filter_kind == "nbhd"}
    assert nbhd_scores == {"brier", "fss", "iou", "dice", "csi", "xent"}


# ---------------------------------------------------------------------------
# Target preparation and the training/evaluation conventions.

def test_prepare_target_nbhd_passthrough():
    y = mask((np.random.default_rng(5).random((8, 8)) < 0.3).astype(float))
    spec = parse_spec_id("fss_nbhd_r2")
    t = prepare_target(spec, y)
    assert t.filtered is y
    assert t.clamp_max_abs == 0.0


def test_prepare_target_spectral_filters_and_clamps():
    yv = np.zeros((16, 16))
    yv[6:10, 6:10] = 1.0
    y = mask(yv)
    spec = parse_spec_id("brier_F0-0.4")
    t = prepare_target(spec, y)
    raw = apply_filter(y, FilterSpec("F", band=spec.band))
    np.testing.assert_array_equal(t.filtered.values, np.clip(raw.values, 0.0, 1.0))
    assert t.filtered.kind == "prob"
    # A sharp edge through a low-pass filter overshoots [0, 1], so the clamp
    # must have had something to do.
    assert t.clamp_max_abs > 0.0
    assert t.filtered.values.min() >= 0.0 and t.filtered.values.max() <= 1.0


def test_prepare_target_rejects_non_mask():
    with pytest.raises(ValueError, match="binary masks"):
        prepare_target(parse_spec_id("brier_F0-0.4"), prob(np.zeros((4, 4))))


def test_training_filters_obs_only_evaluation_filters_both():
    # Identical prediction and observation fields: the evaluation metric is
    # perfect because both sides pass through the same filter, while the
    # training loss compares the raw prediction against the filtered target
    # and therefore sees a difference.
    yv = np.zeros((16, 16))
    yv[4:8, 9:13] = 1.0
    y, p = mask(yv), prob(yv)
    spec = parse_spec_id("brier_F0.1-0.4")
    assert metric_value(spec, p, y).value == 0.0
    t = prepare_target(spec, y)
    assert loss_value(spec, p, t) > 1e-4


def test_loss_orientation():
    rng = np.random.default_rng(6)
    p, y = random_pair(rng)
    for kind in SCORE_KINDS:
        spec = parse_spec_id(f"{kind}_F0.1-inf")
        t = prepare_target(spec, y)
        raw = target_score(kind, p, t).value
        loss = loss_value(spec, p, t)
        if ORIENTATION[kind] < 0:
            assert loss == raw
        else:
            assert loss == 1.0 - raw
    for kind in ("brier", "fss", "iou", "dice", "csi", "xent"):
        spec = parse_spec_id(f"{kind}_nbhd_r2")
        t = prepare_target(spec, y)
        raw = score(kind, p, y, 2).value
        loss = loss_value(spec, p, t)
        assert loss == (raw if ORIENTATION[kind] < 0 else 1.0 - raw)


def test_loss_detail_mismatched_target_rejected():
    rng = np.random.default_rng(7)
    p, y = random_pair(rng)
    t = prepare_target(parse_spec_id("fss_nbhd_r2"), y)
    with pytest.raises(ValueError, match="different filter"):
        loss_detail(parse_spec_id("fss_nbhd_r4"), p, t)
    with pytest.raises(ValueError, match="different filter"):
        loss_gradient(parse_spec_id("fss_nbhd_r4"), p, t)


def test_prepared_target_shared_across_scores_with_same_filter():
    # Preparation depends only on the filter, so one target serves every
    # score that uses it.
    rng = np.random.default_rng(7)
    p, y = random_pair(rng)
    t = prepare_target(parse_spec_id("brier_nbhd_r2"), y)
    assert loss_value(parse_spec_id("fss_nbhd_r2"), p, t) == loss_value(
        parse_spec_id("fss_nbhd_r2"), p, prepare_target(parse_spec_id("fss_nbhd_r2"), y))
    ts = prepare_target(parse_spec_id("brier_F0.1-0.4"), y)
    grad = loss_gradient(parse_spec_id("xent_F0.1-0.4"), p, ts)
    assert grad.shape == p.shape


def test_metric_table_matches_metric_value_across_census():
    rng = np.random.default_rng(8)
    plain = random_pair(rng)
    p, y = random_pair(rng)
    masked = (prob(p.values, rng.random(p.shape) < 0.7),
              mask(y.values, rng.random(y.shape) < 0.7))
    odd = random_pair(rng, shape=(37, 52))
    no_events = (p, mask(np.zeros(p.shape)))
    configs = enumerate_configs()
    fired = set()
    for p, y in (plain, masked, odd, no_events):
        table = metric_table(configs, p, y)
        assert len(table) == 336
        for spec in configs:
            single = metric_value(spec, p, y)
            cached = table[spec.spec_id]
            assert cached.value == single.value, spec.spec_id
            assert cached.fallbacks == single.fallbacks, spec.spec_id
            fired.update(single.fallbacks)
    assert {"peirce_empty_class", "nbhd_csi_pod_undefined"} <= fired


def test_band_pass_unknown_method():
    """An unknown spectral method is refused where its filter is built."""
    with pytest.raises(ValueError, match="kind must be"):
        apply_filter(prob(np.zeros((4, 4))), FilterSpec("X", band=WavelengthBand(0.1, 0.2)))
    with pytest.raises(ValueError, match="filter_kind must be"):
        LossSpec("brier", "X", band=WavelengthBand(0.1, 0.2))


# ---------------------------------------------------------------------------
# Gradients.

def test_brier_spectral_gradient_formula():
    rng = np.random.default_rng(9)
    p, y = random_pair(rng, (12, 12))
    spec = parse_spec_id("brier_F0.1-inf")
    t = prepare_target(spec, y)
    got = loss_gradient(spec, p, t)
    want = 2.0 * (p.values - t.filtered.values) / p.values.size
    np.testing.assert_allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("spec_id", [
    "brier_nbhd_r2", "fss_nbhd_r3", "iou_nbhd_r1", "dice_nbhd_r4",
    "csi_nbhd_r2", "xent_nbhd_r1",
    "brier_F0.1-0.4", "fss_F0.1-0.4", "iou_F0.1-0.4", "dice_F0.1-0.4",
    "csi_F0.1-0.4", "xent_F0.1-0.4", "heidke_F0.1-0.4", "peirce_F0.1-0.4",
    "gerrity_F0.1-0.4",
    "fss_W0.1-0.4", "gerrity_W0.2-inf",
])
def test_gradient_matches_finite_differences(spec_id):
    rng = np.random.default_rng(10)
    p, y = random_pair(rng)
    spec = parse_spec_id(spec_id)
    t = prepare_target(spec, y)
    report = grad_check(spec, p, t)
    assert report.passed(1e-5), (spec_id, report)
    if spec.score in ("brier", "fss", "xent"):
        assert report.n_excluded == 0


def test_gradient_zero_on_fallback_branch():
    zeros = np.zeros((8, 8))
    spec = parse_spec_id("csi_F0-inf")
    t = prepare_target(spec, mask(zeros))
    g = loss_gradient(spec, prob(zeros), t)
    assert np.all(g == 0.0)


def test_gerrity_gradient_on_an_observation_without_events():
    # No observed event: every spectral gerrity config takes its zero-event-ratio
    # branch, whose gradient is not zero, and must still match finite differences.
    rng = np.random.default_rng(17)
    p, y = prob(rng.uniform(0.05, 0.95, (7, 9))), mask(np.zeros((7, 9)))
    specs = [s for s in enumerate_configs() if s.score == "gerrity"]
    assert len(specs) == 32 and all(s.is_spectral for s in specs)
    for spec in specs:
        t = prepare_target(spec, y)
        assert loss_detail(spec, p, t).fallbacks == ("gerrity_zero_event_ratio",), spec.spec_id
        report = grad_check(spec, p, t)
        assert report.passed(1e-5) and report.n_checked == 63, (spec.spec_id, report)


def test_nbhd_gradient_reaches_unscored_pixels_through_filter():
    rng = np.random.default_rng(12)
    em = np.ones((10, 10), dtype=bool)
    em[0, 0] = False
    p = prob(rng.uniform(0.2, 0.8, (10, 10)), em)
    y = mask((rng.random((10, 10)) < 0.4).astype(float), em)
    # The mean filter couples the unscored corner into scored windows.
    spec = parse_spec_id("fss_nbhd_r1")
    g = loss_gradient(spec, p, prepare_target(spec, y))
    assert g[0, 0] != 0.0
    # A pixelwise (spectral) loss has no such coupling.
    spec = parse_spec_id("brier_F0.1-inf")
    g = loss_gradient(spec, p, prepare_target(spec, y))
    assert g[0, 0] == 0.0


def test_grad_check_counts_exclusions_near_clamp():
    pv = np.full((6, 6), 0.5)
    pv[2, 3] = 5e-8  # inside the cross-entropy clamp margin
    y = mask((np.arange(36).reshape(6, 6) % 3 == 0).astype(float))
    spec = parse_spec_id("xent_F0.1-inf")
    report = grad_check(spec, prob(pv), prepare_target(spec, y))
    assert report.n_excluded >= 1
    assert report.n_checked == 36 - report.n_excluded
    assert report.passed(1e-5)


def test_grad_check_report_threshold():
    rng = np.random.default_rng(14)
    p, y = random_pair(rng, (8, 8))
    spec = parse_spec_id("brier_F0.1-inf")
    report = grad_check(spec, p, prepare_target(spec, y))
    assert report.spec_id == "brier_F0.1-inf"
    assert not report.passed(rel_tol=0.0) or report.max_rel_diff == 0.0
    assert report.passed(rel_tol=1.0)


def test_grad_check_fails_a_nan_gradient_and_points_at_it(monkeypatch):
    rng = np.random.default_rng(16)
    p, y = random_pair(rng, (8, 8))
    spec = parse_spec_id("brier_nbhd_r1")
    real = losses.loss_gradient

    def poisoned(*args):
        g = real(*args)
        g[3, 3] = math.nan
        return g
    monkeypatch.setattr(losses, "loss_gradient", poisoned)
    report = grad_check(spec, p, prepare_target(spec, y))
    assert not report.passed(rel_tol=1.0)
    assert report.max_rel_diff == math.inf
    assert report.worst_pixel == (3, 3)


@pytest.mark.parametrize("step", [0.0, -1e-5, math.nan])
def test_grad_check_refuses_a_step_that_is_not_positive(step):
    rng = np.random.default_rng(15)
    p, y = random_pair(rng, (4, 4))
    spec = parse_spec_id("brier_F0.1-inf")
    with pytest.raises(ValueError, match="step must be > 0"):
        grad_check(spec, p, prepare_target(spec, y), step=step)
