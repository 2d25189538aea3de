"""Tests for pixelwise and neighbourhood verification scores.

Hand-worked contingency contributions and score values are frozen as exact
expectations; binary inputs are cross-checked against a classic integer
contingency oracle; range and reduction properties run over seeded random
fields.
"""

import math

import numpy as np
import pytest

from selfscore.grid import GridField
from selfscore.losses import LossSpec, metric_tables, parse_spec_id, prepare_targets
from selfscore.scores import NBHD_SCORE_KINDS, ORIENTATION, SCORE_KINDS, XENT_EPS

from _records import counts, score

SPACING = 0.1


def prob(values, eval_mask=None):
    return GridField(np.asarray(values, dtype=float), SPACING, "prob", eval_mask)


def mask(values, eval_mask=None):
    return GridField(np.asarray(values, dtype=float), SPACING, "mask", eval_mask)


def only(rows_cols, shape):
    """Eval mask selecting just the given (row, col) pixels."""
    m = np.zeros(shape, dtype=bool)
    for r, c in rows_cols:
        m[r, c] = True
    return m


# ---------------------------------------------------------------------------
# Probabilistic contingency table.

def test_prob_contingency_single_pixel_event():
    # Probability 0.8 against an observed event: 0.8 to hits, 0.2 to misses.
    assert counts(prob([[0.8]]), mask([[1.0]])) == (
        pytest.approx(0.8, abs=1e-15), 0.0, pytest.approx(0.2, abs=1e-15), 0.0)


def test_prob_contingency_single_pixel_no_event():
    # Probability 0.8 with no event: 0.8 to false alarms, 0.2 to correct nulls.
    assert counts(prob([[0.8]]), mask([[0.0]])) == (
        0.0, pytest.approx(0.8, abs=1e-15), 0.0, pytest.approx(0.2, abs=1e-15))


def test_prob_contingency_accumulates_and_n():
    a, b, c, d = counts(prob([[0.8, 0.8]]), mask([[1.0, 0.0]]))
    assert (a, b) == (pytest.approx(0.8), pytest.approx(0.8))
    assert (c, d) == (pytest.approx(0.2), pytest.approx(0.2))
    assert a + b + c + d == pytest.approx(2.0)


def test_prob_contingency_binary_reduction_oracle():
    # For 0/1 probabilities the table must reduce to integer counts.
    rng = np.random.default_rng(7)
    for _ in range(50):
        pv = (rng.random((6, 5)) < 0.4).astype(float)
        yv = (rng.random((6, 5)) < 0.3).astype(float)
        pb, yb = pv.astype(bool), yv.astype(bool)
        assert counts(prob(pv), mask(yv)) == tuple(
            float(np.sum(x)) for x in (pb & yb, pb & ~yb, ~pb & yb, ~pb & ~yb))


# ---------------------------------------------------------------------------
# Two-sided neighbourhood contingency.  A 7x7 grid with one observed event
# at (1, 1); probabilities 0.8 at (1, 2), 0.5 at (2, 3), 0.2 at (5, 6).
# With half-width 2, (1, 2) and (2, 3) are within reach of the event and
# (5, 6) is not.

def _figure_grid():
    pv = np.zeros((7, 7))
    pv[1, 2] = 0.8
    pv[2, 3] = 0.5
    pv[5, 6] = 0.2
    yv = np.zeros((7, 7))
    yv[1, 1] = 1.0
    return pv, yv


def test_nbhd_contingency_observed_pixel_contribution():
    # Largest probability within reach of the event is 0.8, so the event
    # pixel contributes 0.8 to a_obs and 0.2 to c.
    pv, yv = _figure_grid()
    em = only([(1, 1)], pv.shape)
    a_obs, a_pred, b, c = counts(prob(pv, em), mask(yv, em), 2)
    assert a_obs == pytest.approx(0.8, abs=1e-15)
    assert c == pytest.approx(0.2, abs=1e-15)


def test_nbhd_contingency_prediction_near_event():
    # p = 0.5 with an event within reach: 0.5 to a_pred AND 0.5 to b.
    pv, yv = _figure_grid()
    em = only([(2, 3)], pv.shape)
    a_obs, a_pred, b, c = counts(prob(pv, em), mask(yv, em), 2)
    assert a_pred == pytest.approx(0.5, abs=1e-15)
    assert b == pytest.approx(0.5, abs=1e-15)
    assert a_obs == 0.0 and c == 0.0


def test_nbhd_contingency_prediction_far_from_event():
    # p = 0.2 with no event within reach: 0.2 to b, nothing to a_pred.
    pv, yv = _figure_grid()
    em = only([(5, 6)], pv.shape)
    a_obs, a_pred, b, c = counts(prob(pv, em), mask(yv, em), 2)
    assert a_pred == 0.0
    assert b == pytest.approx(0.2, abs=1e-15)


def test_nbhd_contingency_whole_grid():
    # Full accumulation over all 49 pixels: the near set is the 4x4 block
    # rows 0..3 x cols 0..3 (16 pixels), everything else is far.
    pv, yv = _figure_grid()
    a_obs, a_pred, b, c = counts(prob(pv), mask(yv), 2)
    assert a_obs == pytest.approx(0.8, abs=1e-15)
    assert c == pytest.approx(0.2, abs=1e-15)
    assert a_pred == pytest.approx(0.8 + 0.5, abs=1e-15)
    assert b == pytest.approx((16 - 1.3) + 0.2, abs=1e-12)


def test_nbhd_contingency_filter_sees_excluded_pixels():
    # An event pixel excluded from scoring still defines the near set and
    # still feeds the window maximum for other pixels' windows.
    pv = np.array([[0.0, 0.5, 0.0]])
    yv = np.array([[1.0, 0.0, 0.0]])
    em = only([(0, 1), (0, 2)], pv.shape)  # the event pixel is not scored
    a_obs, a_pred, b, c = counts(prob(pv, em), mask(yv, em), 1)
    assert a_obs == 0.0 and c == 0.0  # no scored event pixels
    assert a_pred == pytest.approx(0.5)  # (0,1) is within reach of the event
    # b: 1-p at the near pixel (0,1) plus p at the far pixel (0,2).
    assert b == pytest.approx(0.5 + 0.0)


def test_nbhd_contingency_requires_mask_obs():
    # One rule for every spec: the spectral target refuses what the
    # neighbourhood one does.
    for spec_id in ("csi_nbhd_r1", "csi_F0.1-inf", "csi_W0-0.2"):
        with pytest.raises(ValueError, match="binary masks, got kind 'prob'"):
            prepare_targets([parse_spec_id(spec_id)], prob(np.full((8, 8), 0.5)))


# ---------------------------------------------------------------------------
# Pixelwise scores on a frozen 2x2 example.
#   p = [[0.8, 0.2], [0.6, 0.5]]   y = [[1, 0], [1, 0]]
#   a = 1.4, b = 0.7, c = 0.6, d = 1.3, G = 4.

P22 = [[0.8, 0.2], [0.6, 0.5]]
Y22 = [[1.0, 0.0], [1.0, 0.0]]


def test_hand_values_pixelwise():
    p, y = prob(P22), mask(Y22)
    a, b, c, d = 1.4, 0.7, 0.6, 1.3
    assert counts(p, y) == (
        pytest.approx(a), pytest.approx(b), pytest.approx(c), pytest.approx(d))

    sse = 0.2 ** 2 + 0.2 ** 2 + 0.4 ** 2 + 0.5 ** 2          # 0.49
    ref = (0.64 + 0.04 + 0.36 + 0.25) + 2.0                  # 3.29
    inter = 0.8 + 0.6                                        # sum p*y
    union = 1.0 + 0.2 + 1.0 + 0.5                            # sum max(p, y)
    agree = inter + (0.8 * 1.0 + 0.5 * 1.0)                  # + sum (1-p)(1-y)
    xent = -(math.log2(0.8) + math.log2(0.8)
             + math.log2(0.6) + math.log2(0.5)) / 4.0
    n_rand = ((a + b) * (a + c) + (b + d) * (c + d)) / 4.0
    r = (a + c) / (b + d)

    expected = {
        "brier": sse / 4.0,
        "fss": 1.0 - sse / ref,
        "iou": inter / union,
        "dice": agree / 4.0,
        "csi": a / (a + b + c),
        "xent": xent,
        "heidke": (a + d - n_rand) / (4.0 - n_rand),
        "peirce": a / (a + c) - b / (b + d),
        "gerrity": (a / r + d * r - b - c) / 4.0,
    }
    for kind, want in expected.items():
        res = score(kind, p, y)
        assert res.value == pytest.approx(want, abs=1e-14), kind
        assert res.fallbacks == ()


def test_perfect_forecast_is_optimal_pixelwise():
    yv = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    p, y = prob(yv), mask(yv)
    optimal = {"brier": 0.0, "fss": 1.0, "iou": 1.0, "dice": 1.0, "csi": 1.0,
               "heidke": 1.0, "peirce": 1.0, "gerrity": 1.0}
    for kind, want in optimal.items():
        assert score(kind, p, y).value == want, kind
    # Probabilities are clamped away from {0, 1}, so perfect cross-entropy
    # is within the clamp margin of zero rather than exactly zero.
    assert 0.0 <= score("xent", p, y).value < 1e-6


def test_binary_inputs_match_integer_contingency_formulas():
    rng = np.random.default_rng(11)
    for _ in range(25):
        pv = (rng.random((8, 7)) < 0.35).astype(float)
        yv = (rng.random((8, 7)) < 0.35).astype(float)
        pb, yb = pv.astype(bool), yv.astype(bool)
        a = float(np.sum(pb & yb))
        b = float(np.sum(pb & ~yb))
        c = float(np.sum(~pb & yb))
        d = float(np.sum(~pb & ~yb))
        n = a + b + c + d
        if a + b + c > 0:
            got = score("csi", prob(pv), mask(yv)).value
            assert got == pytest.approx(a / (a + b + c), abs=1e-14)
        if (a + c) > 0 and (b + d) > 0:
            got = score("peirce", prob(pv), mask(yv)).value
            assert got == pytest.approx(a / (a + c) - b / (b + d), abs=1e-14)
            n_rand = ((a + b) * (a + c) + (b + d) * (c + d)) / n
            got = score("heidke", prob(pv), mask(yv)).value
            assert got == pytest.approx((a + d - n_rand) / (n - n_rand), abs=1e-14)


def test_gerrity_equals_peirce_when_both_classes_present():
    # With two categories the equitable-score weights collapse so that both
    # formulas measure (ad - bc) / [(a+c)(b+d)]; this is a strong cross-check
    # of the two independent implementations.
    rng = np.random.default_rng(13)
    for _ in range(25):
        pv = rng.random((6, 6))
        yv = (rng.random((6, 6)) < 0.5).astype(float)
        if yv.min() == yv.max():
            continue
        g = score("gerrity", prob(pv), mask(yv)).value
        s = score("peirce", prob(pv), mask(yv)).value
        assert g == pytest.approx(s, abs=1e-12)


def test_score_ranges_random_inputs():
    rng = np.random.default_rng(17)
    unit = {"brier", "fss", "iou", "dice", "csi"}
    for _ in range(40):
        pv = rng.random((9, 8))
        yv = (rng.random((9, 8)) < 0.3).astype(float)
        p, y = prob(pv), mask(yv)
        for kind in SCORE_KINDS:
            v = score(kind, p, y).value
            assert np.isfinite(v), kind
            if kind in unit:
                assert 0.0 <= v <= 1.0, kind
            elif kind == "xent":
                assert v >= 0.0
            else:  # skill scores: bounded by +/-1
                assert -1.0 <= v <= 1.0, kind


def test_orientation_table_is_complete():
    assert set(ORIENTATION) == set(SCORE_KINDS)
    assert ORIENTATION["brier"] == -1 and ORIENTATION["xent"] == -1
    assert all(ORIENTATION[k] == 1 for k in SCORE_KINDS
               if k not in ("brier", "xent"))


# ---------------------------------------------------------------------------
# Neighbourhood scores.

def test_nbhd_reduces_to_pixelwise_at_zero_half_width():
    # With half-width 0 the max/mean filters are identities, so every
    # neighbourhood form except CSI must equal its pixelwise form.
    rng = np.random.default_rng(19)
    pv = rng.random((7, 6))
    yv = (rng.random((7, 6)) < 0.4).astype(float)
    p, y = prob(pv), mask(yv)
    for kind in ("brier", "fss", "iou", "dice", "xent"):
        assert score(kind, p, y, 0).value == score(kind, p, y).value, kind


def test_nbhd_csi_at_zero_half_width_double_counts_misses():
    # The two-sided accumulation books 1-p at event pixels into b as well as
    # c, so at half-width 0 the neighbourhood CSI is a/(a+b+2c), not the
    # pixelwise a/(a+b+c).
    rng = np.random.default_rng(23)
    pv = rng.random((7, 6))
    yv = (rng.random((7, 6)) < 0.4).astype(float)
    p, y = prob(pv), mask(yv)
    a, b, c, _ = counts(p, y)
    got = score("csi", p, y, 0).value
    assert got == pytest.approx(a / (a + b + 2.0 * c), abs=1e-12)
    assert got < score("csi", p, y).value  # c > 0 here, so strictly less


def test_nbhd_hand_values_on_figure_grid():
    pv, yv = _figure_grid()
    p, y = prob(pv), mask(yv)
    ymax = np.zeros((7, 7))
    ymax[0:4, 0:4] = 1.0  # event at (1,1) dilated by half-width 2

    sse = float(np.sum((pv - ymax) ** 2))
    assert score("brier", p, y, 2).value == pytest.approx(sse / 49.0, abs=1e-14)

    inter = 0.8 + 0.5
    union = float(np.sum(np.maximum(pv, ymax)))  # 16 block cells + 0.2 far
    assert union == pytest.approx(16.2)
    assert score("iou", p, y, 2).value == pytest.approx(inter / union, abs=1e-14)

    agree = inter + float(np.sum((1.0 - pv) * (1.0 - ymax)))
    assert score("dice", p, y, 2).value == pytest.approx(agree / 49.0, abs=1e-14)

    # CSI from the frozen whole-grid table: POD = 0.8, SR = 1.3 / 16.2.
    pod = 0.8 / (0.8 + 0.2)
    sr = 1.3 / (1.3 + 14.9)
    want = 1.0 / (1.0 / pod + 1.0 / sr - 1.0)
    assert score("csi", p, y, 2).value == pytest.approx(want, abs=1e-12)


def test_nbhd_fss_uses_mean_filters_of_both_fields():
    pv = np.array([[0.0, 1.0, 0.0]])
    yv = np.array([[1.0, 0.0, 0.0]])
    p, y = prob(pv), mask(yv)
    # Half-width 1 means over a 3-cell window with zero padding:
    pbar = np.array([1.0, 1.0, 1.0]) / 3.0
    ybar = np.array([1.0, 1.0, 0.0]) / 3.0
    sse = float(np.sum((pbar - ybar) ** 2))
    ref = float(np.sum(pbar ** 2 + ybar ** 2))
    assert score("fss", p, y, 1).value == pytest.approx(1.0 - sse / ref, abs=1e-14)
    # Displaced by one pixel: pixelwise FSS is heavily penalised, the
    # neighbourhood FSS forgives the miss.
    assert score("fss", p, y, 1).value > score("fss", p, y).value


def test_nbhd_optimal_forecasts():
    yv = np.zeros((8, 8))
    yv[3, 4] = 1.0
    y = mask(yv)
    ymax = np.zeros((8, 8))
    ymax[2:5, 3:6] = 1.0
    # Matching the dilated mask is optimal for the dilated-target scores.
    p_dilated = prob(ymax)
    assert score("brier", p_dilated, y, 1).value == 0.0
    assert score("iou", p_dilated, y, 1).value == 1.0
    assert score("dice", p_dilated, y, 1).value == 1.0
    assert score("xent", p_dilated, y, 1).value < 1e-6
    assert score("csi", p_dilated, y, 1).value == 1.0
    # Matching the raw mask is optimal for FSS (identical window means).
    assert score("fss", prob(yv), y, 1).value == 1.0


def test_nbhd_rejects_contingency_only_scores():
    for kind in ("heidke", "peirce", "gerrity"):
        with pytest.raises(ValueError, match="no neighbourhood form"):
            LossSpec(kind, "nbhd", half_width=1)
    assert set(NBHD_SCORE_KINDS) == set(SCORE_KINDS) - {"heidke", "peirce", "gerrity"}


def test_nbhd_requires_mask_obs():
    # Evaluation refuses a non-mask observation under every spec, as
    # training does (``prepare_targets``).
    p, y = prob(np.full((8, 8), 0.5)), prob(np.ones((8, 8)))
    for spec_id in ("brier_nbhd_r1", "brier_F0.1-inf", "brier_W0-0.2"):
        spec = parse_spec_id(spec_id)
        with pytest.raises(ValueError, match="binary masks, got kind 'prob'"):
            metric_tables([spec], [p], y)


# ---------------------------------------------------------------------------
# Degenerate-denominator fallbacks.

def test_fallbacks_on_empty_fields():
    p, y = prob(np.zeros((3, 3))), mask(np.zeros((3, 3)))
    cases = {
        "fss": (1.0, ("fss_zero_reference",)),
        "iou": (1.0, ("iou_zero_union",)),
        "csi": (1.0, ("csi_zero_denominator",)),
        "heidke": (0.0, ("heidke_zero_denominator",)),
        "peirce": (0.0, ("peirce_empty_class",)),
    }
    for kind, (value, names) in cases.items():
        res = score(kind, p, y)
        assert (res.value, res.fallbacks) == (value, names), kind
    # Brier, dice and xent have no degenerate branch on this input.
    assert score("brier", p, y).value == 0.0
    assert score("dice", p, y).value == 1.0


def test_gerrity_fallbacks():
    # All-event observations: b + d = 0.
    res = score("gerrity", prob([[0.5, 0.5]]), mask([[1.0, 1.0]]))
    assert (res.value, res.fallbacks) == (0.0, ("gerrity_zero_denominator",))
    # No observed events with nonzero probabilities: the hits term drops out
    # and what remains is -(b + c) / n.
    res = score("gerrity", prob([[0.5, 0.5]]), mask([[0.0, 0.0]]))
    assert res.fallbacks == ("gerrity_zero_event_ratio",)
    assert res.value == pytest.approx(-0.5, abs=1e-15)


def test_peirce_fallback_on_all_event_obs():
    res = score("peirce", prob([[0.3, 0.9]]), mask([[1.0, 1.0]]))
    assert (res.value, res.fallbacks) == (0.0, ("peirce_empty_class",))


def test_nbhd_csi_fallbacks():
    zero = np.zeros((4, 4))
    one_event = zero.copy()
    one_event[1, 1] = 1.0

    # No events, no probability mass anywhere: both factors degenerate and
    # the score is taken as perfect.
    res = score("csi", prob(zero), mask(zero), 1)
    assert res.value == 1.0
    assert res.fallbacks == ("nbhd_csi_pod_undefined", "nbhd_csi_sr_undefined")

    # No events but probability mass present: zero prediction-oriented hits.
    pv = zero.copy()
    pv[2, 2] = 0.7
    res = score("csi", prob(pv), mask(zero), 1)
    assert res.value == 0.0
    assert res.fallbacks == ("nbhd_csi_pod_undefined", "nbhd_csi_sr_zero")

    # Events present but zero probability everywhere: POD factor is zero.
    res = score("csi", prob(zero), mask(one_event), 1)
    assert res.value == 0.0
    assert res.fallbacks == ("nbhd_csi_pod_zero",)


def test_xent_clamps_certain_misses():
    # A certainty-zero forecast of an observed event costs -log2(eps), not inf.
    got = score("xent", prob([[0.0]]), mask([[1.0]])).value
    assert got == pytest.approx(-math.log2(XENT_EPS), abs=1e-12)
    # The mirrored case picks up one rounding step: 1 - (1 - eps) != eps.
    got = score("xent", prob([[1.0]]), mask([[0.0]])).value
    assert got == pytest.approx(-math.log2(1.0 - (1.0 - XENT_EPS)), abs=1e-12)


# ---------------------------------------------------------------------------
# Scored-pixel selection.

def test_eval_mask_restricts_score_sums():
    pv = np.array([[0.9, 0.1], [0.5, 0.5]])
    yv = np.array([[1.0, 0.0], [1.0, 1.0]])
    em = np.array([[True, True], [False, False]])
    p, y = prob(pv, em), mask(yv, em)
    # Only the top row is scored: a perfect-looking forecast there.
    assert score("brier", p, y).value == pytest.approx(
        (0.1 ** 2 + 0.1 ** 2) / 2.0, abs=1e-15)
    assert sum(counts(p, y)) == pytest.approx(2.0)


def test_eval_mask_from_either_field_applies():
    pv = np.array([[0.9, 0.1]])
    yv = np.array([[1.0, 1.0]])
    em = np.array([[True, False]])
    direct = score("brier", prob(pv, em), mask(yv)).value
    other = score("brier", prob(pv), mask(yv, em)).value
    assert direct == other == pytest.approx(0.1 ** 2, abs=1e-15)


def test_all_excluded_raises():
    em = np.array([[False]])
    with pytest.raises(ValueError, match="no scored pixels"):
        score("brier", prob([[0.5]], em), mask([[1.0]])).value


def test_shape_and_spacing_mismatch_raise():
    with pytest.raises(ValueError, match="shape mismatch"):
        score("brier", prob([[0.5]]), mask([[1.0, 0.0]])).value
    p = GridField(np.array([[0.5]]), 0.2, "prob")
    with pytest.raises(ValueError, match="spacing mismatch"):
        score("brier", p, mask([[1.0]])).value


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown score kind"):
        score("accuracy", prob([[0.5]]), mask([[1.0]])).value
