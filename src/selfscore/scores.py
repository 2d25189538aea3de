"""Verification scores for probabilistic predictions of gridded binary events.

Nine scores are supported.  Six have both a pixelwise and a neighbourhood
form (brier, fss, iou, dice, csi, xent); three are contingency-table scores
with a pixelwise form only (heidke, peirce, gerrity) -- their neighbourhood
generalisation is not defined, so they pair only with spectral filtering.

The probabilistic contingency table accumulates fractional counts: a pixel
with probability p and observation y contributes p*y to hits (a), p*(1-y)
to false alarms (b), (1-p)*y to misses (c) and (1-p)*(1-y) to correct
nulls (d), e.g. p=0.8 against y=1 adds 0.8 to a and 0.2 to c.

The neighbourhood contingency is two-sided. Observation-oriented pass, over
observed-event pixels: with q the largest probability within the
neighbourhood, add q to a_obs and 1-q to c. Prediction-oriented pass, over
all scored pixels: if any event is observed within the neighbourhood, add p
to a_pred and 1-p to b; otherwise add p to b.  Note the 1-p in the
event-in-reach case goes to false alarms, not to a negative class; a
consequence is that the neighbourhood CSI at half-width 0 is NOT the
pixelwise CSI (it double-counts misses into b).  The rule is kept because
it is the documented accumulation; treat neighbourhood CSI as its own score.

Degenerate denominators never return NaN; each defined fallback is recorded
by name in the returned ``ScoreResult``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField
from .neighbourhood import max_filter_array, mean_filter_array

SCORE_KINDS = ("brier", "fss", "iou", "dice", "csi", "xent",
               "heidke", "peirce", "gerrity")
NBHD_SCORE_KINDS = ("brier", "fss", "iou", "dice", "csi", "xent")

# Orientation: +1 when larger is better (loss = 1 - score), -1 when smaller
# is better (loss = score).
ORIENTATION = {
    "brier": -1, "fss": +1, "iou": +1, "dice": +1, "csi": +1, "xent": -1,
    "heidke": +1, "peirce": +1, "gerrity": +1,
}

XENT_EPS = 1e-7


@dataclass(frozen=True)
class ScoreResult:
    """A score value plus the names of any degenerate fallbacks applied."""

    value: float
    fallbacks: tuple[str, ...] = ()


@dataclass(frozen=True)
class ContingencyCounts:
    """Probabilistic 2x2 contingency table (fractional counts)."""

    a: float  # hits
    b: float  # false alarms
    c: float  # misses
    d: float  # correct nulls

    @property
    def n(self) -> float:
        return self.a + self.b + self.c + self.d


@dataclass(frozen=True)
class NbhdContingency:
    """Two-sided neighbourhood contingency (fractional counts)."""

    a_obs: float   # observation-oriented hits
    a_pred: float  # prediction-oriented hits
    b: float       # false alarms
    c: float       # misses


def _check_pair(p: GridField, y: GridField) -> None:
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    if p.spacing_deg != y.spacing_deg:
        raise ValueError("grid spacing mismatch")


def scored_weights(p: GridField, y: GridField) -> np.ndarray:
    """Boolean array of pixels included in score sums (both eval_masks)."""
    _check_pair(p, y)
    w = np.ones(p.shape, dtype=bool)
    if p.eval_mask is not None:
        w &= p.eval_mask
    if y.eval_mask is not None:
        w &= y.eval_mask
    if not w.any():
        raise ValueError("no scored pixels (eval_mask excludes everything)")
    return w


def _contingency_sums(pv: np.ndarray, yv: np.ndarray) -> tuple[float, float, float, float]:
    """(a, b, c, d) of the probabilistic table over the given scored pixels."""
    a = float(np.sum(pv * yv))
    b = float(np.sum(pv * (1.0 - yv)))
    c = float(np.sum((1.0 - pv) * yv))
    d = float(np.sum((1.0 - pv) * (1.0 - yv)))
    return a, b, c, d


def prob_contingency(p: GridField, y: GridField) -> ContingencyCounts:
    """Accumulate the probabilistic contingency table over scored pixels."""
    w = scored_weights(p, y)
    return ContingencyCounts(*_contingency_sums(p.values[w], y.values[w]))


def nbhd_contingency(p: GridField, y: GridField, half_width: int) -> NbhdContingency:
    """Two-sided neighbourhood contingency at the given half-width.

    Neighbourhood maxima are taken over the full grid (filters see every
    pixel); only the accumulation is restricted to scored pixels.
    """
    if y.kind != "mask":
        raise ValueError("nbhd_contingency needs a binary observation mask")
    w = scored_weights(p, y)
    pv, yv = p.values, y.values
    counts = _nbhd_contingency_arrays(pv, yv, w, half_width)
    return NbhdContingency(*counts)


def _nbhd_contingency_arrays(pv: np.ndarray, yv: np.ndarray, w: np.ndarray,
                             half_width: int) -> tuple[float, float, float, float]:
    pmax = max_filter_array(pv, half_width)
    event_near = max_filter_array(yv, half_width) == 1.0
    obs = w & (yv == 1.0)
    a_obs = float(np.sum(pmax[obs]))
    c = float(np.sum(1.0 - pmax[obs]))
    near = w & event_near
    far = w & ~event_near
    a_pred = float(np.sum(pv[near]))
    b = float(np.sum(1.0 - pv[near]) + np.sum(pv[far]))
    return a_obs, a_pred, b, c


# ---------------------------------------------------------------------------
# Pixelwise scores (raw-array core shared with the loss gradients).

def _pixelwise_arrays(kind: str, pv: np.ndarray, yv: np.ndarray,
                      w: np.ndarray) -> tuple[float, list[str]]:
    g = float(w.sum())
    pv, yv = pv[w], yv[w]
    fallbacks: list[str] = []

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

    a, b, c, d = _contingency_sums(pv, yv)
    n = g

    if kind == "csi":
        denom = a + b + c
        if denom == 0.0:
            fallbacks.append("csi_zero_denominator")
            return 1.0, fallbacks
        return a / denom, fallbacks

    if kind == "heidke":
        n_rand = ((a + b) * (a + c) + (b + d) * (c + d)) / n
        if n - n_rand == 0.0:
            fallbacks.append("heidke_zero_denominator")
            return 0.0, fallbacks
        return (a + d - n_rand) / (n - n_rand), fallbacks

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
            # No observed events: a == 0 exactly, so a/r is taken as 0.
            fallbacks.append("gerrity_zero_event_ratio")
            return (d * r - b - c) / n, fallbacks
        return (a / r + d * r - b - c) / n, fallbacks

    raise ValueError(f"unknown score kind {kind!r}; valid: {SCORE_KINDS}")


def pixelwise_score_detail(kind: str, p: GridField, y: GridField) -> ScoreResult:
    """Pixelwise score of a probability field against a target in [0, 1]."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}; valid: {SCORE_KINDS}")
    w = scored_weights(p, y)
    value, fallbacks = _pixelwise_arrays(kind, p.values, y.values, w)
    return ScoreResult(value, tuple(fallbacks))


def pixelwise_score(kind: str, p: GridField, y: GridField) -> float:
    return pixelwise_score_detail(kind, p, y).value


# ---------------------------------------------------------------------------
# Neighbourhood scores.

def _nbhd_csi_from_counts(a_obs: float, a_pred: float, b: float,
                          c: float) -> tuple[float, list[str]]:
    """CSI = 1 / (1/POD + 1/SR - 1) with factor-level fallbacks."""
    fallbacks: list[str] = []
    inv = 0.0
    pod_den = a_obs + c
    sr_den = a_pred + b
    if pod_den == 0.0:
        fallbacks.append("nbhd_csi_pod_undefined")  # no events: factor perfect
        inv += 1.0
    else:
        if a_obs == 0.0:
            fallbacks.append("nbhd_csi_pod_zero")
            return 0.0, fallbacks
        inv += pod_den / a_obs
    if sr_den == 0.0:
        fallbacks.append("nbhd_csi_sr_undefined")
        inv += 1.0
    else:
        if a_pred == 0.0:
            fallbacks.append("nbhd_csi_sr_zero")
            return 0.0, fallbacks
        inv += sr_den / a_pred
    return 1.0 / (inv - 1.0), fallbacks


def _nbhd_arrays(kind: str, pv: np.ndarray, yv: np.ndarray, w: np.ndarray,
                 half_width: int) -> tuple[float, list[str]]:
    if kind == "csi":
        counts = _nbhd_contingency_arrays(pv, yv, w, half_width)
        return _nbhd_csi_from_counts(*counts)
    if kind == "fss":
        pbar = mean_filter_array(pv, half_width)
        ybar = mean_filter_array(yv, half_width)
        sse = float(np.sum((pbar[w] - ybar[w]) ** 2))
        ref = float(np.sum(pbar[w] ** 2 + ybar[w] ** 2))
        if ref == 0.0:
            return 1.0, ["fss_zero_reference"]
        return 1.0 - sse / ref, []
    # brier, iou, dice, xent: pixelwise formula against the dilated mask.
    ymax = max_filter_array(yv, half_width)
    return _pixelwise_arrays(kind, pv, ymax, w)


def nbhd_score_detail(kind: str, p: GridField, y: GridField,
                      half_width: int) -> ScoreResult:
    """Neighbourhood score of a probability field against a binary mask.

    For brier/iou/dice/xent the observation is replaced by its neighbourhood
    maximum; the ring this dilation adds is charged to every forecast, a
    perfect one included, and a shift of at most ``half_width`` adds nothing
    to that charge.  fss compares neighbourhood means of both fields; csi is
    built from the two-sided neighbourhood contingency.  Contingency-only
    scores (heidke, peirce, gerrity) are rejected.
    """
    if kind not in NBHD_SCORE_KINDS:
        raise ValueError(
            f"no neighbourhood form for {kind!r}; valid: {NBHD_SCORE_KINDS}")
    if y.kind != "mask":
        raise ValueError("neighbourhood scores need a binary observation mask")
    w = scored_weights(p, y)
    value, fallbacks = _nbhd_arrays(kind, p.values, y.values, w, half_width)
    return ScoreResult(value, tuple(fallbacks))


def nbhd_score(kind: str, p: GridField, y: GridField, half_width: int) -> float:
    return nbhd_score_detail(kind, p, y, half_width).value
