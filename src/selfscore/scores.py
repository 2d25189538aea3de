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
Only a ``prob`` or ``mask`` prediction is scored, against a ``mask``
observation (``scored_weights``), so every scored value lies in [0, 1].

Every score is read from one of two records: ``PairSums`` reduces each sum
of a (prediction, target) pair once, for all its scores, and ``NbhdPair``
pairs a prediction with an ``NbhdObs``, which filters an observation once
per half-width, and keeps its contingency as ``PairSums`` keeps its sums.
Each sum is the reduction its score would run alone, so no bit changes.
``PairSums.gradient`` differentiates each score from the same sums and the
same fallback tests as ``PairSums.score``, so a loss and its gradient
cannot take different branches.  ``NbhdPair.gradient`` does the same for
the neighbourhood scores: csi reads its branch from the fallbacks of its
score and routes each observed event's hit to the argmax of the window
maximum the score read, gathering windows around only the pixels that can
be some event's argmax, which one window minimum of the event maxima
finds; fss chains its sums' gradient through the
prediction's window mean, which is its own adjoint; the other four
differentiate their sums against the dilation.

Degenerate denominators never return NaN; each defined fallback is recorded
by name in the returned ``ScoreResult``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import OBS_KINDS, PRED_KINDS, GridField
from .neighbourhood import _padded, _separable, _window_max, max_filter_array, mean_filter_array

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
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ScoreResult:
    """A score value plus the names of any degenerate fallbacks applied."""

    value: float
    fallbacks: tuple[str, ...] = ()


def _observed(y: GridField) -> GridField:
    """``y``, refused unless it is a binary mask: the observation half of
    ``scored_weights``, which targets also check before any filter runs."""
    if y.kind not in OBS_KINDS:
        raise ValueError(f"observations must be binary masks, got kind {y.kind!r}")
    return y


def scored_weights(p: GridField, y: GridField) -> np.ndarray:
    """Boolean array of pixels included in score sums (both eval_masks); the
    one rule of scores, losses and diagnostics.  Refuses with ``ValueError``
    a kind outside ``grid.PRED_KINDS`` or ``grid.OBS_KINDS``, a pair on two
    grids (shape or spacing), or one with no scored pixel."""
    _observed(y)
    if p.kind not in PRED_KINDS:
        raise ValueError(f"predictions must be of kind {' or '.join(PRED_KINDS)}, "
                         f"got kind {p.kind!r}")
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    if p.spacing_deg != y.spacing_deg:
        raise ValueError(f"grid spacing mismatch: {p.spacing_deg!r} vs {y.spacing_deg!r}")
    w = np.ones(p.shape, dtype=bool)
    if p.eval_mask is not None:
        w &= p.eval_mask
    if y.eval_mask is not None:
        w &= y.eval_mask
    if not w.any():
        raise ValueError("no scored pixels (eval_mask excludes everything)")
    return w


def _kept(obj, name: str, make):
    """``obj``'s attribute ``name``, made by ``make()`` on first use and kept;
    unlike ``functools.cached_property`` before Python 3.12, it takes no lock."""
    if name not in vars(obj):
        setattr(obj, name, make())
    return vars(obj)[name]


# ---------------------------------------------------------------------------
# Pixelwise scores: one sums record per pair, shared with the loss path.

def _xent_sum(pv: np.ndarray, yv: np.ndarray) -> float:
    ph = np.clip(pv, XENT_EPS, 1.0 - XENT_EPS)
    return np.sum(yv * np.log2(ph) + (1.0 - yv) * np.log2(1.0 - ph))


# Each sum is the reduction its score would run alone, so sharing changes no bit.
_SUMS = {
    "sse": lambda pv, yv: np.sum((pv - yv) ** 2),
    "ref": lambda pv, yv: np.sum(pv ** 2 + yv ** 2),
    "a": lambda pv, yv: np.sum(pv * yv),
    "b": lambda pv, yv: np.sum(pv * (1.0 - yv)),
    "c": lambda pv, yv: np.sum((1.0 - pv) * yv),
    "d": lambda pv, yv: np.sum((1.0 - pv) * (1.0 - yv)),
    "union": lambda pv, yv: np.sum(np.maximum(pv, yv)),
    "xent": _xent_sum,
}


class PairSums:
    """Sums of a prediction ``pv`` against a target ``yv`` in [0, 1] over the
    scored pixels ``w``, each named in ``_SUMS`` reduced on first use and
    kept; a score and its gradient read the same sums and fallback tests.

    The pixels are gathered only when ``w`` excludes one: a whole
    C-ordered grid gives the same pairwise sums, bit for bit, without the
    copy.  The record then holds the caller's arrays; its sums hold while
    they do not change, as a ``GridField``'s read-only values never do."""

    def __init__(self, pv: np.ndarray, yv: np.ndarray, w: np.ndarray):
        self.pv, self.yv, self.w = pv, yv, w
        self.g = float(w.sum())
        self._pixels = ((pv.ravel(), yv.ravel()) if self.g == w.size
                        else (pv[w], yv[w]))

    def _sum(self, name: str) -> float:
        return _kept(self, name, lambda: float(_SUMS[name](*self._pixels)))

    def score(self, kind: str) -> ScoreResult:
        """The pixelwise score ``kind`` of the pair."""
        s, g = self._sum, self.g
        if kind == "brier":
            return ScoreResult(s("sse") / g)
        if kind == "fss":
            if s("ref") == 0.0:
                return ScoreResult(1.0, ("fss_zero_reference",))
            return ScoreResult(1.0 - s("sse") / s("ref"))
        if kind == "iou":
            if s("union") == 0.0:
                return ScoreResult(1.0, ("iou_zero_union",))
            return ScoreResult(s("a") / s("union"))
        if kind == "dice":
            return ScoreResult((s("a") + s("d")) / g)
        if kind == "xent":
            return ScoreResult(-s("xent") / g)
        if kind == "csi":
            denom = s("a") + s("b") + s("c")
            if denom == 0.0:
                return ScoreResult(1.0, ("csi_zero_denominator",))
            return ScoreResult(s("a") / denom)
        if kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {kind!r}; valid: {SCORE_KINDS}")

        a, b, c, d, n = s("a"), s("b"), s("c"), s("d"), g
        if kind == "heidke":  # n - n_rand as non-negative terms, so no digits cancel
            den = ((a + b) * (b + d) + (a + c) * (c + d)) / n
            if den == 0.0:
                return ScoreResult(0.0, ("heidke_zero_denominator",))
            return ScoreResult((den - b - c) / den)  # a + d - n_rand == den - b - c
        if kind == "peirce":
            if a + c == 0.0 or b + d == 0.0:
                return ScoreResult(0.0, ("peirce_empty_class",))
            return ScoreResult(a / (a + c) - b / (b + d))
        # gerrity
        if b + d == 0.0:
            return ScoreResult(0.0, ("gerrity_zero_denominator",))
        r = (a + c) / (b + d)
        if r == 0.0:
            # No observed events: a == 0 exactly, so a/r is taken as 0.
            return ScoreResult((d * r - b - c) / n, ("gerrity_zero_event_ratio",))
        return ScoreResult((a / r + d * r - b - c) / n)

    def gradient(self, kind: str) -> np.ndarray:
        """d(score kind)/d``pv`` on the whole grid, zero on unscored pixels.
        It follows the branch ``score`` takes: every fallback but gerrity's
        zero event ratio is a constant, with gradient zero.  Per pixel,
        d(a, b, c, d)/dp = (y, 1 - y, -y, y - 1); a + c and b + d are fixed."""
        s, g, p, y = self._sum, self.g, self.pv, self.yv
        # Weights of 1.0 leave every product's bits as they are, so a whole grid needs no array.
        wf = 1.0 if g == self.w.size else self.w.astype(np.float64)
        if kind == "brier":
            return (2.0 / g) * wf * (p - y)
        if kind == "dice":
            return wf * (2.0 * y - 1.0) / g
        if kind == "xent":
            ph = np.clip(p, XENT_EPS, 1.0 - XENT_EPS)
            interior = (p > XENT_EPS) & (p < 1.0 - XENT_EPS)
            return -(wf * interior / (g * _LN2)) * (y / ph - (1.0 - y) / (1.0 - ph))
        if self.score(kind).fallbacks not in ((), ("gerrity_zero_event_ratio",)):
            return np.zeros_like(p)
        if kind == "fss":
            return -wf * (2.0 * (p - y) * s("ref") - s("sse") * 2.0 * p) / s("ref") ** 2
        if kind == "iou":
            sigma = np.where(p > y, 1.0, np.where(p == y, 0.5, 0.0))  # d max(p, y)/dp
            return wf * (y * s("union") - s("a") * sigma) / s("union") ** 2
        a, b, c, d, n = s("a"), s("b"), s("c"), s("d"), g
        if kind == "csi":
            return wf * (y * (a + b + c) - a * (1.0 - y)) / (a + b + c) ** 2
        if kind == "heidke":
            den = ((a + b) * (b + d) + (a + c) * (c + d)) / n  # n - n_rand, as in score
            kappa = ((a + c) - (b + d)) / n  # d(n_rand)/dp = -d(den)/dp
            return wf * ((2.0 * y - 1.0 - kappa) * den + (den - b - c) * kappa) / den ** 2
        if kind == "peirce":
            return wf * (y / (a + c) - (1.0 - y) / (b + d))
        r = (a + c) / (b + d)  # gerrity
        if r == 0.0:
            return wf * (2.0 * y - 1.0) / n
        return wf * (y * (1.0 + 1.0 / r) - (1.0 - y) * (1.0 + r)) / n


# ---------------------------------------------------------------------------
# Neighbourhood scores: one filtered observation per half-width.

class NbhdObs:
    """A binary observation mask ``yv`` at neighbourhood half-width ``r``: its
    dilation, event-in-reach mask and window mean, each made on first use.
    Filters see the full grid; only sums are restricted to scored pixels."""

    def __init__(self, yv: np.ndarray, r: int):
        self.yv, self.r = yv, r

    @property
    def dilated(self) -> np.ndarray:
        return _kept(self, "_dilated", lambda: max_filter_array(self.yv, self.r))

    @property
    def event_near(self) -> np.ndarray:
        return _kept(self, "_event_near", lambda: self.dilated == 1.0)

    @property
    def mean(self) -> np.ndarray:
        return _kept(self, "_mean", lambda: mean_filter_array(self.yv, self.r))


#: Window values per block of the window gather: 2**17 float64 (1 MiB) at any r.
_WINDOW_VALUES = 2 ** 17


def _near_window_max(pair: NbhdPair, margin: float):
    """Each (event, pixel) pair where the pixel lies within ``margin`` of the
    scored observed event's (2r+1)^2 window maximum m, the zero-padded one
    ``pair``'s contingency reads (for a prediction >= 0, the in-grid
    maximum), by the test ``m - p <= margin``.  Since ``fl(m - p)`` grows
    with m, a pixel is near some event exactly when it is near the least
    event maximum in its reach: one window minimum of the event maxima (+inf
    at non-events and beyond the edge) finds these candidate pixels, and
    only the candidates' windows of event maxima are gathered, in blocks of
    ``_WINDOW_VALUES``.  Returns ``(events, pixels, counts)``: the flat
    indices of each pair, ordered by pixel and then by window row, so each
    pixel's events come in event order; and, per flat index, the number of
    pixels near it as an event."""
    (pmax, is_event), r, pv = pair._obs_pass(), pair.obs.r, pair.pv
    emax = np.where(is_event, pmax, np.inf)
    least = -_separable(-emax, r, _window_max, -np.inf)
    candidates = np.flatnonzero(least - pv <= margin)
    view = sliding_window_view(_padded(emax, r, np.inf), (2 * r + 1,) * 2)
    cols, size = pv.shape[1], (2 * r + 1) ** 2
    # The flat offset of each window cell from the window's centre.
    reach = (np.arange(-r, r + 1)[:, None] * cols + np.arange(-r, r + 1)).ravel()
    block = max(1, _WINDOW_VALUES // size)
    events, pixels = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for s in range(0, candidates.size, block):
        q = candidates[s:s + block]
        windows = view[q // cols, q % cols]  # a copy, overwritten with the distance to p
        near = np.subtract(windows, pv.flat[q][:, None, None], out=windows) <= margin
        k, t = np.divmod(np.flatnonzero(near), size)
        pixels.append(q[k])
        events.append(pixels[-1] + reach[t])
    events, pixels = np.concatenate(events), np.concatenate(pixels)
    return events, pixels, np.bincount(events, minlength=pv.size)


def _obs_window_max_grad(pair: NbhdPair) -> np.ndarray:
    """d(a_obs)/dp: each scored observed event routes weight to its window
    argmax.  Exact ties within a window split the unit weight equally."""
    events, pixels, counts = _near_window_max(pair, 0.0)
    # bincount adds in input order: each pixel's shares in event order, as a loop adds.
    return np.bincount(pixels, 1.0 / counts[events], pair.pv.size).reshape(pair.pv.shape)


class NbhdPair:
    """One prediction ``pv`` against an ``NbhdObs`` over the scored pixels
    ``w``: brier, iou, dice and xent share one sums record against the
    dilation; csi reads the two-sided contingency, fss the window means.
    Each is made on first use and kept, so the record filters ``pv`` once
    and reduces its contingency once, for its scores and gradients alike."""

    def __init__(self, pv: np.ndarray, obs: NbhdObs, w: np.ndarray):
        self.pv, self.obs, self.w = pv, obs, w

    def _obs_pass(self) -> tuple[np.ndarray, np.ndarray]:
        """The prediction's window maximum and the scored observed events."""
        return _kept(self, "_pmax_events", lambda: (max_filter_array(self.pv, self.obs.r),
                                                    self.w & (self.obs.yv == 1.0)))

    def _near_far(self) -> tuple[np.ndarray, np.ndarray]:
        """The scored pixels with an observed event in reach, and the rest."""
        return _kept(self, "_near_far_masks", lambda: (self.w & self.obs.event_near,
                                                       self.w & ~self.obs.event_near))

    def contingency(self) -> tuple[float, float, float, float]:
        """(a_obs, a_pred, b, c) of the two-sided contingency, reduced on each
        call; csi's score and gradient read one reduction, kept."""
        pmax, events = self._obs_pass()
        near, far = self._near_far()
        q, p = pmax[events], self.pv[near]
        a_obs, c = float(np.sum(q)), float(np.sum(1.0 - q))
        a_pred = float(np.sum(p))
        b = float(np.sum(1.0 - p) + np.sum(self.pv[far]))
        return a_obs, a_pred, b, c

    def sums(self, kind: str) -> PairSums:
        """The sums record of ``kind`` (not csi): the window means of both
        fields for fss, else the prediction against the dilation."""
        if kind == "fss":
            return _kept(self, "_fss", lambda: PairSums(
                mean_filter_array(self.pv, self.obs.r), self.obs.mean, self.w))
        return _kept(self, "_sums", lambda: PairSums(self.pv, self.obs.dilated, self.w))

    def score(self, kind: str) -> ScoreResult:
        """The neighbourhood score ``kind`` (one of ``NBHD_SCORE_KINDS``)."""
        if kind == "csi":
            value, fallbacks = _nbhd_csi_from_counts(*_kept(self, "_counts", self.contingency))
            return ScoreResult(value, tuple(fallbacks))
        return self.sums(kind).score(kind)

    def gradient(self, kind: str) -> np.ndarray:
        """d(score kind)/d``pv`` on the whole grid, following the branch
        ``score`` takes.  Through the prediction's window mean (fss) or
        argmax (csi), an unscored pixel that reaches a scored window
        receives gradient."""
        if kind == "fss":
            # The zero-padded window mean with a fixed divisor is its own adjoint.
            return mean_filter_array(self.sums(kind).gradient(kind), self.obs.r)
        if kind != "csi":
            return self.sums(kind).gradient(kind)
        fallbacks = self.score(kind).fallbacks
        if fallbacks not in ((), ("nbhd_csi_pod_undefined",)):
            return np.zeros_like(self.pv)  # a constant branch
        a_obs, a_pred, b, c = _kept(self, "_counts", self.contingency)
        pod_den, sr_den = a_obs + c, a_pred + b
        e, not_e = (mask.astype(np.float64) for mask in self._near_far())
        if fallbacks:  # CSI == SR = a_pred / sr_den;  d a_pred = e,  d sr_den = not_e
            return (e * sr_den - a_pred * not_e) / sr_den ** 2
        da_obs = _obs_window_max_grad(self)
        inv = pod_den / a_obs + sr_den / a_pred - 1.0
        csi = 1.0 / inv
        dinv = (-pod_den / a_obs ** 2 * da_obs
                + (not_e * a_pred - sr_den * e) / a_pred ** 2)
        return -(csi ** 2) * dinv


def _nbhd_csi_from_counts(a_obs: float, a_pred: float, b: float,
                          c: float) -> tuple[float, list[str]]:
    """CSI = 1 / (1/POD + 1/SR - 1); a factor with a zero denominator
    counts as perfect, and one with zero hits makes CSI 0."""
    fallbacks: list[str] = []
    inv = 0.0
    for name, hits, den in (("pod", a_obs, a_obs + c), ("sr", a_pred, a_pred + b)):
        if den == 0.0:
            fallbacks.append(f"nbhd_csi_{name}_undefined")
            inv += 1.0
        elif hits == 0.0:
            fallbacks.append(f"nbhd_csi_{name}_zero")
            return 0.0, fallbacks
        else:
            inv += den / hits
    return 1.0 / (inv - 1.0), fallbacks
