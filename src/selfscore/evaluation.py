"""Probabilistic evaluation diagnostics: reliability, performance, bootstrap.

The attributes (reliability) diagram bins forecast probabilities into 20
fixed-width bins (0.00-0.05, ..., 0.95-1.00, last bin closed) and compares
the mean forecast in each bin with the observed event frequency.  The
reliability term REL is the count-weighted mean squared gap; the Brier
skill score BSS = 1 - BS / BS_clim uses the sample base rate as climatology,
so a forecast constantly equal to the base rate has BSS = 0 exactly.

Consistency bars answer "how far could a perfectly reliable forecast stray
from the diagonal by luck?": each bin's observed frequency is resampled as
Bernoulli draws at the bin's mean forecast, and a central percentile
interval of the resampled frequencies is reported.

The performance diagram binarises the forecast at each threshold and plots
POD against success ratio SR; AUPD is the trapezoidal area under that
curve, with the polyline anchored at (SR, POD) = (1, 0) for thresholds
above every forecast and extended horizontally to SR = 0 from its leftmost
point, so a perfect forecast scores exactly 1.

Bootstrap confidence intervals resample whole time steps with replacement
(percentile method); the paired test resamples the same steps for both
models and doubles the smaller tail of the difference distribution.  Their
statistics are the pooled BS and BSS: a resample adds up its steps' squared
errors, events and scored pixels (``brier_parts``) before dividing.  Every
diagnostic counts the pixels of ``scores.scored_weights``, the scores' rule.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import GridField, write_csv, write_json
from .scores import scored_weights

N_PROB_BINS = 20
PROB_BIN_EDGES = np.linspace(0.0, 1.0, N_PROB_BINS + 1)
SUMMARY_KEYS = ("rel", "bss", "bs", "bs_clim", "base_rate", "n_scored", "aupd")
_TAIL_PCT = 100.0 * (1.0 - 0.95) / 2.0  # each tail of a 95 % interval, in %; not 2.5 exactly
_REPORT_FILES = ("report.json", "report.csv")  # what emit_report writes under its out_dir


def _scored_steps(pred_fields, obs_fields) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each time step's scored (prediction, observation) pixels: a field or a
    sequence of fields per side, each pair gathered by ``scored_weights``."""
    preds, obs = ([f] if isinstance(f, GridField) else list(f)
                  for f in (pred_fields, obs_fields))
    if not preds or len(preds) != len(obs):
        raise ValueError(f"{len(preds)} prediction fields vs {len(obs)} observation fields")
    weights = [scored_weights(p, y) for p, y in zip(preds, obs)]
    return [(p.values[w], y.values[w]) for p, y, w in zip(preds, obs, weights)]


def _stack_scored(pred_fields, obs_fields) -> tuple[np.ndarray, np.ndarray]:
    """Flatten scored (prediction, observation) pixel pairs across time steps."""
    pv, yv = zip(*_scored_steps(pred_fields, obs_fields))
    return np.concatenate(pv), np.concatenate(yv)


@dataclass
class AttributesData:
    """Binned reliability data plus the decomposition summary."""

    bin_edges: np.ndarray
    bin_counts: np.ndarray
    bin_mean_forecast: np.ndarray  # NaN where a bin is empty
    bin_event_freq: np.ndarray     # NaN where a bin is empty
    rel: float
    bss: float
    bs: float
    bs_clim: float
    base_rate: float
    n_scored: int
    fallbacks: tuple[str, ...] = ()
    consistency_lo: np.ndarray | None = field(default=None)
    consistency_hi: np.ndarray | None = field(default=None)


def attributes_diagram(pred_fields, obs_fields) -> AttributesData:
    """Reliability curve over 20 probability bins, REL, and BSS."""
    pv, yv = _stack_scored(pred_fields, obs_fields)
    n = pv.size
    # Multiply rather than divide by the bin width: p * 20 is exact at every
    # 0.05 edge, p / 0.05 rounds six of them into the bin below.
    idx = np.minimum(np.floor(pv * N_PROB_BINS).astype(np.int64), N_PROB_BINS - 1)
    counts = np.bincount(idx, minlength=N_PROB_BINS).astype(np.float64)
    sum_p = np.bincount(idx, weights=pv, minlength=N_PROB_BINS)
    sum_y = np.bincount(idx, weights=yv, minlength=N_PROB_BINS)
    with np.errstate(invalid="ignore"):
        mean_p = np.where(counts > 0, sum_p / counts, np.nan)
        freq = np.where(counts > 0, sum_y / counts, np.nan)
    keep = counts > 0
    rel = float(np.sum(counts[keep] * (mean_p[keep] - freq[keep]) ** 2) / n)
    bs = float(np.mean((pv - yv) ** 2))
    base_rate = float(np.mean(yv))
    bs_clim = float(np.mean((base_rate - yv) ** 2))
    bss = 0.0 if bs_clim == 0.0 else 1.0 - bs / bs_clim
    return AttributesData(
        bin_edges=PROB_BIN_EDGES.copy(), bin_counts=counts.astype(np.int64),
        bin_mean_forecast=mean_p, bin_event_freq=freq, rel=rel, bss=bss,
        bs=bs, bs_clim=bs_clim, base_rate=base_rate, n_scored=int(n),
        fallbacks=("bss_zero_climatology",) if bs_clim == 0.0 else ())


def brier_parts(pred_fields, obs_fields) -> list[tuple[float, float, float]]:
    """(sum of squared errors, sum of events, scored pixel count) per step."""
    return [(float(np.sum((pv - yv) ** 2)), float(np.sum(yv)), float(pv.size))
            for pv, yv in _scored_steps(pred_fields, obs_fields)]


def pooled_bs(parts: Sequence[tuple[float, float, float]]) -> float:
    """Brier score pooled over the steps of :func:`brier_parts`."""
    return sum(p[0] for p in parts) / sum(p[2] for p in parts)


def pooled_bss(parts: Sequence[tuple[float, float, float]]) -> float:
    """Pooled BSS against the pooled base rate; 0 if that has no variance."""
    base = sum(p[1] for p in parts) / sum(p[2] for p in parts)
    bs_clim = base * (1.0 - base)  # mean((base - y)^2) for binary y
    return 0.0 if bs_clim == 0.0 else 1.0 - pooled_bs(parts) / bs_clim


def consistency_bars(attr: AttributesData, n_boot: int = 100,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Resampling interval for each bin's event frequency under reliability.

    For every nonempty bin, draws ``n_boot`` binomial samples of the bin
    size at probability equal to the bin's mean forecast and returns the
    central 95 % percentile interval of the resampled frequencies.
    The intervals are also stored on ``attr``.
    """
    if n_boot < 1:
        raise ValueError(f"n_boot must be >= 1, got {n_boot}")
    rng = np.random.default_rng(seed)
    lo = np.full(N_PROB_BINS, np.nan)
    hi = np.full(N_PROB_BINS, np.nan)
    for k in range(N_PROB_BINS):
        n_k = int(attr.bin_counts[k])
        if n_k == 0:
            continue
        draws = rng.binomial(n_k, attr.bin_mean_forecast[k], size=n_boot) / n_k
        lo[k], hi[k] = np.percentile(draws, [_TAIL_PCT, 100.0 - _TAIL_PCT])
    attr.consistency_lo = lo
    attr.consistency_hi = hi
    return lo, hi


@dataclass
class PerformanceData:
    """Threshold-swept contingency curves and the area under (SR, POD)."""

    thresholds: np.ndarray
    pod: np.ndarray
    sr: np.ndarray    # NaN where no positive forecasts
    csi: np.ndarray
    bias: np.ndarray  # NaN where SR is 0 or undefined
    aupd: float
    n_events: int
    fallbacks: tuple[str, ...] = ()


def aupd_from_curve(sr: np.ndarray, pod: np.ndarray) -> float:
    """Trapezoidal area under a (SR, POD) point set, clipped to [0, 1].

    NaN points are dropped; the polyline is anchored at (1, 0) on the right
    and extended horizontally to SR = 0 from its leftmost point, then sorted
    by SR.  A curve pinned at POD = 1 therefore integrates to exactly 1.
    """
    sr = np.asarray(sr, dtype=np.float64)
    pod = np.asarray(pod, dtype=np.float64)
    ok = np.isfinite(sr) & np.isfinite(pod)
    sr, pod = sr[ok], pod[ok]
    if sr.size == 0:
        return 0.0
    order = np.argsort(sr, kind="stable")
    sr, pod = sr[order], pod[order]
    xs = np.concatenate(([0.0], sr, [1.0]))
    ys = np.concatenate(([pod[0]], pod, [0.0]))
    area = float(np.sum(np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0))
    return float(np.clip(area, 0.0, 1.0))


def performance_diagram(pred_fields, obs_fields,
                        thresholds: Sequence[float] | None = None) -> PerformanceData:
    """POD/SR/CSI/bias at each probability threshold, plus AUPD.  The hits and
    false alarms at every threshold are counted at once, from sorted pixels."""
    if thresholds is None:
        thresholds = np.linspace(0.0, 1.0, 101)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    pv, yv = _stack_scored(pred_fields, obs_fields)
    events = yv == 1.0
    n1 = int(events.sum())
    pod = np.full(thresholds.size, np.nan)
    sr = np.full(thresholds.size, np.nan)
    csi = np.full(thresholds.size, np.nan)
    bias = np.full(thresholds.size, np.nan)
    if n1 == 0:
        return PerformanceData(thresholds, pod, sr, csi, bias, 0.0, 0, ("no_events",))
    a, b = (float(x.size) - np.searchsorted(np.sort(x), thresholds).astype(np.float64)
            for x in (pv[events], pv[~events]))
    c = float(n1) - a
    pod = a / (a + c)
    flagged, scored = a + b > 0, a + b + c > 0
    sr[flagged] = a[flagged] / (a + b)[flagged]
    biased = flagged & (sr > 0)
    bias[biased] = pod[biased] / sr[biased]
    csi[scored] = a[scored] / (a + b + c)[scored]
    aupd = aupd_from_curve(sr, pod)
    return PerformanceData(thresholds, pod, sr, csi, bias, aupd, n1)


# ---------------------------------------------------------------------------
# Bootstrap machinery (resampling unit = time step).

def _resampled(stat: Callable[[list], float], samples: list, n_boot: int,
               seed: int) -> np.ndarray:
    """``stat`` of ``n_boot`` resamples of ``samples``, each drawn with
    replacement, whole samples at a time; the one loop of both bootstraps."""
    if not samples:
        raise ValueError("need at least one sample")
    if n_boot < 1:
        raise ValueError(f"n_boot must be >= 1, got {n_boot}")
    rng = np.random.default_rng(seed)
    n = len(samples)
    out = np.empty(n_boot)
    for i in range(n_boot):
        idx = rng.integers(0, n, size=n)
        out[i] = stat([samples[j] for j in idx])
    return out


def bootstrap_ci(stat: Callable[[list], float], samples: Sequence,
                 n_boot: int = 1000, seed: int = 0) -> tuple[float, float, float]:
    """Percentile bootstrap interval for a statistic of a sample list.

    Returns ``(point, lo, hi)`` where ``point`` is the statistic on the full
    sample and the interval holds the central 95 % mass of the
    statistic over ``n_boot`` resamples (drawn with replacement, whole
    samples at a time).  Deterministic for a fixed seed.
    """
    samples = list(samples)
    boots = _resampled(stat, samples, n_boot, seed)
    lo, hi = np.percentile(boots, [_TAIL_PCT, 100.0 - _TAIL_PCT])
    return float(stat(samples)), float(lo), float(hi)


@dataclass(frozen=True)
class PairedTestResult:
    """Outcome of a paired bootstrap comparison of two models."""

    diff: float     # stat_a - stat_b on the full sample
    p_value: float  # doubled smaller tail, capped at 1
    significant_95: bool


def paired_bootstrap_test(stat_a: Callable[[list], float],
                          stat_b: Callable[[list], float],
                          samples: Sequence, n_boot: int = 1000,
                          seed: int = 0) -> PairedTestResult:
    """Two-sided paired bootstrap test of stat_a vs stat_b.

    Each iteration resamples one set of time steps and evaluates both
    statistics on it, so sampling noise is shared.  The p-value doubles the
    smaller tail of the resampled difference distribution (capped at 1);
    identical statistics give p = 1.
    """
    samples = list(samples)
    diffs = _resampled(lambda chosen: stat_a(chosen) - stat_b(chosen), samples, n_boot, seed)
    point = float(stat_a(samples) - stat_b(samples))
    tail = min(float(np.mean(diffs <= 0.0)), float(np.mean(diffs >= 0.0)))
    p_value = min(1.0, 2.0 * tail)
    return PairedTestResult(point, p_value, p_value < 0.05)


# ---------------------------------------------------------------------------
# Report serialisation.

def _listify(arr) -> list:
    """ndarray -> list with NaN mapped to None (JSON null)."""
    out = []
    for x in np.asarray(arr).tolist():
        out.append(None if isinstance(x, float) and math.isnan(x) else x)
    return out


def report_dict(attr: AttributesData, perf: PerformanceData) -> dict:
    """The documented report schema as plain JSON-ready data."""
    return {
        "attributes": {
            "bin_edges": _listify(attr.bin_edges),
            "bin_counts": _listify(attr.bin_counts),
            "bin_mean_forecast": _listify(attr.bin_mean_forecast),
            "bin_event_freq": _listify(attr.bin_event_freq),
            "consistency_lo": None if attr.consistency_lo is None else _listify(attr.consistency_lo),
            "consistency_hi": None if attr.consistency_hi is None else _listify(attr.consistency_hi),
            "fallbacks": list(attr.fallbacks),
        },
        "performance": {
            "thresholds": _listify(perf.thresholds),
            "pod": _listify(perf.pod),
            "sr": _listify(perf.sr),
            "csi": _listify(perf.csi),
            "bias": _listify(perf.bias),
            "n_events": perf.n_events,
            "fallbacks": list(perf.fallbacks),
        },
        "summary": {key: getattr(perf if key == "aupd" else attr, key) for key in SUMMARY_KEYS},
    }


def emit_report(attr: AttributesData, perf: PerformanceData, out_dir: str | os.PathLike,
                extra_sections: dict | None = None) -> tuple[str, str]:
    """Write ``report.json`` and ``report.csv`` under ``out_dir`` atomically.

    The CSV holds one row per probability bin, one per threshold, and one
    per summary key; empty cells mean "undefined here".  ``extra_sections``
    (e.g. bootstrap intervals) are merged into the JSON document only.
    Returns the two paths.
    """
    json_path, csv_path = (os.path.join(out_dir, name) for name in _REPORT_FILES)
    data = report_dict(attr, perf)
    if extra_sections:
        data.update(extra_sections)
    write_json(json_path, data)

    lo, hi = ([None] * N_PROB_BINS if bounds is None else bounds
              for bounds in (attr.consistency_lo, attr.consistency_hi))
    rows = [["bin", k, attr.bin_counts[k], attr.bin_mean_forecast[k], attr.bin_event_freq[k],
             lo[k], hi[k], *[None] * 5] for k in range(N_PROB_BINS)]
    rows += [["threshold", tau, *[None] * 5, *curve, None]
             for tau, *curve in zip(perf.thresholds, perf.pod, perf.sr, perf.csi, perf.bias)]
    rows += [["summary", key, *[None] * 9, data["summary"][key]] for key in SUMMARY_KEYS]
    write_csv(csv_path, ["row_type", "label", "count", "mean_forecast", "event_freq",
                         "ci_lo", "ci_hi", "pod", "sr", "csi", "bias", "value"], rows)
    return json_path, csv_path

