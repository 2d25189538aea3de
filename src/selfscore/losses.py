"""Spatially enhanced loss functions: score + spatial filter, differentiable.

A loss configuration pairs one of the nine scores with a spatial filter:

* ``nbhd_r<k>``  -- neighbourhood filter of half-width k, applied inside the
  loss (six scores only; the contingency scores have no neighbourhood form);
* ``F<lo>-<hi>`` -- Fourier band-pass in degrees ("inf" for no upper bound);
* ``W<lo>-<hi>`` -- wavelet band-pass.

The canonical census is 336 configurations: 6 scores x 8 half-widths
{0, 1, 2, 3, 4, 6, 8, 12} plus 9 scores x 16 wavelength bands x 2 spectral
methods.  Spec ids look like ``fss_nbhd_r4`` or ``brier_W0.1-inf``.

Training targets (``prepare_targets``) and evaluation (``metric_tables``)
share one filter walk, ``_filtered``, and one target constructor: the
observation is filtered, then clamped back to [0, 1].  Training leaves the
predictions raw, so gradients never flow through a spectral transform;
evaluation filters and clamps them too.  The two intentionally differ.

Losses are negatively oriented: loss = score for brier/xent, 1 - score for
the rest.  Every score and gradient is read through one record dispatch,
``_record``: a ``PairSums`` against a spectral target or an ``NbhdPair``
with a neighbourhood one.  So ``loss_gradient`` is the exact derivative of
``loss_value``, from the same sums and the same fallback tests (a constant
fallback has gradient zero).  ``grad_check`` verifies the gradient against
central finite differences away from non-smooth points.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .fourier import fourier_band_pass, fourier_band_passes, fourier_spectrum, fourier_stages
from .grid import GridField, WavelengthBand
from .neighbourhood import max_filter, max_filter_array, mean_filter
from .scores import (NBHD_SCORE_KINDS, ORIENTATION, SCORE_KINDS, XENT_EPS,
                     NbhdObs, NbhdPair, PairSums, ScoreResult, _near_window_max,
                     nbhd_score_detail, pixelwise_score_detail, scored_weights)
from .wavelet import (wavelet_band_pass, wavelet_band_passes, wavelet_decompose,
                      wavelet_stages)

NBHD_HALF_WIDTHS = (0, 1, 2, 3, 4, 6, 8, 12)

_OCTAVE_EDGES = (0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6)
_SPLIT_EDGES = (0.1, 0.2, 0.4, 0.8)

#: The 16 wavelength bands of the census: the 8 contiguous octave bands plus
#: 4 low-pass / 4 high-pass splits.
CENSUS_BANDS = tuple(
    [WavelengthBand(0.0, _OCTAVE_EDGES[0])]
    + [WavelengthBand(lo, hi) for lo, hi in zip(_OCTAVE_EDGES, _OCTAVE_EDGES[1:])]
    + [WavelengthBand(_OCTAVE_EDGES[-1], math.inf)]
    + [WavelengthBand(0.0, x) for x in _SPLIT_EDGES]
    + [WavelengthBand(x, math.inf) for x in _SPLIT_EDGES]
)

SPECTRAL_METHODS = ("F", "W")


def _format_edge(x: float) -> str:
    """The shortest positional form that reads back as ``x`` (no exponent,
    which the id grammar has no room for)."""
    return "inf" if math.isinf(x) else np.format_float_positional(x, trim="-")


def _band_id(method: str, band: WavelengthBand) -> str:
    return f"{method}{_format_edge(band.lo_deg)}-{_format_edge(band.hi_deg)}"


def _check_filter_args(spectral: bool, half_width: int | None,
                       band: WavelengthBand | None) -> None:
    """A spectral filter takes a band only, a neighbourhood filter a
    half-width >= 0 only."""
    if spectral:
        if band is None or half_width is not None:
            raise ValueError("spectral filters take a wavelength band and no half_width")
    elif half_width is None or half_width < 0 or band is not None:
        raise ValueError("neighbourhood filters take a half_width >= 0 and no band")


_BAND_RE = re.compile(r"([FW])([0-9.]+|inf)-([0-9.]+|inf)", flags=re.IGNORECASE)


def _parse_band(text: str) -> tuple[str, WavelengthBand] | None:
    """``F<lo>-<hi>`` or ``W<lo>-<hi>`` as (method, band); None for any
    other form.  Raises ValueError for edges that make no band."""
    m = _BAND_RE.fullmatch(text)
    if m is None:
        return None
    return m.group(1).upper(), WavelengthBand(float(m.group(2)), float(m.group(3)))


@dataclass(frozen=True)
class LossSpec:
    """One loss configuration: a score kind plus a spatial filter."""

    score: str
    filter_kind: str  # "nbhd", "F", or "W"
    half_width: int | None = None
    band: WavelengthBand | None = None
    filter_id: str = field(init=False, repr=False, compare=False)  # formatted once
    spec_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.score not in SCORE_KINDS:
            raise ValueError(f"unknown score {self.score!r}; valid: {SCORE_KINDS}")
        if self.filter_kind not in ("nbhd", *SPECTRAL_METHODS):
            raise ValueError(f"filter_kind must be 'nbhd', 'F' or 'W', got {self.filter_kind!r}")
        if self.filter_kind == "nbhd" and self.score not in NBHD_SCORE_KINDS:
            raise ValueError(
                f"{self.score} has no neighbourhood form; valid: {NBHD_SCORE_KINDS}")
        _check_filter_args(self.is_spectral, self.half_width, self.band)
        filter_id = (_band_id(self.filter_kind, self.band) if self.is_spectral
                     else f"nbhd_r{self.half_width}")
        object.__setattr__(self, "filter_id", filter_id)
        object.__setattr__(self, "spec_id", f"{self.score}_{filter_id}")

    @property
    def is_spectral(self) -> bool:
        return self.filter_kind in SPECTRAL_METHODS


_SPEC_GRAMMAR = ("<score>_nbhd_r<half_width> | <score>_F<lo>-<hi> | "
                 "<score>_W<lo>-<hi>  (wavelengths in degrees, 'inf' allowed; "
                 f"scores: {', '.join(SCORE_KINDS)})")


def parse_spec_id(spec_id: str) -> LossSpec:
    """Parse a spec id like ``fss_nbhd_r4`` or ``brier_W0.1-inf``."""
    score, sep, rest = spec_id.strip().partition("_")
    try:
        if not sep:
            raise ValueError("missing filter part")
        if score.lower() not in SCORE_KINDS:
            raise ValueError(f"unknown score {score!r}")
        m = re.fullmatch(r"nbhd_r(\d+)", rest, flags=re.IGNORECASE)
        if m:
            return LossSpec(score.lower(), "nbhd", half_width=int(m.group(1)))
        spectral = _parse_band(rest)
        if spectral is None:
            raise ValueError("unrecognised filter part")
        return LossSpec(score.lower(), spectral[0], band=spectral[1])
    except ValueError as exc:
        raise ValueError(f"bad spec id {spec_id!r} ({exc}); grammar: {_SPEC_GRAMMAR}") from exc


_FILTER_GRAMMAR = ("nbhd_max_r<half_width> | nbhd_mean_r<half_width> | "
                   "F<lo>-<hi> | W<lo>-<hi>  (wavelengths in degrees, "
                   "'inf' allowed)")


@dataclass(frozen=True)
class FilterSpec:
    """A standalone spatial filter (no score attached)."""

    kind: str  # "nbhd_max" | "nbhd_mean" | "F" | "W"
    half_width: int | None = None
    band: WavelengthBand | None = None

    def __post_init__(self):
        if self.kind not in ("nbhd_max", "nbhd_mean", *SPECTRAL_METHODS):
            raise ValueError(f"kind must be 'nbhd_max', 'nbhd_mean', 'F' or 'W', got {self.kind!r}")
        _check_filter_args(self.kind in SPECTRAL_METHODS, self.half_width, self.band)

    @property
    def filter_id(self) -> str:
        if self.kind in SPECTRAL_METHODS:
            return _band_id(self.kind, self.band)
        return f"{self.kind}_r{self.half_width}"


def parse_filter_id(filter_id: str) -> FilterSpec:
    """Parse a standalone filter id like ``nbhd_max_r4`` or ``F0.5-2``."""
    text = filter_id.strip()
    try:
        m = re.fullmatch(r"nbhd_(max|mean)_r(\d+)", text, flags=re.IGNORECASE)
        if m:
            return FilterSpec(f"nbhd_{m.group(1).lower()}", half_width=int(m.group(2)))
        spectral = _parse_band(text)
        if spectral is None:
            raise ValueError("unrecognised filter id")
        return FilterSpec(spectral[0], band=spectral[1])
    except ValueError as exc:
        raise ValueError(f"bad filter id {filter_id!r} ({exc}); grammar: {_FILTER_GRAMMAR}") from exc


def _spectral(method: str):
    """(one-field band-pass, per-field transform, many-field band-pass) of a
    spectral method.  The names are looked up at each call, so a function
    rebound on this module (a tracer's or a test's wrapper) is the one used."""
    if method == "F":
        return fourier_band_pass, fourier_spectrum, fourier_band_passes
    return wavelet_band_pass, wavelet_decompose, wavelet_band_passes


def apply_filter(field: GridField, fspec: FilterSpec) -> GridField:
    """Apply a standalone filter to a field."""
    if fspec.kind in SPECTRAL_METHODS:
        return _spectral(fspec.kind)[0](field, fspec.band)
    nbhd_filter = max_filter if fspec.kind == "nbhd_max" else mean_filter
    return nbhd_filter(field, fspec.half_width)


def filter_stages(field: GridField, fspec: FilterSpec) -> dict[str, np.ndarray]:
    """A spectral filter's pipeline stages by name, for inspection; a
    neighbourhood filter has none (``{}``)."""
    stages = {"F": fourier_stages, "W": wavelet_stages}.get(fspec.kind)
    return {} if stages is None else stages(field, fspec.band)


def enumerate_configs() -> list[LossSpec]:
    """The full census: 48 neighbourhood + 288 scale-separation configs."""
    configs = [LossSpec(score, "nbhd", half_width=r)
               for score in NBHD_SCORE_KINDS for r in NBHD_HALF_WIDTHS]
    configs += [LossSpec(score, method, band=band)
                for method in SPECTRAL_METHODS
                for score in SCORE_KINDS
                for band in CENSUS_BANDS]
    return configs


def _clamped(filtered: GridField) -> GridField:
    return GridField(np.clip(filtered.values, 0.0, 1.0), filtered.spacing_deg, "prob",
                     filtered.eval_mask)


def _filtered(specs: list[LossSpec], fields: list[GridField]):
    """Group ``specs`` by filter (first-seen order per kind); yield each group
    with its outputs for ``fields``: the fields for a neighbourhood group (its
    records filter), else each band-passed from one transform per method."""
    groups: dict[str, list[LossSpec]] = {}
    for spec in specs:
        groups.setdefault(spec.filter_id, []).append(spec)
    for kind in ("nbhd", *SPECTRAL_METHODS):
        kind_groups = [group for group in groups.values() if group[0].filter_kind == kind]
        if kind != "nbhd" and kind_groups:
            _, transform, band_passes = _spectral(kind)
            transforms = [transform(f) for f in fields]
        for group in kind_groups:
            yield group, fields if kind == "nbhd" else band_passes(transforms, group[0].band)


@dataclass(frozen=True)
class PreparedTarget:
    """Observations readied for a loss: filtered once, reusable across time
    steps and across every score that shares the filter.

    ``clamp_max_abs`` records how far the spectral filter output had to be
    clamped to return to [0, 1] (0 for neighbourhood specs).  ``nbhd`` holds
    a neighbourhood spec's filtered masks, made on first use (else None).
    """

    spec: LossSpec
    observed: GridField
    filtered: GridField
    clamp_max_abs: float = 0.0
    nbhd: NbhdObs | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nbhd", None if self.spec.is_spectral
                           else NbhdObs(self.observed.values, self.spec.half_width))


def _target(spec: LossSpec, y: GridField, out: GridField) -> PreparedTarget:
    """``y``'s target for ``spec`` from its filter output ``out``: clamped
    to [0, 1] for a spectral spec, the mask itself for a neighbourhood one."""
    if not spec.is_spectral:
        if y.kind != "mask":
            raise ValueError("neighbourhood scores need a binary observation mask")
        return PreparedTarget(spec, y, y)
    filtered = _clamped(out)
    return PreparedTarget(spec, y, filtered,
                          float(np.max(np.abs(out.values - filtered.values))))


def prepare_targets(specs: list[LossSpec], y: GridField) -> dict[str, PreparedTarget]:
    """One target per filter of ``specs``, keyed by filter id, from one
    transform of ``y`` per spectral method."""
    if y.kind != "mask":
        raise ValueError("targets must be binary masks")
    return {group[0].filter_id: _target(group[0], y, y_out)
            for group, (y_out,) in _filtered(specs, [y])}


def prepare_target(spec: LossSpec, y: GridField) -> PreparedTarget:
    """The one-spec case of :func:`prepare_targets`: ``y`` filtered and
    clamped for a spectral spec, passed through for a neighbourhood one."""
    return prepare_targets([spec], y)[spec.filter_id]


def _record(spec: LossSpec, pv: np.ndarray, target: PreparedTarget,
            w: np.ndarray) -> NbhdPair | PairSums:
    """The record the spec's score of ``pv`` over the scored pixels ``w`` is
    read from, value and gradient alike: the pair with the target's
    neighbourhood, or the sums against its filtered field."""
    if spec.filter_kind == "nbhd":
        return NbhdPair(pv, target.nbhd, w)
    return PairSums(pv, target.filtered.values, w)


def _loss(spec: LossSpec, pv: np.ndarray, target: PreparedTarget,
          w: np.ndarray) -> ScoreResult:
    """The spec's score of ``pv`` against the prepared target over the
    scored pixels ``w``, negatively oriented."""
    result = _record(spec, pv, target, w).score(spec.score)
    value = result.value if ORIENTATION[spec.score] < 0 else 1.0 - result.value
    return ScoreResult(value, result.fallbacks)


def loss_detail(spec: LossSpec, p: GridField, target: PreparedTarget) -> ScoreResult:
    """Loss value plus fallback flags for one prediction field."""
    if target.spec.filter_id != spec.filter_id:
        raise ValueError("target was prepared with a different filter")
    return _loss(spec, p.values, target, scored_weights(p, target.filtered))


def loss_value(spec: LossSpec, p: GridField, target: PreparedTarget) -> float:
    return loss_detail(spec, p, target).value


def metric_value(spec: LossSpec, p: GridField, y: GridField) -> ScoreResult:
    """Evaluation-time metric: for spectral specs both fields are filtered.

    Unlike the training loss, model comparison filters predictions and
    observations alike (then clamps both to [0, 1]).  Returns the score in
    its natural orientation (not the loss).  The test reference: one field
    at a time, apart from the filter walk of ``metric_tables``.
    """
    if spec.filter_kind == "nbhd":
        return nbhd_score_detail(spec.score, p, y, spec.half_width)
    p2, y2 = (_clamped(_spectral(spec.filter_kind)[0](f, spec.band)) for f in (p, y))
    return pixelwise_score_detail(spec.score, p2, y2)


def metric_table(specs: list[LossSpec], p: GridField,
                 y: GridField) -> dict[str, ScoreResult]:
    """``metric_value`` for many configs at once, filtering once per filter.

    The one-prediction case of :func:`metric_tables`.  Keys are spec ids in
    the order of ``specs``; values match ``metric_value`` exactly.
    """
    return metric_tables(specs, [p], y)[0]


def metric_tables(specs: list[LossSpec], preds: list[GridField],
                  y: GridField) -> list[dict[str, ScoreResult]]:
    """``metric_table`` for several predictions of one observation.

    One walk over the filters (``_filtered``) transforms every field once
    per spectral method.  Per filter the observation becomes a target as for
    training, each prediction's output is clamped to [0, 1], and each pair's
    record is read for every config of the filter.  Returns one table per
    prediction, in input order, keyed by spec id in the order of ``specs``;
    values match ``metric_value`` exactly.
    """
    tables: list[dict[str, ScoreResult]] = [{} for _ in preds]
    # Band-passed fields keep their eval masks, so one weight array per
    # prediction serves every filter.
    weights = [scored_weights(p, y) for p in preds]
    for group, (y_out, *p_outs) in _filtered(specs, [y, *preds]):
        target = _target(group[0], y, y_out)
        for p_out, w, table in zip(p_outs, weights, tables):
            pv = np.clip(p_out.values, 0.0, 1.0) if group[0].is_spectral else p_out.values
            record = _record(group[0], pv, target, w)
            table.update((spec.spec_id, record.score(spec.score)) for spec in group)
    return [{spec.spec_id: table[spec.spec_id] for spec in specs} for table in tables]


def loss_gradient(spec: LossSpec, p: GridField, target: PreparedTarget) -> np.ndarray:
    """Exact gradient of the loss with respect to every prediction pixel,
    from the record the loss value is read from."""
    if target.spec.filter_id != spec.filter_id:
        raise ValueError("target was prepared with a different filter")
    d_score = _record(spec, p.values, target,
                      scored_weights(p, target.filtered)).gradient(spec.score)
    return d_score if ORIENTATION[spec.score] < 0 else -d_score


# ---------------------------------------------------------------------------
# Finite-difference verification.

@dataclass(frozen=True)
class GradCheckReport:
    """Result of comparing analytic and finite-difference gradients."""

    spec_id: str
    max_abs_diff: float
    max_rel_diff: float
    n_checked: int
    n_excluded: int
    worst_pixel: tuple[int, int]

    def passed(self, rel_tol: float = 1e-5) -> bool:
        return self.max_rel_diff <= rel_tol


def _excluded_pixels(spec: LossSpec, pv: np.ndarray, tv: np.ndarray,
                     w: np.ndarray, step: float) -> np.ndarray:
    """Pixels within reach of a non-smooth point for this spec (2*step margin)."""
    excluded = np.zeros(pv.shape, dtype=bool)
    margin = 2.0 * step
    if spec.score == "xent":
        excluded |= (pv <= XENT_EPS + margin) | (pv >= 1.0 - XENT_EPS - margin)
    if spec.score == "iou":
        target = tv if spec.filter_kind != "nbhd" else max_filter_array(tv, spec.half_width)
        excluded |= np.abs(pv - target) <= margin
    if spec.filter_kind == "nbhd" and spec.score == "csi":
        for k, (i, j), n in _near_window_max(pv, w & (tv == 1.0), spec.half_width, margin):
            excluded[i[n[k] > 1], j[n[k] > 1]] = True  # argmax may move
    return excluded


def grad_check(spec: LossSpec, p: GridField, target: PreparedTarget,
               step: float = 1e-5) -> GradCheckReport:
    """Compare the analytic gradient against central finite differences.

    Pixels within ``2*step`` of a non-smooth point (max-filter ties, clamp
    edges, iou kinks) are excluded and counted.  The relative difference is
    measured against ``max(|analytic|, |fd|)`` per pixel, floored at 1e-3 of
    the largest finite-difference magnitude so that noise at zero-gradient
    pixels is not amplified.  Differences inside the rounding budget of the
    central difference itself (~eps * |loss| / step, e.g. a loss that is
    constant in one pixel) count as exact matches, non-finite ones as inf.
    """
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    analytic = loss_gradient(spec, p, target)
    w = scored_weights(p, target.filtered)
    pv = p.values.copy()
    excluded = _excluded_pixels(spec, pv, target.filtered.values, w, step)
    loss_scale = max(1.0, abs(_loss(spec, pv, target, w).value))
    fd_noise = 64.0 * np.finfo(np.float64).eps * loss_scale / step

    fd = np.zeros_like(pv)
    for i in range(pv.shape[0]):
        for j in range(pv.shape[1]):
            if excluded[i, j]:
                continue
            orig = pv[i, j]
            pv[i, j] = orig + step
            up = _loss(spec, pv, target, w).value
            pv[i, j] = orig - step
            down = _loss(spec, pv, target, w).value
            pv[i, j] = orig
            fd[i, j] = (up - down) / (2.0 * step)

    checked = ~excluded
    diff = np.abs(analytic - fd)
    finite = np.isfinite(diff)
    gmax = float(np.abs(fd[checked & finite]).max(initial=0.0))
    floor = max(1e-3 * gmax, 1e-12)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    rel = np.where(checked & (diff > fd_noise), diff / denom, 0.0)
    rel[checked & ~finite] = np.inf
    abs_masked = np.where(checked, diff, 0.0)
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
    return GradCheckReport(
        spec_id=spec.spec_id,
        max_abs_diff=float(abs_masked.max()),
        max_rel_diff=float(rel.max()),
        n_checked=int(checked.sum()),
        n_excluded=int(excluded.sum()),
        worst_pixel=(int(worst[0]), int(worst[1])),
    )
