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
the rest.  Every score and gradient is read from one record, which the
target builds (``PreparedTarget.record``: an ``NbhdPair`` with a
neighbourhood target, else a ``PairSums`` against the filtered field) and
keeps for the last prediction scored against it (``PreparedTarget.scored``).
So ``loss_gradient`` is the exact derivative of ``loss_value``, from the
same sums and fallback tests (a constant fallback has gradient zero), and
all scores and gradients of a filter read one set of sums and one window
max or mean of it.  ``grad_check`` verifies the gradient against central
finite differences away from non-smooth points.

Memory: ``score`` of 2 models x 2 steps on the 16 ``brier_F*`` and 16
``brier_W*`` configs peaks at 61 MB own ``VmHWM`` at 205 x 205 and 761 MB at
1000 x 1000 (numpy 2.4); band outputs left as views of their inverse
stacks raised those to 68 and 800 MB, so each is copied out.
"""

from __future__ import annotations

import math
import re
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .fourier import fourier_band_pass, fourier_band_passes, fourier_spectrum, fourier_stages
from .grid import PRED_KINDS, GridField, WavelengthBand
from .neighbourhood import max_filter_array, mean_filter_array
from .scores import (NBHD_SCORE_KINDS, ORIENTATION, SCORE_KINDS, XENT_EPS,
                     NbhdObs, NbhdPair, PairSums, ScoreResult, _near_window_max, _observed,
                     scored_weights)
from .wavelet import (_check_haar, wavelet_band_pass, wavelet_band_passes, wavelet_decompose,
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
    """(one-field band-pass, per-field transform, many-field band-pass, stages)
    of a spectral method.  The names are looked up at each call, so a function
    rebound on this module (a tracer's or a test's wrapper) is the one used."""
    if method == "F":
        return fourier_band_pass, fourier_spectrum, fourier_band_passes, fourier_stages
    return wavelet_band_pass, wavelet_decompose, wavelet_band_passes, wavelet_stages


def check_filter_input(field: GridField, *kinds: str) -> None:
    """Refuse a field that a filter of any of ``kinds`` (``FilterSpec.kind`` or
    ``LossSpec.filter_kind`` values) cannot take: a neighbourhood filter takes
    a mask or prob field, a Haar filter 2 rows and 2 columns or more."""
    if any(kind.startswith("nbhd") for kind in kinds) and field.kind not in PRED_KINDS:
        raise ValueError(f"a neighbourhood filter takes mask or prob fields, not {field.kind!r}")
    if "W" in kinds:
        _check_haar(field.shape)


def apply_filter(field: GridField, fspec: FilterSpec) -> GridField:
    """Apply a standalone filter: a neighbourhood maximum keeps the field's kind, a
    neighbourhood mean gives a ``prob`` field clipped to [0, 1], a band-pass a ``real`` one."""
    check_filter_input(field, fspec.kind)
    if fspec.kind in SPECTRAL_METHODS:
        return _spectral(fspec.kind)[0](field, fspec.band)
    if fspec.kind == "nbhd_max":
        return field.with_values(max_filter_array(field.values, fspec.half_width))
    return field.with_values(np.clip(mean_filter_array(field.values, fspec.half_width), 0.0, 1.0),
                             "prob")


def filter_stages(field: GridField, fspec: FilterSpec) -> dict[str, np.ndarray]:
    """A spectral filter's pipeline stages by name, for inspection; a
    neighbourhood filter has none (``{}``)."""
    return _spectral(fspec.kind)[3](field, fspec.band) if fspec.kind in SPECTRAL_METHODS else {}


def enumerate_configs() -> list[LossSpec]:
    """The full census: 48 neighbourhood + 288 scale-separation configs."""
    configs = [LossSpec(score, "nbhd", half_width=r)
               for score in NBHD_SCORE_KINDS for r in NBHD_HALF_WIDTHS]
    configs += [LossSpec(score, method, band=band)
                for method in SPECTRAL_METHODS
                for score in SCORE_KINDS
                for band in CENSUS_BANDS]
    return configs


def _filtered(specs: list[LossSpec], fields: list[GridField]):
    """Group ``specs`` by filter (first-seen order per kind); yield each group
    with its output arrays for ``fields``, which share one shape and spacing
    (``metric_tables``' ``scored_weights`` checks them): their values for a
    neighbourhood group, else each band-passed from one transform per method.
    Fields equal in ``values`` bytes (-0.0 and 0.0 differ), whatever their
    eval masks, are transformed once and share one output."""
    groups: dict[str, list[LossSpec]] = {}
    for spec in specs:
        groups.setdefault(spec.filter_id, []).append(spec)
    keys: dict[bytes, int] = {}
    slots = [keys.setdefault(f.values.tobytes(), len(keys)) for f in fields]
    distinct = [fields[slots.index(k)].values for k in range(len(keys))]
    grid = fields[0].shape, fields[0].spacing_deg
    for kind in ("nbhd", *SPECTRAL_METHODS):
        kind_groups = [group for group in groups.values() if group[0].filter_kind == kind]
        if kind != "nbhd" and kind_groups:
            _, transform, band_passes, _ = _spectral(kind)
            transforms = [transform(v) for v in distinct]
        for group in kind_groups:
            outs = distinct if kind == "nbhd" else band_passes(transforms, *grid, group[0].band)
            yield group, [outs[k] for k in slots]


@dataclass(frozen=True)
class PreparedTarget:
    """Observations readied for a loss: filtered once, reusable across time
    steps and across every score that shares the filter.

    ``clamp_max_abs`` records how far the spectral filter output had to be
    clamped to return to [0, 1] (0 for neighbourhood specs).  ``nbhd`` holds
    a neighbourhood spec's filtered masks, made on first use (else None).
    The target builds its records (``record``) and keeps one under its own
    lock (``scored``) in ``records``, a ``WeakKeyDictionary``: the last
    prediction scored against it, keyed by the ``GridField`` object, whose
    values are read-only.  The record goes with its field, so a target held
    across time steps keeps none for a prediction the caller has dropped.
    """

    spec: LossSpec
    observed: GridField
    filtered: GridField
    clamp_max_abs: float = 0.0
    nbhd: NbhdObs | None = field(init=False, repr=False, compare=False)
    records: weakref.WeakKeyDictionary = field(init=False, repr=False, compare=False,
                                               default_factory=weakref.WeakKeyDictionary)
    _keeping: threading.Lock = field(init=False, repr=False, compare=False,
                                     default_factory=threading.Lock)

    def __post_init__(self):
        object.__setattr__(self, "nbhd", None if self.spec.is_spectral
                           else NbhdObs(self.observed.values, self.spec.half_width))

    def record(self, pv: np.ndarray, w: np.ndarray) -> NbhdPair | PairSums:
        """The record a score of ``pv`` over the scored pixels ``w`` is read
        from, value and gradient alike: the pair with the target's
        neighbourhood, or the sums against its filtered field."""
        if self.nbhd is None:
            return PairSums(pv, self.filtered.values, w)
        return NbhdPair(pv, self.nbhd, w)

    def scored(self, spec: LossSpec, p: GridField) -> NbhdPair | PairSums:
        """The record of ``p``: the kept one when ``p`` is the field last
        scored against the target, else a new one, which is then kept alone."""
        if self.spec.filter_id != spec.filter_id:
            raise ValueError("target was prepared with a different filter")
        record = self.records.get(p)  # one read: a racing call can only rebuild
        if record is None:
            self.records.clear()  # the old record goes before the new one is made
            record = self.record(p.values, scored_weights(p, self.observed))
            with self._keeping:  # threads racing to keep a record leave one
                self.records.clear()
                self.records[p] = record
        return record


def _target(spec: LossSpec, y: GridField, out: np.ndarray) -> PreparedTarget:
    """``y``'s target for ``spec`` from its filter output ``out``: clamped
    to [0, 1] for a spectral spec, the mask itself for a neighbourhood one."""
    if not spec.is_spectral:
        return PreparedTarget(spec, y, y)
    filtered = GridField(np.clip(out, 0.0, 1.0), y.spacing_deg, "prob", y.eval_mask)
    return PreparedTarget(spec, y, filtered, float(np.max(np.abs(out - filtered.values))))


def prepare_targets(specs: list[LossSpec], y: GridField) -> dict[str, PreparedTarget]:
    """One target per filter of ``specs``, keyed by filter id, from one
    transform of ``y`` per spectral method."""
    return {group[0].filter_id: _target(group[0], y, y_out)
            for group, (y_out,) in _filtered(specs, [_observed(y)])}


def prepare_target(spec: LossSpec, y: GridField) -> PreparedTarget:
    """The one-spec case of :func:`prepare_targets`: ``y`` filtered and
    clamped for a spectral spec, passed through for a neighbourhood one."""
    return prepare_targets([spec], y)[spec.filter_id]


def _loss(spec: LossSpec, record: NbhdPair | PairSums) -> ScoreResult:
    """The spec's score read from ``record``, negatively oriented."""
    result = record.score(spec.score)
    value = result.value if ORIENTATION[spec.score] < 0 else 1.0 - result.value
    return ScoreResult(value, result.fallbacks)


def loss_detail(spec: LossSpec, p: GridField, target: PreparedTarget) -> ScoreResult:
    """Loss value plus fallback flags for one prediction field."""
    return _loss(spec, target.scored(spec, p))


def loss_value(spec: LossSpec, p: GridField, target: PreparedTarget) -> float:
    return loss_detail(spec, p, target).value


def metric_table(specs: list[LossSpec], p: GridField,
                 y: GridField) -> dict[str, ScoreResult]:
    """The one-prediction case of :func:`metric_tables`: the evaluation
    metric of ``p`` against ``y`` per config, keyed by spec id in the order
    of ``specs``."""
    return metric_tables(specs, [p], y)[0]


def metric_tables(specs: list[LossSpec], preds: list[GridField],
                  y: GridField) -> list[dict[str, ScoreResult]]:
    """Evaluation-time metrics of several predictions of one observation.

    Unlike the training loss, evaluation filters predictions and
    observations alike.  One walk over the filters (``_filtered``)
    transforms each distinct field once per spectral method.  Per filter the
    observation becomes a target as for training, each prediction's output
    is clamped to [0, 1], and each pair's record is read for every config of
    the filter.  Returns one table per prediction, in input order, keyed by
    spec id in the order of ``specs``, of scores (not losses).
    """
    tables: list[dict[str, ScoreResult]] = [{} for _ in preds]
    # Filters keep the grid: one weight array per prediction serves them all.
    weights = [scored_weights(p, y) for p in preds]
    for group, (y_out, *p_outs) in _filtered(specs, [_observed(y), *preds]):
        target = _target(group[0], y, y_out)
        for p_out, w, table in zip(p_outs, weights, tables):
            pv = np.clip(p_out, 0.0, 1.0) if group[0].is_spectral else p_out
            record = target.record(pv, w)
            table.update((spec.spec_id, record.score(spec.score)) for spec in group)
    return [{spec.spec_id: table[spec.spec_id] for spec in specs} for table in tables]


def loss_gradient(spec: LossSpec, p: GridField, target: PreparedTarget) -> np.ndarray:
    """Exact gradient of the loss with respect to every prediction pixel,
    from the record the loss value is read from."""
    d_score = target.scored(spec, p).gradient(spec.score)
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


def _excluded_pixels(spec: LossSpec, record: NbhdPair | PairSums, step: float) -> np.ndarray:
    """Pixels within reach of a non-smooth point for this spec (2*step
    margin), read from the record the loss is: the iou kinks against its
    target, the csi near-ties against the window maximum its score reads."""
    pv = record.pv
    excluded = np.zeros(pv.shape, dtype=bool)
    margin = 2.0 * step
    if spec.score == "xent":
        excluded |= (pv <= XENT_EPS + margin) | (pv >= 1.0 - XENT_EPS - margin)
    if spec.score == "iou":
        target = record.obs.dilated if spec.filter_kind == "nbhd" else record.yv
        excluded |= np.abs(pv - target) <= margin
    if spec.filter_kind == "nbhd" and spec.score == "csi":
        events, pixels, counts = _near_window_max(record, margin)
        excluded.flat[pixels[counts[events] > 1]] = True  # argmax may move
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
    w = scored_weights(p, target.observed)
    pv = p.values.copy()
    record = target.record(pv, w)
    loss_scale = max(1.0, abs(_loss(spec, record).value))
    excluded = _excluded_pixels(spec, record, step)
    fd_noise = 64.0 * np.finfo(np.float64).eps * loss_scale / step

    fd = np.zeros_like(pv)
    for i in range(pv.shape[0]):
        for j in range(pv.shape[1]):
            if excluded[i, j]:
                continue
            orig = pv[i, j]
            pv[i, j] = orig + step
            up = _loss(spec, target.record(pv, w)).value
            pv[i, j] = orig - step
            down = _loss(spec, target.record(pv, w)).value
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
