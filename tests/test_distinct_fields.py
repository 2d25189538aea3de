"""Tests for spectral work done once per distinct field.

The filter walk transforms and band-passes each distinct field once: the
fields of one walk share one grid, and those equal in ``values`` bytes share
one transform and one output, whatever their eval masks, so a model that is
the observation itself costs no extra Fourier or Haar work.  ``fourier_band_passes`` inverts one
stack of spectra per band, and ``butterworth_gain`` builds rows 0..N//2
of the half plane on the quarter |nu| plane and mirrors the rest.  These tests pin each of those against the
per-field or full-grid computation it replaced, byte for byte, and pin
that a non-mask observation is refused before any transform runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfscore import fourier, losses, wavelet
from selfscore.fourier import (_quarter_nu, butterworth_gain, fourier_band_pass,
                               fourier_band_passes, fourier_spectrum, fourier_stages)
from selfscore.grid import GridField, WavelengthBand
from selfscore.losses import (CENSUS_BANDS, enumerate_configs, metric_tables, parse_spec_id,
                              prepare_targets)

from _records import metric_value
from _spectral import full_gain, full_nu

SPACING = 0.05
# Odd, even, one row, one column and non-square grids.
SHAPES = [(1, 1), (1, 6), (7, 1), (2, 3), (5, 5), (6, 6), (9, 4), (4, 11)]
BANDS = [WavelengthBand(0.0, math.inf), WavelengthBand(0.0, 0.1), WavelengthBand(0.1, 0.4),
         WavelengthBand(0.2, math.inf), WavelengthBand(0.13, 0.7)]


def count_calls(monkeypatch, module, *names):
    """Rebind ``names`` on ``module`` to wrappers that count their calls."""
    counts = dict.fromkeys(names, 0)

    def wrap(name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in names:
        wrap(name)
    return counts


# ---------------------------------------------------------------------------
# One stack of spectra per band, and the mirrored gain.

@pytest.mark.parametrize("shape", SHAPES + [(3 * r, 3 * c) for r, c in SHAPES])
@pytest.mark.parametrize("plane", ["full", "half-plane", "quarter"])
def test_mirrored_gain_equals_a_full_row_build(shape, plane):
    """Each mirrored plane equals that part of a build at every row and
    column: the full gain ``fourier_stages`` mirrors from the half plane (of
    a field of ``shape``, so of 3x its padded size), the half-plane gain and
    the quarter |nu| plane."""
    half = shape[0] // 2 + 1, shape[1] // 2 + 1
    for spacing in (0.02, SPACING):
        if plane == "quarter":
            got, want = _quarter_nu(shape, spacing), full_nu(shape, spacing)[:half[0], :half[1]]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), shape
            continue
        for band in BANDS + list(CENSUS_BANDS):
            if plane == "full":
                field = GridField(np.zeros(shape), spacing, "real")
                got = fourier_stages(field, band)["gain"]
                want = full_gain((3 * shape[0], 3 * shape[1]), spacing, band)
            else:
                got = butterworth_gain(shape, spacing, band)
                want = full_gain(shape, spacing, band)[:, :half[1]]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (shape, band)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("masked", [False, True], ids=["plain", "eval-masked"])
def test_stacked_band_passes_equal_one_spectrum_calls(shape, masked):
    rng = np.random.default_rng(sum(shape))
    emask = rng.random(shape) < 0.6 if masked else None
    fields = [GridField(rng.normal(size=shape), SPACING, "real", emask) for _ in range(4)]
    spectra = [fourier_spectrum(f.values) for f in fields]
    for band in BANDS:
        stacked = fourier_band_passes(spectra, shape, SPACING, band)
        assert len(stacked) == len(fields)
        for spectrum, field, out in zip(spectra, fields, stacked):
            (single,) = fourier_band_passes([spectrum], shape, SPACING, band)
            one = fourier_band_pass(field, band)
            assert out.tobytes() == single.tobytes() == one.values.tobytes()
            assert out.shape == one.shape == field.shape and one.kind == "real"
            if masked:
                assert one.eval_mask.tobytes() == field.eval_mask.tobytes()
            else:
                assert one.eval_mask is None


# ---------------------------------------------------------------------------
# One transform per distinct field in the filter walk.

SPECS = [parse_spec_id(s) for s in (
    "brier_nbhd_r0", "fss_nbhd_r2", "csi_nbhd_r1", "iou_nbhd_r3",
    "brier_F0-0.1", "fss_F0.1-0.4", "heidke_F0.2-inf", "xent_F0.05-0.1",
    "brier_W0-0.1", "iou_W0.1-0.4", "gerrity_W0.2-inf", "csi_W0-inf")]


def content_key(field):
    """What the walk keys a field by: its values' bytes, the grid being one."""
    return field.values.tobytes()


@st.composite
def scenes(draw):
    """An observation and predictions drawn from a few templates: the
    observation itself (declared ``prob``), its copy with -0.0 for 0.0, a
    copy with another eval mask, and random forecasts, each maybe repeated."""
    shape = (draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    emask = rng.random(shape) < 0.7 if draw(st.booleans()) else None
    other_mask = np.ones(shape, dtype=bool) if emask is None else emask.copy()
    if emask is not None:
        emask[0, 0] = emask[-1, -1] = True
    other_mask[0, 0], other_mask[-1, -1] = False, True
    yv = (rng.random(shape) < 0.4).astype(float)
    yv[0, 0] = 0.0
    y = GridField(yv, SPACING, "mask", emask)
    forecast = rng.uniform(size=shape)
    templates = {
        "truth": lambda: GridField(yv, SPACING, "prob", emask),
        "negzero": lambda: GridField(np.where(yv == 0.0, -0.0, yv), SPACING, "prob", emask),
        "other-mask": lambda: GridField(yv, SPACING, "prob", other_mask),
        "forecast": lambda: GridField(forecast, SPACING, "prob", emask),
        "fresh": lambda: GridField(rng.uniform(size=shape), SPACING, "prob", emask),
    }
    names = draw(st.lists(st.sampled_from(sorted(templates)), min_size=1, max_size=5))
    return y, [templates[n]() for n in names]


@settings(max_examples=40, deadline=None)
@given(scenes())
def test_metric_tables_transform_each_distinct_field_once(scene):
    y, preds = scene
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, losses, "fourier_spectrum", "wavelet_decompose")
        tables = metric_tables(SPECS, preds, y)
    distinct = len({content_key(f) for f in [y, *preds]})
    assert calls == {"fourier_spectrum": distinct, "wavelet_decompose": distinct}
    for p, table in zip(preds, tables):
        assert list(table) == [s.spec_id for s in SPECS]
        for spec in SPECS:
            want = metric_value(spec, p, y)
            got = table[spec.spec_id]
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes(), spec
            assert got.fallbacks == want.fallbacks


def test_negative_zero_keeps_fields_apart_and_eval_mask_does_not(monkeypatch):
    yv = np.zeros((6, 7))
    yv[2:4, 3:5] = 1.0
    y = GridField(yv, SPACING, "mask")
    twins = [GridField(yv, SPACING, "prob"), GridField(yv, SPACING, "prob"),
             GridField(np.where(yv == 0.0, -0.0, yv), SPACING, "prob"),
             GridField(yv, SPACING, "prob", np.ones(yv.shape, dtype=bool))]
    seen = []
    monkeypatch.setattr(losses, "fourier_spectrum",
                        lambda values: seen.append(values) or fourier_spectrum(values))
    tables = metric_tables([parse_spec_id("brier_F0-0.1")], twins, y)
    # y, the two exact twins and the eval-mask twin share one transform;
    # -0.0 does not.
    assert [v is f.values for v, f in zip(seen, [y, twins[2]])] == [True] * 2
    assert len(seen) == 2
    for p, table in zip(twins, tables):
        want = metric_value(parse_spec_id("brier_F0-0.1"), p, y).value
        assert np.float64(table["brier_F0-0.1"].value).tobytes() == np.float64(want).tobytes()


def test_census_truth_model_costs_no_transform(monkeypatch):
    """A census score with the observation as a model transforms 3 fields
    per step, not 4, and builds each band's gain once."""
    rng = np.random.default_rng(3)
    y = GridField((rng.random((10, 12)) < 0.2).astype(float), SPACING, "mask")
    preds = [GridField(rng.uniform(size=y.shape), SPACING, "prob") for _ in range(2)]
    preds.append(GridField(y.values, SPACING, "prob"))
    calls = count_calls(monkeypatch, losses, "fourier_spectrum", "wavelet_decompose")
    gains = count_calls(monkeypatch, fourier, "butterworth_gain")
    metric_tables(enumerate_configs(), preds, y)
    assert calls == {"fourier_spectrum": 3, "wavelet_decompose": 3}
    assert gains == {"butterworth_gain": len(CENSUS_BANDS)}


# ---------------------------------------------------------------------------
# The observation rule runs before the filter walk.

def test_non_mask_observation_is_refused_before_any_transform(monkeypatch):
    counted = [count_calls(monkeypatch, losses, "fourier_spectrum", "wavelet_decompose"),
               count_calls(monkeypatch, fourier, "fourier_spectrum"),
               count_calls(monkeypatch, wavelet, "wavelet_decompose")]
    y = GridField(np.full((1, 1), 0.5), SPACING, "prob")
    for spec_id in ("csi_W0-0.2", "brier_F0.1-inf", "fss_nbhd_r1"):
        spec = parse_spec_id(spec_id)
        with pytest.raises(ValueError, match="binary masks, got kind 'prob'"):
            prepare_targets([spec], y)
        with pytest.raises(ValueError, match="binary masks, got kind 'prob'"):
            metric_tables([spec], [y], y)
        with pytest.raises(ValueError, match="binary masks, got kind 'prob'"):
            metric_tables([spec], [], y)
    assert all(n == 0 for counts in counted for n in counts.values())
