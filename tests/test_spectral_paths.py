"""Property tests: the transform-once spectral paths against their references.

A field is transformed once (``fourier_spectrum``, ``wavelet_decompose``)
and then filtered band by band, several fields at a time.  These tests
check on small random grids, odd sizes included, that this gives the
single-band results bit for bit, that the real-DFT pipeline matches a
complex ``fft2``/``ifft2`` run of the documented steps, that the Haar path
matches the copy-and-zero algorithm it replaced, and that complementary
bands still partition their input.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from selfscore import fourier as fourier_mod
from selfscore.fourier import (TAPER_FACTOR, blackman_harris_weights, butterworth_gain,
                               fourier_band_pass, fourier_band_passes, fourier_spectrum,
                               frequency_grid)
from selfscore.grid import (GridField, WavelengthBand, crop_taper, next_pow2_dims,
                            taper_zero_pad)
from selfscore.losses import (FilterSpec, apply_filter, enumerate_configs, filter_stages,
                              metric_table, metric_tables)
from selfscore.wavelet import (WaveletLevel, WaveletPyramid, haar_inverse, haar_pyramid,
                               level_wavelengths, pyramid_reconstruct, wavelet_band_pass,
                               wavelet_band_passes, wavelet_decompose)

SETTINGS = settings(max_examples=40, deadline=None)
SPACINGS = (0.01, 0.0125, 0.02, 0.05)
EDGES = (0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6)


@st.composite
def fields(draw, count=1, kind="real", min_side=2, max_side=19):
    """``count`` random fields sharing one shape and spacing."""
    shape = (draw(st.integers(min_side, max_side)), draw(st.integers(min_side, max_side)))
    spacing = draw(st.sampled_from(SPACINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    emask = rng.uniform(size=shape) < 0.8 if draw(st.booleans()) else None
    out = []
    for _ in range(count):
        if kind == "mask":
            values = (rng.uniform(size=shape) < 0.3).astype(float)
        elif kind == "prob":
            values = rng.uniform(size=shape)
        else:
            values = rng.normal(size=shape)
        out.append(GridField(values, spacing, kind, emask))
    return out


@st.composite
def bands(draw):
    """A band from the census edges, or with free edges in (0, 2] degrees."""
    if draw(st.booleans()):
        lo = draw(st.sampled_from((0.0,) + EDGES))
        hi = draw(st.sampled_from(tuple(e for e in EDGES if e > lo) + (math.inf,)))
    else:
        a, b = sorted(draw(st.lists(st.floats(0.005, 2.0), min_size=2, max_size=2,
                                    unique=True)))
        lo = draw(st.sampled_from((0.0, a)))
        hi = draw(st.sampled_from((b, math.inf)))
    return WavelengthBand(lo, hi)


# ---------------------------------------------------------------------------
# Fourier


def complex_dft_band_pass(field, band):
    """The documented pipeline with a complex fft2/ifft2, keeping the real part."""
    target = (TAPER_FACTOR * field.rows, TAPER_FACTOR * field.cols)
    windowed = blackman_harris_weights(target) * taper_zero_pad(field, target).values
    gain = butterworth_gain(target, field.spacing_deg, band)
    back = np.fft.ifft2(np.fft.fft2(windowed) * gain).real
    return crop_taper(GridField(back, field.spacing_deg, "real"), field.shape).values


def windowed_original(field):
    target = (TAPER_FACTOR * field.rows, TAPER_FACTOR * field.cols)
    windowed = blackman_harris_weights(target) * taper_zero_pad(field, target).values
    return crop_taper(GridField(windowed, field.spacing_deg, "real"), field.shape).values


@SETTINGS
@given(fields(count=3), st.lists(bands(), min_size=1, max_size=4))
def test_shared_spectra_match_single_band_calls_bit_for_bit(group, band_list):
    spectra = [fourier_spectrum(f) for f in group]
    for band in band_list:
        shared = fourier_band_passes(spectra, band)
        for field, out in zip(group, shared):
            single = fourier_band_pass(field, band)
            assert np.array_equal(out.values, single.values)
            assert out.kind == single.kind == "real"
            assert out.eval_mask is field.eval_mask


@SETTINGS
@given(fields(), bands())
def test_real_dft_matches_complex_dft_reference(group, band):
    field = group[0]
    got = fourier_band_pass(field, band).values
    want = complex_dft_band_pass(field, band)
    assert np.abs(got - want).max() <= 1e-12


STAGES = {"F": ["tapered", "window", "windowed", "gain", "spectrum_mag", "filtered_mag",
                "full"],
          "W": ["padded", "full"]}


@SETTINGS
@given(fields(), bands(), st.sampled_from(sorted(STAGES)))
def test_stages_full_grid_crops_to_the_output(group, band, method):
    field = group[0]
    fspec = FilterSpec(method, band=band)
    stages = filter_stages(field, fspec)
    assert list(stages) == STAGES[method]
    target = ((TAPER_FACTOR * field.rows, TAPER_FACTOR * field.cols) if method == "F"
              else next_pow2_dims(field.shape))
    for name, stage in stages.items():
        assert stage.shape == target, name
    cropped = crop_taper(GridField(stages["full"], field.spacing_deg, "real"), field.shape)
    assert np.array_equal(cropped.values, apply_filter(field, fspec).values)


@SETTINGS
@given(fields(kind="mask"), st.sampled_from(EDGES))
def test_complementary_fourier_bands_sum_to_windowed_input(group, edge):
    field = group[0]
    spectrum = fourier_spectrum(field)
    (low,) = fourier_band_passes([spectrum], WavelengthBand(0.0, edge))
    (high,) = fourier_band_passes([spectrum], WavelengthBand(edge, math.inf))
    assert np.abs(low.values + high.values - windowed_original(field)).max() <= 1e-10


def test_cached_window_and_wavenumbers_are_shared_read_only():
    w = blackman_harris_weights((9, 12))
    assert w is blackman_harris_weights((9, 12))
    assert not w.flags.writeable
    nu = frequency_grid((9, 12), 0.02).nu_total
    assert nu is frequency_grid((9, 12), 0.02).nu_total
    assert not nu.flags.writeable
    half = butterworth_gain((9, 12), 0.02, WavelengthBand(0.1, 0.4), half_plane=True)
    full = butterworth_gain((9, 12), 0.02, WavelengthBand(0.1, 0.4))
    assert np.array_equal(half, full[:, :7])


# ---------------------------------------------------------------------------
# Haar


def copy_and_zero_band_pass(field, band):
    """The Haar band-pass as a copy of the pyramid zeroed in place (the
    algorithm the shared-pyramid path replaced)."""
    target = next_pow2_dims(field.shape)
    padded = taper_zero_pad(field, target)
    n_levels = int(math.log2(min(target)))
    pyramid = haar_pyramid(padded.values, n_levels, field.spacing_deg)
    levels = [WaveletLevel(lev.ll.copy(), lev.lh.copy(), lev.hl.copy(), lev.hh.copy())
              for lev in pyramid.levels]
    for k in range(1, n_levels + 1):
        if level_wavelengths(k, field.spacing_deg)[1] > band.hi_deg:
            levels[k - 1].ll[:] = 0.0
    for k in range(n_levels, 0, -1):
        small, large = level_wavelengths(k, field.spacing_deg)
        if not large > band.hi_deg and k < n_levels:
            deeper = levels[k]
            levels[k - 1].ll = haar_inverse(deeper.ll, deeper.lh, deeper.hl, deeper.hh)
        if small <= band.lo_deg:
            levels[k - 1].lh[:] = 0.0
            levels[k - 1].hl[:] = 0.0
            levels[k - 1].hh[:] = 0.0
    full = pyramid_reconstruct(WaveletPyramid(levels, field.spacing_deg))
    return crop_taper(GridField(full, field.spacing_deg, "real"), field.shape).values


@SETTINGS
@given(fields(count=2), st.lists(bands(), min_size=1, max_size=4))
def test_shared_pyramid_matches_copy_and_zero_bit_for_bit(group, band_list):
    decompositions = [wavelet_decompose(f) for f in group]
    before = [[lev.ll.copy() for lev in d.pyramid.levels] for d in decompositions]
    for band in band_list:
        shared = wavelet_band_passes(decompositions, band)
        for field, out in zip(group, shared):
            want = copy_and_zero_band_pass(field, band)
            assert np.array_equal(out.values, want)
            assert np.array_equal(wavelet_band_pass(field, band).values, want)
            assert out.eval_mask is field.eval_mask
    for d, lls in zip(decompositions, before):  # the shared pyramid is never modified
        assert all(np.array_equal(lev.ll, ll) for lev, ll in zip(d.pyramid.levels, lls))


@SETTINGS
@given(fields(kind="mask"), st.floats(0.0, 0.99))
def test_complementary_haar_bands_sum_to_input(group, where):
    # The partition holds for edges from the finest detail wavelength 2d up
    # to, not including, the padded-domain scale 2^(levels+1) d.
    field = group[0]
    d = field.spacing_deg
    n_levels = int(math.log2(min(next_pow2_dims(field.shape))))
    edge = d * 2.0 ** (1 + where * n_levels)
    decomposition = wavelet_decompose(field)
    (low,) = wavelet_band_passes([decomposition], WavelengthBand(0.0, edge))
    (high,) = wavelet_band_passes([decomposition], WavelengthBand(edge, math.inf))
    assert np.abs(low.values + high.values - field.values).max() <= 1e-10


# ---------------------------------------------------------------------------
# metric tables


@settings(max_examples=5, deadline=None)
@given(fields(count=3, kind="prob", min_side=8, max_side=14), st.integers(0, 2 ** 32 - 1))
def test_metric_tables_match_one_table_per_prediction(preds, seed):
    rng = np.random.default_rng(seed)
    first = preds[0]
    y = GridField((rng.uniform(size=first.shape) < 0.3).astype(float), first.spacing_deg,
                  "mask")
    configs = enumerate_configs()
    tables = metric_tables(configs, preds, y)
    assert len(tables) == len(preds)
    for p, table in zip(preds, tables):
        single = metric_table(configs, p, y)
        assert list(table) == list(single) == [s.spec_id for s in configs]
        assert all(table[k] == single[k] for k in single)


def test_threads_sharing_the_cached_window_get_the_serial_results():
    # More threads than cores, switching often, all filling the window and
    # wavenumber caches for a shape no other test uses.
    rng = np.random.default_rng(5)
    shape = (23, 17)
    y = GridField((rng.uniform(size=shape) < 0.3).astype(float), 0.02, "mask")
    preds = [GridField(rng.uniform(size=shape), 0.02, "prob") for _ in range(2)]
    specs = [s for s in enumerate_configs() if s.filter_kind == "F"]
    serial = metric_tables(specs, preds, y)
    fourier_mod._blackman_harris.cache_clear()
    fourier_mod._frequency_grid.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(metric_tables, specs, preds, y) for _ in range(12)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)
