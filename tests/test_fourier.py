"""Fourier pipeline: window/gain constants, DFT conventions, band passes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from selfscore.fourier import (BUTTERWORTH_ORDER, _axis_frequencies, blackman_harris_weights,
                               butterworth_gain, fourier_band_pass, fourier_band_passes,
                               fourier_spectrum, fourier_stages)
from selfscore.grid import GridField, WavelengthBand

from _spectral import full_nu, taper


def _field(values, spacing=0.02, kind="real"):
    return GridField(np.asarray(values, dtype=np.float64), spacing, kind)


# ---------------------------------------------------------------------------
# frequency convention

def test_axis_frequencies_match_known_values():
    # Even length: index n/2 is the positive Nyquist frequency.
    n, d = 8, 0.5
    want = np.array([0, 1, 2, 3, 4, -3, -2, -1]) / (n * d)
    assert_allclose(_axis_frequencies(n, d), want, atol=0)
    # Odd length.
    want = np.array([0, 1, 2, -2, -1]) / 5.0
    assert_allclose(_axis_frequencies(5, 1.0), want, atol=0)


def test_frequency_magnitude_is_radial():
    nu = full_nu((6, 10), spacing_deg=0.1)
    assert nu[0, 0] == 0.0
    assert nu[2, 3] == pytest.approx(
        math.hypot(_axis_frequencies(6, 0.1)[2], _axis_frequencies(10, 0.1)[3]))


def test_pure_mode_lands_on_expected_bin():
    # A cosine with k cycles along the columns concentrates its spectrum at
    # column bins +-k; the frequency there is k/(n*spacing).
    n, spacing, k = 32, 0.25, 5
    x = np.arange(n) * 2.0 * np.pi * k / n
    values = np.tile(np.cos(x), (n, 1))
    spectrum = np.abs(np.fft.fft2(values))
    hot = np.argwhere(spectrum > spectrum.max() / 2)
    assert {tuple(h) for h in hot} == {(0, k), (0, n - k)}
    assert _axis_frequencies(n, spacing)[k] == pytest.approx(k / (n * spacing))


# ---------------------------------------------------------------------------
# window

def test_window_endpoint_constants():
    w = blackman_harris_weights((21, 21))
    center = w[10, 10]
    edge_mid = w[10, 0]  # distance exactly R along an axis
    assert center == pytest.approx(1.0, abs=1e-12)
    assert edge_mid == pytest.approx(0.0, abs=1e-12)


def test_window_radial_symmetry_and_support():
    w = blackman_harris_weights((31, 31))
    assert_allclose(w, w.T, atol=1e-15)
    assert_allclose(w, w[::-1, :], atol=1e-15)
    # beyond the inscribed circle the window is exactly zero
    assert w[0, 0] == 0.0
    assert (w >= 0).all() and (w <= 1.0 + 1e-12).all()


def test_window_rectangular_uses_smaller_half_width():
    w = blackman_harris_weights((11, 41))
    # radius = 5 along rows: the row extremes sit at distance R
    assert w[0, 20] == pytest.approx(0.0, abs=1e-12)
    # column direction runs past R and is clamped to zero
    assert w[5, 0] == 0.0


# ---------------------------------------------------------------------------
# Butterworth gain

def test_gain_constants_at_cutoff_and_zero():
    band = WavelengthBand(0.5, math.inf)  # low-pass stage only, nu_max = 2
    shape, spacing = (40, 40), 0.05  # axis frequencies k/2: bin 4 sits at nu=2
    gain = butterworth_gain(shape, spacing, band)  # columns 0..cols//2
    nu = full_nu(shape, spacing)[:, :shape[1] // 2 + 1]
    at_cut = nu == 2.0
    assert at_cut.any()
    assert_allclose(gain[at_cut], 0.5, atol=1e-12)
    assert gain[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_gain_formula_pointwise():
    shape, spacing, order = (16, 24), 0.1, BUTTERWORTH_ORDER
    lo, hi = 0.4, 1.6
    gain = butterworth_gain(shape, spacing, WavelengthBand(lo, hi))
    nu = full_nu(shape, spacing)[:, :shape[1] // 2 + 1]
    low_stage = 1.0 / (1.0 + (nu * lo) ** (2 * order))
    high_stage = 1.0 - 1.0 / (1.0 + (nu * hi) ** (2 * order))
    assert_allclose(gain, low_stage * high_stage, atol=1e-15)


def test_complementary_gains_sum_to_one():
    shape, spacing = (40, 40), 0.02
    for edge in (0.1, 0.2, 0.4, 0.8):
        low = butterworth_gain(shape, spacing, WavelengthBand(0.0, edge))
        high = butterworth_gain(shape, spacing, WavelengthBand(edge, math.inf))
        assert_allclose(low + high, 1.0, atol=1e-12)


def test_all_pass_gain_is_identity():
    gain = butterworth_gain((8, 8), 0.5, WavelengthBand(0.0, math.inf))
    assert_allclose(gain, 1.0, atol=0)


# ---------------------------------------------------------------------------
# full band-pass pipeline

def windowed_reference(field):
    """The tapered + windowed original, cropped back: what an all-pass run
    must reproduce."""
    target = (3 * field.rows, 3 * field.cols)
    windowed = blackman_harris_weights(target) * taper(field, target)
    top = (target[0] - field.rows) // 2
    left = (target[1] - field.cols) // 2
    return windowed[top:top + field.rows, left:left + field.cols]


def test_all_pass_returns_windowed_original():
    rng = np.random.default_rng(7)
    for shape in ((16, 16), (11, 17)):
        f = _field(rng.normal(size=shape))
        out = fourier_band_pass(f, WavelengthBand(0.0, math.inf))
        assert out.shape == shape
        assert out.kind == "real"
        assert_allclose(out.values, windowed_reference(f), atol=1e-10)


def test_complementary_bands_sum_to_windowed_original():
    rng = np.random.default_rng(8)
    f = _field((rng.uniform(size=(24, 24)) < 0.3).astype(float), kind="mask")
    for edge in (0.1, 0.4):
        low = fourier_band_pass(f, WavelengthBand(0.0, edge))
        high = fourier_band_pass(f, WavelengthBand(edge, math.inf))
        assert_allclose(low.values + high.values, windowed_reference(f), atol=1e-10)


def test_low_pass_smooths_and_high_pass_detrends():
    # Sum of a large-scale and a small-scale cosine: a band filter around
    # each wavelength should isolate it (up to window attenuation, compare
    # against filtering each component separately).
    n, spacing = 48, 0.05
    x = np.arange(n) * spacing
    coarse = np.cos(2 * np.pi * x / 1.6)       # wavelength 1.6 deg
    fine = np.cos(2 * np.pi * x / 0.2)         # wavelength 0.2 deg
    both = _field(np.tile(coarse + fine, (n, 1)), spacing)
    only_coarse = _field(np.tile(coarse, (n, 1)), spacing)
    only_fine = _field(np.tile(fine, (n, 1)), spacing)
    band_coarse = WavelengthBand(0.8, math.inf)
    band_fine = WavelengthBand(0.0, 0.4)
    got_coarse = fourier_band_pass(both, band_coarse).values
    got_fine = fourier_band_pass(both, band_fine).values
    # linearity: filtering the sum = sum of filtered components
    want_coarse = (fourier_band_pass(only_coarse, band_coarse).values
                   + fourier_band_pass(only_fine, band_coarse).values)
    assert_allclose(got_coarse, want_coarse, atol=1e-10)
    # and the cross-band leakage is small: coarse band output on the fine
    # component alone is much weaker than on the coarse component alone
    leak = np.abs(fourier_band_pass(only_fine, band_coarse).values).max()
    keep = np.abs(fourier_band_pass(only_coarse, band_coarse).values).max()
    assert leak < 0.1 * keep


def test_taper_triples_dimensions_and_preserves_eval_mask():
    emask = np.zeros((10, 12), dtype=bool)
    emask[2:8, 3:9] = True
    f = GridField(np.ones((10, 12)), 0.02, "prob", emask)
    stages = fourier_stages(f, WavelengthBand(0.0, 0.4))
    out = fourier_band_pass(f, WavelengthBand(0.0, 0.4))
    assert stages["tapered"].shape == (30, 36)
    assert stages["gain"].shape == (30, 36)
    assert out.shape == (10, 12)
    assert (out.eval_mask == emask).all()


def test_round_trip_forward_inverse_dft():
    rng = np.random.default_rng(9)
    for _ in range(10):
        values = rng.normal(size=(32, 32))
        back = np.fft.ifft2(np.fft.fft2(values))
        assert np.abs(back - values).max() < 1e-12


# ---------------------------------------------------------------------------
# the transforms against numpy's own 2-D transforms, bit for bit

@st.composite
def field_groups(draw):
    """One to three fields of one shape (odd sizes included), binary or
    random, with spacing 0.02 deg."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    binary = draw(st.booleans())
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        values = rng.uniform(size=(rows, cols))
        fields.append(_field((values < 0.2).astype(float) if binary else values, kind="prob"))
    return fields


BANDS = st.sampled_from([WavelengthBand(0.0, 0.1), WavelengthBand(0.1, math.inf),
                         WavelengthBand(0.05, 0.4), WavelengthBand(0.0, math.inf)])


def allocating_inverse(spectrum, shape, gain):
    """The inverse as each field ran it before ``fourier_band_passes``
    reused one work array: a fresh product and a fresh column transform."""
    rows, cols = 3 * shape[0], 3 * shape[1]
    top, left = (rows - shape[0]) // 2, (cols - shape[1]) // 2
    by_col = np.fft.ifft(spectrum * gain, axis=0)[top:top + shape[0]]
    return np.fft.irfft(by_col, n=cols, axis=1)[:, left:left + shape[1]]


@settings(max_examples=150, deadline=None)
@given(field_groups())
def test_spectrum_is_rfft2_of_the_windowed_taper(fields):
    for field in fields:
        target = (3 * field.rows, 3 * field.cols)
        windowed = blackman_harris_weights(target) * taper(field, target)
        want = np.fft.rfft2(windowed)
        got = fourier_spectrum(field.values)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@settings(max_examples=150, deadline=None)
@given(field_groups(), BANDS)
def test_band_passes_match_an_inverse_per_field(fields, band):
    shape = fields[0].shape
    spectra = [fourier_spectrum(f.values) for f in fields]
    gain = butterworth_gain((3 * shape[0], 3 * shape[1]), 0.02, band)
    outs = fourier_band_passes(spectra, shape, 0.02, band)
    assert len(outs) == len(spectra)
    for spectrum, out in zip(spectra, outs):
        assert out.tobytes() == allocating_inverse(spectrum, shape, gain).tobytes()
        assert out.dtype == np.float64 and out.shape == shape
