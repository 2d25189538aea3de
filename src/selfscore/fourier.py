"""Fourier scale separation: taper, radial window, Butterworth band-pass.

The pipeline for one field is:

1. zero-pad the field, centered, to 3x its dimensions (so discontinuities at
   the patch edge move away from the data);
2. multiply by a radially symmetric Blackman-Harris window that falls from 1
   at the grid center to 0 at the nearest edge;
3. forward 2-D real DFT (unnormalised), which keeps the half plane of
   columns 0..cols//2; the other half is the complex conjugate mirror of it;
4. multiply the half-plane coefficients by a real Butterworth gain built
   from the wavelength band;
5. inverse real DFT (scaled by 1/(rows*cols)) back to the padded grid;
6. crop the centered original-shape window back out.

Steps 1-3 depend on the field only and steps 4-6 on the band, so a field's
values are transformed once (:func:`fourier_spectrum`) and then filtered
under any number of bands; :func:`fourier_band_passes` builds one band's
gain once and inverts several spectra of one grid as one stack.  Both take
and return raw arrays, as the neighbourhood filters do; the one-field
:func:`fourier_band_pass` takes and returns a field.  Step 2 windows the
(unpadded) data block only, and step 3 transforms only the data rows along
rows; :func:`fourier_stages` builds every step on the full padded grid.

The gain depends on |nu| only, which rows k and N-k, and columns j and M-j,
of an N x M padded grid share bit for bit: |nu| is built once per padded
shape and spacing on the quarter plane of rows 0..N//2 and columns 0..M//2,
and each gain on it, mirrored into the other rows.  The filtered spectrum
keeps a real field's conjugate symmetry, so the inverse real DFT is exact,
with no imaginary residue to drop.

Memory: a one-field band-pass peaks at about 29 bytes per padded pixel
above the field (own ``VmHWM``, 1000 x 1000 field, numpy 2.4); the spectrum
and its gain-multiplied copy, complex half planes, take 8 each.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .grid import GridField, WavelengthBand, _centred, _check_transforms, _check_values

TAPER_FACTOR = 3
BUTTERWORTH_ORDER = 2


def _axis_frequencies(n: int, spacing_deg: float) -> np.ndarray:
    """DFT wavenumbers (cycles per degree) of an n-point axis, in index order."""
    idx = np.arange(n)
    signed = np.where(2 * idx <= n, idx, idx - n)
    return signed / (n * spacing_deg)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=8)
def _quarter_nu(shape: tuple[int, int], spacing_deg: float) -> np.ndarray:
    """|nu| = sqrt(nu_r^2 + nu_c^2) on rows 0..rows//2 x columns 0..cols//2,
    every magnitude of the plane (the rest mirror these bit for bit)."""
    nu_r = _axis_frequencies(shape[0], spacing_deg)[:shape[0] // 2 + 1]
    nu_c = _axis_frequencies(shape[1], spacing_deg)[:shape[1] // 2 + 1]
    return _read_only(np.sqrt(nu_r[:, None] ** 2 + nu_c[None, :] ** 2))


@functools.lru_cache(maxsize=8)
def _blackman_harris(shape: tuple[int, int], rows: tuple[int, int],
                     cols: tuple[int, int]) -> np.ndarray:
    """The block ``rows[0]:rows[1]`` x ``cols[0]:cols[1]`` of the window of
    ``shape``; each value is that of the whole-grid window bit for bit."""
    center_r, center_c = (shape[0] - 1) / 2.0, (shape[1] - 1) / 2.0
    radius = min(shape[0] - 1, shape[1] - 1) / 2.0
    rr = np.arange(*rows)[:, None] - center_r
    cc = np.arange(*cols)[None, :] - center_c
    dist = np.sqrt(rr ** 2 + cc ** 2)
    if radius == 0:
        return _read_only((dist == 0).astype(np.float64))
    phase = np.pi * (1.0 + dist / radius)
    weights = 0.42 - 0.5 * np.cos(phase) + 0.08 * np.cos(2.0 * phase)
    # The continuous window is non-negative; rounding can leave ~-1e-17 at
    # the boundary circle, so clamp before zeroing the outside.
    np.maximum(weights, 0.0, out=weights)
    weights[dist > radius] = 0.0
    return _read_only(weights)


def blackman_harris_weights(shape: tuple[int, int]) -> np.ndarray:
    """Radially symmetric Blackman-Harris window.

    At distance r_g from the grid center the weight is

        w = 0.42 - 0.5*cos(pi*(1 + r_g/R)) + 0.08*cos(2*pi*(1 + r_g/R))

    for r_g <= R and 0 beyond, where R is the half-width of the grid
    (half the smaller of rows-1, cols-1), so w(0) = 1 and w(R) = 0.
    Built once per shape; the array is shared and read-only.
    """
    shape = int(shape[0]), int(shape[1])
    return _blackman_harris(shape, (0, shape[0]), (0, shape[1]))


def butterworth_gain(shape: tuple[int, int], spacing_deg: float,
                     band: WavelengthBand) -> np.ndarray:
    """Real band-pass gain for the given wavelength band, on the columns
    0..cols//2 that a real DFT of a ``shape`` grid keeps.

    The band [lo, hi] in wavelength maps to wavenumbers [1/hi, 1/lo].  The
    low-pass stage 1/(1 + (nu/nu_max)^(2*order)) removes wavenumbers above
    nu_max = 1/lo (skipped when lo = 0); the high-pass stage
    1 - 1/(1 + (nu/nu_min)^(2*order)) removes wavenumbers below
    nu_min = 1/hi (skipped when hi = inf), with order
    ``BUTTERWORTH_ORDER``.  Gains of complementary bands [0, x] and
    [x, inf] sum to 1 at every wavenumber.
    """
    rows, half = shape[0], shape[0] // 2 + 1
    nu = _quarter_nu((int(shape[0]), int(shape[1])), float(spacing_deg))
    # Rows k and rows-k share |nu| bit for bit: build rows 0..rows//2 and
    # mirror the rest.
    gain = np.ones((rows, nu.shape[1]), dtype=np.float64)
    built = gain[:half]
    if band.lo_deg > 0:
        nu_max = 1.0 / band.lo_deg
        built *= 1.0 / (1.0 + (nu / nu_max) ** (2 * BUTTERWORTH_ORDER))
    if not math.isinf(band.hi_deg):
        nu_min = 1.0 / band.hi_deg
        built *= 1.0 - 1.0 / (1.0 + (nu / nu_min) ** (2 * BUTTERWORTH_ORDER))
    gain[half:] = built[rows - half:0:-1]
    return gain


def fourier_spectrum(values: np.ndarray) -> np.ndarray:
    """Pad, window and transform a field's values once, for any number of
    bands, into a read-only (3*rows, 3*cols//2 + 1) array: ``np.fft.rfft2``
    (rows, then columns) of the windowed taper bit for bit, built from the
    data rows alone, windowed and padded as one (rows, 3*cols) block (the
    padded rows take a zero row's transform, some of its zeros -0.0)."""
    _check_values(values)
    rows, cols = target = TAPER_FACTOR * values.shape[0], TAPER_FACTOR * values.shape[1]
    data_rows, data_cols = _centred(values.shape, target)
    block = np.zeros((values.shape[0], cols))
    block[:, data_cols] = values * _blackman_harris(
        target, (data_rows.start, data_rows.stop), (data_cols.start, data_cols.stop))
    coeffs = np.tile(np.fft.rfft(np.zeros(cols)), (rows, 1))
    coeffs[data_rows] = np.fft.rfft(block)
    np.fft.fft(coeffs, axis=0, out=coeffs)
    return _read_only(coeffs)


def fourier_band_passes(spectra: Sequence[np.ndarray], shape: tuple[int, int],
                        spacing_deg: float, band: WavelengthBand) -> list[np.ndarray]:
    """Band-pass the spectra of ``shape`` grids of spacing ``spacing_deg``
    under one band (steps 4-6), refusing a spectrum of any other grid.

    The band's gain is built once and multiplied into one stack of the
    spectra, inverted down the columns of the whole stack, then along the
    rows the crop keeps only, each line on its own as ``irfft2`` of one
    spectrum transforms it, so bit for bit as a full ``irfft2``.  Returns
    each crop copied, in input order (window attenuation is not undone)."""
    target = TAPER_FACTOR * shape[0], TAPER_FACTOR * shape[1]
    _check_transforms(shape, [s.shape for s in spectra], (target[0], target[1] // 2 + 1))
    data_rows, data_cols = _centred(shape, target)
    gain = butterworth_gain(target, spacing_deg, band)
    work = np.empty((len(spectra), *gain.shape), dtype=np.complex128)
    for spectrum, plane in zip(spectra, work):
        np.multiply(spectrum, gain, out=plane)
    by_col = np.fft.ifft(work, axis=1, out=work)[:, data_rows]
    return [out.copy() for out in np.fft.irfft(by_col, n=target[1], axis=2)[:, :, data_cols]]


def fourier_band_pass(field: GridField, band: WavelengthBand) -> GridField:
    """Band-pass filter one field: the one-field case of
    :func:`fourier_band_passes`, as a "real" field with the input's eval mask."""
    return field.with_values(fourier_band_passes([fourier_spectrum(field.values)], field.shape,
                                                 field.spacing_deg, band)[0], "real")


def fourier_stages(field: GridField, band: WavelengthBand) -> dict[str, np.ndarray]:
    """The pipeline's stages for inspection, as full padded-grid arrays:
    tapered, window, windowed, gain, spectrum_mag, filtered_mag and full
    (the uncropped output, whose crop is :func:`fourier_band_pass`'s)."""
    target = TAPER_FACTOR * field.rows, TAPER_FACTOR * field.cols
    tapered = np.zeros(target)
    tapered[_centred(field.shape, target)] = field.values
    window = blackman_harris_weights(target)
    half_gain = butterworth_gain(target, field.spacing_deg, band)
    # Columns j and cols-j share |nu| bit for bit, as rows do: mirror them.
    gain = np.concatenate([half_gain, half_gain[:, (target[1] - 1) // 2:0:-1]], axis=1)
    windowed = window * tapered
    spectrum_mag = np.abs(np.fft.fft2(windowed))
    return {
        "tapered": tapered,
        "window": window,
        "windowed": windowed,
        "gain": gain,
        "spectrum_mag": spectrum_mag,
        "filtered_mag": spectrum_mag * gain,
        "full": np.fft.irfft2(fourier_spectrum(field.values) * half_gain, s=target),
    }
