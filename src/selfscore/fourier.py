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

Steps 1-3 depend on the field only and steps 4-6 on the band, so a field is
transformed once (:func:`fourier_spectrum`) and then filtered under any
number of bands; :func:`fourier_band_passes` applies one band's gain to
several spectra, building the gain once.  :func:`fourier_band_pass` is its
one-field case.  The padded rows are zero, so steps 1-2 build the data rows
only and step 3 transforms only those along rows; :func:`fourier_stages`
builds every step on the full padded grid, for inspection.

The gain depends on the wavenumber magnitude only, so it is the same at a
wavenumber and at its mirror; the filtered spectrum keeps the conjugate
symmetry of a real field's and the inverse real DFT returns its real
output exactly, with no imaginary residue to drop.  The window and the
wavenumber grid depend on the padded shape (and spacing) alone; they are
built once per shape and shared read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import GridField, WavelengthBand, _pad_amounts, taper_zero_pad

TAPER_FACTOR = 3
BUTTERWORTH_ORDER = 2


@dataclass(frozen=True)
class FrequencyGrid:
    """DFT wavenumbers (cycles per degree) for a rows x cols grid.

    ``nu_rows``/``nu_cols`` are the per-axis wavenumbers in DFT index order
    (index m maps to m for m <= N/2, else m - N, divided by N*spacing);
    ``nu_total`` is the 2-D magnitude sqrt(nu_r^2 + nu_c^2).
    """

    nu_rows: np.ndarray
    nu_cols: np.ndarray
    nu_total: np.ndarray


def _axis_frequencies(n: int, spacing_deg: float) -> np.ndarray:
    idx = np.arange(n)
    signed = np.where(2 * idx <= n, idx, idx - n)
    return signed / (n * spacing_deg)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=8)
def _frequency_grid(shape: tuple[int, int], spacing_deg: float) -> FrequencyGrid:
    nu_r = _axis_frequencies(shape[0], spacing_deg)
    nu_c = _axis_frequencies(shape[1], spacing_deg)
    nu_total = np.sqrt(nu_r[:, None] ** 2 + nu_c[None, :] ** 2)
    return FrequencyGrid(_read_only(nu_r), _read_only(nu_c), _read_only(nu_total))


def frequency_grid(shape: tuple[int, int], spacing_deg: float) -> FrequencyGrid:
    """Wavenumber grid for an unshifted 2-D DFT of the given shape.

    Built once per (shape, spacing); the arrays are shared and read-only.
    """
    return _frequency_grid((int(shape[0]), int(shape[1])), float(spacing_deg))


@functools.lru_cache(maxsize=8)
def _blackman_harris(shape: tuple[int, int]) -> np.ndarray:
    rows, cols = shape
    center_r, center_c = (rows - 1) / 2.0, (cols - 1) / 2.0
    radius = min(rows - 1, cols - 1) / 2.0
    rr = np.arange(rows)[:, None] - center_r
    cc = np.arange(cols)[None, :] - center_c
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
    return _blackman_harris((int(shape[0]), int(shape[1])))


def butterworth_gain(shape: tuple[int, int], spacing_deg: float,
                     band: WavelengthBand, order: int = BUTTERWORTH_ORDER,
                     half_plane: bool = False) -> np.ndarray:
    """Real band-pass gain grid for the given wavelength band.

    The band [lo, hi] in wavelength maps to wavenumbers [1/hi, 1/lo].  The
    low-pass stage 1/(1 + (nu/nu_max)^(2*order)) removes wavenumbers above
    nu_max = 1/lo (skipped when lo = 0); the high-pass stage
    1 - 1/(1 + (nu/nu_min)^(2*order)) removes wavenumbers below
    nu_min = 1/hi (skipped when hi = inf).  Gains of complementary bands
    [0, x] and [x, inf] sum to 1 at every wavenumber.

    With ``half_plane=True`` only the columns 0..cols//2 that a real DFT
    keeps are built; they equal those columns of the full grid exactly.
    """
    nu = frequency_grid(shape, spacing_deg).nu_total
    if half_plane:
        nu = nu[:, :shape[1] // 2 + 1]
    gain = np.ones(nu.shape, dtype=np.float64)
    if band.lo_deg > 0:
        nu_max = 1.0 / band.lo_deg
        gain *= 1.0 / (1.0 + (nu / nu_max) ** (2 * order))
    if not math.isinf(band.hi_deg):
        nu_min = 1.0 / band.hi_deg
        gain *= 1.0 - 1.0 / (1.0 + (nu / nu_min) ** (2 * order))
    return gain


@dataclass(frozen=True)
class FourierSpectrum:
    """Steps 1-3 of the pipeline for one field: the real DFT of its
    windowed taper, ``coeffs`` of shape (3*rows, 3*cols//2 + 1)."""

    field: GridField
    coeffs: np.ndarray

    @property
    def target(self) -> tuple[int, int]:
        """The padded grid shape."""
        return TAPER_FACTOR * self.field.rows, TAPER_FACTOR * self.field.cols


def fourier_spectrum(field: GridField) -> FourierSpectrum:
    """Pad, window and transform a field once, for any number of bands.
    Only the data rows are padded and windowed, as one (rows, 3*cols) block;
    equals ``np.fft.rfft2`` (rows, then columns) of the windowed taper bit
    for bit, the padded rows all taking a zero row's transform (some of its
    zeros are -0.0)."""
    rows, cols = TAPER_FACTOR * field.rows, TAPER_FACTOR * field.cols
    top = _pad_amounts(field.rows, rows)[0]
    left = _pad_amounts(field.cols, cols)[0]
    block = np.zeros((field.rows, cols))
    block[:, left:left + field.cols] = field.values
    block *= blackman_harris_weights((rows, cols))[top:top + field.rows]
    coeffs = np.tile(np.fft.rfft(np.zeros(cols)), (rows, 1))
    coeffs[top:top + field.rows] = np.fft.rfft(block)
    np.fft.fft(coeffs, axis=0, out=coeffs)
    return FourierSpectrum(field, _read_only(coeffs))


def _inverse_cropped(spectrum: FourierSpectrum, gain: np.ndarray, work: np.ndarray) -> GridField:
    """Steps 4-6, in ``work`` (the spectrum's shape).  The inverse runs down
    the columns over the whole padded grid, then along the rows the crop
    keeps only; per row that is the transform ``irfft2`` runs, so the kept
    values are those of a full ``irfft2`` bit for bit."""
    field = spectrum.field
    rows, cols = spectrum.target
    top = _pad_amounts(field.rows, rows)[0]
    left = _pad_amounts(field.cols, cols)[0]
    np.multiply(spectrum.coeffs, gain, out=work)
    by_col = np.fft.ifft(work, axis=0, out=work)[top:top + field.rows]
    out = np.fft.irfft(by_col, n=cols, axis=1)[:, left:left + field.cols]
    return GridField(out, field.spacing_deg, "real", field.eval_mask)


def fourier_band_passes(spectra: Sequence[FourierSpectrum],
                        band: WavelengthBand) -> list[GridField]:
    """Band-pass every transformed field under one band.

    The fields must share shape and spacing; the band's gain is built once
    and applied to each spectrum.  Returns "real"-kind fields of the
    original shape, in input order (window attenuation is not undone).
    """
    if not spectra:
        return []
    first = spectra[0].field
    for spectrum in spectra[1:]:
        if (spectrum.field.shape != first.shape
                or spectrum.field.spacing_deg != first.spacing_deg):
            raise ValueError("spectra must share shape and spacing")
    gain = butterworth_gain(spectra[0].target, first.spacing_deg, band, half_plane=True)
    work = np.empty_like(spectra[0].coeffs)
    return [_inverse_cropped(spectrum, gain, work) for spectrum in spectra]


def fourier_band_pass(field: GridField, band: WavelengthBand) -> GridField:
    """Band-pass filter one field: the one-field case of
    :func:`fourier_band_passes`."""
    return fourier_band_passes([fourier_spectrum(field)], band)[0]


def fourier_stages(field: GridField, band: WavelengthBand) -> dict[str, np.ndarray]:
    """The pipeline's stages for inspection, as full padded-grid arrays:
    tapered, window, windowed, gain, spectrum_mag, filtered_mag and full
    (the uncropped output, whose crop is :func:`fourier_band_pass`'s)."""
    target = TAPER_FACTOR * field.rows, TAPER_FACTOR * field.cols
    tapered = taper_zero_pad(field, target).values
    window = blackman_harris_weights(target)
    gain = butterworth_gain(target, field.spacing_deg, band)
    windowed = window * tapered
    spectrum_mag = np.abs(np.fft.fft2(windowed))
    half_gain = gain[:, :target[1] // 2 + 1]
    return {
        "tapered": tapered,
        "window": window,
        "windowed": windowed,
        "gain": gain,
        "spectrum_mag": spectrum_mag,
        "filtered_mag": spectrum_mag * gain,
        "full": np.fft.irfft2(fourier_spectrum(field).coeffs * half_gain, s=target),
    }
