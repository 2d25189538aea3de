"""Wavelet scale separation with an orthonormal 2-D Haar pyramid.

One forward step maps each 2x2 block (a b / c d) to four half-resolution
subbands::

    LL = (a + b + c + d) / 2     mean in both directions
    LH = (a + b - c - d) / 2     mean across columns, detail down rows
    HL = (a - b + c - d) / 2     detail across columns, mean down rows
    HH = (a - b - c + d) / 2     detail in both directions

The four basis vectors are orthonormal, so energy is preserved level by
level and the inverse is exact.  The pyramid recurses on LL; at level k of
a grid with spacing d the detail subbands represent wavelengths of d*2^k
(the level "covers" d*2^k .. d*2^(k+1)).

Band-pass filtering keeps the detail subbands of the levels k <= k*, where
k* is the shallowest level whose larger wavelength d*2^(k*+1) exceeds hi,
excluding levels with d*2^k <= lo (plus the deepest LL when no level is cut
off above, i.e. when hi is at least the padded-domain scale):

1. pad the field, centered, to power-of-two dimensions;
2. decompose fully;
3. one inverse walk up to the padded grid: it starts from a zero LL at the
   shallowest level whose larger wavelength d*2^(k+1) exceeds hi (every
   deeper level's does too), or from the deepest LL when no level's does;
   a level with detail wavelength d*2^k at or below lo inverts with zero
   details, every other level with its own;
4. crop the padding.

The bottom band edge is exclusive so that complementary bands [0, x] and
[x, inf] split every coefficient exactly once: the detail subbands at
wavelength exactly x belong to the band below (x is that band's inclusive
top edge), and the two filtered outputs sum to the padded input.  That
partition holds for any edge from the finest detail wavelength 2d up to
the padded-domain scale; edges outside that range follow the procedural
rules above (a top edge below 2d still passes the level-1 details).

Steps 1-2 depend on the field only, so a field is decomposed once
(:func:`wavelet_decompose`) and steps 3-4 run per band from that shared
pyramid (:func:`wavelet_band_passes`), which they never modify.
:func:`wavelet_band_pass` is its one-field case; :func:`wavelet_stages`
gives the padded input and the uncropped output, for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import GridField, WavelengthBand, crop_taper, next_pow2_dims, taper_zero_pad


def _check_even(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] % 2 or values.shape[1] % 2:
        raise ValueError(f"Haar step needs even 2-D dims, got {values.shape}")
    return values


def haar_forward(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One orthonormal Haar analysis step: array -> (LL, LH, HL, HH)."""
    values = _check_even(values)
    a = values[0::2, 0::2]
    b = values[0::2, 1::2]
    c = values[1::2, 0::2]
    d = values[1::2, 1::2]
    ll = (a + b + c + d) / 2.0
    lh = (a + b - c - d) / 2.0
    hl = (a - b + c - d) / 2.0
    hh = (a - b - c + d) / 2.0
    return ll, lh, hl, hh


def haar_inverse(ll: np.ndarray, lh: np.ndarray, hl: np.ndarray,
                 hh: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`haar_forward`."""
    ll, lh, hl, hh = (np.asarray(x, dtype=np.float64) for x in (ll, lh, hl, hh))
    if not (ll.shape == lh.shape == hl.shape == hh.shape):
        raise ValueError("subband shapes must match")
    rows, cols = ll.shape
    out = np.empty((2 * rows, 2 * cols), dtype=np.float64)
    out[0::2, 0::2] = (ll + lh + hl + hh) / 2.0
    out[0::2, 1::2] = (ll + lh - hl - hh) / 2.0
    out[1::2, 0::2] = (ll - lh + hl - hh) / 2.0
    out[1::2, 1::2] = (ll - lh - hl + hh) / 2.0
    return out


@dataclass
class WaveletLevel:
    """Subbands at one pyramid level (each of shape rows/2^k x cols/2^k)."""

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray


@dataclass
class WaveletPyramid:
    """Full Haar pyramid; ``levels[k-1]`` holds level k, level 1 shallowest."""

    levels: list[WaveletLevel]
    spacing_deg: float

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def level_wavelengths(level: int, spacing_deg: float) -> tuple[float, float]:
    """(smaller, larger) wavelength in degrees represented at a pyramid level."""
    if level < 1:
        raise ValueError("levels are 1-based")
    return spacing_deg * 2.0 ** level, spacing_deg * 2.0 ** (level + 1)


def haar_pyramid(values: np.ndarray, n_levels: int, spacing_deg: float) -> WaveletPyramid:
    """Decompose an array whose dims are divisible by 2**n_levels."""
    values = np.asarray(values, dtype=np.float64)
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    for n in values.shape:
        if n % (1 << n_levels):
            raise ValueError(f"dims {values.shape} not divisible by 2^{n_levels}")
    levels = []
    current = values
    for _ in range(n_levels):
        ll, lh, hl, hh = haar_forward(current)
        levels.append(WaveletLevel(ll, lh, hl, hh))
        current = ll
    return WaveletPyramid(levels, spacing_deg)


def pyramid_reconstruct(pyramid: WaveletPyramid) -> np.ndarray:
    """Invert a full pyramid back to the spatial domain (exact)."""
    level1 = pyramid.levels[0]
    return haar_inverse(level1.ll, level1.lh, level1.hl, level1.hh)


@dataclass(frozen=True)
class WaveletDecomposition:
    """Steps 1-2 of the band-pass for one field: its power-of-two padding
    and the full Haar pyramid of it, shared by every band."""

    field: GridField
    padded: np.ndarray
    pyramid: WaveletPyramid


def wavelet_decompose(field: GridField) -> WaveletDecomposition:
    """Pad a field to power-of-two dims and decompose it fully, once."""
    target = next_pow2_dims(field.shape)
    if min(target) < 2:
        raise ValueError("grid too small for a 2-D wavelet decomposition")
    padded = taper_zero_pad(field, target).values
    n_levels = int(math.log2(min(target)))
    return WaveletDecomposition(field, padded,
                                haar_pyramid(padded, n_levels, field.spacing_deg))


def _band_full(decomposition: WaveletDecomposition, band: WavelengthBand) -> np.ndarray:
    """Step 3 for one band: the padded grid from one inverse walk of the
    shared pyramid, which it only reads."""
    levels, spacing = decomposition.pyramid.levels, decomposition.pyramid.spacing_deg
    start = next((k for k in range(1, len(levels) + 1)
                  if level_wavelengths(k, spacing)[1] > band.hi_deg), None)
    ll = levels[-1].ll if start is None else np.zeros_like(levels[start - 1].ll)
    for k in range(start or len(levels), 0, -1):
        level = levels[k - 1]
        keep = level_wavelengths(k, spacing)[0] > band.lo_deg
        ll = haar_inverse(ll, *((level.lh, level.hl, level.hh) if keep
                                else (np.zeros_like(level.lh),) * 3))
    return ll


def _crop(decomposition: WaveletDecomposition, full: np.ndarray) -> GridField:
    """Step 4's crop back to the original shape, keeping the eval mask."""
    field = decomposition.field
    out = crop_taper(GridField(full, field.spacing_deg, "real"), field.shape)
    return GridField(out.values, field.spacing_deg, "real", field.eval_mask)


def wavelet_band_passes(decompositions: Sequence[WaveletDecomposition],
                        band: WavelengthBand) -> list[GridField]:
    """Band-pass every decomposed field under one band, in input order.

    Each output is one inverse walk of the shared pyramid, cropped; the
    all-pass band reproduces the input exactly.
    """
    return [_crop(d, _band_full(d, band)) for d in decompositions]


def wavelet_band_pass(field: GridField, band: WavelengthBand) -> GridField:
    """Band-pass filter one field: the one-field case of
    :func:`wavelet_band_passes`."""
    return wavelet_band_passes([wavelet_decompose(field)], band)[0]


def wavelet_stages(field: GridField, band: WavelengthBand) -> dict[str, np.ndarray]:
    """The pipeline's stages for inspection, on the power-of-two grid: padded
    (the input) and full (the uncropped output, whose crop is
    :func:`wavelet_band_pass`'s)."""
    decomposition = wavelet_decompose(field)
    return {"padded": decomposition.padded, "full": _band_full(decomposition, band)}
