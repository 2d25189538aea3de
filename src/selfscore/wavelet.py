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
3. (a) zero LL at every level whose larger wavelength d*2^(k+1) exceeds hi;
   (b) walking from the deepest level up, rebuild every not-cut-off level's
   LL from all four subbands one level down, so the zeroing propagates;
   (c) for levels with detail wavelength d*2^k at or below lo, zero the
   level's detail subbands;
4. one inverse transform from the level-1 subbands; crop the padding.

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


def _filtered_pyramid(pyramid: WaveletPyramid, band: WavelengthBand) -> WaveletPyramid:
    """Step 3: the pyramid with the module rules applied for one band.

    The input is left untouched; subbands the band keeps are shared with it.
    Levels are built deepest first, so each rebuilt LL sees the final state
    below.  A level whose larger wavelength exceeds the band top ("above")
    gets a zero LL and is never rebuilt: that cuts the chain to deeper
    levels, whose scales are larger still.  Every other level but the
    deepest rebuilds LL from the level below, so the filtering propagates.
    """
    n_levels = pyramid.n_levels
    levels: list[WaveletLevel] = []
    for k in range(n_levels, 0, -1):
        level = pyramid.levels[k - 1]
        small, large = level_wavelengths(k, pyramid.spacing_deg)
        if large > band.hi_deg:
            ll = np.zeros_like(level.ll)
        elif k == n_levels:
            ll = level.ll
        else:
            deeper = levels[-1]
            ll = haar_inverse(deeper.ll, deeper.lh, deeper.hl, deeper.hh)
        if small <= band.lo_deg:
            zero = np.zeros_like(level.lh)
            levels.append(WaveletLevel(ll, zero, zero, zero))
        else:
            levels.append(WaveletLevel(ll, level.lh, level.hl, level.hh))
    return WaveletPyramid(levels[::-1], pyramid.spacing_deg)


def _crop(decomposition: WaveletDecomposition, full: np.ndarray) -> GridField:
    """Step 4's crop back to the original shape, keeping the eval mask."""
    field = decomposition.field
    out = crop_taper(GridField(full, field.spacing_deg, "real"), field.shape)
    return GridField(out.values, field.spacing_deg, "real", field.eval_mask)


def wavelet_band_passes(decompositions: Sequence[WaveletDecomposition],
                        band: WavelengthBand) -> list[GridField]:
    """Band-pass every decomposed field under one band, in input order.

    Each output is inverted once from the level-1 subbands of the filtered
    pyramid and cropped; the all-pass band reproduces the input exactly.
    """
    return [_crop(d, pyramid_reconstruct(_filtered_pyramid(d.pyramid, band)))
            for d in decompositions]


def wavelet_band_pass(field: GridField, band: WavelengthBand,
                      return_stages: bool = False) -> GridField | tuple[GridField, dict]:
    """Band-pass filter a field by zeroing out-of-band Haar coefficients.

    The field is padded (centered) to power-of-two dims, fully decomposed,
    filtered per the module rules, inverted once from level 1, and cropped;
    the same values as :func:`wavelet_band_passes`.  The all-pass band
    reproduces the input exactly.
    """
    decomposition = wavelet_decompose(field)
    if not return_stages:
        return wavelet_band_passes([decomposition], band)[0]
    filtered = _filtered_pyramid(decomposition.pyramid, band)
    full = pyramid_reconstruct(filtered)
    stages = {
        "padded": decomposition.padded,
        "pyramid": decomposition.pyramid,
        "filtered_pyramid": filtered,
        "full": full,
    }
    return _crop(decomposition, full), stages
