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
4. crop the padding: the output is the centred slice of the padded grid.

The bottom band edge is exclusive so that complementary bands [0, x] and
[x, inf] split every coefficient exactly once: the detail subbands at
wavelength exactly x belong to the band below (x is that band's inclusive
top edge), and the two filtered outputs sum to the padded input.  That
partition holds for any edge from the finest detail wavelength 2d up to
the padded-domain scale; edges outside that range follow the procedural
rules above (a top edge below 2d still passes the level-1 details).

Steps 1-2 depend on the field only, so a field's values are decomposed
once (:func:`wavelet_decompose`) into what step 3 reads: each level's detail
subbands and the deepest LL, as many values as the padded grid.  Steps 3-4
run per band from that shared decomposition (:func:`wavelet_band_passes`,
given the grid's shape and spacing), which they never modify.  Both take
and return raw arrays, as the neighbourhood filters do; the one-field
:func:`wavelet_band_pass` takes and returns a field, and
:func:`wavelet_stages` gives the padded input and the uncropped output.

Memory: a one-field band-pass grows by about 26 bytes per padded pixel
(own ``VmHWM``, fields of 200 x 200 to 600 x 600, numpy 2.4).  The padded
grid is freed once level 1 is built; the decomposition keeps 8 bytes per
padded pixel, and the inverse walk's padded output 8 more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (GridField, WavelengthBand, _centred, _check_transforms, _check_values,
                   next_pow2_dims)


def haar_forward(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One orthonormal Haar analysis step: array -> (LL, LH, HL, HH)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] % 2 or values.shape[1] % 2:
        raise ValueError(f"Haar step needs even 2-D dims, got {values.shape}")
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


def _check_haar(shape: tuple[int, int]) -> None:
    """Refuse a grid with one row or one column, which no 2-D step can halve."""
    if min(shape) < 2:
        raise ValueError(f"a Haar decomposition needs 2 rows and 2 columns or more, "
                         f"got {shape[0]}x{shape[1]}")


def _padded(values: np.ndarray) -> np.ndarray:
    """Step 1: ``values`` centred in a zero grid of power-of-two dims."""
    _check_haar(values.shape)
    target = next_pow2_dims(values.shape)
    padded = np.zeros(target)
    padded[_centred(values.shape, target)] = values
    return padded


@dataclass(frozen=True)
class WaveletDecomposition:
    """Steps 1-2 for one field, shared by every band: each level's detail
    subbands ``(lh, hl, hh)``, level 1 (the finest) first, the deepest LL,
    and the shape of the field it was made from."""

    details: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    coarsest: np.ndarray
    shape: tuple[int, int]


def wavelet_decompose(values: np.ndarray) -> WaveletDecomposition:
    """Pad a field's values to power-of-two dims and decompose them fully, once."""
    _check_values(values)
    ll, details = _padded(values), []
    for _ in range(int(math.log2(min(ll.shape)))):
        ll, *detail = haar_forward(ll)
        details.append(tuple(detail))
    return WaveletDecomposition(details, ll, values.shape)


def _band_full(decomposition: WaveletDecomposition, spacing_deg: float,
               band: WavelengthBand) -> np.ndarray:
    """Step 3 for one band: the padded grid from one inverse walk of the
    shared decomposition, which it only reads."""
    details = decomposition.details
    start = next((k for k in range(1, len(details) + 1)
                  if spacing_deg * 2.0 ** (k + 1) > band.hi_deg), None)
    ll = decomposition.coarsest if start is None else np.zeros_like(details[start - 1][0])
    for k in range(start or len(details), 0, -1):
        keep = spacing_deg * 2.0 ** k > band.lo_deg
        ll = haar_inverse(ll, *(details[k - 1] if keep
                                else (np.zeros_like(details[k - 1][0]),) * 3))
    return ll


def wavelet_band_passes(decompositions: Sequence[WaveletDecomposition],
                        shape: tuple[int, int], spacing_deg: float,
                        band: WavelengthBand) -> list[np.ndarray]:
    """Band-pass the decompositions of ``shape`` grids of spacing ``spacing_deg``
    under one band, in input order, refusing one made from another shape: each
    output is one inverse walk, its crop copied (all-pass gives the input exactly)."""
    _check_transforms(shape, [d.shape for d in decompositions], tuple(shape))
    crop = _centred(shape, next_pow2_dims(shape))
    return [_band_full(d, spacing_deg, band)[crop].copy() for d in decompositions]


def wavelet_band_pass(field: GridField, band: WavelengthBand) -> GridField:
    """Band-pass filter one field: the one-field case of
    :func:`wavelet_band_passes`, as a "real" field with the input's eval mask."""
    return field.with_values(wavelet_band_passes([wavelet_decompose(field.values)], field.shape,
                                                 field.spacing_deg, band)[0], "real")


def wavelet_stages(field: GridField, band: WavelengthBand) -> dict[str, np.ndarray]:
    """The pipeline's stages for inspection, on the power-of-two grid: padded
    (the input) and full (the uncropped output, whose crop is
    :func:`wavelet_band_pass`'s)."""
    return {"padded": _padded(field.values),
            "full": _band_full(wavelet_decompose(field.values), field.spacing_deg, band)}
