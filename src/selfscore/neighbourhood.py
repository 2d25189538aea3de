"""Square-window neighbourhood filters.

Both filters use a (2r + 1) x (2r + 1) window centered on each pixel, where
``r`` is the half-width in pixels.  Pixels beyond the grid edge count as
zero, and the mean filter always divides by the full window size, so events
near the boundary are attenuated rather than reflected.

``max_filter`` turns an event mask into its binary dilation ("did anything
happen within r pixels?"); ``mean_filter`` turns it into an event fraction.
Both accept ``r = 0`` (identity).
"""

from __future__ import annotations

import numpy as np

from .grid import GridField


def _check_half_width(half_width: int) -> int:
    if not isinstance(half_width, (int, np.integer)) or half_width < 0:
        raise ValueError(f"half_width must be a non-negative integer, got {half_width!r}")
    return int(half_width)


def max_filter_array(values: np.ndarray, half_width: int) -> np.ndarray:
    """Window maximum of a raw array, zeros beyond the edges."""
    r = _check_half_width(half_width)
    if r == 0:
        return np.array(values, dtype=np.float64)
    from scipy import ndimage  # imported on first use: ~0.4 s that most commands skip
    return ndimage.maximum_filter(
        np.asarray(values, dtype=np.float64), size=2 * r + 1, mode="constant", cval=0.0)


def mean_filter_array(values: np.ndarray, half_width: int) -> np.ndarray:
    """Window mean of a raw array with fixed divisor (2r+1)^2, zeros beyond edges."""
    r = _check_half_width(half_width)
    if r == 0:
        return np.array(values, dtype=np.float64)
    from scipy import ndimage
    ones = np.ones(2 * r + 1, dtype=np.float64)
    acc = ndimage.correlate1d(
        np.asarray(values, dtype=np.float64), ones, axis=0, mode="constant", cval=0.0)
    acc = ndimage.correlate1d(acc, ones, axis=1, mode="constant", cval=0.0)
    return acc / float((2 * r + 1) ** 2)


def max_filter(field: GridField, half_width: int) -> GridField:
    """Neighbourhood maximum of a field; a mask stays a mask."""
    if field.kind not in ("mask", "prob"):
        raise ValueError("max_filter expects a mask or prob field")
    out = max_filter_array(field.values, half_width)
    return GridField(out, field.spacing_deg, field.kind, field.eval_mask)


def mean_filter(field: GridField, half_width: int) -> GridField:
    """Neighbourhood mean of a field; output is a prob field (fractions)."""
    if field.kind not in ("mask", "prob"):
        raise ValueError("mean_filter expects a mask or prob field")
    out = mean_filter_array(field.values, half_width)
    # Guard against rounding a hair past the ends of [0, 1].
    out = np.clip(out, 0.0, 1.0)
    return GridField(out, field.spacing_deg, "prob", field.eval_mask)
