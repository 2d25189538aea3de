"""Square-window neighbourhood filters.

Both filters use a (2r + 1) x (2r + 1) window centered on each pixel, where
``r`` is the half-width in pixels.  Pixels beyond the grid edge count as
zero, and the mean filter always divides by the full window size, so events
near the boundary are attenuated rather than reflected.

``max_filter_array`` turns an event mask into its binary dilation ("did
anything happen within r pixels?"); ``mean_filter_array`` turns it into an
event fraction.  Both accept ``r = 0`` (identity), and equal
``scipy.ndimage``'s bit for bit.  They take and return raw arrays: the
field-level filters are ``losses.apply_filter``'s.
"""

from __future__ import annotations

import numpy as np


def _check_half_width(half_width: int) -> int:
    if not isinstance(half_width, (int, np.integer)) or half_width < 0:
        raise ValueError(f"half_width must be a non-negative integer, got {half_width!r}")
    return int(half_width)


def _padded(values: np.ndarray, r: int, fill: float) -> np.ndarray:
    """The 2-D array as float64, padded by r with ``fill``: the bytes of
    ``np.pad``, in about a third of its time at 128^2."""
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    padded = np.full((rows + 2 * r, cols + 2 * r), fill)
    padded[r:r + rows, r:r + cols] = values
    return padded


def _separable(values: np.ndarray, r: int, window, fill: float = 0.0) -> np.ndarray:
    """Reduce down the columns, then along the rows, of the array padded by r
    with ``fill``: zero for both public filters, -inf where ``scores`` takes
    a window minimum as the maximum of negated values.  Each pass runs on a
    C-ordered array (a transposed view ran 2x slower)."""
    padded = _padded(values, r, fill)
    across = np.ascontiguousarray(window(padded, r).T)
    return np.ascontiguousarray(window(across, r).T)


def _window_max(padded: np.ndarray, r: int) -> np.ndarray:
    """Maximum of every 2r + 1 consecutive rows; ``run[i]`` spans ``width``."""
    size, run, width = 2 * r + 1, padded, 1
    while 2 * width <= size:
        run = np.maximum(run[:-width], run[width:])
        width *= 2
    n = len(padded) - 2 * r
    return np.maximum(run[:n], run[size - width:size - width + n])


def _window_sum(padded: np.ndarray, r: int) -> np.ndarray:
    """Sum of every 2r + 1 consecutive rows, added as ``scipy.ndimage.correlate1d``
    adds a symmetric kernel: the centre, then the pairs at j = r down to 1."""
    n = len(padded) - 2 * r
    acc = padded[r:r + n].copy()
    for j in range(r, 0, -1):
        acc += padded[r - j:r - j + n] + padded[r + j:r + j + n]
    return acc


def max_filter_array(values: np.ndarray, half_width: int) -> np.ndarray:
    """Window maximum of a raw array, zeros beyond the edges."""
    return _separable(values, _check_half_width(half_width), _window_max)


def mean_filter_array(values: np.ndarray, half_width: int) -> np.ndarray:
    """Window mean of a raw array with fixed divisor (2r+1)^2, zeros beyond edges."""
    r = _check_half_width(half_width)
    return _separable(values, r, _window_sum) / float((2 * r + 1) ** 2)

