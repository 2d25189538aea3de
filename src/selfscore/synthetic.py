"""Deterministic synthetic event masks and probability forecasts.

Stands in for real convection masks in tests and demos.  A mask is the
union of randomly placed elliptical cells (discs when the elongation is 1,
line-like blobs when it is larger) rasterised by pixel-centre inclusion.
A forecast is built from a mask by translating it, mean-filtering it, and
adding Gaussian noise, which gives precise control over the spatial offset
and sharpness — the knobs that make pixelwise scores punish close misses.

All randomness comes from ``numpy.random.default_rng`` (the PCG64 bit
generator), which is pinned by NumPy to a fixed 64-bit algorithm, so a
given seed yields bit-identical fields on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField
from .neighbourhood import mean_filter_array


@dataclass(frozen=True)
class Cell:
    """One elliptical event cell in grid coordinates (pixels)."""

    center_row: float
    center_col: float
    radius_major: float
    radius_minor: float
    angle_rad: float  # orientation of the major axis, measured from +col


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a reproducible synthetic event mask."""

    rows: int
    cols: int
    spacing_deg: float
    n_cells: int
    radius_range: tuple[float, float] = (2.0, 6.0)
    elongation_range: tuple[float, float] = (1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and column")
        if self.spacing_deg <= 0:
            raise ValueError("spacing_deg must be positive")
        if self.n_cells < 0:
            raise ValueError("n_cells must be non-negative")
        lo, hi = self.radius_range
        if not (0 < lo <= hi < np.inf):
            raise ValueError("radius_range must satisfy 0 < lo <= hi < inf")
        lo, hi = self.elongation_range
        if not (1.0 <= lo <= hi < np.inf):
            raise ValueError("elongation_range must satisfy 1 <= lo <= hi < inf")


def sample_cells(spec: SynthSpec) -> list[Cell]:
    """Draw the cell placements for a spec (deterministic in the seed)."""
    rng = np.random.default_rng(spec.seed)
    cells = []
    for _ in range(spec.n_cells):
        row = rng.uniform(0.0, spec.rows - 1.0)
        col = rng.uniform(0.0, spec.cols - 1.0)
        radius = rng.uniform(*spec.radius_range)
        elongation = rng.uniform(*spec.elongation_range)
        angle = rng.uniform(0.0, np.pi)
        cells.append(Cell(row, col, radius * elongation, radius, angle))
    return cells


def _span(centre: float, half: float, n: int) -> slice:
    """The pixels of an axis of ``n`` within ``half`` of ``centre``; all of
    them when the bounds are not numbers (a NaN or an infinite cell)."""
    lo, hi = np.clip([np.floor(centre - half), np.ceil(centre + half) + 1.0], 0, n)
    return slice(0, n) if np.isnan(lo + hi) else slice(int(lo), int(hi))


def rasterize(cells: list[Cell], rows: int, cols: int) -> np.ndarray:
    """Union of cells as a {0, 1} array; a pixel is set iff its centre
    lies inside some cell's ellipse.  Each cell is tested only in its bounding
    box: its larger radius and 1e-9 more, rounded out to whole pixels, a margin
    far above the test's rounding, so the mask is that of a whole-grid test."""
    out = np.zeros((rows, cols), dtype=np.float64)
    for cell in cells:
        half = max(abs(cell.radius_major), abs(cell.radius_minor)) * (1.0 + 1e-9)
        box = _span(cell.center_row, half, rows), _span(cell.center_col, half, cols)
        di = np.arange(rows)[box[0], None] - cell.center_row
        dj = np.arange(cols)[box[1]] - cell.center_col
        cos_t, sin_t = np.cos(cell.angle_rad), np.sin(cell.angle_rad)
        u = cos_t * dj + sin_t * di
        v = -sin_t * dj + cos_t * di
        inside = (u / cell.radius_major) ** 2 + (v / cell.radius_minor) ** 2 <= 1.0
        out[box][inside] = 1.0
    return out


def synth_mask(spec: SynthSpec) -> GridField:
    """Generate the event mask described by ``spec``."""
    values = rasterize(sample_cells(spec), spec.rows, spec.cols)
    return GridField(values=values, spacing_deg=spec.spacing_deg, kind="mask")


def translate(values: np.ndarray, offset_px: tuple[int, int]) -> np.ndarray:
    """Shift an array by whole pixels, filling vacated cells with zero."""
    dr, dc = int(offset_px[0]), int(offset_px[1])
    rows, cols = values.shape
    out = np.zeros_like(values)
    src_r = slice(max(0, -dr), min(rows, rows - dr))
    src_c = slice(max(0, -dc), min(cols, cols - dc))
    dst_r = slice(max(0, dr), min(rows, rows + dr))
    dst_c = slice(max(0, dc), min(cols, cols + dc))
    if src_r.start < src_r.stop and src_c.start < src_c.stop:
        out[dst_r, dst_c] = values[src_r, src_c]
    return out


def synth_prob(mask: GridField, blur_r: int = 0, offset_px: tuple[int, int] = (0, 0),
               noise_sd: float = 0.0, seed: int = 0) -> GridField:
    """Forecast field: translate the mask, blur it, add noise, clamp.

    With ``blur_r=0``, ``offset_px=(0, 0)`` and ``noise_sd=0`` the output
    values equal the mask exactly.  Noise is Gaussian with the given
    standard deviation; the sum is clamped to [0, 1].
    """
    if mask.kind != "mask":
        raise ValueError(f"expected a mask field, got kind={mask.kind!r}")
    if noise_sd < 0:
        raise ValueError("noise_sd must be non-negative")
    values = translate(mask.values, offset_px)
    if blur_r > 0:
        values = mean_filter_array(values, blur_r)
    if noise_sd > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_sd, size=values.shape)
    values = np.clip(values, 0.0, 1.0)
    return GridField(values=values, spacing_deg=mask.spacing_deg, kind="prob",
                     eval_mask=mask.eval_mask)
