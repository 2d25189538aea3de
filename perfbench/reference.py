"""Reference implementations used by the benchmark's output checks.

Written from the documented definitions (module docstrings and README of
``selfscore``), not from its code, and importing nothing from it, so a check
that compares the program against these functions can catch a fault in
either.  Plain numpy throughout; speed is secondary.
"""

from __future__ import annotations

import math

import numpy as np

SCORE_KINDS = ("brier", "fss", "iou", "dice", "csi", "xent",
               "heidke", "peirce", "gerrity")
NBHD_SCORE_KINDS = ("brier", "fss", "iou", "dice", "csi", "xent")
NBHD_HALF_WIDTHS = (0, 1, 2, 3, 4, 6, 8, 12)
OCTAVE_EDGES = (0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6)
SPLIT_EDGES = (0.1, 0.2, 0.4, 0.8)
XENT_EPS = 1e-7

#: Documented range of each score: loss values outside it are wrong.
SCORE_RANGE = {
    "brier": (0.0, 1.0), "fss": (0.0, 1.0), "iou": (0.0, 1.0),
    "dice": (0.0, 1.0), "csi": (0.0, 1.0),
    "xent": (0.0, -math.log2(XENT_EPS)),
    "heidke": (-1.0, 1.0), "peirce": (-1.0, 1.0), "gerrity": (-1.0, 1.0),
}
#: Scores where smaller is better; the rest are skill scores.
NEGATIVE_SCORES = ("brier", "xent")


def census_bands() -> list[tuple[float, float]]:
    """The 16 wavelength bands of the census: 8 octaves, 4 low-, 4 high-pass."""
    edges = (0.0,) + OCTAVE_EDGES + (math.inf,)
    bands = list(zip(edges[:-1], edges[1:]))
    bands += [(0.0, x) for x in SPLIT_EDGES] + [(x, math.inf) for x in SPLIT_EDGES]
    return bands


def band_id(method: str, lo: float, hi: float) -> str:
    fmt = lambda x: "inf" if math.isinf(x) else f"{x:g}"  # noqa: E731
    return f"{method}{fmt(lo)}-{fmt(hi)}"


def census_spec_ids() -> list[str]:
    """All 336 config ids: 6 x 8 neighbourhood + 9 x 16 bands x 2 methods."""
    ids = [f"{s}_nbhd_r{r}" for s in NBHD_SCORE_KINDS for r in NBHD_HALF_WIDTHS]
    ids += [f"{s}_{band_id(m, lo, hi)}" for m in ("F", "W") for s in SCORE_KINDS
            for lo, hi in census_bands()]
    return ids


def parse_band(filter_id: str) -> tuple[str, float, float]:
    """``"F0.1-inf"`` -> ``("F", 0.1, inf)``."""
    lo, hi = filter_id[1:].split("-")
    return filter_id[0], float(lo), float(hi)


# ---------------------------------------------------------------------------
# GRID1

def read_grid1(path) -> tuple[np.ndarray, float, str, np.ndarray | None]:
    """(values as float64, spacing, kind, eval mask or None) of a GRID1 file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, header, body = blob.split(b"\n", 2)
    if magic != b"GRID1":
        raise ValueError(f"{path}: not GRID1")
    tokens = header.decode("ascii").split()
    masked = tokens[-1] == "masked"
    rows, cols, spacing, kind = int(tokens[0]), int(tokens[1]), float(tokens[2]), tokens[3]
    n = rows * cols
    if len(body) != 4 * n + (n if masked else 0):
        raise ValueError(f"{path}: payload size")
    values = np.frombuffer(body[:4 * n], dtype="<f4").astype(np.float64).reshape(rows, cols)
    emask = np.frombuffer(body[4 * n:], dtype=np.uint8).astype(bool).reshape(rows, cols) \
        if masked else None
    return values, spacing, kind, emask


# ---------------------------------------------------------------------------
# Neighbourhood filters and scores (square windows, zeros beyond the edge)

def _zero_pad(x: np.ndarray, r: int) -> np.ndarray:
    return np.pad(x, r, mode="constant", constant_values=0.0)


def dilate(y: np.ndarray, r: int) -> np.ndarray:
    """Max over the (2r+1)^2 window; square windows separate into two 1-D passes."""
    if r == 0:
        return y.copy()
    rows, cols = y.shape
    pad = _zero_pad(y, r)
    out = pad[:, 0:cols].copy()
    for k in range(1, 2 * r + 1):
        np.maximum(out, pad[:, k:k + cols], out=out)
    res = out[0:rows].copy()
    for k in range(1, 2 * r + 1):
        np.maximum(res, out[k:k + rows], out=res)
    return res


def box_mean(x: np.ndarray, r: int) -> np.ndarray:
    """Window mean with the fixed divisor (2r+1)^2, by summed-area table."""
    if r == 0:
        return x.copy()
    rows, cols = x.shape
    sat = np.zeros((rows + 2 * r + 1, cols + 2 * r + 1))
    sat[1:, 1:] = np.cumsum(np.cumsum(_zero_pad(x, r), axis=0), axis=1)
    k = 2 * r + 1
    total = sat[k:, k:] - sat[:-k, k:] - sat[k:, :-k] + sat[:-k, :-k]
    return total / float(k * k)


def brier(p: np.ndarray, t: np.ndarray) -> float:
    return float(np.mean((p - t) ** 2))


def fss(p: np.ndarray, t: np.ndarray) -> float:
    ref = float(np.sum(p * p + t * t))
    return 1.0 if ref == 0.0 else 1.0 - float(np.sum((p - t) ** 2)) / ref


def brier_nbhd(p: np.ndarray, y: np.ndarray, r: int) -> float:
    """Brier against the dilated observation."""
    return brier(p, dilate(y, r))


def fss_nbhd(p: np.ndarray, y: np.ndarray, r: int) -> float:
    """FSS on the box means of both fields."""
    return fss(box_mean(p, r), box_mean(y, r))


# ---------------------------------------------------------------------------
# Fourier band-pass: centred 3x zero pad, radial Blackman-Harris window,
# DFT, order-2 Butterworth gain, inverse DFT, crop.

def _centre_slices(orig: tuple[int, int], big: tuple[int, int]) -> tuple[slice, slice]:
    top, left = (big[0] - orig[0]) // 2, (big[1] - orig[1]) // 2
    return slice(top, top + orig[0]), slice(left, left + orig[1])


def bh_window(shape: tuple[int, int]) -> np.ndarray:
    rows, cols = shape
    radius = min(rows - 1, cols - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(rows) - (rows - 1) / 2.0,
                         np.arange(cols) - (cols - 1) / 2.0, indexing="ij")
    dist = np.hypot(rr, cc)
    if radius == 0:
        return (dist == 0).astype(np.float64)
    phase = np.pi * (1.0 + dist / radius)
    w = 0.42 - 0.5 * np.cos(phase) + 0.08 * np.cos(2.0 * phase)
    return np.where(dist <= radius, np.maximum(w, 0.0), 0.0)


def butterworth(shape: tuple[int, int], spacing: float, lo: float, hi: float,
                order: int = 2) -> np.ndarray:
    nu_r = np.fft.fftfreq(shape[0], d=spacing)
    nu_c = np.fft.fftfreq(shape[1], d=spacing)
    # fftfreq puts N/2 at -N/2 for even N; the documented grid keeps it
    # positive.  Only |nu| enters the gain, so the sign does not matter.
    nu = np.hypot(nu_r[:, None], nu_c[None, :])
    gain = np.ones(shape)
    if lo > 0:
        gain = gain / (1.0 + (nu * lo) ** (2 * order))
    if not math.isinf(hi):
        gain = gain * (1.0 - 1.0 / (1.0 + (nu * hi) ** (2 * order)))
    return gain


class FourierRef:
    """Fourier band-pass for one grid shape, with the window kept."""

    def __init__(self, shape: tuple[int, int], spacing: float):
        self.shape = shape
        self.spacing = spacing
        self.big = (3 * shape[0], 3 * shape[1])
        self.inner = _centre_slices(shape, self.big)
        self.window = bh_window(self.big)
        self.gains: dict[tuple[float, float], np.ndarray] = {}

    def windowed_input(self, x: np.ndarray) -> np.ndarray:
        """What complementary bands sum to: the window times the field."""
        return self.window[self.inner] * x

    def spectrum(self, x: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.big)
        padded[self.inner] = x
        return np.fft.fft2(self.window * padded)

    def band_pass(self, x: np.ndarray, lo: float, hi: float,
                  spectrum: np.ndarray | None = None) -> np.ndarray:
        if (lo, hi) not in self.gains:
            self.gains[(lo, hi)] = butterworth(self.big, self.spacing, lo, hi)
        spec = self.spectrum(x) if spectrum is None else spectrum
        return np.fft.ifft2(spec * self.gains[(lo, hi)]).real[self.inner]


# ---------------------------------------------------------------------------
# Haar band-pass: an orthogonal projection onto the detail coefficients of
# the selected levels (plus the deepest smooth part when no level is cut
# off above), on the field zero-padded, centred, to power-of-two dims.

def _haar_step(x: np.ndarray):
    q = x.reshape(x.shape[0] // 2, 2, x.shape[1] // 2, 2)
    a, b, c, d = q[:, 0, :, 0], q[:, 0, :, 1], q[:, 1, :, 0], q[:, 1, :, 1]
    return ((a + b + c + d) / 2, (a + b - c - d) / 2,
            (a - b + c - d) / 2, (a - b - c + d) / 2)


def _haar_unstep(ll, lh, hl, hh) -> np.ndarray:
    q = np.empty((ll.shape[0], 2, ll.shape[1], 2))
    q[:, 0, :, 0] = (ll + lh + hl + hh) / 2
    q[:, 0, :, 1] = (ll + lh - hl - hh) / 2
    q[:, 1, :, 0] = (ll - lh + hl - hh) / 2
    q[:, 1, :, 1] = (ll - lh - hl + hh) / 2
    return q.reshape(2 * ll.shape[0], 2 * ll.shape[1])


def haar_band_pass(x: np.ndarray, spacing: float, lo: float, hi: float) -> np.ndarray:
    big = tuple(1 << max(0, int(n - 1).bit_length()) for n in x.shape)
    inner = _centre_slices(x.shape, big)
    padded = np.zeros(big)
    padded[inner] = x
    n_levels = int(math.log2(min(big)))
    details, smooth = [], padded
    for _ in range(n_levels):
        smooth, lh, hl, hh = _haar_step(smooth)
        details.append((lh, hl, hh))
    # Level k (1-based) holds wavelengths spacing*2^k .. spacing*2^(k+1).
    above = [spacing * 2.0 ** (k + 1) > hi for k in range(1, n_levels + 1)]
    cut = above.index(True) + 1 if any(above) else n_levels  # deepest kept level
    out = np.zeros_like(smooth) if any(above) else smooth
    for k in range(n_levels, 0, -1):
        keep = k <= cut and spacing * 2.0 ** k > lo
        lh, hl, hh = details[k - 1] if keep else (np.zeros_like(out),) * 3
        out = _haar_unstep(out, lh, hl, hh)
    return out[inner]


# ---------------------------------------------------------------------------
# Pooled Brier score and skill over time steps

def pooled_bs_bss(preds: list[np.ndarray], obs: list[np.ndarray]) -> tuple[float, float]:
    p = np.concatenate([a.ravel() for a in preds])
    y = np.concatenate([a.ravel() for a in obs])
    bs = float(np.mean((p - y) ** 2))
    base = float(np.mean(y))
    clim = base * (1.0 - base)
    return bs, (0.0 if clim == 0.0 else 1.0 - bs / clim)
