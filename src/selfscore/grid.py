"""Gridded fields on a regular lat/lon patch, GRID1 file I/O, and every file writer.

A field is a rectangular array of float values with a uniform grid spacing
in degrees.  Three kinds are distinguished:

* ``"mask"``  -- binary event observations, values in {0, 1}
* ``"prob"``  -- probabilistic predictions, values in [0, 1]
* ``"real"``  -- unconstrained values (e.g. output of a spectral filter)

An optional boolean ``eval_mask`` marks which pixels are scored; pixels with
``eval_mask == False`` still carry values (filters see them) but are excluded
from every score sum, numerator and denominator alike.

GRID1 format
------------
Byte layout of a ``.grid`` file::

    line 1:  b"GRID1\\n"
    line 2:  b"<rows> <cols> <spacing_deg> <kind>[ masked]\\n"   (ASCII, space-separated)
    payload: rows*cols little-endian IEEE-754 float32, row-major
    mask:    rows*cols bytes of 0/1, row-major (only when "masked" is present)

Values are quantised to float32 on write; a write/read/write cycle is
byte-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

MAGIC = b"GRID1"
GRID_KINDS = ("mask", "prob", "real")
PRED_KINDS = ("prob", "mask")  # a scored pair: a prediction in [0, 1] ...
OBS_KINDS = ("mask",)  # ... against a binary observation


def _frozen(array, dtype) -> np.ndarray:
    """A read-only C-ordered copy of ``array`` as ``dtype``."""
    out = np.array(array, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class GridField:
    """A 2-D field with grid spacing in degrees and a value-kind contract.

    :param values: 2-D float64 array, finite everywhere.
    :param spacing_deg: grid spacing in degrees, > 0.
    :param kind: one of "mask", "prob", "real".
    :param eval_mask: optional boolean array marking scored pixels.

    A field always copies what it is given: ``values`` and ``eval_mask``
    are its own read-only arrays, so no array the caller holds, nor a view
    of one, can change it after it is made.  Fields compare by identity.
    """

    values: np.ndarray
    spacing_deg: float
    kind: str
    eval_mask: np.ndarray | None = None

    def __post_init__(self):
        values = _frozen(self.values, np.float64)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("values must be a non-empty 2-D array")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        if self.kind not in GRID_KINDS:
            raise ValueError(f"kind must be one of {GRID_KINDS}, got {self.kind!r}")
        if self.kind == "mask" and not np.isin(values, (0.0, 1.0)).all():
            raise ValueError("mask fields must contain only 0 and 1")
        if self.kind == "prob" and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("prob fields must lie in [0, 1]")
        if not (np.isfinite(self.spacing_deg) and self.spacing_deg > 0):
            raise ValueError("spacing_deg must be positive and finite")
        object.__setattr__(self, "values", values)
        if self.eval_mask is not None:
            emask = _frozen(self.eval_mask, bool)
            if emask.shape != values.shape:
                raise ValueError("eval_mask shape must match values")
            object.__setattr__(self, "eval_mask", emask)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def with_values(self, values: np.ndarray, kind: str | None = None) -> "GridField":
        """Return a copy with new values (and optionally a new kind)."""
        return replace(self, values=values, kind=self.kind if kind is None else kind)


@dataclass(frozen=True)
class WavelengthBand:
    """A pass band in wavelength space (degrees), inclusive bounds.

    ``lo == 0`` means no lower bound; ``hi == math.inf`` means no upper
    bound, so ``WavelengthBand(0, math.inf)`` is all-pass.
    """

    lo_deg: float
    hi_deg: float

    def __post_init__(self):
        if not (self.lo_deg >= 0 and self.hi_deg > self.lo_deg):
            raise ValueError("band must satisfy 0 <= lo < hi")


def next_pow2_dims(shape: tuple[int, int]) -> tuple[int, int]:
    """Smallest power-of-two dimensions >= shape, per axis."""
    return tuple(1 << max(0, int(n - 1).bit_length()) for n in shape)


def _centred(shape: tuple[int, int], target: tuple[int, int]) -> tuple[slice, slice]:
    """The rows and columns of ``shape`` centred in ``target``; an odd
    remainder goes to the bottom/right."""
    if target[0] < shape[0] or target[1] < shape[1]:
        raise ValueError(f"target {tuple(target)} smaller than original {tuple(shape)}")
    return tuple(slice((t - n) // 2, (t - n) // 2 + n) for n, t in zip(shape, target))


def _check_values(values: np.ndarray) -> None:
    """Refuse anything but a non-empty 2-D array of finite values, naming its shape."""
    shape = np.shape(values)
    if len(shape) != 2 or 0 in shape or not np.isfinite(values).all():
        raise ValueError(f"a transform takes a non-empty 2-D array of finite values, "
                         f"got one of shape {shape}")


def _check_transforms(shape: tuple[int, int], got, want: tuple[int, int]) -> None:
    """Refuse a transform of any shape in ``got`` but ``want``, a ``shape`` grid's."""
    for have in got:
        if have != want:
            raise ValueError(f"a transform of shape {have} was not made from a "
                             f"{shape[0]}x{shape[1]} grid, whose transforms have shape {want}")


def _format_header(field: GridField) -> bytes:
    tokens = [str(field.rows), str(field.cols), repr(float(field.spacing_deg)), field.kind]
    if field.eval_mask is not None:
        tokens.append("masked")
    return MAGIC + b"\n" + " ".join(tokens).encode("ascii") + b"\n"


def atomic_write(path: str | os.PathLike, data: bytes) -> None:
    """Write bytes to a file via a temp file in its directory (made if missing) + rename,
    so the file holds either its old content or all of ``data``.  The temp file
    is created as ``open`` creates a file, so its mode follows the umask."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = os.path.join(os.path.dirname(path), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_grid(path: str | os.PathLike, field: GridField) -> None:
    """Write a field to a GRID1 file (atomically: temp file + rename).
    Refuses, before writing anything, values that float32 cannot hold."""
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(field.values, dtype="<f4")
    if not np.isfinite(payload).all():
        raise ValueError(f"{os.fspath(path)}: values exceed the float32 range of GRID1")
    blob = _format_header(field) + payload.tobytes()
    if field.eval_mask is not None:
        blob += np.ascontiguousarray(field.eval_mask, dtype=np.uint8).tobytes()
    atomic_write(path, blob)


def write_csv(path: str | os.PathLike, header: list[str], rows: list[list]) -> None:
    """Write a CSV atomically in UTF-8, quoting cells that hold a comma or a
    quote.  A float cell, numpy's included, is written as ``repr(float(x))``,
    which reads back to the same bits; a NaN or ``None`` cell is written
    empty, meaning "undefined here"; any other cell as ``str(x)``.  Text that
    came from undecodable command-line bytes is written back as those bytes
    (``surrogateescape``), as ``os.fsencode`` does."""
    import csv
    import io

    def text(x) -> str:
        if isinstance(x, (float, np.floating)):
            return "" if math.isnan(x) else repr(float(x))
        return "" if x is None else str(x)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([text(x) for x in row] for row in rows)
    atomic_write(path, buf.getvalue().encode("utf-8", "surrogateescape"))


def write_json(path: str | os.PathLike, data) -> None:
    """Write ``data`` atomically as UTF-8 JSON, indented by 2, refusing NaN and infinity."""
    import json
    atomic_write(path, (json.dumps(data, indent=2, allow_nan=False) + "\n").encode("utf-8"))


def read_grid(path: str | os.PathLike) -> GridField:
    """Read a GRID1 file; raises ValueError, starting with the path, on any
    malformed content."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_grid(blob)
    except ValueError as exc:
        raise ValueError(f"{os.fspath(path)}: {exc}") from exc


def _parse_grid(blob: bytes) -> GridField:
    nl1 = blob.find(b"\n")
    if nl1 < 0 or blob[:nl1] != MAGIC:
        raise ValueError("not a GRID1 file (bad magic line)")
    nl2 = blob.find(b"\n", nl1 + 1)
    if nl2 < 0:
        raise ValueError("truncated GRID1 header")
    tokens = blob[nl1 + 1:nl2].decode("ascii", errors="replace").split()
    has_mask = tokens and tokens[-1] == "masked"
    if has_mask:
        tokens = tokens[:-1]
    if len(tokens) != 4:
        raise ValueError(f"GRID1 header must have 4 fields, got {len(tokens)}")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        spacing = float(tokens[2])
    except ValueError as exc:
        raise ValueError(f"bad GRID1 header numbers: {exc}") from exc
    kind = tokens[3]
    if kind not in GRID_KINDS:
        raise ValueError(f"unknown GRID1 kind {kind!r}")
    if rows <= 0 or cols <= 0:
        raise ValueError("GRID1 dims must be positive")
    n = rows * cols
    body = blob[nl2 + 1:]
    expected = n * 4 + (n if has_mask else 0)
    if len(body) != expected:
        raise ValueError(f"GRID1 payload is {len(body)} bytes, expected {expected}")
    values = np.frombuffer(body[:n * 4], dtype="<f4").astype(np.float64).reshape(rows, cols)
    emask = None
    if has_mask:
        raw = np.frombuffer(body[n * 4:], dtype=np.uint8)
        if not np.isin(raw, (0, 1)).all():
            raise ValueError("GRID1 eval_mask bytes must be 0 or 1")
        emask = raw.astype(bool).reshape(rows, cols)
    return GridField(values, spacing, kind, emask)
