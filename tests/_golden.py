"""Golden digests: the SHA-256 of a small, fixed set of CLI outputs.

``outputs(root)`` writes two steps of inputs at 13 x 19 under ``root`` (an
observed mask and models ``a`` and ``b``; the masks and ``b`` carry eval
masks) and runs, in-process, from ``root`` with relative paths:

* ``score --all-336`` on both models, and ``rank`` of its CSV;
* ``filter`` under ``nbhd_max_r2`` and ``nbhd_mean_r2`` on a mask and on a
  masked prob field, and under ``F0.1-0.4`` and ``W0-0.1`` with
  ``--dump-stages``;
* ``eval --compare`` of ``a`` against ``b``;
* ``gradcheck`` on six configs.

It returns every file written and every command's stdout, by name.
``summary`` gives what ``golden_digests.json`` records of one output: its
SHA-256, and for a comparison within a tolerance, the digest of its
non-numeric part, its count of numbers, their l1 norm and three fixed
linear functionals of them (weights 1, cos i and sin i).  Each functional
moves by at most ``count * atol + rtol * l1`` when every number stays
within ``atol + rtol * |x|``, so a move inside the tolerance never fails
that comparison; a move is caught where it shifts a functional past that
bound (about 3e-4 on the census CSV, whose 672 scores sum to about 280).

Run as a script to remake ``golden_digests.json`` next to this file::

    PYTHONPATH=src python tests/_golden.py

A change that moves a digest on purpose remakes the file and names the
change; the file's diff shows which outputs moved.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from selfscore.cli import main
from selfscore.grid import GridField, write_grid
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob

GOLDEN = Path(__file__).with_name("golden_digests.json")
# Per number: a float32 GRID1 value moves by one float32 step (1.2e-7
# relative) when its float64 value moves by one bit across a rounding
# boundary, and a value that is zero but for rounding moves by about eps.
TOLERANCE = {"rtol": 1e-6, "atol": 1e-12}
SHAPE, SPACING = (13, 19), 0.05
SIX_CONFIGS = "csi_nbhd_r2,fss_nbhd_r1,iou_nbhd_r3,brier_F0.1-inf,heidke_F0-0.1,xent_W0-0.2"
COMMANDS = {
    "score": "score --pred a=in/a_*.grid --pred b=in/b_*.grid --obs in/y_*.grid "
             "--all-336 --out score.csv",
    "rank": "rank --scores score.csv --out-dir rank",
    "filter-nbhd_max_r2": "filter --spec nbhd_max_r2 in/y_000.grid in/b_000.grid "
                          "--out-dir nbhd_max_r2",
    "filter-nbhd_mean_r2": "filter --spec nbhd_mean_r2 in/y_000.grid in/b_000.grid "
                           "--out-dir nbhd_mean_r2",
    "filter-F0.1-0.4": "filter --spec F0.1-0.4 in/a_000.grid F0.1-0.4.grid "
                       "--dump-stages stages_F0.1-0.4",
    "filter-W0-0.1": "filter --spec W0-0.1 in/a_000.grid W0-0.1.grid --dump-stages stages_W0-0.1",
    "eval": "eval --pred in/a_*.grid --compare in/b_*.grid --obs in/y_*.grid --out-dir eval "
            "--n-boot 50 --n-boot-bars 20 --thresholds 21",
    "gradcheck": f"gradcheck --specs {SIX_CONFIGS} --rows 8 --cols 8",
}


def environment() -> dict[str, str]:
    """What the bits of the outputs depend on beyond the code: the Python
    version (``sum`` of floats is compensated from 3.12), the numpy version,
    and the platform with the SIMD targets numpy dispatches to."""
    try:
        from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                                   __cpu_features__)
        simd = [*__cpu_baseline__, *(f for f in __cpu_dispatch__ if __cpu_features__.get(f))]
    except ImportError:
        simd = ["unknown"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()} "
                        f"(numpy SIMD: {' '.join(simd)})"}


def _write_inputs(root: Path) -> None:
    rows, cols = SHAPE
    obs_mask = np.ones(SHAPE, dtype=bool)
    obs_mask[:, :2] = False
    b_mask = np.ones(SHAPE, dtype=bool)
    b_mask[rows - 3:, cols // 2:] = False
    (root / "in").mkdir()
    for step in range(2):
        y = synth_mask(SynthSpec(rows=rows, cols=cols, spacing_deg=SPACING, n_cells=3,
                                 seed=70 + step))
        a = synth_prob(y, blur_r=1, offset_px=(1, 0), noise_sd=0.05, seed=80 + step)
        b = synth_prob(y, blur_r=2, offset_px=(0, 2), noise_sd=0.1, seed=90 + step)
        write_grid(root / f"in/y_{step:03d}.grid", GridField(y.values, SPACING, "mask", obs_mask))
        write_grid(root / f"in/a_{step:03d}.grid", a)
        write_grid(root / f"in/b_{step:03d}.grid", GridField(b.values, SPACING, "prob", b_mask))


def outputs(root: Path) -> dict[str, bytes]:
    """Every input, output and stdout of ``COMMANDS`` run from the empty
    directory ``root``, by name."""
    root = Path(root)
    _write_inputs(root)
    stdout, cwd = {}, os.getcwd()
    os.chdir(root)
    try:
        for label, argv in COMMANDS.items():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(argv.split())
            if code != 0:
                raise RuntimeError(f"{label} exited {code}")
            stdout[f"stdout/{label}.txt"] = out.getvalue().encode("utf-8")
    finally:
        os.chdir(cwd)
    files = {p.relative_to(root).as_posix(): p.read_bytes()
             for p in sorted(root.rglob("*")) if p.is_file()}
    return {**files, **stdout}


# A numeric literal that is not part of a name (``F0.1-0.4``, ``y_000``).
_NUMBER = re.compile(rb"(?<![\w.-])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _split(name: str, blob: bytes) -> tuple[bytes, np.ndarray]:
    """An output's non-numeric part and its numbers: a GRID1 file's header
    and mask bytes and its float32 payload, a text's numeric literals
    outside names."""
    if name.endswith(".grid"):
        end = blob.index(b"\n", blob.index(b"\n") + 1) + 1
        rows, cols = (int(t) for t in blob[:end].split()[1:3])
        payload = end + 4 * rows * cols
        return blob[:end] + blob[payload:], np.frombuffer(blob[end:payload], "<f4")
    return _NUMBER.sub(b"#", blob), np.array([float(t) for t in _NUMBER.findall(blob)])


def summary(name: str, blob: bytes) -> dict:
    """What the golden file records of one output (see the module docstring)."""
    rest, numbers = _split(name, blob)
    x = numbers.astype(np.float64)
    i = np.arange(x.size)
    return {"sha256": hashlib.sha256(blob).hexdigest(),
            "rest_sha256": hashlib.sha256(rest).hexdigest(),
            "count": int(x.size), "l1": float(np.abs(x).sum()),
            "functionals": [float(x.sum()), float((x * np.cos(i)).sum()),
                            float((x * np.sin(i)).sum())]}


def within(got: dict, want: dict, rtol: float, atol: float) -> bool:
    """Whether ``got`` can be ``want``'s output with every number moved by at
    most ``atol + rtol * |x|``: the same non-numeric part and count, and
    each functional inside its bound."""
    if (got["rest_sha256"], got["count"]) != (want["rest_sha256"], want["count"]):
        return False
    bound = got["count"] * atol + rtol * want["l1"]
    return all(abs(g - w) <= bound for g, w in zip(got["functionals"], want["functionals"]))


def record() -> dict:
    with tempfile.TemporaryDirectory() as root:
        made = outputs(Path(root))
    return {"environment": environment(), "tolerance": TOLERANCE,
            "outputs": {name: summary(name, blob) for name, blob in sorted(made.items())}}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
