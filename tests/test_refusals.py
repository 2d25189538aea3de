"""Every CLI refusal exits 1, names what it refuses, and writes nothing.

Each case gives ``score``, ``eval``, ``eval --compare``, ``filter`` or
``rank`` one broken input, one option an empty list, or any command one
out-of-range or ignored option, or points ``filter --dump-stages`` at its
own input or output, and checks the exit code, that stderr is an
``error:`` line (after argparse's usage line, for options) naming the
offending path(s), row or option, that no traceback escapes, and that the
output directory stays empty.
"""

import os

import numpy as np
import pytest

from selfscore.cli import main
from selfscore.grid import GridField, read_grid, write_grid
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    """Two good steps, and per subdirectory one broken stand-in for step 1."""
    d = tmp_path_factory.mktemp("steps")
    for i in range(2):
        m = synth_mask(SynthSpec(rows=16, cols=16, spacing_deg=0.05, n_cells=2, seed=60 + i))
        write_grid(d / f"mask_{i:03d}.grid", m)
        write_grid(d / f"prob_{i:03d}.grid", synth_prob(m, blur_r=1))
    p, y = read_grid(d / "prob_001.grid"), read_grid(d / "mask_001.grid")
    left = np.zeros(p.shape, dtype=bool)
    left[:, :8] = True
    broken = {
        "kind/prob_001.grid": GridField(p.values, p.spacing_deg, "real"),
        "real_000.grid": GridField(p.values, p.spacing_deg, "real"),
        "shape/prob_001.grid": GridField(p.values[:, :12], p.spacing_deg, "prob"),
        "spacing/prob_001.grid": GridField(p.values, 2 * p.spacing_deg, "prob"),
        "empty/prob_001.grid": GridField(p.values, p.spacing_deg, "prob", np.zeros_like(left)),
        # Each scores half the grid, and the two halves do not meet.
        "left/prob_001.grid": GridField(p.values, p.spacing_deg, "prob", left),
        "right/mask_001.grid": GridField(y.values, y.spacing_deg, "mask", ~left),
        "prob_002.grid": p,
        "stages/window.grid": p,  # the input sits where a Fourier stage would go
    }
    for name, field in broken.items():
        (d / name).parent.mkdir(exist_ok=True)
        write_grid(d / name, field)
    (d / "unparsable").mkdir()
    (d / "unparsable" / "prob_001.grid").write_bytes(b"GRID1\n16 16 wide prob\n")
    (d / "rank").mkdir()
    for name, body in RANK_CSVS.items():
        (d / "rank" / name).write_bytes(b"model,spec_id,value\n" + body)
    return d


# Broken scores CSVs for ``rank``, below a good header.
RANK_CSVS = {
    "no-value.csv": b"m,brier_nbhd_r1\n",
    "non-numeric.csv": b"m,brier_nbhd_r1,0.5\nm,fss_nbhd_r1,high\n",
    "bad-spec.csv": b"m,brier_nbhd_r1,0.5\nm,brier_nbhd_q1,0.5\n",
    "nan.csv": b"m,brier_nbhd_r1,nan\n",
    "undecodable.csv": b"m\xff,brier_nbhd_r1,0.5\n",
}


REPORT = "--obs {obs} --n-boot 20 --n-boot-bars 10 --out-dir {out}/report"
COMMANDS = {
    "score": "score --pred m={preds} --obs {obs} --specs brier_nbhd_r1 --out {out}/s.csv",
    "eval": "eval --pred {preds} " + REPORT,
    "eval --compare": "eval --pred {d}/prob_000.grid,{d}/prob_001.grid --compare {preds} " + REPORT,
}
# The broken prediction and observation of step 1, and the files to be named.
PAIRS = {
    "wrong kind": ("kind/prob_001.grid", "mask_001.grid", ["kind/prob_001.grid"]),
    "unparsable": ("unparsable/prob_001.grid", "mask_001.grid", ["unparsable/prob_001.grid"]),
    "shape": ("shape/prob_001.grid", "mask_001.grid", ["shape/prob_001.grid", "mask_001.grid"]),
    "spacing": ("spacing/prob_001.grid", "mask_001.grid",
                ["spacing/prob_001.grid", "mask_001.grid"]),
    "empty step": ("empty/prob_001.grid", "mask_001.grid",
                   ["empty/prob_001.grid", "mask_001.grid"]),
    "disjoint masks": ("left/prob_001.grid", "right/mask_001.grid",
                       ["left/prob_001.grid", "right/mask_001.grid"]),
    "misnumbered": ("prob_002.grid", "mask_001.grid", ["prob_002.grid", "mask_001.grid"]),
}
# Cases outside the pair grid; a pair template here runs on step 0 alone.
OTHERS = {
    "filter-unparsable": ("filter --spec F0.1-inf {d}/unparsable/prob_001.grid {out}/f.grid",
                          ["{d}/unparsable/prob_001.grid"]),
    "filter-unparsable-out-dir": ("filter --spec F0.1-inf {d}/prob_000.grid "
                                  "{d}/unparsable/prob_001.grid --out-dir {out}/f --jobs 2",
                                  ["{d}/unparsable/prob_001.grid"]),
    "filter-nbhd-real": ("filter --spec nbhd_mean_r2 {d}/real_000.grid {out}/f.grid",
                         ["{d}/real_000.grid", "nbhd_mean_r2"]),
    "filter-nbhd-real-out-dir": ("filter --spec nbhd_max_r1 {d}/prob_000.grid "
                                 "{d}/real_000.grid --out-dir {out}/f --jobs 2",
                                 ["{d}/real_000.grid", "nbhd_max_r1"]),
    "eval-n-boot": (COMMANDS["eval"] + " --n-boot 0", ["--n-boot"]),
    "eval-n-boot-bars": (COMMANDS["eval"] + " --n-boot-bars 0", ["--n-boot-bars"]),
    "eval-thresholds": (COMMANDS["eval"] + " --thresholds 0", ["--thresholds"]),
    "score-jobs": (COMMANDS["score"] + " --jobs 0", ["--jobs"]),
    "filter-jobs": ("filter --spec F0.1-inf {d}/prob_000.grid --out-dir {out}/f --jobs -2",
                    ["--jobs"]),
    "filter-dump-stages-over-input": ("filter --spec F0-0.1 {d}/stages/window.grid {out}/o.grid "
                                      "--dump-stages {d}/stages",
                                      ["{d}/stages/window.grid", "input"]),
    "filter-dump-stages-over-output": ("filter --spec F0-0.1 {d}/prob_000.grid {out}/full.grid "
                                       "--dump-stages {out}", ["{out}/full.grid", "output"]),
    "gradcheck-step": ("gradcheck --specs brier_nbhd_r1 --rows 6 --cols 6 --step 0", ["--step"]),
    "gradcheck-tol": ("gradcheck --specs brier_nbhd_r1 --rows 6 --cols 6 --tol -1", ["--tol"]),
    "gradcheck-rows-negative": ("gradcheck --specs brier_nbhd_r1 --rows -2", ["--rows"]),
    "gradcheck-rows-zero": ("gradcheck --specs brier_nbhd_r1 --rows 0", ["--rows"]),
    "gradcheck-cols-zero": ("gradcheck --specs brier_nbhd_r1 --cols 0", ["--cols"]),
    "synth-blur-r": ("synth --rows 8 --cols 8 --out-mask {out}/m.grid --out-prob {out}/p.grid "
                     "--blur-r -1", ["--blur-r"]),
    "synth-noise-sd": ("synth --rows 8 --cols 8 --out-mask {out}/m.grid --out-prob {out}/p.grid "
                       "--noise-sd -0.5", ["--noise-sd"]),
    "synth-rows": ("synth --rows 0 --cols 8 --out-mask {out}/m.grid", ["--rows"]),
    "synth-cols": ("synth --rows 8 --cols 0 --out-mask {out}/m.grid", ["--cols"]),
    "synth-n-cells": ("synth --rows 8 --cols 8 --n-cells -1 --out-mask {out}/m.grid",
                      ["--n-cells"]),
    "synth-offset": ("synth --rows 8 --cols 8 --out-mask {out}/m.grid --out-prob {out}/p.grid "
                     "--offset 1.5,0", ["--offset"]),
    "synth-count": ("synth --rows 8 --cols 8 --count 0 --out-dir {out}/s", ["--count"]),
    "synth-ignored-out-mask": ("synth --rows 8 --cols 8 --count 2 --out-dir {out}/s "
                               "--out-mask {out}/x.grid", ["--out-mask"]),
    "synth-ignored-out-dir": ("synth --rows 8 --cols 8 --out-mask {out}/m.grid "
                              "--out-dir {out}/s", ["--out-dir"]),
    "score-empty-pred": ("score --pred m=, --obs {obs} --specs brier_nbhd_r1 --out {out}/s.csv",
                         ["--pred"]),
    "score-empty-specs": ("score --pred m={preds} --obs {obs} --specs , --out {out}/s.csv",
                          ["--specs"]),
    "gradcheck-empty-specs": ("gradcheck --specs , --rows 6 --cols 6", ["--specs"]),
    "eval-empty-obs": ("eval --pred , --obs , --out-dir {out}/report", ["--obs"]),
    "filter-empty-inputs": ("filter --spec F0-0.2 , --out-dir {out}/o", ["paths"]),
    "rank-no-value": ("rank --scores {d}/rank/no-value.csv --out-dir {out}/r",
                      ["{d}/rank/no-value.csv", "line 2"]),
    "rank-non-numeric": ("rank --scores {d}/rank/non-numeric.csv --out-dir {out}/r",
                         ["{d}/rank/non-numeric.csv", "line 3"]),
    "rank-bad-spec": ("rank --scores {d}/rank/bad-spec.csv --out-dir {out}/r",
                      ["{d}/rank/bad-spec.csv", "line 3"]),
    "rank-nan": ("rank --scores {d}/rank/nan.csv --out-dir {out}/r",
                 ["{d}/rank/nan.csv", "line 2"]),
    "rank-undecodable": ("rank --scores {d}/rank/undecodable.csv --out-dir {out}/r",
                         ["{d}/rank/undecodable.csv"]),
}
CASES = {f"{cmd}-{case}": (COMMANDS[cmd].replace("{preds}", "{d}/prob_000.grid,{d}/" + pred)
                           .replace("{obs}", "{d}/mask_000.grid,{d}/" + obs),
                           ["{d}/" + n for n in named])
         for cmd in COMMANDS for case, (pred, obs, named) in PAIRS.items()}
CASES.update({k: (argv.replace("{preds}", "{d}/prob_000.grid").replace("{obs}", "{d}/mask_000.grid"),
                  named) for k, (argv, named) in OTHERS.items()})


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_refusal_exits_1_and_names_its_path(steps, tmp_path, capsys, case):
    out = tmp_path / "out"
    out.mkdir()
    template, named = CASES[case]
    argv = template.format(d=steps, out=out).split()
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") or (err.startswith("usage: ") and "\nerror: " in err), err
    assert "Traceback" not in err
    for name in named:
        assert name.format(d=steps, out=out) in err, err
    assert os.listdir(out) == []
