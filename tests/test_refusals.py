"""Every CLI refusal exits 1, names what it refuses, and writes nothing.

Each case gives ``score``, ``eval``, ``eval --compare``, ``filter`` or
``rank`` one broken input, one option an empty list, or any command one
out-of-range, non-finite or ignored option or two options that exclude each
other, or points an output at an input (directly or through a symlink), at
another output, at a directory or into a missing one, or an output directory
at a file, and checks the code ``main`` returns, that stderr is an ``error:``
line (after argparse's usage line, for options) naming the offending
path(s), row or option, that no traceback escapes, that the output directory
stays empty and that every input keeps its bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfscore
from selfscore.cli import main
from selfscore.grid import GridField, read_grid, write_grid
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob

SRC = str(Path(selfscore.__file__).resolve().parent.parent)


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
        # One row: too thin for a Haar decomposition.
        "thin/prob_001.grid": GridField(p.values[:1, :9], p.spacing_deg, "prob"),
        "thin/mask_001.grid": GridField(y.values[:1, :9], y.spacing_deg, "mask"),
    }
    for name, field in broken.items():
        (d / name).parent.mkdir(exist_ok=True)
        write_grid(d / name, field)
    (d / "unparsable").mkdir()
    (d / "unparsable" / "prob_001.grid").write_bytes(b"GRID1\n16 16 wide prob\n")
    (d / "zero").mkdir()
    (d / "zero" / "prob_001.grid").write_bytes(b"GRID1\n0 5 0.02 prob\n")
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
    "header-only.csv": b"",
    "two-spellings.csv": b"m,brier_F0.10-inf,0.5\nm,brier_F0.1-inf,0.6\n",
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
    "filter-thin-out-dir": ("filter --spec W0-0.1 {d}/prob_000.grid {d}/thin/prob_001.grid "
                            "--out-dir {out}/f --jobs 1", ["{d}/thin/prob_001.grid", "W0-0.1", "1x9"]),
    "filter-thin-out-dir-jobs-2": ("filter --spec W0-0.1 {d}/prob_000.grid {d}/thin/prob_001.grid "
                                   "--out-dir {out}/f --jobs 2",
                                   ["{d}/thin/prob_001.grid", "W0-0.1", "1x9"]),
    "score-thin-step": ("score --pred m={d}/prob_000.grid,{d}/thin/prob_001.grid "
                        "--obs {d}/mask_000.grid,{d}/thin/mask_001.grid --specs brier_W0-0.1 "
                        "--out {out}/s.csv",
                        ["{d}/thin/prob_001.grid", "{d}/thin/mask_001.grid", "1x9"]),
    "gradcheck-thin": ("gradcheck --specs brier_W0-0.1 --rows 1 --cols 3", ["--rows 1 --cols 3", "1x3"]),
    "eval-n-boot": (COMMANDS["eval"] + " --n-boot 0", ["--n-boot"]),
    "eval-n-boot-bars": (COMMANDS["eval"] + " --n-boot-bars 0", ["--n-boot-bars"]),
    "eval-thresholds": (COMMANDS["eval"] + " --thresholds 0", ["--thresholds"]),
    "eval-seed": (COMMANDS["eval"] + " --seed -5", ["--seed"]),
    "gradcheck-seed": ("gradcheck --specs brier_nbhd_r1 --rows 6 --cols 6 --seed -1", ["--seed"]),
    "synth-seed": ("synth --rows 8 --cols 8 --out-mask {out}/m.grid --seed -1", ["--seed"]),
    "score-jobs": (COMMANDS["score"] + " --jobs 0", ["--jobs"]),
    "filter-jobs": ("filter --spec F0.1-inf {d}/prob_000.grid --out-dir {out}/f --jobs -2",
                    ["--jobs"]),
    "filter-glob-two-files": ("filter --spec F0.1-inf {d}/mask_*.grid {out}/f.grid",
                              ["input glob matched more than one file"]),
    "filter-zero-rows": ("filter --spec F0.1-inf {d}/zero/prob_001.grid {out}/f.grid",
                         ["{d}/zero/prob_001.grid", "GRID1 dims must be positive"]),
    "filter-dump-stages-two-inputs": ("filter --spec F0-0.1 {d}/prob_000.grid {d}/mask_000.grid "
                                      "--out-dir {out}/f --dump-stages {out}/st",
                                      ["--dump-stages needs exactly one input"]),
    "filter-dump-stages-nbhd": ("filter --spec nbhd_max_r1 {d}/prob_000.grid {out}/n.grid "
                                "--dump-stages {out}/st", ["--dump-stages", "nbhd_max_r1"]),
    "filter-dump-stages-over-input": ("filter --spec F0-0.1 {d}/stages/window.grid {out}/o.grid "
                                      "--dump-stages {d}/stages",
                                      ["{d}/stages/window.grid", "input"]),
    "filter-dump-stages-over-output": ("filter --spec F0-0.1 {d}/prob_000.grid {out}/full.grid "
                                       "--dump-stages {out}", ["{out}/full.grid", "output"]),
    "filter-dump-stages-is-output": ("filter --spec W0-0.1 {d}/prob_000.grid {out}/o.grid "
                                     "--dump-stages {out}/o.grid",
                                     ["output {out}/o.grid", "the directory {out}/o.grid"]),
    "filter-out-dir-is-file": ("filter --spec F0-0.1 {d}/prob_000.grid --out-dir {d}/real_000.grid "
                               "--dump-stages {out}/stages",
                               ["directory {d}/real_000.grid", "nothing was written"]),
    "synth-same-outputs": ("synth --rows 8 --cols 8 --out-mask {out}/a.grid "
                           "--out-prob {out}/a.grid",
                           ["{out}/a.grid", "both --out-mask and --out-prob"]),
    "score-out-missing-dir": (COMMANDS["score"].replace("{out}/s.csv", "{out}/missing/s.csv"),
                              ["output {out}/missing/s.csv", "does not exist"]),
    "score-out-is-dir": (COMMANDS["score"].replace("{out}/s.csv", "{out}"),
                         ["output {out} is a directory"]),
    "gradcheck-step": ("gradcheck --specs brier_nbhd_r1 --rows 6 --cols 6 --step 0", ["--step"]),
    "gradcheck-tol": ("gradcheck --specs brier_nbhd_r1 --rows 6 --cols 6 --tol -1", ["--tol"]),
    "gradcheck-step-inf": ("gradcheck --specs brier_nbhd_r1 --rows 6 --cols 6 --step inf",
                           ["--step"]),
    "gradcheck-tol-nan": ("gradcheck --specs brier_nbhd_r1 --rows 6 --cols 6 --tol nan",
                          ["--tol"]),
    "gradcheck-spacing": ("gradcheck --specs brier_nbhd_r1 --rows 6 --cols 6 --spacing -1",
                          ["--spacing"]),
    "gradcheck-rows-negative": ("gradcheck --specs brier_nbhd_r1 --rows -2", ["--rows"]),
    "gradcheck-rows-zero": ("gradcheck --specs brier_nbhd_r1 --rows 0", ["--rows"]),
    "gradcheck-cols-zero": ("gradcheck --specs brier_nbhd_r1 --cols 0", ["--cols"]),
    "synth-blur-r": ("synth --rows 8 --cols 8 --out-mask {out}/m.grid --out-prob {out}/p.grid "
                     "--blur-r -1", ["--blur-r"]),
    "synth-noise-sd": ("synth --rows 8 --cols 8 --out-mask {out}/m.grid --out-prob {out}/p.grid "
                       "--noise-sd -0.5", ["--noise-sd"]),
    "synth-noise-sd-inf": ("synth --rows 8 --cols 8 --out-mask {out}/m.grid "
                           "--out-prob {out}/p.grid --noise-sd inf", ["--noise-sd"]),
    "synth-spacing": ("synth --rows 8 --cols 8 --spacing 0 --out-mask {out}/m.grid",
                      ["--spacing"]),
    "synth-spacing-nan": ("synth --rows 8 --cols 8 --spacing nan --out-mask {out}/m.grid",
                          ["--spacing"]),
    "synth-rows": ("synth --rows 0 --cols 8 --out-mask {out}/m.grid", ["--rows"]),
    "synth-cols": ("synth --rows 8 --cols 0 --out-mask {out}/m.grid", ["--cols"]),
    "synth-n-cells": ("synth --rows 8 --cols 8 --n-cells -1 --out-mask {out}/m.grid",
                      ["--n-cells"]),
    "synth-offset": ("synth --rows 8 --cols 8 --out-mask {out}/m.grid --out-prob {out}/p.grid "
                     "--offset 1.5,0", ["--offset"]),
    "synth-radius-range-inf": ("synth --rows 8 --cols 8 --radius-range inf,inf "
                               "--out-mask {out}/m.grid", ["--radius-range"]),
    "synth-radius-range-hi-inf": ("synth --rows 8 --cols 8 --radius-range 1,inf "
                                  "--out-mask {out}/m.grid", ["--radius-range"]),
    "synth-elongation-range-inf": ("synth --rows 8 --cols 8 --elongation-range 1,inf "
                                   "--out-mask {out}/m.grid", ["--elongation-range"]),
    "synth-radius-range-reversed": ("synth --rows 8 --cols 8 --radius-range 3,2 "
                                    "--out-mask {out}/m.grid", ["--radius-range"]),
    "synth-elongation-range-reversed": ("synth --rows 8 --cols 8 --elongation-range 2,1.5 "
                                        "--out-mask {out}/m.grid", ["--elongation-range"]),
    "synth-count": ("synth --rows 8 --cols 8 --count 0 --out-dir {out}/s", ["--count"]),
    "synth-ignored-out-mask": ("synth --rows 8 --cols 8 --count 2 --out-dir {out}/s "
                               "--out-mask {out}/x.grid", ["--out-mask"]),
    "synth-ignored-out-dir": ("synth --rows 8 --cols 8 --out-mask {out}/m.grid "
                              "--out-dir {out}/s", ["--out-dir"]),
    "score-specs-and-all-336": (COMMANDS["score"] + " --all-336", ["--specs", "--all-336"]),
    "score-neither-specs-nor-all-336": (COMMANDS["score"].replace(" --specs brier_nbhd_r1", ""),
                                        ["--specs", "--all-336", "required"]),
    "score-empty-model-name": ("score --pred ={d}/prob_000.grid --obs {obs} --specs brier_nbhd_r1 "
                               "--out {out}/s.csv", ["empty model name in --pred"]),
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
    "rank-header-only": ("rank --scores {d}/rank/header-only.csv --out-dir {out}/r",
                         ["{d}/rank/header-only.csv", "scores CSV is empty"]),
    "rank-two-spellings": ("rank --scores {d}/rank/two-spellings.csv --out-dir {out}/r",
                           ["{d}/rank/two-spellings.csv", "line 3", "'brier_F0.1-inf'"]),
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
    inputs = {p: p.read_bytes() for p in steps.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") or (err.startswith("usage: ") and "\nerror: " in err), err
    assert "Traceback" not in err
    for name in named:
        assert name.format(d=steps, out=out) in err, err
    assert os.listdir(out) == []
    assert {p: p.read_bytes() for p in steps.rglob("*") if p.is_file()} == inputs


@pytest.mark.parametrize("spec,outputs", [("F0-0.1", "{d}/same.grid"),
                                          ("F0-0.1", "{d}/./same.grid"),
                                          ("W0-0.1", "--out-dir {d}")])
def test_filter_refuses_to_write_over_its_input(tmp_path, capsys, spec, outputs):
    d = tmp_path / "d"
    d.mkdir()
    m = synth_mask(SynthSpec(rows=16, cols=16, spacing_deg=0.05, n_cells=2, seed=60))
    for name in ("same.grid", "other.grid"):
        write_grid(d / name, synth_prob(m, blur_r=1))
    before = {p: p.read_bytes() for p in d.iterdir()}
    inputs = f"{d}/*.grid" if outputs.startswith("--out-dir") else f"{d}/same.grid"
    argv = f"filter --spec {spec} {inputs} {outputs.format(d=d)}".split()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output ") and "nothing was written" in err, err
    assert err.count(str(d)) == 2, err  # the output and the input it would overwrite
    assert {p: p.read_bytes() for p in d.iterdir()} == before


SCORE = "score --pred m={t}/prob.grid --obs {t}/mask.grid --specs brier_nbhd_r1 --out "
# A command whose output is one of its inputs: (argv, the output, the input).  ``{l}`` is a
# symlink to the directory ``{t}``, so that only the resolved paths are the same.
OVERWRITES = {
    "score-over-obs": (SCORE + "{t}/mask.grid", "{t}/mask.grid", "{t}/mask.grid"),
    "score-over-pred": (SCORE + "{t}/./prob.grid", "{t}/./prob.grid", "{t}/prob.grid"),
    "rank-over-scores": ("rank --scores {t}/out/ranks.csv --out-dir {t}/out",
                         "{t}/out/ranks.csv", "{t}/out/ranks.csv"),
    "eval-over-pred": ("eval --pred {t}/out/report.csv --obs {t}/mask.grid --n-boot 20 "
                       "--n-boot-bars 10 --out-dir {t}/out", "{t}/out/report.csv",
                       "{t}/out/report.csv"),
    "score-over-obs-via-symlink": (SCORE + "{l}/mask.grid", "{l}/mask.grid", "{t}/mask.grid"),
    "score-over-pred-via-symlink": (SCORE + "{l}/prob.grid", "{l}/prob.grid", "{t}/prob.grid"),
    "rank-over-scores-via-symlink": ("rank --scores {t}/out/ranks.csv --out-dir {l}/out",
                                     "{l}/out/ranks.csv", "{t}/out/ranks.csv"),
    "eval-over-pred-via-symlink": ("eval --pred {t}/out/report.csv --obs {t}/mask.grid "
                                   "--n-boot 20 --n-boot-bars 10 --out-dir {l}/out",
                                   "{l}/out/report.csv", "{t}/out/report.csv"),
    "filter-out-dir-via-symlink": ("filter --spec nbhd_max_r1 {t}/prob.grid --out-dir {l}",
                                   "{l}/prob.grid", "{t}/prob.grid"),
}


@pytest.mark.parametrize("case", sorted(OVERWRITES))
def test_no_command_writes_over_its_input(tmp_path, capsys, case):
    t, link = tmp_path / "t", tmp_path / "link"
    (t / "out").mkdir(parents=True)
    link.symlink_to(t, target_is_directory=True)
    m = synth_mask(SynthSpec(rows=16, cols=16, spacing_deg=0.05, n_cells=2, seed=60))
    write_grid(t / "mask.grid", m)
    write_grid(t / "prob.grid", synth_prob(m, blur_r=1))
    write_grid(t / "out" / "report.csv", synth_prob(m, blur_r=2))
    (t / "out" / "ranks.csv").write_bytes(
        b"model,spec_id,value\na,brier_nbhd_r1,0.1\nb,brier_nbhd_r1,0.2\n")
    before = {p: p.read_bytes() for p in t.rglob("*") if p.is_file()}
    argv, output, source = (text.format(t=t, l=link) for text in OVERWRITES[case])
    capsys.readouterr()
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err == (f"error: output {output} would be written over the input {source}; "
                   f"nothing was written\n"), err
    assert {p: p.read_bytes() for p in t.rglob("*") if p.is_file()} == before


OUT_OF_MEMORY_CHILD = """
import resource, sys
from selfscore.cli import main
# Calibrate the limit from this process's own address space after import.
size = next(int(line.split()[1]) * 1024 for line in open("/proc/self/status")
            if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), resource.RLIM_INFINITY))
for argv in sys.argv[2:]:
    print(main(argv.split()), flush=True)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_input_too_large_for_memory_exits_1_naming_the_command(tmp_path):
    """A child process limits its own address space to 128 MiB above what it
    holds after import; a 1000x1000 Fourier filter or score needs about
    twice that, and a 6000x6000 synth more.  Each command exits 1 with one
    ``error:`` line, the file and its shape named where there is one, and
    leaves nothing behind: no file, and no ``--out-dir``."""
    rng = np.random.default_rng(0)
    write_grid(tmp_path / "prob.grid", GridField(rng.uniform(size=(1000, 1000)), 0.02, "prob"))
    write_grid(tmp_path / "mask.grid",
               GridField((rng.uniform(size=(1000, 1000)) < 0.1).astype(float), 0.02, "mask"))
    d = tmp_path
    commands = [
        (f"filter --spec F0-0.1 {d}/prob.grid {d}/out.grid", f"{d}/prob.grid (1000x1000)"),
        (f"filter --spec F0-0.1 {d}/prob.grid --out-dir {d}/fo", f"{d}/prob.grid (1000x1000)"),
        (f"score --pred {d}/prob.grid --obs {d}/mask.grid --specs brier_F0-0.1 "
         f"--out {d}/scores.csv", f"{d}/mask.grid (1000x1000)"),
        (f"synth --rows 6000 --cols 6000 --out-mask {d}/big.grid", ""),
    ]
    proc = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY_CHILD, str(128 << 20),
                           *(argv for argv, _ in commands)],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout.split() == ["1"] * len(commands), proc.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == len(commands), proc.stderr
    for line, (argv, named) in zip(lines, commands):
        assert line.startswith(f"error: {argv.split()[0]}: {named}"), line
        assert "does not fit in memory" in line or not named, line
    assert sorted(os.listdir(d)) == ["mask.grid", "prob.grid"]
