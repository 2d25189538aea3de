"""End-to-end tests for the command-line interface.

Each subcommand is driven through ``main(argv)`` in-process; files go to
pytest tmp dirs.  Determinism is asserted byte-for-byte.
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from selfscore.cli import main
from selfscore.grid import GridField, read_grid, write_grid
from selfscore.neighbourhood import max_filter
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob


def run(*argv):
    return main([str(a) for a in argv])


def synth_args(out_mask, out_prob=None, seed=3, extra=()):
    argv = ["synth", "--rows", 24, "--cols", 24, "--spacing", "0.05",
            "--n-cells", 3, "--seed", seed, "--out-mask", out_mask]
    if out_prob is not None:
        argv += ["--out-prob", out_prob]
    return argv + list(extra)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_mask_and_prob(tmp_path):
    mask_path = tmp_path / "m.grid"
    prob_path = tmp_path / "p.grid"
    assert run(*synth_args(mask_path, prob_path,
                           extra=["--blur-r", 1, "--offset", "1,0",
                                  "--noise-sd", "0.1"])) == 0
    m = read_grid(mask_path)
    p = read_grid(prob_path)
    assert m.kind == "mask" and p.kind == "prob"
    assert m.shape == p.shape == (24, 24)
    assert m.spacing_deg == 0.05


def test_synth_reruns_byte_identical(tmp_path):
    a1, b1 = tmp_path / "m1.grid", tmp_path / "p1.grid"
    a2, b2 = tmp_path / "m2.grid", tmp_path / "p2.grid"
    extra = ["--noise-sd", "0.2", "--blur-r", 1]
    assert run(*synth_args(a1, b1, extra=extra)) == 0
    assert run(*synth_args(a2, b2, extra=extra)) == 0
    assert read_bytes(a1) == read_bytes(a2)
    assert read_bytes(b1) == read_bytes(b2)


def test_synth_count_mode(tmp_path):
    out = tmp_path / "steps"
    assert run("synth", "--rows", 20, "--cols", 20, "--spacing", "0.05",
               "--n-cells", 2, "--seed", 5, "--count", 3, "--out-dir", out) == 0
    masks = sorted(os.listdir(out))
    assert masks == ["mask_000.grid", "mask_001.grid", "mask_002.grid",
                     "prob_000.grid", "prob_001.grid", "prob_002.grid"]
    v0 = read_grid(out / "mask_000.grid").values
    v1 = read_grid(out / "mask_001.grid").values
    assert not np.array_equal(v0, v1)  # per-step seeds differ


def test_synth_usage_errors(tmp_path):
    assert run("synth", "--count", 2) == 1  # --count needs --out-dir
    assert run("synth") == 1  # no --out-mask


# ---------------------------------------------------------------------------
# filter

def test_filter_single_matches_library(tmp_path):
    src = tmp_path / "in.grid"
    dst = tmp_path / "out.grid"
    assert run(*synth_args(src)) == 0
    assert run("filter", "--spec", "nbhd_max_r2", src, dst) == 0
    got = read_grid(dst)
    want = max_filter(read_grid(src), 2)
    np.testing.assert_array_equal(got.values, want.values)
    sidecar = json.loads(read_bytes(str(dst) + ".json"))
    assert sidecar["filter_id"] == "nbhd_max_r2"
    assert sidecar["rows"] == 24 and sidecar["cols"] == 24
    assert sidecar["pixel_sum"] == pytest.approx(float(want.values.sum()), rel=1e-6)


def test_filter_glob_out_dir_and_jobs(tmp_path):
    steps = tmp_path / "steps"
    out = tmp_path / "filtered"
    assert run("synth", "--rows", 20, "--cols", 20, "--spacing", "0.05",
               "--n-cells", 2, "--seed", 7, "--count", 3, "--out-dir", steps) == 0
    assert run("filter", "--spec", "F0.1-0.4", str(steps / "mask_*.grid"),
               "--out-dir", out, "--jobs", 2) == 0
    names = sorted(os.listdir(out))
    assert names == ["mask_000.grid", "mask_000.grid.json",
                     "mask_001.grid", "mask_001.grid.json",
                     "mask_002.grid", "mask_002.grid.json"]
    assert read_grid(out / "mask_000.grid").kind == "real"


DUMPED_STAGES = {
    "F0.1-0.4": ["filtered_mag", "full", "gain", "spectrum_mag", "tapered", "window",
                 "windowed"],
    "W0-0.1": ["full", "padded"],
    "nbhd_max_r1": [],  # a neighbourhood filter has no stages
}


@pytest.mark.parametrize("spec", sorted(DUMPED_STAGES))
def test_filter_dump_stages(tmp_path, spec):
    src = tmp_path / "in.grid"
    dst = tmp_path / "out.grid"
    stages = tmp_path / "stages"
    assert run(*synth_args(src)) == 0
    assert run("filter", "--spec", spec, src, dst,
               "--dump-stages", stages) == 0
    names = [f"{name}.grid" for name in DUMPED_STAGES[spec]]
    assert sorted(os.listdir(stages)) == names
    for name in names:
        f = read_grid(stages / name)
        assert f.kind == "real"


def test_filter_usage_errors(tmp_path):
    src = tmp_path / "in.grid"
    assert run(*synth_args(src)) == 0
    assert run("filter", "--spec", "bogus_r1", src, tmp_path / "o.grid") == 1
    assert run("filter", "--spec", "nbhd_max_r1", src) == 1  # needs IN OUT
    assert run("filter", "--spec", "nbhd_max_r1", src, src,
               tmp_path / "o.grid") == 1
    assert run("filter", "--spec", "nbhd_max_r1",
               tmp_path / "missing.grid", tmp_path / "o.grid") == 1


def test_filter_refuses_clashing_outputs_before_writing(tmp_path, capsys):
    # Two inputs with one basename would land on one output; with --jobs 2
    # the two writes would race.
    for seed, sub in enumerate(("a", "b")):
        (tmp_path / sub).mkdir()
        assert run(*synth_args(tmp_path / sub / "x.grid", seed=seed)) == 0
    out = tmp_path / "o"
    for jobs in (1, 2):
        capsys.readouterr()
        assert run("filter", "--spec", "F0.1-inf", tmp_path / "a" / "x.grid",
                   tmp_path / "b" / "x.grid", "--out-dir", out, "--jobs", jobs) == 1
        err = capsys.readouterr().err
        assert str(out / "x.grid") in err and str(tmp_path / "b" / "x.grid") in err
        assert not out.exists()
    # The same input named twice clashes with itself.
    assert run("filter", "--spec", "F0.1-inf", tmp_path / "a" / "x.grid",
               str(tmp_path / "a" / "*.grid"), "--out-dir", out) == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# score + rank

@pytest.fixture()
def scored_pipeline(tmp_path):
    """Three time steps, a displaced model 'a' and a perfect model 'b'."""
    steps = tmp_path / "steps"
    steps.mkdir()
    for i in range(3):
        spec = SynthSpec(rows=24, cols=24, spacing_deg=0.05, n_cells=3, seed=20 + i)
        m = synth_mask(spec)
        write_grid(steps / f"obs_{i}.grid", m)
        write_grid(steps / f"a_{i}.grid", synth_prob(m, blur_r=1, offset_px=(2, 1)))
        write_grid(steps / f"b_{i}.grid", synth_prob(m))
    return steps


def test_score_csv_layout_and_values(scored_pipeline, tmp_path):
    out = tmp_path / "scores.csv"
    assert run("score",
               "--pred", f"a={scored_pipeline}/a_*.grid",
               "--pred", f"b={scored_pipeline}/b_*.grid",
               "--obs", f"{scored_pipeline}/obs_*.grid",
               "--specs", "brier_F0-inf,fss_nbhd_r0,csi_nbhd_r2",
               "--out", out) == 0
    lines = read_bytes(out).decode().splitlines()
    assert lines[0] == "model,spec_id,value,fallbacks"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("a", "brier_F0-inf"), ("a", "csi_nbhd_r2"), ("a", "fss_nbhd_r0"),
        ("b", "brier_F0-inf"), ("b", "csi_nbhd_r2"), ("b", "fss_nbhd_r0")]
    cells = {(r[0], r[1]): r[2] for r in rows}
    # A perfect forecast through identical filters: exact optima.
    assert cells[("b", "brier_F0-inf")] == "0.0"
    assert cells[("b", "fss_nbhd_r0")] == "1.0"
    assert float(cells[("a", "brier_F0-inf")]) > 0.0


def test_score_deterministic_and_parallel_identical(scored_pipeline, tmp_path):
    # Two models share each step's filtered observation under --all-336.
    for specs, n_rows in ((["--specs", "brier_nbhd_r1,xent_W0.1-0.4"], 2),
                          (["--all-336", "--pred", f"b={scored_pipeline}/b_*.grid"], 2 * 336)):
        argv = ["score", "--pred", f"a={scored_pipeline}/a_*.grid",
                "--obs", f"{scored_pipeline}/obs_*.grid", *specs]
        assert run(*argv, "--out", tmp_path / "s1.csv") == 0
        assert run(*argv, "--out", tmp_path / "s2.csv") == 0
        assert run(*argv, "--out", tmp_path / "s3.csv", "--jobs", 3) == 0
        b1 = read_bytes(tmp_path / "s1.csv")
        assert b1 == read_bytes(tmp_path / "s2.csv") == read_bytes(tmp_path / "s3.csv")
        assert b1.count(b"\n") == 1 + n_rows


def test_score_scores_a_config_named_twice_once(scored_pipeline, tmp_path):
    out = tmp_path / "d.csv"
    assert run("score", "--pred", f"m={scored_pipeline}/a_*.grid",
               "--obs", f"{scored_pipeline}/obs_*.grid",
               "--specs", "brier_nbhd_r1,BRIER_nbhd_r1,brier_F0.10-inf,brier_F0.1-inf",
               "--out", out) == 0
    lines = read_bytes(out).decode().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["brier_F0.1-inf", "brier_nbhd_r1"]
    assert run("rank", "--scores", out, "--out-dir", tmp_path / "r") == 0


def test_score_all_336(scored_pipeline, tmp_path):
    out = tmp_path / "scores.csv"
    assert run("score", "--pred", f"a={scored_pipeline}/a_0.grid",
               "--obs", f"{scored_pipeline}/obs_0.grid",
               "--all-336", "--out", out) == 0
    lines = read_bytes(out).decode().splitlines()
    assert len(lines) == 1 + 336
    values = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(np.isfinite(values))


def test_score_usage_errors(scored_pipeline, tmp_path):
    out = tmp_path / "scores.csv"
    base = ["score", "--obs", f"{scored_pipeline}/obs_*.grid", "--out", out]
    # Neither --specs nor --all-336:
    assert run(*base, "--pred", f"a={scored_pipeline}/a_*.grid") == 1
    # Step-count mismatch:
    assert run(*base, "--pred", f"a={scored_pipeline}/a_0.grid",
               "--specs", "brier_nbhd_r0") == 1
    # Multiple models need NAME= prefixes:
    assert run(*base, "--pred", f"{scored_pipeline}/a_*.grid",
               "--pred", f"{scored_pipeline}/b_*.grid",
               "--specs", "brier_nbhd_r0") == 1
    # Duplicate model name:
    assert run(*base, "--pred", f"x={scored_pipeline}/a_*.grid",
               "--pred", f"x={scored_pipeline}/b_*.grid",
               "--specs", "brier_nbhd_r0") == 1
    # Unknown spec id:
    assert run(*base, "--pred", f"a={scored_pipeline}/a_*.grid",
               "--specs", "brier_Q1-2") == 1


def test_rank_outputs(scored_pipeline, tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    rank_dir = tmp_path / "ranks"
    assert run("score",
               "--pred", f"a={scored_pipeline}/a_*.grid",
               "--pred", f"b={scored_pipeline}/b_*.grid",
               "--obs", f"{scored_pipeline}/obs_*.grid",
               "--specs", "brier_F0-inf,fss_nbhd_r0,csi_nbhd_r2,xent_nbhd_r0",
               "--out", scores) == 0
    assert run("rank", "--scores", scores, "--out-dir", rank_dir) == 0
    out = capsys.readouterr().out
    assert "best mean ranks: b (1.00)" in out

    ranks = read_bytes(rank_dir / "ranks.csv").decode().splitlines()
    assert ranks[0] == "model,brier_F0-inf,csi_nbhd_r2,fss_nbhd_r0,xent_nbhd_r0"
    assert ranks[1].startswith("a,2.0,") and ranks[2].startswith("b,1.0,")

    winners = read_bytes(rank_dir / "winners.csv").decode().splitlines()
    assert winners[0] == "filter_id,model,mean_rank"
    data = [ln.split(",") for ln in winners[1:]]
    assert [d[0] for d in data] == ["F0-inf", "nbhd_r0", "nbhd_r2"]
    assert all(d[1] == "b" and d[2] == "1.0" for d in data)

    summary = read_bytes(rank_dir / "filter_summary.csv").decode().splitlines()
    assert summary[0] == "model,F0-inf,nbhd_r0,nbhd_r2"
    assert len(summary) == 3


def test_rank_single_model_all_ones(scored_pipeline, tmp_path):
    scores = tmp_path / "scores.csv"
    rank_dir = tmp_path / "ranks"
    assert run("score", "--pred", f"a={scored_pipeline}/a_*.grid",
               "--obs", f"{scored_pipeline}/obs_*.grid",
               "--specs", "brier_nbhd_r0,fss_nbhd_r2", "--out", scores) == 0
    assert run("rank", "--scores", scores, "--out-dir", rank_dir) == 0
    lines = read_bytes(rank_dir / "ranks.csv").decode().splitlines()
    assert lines[1] == "model,1.0,1.0".replace("model", "a")


def test_rank_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("model,value\nx,0.5\n")
    assert run("rank", "--scores", bad, "--out-dir", tmp_path / "r") == 1
    holes = tmp_path / "holes.csv"
    holes.write_text("model,spec_id,value\n"
                     "a,brier_nbhd_r0,0.5\n"
                     "a,fss_nbhd_r0,0.9\n"
                     "b,brier_nbhd_r0,0.4\n")
    assert run("rank", "--scores", holes, "--out-dir", tmp_path / "r") == 1
    dup = tmp_path / "dup.csv"
    dup.write_text("model,spec_id,value\n"
                   "a,brier_nbhd_r0,0.5\n"
                   "a,brier_nbhd_r0,0.6\n")
    assert run("rank", "--scores", dup, "--out-dir", tmp_path / "r") == 1


def test_score_model_name_with_comma_is_read_back_by_rank(scored_pipeline, tmp_path):
    scores = tmp_path / "scores.csv"
    rank_dir = tmp_path / "ranks"
    assert run("score", "--pred", f"a,b={scored_pipeline}/a_*.grid",
               "--pred", f"c={scored_pipeline}/b_*.grid",
               "--obs", f"{scored_pipeline}/obs_*.grid",
               "--specs", "brier_nbhd_r1,fss_nbhd_r0", "--out", scores) == 0
    with open(scores, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["model"], r["spec_id"]) for r in rows] == [
        ("a,b", "brier_nbhd_r1"), ("a,b", "fss_nbhd_r0"),
        ("c", "brier_nbhd_r1"), ("c", "fss_nbhd_r0")]
    assert run("rank", "--scores", scores, "--out-dir", rank_dir) == 0
    with open(rank_dir / "ranks.csv", newline="") as fh:
        ranks = list(csv.reader(fh))
    assert ranks == [["model", "brier_nbhd_r1", "fss_nbhd_r0"],
                     ["a,b", "2.0", "2.0"], ["c", "1.0", "1.0"]]


# ---------------------------------------------------------------------------
# kind contract of score and eval


@pytest.fixture()
def filtered_preds(scored_pipeline, tmp_path):
    """Model 'a' band-passed: 'real'-kind fields with values outside [0, 1]."""
    out = tmp_path / "filtered"
    assert run("filter", "--spec", "F0.2-inf", f"{scored_pipeline}/a_*.grid",
               "--out-dir", out) == 0
    assert read_grid(out / "a_0.grid").kind == "real"
    return out


def test_score_and_eval_refuse_real_predictions(scored_pipeline, filtered_preds,
                                                 tmp_path, capsys):
    obs = f"{scored_pipeline}/obs_*.grid"
    capsys.readouterr()
    assert run("score", "--pred", f"m={filtered_preds}/a_*.grid", "--obs", obs,
               "--specs", "brier_nbhd_r0", "--out", tmp_path / "s.csv") == 1
    err = capsys.readouterr().err
    assert "a_0.grid" in err and "prediction has kind 'real'" in err
    assert not (tmp_path / "s.csv").exists()

    assert run("eval", "--pred", f"{filtered_preds}/a_*.grid", "--obs", obs,
               "--out-dir", tmp_path / "rep") == 1
    err = capsys.readouterr().err
    assert "a_0.grid" in err and "prediction has kind 'real'" in err
    assert run("eval", "--pred", f"{scored_pipeline}/a_*.grid", "--obs", obs,
               "--compare", f"{filtered_preds}/a_*.grid", "--out-dir", tmp_path / "rep") == 1
    assert "prediction has kind 'real'" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_score_and_eval_refuse_non_mask_observations(scored_pipeline, tmp_path, capsys):
    preds, probs = f"{scored_pipeline}/a_*.grid", f"{scored_pipeline}/b_*.grid"
    capsys.readouterr()
    assert run("score", "--pred", f"a={preds}", "--obs", probs,
               "--specs", "brier_nbhd_r0", "--out", tmp_path / "s.csv") == 1
    err = capsys.readouterr().err
    assert "b_0.grid" in err and "observation has kind 'prob'" in err
    assert run("eval", "--pred", preds, "--obs", probs, "--out-dir", tmp_path / "rep") == 1
    assert "observation has kind 'prob'" in capsys.readouterr().err


def test_score_accepts_mask_and_prob_predictions(scored_pipeline, tmp_path):
    # A mask relabelled 'prob' and the mask itself both score as perfect.
    obs = f"{scored_pipeline}/obs_*.grid"
    out = tmp_path / "s.csv"
    assert run("score", "--pred", f"prob={scored_pipeline}/b_*.grid",
               "--pred", f"mask={obs}", "--obs", obs,
               "--specs", "brier_nbhd_r0", "--out", out) == 0
    with open(out, newline="") as fh:
        assert [r["value"] for r in csv.DictReader(fh)] == ["0.0", "0.0"]


def test_truncated_grid_is_named_by_every_reader(scored_pipeline, tmp_path, capsys):
    bad = tmp_path / "obs_1.grid"
    bad.write_bytes(read_bytes(scored_pipeline / "obs_1.grid")[:60])
    obs = f"{scored_pipeline}/obs_0.grid,{bad}"
    preds = f"{scored_pipeline}/a_0.grid,{scored_pipeline}/a_1.grid"
    capsys.readouterr()
    for argv in (["score", "--pred", f"m={preds}", "--obs", obs, "--specs", "brier_nbhd_r1",
                  "--out", tmp_path / "s.csv"],
                 ["eval", "--pred", preds, "--obs", obs, "--out-dir", tmp_path / "rep"],
                 ["filter", "--spec", "F0.1-inf", bad, tmp_path / "f.grid"]):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: GRID1 payload is"), argv[0]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    # The umask is process-wide, so each case runs in a fresh interpreter
    # that sets it first.
    script = (
        "import os, sys\n"
        "os.umask(int(sys.argv[1], 8))\n"
        "from selfscore.cli import main\n"
        "d = sys.argv[2]\n"
        "assert main(['synth', '--rows', '16', '--cols', '16', '--count', '2',\n"
        "             '--out-dir', d, '--blur-r', '1']) == 0\n"
        "assert main(['score', '--pred', f'm={d}/prob_*.grid', '--obs', f'{d}/mask_*.grid',\n"
        "             '--specs', 'brier_nbhd_r1', '--out', f'{d}/d.csv']) == 0\n"
        "assert main(['rank', '--scores', f'{d}/d.csv', '--out-dir', d]) == 0\n"
        "assert main(['filter', '--spec', 'F0.1-inf', f'{d}/prob_000.grid',\n"
        "             f'{d}/f.grid']) == 0\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", script, oct(umask), str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=120)
    names = sorted(os.listdir(tmp_path))
    assert len(names) == 10 and not [n for n in names if n.endswith(".tmp")]
    assert {n: os.stat(tmp_path / n).st_mode & 0o777 for n in names} == dict.fromkeys(names, mode)


def test_filter_refuses_values_beyond_float32_before_writing(tmp_path, capsys):
    # The detail band of [[M, M], [M, -M]] holds -1.5 M, past float32's
    # largest value M: GRID1 could not hold it, so nothing is written.
    big = float(np.finfo(np.float32).max)
    src = tmp_path / "in.grid"
    write_grid(src, GridField(np.array([[big, big], [big, -big]]), 1.0, "real"))
    dst = tmp_path / "out" / "f.grid"
    dst.parent.mkdir()
    capsys.readouterr()
    assert run("filter", "--spec", "W0-1", src, dst) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dst}: ") and "float32" in err
    assert os.listdir(dst.parent) == []


@pytest.fixture()
def gap_steps(tmp_path):
    """Forecasts for steps 0 and 2 beside observations for steps 0 and 1."""
    steps = tmp_path / "gap"
    steps.mkdir()
    for i in range(3):
        m = synth_mask(SynthSpec(rows=16, cols=16, spacing_deg=0.05, n_cells=2, seed=40 + i))
        write_grid(steps / f"mask_{i:03d}.grid", m)
        write_grid(steps / f"prob_{i:03d}.grid", synth_prob(m, blur_r=1))
    return steps


def _assert_refused_as_misaligned(argv, steps, capsys):
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert f"{steps / 'prob_002.grid'}" in err and f"{steps / 'mask_001.grid'}" in err


def test_score_refuses_steps_paired_across_numbers(gap_steps, tmp_path, capsys):
    preds = f"{gap_steps}/prob_000.grid,{gap_steps}/prob_002.grid"
    obs = f"{gap_steps}/mask_000.grid,{gap_steps}/mask_001.grid"
    out = tmp_path / "s.csv"
    _assert_refused_as_misaligned(["score", "--pred", f"m={preds}", "--obs", obs,
                                   "--specs", "brier_nbhd_r1", "--out", out],
                                  gap_steps, capsys)
    assert not out.exists()
    # Matching numbers, and names without numbers, still pair by position.
    assert run("score", "--pred", f"m={gap_steps}/prob_00[01].grid", "--obs", obs,
               "--specs", "brier_nbhd_r1", "--out", out) == 0
    for i in (0, 2):
        os.replace(gap_steps / f"prob_00{i}.grid", tmp_path / f"p{'ab'[i // 2]}.grid")
    assert run("score", "--pred", f"m={tmp_path}/p?.grid", "--obs", obs,
               "--specs", "brier_nbhd_r1", "--out", out) == 0


def test_eval_refuses_steps_paired_across_numbers(gap_steps, tmp_path, capsys):
    preds = f"{gap_steps}/prob_000.grid,{gap_steps}/prob_002.grid"
    obs = f"{gap_steps}/mask_000.grid,{gap_steps}/mask_001.grid"
    _assert_refused_as_misaligned(["eval", "--pred", preds, "--obs", obs,
                                   "--out-dir", tmp_path / "r"], gap_steps, capsys)
    assert not (tmp_path / "r").exists()


def test_eval_compare_refuses_steps_paired_across_numbers(gap_steps, tmp_path, capsys):
    preds = f"{gap_steps}/prob_000.grid,{gap_steps}/prob_001.grid"
    other = f"{gap_steps}/prob_000.grid,{gap_steps}/prob_002.grid"
    obs = f"{gap_steps}/mask_000.grid,{gap_steps}/mask_001.grid"
    _assert_refused_as_misaligned(["eval", "--pred", preds, "--obs", obs, "--compare", other,
                                   "--n-boot", 20, "--out-dir", tmp_path / "r"],
                                  gap_steps, capsys)
    assert not (tmp_path / "r").exists()


# ---------------------------------------------------------------------------
# eval

def test_eval_report_and_compare(scored_pipeline, tmp_path, capsys):
    out = tmp_path / "report"
    args = ["eval", "--pred", f"{scored_pipeline}/a_*.grid",
            "--obs", f"{scored_pipeline}/obs_*.grid",
            "--out-dir", out, "--thresholds", 21, "--n-boot", 50]
    assert run(*args) == 0
    printed = capsys.readouterr().out
    assert "BSS=" in printed and "AUPD=" in printed
    data = json.loads(read_bytes(out / "report.json"))
    assert set(data) == {"attributes", "performance", "summary", "bootstrap"}
    assert data["bootstrap"]["n_boot"] == 50
    assert data["bootstrap"]["bss"]["lo"] <= data["bootstrap"]["bss"]["hi"]
    lines = read_bytes(out / "report.csv").decode().splitlines()
    assert len(lines) == 1 + 20 + 21 + 7

    # Comparing a model against itself: zero difference, not significant.
    assert run(*args, "--compare", f"{scored_pipeline}/a_*.grid") == 0
    printed = capsys.readouterr().out
    assert "not significant" in printed
    data = json.loads(read_bytes(out / "report.json"))
    assert data["compare"]["diff"] == 0.0
    assert data["compare"]["p_value"] == 1.0
    assert data["compare"]["significant_95"] is False


def test_eval_deterministic(scored_pipeline, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["eval", "--pred", f"{scored_pipeline}/a_*.grid",
            "--obs", f"{scored_pipeline}/obs_*.grid",
            "--thresholds", 11, "--n-boot", 50, "--seed", 4]
    assert run(*args, "--out-dir", out1) == 0
    assert run(*args, "--out-dir", out2) == 0
    assert read_bytes(out1 / "report.json") == read_bytes(out2 / "report.json")
    assert read_bytes(out1 / "report.csv") == read_bytes(out2 / "report.csv")


def test_eval_usage_errors(scored_pipeline, tmp_path):
    assert run("eval", "--pred", f"{scored_pipeline}/a_0.grid",
               "--obs", f"{scored_pipeline}/obs_*.grid",
               "--out-dir", tmp_path / "r") == 1
    assert run("eval", "--pred", f"{scored_pipeline}/a_*.grid",
               "--obs", f"{scored_pipeline}/obs_*.grid",
               "--compare", f"{scored_pipeline}/b_0.grid",
               "--out-dir", tmp_path / "r") == 1


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_single_spec(capsys):
    assert run("gradcheck", "--specs", "iou_nbhd_r1", "--rows", 12,
               "--cols", 12) == 0
    out = capsys.readouterr().out
    assert "iou_nbhd_r1" in out and "ok" in out
    assert "worst pixel:" in out  # single-spec detail line


def test_gradcheck_fails_on_coarse_step(capsys):
    # A huge step makes truncation error dominate for the rational fss loss
    # (brier is quadratic, so central differences stay exact at any step).
    assert run("gradcheck", "--specs", "brier_F0-0.1,fss_nbhd_r2", "--rows", 10,
               "--cols", 10, "--step", "0.3", "--tol", "1e-6") == 2
    captured = capsys.readouterr()
    assert "exceeded rel tol" in captured.err
    assert "brier_F0-0.1" in captured.out and "ok" in captured.out


def test_gradcheck_checks_a_config_named_twice_once(capsys):
    assert run("gradcheck", "--specs", "brier_nbhd_r1,BRIER_nbhd_r1", "--rows", 6,
               "--cols", 6) == 0
    out = capsys.readouterr().out
    assert out.count("brier_nbhd_r1") == 1
    assert "all 1 configs within rel tol" in out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_gradcheck_fails_a_step_that_leaves_no_finite_difference(capsys):
    # At a step of 1e300 every difference quotient is NaN; none may pass.
    assert run("gradcheck", "--specs", "brier_nbhd_r1", "--step", "1e300") == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "within rel tol" not in captured.out
    assert "1 of 1 configs exceeded rel tol" in captured.err


def test_gradcheck_unknown_spec():
    assert run("gradcheck", "--specs", "nope_nbhd_r1") == 1


# ---------------------------------------------------------------------------
# parser behaviour

def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 1


def test_missing_required_argument_exits_1():
    with pytest.raises(SystemExit) as exc:
        run("score", "--obs", "x.grid", "--out", "y.csv")  # no --pred
    assert exc.value.code == 1
