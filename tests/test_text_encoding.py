"""Text outputs are UTF-8 whatever the locale.

Model names reach ``scores.csv`` and the rank tables; a run under an ASCII
locale must write them as UTF-8 bytes and read them back as such.
"""

import os
import subprocess
import sys

import numpy as np

import selfscore
from selfscore.grid import GridField, write_grid

ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
NAME = "modèle"


def cli(cwd, *argv):
    src = os.path.dirname(os.path.dirname(selfscore.__file__))
    env = dict(os.environ, **ASCII_LOCALE)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "selfscore.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=120)


def test_score_and_rank_a_non_ascii_model_under_an_ascii_locale(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(2):
        y = (rng.random((16, 16)) < 0.3).astype(float)
        write_grid(tmp_path / f"mask_{i}.grid", GridField(y, 0.05, "mask"))
        write_grid(tmp_path / f"prob_{i}.grid", GridField(rng.random((16, 16)), 0.05, "prob"))
    score = cli(tmp_path, "score", "--pred", f"{NAME}=prob_*.grid", "--pred", "obs=mask_*.grid",
                "--obs", "mask_*.grid", "--specs", "brier_nbhd_r1,fss_F0.1-0.4",
                "--out", "scores.csv")
    assert score.returncode == 0, score.stderr
    assert NAME.encode("utf-8") + b",brier_nbhd_r1," in (tmp_path / "scores.csv").read_bytes()

    rank = cli(tmp_path, "rank", "--scores", "scores.csv", "--out-dir", "ranks")
    assert rank.returncode == 0, rank.stderr
    for table in ("ranks.csv", "filter_summary.csv"):
        assert NAME.encode("utf-8") + b"," in (tmp_path / "ranks" / table).read_bytes()
