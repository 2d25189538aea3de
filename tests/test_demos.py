"""The demos the README lists run to completion.

Each ``demos/*.py`` script runs in a fresh interpreter against the package
sources, with ``TMPDIR`` pointed at an empty directory of the test's own,
which the demo must leave empty: a demo cleans up its temporary files.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfscore

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS, "no demos/*.py next to tests/"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = Path(selfscore.__file__).resolve().parent.parent
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir), PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmpdir) == [], "the demo left files in its TMPDIR"
