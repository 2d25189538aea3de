"""The golden outputs stay put: a fixed set of CLI outputs (``_golden``)
against the digests committed in ``golden_digests.json``.

Where Python, numpy and the platform match the record, every output is
asserted byte-identical.  Elsewhere each output's numbers are compared
within the recorded tolerance, and the outputs whose bits moved inside it
are named in a warning.  Remake the file with ``python tests/_golden.py``.
"""

import json
import warnings

import pytest
from _golden import GOLDEN, environment, outputs, summary, within


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


def test_outputs_match_the_golden_digests(made):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    want = golden["outputs"]
    got = {name: summary(name, blob) for name, blob in made.items()}
    assert sorted(got) == sorted(want)
    moved = [name for name in sorted(want) if got[name]["sha256"] != want[name]["sha256"]]
    if golden["environment"] == environment():
        assert not moved, f"bits moved in {moved}"
        return
    beyond = [name for name in moved if not within(got[name], want[name], **golden["tolerance"])]
    assert not beyond, (f"moved beyond {golden['tolerance']} in {beyond}; recorded on "
                        f"{golden['environment']}, run on {environment()}")
    if moved:
        warnings.warn(f"bits moved within {golden['tolerance']} in {moved}")


@pytest.mark.parametrize("edit,passes", [
    (lambda s: s.replace(b"0.0009960204268343977", b"0.0009960204268343978"), True),
    (lambda s: s.replace(b"0.0009960204268343977", b"0.0019960204268343977"), False),
    (lambda s: s.replace(b"a,brier_F0-0.1,", b"a,brier_F0-0.2,", 1), False),
    (lambda s: s + b"b,extra,0.0,\n", False),
])
def test_the_tolerance_comparison_passes_only_moves_inside_it(made, edit, passes):
    # One score moved by 1e-19 is inside the tolerance; one moved by 1e-3,
    # a renamed row or an extra row is not.
    blob = made["score.csv"]
    edited = edit(blob)
    assert edited != blob
    tolerance = json.loads(GOLDEN.read_text(encoding="utf-8"))["tolerance"]
    assert within(summary("score.csv", edited), summary("score.csv", blob), **tolerance) is passes
