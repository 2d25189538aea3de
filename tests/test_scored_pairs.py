"""One kind rule guards every scored pair, and the neighbourhood CSI record
reduces its contingency once.

``scores.scored_weights`` takes a ``prob`` or ``mask`` prediction against a
``mask`` observation and refuses any other kind, naming it.  Every entry
point that scores a pair reads it, so a ``real`` prediction (a spectral
filter's output, say) never reaches a score: a negative one would put the
neighbourhood CSI outside [0, 1] and break the reliability bins.  The CLI's
``score`` and ``eval`` check no kind of their own: they print its text.  The
``NbhdPair`` record keeps its (a_obs, a_pred, b, c) contingency, so one
loss value and its gradient reduce it once.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest

from selfscore.cli import main
from selfscore.evaluation import (attributes_diagram, brier_parts,
                                  performance_diagram)
from selfscore.grid import GridField, write_grid
from selfscore.losses import (grad_check, loss_gradient, loss_value, metric_tables,
                              parse_spec_id, prepare_target)
from selfscore.scores import NbhdPair
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob

SPACING = 0.05
CSI = parse_spec_id("csi_nbhd_r1")


def fields():
    """An 8x8 observation with events, and a prediction in [0, 1] of it."""
    y = synth_mask(SynthSpec(8, 8, SPACING, n_cells=2, seed=3))
    assert y.values.any()
    return y, synth_prob(y, blur_r=1, noise_sd=0.05, seed=4)


def real_prediction():
    values = np.random.default_rng(5).uniform(-1.0, -0.5, size=(8, 8))
    return GridField(values, SPACING, "real")


def cli(*argv):
    """``selfscore *argv`` in-process, with the pair written to ``pred.grid`` and
    ``obs.grid`` in a temporary directory that an ``@`` in ``argv`` stands for;
    on exit 1 its ``error:`` line is raised as a ``ValueError``."""
    def run(p, y):
        with tempfile.TemporaryDirectory() as tmp:
            write_grid(os.path.join(tmp, "pred.grid"), p)
            write_grid(os.path.join(tmp, "obs.grid"), y)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([a.replace("@", tmp + os.sep) for a in argv])
        if code == 1:
            raise ValueError(err.getvalue())
        assert code == 0
    return run


EVAL = ("--obs", "@obs.grid", "--out-dir", "@report", "--n-boot", "20", "--n-boot-bars", "10")

#: Each entry point that scores a (prediction, observation) pair.
ENTRY_POINTS = {
    "loss_value": lambda p, y: loss_value(CSI, p, prepare_target(CSI, y)),
    "loss_gradient": lambda p, y: loss_gradient(CSI, p, prepare_target(CSI, y)),
    "grad_check": lambda p, y: grad_check(CSI, p, prepare_target(CSI, y)),
    "metric_tables": lambda p, y: metric_tables(
        [CSI, parse_spec_id("iou_nbhd_r2"), parse_spec_id("brier_F0-0.1")], [p], y),
    "attributes_diagram": attributes_diagram,
    "brier_parts": brier_parts,
    "performance_diagram": performance_diagram,
    "cli_score": cli("score", "--pred", "m=@pred.grid", "--obs", "@obs.grid",
                     "--specs", "csi_nbhd_r1,brier_F0-0.1", "--out", "@scores.csv"),
    "cli_eval": cli("eval", "--pred", "@pred.grid", *EVAL),
    # The observation is a perfect --pred, so the compared side is the one checked.
    "cli_eval_compare": cli("eval", "--pred", "@obs.grid", "--compare", "@pred.grid", *EVAL),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_real_prediction_naming_its_kind(entry):
    y, _ = fields()
    with pytest.raises(ValueError, match="predictions must be of kind prob or mask, "
                                         "got kind 'real'"):
        ENTRY_POINTS[entry](real_prediction(), y)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_prob_observation_naming_its_kind(entry):
    y, p = fields()
    with pytest.raises(ValueError, match="observations must be binary masks, got kind 'prob'"):
        ENTRY_POINTS[entry](p, y.with_values(y.values, "prob"))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_scores_prob_and_mask_predictions(entry):
    y, p = fields()
    for pred in (p, y):
        ENTRY_POINTS[entry](pred, y)


def test_a_csi_value_and_gradient_reduce_the_contingency_once(monkeypatch):
    y, p = fields()
    calls = []
    reduce = NbhdPair.contingency

    def counted(self):
        calls.append(self)
        return reduce(self)
    monkeypatch.setattr(NbhdPair, "contingency", counted)
    target = prepare_target(CSI, y)
    loss_value(CSI, p, target)
    gradient = loss_gradient(CSI, p, target)
    assert len(calls) == 1
    assert gradient.any()  # the full branch, which reads the counts twice

    # A new prediction gets a new record, and one more reduction.
    loss_gradient(CSI, p.with_values(p.values.copy()), target)
    assert len(calls) == 2
