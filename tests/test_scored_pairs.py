"""One kind rule guards every scored pair, the neighbourhood CSI record
reduces its contingency once, and each pixelwise gradient takes the branch
its score takes.

``scores.scored_weights`` takes a ``prob`` or ``mask`` prediction against a
``mask`` observation and refuses any other kind, naming it.  Every entry
point that scores a pair reads it, so a ``real`` prediction (a spectral
filter's output, say) never reaches a score: a negative one would put the
neighbourhood CSI outside [0, 1] and break the reliability bins.  The CLI's
``score`` and ``eval`` check no kind of their own: they print its text.  The
``NbhdPair`` record keeps its (a_obs, a_pred, b, c) contingency, so one
loss value and its gradient reduce it once.  Fills that drive every
``PairSums`` fallback, on a whole grid and a masked one, check that each
gradient is finite, zero off the scored pixels and on a constant branch,
and gerrity's derivative on its zero-event-ratio branch.
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
from selfscore.scores import SCORE_KINDS, NbhdPair, PairSums
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


#: (prediction, observation) on the scored pixels: a constant, or "prob"
#: for a probability field, or "events" for a sparse mask.
FILLS = {"zero-zero": (0.0, 0.0), "one-one": (1.0, 1.0), "prob-none": ("prob", 0.0),
         "prob-all": ("prob", 1.0), "prob-events": ("prob", "events")}
#: The fallbacks the fills drive, per kind: every one ``PairSums.score`` names.
FALLBACKS = {
    "brier": set(), "dice": set(), "xent": set(),
    "csi": {"csi_zero_denominator"}, "fss": {"fss_zero_reference"}, "iou": {"iou_zero_union"},
    "heidke": {"heidke_zero_denominator"}, "peirce": {"peirce_empty_class"},
    "gerrity": {"gerrity_zero_denominator", "gerrity_zero_event_ratio"},
}


@pytest.mark.parametrize("masked", [False, True], ids=["whole", "masked"])
@pytest.mark.parametrize("kind", SCORE_KINDS)
def test_every_pixelwise_gradient_follows_its_scores_fallback(kind, masked):
    rng = np.random.default_rng(7)
    w = rng.random((9, 11)) < 0.6 if masked else np.ones((9, 11), dtype=bool)
    seen = set()
    for p_fill, y_fill in FILLS.values():
        # Unscored pixels hold noise, which neither the branch nor the gradient may read.
        pv, yv = rng.uniform(size=w.shape), (rng.random(w.shape) < 0.5).astype(float)
        pv[w] = rng.uniform(size=w.sum()) if p_fill == "prob" else p_fill
        yv[w] = rng.random(w.sum()) < 0.2 if y_fill == "events" else y_fill
        sums = PairSums(pv, yv, w)
        fallbacks, grad = sums.score(kind).fallbacks, sums.gradient(kind)
        seen.update(fallbacks)
        assert np.isfinite(grad).all()
        assert not grad[~w].any()
        if fallbacks == ("gerrity_zero_event_ratio",):  # no events: d gerrity/dp = (2y - 1)/n
            assert (grad[w] == -1.0 / w.sum()).all()
        elif fallbacks:  # a constant branch
            assert not grad.any()
    assert seen == FALLBACKS[kind]
