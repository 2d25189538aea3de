"""Scores and contingency counts of one (prediction, observation) pair, read
from the records training and evaluation read: ``PairSums`` pixelwise,
``NbhdPair`` at neighbourhood half-width ``r``; and ``metric_value``, one
config's evaluation metric of one prediction, the reference of the
``metric_tables`` filter walk."""

import numpy as np

from selfscore.losses import FilterSpec, apply_filter
from selfscore.scores import NbhdObs, NbhdPair, PairSums, ScoreResult, scored_weights


def record(p, y, r=None):
    w = scored_weights(p, y)
    if r is None:
        return PairSums(p.values, y.values, w)
    return NbhdPair(p.values, NbhdObs(y.values, r), w)


def score(kind, p, y, r=None) -> ScoreResult:
    return record(p, y, r).score(kind)


def target_score(kind, p, target) -> ScoreResult:
    """The pixelwise score of ``p`` against a prepared target's filtered
    field, over the pixels ``scored_weights`` gives ``p`` and the target's
    observation."""
    w = scored_weights(p, target.observed)
    return PairSums(p.values, target.filtered.values, w).score(kind)


def counts(p, y, r=None) -> tuple:
    """(a, b, c, d) pixelwise, or (a_obs, a_pred, b, c) at half-width r."""
    rec = record(p, y, r)
    return tuple(rec._sum(k) for k in "abcd") if r is None else rec.contingency()



def metric_value(spec, p, y) -> ScoreResult:
    """One config's evaluation metric, one field at a time: for a spectral
    config both fields are filtered (``apply_filter``), then clamped to
    [0, 1], and scored over the pixels ``scored_weights`` gives the pair."""
    if not spec.is_spectral:
        return score(spec.score, p, y, spec.half_width)
    fspec = FilterSpec(spec.filter_kind, band=spec.band)
    w = scored_weights(p, y)
    pv, yv = (np.clip(apply_filter(f, fspec).values, 0.0, 1.0) for f in (p, y))
    return PairSums(pv, yv, w).score(spec.score)
