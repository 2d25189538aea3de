"""Scores and contingency counts of one (prediction, observation) pair, read
from the records training and evaluation read: ``PairSums`` pixelwise,
``NbhdPair`` at neighbourhood half-width ``r``."""

from selfscore.scores import NbhdObs, NbhdPair, PairSums, ScoreResult, scored_weights


def record(p, y, r=None):
    w = scored_weights(p, y)
    if r is None:
        return PairSums(p.values, y.values, w)
    return NbhdPair(p.values, NbhdObs(y.values, r), w)


def score(kind, p, y, r=None) -> ScoreResult:
    return record(p, y, r).score(kind)


def counts(p, y, r=None) -> tuple:
    """(a, b, c, d) pixelwise, or (a_obs, a_pred, b, c) at half-width r."""
    rec = record(p, y, r)
    return tuple(rec._sum(k) for k in "abcd") if r is None else rec.contingency()
