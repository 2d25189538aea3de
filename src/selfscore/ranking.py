"""Orientation-aware ranking of models across the loss-config census.

Given a matrix of metric values (models x configs), each config column is
ranked independently with rank 1 = best: ascending for error-type scores
(Brier, cross entropy) and descending for skill-type scores.  Ties receive
the average of the ranks they span, so every column's ranks sum to
M(M+1)/2 for M models regardless of ties.

Columns sharing a filter (same neighbourhood half-width, or same spectral
band and method) are then averaged into a per-filter mean rank, and
``best_per_filter`` reports the winning model under each distinct filter,
breaking exact ties by lexicographically smallest model name.  Non-finite
metric values are refused outright rather than silently ranked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec
from .scores import ORIENTATION


@dataclass(frozen=True)
class MetricMatrix:
    """Metric values for a set of models evaluated under a set of configs."""

    models: tuple[str, ...]
    specs: tuple[LossSpec, ...]
    values: np.ndarray  # (n_models, n_specs)

    def __post_init__(self):
        models = tuple(self.models)
        specs = tuple(self.specs)
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.shape != (len(models), len(specs)):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"{len(models)} models x {len(specs)} configs")
        if len(set(models)) != len(models):
            raise ValueError("duplicate model names")
        if len({s.spec_id for s in specs}) != len(specs):
            raise ValueError("duplicate config ids")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(
                f"non-finite metric value for model {models[bad[0]]!r} under "
                f"{specs[bad[1]].spec_id!r}; refusing to rank")
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "values", values)

    @property
    def n_models(self) -> int:
        return len(self.models)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ascending ranks of a 1-D array, ties given the mean of the
    positions they span (``scipy.stats.rankdata``'s default method)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_group = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(new_group)         # first position of each tie group
    ends = np.append(starts[1:], values.size)  # one past its last position
    ranks = np.empty(values.size)
    ranks[order] = (0.5 * (starts + ends + 1))[np.cumsum(new_group) - 1]
    return ranks


def rank_models(matrix: MetricMatrix) -> np.ndarray:
    """Per-config ranks (1 = best), ties averaged.

    Error-type scores rank ascending (smaller metric is better); skill-type
    scores rank descending.  Every column sums to M(M+1)/2.
    """
    ranks = np.empty_like(matrix.values)
    for j, spec in enumerate(matrix.specs):
        col = matrix.values[:, j]
        key = col if ORIENTATION[spec.score] < 0 else -col
        ranks[:, j] = _average_ranks(key)
    return ranks


def filter_mean_ranks(matrix: MetricMatrix,
                      ranks: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The matrix's distinct filter ids, sorted, and the mean rank per
    (model, filter) of ``rank_models`` ranks, over the filter's configs."""
    fids = tuple(sorted({s.filter_id for s in matrix.specs}))
    means = np.empty((matrix.n_models, len(fids)))
    for k, fid in enumerate(fids):
        cols = [j for j, s in enumerate(matrix.specs) if s.filter_id == fid]
        means[:, k] = ranks[:, cols].mean(axis=1)
    return fids, means


@dataclass(frozen=True)
class FilterWinner:
    """Best-ranked model under one filter."""

    filter_id: str
    model: str
    mean_rank: float


def best_per_filter(matrix: MetricMatrix, fids: tuple[str, ...],
                    means: np.ndarray) -> list[FilterWinner]:
    """Winning model for each filter (lowest mean rank), from the ``fids``
    and ``means`` of one ``filter_mean_ranks`` call.

    Mean ranks are exact multiples of 1/(2 * configs-per-filter) scaled
    sums of halves, so exact float ties are meaningful; they are broken by
    lexicographically smallest model name.
    """
    winners = []
    for k, fid in enumerate(fids):
        best = means[:, k].min()
        tied = [matrix.models[i] for i in range(matrix.n_models) if means[i, k] == best]
        winners.append(FilterWinner(fid, min(tied), float(best)))
    return winners
