"""Tests for orientation-aware model ranking across loss configurations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from selfscore.losses import enumerate_configs, parse_spec_id
from selfscore.ranking import (
    MetricMatrix,
    _average_ranks,
    best_per_filter,
    filter_mean_ranks,
    rank_models,
)
from selfscore.scores import ORIENTATION


def small_matrix(values, spec_ids=("brier_nbhd_r2", "fss_nbhd_r2", "iou_F0.1-inf"),
                 models=("a", "b", "c")):
    specs = tuple(parse_spec_id(s) for s in spec_ids)
    return MetricMatrix(tuple(models)[: len(values)], specs, np.asarray(values))


def test_rank_orientation():
    # Brier: smaller is better; FSS and IOU: larger is better.
    m = small_matrix([[0.1, 0.9, 0.5],
                      [0.2, 0.8, 0.7],
                      [0.3, 0.7, 0.6]])
    ranks = rank_models(m)
    np.testing.assert_array_equal(ranks[:, 0], [1, 2, 3])  # ascending
    np.testing.assert_array_equal(ranks[:, 1], [1, 2, 3])  # descending metric
    np.testing.assert_array_equal(ranks[:, 2], [3, 1, 2])


def test_rank_ties_averaged_and_column_sums():
    m = small_matrix([[0.1, 0.5, 0.5],
                      [0.1, 0.5, 0.7],
                      [0.3, 0.5, 0.6]])
    ranks = rank_models(m)
    np.testing.assert_array_equal(ranks[:, 0], [1.5, 1.5, 3.0])
    np.testing.assert_array_equal(ranks[:, 1], [2.0, 2.0, 2.0])
    M = m.n_models
    np.testing.assert_allclose(ranks.sum(axis=0), M * (M + 1) / 2)


def test_rank_sum_identity_random_with_ties():
    rng = np.random.default_rng(31)
    specs = tuple(enumerate_configs()[:25])
    for _ in range(10):
        vals = rng.random((7, 25))
        vals[vals < 0.3] = 0.25  # force plenty of exact ties
        m = MetricMatrix(tuple(f"m{i}" for i in range(7)), specs, vals)
        ranks = rank_models(m)
        np.testing.assert_allclose(ranks.sum(axis=0), 7 * 8 / 2)
        assert ranks.min() >= 1.0 and ranks.max() <= 7.0


def test_monotone_transform_invariance():
    # Ranks depend only on the ordering of the metric values, so any strictly
    # increasing transform leaves them unchanged.
    rng = np.random.default_rng(32)
    specs = tuple(enumerate_configs()[:12])
    vals = rng.random((5, 12))
    models = tuple(f"m{i}" for i in range(5))
    base = rank_models(MetricMatrix(models, specs, vals))
    warped = rank_models(MetricMatrix(models, specs, np.exp(3.0 * vals) - 0.5))
    np.testing.assert_array_equal(base, warped)


def test_filter_mean_ranks_and_winner():
    spec_ids = ("brier_nbhd_r2", "xent_nbhd_r2", "fss_F0.1-inf")
    # Model b is best on both nbhd_r2 configs; model a wins the F filter.
    m = small_matrix([[0.3, 0.9, 0.9],
                      [0.1, 0.2, 0.5],
                      [0.2, 0.5, 0.7]], spec_ids=spec_ids)
    fids, means = filter_mean_ranks(m, rank_models(m))
    assert fids == ("F0.1-inf", "nbhd_r2")
    np.testing.assert_allclose(means[:, 1], [3.0, 1.0, 2.0])  # nbhd_r2 mean
    winners = {w.filter_id: w for w in best_per_filter(m, fids, means)}
    assert winners["nbhd_r2"].model == "b"
    assert winners["nbhd_r2"].mean_rank == 1.0
    assert winners["F0.1-inf"].model == "a"


def test_winner_tie_breaks_lexicographically():
    # Two models with identical values tie everywhere; the lexicographically
    # smaller name must win.
    m = small_matrix([[0.5, 0.5, 0.5],
                      [0.5, 0.5, 0.5]], models=("zeta", "alpha"))
    for w in best_per_filter(m, *filter_mean_ranks(m, rank_models(m))):
        assert w.model == "alpha"
        assert w.mean_rank == 1.5


def test_full_census_winner_shape():
    rng = np.random.default_rng(33)
    specs = tuple(enumerate_configs())
    models = tuple(f"model_{i:02d}" for i in range(6))
    m = MetricMatrix(models, specs, rng.random((6, 336)))
    ranks = rank_models(m)
    fids, means = filter_mean_ranks(m, ranks)
    assert len(fids) == 40
    winners = best_per_filter(m, fids, means)
    assert len(winners) == 40
    assert [w.filter_id for w in winners] == sorted(w.filter_id for w in winners)
    overall = ranks.mean(axis=1)
    assert overall.shape == (6,)
    np.testing.assert_allclose(overall.sum(), 6 * 7 / 2)


def test_perfect_model_wins_everywhere():
    # One model dominates every config: rank 1 across the board.
    rng = np.random.default_rng(34)
    specs = tuple(enumerate_configs())
    worse = rng.uniform(0.3, 0.7, (2, 336))
    best = np.empty((1, 336))
    for j, spec in enumerate(specs):
        best[0, j] = 0.0 if ORIENTATION[spec.score] < 0 else 1.0
    m = MetricMatrix(("bad_a", "bad_b", "winner"), specs,
                     np.vstack([worse, best]))
    ranks = rank_models(m)
    np.testing.assert_array_equal(ranks[2], np.ones(336))
    assert all(w.model == "winner" and w.mean_rank == 1.0
               for w in best_per_filter(m, *filter_mean_ranks(m, ranks)))


def test_single_model_all_ranks_one():
    m = small_matrix([[0.4, 0.6, 0.1]], models=("only",))
    ranks = rank_models(m)
    np.testing.assert_array_equal(ranks, np.ones((1, 3)))
    assert all(w.model == "only" and w.mean_rank == 1.0
               for w in best_per_filter(m, *filter_mean_ranks(m, ranks)))


def test_matrix_validation():
    specs = tuple(parse_spec_id(s) for s in ("brier_nbhd_r2", "fss_nbhd_r2"))
    with pytest.raises(ValueError, match="does not match"):
        MetricMatrix(("a",), specs, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="duplicate model"):
        MetricMatrix(("a", "a"), specs, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="duplicate config"):
        MetricMatrix(("a", "b"), (specs[0], specs[0]), np.zeros((2, 2)))


def test_non_finite_values_refused_naming_offender():
    specs = tuple(parse_spec_id(s) for s in ("brier_nbhd_r2", "fss_nbhd_r2"))
    vals = np.array([[0.1, 0.2], [0.3, np.nan]])
    with pytest.raises(ValueError, match=r"'worse'.*'fss_nbhd_r2'.*refusing to rank"):
        MetricMatrix(("better", "worse"), specs, vals)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.5)), min_size=1,
                max_size=12))
def test_average_ranks_match_scipy_rankdata(column):
    # Few distinct values, so most columns hold ties (and -0.0 ties 0.0).
    values = np.array(column)
    ranks = _average_ranks(values)
    assert np.array_equal(ranks, rankdata(values))
    assert ranks.sum() == len(column) * (len(column) + 1) / 2
