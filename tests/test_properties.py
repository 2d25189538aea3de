"""Property tests over random fields and random eval masks.

Every draw leaves at least one pixel scored: score ranges hold for the
pixelwise and the neighbourhood forms, the attributes diagram counts the
pixels of ``scored_weights`` and nothing else, and rank columns sum to
M(M+1)/2 with ties allowed.  The filters keep their identities: the window
mean is its own adjoint, both band-passes are linear and the Haar
band-pass is idempotent.  The census keeps its symmetries: every score,
loss gradient, filter output and stage moves with fields that are
transposed (all 336 configs) or rotated by 180 degrees (neighbourhood and
Fourier), and gerrity equals peirce wherever neither falls back.  Every
config's gradient agrees with finite differences, pixel by pixel
(``grad_check``) and along a random direction.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selfscore.evaluation import attributes_diagram
from selfscore.grid import GridField
from selfscore.losses import (CENSUS_BANDS, SPECTRAL_METHODS, FilterSpec, LossSpec, apply_filter,
                              PreparedTarget, _excluded_pixels, enumerate_configs, filter_stages,
                              grad_check, loss_detail, loss_gradient, loss_value, metric_tables,
                              parse_spec_id, prepare_targets)
from selfscore.neighbourhood import mean_filter_array
from selfscore.ranking import MetricMatrix, rank_models
from selfscore.scores import XENT_EPS, scored_weights

from _records import score

UNIT = ("brier", "fss", "iou", "dice", "csi")


@st.composite
def scored_pairs(draw, shape=None):
    """A (prob, mask) pair on one grid, each with an optional eval mask, the
    two masks sharing at least one scored pixel."""
    if shape is None:
        shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    p = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    y = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0])))
    keep = draw(st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1)))
    masks = []
    for _ in range(2):
        m = draw(st.none() | hnp.arrays(np.bool_, shape))
        if m is not None:
            m[keep] = True
        masks.append(m)
    return GridField(p, 0.05, "prob", masks[0]), GridField(y, 0.05, "mask", masks[1])


@settings(max_examples=200, deadline=None)
@given(scored_pairs(), st.integers(0, 3))
def test_scores_stay_in_range(pair, half_width):
    p, y = pair
    for kind in UNIT:
        assert 0.0 <= score(kind, p, y).value <= 1.0, kind
        assert 0.0 <= score(kind, p, y, half_width).value <= 1.0, kind
    assert -1.0 <= score("peirce", p, y).value <= 1.0
    assert score("xent", p, y).value >= 0.0
    assert score("xent", p, y, half_width).value >= 0.0


@st.composite
def scored_steps(draw):
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    return draw(st.lists(scored_pairs(shape), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(scored_steps())
def test_attributes_diagram_counts_the_scored_pixels(steps):
    preds, obs = [p for p, _ in steps], [y for _, y in steps]
    attr = attributes_diagram(preds, obs)
    assert attr.n_scored == sum(int(scored_weights(p, y).sum()) for p, y in steps)
    assert int(attr.bin_counts.sum()) == attr.n_scored


SPECS = [parse_spec_id(s) for s in ("brier_nbhd_r0", "fss_nbhd_r1", "xent_F0-0.1",
                                     "csi_W0.2-0.4", "peirce_F0.1-inf")]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: hnp.arrays(
    np.float64, (m, len(SPECS)), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0]))))
def test_rank_columns_sum_to_m_m_plus_1_over_2(values):
    m = values.shape[0]
    ranks = rank_models(MetricMatrix([f"m{i}" for i in range(m)], SPECS, values))
    assert (ranks.sum(axis=0) == m * (m + 1) / 2).all()
    assert ranks.min() >= 1.0 and ranks.max() <= m


# ---------------------------------------------------------------------------
# Filter identities.

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 15), st.integers(0, 2 ** 32 - 1))
def test_mean_filter_is_its_own_adjoint(rows, cols, r, seed):
    """<M x, z> == <x, M z>: the zero-padded window mean with a fixed divisor
    is symmetric, which the neighbourhood fss gradient rests on."""
    x, z = np.random.default_rng(seed).standard_normal((2, rows, cols))
    lhs = float(np.sum(mean_filter_array(x, r) * z))
    rhs = float(np.sum(x * mean_filter_array(z, r)))
    assert abs(lhs - rhs) <= 1e-12 * float(np.abs(x).sum() * np.abs(z).max())


def real_field(values):
    return GridField(values, 0.05, "real")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPECTRAL_METHODS), st.sampled_from(CENSUS_BANDS),
       st.integers(2, 20), st.integers(2, 20), st.integers(0, 2 ** 32 - 1))
def test_band_passes_are_linear(method, band, rows, cols, seed):
    rng = np.random.default_rng(seed)
    x, z = rng.standard_normal((2, rows, cols))
    a, b = rng.uniform(-3.0, 3.0, 2)
    fspec = FilterSpec(method, band=band)
    mixed = apply_filter(real_field(a * x + b * z), fspec).values
    parts = (a * apply_filter(real_field(x), fspec).values
             + b * apply_filter(real_field(z), fspec).values)
    scale = abs(a) * np.abs(x).max() + abs(b) * np.abs(z).max()
    np.testing.assert_allclose(mixed, parts, rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CENSUS_BANDS), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
def test_haar_band_pass_is_idempotent(band, log_rows, log_cols, seed):
    """On a power-of-two grid, where nothing is padded and cropped away, the
    band-pass keeps a fixed set of orthonormal Haar coefficients."""
    x = np.random.default_rng(seed).standard_normal((2 ** log_rows, 2 ** log_cols))
    fspec = FilterSpec("W", band=band)
    once = apply_filter(real_field(x), fspec)
    twice = apply_filter(once, fspec).values
    np.testing.assert_allclose(twice, once.values, rtol=0.0, atol=1e-12 * np.abs(x).max())


# ---------------------------------------------------------------------------
# The census's symmetries.
#
# The grid spacing is the same along both axes, and the Fourier padding
# centres the field exactly (3n - n is even), so transposing both fields
# (every filter) or rotating them by 180 degrees (neighbourhood and Fourier)
# moves every filter output, target, score and loss gradient with them; only
# the order of float sums changes.  The Haar pad puts an odd remainder at the
# bottom and right, so its dyadic grid is anchored to one corner and a
# rotation moves it: W is left out there, by design.
#
# Each difference is measured in units of eps times a scale: max(1, |score|)
# for a score, 1 for a target (the observation is 0 or 1), max |output| for
# a filter output or stage, and max(max |gradient|, 1 / scored pixels) for a
# gradient (each of its terms is of order 1 / n, and their sum can cancel far
# below that).  A spectral cross entropy also scales by ``log_gain``: its log
# turns a rounding change d of a probability q near 0 into d / q.  A loss
# gradient is compared on its own target moved, since a target's rounding
# (eps of the observation, not of the target) reaches the gradient divided
# by the target's sum: through its own ``prepare_targets``, peirce_F0-0.2 on
# an 11 x 3 grid whose target sums to 0.011 moved 215 units, and the worst of
# 2,000 draws 713.  Bounds: C_SYMMETRY = 64 units, C_GRADIENT = 256.  The
# largest measured over 1,200 draws per symmetry (shapes 3-25, numpy 2.4.6):
# scores 2.8 (nbhd), 3.0 (F) and 9.0 (W) transposed, 3.1 and 3.4 rotated;
# targets 3.5; filter outputs 12.2 and stages 12.2 (W), 5.6 and 9.4 (F);
# gradients 41.0 (F), 14.0 (W), 10.8 (nbhd).  The re-anchor survey of larger
# shapes measured scores transposed to 2.2e-16 (1.0 unit, nbhd), 2.8e-16
# (1.3, F) and 2.2e-15 (10, W), and rotated to 4.4e-16 and 2.9e-16.

EPS = np.finfo(np.float64).eps
C_SYMMETRY = 64
C_GRADIENT = 256
ODD = (3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25)  # none a power of two
CENSUS = enumerate_configs()
SYMMETRIES = {"transposed": (np.transpose, ("nbhd", "F", "W")),
              "rotated": (lambda a: a[::-1, ::-1], ("nbhd", "F"))}


@st.composite
def census_pairs(draw):
    """A prob prediction and a mask observation on an odd, non-square grid,
    with eval masks (sharing the centre pixel) or none."""
    rows, cols = draw(st.lists(st.sampled_from(ODD), min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masks = [None, None]
    if draw(st.booleans()):
        masks = [rng.uniform(size=(rows, cols)) < 0.8 for _ in range(2)]
        for m in masks:
            m[rows // 2, cols // 2] = True
    y = (rng.uniform(size=(rows, cols)) < rng.uniform(0.1, 0.6)).astype(float)
    return (GridField(rng.uniform(size=(rows, cols)), 0.05, "prob", masks[0]),
            GridField(y, 0.05, "mask", masks[1]))


def moved(field, op):
    return GridField(op(field.values), field.spacing_deg, field.kind,
                     None if field.eval_mask is None else op(field.eval_mask))


def log_gain(q):
    """1 / the least distance of the probabilities ``q`` from 0 or 1, floored
    at XENT_EPS, where cross entropy clips them."""
    return 1.0 / max(float(np.minimum(q, 1.0 - q).min()), XENT_EPS)


def census_units(p, y, op, methods) -> dict[str, float]:
    """The largest difference, in units (see above), per family of what
    ``op`` should commute with, over every config of ``methods``: the
    evaluation metrics; the training targets; and the loss gradients, each
    against its own target moved, so that they differ in the order of
    their sums alone."""
    units = {}

    def note(key, diff, scale):
        units[key] = max(units.get(key, 0.0), diff / (EPS * scale))

    specs = [s for s in CENSUS if s.filter_kind in methods]
    w = scored_weights(p, y)
    before = metric_tables(specs, [p], y)[0]
    after = metric_tables(specs, [moved(p, op)], moved(y, op))[0]
    targets, moved_targets = prepare_targets(specs, y), prepare_targets(specs, moved(y, op))
    for spec in specs:
        value = before[spec.spec_id].value
        gain = 1.0
        if spec.score == "xent" and spec.is_spectral:
            filtered = apply_filter(p, FilterSpec(spec.filter_kind, band=spec.band)).values
            gain = log_gain(np.clip(filtered, 0.0, 1.0)[w])
        note(f"score {spec.filter_kind}", abs(after[spec.spec_id].value - value),
             gain * max(1.0, abs(value)))
        target = targets[spec.filter_id]
        note(f"target {spec.filter_kind}", np.abs(
            moved_targets[spec.filter_id].filtered.values - op(target.filtered.values)).max(), 1.0)
        target_moved = PreparedTarget(spec, moved(y, op), moved(target.filtered, op),
                                      target.clamp_max_abs)
        grad = op(loss_gradient(spec, p, target))
        moved_grad = loss_gradient(spec, moved(p, op), target_moved)
        scale = max(np.abs(grad).max(), np.abs(moved_grad).max(), 1.0 / w.sum())
        note(f"gradient {spec.filter_kind}", np.abs(moved_grad - grad).max(), scale)
    return units


def filter_units(field, op, methods, band) -> dict[str, float]:
    """The largest difference, in units, of ``apply_filter`` outputs and
    ``filter_stages`` stages: the four neighbourhood filters at r = 2, and
    ``band`` under each spectral method of ``methods``.  A rotation takes a
    spectrum's magnitude at frequency k to -k, not to the rotated index."""
    units = {}
    fspecs = [FilterSpec(kind, half_width=r) for kind in ("nbhd_max", "nbhd_mean") for r in (1, 3)]
    fspecs += [FilterSpec(m, band=band) for m in methods if m in SPECTRAL_METHODS]
    for fspec in fspecs:
        out = apply_filter(field, fspec).values
        diff = np.abs(apply_filter(moved(field, op), fspec).values - op(out)).max()
        units[fspec.filter_id] = diff / (EPS * max(np.abs(out).max(), 1e-300))
        moved_stages = filter_stages(moved(field, op), fspec)
        for name, stage in filter_stages(field, fspec).items():
            if op is not np.transpose and name in ("gain", "spectrum_mag", "filtered_mag"):
                want = np.roll(stage[::-1, ::-1], 1, axis=(0, 1))
            else:
                want = op(stage)
            diff = np.abs(moved_stages[name] - want).max()
            units[f"{fspec.filter_id} {name}"] = diff / (EPS * max(np.abs(stage).max(), 1e-300))
    return units


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@settings(max_examples=10, deadline=None)
@given(pair=census_pairs())
def test_census_scores_and_gradients_move_with_the_fields(symmetry, pair):
    units = census_units(*pair, *SYMMETRIES[symmetry])
    assert all(u <= (C_GRADIENT if key.startswith("gradient") else C_SYMMETRY)
               for key, u in units.items()), units


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@settings(max_examples=20, deadline=None)
@given(pair=census_pairs(), band=st.sampled_from(CENSUS_BANDS))
def test_filter_outputs_and_stages_move_with_the_field(symmetry, pair, band):
    op, methods = SYMMETRIES[symmetry]
    for field in pair:
        units = filter_units(field, op, methods, band)
        assert max(units.values()) <= C_SYMMETRY, units


# Gerrity and Peirce are one score wherever neither falls back.  Bound:
# C_TWIN = 16 eps, of max(max |gradient|, 1 / scored pixels) for a gradient.
# The largest measured over 1,200 draws: 0.94 eps in metric value, 1.0 in
# loss and 3.6 in gradient; the re-anchor survey of 2,000 random 2 x 2
# tables measured 2.5e-16 (1.1 eps) in value and 2.2e-16 in gradient.
C_TWIN = 16


def twin_units(p, y) -> dict[str, float]:
    """The largest gerrity-peirce difference, in eps (of the gradient scale
    for gradients), of the evaluation metric and of the training loss and
    its gradient, over the spectral configs where neither falls back."""
    twins = [(s, LossSpec("peirce", s.filter_kind, band=s.band))
             for s in CENSUS if s.score == "gerrity"]
    specs = [s for twin in twins for s in twin]
    table = metric_tables(specs, [p], y)[0]
    targets = prepare_targets(specs, y)
    n = scored_weights(p, y).sum()
    units = {"value": 0.0, "loss": 0.0, "gradient": 0.0}
    for twin in twins:
        metric = [table[s.spec_id] for s in twin]
        if not (metric[0].fallbacks or metric[1].fallbacks):
            units["value"] = max(units["value"], abs(metric[0].value - metric[1].value) / EPS)
        loss = [loss_detail(s, p, targets[s.filter_id]) for s in twin]
        if not (loss[0].fallbacks or loss[1].fallbacks):
            units["loss"] = max(units["loss"], abs(loss[0].value - loss[1].value) / EPS)
            grads = [loss_gradient(s, p, targets[s.filter_id]) for s in twin]
            scale = max(np.abs(grads[0]).max(), np.abs(grads[1]).max(), 1.0 / n)
            units["gradient"] = max(units["gradient"],
                                    np.abs(grads[0] - grads[1]).max() / (EPS * scale))
    return units


@settings(max_examples=20, deadline=None)
@given(census_pairs())
def test_gerrity_equals_peirce_where_neither_falls_back(pair):
    units = twin_units(*pair)
    assert max(units.values()) <= C_TWIN, units


# Gradients against finite differences, for all 336 configs.  Sweeps of
# such draws found no wrong gradient: 8,064 ``grad_check`` runs (24 draws),
# then 230 draws of the first property and 3,600 of the second.  The
# all-zero observation reaches gerrity's zero-event-ratio gradient in every
# spectral config.  A draw costs 0.1-1.7 s under ``grad_check``.

MASK_CLASSES = {"random": 0.5, "empty": 0.0, "full": 1.0, "sparse": 0.05}
FD_STEP = 1e-5


@st.composite
def gradient_pairs(draw):
    """A prediction in [0.02, 0.98] and a mask observation on an odd,
    non-square grid (sides 3-13): random, empty, full or about 5 % events,
    with an eval mask (keeping the centre pixel) or none."""
    rows, cols = draw(st.lists(st.sampled_from(ODD[:6]), min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rate = MASK_CLASSES[draw(st.sampled_from(sorted(MASK_CLASSES)))]
    mask = None
    if draw(st.booleans()):
        mask = rng.uniform(size=(rows, cols)) < 0.8
        mask[rows // 2, cols // 2] = True
    y = (rng.uniform(size=(rows, cols)) < rate).astype(float)
    return (GridField(rng.uniform(0.02, 0.98, size=(rows, cols)), 0.05, "prob"),
            GridField(y, 0.05, "mask", mask))


ZERO_EVENTS = (GridField(np.linspace(0.02, 0.98, 35).reshape(5, 7), 0.05, "prob"),
               GridField(np.zeros((5, 7)), 0.05, "mask"))


@settings(max_examples=4, deadline=None)
@given(gradient_pairs())
@example(ZERO_EVENTS)
def test_every_gradient_passes_grad_check(pair):
    p, y = pair
    targets = prepare_targets(CENSUS, y)
    failed = {s.spec_id: report for s in CENSUS
              if not (report := grad_check(s, p, targets[s.filter_id])).passed()}
    assert failed == {}


@settings(max_examples=15, deadline=None)
@given(gradient_pairs(), st.integers(0, 2 ** 32 - 1))
@example(ZERO_EVENTS, 0)
def test_every_gradient_matches_a_directional_difference(pair, seed):
    """<gradient, d> against a central difference of the loss along a random
    ``d``, zeroed on the pixels that a move of up to ``FD_STEP * max|d|``
    could carry across a non-smooth point.  The difference is extrapolated
    from steps h and h/2, (4 D(h/2) - D(h)) / 3, whose truncation error is
    O(h^4).  D(h) alone is off by O(h^2) of the terms of <gradient, d>, which
    can cancel: on xent_F0-0.8 over a full 11x5 mask, <gradient, d> was
    -5.5e-4 against sum |gradient * d| = 2.9, and D(1e-5) was off by 3.8e-5
    of it."""
    p, y = pair
    d = np.random.default_rng(seed).standard_normal(p.shape)
    w = scored_weights(p, y)
    targets = prepare_targets(CENSUS, y)
    failed = {}
    for spec in CENSUS:
        t = targets[spec.filter_id]
        near = _excluded_pixels(spec, t.record(p.values, w), FD_STEP * np.abs(d).max())
        dk = np.where(near, 0.0, d)

        def central(h):
            up, down = (loss_value(spec, p.with_values(p.values + s * dk), t) for s in (h, -h))
            return (up - down) / (2.0 * h)
        fd = (4.0 * central(FD_STEP / 2) - central(FD_STEP)) / 3.0
        an = float(np.sum(loss_gradient(spec, p, t) * dk))
        # Rounding in the loss values, 3x that of one central difference at FD_STEP.
        noise = 3 * 64.0 * EPS * max(1.0, abs(loss_value(spec, p, t))) / FD_STEP
        if abs(fd - an) > max(1e-5 * max(abs(fd), abs(an)), noise):
            failed[spec.spec_id] = (fd, an)
    assert failed == {}
