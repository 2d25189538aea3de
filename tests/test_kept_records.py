"""A prepared target keeps the record of the last prediction scored against it.

``loss_value``, ``loss_detail`` and ``loss_gradient`` read every score of a
filter, and its gradient, from one record per (prediction, target), kept on
the target in a ``WeakKeyDictionary`` keyed by the ``GridField`` object,
which holds at most one entry; the reference builds its records through
``PreparedTarget.record``.  These tests pin that the kept record gives,
bit for bit, what a fresh record per call gives (the reference below), for
all 336 configs and in every order of calls: the census order, gradients
before values, predictions alternating, and a copy of a field, which is a
new object and so gets a new record.  Threads sharing one target, or two,
must get the serial results and leave one record on each.  The target holds the field
weakly, so the record goes with it, and a field copies its arrays, so no
array the caller keeps can leave a kept record stale.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from selfscore.grid import GridField
from selfscore.losses import (enumerate_configs, loss_detail, loss_gradient, loss_value,
                              prepare_targets)
from selfscore.scores import ORIENTATION, scored_weights
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob

SPACING = 0.05
SHAPE = (20, 22)
CONFIGS = enumerate_configs()


def field_cases():
    """(observation, prediction, second prediction) by case name: plain,
    eval-masked, quantised, and all-zero and all-one predictions."""
    y = synth_mask(SynthSpec(*SHAPE, SPACING, n_cells=3, seed=21))
    p = synth_prob(y, blur_r=1, offset_px=(1, -1), noise_sd=0.05, seed=22)
    q = synth_prob(y, blur_r=2, offset_px=(-2, 1), noise_sd=0.05, seed=23)
    keep = np.random.default_rng(24).uniform(size=SHAPE) < 0.8
    quantised = lambda f: f.with_values(np.round(f.values * 4) / 4)  # noqa: E731
    return {
        "plain": (y, p, q),
        "masked": (y, GridField(p.values, SPACING, "prob", keep),
                   GridField(q.values, SPACING, "prob", keep)),
        "quantised": (y, quantised(p), quantised(q)),
        "zeros": (y, p.with_values(np.zeros(SHAPE)), q),
        "ones": (y, p.with_values(np.ones(SHAPE)), q),
    }


CASES = field_cases()


def fresh(spec, p, target):
    """(loss, fallbacks, gradient bytes) from a new record per call."""
    w = scored_weights(p, target.observed)
    result = target.record(p.values, w).score(spec.score)
    d_score = target.record(p.values, w).gradient(spec.score)
    if ORIENTATION[spec.score] < 0:
        return result.value, result.fallbacks, d_score.tobytes()
    return 1.0 - result.value, result.fallbacks, (-d_score).tobytes()


class Reference:
    """``fresh`` per (spec, field), computed once."""

    def __init__(self, targets):
        self.targets, self.seen = targets, {}

    def __call__(self, spec, p):
        key = (spec.spec_id, id(p))
        if key not in self.seen:
            # Holding p keeps its id from being reused by another field.
            self.seen[key] = (fresh(spec, p, self.targets[spec.filter_id]), p)
        return self.seen[key][0]


def kept(spec, p, targets, gradient_first=False):
    """(loss, fallbacks, gradient bytes) through the public calls."""
    target = targets[spec.filter_id]
    grad = loss_gradient(spec, p, target).tobytes() if gradient_first else None
    value = loss_value(spec, p, target)
    fallbacks = loss_detail(spec, p, target).fallbacks
    if grad is None:
        grad = loss_gradient(spec, p, target).tobytes()
    return value, fallbacks, grad


def check(spec, p, targets, reference, gradient_first=False):
    assert kept(spec, p, targets, gradient_first) == reference(spec, p), spec.spec_id


@pytest.mark.parametrize("case", sorted(CASES))
def test_kept_records_score_as_fresh_ones(case):
    y, p, q = CASES[case]
    # Each order of calls starts from targets that have kept nothing.
    targets = prepare_targets(CONFIGS, y)
    reference = Reference(prepare_targets(CONFIGS, y))
    for spec in CONFIGS:  # census order
        check(spec, p, targets, reference)

    targets = prepare_targets(CONFIGS, y)
    for spec in CONFIGS:
        check(spec, p, targets, reference, gradient_first=True)

    targets = prepare_targets(CONFIGS, y)
    for field in (p, q, p):  # p and q both alive: a target keeps the last one alone
        for spec in CONFIGS:
            check(spec, field, targets, reference)
            assert len(targets[spec.filter_id].records) == 1, spec.spec_id

    copy = p.with_values(p.values.copy())
    for spec in CONFIGS:
        target = targets[spec.filter_id]
        ((last, record),) = target.records.items()
        assert last is p or last is copy
        assert loss_value(spec, copy, target) == reference(spec, p)[0]
        ((kept_field, kept_record),) = target.records.items()
        assert kept_field is copy and (last is copy or kept_record is not record)
        assert loss_gradient(spec, copy, target).tobytes() == reference(spec, p)[2]
        assert loss_detail(spec, copy, target).fallbacks == reference(spec, p)[1]


@pytest.mark.parametrize("filter_ids", ["nbhd_r2", "F0.1-0.2", "W0.2-inf", "nbhd_r2+W0.2-inf"])
def test_threads_sharing_a_target_get_the_serial_results(filter_ids):
    """Threads scoring against one target, or each against two ("a+b"),
    each target holding its own lock."""
    y, p, q = CASES["plain"]
    specs = [s for s in CONFIGS if s.filter_id in filter_ids.split("+")]
    targets = prepare_targets(specs, y)
    want = {id(f): [fresh(s, f, targets[s.filter_id]) for s in specs] for f in (p, q)}
    mismatches, done = [], []

    def work(field):
        for _ in range(20):
            for spec, expected in zip(specs, want[id(field)]):
                if kept(spec, field, targets) != expected:
                    mismatches.append((spec.spec_id, id(field)))
        done.append(field)

    threads = [threading.Thread(target=work, args=(f,)) for f in (p, q, p, q)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == len(threads)
    assert mismatches == []
    for target in targets.values():
        assert len(target.records) == 1


def test_a_kept_record_goes_with_its_field():
    y, p, _ = CASES["plain"]
    targets = prepare_targets(CONFIGS, y)
    field = p.with_values(p.values.copy())
    for spec in CONFIGS:
        loss_gradient(spec, field, targets[spec.filter_id])
    assert all(len(t.records) == 1 for t in targets.values())
    del field
    gc.collect()
    assert all(len(t.records) == 0 for t in targets.values())
    for spec in CONFIGS[:12]:  # a target with no record scores as a fresh one
        assert kept(spec, p, targets) == fresh(spec, p, targets[spec.filter_id])


def test_an_array_the_caller_keeps_cannot_leave_a_record_stale():
    y, p, _ = CASES["plain"]
    spec = next(s for s in CONFIGS if s.spec_id == "brier_nbhd_r1")
    target = prepare_targets([spec], y)[spec.filter_id]
    values, mask = p.values.copy(), np.ones(SHAPE, dtype=bool)
    view, mask_view = values[:], mask[:]
    field = GridField(values, SPACING, "prob", mask)
    before = (loss_value(spec, field, target), loss_gradient(spec, field, target).tobytes())
    view[:] = 0.0
    mask_view[:] = False
    assert values.flags.writeable and mask.flags.writeable
    assert (field.values == p.values).all() and field.eval_mask.all()
    after = (loss_value(spec, field, target), loss_gradient(spec, field, target).tobytes())
    assert after == before == fresh(spec, field, target)[::2]
