"""The train-loop workload: library-level SELF training over the 336 configs.

Each round walks the same time steps.  For a step, ``prepare_target`` runs
once per distinct filter, then every epoch evaluates ``loss_value`` and
``loss_gradient`` for all 336 configs on the current prediction and moves
it by a projected gradient step on the Brier objective (the mean of the 40
Brier losses).  That objective is a convex quadratic with Hessian
(2/n) I, so a step of n/8 can only lower it.

Run as a script, this is the worker process of an untraced run:
``python3 perfbench/train.py --seed N --seconds S [--setup-only]``.  It
prints ``ready`` when its inputs exist, then (unless ``--setup-only``) one
JSON line with the timed figures and the check results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

ROWS = COLS = 128          # power of two: the 3x Fourier pad is 384 = 2^7 * 3
SPACING = 0.02
STEPS = 2                  # time steps per round
EPOCHS = 4                 # prediction updates per step
EVENT_FRACTION = (0.085, 0.095)
FD_STEP = 1e-6


def make_inputs(seed: int):
    """(observation mask, initial prediction) per step, deterministic in ``seed``.

    Masks are drawn until the event fraction lies in ``EVENT_FRACTION``, so
    the per-event gradient work is about the same for every seed.
    """
    from selfscore.grid import GridField
    from selfscore.synthetic import SynthSpec, synth_mask, synth_prob

    rng = np.random.default_rng([seed, 3])
    steps = []
    mask_seed = int(rng.integers(1, 2 ** 31))
    while len(steps) < STEPS:
        mask_seed += 1
        y = synth_mask(SynthSpec(ROWS, COLS, SPACING, n_cells=14, radius_range=(2.0, 6.0),
                                 elongation_range=(1.0, 3.0), seed=mask_seed))
        if not EVENT_FRACTION[0] <= y.values.mean() <= EVENT_FRACTION[1]:
            continue
        offset = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        raw = synth_prob(y, blur_r=2, offset_px=offset, noise_sd=0.05, seed=mask_seed + 1)
        # Keep the start strictly inside (0, 1): the steps below are convex
        # combinations with targets in [0, 1], so every field stays there.
        steps.append((y, GridField(0.02 + 0.96 * raw.values, SPACING, "prob")))
    return steps


def run_round(steps, specs):
    """One round; returns timed seconds, loss values [step, epoch, spec] and fields."""
    from selfscore.losses import loss_gradient, loss_value, prepare_target

    brier = [k for k, s in enumerate(specs) if s.score == "brier"]
    values = np.empty((len(steps), EPOCHS, len(specs)))
    fields = []
    timed = 0.0
    for i, (y, p) in enumerate(steps):
        t0 = time.perf_counter()
        targets = {}
        for s in specs:
            if s.filter_id not in targets:
                targets[s.filter_id] = prepare_target(s, y)
        step_fields = []
        for e in range(EPOCHS):
            step_fields.append(p)
            descent = np.zeros(p.shape)
            for k, s in enumerate(specs):
                values[i, e, k] = loss_value(s, p, targets[s.filter_id])
                g = loss_gradient(s, p, targets[s.filter_id])
                if s.score == "brier":
                    descent += g
            descent /= len(brier)
            # grad J = (2/n)(p - mean target); a step of n/8 moves p a quarter of the way.
            p = p.with_values(np.clip(p.values - (p.values.size / 8.0) * descent, 0.0, 1.0))
        timed += time.perf_counter() - t0
        fields.append(step_fields)
    return timed, values, fields


def digest(values: np.ndarray, fields) -> str:
    h = hashlib.sha256(values.tobytes())
    for step_fields in fields:
        for f in step_fields:
            h.update(f.values.tobytes())
    return h.hexdigest()


def check_round(steps, specs, values, fields, seed: int) -> list[tuple[int, str]]:
    """Failures as (failed evaluations, message) from the checks of one round."""
    import checks
    import reference as ref
    from selfscore.losses import loss_gradient, loss_value, prepare_target

    fails: list[tuple[int, str]] = []
    ids = [s.spec_id for s in specs]
    brier = [k for k, s in enumerate(specs) if s.score == "brier"]
    for i in range(len(steps)):
        objective = [float(np.mean(values[i, e, brier])) for e in range(EPOCHS)]
        fails += [(len(brier) * EPOCHS, m)
                  for m in checks.check_brier_descent(objective, f"train step {i}")]

    # Sampled loss values against the reference, on every scored field.
    rng = np.random.default_rng([seed, 4])
    sampled = checks.sample_census_specs(rng)
    fourier = ref.FourierRef(steps[0][0].shape, SPACING)
    for i, (y, _) in enumerate(steps):
        for e, p in enumerate(fields[i]):
            for sid in sampled:
                want = checks.reference_loss(sid, p.values, y.values, SPACING, fourier)
                got = float(values[i, e, ids.index(sid)])
                if not checks.close(got, want):
                    fails.append((1, f"train: {sid} step {i} epoch {e} = {got!r}, "
                                     f"reference {want!r}"))

    # Directional derivative of every config at the last field of step 0.
    y, p = steps[0][0], fields[0][-1]
    direction = rng.standard_normal(p.shape)
    margin = 2.0 * FD_STEP * float(np.abs(direction).max())
    targets = {}
    for s in specs:
        if s.filter_id not in targets:
            targets[s.filter_id] = prepare_target(s, y)
        t = targets[s.filter_id]
        d = np.where(checks.nonsmooth_pixels(s.spec_id, p.values, t.filtered.values, margin),
                     0.0, direction)
        grad = loss_gradient(s, p, t)
        loss_at = lambda h, s=s, t=t, d=d: loss_value(s, p.with_values(p.values + h * d), t)  # noqa: E731
        fails += [(1, m) for m in checks.check_directional(s.spec_id, grad, d, loss_at, FD_STEP)]
    return fails


def train_workload(seed: int, seconds: float, steps):
    """Rounds for up to ``seconds`` of timed work.  The checks run on the first
    round; a later round must reproduce it bit for bit, so it fails the
    same evaluations."""
    from selfscore.losses import enumerate_configs

    specs = enumerate_configs()
    per_round = len(steps) * EPOCHS * len(specs)
    round_s, failed, first, messages = [], 0, None, []
    # Whole rounds, and no round that would end past ``seconds``.
    while not round_s or sum(round_s) + round_s[-1] <= seconds:
        t, values, fields = run_round(steps, specs)
        round_s.append(t)
        rounds = len(round_s)
        d = digest(values, fields)
        if first is None:
            first = d
            fails = check_round(steps, specs, values, fields, seed)
            first_failed = min(per_round, sum(n for n, _ in fails))
            messages += [m for _, m in fails]
        if d == first:
            failed += first_failed
        else:
            failed += per_round
            messages.append(f"train: round {rounds} differs from round 1")
    return {"round_s": round_s, "rounds": rounds, "evals": rounds * per_round,
            "failed": failed, "messages": messages, "artefacts": first}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    steps = make_inputs(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(train_workload(args.seed, args.seconds, steps)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
