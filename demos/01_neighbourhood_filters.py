"""Neighbourhood filters: dilating and smoothing a binary event field.

A (2r+1) x (2r+1) max filter turns a field of events into "an event occurred
within r pixels"; the matching mean filter turns it into an event fraction.
Both are the building blocks of the neighbourhood scores, and both widen a
forecast's margin for spatial error as r grows.
"""

import numpy as np

from selfscore.grid import GridField
from selfscore.losses import FilterSpec, apply_filter
from selfscore.scores import NbhdObs, NbhdPair, scored_weights
from selfscore.synthetic import SynthSpec, synth_mask

spec = SynthSpec(rows=48, cols=48, spacing_deg=0.02, n_cells=5, seed=3)
y = synth_mask(spec)
print(f"synthetic mask: {y.rows}x{y.cols}, "
      f"event fraction {y.values.mean():.3f}")

print("\nhalf-width   max-filter fraction   mean-filter max")
for r in (0, 1, 2, 4, 8):
    dilated = apply_filter(y, FilterSpec("nbhd_max", half_width=r))
    smoothed = apply_filter(y, FilterSpec("nbhd_mean", half_width=r))
    print(f"{r:>10d}   {dilated.values.mean():>19.3f}   "
          f"{smoothed.values.max():>15.3f}")

# The probabilistic contingency table splits each forecast pixel between
# hit/false-alarm (weight p) and miss/correct-null (weight 1-p).
rng = np.random.default_rng(7)
p = GridField(np.clip(apply_filter(y, FilterSpec("nbhd_mean", half_width=2)).values
                      + rng.normal(0, 0.05, y.shape), 0, 1),
              y.spacing_deg, "prob")
pv, yv = p.values, y.values
a = np.sum(pv * yv)
b = np.sum(pv * (1.0 - yv))
c = np.sum((1.0 - pv) * yv)
d = np.sum((1.0 - pv) * (1.0 - yv))
print(f"\npixelwise table:      a={a:8.2f}  b={b:8.2f}  c={c:8.2f}  d={d:8.2f}")

# The neighbourhood table forgives small displacements: the observation pass
# credits the best probability within r of each event, the prediction pass
# bills probability placed far from any event.
for r in (1, 4):
    pair = NbhdPair(pv, NbhdObs(yv, r), scored_weights(p, y))
    a_obs, a_pred, b, c = pair.contingency()
    print(f"neighbourhood (r={r}): a_obs={a_obs:6.2f}  "
          f"a_pred={a_pred:8.2f}  b={b:8.2f}  c={c:6.2f}")
