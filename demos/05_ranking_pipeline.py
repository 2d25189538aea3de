"""Model ranking across the full metric census.

Three forecast systems of visibly different quality are scored on every one
of the 336 metric configurations, ranked per configuration, and summarised
per filter — the per-filter winner table shows whether a model's advantage
survives changes of scale and method.
"""

import numpy as np

from selfscore.grid import GridField
from selfscore.losses import enumerate_configs, metric_table
from selfscore.ranking import (MetricMatrix, best_per_filter,
                               filter_mean_ranks, rank_models)
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob

configs = enumerate_configs()
models = {
    "sharp": dict(blur_r=0, offset_px=(0, 0), noise_sd=0.05),
    "blurry": dict(blur_r=2, offset_px=(0, 0), noise_sd=0.05),
    "displaced": dict(blur_r=1, offset_px=(3, 2), noise_sd=0.05),
}

# Average each metric over a few independent scenes.
values = np.zeros((len(models), len(configs)))
for step in range(4):
    y = synth_mask(SynthSpec(rows=48, cols=48, spacing_deg=0.02,
                             n_cells=5, seed=100 + step))
    for row, kwargs in enumerate(models.values()):
        p = synth_prob(y, seed=step, **kwargs)
        table = metric_table(configs, p, y)
        values[row] += [table[c.spec_id].value for c in configs]
values /= 4

matrix = MetricMatrix(list(models), configs, values)
ranks = rank_models(matrix)
print("model      mean rank over all 336 configs")
for name, mean in zip(matrix.models, ranks.mean(axis=1)):
    print(f"{name:<10} {mean:.2f}")

fids, means = filter_mean_ranks(matrix, ranks)
print(f"\nper-filter winners ({len(fids)} filters):")
wins = {}
for w in best_per_filter(matrix, fids, means):
    wins.setdefault(w.model, []).append(w.filter_id)
for name, fs in sorted(wins.items()):
    shown = ", ".join(fs[:4]) + (" ..." if len(fs) > 4 else "")
    print(f"  {name:<10} {len(fs):>3d} filters  ({shown})")
print("\nblurring or displacing a forecast costs most at the small scales;"
      "\nwide neighbourhoods and long-wavelength bands forgive it.")
