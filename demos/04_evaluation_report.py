"""Evaluation diagnostics: attributes diagram, performance diagram, report.

A calibrated probabilistic forecast should hug the attributes-diagram
diagonal (REL near 0), beat climatology (BSS > 0), and trace a performance
curve whose area (AUPD) reflects its sharpness.  The report writer emits the
whole diagnosis as JSON + CSV.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from selfscore.evaluation import (attributes_diagram, consistency_bars,
                                  emit_report, performance_diagram)
from selfscore.grid import GridField

rng = np.random.default_rng(4)
truth = rng.uniform(size=(400, 400))
p = GridField(truth, 0.02, "prob")
y = GridField((rng.uniform(size=truth.shape) < truth).astype(float),
              0.02, "mask")

attr = attributes_diagram(p, y)
lo, hi = consistency_bars(attr, n_boot=200, seed=0)
print(f"calibrated forecast over {attr.n_scored} pixels:")
print(f"  REL={attr.rel:.2e}  BSS={attr.bss:.4f}  "
      f"BS={attr.bs:.4f}  base rate={attr.base_rate:.3f}")
print("  bin  mean fcst  event freq  95% consistency")
for k in (2, 9, 16):
    print(f"  {k:>3d}  {attr.bin_mean_forecast[k]:>9.3f}  "
          f"{attr.bin_event_freq[k]:>10.3f}  "
          f"[{lo[k]:.3f}, {hi[k]:.3f}]")

perf = performance_diagram(p, y)
k = np.argmin(np.abs(perf.thresholds - 0.5))
print(f"\nperformance at threshold {perf.thresholds[k]:.2f}: "
      f"POD={perf.pod[k]:.3f} SR={perf.sr[k]:.3f} "
      f"CSI={perf.csi[k]:.3f} bias={perf.bias[k]:.3f}")
print(f"AUPD={perf.aupd:.4f} over {perf.thresholds.size} thresholds")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "report"
    emit_report(attr, perf, out)
    summary = json.loads((out / "report.json").read_text())["summary"]
    print(f"\nwrote {out}/report.json + .csv; summary keys: "
          f"{', '.join(sorted(summary))}")
