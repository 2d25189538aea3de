"""Fast tests of the benchmark's own checks at tiny grid sizes.

Each test feeds a check the program's real output, which must pass, and
then a perturbed copy, which the check must reject.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

import checks
import reference as ref
import train
from selfscore.cli import main as cli_main
from selfscore.fourier import fourier_band_pass
from selfscore.grid import GridField, WavelengthBand, write_grid
from selfscore.losses import (enumerate_configs, loss_gradient, loss_value, metric_table,
                              parse_spec_id, prepare_target)
from selfscore.ranking import MetricMatrix, rank_models
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob
from selfscore.wavelet import wavelet_band_pass

SPACING = 0.02


def _scene(n=24, seed=1):
    y = synth_mask(SynthSpec(n, n, SPACING, n_cells=4, radius_range=(1.5, 3.0), seed=seed))
    p = synth_prob(y, blur_r=1, offset_px=(1, 0), noise_sd=0.05, seed=seed + 1)
    return y, p


@pytest.fixture(scope="module")
def census():
    y, p = _scene()
    truth = GridField(y.values, SPACING, "prob")
    specs = enumerate_configs()
    values = {}
    for name, pred in (("blur", p), ("truth", truth)):
        for sid, res in metric_table(specs, pred, y).items():
            values[(name, sid)] = res.value
    preds = {"blur": [p.values], "truth": [truth.values]}
    sampled = checks.sample_census_specs(np.random.default_rng(0))
    assert checks.check_scores(values, preds, [y.values], SPACING, "truth", sampled) == []
    return values, preds, [y.values], sampled


@pytest.mark.parametrize("perturb, message", [
    (lambda v, s: v.pop(("blur", "dice_W0-0.025")), "rows"),
    (lambda v, s: v.__setitem__(("blur", "heidke_F0.1-0.2"), 1.5), "outside"),
    (lambda v, s: v.__setitem__(("blur", s[0]), v[("blur", s[0])] * (1 + 1e-7)), "reference"),
    (lambda v, s: v.__setitem__(("blur", s[-2]), v[("blur", s[-2])] + 1e-6), "reference"),
    (lambda v, s: v.__setitem__(("truth", "fss_F0.4-inf"), 0.5), "not best"),
])
def test_census_check_rejects_perturbed_scores(census, perturb, message):
    values, preds, obs, sampled = census
    values = dict(values)
    perturb(values, sampled)
    fails = checks.check_scores(values, preds, obs, SPACING, "truth", sampled)
    assert any(message in f for f in fails), fails


def test_rank_check_rejects_a_wrong_rank(census):
    values, _, _, _ = census
    ids = ref.census_spec_ids()
    models = ("blur", "truth", "zero")
    rows = [[values[(m, s)] for s in ids] for m in models[:2]]
    rows.append([0.5] * len(ids))
    ranks = rank_models(MetricMatrix(models, tuple(parse_spec_id(s) for s in ids), rows))
    table = {m: list(ranks[i]) for i, m in enumerate(models)}
    assert checks.check_ranks(ids, table, 3) == []
    table["zero"][7] += 1.0
    assert any("sums to" in f for f in checks.check_ranks(ids, table, 3))


def test_band_checks_reject_perturbed_outputs():
    _, p = _scene(20)
    x = p.values
    fr = ref.FourierRef(x.shape, SPACING)
    store = lambda a: a.astype(np.float32).astype(np.float64)  # noqa: E731
    band = lambda f, lo, hi: store(f(p, WavelengthBand(lo, hi)).values)  # noqa: E731
    f_lo, f_hi = band(fourier_band_pass, 0, 0.1), band(fourier_band_pass, 0.1, np.inf)
    w_lo, w_hi = band(wavelet_band_pass, 0, 0.1), band(wavelet_band_pass, 0.1, np.inf)
    assert checks.check_complementary(f_lo, f_hi, fr.windowed_input(x), "F") == []
    assert checks.check_complementary(w_lo, w_hi, x, "W") == []
    assert checks.check_band_output(f_lo, fr.band_pass(x, 0, 0.1), "F") == []
    assert checks.check_band_output(w_hi, ref.haar_band_pass(x, SPACING, 0.1, np.inf), "W") == []
    # The Fourier pair does not rebuild the unwindowed field.
    assert checks.check_complementary(f_lo, f_hi, x, "F")
    bumped = w_lo.copy()
    bumped[3, 4] += 1e-6
    assert checks.check_complementary(bumped, w_hi, x, "W")
    assert checks.check_band_output(bumped, ref.haar_band_pass(x, SPACING, 0, 0.1), "W")


def test_sidecar_check_rejects_a_wrong_pixel_sum():
    _, p = _scene(20)
    out = fourier_band_pass(p, WavelengthBand(0.1, np.inf)).values
    stored = out.astype(np.float32).astype(np.float64)
    sidecar = {"filter_id": "F0.1-inf", "rows": 20, "cols": 20, "pixel_sum": float(out.sum())}
    assert checks.check_sidecar(sidecar, stored, "F0.1-inf", "x") == []
    sidecar["pixel_sum"] += 1e-4
    assert checks.check_sidecar(sidecar, stored, "F0.1-inf", "x")


def test_report_check_rejects_perturbed_reports(tmp_path):
    preds, obs, other = [], [], []
    for i in range(3):
        y, p = _scene(16, seed=10 + i)
        q = synth_prob(y, blur_r=2, noise_sd=0.1, seed=20 + i)
        for name, f, keep in (("m", y, obs), ("a", p, preds), ("b", q, other)):
            write_grid(tmp_path / f"{name}_{i}.grid", f)
            keep.append(f.values.astype(np.float32).astype(np.float64))
    assert cli_main(["eval", "--pred", str(tmp_path / "a_*.grid"), "--obs",
                     str(tmp_path / "m_*.grid"), "--compare", str(tmp_path / "b_*.grid"),
                     "--out-dir", str(tmp_path / "rep"), "--n-boot", "20"]) == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert checks.check_report(report, preds, obs, other) == []
    for path, change in ((("attributes", "bin_counts"), lambda c: [c[0] + 1] + c[1:]),
                         (("summary", "bss"), lambda v: v + 1e-6),
                         (("bootstrap", "bs", "point"), lambda v: v * 1.001),
                         (("compare", "diff"), lambda v: -v),
                         (("summary", "aupd"), lambda v: 1.25)):
        bad = copy.deepcopy(report)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
        assert checks.check_report(bad, preds, obs, other), path


def test_directional_check_rejects_a_wrong_gradient():
    y, p = _scene(16)
    p = p.with_values(0.02 + 0.96 * p.values)
    d = np.random.default_rng(3).standard_normal(p.shape)
    for sid in ("fss_nbhd_r2", "csi_nbhd_r1", "heidke_W0.1-inf"):
        spec = parse_spec_id(sid)
        t = prepare_target(spec, y)
        dd = np.where(checks.nonsmooth_pixels(sid, p.values, t.filtered.values, 1e-5), 0.0, d)
        g = loss_gradient(spec, p, t)
        loss_at = lambda h: loss_value(spec, p.with_values(p.values + h * dd), t)  # noqa: E731
        assert checks.check_directional(sid, g, dd, loss_at, 1e-6) == []
        assert checks.check_directional(sid, 1.01 * g, dd, loss_at, 1e-6)


def test_train_round_checks_reject_perturbed_losses():
    steps = []
    for seed in (5, 6):
        y, p = _scene(16, seed)
        steps.append((y, p.with_values(0.02 + 0.96 * p.values)))
    specs = enumerate_configs()
    _, values, fields = train.run_round(steps, specs)
    assert train.check_round(steps, specs, values, fields, seed=0) == []
    ids = [s.spec_id for s in specs]
    rising = values.copy()
    rising[1, 2, ids.index("brier_nbhd_r3")] += 1.0
    assert any("rose" in m for _, m in train.check_round(steps, specs, rising, fields, 0))
    sampled = checks.sample_census_specs(np.random.default_rng([0, 4]))
    off = values.copy()
    off[0, 1, ids.index(sampled[1])] *= 1 + 1e-6
    assert any("reference" in m for _, m in train.check_round(steps, specs, off, fields, 0))
    assert checks.check_brier_descent([3.0, 2.0, 1.0], "x") == []
