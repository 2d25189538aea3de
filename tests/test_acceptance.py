"""Release acceptance checks.

Ten independent criteria covering the whole package: configuration census,
filter constants, transform exactness, band complementarity, score
correctness, gradient fidelity, the double-penalty demonstration, diagnostic
sanity, ranking identities, and end-to-end determinism.  Each test prints a
single PASS/FAIL verdict on the live terminal — bypassing pytest capture —
so every run shows all ten outcomes at a glance.

Criterion 7 checks the double-penalty rescue of the neighbourhood Brier
loss.  That loss scores the forecast against the max-filtered (dilated)
observation, so every forecast, a perfect one included, pays for the ring of
the dilated target that it leaves uncovered.  A disc displaced by k <= r
lies wholly inside the dilated target, so it pays exactly that charge and
nothing more: its loss equals the perfect forecast's bit for bit.  At r < k
part of the disc falls outside the target and the loss is strictly larger.
"""

import hashlib
import math
import shutil
import time

import numpy as np
import pytest

from selfscore.cli import main
from selfscore.evaluation import (attributes_diagram, consistency_bars,
                                  performance_diagram)
from selfscore.fourier import blackman_harris_weights, butterworth_gain
from selfscore.grid import GridField, WavelengthBand
from selfscore.losses import (NBHD_HALF_WIDTHS, enumerate_configs, grad_check,
                              parse_spec_id, prepare_targets)
from selfscore.ranking import MetricMatrix, best_per_filter, filter_mean_ranks, rank_models
from selfscore.scores import SCORE_KINDS
from selfscore.wavelet import haar_forward, haar_inverse, wavelet_decompose
from selfscore import fourier as fourier_mod
from selfscore import wavelet as wavelet_mod

from _records import counts, score
from _spectral import crop, taper

SPACING = 0.02


def verdict(capsys, num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)


def prob(values, spacing=SPACING, eval_mask=None):
    return GridField(np.asarray(values, dtype=float), spacing, "prob", eval_mask)


def mask(values, spacing=SPACING, eval_mask=None):
    return GridField(np.asarray(values, dtype=float), spacing, "mask", eval_mask)


# ---------------------------------------------------------------------------
# 1. configuration census


def test_01_configuration_census(capsys):
    t0 = time.perf_counter()
    configs = enumerate_configs()
    elapsed = time.perf_counter() - t0

    nbhd = [c for c in configs if not c.is_spectral]
    spectral = [c for c in configs if c.is_spectral]
    ids = [c.spec_id for c in configs]
    nbhd_cells = {(c.score, c.half_width) for c in nbhd}
    spectral_cells = {(c.score, c.filter_kind, c.band) for c in spectral}

    ok = (len(configs) == 336 and len(nbhd) == 48 and len(spectral) == 288
          and len(set(ids)) == 336
          and len({c.score for c in nbhd}) == 6
          and {c.half_width for c in nbhd} == set(NBHD_HALF_WIDTHS)
          and len(nbhd_cells) == 48
          and len({c.score for c in spectral}) == 9
          and len({c.band for c in spectral}) == 16
          and {c.filter_kind for c in spectral} == {"F", "W"}
          and len(spectral_cells) == 288
          and elapsed < 1.0)
    verdict(capsys, 1, "configuration census", ok,
            f"{len(configs)} configs = {len(nbhd)} nbhd + {len(spectral)} "
            f"spectral in {elapsed:.3f} s")
    assert ok


# ---------------------------------------------------------------------------
# 2. window and gain constants


def test_02_window_and_gain_constants(capsys):
    w = blackman_harris_weights((41, 41))
    center_ok = abs(w[20, 20] - 1.0) <= 1e-12
    edge_ok = abs(w[0, 20]) <= 1e-12  # distance R along the row axis

    shape, spacing = (1000, 1), 0.01  # wavenumbers m/10 for m = 0..500
    low = butterworth_gain(shape, spacing, WavelengthBand(0.1, math.inf))
    cut_ok = abs(low[100, 0] - 0.5) <= 1e-12  # nu = 10 = 1/0.1 exactly
    dc_ok = abs(low[0, 0] - 1.0) <= 1e-12

    comp_dev = 0.0
    for edge in (0.1, 0.2, 0.4, 0.8):
        g_lo = butterworth_gain(shape, spacing, WavelengthBand(edge, math.inf))
        g_hi = butterworth_gain(shape, spacing, WavelengthBand(0.0, edge))
        comp_dev = max(comp_dev, float(np.abs(g_lo + g_hi - 1.0).max()))
    comp_ok = comp_dev <= 1e-12

    ok = center_ok and edge_ok and cut_ok and dc_ok and comp_ok
    verdict(capsys, 2, "window and gain constants", ok,
            f"w(0)-1={w[20, 20] - 1.0:.1e}, w(R)={w[0, 20]:.1e}, "
            f"g(nu_max)-0.5={low[100, 0] - 0.5:.1e}, "
            f"max|g_lo+g_hi-1|={comp_dev:.1e} over 4x1000 wavenumbers")
    assert ok


# ---------------------------------------------------------------------------
# 3. transform exactness


def test_03_transform_exactness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    dft_worst = haar_worst = energy_worst = 0.0
    for _ in range(100):
        v = rng.normal(size=(64, 64))

        back = np.fft.ifft2(np.fft.fft2(v)).real
        dft_worst = max(dft_worst, float(np.abs(back - v).max()))

        step = haar_inverse(*haar_forward(v))
        decomposition = wavelet_decompose(v)
        assert len(decomposition.details) == 6
        ll = decomposition.coarsest
        for lh, hl, hh in reversed(decomposition.details):
            ll = haar_inverse(ll, lh, hl, hh)
        haar_worst = max(haar_worst,
                         float(np.abs(step - v).max()),
                         float(np.abs(ll - v).max()))

        coeff_energy = float(sum(
            (lh ** 2).sum() + (hl ** 2).sum() + (hh ** 2).sum()
            for lh, hl, hh in decomposition.details) + (decomposition.coarsest ** 2).sum())
        field_energy = float((v ** 2).sum())
        energy_worst = max(energy_worst,
                           abs(coeff_energy - field_energy) / field_energy)
    elapsed = time.perf_counter() - t0

    ok = dft_worst <= 1e-10 and haar_worst <= 1e-10 and energy_worst <= 1e-12 \
        and elapsed < 10.0
    verdict(capsys, 3, "transform exactness", ok,
            f"100 fields: dft={dft_worst:.1e}, haar={haar_worst:.1e}, "
            f"energy rel={energy_worst:.1e} in {elapsed:.1f} s")
    assert ok


# ---------------------------------------------------------------------------
# 4. band complementarity


def fourier_windowed_reference(field):
    target = (fourier_mod.TAPER_FACTOR * field.rows,
              fourier_mod.TAPER_FACTOR * field.cols)
    return crop(blackman_harris_weights(target) * taper(field, target), field.shape)


def test_04_band_complementarity(capsys):
    rng = np.random.default_rng(44)
    edges = (0.1, 0.2, 0.4, 0.8)
    fourier_worst = wavelet_worst = 0.0
    for _ in range(20):
        values = (rng.uniform(size=(48, 52)) < 0.3).astype(float)

        f_field = mask(values, spacing=SPACING)
        reference = fourier_windowed_reference(f_field)
        for edge in edges:
            low = fourier_mod.fourier_band_pass(f_field, WavelengthBand(0.0, edge))
            high = fourier_mod.fourier_band_pass(f_field, WavelengthBand(edge, math.inf))
            fourier_worst = max(fourier_worst, float(
                np.abs(low.values + high.values - reference).max()))

        # 0.0125 deg spacing puts every edge on a dyadic scale boundary.
        w_field = mask(values, spacing=0.0125)
        for edge in edges:
            low = wavelet_mod.wavelet_band_pass(w_field, WavelengthBand(0.0, edge))
            high = wavelet_mod.wavelet_band_pass(w_field, WavelengthBand(edge, math.inf))
            wavelet_worst = max(wavelet_worst, float(
                np.abs(low.values + high.values - values).max()))

    ok = fourier_worst <= 1e-10 and wavelet_worst <= 1e-10
    verdict(capsys, 4, "band complementarity", ok,
            f"20 masks x 4 edges: fourier={fourier_worst:.1e} vs windowed "
            f"original, wavelet={wavelet_worst:.1e} vs original")
    assert ok


# ---------------------------------------------------------------------------
# 5. score correctness


def only(pixels, shape):
    em = np.zeros(shape, dtype=bool)
    for ij in pixels:
        em[ij] = True
    return em


def test_05_score_correctness(capsys):
    failures = []

    # Single-pixel probabilistic contingency splits.
    a, b, c, d = counts(prob([[0.8]]), mask([[1.0]]))
    if not (a == 0.8 and abs(c - 0.2) <= 1e-15 and b == d == 0.0):
        failures.append("event-pixel split")
    a, b, c, d = counts(prob([[0.8]]), mask([[0.0]]))
    if not (b == 0.8 and abs(d - 0.2) <= 1e-15 and a == c == 0.0):
        failures.append("no-event-pixel split")

    # Neighbourhood contingency: observation pass and both prediction cases.
    pv = np.zeros((7, 7))
    pv[1, 2], pv[2, 3], pv[5, 6] = 0.8, 0.5, 0.2
    yv = np.zeros((7, 7))
    yv[1, 1] = 1.0
    a_obs, _, _, c = counts(prob(pv, eval_mask=only([(1, 1)], pv.shape)),
                            mask(yv, eval_mask=only([(1, 1)], pv.shape)), 2)
    if not (a_obs == pytest.approx(0.8, abs=1e-15)
            and c == pytest.approx(0.2, abs=1e-15)):
        failures.append("nbhd observation pass")
    _, a_pred, b, _ = counts(prob(pv, eval_mask=only([(2, 3)], pv.shape)),
                             mask(yv, eval_mask=only([(2, 3)], pv.shape)), 2)
    if not (a_pred == pytest.approx(0.5, abs=1e-15)
            and b == pytest.approx(0.5, abs=1e-15)):
        failures.append("nbhd near-event prediction")
    _, a_pred, b, _ = counts(prob(pv, eval_mask=only([(5, 6)], pv.shape)),
                             mask(yv, eval_mask=only([(5, 6)], pv.shape)), 2)
    if not (b == pytest.approx(0.2, abs=1e-15) and a_pred == 0.0):
        failures.append("nbhd far prediction")

    # All nine scores on one worked 2x2 example.
    p = prob([[0.8, 0.2], [0.6, 0.5]])
    y = mask([[1.0, 0.0], [1.0, 0.0]])
    a, b = 0.8 + 0.6, 0.2 + 0.5
    c, d = 0.2 + 0.4, 0.8 + 0.5
    sse = 0.04 + 0.04 + 0.16 + 0.25
    ref = (0.64 + 0.04 + 0.36 + 0.25) + 2.0
    union = 1.0 + 0.2 + 1.0 + 0.5
    n_rand = ((a + b) * (a + c) + (b + d) * (c + d)) / 4.0
    r = (a + c) / (b + d)
    expected = {
        "brier": sse / 4.0,
        "fss": 1.0 - sse / ref,
        "iou": a / union,
        "dice": (a + d) / 4.0,
        "csi": a / (a + b + c),
        "xent": -(math.log2(0.8) + math.log2(0.8)
                  + math.log2(0.6) + math.log2(0.5)) / 4.0,
        "heidke": (a + d - n_rand) / (4.0 - n_rand),
        "peirce": a / (a + c) - b / (b + d),
        "gerrity": (a / r + d * r - b - c) / 4.0,
    }
    for kind, want in expected.items():
        res = score(kind, p, y)
        if res.value != pytest.approx(want, abs=1e-14) or res.fallbacks:
            failures.append(f"hand value {kind}")

    # Perfect forecasts reach each score's optimum.
    yv = (np.random.default_rng(55).uniform(size=(9, 9)) < 0.4).astype(float)
    optimal = {"brier": 0.0, "fss": 1.0, "iou": 1.0, "dice": 1.0, "csi": 1.0,
               "heidke": 1.0, "peirce": 1.0, "gerrity": 1.0}
    for kind, want in optimal.items():
        if score(kind, prob(yv), mask(yv)).value != want:
            failures.append(f"optimum {kind}")
    if not 0.0 <= score("xent", prob(yv), mask(yv)).value < 1e-6:
        failures.append("optimum xent")

    # Ranges over 10^4 random inputs.
    rng = np.random.default_rng(555)
    unit = ("brier", "fss", "iou", "dice", "csi")
    skill = ("heidke", "peirce", "gerrity")
    for i in range(10_000):
        pv = rng.uniform(size=(5, 5))
        yv = (rng.uniform(size=(5, 5)) < 0.35).astype(float)
        p, y = prob(pv), mask(yv)
        vals = {kind: score(kind, p, y).value for kind in SCORE_KINDS}
        if not all(0.0 <= vals[k] <= 1.0 for k in unit):
            failures.append(f"unit range draw {i}")
            break
        if vals["xent"] < 0.0:
            failures.append(f"xent range draw {i}")
            break
        if not all(-1.0 <= vals[k] <= 1.0 for k in skill):
            failures.append(f"skill range draw {i}")
            break

    ok = not failures
    verdict(capsys, 5, "score correctness", ok,
            "hand examples, optima, ranges over 10^4 draws" if ok
            else "; ".join(failures))
    assert ok, failures


# ---------------------------------------------------------------------------
# 6. gradient fidelity


def test_06_gradient_fidelity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    # Draws clear of the cross-entropy clamp keep its exclusion set empty.
    p = GridField(rng.uniform(0.01, 0.99, (16, 16)), SPACING, "prob")
    y = GridField((rng.uniform(size=(16, 16)) < 0.3).astype(float),
                  SPACING, "mask")

    targets = prepare_targets(enumerate_configs(), y)
    worst = (0.0, "")
    failures, smooth_excluded = [], []
    for config in enumerate_configs():
        report = grad_check(config, p, targets[config.filter_id], step=1e-5)
        if not report.passed(rel_tol=1e-5):
            failures.append((config.spec_id, report.max_rel_diff))
        if report.max_rel_diff > worst[0]:
            worst = (report.max_rel_diff, config.spec_id)
        if config.score in ("brier", "fss", "xent") and report.n_excluded:
            smooth_excluded.append(config.spec_id)
    elapsed = time.perf_counter() - t0

    ok = not failures and not smooth_excluded and elapsed < 300.0
    verdict(capsys, 6, "gradient fidelity", ok,
            f"336 configs, worst rel {worst[0]:.1e} ({worst[1]}), "
            f"{len(smooth_excluded)} smooth-family exclusions, {elapsed:.1f} s")
    assert ok, (failures, smooth_excluded, elapsed)


# ---------------------------------------------------------------------------
# 7. double-penalty rescue: a shift within the half-width costs nothing


def disc(shape, center, radius):
    rr = np.arange(shape[0])[:, None] - center[0]
    cc = np.arange(shape[1])[None, :] - center[1]
    return (rr ** 2 + cc ** 2 <= radius ** 2).astype(float)


def test_07_double_penalty_rescue(capsys):
    y = mask(disc((48, 48), (24, 24), 3.2))
    perfect = prob(y.values)
    positives = []
    rescued = {}
    charged = {}
    for k in (1, 2, 4):
        p = prob(disc((48, 48), (24, 24 + k), 3.2))
        positives.append(score("brier", p, y).value > 0.0)
        for r in NBHD_HALF_WIDTHS:
            pair = (score("brier", p, y, r).value,
                    score("brier", perfect, y, r).value)
            (rescued if r >= k else charged)[(k, r)] = pair

    pixel_ok = all(positives)
    rescue_ok = all(shifted == ideal for shifted, ideal in rescued.values())
    charge_ok = all(shifted > ideal for shifted, ideal in charged.values())
    ok = pixel_ok and rescue_ok and charge_ok

    def pairs(table):
        return ", ".join(f"k={k} r={r}: {shifted:.4f}/{ideal:.4f}"
                         for (k, r), (shifted, ideal) in sorted(table.items()))

    verdict(capsys, 7, "double-penalty rescue", ok,
            f"pixelwise Brier > 0: {pixel_ok}; displaced/perfect nbhd "
            f"Brier at r >= k [{pairs(rescued)}]; at r < k [{pairs(charged)}]")
    assert ok, (positives, rescued, charged)


# ---------------------------------------------------------------------------
# 8. diagnostics sanity


def test_08_diagnostics_sanity(capsys):
    rng = np.random.default_rng(8)
    n = 10 ** 6
    pv = rng.uniform(0.0, 1.0, n)
    yv = (rng.uniform(size=n) < pv).astype(float)
    p = GridField(pv.reshape(1000, 1000), SPACING, "prob")
    y = GridField(yv.reshape(1000, 1000), SPACING, "mask")
    attr = attributes_diagram(p, y)
    rel_ok = attr.rel < 0.001
    # Uniform calibrated forecasts: BS = E[p(1-p)] = 1/6, BS_clim = 1/4.
    bss_dev = abs(attr.bss - 1.0 / 3.0)
    bss_ok = bss_dev < 0.01

    base = float(yv.mean())
    clim = GridField(np.full((1000, 1000), base), SPACING, "prob")
    clim_bss = attributes_diagram(clim, y).bss
    clim_ok = clim_bss == 0.0

    perfect = GridField(y.values.copy(), SPACING, "prob")
    aupd = performance_diagram(perfect, y).aupd
    aupd_ok = aupd == 1.0

    # Consistency bars vs the binomial oracle at 10^4 samples per bin.
    centres = (np.arange(20) + 0.5) / 20
    pb = np.repeat(centres, 10 ** 4)
    yb = (np.random.default_rng(81).uniform(size=pb.size) < pb).astype(float)
    attr_b = attributes_diagram(GridField(pb.reshape(2000, 100), SPACING, "prob"),
                                GridField(yb.reshape(2000, 100), SPACING, "mask"))
    lo, hi = consistency_bars(attr_b, n_boot=400, seed=0)
    z95 = 1.959963984540054
    oracle = 2.0 * z95 * np.sqrt(centres * (1.0 - centres) / 10 ** 4)
    bar_dev = float(np.abs((hi - lo) - oracle).__truediv__(oracle).max())
    bars_ok = bar_dev <= 0.35

    ok = rel_ok and bss_ok and clim_ok and aupd_ok and bars_ok
    verdict(capsys, 8, "diagnostics sanity", ok,
            f"rel={attr.rel:.1e}, |bss-1/3|={bss_dev:.1e}, "
            f"climatology bss={clim_bss}, perfect aupd={aupd}, "
            f"bar width dev={bar_dev:.2f}")
    assert ok


# ---------------------------------------------------------------------------
# 9. ranking identities


def test_09_ranking_identities(capsys):
    small = [parse_spec_id(s) for s in
             ("brier_nbhd_r0", "fss_nbhd_r1", "xent_F0-0.1",
              "iou_W0.2-0.4", "csi_nbhd_r2")]
    rng = np.random.default_rng(99)
    models = [f"m{i}" for i in range(7)]
    values = rng.integers(0, 3, size=(7, 5)) / 2.0  # plenty of exact ties
    ranks = rank_models(MetricMatrix(models, small, values))
    sums_ok = np.allclose(ranks.sum(axis=0), 7 * 8 / 2.0, atol=0)

    configs = enumerate_configs()
    big = MetricMatrix([f"m{i:03d}" for i in range(120)], configs,
                       rng.uniform(0.01, 0.99, size=(120, 336)))
    winners = best_per_filter(big, *filter_mean_ranks(big, rank_models(big)))
    winners_ok = (len(winners) == 40 and
                  {w.filter_id for w in winners} == {c.filter_id for c in configs})

    transformed = MetricMatrix(big.models, big.specs,
                               np.exp(3.0 * big.values) - 0.5)
    invariant_ok = np.array_equal(rank_models(big), rank_models(transformed))

    ok = sums_ok and winners_ok and invariant_ok
    verdict(capsys, 9, "ranking identities", ok,
            f"rank sums with ties, {len(winners)} winner rows from 120x336, "
            f"monotone-transform invariance {'holds' if invariant_ok else 'BROKEN'}")
    assert ok


# ---------------------------------------------------------------------------
# 10. end-to-end determinism


def run_pipeline(base):
    steps = base / "steps"
    t0 = time.perf_counter()
    assert main(["synth", "--rows", "205", "--cols", "205", "--spacing", "0.02",
                 "--n-cells", "12", "--radius-range", "2,6",
                 "--elongation-range", "1,3", "--seed", "11", "--count", "50",
                 "--out-dir", str(steps), "--blur-r", "1", "--offset", "2,1",
                 "--noise-sd", "0.05"]) == 0
    assert main(["filter", "--spec", "F0.2-0.8", str(steps / "prob_*.grid"),
                 "--out-dir", str(base / "filtered"), "--jobs", "4"]) == 0
    assert main(["score", "--pred", f"model={steps}/prob_*.grid",
                 "--obs", f"{steps}/mask_*.grid", "--all-336",
                 "--out", str(base / "scores.csv")]) == 0
    assert main(["rank", "--scores", str(base / "scores.csv"),
                 "--out-dir", str(base / "ranks")]) == 0
    assert main(["eval", "--pred", f"{steps}/prob_*.grid",
                 "--obs", f"{steps}/mask_*.grid", "--out-dir", str(base / "report"),
                 "--thresholds", "101", "--n-boot", "300", "--seed", "0"]) == 0
    elapsed = time.perf_counter() - t0

    digests = {}
    for path in sorted(base.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(base))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests, elapsed


def test_10_end_to_end_determinism(capsys, tmp_path):
    base = tmp_path / "pipeline"
    first, elapsed_1 = run_pipeline(base)
    shutil.rmtree(base)  # identical paths both times, sidecars included
    second, elapsed_2 = run_pipeline(base)

    score_lines = (base / "scores.csv").read_text().splitlines()
    full_census = len(score_lines) == 1 + 336
    identical = first == second
    in_budget = elapsed_1 < 1800.0 and elapsed_2 < 1800.0

    ok = identical and full_census and in_budget
    verdict(capsys, 10, "end-to-end determinism", ok,
            f"{len(first)} artifacts byte-identical across two runs; "
            f"205x205 x 50 steps x 336 metrics in {elapsed_1:.0f} s")
    assert ok, (identical, full_census, elapsed_1, elapsed_2)
