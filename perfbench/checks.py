"""Output checks for the benchmark workloads.

Every check returns a list of failure messages (empty when the output is
right).  The checks compare against ``reference`` or against properties the
method must have, never against a stored copy of earlier output.  They take
parsed data, not paths, so ``test_perfbench.py`` can feed them perturbed
outputs at tiny sizes.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

F32_EPS = 2.0 ** -24  # relative rounding of a float32 store


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _score_of(spec_id: str) -> str:
    return spec_id.split("_", 1)[0]


def _filter_of(spec_id: str) -> str:
    return spec_id.split("_", 1)[1]


# ---------------------------------------------------------------------------
# census-compare

def sample_census_specs(rng: np.random.Generator) -> list[str]:
    """Brier and FSS under two half-widths and two bands of each method."""
    radii = rng.choice(ref.NBHD_HALF_WIDTHS, size=2, replace=False)
    bands = ref.census_bands()
    out = []
    for r in sorted(int(x) for x in radii):
        out += [f"brier_nbhd_r{r}", f"fss_nbhd_r{r}"]
    for method in ("F", "W"):
        for k in sorted(rng.choice(len(bands), size=2, replace=False)):
            fid = ref.band_id(method, *bands[k])
            out += [f"brier_{fid}", f"fss_{fid}"]
    return out


def reference_metrics(spec_ids: list[str], p: np.ndarray, y: np.ndarray, spacing: float,
                      fourier: ref.FourierRef) -> dict[str, float]:
    """Evaluation-time Brier and FSS: spectral filters apply to both fields,
    which are then clamped to [0, 1]; each filter and spectrum is made once."""
    spectra = {}
    pairs = {}
    out = {}
    for sid in spec_ids:
        score, fid = _score_of(sid), _filter_of(sid)
        if fid.startswith("nbhd_r"):
            r = int(fid[len("nbhd_r"):])
            out[sid] = {"brier": ref.brier_nbhd, "fss": ref.fss_nbhd}[score](p, y, r)
            continue
        if fid not in pairs:
            method, lo, hi = ref.parse_band(fid)
            if method == "F":
                if not spectra:
                    spectra = {"p": fourier.spectrum(p), "y": fourier.spectrum(y)}
                pf = fourier.band_pass(p, lo, hi, spectra["p"])
                yf = fourier.band_pass(y, lo, hi, spectra["y"])
            else:
                pf, yf = (ref.haar_band_pass(a, spacing, lo, hi) for a in (p, y))
            pairs[fid] = np.clip(pf, 0.0, 1.0), np.clip(yf, 0.0, 1.0)
        out[sid] = {"brier": ref.brier, "fss": ref.fss}[score](*pairs[fid])
    return out


def check_scores(values: dict[tuple[str, str], float], preds: dict[str, list[np.ndarray]],
                 obs: list[np.ndarray], spacing: float, truth: str,
                 sampled: list[str]) -> list[str]:
    """The ``score --all-336`` table: complete, finite, in range, right, truth best."""
    fails = []
    models = sorted(preds)
    ids = ref.census_spec_ids()
    expected = {(m, s) for m in models for s in ids}
    if set(values) != expected:
        fails.append(f"scores: {len(values)} rows, expected {len(expected)} "
                     f"({len(models)} models x {len(ids)} configs)")
        return fails
    for (m, s), v in values.items():
        lo, hi = ref.SCORE_RANGE[_score_of(s)]
        if not (math.isfinite(v) and lo <= v <= hi):
            fails.append(f"scores: {m} {s} = {v!r} outside [{lo}, {hi}]")
    fourier = ref.FourierRef(obs[0].shape, spacing)
    for m in models:
        per_step = [reference_metrics(sampled, p, y, spacing, fourier)
                    for p, y in zip(preds[m], obs)]
        for s in sampled:
            want = float(np.mean([step[s] for step in per_step]))
            if not close(values[(m, s)], want):
                fails.append(f"scores: {m} {s} = {values[(m, s)]!r}, reference {want!r}")
    for s in ids:
        score, fid = _score_of(s), _filter_of(s)
        spectral = not fid.startswith("nbhd")
        if not ((spectral and score in ("brier", "fss")) or s.startswith("fss_nbhd")
                or s == "brier_nbhd_r0"):
            continue
        col = [values[(m, s)] for m in models]
        best = min(col) if score in ref.NEGATIVE_SCORES else max(col)
        if values[(truth, s)] != best:
            fails.append(f"scores: {truth} (the observation) is not best under {s}")
    return fails


def check_ranks(header: list[str], rows: dict[str, list[float]], n_models: int) -> list[str]:
    """Every rank column sums to M(M+1)/2 and covers the census."""
    fails = []
    if sorted(header) != sorted(ref.census_spec_ids()):
        fails.append(f"ranks: {len(header)} columns, expected the 336 census configs")
    if len(rows) != n_models:
        fails.append(f"ranks: {len(rows)} rows, expected {n_models}")
        return fails
    want = n_models * (n_models + 1) / 2.0
    for j, s in enumerate(header):
        total = sum(r[j] for r in rows.values())
        if not close(total, want):
            fails.append(f"ranks: column {s} sums to {total!r}, expected {want}")
    return fails


# ---------------------------------------------------------------------------
# filter-report

def quantised_close(got: np.ndarray, want: np.ndarray, magnitude: np.ndarray) -> bool:
    """``got`` equals ``want`` up to float32 stores of values of ``magnitude``."""
    tol = 1.01 * F32_EPS * magnitude + 1e-12 * max(1.0, float(np.abs(want).max()))
    return bool(np.all(np.abs(got - want) <= tol))


def check_complementary(lo_out: np.ndarray, hi_out: np.ndarray, target: np.ndarray,
                        what: str) -> list[str]:
    """Two complementary band outputs, each stored as float32, sum to ``target``."""
    if quantised_close(lo_out + hi_out, target, np.abs(lo_out) + np.abs(hi_out)):
        return []
    err = float(np.abs(lo_out + hi_out - target).max())
    return [f"{what}: complementary outputs miss the input by up to {err:.3g}"]


def check_band_output(out: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    """A stored band-pass output against the reference filter."""
    if quantised_close(out, want, np.abs(out)):
        return []
    return [f"{what}: differs from the reference band-pass by "
            f"{float(np.abs(out - want).max()):.3g}"]


def check_sidecar(sidecar: dict, values: np.ndarray, filter_id: str, what: str) -> list[str]:
    fails = []
    if sidecar.get("filter_id") != filter_id or \
            (sidecar.get("rows"), sidecar.get("cols")) != values.shape:
        fails.append(f"{what}: sidecar names {sidecar.get('filter_id')} "
                     f"{sidecar.get('rows')}x{sidecar.get('cols')}")
    total = float(values.sum())
    tol = 1.01 * F32_EPS * float(np.abs(values).sum()) + 1e-9
    if not abs(sidecar.get("pixel_sum", math.nan) - total) <= tol:
        fails.append(f"{what}: sidecar pixel_sum {sidecar.get('pixel_sum')!r} "
                     f"but the field sums to {total!r}")
    return fails


def check_report(report: dict, preds: list[np.ndarray], obs: list[np.ndarray],
                 compare: list[np.ndarray]) -> list[str]:
    """``eval --compare`` report: bin counts, pooled BS/BSS, the paired difference, AUPD."""
    fails = []
    summary = report["summary"]
    n = sum(a.size for a in obs)
    if summary["n_scored"] != n or sum(report["attributes"]["bin_counts"]) != n:
        fails.append(f"report: bin counts sum to {sum(report['attributes']['bin_counts'])}, "
                     f"n_scored {summary['n_scored']}, pixels {n}")
    bs, bss = ref.pooled_bs_bss(preds, obs)
    bs_b, _ = ref.pooled_bs_bss(compare, obs)
    for name, got, want in (("bs", summary["bs"], bs), ("bss", summary["bss"], bss),
                            ("bootstrap bs", report["bootstrap"]["bs"]["point"], bs),
                            ("bootstrap bss", report["bootstrap"]["bss"]["point"], bss),
                            ("compare diff", report["compare"]["diff"], bs - bs_b)):
        if not close(got, want):
            fails.append(f"report: {name} = {got!r}, reference {want!r}")
    if not 0.0 <= summary["aupd"] <= 1.0:
        fails.append(f"report: AUPD {summary['aupd']!r} outside [0, 1]")
    return fails


# ---------------------------------------------------------------------------
# train-loop

def nonsmooth_pixels(spec_id: str, p: np.ndarray, target: np.ndarray, margin: float) -> np.ndarray:
    """Pixels within ``margin`` of a documented non-smooth point of the loss:
    the cross-entropy clamp, the IoU kink where p meets its target, and
    near-ties of the window maximum behind the neighbourhood CSI."""
    score, fid = _score_of(spec_id), _filter_of(spec_id)
    out = np.zeros(p.shape, dtype=bool)
    r = int(fid[len("nbhd_r"):]) if fid.startswith("nbhd_r") else None
    if score == "xent":
        out |= (p <= ref.XENT_EPS + margin) | (p >= 1.0 - ref.XENT_EPS - margin)
    if score == "iou":
        t = ref.dilate(target, r) if r is not None else target
        out |= np.abs(p - t) <= margin
    if score == "csi" and r is not None:
        for i, j in zip(*np.nonzero(target == 1.0)):
            sl = (slice(max(0, i - r), i + r + 1), slice(max(0, j - r), j + r + 1))
            win = p[sl]
            near = win.max() - win <= margin
            if near.sum() > 1:
                out[sl] |= near
    return out


def check_directional(spec_id: str, grad: np.ndarray, direction: np.ndarray,
                      loss_at, h: float) -> list[str]:
    """Central difference of the loss along ``direction`` vs <gradient, direction>."""
    fd = (loss_at(h) - loss_at(-h)) / (2.0 * h)
    an = float(np.sum(grad * direction))
    # Rounding in the two loss values limits what the difference can resolve.
    noise = 64.0 * np.finfo(float).eps * max(1.0, abs(loss_at(0.0))) / h
    if abs(fd - an) <= max(1e-5 * max(abs(fd), abs(an)), noise):
        return []
    return [f"train: {spec_id} directional derivative {fd!r} vs gradient {an!r}"]


def check_brier_descent(objective: list[float], what: str) -> list[str]:
    """The Brier training objective does not rise from one epoch to the next."""
    for e in range(1, len(objective)):
        if objective[e] > objective[e - 1] * (1.0 + 1e-12):
            return [f"{what}: Brier objective rose from {objective[e - 1]!r} "
                    f"to {objective[e]!r} at epoch {e}"]
    return []


def reference_loss(spec_id: str, p: np.ndarray, y: np.ndarray, spacing: float,
                   fourier: ref.FourierRef) -> float:
    """Training loss: spectral filters apply to the observation only, clamped."""
    score, fid = _score_of(spec_id), _filter_of(spec_id)
    if fid.startswith("nbhd_r"):
        value = reference_metrics([spec_id], p, y, spacing, fourier)[spec_id]
    else:
        method, lo, hi = ref.parse_band(fid)
        t = fourier.band_pass(y, lo, hi) if method == "F" else \
            ref.haar_band_pass(y, spacing, lo, hi)
        t = np.clip(t, 0.0, 1.0)
        value = {"brier": ref.brier, "fss": ref.fss}[score](p, t)
    return value if score in ref.NEGATIVE_SCORES else 1.0 - value
