"""Property tests: the transform-once spectral paths against their references.

A field's values are transformed once (``fourier_spectrum``,
``wavelet_decompose``) and then filtered band by band, several arrays of one
grid at a time.  These tests check on small random grids, odd sizes
included, that this gives the single-band results bit for bit, that the
real-DFT pipeline matches a complex ``fft2``/``ifft2`` run of the documented
steps, that the Haar path matches the copy-and-zero algorithm it replaced,
that complementary bands still partition their input, that a transform of
another grid is refused, and that only the one-field band-passes and the
targets build fields.
"""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfscore import fourier as fourier_mod
from selfscore.cli import main
from selfscore.fourier import (TAPER_FACTOR, _blackman_harris, _quarter_nu,
                               blackman_harris_weights, butterworth_gain, fourier_band_pass,
                               fourier_band_passes, fourier_spectrum)
from selfscore.grid import GridField, WavelengthBand, next_pow2_dims, write_grid
from selfscore.losses import (FilterSpec, apply_filter, enumerate_configs, filter_stages,
                              metric_table, metric_tables)
from selfscore.wavelet import (haar_forward, haar_inverse, wavelet_band_pass, wavelet_band_passes,
                               wavelet_decompose)

from _spectral import crop, full_gain, taper

SETTINGS = settings(max_examples=40, deadline=None)
SPACINGS = (0.01, 0.0125, 0.02, 0.05)
EDGES = (0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6)


@st.composite
def fields(draw, count=1, kind="real", min_side=2, max_side=19):
    """``count`` random fields sharing one shape and spacing."""
    shape = (draw(st.integers(min_side, max_side)), draw(st.integers(min_side, max_side)))
    spacing = draw(st.sampled_from(SPACINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    emask = rng.uniform(size=shape) < 0.8 if draw(st.booleans()) else None
    out = []
    for _ in range(count):
        if kind == "mask":
            values = (rng.uniform(size=shape) < 0.3).astype(float)
        elif kind == "prob":
            values = rng.uniform(size=shape)
        else:
            values = rng.normal(size=shape)
        out.append(GridField(values, spacing, kind, emask))
    return out


@st.composite
def bands(draw):
    """A band from the census edges, or with free edges in (0, 2] degrees."""
    if draw(st.booleans()):
        lo = draw(st.sampled_from((0.0,) + EDGES))
        hi = draw(st.sampled_from(tuple(e for e in EDGES if e > lo) + (math.inf,)))
    else:
        a, b = sorted(draw(st.lists(st.floats(0.005, 2.0), min_size=2, max_size=2,
                                    unique=True)))
        lo = draw(st.sampled_from((0.0, a)))
        hi = draw(st.sampled_from((b, math.inf)))
    return WavelengthBand(lo, hi)


def assert_owns_copy_of_mask(out, field):
    """``out``, a one-field band-pass, keeps the input's eval mask by value,
    in read-only arrays."""
    assert not out.values.flags.writeable
    if field.eval_mask is None:
        assert out.eval_mask is None
    else:
        assert np.array_equal(out.eval_mask, field.eval_mask)
        assert not out.eval_mask.flags.writeable


# ---------------------------------------------------------------------------
# Fourier


def complex_dft_band_pass(field, band):
    """The documented pipeline with a complex fft2/ifft2, keeping the real part."""
    target = (TAPER_FACTOR * field.rows, TAPER_FACTOR * field.cols)
    windowed = blackman_harris_weights(target) * taper(field, target)
    gain = full_gain(target, field.spacing_deg, band)
    back = np.fft.ifft2(np.fft.fft2(windowed) * gain).real
    return crop(back, field.shape)


def windowed_original(field):
    target = (TAPER_FACTOR * field.rows, TAPER_FACTOR * field.cols)
    return crop(blackman_harris_weights(target) * taper(field, target), field.shape)


@SETTINGS
@given(fields(count=3), st.lists(bands(), min_size=1, max_size=4))
def test_shared_spectra_match_single_band_calls_bit_for_bit(group, band_list):
    spectra = [fourier_spectrum(f.values) for f in group]
    for band in band_list:
        shared = fourier_band_passes(spectra, group[0].shape, group[0].spacing_deg, band)
        for field, out in zip(group, shared):
            single = fourier_band_pass(field, band)
            assert np.array_equal(out, single.values)
            assert single.kind == "real"
            assert_owns_copy_of_mask(single, field)


@SETTINGS
@given(fields(), bands())
def test_real_dft_matches_complex_dft_reference(group, band):
    field = group[0]
    got = fourier_band_pass(field, band).values
    want = complex_dft_band_pass(field, band)
    assert np.abs(got - want).max() <= 1e-12


STAGES = {"F": ["tapered", "window", "windowed", "gain", "spectrum_mag", "filtered_mag",
                "full"],
          "W": ["padded", "full"]}


@SETTINGS
@given(fields(), bands(), st.sampled_from(sorted(STAGES)))
def test_stages_full_grid_crops_to_the_output(group, band, method):
    field = group[0]
    fspec = FilterSpec(method, band=band)
    stages = filter_stages(field, fspec)
    assert list(stages) == STAGES[method]
    target = ((TAPER_FACTOR * field.rows, TAPER_FACTOR * field.cols) if method == "F"
              else next_pow2_dims(field.shape))
    for name, stage in stages.items():
        assert stage.shape == target, name
    assert np.array_equal(crop(stages["full"], field.shape), apply_filter(field, fspec).values)


@SETTINGS
@given(fields(kind="mask"), st.sampled_from(EDGES))
def test_complementary_fourier_bands_sum_to_windowed_input(group, edge):
    field = group[0]
    spectrum, grid = fourier_spectrum(field.values), (field.shape, field.spacing_deg)
    (low,) = fourier_band_passes([spectrum], *grid, WavelengthBand(0.0, edge))
    (high,) = fourier_band_passes([spectrum], *grid, WavelengthBand(edge, math.inf))
    assert np.abs(low + high - windowed_original(field)).max() <= 1e-10


def test_cached_window_and_wavenumbers_are_shared_read_only():
    w = blackman_harris_weights((9, 12))
    assert w is blackman_harris_weights((9, 12))
    assert not w.flags.writeable
    nu = _quarter_nu((9, 12), 0.02)
    assert nu is _quarter_nu((9, 12), 0.02)
    assert not nu.flags.writeable and nu.shape == (5, 7)
    half = butterworth_gain((9, 12), 0.02, WavelengthBand(0.1, 0.4))
    full = full_gain((9, 12), 0.02, WavelengthBand(0.1, 0.4))
    assert np.array_equal(half, full[:, :7])


@SETTINGS
@given(st.integers(1, 40), st.integers(1, 40), st.data())
def test_window_blocks_equal_the_whole_window_bit_for_bit(rows, cols, data):
    """Any block of ``_blackman_harris`` is that block of the whole-grid
    window, on odd, non-square and non-power-of-two shapes."""
    r0, r1 = sorted(data.draw(st.lists(st.integers(0, rows), min_size=2, max_size=2)))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, cols), min_size=2, max_size=2)))
    block = _blackman_harris((rows, cols), (r0, r1), (c0, c1))
    want = blackman_harris_weights((rows, cols))[r0:r1, c0:c1]
    assert block.shape == want.shape and block.tobytes() == want.tobytes()
    assert not block.flags.writeable


# ---------------------------------------------------------------------------
# Haar


def copy_and_zero_band_pass(field, band):
    """The Haar band-pass as every level's four subbands zeroed in place (the
    algorithm the shared-decomposition path replaced).  Level k covers the
    wavelengths d*2^k .. d*2^(k+1)."""
    target = next_pow2_dims(field.shape)
    n_levels = int(math.log2(min(target)))
    levels, ll = [], taper(field, target)
    for _ in range(n_levels):
        ll, lh, hl, hh = haar_forward(ll)
        levels.append([ll, lh, hl, hh])
    for k in range(1, n_levels + 1):
        if field.spacing_deg * 2.0 ** (k + 1) > band.hi_deg:
            levels[k - 1][0][:] = 0.0
    for k in range(n_levels, 0, -1):
        small, large = field.spacing_deg * 2.0 ** k, field.spacing_deg * 2.0 ** (k + 1)
        if not large > band.hi_deg and k < n_levels:
            levels[k - 1][0] = haar_inverse(*levels[k])
        if small <= band.lo_deg:
            for detail in levels[k - 1][1:]:
                detail[:] = 0.0
    return crop(haar_inverse(*levels[0]), field.shape)


@SETTINGS
@given(fields(count=2), st.lists(bands(), min_size=1, max_size=4))
def test_shared_pyramid_matches_copy_and_zero_bit_for_bit(group, band_list):
    decompositions = [wavelet_decompose(f.values) for f in group]
    held = [[d.coarsest, *(a for detail in d.details for a in detail)] for d in decompositions]
    before = [[a.copy() for a in arrays] for arrays in held]
    for band in band_list:
        shared = wavelet_band_passes(decompositions, group[0].shape, group[0].spacing_deg, band)
        for field, out in zip(group, shared):
            want = copy_and_zero_band_pass(field, band)
            assert np.array_equal(out, want)
            single = wavelet_band_pass(field, band)
            assert np.array_equal(single.values, want) and single.kind == "real"
            assert_owns_copy_of_mask(single, field)
    for arrays, copies in zip(held, before):  # the shared decomposition is never modified
        assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))


@SETTINGS
@given(fields(kind="mask"), st.floats(0.0, 0.99))
def test_complementary_haar_bands_sum_to_input(group, where):
    # The partition holds for edges from the finest detail wavelength 2d up
    # to, not including, the padded-domain scale 2^(levels+1) d.
    field = group[0]
    d = field.spacing_deg
    n_levels = int(math.log2(min(next_pow2_dims(field.shape))))
    edge = d * 2.0 ** (1 + where * n_levels)
    decomposition, grid = wavelet_decompose(field.values), (field.shape, d)
    (low,) = wavelet_band_passes([decomposition], *grid, WavelengthBand(0.0, edge))
    (high,) = wavelet_band_passes([decomposition], *grid, WavelengthBand(edge, math.inf))
    assert np.abs(low + high - field.values).max() <= 1e-10


def spy_on_fields(monkeypatch):
    """The list every ``GridField`` built from now on is appended to."""
    built = []
    post_init = GridField.__post_init__
    monkeypatch.setattr(GridField, "__post_init__",
                        lambda self: (built.append(self), post_init(self))[1])
    return built


@SETTINGS
@given(fields(count=3), bands())
def test_band_passes_build_no_field(group, band):
    """The many-array band-passes and their transforms take and return
    arrays of the input grid's shape."""
    grid = group[0].shape, group[0].spacing_deg
    with pytest.MonkeyPatch.context() as mp:
        built = spy_on_fields(mp)
        for transform, band_passes in ((fourier_spectrum, fourier_band_passes),
                                       (wavelet_decompose, wavelet_band_passes)):
            outs = band_passes([transform(f.values) for f in group], *grid, band)
            assert len(outs) == len(group)
            assert all(isinstance(out, np.ndarray) and out.shape == grid[0] for out in outs)
    assert built == []


def test_band_passes_refuse_a_transform_of_another_grid():
    """A transform made from another grid than ``shape`` is refused with both
    shapes named, wherever it sits in the list: a Fourier spectrum of a
    16 x 16 grid (which numpy would refuse to broadcast, with its own text) and
    Haar decompositions of a 20 x 20 grid, padded to 32 x 32, and of a 16 x 16
    grid, padded as a 10 x 10 one is (either of which a crop to 10 x 10 would
    take silently); a decomposition names the shape it was made from."""
    rng = np.random.default_rng(8)
    band, ok = WavelengthBand(0.0, 0.1), rng.uniform(size=(10, 10))
    cases = [(fourier_spectrum, fourier_band_passes, 16, r"\(48, 25\).* 10x10 .*\(30, 16\)"),
             (wavelet_decompose, wavelet_band_passes, 20, r"\(20, 20\).* 10x10 .*\(10, 10\)"),
             (wavelet_decompose, wavelet_band_passes, 16, r"\(16, 16\).* 10x10 .*\(10, 10\)")]
    for transform, band_passes, side, named in cases:
        other = transform(rng.uniform(size=(side, side)))
        for transforms in ([other], [transform(ok), other]):
            with pytest.raises(ValueError, match=f"^a transform of shape {named}$"):
                band_passes(transforms, (10, 10), 0.02, band)
        assert band_passes([transform(ok)], (10, 10), 0.02, band)[0].shape == (10, 10)


@pytest.mark.parametrize("transform", [fourier_spectrum, wavelet_decompose])
@pytest.mark.parametrize("values, shape", [
    (np.ones(9), r"\(9,\)"),
    (np.ones((4, 4, 2)), r"\(4, 4, 2\)"),
    (np.ones((0, 3)), r"\(0, 3\)"),
    (np.where(np.eye(4) > 0, np.inf, 0.5), r"\(4, 4\)"),
], ids=["1-D", "3-D", "0x3", "inf"])
def test_transforms_refuse_all_but_a_finite_2d_array(transform, values, shape):
    """A spectral transform refuses, naming the shape, any array but a
    non-empty 2-D one of finite values, before numpy fails or warns on it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^a transform takes a non-empty 2-D array "
                                             f"of finite values, got one of shape {shape}$"):
            transform(values)


def test_wavelet_filter_builds_only_its_input_and_output_fields(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    write_grid(tmp_path / "in.grid", GridField(rng.uniform(size=(13, 10)), 0.02, "prob"))
    built = spy_on_fields(monkeypatch)
    assert main(["filter", "--spec", "W0-0.1", str(tmp_path / "in.grid"),
                 str(tmp_path / "out.grid")]) == 0
    assert len(built) == 2  # the padded grid is an array, not a field


# ---------------------------------------------------------------------------
# metric tables


@settings(max_examples=5, deadline=None)
@given(fields(count=3, kind="prob", min_side=8, max_side=14), st.integers(0, 2 ** 32 - 1))
def test_metric_tables_match_one_table_per_prediction(preds, seed):
    rng = np.random.default_rng(seed)
    first = preds[0]
    y = GridField((rng.uniform(size=first.shape) < 0.3).astype(float), first.spacing_deg,
                  "mask")
    configs = enumerate_configs()
    tables = metric_tables(configs, preds, y)
    assert len(tables) == len(preds)
    for p, table in zip(preds, tables):
        single = metric_table(configs, p, y)
        assert list(table) == list(single) == [s.spec_id for s in configs]
        assert all(table[k] == single[k] for k in single)


@pytest.mark.parametrize("masked", [False, True], ids=["plain", "eval-masked"])
def test_metric_tables_build_one_field_per_spectral_target(monkeypatch, masked):
    """Per step, the census builds one field per spectral filter, the clamped
    target with the observation's grid and eval mask, and none per band
    output, whatever the number of predictions."""
    rng = np.random.default_rng(9)
    shape = (12, 11)
    emask = rng.uniform(size=shape) < 0.8 if masked else None
    y = GridField((rng.uniform(size=shape) < 0.3).astype(float), 0.02, "mask", emask)
    preds = [GridField(rng.uniform(size=shape), 0.02, "prob") for _ in range(3)]
    configs = enumerate_configs()
    built = spy_on_fields(monkeypatch)
    metric_tables(configs, preds, y)
    assert len(built) == len({s.filter_id for s in configs if s.is_spectral}) == 32
    for field in built:
        assert field.kind == "prob" and field.shape == shape and field.spacing_deg == 0.02
        assert field.eval_mask is None if emask is None else np.array_equal(field.eval_mask,
                                                                            emask)


def test_census_score_builds_its_inputs_and_targets_only(tmp_path, monkeypatch):
    """A 2-model, 2-step ``score --all-336`` builds 70 fields: the 6 it reads
    and the 32 spectral targets of each step."""
    rng = np.random.default_rng(10)
    for step in range(2):
        write_grid(tmp_path / f"mask_{step}.grid",
                   GridField((rng.uniform(size=(9, 8)) < 0.3).astype(float), 0.02, "mask"))
        for model in "ab":
            write_grid(tmp_path / f"{model}_{step}.grid",
                       GridField(rng.uniform(size=(9, 8)), 0.02, "prob"))
    built = spy_on_fields(monkeypatch)
    assert main(["score", "--pred", f"a={tmp_path}/a_*.grid", "--pred", f"b={tmp_path}/b_*.grid",
                 "--obs", f"{tmp_path}/mask_*.grid", "--all-336",
                 "--out", str(tmp_path / "scores.csv")]) == 0
    assert len(built) == 6 + 2 * 32


def test_threads_sharing_the_cached_window_get_the_serial_results():
    # More threads than cores, switching often, all filling the window and
    # quarter-plane |nu| caches for a shape no other test uses.
    rng = np.random.default_rng(5)
    shape = (23, 17)
    y = GridField((rng.uniform(size=shape) < 0.3).astype(float), 0.02, "mask")
    preds = [GridField(rng.uniform(size=shape), 0.02, "prob") for _ in range(2)]
    specs = [s for s in enumerate_configs() if s.filter_kind == "F"]
    serial = metric_tables(specs, preds, y)
    fourier_mod._blackman_harris.cache_clear()
    fourier_mod._quarter_nu.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(metric_tables, specs, preds, y) for _ in range(12)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)
