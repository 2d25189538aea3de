"""Haar transform exactness and band-pass coefficient bookkeeping."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from selfscore.grid import GridField, WavelengthBand
from selfscore.wavelet import (haar_forward, haar_inverse, wavelet_band_pass, wavelet_decompose,
                               wavelet_stages)

from _spectral import haar_reconstruct


def _field(values, spacing=0.0125, kind="real"):
    return GridField(np.asarray(values, dtype=np.float64), spacing, kind)


# ---------------------------------------------------------------------------
# one-step transform

def test_haar_forward_known_block():
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    ll, lh, hl, hh = haar_forward(block)
    assert ll[0, 0] == (1 + 2 + 3 + 4) / 2.0
    assert lh[0, 0] == (1 + 2 - 3 - 4) / 2.0
    assert hl[0, 0] == (1 - 2 + 3 - 4) / 2.0
    assert hh[0, 0] == (1 - 2 - 3 + 4) / 2.0


def test_haar_round_trip_exact():
    rng = np.random.default_rng(10)
    for shape in ((2, 2), (8, 6), (16, 16)):
        values = rng.normal(size=shape)
        back = haar_inverse(*haar_forward(values))
        assert np.abs(back - values).max() < 1e-12


def test_haar_preserves_energy():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(32, 32))
    ll, lh, hl, hh = haar_forward(values)
    coeff_energy = sum(float(np.sum(s ** 2)) for s in (ll, lh, hl, hh))
    assert coeff_energy == pytest.approx(float(np.sum(values ** 2)), rel=1e-12)


def test_haar_rejects_odd_dims():
    with pytest.raises(ValueError):
        haar_forward(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        haar_forward(np.zeros((4, 7)))


def test_haar_inverse_rejects_mismatched_subbands():
    ll, lh, hl, hh = haar_forward(np.zeros((4, 6)))
    for bands in ((ll, lh, hl, hh[:, :2]), (ll.T, lh, hl, hh), (ll, lh[:1], hl, hh)):
        with pytest.raises(ValueError, match="subband shapes must match"):
            haar_inverse(*bands)


# ---------------------------------------------------------------------------
# pyramid

def test_pyramid_round_trip_and_shapes():
    rng = np.random.default_rng(12)
    values = rng.normal(size=(32, 32))
    decomposition = wavelet_decompose(values)
    assert len(decomposition.details) == 5
    assert decomposition.details[0][0].shape == (16, 16)
    assert decomposition.coarsest.shape == (1, 1)
    back = haar_reconstruct(decomposition.details, decomposition.coarsest)
    assert np.abs(back - values).max() < 1e-10


# ---------------------------------------------------------------------------
# band-pass bookkeeping oracle
#
# On a 32x32 grid with spacing d the pyramid has 5 levels with detail
# wavelengths d*2^k.  A band (lo, hi] must retain the detail subbands of
# levels k <= k* with d*2^k > lo, where k* is the shallowest level with
# d*2^(k+1) > hi (all levels when none), and the deepest LL only when no
# level is cut off above.  We verify by probing: synthesise the spatial
# field of one coefficient and check the filter keeps or kills it.

def retained_oracle(n_levels, spacing, band):
    cut = [k for k in range(1, n_levels + 1)
           if spacing * 2.0 ** (k + 1) > band.hi_deg]
    k_star = min(cut) if cut else n_levels
    details = {k for k in range(1, n_levels + 1)
               if spacing * 2.0 ** k > band.lo_deg and k <= k_star}
    keep_ll = not cut
    return details, keep_ll


def coefficient_field(shape, n_levels, level, subband):
    """Spatial field of a single unit coefficient at (level, subband)."""
    rows, cols = shape
    details = [tuple(np.zeros((rows >> k, cols >> k)) for _ in range(3))
               for k in range(1, n_levels + 1)]
    sub = details[level - 1][("lh", "hl", "hh").index(subband)]
    sub[sub.shape[0] // 2, sub.shape[1] // 2] = 1.0
    return haar_reconstruct(details, np.zeros((rows >> n_levels, cols >> n_levels)))


@pytest.mark.parametrize("lo,hi", [
    (0.0, 0.025), (0.025, 0.05), (0.05, 0.1), (0.1, 0.2), (0.2, math.inf),
    (0.0, 0.1), (0.05, math.inf), (0.0, math.inf),
])
def test_band_pass_keeps_exactly_the_retained_coefficients(lo, hi):
    shape, spacing, n_levels = (32, 32), 0.0125, 5
    band = WavelengthBand(lo, hi)
    details, keep_ll = retained_oracle(n_levels, spacing, band)
    for level in range(1, n_levels + 1):
        values = coefficient_field(shape, n_levels, level, "lh")
        out = wavelet_band_pass(_field(values, spacing), band)
        if level in details:
            assert_allclose(out.values, values, atol=1e-10,
                            err_msg=f"level {level} detail should pass {band}")
        else:
            assert_allclose(out.values, 0.0, atol=1e-10,
                            err_msg=f"level {level} detail should be blocked by {band}")
    constant = np.ones(shape)  # pure deep-LL content
    out = wavelet_band_pass(_field(constant, spacing), band)
    if keep_ll:
        assert_allclose(out.values, constant, atol=1e-10)
    else:
        assert_allclose(out.values, 0.0, atol=1e-10)


def test_census_band_level_mapping():
    # spacing 0.0125 puts the octave edges exactly on the dyadic ladder
    spacing, n_levels = 0.0125, 8
    cases = {
        (0.0, 0.025): ({1}, False),
        (0.025, 0.05): ({2}, False),
        (0.8, 1.6): ({7}, False),
        (1.6, math.inf): ({8}, True),
        (0.0, 0.8): ({1, 2, 3, 4, 5, 6}, False),
        (0.4, math.inf): ({6, 7, 8}, True),
    }
    for (lo, hi), want in cases.items():
        got = retained_oracle(n_levels, spacing, WavelengthBand(lo, hi))
        assert got == want, (lo, hi)


def test_all_pass_is_identity_even_for_awkward_shapes():
    rng = np.random.default_rng(13)
    for shape in ((32, 32), (21, 13), (5, 17)):
        values = rng.normal(size=shape)
        out = wavelet_band_pass(_field(values), WavelengthBand(0.0, math.inf))
        assert out.shape == shape
        assert np.abs(out.values - values).max() < 1e-10


def test_complementary_bands_partition_every_coefficient():
    rng = np.random.default_rng(14)
    spacing = 0.0125
    for edge in (0.025, 0.05, 0.1, 0.2, 0.4):
        values = (rng.uniform(size=(24, 18)) < 0.3).astype(float)
        f = _field(values, spacing, kind="mask")
        low = wavelet_band_pass(f, WavelengthBand(0.0, edge))
        high = wavelet_band_pass(f, WavelengthBand(edge, math.inf))
        assert_allclose(low.values + high.values, values, atol=1e-10)


def test_non_dyadic_edge_partition_still_holds():
    # the partition property needs no dyadic alignment, only an edge between
    # the finest detail wavelength and the padded-domain scale
    rng = np.random.default_rng(15)
    values = rng.normal(size=(16, 16))
    f = _field(values, spacing=0.02)
    for edge in (0.05, 0.13, 0.31):
        low = wavelet_band_pass(f, WavelengthBand(0.0, edge))
        high = wavelet_band_pass(f, WavelengthBand(edge, math.inf))
        assert_allclose(low.values + high.values, values, atol=1e-10)


def test_band_inside_one_octave_blocks_everything():
    # (2d, 3d] contains no dyadic wavelength: nothing may pass, in
    # particular no leakage of deeper out-of-band details
    rng = np.random.default_rng(16)
    values = rng.normal(size=(32, 32))
    out = wavelet_band_pass(_field(values, spacing=1.0), WavelengthBand(2.0, 3.0))
    assert_allclose(out.values, 0.0, atol=1e-10)


def test_eval_mask_preserved_and_kind_real():
    emask = np.zeros((10, 10), dtype=bool)
    emask[1:9, 1:9] = True
    f = GridField(np.ones((10, 10)), 0.0125, "prob", emask)
    out = wavelet_band_pass(f, WavelengthBand(0.0, 0.1))
    assert out.kind == "real"
    assert_array_equal(out.eval_mask, emask)


def test_stages_exposed():
    f = _field(np.random.default_rng(17).normal(size=(20, 20)))
    stages = wavelet_stages(f, WavelengthBand(0.0, 0.1))
    assert stages["padded"].shape == (32, 32)
    assert stages["full"].shape == (32, 32)
    assert wavelet_band_pass(f, WavelengthBand(0.0, 0.1)).shape == (20, 20)
