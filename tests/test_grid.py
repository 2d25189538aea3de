"""Field container invariants and GRID1 file round trips."""

import math

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_array_equal

from selfscore.fourier import fourier_stages
from selfscore.grid import (GridField, WavelengthBand, _centred, atomic_write, next_pow2_dims,
                           read_grid, write_csv, write_grid, write_json)
from selfscore.wavelet import wavelet_stages


def _field(values, kind="real", spacing=0.02, eval_mask=None):
    return GridField(np.asarray(values, dtype=np.float64), spacing, kind, eval_mask)


# ---------------------------------------------------------------------------
# GridField invariants

def test_values_are_immutable_float64():
    f = _field([[0.0, 1.0], [2.0, 3.0]])
    assert f.values.dtype == np.float64
    assert not f.values.flags.writeable
    with pytest.raises(ValueError):
        f.values[0, 0] = 9.0


def test_kind_contracts_enforced():
    with pytest.raises(ValueError):
        _field([[0.5]], kind="mask")
    with pytest.raises(ValueError):
        _field([[1.5]], kind="prob")
    with pytest.raises(ValueError):
        _field([[0.0]], kind="banana")
    _field([[0.0, 1.0]], kind="mask")
    _field([[0.0, 1.0]], kind="prob")
    _field([[-3.0, 7.0]], kind="real")


def test_non_finite_and_empty_rejected():
    with pytest.raises(ValueError):
        _field([[np.nan]])
    with pytest.raises(ValueError):
        _field([[np.inf]])
    with pytest.raises(ValueError):
        _field(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        _field(np.zeros(4))  # 1-D


def test_spacing_must_be_positive():
    with pytest.raises(ValueError):
        _field([[0.0]], spacing=0.0)
    with pytest.raises(ValueError):
        _field([[0.0]], spacing=-1.0)


def test_eval_mask_shape_checked():
    with pytest.raises(ValueError):
        _field(np.zeros((3, 3)), eval_mask=np.ones((2, 3), dtype=bool))
    f = _field(np.zeros((3, 3)), eval_mask=np.ones((3, 3), dtype=bool))
    assert f.eval_mask.dtype == bool
    assert not f.eval_mask.flags.writeable


def test_with_values_keeps_metadata():
    f = _field(np.zeros((2, 2)), kind="prob", spacing=0.5)
    g = f.with_values(np.full((2, 2), 0.25))
    assert g.kind == "prob" and g.spacing_deg == 0.5
    h = f.with_values(np.full((2, 2), -1.0), kind="real")
    assert h.kind == "real"


# ---------------------------------------------------------------------------
# WavelengthBand

def test_band_validation():
    WavelengthBand(0.0, 0.1)
    WavelengthBand(0.1, math.inf)
    with pytest.raises(ValueError):
        WavelengthBand(0.2, 0.1)
    with pytest.raises(ValueError):
        WavelengthBand(0.1, 0.1)
    with pytest.raises(ValueError):
        WavelengthBand(-0.1, 0.2)


# ---------------------------------------------------------------------------
# padding: ``_centred`` places a field in the padded grid of either spectral
# method, which ``fourier_stages`` and ``wavelet_stages`` show.

def test_next_pow2_dims():
    assert next_pow2_dims((205, 205)) == (256, 256)
    assert next_pow2_dims((256, 100)) == (256, 128)
    assert next_pow2_dims((1, 3)) == (1, 4)


def test_taper_pad_centers_with_odd_remainder_bottom_right():
    # rows: 2 -> 5: one above, two below; cols: 3 -> 6: one left, two right
    assert _centred((2, 3), (5, 6)) == (slice(1, 3), slice(1, 4))
    # The Haar grid of a 2x3 field is 2x4: the odd column goes right.
    f = _field(np.arange(6.0).reshape(2, 3))
    padded = wavelet_stages(f, WavelengthBand(0.0, math.inf))["padded"]
    assert padded.shape == (2, 4)
    assert_array_equal(padded[:, :3], f.values)
    assert padded.sum() == f.values.sum()


def test_taper_pad_round_trip_random_shapes():
    rng = np.random.default_rng(42)
    for _ in range(20):
        rows = int(rng.integers(1, 30))
        cols = int(rng.integers(1, 30))
        f = _field(rng.normal(size=(rows, cols)))
        target = (rows + int(rng.integers(0, 10)), cols + int(rng.integers(0, 10)))
        for s, n, t in zip(_centred((rows, cols), target), (rows, cols), target):
            assert (s.start, s.stop) == ((t - n) // 2, (t - n) // 2 + n)
        tapered = fourier_stages(f, WavelengthBand(0.0, math.inf))["tapered"]
        window = _centred((rows, cols), tapered.shape)
        assert_array_equal(tapered[window], f.values)
        assert np.count_nonzero(tapered) == np.count_nonzero(f.values)


def test_taper_pad_rejects_shrinking():
    with pytest.raises(ValueError):
        _centred((4, 4), (3, 8))


# ---------------------------------------------------------------------------
# GRID1 I/O

def test_round_trip_quantises_to_float32(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(7, 5)) * 100.0
    f = _field(values)
    path = tmp_path / "f.grid"
    write_grid(path, f)
    g = read_grid(path)
    assert g.kind == "real" and g.spacing_deg == f.spacing_deg
    assert_array_equal(g.values, values.astype("<f4").astype(np.float64))
    # a second write/read cycle is bit-stable
    path2 = tmp_path / "g.grid"
    write_grid(path2, g)
    assert path.read_bytes() == path2.read_bytes()


def test_round_trip_mask_and_eval_mask(tmp_path):
    rng = np.random.default_rng(1)
    values = (rng.uniform(size=(6, 9)) < 0.4).astype(np.float64)
    emask = rng.uniform(size=(6, 9)) < 0.8
    f = _field(values, kind="mask", eval_mask=emask)
    path = tmp_path / "m.grid"
    write_grid(path, f)
    g = read_grid(path)
    assert g.kind == "mask"
    assert_array_equal(g.values, values)
    assert_array_equal(g.eval_mask, emask)


def test_header_layout(tmp_path):
    f = _field(np.zeros((3, 4)), kind="prob", spacing=0.02)
    path = tmp_path / "h.grid"
    write_grid(path, f)
    blob = path.read_bytes()
    assert blob.startswith(b"GRID1\n3 4 0.02 prob\n")
    assert len(blob) == len(b"GRID1\n3 4 0.02 prob\n") + 3 * 4 * 4


def test_read_rejects_malformed(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_bytes(b"NOPE1\n2 2 0.02 real\n" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_grid(path)
    path.write_bytes(b"GRID1\n2 2 0.02 weird\n" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_grid(path)
    path.write_bytes(b"GRID1\n2 2 0.02 real\n" + b"\x00" * 15)  # short payload
    with pytest.raises(ValueError):
        read_grid(path)
    path.write_bytes(b"GRID1\n2 2 0.02 real masked\n" + b"\x00" * 16 + b"\x00\x01\x02\x00")
    with pytest.raises(ValueError):
        read_grid(path)  # mask byte 2
    path.write_bytes(b"GRID1\n2 2 0.02")
    with pytest.raises(ValueError):
        read_grid(path)  # truncated header


def test_write_is_atomic_no_temp_left_behind(tmp_path):
    f = _field(np.ones((2, 2)))
    path = tmp_path / "a.grid"
    write_grid(path, f)
    write_grid(path, f.with_values(np.zeros((2, 2))))
    assert read_grid(path).values.sum() == 0.0
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_writes_make_a_missing_directory(tmp_path, monkeypatch):
    """``write_grid``, ``write_csv``, ``write_json`` and ``atomic_write`` make their
    file's directory, nested ones included, so a directory appears with its first
    file; a bare file name is written in the working directory.  No temp file is left."""
    f = _field(np.ones((2, 3)))
    write_grid(tmp_path / "a" / "b" / "f.grid", f)
    write_csv(tmp_path / "c" / "t.csv", ["x", "y"], [[1, 0.5]])
    write_json(tmp_path / "e" / "f" / "j.json", {"x": [1, 0.5], "y": None})
    atomic_write(tmp_path / "d" / "raw.bin", b"xyz")
    monkeypatch.chdir(tmp_path)
    atomic_write("here.bin", b"abc")
    assert_array_equal(read_grid(tmp_path / "a" / "b" / "f.grid").values, f.values)
    assert (tmp_path / "c" / "t.csv").read_text() == "x,y\n1,0.5\n"
    assert (tmp_path / "e" / "f" / "j.json").read_bytes() == (
        b'{\n  "x": [\n    1,\n    0.5\n  ],\n  "y": null\n}\n')
    assert (tmp_path / "d" / "raw.bin").read_bytes() == b"xyz"
    assert (tmp_path / "here.bin").read_bytes() == b"abc"
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "a", "a/b", "a/b/f.grid", "c", "c/t.csv", "d", "d/raw.bin", "e", "e/f", "e/f/j.json",
        "here.bin"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_what_json_cannot_hold_and_writes_nothing(tmp_path, value):
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(tmp_path / "d" / "j.json", {"x": [1.0, value]})
    assert list(tmp_path.iterdir()) == []


def test_write_refuses_values_beyond_float32(tmp_path):
    big = float(np.finfo(np.float32).max)
    path = tmp_path / "big.grid"
    write_grid(path, _field([[big, -big]]))  # representable: written
    assert_array_equal(read_grid(path).values, [[big, -big]])
    for value in (2.0 * big, -1e300):
        with pytest.raises(ValueError, match=f"^{path}: .*float32"):
            write_grid(path, _field([[0.5, value]]))
    assert os.listdir(tmp_path) == ["big.grid"]
    assert_array_equal(read_grid(path).values, [[big, -big]])


ELEMENTS = {
    "mask": st.sampled_from([0.0, 1.0]),
    "prob": st.floats(0.0, 1.0),
    "real": st.floats(width=32, allow_nan=False, allow_infinity=False),
}


@st.composite
def grid_fields(draw):
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(sorted(ELEMENTS)))
    values = draw(hnp.arrays(np.float64, (rows, cols), elements=ELEMENTS[kind]))
    eval_mask = draw(st.none() | hnp.arrays(np.bool_, (rows, cols)))
    spacing = draw(st.floats(1e-6, 1e6))
    return GridField(values, spacing, kind, eval_mask)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(grid_fields())
def test_grid1_round_trips_any_field(tmp_path, field):
    path = tmp_path / "f.grid"
    write_grid(path, field)
    back = read_grid(path)
    assert (back.shape, back.kind, back.spacing_deg) == (field.shape, field.kind,
                                                          field.spacing_deg)
    assert back.values.tobytes() == field.values.astype("<f4").astype(np.float64).tobytes()
    if field.eval_mask is None:
        assert back.eval_mask is None
    else:
        assert_array_equal(back.eval_mask, field.eval_mask)
    blob = path.read_bytes()
    write_grid(path, back)
    assert path.read_bytes() == blob


def _valid_blob(rows, cols, kind, masked):
    header = f"GRID1\n{rows} {cols} 0.02 {kind}{' masked' if masked else ''}\n".encode()
    return header + b"\x00" * (rows * cols * (5 if masked else 4))


@st.composite
def fuzzed_blobs(draw):
    """A valid GRID1 blob with bytes flipped, cut, inserted or swapped in
    its header tokens, or arbitrary bytes."""
    blob = bytearray(_valid_blob(draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                                 draw(st.sampled_from(sorted(ELEMENTS))), draw(st.booleans())))
    edit = draw(st.sampled_from(["flip", "cut", "insert", "token", "random"]))
    if edit == "random":
        return draw(st.binary(max_size=120))
    if edit == "token":
        lines = bytes(blob).split(b"\n", 2)
        tokens = lines[1].split(b" ")
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from([b"", b"-1", b"0", b"nan", b"inf", b"-0.0", b"1e400",
                                          b"99999999999", b"1_0", b"masked", b"\xff",
                                          b"2.5", b"0x10"]))
        return b"\n".join([lines[0], b" ".join(tokens), lines[2]])
    at = draw(st.integers(0, len(blob)))
    if edit == "cut":
        return bytes(blob[:at])
    if edit == "insert":
        return bytes(blob[:at]) + draw(st.binary(min_size=1, max_size=8)) + bytes(blob[at:])
    for _ in range(draw(st.integers(1, 6))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_blobs())
def test_read_grid_raises_only_value_error_on_fuzzed_files(tmp_path, blob):
    path = tmp_path / "fuzz.grid"
    path.write_bytes(blob)
    try:
        field = read_grid(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert isinstance(field, GridField)


def test_a_field_owns_one_read_only_copy_of_what_it_is_given():
    values, mask = np.zeros((3, 3)), np.ones((3, 3), dtype=bool)
    view, mask_view = values[:], mask[:]
    f = _field(values, eval_mask=mask)
    view[:] = 7.0
    mask_view[:] = False
    assert values.flags.writeable and mask.flags.writeable
    assert (f.values == 0.0).all() and f.eval_mask.all()
    g = f.with_values(f.values)  # a field's own arrays are copied again
    assert g.values is not f.values and g.eval_mask is not f.eval_mask
    assert_array_equal(g.values, f.values)
    assert_array_equal(g.eval_mask, f.eval_mask)
    assert not (g.values.flags.writeable or g.eval_mask.flags.writeable)
    h = _field(f.values.astype(bool), eval_mask=f.values)  # a field's array, as another dtype
    assert h.eval_mask.dtype == bool and not h.eval_mask.any()


def test_fields_compare_and_hash_by_identity():
    p = _field(np.zeros((2, 2)))
    q = p.with_values(p.values)
    assert p == p and p != q
    assert p in [q, p] and q not in [p]
    assert {p: 1, q: 2}[q] == 2
