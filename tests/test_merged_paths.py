"""Tests for the shared filter-and-score core.

One spectral dispatch serves ``apply_filter``, ``metric_value`` and the
filter walk; one filter walk serves ``prepare_targets`` (and so
``prepare_target`` and ``gradcheck``) and ``metric_tables``; one record
dispatch serves ``metric_tables``, ``loss_detail``, ``loss_gradient`` and
``grad_check``; one grammar helper serves both id parsers; one atomic
writer serves GRID1 files, reports and CSVs.  These tests pin what each
shared path must keep doing for all of its callers.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfscore import losses
from selfscore.evaluation import (attributes_diagram, emit_report, performance_diagram,
                                  write_csv)
from selfscore.grid import GridField, WavelengthBand, write_grid
from selfscore.losses import (FilterSpec, LossSpec, enumerate_configs, loss_detail,
                              parse_filter_id, parse_spec_id, prepare_target,
                              prepare_targets)
from selfscore.scores import ORIENTATION, nbhd_score_detail, pixelwise_score_detail

SPACING = 0.05


def prob(values):
    return GridField(np.asarray(values, dtype=float), SPACING, "prob")


def mask(values):
    return GridField(np.asarray(values, dtype=float), SPACING, "mask")


def random_pair(seed, shape=(14, 15)):
    rng = np.random.default_rng(seed)
    return (prob(rng.uniform(0.01, 0.99, shape)),
            mask((rng.random(shape) < 0.3).astype(float)))


# ---------------------------------------------------------------------------
# Spectral dispatch: every caller reaches the module's current bindings.

def spy(monkeypatch, *names):
    """Rebind ``names`` on ``selfscore.losses``, as a tracer does, to wrappers
    that record (name, args, kwargs) in the returned list."""
    calls = []

    def wrap(name):
        real = getattr(losses, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args, kwargs))
            return real(*args, **kwargs)
        monkeypatch.setattr(losses, name, wrapper)

    for name in names:
        wrap(name)
    return calls


def test_spectral_callers_reach_rebound_names_positionally(monkeypatch):
    """A tracer rebinds the spectral names on ``selfscore.losses`` and reads
    ``args[0], args[1]`` as (field or fields, band); every spectral caller
    must go through those names with them positional."""
    calls = spy(monkeypatch, "fourier_band_pass", "fourier_spectrum", "fourier_band_passes",
                "wavelet_band_passes")
    p, y = random_pair(1)
    band = WavelengthBand(0.1, 0.4)

    def reached(name):
        """The arguments of the one call made to ``name``."""
        (args,) = [a for n, a, _ in calls if n == name]
        return args

    out = losses.apply_filter(p, FilterSpec("F", band=band))
    args = reached("fourier_band_pass")
    assert args[0] is p and args[1] == band
    assert out.shape == p.shape
    calls.clear()

    prepare_target(LossSpec("brier", "F", band=band), y)
    assert reached("fourier_spectrum")[0] is y
    spectra, got_band = reached("fourier_band_passes")
    assert [s.field for s in spectra] == [y] and got_band == band
    assert "fourier_band_pass" not in [n for n, _, _ in calls]
    calls.clear()

    specs = [LossSpec("brier", "F", band=band), LossSpec("fss", "W", band=band)]
    losses.metric_tables(specs, [p], y)
    spectra = [a for n, a, _ in calls if n == "fourier_spectrum"]
    assert [len(a) for a in spectra] == [1, 1]
    assert spectra[0][0] is y and spectra[1][0] is p
    for name in ("fourier_band_passes", "wavelet_band_passes"):
        args = reached(name)
        assert len(args) == 2 and len(args[0]) == 2 and args[1] == band


# ---------------------------------------------------------------------------
# One filter walk: prepare_targets transforms the observation once per method.

@pytest.mark.parametrize("masked", [False, True], ids=["plain", "eval-masked"])
def test_prepare_targets_transforms_once_and_matches_prepare_target(monkeypatch, masked):
    """The 40 filters of the census need one Fourier spectrum and one Haar
    pyramid of the observation, and each target is the one ``prepare_target``
    makes for a spec of its filter, bit for bit."""
    _, y = random_pair(5, shape=(20, 23))
    if masked:
        y = GridField(y.values, SPACING, "mask", np.random.default_rng(6).random(y.shape) < 0.7)
    configs = enumerate_configs()
    calls = spy(monkeypatch, "fourier_spectrum", "wavelet_decompose")
    targets = prepare_targets(configs, y)
    assert sorted(n for n, _, _ in calls) == ["fourier_spectrum", "wavelet_decompose"]
    assert all(args[0] is y for _, args, _ in calls)
    assert list(targets) == list(dict.fromkeys(s.filter_id for s in configs))
    assert len(targets) == 40
    for spec in configs:
        got, want = targets[spec.filter_id], prepare_target(spec, y)
        assert got.spec.filter_id == spec.filter_id and got.observed is y
        assert got.filtered.values.tobytes() == want.filtered.values.tobytes(), spec.spec_id
        assert np.array_equal(got.filtered.eval_mask, want.filtered.eval_mask)
        assert got.clamp_max_abs == want.clamp_max_abs, spec.spec_id
        assert (got.nbhd is None) == spec.is_spectral
        assert got.nbhd is None or got.nbhd.r == want.nbhd.r == spec.half_width


# ---------------------------------------------------------------------------
# Loss core: loss_detail is the oriented score, fallbacks included.

ZERO_FIELD_FALLBACKS = {
    "fss_zero_reference", "iou_zero_union", "csi_zero_denominator",
    "heidke_zero_denominator", "peirce_empty_class", "gerrity_zero_event_ratio",
    "nbhd_csi_pod_undefined", "nbhd_csi_sr_undefined",
}


@pytest.mark.parametrize("fields", ["random", "zero"])
def test_loss_detail_is_the_oriented_score_for_every_config(fields):
    if fields == "random":
        p, y = random_pair(2)
    else:
        p, y = prob(np.zeros((9, 11))), mask(np.zeros((9, 11)))
    targets = prepare_targets(enumerate_configs(), y)
    fired = set()
    for spec in enumerate_configs():
        target = targets[spec.filter_id]
        if spec.filter_kind == "nbhd":
            ref = nbhd_score_detail(spec.score, p, y, spec.half_width)
        else:
            ref = pixelwise_score_detail(spec.score, p, target.filtered)
        want = ref.value if ORIENTATION[spec.score] < 0 else 1.0 - ref.value
        got = loss_detail(spec, p, target)
        assert got.value == want, spec.spec_id
        assert got.fallbacks == ref.fallbacks, spec.spec_id
        fired.update(got.fallbacks)
    assert fired == (ZERO_FIELD_FALLBACKS if fields == "zero" else set())


# ---------------------------------------------------------------------------
# One atomic writer: a failed rename leaves the old file and no temp file.

def test_failed_rename_keeps_old_files_and_leaves_no_temp(tmp_path, monkeypatch):
    p, y = random_pair(3, shape=(8, 8))
    grid_path = tmp_path / "field.grid"
    csv_path = tmp_path / "table.csv"
    report_dir = tmp_path / "report"
    write_grid(grid_path, p)
    write_csv(csv_path, ["model", "value"], [["a,b", "1.0"]])
    json_path, report_csv = emit_report(attributes_diagram(p, y),
                                        performance_diagram(p, y, np.linspace(0, 1, 5)),
                                        report_dir)
    before = {path: open(path, "rb").read()
              for path in (grid_path, csv_path, json_path, report_csv)}

    def refuse(src, dst):
        raise OSError(f"refused to rename {src} to {dst}")
    monkeypatch.setattr(os, "replace", refuse)
    q, z = random_pair(4, shape=(8, 8))
    with pytest.raises(OSError, match="refused"):
        write_grid(grid_path, q)
    with pytest.raises(OSError, match="refused"):
        write_csv(csv_path, ["model", "value"], [["c", "2.0"]])
    with pytest.raises(OSError, match="refused"):
        emit_report(attributes_diagram(q, z),
                    performance_diagram(q, z, np.linspace(0, 1, 7)), report_dir)

    for path, data in before.items():
        assert open(path, "rb").read() == data, path
    assert [path.name for path in tmp_path.rglob("*.tmp")] == []


# ---------------------------------------------------------------------------
# One grammar: every parsed id reads back as the same spec.

SPEC_GRAMMAR = "grammar: <score>_nbhd_r<half_width>"
FILTER_GRAMMAR = "grammar: nbhd_max_r<half_width>"
FILTER_PART = (r"(nbhd_r[0-9]{1,3}|nbhd_(max|mean|MAX)_r[0-9]{1,3}"
               r"|[FWfwQ][0-9.]{1,12}-([0-9.]{1,12}|inf|INF))")
SPEC_TEXT = st.one_of(
    st.text(max_size=40),
    st.from_regex(rf"(brier|FSS|csi|heidke|gerrity|x)_{FILTER_PART}", fullmatch=True))
FILTER_TEXT = st.one_of(st.text(max_size=40), st.from_regex(FILTER_PART, fullmatch=True))


@settings(max_examples=300, deadline=None)
@given(SPEC_TEXT)
@example("brier_F0.1234567-1")  # 7 significant digits
@example("csi_W0.00001-inf")    # an edge below 1e-4
@example("fss_F0-1234567")      # an edge of 1e6 or more
@example("heidke_nbhd_r2")      # a score with no neighbourhood form
@example("brier_nbhd_max_r2")   # the filter grammar's form
def test_spec_id_parses_to_a_fixed_point_or_cites_its_grammar(text):
    try:
        spec = parse_spec_id(text)
    except ValueError as exc:
        assert SPEC_GRAMMAR in str(exc)
        return
    assert parse_spec_id(spec.spec_id) == spec
    assert parse_spec_id(spec.spec_id).spec_id == spec.spec_id


@settings(max_examples=300, deadline=None)
@given(FILTER_TEXT)
@example("F0.1234567-1")
@example("W0.00001-inf")
@example("nbhd_r2")  # the spec grammar's form
@example("nbhd_max_r-1")
def test_filter_id_parses_to_a_fixed_point_or_cites_its_grammar(text):
    try:
        fspec = parse_filter_id(text)
    except ValueError as exc:
        assert FILTER_GRAMMAR in str(exc)
        return
    assert parse_filter_id(fspec.filter_id) == fspec
    assert parse_filter_id(fspec.filter_id).filter_id == fspec.filter_id
