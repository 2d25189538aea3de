"""In-memory span tracer that wraps ``selfscore``'s public functions.

``Tracer.install()`` replaces every public function defined in a traced
module with a timing wrapper, in that module and in every other
``selfscore`` module that bound the same function object at import (for
example ``selfscore.losses.fourier_band_pass``), so calls are recorded
whichever name they go through.  ``uninstall()`` puts the originals back.

A span is (name, module, start, end, parent, extra).  Spans stay in memory;
``layer_metrics`` turns them into the per-layer figures, including each
module's self time: the span durations minus the part their child spans
cover.  Parents are tracked per thread, so the ``filter --jobs`` worker
threads nest their own spans.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import statistics
import threading
import time
from dataclasses import dataclass

LAYERS = ("grid", "neighbourhood", "fourier", "wavelet", "scores", "losses",
          "evaluation", "ranking", "synthetic", "cli")
CLI_COMMANDS = ("synth", "score", "rank", "filter", "eval")
# metric_table is split into one call per filter family so that each
# family's time is measured directly; the families share no filter, so the
# work and the results are those of the single call.
FAMILIES = ("nbhd", "F", "W")


@dataclass
class Span:
    name: str
    module: str
    start: float
    end: float
    parent: int
    extra: object = None


def _field_key(field) -> tuple:
    """Identity of a field by content: kind, spacing, values and mask."""
    h = hashlib.sha1(field.values.tobytes())
    if field.eval_mask is not None:
        h.update(field.eval_mask.tobytes())
    return field.kind, field.spacing_deg, field.values.shape, h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # (field, band) of every Fourier call; hashed after the run, so the
        # hashing is not timed inside any span.
        self.fourier_inputs: list = []
        self.bytes_written = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, module: str, fn, args, kwargs, extra=None):
        stack = self._stack()
        span = Span(name, module, 0.0, 0.0, stack[-1] if stack else -1, extra)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def _wrap(self, module: str, name: str, fn):
        tracer = self
        if module == "fourier" and name == "fourier_band_pass":
            def wrapper(*args, **kwargs):
                tracer.fourier_inputs.append((args[0], args[1]))
                return tracer.call(name, module, fn, args, kwargs)
        elif module == "grid" and name == "write_grid":
            def wrapper(*args, **kwargs):
                out = tracer.call(name, module, fn, args, kwargs)
                with tracer._lock:
                    tracer.bytes_written += os.path.getsize(args[0])
                return out
        elif module == "losses" and name == "loss_gradient":
            def wrapper(*args, **kwargs):
                spec = args[0]
                tag = "csi_nbhd" if spec.score == "csi" and spec.filter_kind == "nbhd" else None
                return tracer.call(name, module, fn, args, kwargs, extra=tag)
        elif module == "losses" and name == "metric_table":
            def family_call(specs, p, y):
                out = {}
                for fam in FAMILIES:
                    part = [s for s in specs if s.filter_kind == fam]
                    if part:
                        out.update(tracer.call(f"metric_table.{fam}", module, fn,
                                               (part, p, y), {}, extra=fam))
                return {s.spec_id: out[s.spec_id] for s in specs}

            def wrapper(specs, p, y):
                return tracer.call(name, module, family_call, (specs, p, y), {})
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, module, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"selfscore.{name}") for name in LAYERS}
        every = list(mods.values()) + [importlib.import_module("selfscore")]
        originals: dict[int, object] = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    originals[id(obj)] = self._wrap(layer, name, obj)
        for mod in every:
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, originals[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(self.spans):
            out[s.module] += (s.end - s.start) - child[i]
        return out

    def _calls(self, module: str, *names: str, extra=None, outermost=False) -> list[float]:
        """Durations of the spans of ``module`` (any name when none is given)."""
        out = []
        for s in self.spans:
            if s.module != module or (names and s.name not in names):
                continue
            if extra is not None and s.extra != extra:
                continue
            if outermost and s.parent >= 0 and self.spans[s.parent].module == module:
                continue
            out.append(s.end - s.start)
        return out

    def layer_metrics(self, steps_synthesised: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; a mean over no calls reads 0."""
        mean = lambda xs: statistics.fmean(xs) if xs else 0.0  # noqa: E731
        selfs = self.self_times()
        m: dict[str, tuple[float, str]] = {}
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}_s"] = (mean(self._calls("cli", f"cmd_{cmd}")), "s")
        reads = self._calls("grid", "read_grid")
        writes = self._calls("grid", "write_grid")
        m["grid.read_ms"] = (1e3 * mean(reads), "ms")
        m["grid.write_ms"] = (1e3 * mean(writes), "ms")
        m["grid.reads"] = (len(reads), "count")
        m["grid.writes"] = (len(writes), "count")
        m["grid.bytes_written"] = (self.bytes_written, "B")
        fbp = self._calls("fourier", "fourier_band_pass")
        m["fourier.band_pass_calls"] = (len(fbp), "count")
        m["fourier.band_pass_ms"] = (1e3 * mean(fbp), "ms")
        for key, name in (("window", "blackman_harris_weights"), ("gain", "butterworth_gain")):
            m[f"fourier.{key}_ms"] = (1e3 * mean(self._calls("fourier", name)), "ms")
        m["fourier.self_s"] = (selfs["fourier"], "s")
        keys: dict[int, tuple] = {}
        for field, _ in self.fourier_inputs:
            if id(field) not in keys:
                keys[id(field)] = _field_key(field)
        distinct = {(keys[id(f)], b.lo_deg, b.hi_deg) for f, b in self.fourier_inputs}
        m["fourier.distinct_input_ratio"] = (len(distinct) / len(fbp) if fbp else 0.0, "ratio")
        wbp = self._calls("wavelet", "wavelet_band_pass")
        m["wavelet.band_pass_calls"] = (len(wbp), "count")
        m["wavelet.band_pass_ms"] = (1e3 * mean(wbp), "ms")
        m["wavelet.self_s"] = (selfs["wavelet"], "s")
        for kind in ("max", "mean"):
            calls = self._calls("neighbourhood", f"{kind}_filter_array")
            m[f"neighbourhood.{kind}_filter_calls"] = (len(calls), "count")
        m["neighbourhood.self_s"] = (selfs["neighbourhood"], "s")
        m["scores.score_calls"] = (len(self._calls(
            "scores", "pixelwise_score_detail", "pixelwise_score", "nbhd_score_detail",
            "nbhd_score", outermost=True)), "count")
        m["scores.self_s"] = (selfs["scores"], "s")
        tables = len(self._calls("losses", "metric_table"))
        for fam in FAMILIES:
            total = sum(self._calls("losses", f"metric_table.{fam}"))
            m[f"losses.metric_table_ms.{fam}"] = (1e3 * total / tables if tables else 0.0, "ms")
        for name in ("prepare_target", "loss_value", "loss_gradient"):
            m[f"losses.{name}_ms"] = (1e3 * mean(self._calls("losses", name)), "ms")
        m["losses.loss_gradient_ms.csi_nbhd"] = (
            1e3 * mean(self._calls("losses", "loss_gradient", extra="csi_nbhd")), "ms")
        m["losses.self_s"] = (selfs["losses"], "s")
        for key, names in (("attributes", ("attributes_diagram",)),
                           ("consistency", ("consistency_bars",)),
                           ("performance", ("performance_diagram",)),
                           ("bootstrap", ("bootstrap_ci", "paired_bootstrap_test")),
                           ("emit_report", ("emit_report",))):
            m[f"evaluation.{key}_ms"] = (1e3 * mean(self._calls("evaluation", *names)), "ms")
        rank_cmds = len(self._calls("cli", "cmd_rank"))
        ranking = sum(self._calls("ranking", outermost=True))
        m["ranking.rank_s"] = (ranking / max(1, rank_cmds), "s")
        synth = sum(self._calls("synthetic", outermost=True))
        m["synthetic.synth_ms"] = (1e3 * synth / max(1, steps_synthesised), "ms")
        return m
