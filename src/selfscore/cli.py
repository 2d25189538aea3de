"""Command-line front end for filtering, scoring, ranking, and diagnostics.

Subcommands
-----------
filter     apply one spatial filter to GRID1 fields, with a JSON sidecar
           recording the post-filter pixel sum
score      evaluate loss configs as metrics over matched prediction and
           observation files; one CSV row per (model, config)
eval       reliability + performance diagnostics with bootstrap intervals,
           written as a JSON + CSV report
rank       orientation-aware ranks from a scores CSV: rank matrix,
           per-filter summary, and per-filter winners
gradcheck  finite-difference verification of every config's analytic
           gradient on random fields
synth      deterministic synthetic event masks and forecast fields

All randomness is seeded (``--seed``).  Outputs are written atomically, never
over an input or over each other, and carry no timestamps, so a repeated
invocation is byte-identical.  Exit codes: 0 success, 1 validation/usage
error, 2 a ``gradcheck`` failure.
"""

from __future__ import annotations

import argparse
import glob as globmod
import math
import os
import re
import sys

import numpy as np

# Each command imports the modules it runs: ``synth`` loads no scoring layer.
from .grid import GridField, read_grid, write_csv, write_grid, write_json


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise, for ``main`` to refuse as it refuses a command's."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _bounded(cast, low, strict: bool = False):
    """argparse ``type=``: ``cast(text)``, refused below ``low`` (or at it, if
    strict) or, for a float, if not finite."""
    def parse(text: str):
        value = cast(text)
        if cast is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text!r}")
        return value
    parse.__name__ = cast.__name__  # keeps argparse's "invalid int value" wording
    return parse


def _parse_pair(parse, ordered: bool = False):
    """argparse ``type=``: two comma-separated values read by ``parse``, lo <= hi if ordered."""
    def pair(text: str) -> tuple:
        try:
            first, second = text.split(",")
            value = parse(first.strip()), parse(second.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentTypeError(
                f"want two comma-separated values, got {text!r} ({exc})") from None
        if ordered and value[0] > value[1]:
            raise argparse.ArgumentTypeError(f"want lo <= hi, got {text!r}")
        return value
    return pair


def _map(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]``, on ``jobs`` threads when that is more than one."""
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _expand_paths(text: str, option: str) -> list[str]:
    """Comma-separated paths/globs -> sorted concrete path list, never empty."""
    out: list[str] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        hits = sorted(globmod.glob(part))
        out.extend(hits if hits else [part])
    if not out:
        raise ValueError(f"{option}: {text!r} names no file")
    return out


def _naming(what: str, fn, *args):
    """``fn(*args)``, a ``ValueError`` or ``MemoryError`` raised again naming ``what``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    except MemoryError as exc:
        message = f"{what} does not fit in memory: {exc}"
    raise MemoryError(message)  # outside the handler, so the failed frames are freed


def _read_sides(obs_paths: list[str], sides: dict[str, str], outputs: list, dirs=(), check=None):
    """The observations at ``obs_paths`` and, per ``{option: text}`` side, the predictions
    paired with them: every pair checked (``scored_weights``, the one kind rule, then ``check``
    of the observation if given, naming both files) and ``outputs`` planned before any write."""
    from .scores import scored_weights
    obs = [read_grid(p) for p in obs_paths]
    inputs, preds = list(obs_paths), {}
    for option, text in sides.items():
        paths = _expand_paths(text, option)
        _check_pairing(paths, obs_paths, option)
        preds[option] = [read_grid(p) for p in paths]
        for path, obs_path, pred, y in zip(paths, obs_paths, preds[option], obs):
            _naming(f"{path} and {obs_path}", scored_weights, pred, y)
            if check is not None:
                _naming(f"{path} and {obs_path}", check, y)
        inputs += paths
    _plan_writes(inputs, outputs, dirs)
    return obs, preds


def _check_pairing(paths: list[str], obs_paths: list[str], what: str) -> None:
    """Files pair by sorted position: refuse unequal counts and, when every
    file on both sides has a step number (the last run of digits in its
    stem), a pair whose numbers differ."""
    if len(paths) != len(obs_paths):
        raise ValueError(f"{what} has {len(paths)} files but there are "
                         f"{len(obs_paths)} observations")
    steps = [[re.findall(r"\d+", os.path.splitext(os.path.basename(p))[0]) for p in side]
             for side in (paths, obs_paths)]
    if all(steps[0] + steps[1]):
        for path, obs_path, a, b in zip(paths, obs_paths, *steps):
            if int(a[-1]) != int(b[-1]):
                raise ValueError(f"{path} would be paired with {obs_path}, "
                                 f"but their step numbers differ")


def _select_specs(text: str | None) -> list:
    """The configs named by comma-separated spec ids (all 336 for None),
    one per canonical id (``brier_nbhd_r1,BRIER_nbhd_r1`` is one), sorted."""
    from .losses import enumerate_configs, parse_spec_id
    specs = (enumerate_configs() if text is None
             else [parse_spec_id(s) for s in text.split(",") if s.strip()])
    if not specs:
        raise ValueError(f"--specs: {text!r} names no config")
    return sorted({s.spec_id: s for s in specs}.values(), key=lambda s: s.spec_id)


def _plan_writes(inputs: list[str], outputs: list[tuple[str, str]], dirs) -> None:
    """Before any write, refuse a non-directory in ``dirs``, and an output that is an input,
    a directory to be made, another output (all as resolved paths) or a directory, or whose
    directory neither exists nor is in ``dirs``.  ``dirs`` are not made here: each appears with
    its first file (``atomic_write``).  ``outputs`` holds ``(path, what writes it)`` pairs."""
    for d in dirs:
        if os.path.exists(d) and not os.path.isdir(d):
            raise ValueError(f"directory {d} exists and is not a directory; nothing was written")
    made = {os.path.realpath(d): f"the directory {d}" for d in dirs}
    held = {**made, **{os.path.realpath(p): f"the input {p}" for p in inputs}}
    writers: dict[str, str] = {}
    for path, what in outputs:
        real = os.path.realpath(path)
        if real in writers:
            clash = f"would be written by both {writers[real]} and {what}"
        elif real in held:
            clash = f"would be written over {held[real]}"
        elif os.path.isdir(real):
            clash = "is a directory"
        elif not (os.path.isdir(os.path.dirname(real)) or os.path.dirname(real) in made):
            clash = f"is in {os.path.dirname(path)}, a directory that does not exist"
        else:
            writers[real] = what
            continue
        raise ValueError(f"output {path} {clash}; nothing was written")


# ---------------------------------------------------------------------------
# filter

def cmd_filter(args) -> int:
    from .losses import apply_filter, check_filter_input, filter_stages, parse_filter_id
    fspec = parse_filter_id(args.spec)
    if args.out_dir is None:
        if len(args.paths) != 2:
            raise ValueError("without --out-dir, give exactly one input and one output path")
        inputs = _expand_paths(args.paths[0], "paths")
        if len(inputs) != 1:
            raise ValueError("input glob matched more than one file; use --out-dir")
        pairs = [(inputs[0], args.paths[1])]
    else:
        inputs = [p for text in args.paths for p in _expand_paths(text, "paths")]
        pairs = [(p, os.path.join(args.out_dir, os.path.basename(p))) for p in inputs]
    if args.dump_stages is not None and len(pairs) != 1:
        raise ValueError("--dump-stages needs exactly one input field")

    # Every input parses, and is one the filter takes, before a write.
    fields = [read_grid(src) for src, _ in pairs]
    for (src, _), field in zip(pairs, fields):
        _naming(f"{src} under {fspec.filter_id}", check_filter_input, field, fspec.kind)
    stages = {}
    if args.dump_stages is not None:
        stages = {os.path.join(args.dump_stages, f"{name}.grid"): stage
                  for name, stage in filter_stages(fields[0], fspec).items()}
        if not stages:
            raise ValueError(f"--dump-stages takes a spectral filter, not {fspec.filter_id}")
    outputs = [(path, f"the {what} of {src}") for src, dst in pairs
               for path, what in ((dst, "filter"), (dst + ".json", "sidecar"))]
    _plan_writes(inputs, outputs + [(path, "--dump-stages") for path in stages],
                 [d for d in (args.dump_stages, args.out_dir) if d is not None])
    for path, stage in stages.items():
        write_grid(path, GridField(stage, fields[0].spacing_deg, "real"))

    def run_one(job: tuple[tuple[str, str], GridField]) -> None:
        (src, dst), field = job
        out = _naming(f"{src} ({field.rows}x{field.cols})", apply_filter, field, fspec)
        write_grid(dst, out)
        sidecar = {
            "filter_id": fspec.filter_id,
            "input": src,
            "rows": out.rows,
            "cols": out.cols,
            "spacing_deg": out.spacing_deg,
            "pixel_sum": float(out.values.sum()),
        }
        write_json(dst + ".json", sidecar)

    _map(run_one, list(zip(pairs, fields)), args.jobs)
    print(f"filtered {len(pairs)} field(s) with {fspec.filter_id}")
    return 0


# ---------------------------------------------------------------------------
# score

def _parse_model_args(pred_args: list[str]) -> list[tuple[str, str]]:
    models = []
    for text in pred_args:
        if "=" in text:
            name, paths = text.split("=", 1)
            name = name.strip()
        elif len(pred_args) == 1:
            name, paths = "model", text
        else:
            raise ValueError("with multiple --pred entries each needs a NAME= prefix")
        if not name:
            raise ValueError("empty model name in --pred")
        models.append((name, paths))
    if len({m for m, _ in models}) != len(models):
        raise ValueError("duplicate model names in --pred")
    return models


def cmd_score(args) -> int:
    from .losses import check_filter_input, metric_tables
    specs = _select_specs(args.specs)  # None under --all-336, which the parser keeps apart
    models = _parse_model_args(args.pred)
    obs_paths = _expand_paths(args.obs, "--obs")
    obs, sides = _read_sides(obs_paths, {f"--pred of model {name!r}": text
                                        for name, text in models}, [(args.out, "--out")],
                             check=lambda y: check_filter_input(y, *{s.filter_kind for s in specs}))

    def step_tables(i: int) -> list[dict]:
        return _naming(f"{obs_paths[i]} ({obs[i].rows}x{obs[i].cols})", metric_tables, specs,
                       [side[i] for side in sides.values()], obs[i])

    tables = _map(step_tables, range(len(obs)), args.jobs)

    rows = []
    for m, (name, _) in enumerate(models):
        for spec in specs:
            results = [step[m][spec.spec_id] for step in tables]
            flags = sorted({f for r in results for f in r.fallbacks})
            rows.append([name, spec.spec_id, np.mean([r.value for r in results]),
                         ";".join(flags)])
    rows.sort(key=lambda r: (r[0], r[1]))
    write_csv(args.out, ["model", "spec_id", "value", "fallbacks"], rows)
    print(f"wrote {len(rows)} rows ({len(models)} model(s) x {len(specs)} configs) "
          f"to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    from .evaluation import (_REPORT_FILES, attributes_diagram, bootstrap_ci, brier_parts,
                             consistency_bars, emit_report, paired_bootstrap_test,
                             performance_diagram, pooled_bs, pooled_bss)
    texts = {"--pred": args.pred, "--compare": args.compare}
    report = [os.path.join(args.out_dir, name) for name in _REPORT_FILES]
    obs, sides = _read_sides(_expand_paths(args.obs, "--obs"),
                             {k: v for k, v in texts.items() if v is not None},
                             [(path, "--out-dir") for path in report], (args.out_dir,))
    preds, cmp_preds = sides["--pred"], sides.get("--compare")

    attr = attributes_diagram(preds, obs)
    consistency_bars(attr, n_boot=args.n_boot_bars, seed=args.seed)
    perf = performance_diagram(preds, obs, np.linspace(0.0, 1.0, args.thresholds))

    parts = brier_parts(preds, obs)
    extra = {"bootstrap": {"n_boot": args.n_boot, "seed": args.seed,
                           "statistic_unit": "time step"}}
    for name, stat in (("bs", pooled_bs), ("bss", pooled_bss)):
        ci = bootstrap_ci(stat, parts, n_boot=args.n_boot, seed=args.seed)
        extra["bootstrap"][name] = dict(zip(("point", "lo", "hi"), ci))

    if cmp_preds is not None:
        result = paired_bootstrap_test(
            lambda s: pooled_bs([a for a, _ in s]), lambda s: pooled_bs([b for _, b in s]),
            list(zip(parts, brier_parts(cmp_preds, obs))), n_boot=args.n_boot, seed=args.seed)
        extra["compare"] = {
            "statistic": "pooled brier score", "diff": result.diff,
            "p_value": result.p_value, "significant_95": result.significant_95,
        }
        verdict = "significant" if result.significant_95 else "not significant"
        print(f"compare: diff={result.diff:.6g} p={result.p_value:.3f} ({verdict} at 95%)")

    json_path, csv_path = emit_report(attr, perf, args.out_dir, extra_sections=extra)
    print(f"BSS={attr.bss:.4f} REL={attr.rel:.6f} AUPD={perf.aupd:.4f}")
    print(f"wrote {json_path} and {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# rank

def _read_scores(path: str) -> MetricMatrix:
    """The models x configs matrix of a scores CSV.  A refusal names the
    file and, for a broken row, its line."""
    import csv
    import io
    from .losses import parse_spec_id
    from .ranking import MetricMatrix
    line = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(io.StringIO(fh.read(), newline=""))
        needed = {"model", "spec_id", "value"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ValueError(f"scores CSV must have columns {sorted(needed)}")
        cells: dict[tuple[str, str], float] = {}
        for rec in reader:  # a config is keyed by its canonical id, however it is spelled
            line, short = reader.line_num, [k for k in sorted(needed) if rec[k] is None]
            if short:
                raise ValueError(f"row has no {short[0]} cell")
            key, value = (rec["model"], parse_spec_id(rec["spec_id"]).spec_id), rec["value"]
            if key in cells:
                raise ValueError(f"duplicate row for model={key[0]!r} spec={key[1]!r}")
            cells[key] = float(value)
            if not np.isfinite(cells[key]):
                raise ValueError(f"value {value!r} is not finite")
        line = 0
        if not cells:
            raise ValueError("scores CSV is empty")
        models, spec_ids = sorted({m for m, _ in cells}), sorted({s for _, s in cells})
        missing = [(m, s) for m in models for s in spec_ids if (m, s) not in cells]
        if missing:
            raise ValueError(f"missing value for model={missing[0][0]!r} spec={missing[0][1]!r}")
        return MetricMatrix(models, [parse_spec_id(s) for s in spec_ids],
                            [[cells[m, s] for s in spec_ids] for m in models])
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {f'line {line}: ' if line else ''}{exc}") from None


def cmd_rank(args) -> int:
    from .ranking import best_per_filter, filter_mean_ranks, rank_models
    matrix = _read_scores(args.scores)
    ranks = rank_models(matrix)
    fids, means = filter_mean_ranks(matrix, ranks)
    winners = best_per_filter(matrix, fids, means)
    overall = ranks.mean(axis=1)

    paths = [os.path.join(args.out_dir, name)
             for name in ("ranks.csv", "filter_summary.csv", "winners.csv")]
    _plan_writes([args.scores], [(path, "--out-dir") for path in paths], (args.out_dir,))
    write_csv(paths[0], ["model"] + [s.spec_id for s in matrix.specs],
              [[m, *row] for m, row in zip(matrix.models, ranks)])
    write_csv(paths[1], ["model"] + list(fids),
              [[m, *row] for m, row in zip(matrix.models, means)])
    write_csv(paths[2], ["filter_id", "model", "mean_rank"],
              [[w.filter_id, w.model, w.mean_rank] for w in winners])

    order = np.argsort(overall, kind="stable")
    top = ", ".join(f"{matrix.models[i]} ({overall[i]:.2f})" for i in order[:3])
    print(f"ranked {matrix.n_models} models over {len(matrix.specs)} configs; "
          f"best mean ranks: {top}")
    print(f"wrote ranks.csv, filter_summary.csv, winners.csv to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck

def cmd_gradcheck(args) -> int:
    from .losses import grad_check, prepare_targets
    specs = _select_specs(args.specs)
    rng = np.random.default_rng(args.seed)
    shape = (args.rows, args.cols)
    # Keep clear of the cross-entropy clamp so its exclusion set is empty.
    p = GridField(rng.uniform(0.01, 0.99, size=shape), args.spacing, "prob")
    y = GridField((rng.uniform(size=shape) < 0.3).astype(np.float64), args.spacing, "mask")

    targets = _naming(f"--rows {args.rows} --cols {args.cols}", prepare_targets, specs, y)
    failures = 0
    print(f"{'spec':<24} {'checked':>8} {'excluded':>9} {'max_rel':>12}  status")
    for spec in specs:
        report = grad_check(spec, p, targets[spec.filter_id], step=args.step)
        ok = report.passed(rel_tol=args.tol)
        failures += 0 if ok else 1
        print(f"{report.spec_id:<24} {report.n_checked:>8} {report.n_excluded:>9} "
              f"{report.max_rel_diff:>12.3e}  {'ok' if ok else 'FAIL'}")
        if len(specs) == 1:
            print(f"worst pixel: {report.worst_pixel} "
                  f"(max abs diff {report.max_abs_diff:.3e})")
    if failures:
        print(f"{failures} of {len(specs)} configs exceeded rel tol {args.tol}",
              file=sys.stderr)
        return 2
    print(f"all {len(specs)} configs within rel tol {args.tol}")
    return 0


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    from .synthetic import SynthSpec, synth_mask, synth_prob
    if args.count == 1 and (args.out_mask is None or args.out_dir is not None):
        raise ValueError("a single step takes --out-mask (and --out-prob), not --out-dir")
    if args.count > 1 and (args.out_dir is None or (args.out_mask, args.out_prob) != (None, None)):
        raise ValueError("--count > 1 takes --out-dir, not --out-mask or --out-prob")

    steps = [(args.out_mask, args.out_prob)] if args.count == 1 else [
        tuple(os.path.join(args.out_dir, f"{kind}_{i:03d}.grid") for kind in ("mask", "prob"))
        for i in range(args.count)]
    _plan_writes([], [(path, option) for step in steps
                      for path, option in zip(step, ("--out-mask", "--out-prob")) if path],
                 [args.out_dir] if args.count > 1 else [])
    for i, (mask_path, prob_path) in enumerate(steps):
        spec = SynthSpec(rows=args.rows, cols=args.cols, spacing_deg=args.spacing,
                         n_cells=args.n_cells, radius_range=args.radius_range,
                         elongation_range=args.elongation_range, seed=args.seed + i)
        mask = synth_mask(spec)
        write_grid(mask_path, mask)
        print(f"{mask_path}: event_fraction={float(mask.values.mean()):.6f}")
        if prob_path is not None:
            prob = synth_prob(mask, blur_r=args.blur_r, offset_px=args.offset,
                              noise_sd=args.noise_sd, seed=spec.seed + 1)
            write_grid(prob_path, prob)
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selfscore",
                     description="Spatial filtering, scoring, and verification "
                                 "of gridded binary-event forecasts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "filter", help="apply one spatial filter to GRID1 fields",
        description="Apply a neighbourhood or spectral filter to GRID1 fields. "
                    "Writes the filtered field plus a .json sidecar with the "
                    "post-filter pixel sum.")
    p.add_argument("--spec", required=True,
                   help="filter id: nbhd_max_r<k>, nbhd_mean_r<k>, F<lo>-<hi>, W<lo>-<hi>")
    p.add_argument("paths", nargs="+",
                   help="IN OUT for a single field, or inputs/globs with --out-dir")
    p.add_argument("--out-dir", default=None, help="write outputs here, one per input")
    p.add_argument("--dump-stages", default=None, metavar="DIR",
                   help="also write each pipeline stage as a GRID1 field (single input only)")
    p.add_argument("--jobs", type=_bounded(int, 1), default=1,
                   help="parallel workers for many files")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser(
        "score", help="evaluate loss configs as metrics over field pairs",
        description="Score model predictions against observations under the "
                    "selected configs; values are averaged over time steps. "
                    "One CSV row per (model, config), sorted.")
    p.add_argument("--pred", action="append", required=True, metavar="NAME=PATHS",
                   help="prediction files/globs for one model (repeatable)")
    p.add_argument("--obs", required=True, help="observation mask files/globs")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--specs", default=None, help="comma-separated spec ids")
    which.add_argument("--all-336", action="store_true", dest="all_336",
                       help="use the full 336-config census")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--jobs", type=_bounded(int, 1), default=1,
                   help="parallel workers over time steps")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "eval", help="reliability and performance diagnostics report",
        description="Attributes-diagram and performance-diagram data with "
                    "bootstrap intervals, written as JSON + CSV.")
    p.add_argument("--pred", required=True, help="prediction files/globs")
    p.add_argument("--obs", required=True, help="observation mask files/globs")
    p.add_argument("--out-dir", required=True, help="report output directory")
    p.add_argument("--thresholds", type=_bounded(int, 1), default=101,
                   help="number of probability thresholds (default 101)")
    p.add_argument("--n-boot", type=_bounded(int, 1), default=1000, dest="n_boot",
                   help="bootstrap resamples for confidence intervals")
    p.add_argument("--n-boot-bars", type=_bounded(int, 1), default=100, dest="n_boot_bars",
                   help="resamples for reliability consistency bars")
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--compare", default=None, metavar="PATHS",
                   help="second model's prediction files: paired bootstrap test on "
                        "the pooled Brier score")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "rank", help="rank models from a scores CSV",
        description="Orientation-aware ranking: per-config ranks, mean rank "
                    "per filter, and the winning model under each filter.")
    p.add_argument("--scores", required=True, help="CSV from the score subcommand")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser(
        "gradcheck", help="verify analytic gradients by finite differences",
        description="Compare every config's analytic gradient against central "
                    "finite differences on a random field; exits 2 if any "
                    "config exceeds the tolerance away from documented "
                    "non-smooth points.")
    p.add_argument("--specs", default=None,
                   help="comma-separated spec ids (default: all 336)")
    p.add_argument("--rows", type=_bounded(int, 1), default=16)
    p.add_argument("--cols", type=_bounded(int, 1), default=16)
    p.add_argument("--spacing", type=_bounded(float, 0.0, strict=True), default=0.02,
                   help="grid spacing in degrees")
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--step", type=_bounded(float, 0.0, strict=True), default=1e-5,
                   help="finite-difference step")
    p.add_argument("--tol", type=_bounded(float, 0.0), default=1e-5, help="relative tolerance")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser(
        "synth", help="generate synthetic masks and forecasts",
        description="Deterministic synthetic event masks (union of random "
                    "elliptical cells) and optional derived forecast fields "
                    "(translate + blur + noise).")
    p.add_argument("--rows", type=_bounded(int, 1), default=205)
    p.add_argument("--cols", type=_bounded(int, 1), default=205)
    p.add_argument("--spacing", type=_bounded(float, 0.0, strict=True), default=0.02,
                   help="grid spacing in degrees")
    p.add_argument("--n-cells", type=_bounded(int, 0), default=12, dest="n_cells")
    p.add_argument("--radius-range", default="2,6",
                   type=_parse_pair(_bounded(float, 0.0, strict=True), ordered=True))
    p.add_argument("--elongation-range", default="1,3",
                   type=_parse_pair(_bounded(float, 1.0), ordered=True))
    p.add_argument("--seed", type=_bounded(int, 0), default=0,
                   help="mask seed; step i uses seed+i, noise uses seed+i+1")
    p.add_argument("--count", type=_bounded(int, 1), default=1,
                   help="generate this many time steps into --out-dir")
    p.add_argument("--out-mask", default=None, help="mask output path (count=1)")
    p.add_argument("--out-prob", default=None, help="forecast output path (count=1)")
    p.add_argument("--out-dir", default=None, help="output directory (count>1)")
    p.add_argument("--blur-r", type=_bounded(int, 0), default=0, dest="blur_r",
                   help="mean-filter half-width for the forecast")
    p.add_argument("--offset", type=_parse_pair(int), default="0,0",
                   help="forecast translation, pixels: dr,dc")
    p.add_argument("--noise-sd", type=_bounded(float, 0.0), default=0.0, dest="noise_sd")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Model names read back from a CSV can hold characters that the stdout
    # of an ASCII locale cannot encode: escape them, as stderr does.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = argparse.Namespace(command="selfscore")  # names a MemoryError raised while parsing
    try:
        args = build_parser().parse_args(argv)  # a usage error is a ValueError (_Parser)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        message = f"{args.command}: {str(exc) or 'out of memory'}"
    # Printed once the failed command's frames, and their arrays, are freed.
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
