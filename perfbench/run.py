"""Benchmark of selfscore on three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload census-compare --seed 1 --seconds 12 --trace 0

``--trace 0`` runs the program from outside (``python3 -m selfscore.cli``
child processes, or a ``train.py`` worker for train-loop), sets the inputs
up several times, repeats whole rounds of the workload for ``--seconds``,
checks every output and prints the end-to-end metrics.  ``--trace 1`` runs
the workload in this process, once plain and once with every public
function of selfscore wrapped by ``tracer.Tracer``, and prints the
per-layer metrics with the tracing overhead.

The last line of standard output is the JSON result.  A record with the
seed, ``nproc``, the Python, numpy and scipy versions, the run length, the
operation counts and the artefact hashes goes to
``perfbench/out/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))
ROWS = COLS = 205      # 3x Fourier pad 615 = 3 * 5 * 41, the slow size of the paper's grid
FILTER_EDGE = 0.2      # filter-report splits at this wavelength (degrees)


def child_env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


class Runner:
    """Runs ``selfscore`` commands in ``work``: as child processes, whose
    peak resident set it keeps, or through ``selfscore.cli.main`` here."""

    def __init__(self, work: Path, in_process: bool):
        self.work = work
        self.in_process = in_process
        self.peak_kb = 0

    def __call__(self, *argv) -> int:
        argv = [str(a) for a in argv]
        if self.in_process:
            from selfscore import cli
            cwd = os.getcwd()
            os.chdir(self.work)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    return cli.main(argv)
            finally:
                os.chdir(cwd)
        with open(self.work / "cli.log", "ab") as log:
            proc = subprocess.Popen([sys.executable, "-m", "selfscore.cli", *argv],
                                    cwd=self.work, env=child_env(), stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode


def sha256_files(base: Path, sub: str) -> str:
    """Hash of every file under ``base / sub``, names taken relative to ``base``."""
    h = hashlib.sha256()
    for p in sorted(p for p in (base / sub).rglob("*") if p.is_file()):
        h.update(str(p.relative_to(base)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Command-line workloads

class CliWorkload:
    """Inputs made by ``selfscore synth``; a round is a fixed list of
    (name, argv) commands, each writing its artefacts under ``out/<name>``."""

    stream = 0                 # random stream of the workload's seed
    models: tuple[str, ...] = ()
    steps = 0

    def __init__(self, seed: int, work: Path):
        import numpy as np
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng([seed, self.stream])
        self.synth_seed = int(self.rng.integers(1, 10 ** 6))
        dr, dc = (int(x) * int(s) for x, s in zip(self.rng.integers(2, 5, size=2),
                                                   self.rng.choice([-1, 1], size=2)))
        self.degrade = {"blur": ("--blur-r", 2, "--noise-sd", 0.05),
                        "shift": (f"--offset={dr},{dc}", "--blur-r", 1, "--noise-sd", 0.05)}

    def setup(self, run: Runner) -> None:
        """Synthesise the masks and each degraded model, then lay them out
        flat in ``in/`` as ``mask_NNN.grid`` and ``<model>_NNN.grid``."""
        for d in ("gen", "in"):
            shutil.rmtree(self.work / d, ignore_errors=True)
        made = [m for m in self.models if m in self.degrade]
        for m in made:
            rc = run("synth", "--rows", ROWS, "--cols", COLS, "--count", self.steps,
                     "--n-cells", 20, "--seed", self.synth_seed, "--out-dir", f"gen/{m}",
                     *self.degrade[m])
            if rc != 0:
                raise RuntimeError(f"synth for {m} exited {rc}")
        (self.work / "in").mkdir()
        for i in range(self.steps):
            mask = (self.work / f"gen/{made[0]}/mask_{i:03d}.grid").read_bytes()
            for m in made:
                if (self.work / f"gen/{m}/mask_{i:03d}.grid").read_bytes() != mask:
                    raise RuntimeError("synth made different masks from one seed")
                os.replace(self.work / f"gen/{m}/prob_{i:03d}.grid",
                           self.work / f"in/{m}_{i:03d}.grid")
            (self.work / f"in/mask_{i:03d}.grid").write_bytes(mask)
            if "truth" in self.models:
                # The observation itself, declared a probability forecast.
                magic, header, body = mask.split(b"\n", 2)
                header = header.replace(b" mask", b" prob")
                (self.work / f"in/truth_{i:03d}.grid").write_bytes(
                    b"\n".join((magic, header, body)))

    def read_inputs(self):
        import reference as ref
        obs = [ref.read_grid1(self.work / f"in/mask_{i:03d}.grid")[0] for i in range(self.steps)]
        preds = {m: [ref.read_grid1(self.work / f"in/{m}_{i:03d}.grid")[0]
                     for i in range(self.steps)] for m in self.models}
        return preds, obs


class CensusCompare(CliWorkload):
    """M models x N steps through ``score --all-336`` (one worker), then ``rank``."""

    stream = 1
    models = ("blur", "shift", "truth")
    steps = 2

    def ops(self):
        preds = [a for m in self.models for a in ("--pred", f"{m}=in/{m}_*.grid")]
        return [("score", ["score", *preds, "--obs", "in/mask_*.grid", "--all-336",
                           "--out", "out/score/scores.csv", "--jobs", 1]),
                ("rank", ["rank", "--scores", "out/score/scores.csv", "--out-dir", "out/rank"])]

    def units(self) -> dict:
        pairs = len(self.models) * self.steps
        return {"pairs": pairs, "evals": 336 * pairs, "steps": self.steps}

    def check(self) -> dict[str, list[str]]:
        import numpy as np
        import checks
        preds, obs = self.read_inputs()
        fails = {"score": [], "rank": []}
        try:
            with open(self.work / "out/score/scores.csv", newline="") as fh:
                values = {(r["model"], r["spec_id"]): float(r["value"])
                          for r in csv.DictReader(fh)}
            sampled = checks.sample_census_specs(np.random.default_rng([self.seed, 5]))
            fails["score"] += checks.check_scores(values, preds, obs, 0.02, "truth", sampled)
        except (OSError, ValueError, KeyError) as exc:
            fails["score"].append(f"scores: unreadable ({exc})")
        try:
            with open(self.work / "out/rank/ranks.csv", newline="") as fh:
                table = list(csv.reader(fh))
            rows = {r[0]: [float(x) for x in r[1:]] for r in table[1:]}
            fails["rank"] += checks.check_ranks(table[0][1:], rows, len(self.models))
        except (OSError, ValueError, IndexError) as exc:
            fails["rank"].append(f"ranks: unreadable ({exc})")
        return fails


class FilterReport(CliWorkload):
    """Every forecast under complementary Fourier and Haar band pairs, then
    ``eval --compare`` with bootstrap on the raw forecasts of two models."""

    stream = 2
    models = ("blur", "shift")
    steps = 4

    def filter_ids(self) -> list[str]:
        x = f"{FILTER_EDGE:g}"
        return [f"F0-{x}", f"F{x}-inf", f"W0-{x}", f"W{x}-inf"]

    def ops(self):
        jobs = min(2, NPROC)
        inputs = [f"in/{m}_*.grid" for m in self.models]
        ops = [(f"filter-{fid}", ["filter", "--spec", fid, *inputs,
                                  "--out-dir", f"out/filter-{fid}", "--jobs", jobs])
               for fid in self.filter_ids()]
        ops.append(("eval", ["eval", "--pred", f"in/{self.models[0]}_*.grid",
                             "--obs", "in/mask_*.grid", "--compare",
                             f"in/{self.models[1]}_*.grid", "--out-dir", "out/eval",
                             "--seed", self.seed]))
        return ops

    def units(self) -> dict:
        pairs = len(self.models) * self.steps
        return {"pairs": pairs, "evals": len(self.filter_ids()) * pairs, "steps": self.steps}

    def check(self) -> dict[str, list[str]]:
        import checks
        import reference as ref
        preds, obs = self.read_inputs()
        fails = {name: [] for name, _ in self.ops()}
        fourier = ref.FourierRef((ROWS, COLS), 0.02)
        edge = FILTER_EDGE
        for m in self.models:
            for i, x in enumerate(preds[m]):
                name = f"{m}_{i:03d}.grid"
                try:
                    out = {}
                    for fid in self.filter_ids():
                        path = self.work / f"out/filter-{fid}/{name}"
                        out[fid] = ref.read_grid1(path)[0]
                        sidecar = json.loads(Path(f"{path}.json").read_text())
                        fails[f"filter-{fid}"] += checks.check_sidecar(
                            sidecar, out[fid], fid, f"{fid} {name}")
                except (OSError, ValueError) as exc:
                    for fid in self.filter_ids():
                        fails[f"filter-{fid}"].append(f"{fid} {name}: unreadable ({exc})")
                    continue
                spectrum = fourier.spectrum(x)
                lo_f, hi_f, lo_w, hi_w = self.filter_ids()
                want = {lo_f: fourier.band_pass(x, 0.0, edge, spectrum),
                        hi_f: fourier.band_pass(x, edge, float("inf"), spectrum),
                        lo_w: ref.haar_band_pass(x, 0.02, 0.0, edge),
                        hi_w: ref.haar_band_pass(x, 0.02, edge, float("inf"))}
                for fid in self.filter_ids():
                    fails[f"filter-{fid}"] += checks.check_band_output(
                        out[fid], want[fid], f"{fid} {name}")
                for lo, hi, target in ((lo_f, hi_f, fourier.windowed_input(x)),
                                       (lo_w, hi_w, x)):
                    msgs = checks.check_complementary(out[lo], out[hi], target,
                                                      f"{lo} + {hi} {name}")
                    fails[f"filter-{lo}"] += msgs
                    fails[f"filter-{hi}"] += msgs
        try:
            report = json.loads((self.work / "out/eval/report.json").read_text())
            fails["eval"] += checks.check_report(report, preds[self.models[0]], obs,
                                                 preds[self.models[1]])
        except (OSError, ValueError, KeyError) as exc:
            fails["eval"].append(f"report: unreadable ({exc})")
        return fails


class Rounds:
    """Accumulates the rounds of a CLI workload: timing, operation counts,
    and the checks, made on the first round; a later round must reproduce
    the first one's artefacts byte for byte, so it fails what it failed."""

    def __init__(self, wl: CliWorkload):
        self.wl = wl
        self.round_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        self.first_failed: set[str] = set()
        self.messages: list[str] = []

    def run(self, run: Runner) -> None:
        shutil.rmtree(self.wl.work / "out", ignore_errors=True)
        ops = self.wl.ops()
        for name, _ in ops:
            (self.wl.work / "out" / name).mkdir(parents=True)
        t0 = time.perf_counter()
        codes = {name: run(*argv) for name, argv in ops}
        self.round_s.append(time.perf_counter() - t0)
        count = len(self.round_s)
        digests = {name: sha256_files(self.wl.work, f"out/{name}") for name, _ in ops}
        if not self.first:
            self.first = digests
            for name, msgs in self.wl.check().items():
                if msgs:
                    self.first_failed.add(name)
                    self.messages += msgs
        bad = set(self.first_failed)
        for name, code in codes.items():
            if code != 0:
                bad.add(name)
                self.messages.append(f"{name}: exit code {code} in round {count}")
            if digests[name] != self.first[name]:
                bad.add(name)
                self.messages.append(f"{name}: round {count} output differs from round 1")
        self.attempted += len(ops)
        self.failed += len(bad)


# ---------------------------------------------------------------------------
# Runs

def cli_untraced(wl: CliWorkload, seconds: float) -> dict:
    setup_runner = Runner(wl.work, in_process=False)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(setup_runner)
        setup_times.append(time.perf_counter() - t0)
    runner = Runner(wl.work, in_process=False)
    rounds = Rounds(wl)
    # Whole rounds, and no round that would end past ``seconds``.
    while not rounds.round_s or sum(rounds.round_s) + rounds.round_s[-1] <= seconds:
        rounds.run(runner)
    return {"setup": setup_times, "round_s": rounds.round_s, "units": wl.units(),
            "peak_kb": runner.peak_kb, "attempted": rounds.attempted, "failed": rounds.failed,
            "messages": rounds.messages, "artefacts": rounds.first}


def train_untraced(seed: int, seconds: float) -> dict:
    import train
    setup_times, result, peak_kb = [], None, 0
    for k in range(SETUP_REPEATS):
        full = k == SETUP_REPEATS - 1
        argv = [sys.executable, str(HERE / "train.py"), "--seed", str(seed),
                "--seconds", str(seconds)] + ([] if full else ["--setup-only"])
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
        first = proc.stdout.readline()
        setup_times.append(time.perf_counter() - t0)
        rest = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if first.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"train worker exited {proc.returncode}")
        if full:
            result = json.loads(rest.decode().strip().splitlines()[-1])
            peak_kb = usage.ru_maxrss
    evals = result["evals"] // result["rounds"]
    units = {"pairs": evals // 336, "evals": evals, "steps": train.STEPS}
    return {"setup": setup_times, "round_s": result["round_s"], "units": units,
            "peak_kb": peak_kb, "attempted": result["evals"],
            "failed": result["failed"], "messages": result["messages"],
            "artefacts": {"train": result["artefacts"]}}


def end_to_end(res: dict) -> dict:
    """Set-up median, the median round's rates and the peak resident set."""
    t = statistics.median(res["round_s"])
    return {"setup_s": (statistics.median(res["setup"]), "s"),
            "census.pairs_per_s": (res["units"]["pairs"] / t, "pairs/s"),
            "train.evals_per_s": (res["units"]["evals"] / t, "evals/s"),
            "report.steps_per_s": (res["units"]["steps"] / t, "steps/s"),
            "peak_rss_mb": (res["peak_kb"] / 1024.0, "MB")}


def import_seconds() -> float:
    """Fresh-interpreter import of selfscore.cli, less interpreter start-up."""
    def wall(code: str) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    return wall("import selfscore.cli") - wall("pass")


def traced(workload: str, seed: int, work: Path) -> dict:
    """One plain and one traced pass (set-up plus one round) in this process."""
    import train
    from tracer import Tracer

    tracer = Tracer()
    walls = []
    if workload == "train-loop":
        from selfscore.losses import enumerate_configs
        specs = enumerate_configs()
        passes = []
        for traced_pass in (False, True):
            if traced_pass:
                tracer.install()
            t0 = time.perf_counter()
            try:
                steps = train.make_inputs(seed)
                _, values, fields = train.run_round(steps, specs)
            finally:
                tracer.uninstall()
            walls.append(time.perf_counter() - t0)
            passes.append(train.digest(values, fields))
        fails = train.check_round(steps, specs, values, fields, seed)
        per_round = len(steps) * train.EPOCHS * len(specs)
        round_failed = min(per_round, sum(n for n, _ in fails))
        attempted, failed = 2 * per_round, 2 * round_failed
        messages = [m for _, m in fails]
        if passes[0] != passes[1]:
            failed = per_round + round_failed
            messages.append("train: traced round differs from the plain one")
        artefacts = {"train": passes[1]}
        synthesised = train.STEPS
    else:
        wl = CLI_WORKLOADS[workload](seed, work)
        runner = Runner(work, in_process=True)
        rounds = Rounds(wl)
        for traced_pass in (False, True):
            if traced_pass:
                tracer.install()
            t0 = time.perf_counter()
            try:
                wl.setup(runner)
                setup_s = time.perf_counter() - t0
                rounds.run(runner)  # times its commands, not its checks
            finally:
                tracer.uninstall()
            walls.append(setup_s + rounds.round_s[-1])
        attempted, failed, messages = rounds.attempted, rounds.failed, rounds.messages
        artefacts = rounds.first
        synthesised = wl.steps * sum(m in wl.degrade for m in wl.models)
    metrics = {"cli.import_s": (import_seconds(), "s")}
    metrics.update(tracer.layer_metrics(synthesised))
    metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "messages": messages, "artefacts": artefacts, "walls": walls}


CLI_WORKLOADS = {"census-compare": CensusCompare, "filter-report": FilterReport}


def versions() -> dict:
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted([*CLI_WORKLOADS, "train-loop"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "selfscore" / "__init__.py").is_file():
        print(f"error: no selfscore sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import selfscore
    if SRC not in Path(selfscore.__file__).resolve().parents:
        print(f"error: selfscore imported from {selfscore.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t_start = time.perf_counter()
    try:
        if args.trace:
            res = traced(args.workload, args.seed, work)
            metrics = res["metrics"]
        elif args.workload == "train-loop":
            res = train_untraced(args.seed, args.seconds)
            metrics = end_to_end(res)
        else:
            res = cli_untraced(CLI_WORKLOADS[args.workload](args.seed, work), args.seconds)
            metrics = end_to_end(res)
    except BaseException:
        print(f"work directory kept: {work}", file=sys.stderr)
        raise
    if res["messages"]:
        print(f"work directory kept: {work}", file=sys.stderr)
    else:
        shutil.rmtree(work)

    combined = hashlib.sha256(json.dumps(res["artefacts"], sort_keys=True).encode()).hexdigest()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": NPROC, **versions(),
              "wall_s": time.perf_counter() - t_start, "attempted": res["attempted"],
              "failed": res["failed"], "messages": res["messages"],
              "round_s": res.get("round_s"), "setup_runs_s": res.get("setup"),
              "artefacts": res["artefacts"], "artefacts_sha256": combined,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for m in res["messages"]:
        print(f"check: {m}")
    print(f"artefacts {combined} failed {res['failed']}/{res['attempted']}")
    print(json.dumps({"correct": not res["messages"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
