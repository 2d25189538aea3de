"""Run workloads repeatedly and print each end-to-end metric's spread.

    python3 perfbench/spread.py                       # every workload, seeds 1-10
    python3 perfbench/spread.py --workload train-loop --seeds 1-5
    python3 perfbench/spread.py --sets 2              # the seed list twice

For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, against the metric's bound in
``BENCHMARK.json``: ``steady`` below a third of the bound, ``ok`` within
it, ``WIDE`` beyond.  ``setup_s`` has no spread limit.  With ``--sets 2`` it
also compares the two sets as a change would be compared with its parent:
the second median may not be worse than the first by more than the bound,
the failed share must be equal, and each seed's artefact hash must repeat.
Exits 1 when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    artefacts = next((ln.split()[1] for ln in lines if ln.startswith("artefacts ")), "")
    return json.loads(lines[-1]), artefacts


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of it."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    ok = True
    for wl in workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in seeds:
                result, artefacts = run_once(wl, seed, bench["run_seconds"])
                runs.append((seed, result, artefacts))
                print(f"{wl} set {k + 1} seed {seed}: attempted {result['attempted']} "
                      f"failed {result['failed']} correct {result['correct']}", flush=True)
            sets.append(runs)
        for k, runs in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for _, r, _ in runs}
            print(f"\n{wl} set {k + 1}: failed share {sorted(shares)}")
            print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for _, r, _ in runs])
                if name == "setup_s":
                    verdict = "-"
                else:
                    verdict = ("steady" if sp < metric["bound"] / 3 else
                               "ok" if sp <= metric["bound"] else "WIDE")
                    ok &= verdict != "WIDE"
                print(f"  {name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} "
                      f"{metric['bound']:6.2f}  {verdict}")
            ok &= len(shares) == 1 and all(r["correct"] for _, r, _ in runs)
        if len(sets) == 2:
            print(f"\n{wl}: second set against the first")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                a, b = ([r["metrics"][name]["value"] for _, r, _ in runs] for runs in sets)
                w = worse_by(statistics.median(a), statistics.median(b), metric["better"])
                good = w <= metric["bound"]
                ok &= good
                print(f"  {name:24} worse by {w:+.4f} (bound {metric['bound']})"
                      f"  {'ok' if good else 'REGRESSED'}")
            same = [s for (s, _, a1), (_, _, a2) in zip(*sets) if a1 == a2]
            shares = [{r["failed"] / r["attempted"] for _, r, _ in runs} for runs in sets]
            ok &= len(same) == len(seeds) and shares[0] == shares[1]
            print(f"  artefacts repeat for {len(same)} of {len(seeds)} seeds; "
                  f"failed shares {sorted(shares[0])} vs {sorted(shares[1])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
