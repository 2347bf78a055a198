"""A/B pairs of benchmark runs: a base commit against the working tree, alternating.

Run from any directory:

    python tests/ab_pairs.py --base HEAD~1 --workload conjugated --workload corpus --seeds 101-120

The base commit's files are extracted with ``git archive`` into a temporary
directory, removed at the end.  For each workload and each seed, one pair
runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
that copy and once in this checkout; the side that runs first alternates
from pair to pair.  Every run must read ``"correct": true``.  Each pair's
line shows both runs' ``attempted`` counts, the items timed in each run, so a
report shows how many samples stand behind each median.

For each end-to-end metric of ``BENCHMARK.json`` it prints the median and
quartiles of both sides, the pairs the change wins (strictly better, in the
metric's direction), and whether the gain rule holds: the change wins at
least 9 of 10 pairs, and its median beats the base median by more than the
base's interquartile range.  Only the standard library is used, and the
name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """'101-120' or '1,2,7' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def extract(rev: str, dest: Path) -> None:
    """The committed files of rev, written under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict[str, float], int]:
    """The end-to-end metrics of one untraced run, from its last line of output, and its ``attempted`` count."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} is not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}, result["attempted"]


def summary(base: list[float], change: list[float], higher: bool) -> str:
    """Medians, quartiles, wins and the gain rule for one metric, on one line."""
    def quartiles(xs):
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        return med, q1, q3

    (bm, b1, b3), (cm, c1, c3) = quartiles(base), quartiles(change)
    sign = 1 if higher else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    holds = wins >= 0.9 * len(base) and sign * (cm - bm) > b3 - b1
    return f"{bm:.6g} [{b1:.6g}, {b3:.6g}] -> {cm:.6g} [{c1:.6g}, {c3:.6g}]  wins {wins}/{len(base)}  gain rule {'holds' if holds else 'fails'}"


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD~1", help="the commit to compare against (default HEAD~1)")
    ap.add_argument("--workload", action="append", required=True, choices=["corpus", "conjugated", "scaling"])
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-120 or 1,2,7")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        base_dir = Path(tmp)
        extract(args.base, base_dir)
        for workload in args.workload:
            results = {"base": [], "change": []}
            attempted = {"base": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = [("base", base_dir), ("change", ROOT)]
                for side, checkout in order if i % 2 == 0 else order[::-1]:
                    metrics_of_run, count = run(checkout, workload, seed, args.seconds)
                    results[side].append(metrics_of_run)
                    attempted[side].append(count)
                rates = " -> ".join(f"{results[side][-1]['items_per_s']:.1f}" for side in ("base", "change"))
                counts = " -> ".join(str(attempted[side][-1]) for side in ("base", "change"))
                print(f"{workload} seed {seed}: items_per_s {rates}  attempted {counts}", flush=True)
            print(f"\n{workload}, {len(args.seeds)} pairs, base {args.base}: median [Q1, Q3] base -> change")
            for m in metrics:
                base, change = ([r[m["name"]] for r in results[side]] for side in ("base", "change"))
                print(f"  {m['name']:16s} {summary(base, change, m['better'] == 'higher')}")
            print(flush=True)


if __name__ == "__main__":
    main()
