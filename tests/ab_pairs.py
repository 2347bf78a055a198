"""A/B pairs of benchmark runs: a base commit against the working tree, alternating.

Run from any directory:

    python tests/ab_pairs.py --base HEAD~1 --workload conjugated --workload corpus --seeds 101-120
    python tests/ab_pairs.py --base HEAD~1 --workload corpus --seeds 1-3 --trace
    python tests/ab_pairs.py --base HEAD~1 --workload corpus --seeds 101-110 --items

The base commit's files are extracted with ``git archive`` into a temporary
directory, removed at the end.  Before the first pair, ``src/`` and
``perfbench/`` of both checkouts are compiled to bytecode (``compileall``
writes it even under ``PYTHONDONTWRITEBYTECODE``), so that neither side's
fresh interpreters compile the package on import and bias ``setup_s`` or
``peak_rss_mb``.  For each workload and each seed, one pair
runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
that copy and once in this checkout; the side that runs first alternates
from pair to pair.  Each pair's line shows both runs' ``attempted`` counts,
the items timed in each run, so a report shows how many samples stand behind
each median.

For each end-to-end metric of ``BENCHMARK.json`` it prints the median and
quartiles of both sides, the pairs the change wins (strictly better, in the
metric's direction), and whether the gain rule holds: the change wins at
least 9 of 10 pairs, and its median beats the base median by more than the
base's interquartile range.  With fewer than ten pairs it prints "too few
pairs" in place of that verdict, as the rule needs ten.  A metric whose
runs read the same value on both sides of every pair prints "no change" in
place of the wins and the gain rule, which tests only a claimed gain.  Each line ends with the
no-regression verdict: how much worse the change's median is than the base
median, relative to the base median, against the metric's ``bound`` in
``BENCHMARK.json``; "within" when it is no worse than the bound allows.
When the base runs' interquartile range exceeds the bound, relative to the
base median, noise alone can move the median that far, so the verdict is
"unresolved" in place of "within" or "EXCEEDS", unless every change run is
better than every base run, which reads "within".

With ``--items`` the summary also gives, for each item of the workload, the
median over the pairs of its median scaled time in each run, on both sides,
the relative change and the pairs the change wins; each run's item times are
read from the JSON report it writes in its own checkout,
``perfbench/out/<workload>-seed<S>-trace0.json`` for an untraced run.  So a
gain can be traced to the items that carry it.

With ``--trace`` the same pairs run with ``--trace 1``.  Each pair's line
shows both sides' ``bench.span_coverage_ratio`` and ``correct``, and the
summary gives each side's coverage as min, median and max.  A traced run
reads incorrect when its coverage leaves the 0.2 tolerance around 1 or its
replay parts from the direct call.

Every run should read ``"correct": true``.  An incorrect run is marked on its
pair's line and the pairs go on; after the last pair the script lists the
incorrect runs and exits 1.  A run that exits nonzero ends the script: it
prints that run's workload, seed, side and exit code with the last lines of
its stderr, and exits 1.  A base that ``git archive`` cannot extract ends
it the same way, with the rev and git's message, or the error that kept git
from starting.  Only the standard library is used, and the name
does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COVERAGE = "bench.span_coverage_ratio"
MIN_PAIRS = 10  # the gain rule is read on at least this many pairs


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


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The last line of one run's output, ``correct``, ``attempted`` and ``metrics``, with each metric as its value;
    and ``items``, each item's median scaled time in seconds, read from the report the run wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd + ["--trace", str(int(trace))], cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    report = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    samples: dict[str, list[float]] = {}
    for record in json.loads(report.read_text())["items"]:
        samples.setdefault(record["item"], []).append(record["scaled"])
    result["items"] = {name: statistics.median(xs) for name, xs in samples.items()}
    return result


def summary(base: list[float], change: list[float], higher: bool, bound: float) -> str:
    """Medians, quartiles, wins, the gain rule and the no-regression verdict for one metric, on one line."""
    def quartiles(xs):
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        return med, q1, q3

    (bm, b1, b3), (cm, c1, c3) = quartiles(base), quartiles(change)
    sign = 1 if higher else -1
    if base == change:
        gain = "no change"
    else:
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        holds = wins >= 0.9 * len(base) and sign * (cm - bm) > b3 - b1
        rule = "too few pairs" if len(base) < MIN_PAIRS else f"gain rule {'holds' if holds else 'fails'}"
        gain = f"wins {wins}/{len(base)}  {rule}"
    # the change's shortfall in the metric's direction, as a share of the base median
    worse = sign * (bm - cm) / abs(bm) if bm else (0.0 if sign * (bm - cm) <= 0 else float("inf"))
    verdict = "within" if worse <= bound else "EXCEEDS"
    if b3 - b1 > bound * abs(bm):  # the base's own spread is wider than the bound
        verdict = "within" if all(sign * (c - b) > 0 for c in change for b in base) else "unresolved"
    return (f"{bm:.6g} [{b1:.6g}, {b3:.6g}] -> {cm:.6g} [{c1:.6g}, {c3:.6g}]  {gain}  "
            f"worse by {worse:+.1%}, bound {bound:.0%}: {verdict}")


def item_lines(base: list[dict], change: list[dict]) -> list[str]:
    """Per item: the median over the pairs of its scaled time on each side, in ms, the relative change and the wins."""
    lines = []
    for name in sorted(base[0]["items"]):
        b, c = ([r["items"][name] for r in runs] for runs in (base, change))
        bm, cm = statistics.median(b), statistics.median(c)
        wins = sum(y < x for x, y in zip(b, c))
        lines.append(f"  {name:16s} {1e3 * bm:9.4f} -> {1e3 * cm:9.4f} ms  {(cm - bm) / bm:+7.1%}  wins {wins}/{len(b)}")
    return lines


def pair_line(base: dict, change: dict, trace: bool) -> str:
    """One pair's figures, base -> change: coverage and correct when traced, else items_per_s and attempted."""
    if trace:
        return " -> ".join(f"coverage {r['metrics'][COVERAGE]:.3f} correct {str(r['correct']).lower()}" for r in (base, change))
    rates = " -> ".join(f"{r['metrics']['items_per_s']:.1f}" for r in (base, change))
    counts = " -> ".join(str(r["attempted"]) for r in (base, change))
    flag = "" if base["correct"] and change["correct"] else "  INCORRECT"
    return f"items_per_s {rates}  attempted {counts}{flag}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD~1", help="the commit to compare against (default HEAD~1)")
    ap.add_argument("--workload", action="append", required=True, choices=["corpus", "conjugated", "scaling"])
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-120 or 1,2,7")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", action="store_true", help="traced runs: report span coverage and correct")
    ap.add_argument("--items", action="store_true", help="also report each item's median scaled time on both sides")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    incorrect = []
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        base_dir = Path(tmp)
        try:
            extract(args.base, base_dir)
        except subprocess.CalledProcessError as exc:
            stderr = exc.stderr.decode(errors="replace").strip()
            print(f"cannot extract base {args.base}: git archive exited {exc.returncode}: {stderr}", flush=True)
            return 1
        except OSError as exc:  # git cannot start
            print(f"cannot extract base {args.base}: {exc}", flush=True)
            return 1
        for checkout in (base_dir, ROOT):
            for sub in ("src", "perfbench"):
                compileall.compile_dir(checkout / sub, quiet=2)
        for workload in args.workload:
            results = {"base": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = [("base", base_dir), ("change", ROOT)]
                for side, checkout in order if i % 2 == 0 else order[::-1]:
                    try:
                        result = run(checkout, workload, seed, args.seconds, args.trace)
                    except subprocess.CalledProcessError as exc:
                        tail = "".join(f"\n  {line}" for line in exc.stderr.splitlines()[-20:])
                        print(f"{workload} seed {seed} {side}: perfbench/run.py exited {exc.returncode}{tail}", flush=True)
                        return 1
                    results[side].append(result)
                    if not result["correct"]:
                        incorrect.append(f"{workload} seed {seed} {side}")
                print(f"{workload} seed {seed}: {pair_line(results['base'][-1], results['change'][-1], args.trace)}", flush=True)
            print(f"\n{workload}, {len(args.seeds)} pairs, base {args.base}: ", end="")
            if args.trace:
                print(f"{COVERAGE} min / median / max")
                for side, runs in results.items():
                    xs = [r["metrics"][COVERAGE] for r in runs]
                    correct = sum(r["correct"] for r in runs)
                    print(f"  {side:6s} {min(xs):.3f} / {statistics.median(xs):.3f} / {max(xs):.3f}  correct {correct}/{len(runs)}")
            else:
                print("median [Q1, Q3] base -> change")
                for m in metrics:
                    base, change = ([r["metrics"][m["name"]] for r in results[side]] for side in ("base", "change"))
                    print(f"  {m['name']:16s} {summary(base, change, m['better'] == 'higher', m['bound'])}")
            if args.items:
                print("per item, median scaled time base -> change")
                print("\n".join(item_lines(results["base"], results["change"])))
            print(flush=True)
    if incorrect:
        print("incorrect runs: " + ", ".join(incorrect), flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
