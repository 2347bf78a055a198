"""The tamecert benchmark: one workload, end to end or traced, in one process.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads (inputs are built from ``--seed`` before any timing; see
``workloads.py``):

- ``corpus``: ``pipeline.analyze`` on each of the 11 shipped fixtures, the
  per-file work of ``corpus_run(jobs=1)``.  The only workload that runs the
  structural flags and the reduction tower.
- ``scaling``: ``feasibility.decide`` on Feasible direct sums at dimension
  10-12, where the exact ``Fraction`` kernel dominates.  Not listed in
  ``BENCHMARK.json``: its few, long items do not hold a steady figure on a
  contended host (see README.md).
- ``conjugated``: ``decide`` on the 7 non-abelian fixtures, each under two
  fixed rational basis changes, where the ascent dominates and the precheck
  can miss.

A pass runs every item once, in a seeded order, as a closed loop with one
caller.  After set-up and an untimed warm-up pass (one item per shipped
fixture), a run makes a fixed number of passes, as many as fill
``--seconds`` on the reference machine.  An item's time is the median over
the passes of its CPU time, each scaled to the quiet reference machine by
the host probe of ``calibrate.py``.

Every verdict is compared with the expected one and its certificate is
re-verified by ``certcheck.py``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs each item untraced and through the spanned
replay of ``spans.py``, in alternating order, checks that both agree, and
reports per-layer metrics.  A per-run record (environment, per-item
outcomes, and in trace mode every span) is written under
``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before anything can import numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT = HERE / "out"

# The work of a run is fixed, so that every run of a workload attempts (and
# fails) the same calls: PASS_CPU_S is the CPU time of one untraced pass on
# the reference machine (see README.md), and a run makes as many passes as
# fill --seconds, at least MIN_PASSES.  A traced pass costs about twice an
# untraced one, and a traced run is given TRACE_WINDOW times --seconds.
PASS_CPU_S = {"corpus": 3.3, "scaling": 7.5, "conjugated": 13.5}
MIN_PASSES = 2
TRACE_WINDOW = 1.5
# No pass starts after this many times the planned wall time of the passes,
# so that a run on a very slow host still ends in time; the notes say when
# it cut.
WALL_CAP = 2.5
# Times are the thread's CPU time, as in calibrate.py: the calls are
# single-threaded, BLAS included, so on an idle machine this is their wall
# time, and on a shared one it leaves out the time spent waiting for a CPU.
CLOCK = time.thread_time
SETUP_REPS = 7
# The workloads hold 11 to 14 items, too few for ten samples above any
# percentile of the item mix, so the tail is the p90 and the count above it
# is stated.
TAIL_Q = 0.9
# bench.span_coverage_ratio (spans over untraced item time) must stay this
# close to 1, or the run is not correct: the replay no longer does the work
# the program does.
COVERAGE_TOL = 0.2

LAYER_TIMES = [
    "feasibility.maximize_lambda_min",
    "feasibility.build_problem",
    "forms.is_integrable",
    "forms.d2_matrix",
    "linalg.nullspace",
    "forms.taming_gram",
    "feasibility.degeneracy_precheck",
    "feasibility.dual_certificate",
    "feasibility.exactify",
    "algebra.structural_flags",
    "reduction.tamed_triple",
    "reduction.reduction_tower",
]


@dataclass
class Record:
    item: str
    seconds: float  # CPU time, less the host probe's
    scaled: float  # seconds, scaled to the quiet reference machine
    outcome: str  # ok | unknown | error | wrong | bad_certificate
    certified: bool
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.outcome != "ok"

    @property
    def incorrect(self) -> bool:
        return self.outcome in ("wrong", "bad_certificate")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["corpus", "scaling", "conjugated"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def child_import_seconds() -> float:
    """CPU time of ``import tamecert`` in a fresh interpreter (numpy included)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
        "import tamecert; print(time.process_time() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "seed": seed,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "git_commit": git_commit(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Bench:
    def __init__(self, workload: str, seed: int):
        from calibrate import HostProbe
        from tamecert.feasibility import decide
        from tamecert.pipeline import analyze

        self.workload = workload
        self.seed = seed
        self._analyze = analyze
        self._decide = decide
        self.order_rng = random.Random(f"order:{workload}:{seed}")
        self.probe = HostProbe()
        self.correct = True
        self.notes: list[str] = []

    # --- the unit of work ---

    def call(self, item):
        """The program's answer for one item: a verdict, or the exception it raised."""
        try:
            if item.fixture is not None:
                return self._analyze(item.fixture)
            return self._decide(item.algebra, item.J)
        except Exception as exc:  # an item that raises is a failed item, not a failed run
            return exc

    def verdict_of(self, answer):
        return answer.feasibility if hasattr(answer, "feasibility") else answer

    def judge(self, item, answer, seconds: float, scaled: float) -> Record:
        from certcheck import certificate_ok
        from tamecert.feasibility import Feasible, Infeasible, Unknown

        v = self.verdict_of(answer)
        if isinstance(v, BaseException):
            detail = "".join(traceback.format_exception_only(type(v), v)).strip()
            return Record(item.name, seconds, scaled, "error", False, detail)
        if isinstance(v, Unknown):
            return Record(item.name, seconds, scaled, "unknown", False, f"best_lambda_min={v.best_lambda_min!r}")
        if v.kind != item.expected:
            return Record(item.name, seconds, scaled, "wrong", False, f"expected {item.expected}, got {v.kind}")
        certified = certificate_ok(item.algebra, item.J, v)
        claims_exact = (isinstance(v, Feasible) and v.exact_pd) or (
            isinstance(v, Infeasible) and v.rank_one_direction is not None
        )
        if claims_exact and not certified:
            return Record(item.name, seconds, scaled, "bad_certificate", False, "exact certificate failed the re-check")
        return Record(item.name, seconds, scaled, "ok", certified)

    def measure(self, item) -> tuple[object, Record]:
        """Time one untraced call and judge its answer."""
        with self.probe.during() as probe:
            t0 = CLOCK()
            answer = self.call(item)
            seconds = CLOCK() - t0 - probe.spent
        record = self.judge(item, answer, seconds, seconds * probe.factor())
        if record.incorrect:
            self.correct = False
        return answer, record

    def shuffled(self, items) -> list:
        return self.order_rng.sample(items, len(items))

    def run_pass(self, items) -> list[Record]:
        return [self.measure(item)[1] for item in self.shuffled(items)]

    def smoke_test(self, load) -> None:
        from certcheck import smoke_test

        feas = load(FIXTURES / "aff_r.json")
        infeas = load(FIXTURES / "h3_r.json")
        problems = smoke_test(
            (feas.algebra, feas.J, self._decide(feas.algebra, feas.J)),
            (infeas.algebra, infeas.J, self._decide(infeas.algebra, infeas.J)),
        )
        for p in problems:
            self.notes.append(f"certificate checker smoke test: {p}")
        if problems:
            self.correct = False


def keep_best(d: dict, key: str, value: float) -> None:
    d[key] = min(value, d.get(key, value))


def item_medians(records: list[Record], attr: str) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for r in records:
        samples.setdefault(r.item, []).append(getattr(r, attr))
    return {name: statistics.median(v) for name, v in samples.items()}


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_CPU_S[workload]))


def run_passes(bench: Bench, items, passes: int, planned: float, one) -> int:
    """Call ``one(item, k)`` on every item in pass k, each pass in a seeded order.

    Returns the passes made: fewer than ``passes`` only when WALL_CAP times
    the ``planned`` seconds of wall time ran out.
    """
    start = time.perf_counter()
    made = 0
    for k in range(passes):
        if k and time.perf_counter() - start > WALL_CAP * planned:
            bench.notes.append(f"wall-time cap reached: stopped after {k} of {passes} passes")
            break
        for item in bench.shuffled(items):
            one(item, k)
        made += 1
    return made


def speed_note(records: list[Record]) -> str:
    factors = [r.scaled / r.seconds for r in records if r.seconds > 0]
    q = statistics.quantiles(factors, n=4)
    return (
        f"host probe: scaling factor median {statistics.median(factors):.4f}, "
        f"Q1 {q[0]:.4f}, Q3 {q[2]:.4f} over {len(factors)} calls"
    )


def end_to_end(bench: Bench, items, seconds: float, setup_reps: list[float]):
    records: list[Record] = []

    def one(item, _k) -> None:
        records.append(bench.measure(item)[1])

    passes = passes_for(bench.workload, seconds)
    passes = run_passes(bench, items, passes, passes * PASS_CPU_S[bench.workload], one)
    per_item = item_medians(records, "scaled")
    times = list(per_item.values())
    raw = list(item_medians(records, "seconds").values())
    failed_items = {r.item for r in records if r.failed}
    certified_items = {r.item for r in records if r.certified} - failed_items
    n = len(per_item)
    bench.notes.append(
        f"item times are each item's median scaled CPU time over {passes} passes; "
        f"item_tail_s is their p{100 * TAIL_Q:.0f} over {n} items ({(1 - TAIL_Q) * (n - 1):.1f} above it)"
    )
    bench.notes.append(f"failed_ratio = {len(failed_items)}/{n} items = {len(failed_items) / n:.4f}")
    bench.notes.append(speed_note(records))
    bench.notes.append(
        f"unscaled: items_per_s {n / sum(raw):.4f}, item_p50_s {statistics.median(raw):.4f}, "
        f"item_tail_s {percentile(raw, TAIL_Q):.4f}"
    )
    metrics = {
        "items_per_s": (n / sum(times), "1/s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_tail_s": (percentile(times, TAIL_Q), "s"),
        "certified_ratio": (len(certified_items) / n, "ratio"),
        "ok_ratio": (1.0 - len(failed_items) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_reps), "s"),
    }
    return records, metrics


def traced(bench: Bench, items, rec, seconds: float, load_reps: list[float]):
    """Sample each item untraced and through the spanned replay, in alternating order."""
    from spans import ROOT as ROOT_SPAN, closed_basis_signature, traced_analyze, traced_decide, verdict_signature
    from tamecert.forms import closed_two_forms

    records: list[Record] = []
    basis_cache: dict[str, tuple] = {}
    position = {item.name: i for i, item in enumerate(items)}
    untraced: dict[str, float] = {}  # per item, the best scaled untraced time
    best: dict[str, dict] = {}  # per item, the traced sample with the shortest scaled root span

    def replay(item) -> dict:
        """Run the replay under the host probe; its times come out scaled as the untraced call's are."""
        rec.item = item.name
        first = len(rec.spans)
        counts0 = dict(rec.counts)
        with bench.probe.during() as probe, rec.span(ROOT_SPAN) as root:
            try:
                if item.fixture is not None:
                    flags, verdict, basis, steps = traced_analyze(rec, item.fixture)
                else:
                    verdict, basis = traced_decide(rec, item.algebra, item.J)
                    flags = steps = None
            except Exception as exc:  # the direct call must have raised the same
                verdict, basis, flags, steps = exc, None, None, None
        total = root.end - root.start
        # The probe's readings fell inside the spans; take their time out of
        # every span in proportion, then scale.
        scale = (total - probe.spent) / total * probe.factor() if total > 0 else 0.0
        covered = sum(s.end - s.start for s in rec.spans[first + 1 :] if s.parent == first)
        return {
            "root": total * scale,
            "covered": covered * scale,
            "self": {k: v * scale for k, v in rec.self_times(first).items()},
            # counters that hold seconds are scaled too
            "counts": {
                k: (v - counts0.get(k, 0.0)) * (scale if k.endswith(".s") else 1.0) for k, v in rec.counts.items()
            },
            "answer": (flags, verdict, basis, steps),
        }

    def check(item, answer, replayed) -> None:
        flags, verdict, basis, steps = replayed
        mismatch = []
        if verdict_signature(bench.verdict_of(answer)) != verdict_signature(verdict):
            mismatch.append("verdict")
        if basis is not None:
            if item.name not in basis_cache:
                basis_cache[item.name] = closed_basis_signature(closed_two_forms(item.algebra))
            if closed_basis_signature(basis) != basis_cache[item.name]:
                mismatch.append("closed basis")
        if flags is not None and not isinstance(answer, BaseException):
            if any(answer.flags[k] != v for k, v in flags.items()):
                mismatch.append("flags")
            if steps != (answer.reduction or {}).get("steps"):
                mismatch.append("reduction steps")
        if mismatch:
            bench.correct = False
            bench.notes.append(f"replay differs from the direct call on {item.name}: {', '.join(mismatch)}")

    def one(item, k) -> None:
        # Alternate which call runs first: the first of two back-to-back
        # calls on an item tends to be the slower one.
        if (k + position[item.name]) % 2:
            t = replay(item)
            answer, r = bench.measure(item)
        else:
            answer, r = bench.measure(item)
            t = replay(item)
        records.append(r)
        keep_best(untraced, item.name, r.scaled)
        if item.name not in best or t["root"] < best[item.name]["root"]:
            best[item.name] = t
        check(item, answer, t.pop("answer"))

    passes = passes_for(bench.workload, TRACE_WINDOW * seconds / 2)
    passes = run_passes(bench, items, passes, 2 * passes * PASS_CPU_S[bench.workload], one)
    untraced_total = sum(untraced.values())
    coverage = sum(t["covered"] for t in best.values()) / untraced_total
    overhead = sum(t["root"] for t in best.values()) / untraced_total - 1.0
    inside = abs(coverage - 1.0) <= COVERAGE_TOL
    if not inside:
        bench.correct = False
    bench.notes.append(
        f"span coverage {coverage:.4f} is {'within' if inside else 'OUTSIDE'} "
        f"the {COVERAGE_TOL:.2f} tolerance around 1; each item's best of "
        f"{passes} untraced and {passes} traced samples"
    )
    bench.notes.append(speed_note(records))

    # per-layer figures are seconds (or counts) per pass: summed over the
    # items, each from its best traced sample
    def total(part: str, key: str) -> float:
        return sum(t[part].get(key, 0.0) for t in best.values())

    def ratio(num: str, den: str) -> float:
        return total("counts", num) / total("counts", den) if total("counts", den) else 0.0

    metrics = {f"{name}.s": (total("self", name), "s") for name in LAYER_TIMES}
    metrics.update(
        {
            "feasibility.ascent_after_proof.s": (total("counts", "feasibility.ascent_after_proof.s"), "s"),
            "forms.closed_form_dim": (total("counts", "forms.closed_form_dim") / len(best), "count"),
            "feasibility.precheck_hit_ratio": (ratio("feasibility.precheck_hits", "feasibility.precheck_calls"), "ratio"),
            "feasibility.dual_accept_ratio": (ratio("feasibility.dual_accepts", "feasibility.dual_calls"), "ratio"),
            "feasibility.exactify_ok_ratio": (ratio("feasibility.exactify_ok", "feasibility.exactify_calls"), "ratio"),
            "reduction.steps": (total("counts", "reduction.steps"), "count"),
            "fixtures.load_fixture.s": (statistics.median(load_reps), "s"),
            "bench.span_coverage_ratio": (coverage, "ratio"),
            "bench.trace_overhead_ratio": (overhead, "ratio"),
        }
    )
    for key in ("feasibility.precheck", "feasibility.dual", "feasibility.exactify"):
        bench.notes.append(f"{key} calls per pass: {total('counts', key + '_calls'):.0f}")
    return records, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tamecert" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: {SRC}/tamecert and {FIXTURES} are needed; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    warnings.filterwarnings("ignore", message="J is not integrable")

    from spans import Recorder
    from tamecert.fixtures import load_fixture

    bench = Bench(args.workload, args.seed)
    rec = Recorder()
    items, setup_reps, load_reps = setup(bench, rec, load_fixture)
    bench.smoke_test(load_fixture)
    # warm-up pass, one item per shipped fixture: checked, not timed
    warm = {}
    for item in items:
        warm.setdefault(item.base, item)
    bench.run_pass(list(warm.values()))

    if args.trace:
        records, metrics = traced(bench, items, rec, args.seconds, load_reps)
    else:
        records, metrics = end_to_end(bench, items, args.seconds, setup_reps)

    env = environment(args.seed)
    failed = sum(r.failed for r in records)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "env": env,
                "metrics": reported,
                "notes": bench.notes,
                "items": [r.__dict__ for r in records],
            },
            indent=1,
        )
    )
    if args.trace:
        rec.write(OUT / f"{stem}-spans.json")

    print(f"tamecert benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + json.dumps(env))
    for k, (v, u) in metrics.items():
        print(f"  {k:40s} {v:14.6f} {u}")
    if args.trace:
        _print_layer_table(rec)
    for note in bench.notes:
        print("note: " + note)
    print(f"outcomes: {dict(Counter(r.outcome for r in records))}")
    print(json.dumps({"correct": bench.correct, "attempted": len(records), "failed": failed, "metrics": reported}))
    return 0


def setup(bench: Bench, rec, load_fixture):
    """Build the inputs SETUP_REPS times.

    One repetition is a fresh-interpreter import, loading or generating
    every input (with its Jacobi check), and one warm-up call on
    ``abelian_r2``, in CPU time scaled by the host probe.  Returns the items
    and, per repetition, the set-up and fixture-load seconds.
    """
    from workloads import FEASIBLE, Item, build_items

    def load(path):
        return rec.call("fixtures.load_fixture", load_fixture, path)

    rec.item = "setup"
    items, reps, loads = None, [], []
    for _ in range(SETUP_REPS):
        first = len(rec.spans)
        with bench.probe.during() as probe:
            imported = child_import_seconds()
            t0 = CLOCK()
            items = build_items(bench.workload, bench.seed, FIXTURES, load)
            warm = load(FIXTURES / "abelian_r2.json")
            bench.call(Item(warm.name, warm.name, warm.algebra, warm.J, FEASIBLE, warm if bench.workload == "corpus" else None))
            seconds = imported + CLOCK() - t0 - probe.spent
        reps.append(seconds * probe.factor())
        loads.append(rec.self_times(first).get("fixtures.load_fixture", 0.0))
    return items, reps, loads


def _print_layer_table(rec) -> None:
    own = rec.self_times()
    total = sum(t for name, t in own.items() if name != "bench.item") or 1.0
    print("  per-layer self time over the whole run, unscaled:")
    for name, t in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"    {name:40s} {t:10.4f} s  {100 * t / total:6.2f}%")


if __name__ == "__main__":
    sys.exit(main())
