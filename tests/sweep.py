"""The lane census of ROADMAP item 24's sweep, drawn by ``sweep_draws`` in tests/conftest.py.

Run from any directory:

    python tests/sweep.py --seed 12345 --draws 200

It decides each draw and prints how many read Feasible, Infeasible by the
rank-one precheck, Infeasible by the dual lane and Unknown; then each
dual-lane draw with its name and the bit length of the largest numerator or
denominator of its certificate; then the Unknown draws.  The name does not
start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import largest_entry_bits, sweep_draws  # noqa: E402
from tamecert import decide  # noqa: E402

LANES = ("Feasible", "precheck", "dual", "Unknown")


def lane(verdict) -> str:
    if verdict.kind == "infeasible":
        return "precheck" if verdict.rank_one_direction is not None else "dual"
    return verdict.kind.capitalize()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--draws", type=int, default=200)
    args = ap.parse_args(argv)
    logging.getLogger("tamecert").setLevel(logging.ERROR)  # each Unknown logs a warning; the census lists them
    census = {name: [] for name in LANES}
    for index, name, g, J in sweep_draws(args.seed, args.draws):
        v = decide(g, J)
        census[lane(v)].append((index, name, v))
    print(f"seed {args.seed}, {args.draws} draws: " + ", ".join(f"{len(census[k])} {k}" for k in LANES))
    print("dual lane: draw, name, largest entry bits")
    for index, name, v in census["dual"]:
        print(f"  {index:4d} {name:28s} {largest_entry_bits(v.dual)}")
    print("Unknown: " + ", ".join(f"{index} {name}" for index, name, _ in census["Unknown"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
