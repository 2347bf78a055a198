"""One sha256 over the package's outputs, to check that a change keeps them byte-identical.

Run from any directory: ``python tests/output_digest.py``.  It hashes, in this
order and with no separator:

1. ``dumps_report(analyze(fx).to_dict())`` for each shipped fixture, sorted by
   file name;
2. ``dumps_report(verdict_to_dict(decide(g, J)))`` for every item of the
   ``conjugated`` and then the ``scaling`` workload at seed 1, then 2, then 3,
   as ``perfbench/workloads.build_items`` builds them.

Two commits whose outputs agree print the same digest.  The name does not
start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tamecert.feasibility import decide  # noqa: E402
from tamecert.fixtures import dumps_report, load_fixture  # noqa: E402
from tamecert.pipeline import analyze, verdict_to_dict  # noqa: E402
from perfbench.workloads import build_items  # noqa: E402

SEEDS = (1, 2, 3)
WORKLOADS = ("conjugated", "scaling")


def output_digest() -> str:
    fixtures = ROOT / "fixtures"
    h = hashlib.sha256()
    for path in sorted(fixtures.glob("*.json")):
        h.update(dumps_report(analyze(load_fixture(path)).to_dict()).encode())
    for seed in SEEDS:
        for workload in WORKLOADS:
            for item in build_items(workload, seed, fixtures):
                h.update(dumps_report(verdict_to_dict(decide(item.algebra, item.J))).encode())
    return h.hexdigest()


if __name__ == "__main__":
    logging.disable(logging.WARNING)  # non-integrable J are logged; the digest is all this prints
    print(output_digest())
