"""Two sha256 digests over the package's outputs, to check that a change keeps them byte-identical.

Run from any directory: ``python tests/output_digest.py``.  It prints two
lines.  The first hashes, in this order and with no separator:

1. ``dumps_report(analyze(fx).to_dict())`` for each shipped fixture, sorted by
   file name;
2. ``dumps_report(verdict_to_dict(decide(g, J)))`` for every item of the
   ``conjugated`` and then the ``scaling`` workload at seed 1, then 2, then 3,
   as ``perfbench/workloads.build_items`` builds them.

The second hashes exact structure that no verdict shows, in the same way:

1. for each shipped fixture, sorted by file name, the stdout of
   ``cli.main(["reduce", path, "--json"])`` when the fixture has both J and
   omega (the ideals the reduction tower quotients by), then
   ``repr([s.rows for s in weight_spaces(g)])`` and
   ``repr([f.coeffs for f in closed_two_forms(g)])``, the closed basis byte
   for byte;
2. those two ``repr`` for every ``conjugated`` and then ``scaling`` item at
   seed 1, then 2, then 3.

Two commits whose outputs agree print the same two lines.  The name does not
start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench/ is not a package: its module loads as ``workloads``, the name tests/conftest.py imports it by,
# so that one pytest run loads it once
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tamecert import cli  # noqa: E402
from tamecert.algebra import weight_spaces  # noqa: E402
from tamecert.feasibility import decide  # noqa: E402
from tamecert.forms import closed_two_forms  # noqa: E402
from tamecert.fixtures import dumps_report, load_fixture  # noqa: E402
from tamecert.pipeline import analyze, verdict_to_dict  # noqa: E402
from workloads import build_items  # noqa: E402

SEEDS = (1, 2, 3)
WORKLOADS = ("conjugated", "scaling")
FIXTURES = ROOT / "fixtures"


def _items():
    for seed in SEEDS:
        for workload in WORKLOADS:
            yield from build_items(workload, seed, FIXTURES)


def output_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.json")):
        h.update(dumps_report(analyze(load_fixture(path)).to_dict()).encode())
    for item in _items():
        h.update(dumps_report(verdict_to_dict(decide(item.algebra, item.J))).encode())
    return h.hexdigest()


def _structure(g) -> bytes:
    weights = repr([s.rows for s in weight_spaces(g)])
    return (weights + repr([f.coeffs for f in closed_two_forms(g)])).encode()


def structure_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.json")):
        fx = load_fixture(path)
        if fx.J is not None and fx.omega is not None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(["reduce", str(path), "--json"])
            h.update(out.getvalue().encode())
        h.update(_structure(fx.algebra))
    for item in _items():
        h.update(_structure(item.algebra))
    return h.hexdigest()


if __name__ == "__main__":
    logging.disable(logging.WARNING)  # non-integrable J are logged; the digests are all this prints
    print(output_digest())
    print(structure_digest())
