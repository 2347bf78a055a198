"""Metamorphic relations: the paper's reduction on decide's own certificates.

A Feasible verdict on an integrable J and a completely solvable g carries a
closed form omega that tames J, so (g, omega, J) is a tamed triple: it
verifies, the reduction tower along 1-dimensional isotropic ideals reaches
dimension 0, and the bracket relations of the structure argument
(``proof_trace``) hold exactly on it and on every reduced triple.
"""

from pathlib import Path

from tamecert import Feasible, decide, is_completely_solvable, is_integrable, proof_trace
from tamecert.reduction import TamedTriple, reduction_tower

from conftest import FIXTURES_DIR

REPO_ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def test_reduction_and_proof_trace_on_decides_certificates(corpus, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import workloads

    items = [(name, fx.algebra, fx.J) for name, fx in corpus.items()]
    for seed in SEEDS:
        for workload in ("conjugated", "scaling"):
            built = workloads.build_items(workload, seed, FIXTURES_DIR)
            items += [(f"{it.name}@{workload}:{seed}", it.algebra, it.J) for it in built]
    verdicts, triples, skipped = 0, 0, set()
    for name, g, J in items:
        v = decide(g, J)
        if not isinstance(v, Feasible):
            continue
        if not (is_integrable(g, J) and is_completely_solvable(g)):
            skipped.add(name.split("~")[0])
            continue
        t = TamedTriple.build(g, v.omega, J)
        tower = reduction_tower(t)
        assert tower.terminal_dim == 0, name
        for triple in [t] + [step.reduced for step in tower.steps if step.reduced.algebra.dim]:
            proof_trace(triple)  # raises RelationViolation on any nonzero residual
            triples += 1
        verdicts += 1
    # the fixtures' 6 tamed ones, aff_r and aff_r2 under 2 basis changes and the 3 scaling sums, at 3 seeds
    assert (verdicts, triples) == (6 + 3 * (4 + 3), 82)
    assert skipped == {"sol3_r_nonint"}  # its J is not integrable
