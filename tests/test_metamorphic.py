"""Metamorphic relations: the paper's reduction on decide's own certificates.

A Feasible verdict on an integrable J and a completely solvable g carries a
closed form omega that tames J, so (g, omega, J) is a tamed triple: it
verifies, the reduction tower along 1-dimensional isotropic ideals reaches
dimension 0, and the bracket relations of the structure argument
(``proof_trace``) hold exactly on it and on every reduced triple.  The
J-invariant part v = h^perp cap J h^perp that the trace reads equals the
Zassenhaus intersection on those triples.
"""

import pytest

from tamecert import Feasible, decide, is_completely_solvable, is_integrable, proof_trace
from tamecert.reduction import TamedTriple, find_isotropic_ideal, omega_perp, reduction_tower

from conftest import TAMED_NAMES, invariant_part


@pytest.fixture(scope="module")
def certified(corpus, bench_items):
    """(name, triple, tower) for each of decide's Feasible verdicts on the
    fixtures and on the conjugated and scaling items at seeds 1-3 whose g is
    completely solvable and whose J is integrable; and the names skipped."""
    items = [(name, fx.algebra, fx.J) for name, fx in corpus.items()]
    for seed in (1, 2, 3):
        for workload in ("conjugated", "scaling"):
            items += [(f"{it.name}@{workload}:{seed}", it.algebra, it.J) for it in bench_items[workload, seed]]
    found, skipped = [], set()
    for name, g, J in items:
        v = decide(g, J)
        if not isinstance(v, Feasible):
            continue
        if not (is_integrable(g, J) and is_completely_solvable(g)):
            skipped.add(name.split("~")[0])
            continue
        t = TamedTriple.build(g, v.omega, J)
        found.append((name, t, reduction_tower(t)))
    return found, skipped


def tower_triples(certified) -> list[tuple[str, TamedTriple]]:
    """Each certified triple and every reduced one of positive dimension."""
    return [(name, triple) for name, t, tower in certified[0] for triple in [t] + [s.reduced for s in tower.steps if s.reduced.algebra.dim]]


def test_reduction_and_proof_trace_on_decides_certificates(certified):
    found, skipped = certified
    for name, t, tower in found:
        assert tower.terminal_dim == 0, name
    triples = tower_triples(certified)
    for name, triple in triples:
        proof_trace(triple)  # raises RelationViolation on any nonzero residual
    # the fixtures' 6 tamed ones, aff_r and aff_r2 under 2 basis changes and the 3 scaling sums, at 3 seeds
    assert (len(found), len(triples)) == (6 + 3 * (4 + 3), 82)
    assert skipped == {"sol3_r_nonint"}  # its J is not integrable


def test_proof_trace_v_is_the_zassenhaus_intersection(corpus, certified):
    # v = h^perp cap J h^perp from the shared kernel equals the oracle's, on the
    # fixtures' own tamed triples and on the 82 triples above, and proof_trace reports it
    triples = [(name, TamedTriple.build(corpus[name].algebra, corpus[name].omega, corpus[name].J)) for name in TAMED_NAMES]
    triples += tower_triples(certified)
    for name, t in triples:
        perp = omega_perp(t, find_isotropic_ideal(t))
        kernel, oracle = invariant_part(perp, t.J)
        assert kernel == oracle and proof_trace(t).v_space == oracle, name
    assert len(triples) == len(TAMED_NAMES) + 82
