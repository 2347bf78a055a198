"""Metamorphic relations: the paper's reduction on decide's own certificates.

A Feasible verdict on an integrable J and a completely solvable g carries a
closed form omega that tames J, so (g, omega, J) is a tamed triple: it
verifies, the reduction tower along 1-dimensional isotropic ideals reaches
dimension 0, and the bracket relations of the structure argument
(``proof_trace``) hold exactly on it and on every reduced triple.  The
J-invariant part v = h^perp cap J h^perp that the trace reads equals the
Zassenhaus intersection on those triples.  A direct sum with the block J is
tamed iff both summands are, and decide reads it so.

An Infeasible verdict of the dual lane survives the changes that keep the
problem: a basis change, which moves the closed Gram forms by a congruence,
and a rescaling of the brackets, which keeps the closed forms.  A dual X of
g1 padded by zeros, X + 0, pairs to zero with every closed Gram of g1 + g2,
as each closed form restricts to a closed form on g1.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from tamecert import Feasible, Infeasible, Unknown, decide, is_completely_solvable, is_integrable, proof_trace
from tamecert.algebra import scale_structure_constants
from tamecert.forms import closed_two_forms, taming_gram
from tamecert.reduction import TamedTriple, find_isotropic_ideal, omega_perp, reduction_tower

from conftest import (
    AFF_R2_NONINT_P,
    TAMED_NAMES,
    direct_sum,
    invariant_part,
    is_exact_dual,
    non_integrable_j,
    random_basis_change,
    workloads,
)


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


def test_direct_sums_decide_as_their_summands(corpus):
    # a closed form taming the block J on g1 + g2 restricts to one on each summand,
    # and the sum of the summands' forms tames the block J; so the sum is Feasible
    # iff both summands are, over every pair of fixtures with J, repeats allowed,
    # up to dimension 10, and no sum is Unknown
    with_j = [(name, fx) for name, fx in corpus.items() if fx.J is not None]
    alone = {name: isinstance(decide(fx.algebra, fx.J), Feasible) for name, fx in with_j}
    checked = 0
    for (a, fa), (b, fb) in combinations_with_replacement(with_j, 2):
        if fa.algebra.dim + fb.algebra.dim <= 10:
            v = decide(*direct_sum([(fa.algebra, fa.J), (fb.algebra, fb.J)]))
            assert not isinstance(v, Unknown) and isinstance(v, Feasible) == (alone[a] and alone[b]), (a, b)
            checked += 1
    assert checked == 54


def dual_lane_verdict(g, J) -> Infeasible:
    """decide's verdict on (g, J), checked to be the dual lane's Infeasible with an exact dual."""
    v = decide(g, J)
    assert isinstance(v, Infeasible) and v.rank_one_direction is None
    assert is_exact_dual([list(row) for row in v.dual], [taming_gram(b, J) for b in closed_two_forms(g)])
    return v


@pytest.mark.parametrize("P", AFF_R2_NONINT_P)
def test_dual_lane_verdicts_survive_basis_changes_and_rescaling(corpus, P):
    # each non-integrable J on aff_r2 stays Infeasible with an exact dual under
    # five seeded dense basis changes and with its brackets rescaled by 2, 1/3 and 1000
    fx = corpus["aff_r2"]
    J = non_integrable_j(fx, P)
    dual_lane_verdict(fx.algebra, J)
    for s in range(1, 6):
        dual_lane_verdict(*workloads.conjugate(fx.algebra, J, random_basis_change(4, random.Random(s))))
    for t in (Fraction(2), Fraction(1, 3), Fraction(1000)):
        dual_lane_verdict(scale_structure_constants(fx.algebra, t), J)


def test_padded_duals_pair_to_zero_on_direct_sums(corpus):
    # the dual X of an Infeasible g1, padded to X + 0, pairs to exactly 0 with
    # every closed Gram of g1 + g2: X from the Infeasible fixtures and the six
    # dual-lane inputs on aff_r2, g2 every fixture with J, up to dimension 10
    with_j = [fx for fx in corpus.values() if fx.J is not None]
    duals = [(fx.algebra, fx.J, decide(fx.algebra, fx.J)) for fx in with_j]
    aff_r2 = corpus["aff_r2"]
    duals += [(aff_r2.algebra, J, decide(aff_r2.algebra, J)) for J in (non_integrable_j(aff_r2, P) for P in AFF_R2_NONINT_P)]
    checked = 0
    for g1, J1, v in duals:
        if not isinstance(v, Infeasible):
            continue
        for fx in with_j:
            n = g1.dim + fx.algebra.dim
            if n > 10:
                continue
            g, J = direct_sum([(g1, J1), (fx.algebra, fx.J)])
            for b in closed_two_forms(g):
                s = taming_gram(b, J)
                assert sum(s[i][j] * v.dual[i][j] for i in range(g1.dim) for j in range(g1.dim)) == 0
            checked += 1
    assert checked == 98
