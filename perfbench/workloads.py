"""Benchmark inputs: the three workloads, their generators and expected verdicts.

Every input is built from the run seed before any timing starts.  The
program only ever sees the generated ``LieAlgebra`` / ``ComplexStructure``
(or, for ``corpus``, the loaded ``Fixture``); the expected verdict stays on
the benchmark side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tamecert.algebra import LieAlgebra, scale_structure_constants
from tamecert.fixtures import Fixture, load_fixture
from tamecert.forms import ComplexStructure
from tamecert.linalg import det, mat_inverse, mat_mul

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# The verdict of every shipped fixture, as pinned by the acceptance suite.
CORPUS_EXPECTED = {
    "abelian_r2": FEASIBLE,
    "abelian_r4": FEASIBLE,
    "abelian_r6": FEASIBLE,
    "abelian_r8": FEASIBLE,
    "aff_r": FEASIBLE,
    "aff_r2": FEASIBLE,
    "h3_r": INFEASIBLE,
    "inoue_s0": INFEASIBLE,
    "iwasawa": INFEASIBLE,
    "sol3_r_nonint": FEASIBLE,
    "sol4_1": INFEASIBLE,
}
NON_ABELIAN = ["aff_r", "aff_r2", "h3_r", "inoue_s0", "iwasawa", "sol3_r_nonint", "sol4_1"]

# scaling: direct sums of corpus summands at dimension 10-12
SCALING_SUMS = {
    "r10": ["abelian_r2"] * 5,
    "r12": ["abelian_r2"] * 6,
    "aff_r2^3": ["aff_r2"] * 3,
}
# Rescaling a summand's brackets by t is the basis change e -> t e, so it keeps
# the verdict; the seed draws one factor per summand from this list.
RESCALE_FACTORS = [Fraction(p, q) for p, q in ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (3, 2), (2, 3))]

# conjugated: a fixed pool of POOL_SIZE basis changes P (entries in [-2, 2])
# per fixture, all sampled in every run.  The cost of one P varies up to
# tenfold across P, so the pool does not depend on the run seed: every seed
# measures the same mix of easy, slow and failing items.  The seed scales
# each P by t, which rescales the brackets by t and keeps the verdict, and it
# sets the order of the items.  A third P per fixture makes a run hold too
# few samples of the slow items (see README.md).
POOL_SIZE = 2
POOL_SEED = "tamecert-conjugated-pool"


@dataclass(frozen=True)
class Item:
    """One unit of work: ``analyze(fixture)`` when ``fixture`` is set, else ``decide(algebra, J)``."""

    name: str
    base: str  # the shipped fixture the item is built from
    algebra: LieAlgebra
    J: ComplexStructure
    expected: str
    fixture: Fixture | None = None


def direct_sum(parts: list[tuple[LieAlgebra, ComplexStructure]]) -> tuple[LieAlgebra, ComplexStructure]:
    """g1 + ... + gk with the block-diagonal J; the constructor re-checks Jacobi."""
    dim = sum(g.dim for g, _ in parts)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    J = [[Fraction(0)] * dim for _ in range(dim)]
    off = 0
    for g, j in parts:
        for (a, b), comps in g.structure_constants:
            brackets[(a + off, b + off)] = {k + off: c for k, c in comps}
        for a in range(g.dim):
            for b in range(g.dim):
                J[a + off][b + off] = j.matrix[a][b]
        off += g.dim
    return LieAlgebra.from_brackets(dim, brackets), ComplexStructure.from_matrix(J)


def random_basis_change(n: int, rng: random.Random) -> list[list[Fraction]]:
    """An invertible n x n matrix with integer entries in [-2, 2]."""
    while True:
        P = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if det(P) != 0:
            return P


def conjugate(g: LieAlgebra, J: ComplexStructure, P: list[list[Fraction]]) -> tuple[LieAlgebra, ComplexStructure]:
    """(g, J) in the basis given by the columns of P: (P^-1[P., P.], P^-1 J P)."""
    n = g.dim
    Pinv = mat_inverse(P)
    cols = [tuple(P[r][c] for r in range(n)) for c in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = g.bracket(cols[i], cols[j])
            image = [sum((Pinv[r][c] * w[c] for c in range(n)), Fraction(0)) for r in range(n)]
            brackets[(i, j)] = {k: v for k, v in enumerate(image) if v != 0}
    g2 = LieAlgebra.from_brackets(n, brackets)
    J2 = ComplexStructure.from_matrix(mat_mul(mat_mul(Pinv, [list(r) for r in J.matrix]), P))
    return g2, J2


def build_items(workload: str, seed: int, fixtures_dir: Path, load=load_fixture) -> list[Item]:
    """The items of one pass; ``load`` is the fixture loader, so a trace can wrap it."""
    names = {
        "corpus": sorted(CORPUS_EXPECTED),
        "scaling": sorted({p for parts in SCALING_SUMS.values() for p in parts}),
        "conjugated": NON_ABELIAN,
    }[workload]
    rng = random.Random(f"{workload}:{seed}")
    fx = {name: load(fixtures_dir / f"{name}.json") for name in names}
    if workload == "corpus":
        return [Item(n, n, f.algebra, f.J, CORPUS_EXPECTED[n], f) for n, f in fx.items()]
    items = []
    if workload == "scaling":
        for name, parts in SCALING_SUMS.items():
            summands = [
                (scale_structure_constants(fx[p].algebra, rng.choice(RESCALE_FACTORS)), fx[p].J) for p in parts
            ]
            g, J = direct_sum(summands)
            # direct-sum rule: Feasible iff every summand is
            ok = all(CORPUS_EXPECTED[p] == FEASIBLE for p in parts)
            items.append(Item(name, name, g, J, FEASIBLE if ok else INFEASIBLE))
    else:
        for name in NON_ABELIAN:
            f = fx[name]
            for k in range(POOL_SIZE):
                P = random_basis_change(f.algebra.dim, random.Random(f"{POOL_SEED}:{name}:{k}"))
                t = rng.choice(RESCALE_FACTORS[1:])
                g, J = conjugate(f.algebra, f.J, [[t * x for x in row] for row in P])
                items.append(Item(f"{name}~P{k}", name, g, J, CORPUS_EXPECTED[name]))
    return items
